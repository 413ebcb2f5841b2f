import pytest

from heckeskein.perm import (
    Perm,
    all_perms,
    coset_decompose,
    identity,
    length,
    reduced_word,
    right_gen,
    transposition,
    word_to_perm,
)
from oracles import compose, inverse


def test_group_ops_examples():
    assert compose(Perm((2, 1, 3)), Perm((2, 1, 3))) == identity(3)
    assert inverse(Perm((2, 3, 1))) == Perm((3, 1, 2))
    assert compose(Perm((2, 3, 1)), Perm((3, 1, 2))) == identity(3)


def test_size_mismatch():
    with pytest.raises(ValueError):
        compose(identity(2), identity(3))
    with pytest.raises(ValueError):
        Perm((1, 1, 2))


def test_length_examples():
    assert length(identity(4)) == 0
    assert length(Perm((2, 1, 3))) == 1
    assert length(Perm((3, 2, 1))) == 3


def test_reduced_word_examples():
    assert reduced_word(identity(3)) == []
    assert reduced_word(Perm((2, 1, 3))) == [1]
    w = reduced_word(Perm((3, 2, 1)))
    assert w in ([1, 2, 1], [2, 1, 2])
    assert word_to_perm(3, w) == Perm((3, 2, 1))


def test_transposition():
    assert transposition(1, 2, 2) == Perm((2, 1))
    assert transposition(1, 3, 3) == Perm((3, 2, 1))
    assert length(transposition(2, 5, 5)) == 5
    with pytest.raises(ValueError):
        transposition(3, 2, 5)


def test_transposition_word_shape():
    # sigma_i ... sigma_{j-2} sigma_{j-1} sigma_{j-2} ... sigma_i
    for n in range(2, 7):
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                word = list(range(i, j - 1)) + [j - 1] + list(range(j - 2, i - 1, -1))
                assert word_to_perm(n, word) == transposition(i, j, n)
                assert length(transposition(i, j, n)) == 2 * (j - i) - 1


def test_coset_examples():
    assert coset_decompose(identity(3)) == (identity(2), None)
    assert coset_decompose(word_to_perm(3, [2])) == (identity(2), 2)
    u, k = coset_decompose(Perm((3, 2, 1)))
    assert (u, k) == (Perm((2, 1)), 1)


def test_coset_reassembles_exhaustive():
    for n in range(1, 7):
        for p in all_perms(n):
            u, k = coset_decompose(p)
            if k is None:
                assert u.images == p.images[:-1]
                assert length(u) == length(p)
            else:
                assert length(u) + (n - k) == length(p)
                rebuilt = Perm(u.images + (n,))
                for i in range(n - 1, k - 1, -1):
                    rebuilt = compose(rebuilt, word_to_perm(n, [i]))
                assert rebuilt == p


def test_reduced_word_exhaustive():
    for n in range(0, 7):
        for p in all_perms(n):
            w = reduced_word(p)
            assert len(w) == length(p)
            assert word_to_perm(n, w) == p


def test_length_changes_by_one():
    for p in all_perms(5):
        for i in range(1, 5):
            q = Perm(right_gen(p.images, i))
            assert abs(length(q) - length(p)) == 1


def test_all_perms():
    assert list(all_perms(1)) == [identity(1)]
    assert len(list(all_perms(3))) == 6
    assert len(list(all_perms(5))) == 120
    with pytest.raises(ValueError):
        list(all_perms(9))

