import math
from collections import Counter

import pytest

from heckeskein.perm import (
    Perm,
    all_perms,
    coset_decompose,
    cycle_type,
    identity,
    length,
    reduced_word,
    right_gen,
    transposition,
)
from oracles import compose, coxeter_rep, inverse, inversions, word_to_perm


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
                assert inversions(u) == inversions(p)
            else:
                assert inversions(u) + (n - k) == inversions(p)
                rebuilt = Perm(u.images + (n,))
                for i in range(n - 1, k - 1, -1):
                    rebuilt = compose(rebuilt, word_to_perm(n, [i]))
                assert rebuilt == p


def test_reduced_word_exhaustive():
    for n in range(0, 7):
        for p in all_perms(n):
            w = reduced_word(p)
            assert len(w) == length(p) == inversions(p)
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



def test_cycle_type_examples():
    assert cycle_type(()) == ()
    assert cycle_type((1, 2, 3)) == (1, 1, 1)
    assert cycle_type((2, 3, 1)) == (3,)
    assert cycle_type((2, 1, 4, 5, 3)) == (3, 2)
    assert cycle_type((1, 4, 2, 3)) == (3, 1)


def test_cycle_type_class_sizes():
    # the class of cycle type mu has n! / z_mu elements,
    # z_mu = prod over part sizes i of i^{m_i} m_i!
    for n in range(1, 7):
        counts = Counter(cycle_type(p.images) for p in all_perms(n))
        for mu, size in counts.items():
            z_mu = 1
            for i, m in Counter(mu).items():
                z_mu *= i ** m * math.factorial(m)
            assert size == math.factorial(n) // z_mu
        assert sum(counts.values()) == math.factorial(n)


def test_coxeter_rep_examples():
    assert coxeter_rep(()) == ()
    assert coxeter_rep((1,)) == (1,)
    assert coxeter_rep((3,)) == word_to_perm(3, [2, 1]).images == (3, 1, 2)
    assert coxeter_rep((3, 2)) == (3, 1, 2, 5, 4)
    assert coxeter_rep((2, 1, 1)) == (2, 1, 3, 4)


def test_coxeter_rep_is_minimal_in_its_class():
    for n in range(0, 7):
        shortest = {}
        for p in all_perms(n):
            mu = cycle_type(p.images)
            shortest[mu] = min(shortest.get(mu, length(p)), length(p))
        for mu, ell in shortest.items():
            rep = coxeter_rep(mu)
            assert cycle_type(rep) == mu
            assert length(Perm(rep)) == ell == n - len(mu)
