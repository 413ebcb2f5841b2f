import random

import pytest

from heckeskein import trace
from heckeskein.coeff import ONE, Scalar, delta, quantum_int, s_pow, v_pow, z
from heckeskein.hecke import HeckeElt, h_idem, word_elt
from heckeskein.perm import all_perms
from heckeskein.repn import closure, partitions_of
from heckeskein.symfun import SymFunc, complete, schur
from heckeskein.trace import ev_sym, homfly, markov_ev


def rand_elt(rng, n, terms=3):
    out = HeckeElt(n)
    perms = list(all_perms(n))
    for _ in range(terms):
        p = perms[rng.randrange(len(perms))]
        c = Scalar.monomial(rng.randint(-3, 3), rng.randint(-1, 1), rng.randint(-2, 2))
        if not c.is_zero():
            out = out + HeckeElt(n, {p: c})
    return out


def test_markov_examples():
    d = delta()
    for n in range(0, 5):
        assert markov_ev(HeckeElt.identity(n)) == d ** n
    assert markov_ev(word_elt(2, [1])) == v_pow(-1) * d
    zz = z()
    assert markov_ev(word_elt(2, [1, 1, 1])) == zz * d * d + (ONE + zz * zz) * v_pow(-1) * d


def test_trace_property():
    rng = random.Random(11)
    for n in range(2, 6):
        for _ in range(12):
            x, y = rand_elt(rng, n), rand_elt(rng, n)
            assert markov_ev(x * y) == markov_ev(y * x)


def test_stabilization():
    rng = random.Random(19)
    for n in range(1, 5):
        for _ in range(8):
            x = rand_elt(rng, n)
            xi = x.include(n + 1)
            assert markov_ev(xi * word_elt(n + 1, [n])) == v_pow(-1) * markov_ev(x)
            assert markov_ev(xi * word_elt(n + 1, [-n])) == v_pow(1) * markov_ev(x)


def test_ev_sym_values():
    d = delta()
    assert ev_sym(complete(1)) == d
    expected = d * (s_pow(1) * v_pow(-1) - s_pow(-1) * v_pow(1)) / (z() * quantum_int(2))
    assert ev_sym(complete(2)) == expected
    assert ev_sym(complete(2)) == markov_ev(h_idem(2))
    assert ev_sym(SymFunc.one()) == ONE


def test_h_trace_closed_form():
    # Aiston-Morton: the plane evaluation of the k-strand row idempotent is
    # prod over i <= k of (v^-1 s^(i-1) - v s^(1-i)) / (s^i - s^-i).
    expected = ONE
    for k in range(1, 7):
        expected = expected * (v_pow(-1) * s_pow(k - 1) - v_pow(1) * s_pow(1 - k)) / (
            s_pow(k) - s_pow(-k)
        )
        assert markov_ev(h_idem(k)) == expected


def test_ev_sym_h_is_trace_of_row_idempotent():
    for k in range(0, 7):
        assert ev_sym(complete(k)) == markov_ev(h_idem(k))


def test_ev_sym_h8_builds_no_idempotent(monkeypatch):
    # h_8 has 8! terms; its evaluation comes from the closed form alone
    def forbidden(x):
        raise AssertionError("markov_ev called")

    trace._h_trace.cache_clear()
    monkeypatch.setattr(trace, "markov_ev", forbidden)
    value = ev_sym(complete(8))
    assert value == ev_sym(complete(7)) * (
        v_pow(-1) * s_pow(7) - v_pow(1) * s_pow(-7)) / (s_pow(8) - s_pow(-8))


def test_ev_sym_multiplicative():
    elems = [complete(1), complete(2), complete(1) * complete(1)]
    for f in elems:
        for g in elems:
            assert ev_sym(f * g) == ev_sym(f) * ev_sym(g)


def test_schur_evaluations_distinct_nonzero():
    vals = []
    for d in range(1, 4):
        for lam in partitions_of(d):
            val = ev_sym(schur(lam))
            assert not val.is_zero()
            vals.append(val)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            assert vals[i] != vals[j]


def test_trace_equals_ev_of_closure():
    rng = random.Random(13)
    for n in range(1, 5):
        for _ in range(12):
            x = rand_elt(rng, n)
            assert markov_ev(x) == ev_sym(closure(x))


def test_mirror_equivariance():
    rng = random.Random(31)
    for n in range(1, 5):
        for _ in range(8):
            x = rand_elt(rng, n)
            assert markov_ev(x.mirror()) == markov_ev(x).mirror()


def test_homfly_unknot():
    assert homfly(1, []) == ONE
    assert homfly(2, [1]) == ONE  # one positive curl, framing-corrected


def test_homfly_trefoil():
    zz = z()
    expected = v_pow(2).int_mul(2) - v_pow(4) + v_pow(2) * zz * zz
    assert homfly(2, [1, 1, 1]) == expected


def test_homfly_figure_eight():
    zz = z()
    expected = v_pow(-2) - ONE + v_pow(2) - zz * zz
    assert homfly(3, [1, -2, 1, -2]) == expected


def test_homfly_markov_invariance():
    base = homfly(2, [1, 1, 1])
    assert homfly(3, [1, 1, 1, 2]) == base  # positive stabilization
    assert homfly(3, [1, 1, 1, -2]) == base  # negative stabilization
    assert homfly(2, [1, 1, 1, 1, -1]) == base  # free cancellation
    assert homfly(2, [1, -1, 1, 1, 1]) == base
    # conjugation preserves the closure at fixed strand count
    assert homfly(3, [2, 1, 1, 1, -2]) == homfly(3, [1, 1, 1])
    # a split unknot component multiplies by the loop value
    from heckeskein.coeff import delta

    assert homfly(3, [1, 1, 1]) == delta() * base
    # the same knot presented on three strands (torus braid presentation)
    assert homfly(3, [1, 2, 1, 2]) == base


def test_homfly_mirror_trefoil():
    left = homfly(2, [-1, -1, -1])
    right = homfly(2, [1, 1, 1])
    assert left == right.mirror()


def test_homfly_bad_word():
    with pytest.raises(ValueError):
        homfly(2, [0])
    with pytest.raises(ValueError):
        homfly(2, [3])
    with pytest.raises(ValueError):
        homfly(0, [])
