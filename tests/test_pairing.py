"""HeckeElt.pair and the two functionals built on it, against slow routes.

The closure-consistency check compares markov_ev with ev_sym(closure(.)),
and both sides pair basis values with the numerators, so a fault in pair
could cancel out of it.  Here each side is checked on its own: pair against
a Scalar sum over terms, character against the diagonal of rep_of, the
loop-graded basis traces and markov_ev against the term-by-term trace
oracle.
"""

import random

import pytest

from heckeskein.coeff import ONE, IntLaurent, Scalar, delta, quantum_int, v_pow, z
from heckeskein.hecke import HeckeElt
from heckeskein.perm import all_perms, cycle_type
from heckeskein.repn import (
    _basis_character,
    _class_character,
    character,
    partitions_of,
    rep_of,
)
from heckeskein.trace import _trace_loops, markov_ev
from oracles import basis_trace, markov_trace

# the library's denominators (delta, 1/[2], 1/z, 1/2), 1/delta for a
# denominator in both variables, and some of their factors as numerators,
# so pair's single reduction has work to do
FACTORS = [
    delta(), delta().inv(), quantum_int(2).inv(), z().inv(), Scalar.from_fraction(1, 2),
    z(), quantum_int(2), Scalar.from_int(2), ONE,
]


def rand_coeff(rng):
    c = Scalar.monomial(rng.choice([-2, -1, 1, 3]), rng.randint(-1, 1), rng.randint(-2, 2))
    for _ in range(rng.randint(1, 3)):
        c = c * rng.choice(FACTORS)
    return c


def rand_elt(rng, n):
    perms = list(all_perms(n))
    x = HeckeElt(n)
    for _ in range(rng.randint(1, 4)):
        x = x + HeckeElt(n, {rng.choice(perms): rand_coeff(rng)})
    return x


def rand_poly(rng):
    return IntLaurent({(rng.randint(-2, 2), rng.randint(-3, 3)): rng.randint(-3, 3)
                       for _ in range(rng.randint(0, 3))})


def samples(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        yield rng, n, rand_elt(rng, n)


def test_pair_is_the_scalar_sum_over_terms():
    for rng, n, x in samples(7001, 120):
        values = {p.images: rand_poly(rng) for p in all_perms(n)}
        slow = Scalar.from_int(0)
        for p, c in x.terms.items():
            slow = slow + c * Scalar(values[p.images], IntLaurent.from_int(1))
        assert Scalar(x.pair(values.__getitem__), x.den) == slow
    assert HeckeElt(3).pair(lambda images: IntLaurent.from_int(1)).is_zero()


def test_character_is_the_diagonal_of_rep_of():
    for _, n, x in samples(7002, 60):
        for lam in partitions_of(n):
            m = rep_of(x, lam)
            diag = Scalar.from_int(0)
            for r, row in enumerate(m):
                diag = diag + row.get(r, Scalar.from_int(0))
            assert character(x, lam) == diag


def test_markov_ev_matches_the_term_by_term_oracle():
    for _, _, x in samples(7003, 80):
        assert markov_ev(x) == markov_trace(x)


def test_basis_values_are_polynomials():
    # _class_character and _trace_loops raise ArithmeticError on a value or
    # a tail that is not a Laurent polynomial; walk every basis braid they
    # are used on.
    for n in range(1, 6):
        for lam in partitions_of(n):
            for p in all_perms(n):
                assert isinstance(_basis_character(lam, p.images), IntLaurent)
    for n in range(0, 7):
        for p in all_perms(n):
            grades = _trace_loops(p.images)
            assert len(grades) == n + 1
            assert all(isinstance(b, IntLaurent) for b in grades)


def test_loop_grades_sum_to_the_basis_trace_oracle():
    d = delta()
    for n in range(0, 6):
        for p in all_perms(n):
            grades = _trace_loops(p.images)
            assert not any(b.uses_v() for b in grades)
            assert n == 0 or grades[0].is_zero()
            total = Scalar.from_int(0)
            for l, b in enumerate(grades):
                total = total + Scalar(b, IntLaurent.from_int(1)) * d ** l * v_pow(l - n)
            assert total == basis_trace(p.images)


def test_loop_grades_at_s_1_count_the_cycles():
    # at s = 1, H_n is the group algebra: the closure of pi is one loop per cycle
    for n in range(0, 7):
        for p in all_perms(n):
            cycles = len(cycle_type(p.images))
            at_one = [sum(b.terms.values()) for b in _trace_loops(p.images)]
            assert at_one == [int(l == cycles) for l in range(n + 1)]


def test_a_value_that_is_not_a_polynomial_raises(monkeypatch):
    from heckeskein import repn

    # the trace of the minimal braid's matrix, 1 over the denominator 2
    half = ([{0: IntLaurent.from_int(1)}], IntLaurent.from_int(2))
    monkeypatch.setattr(repn, "_basis_matrix", lambda lam, images: half)
    with pytest.raises(ArithmeticError):
        _class_character.__wrapped__((1,), (1,))
    # a coset tail over the denominator 2
    monkeypatch.setattr(HeckeElt, "rmul_word", lambda self, word: HeckeElt.scalar(
        self.n, Scalar.from_fraction(1, 2)))
    with pytest.raises(ArithmeticError):
        _trace_loops.__wrapped__((2, 1))
