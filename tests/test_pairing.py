"""HeckeElt.pair and the functionals built on it, against slow routes.

The closure-consistency check compares markov_ev with ev_sym(closure(.)),
and both sides pair keyed basis values with the numerators, so a fault in
pair could cancel out of it.  Here each side is checked on its own: pair
against per-key Scalar sums over terms, the class coordinates against
term-by-term class-polynomial sums, character against the diagonal of
rep_of and the per-basis-braid oracle, closure_schur against one character
per shape, the loop-graded basis traces and markov_ev against the
term-by-term trace oracle.
"""

import random

import pytest

from heckeskein.coeff import ONE, IntLaurent, Scalar, delta, quantum_int, v_pow, z
from heckeskein.hecke import HeckeElt
from heckeskein.perm import all_perms, cycle_type, length
from heckeskein.repn import (
    _class_character,
    _class_coordinates,
    _class_poly,
    character,
    closure_schur,
    partitions_of,
    rep_of,
)
from heckeskein.trace import _trace_loops, markov_ev
from oracles import basis_trace, character_by_basis, markov_trace

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


def samples(seed, count, top=4):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, top)
        yield rng, n, rand_elt(rng, n)


def test_pair_is_the_scalar_sum_over_terms():
    one = IntLaurent.from_int(1)
    seen = set()
    for rng, n, x in samples(7001, 120):
        # two keys every braid has; "odd", which only odd-length braids
        # have; and "cancel", whose values on two terms of x cancel in the sum
        values = {
            p.images: {"a": rand_poly(rng), 0: rand_poly(rng)} for p in all_perms(n)
        }
        for p in all_perms(n):
            if length(p) % 2:
                values[p.images]["odd"] = rand_poly(rng)
        terms = sorted(x.nums.items())
        if len(terms) >= 2:
            (p1, c1), (p2, c2) = terms[:2]
            values[p1]["cancel"], values[p2]["cancel"] = c2, -c1
        slow = {}
        for p, c in x.terms.items():
            for key, f in values[p.images].items():
                slow[key] = slow.get(key, Scalar.from_int(0)) + c * Scalar(f, one)
        fast = x.pair(lambda images: values[images].items())
        assert fast.keys() == slow.keys()
        assert {key: Scalar(k, x.den) for key, k in fast.items()} == slow
        if "cancel" in fast:
            assert fast["cancel"].is_zero()
        seen.add(("odd" in fast, "cancel" in fast))
    # the sample has x with and without the partial key, and with the cancelling one
    assert {(True, True), (False, True), (False, False)} <= seen
    assert HeckeElt(3).pair(lambda images: [(0, one)]) == {}


def test_class_coordinates_are_class_poly_sums():
    for _, n, x in samples(7004, 80, top=5):
        slow = {}
        for p, c in x.terms.items():
            for mu, f in _class_poly(p.images).items():
                slow[mu] = slow.get(mu, Scalar.from_int(0)) + c * Scalar(
                    f, IntLaurent.from_int(1)
                )
        coords = _class_coordinates(x)
        assert {mu: Scalar(k, x.den) for mu, k in coords.items()} == {
            mu: c for mu, c in slow.items() if not c.is_zero()
        }


def test_closure_schur_is_every_character():
    for _, n, x in samples(7005, 60, top=5):
        chars = {lam: character(x, lam) for lam in partitions_of(n)}
        assert closure_schur(x) == {lam: c for lam, c in chars.items() if not c.is_zero()}
        assert chars == {lam: character_by_basis(x, lam) for lam in partitions_of(n)}
    assert closure_schur(HeckeElt(3)) == {}


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
    # _class_character is a Laurent polynomial by construction (Ram's rule),
    # and _trace_loops raises ArithmeticError on a tail that is not one; walk
    # every minimal braid and basis braid they are used on.
    for n in range(0, 7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert isinstance(_class_character(lam, mu), IntLaurent)
    for n in range(0, 7):
        for p in all_perms(n):
            grades = _trace_loops(p.images)
            loops = [l for l, _ in grades]
            assert loops == sorted(set(loops)) and set(loops) <= set(range(n + 1))
            assert all(isinstance(b, IntLaurent) and not b.is_zero() for _, b in grades)


def test_loop_grades_sum_to_the_basis_trace_oracle():
    d = delta()
    for n in range(0, 6):
        for p in all_perms(n):
            grades = dict(_trace_loops(p.images))
            assert not any(b.uses_v() for b in grades.values())
            assert n == 0 or 0 not in grades
            total = Scalar.from_int(0)
            for l, b in grades.items():
                total = total + Scalar(b, IntLaurent.from_int(1)) * d ** l * v_pow(l - n)
            assert total == basis_trace(p.images)


def test_loop_grades_at_s_1_count_the_cycles():
    # at s = 1, H_n is the group algebra: the closure of pi is one loop per cycle
    for n in range(0, 7):
        for p in all_perms(n):
            cycles = len(cycle_type(p.images))
            at_one = {l: sum(b.terms.values()) for l, b in _trace_loops(p.images)}
            assert [at_one.get(l, 0) for l in range(n + 1)] == [
                int(l == cycles) for l in range(n + 1)
            ]


def test_a_value_that_is_not_a_polynomial_raises(monkeypatch):
    # a coset tail over the denominator 2
    monkeypatch.setattr(HeckeElt, "rmul_word", lambda self, word: HeckeElt.scalar(
        self.n, Scalar.from_fraction(1, 2)))
    with pytest.raises(ArithmeticError):
        _trace_loops.__wrapped__((2, 1))
