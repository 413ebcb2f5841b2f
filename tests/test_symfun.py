import random
from fractions import Fraction

import pytest

from heckeskein.coeff import ONE, Scalar, delta, s_pow, v_pow, z
from heckeskein.hecke import t_circle, word_elt
from heckeskein.repn import central_scalar, closure, partitions_of
from heckeskein.series import TruncSeries
from heckeskein.symfun import (
    SymFunc,
    closed_braid_A,
    complete,
    complete_series,
    elementary,
    elementary_series,
    from_p,
    from_schur,
    power_sum,
    schur,
    to_p,
    to_schur,
)

from oracles import e_value, h_value, p_value, schur_value, symfunc_value


def h_mono(*parts):
    return SymFunc.h_monomial(parts)


def test_mul():
    assert complete(1) * complete(1) == h_mono(1, 1)
    assert complete(2) * complete(1) == h_mono(2, 1)
    rng = random.Random(3)
    elems = [complete(1), complete(2), h_mono(2, 1), elementary(2), power_sum(2)]
    for _ in range(20):
        f, g = rng.choice(elems), rng.choice(elems)
        assert f * g == g * f


def test_schur_examples():
    assert schur((4,)) == complete(4)
    assert schur((1, 1)) == h_mono(1, 1) - h_mono(2)
    assert to_schur(complete(1) * complete(1)) == {(2,): ONE, (1, 1): ONE}


def test_schur_round_trip_degree_8():
    for d in range(0, 9):
        for lam in partitions_of(d):
            assert to_schur(schur(lam)) == {lam: ONE}
    # and on a random combination
    f = schur((3, 1)).scale(z()) + schur((2, 2)).scale(delta()) + schur((4,))
    exp = to_schur(f)
    assert exp == {(3, 1): z(), (2, 2): delta(), (4,): ONE}


def test_from_schur_inverts_to_schur():
    rng = random.Random(606)
    coeffs = [ONE, z(), delta(), delta().inv(), s_pow(-2), Scalar.from_fraction(-3, 2)]
    for _ in range(25):
        f = SymFunc()
        for _ in range(rng.randint(1, 5)):
            lam = rng.choice(list(partitions_of(rng.randint(0, 6))))
            f = f + SymFunc.h_monomial(lam, rng.choice(coeffs))
        assert from_schur(to_schur(f)) == f
    assert from_schur({}) == SymFunc()


def test_power_sum_examples():
    assert power_sum(1) == complete(1)
    assert power_sum(2) == complete(2).scale(Scalar.from_int(2)) - h_mono(1, 1)
    assert power_sum(3) == complete(3).scale(Scalar.from_int(3)) - h_mono(2, 1).scale(
        Scalar.from_int(3)
    ) + h_mono(1, 1, 1)


def test_log_h_series_coefficient():
    lg = complete_series(4).log()
    assert lg.coeffs[2] == complete(2) - h_mono(1, 1).scale(Scalar.from_fraction(1, 2))


def test_elementary():
    assert elementary(0) == SymFunc.one()
    assert elementary(1) == complete(1)
    assert elementary(2) == h_mono(1, 1) - h_mono(2)
    for k in range(0, 9):
        assert elementary(k) == schur(tuple([1] * k))


def test_eh_inverse_degree_8():
    order = 8
    H = complete_series(order)
    E = elementary_series(order)
    E_neg = TruncSeries(
        [c.scale(Scalar.from_int((-1) ** k)) for k, c in enumerate(E.coeffs)]
    )
    assert E_neg * H == TruncSeries.one(SymFunc.one(), order)


def test_newton_round_trip_degree_8():
    for d in range(0, 9):
        for lam in partitions_of(d):
            f = SymFunc.h_monomial(lam)
            assert from_p(to_p(f)) == f


def test_numeric_oracle_for_bases():
    """Evaluate h-expansions at rational points against textbook definitions."""
    xs = [Fraction(1, 2), Fraction(2), Fraction(-1, 3), Fraction(3), Fraction(-2)]
    v0, s0 = Fraction(2), Fraction(3)
    for m in range(1, 6):
        assert symfunc_value(power_sum(m), xs, v0, s0) == p_value(m, xs)
        assert symfunc_value(elementary(m), xs, v0, s0) == e_value(m, xs)
        assert symfunc_value(complete(m), xs, v0, s0) == h_value(m, xs)
    for d in range(1, 6):
        for lam in partitions_of(d):
            assert symfunc_value(schur(lam), xs, v0, s0) == schur_value(lam, xs)


def test_closed_braid_examples():
    assert closed_braid_A(1) == complete(1)
    assert closed_braid_A(2) == schur((2,)).scale(s_pow(1)) - schur((1, 1)).scale(
        s_pow(-1)
    )


def test_theorem_ah_against_character_oracle():
    for m in range(1, 6):
        oracle = closure(word_elt(m, list(range(m - 1, 0, -1))))
        assert closed_braid_A(m) == oracle


def test_a_series_mirror_inverse():
    order = 5
    zz = z()
    one = SymFunc.one()
    a_coeffs = [one] + [closed_braid_A(m).scale(zz) for m in range(1, order + 1)]
    abar_coeffs = [one]
    for m in range(1, order + 1):
        neg = closure(word_elt(m, list(range(-(m - 1), 0))))
        assert neg == closed_braid_A(m).mirror()
        abar_coeffs.append(neg.scale(-zz))
    prod = TruncSeries(a_coeffs) * TruncSeries(abar_coeffs)
    assert prod == TruncSeries.one(one, order)


def test_mirror():
    assert complete(4).mirror() == complete(4)
    assert complete(1).scale(z()).mirror() == complete(1).scale(-z())
    f = schur((2, 1)).scale(delta())
    assert f.mirror().mirror() == f


def test_phi_apply():
    # the encircling tangle acts on the one-strand shape by delta + z v^-1
    assert central_scalar(t_circle(1), (1,)) == delta() + z() * v_pow(-1)


def test_phi_eigenvalues_distinct():
    for n in range(1, 6):
        tc = t_circle(n)
        vals = [central_scalar(tc, lam) for lam in partitions_of(n)]
        assert len({(v.num.key(), v.den.key()) for v in vals}) == len(vals)


def test_partition_validation():
    with pytest.raises(ValueError):
        SymFunc.h_monomial((0,))
    with pytest.raises(ValueError):
        schur((1, 2))
