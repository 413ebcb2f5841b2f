import random

import pytest

from heckeskein.coeff import ONE, ZERO, IntLaurent, Scalar, delta, quantum_int, s_pow, z
from heckeskein.series import TruncSeries, geometric

from oracles import series_exp


def rand_series(rng, order=4):
    coeffs = []
    for _ in range(order + 1):
        t = {(rng.randint(-1, 1), rng.randint(-1, 1)): rng.randint(-3, 3)}
        coeffs.append(Scalar(IntLaurent(t), IntLaurent.from_int(1)))
    return TruncSeries(coeffs)


def test_mul_examples():
    f = TruncSeries([ONE, ONE], 2)
    g = TruncSeries([ONE, -ONE], 2)
    assert (f * g).coeffs == (ONE, ZERO, -ONE)
    c = TruncSeries([delta()], 3)
    one = TruncSeries([ONE], 3)
    assert (c * one) == c


def test_inverse_examples():
    f = TruncSeries([ONE, -ONE], 3)
    assert f.inverse().coeffs == (ONE, ONE, ONE, ONE)
    zz = z()
    g = TruncSeries([ONE, zz], 2)
    assert g.inverse().coeffs == (ONE, -zz, zz * zz)
    assert (g * g.inverse()).coeffs == (ONE, ZERO, ZERO)


def test_inverse_requires_invertible_constant():
    with pytest.raises(ZeroDivisionError):
        TruncSeries([ZERO, ONE], 2).inverse()


def test_log_exp_examples():
    lg = TruncSeries([ONE, -ONE], 3).inverse().log()
    assert lg.coeffs == (ZERO, ONE, Scalar.from_fraction(1, 2), Scalar.from_fraction(1, 3))
    ex = series_exp(TruncSeries([ZERO, ONE], 2))
    assert ex.coeffs == (ONE, ONE, Scalar.from_fraction(1, 2))


def test_log_exp_preconditions():
    with pytest.raises(ValueError):
        TruncSeries([z(), ONE], 2).log()
    with pytest.raises(ValueError):
        series_exp(TruncSeries([ONE, ONE], 2))


def test_log_exp_mutually_inverse():
    f = TruncSeries([ONE, z(), delta(), quantum_int(3)], 5)
    assert series_exp(f.log()) == TruncSeries(f.coeffs, 5)
    g = TruncSeries([ZERO, z(), -delta()], 4)
    assert series_exp(g).log() == TruncSeries(g.coeffs, 4)


def test_scale_t():
    f = TruncSeries([ONE, ONE], 3)
    assert f.scale_t(s_pow(1)).coeffs[1] == s_pow(1)
    assert f.scale_t(s_pow(1)).scale_t(s_pow(-1)) == f
    g = TruncSeries([ONE, z(), delta()], 2)
    scaled = g.scale_t(s_pow(1))
    assert scaled.coeffs[2] == delta() * s_pow(2)


def test_ring_axioms_random():
    rng = random.Random(3)
    for _ in range(60):
        a, b, c = rand_series(rng), rand_series(rng), rand_series(rng)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_geometric():
    zz = z()
    assert geometric(zz, 3).coeffs == (ONE, zz, zz * zz, zz * zz * zz)


def test_truncation_to_min_order():
    a = TruncSeries([ONE, ONE, ONE])
    b = TruncSeries([ONE, ONE])
    assert (a * b).order == 1
    assert (a + b).order == 1


def test_algebra_mismatch_rejected():
    from heckeskein.symfun import SymFunc

    a = TruncSeries([ONE, ONE])
    b = TruncSeries([SymFunc.one()], 1)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a + b
