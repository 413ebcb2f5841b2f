import random

import pytest

from heckeskein.coeff import ONE, ZERO, Scalar, s_pow, v_pow
from heckeskein.hecke import (
    HeckeElt,
    murphy_T,
    murphy_series,
    murphy_series_times,
    power_sum_T,
    t_circle,
)
from heckeskein.psi import psi, verify_murphy_series
from heckeskein.repn import partitions_of
from heckeskein.series import TruncSeries
from heckeskein.symfun import SymFunc, complete, elementary, power_sum, schur
from heckeskein.trace import ev_sym
from oracles import (
    elem_murphy_series_dense,
    murphy_series_dense,
    murphy_series_times_dense,
    parse_element,
    power_sum_T_dense,
    psi_dense,
    psi_eigen_check,
)


def test_psi_of_one():
    for n in range(0, 5):
        assert psi(n, SymFunc.one()) == HeckeElt.identity(n)


def test_psi_h1_is_encircling_tangle():
    for n in range(0, 6):
        assert psi(n, complete(1)) == t_circle(n)


def test_psi_zero_strands_is_plane_evaluation():
    f = complete(2) * complete(1)
    assert psi(0, f) == HeckeElt.scalar(0, ev_sym(f))


def test_psi_image_central():
    for n in range(1, 5):
        for f in (
            complete(1),
            complete(2),
            complete(3),
            power_sum(2),
            power_sum(3),
            elementary(2),
            schur((2, 1)),
        ):
            assert psi(n, f).is_central()


def test_psi_multiplicative():
    rng = random.Random(13)
    cands = [complete(1), complete(2), power_sum(1), power_sum(2), elementary(2), schur((2, 1))]
    for n in range(1, 4):
        for _ in range(5):
            f, g = rng.choice(cands), rng.choice(cands)
            assert psi(n, f * g) == psi(n, f) * psi(n, g)


def test_theorem_power_telescoping():
    for n in range(1, 5):
        for m in range(1, 5):
            lhs = psi(n, power_sum(m)) - psi(n - 1, power_sum(m)).include(n)
            t = murphy_T(n, n)
            tp = t
            for _ in range(m - 1):
                tp = tp * t
            rhs = tp.scale((s_pow(m) - s_pow(-m)) * v_pow(-m))
            assert lhs == rhs


def test_murphy_series_theorem():
    for n in range(1, 5):
        ok, report = verify_murphy_series(n, 4)
        assert ok, report
        assert report["degree_ok"] == [True] * 5


def test_murphy_series_degree_one():
    # first-order coefficient identity: psi_n(h_1) vs psi_0(h_1) + (s-s^-1)v^-1 sum T(j)
    for n in range(1, 5):
        acc = HeckeElt(n)
        for j in range(1, n + 1):
            acc = acc + murphy_T(j, n)
        rhs = HeckeElt.scalar(n, ev_sym(complete(1))) + acc.scale(
            (s_pow(1) - s_pow(-1)) * v_pow(-1)
        )
        assert psi(n, complete(1)) == rhs


def test_eigen_checks():
    for n in range(1, 5):
        for lam in partitions_of(n):
            assert psi_eigen_check(n, SymFunc.one(), lam)
            assert psi_eigen_check(n, power_sum(1), lam)
            assert psi_eigen_check(n, power_sum(2), lam)
            assert psi_eigen_check(n, complete(2), lam)
    with pytest.raises(ValueError):
        psi_eigen_check(3, complete(1), (2,))


def test_parse_element():
    assert parse_element("h1") == complete(1)
    assert parse_element("e2") == elementary(2)
    assert parse_element("p3") == power_sum(3)
    assert parse_element("s(2,1)") == schur((2, 1))
    assert parse_element("2*h2*p1") == (complete(2) * power_sum(1)).scale(
        Scalar.from_int(2)
    )
    assert parse_element("-3*h1") == complete(1).scale(Scalar.from_int(-3))
    for bad in ("q7", "", "h", "s()", "h1**2", "s(2,1"):
        with pytest.raises(ValueError):
            parse_element(bad)


_GRAMMAR_FACTORS = [
    ("h1", 1), ("h2", 2), ("h3", 3), ("h4", 4), ("e1", 1), ("e2", 2), ("e3", 3),
    ("p1", 1), ("p2", 2), ("p3", 3), ("p4", 4), ("s(1)", 1), ("s(2,1)", 3),
    ("s(1,1)", 2), ("s(2,2)", 4), ("s(3,1)", 4), ("2", 0), ("-3", 0), ("7", 0),
]


def test_word_route_matches_dense_psi():
    """psi and power_sum_T by Murphy-braid words equal the dense products."""
    rng = random.Random(8008)
    for n in range(0, 5):
        for _ in range(6):
            factors, degree = [], 0
            for _ in range(rng.randint(1, 3)):
                text, deg = rng.choice(_GRAMMAR_FACTORS)
                if degree + deg <= 4:
                    factors.append(text)
                    degree += deg
            f = parse_element("*".join(factors))
            assert psi(n, f) == psi_dense(n, f), (n, factors)
    for k in range(1, 4):
        assert psi(5, complete(k)) == psi_dense(5, complete(k))
    for n in range(1, 5):
        for m in range(1, 5):
            assert power_sum_T(m, n) == power_sum_T_dense(m, n)


def test_word_route_matches_dense_murphy_series():
    """Both Murphy series and murphy_series_times equal the series products."""
    half, inv_q2 = Scalar.from_fraction(1, 2), (s_pow(1) + s_pow(-1)).inv()
    pairs = [
        (s_pow(-1) * v_pow(-1), s_pow(1) * v_pow(-1)),  # the Murphy-series identity
        (inv_q2, half * v_pow(1)),  # a and b with denominators
    ]
    for n in range(1, 5):
        for order in range(0, 5):
            assert murphy_series(n, order) == murphy_series_dense(n, order)
            em = murphy_series_times(n, TruncSeries([ONE], order), -ONE, ZERO)
            assert em == elem_murphy_series_dense(n, order)
            psi0 = TruncSeries([ev_sym(complete(k)) for k in range(order + 1)])
            # zero coefficients, and an a whose denominator uses v and s
            gappy = TruncSeries(
                [ZERO if k % 2 == 0 else c for k, c in enumerate(psi0.coeffs)]
            )
            inputs = [(psi0, a, b) for a, b in pairs]
            inputs.append((gappy, (v_pow(1) - s_pow(1)).inv(), s_pow(1)))
            for f, a, b in inputs:
                assert murphy_series_times(n, f, a, b) == murphy_series_times_dense(
                    n, f, a, b
                )
