"""Acceptance suite: one test per criterion, exact equality throughout.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.  Criteria with stated wall-clock budgets assert them.
"""

import random
import time
from contextlib import contextmanager

from heckeskein.coeff import ONE, Scalar, delta, quantum_int, s_pow, v_pow, z
from heckeskein.hecke import (
    HeckeElt,
    a_sym,
    gamma_elt,
    h_idem,
    murphy_M,
    murphy_T,
    phi_s,
    power_sum_T,
    t_circle,
    word_elt,
)
from heckeskein.perm import all_perms
from heckeskein.psi import psi, verify_murphy_series
from heckeskein.repn import (
    central_scalar,
    closure,
    partitions_of,
    rep_of,
    std_tableaux,
)
from heckeskein.series import TruncSeries
from heckeskein.symfun import (
    SymFunc,
    closed_braid_A,
    complete,
    complete_series,
    elementary_series,
    power_sum,
)
from heckeskein.trace import ev_sym, homfly, markov_ev
from oracles import content_of


@contextmanager
def criterion(number: int, description: str, budget_s: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL  {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number:2d}: PASS  {description}  [{elapsed:.2f}s]")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


def test_criterion_01_hecke_relations():
    with criterion(1, "braid and quadratic relations, n <= 6", budget_s=10):
        zz = z()
        for n in range(2, 7):
            for i in range(1, n):
                assert word_elt(n, [i, i]) == word_elt(n, [i]).scale(
                    zz
                ) + HeckeElt.identity(n)
            for i in range(1, n - 1):
                assert word_elt(n, [i, i + 1, i]) == word_elt(n, [i + 1, i, i + 1])
            for i in range(1, n - 1):
                for j in range(i + 2, n):
                    assert word_elt(n, [i, j]) == word_elt(n, [j, i])


def test_criterion_02_murphy_linear():
    with criterion(2, "T(j) = 1 + z M(j) for 2 <= j <= n <= 6", budget_s=30):
        zz = z()
        for n in range(2, 7):
            for j in range(2, n + 1):
                assert murphy_T(j, n) == HeckeElt.identity(n) + murphy_M(j, n).scale(zz)


def test_criterion_03_commutation_and_centrality():
    with criterion(
        3, "T(i)T(j) commute and power sums central, m <= 4, n <= 5", budget_s=120
    ):
        for n in range(2, 6):
            ts = [murphy_T(j, n) for j in range(1, n + 1)]
            for a in range(n):
                for b in range(a + 1, n):
                    assert ts[a] * ts[b] == ts[b] * ts[a]
        for n in range(1, 6):
            for m in range(1, 5):
                assert power_sum_T(m, n).is_central()


def test_criterion_04_encircling_recursion():
    with criterion(4, "T^(n) = T^(n-1) + z v^-1 T(n) and central, n <= 5"):
        factor = z() * v_pow(-1)
        for n in range(1, 6):
            tc = t_circle(n)
            assert tc.is_central()
            prev = t_circle(n - 1).include(n) if n > 1 else HeckeElt.scalar(1, delta())
            assert tc == prev + murphy_T(n, n).scale(factor)


def test_criterion_05_phi_eigenvalues_distinct():
    with criterion(5, "t_lambda pairwise distinct for n <= 6 (11 values at n=6)"):
        for n in range(1, 7):
            tc = t_circle(n)
            values = [central_scalar(tc, lam) for lam in partitions_of(n)]
            if n == 6:
                assert len(values) == 11
            for i in range(len(values)):
                for j in range(i + 1, len(values)):
                    assert values[i] != values[j]


def test_criterion_06_idempotent_ladder():
    with criterion(6, "row idempotent ladder identities, n <= 5"):
        for n in range(1, 6):
            a_n = a_sym(n)
            if n > 1:
                assert a_n == a_sym(n - 1).include(n) * gamma_elt(n)
            assert a_n * a_n == a_n.scale(phi_s(a_n))
            h_n = h_idem(n)
            assert h_n * h_n == h_n
            if n > 1:
                assert h_n.scale(s_pow(n - 1) * quantum_int(n)) == h_idem(
                    n - 1
                ).include(n) * gamma_elt(n)
            assert h_n.mirror() == h_n


def test_criterion_07_aiston_eh_inverse():
    with criterion(7, "E(-t) H(t) = 1 through degree 8"):
        order = 8
        H = complete_series(order)
        E = elementary_series(order)
        E_neg = TruncSeries(
            [c.scale(Scalar.from_int((-1) ** k)) for k, c in enumerate(E.coeffs)]
        )
        assert E_neg * H == TruncSeries.one(SymFunc.one(), order)


def test_criterion_08_theorem_ah():
    with criterion(8, "A_m = character closure, m <= 5, and A(t)Abar(t) = 1"):
        zz = z()
        one = SymFunc.one()
        for m in range(1, 6):
            oracle = closure(word_elt(m, list(range(m - 1, 0, -1))))
            assert closed_braid_A(m) == oracle
        a_coeffs = [one] + [closed_braid_A(m).scale(zz) for m in range(1, 6)]
        abar_coeffs = [one]
        for m in range(1, 6):
            neg = closure(word_elt(m, list(range(-(m - 1), 0))))
            abar_coeffs.append(neg.scale(-zz))
        assert TruncSeries(a_coeffs) * TruncSeries(abar_coeffs) == TruncSeries.one(
            one, 5
        )


def test_criterion_09_theorem_power():
    with criterion(9, "power-sum telescoping m <= 4, n <= 4; psi(h_1) = T^(n), n <= 5"):
        for n in range(1, 5):
            for m in range(1, 5):
                lhs = psi(n, power_sum(m)) - psi(n - 1, power_sum(m)).include(n)
                t = murphy_T(n, n)
                tp = t
                for _ in range(m - 1):
                    tp = tp * t
                assert lhs == tp.scale((s_pow(m) - s_pow(-m)) * v_pow(-m))
        for n in range(1, 6):
            assert psi(n, complete(1)) == t_circle(n)


def test_criterion_10_murphy_series_theorem():
    with criterion(
        10, "psi_n(H(t)) = psi_0(H(t)) HM(sv^-1 t)/HM(s^-1 v^-1 t), n <= 4", budget_s=300
    ):
        for n in range(1, 5):
            ok, report = verify_murphy_series(n, 4)
            assert ok, report


def test_criterion_11_trace_coherence():
    with criterion(11, "trace cyclicity and trace = ev(closure), 100 random, n <= 4"):
        rng = random.Random(97)
        for n in range(1, 5):
            perms = list(all_perms(n))
            for _ in range(25):
                x = HeckeElt(n)
                y = HeckeElt(n)
                for _ in range(rng.randint(1, 3)):
                    p = perms[rng.randrange(len(perms))]
                    c = Scalar.monomial(
                        rng.randint(-3, 3), rng.randint(-1, 1), rng.randint(-2, 2)
                    )
                    if not c.is_zero():
                        x = x + HeckeElt(n, {p: c})
                    q = perms[rng.randrange(len(perms))]
                    d = Scalar.monomial(
                        rng.randint(-3, 3), rng.randint(-1, 1), rng.randint(-2, 2)
                    )
                    if not d.is_zero():
                        y = y + HeckeElt(n, {q: d})
                assert markov_ev(x * y) == markov_ev(y * x)
                assert markov_ev(x) == ev_sym(closure(x))


def test_criterion_12_homfly_regression():
    with criterion(12, "HOMFLY: unknot, trefoil, figure-eight"):
        zz = z()
        assert homfly(1, []) == ONE
        assert homfly(2, [1, 1, 1]) == v_pow(2).int_mul(2) - v_pow(4) + v_pow(2) * zz * zz
        assert homfly(3, [1, -2, 1, -2]) == v_pow(-2) - ONE + v_pow(2) - zz * zz


def test_criterion_13_seminormal_pinning():
    with criterion(13, "rep_of(T(j)) diagonal with content eigenvalues, n <= 5"):
        for n in range(1, 6):
            for lam in partitions_of(n):
                tabs = std_tableaux(lam)
                for j in range(1, n + 1):
                    m = rep_of(murphy_T(j, n), lam)
                    for k, t in enumerate(tabs):
                        assert set(m[k]) == {k}
                        assert m[k][k] == s_pow(2 * content_of(t, j))
