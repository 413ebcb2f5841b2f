import random

import pytest

from heckeskein.coeff import ONE, ZERO, Scalar, delta, quantum_int, s_pow, v_pow, z
from heckeskein.hecke import (
    HeckeElt,
    a_sym,
    b_sym,
    e_idem,
    gamma_elt,
    h_idem,
    lincomb,
    murphy_M,
    murphy_series,
    murphy_series_times,
    murphy_T,
    phi_eval,
    phi_s,
    power_sum_T,
    t_circle,
    word_elt,
)
from heckeskein.perm import Perm, all_perms, transposition
from heckeskein.series import TruncSeries
from oracles import rescale


def rand_elt(rng, n, terms=3):
    out = HeckeElt(n)
    perms = list(all_perms(n))
    for _ in range(terms):
        p = perms[rng.randrange(len(perms))]
        c = Scalar.monomial(rng.randint(-3, 3), rng.randint(-1, 1), rng.randint(-2, 2))
        if not c.is_zero():
            out = out + HeckeElt(n, {p: c})
    return out


def test_rmul_word_examples():
    assert HeckeElt.basis(Perm((1, 2))).rmul_word([1]) == word_elt(2, [1])
    zz = z()
    assert HeckeElt.basis(Perm((2, 1))).rmul_word([1]) == HeckeElt.identity(
        2
    ) + word_elt(2, [1]).scale(zz)
    assert HeckeElt.basis(Perm((2, 1))).rmul_word([-1]) == HeckeElt.identity(2)
    with pytest.raises(ValueError):
        HeckeElt.basis(Perm((1, 2))).rmul_word([2])


def test_rmul_word_matches_product():
    rng = random.Random(20)
    for n in range(1, 5):
        for _ in range(6):
            # delta's denominator s^2 - 1 forces the common-denominator path
            x = rand_elt(rng, n).scale(delta())
            letters = [i for i in range(1 - n, n) if i != 0]
            w = [rng.choice(letters) for _ in range(rng.randint(0, 6))] if letters else []
            assert x.rmul_word(w) == x * word_elt(n, w)


def test_operations_return_canonical_form():
    # Coefficients carry the library's denominators (delta, 1/[2], 1/[3],
    # 1/z, 1/2), and their factors as numerators, so sums, products and
    # scalings both cancel and shift units; each result must be the form
    # that the constructor builds from the reduced coefficients.
    rng = random.Random(6006)
    factors = [
        delta(), quantum_int(2).inv(), quantum_int(3).inv(), z().inv(),
        Scalar.from_fraction(1, 2), z(), quantum_int(2), Scalar.from_int(2), ONE,
    ]

    def coeff():
        c = Scalar.monomial(rng.choice([-2, -1, 1, 3]), rng.randint(-1, 1), rng.randint(-2, 2))
        for _ in range(rng.randint(1, 3)):
            c = c * rng.choice(factors)
        return c

    def elt(n):
        perms = list(all_perms(n))
        return HeckeElt(n, {rng.choice(perms): coeff() for _ in range(rng.randint(1, 3))})

    for _ in range(150):
        n = rng.randint(1, 4)
        x, y, c = elt(n), elt(n), coeff()
        letters = [i for i in range(1 - n, n) if i != 0]
        word = [rng.choice(letters) for _ in range(rng.randint(1, 4))] if letters else []
        # 1-4 pairs with repeated elements; coefficients with delta and 1/[3]
        pool = [(x, c), (y, delta()), (x, quantum_int(3).inv()), (y, -c)]
        combos = [lincomb(n, pool[:k]) for k in range(1, 5)]
        results = [
            x + y, x - y, x - x, x * y, x.scale(c), x.scale(c.inv()),
            x.rmul_word(word), x.mirror(), x.include(n + 1), -x, x * h_idem(n),
            *combos, lincomb(n, [(x, c), (x, -c)]),
        ]
        for r in results:
            ref = HeckeElt(r.n, r.terms)
            assert (r.nums, r.den) == (ref.nums, ref.den)


def test_lincomb_values_match_scalar_sums():
    # coefficient by coefficient against sum of c * x.terms[pi] in Scalar
    # arithmetic, so the values are checked and not only the form
    rng = random.Random(4242)
    coeffs = [delta(), quantum_int(3).inv(), z().inv(), Scalar.from_fraction(-1, 2),
              ONE, ZERO, s_pow(2) * v_pow(-1)]
    for _ in range(60):
        n = rng.randint(1, 4)
        elts = [rand_elt(rng, n).scale(rng.choice(coeffs[:4])) for _ in range(3)]
        pairs = [(rng.choice(elts), rng.choice(coeffs)) for _ in range(rng.randint(0, 5))]
        expected = {}
        for x, c in pairs:
            for p, a in x.terms.items():
                expected[p] = expected.get(p, ZERO) + c * a
        expected = {p: a for p, a in expected.items() if not a.is_zero()}
        assert dict(lincomb(n, pairs).terms) == expected


def test_lincomb_strand_mismatch():
    with pytest.raises(ValueError):
        lincomb(3, [(HeckeElt.identity(3), ONE), (HeckeElt.identity(2), ONE)])
    with pytest.raises(ValueError):
        lincomb(2, [(HeckeElt.identity(3), ZERO)])


def test_word_elt_examples():
    assert word_elt(3, []) == HeckeElt.identity(3)
    assert word_elt(2, [1, -1]) == HeckeElt.identity(2)
    zz = z()
    assert word_elt(2, [1, 1]) == HeckeElt.identity(2) + word_elt(2, [1]).scale(zz)
    with pytest.raises(ValueError):
        word_elt(2, [0])
    with pytest.raises(ValueError):
        word_elt(2, [2])


def test_sigma_cubed():
    zz = z()
    cube = word_elt(2, [1, 1, 1])
    expected = HeckeElt(
        2, {Perm((1, 2)): zz, Perm((2, 1)): ONE + zz * zz}
    )
    assert cube == expected


def test_braid_relations():
    for n in range(3, 7):
        for i in range(1, n - 1):
            assert word_elt(n, [i, i + 1, i]) == word_elt(n, [i + 1, i, i + 1])


def test_distant_generators_commute():
    for n in range(4, 7):
        for i in range(1, n - 1):
            for j in range(i + 2, n):
                assert word_elt(n, [i, j]) == word_elt(n, [j, i])


def test_quadratic_relation():
    zz = z()
    for n in range(2, 7):
        for i in range(1, n):
            assert word_elt(n, [i, i]) == word_elt(n, [i]).scale(zz) + HeckeElt.identity(n)


def test_braid_word_equality():
    assert word_elt(3, [1, 2, 1]) == HeckeElt.basis(Perm((3, 2, 1)))
    assert word_elt(3, [2, 1, 2]) == HeckeElt.basis(Perm((3, 2, 1)))


def test_mul_unit_and_mismatch():
    x = word_elt(3, [1, 2])
    assert x * HeckeElt.identity(3) == x
    with pytest.raises(ValueError):
        x * HeckeElt.identity(2)


def test_murphy_m_examples():
    assert murphy_M(2, 2) == HeckeElt.basis(Perm((2, 1)))
    m3 = murphy_M(3, 3)
    assert m3 == HeckeElt.basis(transposition(1, 3, 3)) + HeckeElt.basis(
        transposition(2, 3, 3)
    )
    assert all(c == ONE for c in m3.terms.values())
    with pytest.raises(ValueError):
        murphy_M(1, 3)


def test_theorem_murphy_linear():
    zz = z()
    for n in range(2, 7):
        for j in range(2, n + 1):
            assert murphy_T(j, n) == HeckeElt.identity(n) + murphy_M(j, n).scale(zz)


def test_murphy_t_base():
    assert murphy_T(1, 4) == HeckeElt.identity(4)
    assert murphy_T(2, 2) == word_elt(2, [1, 1])


def test_murphy_commutation():
    for n in range(2, 6):
        ts = [murphy_T(j, n) for j in range(1, n + 1)]
        for a in range(n):
            for b in range(a + 1, n):
                assert ts[a] * ts[b] == ts[b] * ts[a]


def test_t_circle():
    assert t_circle(0) == HeckeElt.scalar(0, delta())
    assert t_circle(1) == HeckeElt.scalar(1, delta() + z() * v_pow(-1))
    factor = z() * v_pow(-1)
    for n in range(1, 6):
        tc = t_circle(n)
        assert tc.is_central()
        prev = t_circle(n - 1).include(n) if n > 1 else HeckeElt.scalar(1, delta())
        assert tc == prev + murphy_T(n, n).scale(factor)


def test_is_central_probes():
    assert HeckeElt.identity(3).is_central()
    assert not word_elt(3, [1]).is_central()
    full_twist = murphy_T(1, 3) * murphy_T(2, 3) * murphy_T(3, 3)
    assert full_twist.is_central()


def test_power_sum_central():
    for n in range(1, 6):
        for m in range(1, 5):
            assert power_sum_T(m, n).is_central()
    assert power_sum_T(3, 1) == HeckeElt.identity(1)
    assert power_sum_T(1, 2) == HeckeElt.identity(2).scale(Scalar.from_int(2)) + word_elt(
        2, [1]
    ).scale(z())


def test_gamma():
    ss = s_pow(1)
    assert gamma_elt(1) == HeckeElt.identity(1)
    assert gamma_elt(2) == HeckeElt.identity(2) + word_elt(2, [1]).scale(ss)
    assert gamma_elt(3) == HeckeElt.identity(3) + word_elt(3, [2]).scale(ss) + word_elt(
        3, [2, 1]
    ).scale(s_pow(2))


def test_a_b_sym():
    ss = s_pow(1)
    assert a_sym(1) == HeckeElt.identity(1)
    assert a_sym(2) == HeckeElt.identity(2) + word_elt(2, [1]).scale(ss)
    assert a_sym(2) * a_sym(2) == a_sym(2).scale(ONE + s_pow(2))
    b2 = b_sym(2)
    assert b2 == HeckeElt.identity(2) + word_elt(2, [1]).scale(-s_pow(-1))


def test_phi_s():
    assert phi_s(a_sym(2)) == ONE + s_pow(2)
    assert phi_s(HeckeElt.identity(3)) == ONE
    for n in range(1, 6):
        assert phi_s(gamma_elt(n)) == s_pow(n - 1) * quantum_int(n)


def test_row_lemma_and_ladder():
    ss = s_pow(1)
    neg = -s_pow(-1)
    for n in range(1, 6):
        a_n, b_n = a_sym(n), b_sym(n)
        for i in range(1, n):
            si = word_elt(n, [i])
            assert a_n * si == a_n.scale(ss)
            assert si * a_n == a_n.scale(ss)
            assert b_n * si == b_n.scale(neg)
            assert si * b_n == b_n.scale(neg)
        assert a_n * a_n == a_n.scale(phi_s(a_n))
        if n > 1:
            assert a_n == a_sym(n - 1).include(n) * gamma_elt(n)


def test_idempotents():
    for n in range(1, 6):
        h = h_idem(n)
        assert h * h == h
        e = e_idem(n)
        assert e * e == e
        if n > 1:
            assert h.scale(s_pow(n - 1) * quantum_int(n)) == h_idem(n - 1).include(
                n
            ) * gamma_elt(n)
    assert h_idem(1) == HeckeElt.identity(1)
    h2 = h_idem(2)
    assert h2 == (HeckeElt.identity(2) + word_elt(2, [1]).scale(s_pow(1))).scale(
        (ONE + s_pow(2)).inv()
    )


def test_e_idem_column_substitution():
    # the normalizer of b_n is phi evaluated at -s^{-1}
    for n in range(1, 5):
        b = b_sym(n)
        assert e_idem(n) == b.scale(phi_eval(b, -s_pow(-1)).inv())


def test_phi_eval_needs_a_polynomial():
    with pytest.raises(ValueError):
        phi_eval(a_sym(2), quantum_int(2).inv())


def test_include():
    assert HeckeElt.identity(2).include(3) == HeckeElt.identity(3)
    assert word_elt(2, [1]).include(4) == word_elt(4, [1])
    assert murphy_M(2, 2).include(3) == HeckeElt.basis(transposition(1, 2, 3))
    with pytest.raises(ValueError):
        HeckeElt.identity(3).include(2)


def test_mirror_examples():
    m = word_elt(2, [1]).mirror()
    assert m == word_elt(2, [1]) + HeckeElt.identity(2).scale(s_pow(-1) - s_pow(1))
    assert HeckeElt.identity(3).mirror() == HeckeElt.identity(3)
    assert m.mirror() == word_elt(2, [1])


def test_mirror_fixes_h():
    for n in range(1, 6):
        h = h_idem(n)
        assert h.mirror() == h


def test_mirror_involution_and_multiplicative():
    rng = random.Random(5)
    for n in range(2, 5):
        for _ in range(12):
            x, y = rand_elt(rng, n), rand_elt(rng, n)
            assert x.mirror().mirror() == x
            # crossing switch preserves diagram composition order
            assert (x * y).mirror() == x.mirror() * y.mirror()


def test_rescale():
    x = Scalar.monomial(1, 1, 1)
    assert rescale(word_elt(2, [1]), x) == word_elt(2, [1]).scale(x)
    assert rescale(HeckeElt.identity(4), x) == HeckeElt.identity(4)
    zz = z()
    for n in range(2, 5):
        for j in range(2, n + 1):
            r = rescale(murphy_T(j, n), x)
            expected = HeckeElt.identity(n)
            for i in range(1, j):
                expected = expected + HeckeElt.basis(transposition(i, j, n)).scale(
                    zz * x ** (2 * (j - i) - 1)
                )
            assert r == expected


def test_rescale_braid_writhe():
    # scaling each letter of the T(j) word by x multiplies the braid by
    # x^(2j-2), the writhe of the encircling braid
    x = Scalar.monomial(1, 0, 1)
    for n in range(2, 5):
        for j in range(2, n + 1):
            word = list(range(j - 1, 0, -1)) + list(range(1, j))
            scaled = HeckeElt.identity(n)
            for i in word:
                scaled = scaled * word_elt(n, [i]).scale(x)
            assert scaled == murphy_T(j, n).scale(x ** (2 * j - 2))


def test_murphy_series():
    for n in range(1, 5):
        order = 4
        hm = murphy_series(n, order)
        em = murphy_series_times(n, TruncSeries([ONE], order), -ONE, ZERO)
        assert hm.coeffs[0] == HeckeElt.identity(n)
        first = HeckeElt(n)
        for j in range(1, n + 1):
            first = first + murphy_T(j, n)
        assert hm.coeffs[1] == first
        assert em.coeffs[1] == first
        em_neg = TruncSeries(
            [c.scale(Scalar.from_int((-1) ** k)) for k, c in enumerate(em.coeffs)]
        )
        assert hm * em_neg == TruncSeries.one(HeckeElt.identity(n), order)


def test_json_round_trip():
    rng = random.Random(17)
    for n in range(1, 5):
        x = rand_elt(rng, n)
        obj = x.to_json()
        assert obj["n"] == n
        for row in obj["terms"]:
            assert row["coeff"] == x.terms[Perm(tuple(row["perm"]))].to_json()
        perms = [row["perm"] for row in obj["terms"]]
        assert perms == sorted(perms)


def test_strand_mismatch_and_coeff_validation():
    with pytest.raises(ValueError):
        HeckeElt(3, {Perm((2, 1)): ONE})
