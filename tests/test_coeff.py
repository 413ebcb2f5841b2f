import random
from fractions import Fraction

import pytest

from heckeskein.coeff import (
    ONE,
    ZERO,
    IntLaurent,
    Scalar,
    _prs_gcd,
    _strip_monomial,
    _subresultant_prs,
    delta,
    laurent_divexact,
    poly_gcd,
    quantum_int,
    s_pow,
    v_pow,
    z,
)


def rand_scalar(rng, max_exp=2, max_terms=3):
    num = {}
    for _ in range(rng.randint(0, max_terms)):
        num[(rng.randint(-max_exp, max_exp), rng.randint(-max_exp, max_exp))] = (
            rng.randint(-5, 5)
        )
    den = {}
    for _ in range(rng.randint(1, 2)):
        den[(rng.randint(-1, 1), rng.randint(-1, 1))] = rng.randint(1, 3)
    d = IntLaurent(den)
    if d.is_zero():
        d = IntLaurent.from_int(1)
    return Scalar(IntLaurent(num), d)


def test_z_delta_cancels():
    assert z() * delta() == v_pow(-1) - v_pow(1)


def test_unit_cancellation():
    assert (s_pow(1) * s_pow(-1)).is_one()


def test_canonical_form_of_quotient():
    x = Scalar(IntLaurent({(0, 0): 1, (0, 2): 1}), IntLaurent({(0, 1): 1}))
    # den becomes a genuine polynomial with positive leading coefficient
    assert x.den == IntLaurent.from_int(1)
    assert x.num == IntLaurent({(0, 1): 1, (0, -1): 1})
    y = Scalar(IntLaurent({(0, 0): 2}), IntLaurent({(0, 1): -4}))
    assert y.den == IntLaurent.from_int(2)
    assert y.num == IntLaurent({(0, -1): -1})


def test_canonical_den_invariants_random():
    rng = random.Random(42)
    for _ in range(300):
        a = rand_scalar(rng)
        b = rand_scalar(rng)
        c = a * b + a - b
        if c.is_zero():
            assert c.den.is_one()
            continue
        mv, ms = c.den.min_exponents()
        assert mv == 0 and ms == 0
        assert c.den.lex_leading()[1] > 0
        assert poly_gcd(c.num, c.den).is_one()


def prs_gcd(f: IntLaurent, g: IntLaurent) -> IntLaurent:
    """Reference gcd: the primitive PRS in s over Z[v], whatever variables f, g use."""
    return _prs_gcd(_strip_monomial(f), _strip_monomial(g))


def test_poly_gcd_sign_on_bivariate_path():
    s, v = IntLaurent.monomial(1, 0, 1), IntLaurent.monomial(1, 1, 0)
    f = (s - v) * (s + IntLaurent.from_int(2))
    g = (s - v) * (v + IntLaurent.from_int(3))
    for a, b in ((f, g), (g, f)):
        r = poly_gcd(a, b)
        assert r == v - s
        assert r.lex_leading()[1] > 0


def test_poly_gcd_fold_matches_prs_random():
    rng = random.Random(2001)

    def poly(vmax, smax, terms):
        return IntLaurent({
            (rng.randint(0, vmax), rng.randint(0, smax)): rng.randint(-4, 4)
            for _ in range(terms)
        })

    def one_var(in_s, terms):
        return poly(0, 3, terms) if in_s else poly(3, 0, terms)

    def shifted(p):
        return p.shift(rng.randint(-2, 2), rng.randint(-2, 2))

    # the v^1 slice of g is the bare monomial 6 s^2; the gcd is the content 2
    f = IntLaurent({(0, 0): 2, (0, 1): 2, (0, 2): 2})
    g = IntLaurent({(1, 2): 6, (0, 0): 2, (0, 1): 2})
    assert poly_gcd(f, g) == poly_gcd(g, f) == prs_gcd(f, g) == IntLaurent.from_int(2)

    cases = 0
    while cases < 300:
        in_s = rng.random() < 0.5
        # common factor c: in one variable, or an integer; then integer content
        c = one_var(in_s, rng.randint(1, 3)) if rng.random() < 0.8 else IntLaurent.from_int(1)
        c = c.int_mul(rng.choice((1, 1, 2, 3, 6)))
        a = one_var(in_s, rng.randint(1, 3))  # f = c*a stays in one variable
        b = poly(2, 3, rng.randint(1, 4))
        f, g = shifted(c * a), shifted(c * b)
        if f.is_zero() or g.is_zero():
            continue
        cases += 1
        ref = prs_gcd(f, g)
        assert poly_gcd(f, g) == ref
        assert poly_gcd(g, f) == ref


def test_poly_gcd_knuth_pair():
    # TAOCP vol. 2, 4.6.1: a coprime pair whose PRS drops two degrees at once
    A = [-5, 2, 8, -3, -3, 0, 1, 0, 1]
    B = [21, -9, -4, 0, 5, 0, 3]
    C = [1, 1, 1]

    def poly(cs, in_s):
        return IntLaurent({((0, i) if in_s else (i, 0)): c for i, c in enumerate(cs) if c})

    # Knuth's subresultant PRS ends in the resultant; a skipped h update
    # leaves every division exact but gives 4860838707763345551562500
    assert _subresultant_prs(A, B) == [260708]
    for in_s in (True, False):
        a, b, c = poly(A, in_s), poly(B, in_s), poly(C, in_s)
        assert poly_gcd(a, b).is_one()
        assert poly_gcd(a * c.int_mul(6), b * c.int_mul(4)) == c.int_mul(2)
    s, v = IntLaurent.monomial(1, 0, 1), IntLaurent.monomial(1, 1, 0)
    a, b = poly(A, True) + v, v * poly(B, True) + s
    cc = v * s + s.int_mul(2) - v
    assert poly_gcd(a * cc, b * cc) == cc


def test_poly_gcd_bivariate_random():
    rng = random.Random(2002)

    def both_vars():
        while True:
            p = IntLaurent({
                (rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-4, 4)
                for _ in range(rng.randint(2, 4))
            })
            if p.is_zero():
                continue
            q = _strip_monomial(p)
            if q.uses_v() and q.uses_s():
                return p

    for _ in range(100):
        a, b = both_vars(), both_vars()
        c = both_vars().int_mul(rng.choice((1, 2, 3)))
        f, g = c * a, c * b
        r = poly_gcd(f, g)
        laurent_divexact(r, c)  # c divides the gcd
        fa, gb = laurent_divexact(f, r), laurent_divexact(g, r)
        assert poly_gcd(fa, gb).is_one()
        assert poly_gcd(g, f) == r


def test_quantum_int_examples():
    assert quantum_int(1) == ONE
    assert quantum_int(2) == s_pow(1) + s_pow(-1)
    assert quantum_int(3) == s_pow(2) + ONE + s_pow(-2)
    with pytest.raises(ValueError):
        quantum_int(0)


def test_quantum_int_telescopes():
    zz = z()
    for n in range(1, 21):
        assert quantum_int(n) * zz == s_pow(n) - s_pow(-n)


def test_mirror_examples():
    assert z().mirror() == -z()
    assert ONE.mirror() == ONE
    # both the numerator and denominator signs flip, so delta is fixed
    assert delta().mirror() == delta()


def test_mirror_involution_random():
    rng = random.Random(7)
    for _ in range(200):
        a = rand_scalar(rng)
        assert a.mirror().mirror() == a


def test_eval_rational_examples():
    assert z().eval_rational(1, 2) == Fraction(3, 2)
    assert quantum_int(3).eval_rational(1, 2) == Fraction(21, 4)
    assert delta().eval_rational(2, 2) == Fraction(-1)


def test_eval_rational_pole():
    with pytest.raises(ZeroDivisionError):
        delta().eval_rational(2, 1)  # z vanishes at s = 1


def test_field_axioms_random():
    rng = random.Random(0)
    for _ in range(400):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a - a == ZERO
        if not a.is_zero():
            assert (a * a.inv()).is_one()


def test_eval_commutes_with_ring_ops():
    rng = random.Random(2)
    pt = (Fraction(3), Fraction(2))
    for _ in range(200):
        a, b = rand_scalar(rng), rand_scalar(rng)
        try:
            av, bv = a.eval_rational(*pt), b.eval_rational(*pt)
        except ZeroDivisionError:
            continue
        assert (a + b).eval_rational(*pt) == av + bv
        assert (a * b).eval_rational(*pt) == av * bv
        assert (a - b).eval_rational(*pt) == av - bv


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        Scalar(IntLaurent.from_int(1), IntLaurent())


def test_fraction_cancellation_random():
    rng = random.Random(1)

    def rndpoly():
        t = {}
        for _ in range(rng.randint(1, 3)):
            t[(rng.randint(-2, 2), rng.randint(-2, 2))] = rng.randint(-4, 4)
        p = IntLaurent(t)
        return p if not p.is_zero() else IntLaurent.from_int(1)

    for _ in range(300):
        a, b, g = rndpoly(), rndpoly(), rndpoly()
        assert Scalar(a * g, b * g) == Scalar(a, b)


def test_laurent_divexact_roundtrip():
    rng = random.Random(9)
    for _ in range(200):
        t1 = {
            (rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-4, 4)
            for _ in range(rng.randint(1, 3))
        }
        t2 = {
            (rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-4, 4)
            for _ in range(rng.randint(1, 3))
        }
        a, b = IntLaurent(t1), IntLaurent(t2)
        if a.is_zero() or b.is_zero():
            continue
        assert laurent_divexact(a * b, b) == a


def test_json_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        a = rand_scalar(rng)
        obj = a.to_json()
        # terms sorted lexicographically, coefficients as strings
        assert obj["num"] == sorted(obj["num"], key=lambda r: (r[0], r[1]))
        assert all(isinstance(r[2], str) for r in obj["num"] + obj["den"])


def test_pow():
    assert z() ** 0 == ONE
    assert z() ** 3 == z() * z() * z()
    assert (s_pow(1) ** -2) == s_pow(-2)
