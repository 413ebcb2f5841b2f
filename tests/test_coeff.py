import random
from fractions import Fraction

import pytest

from heckeskein.coeff import (
    ONE,
    ZERO,
    IntLaurent,
    Scalar,
    _dense_gcd,
    _normal_form_general,
    _prs_gcd,
    _strip_monomial,
    canon_poly_part,
    delta,
    laurent_divexact,
    normal_form,
    poly_gcd,
    quantum_int,
    s_pow,
    v_pow,
    z,
)

from oracles import _eval_poly, euclid_gcd_q, eval_rational


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


def assert_canonical(c: Scalar):
    if c.is_zero():
        assert c.den.is_one()
        return
    assert c.den.min_exponents() == (0, 0)
    assert c.den.lex_leading()[1] > 0
    assert poly_gcd(c.num, c.den).is_one()


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
        assert_canonical(a * b + a - b)


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


def dense_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_poly_gcd_knuth_pair():
    # TAOCP vol. 2, 4.6.1: a coprime pair whose PRS drops two degrees at once
    A = [-5, 2, 8, -3, -3, 0, 1, 0, 1]
    B = [21, -9, -4, 0, 5, 0, 3]
    C = [1, 1, 1]

    def poly(cs, in_s):
        return IntLaurent({((0, i) if in_s else (i, 0)): c for i, c in enumerate(cs) if c})

    assert _dense_gcd(A, B) == [1]
    assert _dense_gcd(
        [6 * x for x in dense_mul(A, C)], [4 * x for x in dense_mul(B, C)]
    ) == [2 * x for x in C]
    for in_s in (True, False):
        a, b, c = poly(A, in_s), poly(B, in_s), poly(C, in_s)
        assert poly_gcd(a, b).is_one()
        assert poly_gcd(a * c.int_mul(6), b * c.int_mul(4)) == c.int_mul(2)
    s, v = IntLaurent.monomial(1, 0, 1), IntLaurent.monomial(1, 1, 0)
    a, b = poly(A, True) + v, v * poly(B, True) + s
    cc = v * s + s.int_mul(2) - v
    assert poly_gcd(a * cc, b * cc) == cc


def test_dense_gcd_matches_euclid_over_q():
    # seeded products a*c, b*c with a known common factor c, degrees up to 80
    rng = random.Random(2024)

    def dense(deg):
        return [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice((-3, -1, 1, 2, 5))]

    for _ in range(60):
        c = dense(rng.randint(0, 20))
        a, b = dense(rng.randint(0, 60)), dense(rng.randint(0, 60))
        f, g = dense_mul(a, c), dense_mul(b, c)
        r = _dense_gcd(f, g)
        assert r == _dense_gcd(g, f)
        assert r[-1] > 0
        assert [Fraction(x, r[-1]) for x in r] == euclid_gcd_q(f, g)
        assert len(r) >= len(c)


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


def test_normal_form_random_families():
    # Families of 1-5 numerators with a random common factor, over a den
    # that carries a random monomial factor and sign.
    rng = random.Random(1919)

    def rndpoly(lo=-2, hi=2):
        while True:
            p = IntLaurent({
                (rng.randint(lo, hi), rng.randint(lo, hi)): rng.randint(-4, 4)
                for _ in range(rng.randint(1, 3))
            })
            if not p.is_zero():
                return p

    assert normal_form({}, IntLaurent.from_int(1)) == ({}, IntLaurent.from_int(1))
    assert normal_form({}, rndpoly()) == ({}, IntLaurent.from_int(1))
    for _ in range(200):
        common = rndpoly(0, 2).int_mul(rng.choice((1, 2, 3)))
        unit = IntLaurent.monomial(rng.choice((1, -1)), rng.randint(-3, 3), rng.randint(-3, 3))
        den = rndpoly() * common * unit
        nums = {k: rndpoly() * common for k in range(rng.randint(1, 5))}
        nums2, den2 = normal_form(nums, den)
        assert nums2.keys() == nums.keys()
        for k in nums:
            assert nums2[k] * den == nums[k] * den2
        assert den2.min_exponents() == (0, 0)
        assert den2.lex_leading()[1] > 0
        g = den2
        for c in nums2.values():
            g = poly_gcd(g, c)
        assert g.is_one()
        assert normal_form(nums2, den2) == (nums2, den2)
        # over 1 the numerators are canonical and come back as they are
        assert normal_form(nums, IntLaurent.from_int(1))[0] is nums


# Cyclotomic polynomials in s, dense from s^0: Phi_1 .. Phi_6.
CYCLOTOMIC = [(-1, 1), (1, 1), (1, 1, 1), (1, 0, 1), (1, 1, 1, 1, 1), (1, -1, 1)]


def s_dense(p):
    return IntLaurent({(0, i): c for i, c in enumerate(p) if c})


def ref_over_lcm(pairs):
    """over_lcm by IntLaurent gcds and long division, whatever the denominators."""
    den = IntLaurent.from_int(1)
    for _, d in pairs:
        if den != d and not d.is_one():
            den = d if den.is_one() else den * laurent_divexact(d, poly_gcd(den, d))
    den = canon_poly_part(den)
    return [k * laurent_divexact(den, d) for k, d in pairs], den


def test_dense_route_matches_the_general_route():
    # Denominators in Z[s] up to a monomial are reduced on dense rows; the
    # general route, by IntLaurent gcds and long division, is the reference.
    # Denominators: products of cyclotomic factors, with integer content
    # 2 or 24, a monomial v^a s^k and either sign of the lead.  Numerators
    # have several v-rows and share all of den, part of it, or none.
    from heckeskein.coeff import _normal_form_general, over_lcm

    rng = random.Random(2929)

    def factors():
        return [s_dense(rng.choice(CYCLOTOMIC)) for _ in range(rng.randint(1, 4))]

    def product(ps):
        out = IntLaurent.from_int(1)
        for p in ps:
            out = out * p
        return out

    def v_rows():
        # a polynomial with up to three powers of v, each row a few s-terms
        while True:
            p = IntLaurent({
                (rng.randint(-1, 1), rng.randint(-2, 3)): rng.randint(-4, 4)
                for _ in range(rng.randint(1, 6))
            })
            if not p.is_zero():
                return p

    shares = {"all": 0, "part": 0, "none": 0}
    reduced = 0
    for _ in range(360):
        fs = factors()
        unit = IntLaurent.monomial(
            rng.choice((1, -1)) * rng.choice((1, 2, 24)), rng.randint(-2, 2), rng.randint(-3, 3)
        )
        den = product(fs) * unit
        share = rng.choice(list(shares))
        shares[share] += 1
        common = {"all": den, "part": product(fs[: rng.randint(0, len(fs) - 1)]),
                  "none": IntLaurent.from_int(1)}[share]
        nums = {k: v_rows() * common for k in range(rng.randint(1, 4))}
        got = normal_form(nums, den)
        assert got == _normal_form_general(nums, den)
        reduced += got[1] != den
        pairs = [(v_rows(), product(factors()) * IntLaurent.monomial(rng.choice((1, -2)), 0, 0))
                 for _ in range(rng.randint(1, 4))]
        pairs.append((v_rows(), den))
        assert over_lcm(pairs) == ref_over_lcm(pairs)
    assert min(shares.values()) >= 100 and reduced >= 200, (shares, reduced)


def test_dense_route_takes_no_intlaurent_gcd_or_long_division(monkeypatch):
    # Over a denominator in Z[s] up to a monomial, normal_form and over_lcm
    # reach neither poly_gcd nor laurent_divexact; over one that uses v in
    # two powers, normal_form still does.
    import heckeskein.coeff as coeff

    calls = {"poly_gcd": 0, "laurent_divexact": 0}
    for name in calls:
        def counted(*args, real=getattr(coeff, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(coeff, name, counted)

    z_num = z().num
    d = z_num * s_dense((1, 1, 1)).int_mul(6)  # z Phi_3 with content 6
    nums = {0: z_num.shift(1, 0).int_mul(2), 1: s_dense((1, 0, -1)).int_mul(4)}
    nums, den = normal_form(nums, d)
    assert den == s_dense((1, 1, 1)).int_mul(3) and calls == {"poly_gcd": 0, "laurent_divexact": 0}
    dens = [d, z_num, s_dense((1, 1))]
    ks, lcm = coeff.over_lcm([(ONE.num, e) for e in dens])
    # the lcm is d (z / (s^2 - 1)) = d s^-1 = 6 (s^4 + s^3 - s - 1) once
    # canonical, and each 1/e is k/lcm
    assert lcm == canon_poly_part(d.shift(0, -1)) == s_dense((-1, -1, 0, 1, 1)).int_mul(6)
    assert [k * e for k, e in zip(ks, dens)] == [lcm] * 3
    assert calls == {"poly_gcd": 0, "laurent_divexact": 0}
    x = Scalar(z_num, d) + Scalar(ONE.num, z_num) * Scalar(ONE.num, s_dense((-1, 1)))
    assert calls == {"poly_gcd": 0, "laurent_divexact": 0}
    assert x == Scalar(z_num, d) + Scalar(ONE.num, z_num * s_dense((-1, 1)))
    delta_den = z_num * v_pow(1).num + ONE.num  # v z + 1: two powers of v
    normal_form({0: delta_den * z_num}, delta_den * s_dense((1, 1)))
    assert calls["poly_gcd"] > 0 and calls["laurent_divexact"] > 0


def test_over_lcm_over_denominators_with_two_powers_of_v():
    # Denominators that use v in two powers, such as v z + 1, (v z + 1)(s + 1)
    # and v^-1 - v, take the general route inside normal_form; over_lcm must
    # still give the canonical lcm and each num lcm/den.
    from heckeskein.coeff import over_lcm

    rng = random.Random(3131)
    z_num = z().num
    vz1 = z_num.shift(1, 0) + ONE.num
    pool = [vz1, vz1 * s_dense((1, 1)), IntLaurent({(-1, 0): 1, (1, 0): -1}),
            IntLaurent({(1, 0): 1, (0, 1): 2}), z_num, s_dense((1, 1, 1)), s_dense((-1, 1))]
    shared = 0
    for _ in range(200):
        pairs = []
        for _ in range(rng.randint(1, 4)):
            d = IntLaurent.monomial(
                rng.choice((1, -1, 2, -6)), rng.randint(-2, 2), rng.randint(-2, 2)
            )
            for _ in range(rng.randint(1, 3)):
                d = d * rng.choice(pool)
            k = IntLaurent({(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-3, 3)
                            for _ in range(rng.randint(0, 4))})
            pairs.append((k, d))
        if rng.random() < 0.3:
            pairs.append((ONE.num, pairs[0][1]))
        ks, den = over_lcm(pairs)
        assert (ks, den) == ref_over_lcm(pairs)
        product = IntLaurent.from_int(1)
        for _, d in pairs:
            product = product * d
        shared += den != canon_poly_part(product)
    assert shared >= 100, shared


def test_over_lcm_takes_one_normal_form_per_new_denominator(monkeypatch):
    # A denominator equal to the running lcm adds its numerator unchanged;
    # every other one takes exactly one normal_form.
    import heckeskein.coeff as coeff

    calls = []
    real = coeff.normal_form

    def counted(nums, den):
        calls.append(den)
        return real(nums, den)

    monkeypatch.setattr(coeff, "normal_form", counted)
    rng = random.Random(3132)
    z_num = z().num
    pool = [z_num, s_dense((1, 1, 1)), s_dense((1, 1)), z_num.shift(1, 0) + ONE.num,
            IntLaurent.from_int(1), s_dense((-2, 2))]
    seen_equal = 0
    for _ in range(150):
        pairs = [(ONE.num, rng.choice(pool) * rng.choice(pool)) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.5:
            pairs.insert(rng.randint(1, len(pairs)), (ONE.num, ref_over_lcm(pairs)[1]))
        running = [ref_over_lcm(pairs[:i])[1] for i in range(len(pairs))]
        new = [d for (_, d), lcm in zip(pairs, running) if d != lcm]
        seen_equal += len(new) < len(pairs)
        calls.clear()
        coeff.over_lcm(pairs)
        assert calls == new
    assert seen_equal >= 50, seen_equal


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


# Self-checks of the evaluation oracle in tests/oracles.py, which the ring
# checks below and oracles.symfunc_value rely on.
def test_eval_rational_examples():
    assert eval_rational(z(), 1, 2) == Fraction(3, 2)
    assert eval_rational(quantum_int(3), 1, 2) == Fraction(21, 4)
    assert eval_rational(delta(), 2, 2) == Fraction(-1)


def test_eval_rational_pole():
    with pytest.raises(ZeroDivisionError):
        eval_rational(delta(), 2, 1)  # z vanishes at s = 1


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
            av, bv = eval_rational(a, *pt), eval_rational(b, *pt)
        except ZeroDivisionError:
            continue
        assert eval_rational(a + b, *pt) == av + bv
        assert eval_rational(a * b, *pt) == av * bv
        assert eval_rational(a - b, *pt) == av - bv


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


def test_field_ops_on_denominators_with_a_shared_factor(monkeypatch):
    # a = n1 / (g d1) and b = n2 / (g d2), with g, d1, d2 in s alone or in
    # both v and s and with integer contents: the results must match the
    # rational values at two points and be canonical.  Every gcd route of
    # normal_form runs: the dense fold over s-rows, for a den in Z[s] up to a
    # monomial, and for other dens poly_gcd's fold, for an input in one
    # variable, and _prs_gcd (whose Z[v] contents are folds too, not counted
    # as the route).
    import heckeskein.coeff as coeff

    routes = {"dense": 0, "fold": 0, "prs": 0}
    depth = {"poly_gcd": 0, "prs": 0}
    fold, prs, gcd = coeff._fold_gcd, coeff._prs_gcd, coeff.poly_gcd

    def counted_fold(*args):
        if not depth["prs"]:
            routes["fold" if depth["poly_gcd"] else "dense"] += 1
        return fold(*args)

    def nested(name, real):
        def run(*args):
            depth[name] += 1
            try:
                return real(*args)
            finally:
                depth[name] -= 1
        return run

    def counted_prs(*args):
        routes["prs"] += 1
        return nested("prs", prs)(*args)

    monkeypatch.setattr(coeff, "_fold_gcd", counted_fold)
    monkeypatch.setattr(coeff, "_prs_gcd", counted_prs)
    monkeypatch.setattr(coeff, "poly_gcd", nested("poly_gcd", gcd))

    rng = random.Random(2027)

    def rndpoly(in_s_only):
        while True:
            p = IntLaurent({
                (0 if in_s_only else rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)
                for _ in range(rng.randint(2, 3))
            })
            if len(p.terms) > 1:
                return p.shift(rng.randint(-1, 1), rng.randint(-1, 1))

    def content():
        return rng.choice((1, 1, 2, -3, 6))

    points = ((Fraction(3), Fraction(2)), (Fraction(-2), Fraction(5, 3)))

    def values(x):
        out = []
        for pt in points:
            try:
                out.append(eval_rational(x, *pt))
            except ZeroDivisionError:
                out.append(None)
        return out

    checked = 0
    reached = dict.fromkeys(routes, 0)  # by the operations, not by the checks
    for _ in range(150):
        before = dict(routes)
        g, d1, d2 = (rndpoly(rng.random() < 0.5) for _ in range(3))
        g = g.int_mul(content())
        n1 = rndpoly(rng.random() < 0.3).int_mul(content())
        n2 = rndpoly(rng.random() < 0.3).int_mul(content())
        a, b = Scalar(n1, g * d1), Scalar(n2, g * d2)
        results = {
            "+": (a + b, lambda x, y: x + y),
            "-": (a - b, lambda x, y: x - y),
            "*": (a * b, lambda x, y: x * y),
            "/": (a / b, lambda x, y: x / y if y else None),
            "inv": (a.inv(), lambda x, y: 1 / x if x else None),
            **{
                f"int_mul {c}": (a.int_mul(c), lambda x, y, c=c: c * x)
                for c in (0, 1, -1, 6)
            },
        }
        zero = a + (-a)
        for route in reached:
            reached[route] += routes[route] - before[route]
        assert zero == ZERO and zero.den.is_one()
        for op, (got, want) in results.items():
            assert_canonical(got)
            for x, y, r in zip(values(a), values(b), values(got)):
                if x is None or y is None or want(x, y) is None:
                    continue
                assert r == want(x, y), (op, a, b)
                checked += 1
    assert checked >= 1500
    assert min(reached.values()) > 0, reached


def test_laurent_divexact_roundtrip():
    # a b / b is a; a b + m, for a monomial m, is exact or raises
    rng = random.Random(9)
    raised = 0
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
        f = a * b + IntLaurent.monomial(rng.choice((-2, 1, 3)), rng.randint(-3, 3), 0)
        try:
            q = laurent_divexact(f, b)
        except ArithmeticError:
            raised += 1
        else:
            assert q * b == f
    assert raised > 100


def test_laurent_divexact_long_quotient():
    # an exact quotient of 1100 terms, one long-division step each
    s = IntLaurent.monomial(1, 0, 1)
    one = IntLaurent.from_int(1)
    geometric = IntLaurent({(0, k): 1 for k in range(1100)})
    assert laurent_divexact(s.shift(0, 1099) - one, s - one) == geometric
    assert Scalar(s.shift(0, 1099) - one, s - one) == Scalar(geometric, one)


def test_laurent_divexact_stops_below_the_exponent_bound():
    v, s = IntLaurent.monomial(1, 1, 0), IntLaurent.monomial(1, 0, 1)
    one = IntLaurent.from_int(1)
    # each raises once a quotient term falls below min f - min g = (0, 0); in
    # 1 / (v + s^4) that is the first term, v^-1
    for f, g in ((one, v + s.shift(0, 4)), (one, one - s), (v + s, v - s)):
        with pytest.raises(ArithmeticError):
            laurent_divexact(f, g)


def test_json_round_trip():
    rng = random.Random(11)
    for _ in range(50):
        a = rand_scalar(rng)
        obj = a.to_json()
        # terms sorted lexicographically, coefficients as strings
        assert obj["num"] == sorted(obj["num"], key=lambda r: (r[0], r[1]))
        assert all(isinstance(r[2], str) for r in obj["num"] + obj["den"])


def test_json_and_repr_past_the_str_digit_limit():
    c = 10**5000 + 7
    a = Scalar(IntLaurent({(0, 0): -c, (1, 2): 3}), IntLaurent({(0, 1): 1, (0, 0): 2}))
    digits = "1" + "0" * 4999 + "7"
    assert a.to_json()["num"] == [[0, 0, "-" + digits], [1, 2, "3"]]
    assert repr(Scalar.from_int(c)) == f"Scalar('{digits}')"
    assert repr(a) == f"Scalar('(3*v*s^2 - {digits}) / (s + 2)')"


def test_pow():
    assert z() ** 0 == ONE
    assert z() ** 3 == z() * z() * z()
    assert (s_pow(1) ** -2) == s_pow(-2)


def rand_laurent(rng, terms: int) -> IntLaurent:
    return IntLaurent(
        {(rng.randint(-3, 3), rng.randint(-3, 3)): rng.randint(-4, 4) for _ in range(terms)}
    )


def general_product(f: IntLaurent, g: IntLaurent) -> IntLaurent:
    """f g by a plain double loop over the terms, with no shortcut."""
    acc = {}
    for (a1, b1), c1 in f.terms.items():
        for (a2, b2), c2 in g.terms.items():
            e = (a1 + a2, b1 + b2)
            acc[e] = acc.get(e, 0) + c1 * c2
    return IntLaurent(acc)


def test_laurent_product_drops_cancelled_terms():
    s, s_inv = IntLaurent.monomial(1, 0, 1), IntLaurent.monomial(1, 0, -1)
    prod = (s + s_inv) * (s - s_inv)
    assert prod.terms == {(0, 2): 1, (0, -2): -1}
    # every middle term cancels: (1 + s)(1 - s + s^2 - s^3) = 1 - s^4
    one = IntLaurent.from_int(1)
    alt = IntLaurent({(0, 0): 1, (0, 1): -1, (0, 2): 1, (0, 3): -1})
    assert ((one + s) * alt).terms == {(0, 0): 1, (0, 4): -1}
    assert (s - s_inv) * (s - s_inv) - (s * s + s_inv * s_inv) == IntLaurent.from_int(-2)


def test_laurent_product_hash_matches_a_rebuilt_copy():
    rng = random.Random(41)
    for _ in range(50):
        prod = rand_laurent(rng, 4) * rand_laurent(rng, 5)
        assert 0 not in prod.terms.values()
        copy = IntLaurent(dict(reversed(list(prod.terms.items()))))
        assert copy == prod and hash(copy) == hash(prod)


def test_laurent_product_shortcuts_match_the_general_loop():
    rng = random.Random(42)
    zero, one = IntLaurent(), IntLaurent.from_int(1)
    for _ in range(50):
        f = rand_laurent(rng, 5)
        c, e_v, e_s = rng.choice([-3, -1, 1, 2]), rng.randint(-2, 2), rng.randint(-2, 2)
        mono = IntLaurent.monomial(c, e_v, e_s)
        for g in (zero, one, mono, rand_laurent(rng, 4)):
            assert f * g == general_product(f, g)
            assert g * f == general_product(g, f)


def test_laurent_product_matches_evaluation():
    rng = random.Random(43)
    points = [(Fraction(2), Fraction(3)), (Fraction(-1, 2), Fraction(5, 7))]
    for _ in range(50):
        f, g = rand_laurent(rng, rng.randint(0, 6)), rand_laurent(rng, rng.randint(0, 6))
        for v0, s0 in points:
            assert _eval_poly(f * g, v0, s0) == _eval_poly(f, v0, s0) * _eval_poly(g, v0, s0)


_S_MINUS_1 = IntLaurent({(0, 1): 1, (0, 0): -1})
_S_PLUS_1 = IntLaurent({(0, 1): 1, (0, 0): 1})


def _pm1_pow(a, b):
    out = IntLaurent.from_int(1)
    for f in [_S_MINUS_1] * a + [_S_PLUS_1] * b:
        out = out * f
    return out


def _check_over_z_pow(num, m, want=None):
    # The Markov trace and homfly are numerators over a power z^m of
    # z = s^-1 (s - 1) (s + 1), reduced by the Scalar constructor; check it
    # against the general route and against exact evaluation.
    zm = (z() ** m).num
    got = Scalar(num, zm)
    if want is not None:
        assert (got.num, got.den) == want, (num, m)
    if num.terms:
        nums, den = _normal_form_general({0: num}, zm)
        assert (got.num, got.den) == (nums[0], den), (num, m)
    for v0, s0 in [(Fraction(2), Fraction(3)), (Fraction(-1, 2), Fraction(5, 7))]:
        want_val = _eval_poly(num, v0, s0) / _eval_poly(zm, v0, s0)
        assert eval_rational(got, v0, s0) == want_val, (num, m)


def test_over_z_pow_examples():
    one = IntLaurent.from_int(1)
    _check_over_z_pow(IntLaurent(), 3, (IntLaurent(), one))
    _check_over_z_pow((z() * z()).num, 2, (one, one))
    # above the cap: v s^-2 (s - 1)^3 over z^2 leaves v (s - 1) upstairs
    cube = _pm1_pow(3, 0).shift(1, -2)
    _check_over_z_pow(cube, 2, (_S_MINUS_1.shift(1, 0), _pm1_pow(0, 2)))
    _check_over_z_pow(cube, 0, (cube, one))


def test_over_z_pow_matches_the_gcd_route():
    # numerators divisible by (s - 1)^i (s + 1)^j, with i and j below, at
    # and above the power m of z; with i != j the factors s - 1 and s + 1
    # cancel to different powers
    rng = random.Random(2026)
    at_cap = below = above = unequal = 0
    for _ in range(400):
        m = rng.randint(0, 5)
        i, j = rng.randint(0, 6), rng.randint(0, 6)
        base = {}
        for _ in range(rng.randint(0, 5)):
            e = (rng.randint(-3, 3), rng.randint(-4, 4))
            base[e] = rng.randint(-9, 9)
        _check_over_z_pow(IntLaurent(base) * _pm1_pow(i, j), m)
        at_cap += m > 0 and m in (i, j)
        below += min(i, j) < m
        above += max(i, j) > m
        unequal += i != j
    assert at_cap >= 20 and below >= 20 and above >= 20 and unequal >= 200
