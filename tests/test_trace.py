import random

import pytest

from heckeskein import repn, trace
from heckeskein.coeff import ONE, IntLaurent, Scalar, delta, quantum_int, s_pow, v_pow, z
from heckeskein.hecke import HeckeElt, h_idem, word_elt
from heckeskein.perm import all_perms
from heckeskein.repn import closure, partitions_of
from heckeskein.symfun import SymFunc, complete, elementary, power_sum, schur
from heckeskein.trace import ev_sym, homfly, markov_ev
from oracles import ev_sym_over_lcm, markov_trace, memo_clear


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

    memo_clear()
    monkeypatch.setattr(trace, "markov_ev", forbidden)
    value = ev_sym(complete(8))
    assert value == ev_sym(complete(7)) * (
        v_pow(-1) * s_pow(7) - v_pow(1) * s_pow(-7)) / (s_pow(8) - s_pow(-8))


def test_ev_sym_over_one_denominator_matches_the_lcm_route():
    # several degrees, coefficient denominators such as 1/3, single terms,
    # and degree 8
    rng = random.Random(2611)
    shapes = [lam for d in range(0, 7) for lam in partitions_of(d)]
    coeffs = [
        lambda: Scalar.monomial(rng.choice((-2, 1, 3)), rng.randint(-1, 1), rng.randint(-2, 2)),
        lambda: Scalar.from_fraction(1, 3),
        lambda: Scalar.from_int(2) / (s_pow(1) + s_pow(-1)),
        lambda: v_pow(1) / z(),
    ]
    for t in range(120):
        picks = len(coeffs) if t % 3 else 1  # every third element has den-1 coefficients
        f = SymFunc(
            {rng.choice(shapes): rng.choice(coeffs[:picks])() for _ in range(rng.randint(1, 5))}
        )
        assert ev_sym(f) == ev_sym_over_lcm(f), f
    for f in (
        elementary(8),
        power_sum(8),
        schur((3, 3, 2)),
        complete(4) * complete(4) + elementary(8).scale(Scalar.from_fraction(1, 3)),
        SymFunc.h_monomial((2, 1, 1), Scalar.from_fraction(-5, 3)),
        SymFunc.h_monomial((8,)),
        SymFunc.h_monomial((1,) * 8, v_pow(2)),
        SymFunc.zero(),
    ):
        assert ev_sym(f) == ev_sym_over_lcm(f), f


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


def test_homfly_beyond_the_cli_strand_bound():
    # The library homfly has no strand bound: split unions reach powers
    # z^m above the CLI's 8 strands, up to m = 11 and m = 10 here.
    for n in range(1, 13):
        assert homfly(n, []) == delta() ** (n - 1)
    # two trefoils, the stabilised unknot of sigma_5 and six free strands
    t = homfly(2, [1, 1, 1])
    assert homfly(12, [1, 1, 1, 5, 9, 9, 9]) == delta() ** 8 * t * t


def test_homfly_matches_the_three_scalar_route():
    # v^writhe markov_trace(word) / delta, with the trace summed term by term
    rng = random.Random(1505)
    for _ in range(60):
        n = rng.randint(2, 6)
        word = [rng.choice([-1, 1]) * rng.randint(1, n - 1)
                for _ in range(rng.randint(n, 3 * n))]
        writhe = sum(1 if i > 0 else -1 for i in word)
        slow = v_pow(writhe) * markov_trace(word_elt(n, word)) / delta()
        assert homfly(n, word) == slow, (n, word)


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
    # letters are checked before any move could cancel or split them away
    for n, word in ((3, [5, -5]), (3, [1, -1, 4]), (4, [1, -4])):
        with pytest.raises(ValueError):
            homfly(n, word)


def markov_word(rng, n):
    """A braid word on n strands, biased so that each Markov move fires often."""
    if n == 1:
        return []
    gens = list(range(1, n))
    kind = rng.randrange(5)
    once = None
    if kind == 1 and n > 2:  # some generator missing: a split
        gens.remove(rng.choice(gens))
    elif kind in (2, 3) and n > 2:  # sigma_{n-1} or sigma_1 exactly once
        once = n - 1 if kind == 2 else 1
        gens.remove(once)
    word = [rng.choice((1, -1)) * rng.choice(gens) for _ in range(rng.randint(0, 2 * n))]
    if once:
        word.insert(rng.randint(0, len(word)), rng.choice((1, -1)) * once)
    if kind == 4:  # cancelling pairs at the ends, one of them across the ends
        a, b = (rng.choice((1, -1)) * rng.choice(gens) for _ in range(2))
        word = [a] + word + [b, -b, -a]
    return word


def test_homfly_moves_match_the_unreduced_expansion():
    # homfly reduces the word by Markov moves; the public route below
    # expands it whole
    rng = random.Random(1616)
    for _ in range(420):
        n = rng.randint(1, 7)
        word = markov_word(rng, n)
        writhe = sum(1 if i > 0 else -1 for i in word)
        whole = v_pow(writhe) * markov_ev(word_elt(n, word)) / delta()
        assert homfly(n, word) == whole, (n, word)


def test_homfly_expands_only_what_the_moves_leave(monkeypatch):
    expanded = []

    def recording(n, word):
        expanded.append(n)
        return word_elt(n, word)

    monkeypatch.setattr(trace, "word_elt", recording)
    assert homfly(7, [1, 2, 3, 4, 5, 6]) == ONE  # an unknot, destabilised away
    assert max(expanded, default=0) <= 1
    # a figure eight on strands 1..3 beside a trefoil on strands 5..6
    expanded.clear()
    split = homfly(6, [1, -2, 5, 1, 5, -2, 5])
    assert sorted(expanded) == [2, 3]
    assert split == delta() * delta() * homfly(3, [1, -2, 1, -2]) * homfly(2, [1, 1, 1])
    # sigma_1 alone occurs once: flipped by the half twist, then destabilised
    expanded.clear()
    homfly(4, [1, 2, -3, 2, 3, -2, 3, 2])
    assert expanded == [3]


def test_homfly_expands_the_mirror_of_a_negative_word(monkeypatch):
    # Each word below is w0 w0, w0 holding every generator once with a
    # random sign, so no Markov move applies and the leaf gets the whole
    # word.  A negative writhe is expanded as the negated word and the
    # result mirrored; both routes must give the direct expansion.
    from oracles import loop_sum_horner, rmul_word_by_terms

    expanded = []
    real = trace.word_elt

    def recording(n, word):
        expanded.append(list(word))
        return real(n, word)

    monkeypatch.setattr(trace, "word_elt", recording)
    rng = random.Random(2929)
    routes = {"direct": 0, "mirror": 0}
    for _ in range(80):
        n = rng.randint(2, 6)
        gens = list(range(1, n))
        rng.shuffle(gens)
        half = [rng.choice((1, -1)) * i for i in gens]
        word = half + half
        writhe = sum(1 if i > 0 else -1 for i in word)
        expanded.clear()
        got = homfly(n, word)
        if writhe >= 0:
            assert expanded == [word]
            routes["direct"] += 1
        else:
            assert expanded == [[-i for i in word]]
            routes["mirror"] += 1
        direct = loop_sum_horner(rmul_word_by_terms(HeckeElt.identity(n), word), 1, writhe)
        assert got == direct, (n, word)
        assert homfly(n, [-i for i in word]) == got.mirror()
    assert min(routes.values()) >= 20, routes


def test_trace_grades_are_class_polynomial_sums():
    # tr(w_mu) = delta^l(mu) v^(l(mu)-n) for a minimal braid, so the grade l
    # of tr(w_pi) sums the class polynomials f_{pi,mu} over l(mu) = l
    for n in range(1, 7):
        for p in all_perms(n):
            f = repn._class_poly(p.images)
            grades = dict(trace._trace_loops(p.images))
            for loops in range(n + 1):
                b = grades.get(loops, IntLaurent())
                total = IntLaurent()
                for mu, poly in f.items():
                    if len(mu) == loops:
                        total = total + poly
                assert b == total, (p.images, loops)
