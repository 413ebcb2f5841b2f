"""The in-place generator kernel, the prefix-trie product and the trace sum.

Each is compared on seeded random inputs with the per-term reference route
in the oracles: a new IntLaurent map per generator step, the whole word of
every braid per product, and the Horner trace sum.  Elements carry v and s
in their numerators and a non-unit denominator; the trace sums also take
elements over 1, which are reduced over a power of z alone.
"""

import random

import pytest

from heckeskein.coeff import IntLaurent, Scalar, z
from heckeskein.hecke import (
    HeckeElt,
    _elt,
    _rekey,
    a_sym,
    h_idem,
    murphy_series,
    murphy_T,
    power_sum_T,
    t_circle,
    word_elt,
)
from heckeskein.perm import all_perms, right_gen, word_of
from heckeskein.trace import _loop_num, _trace_loops, homfly, markov_ev
from oracles import (
    is_central_by_terms,
    loop_sum_horner,
    mirror_by_terms,
    product_by_words,
    rmul_word_by_terms,
)

# non-unit denominators: in s alone, in both variables, and an integer
DENS = [
    IntLaurent({(0, 2): 1, (0, 0): -1}),
    IntLaurent({(1, 0): 1, (0, 1): -1}),
    IntLaurent({(1, 1): 1, (0, 0): 1}),
    IntLaurent.from_int(2),
]


def rand_poly(rng) -> IntLaurent:
    return IntLaurent(
        {(rng.randint(-2, 2), rng.randint(-2, 2)): rng.randint(-3, 3) for _ in range(3)}
    )


# denominators that share s - 1, (s + 1)^2 or z = s - s^-1 with a power of z
Z_DENS = [
    IntLaurent({(0, 1): 1, (0, 0): -1}),
    IntLaurent({(0, 2): 1, (0, 1): 2, (0, 0): 1}),
    IntLaurent({(0, 1): 1, (0, -1): -1}),
]


def rand_elt(rng, n: int, terms: int, dens=DENS) -> HeckeElt:
    """About `terms` random basis braids of H_n over one denominator drawn from dens."""
    perms = list(all_perms(n))
    den = rng.choice(dens)
    picks = rng.sample(perms, min(terms, len(perms)))
    return HeckeElt(n, {p: Scalar(rand_poly(rng), den) for p in picks})


def rand_word(rng, n: int, length: int) -> list[int]:
    letters = [i for i in range(1 - n, n) if i]
    return [rng.choice(letters) for _ in range(length)] if letters else []


def inverse_word(word: list[int]) -> list[int]:
    return [-i for i in reversed(word)]


@pytest.mark.parametrize("seed", range(2))
def test_one_shot_words_are_walked_whole(seed):
    # a braid word may be any iterable: checking its letters must not use
    # up an iterator before the walk reads it
    rng = random.Random(500 + seed)
    for n in range(1, 7):
        for _ in range(4):
            w = rand_word(rng, n, rng.randint(n, 3 * n))
            x = rand_elt(rng, n, 4)
            assert x.rmul_word(iter(w)) == x.rmul_word(w)
            assert word_elt(n, iter(w)) == word_elt(n, w)
            assert homfly(n, iter(w)) == homfly(n, w)


def test_canonical_words_are_prefix_closed():
    # the trie product rests on this: dropping the last letter i of rho's
    # canonical word leaves the canonical word of rho s_i
    for n in range(1, 8):
        for p in all_perms(n):
            word = word_of(p.images)
            if word:
                assert word_of(right_gen(p.images, word[-1])) == word[:-1]


@pytest.mark.parametrize("seed", range(4))
def test_signed_words_match_the_reference(seed):
    rng = random.Random(seed)
    for n in range(1, 6):
        x = rand_elt(rng, n, 4)
        w = rand_word(rng, n, rng.randint(0, 3 * n))
        assert x.rmul_word(w) == rmul_word_by_terms(x, w)
        # w then its inverse cancels coefficients back to zero on the way
        assert x.rmul_word(w + inverse_word(w)) == x
        assert x.rmul_word(w).rmul_word(inverse_word(w)) == x


@pytest.mark.parametrize("seed", range(3))
def test_products_match_the_per_braid_walk(seed):
    rng = random.Random(100 + seed)
    for n in range(1, 6):
        x = rand_elt(rng, n, 5)
        sparse = rand_elt(rng, n, 2)
        dense = rand_elt(rng, n, 120)
        for y in (sparse, dense, x, HeckeElt(n), HeckeElt.identity(n)):
            assert x * y == product_by_words(x, y)
        assert sparse * x == product_by_words(sparse, x)


def test_dense_square_matches_the_per_braid_walk():
    a = a_sym(5).scale(Scalar(IntLaurent.from_int(1), DENS[1]))
    assert a * a == product_by_words(a, a)


def test_rekey_reverses_the_canonical_word():
    # is_central rests on this: w_pi -> w_{pi^-1} is pi's word read backwards
    one = IntLaurent.from_int(1)
    for n in range(1, 6):
        for p in all_perms(n):
            rekeyed = _elt(n, _rekey({p.images: one}), one)
            backwards = word_of(p.images)[::-1]
            assert rekeyed == rmul_word_by_terms(HeckeElt.identity(n), backwards)


def commutes(x: HeckeElt, i: int) -> bool:
    s_i = word_elt(x.n, [i])
    return x * s_i == s_i * x


@pytest.mark.parametrize("n", range(1, 6))
def test_is_central_matches_the_reference(n):
    rng = random.Random(200 + n)
    central = [t_circle(n), power_sum_T(2, n), *murphy_series(n, 2).coeffs]
    for x in central:
        assert x.is_central() and is_central_by_terms(x)
    others = [rand_elt(rng, n, 3) for _ in range(3)]
    if n >= 3:
        others.append(murphy_T(2, n))
    for x in others:
        assert x.is_central() == is_central_by_terms(x)
    if n >= 3:
        assert not murphy_T(2, n).is_central()
    # over non-unit denominators in both variables
    bivariate = [Scalar(IntLaurent({(1, -1): 2, (0, 1): -1}), den) for den in DENS[1:3]]
    # commuting with some sigma_i but not all: a_k in H_n fails only at
    # sigma_k, and T(j) only at sigma_{j-1} and sigma_j
    partial = [(a_sym(k).include(n), [k]) for k in range(2, n)]
    partial += [(murphy_T(j, n), [i for i in (j - 1, j) if i < n]) for j in range(3, n + 1)]
    for (x, fails), c in zip(partial, bivariate * n):
        x = x.scale(c)
        assert [i for i in range(1, n) if not commutes(x, i)] == fails
        assert not x.is_central() and not is_central_by_terms(x)
    # a central element plus a small non-central term
    for c in bivariate:
        x = t_circle(n).scale(c) + word_elt(n, [1] if n > 1 else []).scale(c * c)
        assert x.is_central() == is_central_by_terms(x) == (n < 3)


@pytest.mark.parametrize("seed", range(3))
def test_mirror_matches_the_reference(seed):
    rng = random.Random(300 + seed)
    for n in range(1, 6):
        # the dense ones meet every trie branch, sharing prefixes
        for x in (rand_elt(rng, n, 6), rand_elt(rng, n, 120), h_idem(n)):
            assert x.mirror() == mirror_by_terms(x)
            assert x.mirror().mirror() == x


@pytest.mark.parametrize("seed", range(3))
def test_trace_sums_match_horner(seed):
    # the trace reduces its numerator once, over z^m times the element's
    # denominator (1 for braid words); homfly reduces once, over the power
    # of z left after the Markov moves
    rng = random.Random(400 + seed)
    for n in range(1, 7):
        x = rand_elt(rng, n, 6)
        assert markov_ev(x) == loop_sum_horner(x, 0, 0)
        y = x.scale(Scalar(x.den, IntLaurent.from_int(1)))
        assert y.den.is_one()
        assert markov_ev(y) == loop_sum_horner(y, 0, 0)
        assert markov_ev(HeckeElt(n)) == loop_sum_horner(HeckeElt(n), 0, 0)
        # homfly is invariant under the Markov moves it applies, so it equals
        # the reference sum on the whole word
        for _ in range(6):
            w = rand_word(rng, n, rng.randint(n, 3 * n))
            writhe = sum(1 if i > 0 else -1 for i in w)
            ref = loop_sum_horner(rmul_word_by_terms(HeckeElt.identity(n), w), 1, writhe)
            assert homfly(n, w) == ref
            assert markov_ev(word_elt(n, w)) == loop_sum_horner(word_elt(n, w), 0, 0)
        # over a denominator that shares a factor with z^n, the one
        # reduction cancels factors of both
        for _ in range(3):
            x = rand_elt(rng, n, 6, Z_DENS)
            assert markov_ev(x) == loop_sum_horner(x, 0, 0)
        # the sums run over z^(L - j), L the top grade with a nonzero
        # pairing: below n without the identity braid, n with it; over 1,
        # over an integer or s^2 - 1, and over a factor of z
        perms = list(all_perms(n))
        for top in ("below", "equal"):
            for dens in (Z_DENS, [DENS[0], DENS[3]], [IntLaurent.from_int(1)]):
                picks = rng.sample(perms[1:], min(4, len(perms) - 1))
                if top == "equal":
                    picks.append(perms[0])
                den = rng.choice(dens)
                # v^3 s^3 keeps every coefficient nonzero
                x = HeckeElt(n, {
                    p: Scalar(rand_poly(rng) + IntLaurent.monomial(1, 3, 3), den) for p in picks
                })
                grades = [l for l, k in x.pair(_trace_loops).items() if not k.is_zero()]
                if not grades:
                    continue
                assert (max(grades) == n) == (top == "equal")
                assert markov_ev(x) == loop_sum_horner(x, 0, 0)
                for j in (0, 1):
                    t = rng.randint(-3, 3)
                    num, m = _loop_num(x, j, t)
                    tops = [l for l in grades if l >= j]
                    assert m == (max(tops) - j if tops else 0)
                    assert Scalar(num, (z() ** m).num * x.den) == loop_sum_horner(x, j, t)
