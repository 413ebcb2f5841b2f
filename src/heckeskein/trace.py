"""Markov trace on the Hecke algebras and HOMFLY polynomials of closed braids.

The trace implements plane evaluation of a tangle's closure.  On a braid
basis element it peels off the top strand using the descending coset normal
form w_pi = w_u . sigma_{n-1} sigma_{n-2} ... sigma_k:

* if pi fixes the top strand, closing it adds a free loop: factor delta;
* otherwise the single sigma_{n-1} crossing closes into a curl: factor
  v^{-1}, and the leftover sigma_{n-2}...sigma_k gets absorbed into H_{n-1}.

Every closed strand ends as a loop or a curl, so the number l of loops fixes
the whole v-dependence: tr(w_pi) = sum over l of b_l(s) delta^l v^(l-n), with
each b_l in Z[s^±].  The nonzero b_l are cached per basis braid as (l, b_l)
pairs, the keyed values HeckeElt.pair takes, so the trace of x pairs its
numerators with every grade at once and, as delta = v^{-1} (1 - v^2) / z,
sums the grades into one numerator over z^L den, L the top grade whose
pairing is nonzero, against weights in 1 - v^2 and z built once per L.
That fraction is reduced once, by the Scalar constructor; den is 1 for
every braid word, and z^L den lies in Z[s] up to a monomial, which
coeff.normal_form reduces on dense rows.

The multiplicative evaluation on the annulus ring sends h_k to the trace of
the k-strand row idempotent, taken from its closed form (Aiston & Morton,
JKTR 7 (1998) 463-487) rather than from the k!-term idempotent.  Its
denominator is D_k = prod over i <= k of (s^i - s^-i), up to a unit, and
D_m is a multiple of every h-monomial's of degree at most m (the quotients
are q-multinomial coefficients in q = s^2).  So the terms of a symmetric
function of degree m, when there are several, are brought over D_m, from
numerators cached per monomial, with no lcm, summed in one integer
accumulation and reduced once.
Together with the character closure this gives the consistency check
markov_ev = ev_sym(closure(.)).

The user-facing `homfly` rescales by the writhe and normalizes the unknot
to 1, matching published HOMFLY tables in the (v, z) conventions; it takes
the same sum with one factor delta divided out, a numerator over a power of
z.  That value is invariant under conjugation and stabilisation of the
braid (Jones, Ann. Math. 126 (1987) 335-388), so after checking every letter
`homfly` applies these Markov moves until none fits, and expands only what
is left:

* cancel adjacent letters i, -i, also cyclically across the two ends;
* if some generator k never occurs, the closure is the split union of the
  closures on strands 1..k and k+1..n: delta P(left) P(right);
* if sigma_{n-1}^{+-1} occurs once, drop it and go to n-1 strands: a word
  a x b is conjugate to b a x, which destabilises to b a, conjugate to a b;
* if sigma_1^{+-1} occurs once, conjugate by the half twist, i -> n-i, and
  destabilise the same way.

The numerators of the split parts multiply, each over its own power of z,
and the whole is reduced once, over the product of those powers.  A word
that is left with more negative than positive letters is expanded as its
mirror image, since each sigma_i^-1 = sigma_i - z adds terms: the HOMFLY
polynomial of the mirror is the mirror of the polynomial, z^m mirrors to
(-z)^m, and delta is fixed.
"""

from __future__ import annotations

from .coeff import (
    ONE,
    IntLaurent,
    Scalar,
    dot,
    memo,
    over_lcm,
    s_pow,
    v_pow,
    z,
)
from .hecke import HeckeElt, check_word, word_elt
from .perm import Perm, coset_decompose
from .symfun import SymFunc

_ONE_POLY = IntLaurent.from_int(1)
_ZERO_POLY = IntLaurent()
_Z = z().num
_DELTA_NUM = (v_pow(-1) - v_pow(1)).num  # delta = (v^-1 - v) / z


@memo
def _trace_loops(images: tuple[int, ...]) -> tuple[tuple[int, IntLaurent], ...]:
    """The nonzero (l, b_l), with tr(w_pi) = sum over l of b_l delta^l v^(l-n) in H_n."""
    if not images:
        return ((0, _ONE_POLY),)
    n = len(images)
    u, k = coset_decompose(Perm(images))
    if k is None:
        return tuple((l + 1, b) for l, b in _trace_loops(u.images))
    # w_pi = w_u sigma_{n-1} (sigma_{n-2}...sigma_k); the curl's v^-1 turns
    # the tail's v^(l-n+1) into v^(l-n), so its grades carry over unchanged.
    tail = HeckeElt.basis(u).rmul_word(range(n - 2, k - 1, -1))
    if not tail.den.is_one():
        raise ArithmeticError(f"the tail of w{images} has denominator {tail.den!r}")
    grades = sorted(tail.pair(_trace_loops).items())
    return tuple((l, b) for l, b in grades if not b.is_zero())


@memo
def _grade_weights(m: int) -> tuple[IntLaurent, ...]:
    """The weights (1 - v^2)^i z^(m-i) for i = 0..m; the first is z^m."""
    one_minus_v2 = (ONE - v_pow(2)).num
    a_pows, z_pows = [_ONE_POLY], [_ONE_POLY]
    for _ in range(m):
        a_pows.append(a_pows[-1] * one_minus_v2)
        z_pows.append(z_pows[-1] * _Z)
    return tuple(a_pows[i] * z_pows[m - i] for i in range(m + 1))


def _loop_num(x: HeckeElt, j: int, t: int) -> tuple[IntLaurent, int]:
    """v^t tr(x) / delta^j as (N, m): N over z^m x.den, unreduced.

    j is 0, or 1 on n >= 1 strands.  With K_l the pairing of x with b_l,
    L the top grade with K_L nonzero and delta = v^{-1} (1 - v^2) / z, it
    is v^(t+j-n) sum over l >= j of K_l (1 - v^2)^(l-j) z^(L-l) over
    z^(L-j).  One pairing gives every K_l, and the sum is one dot with
    the weights of m = L - j.
    """
    grades = {l: k for l, k in x.pair(_trace_loops).items() if l >= j and k.terms}
    if not grades:
        return _ZERO_POLY, 0
    m = max(grades) - j
    weights = _grade_weights(m)
    num = dot(grades.values(), [weights[l - j] for l in grades])
    return num.shift(t + j - x.n, 0), m


def markov_ev(x: HeckeElt) -> Scalar:
    """The framed Markov trace: delta per free loop, v^{-1} per curl.

    The sum is a numerator over z^m x.den, m at most n, reduced once.
    """
    num, m = _loop_num(x, 0, 0)
    return Scalar(num, _grade_weights(m)[0] * x.den)


@memo
def _h_trace(k: int) -> Scalar:
    """markov_ev(h_idem(k)) = prod over i <= k of (v^-1 s^(i-1) - v s^(1-i)) / (s^i - s^-i)."""
    if k == 0:
        return ONE
    factor = (v_pow(-1) * s_pow(k - 1) - v_pow(1) * s_pow(1 - k)) / (s_pow(k) - s_pow(-k))
    return _h_trace(k - 1) * factor


@memo
def _ev_den(m: int) -> IntLaurent:
    """D_m = prod over i <= m of (s^i - s^-i), a multiple of every h-monomial's denominator."""
    out = _ONE_POLY
    for i in range(1, m + 1):
        out = out * (s_pow(i) - s_pow(-i)).num
    return out


@memo
def _h_num(parts: tuple[int, ...], m: int) -> IntLaurent:
    """The numerator over D_m of prod over k in parts of _h_trace(k), for sum(parts) <= m.

    The denominator of _h_trace(k) is D_k up to a unit, and D_m over the
    product of the D_k is a q-multinomial coefficient (q = s^2) times
    D_m / D_sum(parts), so the product over D_m has denominator 1.
    """
    x = Scalar(_ev_den(m), _ONE_POLY)
    for k in parts:
        x = x * _h_trace(k)
    if not x.den.is_one():
        raise ArithmeticError(f"h{parts} is not over D_{m}: {x!r}")
    return x.num


def ev_sym(f: SymFunc) -> Scalar:
    """Plane evaluation of the annulus ring: h_k -> markov_ev(h_idem(k)), in closed form.

    A single term is one fraction over its own denominator, whose gcd with
    its numerator is small: over D_m the numerator carries the q-multinomial
    quotient, and the one reduction is a bivariate gcd with D_m (from cold
    caches, h_1^8 over D_8 takes about 70 times as long as over z^8, and
    h_4^2 about 7 times as long as over D_4^2).  Otherwise every
    h-monomial is put over D_m, m the largest degree, and the coefficients
    over the lcm of their own denominators (1 for integer coefficients), so
    the sum is one integer accumulation, reduced once.
    """
    terms = f.terms
    if len(terms) == 1:
        ((parts, c),) = terms.items()
        num, den = c.num, c.den
        for k in parts:
            h = _h_trace(k)
            num, den = num * h.num, den * h.den
        return Scalar(num, den)
    m = max(map(sum, terms), default=0)
    ks, den = over_lcm((c.num, c.den) for c in terms.values())
    num = dot(ks, [_h_num(parts, m) for parts in terms])
    return Scalar(num, den * _ev_den(m))


def homfly(n: int, word: list[int]) -> Scalar:
    """Framed-corrected HOMFLY polynomial of the closed braid, unknot = 1."""
    if n < 1:
        raise ValueError("need at least one strand")
    num, m = _homfly_moved(n, check_word(n, word))
    return Scalar(num, _grade_weights(m)[0])


def _cancel(word: list[int]) -> list[int]:
    """The word with adjacent i, -i pairs cancelled, also across its two ends."""
    out: list[int] = []
    for i in word:
        if out and out[-1] == -i:
            out.pop()
        else:
            out.append(i)
    lo, hi = 0, len(out)
    while hi - lo >= 2 and out[lo] == -out[hi - 1]:
        lo, hi = lo + 1, hi - 1
    return out[lo:hi]


def _homfly_moved(n: int, word: list[int]) -> tuple[IntLaurent, int]:
    """homfly of a checked word as (N, m), unreduced N over z^m, after the Markov moves run out."""
    while n > 1:
        word = _cancel(word)
        counts = [0] * n
        for i in word:
            counts[abs(i)] += 1
        if 0 in counts[1:]:
            k = counts.index(0, 1)
            left = [i for i in word if abs(i) < k]
            right = [i - k if i > 0 else i + k for i in word if abs(i) > k]
            (nl, ml), (nr, mr) = _homfly_moved(k, left), _homfly_moved(n - k, right)
            return _DELTA_NUM * nl * nr, 1 + ml + mr
        if counts[n - 1] != 1:
            if counts[1] != 1:
                writhe = sum(1 if i > 0 else -1 for i in word)
                if writhe >= 0:
                    # a braid word's element has denominator 1
                    return _loop_num(word_elt(n, word), 1, writhe)
                # the mirror image has fewer negative letters, each of
                # which adds terms; mirror(z) = -z, and delta is fixed
                num, m = _loop_num(word_elt(n, [-i for i in word]), 1, -writhe)
                return num.mirror().int_mul((-1) ** m), m
            word = [n - i if i > 0 else -n - i for i in word]
        del word[next(p for p, i in enumerate(word) if abs(i) == n - 1)]
        n -= 1
    return _ONE_POLY, 0
