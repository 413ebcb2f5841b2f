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
sums the grades into one numerator over z^n den against weights in
1 - v^2 and z built once per strand count, reduced once.

The multiplicative evaluation on the annulus ring sends h_k to the trace of
the k-strand row idempotent, taken from its closed form (Aiston & Morton,
JKTR 7 (1998) 463-487) rather than from the k!-term idempotent; the terms
of a symmetric function are brought over one denominator and reduced once.
Together with the character closure this gives the consistency check
markov_ev = ev_sym(closure(.)).

The user-facing `homfly` rescales by the writhe and normalizes the unknot
to 1, matching published HOMFLY tables in the (v, z) conventions; it takes
the same sum with one factor delta divided out, again reduced once.  That
value is invariant under conjugation and stabilisation of the braid (Jones,
Ann. Math. 126 (1987) 335-388), so after checking every letter `homfly`
applies these Markov moves until none fits, and expands only what is left:

* cancel adjacent letters i, -i, also cyclically across the two ends;
* if some generator k never occurs, the closure is the split union of the
  closures on strands 1..k and k+1..n: delta P(left) P(right);
* if sigma_{n-1}^{+-1} occurs once, drop it and go to n-1 strands: a word
  a x b is conjugate to b a x, which destabilises to b a, conjugate to a b;
* if sigma_1^{+-1} occurs once, conjugate by the half twist, i -> n-i, and
  destabilise the same way.
"""

from __future__ import annotations

from .coeff import (
    ONE,
    IntLaurent,
    Scalar,
    delta,
    memo,
    mul_into,
    over_lcm,
    s_pow,
    v_pow,
    z,
)
from .hecke import HeckeElt, check_word, word_elt
from .perm import Perm, coset_decompose
from .symfun import SymFunc

_ZERO_POLY = IntLaurent()
_ONE_POLY = IntLaurent.from_int(1)
_Z = z().num
_DELTA = delta()


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
def _grade_weights(n: int, j: int) -> tuple[tuple[IntLaurent, ...], IntLaurent]:
    """The weights (1 - v^2)^(l-j) z^(n-l) of the grades l = j..n, and z^(n-j)."""
    one_minus_v2 = IntLaurent({(0, 0): 1, (2, 0): -1})
    a_pows, z_pows = [_ONE_POLY], [_ONE_POLY]
    for _ in range(j, n):
        a_pows.append(a_pows[-1] * one_minus_v2)
        z_pows.append(z_pows[-1] * _Z)
    weights = tuple(a_pows[l - j] * z_pows[n - l] for l in range(j, n + 1))
    return weights, z_pows[-1]


def _loop_sum(x: HeckeElt, j: int, t: int) -> Scalar:
    """v^t tr(x) / delta^j, for j = 0, or j = 1 on n >= 1 strands.

    With K_l the pairing of x with b_l and delta = v^{-1} (1 - v^2) / z, this
    is v^(t+j-n) sum over l >= j of K_l (1 - v^2)^(l-j) z^(n-l), over
    z^(n-j) x.den.  One pairing gives every K_l, and the sum is one integer
    accumulation against the weights of (n, j).
    """
    n = x.n
    weights, z_pow = _grade_weights(n, j)
    acc: dict[tuple[int, int], int] = {}
    for l, k in x.pair(_trace_loops).items():
        if l >= j:
            mul_into(acc, k.terms, weights[l - j].terms)
    return Scalar(IntLaurent(acc).shift(t + j - n, 0), z_pow * x.den)


def markov_ev(x: HeckeElt) -> Scalar:
    """The framed Markov trace: delta per free loop, v^{-1} per curl."""
    return _loop_sum(x, 0, 0)


@memo
def _h_trace(k: int) -> Scalar:
    """markov_ev(h_idem(k)) = prod over i <= k of (v^-1 s^(i-1) - v s^(1-i)) / (s^i - s^-i)."""
    if k == 0:
        return ONE
    factor = (v_pow(-1) * s_pow(k - 1) - v_pow(1) * s_pow(1 - k)) / (s_pow(k) - s_pow(-k))
    return _h_trace(k - 1) * factor


def ev_sym(f: SymFunc) -> Scalar:
    """Plane evaluation of the annulus ring: h_k -> markov_ev(h_idem(k)), in closed form.

    Each term c prod _h_trace(k) is one fraction; the fractions are brought
    over one lcm, their numerators added and the sum reduced once.
    """
    fracs = []
    for parts, c in f.terms.items():
        num, den = c.num, c.den
        for k in parts:
            h = _h_trace(k)
            num, den = num * h.num, den * h.den
        fracs.append((num, den))
    nums, den = over_lcm(fracs)
    return Scalar(sum(nums, _ZERO_POLY), den)


def homfly(n: int, word: list[int]) -> Scalar:
    """Framed-corrected HOMFLY polynomial of the closed braid, unknot = 1."""
    if n < 1:
        raise ValueError("need at least one strand")
    check_word(n, word)
    return _homfly_moved(n, word)


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


def _homfly_moved(n: int, word: list[int]) -> Scalar:
    """homfly of a checked word, expanded after the Markov moves run out."""
    while n > 1:
        word = _cancel(word)
        counts = [0] * n
        for i in word:
            counts[abs(i)] += 1
        if 0 in counts[1:]:
            k = counts.index(0, 1)
            left = [i for i in word if abs(i) < k]
            right = [i - k if i > 0 else i + k for i in word if abs(i) > k]
            return _DELTA * _homfly_moved(k, left) * _homfly_moved(n - k, right)
        if counts[n - 1] != 1:
            if counts[1] != 1:
                writhe = sum(1 if i > 0 else -1 for i in word)
                return _loop_sum(word_elt(n, word), 1, writhe)
            word = [n - i if i > 0 else -n - i for i in word]
        del word[next(p for p, i in enumerate(word) if abs(i) == n - 1)]
        n -= 1
    return ONE
