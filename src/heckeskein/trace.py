"""Markov trace on the Hecke algebras and HOMFLY polynomials of closed braids.

The trace implements plane evaluation of a tangle's closure.  On a braid
basis element it peels off the top strand using the descending coset normal
form w_pi = w_u . sigma_{n-1} sigma_{n-2} ... sigma_k:

* if pi fixes the top strand, closing it adds a free loop: factor delta;
* otherwise the single sigma_{n-1} crossing closes into a curl: factor
  v^{-1}, and the leftover sigma_{n-2}...sigma_k gets absorbed into H_{n-1}.

Scaled by z^n these values are Laurent polynomials, cached per basis braid;
the trace of x is their pairing with x (HeckeElt.pair), divided by z^n.

The multiplicative evaluation on the annulus ring sends h_k to the trace of
the k-strand row idempotent, taken from its closed form (Aiston & Morton,
JKTR 7 (1998) 463-487) rather than from the k!-term idempotent; together
with the character closure this gives the consistency check
markov_ev = ev_sym(closure(.)).

The user-facing `homfly` rescales by the writhe and normalizes the unknot
to 1, matching published HOMFLY tables in the (v, z) conventions.
"""

from __future__ import annotations

from functools import cache

from .coeff import ONE, IntLaurent, Scalar, delta, s_pow, v_pow, z
from .hecke import HeckeElt, word_elt
from .perm import Perm, coset_decompose
from .symfun import SymFunc


# z^n tr(w_pi) is a polynomial: a free loop gives delta = (v^-1 - v)/z and
# a curl v^-1, so z^n tr = (v^-1 - v) z^{n-1} tr, resp. z v^-1 z^{n-1} tr.
_LOOP = IntLaurent({(-1, 0): 1, (1, 0): -1})
_CURL = IntLaurent({(-1, 1): 1, (-1, -1): -1})


@cache
def _trace_num(images: tuple[int, ...]) -> IntLaurent:
    """z^n times the Markov trace of w_pi in H_n, a Laurent polynomial."""
    if not images:
        return IntLaurent.from_int(1)
    n = len(images)
    u, k = coset_decompose(Perm(images))
    if k is None:
        return _LOOP * _trace_num(u.images)
    # w_pi = w_u sigma_{n-1} (sigma_{n-2}...sigma_k); closing the top
    # strand through the single sigma_{n-1} gives the curl factor.
    tail = HeckeElt.basis(u).rmul_word(range(n - 2, k - 1, -1))
    value = tail.pair(_trace_num)
    if not value.den.is_one():
        raise ArithmeticError(f"z^n trace of w{images} is not a polynomial: {value!r}")
    return _CURL * value.num


@cache
def _z_pow_inv(n: int) -> Scalar:
    return z() ** -n


def markov_ev(x: HeckeElt) -> Scalar:
    """The framed Markov trace: delta per free loop, v^{-1} per curl."""
    return x.pair(_trace_num) * _z_pow_inv(x.n)


@cache
def _h_trace(k: int) -> Scalar:
    """markov_ev(h_idem(k)) = prod over i <= k of (v^-1 s^(i-1) - v s^(1-i)) / (s^i - s^-i)."""
    if k == 0:
        return ONE
    factor = (v_pow(-1) * s_pow(k - 1) - v_pow(1) * s_pow(1 - k)) / (s_pow(k) - s_pow(-k))
    return _h_trace(k - 1) * factor


def ev_sym(f: SymFunc) -> Scalar:
    """Plane evaluation of the annulus ring: h_k -> markov_ev(h_idem(k)), in closed form."""
    out = Scalar.from_int(0)
    for parts, c in f.terms.items():
        val = c
        for k in parts:
            val = val * _h_trace(k)
        out = out + val
    return out


def homfly(n: int, word: list[int]) -> Scalar:
    """Framed-corrected HOMFLY polynomial of the closed braid, unknot = 1."""
    if n < 1:
        raise ValueError("need at least one strand")
    writhe = sum(1 if i > 0 else -1 for i in word)
    raw = markov_ev(word_elt(n, word))
    return v_pow(writhe) * raw / delta()
