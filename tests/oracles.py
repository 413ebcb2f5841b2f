"""Independent oracles used by the test suite.

Symmetric functions are evaluated at concrete rational points straight from
their textbook definitions (multiset sums, subset sums, power sums, and the
bialternant ratio for Schur functions), entirely in Fraction arithmetic.
These never touch the package's h-monomial machinery, so agreement is a
genuine cross-check rather than a tautology.

The Markov trace oracle is the slow route to the trace: one Scalar per
basis braid and one Scalar sum per term, never HeckeElt.pair.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement, permutations

from heckeskein.coeff import Scalar, delta, v_pow
from heckeskein.hecke import HeckeElt
from heckeskein.perm import Perm, coset_decompose


def h_value(k: int, xs: list[Fraction]) -> Fraction:
    """Complete homogeneous: sum over degree-k multisets of the variables."""
    if k == 0:
        return Fraction(1)
    total = Fraction(0)
    for combo in combinations_with_replacement(xs, k):
        prod = Fraction(1)
        for x in combo:
            prod *= x
        total += prod
    return total


def e_value(k: int, xs: list[Fraction]) -> Fraction:
    """Elementary: sum over degree-k subsets."""
    if k == 0:
        return Fraction(1)
    total = Fraction(0)
    for combo in combinations(xs, k):
        prod = Fraction(1)
        for x in combo:
            prod *= x
        total += prod
    return total


def p_value(m: int, xs: list[Fraction]) -> Fraction:
    return sum((x ** m for x in xs), Fraction(0))


def _det(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    total = Fraction(0)
    for sigma in permutations(range(n)):
        sign = _parity(sigma)
        prod = Fraction(1)
        for i in range(n):
            prod *= rows[i][sigma[i]]
        total += sign * prod
    return total


def _parity(sigma) -> int:
    sign = 1
    seen = [False] * len(sigma)
    for i in range(len(sigma)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def schur_value(lam: tuple[int, ...], xs: list[Fraction]) -> Fraction:
    """Bialternant: det(x_i^(lam_j + N - j)) / det(x_i^(N - j))."""
    n = len(xs)
    padded = list(lam) + [0] * (n - len(lam))
    num = _det([[x ** (padded[j] + n - 1 - j) for j in range(n)] for x in xs])
    den = _det([[x ** (n - 1 - j) for j in range(n)] for x in xs])
    return num / den


def symfunc_value(f, xs: list[Fraction], v0, s0) -> Fraction:
    """Evaluate an h-basis SymFunc at variables xs and parameters (v0, s0)."""
    total = Fraction(0)
    for parts, coeff in f.terms.items():
        val = coeff.eval_rational(v0, s0)
        for k in parts:
            val *= h_value(k, xs)
        total += val
    return total


def markov_trace(x: HeckeElt) -> Scalar:
    """The framed Markov trace, summed term by term in Scalars."""
    out = Scalar.from_int(0)
    for p, c in x.terms.items():
        out = out + c * basis_trace(p.images)
    return out


@cache
def basis_trace(images: tuple[int, ...]) -> Scalar:
    """Trace of w_pi by the descending coset normal form.

    A top strand that pi fixes closes into a free loop (factor delta); else
    w_pi = w_u sigma_{n-1} (sigma_{n-2}...sigma_k), and closing the top
    strand through the single sigma_{n-1} gives a curl (factor v^-1).
    """
    if not images:
        return Scalar.from_int(1)
    n = len(images)
    u, k = coset_decompose(Perm(images))
    if k is None:
        return delta() * basis_trace(u.images)
    tail = HeckeElt.basis(u).rmul_word(range(n - 2, k - 1, -1))
    return v_pow(-1) * markov_trace(tail)
