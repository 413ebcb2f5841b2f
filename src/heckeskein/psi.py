"""The homomorphism from the annulus ring to the centre of H_n.

On power sums the map is pinned by the telescoping identity

    psi_n(P_m) = psi_0(P_m) + (s^m - s^{-m}) v^{-m} (T(1)^m + ... + T(n)^m),

with psi_0 the plane evaluation; it extends multiplicatively over power-sum
monomials and linearly.  Everything else about the map (centrality of the
image, psi_n(h_1) = T^(n), the Murphy-series expansion of psi_n(H(t))) is a
theorem and is verified, not assumed.

Everything here is a polynomial in the commuting Murphy braids T(j), each a
braid word of length 2(j-1), so no dense Hecke product is formed.  The image
of a power-sum monomial is built from its longest prefix and memoised,

    psi_n(p_{lambda + (m,)}) = a_m x + c_m (x T(1)^m + ... + x T(n)^m),

with x = psi_n(p_lambda), a_m = psi_0(P_m) and c_m = (s^m - s^{-m}) v^{-m}:
the words act on the numerators over x's denominator, and each step
normalises once, as does the sum over the power-sum expansion of f (one
`lincomb`).  The right side of the Murphy-series identity multiplies
the scalar series psi_0(H(t)) by one factor per j, without dense products
too: each coefficient step is one rmul_word by the word of T(j) and two
lincombs, each normalised once.
"""

from __future__ import annotations

import re

from .coeff import Scalar, memo, s_pow, v_pow
from .hecke import HeckeElt, add_power_sum_T, lincomb, murphy_series_times
from .series import TruncSeries
from .symfun import (
    SymFunc,
    complete,
    elementary,
    power_sum,
    schur,
    to_p,
)
from .trace import ev_sym


@memo
def _psi_p(n: int, parts: tuple[int, ...]) -> HeckeElt:
    """psi_n(p_parts), one Murphy power-sum step from its longest prefix.

    psi_n(p_{lambda + (m,)}) = a_m x + c_m sum_j x T(j)^m with x = psi_n(p_lambda),
    a_m = psi_0(P_m) and c_m = (s^m - s^{-m}) v^{-m}.
    """
    if not parts:
        return HeckeElt.identity(n)
    m = parts[-1]
    c_m = (s_pow(m) - s_pow(-m)) * v_pow(-m)
    return add_power_sum_T(_psi_p(n, parts[:-1]), m, ev_sym(power_sum(m)), c_m)


def psi(n: int, f: SymFunc) -> HeckeElt:
    """Image of f in the centre of H_n."""
    return lincomb(n, [(_psi_p(n, parts), c) for parts, c in to_p(f).items()])


def verify_murphy_series(n: int, order: int) -> tuple[bool, dict]:
    """Check the Murphy-series expansion of psi_n(H(t)) up to t^order:

        psi_n(H(t)) = psi_0(H(t)) prod_j (1 - s^-1 v^-1 T(j) t) / (1 - s v^-1 T(j) t).

    The left side is psi of each complete symmetric function; the right side
    multiplies the scalar series psi_0(H(t)) by the Murphy-braid factors.
    The report item for each degree records exact equality of the
    coefficients.
    """
    lhs = [psi(n, complete(k)) for k in range(order + 1)]
    psi0 = TruncSeries([ev_sym(complete(k)) for k in range(order + 1)])
    rhs = murphy_series_times(
        n, psi0, s_pow(-1) * v_pow(-1), s_pow(1) * v_pow(-1)
    ).coeffs
    per_degree = [lhs[k] == rhs[k] for k in range(order + 1)]
    report = {
        "n": n,
        "order": order,
        "degree_ok": per_degree,
    }
    return all(per_degree), report


# ---------------------------------------------------------------------------
# Element grammar: products of h<k>, e<k>, p<k>, s(l1,l2,...) and integers.
# ---------------------------------------------------------------------------

_FACTOR_RE = re.compile(
    r"""^(?:
        (?P<int>-?\d+)
      | (?P<gen>[hep])(?P<deg>\d+)
      | s\((?P<parts>\d+(?:,\d+)*)\)
    )$""",
    re.VERBOSE,
)


# (kind, argument, degree); see parse_factors
Factor = tuple[str, int | tuple[int, ...], int]

_BUILDERS = {"h": complete, "e": elementary, "p": power_sum, "s": schur}


def parse_factors(text: str) -> list[Factor]:
    """Split an element expression into factors without building any.

    Each factor is (kind, argument, degree): kind 'int', 'h', 'e', 'p' or 's';
    the argument is the integer, the index k, or the parts of s(...); the
    degree is 0, k or the sum of the parts.  Callers can bound the degree of
    the product before paying for it.

    >>> parse_factors("2*h2*s(2,1)")
    [('int', 2, 0), ('h', 2, 2), ('s', (2, 1), 3)]
    """
    out: list[Factor] = []
    for raw in text.split("*"):
        token = raw.strip()
        if not token:
            raise ValueError("empty factor in element expression")
        unparsable = ValueError(f"cannot parse element factor {token[:40]!r}")
        m = _FACTOR_RE.match(token)
        if m is None:
            raise unparsable
        try:  # int() refuses strings of more than 4300 digits
            if m.group("int") is not None:
                out.append(("int", int(m.group("int")), 0))
            elif m.group("gen") is not None:
                k = int(m.group("deg"))
                out.append((m.group("gen"), k, k))
            else:
                parts = tuple(int(x) for x in m.group("parts").split(","))
                out.append(("s", parts, sum(parts)))
        except ValueError:
            raise unparsable from None
    return out


def build_element(factors: list[Factor]) -> SymFunc:
    """The product of factors from parse_factors, as an annulus-ring element."""
    out = SymFunc.one()
    for kind, arg, _ in factors:
        if kind == "int":
            out = out.scale(Scalar.from_int(arg))
        else:
            out = out * _BUILDERS[kind](arg)
    return out
