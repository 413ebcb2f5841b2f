"""The homomorphism from the annulus ring to the centre of H_n.

On power sums the map is pinned by the telescoping identity

    psi_n(P_m) = psi_0(P_m) + (s^m - s^{-m}) v^{-m} (T(1)^m + ... + T(n)^m),

with psi_0 the plane evaluation; it extends multiplicatively over power-sum
monomials and linearly.  Everything else about the map (centrality of the
image, psi_n(h_1) = T^(n), the Murphy-series expansion of psi_n(H(t))) is a
theorem and is verified, not assumed.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .coeff import Scalar, s_pow, v_pow
from .hecke import HeckeElt, murphy_series, power_sum_T
from .repn import central_scalar, content_of, std_tableaux
from .series import TruncSeries
from .symfun import (
    SymFunc,
    check_partition,
    complete,
    elementary,
    power_sum,
    schur,
    to_p,
)
from .trace import ev_sym


@lru_cache(maxsize=256)
def _psi_power(n: int, m: int) -> HeckeElt:
    """psi_n(P_m) in H_n."""
    base = HeckeElt.scalar(n, ev_sym(power_sum(m)))
    if n == 0:
        return base
    factor = (s_pow(m) - s_pow(-m)) * v_pow(-m)
    return base + power_sum_T(m, n).scale(factor)


def psi(n: int, f: SymFunc) -> HeckeElt:
    """Image of f in the centre of H_n."""
    out = HeckeElt(n)
    for parts, c in to_p(f).items():
        term = HeckeElt.scalar(n, c)
        for m in parts:
            term = term * _psi_power(n, m)
        out = out + term
    return out


def psi_series(n: int, f: TruncSeries) -> TruncSeries:
    """Apply psi coefficientwise to a series over the annulus ring."""
    return TruncSeries([psi(n, c) for c in f.coeffs])


def verify_murphy_series(n: int, order: int) -> tuple[bool, dict]:
    """Check psi_n(H(t)) = psi_0(H(t)) * HM(sv^{-1}t) / HM(s^{-1}v^{-1}t).

    Both sides are expanded as truncated series over H_n; the report item
    for each degree records exact equality of the coefficients.
    """
    lhs = TruncSeries([psi(n, complete(k)) for k in range(order + 1)])
    psi0 = TruncSeries(
        [HeckeElt.scalar(n, ev_sym(complete(k))) for k in range(order + 1)]
    )
    hm = murphy_series(n, order)
    sv = s_pow(1) * v_pow(-1)
    s1v = s_pow(-1) * v_pow(-1)
    rhs = psi0 * hm.scale_t(sv) * hm.scale_t(s1v).inverse()
    per_degree = [lhs.coeffs[k] == rhs.coeffs[k] for k in range(order + 1)]
    report = {
        "n": n,
        "order": order,
        "degree_ok": per_degree,
    }
    return all(per_degree), report


def psi_eigen_check(n: int, f: SymFunc, parts) -> bool:
    """Cross-check the eigenvalue of psi(n, f) on the shape lambda.

    The left side runs through the representation machinery; the right side
    substitutes P_m -> psi_0(P_m) + (s^m - s^{-m}) v^{-m} sum s^{2m*content}
    directly into the power-sum expansion of f.
    """
    lam = check_partition(parts)
    if sum(lam) != n:
        raise ValueError(f"|lambda| = {sum(lam)} but n = {n}")
    lhs = central_scalar(psi(n, f), lam)
    tab = std_tableaux(lam)[0]
    rhs = Scalar.from_int(0)
    for p, c in to_p(f).items():
        val = c
        for m in p:
            csum = Scalar.from_int(0)
            for j in range(1, n + 1):
                csum = csum + s_pow(2 * m * content_of(tab, j))
            val = val * (
                ev_sym(power_sum(m)) + (s_pow(m) - s_pow(-m)) * v_pow(-m) * csum
            )
        rhs = rhs + val
    return lhs == rhs


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
        m = _FACTOR_RE.match(token)
        if m is None:
            raise ValueError(f"cannot parse element factor {token!r}")
        if m.group("int") is not None:
            out.append(("int", int(m.group("int")), 0))
        elif m.group("gen") is not None:
            k = int(m.group("deg"))
            out.append((m.group("gen"), k, k))
        else:
            parts = tuple(int(x) for x in m.group("parts").split(","))
            out.append(("s", parts, sum(parts)))
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


def parse_element(text: str) -> SymFunc:
    """Parse the CLI element grammar into an annulus-ring element.

    Factors separated by '*': integers, h<k>, e<k>, p<k>, or s(l1,l2,...).

    >>> parse_element("2*h2*p1").terms == (
    ...     complete(2) * power_sum(1)).scale(Scalar.from_int(2)).terms
    True
    """
    return build_element(parse_factors(text))
