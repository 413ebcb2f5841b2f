"""The positive annulus skein as a ring of symmetric functions.

Elements are Scalar-linear combinations of monomials h_lambda in the
closure-of-row-idempotent generators h_1, h_2, ...; a monomial is indexed by
the partition of its factors, and products just merge partitions.  Schur
functions enter through the Jacobi-Trudi determinant, power sums through
Newton's identity m h_m = P_1 h_{m-1} + ... + P_m h_0, which holds for the
P_m of log H(t) = sum_m P_m t^m / m with H(t) = 1 + h_1 t + h_2 t^2 + ...,
and the elementary functions as the Jacobi-Trudi column e_k = s_(1^k), so that
E(-t)H(t) = 1 is a theorem about them, not their definition.  All
conversions are exact.

The closed-braid elements A_m come straight from the generating-function
identity A(t) = H(st)E(-s^{-1}t).
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping

from .coeff import Scalar, add_term, memo, s_pow, z
from .perm import cycle_type
from .series import TruncSeries

Partition = tuple[int, ...]


def check_partition(parts) -> Partition:
    t = tuple(int(x) for x in parts)
    if any(x <= 0 for x in t):
        raise ValueError(f"partition parts must be positive: {t}")
    if any(t[i] < t[i + 1] for i in range(len(t) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {t}")
    return t


class SymFunc:
    """Symmetric function over Scalar, stored in the h-monomial basis."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Partition, Scalar] | None = None):
        self.terms: dict[Partition, Scalar] = {}
        if terms:
            for p, c in terms.items():
                if not c.is_zero():
                    self.terms[check_partition(p)] = c

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def zero() -> SymFunc:
        return SymFunc()

    @staticmethod
    def one() -> SymFunc:
        out = SymFunc()
        out.terms[()] = Scalar.from_int(1)
        return out

    @staticmethod
    def h_monomial(parts, c: Scalar | None = None) -> SymFunc:
        out = SymFunc()
        coeff = Scalar.from_int(1) if c is None else c
        if not coeff.is_zero():
            out.terms[check_partition(tuple(sorted(parts, reverse=True)))] = coeff
        return out

    # -- coefficient-algebra protocol ------------------------------------------------

    def zero_like(self) -> SymFunc:
        return SymFunc()

    def one_like(self) -> SymFunc:
        return SymFunc.one()

    def scale(self, c: Scalar) -> SymFunc:
        out = SymFunc()
        if c.is_zero():
            return out
        for p, k in self.terms.items():
            v = k * c
            if not v.is_zero():
                out.terms[p] = v
        return out

    # -- ring structure ------------------------------------------------------------------

    def __add__(self, other: SymFunc) -> SymFunc:
        out = SymFunc()
        out.terms = dict(self.terms)
        for p, c in other.terms.items():
            add_term(out.terms, p, c)
        return out

    def __neg__(self) -> SymFunc:
        out = SymFunc()
        out.terms = {p: -c for p, c in self.terms.items()}
        return out

    def __sub__(self, other: SymFunc) -> SymFunc:
        return self + (-other)

    def __mul__(self, other: SymFunc) -> SymFunc:
        out = SymFunc()
        for p1, c1 in self.terms.items():
            for p2, c2 in other.terms.items():
                add_term(out.terms, tuple(sorted(p1 + p2, reverse=True)), c1 * c2)
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, SymFunc) and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    # -- extra structure ----------------------------------------------------------------------

    def mirror(self) -> SymFunc:
        """Mirror map: the h generators are fixed, coefficients mirrored."""
        out = SymFunc()
        for p, c in self.terms.items():
            out.terms[p] = c.mirror()
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "SymFunc(0)"
        body = " + ".join(f"({c!r})*h{list(p)}" for p, c in sorted(self.terms.items()))
        return f"SymFunc({body})"


def basis_json(basis: str, rows: Mapping[Partition, Scalar]) -> dict:
    """JSON form of the expansion sum rows[lambda] b_lambda in a named basis."""
    return {
        "basis": basis,
        "terms": [
            {"partition": list(p), "coeff": c.to_json()}
            for p, c in sorted(rows.items())
        ],
    }


def complete(k: int) -> SymFunc:
    """The generator h_k (h_0 = 1)."""
    if k < 0:
        raise ValueError("h_k needs k >= 0")
    return SymFunc.one() if k == 0 else SymFunc.h_monomial((k,))


# ---------------------------------------------------------------------------
# Changes of basis.  The Schur and power-sum bases are triangular to the
# h-monomials: basis(mu) contains h_mu, and no basis element still to be
# eliminated does, so coordinates are read off one pivot at a time.
# ---------------------------------------------------------------------------


def _eliminate(f: SymFunc, basis: Callable, pivot: Callable) -> dict[Partition, Scalar]:
    """The coordinates of f in a triangular basis, by elimination in place.

    pivot(rest) names the partition mu whose h_mu no later basis element
    contains; its coordinate is rest[mu] over the h_mu coefficient of
    basis(mu), and that multiple of basis(mu) leaves the remainder.
    """
    out: dict[Partition, Scalar] = {}
    rest = dict(f.terms)
    while rest:
        mu = pivot(rest)
        terms = basis(mu).terms
        c = rest[mu] / terms[mu]
        out[mu] = c
        for key, k in terms.items():
            add_term(rest, key, -(k * c))
    return out


@memo
def _schur_terms(parts: Partition) -> tuple[tuple[Partition, int], ...]:
    """Jacobi-Trudi: det(h_{lambda_i - i + j}) expanded by Leibniz."""
    ell = len(parts)
    if ell == 0:
        return (((), 1),)
    acc: dict[Partition, int] = {}
    for sigma in itertools.permutations(range(1, ell + 1)):
        exps = []
        ok = True
        for i in range(ell):
            e = parts[i] - (i + 1) + sigma[i]
            if e < 0:
                ok = False
                break
            if e > 0:
                exps.append(e)
        if not ok:
            continue
        sign = (-1) ** (ell - len(cycle_type(sigma)))
        key = tuple(sorted(exps, reverse=True))
        acc[key] = acc.get(key, 0) + sign
    return tuple(sorted((k, v) for k, v in acc.items() if v))


def schur(parts) -> SymFunc:
    """The Schur function s_lambda in the h basis (Jacobi-Trudi)."""
    lam = check_partition(parts)
    out = SymFunc()
    for key, c in _schur_terms(lam):
        out.terms[key] = Scalar.from_int(c)
    return out


def from_schur(rows: Mapping[Partition, Scalar]) -> SymFunc:
    """sum of rows[lambda] s_lambda, accumulated in one pass in the h basis."""
    out = SymFunc()
    for lam, c in rows.items():
        for key, k in schur(lam).terms.items():
            add_term(out.terms, key, k * c)
    return out


def to_schur(f: SymFunc) -> dict[Partition, Scalar]:
    """Schur expansion of f, eliminating the lex-least h_mu of the least degree.

    Jacobi-Trudi gives s_mu = h_mu + terms lex-greater than h_mu.
    """
    return _eliminate(f, schur, lambda rest: min(rest, key=lambda p: (sum(p), p)))


# ---------------------------------------------------------------------------
# Generating series, and power sums via Newton's identity.
# ---------------------------------------------------------------------------


def complete_series(order: int) -> TruncSeries:
    """H(t) = 1 + h_1 t + h_2 t^2 + ... as a series over the annulus ring."""
    return TruncSeries([complete(k) for k in range(order + 1)])


def elementary_series(order: int) -> TruncSeries:
    """E(t) = 1 + e_1 t + e_2 t^2 + ..."""
    return TruncSeries([elementary(k) for k in range(order + 1)])


@memo
def power_sum(m: int) -> SymFunc:
    """P_m = m h_m - (P_1 h_{m-1} + ... + P_{m-1} h_1), by Newton's identity."""
    if m < 1:
        raise ValueError("power sum needs m >= 1")
    out = complete(m).scale(Scalar.from_int(m))
    for i in range(1, m):
        out = out - power_sum(i) * complete(m - i)
    return out


@memo
def elementary(k: int) -> SymFunc:
    """e_k = s_(1^k), the Jacobi-Trudi column det(h_{1 - i + j})."""
    if k < 0:
        raise ValueError("e_k needs k >= 0")
    return schur((1,) * k)


@memo
def _p_monomial(parts: Partition) -> SymFunc:
    out = SymFunc.one()
    for m in parts:
        out = out * power_sum(m)
    return out


def to_p(f: SymFunc) -> dict[Partition, Scalar]:
    """Power-sum expansion of f, eliminating the lex-greatest h_mu first.

    The lex-greatest h-monomial of the product p_mu is h_mu with coefficient
    prod(mu_i).
    """
    return _eliminate(f, _p_monomial, max)


# ---------------------------------------------------------------------------
# Closed-braid elements.
# ---------------------------------------------------------------------------


def closed_braid_A(m: int) -> SymFunc:
    """A_m: the closure of the m-braid sigma_{m-1}...sigma_1.

    Extracted from A(t) = H(st)E(-s^{-1}t) = 1 + z sum A_m t^m; the division
    by z is exact.
    """
    if m < 1:
        raise ValueError("A_m needs m >= 1")
    acc = SymFunc()
    for i in range(m + 1):
        j = m - i
        c = s_pow(i) * s_pow(-j).int_mul((-1) ** j)
        acc = acc + (complete(i) * elementary(j)).scale(c)
    return acc.scale(z().inv())
