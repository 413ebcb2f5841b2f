"""Truncated formal power series in t over a commutative coefficient algebra.

The same engine serves three coefficient algebras: plain scalars, symmetric
functions of the annulus, and central elements of a Hecke algebra.  A
coefficient object only needs `+`, `-`, `*` against its own kind, a
`scale(Scalar)` action, and `zero_like()` / `one_like()` factories; all of
the supported algebras are defined over the fraction field, so dividing a
coefficient by a positive integer (needed by log) is `scale(1/m)`.

All arithmetic is exact modulo t^(order+1); binary operations truncate to
the smaller order.
"""

from __future__ import annotations

from typing import Sequence

from .coeff import Scalar


class TruncSeries:
    """c_0 + c_1 t + ... + c_N t^N, exact modulo t^(N+1)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence, order: int | None = None):
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("need at least the constant coefficient")
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            zero = coeffs[0].zero_like()
            coeffs = coeffs[: order + 1] + [zero] * (order + 1 - len(coeffs))
        self.coeffs = tuple(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int):
        return self.coeffs[k]

    def __eq__(self, other) -> bool:
        return isinstance(other, TruncSeries) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"TruncSeries({list(self.coeffs)!r})"

    # -- helpers ---------------------------------------------------------------

    def _zero(self):
        return self.coeffs[0].zero_like()

    def _one(self):
        return self.coeffs[0].one_like()

    @staticmethod
    def constant(c, order: int) -> TruncSeries:
        return TruncSeries([c], order)

    @staticmethod
    def one(sample, order: int) -> TruncSeries:
        """The series 1, in the algebra of the sample element."""
        return TruncSeries([sample.one_like()], order)

    def _check_algebra(self, other: TruncSeries):
        if type(self.coeffs[0]) is not type(other.coeffs[0]):
            raise ValueError(
                "coefficient algebra mismatch: "
                f"{type(self.coeffs[0]).__name__} vs {type(other.coeffs[0]).__name__}"
            )

    # -- ring structure -----------------------------------------------------------

    def __add__(self, other: TruncSeries) -> TruncSeries:
        self._check_algebra(other)
        n = min(self.order, other.order)
        return TruncSeries([self.coeffs[k] + other.coeffs[k] for k in range(n + 1)])

    def __sub__(self, other: TruncSeries) -> TruncSeries:
        self._check_algebra(other)
        n = min(self.order, other.order)
        return TruncSeries([self.coeffs[k] - other.coeffs[k] for k in range(n + 1)])

    def __neg__(self) -> TruncSeries:
        return TruncSeries([-c for c in self.coeffs])

    def __mul__(self, other: TruncSeries) -> TruncSeries:
        self._check_algebra(other)
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        out = []
        for k in range(n + 1):
            acc = a[0] * b[k]
            for i in range(1, k + 1):
                acc = acc + a[i] * b[k - i]
            out.append(acc)
        return TruncSeries(out)

    def inverse(self) -> TruncSeries:
        """Multiplicative inverse; needs an invertible constant term."""
        c0 = self.coeffs[0]
        one = self._one()
        if isinstance(c0, Scalar):
            if c0.is_zero():
                raise ZeroDivisionError("constant term is zero")
            inv0 = c0.inv()
        elif c0 == one:
            inv0 = one
        else:
            raise ValueError("constant term is not invertible")
        out = [inv0]
        for k in range(1, self.order + 1):
            acc = self.coeffs[1] * out[k - 1]
            for i in range(2, k + 1):
                acc = acc + self.coeffs[i] * out[k - i]
            out.append(-(inv0 * acc))
        return TruncSeries(out)

    # -- log ------------------------------------------------------------------

    def log(self) -> TruncSeries:
        """log of a series with constant term 1."""
        one = self._one()
        if self.coeffs[0] != one:
            raise ValueError("log needs constant term 1")
        n = self.order
        u = self - TruncSeries.constant(one, n)  # no constant term
        out = TruncSeries.constant(self._zero(), n)
        power = TruncSeries.constant(one, n)
        sign = 1
        for m in range(1, n + 1):
            power = power * u
            c = Scalar.from_fraction(sign, m)
            out = out + TruncSeries([x.scale(c) for x in power.coeffs])
            sign = -sign
        return out

    # -- substitution t -> c t ---------------------------------------------------------

    def scale_t(self, c: Scalar) -> TruncSeries:
        out = []
        power = None
        for k, coef in enumerate(self.coeffs):
            if k == 0:
                out.append(coef)
                power = c
            else:
                out.append(coef.scale(power))
                power = power * c
        return TruncSeries(out)


def geometric(c, order: int) -> TruncSeries:
    """1/(1 - c t) as a truncated series over c's algebra."""
    one = c.one_like()
    out = [one]
    for _ in range(order):
        out.append(out[-1] * c)
    return TruncSeries(out)
