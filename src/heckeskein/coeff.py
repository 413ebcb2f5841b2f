"""Exact arithmetic in the coefficient ring: rational functions in v and s.

The ground ring is Z[v^{±1}, s^{±1}] together with the inverses of the
denominators that show up in idempotent computations (powers of s^k - s^{-k}
and friends).  Rather than track a specific localization we work in the full
fraction field of the Laurent ring: every scalar is a quotient of two integer
Laurent polynomials, kept in a canonical reduced form so that equality is
plain structural equality.

Canonical form of a quotient num/den:

* num and den share no non-unit polynomial factor,
* den is a genuine polynomial (no negative exponents) with no monomial
  factor v or s left in it,
* the lexicographically greatest term of den (by (e_v, e_s)) has positive
  coefficient.

>>> z() * delta() == v_pow(-1) - v_pow(1)
True
>>> quantum_int(2)
Scalar('s + s^-1')
>>> (s_pow(1) * s_pow(-1)).is_one()
True
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

ExpPair = tuple[int, int]  # (e_v, e_s)


class IntLaurent:
    """Integer Laurent polynomial in v and s, as a sparse term map.

    Terms map (e_v, e_s) -> nonzero int.  The zero polynomial has an empty
    map.  Instances are immutable; all arithmetic returns new objects.
    """

    __slots__ = ("terms", "_key")

    def __init__(self, terms: dict[ExpPair, int] | None = None):
        if terms:
            self.terms = {e: c for e, c in terms.items() if c}
        else:
            self.terms = {}
        self._key: tuple | None = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_int(c: int) -> IntLaurent:
        return IntLaurent({(0, 0): c} if c else {})

    @staticmethod
    def monomial(c: int, e_v: int, e_s: int) -> IntLaurent:
        return IntLaurent({(e_v, e_s): c} if c else {})

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0, 0): 1}

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def key(self) -> tuple:
        """Sorted term tuple; used for caching and ordering."""
        if self._key is None:
            self._key = tuple(sorted(self.terms.items()))
        return self._key

    # -- ring operations --------------------------------------------------------

    def __add__(self, other: IntLaurent) -> IntLaurent:
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for e, c in other.terms.items():
            nc = out.get(e, 0) + c
            if nc:
                out[e] = nc
            else:
                del out[e]
        res = IntLaurent.__new__(IntLaurent)
        res.terms = out
        res._key = None
        return res

    def __neg__(self) -> IntLaurent:
        res = IntLaurent.__new__(IntLaurent)
        res.terms = {e: -c for e, c in self.terms.items()}
        res._key = None
        return res

    def __sub__(self, other: IntLaurent) -> IntLaurent:
        return self + (-other)

    def __mul__(self, other: IntLaurent) -> IntLaurent:
        if not self.terms or not other.terms:
            return _L_ZERO
        if len(other.terms) == 1:
            ((ev, es), c), = other.terms.items()
            if (ev, es) == (0, 0) and c == 1:
                return self
            res = IntLaurent.__new__(IntLaurent)
            res.terms = {(a + ev, b + es): k * c for (a, b), k in self.terms.items()}
            res._key = None
            return res
        if len(self.terms) == 1:
            return other * self
        out: dict[ExpPair, int] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                e = (a1 + a2, b1 + b2)
                nc = out.get(e, 0) + c1 * c2
                if nc:
                    out[e] = nc
                elif e in out:
                    del out[e]
        res = IntLaurent.__new__(IntLaurent)
        res.terms = out
        res._key = None
        return res

    def int_mul(self, c: int) -> IntLaurent:
        if c == 0:
            return _L_ZERO
        if c == 1:
            return self
        res = IntLaurent.__new__(IntLaurent)
        res.terms = {e: k * c for e, k in self.terms.items()}
        res._key = None
        return res

    def shift(self, e_v: int, e_s: int) -> IntLaurent:
        """Multiply by the monomial v^e_v s^e_s."""
        if e_v == 0 and e_s == 0:
            return self
        res = IntLaurent.__new__(IntLaurent)
        res.terms = {(a + e_v, b + e_s): c for (a, b), c in self.terms.items()}
        res._key = None
        return res

    def __eq__(self, other) -> bool:
        return isinstance(other, IntLaurent) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.key())

    # -- structure -----------------------------------------------------------

    def min_exponents(self) -> ExpPair:
        evs = [e[0] for e in self.terms]
        ess = [e[1] for e in self.terms]
        return (min(evs), min(ess))

    def lex_leading(self) -> tuple[ExpPair, int]:
        e = max(self.terms)
        return e, self.terms[e]

    def int_content(self) -> int:
        g = 0
        for c in self.terms.values():
            g = math.gcd(g, c)
            if g == 1:
                return 1
        return g

    def uses_v(self) -> bool:
        return any(e[0] for e in self.terms)

    def uses_s(self) -> bool:
        return any(e[1] for e in self.terms)

    def mirror(self) -> IntLaurent:
        """Substitute v -> v^{-1}, s -> s^{-1}."""
        res = IntLaurent.__new__(IntLaurent)
        res.terms = {(-a, -b): c for (a, b), c in self.terms.items()}
        res._key = None
        return res

    def eval_fraction(self, v0: Fraction, s0: Fraction) -> Fraction:
        total = Fraction(0)
        for (a, b), c in self.terms.items():
            total += c * v0 ** a * s0 ** b
        return total

    # -- display ---------------------------------------------------------------

    def __repr__(self) -> str:
        return f"IntLaurent('{_fmt_poly(self)}')"


_L_ZERO = IntLaurent()
_L_ONE = IntLaurent.from_int(1)


def _fmt_poly(p: IntLaurent) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for (a, b), c in sorted(p.terms.items(), reverse=True):
        mono = []
        if a:
            mono.append("v" if a == 1 else f"v^{a}")
        if b:
            mono.append("s" if b == 1 else f"s^{b}")
        body = "*".join(mono)
        if not body:
            body = str(abs(c))
        elif abs(c) != 1:
            body = f"{abs(c)}*{body}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# Polynomial gcd machinery.
#
# Laurent monomials are units, so gcds are computed on the polynomial parts
# after stripping monomial content.  If one input lies in Z[s], so does every
# common factor, and the gcd is a fold of univariate gcds of that input with
# the other input's v-coefficients, each in Z[s]; likewise with v and s
# swapped.  Every denominator the library builds (quantum integers, z, the
# seminormal factors 1 - s^{-2d}) lies in Z[s], so the fold is the common
# path.  Its univariate gcd, _dense_gcd, is the subresultant polynomial
# remainder sequence (PRS) over Z on dense int lists (index = exponent).
# Only two inputs that each use both variables reach _prs_gcd, a primitive
# PRS in s over Z[v] on IntLaurent values, whose Z[v] contents are folds of
# _dense_gcd.
# ---------------------------------------------------------------------------


def _trim(p: list[int]) -> list[int]:
    while p and not p[-1]:
        p.pop()
    return p


def _exact(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("inexact coefficient division")
    return q


def _primitive(p: list[int]) -> list[int]:
    c = math.gcd(*p)
    return p if c == 1 else [x // c for x in p]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder lc(b)^{deg a - deg b + 1} * a mod b.

    One step per degree of a from deg a down to deg b, so the power of
    lc(b) is exact even where the remainder's degree drops by more than one.
    """
    lb, db = b[-1], len(b) - 1
    r = list(a)
    for k in range(len(a) - 1, db - 1, -1):
        lr = r.pop()
        r = [lb * c for c in r]
        if lr:
            off = k - db
            for j in range(db):
                r[off + j] -= lr * b[j]
    return _trim(r)


def _subresultant_prs(a: list[int], b: list[int]) -> list[int]:
    """Last nonzero member of the subresultant PRS of a and b (deg a >= deg b)."""
    g = h = 1
    while len(b) > 1:
        d = len(a) - len(b)
        r = _pseudo_rem(a, b)
        if not r:
            break
        divisor = g * h ** d
        a, b = b, [_exact(c, divisor) for c in r]
        g = a[-1]
        if d:
            h = _exact(g ** d, h ** (d - 1))
    return b


def _dense_gcd(a: list[int], b: list[int]) -> list[int]:
    """Gcd over Z of two nonzero dense polynomials; its lead is positive."""
    cg = math.gcd(math.gcd(*a), math.gcd(*b))
    a, b = _primitive(a), _primitive(b)
    b = _subresultant_prs(a, b) if len(a) >= len(b) else _subresultant_prs(b, a)
    if len(b) == 1:
        return [cg]
    c = math.gcd(*b)
    if b[-1] < 0:
        c = -c
    return [cg * (x // c) for x in b]


def _fold_gcd(r: list[int], slices: list[list[int]]) -> list[int]:
    """Gcd of r and every slice, stopping once it reaches 1."""
    for c in slices:
        r = _dense_gcd(r, c)
        if r == [1]:
            break
    return r


def _from_dense(p: list[int], in_s: bool) -> IntLaurent:
    """Dense coefficients of a polynomial in s (in_s) or in v -> IntLaurent."""
    return IntLaurent({((0, i) if in_s else (i, 0)): c for i, c in enumerate(p) if c})


def _s_deg(p: IntLaurent) -> int:
    return max(e[1] for e in p.terms)


def _s_coeff(p: IntLaurent, k: int) -> IntLaurent:
    """The coefficient of s^k in p, an element of Z[v^{±1}]."""
    return IntLaurent({(a, 0): c for (a, b), c in p.terms.items() if b == k})


def _v_primitive(p: IntLaurent) -> tuple[list[int], IntLaurent]:
    """Content of p in Z[v] up to a unit, and its primitive part.

    The content is a dense list in v; the primitive part has no monomial factor.
    """
    first, *rest = _slices(p, False)
    cont = _fold_gcd(first, rest)
    return cont, _strip_monomial(laurent_divexact(p, _from_dense(cont, False)))


def _s_pseudo_rem(a: IntLaurent, b: IntLaurent) -> IntLaurent:
    """Pseudo-remainder of a by b as polynomials in s over Z[v]."""
    db = _s_deg(b)
    lb = _s_coeff(b, db)
    r = a
    for k in range(_s_deg(a), db - 1, -1):
        r = r * lb - (_s_coeff(r, k) * b).shift(0, k - db)
    return r


def _prs_gcd(f: IntLaurent, g: IntLaurent) -> IntLaurent:
    """Gcd of two nonzero stripped polynomials by a primitive PRS in s over Z[v].

    Either input may lie in one variable; the result is canonical as in
    poly_gcd.  Each primitive part has no monomial factor, so it is prime to
    s, and stripping the monomial factor of a remainder keeps the gcd.
    """
    cf, a = _v_primitive(f)
    cg, b = _v_primitive(g)
    if _s_deg(a) < _s_deg(b):
        a, b = b, a
    while _s_deg(b):
        r = _s_pseudo_rem(a, b)
        if r.is_zero():
            break
        a, b = b, _v_primitive(r)[1]
    # b is the primitive gcd, or a unit once its degree in s reaches 0
    return canon_poly_part(_from_dense(_dense_gcd(cf, cg), False) * b)


def poly_gcd(f: IntLaurent, g: IntLaurent) -> IntLaurent:
    """Gcd of the polynomial parts of two Laurent polynomials.

    Monomial (unit) factors are ignored.  The result is a genuine polynomial
    with no monomial factor and positive lex-leading coefficient; it is 1
    exactly when f and g are coprime up to units.
    """
    if f.is_zero():
        return canon_poly_part(g)
    if g.is_zero():
        return canon_poly_part(f)
    f0 = _strip_monomial(f)
    g0 = _strip_monomial(g)
    cf = math.gcd(f0.int_content(), g0.int_content())
    if f0.is_monomial() or g0.is_monomial():
        # constant after stripping: only integer content can be shared
        return IntLaurent.from_int(cf)
    fv, fs = f0.uses_v(), f0.uses_s()
    gv, gs = g0.uses_v(), g0.uses_s()
    if fv and fs and gv and gs:
        return _prs_gcd(f0, g0)
    # one input lies in one variable (in_s: it lies in Z[s]); fold over the
    # other input's coefficients.  A stripped input in one variable is its
    # own only slice.
    if not (fv and fs):
        uni, other, in_s = f0, g0, not fv
    else:
        uni, other, in_s = g0, f0, not gv
    (r,) = _slices(uni, in_s)
    return _from_dense(_fold_gcd(r, _slices(other, in_s)), in_s)


def _slices(p: IntLaurent, in_s: bool) -> list[list[int]]:
    """Coefficients of p in Z[s] (in_s) or Z[v], as dense lists.

    Each slice drops its lowest power of the main variable.  That keeps the
    fold in poly_gcd exact, as its running gcd divides a stripped input and
    so is prime to that variable, and changes a content only by a unit.
    """
    rows: dict[int, dict[int, int]] = {}
    for (a, b), c in p.terms.items():
        if in_s:
            rows.setdefault(a, {})[b] = c
        else:
            rows.setdefault(b, {})[a] = c
    out = []
    for row in rows.values():
        lo = min(row)
        dense = [0] * (max(row) - lo + 1)
        for e, c in row.items():
            dense[e - lo] = c
        out.append(dense)
    return out


def _strip_monomial(p: IntLaurent) -> IntLaurent:
    mv, ms = p.min_exponents()
    return p.shift(-mv, -ms) if (mv or ms) else p


def canon_poly_part(p: IntLaurent) -> IntLaurent:
    """Strip the monomial factor and sign-normalize; 0 stays 0."""
    if p.is_zero():
        return p
    q = _strip_monomial(p)
    if q.lex_leading()[1] < 0:
        q = -q
    return q


def laurent_divexact(f: IntLaurent, g: IntLaurent) -> IntLaurent:
    """Exact division f/g in the Laurent ring; raises if not exact."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if f.is_zero():
        return _L_ZERO
    if g.is_monomial():
        ((a, b), c), = g.terms.items()
        if c in (1, -1):
            return f.shift(-a, -b).int_mul(c)
        out = {}
        for (ev, es), k in f.terms.items():
            q, r = divmod(k, c)
            if r:
                raise ArithmeticError("inexact division")
            out[(ev - a, es - b)] = q
        return IntLaurent(out)
    rem = dict(f.terms)
    (ga, gb), gc = g.lex_leading()
    quot: dict[ExpPair, int] = {}
    guard = len(f.terms) * len(g.terms) + len(f.terms) + len(g.terms) + 1000
    while rem:
        guard -= 1
        if guard < 0:
            raise ArithmeticError("inexact division")
        (fa, fb) = max(rem)
        fc = rem[(fa, fb)]
        q, r = divmod(fc, gc)
        if r:
            raise ArithmeticError("inexact division")
        e = (fa - ga, fb - gb)
        quot[e] = quot.get(e, 0) + q
        for (ta, tb), tc in g.terms.items():
            key = (ta + e[0], tb + e[1])
            nc = rem.get(key, 0) - q * tc
            if nc:
                rem[key] = nc
            else:
                rem.pop(key, None)
    return IntLaurent(quot)


@lru_cache(maxsize=1 << 16)
def _gcd_cached(f: IntLaurent, g: IntLaurent) -> IntLaurent:
    return poly_gcd(f, g)


# ---------------------------------------------------------------------------
# Scalars: canonical fractions of Laurent polynomials.
# ---------------------------------------------------------------------------


class Scalar:
    """Element of the fraction field of Z[v^{±1}, s^{±1}], in canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num: IntLaurent, den: IntLaurent):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        num, den = _reduce(num, den)
        self.num = num
        self.den = den

    # Internal: build without reduction when num/den already canonical.
    @staticmethod
    def _raw(num: IntLaurent, den: IntLaurent) -> Scalar:
        obj = Scalar.__new__(Scalar)
        obj.num = num
        obj.den = den
        return obj

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_int(c: int) -> Scalar:
        return Scalar._raw(IntLaurent.from_int(c), _L_ONE)

    @staticmethod
    def from_fraction(p: int, q: int) -> Scalar:
        return Scalar(IntLaurent.from_int(p), IntLaurent.from_int(q))

    @staticmethod
    def monomial(c: int, e_v: int, e_s: int) -> Scalar:
        return Scalar._raw(IntLaurent.monomial(c, e_v, e_s), _L_ONE)

    # -- predicates -------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Scalar)
            and self.num.terms == other.num.terms
            and self.den.terms == other.den.terms
        )

    def __hash__(self) -> int:
        return hash((self.num.key(), self.den.key()))

    # -- field operations --------------------------------------------------------

    def __add__(self, other: Scalar) -> Scalar:
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        b, d = self.den, other.den
        if b.terms == d.terms:
            t = self.num + other.num
            if t.is_zero():
                return ZERO
            if b.is_one():
                return Scalar._raw(t, b)
            g1 = _gcd_cached(t, b)
            if g1.is_one():
                return Scalar._raw(t, b)
            return Scalar(laurent_divexact(t, g1), laurent_divexact(b, g1))
        g0 = _L_ONE if (b.is_one() or d.is_one()) else _gcd_cached(b, d)
        if g0.is_one():
            t = self.num * d + other.num * b
            if t.is_zero():
                return ZERO
            return _normalize_coprime(t, b * d)
        b1 = laurent_divexact(b, g0)
        d1 = laurent_divexact(d, g0)
        t = self.num * d1 + other.num * b1
        if t.is_zero():
            return ZERO
        g1 = _gcd_cached(t, g0)
        if g1.is_one():
            return _normalize_coprime(t, b1 * d)
        return Scalar(
            laurent_divexact(t, g1),
            laurent_divexact(b, g1) * d1,
        )

    def __neg__(self) -> Scalar:
        return Scalar._raw(-self.num, self.den)

    def __sub__(self, other: Scalar) -> Scalar:
        return self + (-other)

    def __mul__(self, other: Scalar) -> Scalar:
        if self.num.is_zero() or other.num.is_zero():
            return ZERO
        a, b = self.num, self.den
        c, d = other.num, other.den
        if b.is_one() and d.is_one():
            return Scalar(a * c, _L_ONE)
        g1 = _L_ONE if d.is_one() else _gcd_cached(a, d)
        g2 = _L_ONE if b.is_one() else _gcd_cached(c, b)
        if not g1.is_one():
            a = laurent_divexact(a, g1)
            d = laurent_divexact(d, g1)
        if not g2.is_one():
            c = laurent_divexact(c, g2)
            b = laurent_divexact(b, g2)
        return _normalize_coprime(a * c, b * d)

    def inv(self) -> Scalar:
        if self.num.is_zero():
            raise ZeroDivisionError("inverting zero scalar")
        return _normalize_coprime(self.den, self.num)

    def __truediv__(self, other: Scalar) -> Scalar:
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        return self * other.inv()

    def int_mul(self, c: int) -> Scalar:
        if c == 0 or self.num.is_zero():
            return ZERO
        if c == 1:
            return self
        if self.den.is_one():
            return Scalar._raw(self.num.int_mul(c), self.den)
        return Scalar(self.num.int_mul(c), self.den)

    def __pow__(self, n: int) -> Scalar:
        if n < 0:
            return self.inv() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- coefficient-algebra protocol (shared with HeckeElt and SymFunc) -----------

    def zero_like(self) -> Scalar:
        return ZERO

    def one_like(self) -> Scalar:
        return ONE

    def scale(self, c: Scalar) -> Scalar:
        return self * c

    # -- the extra structure ------------------------------------------------------

    def mirror(self) -> Scalar:
        """Substitute v -> v^{-1}, s -> s^{-1}; an involution."""
        return Scalar(self.num.mirror(), self.den.mirror())

    def eval_rational(self, v0, s0) -> Fraction:
        """Exact value at rational (v0, s0); raises on a pole."""
        v0 = Fraction(v0)
        s0 = Fraction(s0)
        if v0 == 0 or s0 == 0:
            raise ZeroDivisionError("v and s must be nonzero")
        dval = self.den.eval_fraction(v0, s0)
        if dval == 0:
            raise ZeroDivisionError("pole at evaluation point")
        return self.num.eval_fraction(v0, s0) / dval

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {"num": _poly_json(self.num), "den": _poly_json(self.den)}

    def __repr__(self) -> str:
        if self.den.is_one():
            return f"Scalar('{_fmt_poly(self.num)}')"
        return f"Scalar('({_fmt_poly(self.num)}) / ({_fmt_poly(self.den)})')"


def _poly_json(p: IntLaurent) -> list:
    return [[a, b, str(c)] for (a, b), c in sorted(p.terms.items())]


def _reduce(num: IntLaurent, den: IntLaurent) -> tuple[IntLaurent, IntLaurent]:
    if num.is_zero():
        return _L_ZERO, _L_ONE
    if den.is_monomial():
        num, den = _divide_int_content(num, den)
    else:
        g = _gcd_cached(num, den)
        if not g.is_one():
            num = laurent_divexact(num, g)
            den = laurent_divexact(den, g)
    return _unit_normalize(num, den)


def _normalize_coprime(num: IntLaurent, den: IntLaurent) -> Scalar:
    """Normalize when num/den are known coprime up to units and contents."""
    if num.is_zero():
        return ZERO
    num, den = _unit_normalize(*_divide_int_content(num, den))
    return Scalar._raw(num, den)


def _divide_int_content(num: IntLaurent, den: IntLaurent) -> tuple[IntLaurent, IntLaurent]:
    """Divide num and den by the gcd of their integer contents."""
    g = math.gcd(num.int_content(), den.int_content())
    if g > 1:
        num = IntLaurent({e: c // g for e, c in num.terms.items()})
        den = IntLaurent({e: c // g for e, c in den.terms.items()})
    return num, den


def _unit_normalize(num: IntLaurent, den: IntLaurent) -> tuple[IntLaurent, IntLaurent]:
    mv, ms = den.min_exponents()
    if mv or ms:
        den = den.shift(-mv, -ms)
        num = num.shift(-mv, -ms)
    if den.lex_leading()[1] < 0:
        den = -den
        num = -num
    return num, den


# ---------------------------------------------------------------------------
# The standard symbols.
# ---------------------------------------------------------------------------

ZERO = Scalar.from_int(0)
ONE = Scalar.from_int(1)


def v_pow(e: int = 1) -> Scalar:
    return Scalar.monomial(1, e, 0)


def s_pow(e: int = 1) -> Scalar:
    return Scalar.monomial(1, 0, e)


def z() -> Scalar:
    """The skein parameter z = s - s^{-1}."""
    return Scalar._raw(IntLaurent({(0, 1): 1, (0, -1): -1}), _L_ONE)


def delta() -> Scalar:
    """Value of a free loop, (v^{-1} - v) / (s - s^{-1})."""
    return Scalar(
        IntLaurent({(-1, 0): 1, (1, 0): -1}),
        IntLaurent({(0, 1): 1, (0, -1): -1}),
    )


def quantum_int(n: int) -> Scalar:
    """The quantum integer [n] = s^{n-1} + s^{n-3} + ... + s^{1-n}."""
    if n <= 0:
        raise ValueError(f"quantum integer needs n >= 1, got {n}")
    return Scalar._raw(
        IntLaurent({(0, n - 1 - 2 * k): 1 for k in range(n)}), _L_ONE
    )


# ---------------------------------------------------------------------------
# Sparse accumulation.
# ---------------------------------------------------------------------------


def add_term(store: dict, key, val) -> None:
    """store[key] += val for Scalar or IntLaurent values, keeping no zeros."""
    prev = store.get(key)
    if prev is not None:
        val = prev + val
    if val.is_zero():
        store.pop(key, None)
    else:
        store[key] = val
