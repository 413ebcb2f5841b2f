"""Exact arithmetic in the coefficient ring: rational functions in v and s.

The ground ring is Z[v^{±1}, s^{±1}] together with the inverses of the
denominators that show up in idempotent computations (powers of s^k - s^{-k}
and friends).  Rather than track a specific localization we work in the full
fraction field of the Laurent ring: every scalar is a quotient of two integer
Laurent polynomials, kept in a canonical reduced form so that equality is
plain structural equality.

Canonical form of numerators over one denominator den:

* no non-unit polynomial factor of den divides every numerator,
* den is a genuine polynomial (no negative exponents) with no monomial
  factor v or s left in it,
* the lexicographically greatest term of den (by (e_v, e_s)) has positive
  coefficient.

`normal_form` is the one routine that brings numerators over a denominator
to this form, for a Scalar (one numerator) and a Hecke element (one per
basis braid) alike.  Every Scalar field operation builds its result as
Scalar(num, den), so it reduces through `normal_form` (a sum first brings
both fractions over the lcm of their denominators); a form over 1 is
canonical as it stands and `normal_form` returns it unchanged.  Every
denominator the commands build (quantum integers, the powers z^m over
which the Markov trace and homfly fall, D_m, psi's images and the
idempotents) lies in Z[s] up to a monomial, and `normal_form` reduces
those on dense coefficient rows in s; only a denominator with two powers
of v takes IntLaurent gcds and long division.  `normal_form` is the only
routine that picks between the two routes: `over_lcm` takes the canonical
lcm of several denominators and its cofactors from it.

This module also keeps the package's one memo policy: every table of
values the package caches (per basis braid, per partition, or the gcd of a
pair of dense polynomials) is a `memo`, an LRU table of MEMO_SIZE entries.

>>> z() * delta() == v_pow(-1) - v_pow(1)
True
>>> quantum_int(2)
Scalar('s + s^-1')
>>> (s_pow(1) * s_pow(-1)).is_one()
True
"""

from __future__ import annotations

import math
from functools import lru_cache

ExpPair = tuple[int, int]  # (e_v, e_s)

# The largest key space is one entry per basis braid of H_k for k <= 8, as
# in perm.word_of or repn._class_poly: sum k! = 46234.
MEMO_SIZE = 1 << 20
memo = lru_cache(maxsize=MEMO_SIZE)


class IntLaurent:
    """Integer Laurent polynomial in v and s, as a sparse term map.

    Terms map (e_v, e_s) -> nonzero int.  The zero polynomial has an empty
    map.  Instances are immutable; all arithmetic returns new objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[ExpPair, int] | None = None):
        if terms:
            self.terms = {e: c for e, c in terms.items() if c}
        else:
            self.terms = {}

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_int(c: int) -> IntLaurent:
        return IntLaurent({(0, 0): c} if c else {})

    @staticmethod
    def monomial(c: int, e_v: int, e_s: int) -> IntLaurent:
        return IntLaurent({(e_v, e_s): c} if c else {})

    @staticmethod
    def _wrap(terms: dict[ExpPair, int]) -> IntLaurent:
        """Take ``terms``, which holds no zero coefficient, without a copy."""
        res = IntLaurent.__new__(IntLaurent)
        res.terms = terms
        return res

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0, 0): 1}

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def key(self) -> tuple:
        """Sorted term tuple, the canonical form that ``__hash__`` hashes."""
        return tuple(sorted(self.terms.items()))

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
        return IntLaurent._wrap(out)

    def __neg__(self) -> IntLaurent:
        return IntLaurent._wrap({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: IntLaurent) -> IntLaurent:
        return self + (-other)

    def __mul__(self, other: IntLaurent) -> IntLaurent:
        if not self.terms or not other.terms:
            return _L_ZERO
        if len(other.terms) == 1:
            ((ev, es), c), = other.terms.items()
            if (ev, es) == (0, 0) and c == 1:
                return self
            terms = self.terms.items()
            return IntLaurent._wrap({(a + ev, b + es): k * c for (a, b), k in terms})
        if len(self.terms) == 1:
            return other * self
        acc: dict[ExpPair, int] = {}
        mul_into(acc, self.terms, other.terms)
        return IntLaurent(acc)

    def int_mul(self, c: int) -> IntLaurent:
        if c == 0:
            return _L_ZERO
        if c == 1:
            return self
        return IntLaurent._wrap({e: k * c for e, k in self.terms.items()})

    def shift(self, e_v: int, e_s: int) -> IntLaurent:
        """Multiply by the monomial v^e_v s^e_s."""
        if e_v == 0 and e_s == 0:
            return self
        return IntLaurent._wrap({(a + e_v, b + e_s): c for (a, b), c in self.terms.items()})

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
        return IntLaurent._wrap({(-a, -b): c for (a, b), c in self.terms.items()})

    # -- display ---------------------------------------------------------------

    def __repr__(self) -> str:
        return f"IntLaurent('{_fmt_poly(self)}')"


_L_ZERO = IntLaurent()
_L_ONE = IntLaurent.from_int(1)
_ONE_TERMS = _L_ONE.terms


_DECIMAL_BITS = 13000  # below CPython's 4300-digit limit on str(int)


def _decimal(c: int) -> str:
    """str(c) for an integer of any size, split in halves at a power of 10."""
    if c.bit_length() <= _DECIMAL_BITS:
        return str(c)
    if c < 0:
        return "-" + _decimal(-c)
    k = c.bit_length() * 3 // 20  # about half the decimal digits
    hi, lo = divmod(c, 10**k)
    return _decimal(hi) + _decimal(lo).zfill(k)


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
            body = _decimal(abs(c))
        elif abs(c) != 1:
            body = f"{_decimal(abs(c))}*{body}"
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
# swapped.  Every denominator the commands build lies in Z[s] up to a
# monomial, so the common path never forms an IntLaurent gcd: normal_form
# folds _dense_gcd over the numerators' s-rows through _gcd_cached, the one
# gcd table, keyed by dense coefficient tuples, and divides by the result
# with _dense_div.  poly_gcd and laurent_divexact, the IntLaurent engine,
# are entered only through _normal_form_general (and laurent_divexact also
# through _v_primitive, inside the PRS).  Both gcd paths run the primitive
# polynomial remainder sequence (PRS): make both inputs primitive, then
# replace (a, b) by (b, the primitive part of a's pseudo-remainder by b)
# until that remainder is 0 or a constant (Knuth, TAOCP vol. 2, 4.6.1).  _dense_gcd runs it over Z
# on dense int sequences (index = exponent).  Only two inputs that each use
# both variables reach _prs_gcd, which runs it in s over Z[v] on IntLaurent
# values, with Z[v] contents that are folds of _dense_gcd.  No CLI command
# reaches it (traced over verify all at n <= 5, psi, eval, characters and
# homfly); it serves library callers whose two inputs both use v and s,
# such as fractions divided by delta.
# ---------------------------------------------------------------------------


def _trim(p: list[int]) -> list[int]:
    while p and not p[-1]:
        p.pop()
    return p


def _primitive(p: list[int]) -> list[int]:
    c = math.gcd(*p)
    return p if c == 1 else [x // c for x in p]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder lc(b)^{deg a - deg b + 1} * a mod b, for deg a >= deg b.

    The PRS keeps only its primitive part, so any power of lc(b) would serve.
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


def _dense_gcd(a, b) -> list[int]:
    """Gcd over Z of two nonzero dense polynomials by the primitive PRS; lead > 0."""
    cg = math.gcd(math.gcd(*a), math.gcd(*b))
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _pseudo_rem(a, b)
        if not r:
            break
        a, b = b, _primitive(r)
    if len(b) == 1:
        return [cg]
    c = cg if b[-1] > 0 else -cg  # b is primitive: only its sign is left
    return [c * x for x in b]


@memo
def _gcd_cached(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(_dense_gcd(a, b))


_DENSE_ONE = (1,)


def _fold_gcd(r: tuple[int, ...], rows) -> tuple[int, ...]:
    """Gcd of r and the dense coefficients of every row of _rows, stopping at 1."""
    for _, _, c in rows:
        r = _gcd_cached(r, c)
        if r == _DENSE_ONE:
            break
    return r


def _dense_div(p: tuple[int, ...], g: tuple[int, ...]) -> list[int]:
    """The quotient of p by g, which divides it exactly, dense from the lowest power."""
    r = list(p)
    dg, lg = len(g) - 1, g[-1]
    q = [0] * (len(r) - dg)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + dg] // lg
        if c:
            for j in range(dg):
                r[k + j] -= c * g[j]
    return q


def _div_rows(rows, g: tuple[int, ...], a: int, lo: int, sign: int) -> IntLaurent:
    """sign v^-a s^-lo / g times the polynomial with these _rows; g divides each row."""
    return IntLaurent._wrap({
        (ev - a, e - lo + i): sign * c
        for ev, e, p in rows
        for i, c in enumerate(p if g == _DENSE_ONE else _dense_div(p, g))
        if c
    })


def _from_dense(p, in_s: bool) -> IntLaurent:
    """Dense coefficients of a polynomial in s (in_s) or in v -> IntLaurent."""
    return IntLaurent({((0, i) if in_s else (i, 0)): c for i, c in enumerate(p) if c})


def _s_deg(p: IntLaurent) -> int:
    return max(e[1] for e in p.terms)


def _s_coeff(p: IntLaurent, k: int) -> IntLaurent:
    """The coefficient of s^k in p, an element of Z[v^{±1}]."""
    return IntLaurent({(a, 0): c for (a, b), c in p.terms.items() if b == k})


def _v_primitive(p: IntLaurent) -> tuple[tuple[int, ...], IntLaurent]:
    """Content of p in Z[v] up to a unit, and its primitive part.

    The content is dense in v; the primitive part has no monomial factor.
    """
    (_, _, first), *rest = _rows(p, False)
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
    # own only row.
    if not (fv and fs):
        uni, other, in_s = f0, g0, not fv
    else:
        uni, other, in_s = g0, f0, not gv
    ((_, _, r),) = _rows(uni, in_s)
    return _from_dense(_fold_gcd(r, _rows(other, in_s)), in_s)


def _rows(p: IntLaurent, in_s: bool) -> list[tuple[int, int, tuple[int, ...]]]:
    """p's coefficients in Z[s] (in_s) or Z[v], by power of the other variable.

    A row is (that power, its lowest power lo of the main variable, its
    dense coefficients from lo up).  Dropping s^lo or v^lo keeps the fold in
    poly_gcd exact, as its running gcd divides a stripped input and so is
    prime to that variable, and changes a content only by a unit.
    """
    terms = p.terms.items()
    if not in_s:
        terms = (((b, a), c) for (a, b), c in terms)
    rows: dict[int, dict[int, int]] = {}
    for (a, b), c in terms:
        rows.setdefault(a, {})[b] = c
    out = []
    for a, row in rows.items():
        lo = min(row)
        dense = [0] * (max(row) - lo + 1)
        for e, c in row.items():
            dense[e - lo] = c
        out.append((a, lo, tuple(dense)))
    return out


def _strip_monomial(p: IntLaurent) -> IntLaurent:
    mv, ms = p.min_exponents()
    return p.shift(-mv, -ms) if (mv or ms) else p


def canon_poly_part(p: IntLaurent) -> IntLaurent:
    """Strip the monomial factor and sign-normalize; 0 stays 0."""
    return _unit({}, p)[1] if p.terms else p


def laurent_divexact(f: IntLaurent, g: IntLaurent) -> IntLaurent:
    """Exact division f/g in the Laurent ring; raises if not exact.

    Long division by g's lex-leading term.  If f = q g, every term of q has
    each exponent at least min f - min g, so a quotient term below that
    bound proves the division inexact.  The remainder's lead term falls at
    every step, so each quotient exponent appears once and the loop ends.
    """
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
    (fv, fs), (gv, gs) = f.min_exponents(), g.min_exponents()
    quot: dict[ExpPair, int] = {}
    while rem:
        (fa, fb) = max(rem)
        q, r = divmod(rem[(fa, fb)], gc)
        ea, eb = fa - ga, fb - gb
        if r or ea < fv - gv or eb < fs - gs:
            raise ArithmeticError("inexact division")
        quot[(ea, eb)] = q
        for (ta, tb), tc in g.terms.items():
            key = (ta + ea, tb + eb)
            nc = rem.get(key, 0) - q * tc
            if nc:
                rem[key] = nc
            else:
                rem.pop(key, None)
    return IntLaurent(quot)


def over_lcm(pairs) -> tuple[list[IntLaurent], IntLaurent]:
    """Fractions num/den over D, the canonical lcm of their denominators: ([num D/den], D).

    D starts at 1.  A den other than D takes one normal_form({0: D}, den),
    which gives D/g and den/g under one unit, for g = gcd(D, den); D becomes
    D (den/g), the numerators taken so far are multiplied by den/g and num
    by D/g.  D is a product of canonical polynomials, so it is canonical.
    """
    nums, den = [], _L_ONE
    for k, d in pairs:
        if d != den:
            cof, d_g = normal_form({0: den}, d)
            nums = [c * d_g for c in nums]
            den = den * d_g
            k = k * cof[0]
        nums.append(k)
    return nums, den


def normal_form(nums: dict, den: IntLaurent) -> tuple[dict, IntLaurent]:
    """Canonical form of the nonzero numerators nums over a nonzero den.

    The gcd of den and every numerator is divided out, then the unit.  The
    keys of nums are kept; with no numerators the result is ({}, 1), and
    over 1 nums is already canonical and comes back as it is.  A den in
    Z[s] up to a monomial v^a s^lo, as every den the commands build, is
    reduced on dense rows: the gcd folds over each numerator's s-rows
    through the gcd table, and only a gcd other than 1 is divided out.
    """
    if not nums:
        return {}, _L_ONE
    if den.terms == _ONE_TERMS:
        return nums, den
    drows = _rows(den, True)
    if len(drows) > 1:
        return _normal_form_general(nums, den)
    ((a, lo, d),) = drows
    g, rows = d, {}
    for k, c in nums.items():
        rows[k] = _rows(c, True)
        g = _fold_gcd(g, rows[k])
        if g == _DENSE_ONE:
            return _unit(nums, den)
    sign = 1 if d[-1] > 0 else -1  # g's lead is positive
    nums = {k: _div_rows(r, g, a, lo, sign) for k, r in rows.items()}
    return nums, _div_rows(drows, g, a, lo, sign)


def _normal_form_general(nums: dict, den: IntLaurent) -> tuple[dict, IntLaurent]:
    """normal_form by IntLaurent gcds and long division, for any den.

    Only a den with two powers of v needs it; the tests check the dense
    route against it.
    """
    g = den
    for c in nums.values():
        if g.is_one():
            break
        g = poly_gcd(g, c)
    if not g.is_one():
        den = laurent_divexact(den, g)
        nums = {k: laurent_divexact(c, g) for k, c in nums.items()}
    return _unit(nums, den)


def _unit(nums: dict, den: IntLaurent) -> tuple[dict, IntLaurent]:
    """Strip den's monomial factor and make its lex-leading coefficient positive."""
    mv, ms = den.min_exponents()
    sign = -1 if den.lex_leading()[1] < 0 else 1
    if mv or ms or sign < 0:
        den = den.shift(-mv, -ms).int_mul(sign)
        nums = {k: c.shift(-mv, -ms).int_mul(sign) for k, c in nums.items()}
    return nums, den


# ---------------------------------------------------------------------------
# Scalars: canonical fractions of Laurent polynomials.
# ---------------------------------------------------------------------------


class Scalar:
    """Element of the fraction field of Z[v^{±1}, s^{±1}], in canonical form."""

    __slots__ = ("num", "den")

    def __init__(self, num: IntLaurent, den: IntLaurent):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        nums, self.den = normal_form({0: num} if num.terms else {}, den)
        self.num = nums.get(0, _L_ZERO)

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
        (a, b), den = over_lcm(((self.num, self.den), (other.num, other.den)))
        return Scalar(a + b, den)

    def __neg__(self) -> Scalar:
        return Scalar._raw(-self.num, self.den)

    def __sub__(self, other: Scalar) -> Scalar:
        return self + (-other)

    def __mul__(self, other: Scalar) -> Scalar:
        return Scalar(self.num * other.num, self.den * other.den)

    def inv(self) -> Scalar:
        if self.num.is_zero():
            raise ZeroDivisionError("inverting zero scalar")
        return Scalar(self.den, self.num)

    def __truediv__(self, other: Scalar) -> Scalar:
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        return Scalar(self.num * other.den, self.den * other.num)

    def int_mul(self, c: int) -> Scalar:
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

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {"num": _poly_json(self.num), "den": _poly_json(self.den)}

    def __repr__(self) -> str:
        if self.den.is_one():
            return f"Scalar('{_fmt_poly(self.num)}')"
        return f"Scalar('({_fmt_poly(self.num)}) / ({_fmt_poly(self.den)})')"


def _poly_json(p: IntLaurent) -> list:
    rows = sorted(p.terms.items())
    try:  # str() is the fast path; it refuses more than 4300 digits
        return [[a, b, str(c)] for (a, b), c in rows]
    except ValueError:
        return [[a, b, _decimal(c)] for (a, b), c in rows]


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


def dot(fs, gs) -> IntLaurent:
    """The sum of f g over parallel sequences fs, gs: one accumulation, zeros dropped once."""
    acc: dict[ExpPair, int] = {}
    for f, g in zip(fs, gs):
        mul_into(acc, f.terms, g.terms)
    return IntLaurent(acc)


def mul_into(
    acc: dict[ExpPair, int], f: dict[ExpPair, int], g: dict[ExpPair, int]
) -> None:
    """acc += f g on integer term maps, in place; IntLaurent(acc) drops the zeros.

    The term maps may hold zeros, as the numerators in flight in hecke do.
    """
    if f == _ONE_TERMS:
        for e, k in g.items():
            acc[e] = acc.get(e, 0) + k
        return
    gs = g.items()
    for (a1, b1), k1 in f.items():
        for (a2, b2), k2 in gs:
            e = (a1 + a2, b1 + b2)
            acc[e] = acc.get(e, 0) + k1 * k2
