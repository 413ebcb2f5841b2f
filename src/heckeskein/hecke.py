"""The Hecke algebra H_n in its positive-permutation-braid basis.

An element is a finite Scalar-linear combination of the n! braids w_pi.
Right multiplication by a generator is the only structural operation:

    w_pi . sigma_i = w_{pi s_i}                 if the length goes up,
    w_pi . sigma_i = w_{pi s_i} + z w_pi        if it goes down,

with z = s - s^{-1}, and sigma_i^{-1} = sigma_i - z.  A general product
x * y expands every braid of y along its canonical reduced word, which is
valid because lengths are additive along reduced words.

Products and the mirror map work internally on a common denominator, so the
coefficient arithmetic inside a product is pure Laurent-polynomial work; the
single gcd per output coefficient happens when the result is rebuilt.
"""

from __future__ import annotations

from .coeff import (
    IntLaurent,
    Scalar,
    add_term,
    canon_poly_part,
    delta,
    laurent_divexact,
    poly_gcd,
    s_pow,
    v_pow,
    z,
)
from .perm import (
    Perm,
    all_perms,
    identity,
    left_gen,
    length,
    right_gen,
    transposition,
    word_of,
)
from .series import TruncSeries, geometric

_Z = IntLaurent({(0, 1): 1, (0, -1): -1})
_ONE_POLY = IntLaurent.from_int(1)

Images = tuple[int, ...]
PolyTerms = dict[Images, IntLaurent]


class HeckeElt:
    """Element of H_n as a sparse map from permutations to Scalars."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[Perm, Scalar] | None = None):
        self.n = n
        self.terms: dict[Perm, Scalar] = {}
        if terms:
            for p, c in terms.items():
                if p.n != n:
                    raise ValueError(f"permutation size {p.n} != strand count {n}")
                if not c.is_zero():
                    self.terms[p] = c

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def identity(n: int) -> HeckeElt:
        out = HeckeElt(n)
        out.terms[identity(n)] = Scalar.from_int(1)
        return out

    @staticmethod
    def zero(n: int) -> HeckeElt:
        return HeckeElt(n)

    @staticmethod
    def basis(p: Perm) -> HeckeElt:
        out = HeckeElt(p.n)
        out.terms[p] = Scalar.from_int(1)
        return out

    @staticmethod
    def scalar(n: int, c: Scalar) -> HeckeElt:
        out = HeckeElt(n)
        if not c.is_zero():
            out.terms[identity(n)] = c
        return out

    # -- coefficient-algebra protocol ----------------------------------------------

    def zero_like(self) -> HeckeElt:
        return HeckeElt(self.n)

    def one_like(self) -> HeckeElt:
        return HeckeElt.identity(self.n)

    def scale(self, c: Scalar) -> HeckeElt:
        out = HeckeElt(self.n)
        if c.is_zero():
            return out
        for p, k in self.terms.items():
            v = k * c
            if not v.is_zero():
                out.terms[p] = v
        return out

    # -- linear structure --------------------------------------------------------------

    def __add__(self, other: HeckeElt) -> HeckeElt:
        self._check(other)
        out = HeckeElt(self.n)
        out.terms = dict(self.terms)
        for p, c in other.terms.items():
            add_term(out.terms, p, c)
        return out

    def __neg__(self) -> HeckeElt:
        out = HeckeElt(self.n)
        out.terms = {p: -c for p, c in self.terms.items()}
        return out

    def __sub__(self, other: HeckeElt) -> HeckeElt:
        return self + (-other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HeckeElt)
            and self.n == other.n
            and self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: HeckeElt):
        if self.n != other.n:
            raise ValueError(f"strand mismatch: {self.n} vs {other.n}")

    # -- multiplication ----------------------------------------------------------------

    def __mul__(self, other: HeckeElt) -> HeckeElt:
        self._check(other)
        if not self.terms or not other.terms:
            return HeckeElt(self.n)
        xt, xd = _poly_form(self)
        yt, yd = _poly_form(other)
        acc: PolyTerms = {}
        for rho, c_rho in yt.items():
            cur = xt
            for i in word_of(rho):
                cur = _rmul_gen_poly(cur, i, +1)
            for im, c in cur.items():
                add_term(acc, im, c * c_rho)
        return _from_poly_form(self.n, acc, xd * yd)

    def rmul_word(self, word) -> HeckeElt:
        """self * sigma_{|i|}^{sign(i)} over the letters i of a braid word."""
        terms, d = _poly_form(self)
        for i in word:
            if i == 0 or not (1 <= abs(i) <= self.n - 1):
                raise ValueError(
                    f"braid letter {i} out of range for {self.n} strands"
                )
            terms = _rmul_gen_poly(terms, abs(i), 1 if i > 0 else -1)
        return _from_poly_form(self.n, terms, d)

    # -- the skein structure --------------------------------------------------------------

    def include(self, n_new: int) -> HeckeElt:
        """Image under the standard inclusion H_n -> H_{n_new}."""
        if n_new < self.n:
            raise ValueError(f"cannot include H_{self.n} into smaller H_{n_new}")
        if n_new == self.n:
            return self
        pad = tuple(range(self.n + 1, n_new + 1))
        out = HeckeElt(n_new)
        out.terms = {Perm(p.images + pad): c for p, c in self.terms.items()}
        return out

    def mirror(self) -> HeckeElt:
        """Switch all crossings and invert v and s; an involution."""
        acc: PolyTerms = {}
        dens: list[IntLaurent] = []
        parts = []
        for p, c in self.terms.items():
            mc = c.mirror()
            parts.append((p.images, mc))
            dens.append(mc.den)
        d = _lcm_all(dens)
        for images, mc in parts:
            factor = mc.num * laurent_divexact(d, mc.den)
            for im, cc in _mirror_basis(images).items():
                add_term(acc, im, cc * factor)
        return _from_poly_form(self.n, acc, d)

    def is_central(self) -> bool:
        terms, d = _poly_form(self)
        for i in range(1, self.n):
            left = _from_poly_form(self.n, _lmul_gen_poly(terms, i), d)
            if self.rmul_word([i]) != left:
                return False
        return True

    # -- serialization ------------------------------------------------------------------------

    def to_json(self) -> dict:
        rows = sorted(self.terms.items(), key=lambda kv: kv[0].images)
        return {
            "n": self.n,
            "terms": [{"perm": list(p.images), "coeff": c.to_json()} for p, c in rows],
        }

    @staticmethod
    def from_json(obj: dict) -> HeckeElt:
        n = int(obj["n"])
        out = HeckeElt(n)
        for row in obj["terms"]:
            p = Perm(tuple(int(x) for x in row["perm"]))
            c = Scalar.from_json(row["coeff"])
            if not c.is_zero():
                out.terms[p] = c
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return f"HeckeElt(n={self.n}, 0)"
        rows = sorted(self.terms.items(), key=lambda kv: kv[0].images)
        body = " + ".join(f"({c!r})*w{p.images}" for p, c in rows)
        return f"HeckeElt(n={self.n}, {body})"


# -- common-denominator plumbing -------------------------------------------------


def _lcm_all(dens: list[IntLaurent]) -> IntLaurent:
    out = _ONE_POLY
    seen = set()
    for d in dens:
        k = d.key()
        if k in seen or d.is_one():
            continue
        seen.add(k)
        g = poly_gcd(out, d)
        extra = d if g.is_one() else laurent_divexact(d, g)
        out = out * extra
    return canon_poly_part(out) if not out.is_one() else out


def _poly_form(x: HeckeElt) -> tuple[PolyTerms, IntLaurent]:
    """Rewrite x as (1/d) * (polynomial-coefficient terms)."""
    dens = [c.den for c in x.terms.values()]
    d = _lcm_all(dens)
    out: PolyTerms = {}
    if d.is_one():
        for p, c in x.terms.items():
            out[p.images] = c.num
    else:
        for p, c in x.terms.items():
            out[p.images] = c.num * laurent_divexact(d, c.den)
    return out, d


def _from_poly_form(n: int, terms: PolyTerms, den: IntLaurent) -> HeckeElt:
    out = HeckeElt(n)
    for im, c in terms.items():
        v = Scalar(c, den)
        if not v.is_zero():
            out.terms[Perm(im)] = v
    return out


def _rmul_gen_poly(terms: PolyTerms, i: int, sign: int) -> PolyTerms:
    """Right multiply polynomial-coefficient terms by sigma_i^{sign}."""
    out: PolyTerms = {}
    j = i - 1
    for im, c in terms.items():
        ascending = im[j] < im[j + 1]
        add_term(out, right_gen(im, i), c)
        if sign > 0:
            if not ascending:
                add_term(out, im, c * _Z)
        else:
            if ascending:
                add_term(out, im, -(c * _Z))
    return out


def _lmul_gen_poly(terms: PolyTerms, i: int) -> PolyTerms:
    """Left multiply polynomial-coefficient terms by sigma_i."""
    out: PolyTerms = {}
    for im, c in terms.items():
        add_term(out, left_gen(im, i), c)
        if im.index(i) > im.index(i + 1):
            add_term(out, im, c * _Z)
    return out


_MIRROR_CACHE: dict[Images, PolyTerms] = {}


def _mirror_basis(images: Images) -> PolyTerms:
    """Expansion of the crossing-switched braid of w_pi in the braid basis.

    Mirroring keeps the diagram's composition order, so the mirror of
    sigma_{w_1}...sigma_{w_k} is sigma_{w_1}^{-1}...sigma_{w_k}^{-1}.
    """
    hit = _MIRROR_CACHE.get(images)
    if hit is not None:
        return hit
    word = word_of(images)
    if not word:
        out = {images: _ONE_POLY}
    else:
        # w_pi = w_{pi s_i} sigma_i for the last letter i of pi's reduced word
        i = word[-1]
        out = _rmul_gen_poly(_mirror_basis(right_gen(images, i)), i, -1)
    _MIRROR_CACHE[images] = out
    return out


# ---------------------------------------------------------------------------
# Named elements and maps.
# ---------------------------------------------------------------------------


def word_elt(n: int, word: list[int]) -> HeckeElt:
    """Ordered product of sigma_{|i|}^{sign(i)} over a braid word."""
    return HeckeElt.identity(n).rmul_word(word)


def murphy_M(j: int, n: int) -> HeckeElt:
    """The Murphy operator M(j) = sum of the transposition braids w_(i j)."""
    if not (2 <= j <= n):
        raise ValueError(f"need 2 <= j <= n, got j={j}, n={n}")
    out = HeckeElt(n)
    one = Scalar.from_int(1)
    for i in range(1, j):
        out.terms[transposition(i, j, n)] = one
    return out


def murphy_T(j: int, n: int) -> HeckeElt:
    """Ram's braid T(j): strand j encircles strands 1..j-1; T(1) = 1."""
    if not (1 <= j <= n):
        raise ValueError(f"need 1 <= j <= n, got j={j}, n={n}")
    word = list(range(j - 1, 0, -1)) + list(range(1, j))
    return word_elt(n, word)


def t_circle(n: int) -> HeckeElt:
    """The encircling tangle T^(n), resolved in the braid basis.

    T^(n) = delta + z v^{-1} (T(1) + ... + T(n)); it is central.
    """
    if n < 0:
        raise ValueError("strand count must be >= 0")
    out = HeckeElt.scalar(n, delta())
    if n == 0:
        return out
    acc = HeckeElt(n)
    for j in range(1, n + 1):
        acc = acc + murphy_T(j, n)
    return out + acc.scale(z() * v_pow(-1))


def gamma_elt(n: int) -> HeckeElt:
    """gamma_n = 1 + s sigma_{n-1} + s^2 sigma_{n-1}sigma_{n-2} + ... in H_n."""
    if n < 1:
        raise ValueError("gamma needs n >= 1")
    out = HeckeElt.identity(n)
    for k in range(1, n):
        word = list(range(n - 1, n - 1 - k, -1))
        out = out + word_elt(n, word).scale(s_pow(k))
    return out


def a_sym(n: int) -> HeckeElt:
    """The row quasi-idempotent a_n = sum over S_n of s^{l(pi)} w_pi."""
    out = HeckeElt(n)
    for p in all_perms(n):
        out.terms[p] = s_pow(length(p))
    return out


def b_sym(n: int) -> HeckeElt:
    """The column quasi-idempotent b_n = sum over S_n of (-s)^{-l(pi)} w_pi."""
    out = HeckeElt(n)
    for p in all_perms(n):
        l = length(p)
        out.terms[p] = s_pow(-l).int_mul((-1) ** l)
    return out


def phi_eval(x: HeckeElt, t: Scalar) -> Scalar:
    """One-dimensional evaluation sending each basis braid to t^{length}."""
    out = Scalar.from_int(0)
    for p, c in x.terms.items():
        out = out + c * t ** length(p)
    return out


def phi_s(x: HeckeElt) -> Scalar:
    """The writhe evaluation: w_pi -> s^{l(pi)}, extended linearly."""
    out = Scalar.from_int(0)
    for p, c in x.terms.items():
        out = out + c * s_pow(length(p))
    return out


def h_idem(n: int) -> HeckeElt:
    """The single-row idempotent h_n = a_n / phi_s(a_n)."""
    a = a_sym(n)
    return a.scale(phi_s(a).inv())


def e_idem(n: int) -> HeckeElt:
    """The single-column idempotent: b_n normalized with s -> -s^{-1}."""
    b = b_sym(n)
    neg_s_inv = -s_pow(-1)
    return b.scale(phi_eval(b, neg_s_inv).inv())


def power_sum_T(m: int, n: int) -> HeckeElt:
    """The m-th power sum of the Murphy braids, T(1)^m + ... + T(n)^m."""
    if m < 1:
        raise ValueError("power must be >= 1")
    out = HeckeElt(n)
    for j in range(1, n + 1):
        t = murphy_T(j, n)
        p = t
        for _ in range(m - 1):
            p = p * t
        out = out + p
    return out


def rescale(x: HeckeElt, x_param: Scalar) -> HeckeElt:
    """Writhe rescaling: w_pi -> x^{l(pi)} w_pi termwise."""
    out = HeckeElt(x.n)
    powers: dict[int, Scalar] = {}
    for p, c in x.terms.items():
        l = length(p)
        f = powers.get(l)
        if f is None:
            f = x_param ** l
            powers[l] = f
        v = c * f
        if not v.is_zero():
            out.terms[p] = v
    return out


def murphy_series(n: int, order: int) -> TruncSeries:
    """HM(t) = prod_j (1 - T(j) t)^{-1}, coefficients central in H_n."""
    if order < 0:
        raise ValueError("order must be >= 0")
    out = TruncSeries.one(HeckeElt.identity(n), order)
    for j in range(1, n + 1):
        out = out * geometric(murphy_T(j, n), order)
    for c in out.coeffs[1:]:
        if not c.is_central():
            raise AssertionError("Murphy series coefficient is not central")
    return out


def elem_murphy_series(n: int, order: int) -> TruncSeries:
    """EM(t) = prod_j (1 + T(j) t), coefficients central in H_n."""
    if order < 0:
        raise ValueError("order must be >= 0")
    out = TruncSeries.one(HeckeElt.identity(n), order)
    for j in range(1, n + 1):
        out = out * TruncSeries([HeckeElt.identity(n), murphy_T(j, n)], order)
    for c in out.coeffs[1:]:
        if not c.is_central():
            raise AssertionError("Murphy series coefficient is not central")
    return out
