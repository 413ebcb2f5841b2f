"""The Hecke algebra H_n in its positive-permutation-braid basis.

An element is a finite linear combination of the n! braids w_pi, stored as
integer Laurent-polynomial numerators over one common denominator:

    x = (1/den) * sum over pi of nums[pi] w_pi,

with nums keyed by the one-line images of pi.  The form is canonical, so
equality is structural: den is a genuine polynomial with no monomial factor
and a positive lex-leading coefficient, and no non-unit factor of den
divides every numerator.  `terms` shows the same element as a read-only
{Perm: Scalar} map of reduced coefficients, built on first use, and
`pair` applies keyed linear functionals straight to the numerators: each
basis braid yields (key, polynomial) pairs, and one pass over the terms
returns {key: integer numerator over den}, for its caller to reduce once.
The characters (keyed by conjugacy class), the loop grades of the Markov
trace and phi_eval (one key) all pair this way.

Right multiplication by a generator is the only structural operation:

    w_pi . sigma_i = w_{pi s_i}                 if the length goes up,
    w_pi . sigma_i = w_{pi s_i} + z w_pi        if it goes down,

with z = s - s^{-1}, and sigma_i^{-1} = sigma_i - z.  A general product
x * y expands every braid of y along its canonical reduced word, which is
valid because lengths are additive along reduced words.

sigma_i^{±1} acts on the numerators by a matrix invertible over
Z[s^{±1}], so braid words keep the form canonical.  Sums, scalings and
psi's sums go through `lincomb`, normalised once; products and the mirror
map renormalise once too.  Normalising is coeff.normal_form, the same
routine that reduces a Scalar: a gcd of den folded over the numerators
through the shared gcd table, then the unit.

Polynomials in the commuting Murphy braids T(j) (power sums, the Murphy
series) are built without dense products: the braid word of T(j) acts on
the numerators letter by letter, with no gcd, and each result is
normalised once.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Hashable, Iterable, Mapping

from .coeff import (
    ONE,
    ZERO,
    IntLaurent,
    Scalar,
    add_term,
    delta,
    memo,
    mul_into,
    normal_form,
    over_lcm,
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
from .series import TruncSeries

_Z = IntLaurent({(0, 1): 1, (0, -1): -1})
_ZERO_POLY = IntLaurent()
_ONE_POLY = IntLaurent.from_int(1)

Images = tuple[int, ...]
PolyTerms = dict[Images, IntLaurent]


class HeckeElt:
    """Element of H_n: numerators nums[images] over one denominator den."""

    __slots__ = ("n", "nums", "den", "_terms")

    def __init__(self, n: int, terms: Mapping[Perm, Scalar] | None = None):
        """The element sum of terms[pi] w_pi, in canonical form."""
        x = lincomb(n, [(HeckeElt.basis(p), c) for p, c in (terms or {}).items()])
        self.n = n
        self.nums: PolyTerms = x.nums
        self.den = x.den
        self._terms = None

    @property
    def terms(self) -> Mapping[Perm, Scalar]:
        """The coefficients as a read-only {Perm: Scalar} map, each reduced."""
        if self._terms is None:
            den = self.den
            self._terms = MappingProxyType(
                {Perm(im): Scalar(c, den) for im, c in self.nums.items()}
            )
        return self._terms

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def identity(n: int) -> HeckeElt:
        return _elt(n, {identity(n).images: _ONE_POLY}, _ONE_POLY)

    @staticmethod
    def basis(p: Perm) -> HeckeElt:
        return _elt(p.n, {p.images: _ONE_POLY}, _ONE_POLY)

    @staticmethod
    def scalar(n: int, c: Scalar) -> HeckeElt:
        if c.is_zero():
            return HeckeElt(n)
        return _elt(n, {identity(n).images: c.num}, c.den)

    # -- coefficient-algebra protocol ----------------------------------------------

    def zero_like(self) -> HeckeElt:
        return HeckeElt(self.n)

    def one_like(self) -> HeckeElt:
        return HeckeElt.identity(self.n)

    def scale(self, c: Scalar) -> HeckeElt:
        return lincomb(self.n, [(self, c)])

    # -- linear structure --------------------------------------------------------------

    def __add__(self, other: HeckeElt) -> HeckeElt:
        return lincomb(self.n, [(self, ONE), (other, ONE)])

    def __neg__(self) -> HeckeElt:
        return _elt(self.n, {im: -c for im, c in self.nums.items()}, self.den)

    def __sub__(self, other: HeckeElt) -> HeckeElt:
        return lincomb(self.n, [(self, ONE), (other, -ONE)])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HeckeElt)
            and self.n == other.n
            and self.den == other.den
            and self.nums == other.nums
        )

    def is_zero(self) -> bool:
        return not self.nums

    # -- multiplication ----------------------------------------------------------------

    def __mul__(self, other: HeckeElt) -> HeckeElt:
        if self.n != other.n:
            raise ValueError(f"strand mismatch: {self.n} vs {other.n}")
        acc: PolyTerms = {}
        for rho, c_rho in other.nums.items():
            cur = self.nums
            for i in word_of(rho):
                cur = _rmul_gen_poly(cur, i, +1)
            _iadd(acc, c_rho, cur)
        return _elt(self.n, *normal_form(acc, self.den * other.den))

    def rmul_word(self, word) -> HeckeElt:
        """self * sigma_{|i|}^{sign(i)} over the letters i of a braid word."""
        check_word(self.n, word)
        nums = self.nums
        for i in word:
            nums = _rmul_gen_poly(nums, abs(i), 1 if i > 0 else -1)
        return _elt(self.n, nums, self.den)

    def pair(
        self, value: Callable[[Images], Iterable[tuple[Hashable, IntLaurent]]]
    ) -> dict[Hashable, IntLaurent]:
        """The numerators over den of a keyed functional at self.

        value(pi) yields (key, polynomial) pairs, the coordinates of w_pi.
        One pass over the terms, one value call per term and one integer
        accumulation of nums[pi] * polynomial per key; the result maps each
        key yielded to its numerator (zero if it cancels), and the caller
        reduces each over den.
        """
        acc: dict[Hashable, dict[tuple[int, int], int]] = {}
        for im, c in self.nums.items():
            for key, f in value(im):
                out = acc.get(key)
                if out is None:
                    out = acc[key] = {}
                mul_into(out, c, f)
        return {key: IntLaurent(out) for key, out in acc.items()}

    # -- the skein structure --------------------------------------------------------------

    def include(self, n_new: int) -> HeckeElt:
        """Image under the standard inclusion H_n -> H_{n_new}."""
        if n_new < self.n:
            raise ValueError(f"cannot include H_{self.n} into smaller H_{n_new}")
        pad = tuple(range(self.n + 1, n_new + 1))
        return _elt(n_new, {im + pad: c for im, c in self.nums.items()}, self.den)

    def mirror(self) -> HeckeElt:
        """Switch all crossings and invert v and s; an involution."""
        acc: PolyTerms = {}
        for images, c in self.nums.items():
            _iadd(acc, c.mirror(), _mirror_basis(images))
        return _elt(self.n, *normal_form(acc, self.den.mirror()))

    def is_central(self) -> bool:
        return all(
            _rmul_gen_poly(self.nums, i, +1) == _lmul_gen_poly(self.nums, i)
            for i in range(1, self.n)
        )

    # -- serialization ------------------------------------------------------------------------

    def to_json(self) -> dict:
        rows = sorted(self.terms.items(), key=lambda kv: kv[0].images)
        return {
            "n": self.n,
            "terms": [{"perm": list(p.images), "coeff": c.to_json()} for p, c in rows],
        }

    def __repr__(self) -> str:
        if not self.nums:
            return f"HeckeElt(n={self.n}, 0)"
        rows = sorted(self.terms.items(), key=lambda kv: kv[0].images)
        body = " + ".join(f"({c!r})*w{p.images}" for p, c in rows)
        return f"HeckeElt(n={self.n}, {body})"


# -- the canonical form ---------------------------------------------------------------


def _elt(n: int, nums: PolyTerms, den: IntLaurent) -> HeckeElt:
    """Wrap numerators and a denominator already in canonical form."""
    out = HeckeElt.__new__(HeckeElt)
    out.n = n
    out.nums = nums
    out.den = den
    out._terms = None
    return out


def lincomb(n: int, pairs) -> HeckeElt:
    """The sum of c x over the (x, c) pairs, HeckeElts in H_n and Scalars.

    Each term is brought over D, the lcm of the x.den c.den, as the numerators
    c.num (D / (x.den c.den)) x.nums; they are accumulated in place and the
    sum is normalised once.
    """
    elts, coeffs = [], []
    for x, c in pairs:
        if x.n != n:
            raise ValueError(f"strand mismatch: {x.n} vs {n}")
        if x.nums and not c.is_zero():
            elts.append(x.nums)
            coeffs.append((c.num, x.den * c.den))
    ks, den = over_lcm(coeffs)
    acc: PolyTerms = {}
    for nums, k in zip(elts, ks):
        _iadd(acc, k, nums)
    return _elt(n, *normal_form(acc, den))


def _iadd(acc: PolyTerms, k: IntLaurent, nums: PolyTerms) -> None:
    """acc += k nums, in place, for numerators over one denominator."""
    if k.is_zero():
        return
    for im, c in nums.items():
        add_term(acc, im, c * k)


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


def _murphy_word(j: int) -> list[int]:
    """The braid word of T(j): sigma_{j-1} ... sigma_1 sigma_1 ... sigma_{j-1}."""
    return list(range(j - 1, 0, -1)) + list(range(1, j))


def _rmul_murphy(terms: PolyTerms, j: int, m: int) -> PolyTerms:
    """Right multiply polynomial-coefficient terms by T(j)^m, one letter at a time.

    The letters are positive, so the numerators stay over the same
    denominator and no gcd is taken.
    """
    word = _murphy_word(j)
    for _ in range(m):
        for i in word:
            terms = _rmul_gen_poly(terms, i, +1)
    return terms


@memo
def _mirror_basis(images: Images) -> PolyTerms:
    """Expansion of the crossing-switched braid of w_pi in the braid basis.

    Mirroring keeps the diagram's composition order, so the mirror of
    sigma_{w_1}...sigma_{w_k} is sigma_{w_1}^{-1}...sigma_{w_k}^{-1}.
    """
    word = word_of(images)
    if not word:
        return {images: _ONE_POLY}
    # w_pi = w_{pi s_i} sigma_i for the last letter i of pi's reduced word
    i = word[-1]
    return _rmul_gen_poly(_mirror_basis(right_gen(images, i)), i, -1)


# ---------------------------------------------------------------------------
# Named elements and maps.
# ---------------------------------------------------------------------------


def check_word(n: int, word) -> None:
    """Raise ValueError unless every letter i of the braid word has 1 <= |i| <= n - 1."""
    for i in word:
        if not 1 <= abs(i) <= n - 1:
            raise ValueError(f"braid letter {i} out of range for {n} strands")


def word_elt(n: int, word: list[int]) -> HeckeElt:
    """Ordered product of sigma_{|i|}^{sign(i)} over a braid word."""
    return HeckeElt.identity(n).rmul_word(word)


def murphy_M(j: int, n: int) -> HeckeElt:
    """The Murphy operator M(j) = sum of the transposition braids w_(i j)."""
    if not (2 <= j <= n):
        raise ValueError(f"need 2 <= j <= n, got j={j}, n={n}")
    nums = {transposition(i, j, n).images: _ONE_POLY for i in range(1, j)}
    return _elt(n, nums, _ONE_POLY)


def murphy_T(j: int, n: int) -> HeckeElt:
    """Ram's braid T(j): strand j encircles strands 1..j-1; T(1) = 1."""
    if not (1 <= j <= n):
        raise ValueError(f"need 1 <= j <= n, got j={j}, n={n}")
    return word_elt(n, _murphy_word(j))


def t_circle(n: int) -> HeckeElt:
    """The encircling tangle T^(n), resolved in the braid basis.

    T^(n) = delta + z v^{-1} (T(1) + ... + T(n)); it is central.
    """
    if n < 0:
        raise ValueError("strand count must be >= 0")
    c = z() * v_pow(-1)
    murphy = [(murphy_T(j, n), c) for j in range(1, n + 1)]
    return lincomb(n, [(HeckeElt.identity(n), delta())] + murphy)


def gamma_elt(n: int) -> HeckeElt:
    """gamma_n = 1 + s sigma_{n-1} + s^2 sigma_{n-1}sigma_{n-2} + ... in H_n."""
    if n < 1:
        raise ValueError("gamma needs n >= 1")
    return lincomb(
        n, [(word_elt(n, list(range(n - 1, n - 1 - k, -1))), s_pow(k)) for k in range(n)]
    )


def _length_sum(n: int, sign: int, e: int) -> HeckeElt:
    """The sum over S_n of (sign s^e)^{l(pi)} w_pi."""
    nums = {}
    for p in all_perms(n):
        l = length(p)
        nums[p.images] = IntLaurent.monomial(sign**l, 0, e * l)
    return _elt(n, nums, _ONE_POLY)


def a_sym(n: int) -> HeckeElt:
    """The row quasi-idempotent a_n = sum over S_n of s^{l(pi)} w_pi."""
    return _length_sum(n, 1, 1)


def b_sym(n: int) -> HeckeElt:
    """The column quasi-idempotent b_n = sum over S_n of (-s)^{-l(pi)} w_pi."""
    return _length_sum(n, -1, -1)


def phi_eval(x: HeckeElt, t: Scalar) -> Scalar:
    """One-dimensional evaluation sending each basis braid to t^{length}.

    t must be a Laurent polynomial (denominator 1), as s and -s^{-1} are.
    """
    if not t.den.is_one():
        raise ValueError(f"phi_eval needs a Laurent polynomial, got {t!r}")
    num = x.pair(lambda im: ((0, (t ** len(word_of(im))).num),)).get(0, _ZERO_POLY)
    return Scalar(num, x.den)


def phi_s(x: HeckeElt) -> Scalar:
    """The writhe evaluation: w_pi -> s^{l(pi)}, extended linearly."""
    return phi_eval(x, s_pow(1))


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
    return add_power_sum_T(HeckeElt.identity(n), m, ZERO, ONE)


def add_power_sum_T(x: HeckeElt, m: int, a: Scalar, c: Scalar) -> HeckeElt:
    """a x + c x (T(1)^m + ... + T(n)^m), normalised once."""
    if m < 1:
        raise ValueError("power must be >= 1")
    murphy: PolyTerms = {}
    for j in range(1, x.n + 1):
        _iadd(murphy, _ONE_POLY, _rmul_murphy(x.nums, j, m))
    # both terms over x.den L, with L the lcm of a.den and c.den
    (ka, kc), ell = over_lcm([(a.num, a.den), (c.num, c.den)])
    acc: PolyTerms = {}
    _iadd(acc, ka, x.nums)
    _iadd(acc, kc, murphy)
    return _elt(x.n, *normal_form(acc, x.den * ell))


def murphy_series(n: int, order: int) -> TruncSeries:
    """HM(t) = prod_j (1 - T(j) t)^{-1}, coefficients central in H_n."""
    return murphy_series_times(n, TruncSeries([ONE], order), ZERO, ONE)


def murphy_series_times(
    n: int, f: TruncSeries, a: Scalar, b: Scalar
) -> TruncSeries:
    """f(t) prod_j (1 - a T(j) t) / (1 - b T(j) t) over H_n, for a Scalar series f.

    Coefficient k is kept as numerators over D L^k, with D the lcm of the
    denominators of f and L = a.den b.den, so no gcd is taken until each
    coefficient is normalised once at the end.  For each j, in order of k:
    d_k = c_k + b d_{k-1} T(j), then c_k <- d_k - a d_{k-1} T(j).  Every
    coefficient of nonzero degree is a symmetric polynomial in the commuting
    T(j), and is checked to be central.
    """
    nums, den = over_lcm((c.num, c.den) for c in f.coeffs)
    one = identity(n).images
    ell = a.den * b.den
    dens, coeffs, power = [], [], _ONE_POLY
    for k in nums:  # f_k over D L^k
        dens.append(den * power)
        coeffs.append({} if k.is_zero() else {one: k * power})
        power = power * ell
    # over D L^k, b d_{k-1} T(j) has the numerator b.num a.den T(j) N_{k-1}
    kb, ka = b.num * a.den, -(a.num * b.den)
    for j in range(1, n + 1):
        prev = coeffs[0]
        for k in range(1, len(coeffs)):
            shifted = _rmul_murphy(prev, j, 1)
            d = coeffs[k]
            _iadd(d, kb, shifted)  # d_k, in place
            prev = dict(d)
            _iadd(d, ka, shifted)  # c_k
    out = [_elt(n, *normal_form(c, d)) for c, d in zip(coeffs, dens)]
    for c in out[1:]:
        if not c.is_central():
            raise AssertionError("Murphy series coefficient is not central")
    return TruncSeries(out)
