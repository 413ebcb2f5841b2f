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

with z = s - s^{-1}, and sigma_i^{-1} = sigma_i - z.  So sigma_i^{±1} mixes
each pair {w_u, w_d}, d = u s_i the longer, by a 2x2 matrix invertible over
Z[s^{±1}], and braid words keep the form canonical.  The left action is not
needed: the anti-involution w_pi -> w_{pi^-1} reverses braid words and fixes
each sigma_i, so sigma_i x is the re-keyed image of x' sigma_i, where x' is
x re-keyed; `is_central` compares x sigma_i with it.

Numerators in flight are plain integer term maps {images: {(e_v, e_s): int}}
that one kernel, `_step`, updates in place, a pair of basis braids at a
time; scaled sums go through coeff.mul_into, and zero terms are dropped once,
when the result is wrapped as IntLaurents.  Only two walks drive the
kernel.  The word walk, `_step_word`, steps them along a signed braid word:
for `rmul_word`, and so for `is_central` and the Murphy series, and for the
power sums of the Murphy braids.  A product x * y and the mirror of y share
the trie walk, `_walk`, along the prefix trie of y's support: the canonical
reduced words are prefix-closed, as word_of(rho) minus its last letter i is
word_of(rho s_i), so each node of the trie costs one generator step on its
parent's numerators.  The product steps x by sigma_i, as lengths add along
reduced words; the mirror steps the identity by sigma_i^{-1}.

Sums, scalings and psi's sums go through `lincomb`, normalised once;
products and the mirror map renormalise once too.  Normalising is
coeff.normal_form, the routine through which every Scalar operation
reduces: a gcd of den folded over the numerators through the shared gcd
table, then the unit; numerators over 1 are returned as they are.

Polynomials in the commuting Murphy braids T(j) are built without dense
products: the braid word of T(j) acts on the numerators letter by letter,
with no gcd.  A power sum of the T(j) sums the walks in flight and is
normalised once; each step of the Murphy series is one rmul_word by the word
of T(j) and two lincombs, so each coefficient is normalised as it is built.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Hashable, Iterable, Mapping

from .coeff import (
    ONE,
    ZERO,
    ExpPair,
    IntLaurent,
    Scalar,
    delta,
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
    length,
    right_gen,
    transposition,
    word_of,
)
from .series import TruncSeries

_ZERO_POLY = IntLaurent()
_ONE_POLY = IntLaurent.from_int(1)

Images = tuple[int, ...]
PolyTerms = dict[Images, IntLaurent]
Terms = dict[Images, dict[ExpPair, int]]  # numerators in flight, zeros allowed


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
        return HeckeElt.identity(n).scale(c)

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
        """The product: x times the canonical word of each braid of y, one walk."""
        if self.n != other.n:
            raise ValueError(f"strand mismatch: {self.n} vs {other.n}")
        acc = _walk(self.n, _open(self.nums), other.nums, 1)
        return _elt(self.n, *normal_form(_close(acc), self.den * other.den))

    def rmul_word(self, word) -> HeckeElt:
        """self * sigma_{|i|}^{sign(i)} over the letters i of a braid word."""
        word = check_word(self.n, word)
        terms = _open(self.nums)
        _step_word(terms, word)
        return _elt(self.n, _close(terms), self.den)

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
                mul_into(out, c.terms, f.terms)
        return {key: IntLaurent(out) for key, out in acc.items()}

    # -- the skein structure --------------------------------------------------------------

    def include(self, n_new: int) -> HeckeElt:
        """Image under the standard inclusion H_n -> H_{n_new}."""
        if n_new < self.n:
            raise ValueError(f"cannot include H_{self.n} into smaller H_{n_new}")
        pad = tuple(range(self.n + 1, n_new + 1))
        return _elt(n_new, {im + pad: c for im, c in self.nums.items()}, self.den)

    def mirror(self) -> HeckeElt:
        """Switch all crossings and invert v and s; an involution.

        Mirroring keeps the diagram's composition order, so the mirror of
        w_pi = sigma_{w_1}...sigma_{w_k} is sigma_{w_1}^{-1}...sigma_{w_k}^{-1}
        along pi's canonical word: the walk of the product with sign -1.
        """
        one = {identity(self.n).images: {(0, 0): 1}}
        coeffs = {im: c.mirror() for im, c in self.nums.items()}
        acc = _walk(self.n, one, coeffs, -1)
        return _elt(self.n, *normal_form(_close(acc), self.den.mirror()))

    def is_central(self) -> bool:
        """x sigma_i == sigma_i x for every i; sigma_i x is the _rekey of _rekey(x) sigma_i."""
        flipped = _elt(self.n, _rekey(self.nums), self.den)
        return all(
            self.rmul_word([i]).nums == _rekey(flipped.rmul_word([i]).nums)
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
    acc: Terms = {}
    for nums, k in zip(elts, ks):
        _iadd(acc, k, _view(nums))
    return _elt(n, *normal_form(_close(acc), den))


# -- numerators in flight --------------------------------------------------------------


def _view(nums: PolyTerms) -> Terms:
    """The numerators' own term maps, to read and not to update."""
    return {im: c.terms for im, c in nums.items()}


def _open(nums: PolyTerms) -> Terms:
    """A copy of the numerators as term maps that `_step` may update."""
    return {im: dict(c.terms) for im, c in nums.items()}


def _copy(terms: Terms) -> Terms:
    return {im: dict(t) for im, t in terms.items()}


def _close(terms: Terms) -> PolyTerms:
    """The term maps as IntLaurent numerators, dropping zero terms and numerators."""
    out: PolyTerms = {}
    for im, t in terms.items():
        c = IntLaurent(t)
        if c.terms:
            out[im] = c
    return out


def _iadd(acc: Terms, k: IntLaurent, terms: Terms) -> None:
    """acc += k terms, in place."""
    k = k.terms
    if not k:
        return
    for im, t in terms.items():
        out = acc.get(im)
        if out is None:
            out = acc[im] = {}
        mul_into(out, k, t)


def _rekey(nums: PolyTerms) -> PolyTerms:
    """The anti-involution w_pi -> w_{pi^-1}, which reverses words and fixes each sigma_i."""
    return {
        tuple(sorted(range(1, len(im) + 1), key=lambda p: im[p - 1])): c
        for im, c in nums.items()
    }


def _step(terms: Terms, i: int, sign: int) -> None:
    """terms <- terms sigma_i^sign, in place.

    Swapping the entries at positions i, i+1 pairs each braid w_u with the
    longer w_d.  sigma_i sends the pair of coefficients (c_u, c_d) to
    (c_d, c_u + z c_d); sigma_i^{-1} = sigma_i - z sends (c_d, c_u) to
    (c_u, c_d - z c_u), the same move with u and d exchanged and z negated.
    A term map is moved, not copied, and z c is added to the other one.
    """
    for im in list(terms):
        p, q = im[i - 1], im[i]
        other = im[:i - 1] + (q, p) + im[i + 1:]
        if p > q:
            if other in terms:
                continue  # the pair moves when its shorter braid comes up
            u, d = other, im
        else:
            u, d = im, other
        if sign < 0:
            u, d = d, u
        cu, cd = terms.get(u), terms.get(d)
        if cd is None:
            terms[d] = cu
            del terms[u]
            continue
        if cu is None:
            cu = {}
        for (ev, es), k in cd.items():  # cu += sign z cd
            if k:
                k *= sign
                e = (ev, es + 1)
                cu[e] = cu.get(e, 0) + k
                e = (ev, es - 1)
                cu[e] = cu.get(e, 0) - k
        terms[d] = cu
        terms[u] = cd


def _murphy_word(j: int) -> list[int]:
    """The braid word of T(j): sigma_{j-1} ... sigma_1 sigma_1 ... sigma_{j-1}."""
    return list(range(j - 1, 0, -1)) + list(range(1, j))


def _step_word(terms: Terms, word) -> None:
    """terms <- terms sigma_{|i|}^{sign(i)} over a braid word, in place, with no gcd."""
    for i in word:
        _step(terms, abs(i), 1 if i > 0 else -1)


def _walk(n: int, start: Terms, coeffs: PolyTerms, sign: int) -> Terms:
    """The sum over rho of coeffs[rho] times start stepped along rho's word.

    Each letter i of rho's canonical word steps by sigma_i^sign.  The words
    are prefix-closed, so the trie of coeffs' support shares every prefix:
    each node costs one generator step on its parent's numerators, and the
    walk holds at most one copy of start per trie level.  start is updated.
    """
    kids: dict[Images, list[tuple[int, Images]]] = {}
    seen = set()
    for rho in coeffs:
        while rho not in seen:
            seen.add(rho)
            word = word_of(rho)
            if not word:
                break
            i = word[-1]
            parent = right_gen(rho, i)
            kids.setdefault(parent, []).append((i, rho))
            rho = parent
    acc: Terms = {}

    def visit(node: Images, cur: Terms) -> None:
        c = coeffs.get(node)
        if c is not None:
            _iadd(acc, c, cur)
        below = kids.get(node, ())
        for pos, (i, child) in enumerate(below, 1):
            nxt = cur if pos == len(below) else _copy(cur)
            _step(nxt, i, sign)
            visit(child, nxt)

    visit(identity(n).images, start)
    return acc


# ---------------------------------------------------------------------------
# Named elements and maps.
# ---------------------------------------------------------------------------


def check_word(n: int, word) -> list[int]:
    """The braid word as a list; ValueError unless every letter i has 1 <= |i| <= n - 1."""
    word = list(word)
    for i in word:
        if not 1 <= abs(i) <= n - 1:
            raise ValueError(f"braid letter {i} out of range for {n} strands")
    return word


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
    murphy: Terms = {}
    for j in range(1, x.n + 1):
        terms = _open(x.nums)
        _step_word(terms, _murphy_word(j) * m)
        _iadd(murphy, _ONE_POLY, terms)
    # x T-sum over x.den, not canonical: lincomb reads only nums and den
    return lincomb(x.n, [(x, a), (_elt(x.n, _close(murphy), x.den), c)])


def murphy_series(n: int, order: int) -> TruncSeries:
    """HM(t) = prod_j (1 - T(j) t)^{-1}, coefficients central in H_n."""
    return murphy_series_times(n, TruncSeries([ONE], order), ZERO, ONE)


def murphy_series_times(
    n: int, f: TruncSeries, a: Scalar, b: Scalar
) -> TruncSeries:
    """f(t) prod_j (1 - a T(j) t) / (1 - b T(j) t) over H_n, for a Scalar series f.

    Coefficient k starts as f_k.  For each j, in order of k, with t =
    d_{k-1} T(j) one rmul_word: d_k = c_k + b t, then c_k <- d_k - a t, each
    one lincomb.  Every coefficient of nonzero degree is a symmetric
    polynomial in the commuting T(j), and is checked to be central.
    """
    coeffs = [HeckeElt.scalar(n, c) for c in f.coeffs]
    for j in range(1, n + 1):
        word, shifted = _murphy_word(j), coeffs[0]
        for k in range(1, len(coeffs)):
            t = shifted.rmul_word(word)
            shifted = lincomb(n, [(coeffs[k], ONE), (t, b)])  # d_k
            coeffs[k] = lincomb(n, [(shifted, ONE), (t, -a)])
    for c in coeffs[1:]:
        if not c.is_central():
            raise AssertionError("Murphy series coefficient is not central")
    return TruncSeries(coeffs)
