"""Independent oracles used by the test suite.

Symmetric functions are evaluated at concrete rational points straight from
their textbook definitions (multiset sums, subset sums, power sums, and the
bialternant ratio for Schur functions), entirely in Fraction arithmetic.
These never touch the package's h-monomial machinery, so agreement is a
genuine cross-check rather than a tautology.

The Markov trace oracle is the slow route to the trace: one Scalar per
basis braid and one Scalar sum per term, never HeckeElt.pair.

The seminormal character oracle is the slow route to a character: the
Scalar matrix of every basis braid, a product of seminormal generator
matrices along its reduced word, and the Scalar sum of its diagonal, never
a class polynomial.  The per-basis-braid character oracle is the route the
library took before class coordinates: each basis braid's own class
polynomial paired with the minimal braids' characters, summed term by term
in Scalars.

The generator-action oracles are the per-term route the library took before
its in-place kernel: every generator step builds a new {images: IntLaurent}
map, one IntLaurent product per term, and drops zeros as it goes.  On them
rest a product that walks the whole canonical word of every braid of the
right factor, a word action, the mirror map and the centrality test, each
with no prefix shared; and the trace sum by Horner's rule in 1 - v^2,
reduced by Scalar's gcd route.  The plane evaluation oracle brings the terms
over the lcm of their own denominators, the route the library took before
it put every h-monomial over one known denominator.

The dense psi and Murphy-series oracles are the slow route through dense
HeckeElt products and Hecke-valued series (geometric, scale_t, inverse),
with T(j) built from its own braid word, never through the library's
Murphy-braid word routine.

The eigenvalue oracle substitutes each power sum's closed-form eigenvalue
on a shape, from the contents of its cells, into the power-sum expansion
of f, and compares it with the central scalar of psi_n(f) on that shape.

The parser of the CLI element grammar into one symmetric function lives
here, as only tests use it; the CLI bounds the degree between parse_factors
and build_element.

The inverse routes that only tests take live here too: exact evaluation of
a Scalar at a rational point, exp of a series (the check on log), and a
symmetric function rebuilt from its power-sum coordinates as products of
power sums (the check on to_p).

The gcd oracle is Euclid's algorithm over Q in Fractions, made monic: no
pseudo-remainder and no primitive part, so it shares nothing with the
library's PRS over Z.

The Coxeter length oracle is the inversion count, never a reduced word.
A permutation is rebuilt from a word of adjacent transpositions
(word_to_perm), and coxeter_rep gives a minimal-length element of each
conjugacy class; the library needs neither.

The memo tables are found by scanning the package's modules for functools
caches, so clearing them needs no registry in the library.
"""

import sys
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement, permutations

from heckeskein.coeff import (
    ONE,
    IntLaurent,
    Scalar,
    add_term,
    delta,
    normal_form,
    over_lcm,
    s_pow,
    v_pow,
)
from heckeskein.hecke import HeckeElt, _elt, word_elt
from heckeskein.perm import Perm, coset_decompose, left_gen, length, right_gen, word_of
from heckeskein.psi import build_element, parse_factors, psi
from heckeskein.repn import (
    _class_character,
    _class_poly,
    central_scalar,
    rho,
    std_tableaux,
    tableau_positions,
)
from heckeskein.series import TruncSeries, geometric
from heckeskein.symfun import SymFunc, check_partition, power_sum, to_p
from heckeskein.trace import _h_trace, _trace_loops, ev_sym

_L_ONE = IntLaurent.from_int(1)
_Z = IntLaurent({(0, 1): 1, (0, -1): -1})


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
        val = eval_rational(coeff, v0, s0)
        for k in parts:
            val *= h_value(k, xs)
        total += val
    return total


def _eval_poly(p, v0: Fraction, s0: Fraction) -> Fraction:
    return sum((c * v0 ** a * s0 ** b for (a, b), c in p.terms.items()), Fraction(0))


def _trim_q(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p.pop()
    return p


def euclid_gcd_q(a: list[int], b: list[int]) -> list[Fraction]:
    """Monic gcd over Q of two nonzero dense polynomials (index = exponent)."""
    a, b = _trim_q([Fraction(c) for c in a]), _trim_q([Fraction(c) for c in b])
    while b:
        b = [c / b[-1] for c in b]
        while len(a) >= len(b):
            q, off = a[-1], len(a) - len(b)
            for j, c in enumerate(b):
                a[off + j] -= q * c
            _trim_q(a)
        a, b = b, a
    return a


def eval_rational(c: Scalar, v0, s0) -> Fraction:
    """Exact value of c at rational (v0, s0); raises on a pole."""
    v0, s0 = Fraction(v0), Fraction(s0)
    if v0 == 0 or s0 == 0:
        raise ZeroDivisionError("v and s must be nonzero")
    dval = _eval_poly(c.den, v0, s0)
    if dval == 0:
        raise ZeroDivisionError("pole at evaluation point")
    return _eval_poly(c.num, v0, s0) / dval


def series_exp(f: TruncSeries) -> TruncSeries:
    """exp of a series with constant term 0, as the sum of f^m / m!."""
    if f.coeffs[0] != f.coeffs[0].zero_like():
        raise ValueError("exp needs constant term 0")
    out = term = TruncSeries.one(f.coeffs[0], f.order)
    for m in range(1, f.order + 1):
        c = Scalar.from_fraction(1, m)
        term = TruncSeries([x.scale(c) for x in (term * f).coeffs])
        out = out + term
    return out


def from_p(coeffs) -> SymFunc:
    """sum of coeffs[lambda] p_lambda, each p_lambda a product of power sums."""
    out = SymFunc()
    for lam, c in coeffs.items():
        term = SymFunc.one()
        for m in lam:
            term = term * power_sum(m)
        out = out + term.scale(c)
    return out


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


def mat_mul(a: list[dict], b: list[dict]) -> list[dict]:
    """Product of two sparse square matrices, given as rows {column: entry}."""
    out = [dict() for _ in a]
    for r, row in enumerate(a):
        target = out[r]
        for k, c in row.items():
            for j, d in b[k].items():
                add_term(target, j, c * d)
    return out


def mat_identity(dim: int) -> list[dict]:
    return [{k: ONE} for k in range(dim)]


@cache
def seminormal_matrix(lam: tuple[int, ...], images: tuple[int, ...]) -> list[dict]:
    """Scalar matrix of w_pi: w_{pi s_i} times rho(sigma_i) for the last letter i."""
    word = word_of(images)
    if not word:
        return mat_identity(len(std_tableaux(lam)))
    i = word[-1]
    return mat_mul(seminormal_matrix(lam, right_gen(images, i)), rho(lam, i))


def seminormal_character(lam: tuple[int, ...], images: tuple[int, ...]) -> Scalar:
    """Trace of the Scalar matrix of w_pi on the shape lambda."""
    out = Scalar.from_int(0)
    for r, row in enumerate(seminormal_matrix(lam, images)):
        out = out + row.get(r, Scalar.from_int(0))
    return out


def basis_character(lam: tuple[int, ...], images: tuple[int, ...]) -> Scalar:
    """Character of w_pi on lambda: sum over mu of f_pi[mu] chi_lambda(w_mu)."""
    out = Scalar.from_int(0)
    for mu, f in _class_poly(images).items():
        out = out + Scalar(f * _class_character(lam, mu), _L_ONE)
    return out


def character_by_basis(x: HeckeElt, lam: tuple[int, ...]) -> Scalar:
    """Character of x on lambda, summed term by term over its basis braids."""
    out = Scalar.from_int(0)
    for p, c in x.terms.items():
        out = out + c * basis_character(lam, p.images)
    return out


def iadd_poly(acc: dict, k: IntLaurent, nums: dict) -> None:
    """acc += k nums on IntLaurent numerators, dropping zeros as it goes."""
    if k.is_zero():
        return
    for im, c in nums.items():
        add_term(acc, im, c * k)


def rmul_gen_poly(terms: dict, i: int, sign: int) -> dict:
    """Right multiply IntLaurent numerators by sigma_i^{sign}, into a new map."""
    out: dict = {}
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


def lmul_gen_poly(terms: dict, i: int) -> dict:
    """Left multiply IntLaurent numerators by sigma_i, into a new map."""
    out: dict = {}
    for im, c in terms.items():
        add_term(out, left_gen(im, i), c)
        if im.index(i) > im.index(i + 1):
            add_term(out, im, c * _Z)
    return out


def rmul_word_by_terms(x: HeckeElt, word) -> HeckeElt:
    """x times the signed braid word, one new numerator map per letter."""
    nums = x.nums
    for i in word:
        nums = rmul_gen_poly(nums, abs(i), 1 if i > 0 else -1)
    return _elt(x.n, nums, x.den)


def product_by_words(x: HeckeElt, y: HeckeElt) -> HeckeElt:
    """x * y, walking the whole canonical word of every braid of y from x."""
    acc: dict = {}
    for rho, c in y.nums.items():
        cur = x.nums
        for i in word_of(rho):
            cur = rmul_gen_poly(cur, i, +1)
        iadd_poly(acc, c, cur)
    return _elt(x.n, *normal_form(acc, x.den * y.den))


def is_central_by_terms(x: HeckeElt) -> bool:
    """x sigma_i == sigma_i x for every generator, one new map per side."""
    return all(
        rmul_gen_poly(x.nums, i, +1) == lmul_gen_poly(x.nums, i) for i in range(1, x.n)
    )


@cache
def mirror_basis_by_terms(images: tuple[int, ...]) -> dict:
    """The crossing-switched w_pi: that of w_{pi s_i} times sigma_i^{-1}."""
    word = word_of(images)
    if not word:
        return {images: _L_ONE}
    i = word[-1]
    return rmul_gen_poly(mirror_basis_by_terms(right_gen(images, i)), i, -1)


def mirror_by_terms(x: HeckeElt) -> HeckeElt:
    """The mirror of x, summed over the mirrored basis braids."""
    acc: dict = {}
    for images, c in x.nums.items():
        iadd_poly(acc, c.mirror(), mirror_basis_by_terms(images))
    return _elt(x.n, *normal_form(acc, x.den.mirror()))


def loop_sum_horner(x: HeckeElt, j: int, t: int) -> Scalar:
    """v^t tr(x) / delta^j: the grades K_l summed by Horner's rule in 1 - v^2.

    num <- num (1 - v^2) + K_l z^(n-l) from l = n down to j, over z^(n-j) x.den.
    """
    n = x.n
    grades = x.pair(_trace_loops)
    ks = [grades.get(l, IntLaurent()) for l in range(j, n + 1)]
    num, z_pow = ks.pop(), _L_ONE
    for k in reversed(ks):
        z_pow = z_pow * _Z
        num = num - num.shift(2, 0) + k * z_pow
    return Scalar(num.shift(t + j - n, 0), z_pow * x.den)


def ev_sym_over_lcm(f: SymFunc) -> Scalar:
    """ev_sym with each term c prod _h_trace(k) its own fraction, over the lcm of all."""
    fracs = []
    for parts, c in f.terms.items():
        num, den = c.num, c.den
        for k in parts:
            h = _h_trace(k)
            num, den = num * h.num, den * h.den
        fracs.append((num, den))
    nums, den = over_lcm(fracs)
    return Scalar(sum(nums, IntLaurent()), den)


def murphy_T_dense(j: int, n: int) -> HeckeElt:
    """T(j) = sigma_{j-1} ... sigma_1 sigma_1 ... sigma_{j-1} in H_n."""
    return word_elt(n, [*range(j - 1, 0, -1), *range(1, j)])


def power_sum_T_dense(m: int, n: int) -> HeckeElt:
    """T(1)^m + ... + T(n)^m by repeated dense products."""
    out = HeckeElt(n)
    for j in range(1, n + 1):
        t = murphy_T_dense(j, n)
        p = t
        for _ in range(m - 1):
            p = p * t
        out = out + p
    return out


@cache
def psi_power_dense(n: int, m: int) -> HeckeElt:
    """psi_n(P_m) = psi_0(P_m) + (s^m - s^-m) v^-m sum_j T(j)^m."""
    base = HeckeElt.scalar(n, ev_sym(power_sum(m)))
    if n == 0:
        return base
    factor = (s_pow(m) - s_pow(-m)) * v_pow(-m)
    return base + power_sum_T_dense(m, n).scale(factor)


def psi_dense(n: int, f) -> HeckeElt:
    """psi_n(f) as a sum of dense products of the psi_n(P_m)."""
    out = HeckeElt(n)
    for parts, c in to_p(f).items():
        term = HeckeElt.scalar(n, c)
        for m in parts:
            term = term * psi_power_dense(n, m)
        out = out + term
    return out


def murphy_series_dense(n: int, order: int) -> TruncSeries:
    """HM(t) = prod_j 1/(1 - T(j) t) as a product of geometric series."""
    out = TruncSeries.one(HeckeElt.identity(n), order)
    for j in range(1, n + 1):
        out = out * geometric(murphy_T_dense(j, n), order)
    return out


def elem_murphy_series_dense(n: int, order: int) -> TruncSeries:
    """EM(t) = prod_j (1 + T(j) t) as a product of two-term series."""
    out = TruncSeries.one(HeckeElt.identity(n), order)
    for j in range(1, n + 1):
        out = out * TruncSeries([HeckeElt.identity(n), murphy_T_dense(j, n)], order)
    return out


def murphy_series_times_dense(n: int, f: TruncSeries, a, b) -> TruncSeries:
    """f(t) HM(b t) / HM(a t) over H_n, by series products and inverse."""
    lifted = TruncSeries([HeckeElt.scalar(n, c) for c in f.coeffs])
    hm = murphy_series_dense(n, f.order)
    return lifted * hm.scale_t(b) * hm.scale_t(a).inverse()


def content_of(t, entry: int) -> int:
    """The content column - row of the cell of tableau t that holds entry."""
    r, c = tableau_positions(t)[entry]
    return c - r


def psi_eigen_check(n: int, f: SymFunc, parts) -> bool:
    """Cross-check the eigenvalue of psi(n, f) on the shape lambda.

    The left side runs through the representation machinery; the right side
    substitutes P_m -> psi_0(P_m) + (s^m - s^{-m}) v^{-m} sum s^{2m*content},
    summed over the cells of lambda (content c - r in column c, row r),
    directly into the power-sum expansion of f.
    """
    lam = check_partition(parts)
    if sum(lam) != n:
        raise ValueError(f"|lambda| = {sum(lam)} but n = {n}")
    lhs = central_scalar(psi(n, f), lam)
    contents = [c - r for r, row in enumerate(lam) for c in range(row)]
    rhs = Scalar.from_int(0)
    for p, c in to_p(f).items():
        val = c
        for m in p:
            csum = Scalar.from_int(0)
            for k in contents:
                csum = csum + s_pow(2 * m * k)
            val = val * (
                ev_sym(power_sum(m)) + (s_pow(m) - s_pow(-m)) * v_pow(-m) * csum
            )
        rhs = rhs + val
    return lhs == rhs


def word_to_perm(n: int, word: list[int]) -> Perm:
    """Product of adjacent transpositions s_{w_1} ... s_{w_k} in S_n."""
    images = tuple(range(1, n + 1))
    for i in word:
        if not (1 <= i <= n - 1):
            raise ValueError(f"generator index {i} out of range for S_{n}")
        images = right_gen(images, i)
    return Perm(images)


def coxeter_rep(parts: tuple[int, ...]) -> tuple[int, ...]:
    """One-line images of the product of the blocks' Coxeter elements.

    The blocks are consecutive runs of parts[0], parts[1], ... strands, and
    the block on strands a..a+m-1 contributes s_{a+m-2} ... s_a, an m-cycle.
    The product has cycle type parts and length sum(parts) - len(parts), the
    least in its conjugacy class.
    """
    word, a = [], 1
    for m in parts:
        word += range(a + m - 2, a - 1, -1)
        a += m
    return word_to_perm(a - 1, word).images


def compose(a: Perm, b: Perm) -> Perm:
    """The product a * b, acting as a after b: (a*b)(i) = a(b(i))."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    im_a = a.images
    return Perm(tuple(im_a[j - 1] for j in b.images))


def inversions(a: Perm) -> int:
    """The inversion count of a, which is its Coxeter length."""
    return sum(1 for i, j in combinations(a.images, 2) if i > j)


def inverse(a: Perm) -> Perm:
    out = [0] * a.n
    for i, v in enumerate(a.images):
        out[v - 1] = i + 1
    return Perm(tuple(out))


def rescale(x: HeckeElt, x_param: Scalar) -> HeckeElt:
    """Writhe rescaling: w_pi -> x^{l(pi)} w_pi termwise."""
    return HeckeElt(x.n, {p: c * x_param ** length(p) for p, c in x.terms.items()})


def parse_element(text: str) -> SymFunc:
    """Parse the CLI element grammar into an annulus-ring element.

    Factors separated by '*': integers, h<k>, e<k>, p<k>, or s(l1,l2,...).
    """
    return build_element(parse_factors(text))


def memo_tables() -> list:
    """Every memo table of the package, once each."""
    import heckeskein.cli  # noqa: F401  (loads every module)

    tables = {}
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "heckeskein":
            for value in vars(mod).values():
                if hasattr(value, "cache_info"):
                    tables[id(value)] = value
    return list(tables.values())


def memo_clear() -> None:
    """Empty every memo table of the package."""
    for table in memo_tables():
        table.cache_clear()
