"""Young seminormal representations of the Hecke algebra, and the closure map.

The irreducible module for a partition lambda has a basis of standard
tableaux.  A generator sigma_i acts on a tableau t through the positions of
i and i+1:

* same row: the diagonal entry s (forced by the row quasi-idempotent),
* same column: the diagonal entry -s^{-1},
* otherwise a 2x2 block on {t, t'} (t' swaps i and i+1) with trace z and
  determinant -1, whose diagonal is alpha = z / (1 - s^{-2d}) and z - alpha,
  d being the content difference of i+1 and i in t.  The upper off-diagonal
  entry is normalized to 1, which keeps everything inside the fraction
  field; characters do not depend on that choice.

The construction is pinned by two computational facts checked in the test
suite: the defining braid/quadratic relations hold, and every Murphy braid
T(j) acts diagonally with eigenvalues s^(2 * content of the cell of j).

A character is the linear functional sending w_pi to the trace of its
matrix.  Characters are trace functions, so one minimal-length braid per
conjugacy class fixes them (Geck & Pfeiffer, Adv. Math. 102 (1993) 79-94):
the class polynomials f_pi, found by conjugating pi by generators, give
chi(w_pi) = sum over mu of f_pi[mu](z) chi(w_mu), where w_mu is the product
of the Coxeter elements of mu's blocks.  Only the p(n) braids w_mu take
their characters from seminormal matrices; those characters are Laurent
polynomials in s, cached per (lambda, mu).  One pairing of x with the class
polynomials (HeckeElt.pair, keyed by mu) gives the class coordinates
K_mu(x) = sum over pi of x_pi f_pi[mu](z), and every character of x is
sum over mu of K_mu chi(w_mu): closure_schur computes K once for all
shapes, and only the chi(w_mu) with K_mu nonzero are looked up.

The matrices that remain (of the w_mu and their prefixes, and rep_of's for
central_scalar) are integer Laurent numerators over one denominator: a
product of generator numerators along a reduced word, reduced once at the
end rather than by a gcd per entry product.

Closure into the annulus ring is the character-weighted sum of Schur
functions, so the Schur coordinates of a closure are its characters
(closure_schur) and need no conversion out of the h basis; compatibility
with the Markov trace is an independent check.
"""

from __future__ import annotations

from typing import Iterator

from .coeff import ONE, IntLaurent, Scalar, add_term, memo, mul_into, over_lcm, s_pow, z
from .hecke import HeckeElt
from .perm import MAX_PERM_N, coxeter_rep, cycle_type, left_gen, right_gen, word_of
from .symfun import Partition, SymFunc, check_partition, from_schur

Tableau = tuple[tuple[int, ...], ...]
Matrix = list[dict[int, Scalar]]
NumMatrix = list[dict[int, IntLaurent]]

_ZERO_POLY = IntLaurent()
_ONE_POLY = IntLaurent.from_int(1)
_Z = z().num


@memo
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, largest-first within lex order."""
    if n > MAX_PERM_N:
        raise ValueError(f"n = {n} exceeds the partition bound {MAX_PERM_N}")
    return tuple(_partitions(n, n))


def _partitions(n: int, cap: int) -> Iterator[Partition]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@memo
def std_tableaux(parts: Partition) -> tuple[Tableau, ...]:
    """All standard tableaux of the given shape, in a fixed order."""
    lam = check_partition(parts)
    if sum(lam) > MAX_PERM_N:
        raise ValueError(f"|lambda| = {sum(lam)} exceeds the bound {MAX_PERM_N}")
    n = sum(lam)
    out: list[Tableau] = []

    def grow(filling: list[list[int]], entry: int):
        if entry > n:
            out.append(tuple(tuple(row) for row in filling))
            return
        for r in range(len(lam)):
            c = len(filling[r])
            if c >= lam[r]:
                continue
            if r > 0 and len(filling[r - 1]) <= c:
                continue
            filling[r].append(entry)
            grow(filling, entry + 1)
            filling[r].pop()

    grow([[] for _ in lam], 1)
    return tuple(out)


def tableau_positions(t: Tableau) -> dict[int, tuple[int, int]]:
    """entry -> (row, col), 0-based."""
    return {v: (r, c) for r, row in enumerate(t) for c, v in enumerate(row)}


def content_of(t: Tableau, entry: int) -> int:
    r, c = tableau_positions(t)[entry]
    return c - r


@memo
def _gen_matrix(parts: Partition, i: int) -> Matrix:
    tabs = std_tableaux(parts)
    index = {t: k for k, t in enumerate(tabs)}
    dim = len(tabs)
    rows: Matrix = [dict() for _ in range(dim)]
    s = s_pow(1)
    neg_s_inv = -s_pow(-1)
    zz = z()
    for k, t in enumerate(tabs):
        pos = tableau_positions(t)
        r1, c1 = pos[i]
        r2, c2 = pos[i + 1]
        if r1 == r2:
            rows[k][k] = s
        elif c1 == c2:
            rows[k][k] = neg_s_inv
        else:
            t2 = _swap_entries(t, i)
            k2 = index[t2]
            if k < k2:
                d = (c2 - r2) - (c1 - r1)
                alpha = zz / (ONE - s_pow(-2 * d))
                rows[k][k] = alpha
                rows[k2][k2] = zz - alpha
                rows[k][k2] = ONE
                rows[k2][k] = alpha * (zz - alpha) + ONE
    return rows


def _swap_entries(t: Tableau, i: int) -> Tableau:
    swap = {i: i + 1, i + 1: i}
    return tuple(tuple(swap.get(v, v) for v in row) for row in t)


def rho(parts, i: int) -> Matrix:
    """The seminormal matrix of sigma_i on shape lambda (cached; do not mutate)."""
    lam = check_partition(parts)
    n = sum(lam)
    if not (1 <= i <= n - 1):
        raise ValueError(f"generator index {i} out of range for |lambda| = {n}")
    return _gen_matrix(lam, i)


# -- matrices over one denominator ---------------------------------------------


@memo
def _gen_nums(lam: Partition, i: int) -> tuple[NumMatrix, IntLaurent]:
    """rho(lam, i) as integer numerators over the lcm of its denominators."""
    rows = rho(lam, i)
    flat, den = over_lcm((c.num, c.den) for row in rows for c in row.values())
    entries = iter(flat)
    return [{j: next(entries) for j in row} for row in rows], den


@memo
def _basis_matrix(lam: Partition, images: tuple[int, ...]) -> tuple[NumMatrix, IntLaurent]:
    """Matrix of the permutation braid w_pi as numerators over one denominator.

    Built along the reduced word, w_pi = w_{pi s_i} sigma_i for its last
    letter i: numerators times the generator's numerators, denominators
    multiplied, no gcd.
    """
    word = word_of(images)
    if not word:
        return [{k: _ONE_POLY} for k in range(len(std_tableaux(lam)))], _ONE_POLY
    i = word[-1]
    rows, den = _basis_matrix(lam, right_gen(images, i))
    gen, gen_den = _gen_nums(lam, i)
    out: NumMatrix = [dict() for _ in rows]
    for target, row in zip(out, rows):
        for k, c in row.items():
            for j, d in gen[k].items():
                add_term(target, j, c * d)
    return out, den * gen_den


def rep_of(x: HeckeElt, parts) -> Matrix:
    """Matrix of x on the shape lambda (|lambda| = strand count).

    The terms are summed as numerators over one denominator, the product of
    two lcms: of the coefficients' denominators and of the matrices', which
    lie in Z[s].  Each entry is reduced once by the matrices' lcm, then
    divided by the coefficients', so no gcd meets both at once.
    """
    lam = check_partition(parts)
    if sum(lam) != x.n:
        raise ValueError(f"|lambda| = {sum(lam)} but x lives in H_{x.n}")
    terms = [(c, *_basis_matrix(lam, p.images)) for p, c in x.terms.items()]
    c_nums, c_den = over_lcm((c.num, c.den) for c, _, _ in terms)
    m_nums, m_den = over_lcm((_ONE_POLY, d) for _, _, d in terms)
    acc: NumMatrix = [dict() for _ in range(len(std_tableaux(lam)))]
    for (_, rows, _), kc, km in zip(terms, c_nums, m_nums):
        k = kc * km
        for target, row in zip(acc, rows):
            for j, e in row.items():
                add_term(target, j, e * k)
    inv = Scalar(_ONE_POLY, c_den)
    return [{j: Scalar(e, m_den) * inv for j, e in row.items()} for row in acc]


# -- characters from class polynomials ----------------------------------------


@memo
def _class_poly(images: tuple[int, ...]) -> dict[Partition, IntLaurent]:
    """Class polynomial f of w_pi: chi(w_pi) = sum of f[mu] chi(w_mu) for each character.

    The search walks the conjugates s_i p s_i of pi's length.  Those share
    every character.  Once some q = s_i p s_i is two shorter, w_p =
    sigma_i w_q sigma_i, and cyclicity with sigma_i^2 = 1 + z sigma_i gives
    f = f_q + z f_{q s_i}.  If none is, pi has minimal length in its class
    (Geck & Pfeiffer), which has cycle type mu, and f = {mu: 1}.
    """
    n = len(images)
    target = len(word_of(images))
    seen, queue = {images}, [images]
    for p in queue:
        for i in range(1, n):
            q = left_gen(right_gen(p, i), i)
            length = len(word_of(q))
            if length < target:
                out = dict(_class_poly(q))
                for mu, f in _class_poly(right_gen(q, i)).items():
                    add_term(out, mu, f * _Z)
                return out
            if length == target and q not in seen:
                seen.add(q)
                queue.append(q)
    mu = cycle_type(images)
    if target != n - len(mu):
        raise ArithmeticError(
            f"w{images} has no shorter conjugate, but its length {target} "
            f"is not minimal for cycle type {mu}"
        )
    return {mu: _ONE_POLY}


@memo
def _class_character(lam: Partition, mu: Partition) -> IntLaurent:
    """Character of the minimal braid w_mu on shape lambda, a polynomial in s."""
    rows, den = _basis_matrix(lam, coxeter_rep(mu))
    trace = _ZERO_POLY
    for r, row in enumerate(rows):
        trace = trace + row.get(r, _ZERO_POLY)
    value = Scalar(trace, den)
    if not value.den.is_one():
        raise ArithmeticError(
            f"character of w_{mu} on {lam} is not a polynomial: {value!r}"
        )
    return value.num


def _class_coordinates(x: HeckeElt) -> dict[Partition, IntLaurent]:
    """K_mu(x) = sum over pi of nums[pi] f_pi[mu](z), numerators over x.den, zeros omitted.

    Every character of x is sum over mu of K_mu chi(w_mu) over x.den.
    """
    coords = x.pair(lambda images: _class_poly(images).items())
    return {mu: k for mu, k in coords.items() if not k.is_zero()}


def _character_num(coords: dict[Partition, IntLaurent], lam: Partition) -> IntLaurent:
    """The numerator of chi_lambda(x): sum over mu of K_mu chi_lambda(w_mu)."""
    acc: dict[tuple[int, int], int] = {}
    for mu, k in coords.items():
        mul_into(acc, k, _class_character(lam, mu))
    return IntLaurent(acc)


def character(x: HeckeElt, parts) -> Scalar:
    """Trace of x in the irreducible module of shape lambda."""
    lam = check_partition(parts)
    if sum(lam) != x.n:
        raise ValueError(f"|lambda| = {sum(lam)} but x lives in H_{x.n}")
    return Scalar(_character_num(_class_coordinates(x), lam), x.den)


def closure_schur(x: HeckeElt) -> dict[Partition, Scalar]:
    """Schur coordinates of the closure of x: {lambda: character}, zeros omitted.

    closure(E_lambda) is the Schur function s_lambda, so the coefficient of
    s_lambda in closure(x) is the character of x on lambda.  The class
    coordinates of x are computed once for all shapes.
    """
    coords = _class_coordinates(x)
    out = {}
    for lam in partitions_of(x.n):
        num = _character_num(coords, lam)
        if not num.is_zero():
            out[lam] = Scalar(num, x.den)
    return out


def closure(x: HeckeElt) -> SymFunc:
    """Image of x in the annulus ring: sum over shapes of character * s_lambda.

    This is the trace-valued closure map; its compatibility with the Markov
    trace is verified independently in the trace module tests.
    """
    return from_schur(closure_schur(x))


def central_scalar(x: HeckeElt, parts) -> Scalar:
    """The scalar by which a central element acts on the shape lambda."""
    lam = check_partition(parts)
    if not x.is_central():
        raise ValueError("element is not central")
    m = rep_of(x, lam)
    dim = len(std_tableaux(lam))
    value = m[0].get(0, Scalar.from_int(0)) if dim else Scalar.from_int(0)
    for r, row in enumerate(m):
        for j, c in row.items():
            if r != j:
                raise ValueError("central element acted non-diagonally")
        if row.get(r, Scalar.from_int(0)) != value:
            raise ValueError("central element acted non-scalarly")
    return value
