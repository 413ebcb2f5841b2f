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

A character is a trace function, so one minimal-length braid per conjugacy
class fixes it (Geck & Pfeiffer, Adv. Math. 102 (1993) 79-94): the class
polynomials f_pi, found by conjugating pi by generators, give
chi(w_pi) = sum over mu of f_pi[mu](z) chi(w_mu), where w_mu is the product
of the Coxeter elements of mu's blocks.  One pairing of x with the class
polynomials (HeckeElt.pair, keyed by mu) gives the class coordinates
K_mu(x) = sum over pi of x_pi f_pi[mu](z), and every character of x is
sum over mu of K_mu chi(w_mu): closure_schur computes K once for all
shapes, and only the chi(w_mu) with K_mu nonzero are looked up.

The characters chi_lambda(w_mu), Laurent polynomials in s cached per
(lambda, mu), come from the q-Murnaghan-Nakayama rule (Ram, Invent. Math.
106 (1991) 461-488) and need no matrix.  With T = s sigma, so that
(T - q)(T + 1) = 0 for q = s^2, a block of k strands is a word of k - 1
letters, and peeling the last part k of mu gives
chi_lambda(w_mu) = sum over nu of wt(lambda/nu) s^(1-k) chi_nu(w_mu'),
chi of the empty shape being 1.  The sum runs over the nu inside lambda for
which lambda/nu has k cells and no 2x2 block; with rows its nonempty rows
and links the pairs of adjacent rows that share a column,
wt = (-1)^links q^(k - rows) (q - 1)^(rows - links - 1).

A central element acts on each irreducible module by a scalar (Schur's
lemma), so central_scalar is its character over the dimension.  rho and
rep_of, the seminormal matrices, are a reference for the tests: no
character or central scalar is computed from them.

Closure into the annulus ring is the character-weighted sum of Schur
functions, so the Schur coordinates of a closure are its characters
(closure_schur) and need no conversion out of the h basis; compatibility
with the Markov trace is an independent check.
"""

from __future__ import annotations

from typing import Iterator

from .coeff import ONE, IntLaurent, Scalar, add_term, dot, memo, s_pow, z
from .hecke import HeckeElt
from .perm import MAX_PERM_N, cycle_type, left_gen, right_gen, word_of
from .symfun import Partition, SymFunc, check_partition, from_schur

Tableau = tuple[tuple[int, ...], ...]
Matrix = list[dict[int, Scalar]]

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


def rho(parts, i: int) -> Matrix:
    """The seminormal matrix of sigma_i on shape lambda."""
    lam = check_partition(parts)
    n = sum(lam)
    if not (1 <= i <= n - 1):
        raise ValueError(f"generator index {i} out of range for |lambda| = {n}")
    tabs = std_tableaux(lam)
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


def rep_of(x: HeckeElt, parts) -> Matrix:
    """Matrix of x on the shape lambda (|lambda| = strand count).

    The reference route: each term is c times the product of rho(lambda, i)
    along the reduced word of pi.  No library path calls it.
    """
    lam = check_partition(parts)
    if sum(lam) != x.n:
        raise ValueError(f"|lambda| = {sum(lam)} but x lives in H_{x.n}")
    gens = {i: rho(lam, i) for i in range(1, x.n)}
    dim = len(std_tableaux(lam))
    acc: Matrix = [dict() for _ in range(dim)]
    for p, c in x.terms.items():
        rows: Matrix = [{k: c} for k in range(dim)]
        for i in word_of(p.images):
            out: Matrix = [dict() for _ in rows]
            for target, row in zip(out, rows):
                for k, e in row.items():
                    for j, g in gens[i][k].items():
                        add_term(target, j, e * g)
            rows = out
        for target, row in zip(acc, rows):
            for j, e in row.items():
                add_term(target, j, e)
    return acc


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
    """Character of the minimal braid w_mu on shape lambda, by Ram's rule."""
    if not mu:
        return _ONE_POLY
    k, rest = mu[-1], mu[:-1]
    wts, chars = [], []
    for nu in _broken_strips(lam, k):
        rows = sum(part > v for part, v in zip(lam, nu))
        links = sum(lam[i] - nu[i - 1] == 1 for i in range(1, len(lam)))
        # (-1)^links q^(k - rows) (q - 1)^(rows - links - 1) s^(1 - k), q = s^2
        wt = Scalar.monomial((-1) ** links, 0, k + 1 - 2 * rows)
        wt = wt * (s_pow(2) - ONE) ** (rows - links - 1)
        wts.append(wt.num)
        chars.append(_class_character(tuple(v for v in nu if v), rest))
    return dot(wts, chars)


def _broken_strips(lam: Partition, k: int, i: int = 0) -> Iterator[tuple[int, ...]]:
    """Rows i onward of each nu inside lam with |lam/nu| = k and no 2x2 block.

    Rows i and i+1 of lam/nu share lam[i+1] - nu[i] columns, so two or more
    shared columns (a 2x2 block) are ruled out by nu[i] >= lam[i+1] - 1.
    """
    if i == len(lam):
        if k == 0:
            yield ()
        return
    below = lam[i + 1] if i + 1 < len(lam) else 0
    for v in range(max(below - 1, lam[i] - k, 0), lam[i] + 1):
        for tail in _broken_strips(lam, k - lam[i] + v, i + 1):
            if not tail or tail[0] <= v:
                yield (v,) + tail


def _class_coordinates(x: HeckeElt) -> dict[Partition, IntLaurent]:
    """K_mu(x) = sum over pi of nums[pi] f_pi[mu](z), numerators over x.den, zeros omitted.

    Every character of x is sum over mu of K_mu chi(w_mu) over x.den.
    """
    coords = x.pair(lambda images: _class_poly(images).items())
    return {mu: k for mu, k in coords.items() if not k.is_zero()}


def _character_num(coords: dict[Partition, IntLaurent], lam: Partition) -> IntLaurent:
    """The numerator of chi_lambda(x): sum over mu of K_mu chi_lambda(w_mu)."""
    return dot(coords.values(), [_class_character(lam, mu) for mu in coords])


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
    """The scalar by which a central element acts on the shape lambda.

    By Schur's lemma it is the character over the dimension.
    """
    lam = check_partition(parts)
    if not x.is_central():
        raise ValueError("element is not central")
    return character(x, lam) * Scalar.from_fraction(1, len(std_tableaux(lam)))
