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
matrix.  Those traces are Laurent polynomials in s, cached per basis braid,
and the character of x is their pairing with x (HeckeElt.pair).  Closure
into the annulus ring is the character-weighted sum of Schur functions, so
the Schur coordinates of a closure are its characters (closure_schur) and
need no conversion out of the h basis; compatibility with the Markov trace
is an independent check.
The encircling map on the annulus ring scales each Schur function s_lambda
by the scalar through which T^(n) acts on the shape lambda.
"""

from __future__ import annotations

from functools import cache, lru_cache
from typing import Iterator

from .coeff import ONE, ZERO, IntLaurent, Scalar, add_term, s_pow, z
from .hecke import HeckeElt, t_circle
from .perm import MAX_PERM_N, right_gen, word_of
from .symfun import Partition, SymFunc, check_partition, from_schur, to_schur

Tableau = tuple[tuple[int, ...], ...]
Matrix = list[dict[int, Scalar]]


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, largest-first within lex order."""
    if n > MAX_PERM_N:
        raise ValueError(f"n = {n} exceeds the partition bound {MAX_PERM_N}")
    yield from _partitions(n, n)


def _partitions(n: int, cap: int) -> Iterator[Partition]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


@lru_cache(maxsize=4096)
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


@lru_cache(maxsize=4096)
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


# -- sparse matrix helpers ----------------------------------------------------


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    out: Matrix = [dict() for _ in a]
    for r, row in enumerate(a):
        target = out[r]
        for k, c in row.items():
            for j, d in b[k].items():
                add_term(target, j, c * d)
    return out


def _mat_identity(dim: int) -> Matrix:
    return [{k: ONE} for k in range(dim)]


@cache
def _basis_matrix(lam: Partition, images: tuple[int, ...]) -> Matrix:
    """Matrix of the permutation braid w_pi, built along reduced words."""
    word = word_of(images)
    if not word:
        return _mat_identity(len(std_tableaux(lam)))
    # w_pi = w_{pi s_i} sigma_i for the last letter i of pi's reduced word
    i = word[-1]
    return _mat_mul(_basis_matrix(lam, right_gen(images, i)), rho(lam, i))


def rep_of(x: HeckeElt, parts) -> Matrix:
    """Matrix of x on the shape lambda (|lambda| = strand count)."""
    lam = check_partition(parts)
    if sum(lam) != x.n:
        raise ValueError(f"|lambda| = {sum(lam)} but x lives in H_{x.n}")
    dim = len(std_tableaux(lam))
    out: Matrix = [dict() for _ in range(dim)]
    for p, c in x.terms.items():
        m = _basis_matrix(lam, p.images)
        for r in range(dim):
            target = out[r]
            for j, d in m[r].items():
                add_term(target, j, c * d)
    return out


@cache
def _basis_character(lam: Partition, images: tuple[int, ...]) -> IntLaurent:
    """Trace of the permutation braid w_pi on shape lambda, a polynomial."""
    out = ZERO
    for r, row in enumerate(_basis_matrix(lam, images)):
        out = out + row.get(r, ZERO)
    if not out.den.is_one():
        raise ArithmeticError(
            f"character of w{images} on {lam} is not a polynomial: {out!r}"
        )
    return out.num


def character(x: HeckeElt, parts) -> Scalar:
    """Trace of x in the irreducible module of shape lambda."""
    lam = check_partition(parts)
    if sum(lam) != x.n:
        raise ValueError(f"|lambda| = {sum(lam)} but x lives in H_{x.n}")
    return x.pair(lambda images: _basis_character(lam, images))


def closure_schur(x: HeckeElt) -> dict[Partition, Scalar]:
    """Schur coordinates of the closure of x: {lambda: character}, zeros omitted.

    closure(E_lambda) is the Schur function s_lambda, so the coefficient of
    s_lambda in closure(x) is the character of x on lambda.
    """
    out = {}
    for lam in partitions_of(x.n):
        chi = character(x, lam)
        if not chi.is_zero():
            out[lam] = chi
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


def phi_apply(f: SymFunc, n: int) -> SymFunc:
    """The encircling map on the degree-n part: s_lambda -> t_lambda s_lambda."""
    if f.is_zero():
        return f
    if f.homogeneous_degree() != n:
        raise ValueError(f"phi needs a homogeneous element of degree {n}")
    tc = t_circle(n)
    return from_schur(
        {lam: c * central_scalar(tc, lam) for lam, c in to_schur(f).items()}
    )
