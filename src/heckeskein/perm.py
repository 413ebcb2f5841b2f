"""Symmetric-group combinatorics for the braid-basis calculus.

Permutations are stored in one-line notation with 1-based entries: the
image of i sits at position i.  Products compose right-to-left, so
(a * b)(i) = a(b(i)) and right multiplication by the adjacent transposition
s_i swaps the entries in positions i and i+1.

The canonical reduced word and the coset decomposition below implement the
"descending" normal form: every permutation factors uniquely as
u * s_{n-1} s_{n-2} ... s_k with u fixing n, and Coxeter lengths add.  That
normal form is what drives both braid-basis products and the trace
recursion.

>>> length(Perm((3, 2, 1)))
3
>>> reduced_word(Perm((3, 2, 1)))
[1, 2, 1]
>>> coset_decompose(Perm((3, 2, 1)))
(Perm((2, 1)), 1)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

MAX_PERM_N = 8


@dataclass(frozen=True)
class Perm:
    """A permutation of {1..n} in one-line notation."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __repr__(self) -> str:
        return f"Perm({self.images!r})"


@lru_cache(maxsize=64)
def identity(n: int) -> Perm:
    return Perm(tuple(range(1, n + 1)))


def length(a: Perm) -> int:
    """Coxeter length = inversion count = writhe of the permutation braid."""
    return _length(a.images)


@lru_cache(maxsize=65536)
def _length(images: tuple[int, ...]) -> int:
    count = 0
    for i, vi in enumerate(images):
        for vj in images[i + 1:]:
            if vi > vj:
                count += 1
    return count


def right_gen(images: tuple[int, ...], i: int) -> tuple[int, ...]:
    """One-line of pi * s_i (swap positions i, i+1; 1-based i)."""
    j = i - 1
    return images[:j] + (images[j + 1], images[j]) + images[j + 2:]


def left_gen(images: tuple[int, ...], i: int) -> tuple[int, ...]:
    """One-line of s_i * pi (swap the values i and i+1)."""
    swap = {i: i + 1, i + 1: i}
    return tuple(swap.get(v, v) for v in images)


def transposition(i: int, j: int, n: int) -> Perm:
    """The transposition exchanging strands i < j inside S_n."""
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= n, got ({i}, {j}, {n})")
    out = list(range(1, n + 1))
    out[i - 1], out[j - 1] = j, i
    return Perm(tuple(out))


def coset_decompose(a: Perm) -> tuple[Perm, int | None]:
    """Factor a = u * s_{n-1} s_{n-2} ... s_k with u in S_{n-1}.

    Returns (u, None) when a fixes n (then u is a restricted to the first
    n-1 strands) and (u, k) otherwise; lengths are additive either way.
    """
    n = a.n
    if n == 0:
        return a, None
    k = a.images.index(n) + 1
    rest = tuple(v for v in a.images if v != n)
    u = Perm(rest)
    if k == n:
        return u, None
    return u, k


def reduced_word(a: Perm) -> list[int]:
    """The canonical reduced word for a, by descending coset decomposition."""
    if a.n == 0:
        return []
    u, k = coset_decompose(a)
    head = list(word_of(u.images))
    if k is None:
        return head
    return head + list(range(a.n - 1, k - 1, -1))


@lru_cache(maxsize=65536)
def word_of(images: tuple[int, ...]) -> tuple[int, ...]:
    """The canonical reduced word of the permutation with these images."""
    return tuple(reduced_word(Perm(images)))


def word_to_perm(n: int, word: list[int]) -> Perm:
    """Product of adjacent transpositions s_{w_1} ... s_{w_k} in S_n."""
    images = tuple(range(1, n + 1))
    for i in word:
        if not (1 <= i <= n - 1):
            raise ValueError(f"generator index {i} out of range for S_{n}")
        images = right_gen(images, i)
    return Perm(images)


def all_perms(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic one-line order."""
    if n > MAX_PERM_N:
        raise ValueError(f"n = {n} exceeds the permutation bound {MAX_PERM_N}")
    for images in itertools.permutations(range(1, n + 1)):
        yield Perm(images)
