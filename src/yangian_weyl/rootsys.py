"""Cartan data for the classical families A, B, C, D and for G2.

Weights are integer vectors in fundamental-weight coordinates throughout;
roots are integer vectors in the simple-root basis.  Positive roots are
generated from the Cartan matrix alone, as the reflection closure of the
simple roots.

Per-type tables, here and in weylpath, criteria and dims, are pure
functions of the validated LieType and are cached on it, so no table
rebuilds the type or repeats its validation.  `lie_type`, the one place
that builds a LieType, issues the D3 warning at its caller's line.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Tuple

Weight = Tuple[int, ...]
Root = Tuple[int, ...]

FAMILIES = ("A", "B", "C", "D", "G2")


@dataclass(frozen=True)
class LieType:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        minimum = {"A": 1, "B": 2, "C": 2, "D": 3, "G2": 2}[self.family]
        if self.rank < minimum:
            raise ValueError(f"{self.family} requires rank >= {minimum}")
        if self.family == "G2" and self.rank != 2:
            raise ValueError("G2 has rank 2")

    def __str__(self):
        return self.family if self.family == "G2" else f"{self.family}{self.rank}"

    def check_node(self, i: int):
        if not 1 <= i <= self.rank:
            raise ValueError(f"node {i} out of range for {self}")


def lie_type(family: str, rank: int | None = None) -> LieType:
    if family == "G2" and rank is None:
        rank = 2
    if rank is None:
        raise ValueError("rank required")
    t = LieType(family, rank)
    if family == "D" and rank == 3:
        warnings.warn(
            "D with rank 3 is accepted (it is A3 relabelled) but the "
            "series formulas assume rank >= 4",
            stacklevel=2,
        )
    return t


@dataclass(frozen=True)
class CartanDatum:
    lie_type: LieType
    cartan: Tuple[Tuple[int, ...], ...]
    d: Tuple[int, ...]


def _tridiagonal(l: int) -> list[list[int]]:
    m = [[0] * l for _ in range(l)]
    for i in range(l):
        m[i][i] = 2
        if i + 1 < l:
            m[i][i + 1] = -1
            m[i + 1][i] = -1
    return m


@lru_cache(maxsize=None)
def cartan_datum(t: LieType) -> CartanDatum:
    family, l = t.family, t.rank
    if family == "G2":  # node 1 is the long root, node 2 the short one
        return CartanDatum(t, ((2, -1), (-3, 2)), (3, 1))
    cartan = _tridiagonal(l)
    if family == "A":
        d = (1,) * l
    elif family == "B":
        cartan[l - 1][l - 2] = -2
        # Symmetrizer convention for the odd orthogonal family; deliberately
        # not the coprime-minimal choice.
        d = (2,) * (l - 1) + (1,)
    elif family == "C":
        cartan[l - 2][l - 1] = -2
        d = (1,) * (l - 1) + (2,)
    else:  # D
        cartan[l - 2][l - 1] = 0
        cartan[l - 1][l - 2] = 0
        cartan[l - 3][l - 1] = -1
        cartan[l - 1][l - 3] = -1
        d = (1,) * l
    return CartanDatum(t, tuple(tuple(row) for row in cartan), d)


def fundamental_weight(t: LieType, i: int) -> Weight:
    t.check_node(i)
    return tuple(1 if j == i - 1 else 0 for j in range(t.rank))


def simple_root_in_weights(t: LieType, i: int) -> Weight:
    """alpha_i in fundamental-weight coordinates: the i-th Cartan column."""
    t.check_node(i)
    cartan = cartan_datum(t).cartan
    return tuple(cartan[j][i - 1] for j in range(t.rank))


def reflect(t: LieType, w: Weight, i: int) -> Weight:
    """Simple reflection s_i(w) = w - w_i * alpha_i."""
    t.check_node(i)
    c = w[i - 1]
    if c == 0:
        return tuple(w)
    alpha = simple_root_in_weights(t, i)
    return tuple(wj - c * aj for wj, aj in zip(w, alpha))


def reflect_root(t: LieType, root: Root, i: int) -> Root:
    """s_i acting on a vector in the simple-root basis."""
    t.check_node(i)
    row = cartan_datum(t).cartan[i - 1]
    pairing = sum(a * c for a, c in zip(row, root))
    return tuple(
        c - pairing if j == i - 1 else c for j, c in enumerate(root)
    )


@lru_cache(maxsize=None)
def longest_word(t: LieType) -> Tuple[int, ...]:
    """A reduced expression for the longest Weyl group element.

    The sequence is read as a product of simple reflections; apply_word
    applies the rightmost factor first.
    """
    family, l = t.family, t.rank
    word: list[int] = []
    if family == "A":
        for k in range(l):
            word.extend(range(l - k, l + 1))
    elif family in ("B", "C"):
        for k in range(l):
            word.extend(range(l - k, l))
            word.append(l)
            word.extend(range(l - 1, l - k - 1, -1))
    elif family == "D":
        word = [l, l - 1]
        for k in range(2, l):
            word.extend(range(l - k, l - 1))
            word.extend([l, l - 1])
            word.extend(range(l - 2, l - k - 1, -1))
    else:
        word = [1, 2, 1, 2, 1, 2]
    return tuple(word)


def apply_word(t: LieType, word, w: Weight) -> Weight:
    for i in reversed(tuple(word)):
        w = reflect(t, w, i)
    return w


@lru_cache(maxsize=None)
def node_involution(t: LieType) -> Tuple[int, ...]:
    """The permutation i -> -w0(i), as a tuple indexed by node-1.

    Each fundamental weight goes through the longest word (l^2 letters)
    sparsely: a letter s_k subtracts w_k times the nonzero entries of
    alpha_k, the k-th Cartan column, and a letter with w_k = 0 is skipped.
    """
    cartan = cartan_datum(t).cartan
    columns = [
        [(j, row[k]) for j, row in enumerate(cartan) if row[k]] for k in range(t.rank)
    ]
    word = longest_word(t)[::-1]  # the rightmost letter acts first
    nu = []
    for i in all_nodes(t):
        w = [0] * t.rank
        w[i - 1] = 1
        for k in word:
            c = w[k - 1]
            if c:
                for j, a in columns[k - 1]:
                    w[j] -= c * a
        support = [j for j, c in enumerate(w, 1) if c]
        if len(support) != 1 or w[support[0] - 1] != -1:
            raise RuntimeError(
                f"longest word of {t} does not send node {i} to minus a "
                "fundamental weight; word table is broken"
            )
        nu.append(support[0])
    return tuple(nu)


def duality_shift(t: LieType) -> Fraction:
    """Half the dual Coxeter number; the parameter shift of the left dual."""
    l = t.rank
    return {
        "A": Fraction(l + 1, 2),
        "B": Fraction(2 * l - 1, 2),
        "C": Fraction(l + 1, 2),
        "D": Fraction(l - 1),
        "G2": Fraction(2),
    }[t.family]


@lru_cache(maxsize=None)
def positive_roots(t: LieType) -> Tuple[Root, ...]:
    simple = [tuple(int(j == i) for j in range(t.rank)) for i in range(t.rank)]
    found = set(simple)
    frontier = list(simple)
    while frontier:
        root = frontier.pop()
        for i in all_nodes(t):
            image = reflect_root(t, root, i)
            if is_positive_root_vector(image) and image not in found:
                found.add(image)
                frontier.append(image)
    return tuple(sorted(found, key=lambda r: (sum(r), r)))


def is_positive_root_vector(root: Root) -> bool:
    return all(c >= 0 for c in root) and any(c > 0 for c in root)


def highest_root(t: LieType) -> Root:
    return max(positive_roots(t), key=sum)


def all_nodes(t: LieType) -> range:
    return range(1, t.rank + 1)
