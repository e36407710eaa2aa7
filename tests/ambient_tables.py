"""Ambient ("mu") coordinates of the classical realizations, for the tests.

For each type: the simple roots and fundamental weights as vectors of
Fractions in the ambient space of its realization, and the Gram matrix of
the ambient form (None means the standard dot product).  The package
itself works in simple-root and fundamental-weight coordinates only; the
tests check its Cartan data, descent chains and dimensions against these
tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as F
from functools import lru_cache
from typing import Tuple


@dataclass(frozen=True)
class Ambient:
    simple_roots: Tuple[Tuple[F, ...], ...]
    fundamental_weights: Tuple[Tuple[F, ...], ...]
    gram: Tuple[Tuple[F, ...], ...] | None

    def form(self, u, v):
        """The ambient form of two vectors."""
        if self.gram is None:
            return sum(a * b for a, b in zip(u, v))
        return sum(
            u[i] * self.gram[i][j] * v[j] for i in range(len(u)) for j in range(len(v))
        )

    def root_vector(self, root):
        """A vector in the simple-root basis, in ambient coordinates."""
        return [
            sum(F(c) * alpha[i] for c, alpha in zip(root, self.simple_roots))
            for i in range(len(self.simple_roots[0]))
        ]


def _partial_sums(l: int, dim: int):
    return [tuple(F(1) if j < i else F(0) for j in range(dim)) for i in range(1, l + 1)]


def _differences(l: int, dim: int):
    """e_i - e_{i+1} for i < l."""
    return [
        tuple(F(1) if j == i else F(-1) if j == i + 1 else F(0) for j in range(dim))
        for i in range(l)
    ]


@lru_cache(maxsize=None)
def ambient(t) -> Ambient:
    family, l = t.family, t.rank
    gram = None
    if family == "A":
        roots = _differences(l, l + 1)
        weights = _partial_sums(l, l + 1)
    elif family == "B":
        roots = _differences(l - 1, l) + [tuple(F(j == l - 1) for j in range(l))]
        weights = _partial_sums(l - 1, l) + [tuple(F(1, 2) for _ in range(l))]
    elif family == "C":
        roots = _differences(l - 1, l) + [tuple(F(2 * (j == l - 1)) for j in range(l))]
        weights = _partial_sums(l, l)
    elif family == "D":
        roots = _differences(l - 1, l) + [tuple(F(j in (l - 2, l - 1)) for j in range(l))]
        weights = _partial_sums(l - 2, l) + [
            tuple(F(1, 2) if j < l - 1 else F(-1, 2) for j in range(l)),
            tuple(F(1, 2) for _ in range(l)),
        ]
    else:  # G2; node 1 is the long root, node 2 the short one
        roots = [(F(1), F(0)), (F(0), F(1))]
        weights = [(F(2), F(3)), (F(1), F(2))]
        gram = ((F(6), F(-3)), (F(-3), F(2)))
    return Ambient(tuple(roots), tuple(weights), gram)
