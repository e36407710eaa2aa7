"""The level spin by Gauss-Jordan elimination over `GaussianRational`,
kept as the oracle for `yangian_weyl.ysl2._spin_levels`.

It shares no elimination code with the package: x_0^- and h_1 are read
as their nonzero scalar entries and applied by `dense_oracle.matvec`, and
every level is brought to reduced row-echelon form by the textbook
Gauss-Jordan `dense_oracle.rref`.  Every level is spun from x_0^- of
the level above as it stands, full or not, under x_0^- and h_1, and
nothing is shared between modules.  `tests/test_ysl2.py` checks
`lowering_levels` against it level by level.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Tuple

from yangian_weyl.exact import unit_vector
from yangian_weyl.ysl2 import SL2Module

from dense_oracle import entries, matvec, rref


def _spin_levels(module: SL2Module) -> Iterator[Tuple[int, int]]:
    """(dim W_r, dim V_r) for r = 0 .. sum(m).  V_r is spanned by the basis
    vectors r lowering steps below the top; W_r, the part of Y top in V_r, is
    spun as W_0 = <top>, W_{r+1} = C[h_1] x_0^- W_r.  A level that fills V_r
    is closed under h_1 already, so its spinning stops there."""
    top = sum(m for m, _ in module.factor_spec)
    sizes = Counter(top - sum(label) for label in module.basis_labels)
    x0m, h1, n = entries(module.x0m), entries(module.h1), module.dim
    level = (unit_vector(n, module.highest_index),)
    yield 1, 1
    for r in range(1, top + 1):
        span = rref([matvec(x0m, v, n) for v in level])
        while len(span) < sizes[r]:
            grown = rref(list(span) + [matvec(h1, v, n) for v in span])
            if len(grown) == len(span):
                break
            span = grown
        level = span
        yield len(level), sizes[r]


def lowering_levels(module: SL2Module) -> Tuple[int, ...]:
    """dim W_r for every depth r = 0 .. sum(m) below the top vector."""
    return tuple(w for w, _ in _spin_levels(module))
