"""The level spin as the package ran it before it kept a per-shape cache,
kept as the oracle for `yangian_weyl.ysl2._spin_levels`.

Every level is spun from x_0^- of the level above as it stands, full or
not, under x_0^- and h_1, and nothing is shared between modules.
`tests/test_ysl2.py` checks `lowering_levels` against it level by level.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Iterator, Tuple

from yangian_weyl.exact import _RrefBasis, _UNIT
from yangian_weyl.ysl2 import SL2Module


def _spin_levels(module: SL2Module) -> Iterator[Tuple[int, int]]:
    """(dim W_r, dim V_r) for r = 0 .. sum(m).  V_r is spanned by the basis
    vectors r lowering steps below the top; W_r, the part of Y top in V_r, is
    spun as W_0 = <top>, W_{r+1} = C[h_1] x_0^- W_r.  A level that fills V_r
    is closed under h_1 already, so its spinning stops there."""
    top = sum(m for m, _ in module.factor_spec)
    sizes = Counter(top - sum(label) for label in module.basis_labels)
    level = [{module.highest_index: _UNIT}]
    yield 1, 1
    for r in range(1, top + 1):
        basis = _RrefBasis(module.dim)
        queue = deque((module.x0m, vec) for vec in level)
        while queue and len(basis.rows) < sizes[r]:
            g, vec = queue.popleft()
            row = basis.insert(g.apply(vec))
            if row is not None:
                queue.append((module.h1, row))
        level = list(basis.rows.values())
        yield len(level), sizes[r]


def lowering_levels(module: SL2Module) -> Tuple[int, ...]:
    """dim W_r for every depth r = 0 .. sum(m) below the top vector."""
    return tuple(w for w, _ in _spin_levels(module))
