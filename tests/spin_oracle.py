"""The level spin by dense Gauss-Jordan elimination over `GaussianRational`,
kept as the oracle for `yangian_weyl.ysl2._spin_levels`.

It shares no elimination code with the package: the module's matrices
are read off their rows and denominator as scalar entries, applied by
dense loops, and every level is brought to reduced row-echelon form by
textbook Gauss-Jordan.  Every level is spun from x_0^- of the level above
as it stands, full or not, under x_0^- and h_1, and nothing is shared
between modules.  `tests/test_ysl2.py` checks `lowering_levels` against
it level by level.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterator, Tuple

from yangian_weyl.exact import GaussianRational, ZERO, unit_vector
from yangian_weyl.ysl2 import SL2Module


def _entries(matrix) -> list:
    """(i, k, value) for every nonzero entry of matrix, value a scalar."""
    return [
        (i, k, GaussianRational(Fraction(re, matrix.den), Fraction(im, matrix.den)))
        for i, row in enumerate(matrix.rows)
        for k, (re, im) in row.items()
    ]


def _apply(entries, v) -> tuple:
    out = [ZERO] * len(v)
    for i, k, c in entries:
        if v[k]:
            out[i] += c * v[k]
    return tuple(out)


def _gauss_jordan(vectors) -> tuple:
    """Reduced row-echelon basis of the span, by textbook Gauss-Jordan on
    the columns where some vector is nonzero (no other column can hold a
    pivot)."""
    if not vectors:
        return ()
    columns = [j for j in range(len(vectors[0])) if any(v[j] for v in vectors)]
    rows = [list(v) for v in vectors]
    rank = 0
    for col in columns:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [e / lead for e in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                c = row[col]
                rows[i] = [x - c * y if y else x for x, y in zip(row, rows[rank])]
        rank += 1
    return tuple(tuple(row) for row in rows[:rank])


def _spin_levels(module: SL2Module) -> Iterator[Tuple[int, int]]:
    """(dim W_r, dim V_r) for r = 0 .. sum(m).  V_r is spanned by the basis
    vectors r lowering steps below the top; W_r, the part of Y top in V_r, is
    spun as W_0 = <top>, W_{r+1} = C[h_1] x_0^- W_r.  A level that fills V_r
    is closed under h_1 already, so its spinning stops there."""
    top = sum(m for m, _ in module.factor_spec)
    sizes = Counter(top - sum(label) for label in module.basis_labels)
    x0m, h1 = _entries(module.x0m), _entries(module.h1)
    level = (unit_vector(module.dim, module.highest_index),)
    yield 1, 1
    for r in range(1, top + 1):
        span = _gauss_jordan([_apply(x0m, v) for v in level])
        while len(span) < sizes[r]:
            grown = _gauss_jordan(list(span) + [_apply(h1, v) for v in span])
            if len(grown) == len(span):
                break
            span = grown
        level = span
        yield len(level), sizes[r]


def lowering_levels(module: SL2Module) -> Tuple[int, ...]:
    """dim W_r for every depth r = 0 .. sum(m) below the top vector."""
    return tuple(w for w, _ in _spin_levels(module))
