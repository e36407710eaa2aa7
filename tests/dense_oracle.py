"""Dense matrix loops over scalars: the arithmetic of the test oracles.

A matrix here is a list of rows of `GaussianRational`s.  Every loop skips
a zero entry, so a whole-matrix ladder on a sparse module stays cheap, and
none of them runs the package's row kernel: a package `Matrix` is read
entry by entry through its `rows` and `den` by `dense`, and written back
by the `Matrix(dense rows)` constructor.  The oracles `tensor_oracle` and
`relations_oracle`, and `tests/test_exact.py`'s checks of the sparse
kernels, compute with these loops alone.
"""

from __future__ import annotations

from yangian_weyl.exact import GaussianRational, Matrix, ONE, ZERO


def dense(m: Matrix) -> list:
    """The entries of a package matrix as dense rows of scalars."""
    out = []
    for row in m.rows:
        entries = [ZERO] * m.ncols
        for j, (re, im) in row.items():
            entries[j] = GaussianRational(re, im) / m.den
        out.append(entries)
    return out


def identity(n: int) -> list:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def matmul(a: list, b: list) -> list:
    nonzero = [[(j, y) for j, y in enumerate(brow) if y] for brow in b]
    ncols = len(b[0])
    out = []
    for arow in a:
        row = [ZERO] * ncols
        for x, terms in zip(arow, nonzero):
            if x:
                for j, y in terms:
                    row[j] += x * y
        out.append(row)
    return out


def kron(a: list, b: list) -> list:
    """Kronecker product; index (i1*len(b) + i2, j1*len(b[0]) + j2)."""
    return [[x * y if x and y else ZERO for x in arow for y in brow] for arow in a for brow in b]


def matvec(a: list, v) -> tuple:
    return tuple(sum((x * y for x, y in zip(row, v) if x and y), ZERO) for row in a)


def add(a: list, b: list) -> list:
    return [[x + y if y else x for x, y in zip(arow, brow)] for arow, brow in zip(a, b)]


def sub(a: list, b: list) -> list:
    return [[x - y if y else x for x, y in zip(arow, brow)] for arow, brow in zip(a, b)]


def scale(c, a: list) -> list:
    return [[c * x if x else ZERO for x in row] for row in a]


def combine(*terms) -> Matrix:
    """The sum of c m over the (c, m) terms, package matrices of one shape,
    as a package `Matrix`."""
    (c, m), *rest = terms
    out = scale(c, dense(m))
    for c, m in rest:
        out = add(out, scale(c, dense(m)))
    return Matrix(out)
