"""Matrix arithmetic on nonzero entries: the one matrix form of the test
oracles.

A matrix here is a dict {(i, j): value} of its nonzero `GaussianRational`
entries; its shape is kept by the caller.  `entries` reads a package
`Matrix` off its `rows` and `den`, and `matrix` writes one back through
the `Matrix(dense rows)` constructor.  Every product, sum and elimination
here works on scalars alone, so none of them runs the package's row
kernel or its echelon.  The oracles `spin_oracle`, `tensor_oracle`,
`relations_oracle` and `roots_oracle`, and `tests/test_exact.py`'s checks
of the sparse kernels, compute with these routines alone.
"""

from __future__ import annotations

from yangian_weyl.exact import GaussianRational, Matrix, ONE, ZERO


def entries(m: Matrix) -> dict:
    """The nonzero entries of a package matrix."""
    return {
        (i, j): GaussianRational(re, im) / m.den
        for i, row in enumerate(m.rows)
        for j, (re, im) in row.items()
    }


def matrix(m: dict, nrows: int, ncols: int) -> Matrix:
    """The package matrix of shape nrows x ncols with the entries m."""
    return Matrix([[m.get((i, j), ZERO) for j in range(ncols)] for i in range(nrows)])


def identity(n: int) -> dict:
    return {(i, i): ONE for i in range(n)}


def add(*terms) -> dict:
    """The sum of c m over the (c, m) terms, c a scalar or an int."""
    out = {}
    for c, m in terms:
        for key, x in m.items():
            y = x if c == 1 else c * x
            out[key] = out[key] + y if key in out else y
    return {key: x for key, x in out.items() if x}


def matmul(a: dict, b: dict) -> dict:
    rows = {}
    for (k, j), y in b.items():
        rows.setdefault(k, []).append((j, y))
    out = {}
    for (i, k), x in a.items():
        for j, y in rows.get(k, ()):
            z = x * y
            out[i, j] = out[i, j] + z if (i, j) in out else z
    return {key: z for key, z in out.items() if z}


def kron(a: dict, b: dict, p: int, q: int) -> dict:
    """Kronecker product with b of shape p x q; index (i1*p + i2, j1*q + j2)."""
    return {
        (i1 * p + i2, j1 * q + j2): x * y
        for (i1, j1), x in a.items()
        for (i2, j2), y in b.items()
    }


def matvec(m: dict, v, nrows: int) -> tuple:
    out = [ZERO] * nrows
    for (i, k), x in m.items():
        if v[k]:
            out[i] += x * v[k]
    return tuple(out)


def vector(module, coeffs) -> tuple:
    """The vector with the scalars {basis label: value} on a module's basis."""
    out = [ZERO] * module.dim
    for label, value in coeffs.items():
        out[module.basis_index(label)] = value
    return tuple(out)


def combine(*terms) -> Matrix:
    """The sum of c m over the (c, m) terms, package matrices of one shape,
    as a package `Matrix`."""
    m = terms[0][1]
    return matrix(add(*((c, entries(m)) for c, m in terms)), m.nrows, m.ncols)


def rref(vectors) -> tuple:
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


def in_span(basis, vec) -> bool:
    """Whether vec lies in the span of a reduced row-echelon basis."""
    for row in basis:
        pivot = next(j for j, e in enumerate(row) if e)
        if vec[pivot]:
            c = vec[pivot]
            vec = tuple(x - c * y for x, y in zip(vec, row))
    return not any(vec)


def closure(gens, seed) -> tuple:
    """Span of seed under the square matrices gens, grown until it stops,
    as its reduced row-echelon basis."""
    n = len(seed)
    span = rref([seed])
    while True:
        grown = rref(list(span) + [matvec(g, v, n) for g in gens for v in span])
        if len(grown) == len(span):
            return span
        span = grown


def solve(rows, rhs):
    """The unique solution of rows * x = rhs, read off the Gauss-Jordan
    form of [rows | rhs]; None if the system is inconsistent or
    underdetermined."""
    ncols = len(rows[0])
    reduced = rref([tuple(r) + (b,) for r, b in zip(rows, rhs)])
    pivots = [next(j for j, e in enumerate(r) if e) for r in reduced]
    if pivots != list(range(ncols)):
        return None
    return tuple(r[ncols] for r in reduced)
