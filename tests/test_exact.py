"""Exact scalar arithmetic, series algebra, and subspace spinning."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from yangian_weyl.exact import (
    GaussianRational,
    Matrix,
    ONE,
    ScalarParseError,
    Series,
    ZERO,
    format_scalar,
    kron,
    parse_scalar,
    row_space_closure,
    solve_linear,
    unit_vector,
)

from pair_oracle import ordering_key

G = GaussianRational


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c, a):
    return tuple(c * x for x in a)


def vec_is_zero(a):
    return all(not x for x in a)


def test_parse_examples():
    assert parse_scalar("3/2") == G(Fraction(3, 2))
    assert parse_scalar("1-2i") == G(1, -2)
    assert parse_scalar("4/2") == G(2)
    assert parse_scalar("4/2").re == Fraction(2, 1)
    assert parse_scalar("-7/3+1/2i") == G(Fraction(-7, 3), Fraction(1, 2))
    assert parse_scalar("0+1i") == G(0, 1)


@pytest.mark.parametrize("text", ["", "abc", "2i", "1 + 2i", "1+-2i", "--3", "i"])
def test_parse_rejects_malformed(text):
    with pytest.raises(ScalarParseError):
        parse_scalar(text)


def test_parse_rejects_zero_denominator():
    with pytest.raises(ScalarParseError, match="3/0"):
        parse_scalar("3/0")
    with pytest.raises(ScalarParseError, match="2/0"):
        parse_scalar("1+2/0i")


fractions_st = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)


@given(fractions_st, fractions_st)
def test_format_parse_roundtrip(re, im):
    value = G(re, im)
    assert parse_scalar(format_scalar(value)) == value


# The Fraction key that `drinfeld` sorted on before it built integer keys;
# it is now their oracle.
def test_ordering_key_examples():
    assert ordering_key(G(2)) < ordering_key(G(1, 1))
    assert ordering_key(G(1, 1)) < ordering_key(G(1, -1))
    assert ordering_key(G(0)) == ordering_key(G(0))
    assert ordering_key(G(0, -1)) > ordering_key(G(1))


@given(st.lists(st.tuples(fractions_st, fractions_st), min_size=2, max_size=6))
def test_ordering_key_total_order(pairs):
    values = [G(re, im) for re, im in pairs]
    # Equal keys only for equal scalars, and the order is antisymmetric.
    for x in values:
        for y in values:
            assert (ordering_key(x) == ordering_key(y)) == (x == y)
            assert (ordering_key(x) < ordering_key(y)) == (ordering_key(y) > ordering_key(x))


def test_scalar_arithmetic():
    x = G(Fraction(1, 2), 1)
    y = G(2, Fraction(-1, 3))
    assert (x + y) - y == x
    assert (x * y) / y == x
    assert x * G(x.re, -x.im) == G(x.re * x.re + x.im * x.im)
    assert x ** 3 == x * x * x
    with pytest.raises(ZeroDivisionError):
        x / G(0)


@pytest.mark.parametrize(
    "re,im", [(0.1, 0), (Fraction(1, 2), 0.5), ("1/2", 0), (0, "3"), (1j, 0), (G(1), 0)]
)
def test_scalar_parts_must_be_exact(re, im):
    # Only ints and Fractions, the inputs every operator accepts, become
    # parts; a float would carry its binary rounding into exact arithmetic.
    with pytest.raises(TypeError):
        G(re, im)


# -- row space closure -------------------------------------------------------


def test_closure_identity_fixes_lines():
    dim, basis = row_space_closure([Matrix.identity(3)], unit_vector(3, 0))
    assert dim == 1
    assert basis == (unit_vector(3, 0),)


def test_closure_cyclic_permutation_spans():
    perm = Matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    dim, _ = row_space_closure([perm], unit_vector(3, 0))
    assert dim == 3


def test_closure_lowering_operators_on_reversed_pair():
    # W_1(0) (x) W_1(1): the top vector generates a 3-dimensional subspace
    # under the two lowering operators.  Oracle: enumerate the closure by
    # hand from the coproduct formulas (b = 0, a = 1):
    #   x0-(v+ (x) w+) = v- (x) w+ + v+ (x) w-
    #   x1-(v+ (x) w+) = (b+1) v- (x) w+ + a v+ (x) w-  = the same vector
    #   x0- of that     = 2 v- (x) w-,     x1- of it     = 0
    from yangian_weyl.ysl2 import tensor_module

    module = tensor_module([(1, G(0)), (1, G(1))])
    top = unit_vector(4, module.highest_index)
    dim, basis = row_space_closure([module.x0m, module.x1m], top)
    assert dim == 3
    by_hand = [
        top,
        _basis_vec(module, {(0, 1): ONE, (1, 0): ONE}),
        _basis_vec(module, {(0, 0): ONE}),
    ]
    for vec in by_hand:
        assert _in_span(basis, vec)
    missing = _basis_vec(module, {(0, 1): ONE, (1, 0): -ONE})
    assert not _in_span(basis, missing)


def _basis_vec(module, coeffs):
    out = [ZERO] * module.dim
    for label, value in coeffs.items():
        out[module.basis_index(label)] = value
    return tuple(out)


def _in_span(basis, vec):
    for row in basis:
        pivot = next(j for j, e in enumerate(row) if e)
        if vec[pivot]:
            vec = vec_sub(vec, vec_scale(vec[pivot], row))
    return vec_is_zero(vec)


def test_closure_rejects_bad_input():
    with pytest.raises(ValueError):
        row_space_closure([Matrix([[ZERO] * 3] * 2)], unit_vector(2, 0))
    with pytest.raises(ValueError):
        row_space_closure([Matrix.identity(3)], unit_vector(2, 0))
    with pytest.raises(ValueError):
        row_space_closure([Matrix.identity(2)], (ZERO, ZERO))


def _random_matrix(rng, n):
    return Matrix(
        [[G(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
    )


def test_closure_monotone_and_self_contained():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(2, 4)
        gens = [_random_matrix(rng, n) for _ in range(rng.randint(1, 3))]
        seed = tuple(G(rng.randint(-2, 2)) for _ in range(n))
        if vec_is_zero(seed):
            seed = unit_vector(n, 0)
        dim, basis = row_space_closure(gens, seed)
        bigger, _ = row_space_closure(gens + [_random_matrix(rng, n)], seed)
        assert bigger >= dim
        # Restarting from any basis vector stays inside the space, and the
        # restarts jointly recover it.
        union = []
        for vec in basis:
            sub_dim, sub_basis = row_space_closure(gens, vec)
            assert sub_dim <= dim
            for row in sub_basis:
                assert _in_span(basis, row)
            union.extend(sub_basis)
        for vec in basis:
            assert _in_span(_gauss_jordan(union), vec)


def _gauss_jordan(vectors):
    """Reduced row-echelon basis of the span, by textbook Gauss-Jordan."""
    rows = [list(v) for v in vectors]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [e / lead for e in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                c = row[col]
                rows[i] = [x - c * y for x, y in zip(row, rows[rank])]
        rank += 1
    return tuple(tuple(row) for row in rows[:rank])


def test_solve_linear_contract():
    rows = [(G(1), G(1)), (G(1), G(-1)), (G(2), G(0))]
    assert solve_linear(rows, (G(3), G(1, 2), G(4, 2))) == (G(2, 1), G(1, -1))
    # Inconsistent: the third equation contradicts the first two.
    assert solve_linear(rows, (G(3), G(1), G(5))) is None
    # Underdetermined: one equation in two unknowns, consistent.
    assert solve_linear([(G(1), G(1))], (G(3),)) is None
    assert solve_linear([(G(0), G(2))], (G(3),)) is None


# -- sparse matrices against dense loops --------------------------------------

entry_st = st.builds(
    G,
    st.fractions(min_value=-3, max_value=3, max_denominator=3),
    st.sampled_from([0, 0, 1, -2]),
)

# Both parts fractional, over distinct small and large primes and large
# composites, so the kernels combine many unequal denominators.
_wide_denominators = st.sampled_from([1, 2, 3, 7, 11, 97, 65536, 999979, 999983, 10**6])
_wide_part = st.builds(Fraction, st.integers(-(10**6), 10**6), _wide_denominators)
wide_entry_st = st.builds(G, _wide_part, _wide_part)


@st.composite
def _half_zero_rows(draw, nrows, ncols, entries=entry_st):
    """Dense rows of which at least half the entries are zero."""
    size = nrows * ncols
    values = draw(st.lists(entries, min_size=size, max_size=size))
    keep = draw(st.sets(st.integers(0, max(size - 1, 0)), max_size=size // 2))
    flat = [e if k in keep else ZERO for k, e in enumerate(values)]
    return [flat[i * ncols:(i + 1) * ncols] for i in range(nrows)]


def _naive_matmul(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _naive_kron(a, b):
    return [
        [x * y for x in arow for y in brow] for arow in a for brow in b
    ]


def _naive_matvec(a, v):
    return tuple(sum((x * y for x, y in zip(row, v)), ZERO) for row in a)


def _naive_closure(gens, seed):
    """Span of seed under gens, grown by dense loops until it stops."""
    span = _gauss_jordan([seed])
    while True:
        images = [_naive_matvec(g, v) for g in gens for v in span]
        grown = _gauss_jordan(list(span) + images)
        if len(grown) == len(span):
            return span
        span = grown


def _naive_solve(rows, rhs):
    """The unique solution read off the Gauss-Jordan form of [rows | rhs]."""
    ncols = len(rows[0])
    reduced = _gauss_jordan([tuple(r) + (b,) for r, b in zip(rows, rhs)])
    pivots = [next(j for j, e in enumerate(r) if e) for r in reduced]
    if pivots != list(range(ncols)):
        return None
    return tuple(r[ncols] for r in reduced)


def _canonical_entries(m):
    """Every stored entry is a nonzero (re, im, d) with d > 0 and
    gcd(re, im, d) = 1, the one form of its value."""
    return all(
        (re or im) and d > 0 and gcd(re, im, d) == 1
        for row in m.rows
        for re, im, d in row.values()
    )


def _fraction_parts(values):
    return all(type(e.re) is Fraction and type(e.im) is Fraction for e in values)


def _check_against_dense_loops(data, entries):
    n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    a = data.draw(_half_zero_rows(n, k, entries))
    a2 = data.draw(_half_zero_rows(n, k, entries))
    b = data.draw(_half_zero_rows(k, m, entries))
    c = data.draw(entries)
    v = tuple(data.draw(st.lists(entries, min_size=k, max_size=k)))
    A, A2, B = Matrix(a), Matrix(a2), Matrix(b)

    results = {
        "matmul": (A @ B, _naive_matmul(a, b)),
        "kron": (kron(A, B), _naive_kron(a, b)),
        "add": (A + A2, [[x + y for x, y in zip(r, s)] for r, s in zip(a, a2)]),
        "sub": (A - A2, [[x - y for x, y in zip(r, s)] for r, s in zip(a, a2)]),
        "scale": (A.scale(c), [[c * x for x in r] for r in a]),
    }
    for name, (got, want) in results.items():
        assert got == Matrix(want), name
        assert _canonical_entries(got), name
        assert (got.nrows, got.ncols) == (len(want), len(want[0])), name
    image = A.matvec(v)
    assert image == _naive_matvec(a, v)
    assert _fraction_parts(image)

    assert (A + A2) - A2 == A
    assert not any((A - A).rows) and _canonical_entries(A - A)
    built = [A, A @ Matrix.identity(k), Matrix.identity(n) @ A, (A + A) - A, A.scale(1)]
    for other in built:
        assert other == A and hash(other) == hash(A)

    gens = [data.draw(_half_zero_rows(k, k, entries)) for _ in range(data.draw(st.integers(1, 3)))]
    seed = v if any(v) else unit_vector(k, 0)
    dim, basis = row_space_closure([Matrix(g) for g in gens], seed)
    assert basis == _naive_closure(gens, seed)
    assert dim == len(basis)
    assert all(_fraction_parts(row) for row in basis)

    # A square system with the drawn matrix gens[0]: uniquely solvable,
    # inconsistent or underdetermined as the oracle says.
    x = solve_linear(gens[0], v)
    assert x == _naive_solve(gens[0], v)
    assert x is None or _fraction_parts(x)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_matrix_ops_match_dense_loops(data):
    _check_against_dense_loops(data, entry_st)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_kernels_match_dense_loops_on_wide_denominators(data):
    _check_against_dense_loops(data, wide_entry_st)


# -- series ------------------------------------------------------------------

small_scalars = st.builds(G, fractions_st, fractions_st)


@given(
    st.lists(small_scalars, min_size=4, max_size=4),
    st.lists(small_scalars, min_size=4, max_size=4),
    st.lists(small_scalars, min_size=4, max_size=4),
)
def test_series_multiplication_associative(a, b, c):
    f, g, h = Series(a), Series(b), Series(c)
    assert (f * g) * h == f * (g * h)

