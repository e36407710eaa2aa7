"""The exact layer: scalars, sparse matrices, subspace spinning, series.

Scalar arithmetic, parsing and text are checked against the former
scalar class in `tests/test_scalar_oracle.py`.  Here the scalar keeps its
parse examples, its exact-parts rule, its refusals and its equality with
foreign operands.  The sparse kernels, the spin and `solve_linear` are
checked against the entry loops of `dense_oracle`, the echelon's
forward form on vectors with 30-digit parts, and series multiplication
for associativity.
"""

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
    Series,
    ZERO,
    _Echelon,
    as_scalar,
    kron,
    parse_scalar,
    row_space_closure,
    solve_linear,
    unit_vector,
)

from dense_oracle import (
    closure, entries, identity, in_span, kron as oracle_kron, matmul, matrix, matvec, rref, solve, vector)

G = GaussianRational


def test_parse_examples():
    assert parse_scalar("3/2") == G(Fraction(3, 2))
    assert parse_scalar("1-2i") == G(1, -2)
    assert parse_scalar("4/2") == G(2)
    assert parse_scalar("4/2").re == Fraction(2, 1)
    assert parse_scalar("-7/3+1/2i") == G(Fraction(-7, 3), Fraction(1, 2))
    assert parse_scalar("0+1i") == G(0, 1)


@pytest.mark.parametrize(
    "re,im", [(0.1, 0), (Fraction(1, 2), 0.5), ("1/2", 0), (0, "3"), (1j, 0), (G(1), 0)]
)
def test_scalar_parts_must_be_exact(re, im):
    # Only ints and Fractions, the inputs every operator accepts, become
    # parts; a float would carry its binary rounding into exact arithmetic.
    with pytest.raises(TypeError):
        G(re, im)


# Every refusal in exact, each on an input that breaks one rule alone.  An
# operator of GaussianRational returns NotImplemented for a foreign operand
# or exponent, so that Python raises TypeError.
M12 = Matrix([[1, 2]])
REFUSALS = {
    "as_scalar(str)": (lambda: as_scalar("1"), TypeError, "cannot interpret"),
    "Series([])": (lambda: Series([]), ValueError, "constant term"),
    "Series orders": (lambda: Series([1, 2]) * Series([1]), ValueError, "orders differ"),
    "Series * int": (lambda: Series([1, 2]) * 2, TypeError, "^unsupported operand"),
    "ragged rows": (lambda: Matrix([[1, 2], [3]]), ValueError, "ragged rows"),
    "@ shape": (lambda: M12 @ M12, ValueError, "^matrix shape mismatch$"),
    "Matrix @ int": (lambda: M12 @ 2, TypeError, "^unsupported operand"),
    "kron(Matrix, int)": (lambda: kron(M12, 2), TypeError, "^kron takes two matrices$"),
    "matvec shape": (lambda: M12.matvec((ONE,)), ValueError, "vector shape mismatch"),
    "set scalar": (lambda: setattr(ONE, "triple", (2, 0, 1)), AttributeError, "immutable"),
    "set series": (lambda: setattr(Series([1]), "coeffs", ()), AttributeError, "immutable"),
    "set matrix": (lambda: setattr(M12, "den", 2), AttributeError, "immutable"),
    "G + str": (lambda: G(1) + "x", TypeError, "^unsupported operand"),
    "None + G": (lambda: None + G(1), TypeError, "^unsupported operand"),
    "G - str": (lambda: G(1) - "x", TypeError, "^unsupported operand"),
    "str - G": (lambda: "x" - G(1), TypeError, "^unsupported operand"),
    "G * float": (lambda: G(1) * 0.5, TypeError, "^unsupported operand"),
    "G / str": (lambda: G(1) / "x", TypeError, "^unsupported operand"),
    "G ** -1": (lambda: G(2) ** -1, TypeError, "^unsupported operand"),
    "G ** 1.0": (lambda: G(2) ** 1.0, TypeError, "^unsupported operand"),
    "G ** True": (lambda: G(2) ** True, TypeError, "^unsupported operand"),
    "unit_vector(3, 3)": (lambda: unit_vector(3, 3), ValueError, "^k = 3 is out of range for n = 3$"),
    "unit_vector(3, 5)": (lambda: unit_vector(3, 5), ValueError, "^k = 5 is out of range for n = 3$"),
    "unit_vector(0, 0)": (lambda: unit_vector(0, 0), ValueError, "^k = 0 is out of range for n = 0$"),
    "unit_vector(3, -1)": (lambda: unit_vector(3, -1), ValueError, "^k must be a nonnegative integer$"),
    "unit_vector(3, True)": (lambda: unit_vector(3, True), ValueError, "^k must be a nonnegative integer$"),
    "unit_vector(3, 1.0)": (lambda: unit_vector(3, 1.0), ValueError, "^k must be a nonnegative integer$"),
    "unit_vector(-1, 0)": (lambda: unit_vector(-1, 0), ValueError, "^n must be a nonnegative integer$"),
    "unit_vector(True, 0)": (lambda: unit_vector(True, 0), ValueError, "^n must be a nonnegative integer$"),
    "unit_vector(3.0, 0)": (lambda: unit_vector(3.0, 0), ValueError, "^n must be a nonnegative integer$"),
    "solve_linear rhs": (lambda: solve_linear([(1,), (2,)], (1,)), ValueError, "^rhs length"),
    "solve_linear ragged": (lambda: solve_linear([(1, 0), (0, 1, 5)], (1, 2)), ValueError, "^ragged rows$"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_exact_refuses_what_it_cannot_answer(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error, match=message):
        call()


def test_scalar_equality_with_a_foreign_operand_is_false():
    assert not G(1) == "x" and G(1) != "x" and not "x" == G(1)
    assert not G(1) == 1.0 and G(1) == 1 and G(1, 0) == Fraction(1)


def test_unit_vectors_and_identities_in_range():
    assert unit_vector(3, 2) == (ZERO, ZERO, ONE)
    assert unit_vector(1, 0) == (ONE,)
    assert Matrix([]).ncols == 0 and Matrix([]).nrows == 0
    one = Matrix([[ONE]])
    assert type(one.ncols) is int and one == Matrix([[1]])


# -- row space closure -------------------------------------------------------


def test_closure_identity_fixes_lines():
    dim, basis = row_space_closure([matrix(identity(3), 3, 3)], unit_vector(3, 0))
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
    from yangian_weyl.ysl2 import extend_generators, tensor_module

    module = tensor_module([(1, G(0)), (1, G(1))])
    top = unit_vector(4, module.highest_index)
    x1m = extend_generators(module, 1).xm[1]
    dim, basis = row_space_closure([module.x0m, x1m], top)
    assert dim == 3
    by_hand = [
        top,
        vector(module, {(0, 1): ONE, (1, 0): ONE}),
        vector(module, {(0, 0): ONE}),
    ]
    for vec in by_hand:
        assert in_span(basis, vec)
    missing = vector(module, {(0, 1): ONE, (1, 0): -ONE})
    assert not in_span(basis, missing)


def test_closure_rejects_bad_input():
    with pytest.raises(ValueError):
        row_space_closure([Matrix([[ZERO] * 3] * 2)], unit_vector(2, 0))
    with pytest.raises(ValueError):
        row_space_closure([matrix(identity(3), 3, 3)], unit_vector(2, 0))
    with pytest.raises(ValueError):
        row_space_closure([matrix(identity(2), 2, 2)], (ZERO, ZERO))


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
        if not any(seed):
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
                assert in_span(basis, row)
            union.extend(sub_basis)
        for vec in basis:
            assert in_span(rref(union), vec)


def test_solve_linear_contract():
    rows = [(G(1), G(1)), (G(1), G(-1)), (G(2), G(0))]
    assert solve_linear(rows, (G(3), G(1, 2), G(4, 2))) == (G(2, 1), G(1, -1))
    # Inconsistent: the third equation contradicts the first two.
    assert solve_linear(rows, (G(3), G(1), G(5))) is None
    # Underdetermined: one equation in two unknowns, consistent.
    assert solve_linear([(G(1), G(1))], (G(3),)) is None
    assert solve_linear([(G(0), G(2))], (G(3),)) is None


_big_part = st.integers(-(10**30), 10**30)


@st.composite
def _gaussian_vectors(draw):
    """(n, vectors): 1-8 Z[i] vectors of length n <= 6 with parts of up to
    30 digits, each entry zero half the time; about half of them are
    combinations of two earlier ones with small Gaussian coefficients, so
    that dependent vectors occur below full rank."""
    n = draw(st.integers(1, 6))
    vectors = []
    for _ in range(draw(st.integers(1, 8))):
        if vectors and draw(st.booleans()):
            vec = {}
            for _ in range(2):
                row = draw(st.sampled_from(vectors))
                cr, ci = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
                for j, (a, b) in row.items():
                    x, y = vec.get(j, (0, 0))
                    vec[j] = (x + cr * a - ci * b, y + cr * b + ci * a)
        else:
            vec = {j: (draw(_big_part), draw(_big_part)) for j in range(n) if draw(st.booleans())}
        vectors.append({j: e for j, e in vec.items() if e != (0, 0)})
    return n, vectors


@settings(max_examples=100, deadline=None)
@given(_gaussian_vectors())
def test_echelon_keeps_a_forward_form(drawn):
    # Insertion never rewrites a stored row or its input.  Each row's lowest
    # column is its pivot, a positive integer, its content is 1, and it
    # vanishes at every pivot stored before it.  The reduced basis is the
    # textbook one.
    n, vectors = drawn
    basis, stored = _Echelon(n), []
    for vec in vectors:
        before = dict(vec)
        row = basis.insert(vec)
        assert vec == before
        assert all(basis.rows[p] is kept and kept == copy for p, kept, copy in stored)
        if row is not None:
            pivot = min(row)
            assert basis.rows[pivot] is row
            assert row[pivot][0] > 0 and row[pivot][1] == 0
            assert gcd(*(part for e in row.values() for part in e)) == 1
            assert all(p not in row for p, _, _ in stored)
            stored.append((pivot, row, dict(row)))
    assert len(basis.rows) == len(stored)
    dense = [tuple(G(*vec[j]) if j in vec else ZERO for j in range(n)) for vec in vectors]
    assert basis.scalar_rows() == rref(dense)


# -- sparse matrices against the oracle's entry loops -------------------------

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
def _half_zero_rows(draw, nrows, ncols, scalars=entry_st):
    """Dense rows of which at least half the entries are zero."""
    size = nrows * ncols
    values = draw(st.lists(scalars, min_size=size, max_size=size))
    keep = draw(st.sets(st.integers(0, max(size - 1, 0)), max_size=size // 2))
    flat = [e if k in keep else ZERO for k, e in enumerate(values)]
    return [flat[i * ncols:(i + 1) * ncols] for i in range(nrows)]


def _canonical_entries(m):
    """Every stored entry is a nonzero Gaussian integer, den > 0, and
    gcd(den, every re and im) = 1: the lowest terms of the matrix, the one
    form of its value."""
    parts = [part for row in m.rows for re, im in row.values() for part in (re, im)]
    return (
        all(type(p) is int for p in parts)
        and all(re or im for row in m.rows for re, im in row.values())
        and m.den > 0
        and gcd(m.den, *parts) == 1
    )


def _fraction_parts(values):
    return all(type(e.re) is Fraction and type(e.im) is Fraction for e in values)


def _nonzero(rows):
    """The nonzero entries of dense rows of scalars."""
    return {(i, j): x for i, row in enumerate(rows) for j, x in enumerate(row) if x}


def _check_against_entry_loops(data, scalars):
    n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    a = data.draw(_half_zero_rows(n, k, scalars))
    b = data.draw(_half_zero_rows(k, m, scalars))
    v = tuple(data.draw(st.lists(scalars, min_size=k, max_size=k)))
    A, B = Matrix(a), Matrix(b)
    ea, eb = _nonzero(a), _nonzero(b)
    assert entries(A) == ea and entries(B) == eb

    results = {
        "matmul": (A @ B, matmul(ea, eb), (n, m)),
        "kron": (kron(A, B), oracle_kron(ea, eb, k, m), (n * k, k * m)),
    }
    for name, (got, want, shape) in results.items():
        assert entries(got) == want, name
        assert _canonical_entries(got), name
        assert (got.nrows, got.ncols) == shape, name
    image = A.matvec(v)
    assert image == matvec(ea, v, n)
    assert _fraction_parts(image)

    built = [A, A @ matrix(identity(k), k, k), matrix(identity(n), n, n) @ A, kron(A, Matrix([[1]]))]
    for other in built:
        assert other == A and hash(other) == hash(A)

    gens = [data.draw(_half_zero_rows(k, k, scalars)) for _ in range(data.draw(st.integers(1, 3)))]
    seed = v if any(v) else unit_vector(k, 0)
    dim, basis = row_space_closure([Matrix(g) for g in gens], seed)
    assert basis == closure([_nonzero(g) for g in gens], seed)
    assert dim == len(basis)
    assert all(_fraction_parts(row) for row in basis)

    # A square system with the drawn matrix gens[0]: uniquely solvable,
    # inconsistent or underdetermined as the oracle says.
    x = solve_linear(gens[0], v)
    assert x == solve(gens[0], v)
    assert x is None or _fraction_parts(x)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_matrix_ops_match_dense_loops(data):
    _check_against_entry_loops(data, entry_st)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_kernels_match_dense_loops_on_wide_denominators(data):
    _check_against_entry_loops(data, wide_entry_st)


# -- series ------------------------------------------------------------------

fractions_st = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)

small_scalars = st.builds(G, fractions_st, fractions_st)


@given(
    st.lists(small_scalars, min_size=4, max_size=4),
    st.lists(small_scalars, min_size=4, max_size=4),
    st.lists(small_scalars, min_size=4, max_size=4),
)
def test_series_multiplication_associative(a, b, c):
    f, g, h = Series(a), Series(b), Series(c)
    assert (f * g) * h == f * (g * h)

