"""Exact scalar arithmetic: Gaussian rationals, truncated series, sparse linear algebra.

Everything in this package computes over Q(i); no floating point is used
anywhere.  A scalar is a `GaussianRational` that stores one integer triple
(re, im, d) standing for (re + im*i) / d, in lowest terms.  Arithmetic and
formatting work on those integers, and each result is reduced once.
A matrix keeps sparse Gaussian-integer rows that never store a zero over
one denominator, in lowest terms.  One row kernel forms the package's
matrix products and matrix-vector applications, and one fraction-free
echelon does all row reduction inside Z[i].  The echelon eliminates
forward only; the reduced basis is formed where it is read, by
`row_space_closure` and `solve_linear`.  Scalars and dense tuples appear
only where values cross the public API.
"""

from __future__ import annotations

import re
from collections import deque
from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from typing import Iterable, Sequence, Tuple


class ScalarParseError(ValueError):
    """Raised when a scalar string does not match the grammar."""


class GaussianRational:
    """A Gaussian rational (re + im*i) / d.

    `triple` holds the integers (re, im, d) in lowest terms: d > 0 and
    gcd(re, im, d) = 1.  That form is unique, so equal values have equal
    triples.  `GaussianRational(re, im)` takes the real and imaginary parts
    as ints or Fractions and raises TypeError for anything else (a float or
    a string included); `.re` and `.im` give them back as Fractions.
    """

    __slots__ = ("triple",)

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            triple = (re, im, 1)
        else:
            if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))):
                raise TypeError(f"expected int or Fraction parts, got {re!r} and {im!r}")
            re, im = Fraction(re), Fraction(im)
            dr, di = re.denominator, im.denominator
            # Over d = lcm(dr, di) no prime divides all three integers.
            d = dr // gcd(dr, di) * di
            triple = (re.numerator * (d // dr), im.numerator * (d // di), d)
        _set(self, "triple", triple)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @property
    def re(self) -> Fraction:
        return Fraction(self.triple[0], self.triple[2])

    @property
    def im(self) -> Fraction:
        return Fraction(self.triple[1], self.triple[2])

    def __add__(self, other):
        other = _triple(other)
        if other is None:
            return NotImplemented
        ar, ai, ad = self.triple
        br, bi, bd = other
        if ad == bd:
            return _reduced(ar + br, ai + bi, ad)
        g = gcd(ad, bd)
        ad //= g
        bd //= g
        return _reduced(ar * bd + br * ad, ai * bd + bi * ad, ad * bd * g)

    __radd__ = __add__

    def __sub__(self, other):
        other = _triple(other)
        if other is None:
            return NotImplemented
        br, bi, bd = other
        return self + _of((-br, -bi, bd))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        other = _triple(other)
        if other is None:
            return NotImplemented
        ar, ai, ad = self.triple
        br, bi, bd = other
        return _reduced(ar * br - ai * bi, ar * bi + ai * br, ad * bd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _triple(other)
        if other is None:
            return NotImplemented
        ar, ai, ad = self.triple
        br, bi, bd = other
        norm = br * br + bi * bi
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        # (a/ad) / (b/bd) = a * conj(b) * bd / (ad * |b|^2)
        return _reduced((ar * br + ai * bi) * bd, (ai * br - ar * bi) * bd, ad * norm)

    def __pow__(self, exponent: int):
        if isinstance(exponent, bool) or not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        out = ONE
        base = self
        while exponent:
            if exponent & 1:
                out = out * base
            base = base * base
            exponent >>= 1
        return out

    def __neg__(self):
        re, im, d = self.triple
        return _of((-re, -im, d))

    def __pos__(self):
        return self

    def __eq__(self, other):
        other = _triple(other)
        if other is None:
            return NotImplemented
        return self.triple == other

    def __hash__(self):
        return hash(self.triple)

    def __bool__(self):
        re, im, _ = self.triple
        return bool(re or im)

    def __str__(self):
        return format_triple(*self.triple)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__
_set = object.__setattr__


def _of(triple) -> GaussianRational:
    """The scalar of a triple (re, im, d) already in lowest terms."""
    out = _new(GaussianRational)
    _set(out, "triple", triple)
    return out


def _reduced(re: int, im: int, d: int) -> GaussianRational:
    """The scalar (re + im*i) / d for any d > 0, reduced by one gcd."""
    g = gcd(re, im, d)
    return _of((re, im, d) if g == 1 else (re // g, im // g, d // g))


def _triple(value):
    """The triple of a scalar, an int or a Fraction; None for anything else."""
    if type(value) is GaussianRational:
        return value.triple
    if isinstance(value, int):
        return (int(value), 0, 1)
    if isinstance(value, Fraction):
        return (value.numerator, 0, value.denominator)
    return None


ZERO = GaussianRational(0)
ONE = GaussianRational(1)


def rational_text(n: int, d: int) -> str:
    """n/d in lowest terms, as "n" or "n/d"."""
    if d != 1:
        g = gcd(n, d)
        if g != d:
            return f"{n // g}/{d // g}"
        n //= d
    return str(n)


def imaginary_suffix(im: int, d: int) -> str:
    """The text that follows the real part in the printed form of
    (re + im*i) / d: "" when im = 0, else the sign, |im|/d in lowest terms
    and "i"."""
    if not im:
        return ""
    if im > 0:
        return f"+{rational_text(im, d)}i"
    return f"-{rational_text(-im, d)}i"


def format_triple(re: int, im: int, d: int) -> str:
    """The printed form of (re + im*i) / d for any d > 0, each part in
    lowest terms; the triple itself need not be reduced."""
    if not im:
        return rational_text(re, d)
    return rational_text(re, d) + imaginary_suffix(im, d)


# Real numerator and denominator, sign, imaginary numerator and denominator.
_SCALAR_RE = re.compile(r"(-?\d+)(?:/(\d+))?(?:([+-])(\d+)(?:/(\d+))?i)?")


def parse_scalar(text: str) -> GaussianRational:
    """Parse `rat(("+"|"-") rat "i")?` with rat = `int("/" posint)?`.

    The real part is converted and checked before the imaginary part, so
    an input with faults in both parts is refused for the real one."""
    match = _SCALAR_RE.fullmatch(text.strip())
    if match is None:
        raise ScalarParseError(f"malformed scalar {text!r}")
    n, d, sign, m, e = match.groups()
    try:
        n, d = int(n), int(d) if d else 1
        if d and m:
            m, e = int(m), int(e) if e else 1
    except ValueError as exc:  # more digits than int() converts
        raise ScalarParseError(f"scalar part too long: {exc}") from exc
    if not d:
        raise ScalarParseError(f"zero denominator in {match.group(1) + '/' + match.group(2)!r}")
    if m is None:
        return _reduced(n, 0, d)
    if not e:
        raise ScalarParseError(f"zero denominator in {match.group(4) + '/' + match.group(5)!r}")
    if sign == "-":
        m = -m
    g = gcd(d, e)
    return _reduced(n * (e // g), m * (d // g), d // g * e)


def as_scalar(value) -> GaussianRational:
    triple = _triple(value)
    if triple is None:
        raise TypeError(f"cannot interpret {value!r} as a scalar")
    return value if type(value) is GaussianRational else _of(triple)


def _count(value, name: str, least: int | None = 1) -> int:
    """`value` if it is an int, not a bool, of at least `least` (1 or 0);
    otherwise ValueError "<name> must be a positive integer" ("a
    nonnegative integer" for least 0).  The one rule for integer
    arguments.  least=None checks the type alone, for the rank and a
    node: an int out of their range gets an error that names the type."""
    if isinstance(value, bool) or not isinstance(value, int) or (
        least is not None and value < least
    ):
        raise ValueError(f"{name} must be a {'nonnegative' if least == 0 else 'positive'} integer")
    return value


# ---------------------------------------------------------------------------
# Truncated formal power series in u^{-1}.


class Series:
    """c_0 + c_1 u^{-1} + ... + c_N u^{-N}, multiplication truncated at N."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        object.__setattr__(
            self, "coeffs", tuple(as_scalar(c) for c in coeffs)
        )
        if not self.coeffs:
            raise ValueError("series needs at least a constant term")

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        if self.order != other.order:
            raise ValueError("series orders differ")
        n = self.order
        out = [ZERO] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return Series(out)

    def __eq__(self, other):
        return isinstance(other, Series) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Series({[str(c) for c in self.coeffs]})"


# ---------------------------------------------------------------------------
# Exact vectors and sparse matrices.
#
# Public vectors are dense tuples of scalars.  Inside the package a vector
# or a matrix row is a sparse Z[i] row: a dict {index: (re, im)} of
# Gaussian integers that never stores a zero.  A matrix puts all its rows
# over one denominator; a vector's denominator is tracked by its caller,
# or does not matter, as in row reduction, where scaling a vector keeps
# its span.

Vector = tuple  # tuple[GaussianRational, ...]


def unit_vector(n: int, k: int) -> Vector:
    if _count(k, "k", 0) >= _count(n, "n", 0):
        raise ValueError(f"k = {k} is out of range for n = {n}")
    return tuple(ONE if j == k else ZERO for j in range(n))


def _clear_denominators(values) -> tuple:
    """(L, [(re*L, im*L) for each value]) with L the lcm of the denominators
    of `values`, scalars as `as_scalar` reads them (TypeError otherwise)."""
    triples = [as_scalar(v).triple for v in values]
    den = lcm(*(d for _, _, d in triples))
    return den, [(re * (den // d), im * (den // d)) for re, im, d in triples]


def _integral(vectors) -> tuple:
    """(rows, den): a sequence of dense vectors of scalars as Z[i] rows over
    den, the lcm of the denominators of their entries."""
    den, pairs = _clear_denominators(e for v in vectors for e in v)
    pairs = iter(pairs)
    return [{j: p for j, p in enumerate(islice(pairs, len(v))) if p != (0, 0)} for v in vectors], den


def _dense(row: dict, den: int, n: int) -> Vector:
    """The Z[i] row over den as a dense tuple of scalars."""
    return tuple(_reduced(*row[j], den) if j in row else ZERO for j in range(n))


def _row_sum(terms, i: int) -> dict:
    """Row i of sum c A B over Z[i], for terms (c, A, B) with c an integer,
    A a sequence of Z[i] rows and B any sequence or mapping that holds a
    Z[i] row for every column of A[i].  No entry is reduced.  A matrix
    applied to a vector v is the case A = [v], i = 0, with B the matrix's
    columns."""
    acc = {}
    for c, A, B in terms:
        for k, (ar, ai) in A[i].items():
            ar *= c
            ai *= c
            for j, (br, bi) in B[k].items():
                slot = acc.get(j)
                if slot is None:
                    acc[j] = [ar * br - ai * bi, ar * bi + ai * br]
                else:
                    slot[0] += ar * br - ai * bi
                    slot[1] += ar * bi + ai * br
    return {j: (re, im) for j, (re, im) in acc.items() if re or im}


def _content(entries, g: int = 0) -> int:
    """The gcd of g and both parts of every Gaussian integer in entries,
    read only until it reaches 1."""
    for re, im in entries:
        g = gcd(g, re, im)
        if g == 1:
            break
    return g


def _lowest(rows, den: int, ncols: int) -> "Matrix":
    """The matrix rows / den, for Z[i] rows with no zero and any den > 0,
    in lowest terms: everything divided by the gcd of den and every part."""
    rows = tuple(rows)
    if den != 1:
        g = _content((e for row in rows for e in row.values()), den)
        if g != 1:
            den //= g
            rows = tuple({j: (re // g, im // g) for j, (re, im) in row.items()} for row in rows)
    return Matrix._of(rows, den, ncols)


class Matrix:
    """Sparse rectangular matrix over the Gaussian rationals, rows / den.

    `rows` holds one Z[i] row {column: (re, im)} per row, with no zero
    stored, and `den` is a positive integer.  The matrix is kept in lowest
    terms, gcd(den, every re and im) = 1, a form its value determines, so
    equal matrices compare and hash equal.  A product and a matrix-vector
    application run the row kernel `_row_sum` on the nonzero entries.
    `Matrix(rows)` takes dense rows of scalars.  The columns, which `apply`
    reads, are indexed on first use.
    """

    __slots__ = ("rows", "den", "ncols", "_cols")

    def __new__(cls, rows: Iterable[Iterable]):
        dense = [tuple(row) for row in rows]
        widths = {len(r) for r in dense}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        return cls._of(*_integral(dense), widths.pop() if widths else 0)

    @classmethod
    def _of(cls, rows: Iterable[dict], den: int, ncols: int) -> "Matrix":
        """rows / den, already in lowest terms."""
        out = _new(cls)
        for name, value in zip(cls.__slots__, (tuple(rows), den, ncols, None)):
            _set(out, name, value)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("matrix shape mismatch")
        terms = ((1, self.rows, other.rows),)
        return _lowest(
            (_row_sum(terms, i) for i in range(self.nrows)), self.den * other.den, other.ncols
        )

    def _columns(self) -> list:
        """The columns as Z[i] rows, built on first use."""
        cols = self._cols
        if cols is None:
            cols = [{} for _ in range(self.ncols)]
            for i, row in enumerate(self.rows):
                for j, e in row.items():
                    cols[j][i] = e
            _set(self, "_cols", cols)
        return cols

    def apply(self, vec: dict) -> dict:
        """den times the image of a Z[i] vector, as a Z[i] vector: the sum
        of vec[k] times column k of the rows."""
        return _row_sum(((1, (vec,), self._columns()),), 0)

    def matvec(self, v: Vector) -> Vector:
        if self.ncols != len(v):
            raise ValueError("matrix/vector shape mismatch")
        (vec,), den = _integral((v,))
        return _dense(self.apply(vec), den * self.den, self.nrows)

    def __eq__(self, other):
        return isinstance(other, Matrix) and (self.ncols, self.den, self.rows) == (
            other.ncols, other.den, other.rows)

    def __hash__(self):
        return hash((self.ncols, self.den, tuple(frozenset(row.items()) for row in self.rows)))

    def __repr__(self):
        dense = [[str(e) for e in _dense(row, self.den, self.ncols)] for row in self.rows]
        return f"Matrix({dense})"


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; index (i1*b.nrows + i2, j1*b.ncols + j2)."""
    if not (isinstance(a, Matrix) and isinstance(b, Matrix)):
        raise TypeError("kron takes two matrices")
    bn = b.ncols
    return _lowest(
        (
            {
                j1 * bn + j2: (xr * yr - xi * yi, xr * yi + xi * yr)
                for j1, (xr, xi) in arow.items()
                for j2, (yr, yi) in brow.items()
            }
            for arow in a.rows
            for brow in b.rows
        ),
        a.den * b.den,
        a.ncols * bn,
    )


# ---------------------------------------------------------------------------
# Row reduction and subspace spinning.


def _primitive(row: dict) -> dict:
    """A nonzero Z[i] row divided by the integer gcd of its parts."""
    g = _content(row.values())
    return row if g == 1 else {j: (re // g, im // g) for j, (re, im) in row.items()}


class _Echelon:
    """Fraction-free forward echelon basis of a growing subspace of Q(i)^n.

    `rows` maps each pivot p to a Z[i] row whose lowest column is p, where
    it holds a positive integer, which is 0 at every pivot stored before
    it, and whose parts have integer gcd 1.  A stored row is never
    rewritten.  Rows with distinct lowest columns are independent, and
    their pivots are the pivot columns of the subspace, so the rows span
    it and their number is its dimension.  `scalar_rows` forms the
    reduced basis, which the subspace determines.  A vector's
    denominator does not change its span and is never asked for.
    """

    def __init__(self, n: int):
        self.n = n
        self.rows: dict[int, dict] = {}

    def insert(self, vec: dict):
        """Reduce vec against the stored rows, one pivot at a time in
        increasing pivot order; if it is independent, store the result and
        return it, else return None.  Row p is 0 at every column before p,
        so eliminating at p keeps the pivots already cleared at 0."""
        rows = self.rows
        for p in sorted(rows):
            e = vec.get(p)
            if e is None:
                continue
            row = rows[p]
            er, ei = e
            q = row[p][0]
            vec = {j: (q * a, q * b) for j, (a, b) in vec.items()}
            for j, (a, b) in row.items():  # vec = q vec - e row
                x, y = vec.get(j, (0, 0))
                x -= er * a - ei * b
                y -= er * b + ei * a
                if x or y:
                    vec[j] = (x, y)
                else:
                    del vec[j]
        if not vec:
            return None
        pivot = min(vec)
        re, im = vec[pivot]
        if im or re < 0:  # times the conjugate of the pivot entry
            vec = {j: (re * a + im * b, re * b - im * a) for j, (a, b) in vec.items()}
        vec = rows[pivot] = _primitive(vec)
        return vec

    def spin(self, queue: Iterable, after: Sequence[Matrix], limit: int) -> None:
        """Insert g vec for each (g, vec) pair of `queue` in turn, and queue
        (h, row) for every new row and each h in `after`; stop when the
        queue runs out or the basis holds `limit` rows.  Every subspace
        spin of the package runs this one loop."""
        queue, rows, insert = deque(queue), self.rows, self.insert
        while queue and len(rows) < limit:
            g, vec = queue.popleft()
            row = insert(g.apply(vec))
            if row is not None:
                for h in after:
                    queue.append((h, row))

    def scalar_rows(self) -> Tuple[Vector, ...]:
        """The reduced-row-echelon basis as dense tuples in pivot order:
        the rows inserted into a fresh basis, the last pivot first, so that
        each meets only rows already reduced."""
        reduced = _Echelon(self.n)
        for p in sorted(self.rows, reverse=True):
            reduced.insert(self.rows[p])
        return tuple(_dense(row, row[p][0], self.n) for p, row in sorted(reduced.rows.items()))


def row_space_closure(generators: Sequence[Matrix], seed: Vector):
    """Smallest subspace containing seed and closed under every generator.

    Returns (dimension, basis) with the basis as dense tuples in reduced
    row-echelon form, which the subspace determines uniquely.  Vectors are
    spun in sparse form; when the generators map weight spaces to weight
    spaces and the seed is a weight vector, every vector spun and every
    basis row stays inside one weight space.
    """
    n = len(seed)
    for g in generators:
        if g.nrows != g.ncols or g.nrows != n:
            raise ValueError("generators must be square and match the seed length")
    (start,), _ = _integral((seed,))
    if not start:
        raise ValueError("seed vector is zero")
    basis = _Echelon(n)
    row = basis.insert(start)
    basis.spin(((g, row) for g in generators), generators, n)
    return len(basis.rows), basis.scalar_rows()


def solve_linear(rows: Sequence[Vector], rhs: Vector):
    """Unique exact solution of the linear system rows * x = rhs.

    Returns the solution vector, or None when the system is inconsistent
    (a pivot in the rhs column) or underdetermined (fewer pivots than
    unknowns).  Ragged rows, or a rhs whose length is not the number of
    rows, raise ValueError.
    """
    rows, rhs = [tuple(row) for row in rows], tuple(rhs)
    if len({len(row) for row in rows}) > 1:
        raise ValueError("ragged rows")
    if len(rhs) != len(rows):
        raise ValueError("rhs length must equal the number of rows")
    ncols = len(rows[0]) if rows else 0
    basis = _Echelon(ncols + 1)
    for vec in _integral([row + (b,) for row, b in zip(rows, rhs)])[0]:
        basis.insert(vec)
    if sorted(basis.rows) != list(range(ncols)):
        return None
    return tuple(row[ncols] for row in basis.scalar_rows())
