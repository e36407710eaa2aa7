"""Exact scalar arithmetic: Gaussian rationals, truncated series, sparse linear algebra.

Everything in this package computes over Q(i) with `fractions.Fraction`
components; no floating point is used anywhere.  Matrices and row
reduction keep sparse rows that never store a zero; vectors cross the
public API as dense tuples.
"""

from __future__ import annotations

import re
from collections import deque
from fractions import Fraction
from typing import Iterable, Sequence, Tuple


class ScalarParseError(ValueError):
    """Raised when a scalar string does not match the grammar."""


class GaussianRational:
    """A Gaussian rational re + im*i with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    @staticmethod
    def _coerce(value):
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero scalar")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
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
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __str__(self):
        if self.im == 0:
            return _format_fraction(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"{_format_fraction(self.re)}{sign}{_format_fraction(abs(self.im))}i"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)


def _format_fraction(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


_RAT = r"-?\d+(?:/\d+)?"
_SCALAR_RE = re.compile(rf"^(?P<re>{_RAT})(?:(?P<sign>[+-])(?P<im>\d+(?:/\d+)?)i)?$")


def _parse_fraction(token: str) -> Fraction:
    if "/" in token:
        num, den = token.split("/", 1)
        if int(den) == 0:
            raise ScalarParseError(f"zero denominator in {token!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(token))


def parse_scalar(text: str) -> GaussianRational:
    """Parse `rat(("+"|"-") rat "i")?` with rat = `int("/" posint)?`."""
    match = _SCALAR_RE.match(text.strip())
    if match is None:
        raise ScalarParseError(f"malformed scalar {text!r}")
    real = _parse_fraction(match.group("re"))
    if match.group("im") is None:
        return GaussianRational(real)
    imag = _parse_fraction(match.group("im"))
    if match.group("sign") == "-":
        imag = -imag
    return GaussianRational(real, imag)


def format_scalar(value: GaussianRational) -> str:
    return str(value)


def ordering_key(value: GaussianRational):
    """Sort key for descending real part, then descending imaginary part."""
    return (-value.re, -value.im)


def as_scalar(value) -> GaussianRational:
    out = GaussianRational._coerce(value)
    if out is None:
        raise TypeError(f"cannot interpret {value!r} as a scalar")
    return out


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

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls([ONE] + [ZERO] * order)

    def _check_order(self, other: "Series"):
        if self.order != other.order:
            raise ValueError("series orders differ")

    def __add__(self, other: "Series") -> "Series":
        self._check_order(other)
        return Series(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other: "Series") -> "Series":
        self._check_order(other)
        return Series(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __mul__(self, other: "Series") -> "Series":
        self._check_order(other)
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

    def inverse(self) -> "Series":
        if not self.coeffs[0]:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        inv0 = ONE / self.coeffs[0]
        out = [inv0]
        for n in range(1, self.order + 1):
            acc = ZERO
            for k in range(1, n + 1):
                acc = acc + self.coeffs[k] * out[n - k]
            out.append(-inv0 * acc)
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
# Public vectors are dense tuples.  Inside matrices and row reduction a
# vector is sparse: a dict {index: nonzero scalar} that never stores a zero.

Vector = tuple  # tuple[GaussianRational, ...]


def unit_vector(n: int, k: int) -> Vector:
    return tuple(ONE if j == k else ZERO for j in range(n))


def _sparse(vec: Iterable) -> dict:
    return {j: as_scalar(e) for j, e in enumerate(vec) if e}


def _dense(vec: dict, n: int) -> Vector:
    return tuple(vec.get(j, ZERO) for j in range(n))


def _add_multiples(base: dict, terms) -> dict:
    """base + sum(c * row for c, row in terms), as a new sparse vector.

    Products are summed on the rational parts, so each touched entry makes
    one scalar; entries of base that no term touches are shared, not copied.
    """
    acc = {}
    for c, row in terms:
        cre, cim = c.re, c.im
        for j, e in row.items():
            ere, eim = e.re, e.im
            re = cre * ere - cim * eim
            im = cre * eim + cim * ere
            slot = acc.get(j)
            if slot is None:
                acc[j] = [re, im]
            else:
                slot[0] += re
                slot[1] += im
    out = dict(base)
    for j, (re, im) in acc.items():
        old = out.get(j)
        if old is not None:
            re += old.re
            im += old.im
        if re or im:
            out[j] = GaussianRational(re, im)
        elif old is not None:
            del out[j]
    return out


def _add_rows(a: dict, b: dict, sign: int) -> dict:
    """a + b (sign 1) or a - b (sign -1), as a new sparse vector."""
    out = dict(a)
    for j, e in b.items():
        old = out.get(j)
        if old is None:
            out[j] = e if sign > 0 else -e
        else:
            total = old + e if sign > 0 else old - e
            if total:
                out[j] = total
            else:
                del out[j]
    return out


class Matrix:
    """Sparse rectangular matrix over the Gaussian rationals.

    `rows` holds one dict {column: nonzero scalar} per row; no zero is ever
    stored, so every product, sum and matrix-vector application touches
    only nonzero entries.  `Matrix(rows)` takes dense rows.
    """

    __slots__ = ("rows", "ncols")

    def __init__(self, rows: Iterable[Iterable]):
        dense = [tuple(row) for row in rows]
        widths = {len(r) for r in dense}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", tuple(_sparse(row) for row in dense))
        object.__setattr__(self, "ncols", widths.pop() if widths else 0)

    @classmethod
    def _of(cls, rows: Iterable[dict], ncols: int) -> "Matrix":
        """A matrix from sparse rows that already hold no zero."""
        out = object.__new__(cls)
        object.__setattr__(out, "rows", tuple(rows))
        object.__setattr__(out, "ncols", ncols)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(({i: ONE} for i in range(n)), n)

    def _check_same_shape(self, other: "Matrix"):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("matrix shape mismatch")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix._of(
            (_add_rows(a, b, 1) for a, b in zip(self.rows, other.rows)), self.ncols
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix._of(
            (_add_rows(a, b, -1) for a, b in zip(self.rows, other.rows)), self.ncols
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("matrix shape mismatch")
        orows = other.rows
        return Matrix._of(
            (
                _add_multiples({}, ((a, orows[k]) for k, a in row.items()))
                for row in self.rows
            ),
            other.ncols,
        )

    def scale(self, c) -> "Matrix":
        c = as_scalar(c)
        if not c:
            return Matrix._of(({} for _ in self.rows), self.ncols)
        return Matrix._of(
            ({j: c * e for j, e in row.items()} for row in self.rows), self.ncols
        )

    def apply(self, vec: dict) -> dict:
        """The image of a sparse vector, as a sparse vector."""
        out = {}
        for i, row in enumerate(self.rows):
            small, big = (row, vec) if len(row) <= len(vec) else (vec, row)
            re = im = 0
            for k, a in small.items():
                b = big.get(k)
                if b is not None:
                    re += a.re * b.re - a.im * b.im
                    im += a.re * b.im + a.im * b.re
            if re or im:
                out[i] = GaussianRational(re, im)
        return out

    def matvec(self, v: Vector) -> Vector:
        if self.ncols != len(v):
            raise ValueError("matrix/vector shape mismatch")
        return _dense(self.apply(_sparse(v)), self.nrows)

    def is_zero(self) -> bool:
        return not any(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ncols, tuple(frozenset(row.items()) for row in self.rows)))

    def __repr__(self):
        return f"Matrix({[[str(e) for e in _dense(row, self.ncols)] for row in self.rows]})"


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a @ b - b @ a


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; index (i1*b.nrows + i2, j1*b.ncols + j2)."""
    bn = b.ncols
    return Matrix._of(
        (
            {
                j1 * bn + j2: x * y
                for j1, x in arow.items()
                for j2, y in brow.items()
            }
            for arow in a.rows
            for brow in b.rows
        ),
        a.ncols * bn,
    )


# ---------------------------------------------------------------------------
# Row reduction and subspace spinning.


class _RrefBasis:
    """Reduced-row-echelon basis of a growing subspace.

    `rows` maps each pivot to its sparse row, which is 1 at that pivot and
    0 at every other pivot.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: dict[int, dict] = {}

    def reduce(self, vec: dict) -> dict:
        # Rows vanish at each other's pivots, so the multiples to subtract
        # are read off vec once.
        rows = self.rows
        terms = [(-c, rows[p]) for p, c in vec.items() if p in rows]
        return _add_multiples(vec, terms) if terms else vec

    def insert(self, vec: dict):
        """Reduce vec against the basis; if independent, add it and return
        the new row, else return None."""
        vec = self.reduce(vec)
        if not vec:
            return None
        pivot = min(vec)
        lead = vec[pivot]
        if lead != ONE:
            inv = ONE / lead
            vec = {j: inv * e for j, e in vec.items()}
        rows = self.rows
        for p, row in rows.items():
            c = row.get(pivot)
            if c is not None:
                rows[p] = _add_multiples(row, ((-c, vec),))
        rows[pivot] = vec
        return vec

    def dense_rows(self) -> Tuple[Vector, ...]:
        """The basis as dense tuples in pivot order."""
        return tuple(_dense(self.rows[p], self.dim) for p in sorted(self.rows))


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
    start = _sparse(seed)
    if not start:
        raise ValueError("seed vector is zero")
    basis = _RrefBasis(n)
    queue = deque([basis.insert(start)])
    while queue and len(basis.rows) < n:
        vec = queue.popleft()
        for g in generators:
            row = basis.insert(g.apply(vec))
            if row is not None:
                queue.append(row)
    return len(basis.rows), basis.dense_rows()


def solve_linear(rows: Sequence[Vector], rhs: Vector):
    """Unique exact solution of the linear system rows * x = rhs.

    Returns the solution vector, or None when the system is inconsistent
    (a pivot in the rhs column) or underdetermined (fewer pivots than
    unknowns).
    """
    ncols = len(rows[0]) if rows else 0
    basis = _RrefBasis(ncols + 1)
    for row, b in zip(rows, rhs):
        basis.insert(_sparse(tuple(row) + (b,)))
    if sorted(basis.rows) != list(range(ncols)):
        return None
    return tuple(basis.rows[p].get(ncols, ZERO) for p in range(ncols))
