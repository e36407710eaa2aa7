"""Exact scalar arithmetic: Gaussian rationals, truncated series, dense linear algebra.

Everything in this package computes over Q(i) with `fractions.Fraction`
components; no floating point is used anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Sequence


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

    @property
    def is_real(self) -> bool:
        return self.im == 0

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
# Dense exact vectors and matrices.

Vector = tuple  # tuple[GaussianRational, ...]


def vector(entries: Iterable) -> Vector:
    return tuple(as_scalar(e) for e in entries)


def unit_vector(n: int, k: int) -> Vector:
    return tuple(ONE if j == k else ZERO for j in range(n))


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))

def vec_sub(a: Vector, b: Vector) -> Vector:
    return tuple(x - y for x, y in zip(a, b))

def vec_scale(c, a: Vector) -> Vector:
    c = as_scalar(c)
    return tuple(c * x for x in a)

def vec_is_zero(a: Vector) -> bool:
    return all(not x for x in a)


class Matrix:
    """Dense rectangular matrix over the Gaussian rationals."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        object.__setattr__(
            self, "rows", tuple(tuple(as_scalar(e) for e in row) for row in rows)
        )
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise ValueError("ragged rows")

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    def __add__(self, other: "Matrix") -> "Matrix":
        return Matrix(vec_add(a, b) for a, b in zip(self.rows, other.rows))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return Matrix(vec_sub(a, b) for a, b in zip(self.rows, other.rows))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("matrix shape mismatch")
        ncols = other.ncols
        orows = other.rows
        zero = Fraction(0)
        out = []
        for row in self.rows:
            acc_re = [zero] * ncols
            acc_im = [zero] * ncols
            for k, a in enumerate(row):
                if not a:
                    continue
                are, aim = a.re, a.im
                for j, b in enumerate(orows[k]):
                    if not b:
                        continue
                    acc_re[j] += are * b.re - aim * b.im
                    acc_im[j] += are * b.im + aim * b.re
            out.append(
                tuple(GaussianRational(r, i) for r, i in zip(acc_re, acc_im))
            )
        return Matrix(out)

    def scale(self, c) -> "Matrix":
        c = as_scalar(c)
        return Matrix(tuple(c * e for e in row) for row in self.rows)

    def matvec(self, v: Vector) -> Vector:
        if self.ncols != len(v):
            raise ValueError("matrix/vector shape mismatch")
        out = []
        for row in self.rows:
            acc = ZERO
            for a, b in zip(row, v):
                if a and b:
                    acc = acc + a * b
            out.append(acc)
        return tuple(out)

    def is_zero(self) -> bool:
        return all(not e for row in self.rows for e in row)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Matrix({[[str(e) for e in row] for row in self.rows]})"


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a @ b - b @ a


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; index (i1*b.nrows + i2, j1*b.ncols + j2)."""
    rows = []
    for arow in a.rows:
        for brow in b.rows:
            rows.append(tuple(ae * be for ae in arow for be in brow))
    return Matrix(rows)


# ---------------------------------------------------------------------------
# Row reduction and subspace spinning.


class _RrefBasis:
    """Reduced-row-echelon basis of a growing subspace."""

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[Vector] = []       # kept in pivot order
        self.pivots: list[int] = []

    def reduce(self, vec: Vector) -> Vector:
        for pivot, row in zip(self.pivots, self.rows):
            c = vec[pivot]
            if c:
                vec = vec_sub(vec, vec_scale(c, row))
        return vec

    def insert(self, vec: Vector) -> bool:
        """Reduce vec against the basis; grow the basis if independent."""
        vec = self.reduce(vec)
        pivot = next((j for j, e in enumerate(vec) if e), None)
        if pivot is None:
            return False
        vec = vec_scale(ONE / vec[pivot], vec)
        for k, row in enumerate(self.rows):
            c = row[pivot]
            if c:
                self.rows[k] = vec_sub(row, vec_scale(c, vec))
        pos = next((k for k, p in enumerate(self.pivots) if p > pivot), len(self.pivots))
        self.pivots.insert(pos, pivot)
        self.rows.insert(pos, vec)
        return True

    def contains(self, vec: Vector) -> bool:
        return vec_is_zero(self.reduce(vec))


def row_space_closure(generators: Sequence[Matrix], seed: Vector):
    """Smallest subspace containing seed and closed under every generator.

    Returns (dimension, basis) with the basis in reduced row-echelon form;
    deterministic for a fixed generator order.
    """
    n = len(seed)
    for g in generators:
        if g.nrows != g.ncols or g.nrows != n:
            raise ValueError("generators must be square and match the seed length")
    if vec_is_zero(seed):
        raise ValueError("seed vector is zero")
    basis = _RrefBasis(n)
    basis.insert(seed)
    queue = list(basis.rows)
    while queue:
        vec = queue.pop(0)
        for g in generators:
            image = basis.reduce(g.matvec(vec))
            if not vec_is_zero(image):
                before = set(basis.pivots)
                basis.insert(image)
                added = [r for p, r in zip(basis.pivots, basis.rows) if p not in before]
                queue.extend(added)
        if len(basis.rows) == n:
            break
    return len(basis.rows), tuple(basis.rows)


def solve_linear(rows: Sequence[Vector], rhs: Vector):
    """Unique exact solution of the linear system rows * x = rhs.

    Returns the solution vector, or None when the system is inconsistent
    (a pivot in the rhs column) or underdetermined (fewer pivots than
    unknowns).
    """
    ncols = len(rows[0]) if rows else 0
    basis = _RrefBasis(ncols + 1)
    for row, b in zip(rows, rhs):
        basis.insert(tuple(row) + (b,))
    if basis.pivots != list(range(ncols)):
        return None
    return tuple(row[ncols] for row in basis.rows)
