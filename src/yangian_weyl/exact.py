"""Exact scalar arithmetic: Gaussian rationals, truncated series, sparse linear algebra.

Everything in this package computes over Q(i); no floating point is used
anywhere.  A scalar is a `GaussianRational` that stores one integer triple
(re, im, d) standing for (re + im*i) / d, in lowest terms.  Arithmetic and
formatting work on those integers, and each result is reduced once.
Matrices and row reduction keep sparse rows that never store a zero, with
the same triples as entries; a kernel sums products over a common
denominator and reduces each result entry once.  Scalars and dense tuples
appear only where values cross the public API.
"""

from __future__ import annotations

import re
from collections import deque
from fractions import Fraction
from math import gcd
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


def _rational_text(n: int, d: int) -> str:
    """n/d in lowest terms, as "n" or "n/d"."""
    if d != 1:
        g = gcd(n, d)
        if g != d:
            return f"{n // g}/{d // g}"
        n //= d
    return str(n)


def format_triple(re: int, im: int, d: int) -> str:
    """The printed form of (re + im*i) / d for any d > 0, each part in
    lowest terms; the triple itself need not be reduced."""
    if not im:
        return _rational_text(re, d)
    sign = "+" if im > 0 else "-"
    return f"{_rational_text(re, d)}{sign}{_rational_text(abs(im), d)}i"


_RAT = r"-?\d+(?:/\d+)?"
_SCALAR_RE = re.compile(rf"^(?P<re>{_RAT})(?:(?P<sign>[+-])(?P<im>\d+(?:/\d+)?)i)?$")


def _parse_rational(token: str):
    """(n, d) with n/d the value of `int("/" posint)?`."""
    num, _, den = token.partition("/")
    try:
        n, d = int(num), int(den or 1)
    except ValueError as exc:  # more digits than int() converts
        raise ScalarParseError(f"scalar part too long: {exc}") from exc
    if d == 0:
        raise ScalarParseError(f"zero denominator in {token!r}")
    return n, d


def parse_scalar(text: str) -> GaussianRational:
    """Parse `rat(("+"|"-") rat "i")?` with rat = `int("/" posint)?`."""
    match = _SCALAR_RE.match(text.strip())
    if match is None:
        raise ScalarParseError(f"malformed scalar {text!r}")
    n, d = _parse_rational(match.group("re"))
    if match.group("im") is None:
        return _reduced(n, 0, d)
    m, e = _parse_rational(match.group("im"))
    if match.group("sign") == "-":
        m = -m
    g = gcd(d, e)
    return _reduced(n * (e // g), m * (d // g), d // g * e)


def format_scalar(value: GaussianRational) -> str:
    return str(value)


def ordering_key(value: GaussianRational):
    """Sort key for descending real part, then descending imaginary part."""
    re, im, d = value.triple
    return (Fraction(-re, d), Fraction(-im, d))


def as_scalar(value) -> GaussianRational:
    triple = _triple(value)
    if triple is None:
        raise TypeError(f"cannot interpret {value!r} as a scalar")
    return value if type(value) is GaussianRational else _of(triple)


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
# Public vectors are dense tuples of scalars.  Inside matrices and row
# reduction a vector is sparse: a dict {index: entry} that never stores a
# zero, each entry the triple of a scalar.  The triple is unique, so equal
# rows compare and hash equal.

Vector = tuple  # tuple[GaussianRational, ...]

_UNIT = (1, 0, 1)


def unit_vector(n: int, k: int) -> Vector:
    return tuple(ONE if j == k else ZERO for j in range(n))


def _sparse(vec: Iterable) -> dict:
    return {j: as_scalar(e).triple for j, e in enumerate(vec) if e}


def _dense(vec: dict, n: int) -> Vector:
    return tuple(_of(vec[j]) if j in vec else ZERO for j in range(n))


def _accumulate(acc: dict, c, row: dict):
    """acc[j] += c * e for every entry e = row[j], in integers.

    A slot [re, im, d] of acc stands for (re + im*i) / d.  A term over the
    slot's denominator is added directly, any other over the lcm of the two
    denominators; nothing is reduced until `_settle`.
    """
    cr, ci, cd = c
    for j, (er, ei, d) in row.items():
        re = cr * er - ci * ei
        im = cr * ei + ci * er
        d *= cd
        slot = acc.get(j)
        if slot is None:
            acc[j] = [re, im, d]
        elif slot[2] == d:
            slot[0] += re
            slot[1] += im
        else:
            sd = slot[2]
            g = gcd(sd, d)
            sd //= g
            d //= g
            slot[0] = slot[0] * d + re * sd
            slot[1] = slot[1] * d + im * sd
            slot[2] = sd * d * g


def _settle(out: dict, acc: dict) -> dict:
    """Write the accumulated slots into out in lowest terms; a slot that
    sums to zero removes its entry."""
    for j, (re, im, d) in acc.items():
        if re or im:
            g = gcd(re, im, d)
            out[j] = (re, im, d) if g == 1 else (re // g, im // g, d // g)
        else:
            out.pop(j, None)
    return out


def _add_multiples(base: dict, terms) -> dict:
    """base + sum(c * row for c, row in terms), as a new sparse vector.

    Entries of base that no term touches are shared, not copied.
    """
    acc = {}
    for c, row in terms:
        _accumulate(acc, c, row)
    if base:
        _accumulate(acc, _UNIT, {j: base[j] for j in acc if j in base})
    return _settle(dict(base), acc)


class Matrix:
    """Sparse rectangular matrix over the Gaussian rationals.

    `rows` holds one dict {column: nonzero entry} per row, in the entry form
    above; no zero is ever stored, so every product, sum and matrix-vector
    application touches only nonzero entries.  `Matrix(rows)` takes dense
    rows of scalars.  The columns, which `apply` reads, are indexed on first
    use.
    """

    __slots__ = ("rows", "ncols", "_cols")

    def __init__(self, rows: Iterable[Iterable]):
        dense = [tuple(row) for row in rows]
        widths = {len(r) for r in dense}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", tuple(_sparse(row) for row in dense))
        object.__setattr__(self, "ncols", widths.pop() if widths else 0)
        object.__setattr__(self, "_cols", None)

    @classmethod
    def _of(cls, rows: Iterable[dict], ncols: int) -> "Matrix":
        """A matrix from sparse rows that already hold no zero."""
        out = object.__new__(cls)
        object.__setattr__(out, "rows", tuple(rows))
        object.__setattr__(out, "ncols", ncols)
        object.__setattr__(out, "_cols", None)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._of(({i: _UNIT} for i in range(n)), n)

    def _plus(self, other: "Matrix", c) -> "Matrix":
        """self + c * other, for c = 1 or -1."""
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("matrix shape mismatch")
        return Matrix._of(
            (_add_multiples(a, ((c, b),)) for a, b in zip(self.rows, other.rows)),
            self.ncols,
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, _UNIT)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, (-1, 0, 1))

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
        c = as_scalar(c).triple
        return Matrix._of(
            (_add_multiples({}, ((c, row),)) for row in self.rows), self.ncols
        )

    def _columns(self) -> dict:
        """{column: {row: entry}} over the nonzero entries."""
        cols = self._cols
        if cols is None:
            cols = {}
            for i, row in enumerate(self.rows):
                for j, e in row.items():
                    cols.setdefault(j, {})[i] = e
            object.__setattr__(self, "_cols", cols)
        return cols

    def apply(self, vec: dict) -> dict:
        """The image of a sparse vector, as a sparse vector: the sum of
        vec[k] times column k."""
        cols = self._columns()
        return _add_multiples({}, ((c, cols[k]) for k, c in vec.items() if k in cols))

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


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; index (i1*b.nrows + i2, j1*b.ncols + j2)."""
    bn = b.ncols
    return Matrix._of(
        (
            _settle(
                {},
                {
                    j1 * bn + j2: (xr * yr - xi * yi, xr * yi + xi * yr, xd * yd)
                    for j1, (xr, xi, xd) in arow.items()
                    for j2, (yr, yi, yd) in brow.items()
                },
            )
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
        terms = [((-r, -i, d), rows[p]) for p, (r, i, d) in vec.items() if p in rows]
        return _add_multiples(vec, terms) if terms else vec

    def insert(self, vec: dict):
        """Reduce vec against the basis; if independent, add it and return
        the new row, else return None."""
        vec = self.reduce(vec)
        if not vec:
            return None
        pivot = min(vec)
        r, i, d = vec[pivot]
        if (r, i, d) != _UNIT:  # divide by (r + i*i)/d
            vec = _add_multiples({}, (((d * r, -d * i, r * r + i * i), vec),))
        rows = self.rows
        for p, row in rows.items():
            c = row.get(pivot)
            if c is not None:
                rows[p] = _add_multiples(row, (((-c[0], -c[1], c[2]), vec),))
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
    return _dense({p: row[ncols] for p, row in basis.rows.items() if ncols in row}, ncols)
