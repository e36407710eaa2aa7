"""The package's former scalar class, kept as the oracle for the new one.

`PairRational` stores a Gaussian rational as two `fractions.Fraction`
parts and does its arithmetic, formatting, parsing and ordering on them,
exactly as `yangian_weyl.exact.GaussianRational` did before it came to
store one reduced integer triple.  `tests/test_scalar_oracle.py` checks
the package's scalar against it.
"""

from __future__ import annotations

import re
from fractions import Fraction


class ScalarParseError(ValueError):
    """Raised when a scalar string does not match the grammar."""


class PairRational:
    """A Gaussian rational re + im*i with two `Fraction` parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("PairRational is immutable")

    @staticmethod
    def _coerce(value):
        if isinstance(value, PairRational):
            return value
        if isinstance(value, (int, Fraction)):
            return PairRational(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return PairRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return PairRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return PairRational(
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
        return PairRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

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
        return PairRational(-self.re, -self.im)

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
        return f"PairRational({self.re!r}, {self.im!r})"


ZERO = PairRational(0)
ONE = PairRational(1)


def _format_fraction(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


_RAT = r"-?\d+(?:/\d+)?"
_SCALAR_RE = re.compile(rf"^(?P<re>{_RAT})(?:(?P<sign>[+-])(?P<im>\d+(?:/\d+)?)i)?$")


def _parse_fraction(token: str) -> Fraction:
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ScalarParseError(f"zero denominator in {token!r}") from None
    except ValueError as exc:  # more digits than int() converts
        raise ScalarParseError(f"scalar part too long: {exc}") from exc


def parse_scalar(text: str) -> PairRational:
    """Parse `rat(("+"|"-") rat "i")?` with rat = `int("/" posint)?`."""
    match = _SCALAR_RE.match(text.strip())
    if match is None:
        raise ScalarParseError(f"malformed scalar {text!r}")
    real = _parse_fraction(match.group("re"))
    if match.group("im") is None:
        return PairRational(real)
    imag = _parse_fraction(match.group("im"))
    if match.group("sign") == "-":
        imag = -imag
    return PairRational(real, imag)


def format_scalar(value: PairRational) -> str:
    return str(value)


def ordering_key(value):
    """Sort key for descending real part, then descending imaginary part.

    It reads only `.re` and `.im` as Fractions, so it keys a
    `GaussianRational` too: it is the oracle for the integer sort keys of
    `yangian_weyl.drinfeld`, which sorted on this key before."""
    return (-value.re, -value.im)
