"""Exact dyadic arithmetic on the half-open unit interval and cube.

A value is a fraction mantissa / 2**precision with an arbitrary-size
integer mantissa, always in [0, 1).  The value 1 is unrepresentable by
design: half-open cells then partition the cube exactly and every
representable point belongs to exactly one cell.
"""

from __future__ import annotations

import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering


class RangeError(ValueError):
    """A value falls outside [0, 1) or an index is out of range."""


class PrecisionError(ValueError):
    """An operation needs more fractional bits than the input carries."""


# an error shows at most this many characters of each value or key it echoes
ECHO_WIDTH = 40


def echo(value, width: int = ECHO_WIDTH) -> str:
    """str(value) for an error message, cut to `width` with "...".  A
    Fraction shows as numerator/denominator, each cut to half the width
    when the two do not fit whole."""
    if isinstance(value, Fraction):  # str() would convert both ints whole
        parts = [value.numerator] + [value.denominator] * (value.denominator != 1)
        text = "/".join(echo(part, width) for part in parts)
        return text if len(text) <= width else "/".join(
            echo(part, (width - 1) // 2) for part in parts)
    if isinstance(value, int) and value.bit_length() > 4 * width:
        # Only the leading digits show.  Dividing by 10^k, k at most the
        # digit count less `width`, keeps them without converting the
        # whole int, which str() refuses beyond 4300 digits by default.
        k = (value.bit_length() - 1) * 3 // 10 - width
        value = value // 10 ** k if value > 0 else -(-value // 10 ** k)
    text = str(value)
    return text if len(text) <= width else text[:width - 3] + "..."


def _integer(value, name: str, low: int, high: int | None = None) -> int:
    """`operator.index(value)`, which raises TypeError on a float or a
    str, or RangeError naming `name` if it is below low or above high."""
    value = operator.index(value)
    if value < low or high is not None and value > high:
        bound = f">= {low}" if high is None else f"in {low}..{echo(high)}"
        raise RangeError(f"{name} must be {bound}, got {echo(value)}")
    return value


@total_ordering
@dataclass(frozen=True, eq=False)
class UnitScalar:
    """Exact fraction mantissa / 2**precision in [0, 1).

    Equality and ordering compare values, not representations:
    (m, p) == (2m, p+1).
    """

    mantissa: int
    precision: int

    def __post_init__(self):
        precision = _integer(self.precision, "precision", 0)
        mantissa = operator.index(self.mantissa)
        # bit_length, not 1 << precision: a huge precision costs nothing
        if mantissa < 0 or mantissa.bit_length() > precision:
            raise RangeError(
                f"mantissa {echo(self.mantissa)} out of range for precision "
                f"{echo(self.precision)}: need 0 <= m < 2^{echo(self.precision)}"
            )
        # the checked ints are the ones kept: a numpy int would shift in int64
        object.__setattr__(self, "mantissa", mantissa)
        object.__setattr__(self, "precision", precision)

    def as_fraction(self) -> Fraction:
        return Fraction(self.mantissa, 1 << self.precision)

    def _lowest(self) -> tuple:
        """(mantissa, precision) of the value with an odd mantissa, or (0, 0):
        one form per value, built without 2**precision."""
        m = self.mantissa
        zeros = (m & -m).bit_length() - 1 if m else self.precision
        return m >> zeros, self.precision - zeros

    def __eq__(self, other):
        if not isinstance(other, UnitScalar):
            return NotImplemented
        return self._lowest() == other._lowest()

    def __lt__(self, other):
        if not isinstance(other, UnitScalar):
            return NotImplemented
        a, p, b, q = self.mantissa, self.precision, other.mantissa, other.precision
        if not a or not b:
            return a < b
        # m > 0 of bit length n lies in [2^(n-1-p), 2^(n-p)): unequal n - p
        # order the values, and equal ones keep each shift below n
        ea, eb = a.bit_length() - p, b.bit_length() - q
        if ea != eb:
            return ea < eb
        low = min(p, q)
        return a << q - low < b << p - low

    def __hash__(self):
        return hash(self._lowest())

    def __float__(self):
        # below 2^-1076 the value rounds to 0.0; above, 1 << precision has at
        # most 1076 bits more than the mantissa
        if self.mantissa.bit_length() - self.precision < -1075:
            return 0.0
        return self.mantissa / (1 << self.precision)

    def __str__(self):
        return format_scalar(self)


# ASCII digits only, matched whole: \d and int() would read any Unicode
# decimal digit, and `$` would let a trailing newline through
_RATIONAL_RE = re.compile(r"([0-9]+)/([0-9]+)\^([0-9]+)")
_BINARY_RE = re.compile(r"0b0\.([01]*)")


def parse_scalar(text: str) -> UnitScalar:
    """Parse `m/b^p` (b any power of two >= 2) or `0b0.101`, bit-exactly;
    no whitespace."""
    m = _RATIONAL_RE.fullmatch(text)
    if m:
        try:
            mant, base, power = map(int, m.groups())
        except ValueError:  # Python's bound on the digits int() reads
            raise ValueError(f"cannot parse {echo(repr(text))}: more than "
                             f"{sys.get_int_max_str_digits()} digits") from None
        if base > 1 and base & (base - 1) == 0:  # b = 2^s: m/2^(s*p)
            return UnitScalar(mant, (base.bit_length() - 1) * power)
    m = _BINARY_RE.fullmatch(text)
    if m:
        bits = m.group(1)
        mant = int(bits, 2) if bits else 0
        return UnitScalar(mant, len(bits))
    raise ValueError(f"cannot parse unit scalar from {echo(repr(text))}")


def format_scalar(s: UnitScalar) -> str:
    """Render bit-exactly as `m/2^p`; parse_scalar reads it back."""
    return f"{s.mantissa}/2^{s.precision}"


@dataclass(frozen=True)
class CubePoint:
    """Point of [0, 1)**d; each coordinate keeps its own precision."""

    coords: tuple[UnitScalar, ...]

    def __post_init__(self):
        # kept as a tuple of UnitScalar, so a point hashes and compares as one
        coords = tuple(self.coords)
        if not coords:
            raise RangeError("need at least one coordinate")
        for c in coords:
            if not isinstance(c, UnitScalar):
                raise TypeError(f"coordinate must be a UnitScalar, got {type(c).__name__}")
        object.__setattr__(self, "coords", coords)

    @property
    def dimension(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class DyadicRect:
    """Half-open box prod_i [x_i, x_i + 2**-k_i) contained in [0, 1)**d."""

    lower: CubePoint
    side_exponents: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.lower, CubePoint):
            raise TypeError(f"lower corner must be a CubePoint, got {type(self.lower).__name__}")
        if len(self.side_exponents) != self.lower.dimension:
            raise RangeError("one side exponent per axis required")
        sides = tuple(_integer(k, "side exponent", 0) for k in self.side_exponents)
        for c, k in zip(self.lower.coords, sides):
            # x + 2^-k > 1, in integers: m * 2^k + 2^p > 2^(p + k)
            if (c.mantissa << k) + (1 << c.precision) > 1 << (c.precision + k):
                raise RangeError("box must be contained in [0,1)^d")
        object.__setattr__(self, "side_exponents", sides)

    def volume(self) -> Fraction:
        return Fraction(1, 1 << sum(self.side_exponents))
