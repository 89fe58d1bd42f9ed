"""Exact dyadic arithmetic on the half-open unit interval and cube.

A value is a fraction mantissa / 2**precision with an arbitrary-size
integer mantissa, always in [0, 1).  The value 1 is unrepresentable by
design: half-open cells then partition the cube exactly and every
representable point belongs to exactly one cell.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering


class RangeError(ValueError):
    """A value falls outside [0, 1) or an index is out of range."""


class PrecisionError(ValueError):
    """An operation needs more fractional bits than the input carries."""


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
        if self.precision < 0:
            raise RangeError(f"precision must be >= 0, got {self.precision}")
        if not 0 <= self.mantissa < (1 << self.precision):
            raise RangeError(
                f"mantissa {self.mantissa} out of range for precision "
                f"{self.precision}: need 0 <= m < 2^{self.precision}"
            )

    def as_fraction(self) -> Fraction:
        return Fraction(self.mantissa, 1 << self.precision)

    def refine(self, new_precision: int) -> "UnitScalar":
        """Same value re-expressed with at least as many bits."""
        if new_precision < self.precision:
            raise PrecisionError(
                f"cannot refine from {self.precision} to {new_precision} bits"
            )
        return UnitScalar(self.mantissa << (new_precision - self.precision),
                          new_precision)

    def _canonical(self) -> tuple[int, int]:
        m, p = self.mantissa, self.precision
        if m == 0:
            return 0, 0
        while m & 1 == 0:
            m >>= 1
            p -= 1
        return m, p

    def __eq__(self, other):
        if not isinstance(other, UnitScalar):
            return NotImplemented
        return (self.mantissa << other.precision) == (other.mantissa << self.precision)

    def __lt__(self, other):
        if not isinstance(other, UnitScalar):
            return NotImplemented
        return (self.mantissa << other.precision) < (other.mantissa << self.precision)

    def __hash__(self):
        return hash(self._canonical())

    def __float__(self):
        return self.mantissa / (1 << self.precision)

    def __str__(self):
        return format_scalar(self)


_RATIONAL_RE = re.compile(r"^(\d+)/2\^(\d+)$")
_BINARY_RE = re.compile(r"^0b0\.([01]*)$")


def parse_scalar(text: str) -> UnitScalar:
    """Parse `m/2^p` or a binary-fraction string `0b0.101`, bit-exactly."""
    text = text.strip()
    m = _RATIONAL_RE.match(text)
    if m:
        return UnitScalar(int(m.group(1)), int(m.group(2)))
    m = _BINARY_RE.match(text)
    if m:
        bits = m.group(1)
        mant = int(bits, 2) if bits else 0
        return UnitScalar(mant, len(bits))
    raise ValueError(f"cannot parse unit scalar from {text!r}")


def format_scalar(s: UnitScalar, style: str = "rational") -> str:
    """Render bit-exactly; inverse of parse_scalar for both styles."""
    if style == "rational":
        return f"{s.mantissa}/2^{s.precision}"
    if style == "binary":
        return "0b0." + format(s.mantissa, f"0{s.precision}b") if s.precision else "0b0."
    raise ValueError(f"unknown style {style!r}")


@dataclass(frozen=True)
class CubePoint:
    """Point of [0, 1)**d; all coordinates share one precision."""

    coords: tuple[UnitScalar, ...]

    def __post_init__(self):
        if len(self.coords) < 1:
            raise RangeError("need at least one coordinate")
        p = self.coords[0].precision
        if any(c.precision != p for c in self.coords):
            raise PrecisionError("all coordinates must share one precision")

    @property
    def dimension(self) -> int:
        return len(self.coords)

    @property
    def precision(self) -> int:
        return self.coords[0].precision

    def refine(self, new_precision: int) -> "CubePoint":
        return CubePoint(tuple(c.refine(new_precision) for c in self.coords))

    def as_fractions(self) -> tuple[Fraction, ...]:
        return tuple(c.as_fraction() for c in self.coords)


def make_point(mantissas, precision: int) -> CubePoint:
    return CubePoint(tuple(UnitScalar(m, precision) for m in mantissas))


@dataclass(frozen=True)
class DyadicRect:
    """Half-open box prod_i [x_i, x_i + 2**-k_i) contained in [0, 1)**d."""

    lower: CubePoint
    side_exponents: tuple[int, ...]

    def __post_init__(self):
        if len(self.side_exponents) != self.lower.dimension:
            raise RangeError("one side exponent per axis required")
        for c, k in zip(self.lower.coords, self.side_exponents):
            if k < 0:
                raise RangeError(f"side exponent {k} must be >= 0")
            # x + 2^-k > 1, in integers: m * 2^k + 2^p > 2^(p + k)
            if (c.mantissa << k) + (1 << c.precision) > 1 << (c.precision + k):
                raise RangeError("box must be contained in [0,1)^d")

    @property
    def dimension(self) -> int:
        return self.lower.dimension

    def volume(self) -> Fraction:
        v = Fraction(1)
        for k in self.side_exponents:
            v /= 1 << k
        return v

    def contains(self, pt: CubePoint) -> bool:
        if pt.dimension != self.dimension:
            return False
        for x, lo, k in zip(pt.as_fractions(), self.lower.as_fractions(),
                            self.side_exponents):
            if not lo <= x < lo + Fraction(1, 1 << k):
                return False
        return True


def is_on_grid(pt: CubePoint, level: int) -> bool:
    """True iff some coordinate equals a/2**level exactly.

    Membership test for the exceptional grid set at finite level; monotone
    in level because a/2^n = (a * 2^(m-n)) / 2^m for m >= n.
    """
    if level < 0:
        raise RangeError(f"level must be >= 0, got {level}")
    if level > pt.precision:
        raise PrecisionError(
            f"level {level} exceeds point precision {pt.precision}"
        )
    for c in pt.coords:
        if c.mantissa & ((1 << (c.precision - level)) - 1) == 0:
            return True
    return False
