"""Recursive 2**d-way subdivision with a face-adjacent numbering.

Each cell of the cube is split into 2**d children visited in a Gray-code
order, so consecutive children (and, by the orientation bookkeeping,
consecutive cells globally) share a (d-1)-face.  The matching split of
the segment into 2**d equal parts gives the digit-level forward and
inverse maps between [0,1)**d and [0,1); cells map to intervals of equal
measure at every depth.

For d=2 the root-level order is lower-left, upper-left, upper-right,
lower-right (the classical U order), with child orientations
swap / identity / identity / swap-and-reflect.

`OrientationState` and `child_order` define one level of the
subdivision.  The maps themselves walk digit tables instead (the state
table form of Butz's algorithm, after Skilling 2004 and Hamilton &
Rau-Chaplin 2008), which take L = max(1, 8 // d) digits per lookup; a
depth that is not a multiple of L ends with one shorter step.  The flips
of a state act on octants by XOR, so a table is keyed by the rotation
and the next L digits only.  Each entry holds the L corner bits of the
child cells on every axis, as seen from the unflipped state, together
with the flips and the rotation the state has after those digits.  A
second table inverts the corner bits back to digits for the forward map.
Every map walks the tables on the segment index q itself: a step over
digits start .. start + L - 1 reads (or, forward, sets) the word
q >> d*(depth - start - L) & (2**(d*L) - 1); digit tuples appear only
in `interval_to_address` and `address_to_interval`.
Every table array holds d * 2**(d*L) <= 2048 one-byte entries, far below
a 1 MiB limit; tables are built with numpy on first use for each (d, L)
and cached.  The batch kernel builds one pair of tables per step from
them, cached per (d, depth) and keyed by rotation * 2**(d*L) + word.  A
uint64 `comb` entry holds the step's corner bits at their final place
(axis a's at bit a * depth + low, low = depth - start - L) and, in the
bits below, the flips the step adds, repeated over every later bit of
each axis; XOR applies both.  An int64 `nxt` entry holds the next
rotation already scaled to the next step's key.  So a step is one mask,
one add, one XOR and two gathers on the same key, and the flips need no
state of their own.  The tables of one (d, depth) take at most 240 KiB,
at d=8 depth 8.  The kernel's consumers call it once per block of
`BLOCK` indices, so that each uint64 temporary over a block's indices
takes BLOCK * 8 bytes = 128 KiB.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .dyadic import CubePoint, DyadicRect, PrecisionError, RangeError, UnitScalar

MAX_DIMENSION = 8
# indices per batch-kernel call in the streaming consumers
BLOCK = 1 << 14


def _check_cell(d: int, depth: int) -> None:
    if not 1 <= d <= MAX_DIMENSION:
        raise RangeError(f"dimension must be in 1..{MAX_DIMENSION}")
    if depth < 0:
        raise RangeError("depth must be >= 0")


def _gray(i: int) -> int:
    return i ^ (i >> 1)


def _trailing_ones(i: int) -> int:
    n = 0
    while i & 1:
        n += 1
        i >>= 1
    return n


@lru_cache(maxsize=None)
def _tables(d: int):
    """Per-dimension child tables: Gray octants, entry flips, directions."""
    size = 1 << d
    gc = tuple(_gray(i) for i in range(size))
    entry = tuple(0 if i == 0 else _gray(2 * ((i - 1) // 2)) for i in range(size))
    direction = []
    for i in range(size):
        if i == 0:
            direction.append(0)
        elif i % 2 == 0:
            direction.append(_trailing_ones(i - 1) % d)
        else:
            direction.append(_trailing_ones(i) % d)
    return gc, entry, tuple(direction)


def _rot_left(x, s, d: int):
    s = s % d
    return ((x << s) | (x >> (d - s))) & ((1 << d) - 1)


def _child_move(rotation, gc, entry, direction, d: int):
    """One level down from a state with `rotation` and no flips.

    Given the child's row of `_tables`, returns its octant, the flips it
    adds to the state and its rotation.  Works elementwise on integer
    arrays as well as on ints.
    """
    s = rotation + 1
    return _rot_left(gc, s, d), _rot_left(entry, s, d), (s + direction) % d


@dataclass(frozen=True)
class OrientationState:
    """Cube symmetry carried through the subdivision: a cyclic axis
    rotation plus per-axis reflection flags, acting on octant bit vectors.
    """

    dimension: int
    rotation: int
    flips: int

    def __post_init__(self):
        if not 1 <= self.dimension <= MAX_DIMENSION:
            raise RangeError(
                f"dimension must be in 1..{MAX_DIMENSION}, got {self.dimension}"
            )
        if not 0 <= self.rotation < self.dimension:
            raise RangeError("rotation out of range")
        if not 0 <= self.flips < (1 << self.dimension):
            raise RangeError("flips out of range")

    @classmethod
    def identity(cls, dimension: int) -> "OrientationState":
        return cls(dimension, 0, 0)

    def apply(self, octant: int) -> int:
        return _rot_left(octant, self.rotation, self.dimension) ^ self.flips

    def compose(self, other: "OrientationState") -> "OrientationState":
        """State applying `other` first, then self."""
        if other.dimension != self.dimension:
            raise RangeError("dimension mismatch")
        d = self.dimension
        return OrientationState(
            d,
            (self.rotation + other.rotation) % d,
            self.flips ^ _rot_left(other.flips, self.rotation, d),
        )


def child_order(state: OrientationState, dimension: int | None = None):
    """The 2**d children of a cell in traversal order.

    Returns a list of (octant, child state) pairs.  Octant bit a selects
    the upper half along axis a.  Consecutive children share a (d-1)-face.
    """
    if dimension is not None and dimension != state.dimension:
        raise RangeError(
            f"state has dimension {state.dimension}, asked for {dimension}"
        )
    d = state.dimension
    children = []
    for row in zip(*_tables(d)):
        octant, flips, rotation = _child_move(state.rotation, *row, d)
        children.append((octant ^ state.flips,
                         OrientationState(d, rotation, state.flips ^ flips)))
    return children


def _steps(d: int, depth: int) -> list[tuple[int, int]]:
    """(first digit, digit count) of each table lookup over `depth` digits.

    L = max(1, 8 // d) digits per lookup keeps d * L <= 8, so every key
    part and table entry fits in a byte; a remainder takes one last step.
    """
    width = max(1, 8 // d)
    full, rest = divmod(depth, width)
    steps = [(k * width, width) for k in range(full)]
    if rest:
        steps.append((full * width, rest))
    return steps


class _DigitTable(NamedTuple):
    """Transitions over `width` digits for one dimension d.

    `cells`, `flips` and `rotations` are indexed by word * d + rotation,
    where word packs the digits base 2**d, first digit highest.  `cells`
    packs the corner bits of the cells the digits pass through, as seen
    from a state without flips: axis a holds bits a*width .. a*width +
    width - 1, the first digit's bit highest.  `flips` is XORed onto the
    state's flips after the digits, `rotations` replaces its rotation.
    `digits` inverts `cells`, indexed by cells * d + rotation.
    `flip_cells` maps flips f to the cells pattern of f, which is XORed
    onto `cells` for a flipped state.
    """

    cells: np.ndarray
    flips: np.ndarray
    rotations: np.ndarray
    digits: np.ndarray
    flip_cells: np.ndarray


@lru_cache(maxsize=None)
def _digit_table(d: int, width: int) -> _DigitTable:
    gc, entry, direction = (np.array(t, dtype=np.int64) for t in _tables(d))
    octant1, flips1, rotation1 = _child_move(
        np.arange(d)[:, None], gc, entry, direction, d)
    dmask = (1 << d) - 1
    key = np.arange(d << (d * width))
    word, first_rotation = np.divmod(key, d)
    rotation = first_rotation
    flips = np.zeros_like(key)
    cells = np.zeros_like(key)
    for level in range(width):
        digit = (word >> (d * (width - 1 - level))) & dmask
        octant = octant1[rotation, digit] ^ flips
        for axis in range(d):
            cells |= ((octant >> axis) & 1) << (axis * width + width - 1 - level)
        flips ^= flips1[rotation, digit]
        rotation = rotation1[rotation, digit]
    digits = np.empty(key.shape, dtype=np.uint8)
    digits[cells * d + first_rotation] = word
    all_flips = np.arange(1 << d)
    flip_cells = sum(((all_flips >> axis) & 1) << (axis * width)
                     for axis in range(d))
    flip_cells *= (1 << width) - 1
    return _DigitTable(cells.astype(np.uint8), flips.astype(np.uint8),
                       rotation.astype(np.uint8), digits,
                       flip_cells.astype(np.uint8))


@lru_cache(maxsize=None)
def _digit_lists(d: int, width: int) -> tuple[list, ...]:
    """`_digit_table` as Python int lists, for the scalar maps."""
    return tuple(a.tolist() for a in _digit_table(d, width))


_ADDRESS_RE = re.compile(r"^\d+(\.\d+)*$")


@dataclass(frozen=True)
class CellAddress:
    """Digit path j_1..j_n into the recursive subdivision, zero-based."""

    dimension: int
    digits: tuple[int, ...]

    def __post_init__(self):
        _check_cell(self.dimension, self.depth)
        hi = 1 << self.dimension
        for j in self.digits:
            if not 0 <= j < hi:
                raise RangeError(f"digit {j} out of range 0..{hi - 1}")

    @property
    def depth(self) -> int:
        return len(self.digits)

    def prefix(self, depth: int) -> "CellAddress":
        return CellAddress(self.dimension, self.digits[:depth])

    def format(self) -> str:
        """One-based dot-separated digit string, e.g. `1.3.2.4`."""
        return ".".join(str(j + 1) for j in self.digits)

    @classmethod
    def parse(cls, text: str, dimension: int) -> "CellAddress":
        text = text.strip()
        if not text:
            return cls(dimension, ())
        if not _ADDRESS_RE.match(text):
            raise ValueError(f"cannot parse cell address from {text!r}")
        return cls(dimension, tuple(int(t) - 1 for t in text.split(".")))


@dataclass(frozen=True)
class SegmentInterval:
    """Half-open segment cell [q * b**-n, (q+1) * b**-n) with b = 2**d."""

    dimension: int
    depth: int
    index: int

    def __post_init__(self):
        _check_cell(self.dimension, self.depth)
        if not 0 <= self.index < (1 << (self.dimension * self.depth)):
            raise RangeError(
                f"index {self.index} out of range at depth {self.depth}"
            )

    def left(self) -> UnitScalar:
        return UnitScalar(self.index, self.dimension * self.depth)

    def length(self) -> Fraction:
        return Fraction(1, 1 << (self.dimension * self.depth))

    def format(self) -> str:
        return f"{self.index}/{1 << self.dimension}^{self.depth}"


_INTERVAL_RE = re.compile(r"^(\d+)/(\d+)\^(\d+)$")


def parse_interval(text: str, dimension: int) -> SegmentInterval:
    m = _INTERVAL_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse interval from {text!r}")
    q, base, depth = int(m.group(1)), int(m.group(2)), int(m.group(3))
    if base != 1 << dimension:
        raise ValueError(
            f"interval base {base} does not match dimension {dimension}"
        )
    return SegmentInterval(dimension, depth, q)


def address_to_interval(a: CellAddress) -> SegmentInterval:
    """Positional base-2**d reading of the digit path."""
    q = 0
    for j in a.digits:
        q = (q << a.dimension) | j
    return SegmentInterval(a.dimension, a.depth, q)


def interval_to_address(iv: SegmentInterval, dimension: int | None = None) -> CellAddress:
    """Exact inverse of address_to_interval."""
    d = iv.dimension if dimension is None else dimension
    if d != iv.dimension:
        raise RangeError("dimension mismatch")
    mask = (1 << d) - 1
    digits = [(iv.index >> (d * (iv.depth - 1 - k))) & mask
              for k in range(iv.depth)]
    return CellAddress(d, tuple(digits))


def forward_map(pt: CubePoint, depth: int) -> UnitScalar:
    """Left endpoint of the segment cell matched to the point's cube cell.

    The limit value lies within (2**d)**-depth of the result; refining
    the depth never moves the output by that much or more.
    """
    d, p = pt.dimension, pt.precision
    _check_cell(d, depth)
    if p < depth:
        raise PrecisionError(f"point precision {p} < depth {depth}")
    mantissas = [c.mantissa for c in pt.coords]
    rotation = flips = q = 0
    for start, width in _steps(d, depth):
        _, t_flips, rotations, t_digits, flip_cells = _digit_lists(d, width)
        low, mask = p - start - width, (1 << width) - 1
        packed = 0
        for axis, m in enumerate(mantissas):
            packed |= ((m >> low) & mask) << (axis * width)
        word = t_digits[(packed ^ flip_cells[flips]) * d + rotation]
        q |= word << (d * (depth - start - width))
        key = word * d + rotation
        flips ^= t_flips[key]
        rotation = rotations[key]
    return UnitScalar(q, d * depth)


def inverse_map(t: UnitScalar, depth: int, dimension: int) -> CubePoint:
    """Lower corner of the cube cell matched to t's segment cell."""
    d = dimension
    _check_cell(d, depth)
    bits = d * depth
    if t.precision < bits:
        raise PrecisionError(
            f"scalar precision {t.precision} < {dimension}*{depth} bits"
        )
    q = t.mantissa >> (t.precision - bits)
    mant = [0] * d
    rotation = flips = 0
    for start, width in _steps(d, depth):
        cells, t_flips, rotations, _, flip_cells = _digit_lists(d, width)
        word = (q >> (d * (depth - start - width))) & ((1 << (d * width)) - 1)
        key = word * d + rotation
        packed = cells[key] ^ flip_cells[flips]
        mask = (1 << width) - 1
        for axis in range(d):
            mant[axis] = (mant[axis] << width) | ((packed >> (axis * width)) & mask)
        flips ^= t_flips[key]
        rotation = rotations[key]
    return CubePoint(tuple(UnitScalar(m, depth) for m in mant))


def point_to_address(pt: CubePoint, depth: int) -> CellAddress:
    """Locate the unique depth-n half-open cell containing the point."""
    q = forward_map(pt, depth).mantissa
    return interval_to_address(SegmentInterval(pt.dimension, depth, q))


def address_to_rect(a: CellAddress) -> DyadicRect:
    """The half-open cube cell named by the address; side 2**-depth."""
    lower = inverse_map(address_to_interval(a).left(), a.depth, a.dimension)
    return DyadicRect(lower, (a.depth,) * a.dimension)


def compose_n_to_m(pt: CubePoint, depth: int, target_dimension: int) -> CubePoint:
    """Map a point of [0,1)**n to [0,1)**m through the segment.

    The intermediate segment scalar carries n*depth bits; the target depth
    is floor(n*depth / m), so source and image cells have equal measure at
    matched depths.
    """
    n = pt.dimension
    target_depth = (n * depth) // target_dimension
    if target_depth < 1:
        raise PrecisionError(
            f"{n}*{depth} bits yield no whole depth-1 digit in dimension "
            f"{target_dimension}"
        )
    t = forward_map(pt, depth)
    return inverse_map(t, target_depth, target_dimension)


def _spread(cells: np.ndarray, width: int, depth: int, d: int) -> np.ndarray:
    """Packed table cells as uint64, axis a's bits moved to bit a * depth."""
    cells = cells.astype(np.uint64)
    out = np.zeros_like(cells)
    mask = np.uint64((1 << width) - 1)
    for axis in range(d):
        out |= ((cells >> np.uint64(axis * width)) & mask) << np.uint64(axis * depth)
    return out


@lru_cache(maxsize=None)
def _batch_steps(d: int, depth: int) -> tuple:
    """Per-step tables of the batch kernel, one (shift, mask, comb, nxt)
    per step of `_steps(d, depth)`.

    Both tables are keyed by rotation * 2**(d*width) + word.  A `comb`
    entry holds, in disjoint bits, the step's corner bits at their final
    place (axis a's at bit a * depth + low, low = depth - start - width)
    and the flips the step adds, one bit per axis times 2**low - 1, so
    that they cover every later bit of the axis.  `nxt` holds the next
    rotation times the next step's 2**(d*width); the last step has none.
    """
    steps = _steps(d, depth)
    out = []
    for k, (start, width) in enumerate(steps):
        table = _digit_table(d, width)
        rotation, word = np.divmod(np.arange(d << (d * width)), 1 << (d * width))
        row = word * d + rotation  # the `_digit_table` index of each key
        low = depth - start - width
        comb = (_spread(table.cells[row], width, depth, d) << np.uint64(low)
                | _spread(table.flips[row], 1, depth, d) * np.uint64((1 << low) - 1))
        comb.flags.writeable = False
        nxt = None
        if k + 1 < len(steps):
            nxt = table.rotations[row].astype(np.int64) << (d * steps[k + 1][1])
            nxt.flags.writeable = False
        out.append((d * low, (1 << (d * width)) - 1, comb, nxt))
    return tuple(out)


def _check_batch(depth: int, d: int) -> None:
    _check_cell(d, depth)
    if d * depth > 64:
        raise PrecisionError("dimension * depth must be <= 64 for batch use")


def inverse_map_batch(indices: np.ndarray, depth: int, dimension: int) -> np.ndarray:
    """Vectorized inverse over depth-n segment cell indices.

    Returns an (N, d) uint64 array of lower-corner mantissas at precision
    `depth` per coordinate.  Must agree with inverse_map on every index;
    requires dimension * depth <= 64.  All coordinates build up in one
    uint64 per index, axis a in bits a*depth .. (a+1)*depth - 1.  Each
    step of `_steps` reads its word of the index, adds the rotation key
    the previous step left, XORs the `comb` entry of `_batch_steps` into
    the coordinates (its corner bits, and the flips it adds to every
    later bit) and gathers the next rotation key from `nxt`.
    """
    d = dimension
    _check_batch(depth, d)
    # A signed view keeps the table keys in intp; an arithmetic shift
    # followed by the mask still reads the right digits, also on the
    # first step when d * depth = 64.
    q = np.asarray(indices, dtype=np.uint64).view(np.int64)
    acc = np.zeros(q.shape, dtype=np.uint64)
    key_rot = 0
    for shift, mask, comb, nxt in _batch_steps(d, depth):
        key = (q >> shift) & mask
        key += key_rot
        acc ^= comb[key]
        if nxt is not None:
            key_rot = nxt[key]
    coords = np.empty((d, q.shape[0]), dtype=np.uint64)
    mask = np.uint64((1 << depth) - 1)
    for axis in range(d):
        coords[axis] = (acc >> np.uint64(axis * depth)) & mask
    return coords.T
