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
subdivision.  The maps walk digit tables built from it (the state table
form of Butz's algorithm, after Skilling 2004 and Hamilton & Rau-Chaplin
2008), L = max(1, 8 // d) digits per lookup; a depth that is not a
multiple of L ends with one shorter step.  A state's flips act on
octants by XOR, so every table is keyed by rotation * 2**(d*L) + word,
the word being the next L digits of the segment index q, read at
q >> d*(depth - start - L).  An entry holds the L child octants in
visit order, first highest, as the unflipped state sees them, and the
flips and rotation after them; `digits` inverts the octants.  The
scalar walks `_forward_cell` and `_inverse_cell` run on one Python int
per cell, between a segment index and the cell's packed grid index
(below).  Read as bits, a packed index is a d x depth matrix, one row
per axis, and its octants are the transpose of that matrix; each walk
writes the transpose once, through binary digit strings.  `forward_map`
and `inverse_map` only convert between exact values and that index.
Tables are lists of d * 2**(d*L) <= 2048 entries below 256, built on
first use per (d, L) and cached.  The batch kernel turns them into one
pair per step, cached per (d, depth): a uint64 `comb` entry holds the
step's corner bits in axis order at their final place (axis a's at bit
a * depth + low, low = depth - start - L) and, in the bits below, the
flips the step adds, repeated over every later bit of each axis; an
int64 `nxt` entry holds the next rotation already scaled to the next
step's key.  A step is one mask, one add, one XOR and two gathers on one
key, and the accumulator it XORs into is the kernel's output: the packed
grid index of the lower corner, axis a's coordinate at bit a * depth,
which is the corner's flat index on the 2**depth grid, axis 0 varying
fastest.  Each reader takes out the axes it needs.  The tables of one
(d, depth) take at most 240 KiB, at d=8 depth 8.  The one stream
`measure._corner_blocks` calls the kernel per block of `BLOCK` indices
for the exhaustive suites and the audit's fold onto its grid, so each
uint64 temporary of a call (the key, the gathered entries, the
accumulator) takes 128 KiB; the sampler calls it once per 2**15-row chunk.

The forward kernel `forward_map_batch` takes packed grid indices, the
inverse kernel's output, in an array of any shape.  It interleaves them
into octant order once, one byte table per byte, and then runs the
inverse kernel's step shape under the scalar forward map's key,
rotation * 2**(d*L) + octant word: a `comb` entry rewrites the word into
its digits and XORs the flips it adds onto every later octant, so the
next step reads its octants as the unflipped state sees them.  Its
tables take 16 KiB more than the inverse kernel's.  The kernels run up
to d * depth = 64 bits.  Beyond, `forward_map_batch` and
`inverse_map_batch` run the scalar walk once per distinct cell and
return Python ints in an object array, so both batch maps take any
depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .dyadic import CubePoint, DyadicRect, PrecisionError, RangeError, UnitScalar

MAX_DIMENSION = 8
# indices per batch-kernel call of measure._corner_blocks
BLOCK = 1 << 14


def _check_cell(d: int, depth: int) -> None:
    if not 1 <= d <= MAX_DIMENSION:
        raise RangeError(f"dimension must be in 1..{MAX_DIMENSION}, got {d}")
    if depth < 0:
        raise RangeError("depth must be >= 0")


def _gray(i: int) -> int:
    return i ^ (i >> 1)


def _trailing_ones(i: int) -> int:
    # the trailing ones of i are the trailing zeros of i + 1
    return ((i + 1) & -(i + 1)).bit_length() - 1


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
        _check_cell(self.dimension, 0)
        if not 0 <= self.rotation < self.dimension:
            raise RangeError("rotation out of range")
        if not 0 <= self.flips < (1 << self.dimension):
            raise RangeError("flips out of range")

    @classmethod
    def identity(cls, dimension: int) -> "OrientationState":
        return cls(dimension, 0, 0)


def child_order(state: OrientationState):
    """The 2**d children of a cell in traversal order.

    Returns a list of (octant, child state) pairs.  Octant bit a selects
    the upper half along axis a.  Consecutive children share a (d-1)-face.
    """
    d = state.dimension
    children = []
    for row in zip(*_tables(d)):
        octant, flips, rotation = _child_move(state.rotation, *row, d)
        children.append((octant ^ state.flips,
                         OrientationState(d, rotation, state.flips ^ flips)))
    return children


@lru_cache(maxsize=None)
def _steps(d: int, depth: int) -> tuple[tuple[int, int], ...]:
    """(first digit, digit count) of each table lookup over `depth` digits.

    L = max(1, 8 // d) digits per lookup keeps d * L <= 8, so every word
    and table entry fits in a byte; a remainder takes one last step.
    """
    width = max(1, 8 // d)
    full, rest = divmod(depth, width)
    steps = tuple((k * width, width) for k in range(full))
    return steps + ((full * width, rest),) if rest else steps


class _DigitTable(NamedTuple):
    """Transitions over `width` digits for one dimension d.

    Every list is indexed by rotation * 2**(d*width) + word, where word
    packs the digits base 2**d, first digit highest.  `cells` holds the
    octants of the cells the digits pass through, as `child_order` yields
    them from the state with that rotation and no flips, packed the same
    way.  `flips` is XORed onto the state's flips after the digits,
    `rotations` replaces its rotation.  `digits` inverts `cells` under
    the same key.
    """

    cells: list
    flips: list
    rotations: list
    digits: list


@lru_cache(maxsize=None)
def _digit_table(d: int, width: int) -> _DigitTable:
    gc, entry, direction = (np.array(t, dtype=np.int64) for t in _tables(d))
    octant1, flips1, rotation1 = _child_move(
        np.arange(d)[:, None], gc, entry, direction, d)
    bits = d * width
    first_rotation, word = np.divmod(np.arange(d << bits), 1 << bits)
    rotation = first_rotation
    flips = np.zeros_like(word)
    cells = np.zeros_like(word)
    for level in range(width):
        digit = (word >> (d * (width - 1 - level))) & ((1 << d) - 1)
        cells = (cells << d) | (octant1[rotation, digit] ^ flips)
        flips ^= flips1[rotation, digit]
        rotation = rotation1[rotation, digit]
    digits = np.empty_like(word)
    digits[(first_rotation << bits) | cells] = word
    return _DigitTable(cells.tolist(), flips.tolist(), rotation.tolist(),
                       digits.tolist())


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


def address_to_interval(a: CellAddress) -> SegmentInterval:
    """Positional base-2**d reading of the digit path."""
    q = 0
    for j in a.digits:
        q = (q << a.dimension) | j
    return SegmentInterval(a.dimension, a.depth, q)


def interval_to_address(iv: SegmentInterval) -> CellAddress:
    """Exact inverse of address_to_interval."""
    d = iv.dimension
    mask = (1 << d) - 1
    digits = [(iv.index >> (d * (iv.depth - 1 - k))) & mask
              for k in range(iv.depth)]
    return CellAddress(d, tuple(digits))


def _forward_cell(cell: int, depth: int, d: int) -> int:
    """Segment cell index of the cube cell with packed grid index `cell`;
    bits above d * depth are ignored."""
    bits = d * depth
    # Read as bits, first highest, the cell is a d x depth matrix: row j
    # is axis d-1-j, level 0 first.  Its transpose is the octants, first
    # highest, each with axis d-1's bit highest.
    rows = bin(cell & ((1 << bits) - 1) | 1 << bits)[3:].encode()
    text = bytearray(bits)
    for j in range(d):
        text[j::d] = rows[j * depth:(j + 1) * depth]
    octants = int(text or b"0", 2)
    rotation = flips = q = 0
    for start, width in _steps(d, depth):
        _, t_flips, rotations, t_digits = _digit_table(d, width)
        w = d * width
        cells = (octants >> d * (depth - start - width)) & ((1 << w) - 1)
        # the state's flips act on every octant of the word
        cells ^= flips * ((1 << w) - 1) // ((1 << d) - 1)
        word = t_digits[rotation << w | cells]
        q = q << w | word
        key = rotation << w | word
        flips ^= t_flips[key]
        rotation = rotations[key]
    return q


def _inverse_cell(q: int, depth: int, d: int) -> int:
    """Packed grid index of the cube cell matched to segment cell `q`;
    bits above d * depth are ignored."""
    rotation = flips = octants = 0
    for start, width in _steps(d, depth):
        cells, t_flips, rotations, _ = _digit_table(d, width)
        w = d * width
        key = rotation << w | (q >> d * (depth - start - width)) & ((1 << w) - 1)
        # the state's flips act on every octant of the word
        octants = octants << w | cells[key] ^ flips * ((1 << w) - 1) // ((1 << d) - 1)
        flips ^= t_flips[key]
        rotation = rotations[key]
    # the transpose of `_forward_cell`'s: column j of the depth x d matrix
    # of octant bits is row j of the cell's, axis d-1-j
    text = bin(octants | 1 << d * depth)[3:]
    return int("".join([text[j::d] for j in range(d)]) or "0", 2)


def forward_map(pt: CubePoint, depth: int) -> UnitScalar:
    """Left endpoint of the segment cell matched to the point's cube cell.

    Coordinates of any precisions are read by value, each in its cell
    floor(x * 2**depth).  The limit value lies within (2**d)**-depth of
    the result; refining the depth never moves the output by that much
    or more.
    """
    d = pt.dimension
    _check_cell(d, depth)
    cell = 0
    for axis, c in enumerate(pt.coords):
        cell |= (c.mantissa << depth) >> c.precision << axis * depth
    return UnitScalar(_forward_cell(cell, depth, d), d * depth)


def inverse_map(t: UnitScalar, depth: int, dimension: int) -> CubePoint:
    """Lower corner of the cube cell matched to t's segment cell.

    t of any precision is read by value, in cell floor(t * 2**(d*depth)).
    """
    d = dimension
    _check_cell(d, depth)
    cell = _inverse_cell((t.mantissa << d * depth) >> t.precision, depth, d)
    mask = (1 << depth) - 1
    return CubePoint(tuple([UnitScalar(cell >> axis * depth & mask, depth)
                            for axis in range(d)]))


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


def _spread(words, width: int, depth: int, d: int) -> np.ndarray:
    """Words of `width` octants, first highest, as uint64 in axis order:
    axis a's `width` bits at bit a * depth, first highest."""
    words = np.array(words, dtype=np.uint64)
    out = np.zeros_like(words)
    for bit in range(d * width):
        level, axis = divmod(bit, d)
        out |= ((words >> np.uint64(bit)) & np.uint64(1)) << np.uint64(axis * depth + level)
    return out


@lru_cache(maxsize=None)
def _batch_steps(d: int, depth: int) -> tuple:
    """One (shift, mask, comb, nxt) per step of `_steps(d, depth)`: the
    shift and mask that read the step's word of the index and the step's
    `comb` and `nxt` tables (see the module docstring); the last step's
    `nxt` is None."""
    steps = _steps(d, depth)
    out = []
    for k, (start, width) in enumerate(steps):
        table = _digit_table(d, width)
        low = depth - start - width
        comb = (_spread(table.cells, width, depth, d) << np.uint64(low)
                | _spread(table.flips, 1, depth, d) * np.uint64((1 << low) - 1))
        comb.flags.writeable = False
        nxt = None
        if k + 1 < len(steps):
            nxt = np.array(table.rotations, dtype=np.int64) << (d * steps[k + 1][1])
            nxt.flags.writeable = False
        out.append((d * low, (1 << (d * width)) - 1, comb, nxt))
    return tuple(out)


def _each_cell(core, cells, depth: int, d: int) -> np.ndarray:
    """`core` over an array of cells beyond the kernels' 64 bits: Python
    ints in an object array of the cells' shape, one call per distinct
    cell."""
    cells = np.asarray(cells, dtype=object)
    flat = [int(c) for c in cells.flat]
    images = {c: core(c, depth, d) for c in dict.fromkeys(flat)}
    return np.array([images[c] for c in flat], dtype=object).reshape(cells.shape)


def inverse_map_batch(indices: np.ndarray, depth: int, dimension: int) -> np.ndarray:
    """Vectorized inverse over depth-n segment cell indices.

    Returns, in an array of the indices' shape, the packed grid index of
    each cell's lower corner: axis a's mantissa at precision `depth` in
    bits a*depth .. (a+1)*depth - 1, the layout forward_map_batch reads.
    Must agree with inverse_map on every index.  Up to dimension * depth
    = 64 the result is uint64 and builds up by one `comb` entry per step
    of `_batch_steps`; beyond, it holds Python ints in an object array.
    """
    d = dimension
    _check_cell(d, depth)
    if d * depth > 64:
        return _each_cell(_inverse_cell, indices, depth, d)
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
    return acc


@lru_cache(maxsize=None)
def _forward_steps(d: int, depth: int) -> tuple:
    """Tables of `forward_map_batch` for one (d, depth), as int64.

    `interleave` holds one (shift, table) per byte of a packed grid index: the
    table sends the byte's bits to their octant-order places, axis a's
    bit b at bit b * d + a.  `steps` holds one (shift, mask, comb, nxt)
    per step of `_steps(d, depth)`, keyed like the scalar forward map's
    `digits` lookup: `comb` XORs the step's octant word into its digit
    word and adds the step's flips to every later octant; `nxt` holds the
    next rotation scaled to the next step's key, None after the last.
    """
    bits = d * depth
    byte = np.arange(256, dtype=np.uint64)
    interleave = []
    for lo in range(0, bits, 8):
        table = np.zeros(256, dtype=np.uint64)
        for j in range(min(8, bits - lo)):
            axis, b = divmod(lo + j, depth)
            table |= ((byte >> np.uint64(j)) & np.uint64(1)) << np.uint64(b * d + axis)
        table.flags.writeable = False
        interleave.append((lo, table.view(np.int64)))
    steps = _steps(d, depth)
    out = []
    for k, (start, width) in enumerate(steps):
        table = _digit_table(d, width)
        w = d * width
        low = d * (depth - start - width)
        key = np.arange(d << w)
        # rotation << w | digit word: the key of the flips and rotations
        dkey = key >> w << w | np.array(table.digits)
        comb = ((key ^ dkey).astype(np.uint64) << np.uint64(low)
                | np.array(table.flips, dtype=np.uint64)[dkey]
                * np.uint64(((1 << low) - 1) // ((1 << d) - 1))).view(np.int64)
        comb.flags.writeable = False
        nxt = None
        if k + 1 < len(steps):
            nxt = np.array(table.rotations, dtype=np.int64)[dkey] << (d * steps[k + 1][1])
            nxt.flags.writeable = False
        out.append((low, (1 << w) - 1, comb, nxt))
    return tuple(interleave), tuple(out)


def forward_map_batch(cells: np.ndarray, depth: int, dimension: int) -> np.ndarray:
    """Vectorized forward map over depth-n cube cells, the inverse of
    inverse_map_batch.

    A cell is its packed grid index, one integer with axis a's coordinate
    (scale 2**depth) in bits a*depth .. (a+1)*depth - 1; higher bits are
    ignored.  Returns the segment cell index of each, in an array of the
    cells' shape.  Must agree with forward_map on every cell.  Up to
    dimension * depth = 64 the cells and the result are uint64: the index
    is interleaved into octant order once; each step then reads its word,
    rewrites it into digits and flips every later octant by one XOR, so
    the flips ride in the index as the rotation rides in the key.  Beyond,
    both are Python ints in object arrays.
    """
    d = dimension
    _check_cell(d, depth)
    if d * depth > 64:
        return _each_cell(_forward_cell, cells, depth, d)
    interleave, steps = _forward_steps(d, depth)
    # signed, as in inverse_map_batch, so the keys stay intp
    c = np.asarray(cells, dtype=np.uint64).view(np.int64)
    q = np.zeros(c.shape, dtype=np.int64)
    for shift, table in interleave:
        q |= table[(c >> shift) & 255]
    key_rot = 0
    for shift, mask, comb, nxt in steps:
        key = (q >> shift) & mask
        key += key_rot
        q ^= comb[key]
        if nxt is not None:
            key_rot = nxt[key]
    return q.view(np.uint64)
