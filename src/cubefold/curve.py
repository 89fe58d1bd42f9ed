"""Recursive 2**d-way subdivision with a face-adjacent numbering.

Each cell of the cube is split into 2**d children visited in a Gray-code
order, so consecutive children (and, by the orientation bookkeeping,
consecutive cells globally) share a (d-1)-face.  The matching split of
the segment into 2**d equal parts gives the digit-level forward and
inverse maps between [0,1)**d and [0,1); cells map to intervals of equal
measure at every depth.  A cell has one name on each side: on the
segment its index q, whose base-2**d digits are its
digit path, and in the cube its packed grid index or lower corner.

For d=2 the root-level order is lower-left, upper-left, upper-right,
lower-right (the classical U order), with child orientations
swap / identity / identity / swap-and-reflect.

`_child_move` holds the whole one-level definition of the subdivision:
the octant, entry flips and turn of child i from i alone.
`OrientationState` and `child_order` apply it to a state with flips.
The maps walk digit tables built from it (the state table
form of Butz's algorithm, after Skilling 2004 and Hamilton & Rau-Chaplin
2008), L = max(1, 8 // d) digits per lookup.  Every walk reads one plan,
`_plan(d, depth, forward)`: a start key, one (shift, mask) per lookup,
the flips' repeat `rep` and three lists, out, adds and nxt, that every
step of the direction reads.  A depth that is not a multiple of L is
read with pad = ceil(depth / L) * L - depth leading zero digits.  Digit 0
of a state with no flips is octant 0 with no flips and the next
rotation, so a walk started at rotation -pad mod d crosses the pad in
octant 0 and leaves it at the identity, where an unpadded walk starts.
The step's input word is the `mask` bits at `shift`: the next digits of
the segment index q on the inverse walk, the next octants on the forward
walk.  The first step's mask covers only the depth's own digits, so bits
above d * depth are ignored.  A state's flips act on octants by XOR, so
each list is keyed by rotation * 2**(d*L) + word, the word as the state
with that rotation and no flips sees it, and the forward walk first XORs
the state's flips, repeated over the word's octants by `rep`, into its
word.  `out` holds the output word: the L child octants in visit order,
first highest, or their digits.  `adds` holds the flips the step XORs
onto the state's, and `nxt` the next rotation already shifted into the
key.  The lists hold d * 2**(d*L) <= 2048 entries, built in Python ints
on first use and cached per (d, direction): `_step_lists` extends the
one-level moves of `_child_move` L - 1 times, one digit at a time, into
the inverse lists, at digit keys, and moves each of their entries to its
octant key for the forward lists.  The scalar walks `_forward_cell` and `_inverse_cell` run the
plan on one Python int per cell, between a segment index and the cell's
packed grid index: read as bits, a packed index is a d x depth matrix,
one row per axis, and its octants are the transpose of that matrix,
which each walk writes once through binary digit strings; they use no
numpy.  `forward_map` and `inverse_map` only convert between exact
values and that index.

Both batch maps run one function, `_batch`, and one rule picks its walk.
Beyond d * depth = 64 bits it runs the scalar walk once per distinct cell
and returns Python ints in an object array, so it takes any depth.  Up
to 64 bits it runs a numpy kernel on uint64, reading a Python int of 64
bits or more modulo 2**64, since every bit above the cell is ignored, and
walks from the plan's start key.  `_kernel` turns the plan's lists into
arrays once, and each step into an int64 `comb` table under the same
key, built from out << shift | adds repeated over every later octant.
Every step shares one `nxt` array, but the last, and every step at
d = 1, where the rotation stays 0, has None.  A step is one mask, one
add, one XOR and two gathers on one key.

The inverse kernel `inverse_map_batch` transposes each `comb` entry into
axis order with `_transpose` (axis a's bits at bit a * depth), so the
accumulator it XORs them into, from zero, is its output: the packed grid
index of the lower corner, axis a's coordinate at bit a * depth, which is
the corner's flat index on the 2**depth grid, axis 0 varying fastest.
Each reader takes out the axes it needs.  The tables of one (d, depth)
take at most 144 KiB, at d=8 depth 8.

The forward kernel `forward_map_batch` takes packed grid indices, the
inverse kernel's output, in an array of any shape.  It transposes them
into octant order with `_transpose`, one byte-table gather per byte, and
walks that array in place: its `comb` entries also XOR in the step's
octant word, so each rewrites the word into its digits and flips every
later octant, and the next step reads its octants as the unflipped state
sees them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dyadic import CubePoint, PrecisionError, RangeError, UnitScalar, _integer, echo

MAX_DIMENSION = 8


def _check_cell(d: int, depth: int) -> tuple:
    """d and depth as Python ints, each read by `_integer`."""
    return _integer(d, "dimension", 1, MAX_DIMENSION), _integer(depth, "depth", 0)


def _child_move(rotation: int, i: int, d: int) -> tuple:
    """Child i, in visit order, of a state with `rotation` and no flips:
    the whole one-level definition of the subdivision.

    Returns the child's octant, the flips it adds to the state and its
    rotation.  Before rotation the octant is the Gray code of i, the
    flips are the child's entry corner, the Gray code of the largest
    even index below i, and the turn is the trailing ones of i - 1 for
    even i, of i for odd i, mod d (Hamilton, "Compact Hilbert indices",
    2006); the first child enters at corner 0 with no turn.  The octant
    and flips, d-bit vectors, are rotated left by rotation + 1 places.
    """
    octant = i ^ i >> 1
    entry = turn = 0
    if i:
        entry = i - 1 & ~1
        entry ^= entry >> 1
        # the trailing ones of i - 1 or i are the trailing zeros of i + (i & 1)
        even = i + (i & 1)
        turn = (even & -even).bit_length() - 1
    s = (rotation + 1) % d
    mask = (1 << d) - 1
    return ((octant << s | octant >> d - s) & mask, (entry << s | entry >> d - s) & mask,
            (s + turn) % d)


@dataclass(frozen=True)
class OrientationState:
    """Cube symmetry carried through the subdivision: a cyclic axis
    rotation plus per-axis reflection flags, acting on octant bit vectors.
    """

    dimension: int
    rotation: int
    flips: int

    def __post_init__(self):
        # the checked ints are the ones kept: a numpy int would shift in int64
        d = _check_cell(self.dimension, 0)[0]
        object.__setattr__(self, "dimension", d)
        object.__setattr__(self, "rotation", _integer(self.rotation, "rotation", 0, d - 1))
        object.__setattr__(self, "flips", _integer(self.flips, "flips", 0, (1 << d) - 1))

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
    for i in range(1 << d):
        octant, flips, rotation = _child_move(state.rotation, i, d)
        children.append((octant ^ state.flips,
                         OrientationState(d, rotation, state.flips ^ flips)))
    return children


@lru_cache(maxsize=None)
def _step_lists(d: int, forward: bool) -> tuple:
    """The (out, adds, nxt) lists every step of a walk reads, keyed by
    rotation << d*L | word (see the module docstring): the walk of L =
    max(1, 8 // d) digits from each state with no flips, built by
    extending the one-level moves L - 1 times, each walk by every digit
    in turn, which keeps key order.  The forward lists move each entry
    of the inverse lists to its octant key, with the digit word as
    `out`."""
    width = max(1, 8 // d)
    bits = d * width
    if forward:
        out, adds, nxt = ([0] * (d << bits) for _ in range(3))
        for key, (cells, flips, rotation) in enumerate(zip(*_step_lists(d, False))):
            at = key >> bits << bits | cells
            out[at], adds[at], nxt[at] = key & (1 << bits) - 1, flips, rotation
        return out, adds, nxt
    walks = moves = [_child_move(r, i, d) for r in range(d) for i in range(1 << d)]
    for _ in range(width - 1):
        walks = [(cells << d | octant ^ flips, flips ^ adds, child)
                 for cells, flips, rotation in walks
                 for octant, adds, child in moves[rotation << d:rotation + 1 << d]]
    cells, flips, rotations = zip(*walks)
    return list(cells), list(flips), [rotation << bits for rotation in rotations]


@lru_cache(maxsize=None)
def _plan(d: int, depth: int, forward: bool) -> tuple:
    """The walk over `depth` digits, first digit first: (start, steps,
    rep, out, adds, nxt), the start key, one (shift, mask) per table
    lookup, the flips' repeat and the lists of `_step_lists`.

    L = max(1, 8 // d) digits per lookup keeps d * L <= 8, so every word
    and table entry fits in a byte.  A depth that is not a multiple of L
    is read with leading zero digits from the start key; the first
    step's mask leaves them out (see the module docstring).
    """
    width = max(1, 8 // d)
    bits = d * width
    steps = tuple((shift, (1 << min(bits, d * depth - shift)) - 1)
                  for shift in reversed(range(0, d * depth, bits)))
    pad = len(steps) * width - depth
    return ((-pad % d) << bits, steps, ((1 << bits) - 1) // ((1 << d) - 1),
            *_step_lists(d, forward))


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
    key_rot, steps, rep, out, adds, nxt = _plan(d, depth, True)
    flips = q = 0
    for shift, mask in steps:
        key = key_rot | (octants >> shift & mask ^ flips * rep)
        q |= out[key] << shift
        flips ^= adds[key]
        key_rot = nxt[key]
    return q


def _inverse_cell(q: int, depth: int, d: int) -> int:
    """Packed grid index of the cube cell matched to segment cell `q`;
    bits above d * depth are ignored."""
    key_rot, steps, rep, out, adds, nxt = _plan(d, depth, False)
    flips = octants = 0
    for shift, mask in steps:
        key = key_rot | q >> shift & mask
        octants |= (out[key] ^ flips * rep) << shift
        flips ^= adds[key]
        key_rot = nxt[key]
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
    d, depth = _check_cell(pt.dimension, depth)
    cell = 0
    for axis, c in enumerate(pt.coords):
        cell |= (c.mantissa << depth) >> c.precision << axis * depth
    return UnitScalar(_forward_cell(cell, depth, d), d * depth)


def inverse_map(t: UnitScalar, depth: int, dimension: int) -> CubePoint:
    """Lower corner of the cube cell matched to t's segment cell.

    t of any precision is read by value, in cell floor(t * 2**(d*depth)).
    """
    d, depth = _check_cell(dimension, depth)
    cell = _inverse_cell((t.mantissa << d * depth) >> t.precision, depth, d)
    mask = (1 << depth) - 1
    return CubePoint(tuple([UnitScalar(cell >> axis * depth & mask, depth)
                            for axis in range(d)]))


def compose_n_to_m(pt: CubePoint, depth: int, target_dimension: int) -> CubePoint:
    """Map a point of [0,1)**n to [0,1)**m through the segment.

    The intermediate segment scalar carries n*depth bits; the target depth
    is floor(n*depth / m), so source and image cells have equal measure at
    matched depths.
    """
    target_dimension, depth = _check_cell(target_dimension, depth)
    n = pt.dimension
    target_depth = (n * depth) // target_dimension
    if target_depth < 1:
        raise PrecisionError(
            f"{n}*{depth} bits yield no whole depth-1 digit in dimension "
            f"{target_dimension}"
        )
    t = forward_map(pt, depth)
    return inverse_map(t, target_depth, target_dimension)


@lru_cache(maxsize=None)
def _byte_tables(rows: int, cols: int) -> tuple:
    """One 256-entry uint64 table per byte of a rows x cols bit matrix:
    each byte value's bits moved to their places in the transpose."""
    bits = rows * cols
    # matrix bit r * cols + c moves to bit c * rows + r
    moved = np.array([1 << (b % cols * rows + b // cols) for b in range(bits)] + [0] * 7,
                     dtype=np.uint64)
    byte = (np.arange(256)[:, None] >> np.arange(8) & 1).astype(np.uint64)
    tables = tuple(byte @ moved[lo:lo + 8] for lo in range(0, bits, 8))
    for table in tables:
        table.flags.writeable = False
    return tables


def _transpose(x, rows: int, cols: int) -> np.ndarray:
    """Each uint64 of x, read as a rows x cols bit matrix (bit c of row r
    at bit r * cols + c), as its transpose (that bit at c * rows + r);
    bits from rows * cols up are dropped.  One table gather per byte."""
    # signed, so the gather keys stay intp
    x = np.asarray(x, dtype=np.uint64).view(np.int64)
    out = np.zeros(x.shape, dtype=np.uint64)
    for lo, table in zip(range(0, 64, 8), _byte_tables(rows, cols)):
        out |= table[(x >> lo) & 255]
    return out


@lru_cache(maxsize=None)
def _kernel(d: int, depth: int, forward: bool) -> tuple:
    """The start key of `_plan(d, depth, forward)` and one (shift, mask,
    comb, nxt) per step, read-only int64 arrays keyed like the plan's
    lists; `nxt` is None on the last step and at d = 1, where the
    rotation stays 0 (see the module docstring)."""
    start, plan, _, out, adds, nxt = _plan(d, depth, forward)
    out, adds = np.array(out, dtype=np.uint64), np.array(adds, dtype=np.uint64)
    words = np.arange(len(out), dtype=np.uint64)
    nxt = np.array(nxt, dtype=np.int64)
    nxt.flags.writeable = False
    steps = []
    for shift, mask in plan:
        comb = (out << np.uint64(shift)
                | adds * np.uint64(((1 << shift) - 1) // ((1 << d) - 1)))
        if forward:  # rewrite the octant word in place
            comb ^= (words & np.uint64(mask)) << np.uint64(shift)
        else:
            comb = _transpose(comb, depth, d)
        comb = comb.view(np.int64)
        comb.flags.writeable = False
        steps.append((shift, mask, comb, nxt if shift and d > 1 else None))
    return start, tuple(steps)


def _cell_array(cells, high: int | None = None) -> np.ndarray:
    """`cells` as an array of cell indices, integers in 0..high, or
    RangeError naming one that is not.  An integer array passes on its
    dtype, an unsigned one with no `high` at once; anything else is read
    value by value as given, and a bool, numpy's too, is no cell, as a
    mask was almost surely meant."""
    if not (isinstance(cells, np.ndarray) and cells.dtype.kind in "ui"):
        cells = np.asarray(cells, dtype=object)
        wrong = {kind for kind in set(map(type, cells.flat))
                 if not issubclass(kind, (int, np.integer)) or issubclass(kind, bool)}
        if wrong:
            bad = next(c for c in cells.flat if type(c) in wrong)
            shown = bad if isinstance(bad, (bool, np.bool_)) else repr(bad)
            raise RangeError(f"cell index {echo(shown)} is not an integer >= 0")
    elif cells.dtype.kind == "u" and high is None:
        return cells
    low = cells.min(initial=0)
    if low < 0:
        raise RangeError(f"cell index {echo(low)} is not an integer >= 0")
    if high is not None and cells.max(initial=0) > high:
        raise RangeError(f"cell index must be in 0..{echo(high)}, got {echo(cells.max())}")
    return cells


def _batch(cells, depth: int, d: int, forward: bool) -> np.ndarray:
    """`forward_map_batch` if `forward`, else `inverse_map_batch`: the
    walk of the module docstring's one rule, on `_cell_array`'s cells."""
    d, depth = _check_cell(d, depth)
    cells = _cell_array(cells)
    if d * depth > 64:
        core = _forward_cell if forward else _inverse_cell
        flat = [int(c) for c in cells.flat]
        images = {c: core(c, depth, d) for c in dict.fromkeys(flat)}
        return np.array([images[c] for c in flat], dtype=object).reshape(cells.shape)
    if cells.dtype == object:
        cells = np.array([int(c) & (1 << 64) - 1 for c in cells.flat],
                         dtype=np.uint64).reshape(cells.shape)
    # A signed view keeps the table keys in intp; an arithmetic shift
    # followed by the mask still reads the right digits, also on the
    # first step when d * depth = 64 or a bit above the index is set.
    if forward:  # the walk rewrites the octants in place
        src = acc = _transpose(cells, d, depth).view(np.int64)
    else:
        src = np.asarray(cells, dtype=np.uint64).view(np.int64)
        acc = np.zeros(src.shape, dtype=np.int64)
    key_rot, steps = _kernel(d, depth, forward)
    for shift, mask, comb, nxt in steps:
        key = (src >> shift) & mask
        key += key_rot
        acc ^= comb[key]
        if nxt is not None:
            key_rot = nxt[key]
    return acc.view(np.uint64)


def inverse_map_batch(indices: np.ndarray, depth: int, dimension: int) -> np.ndarray:
    """Vectorized inverse over depth-n segment cell indices.

    Returns, in an array of the indices' shape, the packed grid index of
    each cell's lower corner: axis a's mantissa at precision `depth` in
    bits a*depth .. (a+1)*depth - 1, the layout forward_map_batch reads.
    Must agree with inverse_map on every index.  Up to dimension * depth
    = 64 the result is uint64 and builds up by one `comb` entry per step
    of `_kernel`; beyond, it holds Python ints in an object array.  Bits
    above dimension * depth are ignored.  An index that is not an integer
    >= 0 raises RangeError.
    """
    return _batch(indices, depth, dimension, False)


def forward_map_batch(cells: np.ndarray, depth: int, dimension: int) -> np.ndarray:
    """Vectorized forward map over depth-n cube cells, the inverse of
    inverse_map_batch.

    A cell is its packed grid index, one integer with axis a's coordinate
    (scale 2**depth) in bits a*depth .. (a+1)*depth - 1; higher bits are
    ignored.  Returns the segment cell index of each, in an array of the
    cells' shape.  Must agree with forward_map on every cell.  Up to
    dimension * depth = 64 the cells and the result are uint64: the index
    is transposed into octant order once; each step then reads its word,
    rewrites it into digits and flips every later octant by one XOR, so
    the flips ride in the index as the rotation rides in the key.  Beyond,
    both are Python ints in object arrays.  A cell that is not an integer
    >= 0 raises RangeError.
    """
    return _batch(cells, depth, dimension, True)
