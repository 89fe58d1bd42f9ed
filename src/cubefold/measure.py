"""Exact and statistical verification that the map preserves measure.

Exact checks run on cells and finite unions of cells, the intersection-
closed class generating the Borel algebra; agreement there extends to the
generated algebra, so nothing beyond cells and unions needs checking
bit-exactly.  Statistical checks push uniform segment draws through the
inverse map and test the image for uniformity.

`SUITES` holds the five `verify` suites and their bounds.  Cube cells
are packed grid indices throughout, the batch inverse kernel's output;
`CellUnion.of_cube` names them by the segment indices they pair with.
One stream, `_corner_blocks`, feeds the batch kernel `BLOCK` indices at
a time to `cells`, `adjacency` and the uniformity audit's fold of its
per-cell counts onto the grid, counted at the depth the grid needs (j
at k = 2^j, else the draw depth).  The audit bins each coordinate through
one per-axis table, `_axis_bins`, which also gives its expected counts.
`roundtrip`, `measure`, `rect_measure_check` and `pushforward` map whole
arrays of cells with one call of each batch map they need, at any depth;
beyond d*depth = 64 bits the cells are Python ints in object arrays.
`verify measure` draws its unions as the rows of one cell matrix and
compares the distinct cells of each row with the distinct images,
counted by one sort per side.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curve import _cell_array, _check_cell, forward_map_batch, inverse_map_batch
from .dyadic import CubePoint, DyadicRect, RangeError, UnitScalar, _integer, echo
from .stats import chi2_threshold, chi_squared

CUBE = "cube"
SEGMENT = "segment"
ROUNDTRIP_TRIALS = 1000
MEASURE_UNIONS = 200
# cells * d bound of the exhaustive suites and of `rect_measure_check`,
# checked before any allocation.  The suites stream the corners in blocks
# of BLOCK cells; what grows with the cell count is the one-byte-per-cell
# `seen` array of `cells`, 16 MiB at the bound (d=1 depth=24), where a
# suite peaks below 50 MiB RSS
MAX_CELL_COORDS = 1 << 24


@dataclass(frozen=True)
class CellUnion:
    """Finite union of distinct same-depth cells of one space.

    Members are cell indices below 2**(d*depth), Python or numpy integers,
    each read by `curve._cell_array` as one cell, in any sized collection;
    `members` keeps them as a frozenset of Python ints.
    On the segment, q is the cell [q, q+1) * b**-depth with b = 2**d.  In
    the cube, a member is a packed grid index: axis a's coordinate x_a
    (scale 2**depth) in bits a*depth .. (a+1)*depth - 1, so the cell is
    the product of [x_a, x_a + 1) * 2**-depth.  Measure is exactly
    count * b**-depth either way.
    """

    space: str
    dimension: int
    depth: int
    members: frozenset

    def __post_init__(self):
        if self.space not in (CUBE, SEGMENT):
            raise RangeError(f"unknown space {self.space!r}")
        d, depth = _check_cell(self.dimension, self.depth)
        object.__setattr__(self, "dimension", d)
        object.__setattr__(self, "depth", depth)
        cells = _cell_array(np.fromiter(self.members, object, len(self.members)),
                            (1 << d * depth) - 1)
        # a repeated member is one cell; Python ints keep it hashable
        object.__setattr__(self, "members", frozenset(map(int, cells)))

    @classmethod
    def of_cube(cls, dimension: int, depth: int, indices) -> "CellUnion":
        """Cube union of the cells the inverse map pairs with the segment
        cells `indices`, all in one call.  The indices are checked as a
        segment union first: the map would drop bits above d*depth."""
        segment = cls.of_segment(dimension, depth, indices)
        cells = inverse_map_batch(list(segment.members), segment.depth, segment.dimension)
        return cls(CUBE, segment.dimension, segment.depth, frozenset(cells.tolist()))

    @classmethod
    def of_segment(cls, dimension: int, depth: int, indices) -> "CellUnion":
        return cls(SEGMENT, dimension, depth, frozenset(indices))

    def measure(self) -> Fraction:
        return Fraction(len(self.members), 1 << (self.dimension * self.depth))


def _distinct(cells) -> np.ndarray:
    """Number of distinct cells along the last axis of a non-empty one."""
    cells = np.sort(cells, axis=-1)
    return 1 + np.count_nonzero(cells[..., 1:] != cells[..., :-1], axis=-1)


def pushforward(cu: CellUnion) -> CellUnion:
    """Image on the segment of a cube cell union.

    Every member cell goes through the forward map, all in one call, and
    the image holds the segment cells they land on.  A bijection keeps
    the union's measure; a map sending two of its cells onto one segment
    cell shrinks the image.
    """
    if cu.space != CUBE:
        raise RangeError("pushforward expects a cube-side union")
    images = forward_map_batch(list(cu.members), cu.depth, cu.dimension)
    return CellUnion(SEGMENT, cu.dimension, cu.depth, frozenset(images.tolist()))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one check; pass iff statistic <= threshold."""

    name: str
    scope: str
    statistic: float
    threshold: float
    passed: bool
    seed: int | None = None

    @classmethod
    def from_statistic(cls, name, scope, statistic, threshold, seed=None):
        return cls(name, scope, float(statistic), float(threshold),
                   float(statistic) <= float(threshold), seed)

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True)


def rect_measure_check(rect: DyadicRect, depth: int) -> VerificationReport:
    """Decompose a grid-aligned box into depth-n cells and push forward.

    The image measure equals the box volume exactly iff no two box cells
    share an image cell, so the check counts the distinct images against
    the box's cells; the statistic is the number of failures (0 or 1).
    The box's cells * d must stay within `MAX_CELL_COORDS`, checked
    before any cell is built.
    """
    depth = _integer(depth, "depth", 0)
    for k in rect.side_exponents:
        if k > depth:
            raise RangeError(f"side 2^-{k} is not a multiple of the depth-{depth} grid")
    base = [(c.mantissa << depth) >> c.precision for c in rect.lower.coords]
    if any(UnitScalar(b, depth) != c for b, c in zip(base, rect.lower.coords)):
        raise RangeError("corner not aligned to the depth grid")
    d, bits = len(base), sum(depth - k for k in rect.side_exponents)
    if d << bits > MAX_CELL_COORDS:
        raise RangeError(
            f"box has 2^{bits} cells of {d} coordinates; rect_measure_check "
            f"takes cells * d <= 2^{MAX_CELL_COORDS.bit_length() - 1}")
    # packed grid indices, as in CellUnion, in the batch maps' array types
    cells = np.zeros(1, dtype=np.uint64 if d * depth <= 64 else object)
    for axis, (b, k) in enumerate(zip(base, rect.side_exponents)):
        xs = np.arange(b, b + (1 << depth - k), dtype=cells.dtype) << axis * depth
        cells = (cells[:, None] | xs).ravel()
    exact = _distinct(forward_map_batch(cells, depth, d)) == len(cells)
    return VerificationReport.from_statistic(
        "rect_measure", f"depth={depth} sides={rect.side_exponents}",
        0 if exact else 1, 0,
    )


# each uint64 temporary of a block takes 64 KiB, below glibc's default
# 128 KiB mmap threshold
BLOCK = 1 << 13


def _corner_blocks(d: int, depth: int):
    """Lower corners of every depth-n cube cell, in segment order, as
    packed grid indices: the inverse map's output for each `BLOCK` of
    indices, computed as it is read.  d and depth are checked at the
    call; the callers keep d * depth within the kernel's 64 bits."""
    d, depth = _check_cell(d, depth)
    total = 1 << (d * depth)
    return (inverse_map_batch(
                np.arange(lo, min(lo + BLOCK, total), dtype=np.uint64), depth, d)
            for lo in range(0, total, BLOCK))


def _axis_bins(grid_k: int, depth: int) -> np.ndarray:
    """Bin of each coordinate x of the 2**depth grid along one axis of
    the k-bin grid: x * k >> depth."""
    return np.arange(1 << depth, dtype=np.int64) * grid_k >> depth


def _bin_counts(cell_counts: np.ndarray, grid_k: int, depth: int) -> np.ndarray:
    """Fold per-cell counts of the 4^n depth-n segment cells onto the flat
    k x k grid (d=2): each cell's count goes to the bin of its lower
    corner, two gathers from `_axis_bins`, the identity at k = 2^n."""
    counts = np.zeros(grid_k * grid_k, dtype=np.int64)
    axis_bin, mask = _axis_bins(grid_k, depth), (1 << depth) - 1
    for lo, cells in zip(range(0, len(cell_counts), BLOCK), _corner_blocks(2, depth)):
        cells = cells.view(np.int64)  # gathers cast a uint64 index to intp first
        bins = axis_bin[cells & mask] * grid_k + axis_bin[cells >> depth]
        np.add.at(counts, bins, cell_counts[lo:lo + BLOCK])
    return counts


_CHUNK = 1 << 17


def _draw_cells(rng: np.random.Generator, size: int, depth: int) -> np.ndarray:
    """`size` uniform depth-n segment cell indices of the square."""
    return rng.integers(0, 1 << (2 * depth), size=size, dtype=np.uint64)


def monte_carlo_uniformity(sample_count: int, grid_k: int,
                           seed: int) -> VerificationReport:
    """Chi-squared uniformity audit of the inverse map on a k x k grid.

    Draws uniform segment cells at depth n = max(8, bits of k - 1),
    inverts them into the square, bins the depth-n lower corners and
    compares against their exact expectation at 99.9% confidence.
    The draws are counted per segment cell at depth j for k = 2^j (a bin
    is one depth-j cell, and the cells nest), else at n; the 4^level cell
    counts are folded onto the grid, each cell mapped once.  Trade-off:
    at k = 2^j the chi-squared half runs the map at depth j, not n, and
    the depth-n bijection is left to `verify cells`.  Chunk i of `_CHUNK`
    draws takes child i of the seed, spawned when the loop reaches it, so
    counts are reproducible under any partitioning.  The three arguments
    are integers (`dyadic._integer`), and seed is >= 0.
    """
    # k <= 2^31 before k*k is printed; it keeps 2*depth <= 62
    grid_k = _integer(grid_k, "grid", 1, 1 << 31)
    sample_count = _integer(sample_count, "N", 0)
    if sample_count < 100 * grid_k * grid_k:
        raise RangeError(
            f"need at least {100 * grid_k * grid_k} samples for a "
            f"{grid_k}x{grid_k} grid, got N={echo(sample_count)}"
        )
    seed = _integer(seed, "seed", 0)
    if grid_k == 1:
        return VerificationReport.from_statistic(
            "uniformity", f"N={sample_count} grid=1x1", 0.0, 0.0, seed)

    bits = (grid_k - 1).bit_length()
    depth = max(8, bits)
    # at k = 2^j bin (i0, i1) is one depth-j cube cell; the cells nest,
    # so its preimage is the one depth-j segment cell q >> 2*(depth - j)
    level = bits if grid_k & (grid_k - 1) == 0 else depth
    shift = np.uint64(2 * (depth - level))
    cell_counts = np.zeros(1 << (2 * level), dtype=np.int64)
    streams = np.random.SeedSequence(seed)
    for start in range(0, sample_count, _CHUNK):
        q = _draw_cells(np.random.default_rng(streams.spawn(1)[0]),
                        min(_CHUNK, sample_count - start), depth)
        cell_counts += np.bincount((q >> shift).view(np.int64), minlength=len(cell_counts))
    counts = _bin_counts(cell_counts, grid_k, level)

    # A bijection puts one corner on each point of the 2**depth grid, so
    # every grid point is equally likely; along an axis bin i holds the
    # coordinates `_axis_bins` sends to it.  At k = 2**j every bin holds
    # (2**depth / k)**2 and this is exactly N / k**2.
    per_axis = np.bincount(_axis_bins(grid_k, depth), minlength=grid_k)
    expected = np.outer(per_axis, per_axis).ravel() * (sample_count / (1 << 2 * depth))
    stat, dof = chi_squared(counts, expected)
    threshold = chi2_threshold(dof, 0.999)
    return VerificationReport.from_statistic(
        "uniformity", f"N={sample_count} grid={grid_k}x{grid_k} depth={depth}",
        stat, threshold, seed)


def _exhaustive_blocks(d, depth):
    """`_corner_blocks(d, depth)`, once the cell bound holds too."""
    blocks = _corner_blocks(d, depth)  # d and depth first
    if d << (d * depth) > MAX_CELL_COORDS:
        raise RangeError(
            f"d={d} depth={depth} has 2^{d * depth} cells of {d} coordinates; "
            f"exhaustive suites take cells * d <= 2^{MAX_CELL_COORDS.bit_length() - 1}")
    return blocks


def _suite_cells(d, depth):
    # Corners lie on the 2^depth grid, which has exactly as many points as
    # there are segment cells, so distinct corners make the map a bijection
    # between equal-measure cells.
    blocks = _exhaustive_blocks(d, depth)  # checks the bounds before `seen`
    seen = np.zeros(1 << (d * depth), dtype=bool)
    for cells in blocks:
        seen[cells.view(np.int64)] = True
    collisions = len(seen) - np.count_nonzero(seen)
    yield VerificationReport.from_statistic(
        "cells", f"exhaustive d={d} depth={depth}", collisions, 0)


def _suite_adjacency(d, depth):
    # Consecutive cells p1, p2 share a face iff they differ by one along
    # one axis a: |p2 - p1| = 2^(a*depth) and p1 ^ p2 lies in axis a's
    # bits.  The last test rejects x_a wrapping from 2^depth - 1 to 0
    # while axis a+1 steps by one, whose packed difference is the same.
    # The last cell of each block is carried into the next block's check.
    axes = sum(1 << a * depth for a in range(d))
    violations, last = 0, np.empty(0, dtype=np.int64)
    for cells in _exhaustive_blocks(d, depth):
        cells = np.concatenate((last, cells.view(np.int64)))
        p1, p2 = cells[:-1], cells[1:]
        step = np.abs(p2 - p1)
        flipped = p1 ^ p2
        ok = ((flipped | step) & (step - 1) == 0) & (step & axes != 0)
        ok &= flipped >> depth < step
        violations += len(ok) - int(np.count_nonzero(ok))
        last = cells[-1:]
    yield VerificationReport.from_statistic(
        "adjacency", f"exhaustive d={d} depth={depth}", violations, 0)


def _uniform_cells(rng: random.Random, shape, bits: int) -> np.ndarray:
    """Uniform integers below 2**bits in an array of `shape`: uint64 up
    to 64 bits, Python ints in an object array beyond.  Each is the top
    of its own power-of-two number of bytes of one `getrandbits` draw."""
    size = 1 << max(0, (bits - 1).bit_length() - 3)
    count = int(np.prod(shape))
    raw = rng.getrandbits(8 * size * count).to_bytes(size * count, "little")
    if bits <= 64:
        cells = np.frombuffer(raw, f"<u{size}").astype(np.uint64) >> np.uint64(8 * size - bits)
    else:
        cells = np.array([int.from_bytes(raw[i:i + size], "little") >> 8 * size - bits
                          for i in range(0, len(raw), size)], dtype=object)
    return cells.reshape(shape)


def _suite_roundtrip(d, depth, seed):
    seed = _integer(seed, "seed", 0)
    indices = _uniform_cells(random.Random(seed), ROUNDTRIP_TRIALS, d * depth)
    back = forward_map_batch(inverse_map_batch(indices, depth, d), depth, d)
    failures = np.count_nonzero(back != indices)
    yield VerificationReport.from_statistic(
        "roundtrip", f"random d={d} depth={depth} trials={ROUNDTRIP_TRIALS}",
        failures, 0, seed)


def _suite_measure(d, depth, seed):
    # Row i of `cells` is union i: counts[i] uniform cube cells (packed
    # grid indices), then its first cell again in the unused slots, which
    # adds no cell.  A union keeps its measure iff its distinct cells have
    # as many distinct images.  Python's generator draws, as in roundtrip:
    # importing numpy.random would add 4 to 6 MiB to the command's RSS.
    seed = _integer(seed, "seed", 0)
    rng = random.Random(seed)
    width = min(1 << d * depth, 64)
    counts = np.array([rng.randrange(width + 1) for _ in range(MEASURE_UNIONS)])
    cells = _uniform_cells(rng, (MEASURE_UNIONS, width), d * depth)
    cells = np.where(np.arange(width) < counts[:, None], cells, cells[:, :1])
    failures = np.count_nonzero(_distinct(cells) != _distinct(forward_map_batch(cells, depth, d)))
    yield VerificationReport.from_statistic(
        "measure-unions", f"random d={d} depth={depth} unions={MEASURE_UNIONS}",
        failures, 0, seed)
    # [0, 1/2) x [0, 1)^(d-1) needs depth >= 1; it has at most 2^11 cells
    half = DyadicRect(CubePoint((UnitScalar(0, 0),) * d), (1,) + (0,) * (d - 1))
    yield rect_measure_check(half, min(max(depth, 1), 12 // d))


def _suite_uniformity(sample_count, grid_k, seed):
    # the audit bins the 2-D map at a depth it derives from -k
    yield monte_carlo_uniformity(sample_count, grid_k, seed)


# by name, run by `cubefold verify` after its d*n <= 14284 check
SUITES = {"cells": _suite_cells, "adjacency": _suite_adjacency,
          "roundtrip": _suite_roundtrip, "measure": _suite_measure,
          "uniformity": _suite_uniformity}
