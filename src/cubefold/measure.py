"""Exact and statistical verification that the map preserves measure.

Exact checks run on cells and finite unions of cells, the intersection-
closed class generating the Borel algebra; agreement there extends to the
generated algebra, so nothing beyond cells and unions needs checking
bit-exactly.  Statistical checks push uniform segment draws through the
inverse map and test the image for uniformity.

`SUITES` holds the five `verify` suites and their bounds.  One stream,
`_corner_blocks`, feeds the batch kernel `BLOCK` indices at a time to
`cells`, `adjacency` and the uniformity audit's bin table.  `roundtrip`,
`measure` and `pushforward` map whole lists of cells through
`_cube_cells` and `_segment_cells`, the batch kernels up to
d*depth = 64 bits and the scalar maps beyond.
"""

from __future__ import annotations

import itertools
import json
import operator
import random
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .curve import (
    BLOCK,
    CellAddress,
    _check_batch,
    _check_cell,
    address_to_interval,
    forward_map,
    forward_map_batch,
    inverse_map,
    inverse_map_batch,
)
from .dyadic import CubePoint, DyadicRect, RangeError, UnitScalar, echo
from .stats import chi2_threshold, chi_squared

CUBE = "cube"
SEGMENT = "segment"
ROUNDTRIP_TRIALS = 1000
MEASURE_UNIONS = 200
# cells * d bound of the exhaustive suites, checked before any allocation.
# They stream the corners in blocks of BLOCK cells; what grows with the
# cell count is the one-byte-per-cell `seen` array of `cells`, 16 MiB at
# the bound (d=1 depth=24), where a suite peaks below 50 MiB RSS
MAX_CELL_COORDS = 1 << 24


@dataclass(frozen=True)
class CellUnion:
    """Finite union of distinct same-depth cells of one space.

    Members are cell indices below 2**(d*depth), Python or numpy integers.
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
        _check_cell(self.dimension, self.depth)
        # the types first: a float passes the range check, a str or a
        # tuple breaks it
        for kind in set(map(type, self.members)):
            if not issubclass(kind, (int, np.integer)):
                bad = next(m for m in self.members if type(m) is kind)
                raise RangeError(f"cell index {bad!r} is not an integer")
        total = 1 << (self.dimension * self.depth)
        if self.members and not 0 <= min(self.members) <= max(self.members) < total:
            raise RangeError(f"cell index out of range at depth {self.depth}")

    @classmethod
    def of_cube(cls, dimension: int, depth: int, addresses) -> "CellUnion":
        """Cube union of digit paths, each a sequence of digits; the
        inverse map finds each path's cell, all paths in one call."""
        indices = []
        for digits in addresses:
            a = CellAddress(dimension, tuple(digits))
            if a.depth != depth:
                raise RangeError("member depth mismatch")
            indices.append(address_to_interval(a).index)
        return cls(CUBE, dimension, depth,
                   frozenset(_cube_cells(indices, depth, dimension)))

    @classmethod
    def of_segment(cls, dimension: int, depth: int, indices) -> "CellUnion":
        return cls(SEGMENT, dimension, depth, frozenset(int(q) for q in indices))

    def measure(self) -> Fraction:
        return Fraction(len(self.members), 1 << (self.dimension * self.depth))


def _cube_cells(indices, depth: int, d: int) -> list:
    """Packed grid indices of the cube cells matched to segment cells
    `indices`: the batch kernel up to d*depth = 64 bits, the scalar map
    beyond."""
    if d * depth <= 64:
        corners = inverse_map_batch(np.array(indices, dtype=np.uint64), depth, d)
        cells = corners[:, 0].copy()
        for axis in range(1, d):
            cells |= corners[:, axis] << np.uint64(axis * depth)
        return cells.tolist()
    return [sum(c.mantissa << axis * depth for axis, c in
                enumerate(inverse_map(UnitScalar(q, d * depth), depth, d).coords))
            for q in map(int, indices)]


def _segment_cells(cells, depth: int, d: int) -> list:
    """Segment cell indices of cube cells given as packed grid indices:
    the batch kernel up to d*depth = 64 bits, the scalar map beyond."""
    if d * depth <= 64:
        return forward_map_batch(np.array(cells, dtype=np.uint64), depth, d).tolist()
    mask = (1 << depth) - 1
    return [forward_map(CubePoint(tuple(UnitScalar(c >> axis * depth & mask, depth)
                                        for axis in range(d))), depth).mantissa
            for c in map(int, cells)]


def pushforward(cu):
    """Image on the segment of a cube cell union, or the list of images
    of a sequence of unions of one dimension and depth.

    Every member cell goes through the forward map, the members of all
    the unions in one call, and the image holds the segment cells they
    land on.  A bijection keeps each union's measure; a map sending two of
    a union's cells onto one segment cell shrinks its image.
    """
    unions = [cu] if isinstance(cu, CellUnion) else list(cu)
    if any(u.space != CUBE for u in unions):
        raise RangeError("pushforward expects a cube-side union")
    if len({(u.dimension, u.depth) for u in unions}) > 1:
        raise RangeError("pushforward expects unions of one dimension and depth")
    images = []
    if unions:
        d, depth = unions[0].dimension, unions[0].depth
        members = itertools.chain.from_iterable(u.members for u in unions)
        cells = iter(_segment_cells(list(members), depth, d))
        images = [CellUnion(SEGMENT, d, depth, frozenset(itertools.islice(cells, len(u.members))))
                  for u in unions]
    return images[0] if isinstance(cu, CellUnion) else images


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
        return json.dumps(asdict(self), sort_keys=True)


def rect_measure_check(rect: DyadicRect, depth: int) -> VerificationReport:
    """Decompose a grid-aligned box into depth-n cells and push forward.

    The image measure equals the box volume exactly iff no two box cells
    share an image cell, so the check counts the distinct images against
    the box's cells; the statistic is the number of failures (0 or 1).
    """
    for k in rect.side_exponents:
        if k > depth:
            raise RangeError(f"side 2^-{k} is not a multiple of the depth-{depth} grid")
    base = [(c.mantissa << depth) >> c.precision for c in rect.lower.coords]
    if any(UnitScalar(b, depth) != c for b, c in zip(base, rect.lower.coords)):
        raise RangeError("corner not aligned to the depth grid")
    cells = [0]  # packed grid indices, as in CellUnion
    for axis, (b, k) in enumerate(zip(base, rect.side_exponents)):
        cells = [c | x << axis * depth for c in cells for x in range(b, b + (1 << depth - k))]
    exact = len(set(_segment_cells(cells, depth, len(base)))) == len(cells)
    return VerificationReport.from_statistic(
        "rect_measure", f"depth={depth} sides={rect.side_exponents}",
        0 if exact else 1, 0,
    )


def _corner_blocks(d: int, depth: int):
    """Lower corners of every depth-n cube cell, in segment order: the
    kernel's uint64 (N, d) output for each `BLOCK` of indices, computed as
    it is read.  The kernel's limits are checked at the call."""
    _check_batch(depth, d)
    total = 1 << (d * depth)
    return (inverse_map_batch(
                np.arange(lo, min(lo + BLOCK, total), dtype=np.uint64), depth, d)
            for lo in range(0, total, BLOCK))


def _cell_bins(grid_k: int, depth: int) -> np.ndarray:
    """Flat k x k grid bin of each depth-n segment cell's lower corner (d=2)."""
    bins = np.empty(1 << (2 * depth), dtype=np.intp)
    k = np.uint64(grid_k)
    for lo, corners in zip(range(0, len(bins), BLOCK), _corner_blocks(2, depth)):
        corners *= k
        corners >>= np.uint64(depth)
        bins[lo:lo + BLOCK] = corners[:, 0] * k + corners[:, 1]
    return bins


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
    Each cell is mapped once, into a bin table; chunk i of `_CHUNK` draws
    takes child i of the seed, spawned when the loop reaches it, so counts
    are reproducible under any partitioning.  Consecutive chunks are
    counted by one bincount once they hold k*k draws or the last is drawn.
    """
    if grid_k < 1:
        raise RangeError("grid must be at least 1x1")
    if grid_k > 1 << 31:  # before k*k is printed; keeps 2*depth <= 62
        raise RangeError(f"grid must have k <= 2^31, got k={echo(grid_k)}")
    if sample_count < 100 * grid_k * grid_k:
        raise RangeError(
            f"need at least {100 * grid_k * grid_k} samples for a "
            f"{grid_k}x{grid_k} grid"
        )
    if grid_k == 1:
        return VerificationReport.from_statistic(
            "uniformity", f"N={sample_count} grid=1x1", 0.0, 0.0, seed)

    depth = max(8, (grid_k - 1).bit_length())
    nbins = grid_k * grid_k
    bins = _cell_bins(grid_k, depth)
    counts = np.zeros(nbins, dtype=np.int64)
    pending = []  # bins of drawn chunks not yet counted
    streams = np.random.SeedSequence(seed)
    for start in range(0, sample_count, _CHUNK):
        q = _draw_cells(np.random.default_rng(streams.spawn(1)[0]),
                        min(_CHUNK, sample_count - start), depth)
        pending.append(bins[q])
        # a bincount sweeps all k*k bins: give it at least as many draws
        if len(pending) * _CHUNK >= nbins or start + _CHUNK >= sample_count:
            counts += np.bincount(
                pending[0] if len(pending) == 1 else np.concatenate(pending),
                minlength=nbins)
            pending = []

    # A bijection puts one corner on each point of the 2**depth grid, so
    # every grid point is equally likely; along an axis bin i holds
    # ceil((i+1) 2**depth / k) - ceil(i 2**depth / k) of them.  At k = 2**j
    # every bin holds (2**depth / k)**2 and this is exactly N / k**2.
    per_axis = np.diff(-(-np.arange(grid_k + 1) * (1 << depth) // grid_k))
    expected = np.outer(per_axis, per_axis).ravel() * (sample_count / (1 << 2 * depth))
    stat, dof = chi_squared(counts, expected)
    threshold = chi2_threshold(dof, 0.999)
    return VerificationReport.from_statistic(
        "uniformity", f"N={sample_count} grid={grid_k}x{grid_k} depth={depth}",
        stat, threshold, seed)


def _exhaustive_blocks(d, depth):
    """`_corner_blocks(d, depth)`, once the cell bound holds too."""
    blocks = _corner_blocks(d, depth)  # the kernel's limits first
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
    for corners in blocks:
        seen[np.ravel_multi_index(corners.astype(np.int64).T, (1 << depth,) * d)] = True
    collisions = len(seen) - np.count_nonzero(seen)
    yield VerificationReport.from_statistic(
        "cells", f"exhaustive d={d} depth={depth}", collisions, 0)


def _suite_adjacency(d, depth):
    # the last corner of each block is carried into the next block's check
    violations, last = 0, None
    for corners in _exhaustive_blocks(d, depth):
        corners = corners.astype(np.int64)
        if last is not None:
            violations += int(np.abs(corners[0] - last).sum() != 1)
        diff = np.abs(np.diff(corners, axis=0))
        violations += int(np.count_nonzero(diff.sum(axis=1) != 1))
        last = corners[-1]
    yield VerificationReport.from_statistic(
        "adjacency", f"exhaustive d={d} depth={depth}", violations, 0)


def _suite_roundtrip(d, depth, seed):
    rng = random.Random(seed)
    indices = [rng.getrandbits(d * depth) for _ in range(ROUNDTRIP_TRIALS)]
    back = _segment_cells(_cube_cells(indices, depth, d), depth, d)
    failures = sum(map(operator.ne, back, indices))
    yield VerificationReport.from_statistic(
        "roundtrip", f"random d={d} depth={depth} trials={ROUNDTRIP_TRIALS}",
        failures, 0, seed)


def _suite_measure(d, depth, seed):
    rng = random.Random(seed)
    bits = d * depth
    unions = []
    for _ in range(MEASURE_UNIONS):
        count = rng.randint(0, min(1 << bits, 64))
        # each draw, read as a packed grid index, is a uniform cube cell
        unions.append(CellUnion(CUBE, d, depth,
                                frozenset(rng.getrandbits(bits) for _ in range(count))))
    failures = sum(image.measure() != cu.measure()
                   for cu, image in zip(unions, pushforward(unions)))
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
