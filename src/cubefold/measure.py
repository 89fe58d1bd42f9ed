"""Exact and statistical verification that the map preserves measure.

Exact checks run on cells and finite unions of cells, the intersection-
closed class generating the Borel algebra; agreement there extends to the
generated algebra, so nothing beyond cells and unions needs checking
bit-exactly.  Statistical checks push uniform segment draws through the
inverse map and test the image for uniformity.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .curve import (
    CellAddress,
    SegmentInterval,
    address_to_interval,
    forward_map,
    inverse_map_batch,
)
from .dyadic import CubePoint, DyadicRect, RangeError, UnitScalar
from .stats import chi2_threshold, chi_squared

CUBE = "cube"
SEGMENT = "segment"


@dataclass(frozen=True)
class CellUnion:
    """Finite union of distinct same-depth cells of one space.

    Cube members are zero-based digit tuples, segment members interval
    indices; measure is exactly count * (2**d)**-depth either way.
    """

    space: str
    dimension: int
    depth: int
    members: frozenset

    def __post_init__(self):
        if self.space not in (CUBE, SEGMENT):
            raise RangeError(f"unknown space {self.space!r}")
        if self.depth < 0:
            raise RangeError("depth must be >= 0")
        for m in self.members:
            if self.space == CUBE:
                CellAddress(self.dimension, m)  # validates digits
                if len(m) != self.depth:
                    raise RangeError("member depth mismatch")
            else:
                SegmentInterval(self.dimension, self.depth, m)

    @classmethod
    def of_cube(cls, dimension: int, depth: int, addresses) -> "CellUnion":
        members = frozenset(
            a.digits if isinstance(a, CellAddress) else tuple(a)
            for a in addresses
        )
        return cls(CUBE, dimension, depth, members)

    @classmethod
    def of_segment(cls, dimension: int, depth: int, indices) -> "CellUnion":
        return cls(SEGMENT, dimension, depth, frozenset(int(q) for q in indices))

    def measure(self) -> Fraction:
        return Fraction(len(self.members), 1 << (self.dimension * self.depth))

    def complement(self) -> "CellUnion":
        total = 1 << (self.dimension * self.depth)
        if self.space == SEGMENT:
            rest = frozenset(range(total)) - self.members
            return CellUnion(SEGMENT, self.dimension, self.depth, rest)
        everything = itertools.product(range(1 << self.dimension),
                                       repeat=self.depth)
        return CellUnion(CUBE, self.dimension, self.depth,
                         frozenset(everything) - self.members)


def pushforward(cu: CellUnion) -> CellUnion:
    """Image of a cube cell union on the segment, member by member.

    Measure equality holds by construction; injectivity and the equality
    are re-asserted rather than trusted.
    """
    if cu.space != CUBE:
        raise RangeError("pushforward expects a cube-side union")
    images = {
        address_to_interval(CellAddress(cu.dimension, digits)).index
        for digits in cu.members
    }
    if len(images) != len(cu.members):
        raise AssertionError("cell map failed to be injective")
    out = CellUnion.of_segment(cu.dimension, cu.depth, images)
    if out.measure() != cu.measure():
        raise AssertionError("pushforward changed total measure")
    return out


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

    def to_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        seed = "" if self.seed is None else f" seed={self.seed}"
        return (f"{self.name} [{self.scope}] statistic={self.statistic:g} "
                f"threshold={self.threshold:g} {verdict}{seed}")


def rect_measure_check(rect: DyadicRect, depth: int) -> VerificationReport:
    """Decompose a grid-aligned box into depth-n cells and push forward.

    The image interval lengths must sum to the box volume exactly; the
    statistic is the number of exactness failures (0 or 1).
    """
    d = rect.dimension
    for k in rect.side_exponents:
        if k > depth:
            raise RangeError(
                f"side 2^-{k} is not a multiple of the depth-{depth} grid"
            )
    base = []
    for c in rect.lower.coords:
        p = c.precision
        if p >= depth:
            if c.mantissa & ((1 << (p - depth)) - 1):
                raise RangeError("corner not aligned to the depth grid")
            base.append(c.mantissa >> (p - depth))
        else:
            base.append(c.mantissa << (depth - p))
    spans = [range(1 << (depth - k)) for k in rect.side_exponents]
    indices = set()
    for offsets in itertools.product(*spans):
        pt = CubePoint(tuple(
            UnitScalar(b + o, depth) for b, o in zip(base, offsets)
        ))
        indices.add(forward_map(pt, depth).mantissa)
    image = CellUnion.of_segment(d, depth, indices)
    exact = image.measure() == rect.volume()
    expected_cells = 1
    for k in rect.side_exponents:
        expected_cells <<= depth - k
    exact = exact and len(indices) == expected_cells
    return VerificationReport.from_statistic(
        "rect_measure", f"depth={depth} sides={rect.side_exponents}",
        0 if exact else 1, 0,
    )


def _bin_counts(indices: np.ndarray, grid_k: int, depth: int) -> np.ndarray:
    """Grid bin counts of inverse-mapped segment cell indices (d=2)."""
    coords = inverse_map_batch(indices, depth, 2)
    k = np.uint64(grid_k)
    bx = (coords[:, 0] * k) >> np.uint64(depth)
    by = (coords[:, 1] * k) >> np.uint64(depth)
    flat = (bx * k + by).astype(np.int64)
    return np.bincount(flat, minlength=grid_k * grid_k)


_CHUNK = 1 << 17


def monte_carlo_uniformity(sample_count: int, grid_k: int, seed: int,
                           depth: int | None = None,
                           confidence: float = 0.999,
                           _draw=None) -> VerificationReport:
    """Chi-squared uniformity audit of the inverse map on a k x k grid.

    Draws uniform segment scalars, inverts them into the square, bins the
    results and compares against the flat expectation.  Chunks derive
    their streams from the seed, never from scheduling order, so counts
    are reproducible under any partitioning.
    """
    if grid_k < 1:
        raise RangeError("grid must be at least 1x1")
    if sample_count < 100 * grid_k * grid_k:
        raise RangeError(
            f"need at least {100 * grid_k * grid_k} samples for a "
            f"{grid_k}x{grid_k} grid"
        )
    if depth is None:
        depth = max(8, (grid_k - 1).bit_length())
    if 2 * depth > 63:
        raise RangeError("2*depth must be <= 63")
    if (1 << depth) < grid_k:
        raise RangeError("depth too small to resolve the grid")

    nbins = grid_k * grid_k
    counts = np.zeros(nbins, dtype=np.int64)
    nchunks = (sample_count + _CHUNK - 1) // _CHUNK
    children = np.random.SeedSequence(seed).spawn(nchunks)
    remaining = sample_count
    for child in children:
        size = min(_CHUNK, remaining)
        remaining -= size
        rng = np.random.default_rng(child)
        if _draw is not None:
            q = _draw(rng, size, depth)
        else:
            q = rng.integers(0, 1 << (2 * depth), size=size, dtype=np.uint64)
        counts += _bin_counts(np.asarray(q, dtype=np.uint64), grid_k, depth)

    if nbins == 1:
        return VerificationReport.from_statistic(
            "uniformity", f"N={sample_count} grid=1x1", 0.0, 0.0, seed)
    expected = np.full(nbins, sample_count / nbins)
    stat, dof = chi_squared(counts, expected)
    threshold = chi2_threshold(dof, confidence)
    return VerificationReport.from_statistic(
        "uniformity", f"N={sample_count} grid={grid_k}x{grid_k} depth={depth}",
        stat, threshold, seed)
