"""Independent variates with prescribed CDFs from a single uniform draw.

One uniform scalar is split through the segment-to-cube inverse map into
n coordinates, each fed to the generalized inverse of its target CDF.
The quantile is the supremum form sup{t : F(t) < u}, taken literally;
CDFs are atoms plus affine pieces with rational parameters, so the
quantile is exact wherever the inputs are.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .curve import MAX_DIMENSION, inverse_map, inverse_map_batch
from .dyadic import CubePoint, PrecisionError, RangeError, UnitScalar


class SpecValidationError(ValueError):
    """Invalid distribution description; `field` names the offender."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _as_fraction(value, field: str) -> Fraction:
    try:
        if isinstance(value, str):
            return Fraction(value)
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise SpecValidationError(field, f"not an exact number: {value!r}") from exc


@dataclass(frozen=True)
class Atom:
    at: Fraction
    mass: Fraction


@dataclass(frozen=True)
class LinearPiece:
    lo: Fraction
    hi: Fraction
    cdf_lo: Fraction
    cdf_hi: Fraction


class DistributionSpec:
    """CDF given as point masses plus affine pieces of its graph.

    The elements must tile the CDF completely: walking them in location
    order, the running value starts at 0, each piece starts where the
    previous element left off, and the final value is exactly 1.
    """

    def __init__(self, atoms=(), pieces=(), name: str = ""):
        self.name = name
        self.atoms = tuple(
            Atom(_as_fraction(a[0], "at"), _as_fraction(a[1], "mass"))
            if not isinstance(a, Atom) else a
            for a in atoms
        )
        self.pieces = tuple(
            LinearPiece(*(_as_fraction(v, f) for v, f in
                          zip(p, ("from", "to", "cdf_from", "cdf_to"))))
            if not isinstance(p, LinearPiece) else p
            for p in pieces
        )
        self._events = self._validate()
        locations = [e[1] for e in self._events] + \
                    [e[2] for e in self._events if e[0] == "piece"]
        self.support_lo = min(locations)
        self.support_hi = max(locations)
        self._tables = None

    def _validate(self):
        for a in self.atoms:
            if a.mass <= 0:
                raise SpecValidationError("mass", f"atom mass {a.mass} must be positive")
        for p in self.pieces:
            if p.hi <= p.lo:
                raise SpecValidationError("to", f"piece [{p.lo}, {p.hi}] is empty")
            if p.cdf_hi < p.cdf_lo:
                raise SpecValidationError("cdf_to", "CDF must be non-decreasing")
        items = sorted(
            [("atom", a.at, a) for a in self.atoms] +
            [("piece", p.lo, p) for p in self.pieces],
            key=lambda it: (it[1], it[0] != "atom"),
        )
        if not items:
            raise SpecValidationError("atoms", "distribution has no elements")
        events = []
        running = Fraction(0)
        pos = None  # end of the last piece seen
        for kind, loc, obj in items:
            if pos is not None and loc < pos:
                raise SpecValidationError(
                    "at" if kind == "atom" else "from",
                    f"element at {loc} overlaps a piece ending at {pos}",
                )
            if kind == "atom":
                events.append(("atom", obj.at, obj.at, running, running + obj.mass))
                running += obj.mass
            else:
                if obj.cdf_lo != running:
                    raise SpecValidationError(
                        "cdf_from",
                        f"piece starting at {loc} declares CDF {obj.cdf_lo}, "
                        f"running value is {running}",
                    )
                events.append(("piece", obj.lo, obj.hi, obj.cdf_lo, obj.cdf_hi))
                running = obj.cdf_hi
                pos = obj.hi
        if running != 1:
            raise SpecValidationError(
                "mass-sum",
                f"atom masses plus piece increments sum to {running}, expected 1",
            )
        return events

    def cdf(self, t) -> Fraction:
        """F(t), right-continuous at atoms."""
        t = Fraction(t)
        value = Fraction(0)
        for kind, lo, hi, f_lo, f_hi in self._events:
            if kind == "atom":
                if lo <= t:
                    value = f_hi
            else:
                if t >= hi:
                    value = f_hi
                elif t > lo:
                    value = f_lo + (f_hi - f_lo) * (t - lo) / (hi - lo)
        return value

    def quantile(self, u) -> Fraction:
        """sup{t : F(t) < u} for u in (0, 1), exact."""
        u = Fraction(u)
        if not 0 < u < 1:
            raise RangeError(f"quantile argument must be in (0, 1), got {u}")
        for kind, lo, hi, f_lo, f_hi in self._events:
            if f_lo < u <= f_hi:
                if kind == "atom" or f_hi == f_lo:
                    return lo
                return lo + (u - f_lo) * (hi - lo) / (f_hi - f_lo)
        raise AssertionError("validated CDF must reach 1")  # pragma: no cover

    def _batch_tables(self):
        if self._tables is None:
            ev = self._events
            self._tables = (
                np.array([float(e[4]) for e in ev]),           # f_hi, sorted
                np.array([float(e[3]) for e in ev]),           # f_lo
                np.array([float(e[1]) for e in ev]),           # location
                np.array([0.0 if e[0] == "atom" or e[4] == e[3]
                          else float((e[2] - e[1]) / (e[4] - e[3]))
                          for e in ev]),                       # dt/dF
            )
        return self._tables

    def cell_elements(self, cells: np.ndarray, depth: int) -> np.ndarray:
        """Index of the CDF element holding each depth-n cell's midpoint.

        The midpoint of cell c is (2c + 1) / 2**(depth + 1); element i
        holds it iff it is the first with c <= c_i, where c_i is the
        largest c whose midpoint is <= F at the element's top.  The
        choice is exact in integers for uint64 cells, up to depth 64.
        """
        limits = [math.floor(e[4] * (1 << depth) - Fraction(1, 2))
                  for e in self._events]
        never = sum(1 for c in limits if c < 0)
        bounds = np.array(limits[never:], dtype=np.uint64)
        return np.searchsorted(bounds, cells, side="left") + never

    def quantile_batch(self, u: np.ndarray,
                       element: np.ndarray | None = None) -> np.ndarray:
        """Float counterpart of `quantile`, vectorized over u in (0, 1).

        `element` names the CDF element each u falls in, when the caller
        has chosen it exactly (see `cell_elements`); otherwise it is found
        by comparing u with the float CDF values, and u must lie in (0, 1).
        """
        f_hi, f_lo, loc, slope = self._batch_tables()
        u = np.asarray(u, dtype=float)
        if element is None:
            if np.any(u <= 0) or np.any(u >= 1):
                raise RangeError("quantile arguments must be in (0, 1)")
            element = np.searchsorted(f_hi, u, side="left")
        return loc[element] + (u - f_lo[element]) * slope[element]

    @classmethod
    def from_dict(cls, doc: dict, name: str = "") -> "DistributionSpec":
        if not isinstance(doc, dict):
            raise SpecValidationError("distribution", "expected an object")
        atoms = [(a.get("at"), a.get("mass")) for a in doc.get("atoms", [])]
        pieces = [(p.get("from"), p.get("to"), p.get("cdf_from"), p.get("cdf_to"))
                  for p in doc.get("pieces", [])]
        return cls(atoms, pieces, name=doc.get("name", name))

    def to_dict(self) -> dict:
        doc = {"atoms": [{"at": str(a.at), "mass": str(a.mass)}
                         for a in self.atoms],
               "pieces": [{"from": str(p.lo), "to": str(p.hi),
                           "cdf_from": str(p.cdf_lo), "cdf_to": str(p.cdf_hi)}
                          for p in self.pieces]}
        if self.name:
            doc["name"] = self.name
        return doc


def cdf_eval(spec: DistributionSpec, t) -> Fraction:
    return spec.cdf(t)


def quantile(spec: DistributionSpec, u) -> Fraction:
    return spec.quantile(u)


def split_uniform(u: UnitScalar, n: int, depth: int) -> CubePoint:
    """Split one uniform scalar into n coordinates via the inverse map."""
    if not 1 <= n <= MAX_DIMENSION:
        raise RangeError(f"coordinate count must be in 1..{MAX_DIMENSION}")
    if u.precision < n * depth:
        raise PrecisionError(
            f"need {n * depth} bits of precision, scalar has {u.precision}"
        )
    return inverse_map(u, depth, n)


@dataclass(frozen=True)
class SampleBatch:
    """Per-coordinate sample columns plus the provenance to rebuild them."""

    samples: np.ndarray  # shape (count, n)
    seed: int
    depth: int
    specs: tuple[DistributionSpec, ...]

    def __post_init__(self):
        if self.samples.ndim != 2 or self.samples.shape[1] != len(self.specs):
            raise RangeError("one sample column per distribution required")

    def column_names(self):
        return [s.name or f"coord{i + 1}" for i, s in enumerate(self.specs)]

    def write_csv(self, fileobj):
        writer = csv.writer(fileobj)
        writer.writerow(self.column_names())
        for row in self.samples:
            writer.writerow([repr(float(v)) for v in row])


_CHUNK = 1 << 15


def _draw_bits(rng: np.random.Generator, nbits: int, size: int) -> np.ndarray:
    """`size` uniform nbits-wide integers, composed from 32-bit words."""
    words = (nbits + 31) // 32
    acc = np.zeros(size, dtype=np.uint64)
    for _ in range(words):
        acc = (acc << np.uint64(32)) | rng.integers(
            0, 1 << 32, size=size, dtype=np.uint64)
    return acc >> np.uint64(32 * words - nbits)


def sample_independent(seed: int, count: int, specs, depth: int | None = None) -> SampleBatch:
    """Draw `count` rows of n independent variates from one uniform each.

    Per draw: one n*depth-bit uniform scalar is split into n coordinates
    and each coordinate is pushed through its spec's quantile, evaluated
    at the open-cell midpoint so the argument stays inside (0, 1).  The
    CDF element is chosen from the integer cell; only the interpolation
    inside it is float, so a midpoint that rounds to 1.0 is still valid.
    Chunk streams derive from the seed by counter, not scheduling order.
    """
    specs = tuple(specs)
    n = len(specs)
    if not 1 <= n <= MAX_DIMENSION:
        raise RangeError(f"need 1..{MAX_DIMENSION} distributions, got {n}")
    if count < 0:
        raise RangeError("count must be >= 0")
    if depth is None:
        depth = 64 // n
    if n * depth > 64:
        raise PrecisionError(
            f"{n}*{depth} bits per draw exceeds the 64-bit uniform source"
        )
    if depth < 1:
        raise RangeError("depth must be >= 1")

    half_cell = 0.5 ** (depth + 1)
    scale = 0.5 ** depth
    out = np.empty((count, n), dtype=float)
    nchunks = (count + _CHUNK - 1) // _CHUNK
    children = np.random.SeedSequence(seed).spawn(max(nchunks, 1))
    start = 0
    for child in children[:nchunks]:
        size = min(_CHUNK, count - start)
        rng = np.random.default_rng(child)
        q = _draw_bits(rng, n * depth, size)
        coords = inverse_map_batch(q, depth, n)
        for axis, spec in enumerate(specs):
            cells = coords[:, axis]
            u = cells.astype(float) * scale + half_cell
            out[start:start + size, axis] = spec.quantile_batch(
                u, spec.cell_elements(cells, depth))
        start += size
    return SampleBatch(out, seed, depth, specs)
