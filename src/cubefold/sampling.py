"""Independent variates with prescribed CDFs from a single uniform draw.

One uniform scalar is split through the segment-to-cube inverse map into
n coordinates, each fed to the generalized inverse of its target CDF.
The quantile is the supremum form sup{t : F(t) < u}, taken literally;
CDFs are atoms plus affine pieces with rational parameters, so the
quantile is exact wherever the inputs are.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from functools import cached_property

import numpy as np

from ._shortest import repr_bytes
from .curve import MAX_DIMENSION, inverse_map, inverse_map_batch
from .dyadic import CubePoint, PrecisionError, RangeError, UnitScalar, _integer, echo


class SpecValidationError(ValueError):
    """Invalid distribution description; `field` names the offender.

    Each `{}` of `message` shows `echo` of the next of `values`, the field its own."""

    def __init__(self, field: str, message: str, *values):
        super().__init__(f"{echo(field)}: " + message.format(*map(echo, values)))
        self.field = field


# a decimal's digits stand at places 10**e, |e| <= this; Fraction writes them out
MAX_EXPONENT = 999


# A number str is ASCII digits with an optional sign and either one "/"
# or a decimal point and an exponent, each optional: no whitespace, "_" or
# other digits, which Decimal and Fraction read on some Python versions
# and not on others.
_SPELLING = re.compile(r"[+-]?([0-9]+/[0-9]+|([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?)")


def _as_fraction(value, field: str) -> Fraction:
    """A number's exact value; a str or JSON number reads as its decimal."""
    number = None if isinstance(value, bool) else value  # Fraction(True) is 1
    if isinstance(value, str) and not _SPELLING.fullmatch(value):
        number = None
    elif isinstance(value, str) and "/" not in value:
        try:
            number = Decimal(value)
        except InvalidOperation:  # too large for Decimal
            number = None
    if isinstance(number, Decimal) and number.is_finite():
        low = number.as_tuple().exponent  # the place of its last digit
        place = low if low < -MAX_EXPONENT else number.adjusted()  # or first
        if abs(place) > MAX_EXPONENT:
            raise SpecValidationError(field, "decimal exponent {} is outside "
                                      f"-{MAX_EXPONENT}..{MAX_EXPONENT}", place)
    try:
        return Fraction(number)
    except (ValueError, ZeroDivisionError, TypeError, OverflowError):
        raise SpecValidationError(field, "not an exact number: {}", repr(value)) from None


def _as_float(value: Fraction, field: str) -> float:
    try:
        return float(value)
    except OverflowError as exc:
        raise SpecValidationError(field, "{} does not fit a float64", value) from exc


# The spec format: each list a distribution object holds (also the name of
# the constructor's argument for it) and the fields of its objects, in the
# order of the constructor's rows.
SPEC_FIELDS = {"atoms": ("at", "mass"),
               "pieces": ("from", "to", "cdf_from", "cdf_to")}
AT, MASS = SPEC_FIELDS["atoms"]
FROM, TO, CDF_FROM, CDF_TO = SPEC_FIELDS["pieces"]


def _row(row, key: str, fields) -> tuple:
    """A row of the constructor's list `key`, one exact number per field."""
    row = tuple(row)
    if len(row) != len(fields):
        raise SpecValidationError(key, "expected {} values per row, got {}",
                                  len(fields), len(row))
    return tuple(map(_as_fraction, row, fields))


def _object(value, field: str, keys) -> dict:
    """value, which must be a JSON object holding no key outside `keys`."""
    if not isinstance(value, dict):
        raise SpecValidationError(field, "expected an object")
    for key in value:
        if key not in keys:
            raise SpecValidationError(
                key, f"unknown key in {field}; expected one of {', '.join(keys)}")
    return value


def _list(value, field: str) -> list:
    if not isinstance(value, list):
        raise SpecValidationError(field, "expected a list")
    return value


class DistributionSpec:
    """CDF given as point masses plus affine pieces of its graph.

    The elements must tile the CDF completely: walking them in location
    order, the running value starts at 0, each piece starts where the
    previous element left off, and the final value is exactly 1.  The
    law is kept once, as the validated elements in (lo, hi) order, each
    (lo, hi, F below, F at top): an atom is the element with lo == hi,
    and every piece has lo < hi.
    """

    def __init__(self, atoms=(), pieces=(), name: str = ""):
        if not isinstance(name, str):
            raise SpecValidationError("name", "expected a string, got {}", repr(name))
        self.name = name
        atoms, pieces = ([_row(row, key, fields) for row in rows]
                         for rows, (key, fields) in zip((atoms, pieces), SPEC_FIELDS.items()))
        self._elements = self._validate(atoms, pieces)

    @staticmethod
    def _validate(atoms, pieces):
        """Elements from (at, mass) atoms and (lo, hi, F(lo), F(hi)) pieces."""
        for _, mass in atoms:
            if mass <= 0:
                raise SpecValidationError(MASS, "atom mass {} must be positive", mass)
        for lo, hi, cdf_lo, cdf_hi in pieces:
            if hi <= lo:
                raise SpecValidationError(TO, "piece [{}, {}] is empty", lo, hi)
            if cdf_hi < cdf_lo:
                raise SpecValidationError(CDF_TO, "CDF must be non-decreasing")
        # an atom enters as (at, at, 0, mass) and takes its F from the walk
        items = sorted([(at, at, 0, mass) for at, mass in atoms] + pieces,
                       key=lambda e: e[:2])
        if not items:
            raise SpecValidationError("atoms", "distribution has no elements")
        elements = []
        running, pos = Fraction(0), items[0][0]  # pos: top of the last element
        for lo, hi, f_lo, f_hi in items:
            if lo < pos:
                raise SpecValidationError(AT if lo == hi else FROM, "element at {} "
                                          "overlaps a piece ending at {}", lo, pos)
            if lo == hi:
                f_lo, f_hi = running, running + f_hi
            elif f_lo != running:
                raise SpecValidationError(CDF_FROM, "piece starting at {} declares CDF "
                                          "{}, running value is {}", lo, f_lo, running)
            elements.append((lo, hi, f_lo, f_hi))
            running, pos = f_hi, hi
        if running != 1:
            raise SpecValidationError("mass-sum", "atom masses plus piece increments "
                                      "sum to {}, expected 1", running)
        return elements

    def cdf(self, t) -> Fraction:
        """F(t), right-continuous at atoms."""
        t = Fraction(t)
        value = Fraction(0)
        for lo, hi, f_lo, f_hi in self._elements:
            if t >= hi:
                value = f_hi
            elif t > lo:
                value = f_lo + (f_hi - f_lo) * (t - lo) / (hi - lo)
        return value

    def quantile(self, u) -> Fraction:
        """sup{t : F(t) < u} for u in (0, 1), exact."""
        try:
            u = Fraction(u)
        except (ValueError, OverflowError, ZeroDivisionError):  # NaN, inf, bad text
            pass
        if not (isinstance(u, Fraction) and 0 < u < 1):
            raise RangeError(f"quantile argument must be in (0, 1), got {echo(u)}")
        for lo, hi, f_lo, f_hi in self._elements:
            if f_lo < u <= f_hi:
                return lo + (u - f_lo) * (hi - lo) / (f_hi - f_lo)
        raise AssertionError("validated CDF must reach 1")  # pragma: no cover

    @cached_property
    def _batch_tables(self):
        el = self._elements
        # rounded down, a float u <= float top iff u <= the exact top
        tops = [float(e[3]) for e in el]
        tops = [math.nextafter(t, -1.0) if Fraction(t) > e[3] else t
                for t, e in zip(tops, el)]
        return (
            np.array(tops),                                # f_hi, sorted
            np.array([float(e[2]) for e in el]),           # f_lo
            np.array([_as_float(e[0], AT if e[0] == e[1] else FROM)
                      for e in el]),                       # location
            np.array([0.0 if e[3] == e[2]
                      else _as_float((e[1] - e[0]) / (e[3] - e[2]), TO)
                      for e in el]),                       # dt/dF
        )

    def cell_elements(self, cells: np.ndarray, depth: int) -> np.ndarray:
        """Index of the CDF element holding each depth-n cell's midpoint.

        The midpoint of cell c is (2c + 1) / 2**(depth + 1); element i
        holds it iff it is the first with c <= c_i, where c_i is the
        largest c whose midpoint is <= F at the element's top.  The
        choice is exact in integers for uint64 cells, up to depth 64.
        """
        limits = [math.floor(e[3] * (1 << depth) - Fraction(1, 2))
                  for e in self._elements]
        never = sum(1 for c in limits if c < 0)
        bounds = np.array(limits[never:], dtype=np.uint64)
        return np.searchsorted(bounds, cells, side="left") + never

    def quantile_batch(self, u: np.ndarray,
                       element: np.ndarray | None = None) -> np.ndarray:
        """Float counterpart of `quantile`, vectorized over u in (0, 1).

        `element` names the CDF element each u falls in, when the caller
        has chosen it exactly (see `cell_elements`); otherwise it is found,
        also exactly, from the CDF at the element tops rounded down to
        floats, and u must lie in (0, 1).
        """
        f_hi, f_lo, loc, slope = self._batch_tables
        u = np.asarray(u, dtype=float)
        if element is None:
            if not np.all((u > 0) & (u < 1)):  # NaN fails both
                raise RangeError("quantile arguments must be in (0, 1)")
            element = np.searchsorted(f_hi, u, side="left")
        return loc[element] + (u - f_lo[element]) * slope[element]

    @classmethod
    def from_dict(cls, doc: dict) -> "DistributionSpec":
        doc = _object(doc, "distribution", (*SPEC_FIELDS, "name"))
        rows = {key: [[_object(obj, key, fields).get(f) for f in fields]
                      for obj in _list(doc.get(key, []), key)]
                for key, fields in SPEC_FIELDS.items()}
        return cls(**rows, name=doc.get("name", ""))

    def to_dict(self) -> dict:
        doc = {key: [] for key in SPEC_FIELDS}
        for lo, hi, f_lo, f_hi in self._elements:
            key, row = (("atoms", (lo, f_hi - f_lo)) if lo == hi
                        else ("pieces", (lo, hi, f_lo, f_hi)))
            doc[key].append(dict(zip(SPEC_FIELDS[key], map(str, row))))
        if self.name:
            doc["name"] = self.name
        return doc


class _Number(Decimal):
    """A JSON number, exact; its repr is its text, so echoes show 5, not
    Decimal('5')."""

    __repr__ = Decimal.__str__


def _unique_keys(pairs) -> dict:
    """A JSON object's (key, value) pairs as a dict; a repeated key raises."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise SpecValidationError(key, "duplicate key")
        seen.add(key)
    return dict(pairs)


def load_specs(fileobj) -> list[DistributionSpec]:
    """A JSON spec file, {"distributions": [...]} or one distribution
    object; JSON numbers, integers too, read as the decimals they spell,
    and a key repeated in one object raises."""
    try:  # json.load and the repr of a value in an error both recurse
        doc = json.load(fileobj, parse_float=_Number, parse_int=_Number,
                        object_pairs_hook=_unique_keys)
        if isinstance(doc, dict) and "distributions" in doc:
            _object(doc, "spec file", ("distributions",))
            entries = _list(doc["distributions"], "distributions")
        else:
            entries = [doc]
        return [DistributionSpec.from_dict(e) for e in entries]
    except RecursionError:
        raise SpecValidationError("spec file", "nested too deeply") from None
    except InvalidOperation:  # from parse_float: an exponent beyond Decimal's
        raise SpecValidationError("spec file", "number out of range") from None


def split_uniform(u: UnitScalar, n: int, depth: int) -> CubePoint:
    """Split one uniform scalar into n coordinates via the inverse map."""
    return inverse_map(u, depth, n)


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Per-coordinate sample columns plus the provenance to rebuild them.

    Compared and hashed by identity, as `DistributionSpec` is: generated
    over the array, `==` and `hash` would raise."""

    samples: np.ndarray  # float64, shape (count, n)
    seed: int
    depth: int
    specs: tuple[DistributionSpec, ...]

    def __post_init__(self):
        if self.samples.ndim != 2 or self.samples.shape[1] != len(self.specs):
            raise RangeError("one sample column per distribution required")
        if self.samples.dtype != np.float64:
            raise RangeError(f"samples must be float64, got {self.samples.dtype}")

    def column_names(self):
        return [s.name or f"coord{i + 1}" for i, s in enumerate(self.specs)]

    def write_csv(self, fileobj):
        """Write a header and one CSV row per draw, rows ended by CRLF.

        Each value is its `repr`, which reads back bit-exactly, and the
        bytes are those `csv.writer` gives for the rows as Python floats.
        Rows go out in blocks of `_CHUNK`.  In each block every column's
        distinct bit patterns (bits keep 0.0 and -0.0 apart) are spelt at
        once by `_shortest.repr_bytes`: Schubfach's shortest round-trip
        digits in numpy, without the Java reference's `s >= 100` guard and
        tiny-subnormal rescale, which `repr` lacks, laid out by `repr`'s
        rules, with `repr` itself only the tests' oracle.  The texts are
        gathered into one byte matrix that holds the commas and CRLFs, and
        the block is one write once the pad bytes are dropped.
        """
        csv.writer(fileobj).writerow(self.column_names())
        bits = self.samples.view(np.uint64)
        for start in range(0, len(bits), _CHUNK):
            distinct, inverse = zip(*(np.unique(col, return_inverse=True)
                                      for col in bits[start:start + _CHUNK].T))
            text, lengths = repr_bytes(np.concatenate(distinct))
            firsts = np.cumsum([0, *map(len, distinct[:-1])])
            widths = np.maximum.reduceat(lengths, firsts)
            ends = np.cumsum(widths + 1)  # each field, then its separator
            lines = np.zeros((len(inverse[0]), ends[-1] + 1), dtype=np.uint8)
            lines[:, ends - 1] = ord(",")
            lines[:, -2:] = np.frombuffer(b"\r\n", dtype=np.uint8)
            for first, rows, end, width in zip(firsts, inverse, ends, widths):
                lines[:, end - 1 - width:end - 1] = np.take(
                    text, rows + first, axis=0)[:, :width]
            fileobj.write(lines[lines != 0].tobytes().decode("ascii"))


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
    Chunk i of `_CHUNK` rows draws from child i of the seed, spawned in turn.
    seed, count and depth are integers (`dyadic._integer`), and seed is >= 0.
    """
    specs = tuple(specs)
    n = len(specs)
    if not 1 <= n <= MAX_DIMENSION:
        raise RangeError(f"need 1..{MAX_DIMENSION} distributions, got {n}")
    count = _integer(count, "count", 0)
    seed = _integer(seed, "seed", 0)
    depth = _integer(64 // n if depth is None else depth, "depth", 1)
    if n * depth > 64:
        raise PrecisionError(
            f"{n}*{echo(depth)} bits per draw exceeds the 64-bit uniform source"
        )

    mask = np.uint64((1 << depth) - 1)
    half_cell = 0.5 ** (depth + 1)
    scale = 0.5 ** depth
    out = np.empty((count, n), dtype=float)
    streams = np.random.SeedSequence(seed)
    for start in range(0, count, _CHUNK):
        rows = out[start:start + _CHUNK]
        rng = np.random.default_rng(streams.spawn(1)[0])
        q = _draw_bits(rng, n * depth, len(rows))
        packed = inverse_map_batch(q, depth, n)
        for axis, spec in enumerate(specs):
            cells = (packed >> np.uint64(axis * depth)) & mask
            u = cells.astype(float) * scale + half_cell
            rows[:, axis] = spec.quantile_batch(u, spec.cell_elements(cells, depth))
    return SampleBatch(out, seed, depth, specs)
