"""Command-line front door: map, unmap, verify, sample.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
Exact values are printed as rational text (`m/2^p`, `q/4^n`); decimals
appear only as annotations.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

import numpy as np

from . import curve, measure
from .dyadic import (
    CubePoint,
    DyadicRect,
    PrecisionError,
    RangeError,
    UnitScalar,
    format_scalar,
    parse_scalar,
)
from .measure import CellUnion, VerificationReport, pushforward
from .sampling import DistributionSpec, SpecValidationError, sample_independent

VERIFY_DEPTH = 6
# cells * d bound of the exhaustive suites, checked before any allocation.
# They stream the corners in blocks of curve.BLOCK cells; what grows with
# the cell count is the one-byte-per-cell `seen` array of `cells`, 16 MiB
# at the bound (d=1 depth=24), where a suite peaks below 50 MiB RSS
MAX_CELL_COORDS = 1 << 24


def _dimension(text):
    d = int(text)
    if not 1 <= d <= curve.MAX_DIMENSION:
        raise argparse.ArgumentTypeError(
            f"dimension must be in 1..{curve.MAX_DIMENSION}, got {d}")
    return d


def _depth(text):
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"depth must be >= 0, got {n}")
    return n


# argparse names a type that fails int() in "invalid int value: ..."
_dimension.__name__ = _depth.__name__ = "int"


def _parse_point(tokens, dimension, depth) -> CubePoint:
    if len(tokens) != dimension:
        raise ValueError(
            f"expected {dimension} coordinates, got {len(tokens)}"
        )
    coords = [parse_scalar(t) for t in tokens]
    precision = max(max(c.precision for c in coords), depth)
    return CubePoint(tuple(c.refine(precision) for c in coords))


def _parse_segment_value(text, dimension) -> UnitScalar:
    try:
        return curve.parse_interval(text, dimension).left()
    except ValueError as exc:
        try:
            return parse_scalar(text)
        except RangeError:
            raise  # an m/2^p or binary value out of range
        except ValueError:
            raise exc from None


def _cmd_map(args) -> int:
    pt = _parse_point(args.coords, args.dimension, args.depth)
    t = curve.forward_map(pt, args.depth)
    base = 1 << args.dimension
    print(f"{t.mantissa}/{base}^{args.depth} ({float(t)!r})")
    return 0


def _cmd_unmap(args) -> int:
    t = _parse_segment_value(args.value, args.dimension)
    t = t.refine(max(t.precision, args.dimension * args.depth))
    pt = curve.inverse_map(t, args.depth, args.dimension)
    exact = " ".join(format_scalar(c) for c in pt.coords)
    approx = " ".join(repr(float(c)) for c in pt.coords)
    print(f"{exact} ({approx})")
    return 0


def _corner_blocks(d, depth):
    """Lower corners of every depth-n cube cell, in segment order, as int64
    arrays of up to curve.BLOCK cells each, computed as they are read.

    The batch kernel's limits and the cell bound are checked at the call,
    before anything is allocated.
    """
    curve._check_batch(depth, d)
    if d << (d * depth) > MAX_CELL_COORDS:
        raise RangeError(
            f"d={d} depth={depth} has 2^{d * depth} cells of {d} coordinates; "
            f"exhaustive suites take cells * d <= 2^{MAX_CELL_COORDS.bit_length() - 1}")
    total = 1 << (d * depth)
    return (curve.inverse_map_batch(
                np.arange(lo, min(lo + curve.BLOCK, total), dtype=np.uint64),
                depth, d).astype(np.int64)
            for lo in range(0, total, curve.BLOCK))


def _suite_cells(d, depth, args):
    # Corners lie on the 2^depth grid, which has exactly as many points as
    # there are segment cells, so distinct corners make the map a bijection
    # between equal-measure cells.
    blocks = _corner_blocks(d, depth)  # checks the bound before `seen`
    seen = np.zeros(1 << (d * depth), dtype=bool)
    for corners in blocks:
        seen[np.ravel_multi_index(corners.T, (1 << depth,) * d)] = True
    collisions = len(seen) - np.count_nonzero(seen)
    yield VerificationReport.from_statistic(
        "cells", f"exhaustive d={d} depth={depth}", collisions, 0)


def _suite_adjacency(d, depth, args):
    # the last corner of each block is carried into the next block's check
    violations, last = 0, None
    for corners in _corner_blocks(d, depth):
        if last is not None:
            violations += int(np.abs(corners[0] - last).sum() != 1)
        diff = np.abs(np.diff(corners, axis=0))
        violations += int(np.count_nonzero(diff.sum(axis=1) != 1))
        last = corners[-1]
    yield VerificationReport.from_statistic(
        "adjacency", f"exhaustive d={d} depth={depth}", violations, 0)


def _suite_roundtrip(d, depth, args, trials=1000):
    rng = random.Random(args.seed)
    bits = d * depth
    failures = 0
    for _ in range(trials):
        t = UnitScalar(rng.getrandbits(bits), bits)
        if curve.forward_map(curve.inverse_map(t, depth, d), depth) != t:
            failures += 1
    yield VerificationReport.from_statistic(
        "roundtrip", f"random d={d} depth={depth} trials={trials}",
        failures, 0, args.seed)


def _suite_measure(d, depth, args, unions=200):
    rng = random.Random(args.seed)
    total = 1 << (d * depth)
    failures = 0
    for _ in range(unions):
        count = rng.randint(0, min(total, 64))
        cu = CellUnion(measure.CUBE, d, depth,
                       frozenset(rng.randrange(total) for _ in range(count)))
        if pushforward(cu).measure() != cu.measure():
            failures += 1
    yield VerificationReport.from_statistic(
        "measure-unions", f"random d={d} depth={depth} unions={unions}",
        failures, 0, args.seed)
    if d == 2:
        half = DyadicRect(
            CubePoint((UnitScalar(0, 1), UnitScalar(0, 1))), (1, 0))
        yield measure.rect_measure_check(half, min(depth, 6))


def _suite_uniformity(d, depth, args):
    # the audit bins the 2-D map at a depth chosen from -k
    if d != 2 or args.depth is not None:
        raise ValueError("verify uniformity audits d=2 at its own depth; "
                         "it takes no -n and no -d other than 2")
    yield measure.monte_carlo_uniformity(args.samples, args.grid, args.seed)


SUITES = {"cells": _suite_cells, "adjacency": _suite_adjacency,
          "roundtrip": _suite_roundtrip, "measure": _suite_measure,
          "uniformity": _suite_uniformity}
# verify flags only some suites take: dest -> (flag, default, those suites)
SUITE_FLAGS = {"samples": ("-N/--samples", 1_000_000, ("uniformity",)),
               "grid": ("-k/--grid", 16, ("uniformity",)),
               "seed": ("--seed", 0, ("roundtrip", "measure", "uniformity"))}


def _cmd_verify(args) -> int:
    for dest, (flag, default, suites) in SUITE_FLAGS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif args.suite not in suites:
            raise ValueError(f"verify {args.suite} takes no {flag}")
    depth = VERIFY_DEPTH if args.depth is None else args.depth
    # a suite that raises part way prints no record
    reports = list(SUITES[args.suite](args.dimension, depth, args))
    for report in reports:
        print(report.to_json())
    return 0 if all(report.passed for report in reports) else 1


def _load_specs(path):
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and "distributions" in doc:
        entries = doc["distributions"]
        if not isinstance(entries, list):
            raise SpecValidationError("distributions", "expected a list")
    elif isinstance(doc, list):
        entries = doc
    else:
        entries = [doc]
    return [DistributionSpec.from_dict(e, name=f"coord{i + 1}")
            for i, e in enumerate(entries)]


def _cmd_sample(args) -> int:
    specs = _load_specs(args.spec)
    batch = sample_independent(args.seed, args.draws, specs, depth=args.depth)
    if args.output:
        with open(args.output, "w", newline="") as fh:
            batch.write_csv(fh)
    else:
        batch.write_csv(sys.stdout)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubefold",
        description="Measure-preserving folding of the unit cube onto the "
                    "unit segment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cell_command(name, handler, help, depth=1, depth_help=None):
        """A subcommand taking -d and -n, run by `handler`."""
        p = sub.add_parser(name, help=help)
        p.add_argument("-d", "--dimension", type=_dimension, default=2)
        p.add_argument("-n", "--depth", type=_depth, default=depth,
                       help=depth_help)
        p.set_defaults(handler=handler)
        return p

    p_map = cell_command("map", _cmd_map, "map a cube point to the segment")
    p_map.add_argument("coords", nargs="+",
                       help="d coordinates, each m/2^p or 0b0.bits")
    p_unmap = cell_command("unmap", _cmd_unmap, "map a segment value to the cube")
    p_unmap.add_argument("value", help="segment value, q/4^n or m/2^p")
    p_verify = cell_command(
        "verify", _cmd_verify, "run a verification suite", None,
        f"cell depth (default {VERIFY_DEPTH}); not taken by uniformity")
    p_verify.add_argument("suite", choices=SUITES)
    for dest, (flag, default, suites) in SUITE_FLAGS.items():
        p_verify.add_argument(*flag.split("/"), dest=dest, type=int, help=(
            f"default {default}; taken by {', '.join(suites)} only"))

    p_sample = sub.add_parser("sample", help="draw variates from a spec file")
    p_sample.add_argument("--spec", required=True, help="JSON distribution file")
    p_sample.add_argument("-N", "--draws", type=int, default=100)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--depth", type=int, default=None)
    p_sample.add_argument("-o", "--output", default=None,
                          help="CSV output path (default stdout)")
    p_sample.set_defaults(handler=_cmd_sample)
    return parser


# built once per process; parse_args leaves it unchanged
PARSER = _build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return args.handler(args)
    except (SpecValidationError, PrecisionError, RangeError, ValueError,
            OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
