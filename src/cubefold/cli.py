"""Command-line front door: map, unmap, verify, sample.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
Exact values are printed as rational text (`m/2^p`, `q/4^n`); decimals
appear only as annotations.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from dataclasses import dataclass

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

PRECISION_ENV = "CUBEFOLD_PRECISION"
SUITES = ("cells", "adjacency", "roundtrip", "measure", "uniformity")
VERIFY_DEPTH = 6


@dataclass
class RunConfig:
    """Resolved invocation settings shared by the command handlers."""

    command: str
    dimension: int = 2
    depth: int | None = 1
    precision: int = 64
    seed: int = 0
    sample_count: int = 0
    grid_size: int = 16
    input_path: str | None = None
    output_path: str | None = None
    output_format: str = "csv"

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        cfg = cls(command=args.command, precision=_default_precision())
        for field, attr in (("dimension", "dimension"), ("depth", "depth"),
                            ("seed", "seed"), ("sample_count", "samples"),
                            ("sample_count", "draws"), ("grid_size", "grid"),
                            ("input_path", "spec"), ("output_path", "output")):
            if hasattr(args, attr):
                setattr(cfg, field, getattr(args, attr))
        if cfg.command in ("map", "unmap"):
            cfg.precision = max(cfg.precision, cfg.dimension * cfg.depth)
        return cfg


def _default_precision() -> int:
    return int(os.environ.get(PRECISION_ENV, "64"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubefold",
        description="Measure-preserving folding of the unit cube onto the "
                    "unit segment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="map a cube point to the segment")
    p_map.add_argument("-d", "--dimension", type=int, default=2)
    p_map.add_argument("-n", "--depth", type=int, default=1)
    p_map.add_argument("coords", nargs="+",
                       help="d coordinates, each m/2^p or 0b0.bits")

    p_unmap = sub.add_parser("unmap", help="map a segment value to the cube")
    p_unmap.add_argument("-d", "--dimension", type=int, default=2)
    p_unmap.add_argument("-n", "--depth", type=int, default=1)
    p_unmap.add_argument("value", help="segment value, q/4^n or m/2^p")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("-d", "--dimension", type=int, default=2)
    p_verify.add_argument("-n", "--depth", type=int, default=None,
                          help=f"cell depth (default {VERIFY_DEPTH}); not "
                               "taken by uniformity")
    p_verify.add_argument("-N", "--samples", type=int, default=1_000_000)
    p_verify.add_argument("-k", "--grid", type=int, default=16)
    p_verify.add_argument("--seed", type=int, default=0)

    p_sample = sub.add_parser("sample", help="draw variates from a spec file")
    p_sample.add_argument("--spec", required=True, help="JSON distribution file")
    p_sample.add_argument("-N", "--draws", type=int, default=100)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--depth", type=int, default=None)
    p_sample.add_argument("-o", "--output", default=None,
                          help="CSV output path (default stdout)")
    return parser


def _parse_point(tokens, dimension, depth) -> CubePoint:
    if len(tokens) != dimension:
        raise ValueError(
            f"expected {dimension} coordinates, got {len(tokens)}"
        )
    coords = [parse_scalar(t) for t in tokens]
    floor = depth
    if PRECISION_ENV in os.environ:
        floor = max(floor, _default_precision())
    precision = max(max(c.precision for c in coords), floor)
    return CubePoint(tuple(c.refine(precision) for c in coords))


def _parse_segment_value(text, dimension, depth) -> UnitScalar:
    try:
        iv = curve.parse_interval(text, dimension)
        return iv.left()
    except ValueError:
        pass
    return parse_scalar(text)


def _cmd_map(cfg: RunConfig, args) -> int:
    pt = _parse_point(args.coords, cfg.dimension, cfg.depth)
    if pt.precision < cfg.precision:
        pt = pt.refine(cfg.precision)
    t = curve.forward_map(pt, cfg.depth)
    base = 1 << cfg.dimension
    print(f"{t.mantissa}/{base}^{cfg.depth} ({float(t)!r})")
    return 0


def _cmd_unmap(cfg: RunConfig, args) -> int:
    t = _parse_segment_value(args.value, cfg.dimension, cfg.depth)
    bits = cfg.dimension * cfg.depth
    if t.precision < bits:
        t = t.refine(bits)
    pt = curve.inverse_map(t, cfg.depth, cfg.dimension)
    exact = " ".join(format_scalar(c) for c in pt.coords)
    approx = " ".join(repr(float(c)) for c in pt.coords)
    print(f"{exact} ({approx})")
    return 0


def _suite_cells(d, depth, seed):
    failures = 0
    base = 1 << d
    for q in range(base ** depth):
        iv = curve.SegmentInterval(d, depth, q)
        addr = curve.interval_to_address(iv)
        if curve.address_to_interval(addr).index != q:
            failures += 1
            continue
        rect = curve.address_to_rect(addr)
        if rect.volume() != iv.length():
            failures += 1
    yield VerificationReport.from_statistic(
        "cells", f"exhaustive d={d} depth={depth}", failures, 0)


def _suite_adjacency(d, depth, seed):
    base = 1 << d
    idx = np.arange(base ** depth, dtype=np.uint64)
    corners = curve.inverse_map_batch(idx, depth, d).astype(np.int64)
    diff = np.abs(np.diff(corners, axis=0))
    violations = int(np.count_nonzero(diff.sum(axis=1) != 1))
    yield VerificationReport.from_statistic(
        "adjacency", f"exhaustive d={d} depth={depth}", violations, 0)


def _suite_roundtrip(d, depth, seed, trials=1000):
    rng = random.Random(seed)
    bits = d * depth
    failures = 0
    for _ in range(trials):
        t = UnitScalar(rng.getrandbits(bits), bits)
        pt = curve.inverse_map(t, depth, d)
        cell = curve.interval_to_address(
            curve.SegmentInterval(d, depth, t.mantissa))
        if curve.point_to_address(pt, depth) != cell:
            failures += 1
        if curve.forward_map(pt, depth) != UnitScalar(t.mantissa, bits):
            failures += 1
    yield VerificationReport.from_statistic(
        "roundtrip", f"random d={d} depth={depth} trials={trials}",
        failures, 0, seed)


def _suite_measure(d, depth, seed, unions=200):
    rng = random.Random(seed)
    base = 1 << d
    total = base ** depth
    failures = 0
    for _ in range(unions):
        count = rng.randint(0, min(total, 64))
        digits = set()
        for _ in range(count):
            q = rng.randrange(total)
            digits.add(curve.interval_to_address(
                curve.SegmentInterval(d, depth, q)).digits)
        cu = CellUnion.of_cube(d, depth, digits)
        image = pushforward(cu)
        if image.measure() != cu.measure():
            failures += 1
    yield VerificationReport.from_statistic(
        "measure-unions", f"random d={d} depth={depth} unions={unions}",
        failures, 0, seed)
    if d == 2:
        half = DyadicRect(
            CubePoint((UnitScalar(0, 1), UnitScalar(0, 1))), (1, 0))
        yield measure.rect_measure_check(half, min(depth, 6))


def _suite_uniformity(cfg):
    yield measure.monte_carlo_uniformity(cfg.sample_count, cfg.grid_size,
                                         cfg.seed)


def _cmd_verify(cfg: RunConfig, args) -> int:
    if args.suite == "uniformity":
        # the audit bins the 2-D map at a depth chosen from -k
        if cfg.dimension != 2 or cfg.depth is not None:
            raise ValueError("verify uniformity audits d=2 at its own depth; "
                             "it takes no -n and no -d other than 2")
        reports = _suite_uniformity(cfg)
    else:
        depth = VERIFY_DEPTH if cfg.depth is None else cfg.depth
        suite = {"cells": _suite_cells, "adjacency": _suite_adjacency,
                 "roundtrip": _suite_roundtrip,
                 "measure": _suite_measure}[args.suite]
        reports = suite(cfg.dimension, depth, cfg.seed)
    all_pass = True
    for report in reports:
        print(report.to_json())
        all_pass = all_pass and report.passed
    return 0 if all_pass else 1


def _load_specs(path):
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and "distributions" in doc:
        entries = doc["distributions"]
    elif isinstance(doc, list):
        entries = doc
    else:
        entries = [doc]
    return [DistributionSpec.from_dict(e, name=f"coord{i + 1}")
            for i, e in enumerate(entries)]


def _cmd_sample(cfg: RunConfig, args) -> int:
    specs = _load_specs(cfg.input_path)
    batch = sample_independent(cfg.seed, cfg.sample_count, specs,
                               depth=args.depth)
    if cfg.output_path:
        with open(cfg.output_path, "w", newline="") as fh:
            batch.write_csv(fh)
    else:
        batch.write_csv(sys.stdout)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.from_args(args)
        if args.command == "map":
            return _cmd_map(cfg, args)
        if args.command == "unmap":
            return _cmd_unmap(cfg, args)
        if args.command == "verify":
            return _cmd_verify(cfg, args)
        if args.command == "sample":
            return _cmd_sample(cfg, args)
    except (SpecValidationError, PrecisionError, RangeError, ValueError,
            OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
