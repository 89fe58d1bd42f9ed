"""Self-test of the benchmark's oracles; exit code 0 when both checks hold.

1. Corrupted outputs are flagged: one flipped CSV digit (in an atom value
   and in a piece value), one wrong `map` index, a wrong round trip, a
   nonzero exact statistic and a wrong audit seed.
2. Each oracle agrees with cubefold on a small exhaustive case: the
   Hilbert oracle on every depth-3 cell of the square, the round-trip
   oracle on every depth-2 cell of the cube (d=3), and the sampler
   lattice and bin masses on every depth-6 grid point of each law.
Also, the tracer replaces the by-name imports (`cli.sample_independent`,
`measure`'s and `sampling`'s `inverse_map_batch`) and puts them back.

    PYTHONPATH=src python3 cubebench/selftest.py
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import oracles  # noqa: E402
import workloads  # noqa: E402
from cubefold import cli, curve, measure, sampling  # noqa: E402
from cubefold.dyadic import CubePoint, UnitScalar  # noqa: E402
from cubefold.sampling import DistributionSpec  # noqa: E402
from tracing import Tracer  # noqa: E402


def _cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    return buf.getvalue(), rc


def _flip_digit(text: str, start: int) -> str:
    """Change the first decimal digit at or after `start`."""
    i = start
    while not text[i].isdigit():
        i += 1
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


def corrupted_outputs_are_flagged(tmpdir: str) -> list:
    failures = []

    def expect(name, clean, corrupted):
        if clean:
            failures.append(f"{name}: clean output flagged: {clean[:2]}")
        if not corrupted:
            failures.append(f"{name}: corruption not flagged")

    # CSV: real sampler output, then one digit flipped in row 1.
    spec = os.path.join(tmpdir, "spec3.json")
    with open(spec, "w") as fh:
        json.dump(workloads.spec_doc(3), fh)
    laws = [oracles.Law(d) for d in workloads.spec_doc(3)["distributions"]]
    out = os.path.join(tmpdir, "selftest.csv")
    draws = 4000
    _cli(["sample", "--spec", spec, "-N", str(draws), "--seed", "5", "-o", out])
    with open(out, "rb") as fh:
        data = fh.read().decode()
    row_start = data.index("\r\n") + 2
    row = data[row_start:data.index("\r\n", row_start)].split(",")
    mixed, pieces, atoms = row
    clean = oracles.check_sample_csv(data.encode(), laws, draws)
    # The fifth decimal of a piece value and the first decimal of an atom;
    # a flip below float resolution would leave the number unchanged.
    piece_at = row_start + len(mixed) + 1 + pieces.index(".") + 5
    atom_at = row_start + len(mixed) + len(pieces) + 2 + atoms.index(".") + 1
    expect("csv piece digit", clean, oracles.check_sample_csv(
        _flip_digit(data, piece_at).encode(), laws, draws))
    expect("csv atom digit", clean, oracles.check_sample_csv(
        _flip_digit(data, atom_at).encode(), laws, draws))

    # map d=2: the real index, then the index plus one.
    pt, precision, depth = [123456789012, 987654321098], 40, 32
    text, _ = _cli(["map", "-d", "2", "-n", str(depth)] +
                   [f"{m}/2^{precision}" for m in pt])
    q = int(text.split("/")[0])
    wrong = text.replace(f"{q}/", f"{q + 1}/", 1)
    wrong = wrong.replace(repr(q / 4.0 ** depth), repr((q + 1) / 4.0 ** depth))
    expect("map index", oracles.check_map_d2(pt, precision, depth, text),
           oracles.check_map_d2(pt, precision, depth, wrong))

    # d=3 round trip: unmap of the printed index, then of its neighbour.
    pt, precision, depth = [11111111, 22222222, 33333333], 29, 21
    mapped, _ = _cli(["map", "-d", "3", "-n", str(depth)] +
                     [f"{m}/2^{precision}" for m in pt])
    q = int(mapped.split("/")[0])
    back, _ = _cli(["unmap", "-d", "3", "-n", str(depth), f"{q}/8^{depth}"])
    off, _ = _cli(["unmap", "-d", "3", "-n", str(depth), f"{q ^ 1}/8^{depth}"])
    expect("round trip", oracles.check_roundtrip(pt, precision, 3, depth, mapped, back),
           oracles.check_roundtrip(pt, precision, 3, depth, mapped, off))

    # exact suite record with a nonzero statistic.
    text, _ = _cli(["verify", "cells", "-d", "2", "-n", "2"])
    record = json.loads(text)
    record.update(statistic=1.0, passed=False)
    expect("exact record", oracles.check_exact_records(text, [("cells", None)], 2, 2),
           oracles.check_exact_records(json.dumps(record), [("cells", None)], 2, 2))

    # uniformity record checked against the seed it was asked for.
    text, rc = _cli(["verify", "uniformity", "-N", "25600", "-k", "16", "--seed", "9"])
    expect("audit seed", oracles.check_uniformity_records(text, rc, 25600, 16, 9)[2],
           oracles.check_uniformity_records(text, rc, 25600, 16, 10)[2])
    return failures


def oracles_agree_exhaustively() -> list:
    failures = []
    depth = 3
    for q in range(4 ** depth):
        corner = curve.inverse_map(UnitScalar(q, 2 * depth), depth, 2)
        xy = tuple(c.mantissa for c in corner.coords)
        if oracles.hilbert_d2xy(depth, q) != xy or oracles.hilbert_xy2d(depth, *xy) != q:
            failures.append(f"Hilbert oracle disagrees with cubefold at index {q}")
            break

    d, depth, extra = 3, 2, 3
    for q in range(8 ** depth):
        corner = curve.inverse_map(UnitScalar(q, d * depth), depth, d)
        pt = [(c.mantissa << extra) | 0b101 for c in corner.coords]
        point = CubePoint(tuple(UnitScalar(m, depth + extra) for m in pt))
        got = curve.inverse_map(curve.forward_map(point, depth), depth, d)
        want = [oracles.cell_corner(m, depth + extra, depth) for m in pt]
        if [c.mantissa for c in got.coords] != want:
            failures.append(f"round-trip oracle disagrees with cubefold at cell {q}")
            break

    # Every depth-6 midpoint of each law: values on the lattice, and bin
    # counts equal to the exact masses (all masses are multiples of 1/64).
    grid = 6
    u = (2 * np.arange(1 << grid) + 1) / float(1 << (grid + 1))
    for name, doc in workloads.LAWS.items():
        law = oracles.Law(dict(doc, name=name))
        values = DistributionSpec.from_dict(doc).quantile_batch(u)
        bins, problems = law.bins(values, grid)
        counts = np.bincount(bins, minlength=len(law.masses))
        if problems or not np.array_equal(counts, law.masses * (1 << grid)):
            failures.append(f"sampler oracle disagrees with cubefold on {name}: "
                            f"{problems[:1]} counts {counts.tolist()}")
    return failures


def tracer_patches_every_binding() -> list:
    bindings = [(cli, "sample_independent"), (sampling, "sample_independent"),
                (curve, "inverse_map_batch"), (measure, "inverse_map_batch"),
                (sampling, "inverse_map_batch")]
    before = [getattr(m, a) for m, a in bindings]
    tracer = Tracer()
    tracer.install()
    try:
        patched = [getattr(m, a) is not b for (m, a), b in zip(bindings, before)]
        _cli(["verify", "adjacency", "-d", "2", "-n", "2"])
    finally:
        tracer.uninstall()
    failures = []
    if not all(patched):
        failures.append(f"tracer missed a binding: {patched}")
    if [getattr(m, a) for m, a in bindings] != before:
        failures.append("tracer did not restore every binding")
    if [s[0] for s in tracer.spans[:2]] != ["cli.main", "curve.inverse_map_batch"]:
        failures.append(f"unexpected spans {[s[0] for s in tracer.spans[:2]]}")
    return failures


def main() -> int:
    workdir = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           ".cubebench_work", "selftest")
    os.makedirs(workdir, exist_ok=True)
    failures = (corrupted_outputs_are_flagged(workdir) + oracles_agree_exhaustively()
                + tracer_patches_every_binding())
    for f in failures:
        print(f)
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
