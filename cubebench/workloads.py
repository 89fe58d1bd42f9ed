"""The three workloads: fixed command mixes whose values come from a seed.

A pass is one round of a workload's mix.  The mix fixes the kinds, the
sizes and the order of the commands; the seed only picks the values
(sampler seeds, points, indices).  Each command carries its own output
check built from `oracles`, and the number of workload items it does.

The mixes are also laid out so that the median and the 90th percentile
of command time fall inside a block of commands of similar length, not
on the edge between two blocks, where a small shift would move them a
lot.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import oracles

DRAWS = 20_000           # rows per `sample` command
AUDIT_DRAWS = 250_000    # draws per `verify uniformity` command

# Atoms sit at short dyadic values, so CSV size barely depends on the seed;
# every piece has a power-of-two slope dt/dF, so a correct variate is an
# exact float that the oracle can trace back to the sampler's grid.
ATOMS = {"atoms": [{"at": "1/8", "mass": "1/8"}, {"at": "3/8", "mass": "3/8"},
                   {"at": "5/8", "mass": "1/4"}, {"at": "7/8", "mass": "1/4"}]}
PIECES = {"pieces": [{"from": "0", "to": "1/2", "cdf_from": "0", "cdf_to": "1/4"},
                     {"from": "1/2", "to": "2", "cdf_from": "1/4", "cdf_to": "1"}]}
MIXED = {"atoms": [{"at": "1/4", "mass": "1/4"}, {"at": "3/2", "mass": "1/4"}],
         "pieces": [{"from": "1/2", "to": "1", "cdf_from": "1/4", "cdf_to": "1/2"},
                    {"from": "2", "to": "4", "cdf_from": "3/4", "cdf_to": "1"}]}
LAWS = {"atoms": ATOMS, "pieces": PIECES, "mixed": MIXED}

# Spec files of the sample-csv mix: n = 1, 2, 3 and 8 coordinates.
SPECS = {1: ("atoms",),
         2: ("pieces", "mixed"),
         3: ("mixed", "pieces", "atoms"),
         8: ("atoms", "pieces", "mixed", "atoms", "pieces", "mixed", "atoms", "pieces")}
SAMPLE_MIX = (1, 2, 2, 3, 8)


@dataclass
class Command:
    argv: list | Callable[[], list]
    items: int
    check: Callable[[str, int], list]   # (stdout, exit code) -> problems
    ok_codes: tuple = (0,)
    output: str | None = None           # file the command writes

    def resolve(self) -> list:
        return self.argv() if callable(self.argv) else self.argv


@dataclass
class Workload:
    make_pass: Callable[[random.Random, str], list]
    traced_passes: int
    files: dict = field(default_factory=dict)

    def prepare(self, workdir: str):
        """Write the workload's fixed input files."""
        os.makedirs(workdir, exist_ok=True)
        for name, doc in self.files.items():
            with open(os.path.join(workdir, name), "w") as fh:
                json.dump(doc, fh)

    def pass_at(self, seed: int, index: int, workdir: str) -> list:
        """Pass `index` of this seed; the same commands on every call."""
        return self.make_pass(random.Random(seed * 1_000_003 + index), workdir)


# ------------------------------------------------------------ sample-csv

def spec_doc(n: int) -> dict:
    return {"distributions": [dict(LAWS[kind], name=f"{kind}{i + 1}")
                              for i, kind in enumerate(SPECS[n])]}


def _sample_pass(rng: random.Random, workdir: str) -> list:
    out = os.path.join(workdir, "out.csv")
    cmds = []
    for n in SAMPLE_MIX:
        laws = [oracles.Law(d) for d in spec_doc(n)["distributions"]]
        seed = rng.getrandbits(32)
        argv = ["sample", "--spec", os.path.join(workdir, f"spec{n}.json"),
                "-N", str(DRAWS), "--seed", str(seed), "-o", out]

        def check(stdout, rc, laws=laws):
            if stdout:
                return [f"unexpected stdout {stdout[:60]!r}"]
            with open(out, "rb") as fh:
                return oracles.check_sample_csv(fh.read(), laws, DRAWS)

        cmds.append(Command(argv, DRAWS * n, check, output=out))
    return cmds


# ------------------------------------------------------ uniformity-audit

def _audit_pass(rng: random.Random, workdir: str) -> list:
    stats, dofs = [], []
    cmds = []
    grids = (16, 32, 16, 32)
    for i, grid in enumerate(grids):
        seed = rng.getrandbits(31)
        argv = ["verify", "uniformity", "-N", str(AUDIT_DRAWS), "-k", str(grid),
                "--seed", str(seed)]

        def check(stdout, rc, grid=grid, seed=seed, last=i == len(grids) - 1):
            stat, dof, problems = oracles.check_uniformity_records(
                stdout, rc, AUDIT_DRAWS, grid, seed)
            if stat is not None:
                stats.append(stat)
                dofs.append(dof)
            if last and len(stats) == len(grids):
                problems += oracles.check_summed_chi2(stats, dofs)
            return problems

        cmds.append(Command(argv, AUDIT_DRAWS, check, ok_codes=(0, 1)))
    return cmds


# ----------------------------------------------------------- exact-verify

def _point(rng, d, precision):
    return [rng.getrandbits(precision) for _ in range(d)]


def _map_d2(rng):
    depth, precision = 32, 40
    pt = _point(rng, 2, precision)
    argv = ["map", "-d", "2", "-n", str(depth)] + [f"{m}/2^{precision}" for m in pt]
    return Command(argv, 1, lambda out, rc: oracles.check_map_d2(pt, precision, depth, out))


def _unmap_d2(rng):
    depth = 32
    q = rng.getrandbits(2 * depth)
    argv = ["unmap", "-d", "2", "-n", str(depth), f"{q}/4^{depth}"]
    return Command(argv, 1, lambda out, rc: oracles.check_unmap_d2(q, depth, out))


def _roundtrip_pair(rng, d, depth):
    """`map` of a random point, then `unmap` of the index it printed."""
    precision = depth + 8
    pt = _point(rng, d, precision)
    seen = {}

    def keep(out, rc):
        seen["map"] = out
        q, problems = oracles.parse_map_output(out, d, depth)
        seen["q"] = q if q is not None else 0
        return problems

    def unmap_argv():
        return ["unmap", "-d", str(d), "-n", str(depth),
                f"{seen.get('q', 0)}/{1 << d}^{depth}"]

    def check(out, rc):
        return oracles.check_roundtrip(pt, precision, d, depth,
                                       seen.get("map", ""), out)

    map_argv = ["map", "-d", str(d), "-n", str(depth)] + \
               [f"{m}/2^{precision}" for m in pt]
    return [Command(map_argv, 1, keep), Command(unmap_argv, 1, check)]


def _suite(suite, d, depth, items, records, seed=None):
    argv = ["verify", suite, "-d", str(d), "-n", str(depth)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return Command(argv, items,
                   lambda out, rc: oracles.check_exact_records(out, records, d, depth))


def _exact_pass(rng: random.Random, workdir: str) -> list:
    # 64 short map/unmap commands (80 %) hold the median.  Twelve
    # `cells -d 2 -n 4` suites of one length (15 %) hold the 90th
    # percentile in their middle; the other suites are shorter or longer
    # than that block and sit at its edges.
    cmds = []
    for _ in range(16):
        cmds += [_map_d2(rng), _unmap_d2(rng)]
    for d, depth in ((3, 21), (8, 8)) * 8:
        cmds += _roundtrip_pair(rng, d, depth)
    cmds += [_suite("cells", 2, 4, 4 ** 4, [("cells", None)]) for _ in range(12)]
    cmds.append(_suite("cells", 3, 2, 8 ** 2, [("cells", None)]))
    cmds.append(_suite("adjacency", 3, 5, 8 ** 5, [("adjacency", None)]))
    seed = rng.getrandbits(31)
    cmds.append(_suite("measure", 2, 3, 200 + 1,
                       [("measure-unions", seed), ("rect_measure", None)], seed))
    seed = rng.getrandbits(31)
    cmds.append(_suite("roundtrip", 2, 8, 1000, [("roundtrip", seed)], seed))
    return cmds


# Why each workload: see BENCHMARK.json.  `traced_passes` keeps a traced
# run near ten seconds of commands.
WORKLOADS = {
    "sample-csv": Workload(
        _sample_pass, traced_passes=8,
        files={f"spec{n}.json": spec_doc(n) for n in SPECS}),
    "uniformity-audit": Workload(_audit_pass, traced_passes=10),
    "exact-verify": Workload(_exact_pass, traced_passes=8),
}
