"""Benchmark of the cubefold CLI: end-to-end metrics, or per-layer traces.

    python3 cubebench/run.py --workload sample-csv --seed 1 --seconds 25 --trace 0

Run from the root of a cubefold checkout; the library is imported from
its `src/` directory.  Workloads: sample-csv, uniformity-audit,
exact-verify (see workloads.py).  Every process this script starts is
pinned to one fixed core, gets PYTHONHASHSEED=0 and single-threaded
numerics, and runs without CUBEFOLD_PRECISION.

--trace 0 prints the end-to-end metrics.  Their times are wall times
taken to reference host speed by the probe that runs beside them (see
hostspeed.py), because a shared host's own speed can drift by more
than the metrics' bounds within a run:
  items_per_s    workload items done / summed command time
  call_p50_ms    median time of one in-process CLI command, over the
                 commands of WORKERS fresh measuring processes in turn
  call_p90_ms    90th percentile of the same (a run holds >= 100 commands)
  setup_s        median of fresh `python -m cubefold.cli` runs of the
                 workload's first command, one after each worker
  peak_rss_mib   VmHWM of a separate process that runs one pass
  ok_ops_frac    1 - failed / attempted commands, over the whole run
--trace 1 prints the per-layer metrics of a separate traced run
(tracing.py) and the tracing overhead, in wall time.  The last line of
standard output is the result; the line before it reports the host
probe.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".cubebench_work")
# Speed differs between fresh processes of the same code (memory layout),
# so a run pools the commands of several measuring processes, each given
# an equal share of --seconds.
WORKERS = 6
SETUPS_PER_WORKER = 1
MIN_COMMANDS = 100
CHILD_TIMEOUT_S = 150

sys.path.insert(0, HERE)
import hostspeed  # noqa: E402
import workloads  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CUBEFOLD_PRECISION", None)
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Run:
    """Accounting shared by every process of one benchmark run."""

    def __init__(self, args, core, workdir):
        self.args, self.core, self.workdir = args, core, workdir
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.problems = []

    def child(self, mode, seconds=0.0, worker=0, min_commands=0):
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--mode", mode,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", str(seconds), "--min-commands", str(min_commands),
               "--worker", str(worker), "--core", str(self.core),
               "--workdir", self.workdir, "--src", SRC]
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} process failed:\n{proc.stderr[-2000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.failures += out["failures"]
        self.problems += out["problems"]
        return out["metrics"]

    def setup(self, wl, repeats):
        """Reference-speed times of fresh interpreters that import
        cubefold and run the workload's first command."""
        times = []
        for _ in range(repeats):
            cmd = wl.pass_at(self.args.seed, 0, self.workdir)[0]
            argv = [sys.executable, "-m", "cubefold.cli"] + cmd.resolve()
            before = hostspeed.probe_ms()
            t0 = time.perf_counter()
            proc = subprocess.run(argv, env=child_env(), capture_output=True,
                                  text=True, timeout=60, cwd=ROOT)
            elapsed = time.perf_counter() - t0
            times.append(elapsed * hostspeed.scale(before, hostspeed.probe_ms()))
            self.attempted += 1
            if proc.returncode not in cmd.ok_codes:
                self.failed += 1
                self.failures.append(f"setup command exit {proc.returncode}: "
                                     f"{proc.stderr[-300:]}")
                continue
            self.problems += cmd.check(proc.stdout, proc.returncode)
        return times

    def self_test(self):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "selftest.py")],
                              env=child_env(), capture_output=True, text=True,
                              timeout=60, cwd=ROOT)
        if proc.returncode != 0:
            self.problems.append(f"benchmark self-test failed: "
                                 f"{proc.stdout[-500:]}{proc.stderr[-500:]}")


def end_to_end(run, wl):
    times, items, probes, setups = [], 0, [], []
    for worker in range(WORKERS):
        m = run.child("measure", run.args.seconds / WORKERS, worker,
                      -(-MIN_COMMANDS // WORKERS))
        times += m["times"]
        items += m["items"]
        probes += m["probes"]
        setups += run.setup(wl, SETUPS_PER_WORKER)
    rss_kib = run.child("rss")["peak_rss_kib"]
    print(json.dumps({"host.probe_ms": statistics.median(probes),
                      "commands": len(times), "workers": WORKERS}))
    cuts = statistics.quantiles(times, n=10, method="inclusive")
    metrics = {
        "items_per_s": (items / sum(times), "1/s"),
        "call_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "call_p90_ms": (cuts[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
        "ok_ops_frac": (1.0 - run.failed / run.attempted, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "cubefold", "cli.py")):
        print(f"error: no cubefold sources under {SRC}", file=sys.stderr)
        return 2

    # One fixed core for every process of the run; children inherit it.
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(os.getpid(), {core})
    wl = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(WORK, args.workload)
    wl.prepare(workdir)

    run = Run(args, core, workdir)
    run.self_test()
    if args.trace:
        metrics = run.child("trace")
        print(json.dumps({"host.probe_ms": metrics["host.probe_ms"]["value"]}))
    else:
        metrics = end_to_end(run, wl)
    for failure in run.failures:
        print(f"failed: {failure}", file=sys.stderr)
    for problem in run.problems:
        print(f"wrong output: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
