"""The measured process: one client calling `cubefold.cli.main` in-process.

`run.py` starts fresh interpreters on this file, so heap state from
earlier passes never carries over.  The process pins itself to one core,
runs one checked warm-up pass that it discards, and then measures in one
of three modes:

  measure  untraced passes until --seconds have passed and at least
           --min-commands commands have run (giving up at three times
           --seconds); command times at reference host speed
  trace    a fixed number of passes, each run untraced and then traced
           on the same inputs; per-layer metrics and tracing overhead
  rss      one untraced pass, then the process's peak resident set

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import hostspeed
import workloads
from tracing import Tracer

MAX_PROBLEMS = 5
PASSES_PER_WORKER = 100_000

class Client:
    """Runs commands one after another and checks each output."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.problems = []      # wrong outputs
        self.failures = []      # commands that exited with an error
        self.csv_bytes = 0

    @staticmethod
    def _note(notes, argv, what):
        if len(notes) < MAX_PROBLEMS:
            notes.append(f"{' '.join(map(str, argv))[:160]}: {what}")

    def run(self, cmd, count_bytes=False):
        """Time one command; returns (seconds, completed)."""
        argv = cmd.resolve()
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        rc = None
        with redirect_stdout(out), redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                err.write(traceback.format_exc())
            elapsed = perf_counter() - t0
        if rc not in cmd.ok_codes:
            self.failed += 1
            self._note(self.failures, argv,
                       f"exit {rc}: {err.getvalue().strip()[-300:]}")
            return elapsed, False
        for problem in cmd.check(out.getvalue(), rc):
            self._note(self.problems, argv, problem)
        if count_bytes and cmd.output:
            self.csv_bytes += os.path.getsize(cmd.output)
        return elapsed, True

    def run_pass(self, cmds, count_bytes=False):
        gc.collect()
        times, items = [], 0
        for cmd in cmds:
            t, ok = self.run(cmd, count_bytes)
            times.append(t)
            items += cmd.items if ok else 0
        return times, items


def measure(client, wl, seed, seconds, min_commands, workdir, first):
    """Reference-speed command times of passes first, first+1, ... until
    `seconds` have passed and `min_commands` have run.  The host probe
    runs before the first pass and after each pass, and a pass's times
    are scaled by the probes on either side of it (see hostspeed.py)."""
    times, items, probes = [], 0, [hostspeed.probe_ms()]
    index = first
    start = perf_counter()
    while perf_counter() - start < seconds or len(times) < min_commands:
        if perf_counter() - start > 3 * seconds + 5:
            break
        t, n = client.run_pass(wl.pass_at(seed, index, workdir))
        probes.append(hostspeed.probe_ms())
        k = hostspeed.scale(probes[-2], probes[-1])
        times += [x * k for x in t]
        items += n
        index += 1
    return {"times": times, "items": items, "probes": probes}


def trace(client, wl, seed, workdir):
    tracer = Tracer()
    ratios, probes = [], []
    for index in range(1, wl.traced_passes + 1):
        plain, _ = client.run_pass(wl.pass_at(seed, index, workdir))
        cmds = wl.pass_at(seed, index, workdir)
        tracer.install()
        try:
            traced, _ = client.run_pass(cmds, count_bytes=True)
        finally:
            tracer.uninstall()
        ratios.append(sum(traced) / sum(plain))
        probes.append(hostspeed.probe_ms())
    tracer.dump(os.path.join(workdir, "spans.json"))
    metrics = tracer.metrics(client.csv_bytes)
    metrics["trace.overhead_frac"] = (statistics.median(ratios) - 1.0, "ratio")
    metrics["host.probe_ms"] = (statistics.median(probes), "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def peak_rss_kib() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM not reported by /proc/self/status")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("measure", "trace", "rss"), required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--min-commands", type=int, default=0)
    ap.add_argument("--worker", type=int, default=0,
                    help="measuring process number; selects its passes")
    ap.add_argument("--core", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--src", required=True)
    args = ap.parse_args()

    os.sched_setaffinity(os.getpid(), {args.core})
    from cubefold import cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(args.src) + os.sep):
        raise SystemExit(f"cubefold imported from {cli.__file__}, not {args.src}")

    wl = workloads.WORKLOADS[args.workload]
    client = Client(cli)
    first = args.worker * PASSES_PER_WORKER
    client.run_pass(wl.pass_at(args.seed, first, args.workdir))   # warm-up
    result = {}
    if args.mode == "measure":
        result["metrics"] = measure(client, wl, args.seed, args.seconds,
                                    args.min_commands, args.workdir, first + 1)
    elif args.mode == "trace":
        result["metrics"] = trace(client, wl, args.seed, args.workdir)
    else:
        result["metrics"] = {"peak_rss_kib": peak_rss_kib()}
    result.update(attempted=client.attempted, failed=client.failed,
                  problems=client.problems, failures=client.failures)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
