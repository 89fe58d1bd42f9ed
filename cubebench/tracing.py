"""Spans around cubefold's public functions, installed from outside.

`Tracer.install` replaces every public function of the traced modules,
plus a few public methods, with a wrapper that records a span (name,
start, end, parent) in memory.  Modules that imported a function by name
(`cli.sample_independent`, `measure.inverse_map_batch`, ...) hold their
own binding, so every cubefold module is searched and each binding of
the original object is replaced; `uninstall` puts all of them back.
`UnitScalar` construction is counted, not spanned: it is too frequent.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
from collections import Counter
from time import perf_counter

TRACED_MODULES = ("cli", "sampling", "curve", "measure", "stats", "dyadic")
TRACED_METHODS = (("sampling", "SampleBatch", "write_csv"),
                  ("sampling", "DistributionSpec", "quantile_batch"))
BATCH_KEYS = ("d1n64", "d2n32", "d3n21", "d8n8", "d2n8", "d3n5")


def _batch_meta(args, kwargs, result):
    # inverse_map_batch(indices, depth, dimension) -> (N, depth, d)
    return [len(args[0]), args[1], args[2]]


def _sample_meta(args, kwargs, result):
    # sample_independent(seed, count, specs, ...) -> bits consumed
    count, n = result.samples.shape
    return count * n * result.depth


def _rows_meta(args, kwargs, result):
    return int(args[0].samples.shape[0])


META = {"curve.inverse_map_batch": _batch_meta,
        "sampling.sample_independent": _sample_meta,
        "sampling.SampleBatch.write_csv": _rows_meta}


class Tracer:
    """In-memory spans; one instance per traced run."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, meta]
        self.counts = Counter()
        self._stack = []
        self._restore = []       # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, meta = self.spans, self._stack, META.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if meta is not None:
                rec[4] = meta(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, key, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        pkg = sys.modules["cubefold"]
        modules = [m for k, m in list(sys.modules.items())
                   if k == "cubefold" or k.startswith("cubefold.")]
        for short in TRACED_MODULES:
            mod = sys.modules[f"cubefold.{short}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for m in modules:
                    for bound, value in list(vars(m).items()):
                        if value is fn:
                            self._set(m, bound, wrapper)
        for short, cls_name, attr in TRACED_METHODS:
            cls = getattr(sys.modules[f"cubefold.{short}"], cls_name)
            self._set(cls, attr, self._wrap(f"{short}.{cls_name}.{attr}",
                                            getattr(cls, attr)))
        scalar = pkg.dyadic.UnitScalar
        self._set(scalar, "__post_init__",
                  self._counted("dyadic.unit_scalars_built",
                                scalar.__post_init__))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "meta"],
                       "spans": self.spans, "counts": self.counts}, fh)

    def metrics(self, csv_bytes: int):
        """Per-layer metrics (value, unit) from the recorded spans."""
        dur = {}
        self_time = {}
        calls = Counter()
        by_name = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, meta) in enumerate(self.spans):
            d = end - start
            dur[name] = dur.get(name, 0.0) + d
            self_time[name] = self_time.get(name, 0.0) + d - child[i]
            calls[name] += 1
            by_name.setdefault(name, []).append((d, d - child[i], meta))

        def p50(name, scale, use_self=False):
            xs = [s if use_self else d for d, s, _ in by_name.get(name, [])]
            return statistics.median(xs) * scale if xs else 0.0

        rows = sum(m for _, _, m in by_name.get("sampling.SampleBatch.write_csv", []))
        csv_s = dur.get("sampling.SampleBatch.write_csv", 0.0)
        batch = by_name.get("curve.inverse_map_batch", [])
        out = {
            "sampling.write_csv_s": (csv_s, "s"),
            "sampling.write_csv_us_per_row": (csv_s / rows * 1e6 if rows else 0.0, "us"),
            "sampling.csv_bytes": (csv_bytes, "bytes"),
            "sampling.quantile_batch_s": (dur.get("sampling.DistributionSpec.quantile_batch", 0.0), "s"),
            "sampling.quantile_batch_calls": (calls["sampling.DistributionSpec.quantile_batch"], "count"),
            "sampling.sample_independent_self_s": (self_time.get("sampling.sample_independent", 0.0), "s"),
            "sampling.bits_drawn": (sum(m for _, _, m in by_name.get("sampling.sample_independent", [])), "count"),
            "curve.inverse_map_batch_s": (dur.get("curve.inverse_map_batch", 0.0), "s"),
            "curve.inverse_map_batch_calls": (calls["curve.inverse_map_batch"], "count"),
            "curve.batch_digit_levels": (sum(m[0] * m[1] for _, _, m in batch), "count"),
        }
        for key in BATCH_KEYS:
            d, depth = (int(x) for x in key[1:].split("n"))
            picked = [(t, m[0]) for t, _, m in batch if m[2] == d and m[1] == depth]
            t = sum(t for t, _ in picked)
            out[f"curve.inverse_map_batch_mops.{key}"] = (
                sum(n for _, n in picked) / t / 1e6 if t else 0.0, "Mop/s")
        out.update({
            "curve.forward_map_us_p50": (p50("curve.forward_map", 1e6), "us"),
            "curve.inverse_map_us_p50": (p50("curve.inverse_map", 1e6), "us"),
            "curve.point_to_address_calls": (calls["curve.point_to_address"], "count"),
            "curve.address_to_rect_calls": (calls["curve.address_to_rect"], "count"),
            "curve.interval_to_address_calls": (calls["curve.interval_to_address"], "count"),
            "measure.monte_carlo_uniformity_self_s": (self_time.get("measure.monte_carlo_uniformity", 0.0), "s"),
            "measure.pushforward_s": (dur.get("measure.pushforward", 0.0), "s"),
            "measure.pushforward_calls": (calls["measure.pushforward"], "count"),
            "measure.rect_measure_check_s": (dur.get("measure.rect_measure_check", 0.0), "s"),
            "stats.chi_squared_s": (dur.get("stats.chi_squared", 0.0), "s"),
            "stats.chi2_threshold_s": (dur.get("stats.chi2_threshold", 0.0), "s"),
            "dyadic.unit_scalars_built": (self.counts["dyadic.unit_scalars_built"], "count"),
            "dyadic.parse_scalar_calls": (calls["dyadic.parse_scalar"], "count"),
            "cli.main_self_ms_p50": (p50("cli.main", 1e3, use_self=True), "ms"),
            "cli.commands": (calls["cli.main"], "count"),
        })
        return out
