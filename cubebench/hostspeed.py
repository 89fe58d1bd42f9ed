"""Host speed reference for the benchmark's timings.

On a virtual machine whose physical cores are shared with other
machines, speed can drift by a quarter and more within tens of seconds
(measured on a 2-vCPU Xeon guest), and every command's time follows
that drift.  `probe_ms` times a fixed loop that shares no code with
cubefold and mixes the kinds of work the workloads do: small-integer
bytecode, object allocation and `Fraction` arithmetic, numpy passes over
arrays larger than the L2 cache, and float formatting.

A time t measured between probes p0 and p1 is reported at reference
speed, as t * REF_MS / ((p0 + p1) / 2): the time it would take on a host
where the probe takes REF_MS.  A change to cubefold cannot move the
probe, so it moves a reference-speed time as it moves the wall time.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np

REF_MS = 35.0

_WORDS = np.arange(1 << 16, dtype=np.uint64)
_BIG_WORDS = np.arange(1 << 18, dtype=np.uint64)
_FLOATS = [(i * 0.6180339887498949) % 3.0 for i in range(8000)]
_MUL = np.uint64(2654435761)
_SHIFT = np.uint64(13)


def probe_ms() -> float:
    """Wall time of the fixed reference loop, in ms."""
    t0 = perf_counter()
    acc = 0
    for i in range(17_000):
        acc += i * i % 7
    x = _WORDS
    for _ in range(7):
        x = (x * _MUL) ^ (x >> _SHIFT)
    table, pairs = {}, []
    for i in range(4_300):
        key = i * 7919 % 20011
        table[key] = (i, str(key))
        pairs.append((key, i))
    pairs.sort()
    total = Fraction(0)
    for i in range(1, 85):
        total += Fraction(i, 1 << (i % 40))
    x = _BIG_WORDS
    for _ in range(4):
        x = (x * _MUL) ^ (x >> _SHIFT)
        np.bincount((x & np.uint64(1023)).astype(np.int64), minlength=1024)
    "\n".join(f"{v!r},{v * 0.5!r}" for v in _FLOATS)
    return (perf_counter() - t0) * 1e3


def scale(before_ms: float, after_ms: float) -> float:
    """Factor that takes a time measured between two probes to
    reference speed."""
    return 2.0 * REF_MS / (before_ms + after_ms)
