"""Acceptance gate: one test per criterion, printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Tolerances are fixed here, not calibrated elsewhere.
"""

import random
import time
from fractions import Fraction

import numpy as np

from cubefold.curve import compose_n_to_m, forward_map, inverse_map
from cubefold.dyadic import CubePoint, DyadicRect, UnitScalar
from cubefold.measure import CellUnion, monte_carlo_uniformity, pushforward
from cubefold.sampling import DistributionSpec, sample_independent, split_uniform
from cubefold.stats import chi2_threshold
from helpers import chi_squared_contingency, mesh_scan_quantile, unpack_corners


def _report(num, label, ok, detail=""):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def test_criterion_1_cell_bijection():
    t0 = time.time()
    failures = 0
    for depth in range(7):
        corners = set()
        for q in range(4 ** depth):
            pt = inverse_map(UnitScalar(q, 2 * depth), depth, 2)
            if forward_map(pt, depth) != UnitScalar(q, 2 * depth):
                failures += 1
            corners.add(tuple(c.mantissa for c in pt.coords))
        if len(corners) != 4 ** depth:
            failures += 1
    elapsed = time.time() - t0
    _report(1, "cell bijection", failures == 0 and elapsed < 10,
            f"failures={failures} elapsed={elapsed:.2f}s")


def test_criterion_2_exact_measure_preservation():
    failures = 0
    for depth in range(7):
        for q in range(4 ** depth):
            rect = DyadicRect(inverse_map(UnitScalar(q, 2 * depth), depth, 2), (depth, depth))
            if rect.volume() != Fraction(1, 4 ** depth):
                failures += 1
    rng = random.Random(2024)
    for _ in range(1000):
        count = rng.randint(0, 100)
        indices = {rng.randrange(4 ** 8) for _ in range(count)}
        cu = CellUnion.of_cube(2, 8, indices)
        if pushforward(cu).measure() != cu.measure():
            failures += 1
    _report(2, "exact measure preservation", failures == 0,
            f"failures={failures}")


def test_criterion_3_uniform_cauchy_bound():
    failures = 0
    for n in range(7):
        bound = Fraction(1, 4 ** n)
        for q in range(4 ** n):
            corner = inverse_map(UnitScalar(q, 2 * n), n, 2).coords
            pt = CubePoint(tuple(UnitScalar(c.mantissa << (10 - n), 10) for c in corner))
            fn = forward_map(pt, n).as_fraction()
            for m in range(n + 1, 11):
                if abs(forward_map(pt, m).as_fraction() - fn) >= bound:
                    failures += 1
    _report(3, "uniform Cauchy bound", failures == 0, f"failures={failures}")


def test_criterion_4_adjacency():
    from cubefold.curve import inverse_map_batch

    failures = 0
    for n in range(1, 9):
        idx = np.arange(4 ** n, dtype=np.uint64)
        corners = unpack_corners(inverse_map_batch(idx, n, 2), n, 2).astype(np.int64)
        diff = np.abs(np.diff(corners, axis=0))
        failures += int(np.count_nonzero(
            (diff.sum(axis=1) != 1) | (diff.max(axis=1) != 1)))
    _report(4, "adjacency of consecutive cells", failures == 0,
            f"failures={failures}")


def test_criterion_5_statistical_uniformity():
    t0 = time.time()
    report = monte_carlo_uniformity(1_000_000, 16, seed=7)
    elapsed = time.time() - t0
    _report(5, "statistical uniformity", report.passed and elapsed < 30,
            f"chi2={report.statistic:.1f} threshold={report.threshold:.1f} "
            f"elapsed={elapsed:.2f}s seed=7")


def test_criterion_6_composition_roundtrip():
    # 2 -> 3 -> 2 through the segment; depth-1 sources carry too few bits
    # for a whole 3-d digit, so sources start at depth 2
    failures = 0
    for depth in range(2, 5):
        t3 = (2 * depth) // 3
        t2 = (3 * t3) // 2
        matched = min(depth, t2)
        for q in range(4 ** depth):
            pt = inverse_map(UnitScalar(q, 2 * depth), depth, 2)
            mid = compose_n_to_m(pt, depth, 3)
            back = compose_n_to_m(mid, t3, 2)
            # the first `matched` digits of each cell's segment index
            original = forward_map(pt, depth).mantissa >> 2 * (depth - matched)
            if forward_map(back, t2).mantissa >> 2 * (t2 - matched) != original:
                failures += 1
    _report(6, "cube-to-cube composition round trip", failures == 0,
            f"failures={failures}")


def test_criterion_7_cell_level_independence():
    failures = 0
    for depth in range(1, 6):
        corners = [split_uniform(UnitScalar(q, 2 * depth), 2, depth)
                   for q in range(4 ** depth)]
        xs = np.array([p.coords[0].mantissa for p in corners])
        ys = np.array([p.coords[1].mantissa for p in corners])
        for k1 in range(depth + 1):
            for k2 in range(depth + 1):
                expect = Fraction(1, 1 << (k1 + k2))
                for a in range(1 << k1):
                    for b in range(1 << k2):
                        hits = int(np.count_nonzero(
                            ((xs >> (depth - k1)) == a)
                            & ((ys >> (depth - k2)) == b)))
                        if Fraction(hits, 4 ** depth) != expect:
                            failures += 1
    _report(7, "exact coordinate independence", failures == 0,
            f"failures={failures}")


def test_criterion_8_fair_coin_sampling():
    coin = DistributionSpec(atoms=[("0", "1/2"), ("1", "1/2")], name="coin")
    batch = sample_independent(2718, 100_000, [coin, coin])
    table = np.zeros((2, 2))
    for i in (0, 1):
        for j in (0, 1):
            table[i, j] = np.sum((batch.samples[:, 0] == i)
                                 & (batch.samples[:, 1] == j))
    stat, dof = chi_squared_contingency(table)
    threshold = chi2_threshold(1, 0.999)
    sigma = 0.5 / np.sqrt(100_000)
    marg_ok = all(abs(batch.samples[:, a].mean() - 0.5) < 4 * sigma
                  for a in (0, 1))
    _report(8, "fair-coin independence", stat < threshold and marg_ok,
            f"chi2={stat:.3f} threshold={threshold:.3f} "
            f"marginals={[batch.samples[:, a].mean() for a in (0, 1)]} seed=2718")


def _random_spec(rng):
    running = Fraction(0)
    pos = Fraction(rng.randint(-4, 4))
    atoms, pieces = [], []
    weights = [Fraction(rng.randint(1, 8)) for _ in range(rng.randint(1, 4))]
    total = sum(weights)
    for w in weights:
        inc = w / total
        if rng.random() < 0.4:
            atoms.append((pos, inc))
            running += inc
            pos += Fraction(rng.randint(0, 3), rng.randint(1, 4))
        else:
            width = Fraction(rng.randint(1, 8), rng.randint(1, 4))
            pieces.append((pos, pos + width, running, running + inc))
            running += inc
            pos += width
    return DistributionSpec(atoms, pieces)


def test_criterion_9_quantile_fidelity():
    rng = random.Random(31415)
    step = Fraction(1, 10 ** 6)
    failures = 0
    for _ in range(200):
        spec = _random_spec(rng)
        u = Fraction(rng.randint(1, 10 ** 6 - 1), 10 ** 6)
        got = spec.quantile(u)
        oracle = mesh_scan_quantile(spec, u, step)
        if not oracle <= got <= oracle + step:
            failures += 1
    _report(9, "quantile vs mesh-scan oracle", failures == 0,
            f"failures={failures} mesh=1e-6 specs=200")
