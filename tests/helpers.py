"""Independent oracles and builders shared by the test modules.

Everything here avoids the code paths under test: cell enumeration and
the single-cell walk use only child_order, never the digit tables or the
maps, the quantile oracle only evaluates the CDF forward on mesh points,
the Kolmogorov-Smirnov statistic and threshold use only the standard
library, and the contingency chi-squared of the sampler's independence
checks uses only numpy.  The one exception is `stream_bin_counts`, the
differential oracle of the uniformity audit's fold of per-cell counts: it
runs the batch kernel on every draw, where the audit maps each cell once.
`unpack_corners` reads the kernel's packed grid indices as (N, d)
corners for every test, and `path_index` reads a brute-force digit path
as its segment index.
"""

import math
from fractions import Fraction

import numpy as np

from cubefold.curve import OrientationState, child_order, inverse_map_batch
from cubefold.dyadic import CubePoint, UnitScalar
from cubefold.measure import BLOCK


def make_point(mantissas, precision: int) -> CubePoint:
    return CubePoint(tuple(UnitScalar(m, precision) for m in mantissas))


def unpack_corners(cells, depth: int, d: int) -> np.ndarray:
    """(N, d) uint64 corners of packed grid indices: column a holds axis
    a's coordinate, bits a * depth .. (a+1) * depth - 1 of the index."""
    cells = np.asarray(cells, dtype=np.uint64)
    mask = np.uint64((1 << depth) - 1)
    return np.stack([(cells >> np.uint64(a * depth)) & mask for a in range(d)],
                    axis=-1)


def stream_bin_counts(indices, grid_k: int, depth: int) -> np.ndarray:
    """k x k grid bin counts of the inverse-mapped segment cells `indices`
    (d=2), the kernel run on each block of BLOCK draws."""
    k = np.uint64(grid_k)
    counts = np.zeros(grid_k * grid_k, dtype=np.int64)
    for lo in range(0, len(indices), BLOCK):
        coords = unpack_corners(inverse_map_batch(indices[lo:lo + BLOCK], depth, 2),
                                depth, 2)
        bx = (coords[:, 0] * k) >> np.uint64(depth)
        by = (coords[:, 1] * k) >> np.uint64(depth)
        counts += np.bincount((bx * k + by).astype(np.int64),
                              minlength=grid_k * grid_k)
    return counts


def brute_force_cells(d: int, depth: int) -> dict:
    """Map digit tuple -> integer lower corner (scale 2**depth), by
    recursive enumeration through child_order only."""
    out = {}

    def rec(state, corner, digits, level):
        if level == depth:
            out[tuple(digits)] = tuple(corner)
            return
        side = 1 << (depth - level - 1)
        for j, (octant, child) in enumerate(child_order(state)):
            shifted = [corner[a] + ((octant >> a) & 1) * side for a in range(d)]
            rec(child, shifted, digits + [j], level + 1)

    rec(OrientationState.identity(d), [0] * d, [], 0)
    return out


def brute_force_corner(d: int, depth: int, q: int) -> tuple:
    """Integer lower corner (scale 2**depth) of segment cell q at `depth`,
    by walking child_order down q's digit path, one digit per level."""
    state = OrientationState.identity(d)
    corner = [0] * d
    for level in range(depth):
        digit = (q >> (d * (depth - 1 - level))) & ((1 << d) - 1)
        octant, state = child_order(state)[digit]
        corner = [(c << 1) | ((octant >> a) & 1) for a, c in enumerate(corner)]
    return tuple(corner)


def path_index(digits, d: int) -> int:
    """Segment cell index of a digit path: its digits read positionally
    in base 2**d, first highest."""
    q = 0
    for j in digits:
        q = q << d | j
    return q


def packed_cell(corner, depth: int) -> int:
    """Packed grid index of an integer corner (scale 2**depth): axis a's
    coordinate at bit a * depth."""
    return sum(int(c) << a * depth for a, c in enumerate(corner))


def brute_force_locate(cells: dict, point, depth: int):
    """Digit tuple of the half-open brute-force cell containing the point."""
    side = Fraction(1, 1 << depth)
    for digits, corner in cells.items():
        if all(Fraction(c, 1 << depth) <= x < Fraction(c, 1 << depth) + side
               for c, x in zip(corner, point)):
            return digits
    raise AssertionError(f"no cell contains {point}")


def mesh_scan_quantile(spec, u, step: Fraction, scan: bool = False):
    """Literal supremum of {mesh t : F(t) < u} over a uniform mesh.

    With scan=True every mesh point is visited; otherwise binary search
    over the mesh exploits F's monotonicity (validated at construction)
    and returns the identical mesh point.
    """
    u = Fraction(u)
    doc = spec.to_dict()
    locations = [Fraction(a["at"]) for a in doc["atoms"]] + \
                [Fraction(p[k]) for p in doc["pieces"] for k in ("from", "to")]
    lo = min(locations) - 1
    hi = max(locations) + 1
    count = int((hi - lo) / step)

    def mesh(i):
        return lo + i * step

    if scan:
        best = None
        for i in range(count + 1):
            if spec.cdf(mesh(i)) < u:
                best = mesh(i)
            else:
                break
        return best
    # F(mesh(0)) = 0 < u and F(mesh(count)) = 1 >= u
    a, b = 0, count
    while b - a > 1:
        m = (a + b) // 2
        if spec.cdf(mesh(m)) < u:
            a = m
        else:
            b = m
    return mesh(a)


def ks_statistic(samples, cdf) -> float:
    """Two-sided sup distance between the empirical CDF and `cdf`.

    `samples` need not be pre-sorted; `cdf` is evaluated pointwise.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("need at least one sample")
    d = 0.0
    for i, x in enumerate(xs):
        fx = float(cdf(x))
        d = max(d, (i + 1) / n - fx, fx - i / n)
    return d


def kolmogorov_cdf(x: float) -> float:
    """CDF of the Kolmogorov distribution, alternating series."""
    if x <= 0:
        return 0.0
    total = 0.0
    for k in range(1, 200):
        term = math.exp(-2.0 * k * k * x * x)
        total += -term if k % 2 == 0 else term
        if term < 1e-18:
            break
    return max(0.0, 1.0 - 2.0 * total)


def ks_threshold(n: int, confidence: float) -> float:
    """Critical D for sample size n at the given confidence (asymptotic)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    lo, hi = 0.0, 4.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kolmogorov_cdf(mid) < confidence:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) / math.sqrt(n)


def chi_squared_contingency(table) -> tuple[float, int]:
    """Contingency form: expected from margins, dof = (r-1)(c-1)."""
    t = np.asarray(table, dtype=float)
    if t.ndim != 2:
        raise ValueError("contingency table must be 2-dimensional")
    n = t.sum()
    if n <= 0:
        raise ValueError("empty table")
    exp = np.outer(t.sum(axis=1), t.sum(axis=0)) / n
    if np.any(exp <= 0):
        raise ValueError("a margin is empty; expected count would be zero")
    stat = float(((t - exp) ** 2 / exp).sum())
    dof = (t.shape[0] - 1) * (t.shape[1] - 1)
    return stat, dof
