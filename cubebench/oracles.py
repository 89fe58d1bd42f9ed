"""Oracles for cubefold's CLI output that share no code with cubefold.

Each check returns a list of problems; an empty list means the output
is correct.  The d=2 curve oracle is the classical Hilbert index
(Skilling / Wikipedia `xy2d`, `d2xy`) in U order: lower-left, upper-left,
upper-right, lower-right.  Statistical thresholds use the Wilson-Hilferty
approximation at a tiny alpha, so a correct sampler essentially never
fails them while a biased one does.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from statistics import NormalDist

import numpy as np

ALPHA = 1e-9
UNIFORMITY_CONFIDENCE = 0.999


# ---------------------------------------------------------------- curve

def hilbert_xy2d(order_bits: int, x: int, y: int) -> int:
    """Index of cell (x, y) on the 2**order_bits square Hilbert curve."""
    n = 1 << order_bits
    d = 0
    s = n >> 1
    while s:
        rx = 1 if x & s else 0
        ry = 1 if y & s else 0
        d += s * s * ((3 * rx) ^ ry)
        if ry == 0:
            if rx == 1:
                x = n - 1 - x
                y = n - 1 - y
            x, y = y, x
        s >>= 1
    return d


def hilbert_d2xy(order_bits: int, d: int) -> tuple[int, int]:
    """Cell (x, y) at index d on the 2**order_bits square Hilbert curve."""
    x = y = 0
    t = d
    s = 1
    while s < (1 << order_bits):
        rx = 1 & (t >> 1)
        ry = 1 & (t ^ rx)
        if ry == 0:
            if rx == 1:
                x = s - 1 - x
                y = s - 1 - y
            x, y = y, x
        x += s * rx
        y += s * ry
        t >>= 2
        s <<= 1
    return x, y


def cell_corner(mantissa: int, precision: int, depth: int) -> int:
    """Lower corner (scale 2**depth) of the depth cell holding m/2**p."""
    return mantissa >> (precision - depth)


_MAP_OUT = re.compile(r"^(\d+)/(\d+)\^(\d+) \((\S+)\)$")
_COORD = re.compile(r"^(\d+)/2\^(\d+)$")


def parse_map_output(text: str, d: int, depth: int):
    """(index, problems) from the one-line output of `cubefold map`."""
    m = _MAP_OUT.match(text.strip())
    if not m:
        return None, [f"map output not understood: {text.strip()[:80]!r}"]
    q, base, n = int(m.group(1)), int(m.group(2)), int(m.group(3))
    problems = []
    if base != 1 << d or n != depth:
        problems.append(f"map base {base}^{n}, expected {1 << d}^{depth}")
    if not 0 <= q < 1 << (d * depth):
        problems.append(f"map index {q} out of range")
    if float(m.group(4)) != q / float(1 << (d * depth)):
        problems.append(f"map decimal {m.group(4)} does not match {q}")
    return q, problems


def parse_unmap_output(text: str, d: int, depth: int):
    """(corner mantissas, problems) from the output of `cubefold unmap`."""
    text = text.strip()
    exact, _, approx = text.partition(" (")
    tokens = exact.split()
    floats = approx.rstrip(")").split()
    if len(tokens) != d or len(floats) != d:
        return None, [f"unmap output not understood: {text[:80]!r}"]
    corner, problems = [], []
    for tok, fl in zip(tokens, floats):
        m = _COORD.match(tok)
        if not m:
            return None, [f"unmap coordinate not understood: {tok!r}"]
        mant, p = int(m.group(1)), int(m.group(2))
        if p < depth or mant & ((1 << (p - depth)) - 1):
            return None, [f"coordinate {tok} is not on the depth-{depth} grid"]
        corner.append(mant >> (p - depth))
        if float(fl) != mant / float(1 << p):
            problems.append(f"unmap decimal {fl} does not match {tok}")
    return corner, problems


def check_map_d2(point, precision: int, depth: int, stdout: str):
    """`map -d 2` against the classical Hilbert index."""
    q, problems = parse_map_output(stdout, 2, depth)
    if q is None:
        return problems
    x, y = (cell_corner(m, precision, depth) for m in point)
    want = hilbert_xy2d(depth, x, y)
    if q != want:
        problems.append(f"map index {q}, Hilbert oracle gives {want}")
    return problems


def check_unmap_d2(index: int, depth: int, stdout: str):
    """`unmap -d 2` against the classical Hilbert cell."""
    corner, problems = parse_unmap_output(stdout, 2, depth)
    if corner is None:
        return problems
    want = list(hilbert_d2xy(depth, index))
    if corner != want:
        problems.append(f"unmap corner {corner}, Hilbert oracle gives {want}")
    return problems


def check_roundtrip(point, precision: int, d: int, depth: int,
                    map_stdout: str, unmap_stdout: str):
    """unmap(map(p)) must be the lower corner of the cell holding p."""
    q, problems = parse_map_output(map_stdout, d, depth)
    corner, more = parse_unmap_output(unmap_stdout, d, depth)
    problems += more
    if q is None or corner is None:
        return problems
    want = [cell_corner(m, precision, depth) for m in point]
    if corner != want:
        problems.append(f"unmap(map(p)) = {corner}, cell of p is {want}")
    return problems


def check_exact_records(stdout: str, expected, d: int, depth: int):
    """Exact `verify` suites: the expected (name, seed) records, each with
    statistic 0 and a scope naming d and depth."""
    problems = []
    records = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    got = [(r.get("name"), r.get("seed")) for r in records]
    if got != list(expected):
        problems.append(f"verify records {got}, expected {list(expected)}")
    for r in records:
        scope = str(r.get("scope"))
        if r.get("name") != "rect_measure" and \
                (f"d={d}" not in scope or f"depth={depth}" not in scope):
            problems.append(f"scope {scope!r} does not name d={d} depth={depth}")
        if r.get("statistic") != 0 or r.get("threshold") != 0 \
                or r.get("passed") is not True:
            problems.append(f"exact check not clean: {r}")
    return problems


# ---------------------------------------------------------- statistics

def chi2_upper(dof: int, alpha: float) -> float:
    """Wilson-Hilferty approximation to the chi-squared 1-alpha quantile."""
    z = NormalDist().inv_cdf(1.0 - alpha)
    h = 2.0 / (9.0 * dof)
    return dof * (1.0 - h + z * math.sqrt(h)) ** 3


def _pearson(observed: np.ndarray, expected: np.ndarray) -> float:
    return float(((observed - expected) ** 2 / expected).sum())


def check_uniformity_records(stdout: str, rc: int, draws: int, grid: int,
                             seed: int):
    """One `verify uniformity` record: scope, seed, threshold, verdict.

    A failed verdict (exit 1) is the program's answer at 0.999 and is not
    a problem; the summed statistic of a pass is tested separately.
    Returns (statistic, dof, problems).
    """
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) != 1:
        return None, 0, [f"expected one uniformity record, got {len(lines)}"]
    r = json.loads(lines[0])
    problems = []
    dof = grid * grid - 1
    scope = str(r.get("scope"))
    if r.get("name") != "uniformity" or f"N={draws} " not in scope \
            or f"grid={grid}x{grid}" not in scope:
        problems.append(f"record {r.get('name')} [{scope}], expected "
                        f"uniformity with N={draws} grid={grid}x{grid}")
    if r.get("seed") != seed:
        problems.append(f"record seed {r.get('seed')}, expected {seed}")
    want = chi2_upper(dof, 1.0 - UNIFORMITY_CONFIDENCE)
    thr = r.get("threshold")
    if not isinstance(thr, float) or abs(thr - want) > 1e-3 * want:
        problems.append(f"threshold {thr}, chi2({dof}) 0.999 quantile ~ {want:.3f}")
    stat = r.get("statistic")
    if not isinstance(stat, float) or not math.isfinite(stat) or stat < 0:
        return None, dof, problems + [f"statistic {stat!r} is not a chi-squared value"]
    passed = isinstance(thr, float) and stat <= thr
    if r.get("passed") is not passed or rc != (0 if passed else 1):
        problems.append(f"verdict {r.get('passed')} / exit {rc} disagrees "
                        f"with statistic {stat} vs threshold {thr}")
    return stat, dof, problems


def check_summed_chi2(stats, dofs):
    """Sum of independent chi-squared statistics at alpha = ALPHA."""
    total, dof = sum(stats), sum(dofs)
    limit = chi2_upper(dof, ALPHA)
    if total > limit:
        return [f"summed chi-squared {total:.1f} on {dof} dof exceeds {limit:.1f}"]
    return []


# --------------------------------------------------------------- sampler

class Law:
    """A distribution as the benchmark wrote it, with exact bin masses.

    Bins are the atoms, and each affine piece split in two at its CDF
    midpoint.  Every piece's slope dt/dF is a power of two, so a correct
    variate is an exact float `lo + (u - F_lo) * slope` with u on the
    2**-(depth+1) grid; the lattice check relies on that.
    """

    def __init__(self, doc: dict):
        self.doc = doc
        self.atoms = [(Fraction(a["at"]), Fraction(a["mass"]))
                      for a in doc.get("atoms", [])]
        self.pieces = [tuple(Fraction(p[k]) for k in
                             ("from", "to", "cdf_from", "cdf_to"))
                       for p in doc.get("pieces", [])]
        masses = [mass for _, mass in self.atoms]
        for _, _, f_lo, f_hi in self.pieces:
            masses += [(f_hi - f_lo) / 2] * 2
        if sum(masses) != 1:
            raise ValueError(f"law {doc.get('name')} masses sum to {sum(masses)}")
        self.masses = np.array([float(m) for m in masses])
        self.atom_at = np.array([float(a) for a, _ in self.atoms])
        self.piece_lo = np.array([float(p[0]) for p in self.pieces])
        self.piece_hi = np.array([float(p[1]) for p in self.pieces])
        self.piece_mid = (self.piece_lo + self.piece_hi) / 2
        self.piece_flo = np.array([float(p[2]) for p in self.pieces])
        slopes = [(p[1] - p[0]) / (p[3] - p[2]) for p in self.pieces]
        for s in slopes:
            if s.numerator & (s.numerator - 1) or s.denominator & (s.denominator - 1):
                raise ValueError(f"piece slope {s} is not a power of two")
        self.piece_slope = np.array([float(s) for s in slopes])

    def bins(self, v: np.ndarray, depth: int):
        """Bin index of each value and problems (outside the support or
        off the depth lattice)."""
        problems = []
        out = np.full(v.shape, -1, dtype=np.int64)
        for i, a in enumerate(self.atom_at):
            out[v == a] = i
        base = len(self.atom_at)
        for j in range(len(self.pieces)):
            lo, hi = self.piece_lo[j], self.piece_hi[j]
            inside = (out < 0) & (v >= lo) & (v <= hi)
            if not inside.any():
                continue
            w = v[inside]
            u = (w - lo) / self.piece_slope[j] + self.piece_flo[j]
            grid = u * float(1 << (depth + 1))
            exact = (grid == np.floor(grid)) & \
                    (lo + (u - self.piece_flo[j]) * self.piece_slope[j] == w)
            if not exact.all():
                bad = w[~exact][0]
                problems.append(f"{self.doc.get('name')}: {bad!r} is not the "
                                f"image of a depth-{depth} grid point")
            out[inside] = base + 2 * j + (w >= self.piece_mid[j])
        if (out < 0).any():
            bad = v[out < 0][0]
            problems.append(f"{self.doc.get('name')}: {bad!r} outside the support")
        return out, problems


def check_sample_csv(data: bytes, laws, draws: int):
    """Header, row count, support, lattice, per-column fit and pairwise
    independence of one `cubefold sample` CSV file."""
    n = len(laws)
    depth = 64 // n
    text = data.decode("ascii", errors="replace")
    header, sep, body = text.partition("\r\n")
    want = ",".join(law.doc["name"] for law in laws)
    if header != want:
        return [f"header {header[:60]!r}, expected {want!r}"]
    rows = body.split("\r\n")
    if rows[-1] != "":
        return ["file does not end with a row terminator"]
    rows.pop()
    if len(rows) != draws:
        return [f"{len(rows)} rows, expected {draws}"]
    fields = ",".join(rows).split(",")
    if len(fields) != draws * n:
        return [f"{len(fields)} fields, expected {draws}x{n}"]
    try:
        values = np.array(fields, dtype=float).reshape(draws, n)
    except ValueError as exc:
        return [f"unparsable value: {exc}"]
    problems = []
    columns = []
    for i, law in enumerate(laws):
        idx, more = law.bins(values[:, i], depth)
        problems += more
        columns.append(idx)
    if problems:
        return problems
    for i, law in enumerate(laws):
        obs = np.bincount(columns[i], minlength=len(law.masses))
        exp = law.masses * draws
        stat = _pearson(obs, exp)
        if stat > chi2_upper(len(exp) - 1, ALPHA):
            problems.append(f"column {i} fit: chi-squared {stat:.1f}")
    for i in range(n):
        for j in range(i + 1, n):
            bi, bj = len(laws[i].masses), len(laws[j].masses)
            obs = np.bincount(columns[i] * bj + columns[j], minlength=bi * bj)
            exp = np.outer(laws[i].masses, laws[j].masses).ravel() * draws
            stat = _pearson(obs, exp)
            if stat > chi2_upper(bi * bj - 1, ALPHA):
                problems.append(f"columns {i},{j} joint: chi-squared {stat:.1f}")
    return problems
