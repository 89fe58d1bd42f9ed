import io
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubefold import sampling
from cubefold.curve import forward_map
from cubefold.dyadic import PrecisionError, RangeError, UnitScalar
from cubefold.sampling import (
    DistributionSpec,
    SpecValidationError,
    cdf_eval,
    quantile,
    sample_independent,
    split_uniform,
)
from cubefold.stats import (
    chi_squared_contingency,
    chi2_threshold,
    ks_statistic,
    ks_threshold,
)
from helpers import mesh_scan_quantile

UNIFORM = DistributionSpec(pieces=[("0", "1", "0", "1")], name="uniform")
COIN = DistributionSpec(atoms=[("0", "1/2"), ("1", "1/2")], name="coin")
POINT_MASS = DistributionSpec(atoms=[("0", "1")])


def test_cdf_uniform():
    assert cdf_eval(UNIFORM, Fraction(3, 10)) == Fraction(3, 10)


def test_cdf_point_mass_right_continuous():
    assert cdf_eval(POINT_MASS, -1) == 0
    assert cdf_eval(POINT_MASS, 0) == 1


def test_cdf_two_atoms():
    assert cdf_eval(COIN, Fraction(1, 2)) == Fraction(1, 2)


def test_quantile_uniform_is_identity():
    assert quantile(UNIFORM, Fraction(7, 10)) == Fraction(7, 10)


def test_quantile_two_atoms_sup_form():
    assert quantile(COIN, Fraction(3, 10)) == 0
    assert quantile(COIN, Fraction(7, 10)) == 1
    assert quantile(COIN, Fraction(1, 2)) == 0  # plateau boundary: sup form


def test_quantile_rejects_endpoints():
    for u in (0, 1):
        with pytest.raises(RangeError):
            quantile(UNIFORM, u)


def _random_spec(rng):
    """Random rational CDF: a few atoms and affine pieces that tile [lo, hi]."""
    running = Fraction(0)
    pos = Fraction(rng.randint(-4, 4))
    atoms, pieces = [], []
    parts = rng.randint(1, 4)
    weights = [Fraction(rng.randint(1, 8)) for _ in range(parts)]
    total = sum(weights)
    for w in weights:
        inc = w / total
        if rng.random() < 0.4:
            atoms.append((pos, inc))
            running += inc
            pos += Fraction(rng.randint(0, 3), rng.randint(1, 4))
        else:
            width = Fraction(rng.randint(1, 8), rng.randint(1, 4))
            flat = rng.random() < 0.2
            if flat:
                atoms.append((pos, inc))
                pieces.append((pos, pos + width, running + inc, running + inc))
            else:
                pieces.append((pos, pos + width, running, running + inc))
            running += inc
            pos += width
    return DistributionSpec(atoms, pieces)


def test_quantile_against_mesh_scan_oracle():
    rng = random.Random(21)
    step = Fraction(1, 1000)
    for _ in range(40):
        spec = _random_spec(rng)
        for _ in range(5):
            u = Fraction(rng.randint(1, 999), 1000)
            got = spec.quantile(u)
            mesh = mesh_scan_quantile(spec, u, step)
            assert mesh <= got <= mesh + step, (spec.to_dict(), u)


def test_mesh_oracle_bisect_equals_full_scan():
    rng = random.Random(33)
    step = Fraction(1, 200)
    for _ in range(10):
        spec = _random_spec(rng)
        for _ in range(5):
            u = Fraction(rng.randint(1, 199), 200)
            assert (mesh_scan_quantile(spec, u, step)
                    == mesh_scan_quantile(spec, u, step, scan=True))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.fractions(min_value=Fraction(1, 97),
                                           max_value=Fraction(96, 97)))
def test_quantile_cdf_galois_relation(seed, u):
    # quantile(u) <= t iff u <= F(t); holds everywhere because F is
    # right-continuous, plateau boundaries included
    spec = _random_spec(random.Random(seed))
    q = spec.quantile(u)
    for t in [q - 1, q - Fraction(1, 7), q, q + Fraction(1, 7), q + 1]:
        assert (q <= t) == (u <= spec.cdf(t))


def test_quantile_batch_matches_scalar():
    rng = random.Random(9)
    for _ in range(20):
        spec = _random_spec(rng)
        us = [Fraction(rng.randint(1, 9999), 10000) for _ in range(50)]
        batch = spec.quantile_batch(np.array([float(u) for u in us]))
        for u, b in zip(us, batch):
            assert abs(float(spec.quantile(u)) - b) < 1e-9
        # elements chosen exactly from depth-n cells, top cells included
        for depth in (8, 64):
            cells = [rng.getrandbits(depth) for _ in range(50)] + [2**depth - 1]
            mids = [Fraction(2 * c + 1, 2 ** (depth + 1)) for c in cells]
            element = spec.cell_elements(np.array(cells, dtype=np.uint64), depth)
            batch = spec.quantile_batch([float(m) for m in mids], element)
            for m, b in zip(mids, batch):
                assert abs(float(spec.quantile(m)) - b) < 1e-9


def test_validation_names_offending_field():
    with pytest.raises(SpecValidationError) as exc:
        DistributionSpec(atoms=[("0", "9/10")])
    assert exc.value.field == "mass-sum"
    with pytest.raises(SpecValidationError) as exc:
        DistributionSpec(pieces=[("0", "1", "1/4", "1")])
    assert exc.value.field == "cdf_from"
    with pytest.raises(SpecValidationError) as exc:
        DistributionSpec(pieces=[("1", "0", "0", "1")])
    assert exc.value.field == "to"
    with pytest.raises(SpecValidationError) as exc:
        DistributionSpec(atoms=[("0", "-1/2"), ("1", "3/2")])
    assert exc.value.field == "mass"
    with pytest.raises(SpecValidationError) as exc:
        DistributionSpec(atoms=[("1/2", "1/2")],
                         pieces=[("0", "1", "0", "1/2")])
    assert exc.value.field == "at"


def test_spec_dict_roundtrip():
    doc = COIN.to_dict()
    again = DistributionSpec.from_dict(doc)
    assert again.to_dict()["atoms"] == doc["atoms"]


def test_split_uniform_n1_is_truncation():
    u = UnitScalar(0b10110101, 8)
    pt = split_uniform(u, 1, 5)
    assert pt.coords[0] == UnitScalar(0b10110, 5)


def test_split_uniform_then_forward_truncates():
    rng = random.Random(2)
    for _ in range(50):
        u = UnitScalar(rng.getrandbits(12), 12)
        pt = split_uniform(u, 2, 4)
        assert forward_map(pt, 4) == UnitScalar(u.mantissa >> 4, 8)


def test_split_uniform_marginals_exactly_uniform():
    # over all 4^depth segment cells each coordinate hits every dyadic
    # value equally often: the exact count form of marginal uniformity
    for depth in range(1, 6):
        counts = [np.zeros(1 << depth, dtype=int) for _ in range(2)]
        for q in range(4 ** depth):
            pt = split_uniform(UnitScalar(q, 2 * depth), 2, depth)
            for axis in range(2):
                counts[axis][pt.coords[axis].mantissa] += 1
        for axis in range(2):
            assert set(counts[axis]) == {1 << depth}


def test_split_uniform_rejects_low_precision():
    with pytest.raises(PrecisionError):
        split_uniform(UnitScalar(1, 5), 2, 3)


def test_cell_level_independence_exhaustive():
    # preimage length of any product of dyadic coordinate intervals equals
    # the product of side lengths, exactly
    depth = 4
    corners = [split_uniform(UnitScalar(q, 2 * depth), 2, depth)
               for q in range(4 ** depth)]
    xs = np.array([pt.coords[0].mantissa for pt in corners])
    ys = np.array([pt.coords[1].mantissa for pt in corners])
    for k1 in range(depth + 1):
        for k2 in range(depth + 1):
            for a in range(1 << k1):
                for b in range(1 << k2):
                    hits = np.count_nonzero(
                        ((xs >> (depth - k1)) == a) & ((ys >> (depth - k2)) == b))
                    assert Fraction(hits, 4 ** depth) == Fraction(1, 1 << (k1 + k2))


def test_sample_independent_uniform_marginal_ks():
    batch = sample_independent(42, 100_000, [UNIFORM])
    d = ks_statistic(batch.samples[:, 0],
                     lambda x: min(max(float(x), 0.0), 1.0))
    assert d < ks_threshold(100_000, 0.999)


def test_sample_independent_coin_pair():
    batch = sample_independent(7, 100_000, [COIN, COIN])
    table = np.zeros((2, 2))
    for i in (0, 1):
        for j in (0, 1):
            table[i, j] = np.sum((batch.samples[:, 0] == i)
                                 & (batch.samples[:, 1] == j))
    stat, dof = chi_squared_contingency(table)
    assert dof == 1 and stat < chi2_threshold(1, 0.999)
    for axis in (0, 1):
        freq = batch.samples[:, axis].mean()
        assert abs(freq - 0.5) < 4 * 0.5 / np.sqrt(100_000)


def test_sample_independent_three_coordinates():
    batch = sample_independent(3, 50_000, [UNIFORM, COIN, UNIFORM])
    assert batch.depth == 21
    for axis, spec in [(0, UNIFORM), (2, UNIFORM)]:
        d = ks_statistic(batch.samples[:, axis],
                         lambda x: min(max(float(x), 0.0), 1.0))
        assert d < ks_threshold(50_000, 0.999)
    assert abs(batch.samples[:, 1].mean() - 0.5) < 4 * 0.5 / np.sqrt(50_000)


def test_pairwise_independence_contingency_4x4():
    batch = sample_independent(13, 100_000, [UNIFORM, UNIFORM])
    bins = np.minimum((batch.samples * 4).astype(int), 3)
    table = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            table[i, j] = np.sum((bins[:, 0] == i) & (bins[:, 1] == j))
    stat, dof = chi_squared_contingency(table)
    assert dof == 9 and stat < chi2_threshold(9, 0.999)


@pytest.mark.parametrize("spec,cell", [
    (UNIFORM, 2**64 - 1), (COIN, 2**64 - 1), (UNIFORM, 2**64 - 2**10),
    # the float midpoint 1/2 + 2**-65 rounds onto the coin's boundary
    (COIN, 2**63),
], ids=["uniform-top", "coin-top", "uniform-top-2^10", "coin-half"])
def test_sample_independent_cell_midpoint_rounding(monkeypatch, spec, cell):
    monkeypatch.setattr(sampling, "_draw_bits", lambda rng, nbits, size:
                        np.full(size, cell, dtype=np.uint64))
    batch = sample_independent(0, 3, [spec])
    assert batch.depth == 64
    expect = float(spec.quantile(Fraction(2 * cell + 1, 2**65)))
    assert batch.samples[:, 0].tolist() == [expect] * 3


def test_sample_batch_deterministic_and_csv():
    a = sample_independent(1, 10, [UNIFORM, COIN])
    b = sample_independent(1, 10, [UNIFORM, COIN])
    assert np.array_equal(a.samples, b.samples)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    a.write_csv(buf_a)
    b.write_csv(buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()
    header = buf_a.getvalue().splitlines()[0]
    assert header == "uniform,coin"
    assert len(buf_a.getvalue().splitlines()) == 11


def test_sample_independent_rejects_excess_bits():
    with pytest.raises(PrecisionError):
        sample_independent(0, 10, [UNIFORM, COIN], depth=40)
