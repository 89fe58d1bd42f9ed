import csv
import io
import json
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubefold import sampling
from cubefold.curve import forward_map
from cubefold.dyadic import CubePoint, PrecisionError, RangeError, UnitScalar
from cubefold.sampling import (
    DistributionSpec,
    SpecValidationError,
    sample_independent,
    split_uniform,
)
from cubefold.stats import chi2_threshold
from helpers import chi_squared_contingency, ks_statistic, ks_threshold, mesh_scan_quantile

UNIFORM = DistributionSpec(pieces=[("0", "1", "0", "1")], name="uniform")
COIN = DistributionSpec(atoms=[("0", "1/2"), ("1", "1/2")], name="coin")
POINT_MASS = DistributionSpec(atoms=[("0", "1")])


def test_cdf_uniform():
    assert UNIFORM.cdf(Fraction(3, 10)) == Fraction(3, 10)


def test_cdf_point_mass_right_continuous():
    assert POINT_MASS.cdf(-1) == 0
    assert POINT_MASS.cdf(0) == 1


def test_cdf_two_atoms():
    assert COIN.cdf(Fraction(1, 2)) == Fraction(1, 2)


def test_quantile_uniform_is_identity():
    assert UNIFORM.quantile(Fraction(7, 10)) == Fraction(7, 10)


def test_quantile_two_atoms_sup_form():
    assert COIN.quantile(Fraction(3, 10)) == 0
    assert COIN.quantile(Fraction(7, 10)) == 1
    assert COIN.quantile(Fraction(1, 2)) == 0  # plateau boundary: sup form


def test_quantile_rejects_endpoints():
    for u in (0, 1):
        with pytest.raises(RangeError):
            UNIFORM.quantile(u)


@pytest.mark.parametrize("u, shown", [
    (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), ("x", "x"),
    ("1/0", "1/0"), (2.0, "2"), ("3/2", "3/2")],
    ids=["nan", "inf", "-inf", "text", "zero-denominator", "float-2", "text-3/2"])
def test_quantile_names_an_argument_outside_the_unit_interval(u, shown):
    # NaN and text raised ValueError, an infinity OverflowError, where
    # quantile_batch answered NaN with RangeError; a value Fraction reads
    # is echoed as that Fraction
    with pytest.raises(RangeError, match=re.escape(
            f"quantile argument must be in (0, 1), got {shown}") + "$"):
        UNIFORM.quantile(u)


@pytest.mark.parametrize("u", [0.25, "1/4", "0.25", Fraction(1, 4)])
def test_quantile_reads_what_fraction_reads(u):
    assert UNIFORM.quantile(u) == Fraction(1, 4)


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


@pytest.mark.parametrize("name", [[1, 2], 3, None, {"x": 1}])
def test_spec_rejects_a_name_that_is_not_a_string(name):
    with pytest.raises(SpecValidationError) as exc:
        DistributionSpec.from_dict({"atoms": [{"at": "0", "mass": "1"}],
                                    "name": name})
    assert exc.value.field == "name"


def test_spec_rejects_a_name_utf_8_cannot_encode():
    # a lone surrogate, which a JSON escape gives, echoed by its repr
    with pytest.raises(SpecValidationError, match=r"^name: UTF-8 cannot encode 'x\\udc80'$") as exc:
        DistributionSpec(atoms=[("0", "1")], name="x\udc80")
    assert exc.value.field == "name"


def test_sample_independent_rejects_a_spec_that_is_not_one_before_drawing(monkeypatch):
    # None was drawn for, then raised AttributeError on quantile_batch
    def no_draw(*args):
        raise AssertionError("drew")

    monkeypatch.setattr(sampling, "_draw_bits", no_draw)
    with pytest.raises(TypeError, match="^spec must be a DistributionSpec, got NoneType$"):
        sample_independent(0, 5, [UNIFORM, None])


@pytest.mark.parametrize("count", [0, 5])
@pytest.mark.parametrize("spec,field", [
    (DistributionSpec(atoms=[("1e400", "1")]), "at"),
    (DistributionSpec(pieces=[("0", "1e400", "0", "1")]), "to")], ids=["at", "to"])
def test_sample_independent_rejects_a_spec_no_float_holds_before_drawing(
        monkeypatch, count, spec, field):
    # the float tables were built at the first chunk: N = 0 returned an
    # empty batch, and N = 5 drew and mapped a chunk before it raised
    def no_draw(*args):
        raise AssertionError("drew")

    monkeypatch.setattr(sampling, "_draw_bits", no_draw)
    with pytest.raises(SpecValidationError, match=f"^{field}: .* does not fit a float64$"):
        sample_independent(0, count, [UNIFORM, spec])


def test_sample_batch_rejects_samples_that_are_not_an_array():
    # a list raised AttributeError on its missing ndim
    with pytest.raises(TypeError, match="^samples must be a numpy array, got list$"):
        sampling.SampleBatch([[0.5]], 0, 1, (UNIFORM,))


def test_spec_dict_roundtrip():
    rng = random.Random(17)
    specs = [COIN, UNIFORM] + [_random_spec(rng) for _ in range(40)]
    # some random laws mix atoms and pieces
    assert any(doc["atoms"] and doc["pieces"]
               for doc in map(DistributionSpec.to_dict, specs))
    for spec in specs:
        doc = spec.to_dict()
        again = DistributionSpec.from_dict(json.loads(json.dumps(doc)))
        assert again.to_dict() == doc
        for u in (Fraction(1, 7), Fraction(1, 3), Fraction(1, 2), Fraction(5, 6)):
            assert again.quantile(u) == spec.quantile(u)


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
    # a scalar with fewer bits than n * depth splits as its value
    assert split_uniform(UnitScalar(1, 5), 2, 3) == split_uniform(UnitScalar(2, 6), 2, 3)
    for n in (0, 9):
        with pytest.raises(RangeError):
            split_uniform(UnitScalar(1, 64), n, 1)


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


def test_sample_chunk_i_draws_from_child_i_of_the_seed(monkeypatch):
    # chunk i of _CHUNK rows reads the SeedSequence child of spawn key (i,)
    drawn = []
    real_draw = sampling._draw_bits

    def recording_draw(rng, nbits, size):
        seq = rng.bit_generator.seed_seq
        drawn.append((seq.entropy, seq.spawn_key, size))
        return real_draw(rng, nbits, size)

    monkeypatch.setattr(sampling, "_draw_bits", recording_draw)
    batch = sample_independent(4, 3 * sampling._CHUNK + 5, [UNIFORM, COIN])
    sizes = [sampling._CHUNK] * 3 + [5]
    assert drawn == [(4, (i,), size) for i, size in enumerate(sizes)]
    assert batch.samples.shape == (3 * sampling._CHUNK + 5, 2)


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


def test_write_csv_values_are_float_repr():
    values = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e-300,
              0.1, 1 / 3, 123456789.125, -2.5]
    batch = sampling.SampleBatch(np.array(values).reshape(-1, 2), 0, 1,
                                 (UNIFORM, COIN))
    buf = io.StringIO()
    batch.write_csv(buf)
    rows = [f"{values[i]!r},{values[i + 1]!r}" for i in range(0, 10, 2)]
    assert buf.getvalue() == "\r\n".join(["uniform,coin"] + rows) + "\r\n"


@st.composite
def _sample_columns(draw, rows):
    """A float64 sample of `rows` rows, heavily repeated values per column.

    Each column draws from a small pool; the first also holds 0.0 and -0.0,
    so bit patterns that compare equal as values must stay apart.
    """
    n = draw(st.integers(1, 8))
    names = draw(st.lists(st.text(alphabet='ab ,"\'', max_size=4),
                          min_size=n, max_size=n))
    extremes = st.sampled_from([5e-324, -5e-324, 2.225073858507201e-308,
                                math.inf, -math.inf, 0.0, -0.0, 1e300])
    pools = [[0.0, -0.0]] + [[] for _ in range(n - 1)]
    for pool in pools:
        pool += draw(st.lists(st.floats() | extremes, min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    samples = np.column_stack(
        [np.array(pool)[rng.integers(0, len(pool), rows)] for pool in pools])
    return samples, names


@pytest.mark.parametrize("rows", [0, 1, sampling._CHUNK - 1, sampling._CHUNK,
                                  sampling._CHUNK + 1, 2 * sampling._CHUNK + 3])
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_write_csv_matches_csv_writer(rows, data):
    samples, names = data.draw(_sample_columns(rows))
    specs = tuple(DistributionSpec(pieces=[("0", "1", "0", "1")], name=name)
                  for name in names)
    batch = sampling.SampleBatch(samples, 0, 1, specs)
    expect = io.StringIO()
    reference = csv.writer(expect)
    reference.writerow(batch.column_names())
    reference.writerows(samples.tolist())
    got = io.StringIO()
    batch.write_csv(got)
    assert got.getvalue().encode() == expect.getvalue().encode()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sample_cells_match_forward_map(data):
    # a uniform variate at depth <= 52 is its exact cell midpoint, so its
    # cell read back per axis must map forward to the n*depth-bit draw
    n = data.draw(st.integers(1, 8))
    depth = data.draw(st.integers(1, min(64 // n, 52)))
    draws = data.draw(st.lists(st.integers(0, 2 ** (n * depth) - 1),
                               min_size=1, max_size=8))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "_draw_bits", lambda rng, nbits, size:
                   np.array(draws, dtype=np.uint64))
        batch = sample_independent(0, len(draws), [UNIFORM] * n, depth=depth)
    for q, row in zip(draws, batch.samples.tolist()):
        cells = [math.floor(x * 2**depth) for x in row]
        pt = CubePoint(tuple(UnitScalar(c, depth) for c in cells))
        assert forward_map(pt, depth) == UnitScalar(q, n * depth)


def test_sample_independent_rejects_excess_bits():
    with pytest.raises(PrecisionError):
        sample_independent(0, 10, [UNIFORM, COIN], depth=40)


@pytest.mark.parametrize("call,error,message", [
    (lambda: sample_independent(-1, 10, [UNIFORM]), RangeError,
     "seed must be >= 0, got -1"),
    (lambda: sample_independent(np.int64(-5), 10, [UNIFORM]), RangeError,
     "seed must be >= 0, got -5"),
    (lambda: sample_independent(0, 10, [UNIFORM], depth=2.5), TypeError,
     "'float' object cannot be interpreted as an integer"),
    (lambda: sample_independent(1.5, 10, [UNIFORM]), TypeError,
     "'float' object cannot be interpreted as an integer"),
    (lambda: sample_independent(0, 10.0, [UNIFORM]), TypeError,
     "'float' object cannot be interpreted as an integer"),
    (lambda: sample_independent("1", 10, [UNIFORM]), TypeError,
     "'str' object cannot be interpreted as an integer"),
], ids=["seed-1", "seed-int64", "depth-float", "seed-float", "count-float",
        "seed-str"])
def test_sample_independent_reads_integer_arguments(monkeypatch, call, error, message):
    # as monte_carlo_uniformity does: every check before any draw
    def no_draw(rng, bits, count):
        raise AssertionError("drew before checking the arguments")

    monkeypatch.setattr(sampling, "_draw_bits", no_draw)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_sample_independent_takes_numpy_integer_arguments():
    a = sample_independent(np.uint8(3), np.int64(10), [UNIFORM, COIN], depth=np.int32(16))
    b = sample_independent(3, 10, [UNIFORM, COIN], depth=16)
    assert a.samples.tobytes() == b.samples.tobytes() and a.depth == b.depth == 16


@pytest.mark.parametrize("call,error,message", [
    (lambda: sample_independent(0, 10, []), RangeError,
     "need 1..8 distributions, got 0"),
    (lambda: sample_independent(0, 10, [UNIFORM] * 9), RangeError,
     "need 1..8 distributions, got 9"),
    (lambda: sample_independent(0, -1, [UNIFORM]), RangeError,
     "count must be >= 0, got -1"),
    (lambda: sample_independent(0, 10, [UNIFORM], depth=0), RangeError,
     "depth must be >= 1, got 0"),
    (lambda: DistributionSpec(), SpecValidationError,
     "atoms: distribution has no elements"),
    (lambda: DistributionSpec(pieces=[("0", "1", "1/2", "1/4")]),
     SpecValidationError, "cdf_to: CDF must be non-decreasing"),
    (lambda: DistributionSpec.from_dict([1]), SpecValidationError,
     "distribution: expected an object"),
    # a longer row lost its extra value, a shorter one failed to unpack
    (lambda: DistributionSpec(atoms=[(0, "1/2", 7), (1, "1/2")]), SpecValidationError,
     "atoms: expected 2 values per row, got 3"),
    (lambda: DistributionSpec(pieces=[(0, 1, 0)]), SpecValidationError,
     "pieces: expected 4 values per row, got 3"),
    # str() of the Fraction raised Python's digit-limit ValueError
    (lambda: POINT_MASS.quantile(Fraction(10 ** 5000)), RangeError,
     "quantile argument must be in (0, 1), got %s..." % ("1" + "0" * 36)),
    (lambda: UNIFORM.quantile_batch([0.0]), RangeError,
     "quantile arguments must be in (0, 1)"),
    # NaN fails every comparison: searchsorted once put it past the end
    (lambda: UNIFORM.quantile_batch([0.5, math.nan]), RangeError,
     "quantile arguments must be in (0, 1)"),
    (lambda: sampling.SampleBatch(np.zeros((3, 2)), 0, 8, (UNIFORM,)),
     RangeError, "one sample column per distribution required"),
    (lambda: sampling.SampleBatch(np.zeros((3, 1), dtype=np.float32), 0, 8,
                                  (UNIFORM,)),
     RangeError, "samples must be float64, got float32"),
], ids=["no-specs", "nine-specs", "count-1", "depth0", "no-elements",
        "cdf-decreases", "from-dict-list", "long-row", "short-row", "quantile-huge",
        "quantile-batch-0", "quantile-batch-nan",
        "columns",
        "float32"])
def test_sampling_guards_raise_their_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_sample_batches_compare_and_hash_by_identity():
    # generated over the samples array, == raised ValueError and hash TypeError
    a = sample_independent(1, 4, [UNIFORM])
    b = sample_independent(1, 4, [UNIFORM])
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


def test_quantile_batch_at_a_breakpoint_that_is_not_dyadic():
    # float(0.1) lies above 1/10, so F(0) < 0.1 and the atom at 1 holds it
    spec = DistributionSpec(atoms=[("0", "1/10"), ("1", "9/10")])
    assert spec.quantile(Fraction(0.1)) == 1
    assert spec.quantile_batch([0.1]).tolist() == [1.0]


@given(st.lists(st.integers(1, 1000), min_size=2, max_size=6))
def test_quantile_batch_picks_the_exact_element_at_every_breakpoint(weights):
    total = sum(weights)
    spec = DistributionSpec(atoms=[(i, Fraction(w, total))
                                   for i, w in enumerate(weights)])
    top = Fraction(0)
    for w in weights[:-1]:
        top += Fraction(w, total)
        x = float(top)
        for u in (math.nextafter(x, 0.0), x, math.nextafter(x, 1.0)):
            assert spec.quantile_batch([u])[0] == float(spec.quantile(Fraction(u)))
