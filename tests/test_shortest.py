"""`_shortest.repr_bytes` against its oracle, Python's `repr`."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cubefold._shortest import WIDTH, repr_bytes
from cubefold.sampling import DistributionSpec, sample_independent


def assert_repr(values):
    """repr_bytes spells every float64 of `values` as `repr` does."""
    values = np.asarray(values, dtype=np.float64).ravel()
    rows, lengths = repr_bytes(values.view(np.uint64))
    assert rows.dtype == np.uint8 and rows.shape == (len(values), lengths.max())
    got = [bytes(row[:n]).decode("ascii") for row, n in zip(rows, lengths)]
    want = list(map(repr, values.tolist()))
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad, f"{len(bad)} of {len(values)} differ, first {bad[:3]}"
    pad = np.arange(rows.shape[1]) >= lengths[:, None]
    assert not rows[pad].any()


def neighbours(values):
    """values, one ulp below and one above, both signs."""
    values = np.asarray(values, dtype=np.float64)
    around = np.concatenate([np.nextafter(values, -np.inf), values,
                             np.nextafter(values, np.inf)])
    return np.concatenate([around, -around])


# exponent fields at the edges: subnormals and zeros, the smallest
# normals, the largest, and infinities and NaNs
EDGE_EXPONENTS = [0, 1, 2, 1022, 1023, 2045, 2046, 2047]


@st.composite
def doubles(draw):
    """Bit patterns of float64 values, weighted towards the edges."""
    sign = draw(st.integers(0, 1))
    exponent = draw(st.sampled_from(EDGE_EXPONENTS) | st.integers(0, 2047))
    mantissa = draw(st.sampled_from([0, 1, 2, (1 << 52) - 1, 1 << 51])
                    | st.integers(0, (1 << 52) - 1))
    return sign << 63 | exponent << 52 | mantissa


@settings(max_examples=200, deadline=None)
@given(st.lists(doubles() | st.integers(0, (1 << 64) - 1), min_size=1,
                max_size=64))
def test_any_bit_pattern(patterns):
    # NaN payloads of either sign, subnormals, zeros and infinities too
    assert_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_random_bit_patterns():
    rng = np.random.default_rng(20)
    assert_repr(rng.integers(0, 1 << 64, 100_000, dtype=np.uint64,
                             endpoint=False).view(np.float64))


def test_every_power_of_two_and_its_neighbours():
    # 2^-1074 .. 2^1023; at a significand of exactly 2^52 the rounding
    # interval is half as wide below as above
    assert_repr(neighbours(np.ldexp(1.0, np.arange(-1074, 1024))))


def test_the_smallest_subnormals():
    # with the Java reference's two extra rules, 4.9e-324 and 7.9e-323
    # where repr writes 5e-324 and 8e-323
    assert_repr(np.arange(1, 4097, dtype=np.uint64).view(np.float64))
    assert_repr(-np.arange(1, 4097, dtype=np.uint64).view(np.float64))


def test_every_power_of_ten_and_its_neighbours():
    # 1e-5 and 1e-4, 1e15, 1e16 and 1e17 switch layouts; 1e-323 .. 1e308
    # give every exponent, three-digit ones included
    assert_repr(neighbours([float(f"1e{e}") for e in range(-323, 309)]))


def test_every_layout_near_the_point_switches():
    # n digits with the point p places after the first digit's place
    values = [float(f"0.{'123456789' * 2}"[:2 + n] + f"e{p}")
              for p in range(-25, 26) for n in range(1, 18)]
    assert_repr(neighbours(values))


def test_zeros_infinities_and_nans():
    nan = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                    0xFFFFFFFFFFFFFFFF], dtype=np.uint64).view(np.float64)
    assert_repr([0.0, -0.0, np.inf, -np.inf, *nan])


def test_uniform_draws():
    assert_repr(np.random.default_rng(3).random(100_000))


def test_no_values():
    rows, lengths = repr_bytes(np.zeros(0, dtype=np.uint64))
    assert rows.shape == (0, 0) and lengths.shape == (0,)
    assert WIDTH == len(repr(-2.2250738585072014e-308))


# the laws of the sample-csv benchmark workload, and its spec files of
# n = 1, 2, 3 and 8 coordinates
ATOMS = {"atoms": [["1/8", "1/8"], ["3/8", "3/8"], ["5/8", "1/4"], ["7/8", "1/4"]]}
PIECES = {"pieces": [["0", "1/2", "0", "1/4"], ["1/2", "2", "1/4", "1"]]}
MIXED = {"atoms": [["1/4", "1/4"], ["3/2", "1/4"]],
         "pieces": [["1/2", "1", "1/4", "1/2"], ["2", "4", "3/4", "1"]]}
BENCHMARK_SPECS = {1: [ATOMS], 2: [PIECES, MIXED], 3: [MIXED, PIECES, ATOMS],
                   8: [ATOMS, PIECES, MIXED, ATOMS, PIECES, MIXED, ATOMS, PIECES]}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", sorted(BENCHMARK_SPECS))
def test_benchmark_spec_values(n, seed):
    specs = [DistributionSpec(**law) for law in BENCHMARK_SPECS[n]]
    assert_repr(sample_independent(seed, 20000, specs).samples)
