import json
import random
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cubefold import measure
from cubefold.curve import forward_map_batch, inverse_map, inverse_map_batch
from cubefold.dyadic import DyadicRect, RangeError, UnitScalar
from cubefold.measure import (
    BLOCK,
    CUBE,
    SEGMENT,
    CellUnion,
    VerificationReport,
    _bin_counts,
    monte_carlo_uniformity,
    pushforward,
    rect_measure_check,
)
from cubefold.stats import chi2_threshold, chi_squared
from helpers import (
    brute_force_cells,
    brute_force_corner,
    make_point,
    packed_cell,
    path_index,
    stream_bin_counts,
    unpack_corners,
)


def _random_cube_union(rng, d, depth, count):
    indices = {rng.randrange((1 << d) ** depth) for _ in range(count)}
    return CellUnion.of_cube(d, depth, indices)


def test_pushforward_empty():
    cu = CellUnion.of_cube(2, 3, [])
    out = pushforward(cu)
    assert out.measure() == 0 == cu.measure()


def test_pushforward_total_mass():
    depth = 3
    everything = CellUnion.of_cube(2, depth, range(4 ** depth))
    out = pushforward(everything)
    assert out.measure() == 1
    assert out.members == frozenset(range(4 ** depth))


def test_pushforward_random_37_cells_depth4():
    rng = random.Random(37)
    indices = set()
    while len(indices) < 37:
        indices.add(rng.randrange(4 ** 4))
    cu = CellUnion.of_cube(2, 4, indices)
    out = pushforward(cu)
    assert len(out.members) == 37
    assert cu.measure() == out.measure() == Fraction(37, 256)


def test_pushforward_exhaustive_small_depths():
    # every union is measure-preserving; check all singletons and all pairs
    for depth in range(4):
        for q in range(4 ** depth):
            cu = CellUnion.of_cube(2, depth, [q])
            assert pushforward(cu).measure() == cu.measure()
    for a in range(16):
        for b in range(a + 1, 16):
            cu = CellUnion.of_cube(2, 2, [a, b])
            assert pushforward(cu).measure() == Fraction(2, 16)


def test_pushforward_randomized_deep_unions():
    rng = random.Random(99)
    for depth in (5, 6, 7, 8):
        for _ in range(50):
            cu = _random_cube_union(rng, 2, depth, rng.randint(0, 40))
            assert pushforward(cu).measure() == cu.measure()


def test_disjoint_unions_have_disjoint_images():
    rng = random.Random(4)
    for _ in range(50):
        a = _random_cube_union(rng, 2, 4, 20)
        b_members = set()
        while len(b_members) < 10:
            q = rng.randrange(256)
            # cube members are grid cells: compare a and b in the cube
            if not CellUnion.of_cube(2, 4, [q]).members & a.members:
                b_members.add(q)
        b = CellUnion.of_cube(2, 4, b_members)
        assert not (pushforward(a).members & pushforward(b).members)


@pytest.mark.parametrize("d,depth", [(1, 0), (1, 6), (2, 0), (2, 4), (3, 3),
                                     (8, 0), (8, 1)])
def test_pushforward_lands_on_brute_force_cells(d, depth):
    # each image index, inverted by the batch kernel, is the lower corner
    # that child_order recursion gives the cube cell it came from
    cells = brute_force_cells(d, depth)
    paths = sorted(cells)
    rng = random.Random(d * 100 + depth)
    for _ in range(5):
        chosen = rng.sample(paths, rng.randint(0, min(len(paths), 40)))
        image = pushforward(CellUnion.of_cube(d, depth, [path_index(p, d) for p in chosen]))
        indices = np.array(sorted(image.members), dtype=np.uint64)
        corners = unpack_corners(inverse_map_batch(indices, depth, d), depth, d)
        assert sorted(map(tuple, corners.tolist())) == \
            sorted(cells[p] for p in chosen)


@pytest.mark.parametrize("build", [
    lambda: CellUnion(CUBE, 2, 2, frozenset({16})),
    lambda: CellUnion(SEGMENT, 2, 2, frozenset({-1})),
    lambda: CellUnion.of_segment(3, 1, [8]),
    # of_cube checks its indices as segment cells: the inverse map ignores
    # bits above d*depth, so 64 at d=2 depth 3 would fold into cell 0
    lambda: CellUnion.of_cube(2, 3, [64]),
    lambda: CellUnion.of_cube(2, 3, [0, 2**64]),
    lambda: CellUnion.of_cube(2, 3, [-1]),
    lambda: CellUnion.of_cube(2, 3, [True]),
    lambda: CellUnion.of_cube(2, 3, [1.0]),
    lambda: CellUnion(CUBE, 0, 1, frozenset()),
    lambda: CellUnion(SEGMENT, 9, 1, frozenset()),
    lambda: CellUnion(CUBE, 2, -1, frozenset()),
    lambda: CellUnion("torus", 2, 1, frozenset({0})),
    lambda: CellUnion(SEGMENT, 2, 2, frozenset({1.5})),
    lambda: CellUnion(SEGMENT, 2, 2, frozenset({(0, 1)})),
    lambda: CellUnion(CUBE, 2, 2, frozenset({"3"})),
    lambda: CellUnion(SEGMENT, 2, 2, frozenset({2, np.float64(3.0)})),
    lambda: CellUnion(SEGMENT, 2, 2, frozenset({True})),
    lambda: CellUnion(CUBE, 2, 2, frozenset({np.True_})),
], ids=["index-16", "index-neg", "segment-index-8", "cube-index-64",
        "cube-index-2^64", "cube-index-neg", "cube-bool", "cube-float", "d0", "d9",
        "depth-1", "unknown-space", "float-member", "tuple-member", "str-member",
        "numpy-float-member", "bool-member", "numpy-bool-member"])
def test_cell_union_rejects_bad_cells(build):
    with pytest.raises(RangeError):
        build()


def test_cell_union_names_a_non_integer_member_and_takes_numpy_ints():
    with pytest.raises(RangeError, match=r"^cell index '3' is not an integer >= 0$"):
        CellUnion(SEGMENT, 2, 2, frozenset({0, "3"}))
    members = frozenset({np.int64(3), np.uint8(2), 15})
    cu = CellUnion(CUBE, 2, 2, members)
    assert cu.measure() == Fraction(3, 16)
    # grid cells (3, 0), (2, 0) and (3, 3) at depth 2 have the digit paths
    # (3, 3), (3, 2) and (2, 2) in helpers.brute_force_cells
    assert pushforward(cu).members == {15, 14, 10}
    # the bound 4^40 is taken in Python ints from an int64 depth
    assert CellUnion(SEGMENT, 2, np.int64(40), frozenset({5})).members == {5}


@pytest.mark.parametrize("indices,bad", [([1.5, 3], "1.5"), ([1, "3"], "'3'"),
                                         (np.array([2.0]), repr(np.float64(2.0)))],
                         ids=["float", "str", "numpy-float"])
def test_of_segment_rejects_indices_that_are_not_integers(indices, bad):
    # int() would truncate 1.5 and parse "3"; the constructor's check names them
    with pytest.raises(RangeError, match=rf"^cell index {re.escape(bad)} is not an integer >= 0$"):
        CellUnion.of_segment(2, 2, indices)


def test_cell_union_messages_name_the_member_cut_short():
    # the batch maps' reader and its messages: a long member is echoed
    # cut, and one above the depth's last cell names itself and the range
    long = r"^cell index 'xxx.*\.\.\. is not an integer >= 0$"
    with pytest.raises(RangeError, match=long) as err:
        CellUnion.of_segment(2, 2, [1, "x" * 300])
    assert len(str(err.value)) < 80
    with pytest.raises(RangeError, match=r"^cell index must be in 0\.\.15, got 16$"):
        CellUnion.of_segment(2, 2, [3, 16])
    with pytest.raises(RangeError, match=r"^cell index must be in 0\.\.15, got 16$"):
        CellUnion(CUBE, 2, 2, frozenset({np.uint64(16)}))
    with pytest.raises(RangeError, match=r"^cell index -1 is not an integer >= 0$"):
        CellUnion.of_segment(2, 2, [np.int8(-1), 2])
    # a tuple member is one bad member, not a row of two cells
    with pytest.raises(RangeError, match=r"^cell index \(0, 1\) is not an integer >= 0$"):
        CellUnion(SEGMENT, 2, 2, frozenset({(0, 1)}))


def test_cell_union_counts_a_repeated_member_once():
    assert CellUnion(SEGMENT, 2, 2, [1, 1]).measure() == Fraction(1, 16)
    # a correct map keeps the measure of a union given with a repeat
    cu = CellUnion(CUBE, 2, 2, (3, 3, 5))
    assert cu.measure() == pushforward(cu).measure() == Fraction(1, 8)
    # built from a list or from numpy ints, a union hashes and equals the
    # one built from a frozenset of Python ints
    listed, ints = CellUnion(SEGMENT, 2, 2, [1, 2]), CellUnion(SEGMENT, 2, 2, frozenset({1, 2}))
    numpy_ints = CellUnion(SEGMENT, 2, 2, frozenset({np.int64(1), np.uint8(2)}))
    assert listed == numpy_ints == ints and hash(listed) == hash(ints)
    assert all(type(m) is int for m in numpy_ints.members)


def test_of_segment_takes_a_uint64_array_as_the_equal_ints():
    ints = [0, 3, 15, 7]
    cu = CellUnion.of_segment(2, 2, np.array(ints, dtype=np.uint64))
    assert cu == CellUnion.of_segment(2, 2, ints)
    assert cu.measure() == Fraction(4, 16)
    # above 2^63 too, at the 64-bit boundary
    top = [(1 << 64) - 1, 1 << 63]
    assert CellUnion.of_segment(8, 8, np.array(top, dtype=np.uint64)) == \
        CellUnion.of_segment(8, 8, top)


@pytest.mark.parametrize("d", range(1, 9))
def test_of_cube_of_every_index_is_every_cell(d):
    for depth in range(max(1, 12 // d) + 1):
        total = 1 << d * depth
        cu = CellUnion.of_cube(d, depth, range(total))
        assert len(cu.members) == total and max(cu.members) < total
        assert pushforward(cu).members == frozenset(range(total))


def test_pushforward_rejects_segment_union():
    with pytest.raises(RangeError, match="cube-side"):
        pushforward(CellUnion.of_segment(2, 2, [0, 1]))


def test_cube_members_are_packed_grid_cells():
    # of_cube finds the cell of each digit path's index; pushforward
    # sends it back
    cells = brute_force_cells(3, 2)
    cu = CellUnion.of_cube(3, 2, [path_index(p, 3) for p in cells])
    assert cu.members == {packed_cell(c, 2) for c in cells.values()}
    assert pushforward(cu).members == frozenset(range(64))


@pytest.mark.parametrize("d,depth", [(2, 33), (3, 22), (1, 65), (8, 9)])
def test_cell_helpers_take_the_scalar_maps_beyond_64_bits(d, depth):
    # beyond the kernels' 64 bits the batch maps walk each cell in Python
    # ints, in an object array of the input's shape; the cells still
    # follow child_order
    rng = random.Random(d * depth)
    indices = [0, (1 << d * depth) - 1] + [rng.getrandbits(d * depth) for _ in range(6)]
    cells = inverse_map_batch(np.array(indices, dtype=object).reshape(2, 4), depth, d)
    assert cells.dtype == object and cells.shape == (2, 4)
    assert cells.ravel().tolist() == [packed_cell(brute_force_corner(d, depth, q), depth)
                                      for q in indices]
    back = forward_map_batch(cells, depth, d)
    assert back.dtype == object and back.shape == (2, 4)
    assert back.ravel().tolist() == indices
    assert pushforward(CellUnion.of_cube(d, depth, indices)).members == set(indices)


@pytest.mark.parametrize("bits", [0, 1, 6, 8, 9, 33, 64, 65, 200])
def test_uniform_cells_fill_their_bits(bits):
    # the draws of roundtrip and measure: below 2^bits, uint64 up to 64
    # bits, and the top and bottom bits each set in some draws, clear in
    # others
    cells = measure._uniform_cells(random.Random(bits), (50, 40), bits)
    assert cells.shape == (50, 40)
    assert cells.dtype == (np.uint64 if bits <= 64 else object)
    values = [int(c) for c in cells.flat]
    assert all(0 <= v < 1 << bits for v in values)
    for b in {0, bits - 1} if bits else ():
        assert 0 < sum(v >> b & 1 for v in values) < len(values)


def test_rect_measure_check_beyond_64_bits():
    # two cells of side 2^-33 at d=2: the scalar forward map decides
    box = DyadicRect(make_point([6, 0], 33), (32, 33))
    assert rect_measure_check(box, 33).passed


def test_report_pass_flag_follows_statistic():
    assert VerificationReport.from_statistic("x", "s", 1.0, 2.0).passed
    assert not VerificationReport.from_statistic("x", "s", 3.0, 2.0).passed


def test_rect_measure_check_half_square():
    half = DyadicRect(make_point([0, 0], 1), (1, 0))
    for depth in range(1, 7):
        assert rect_measure_check(half, depth).passed


def test_rect_measure_check_single_cell():
    for depth in (1, 2, 3):
        lower = inverse_map(UnitScalar(5 % 4 ** depth, 2 * depth), depth, 2)
        rect = DyadicRect(lower, (depth, depth))
        report = rect_measure_check(rect, depth)
        assert report.passed


def test_rect_measure_check_full_square():
    full = DyadicRect(make_point([0, 0], 0), (0, 0))
    assert rect_measure_check(full, 4).passed


def test_rect_measure_check_rejects_misaligned():
    thin = DyadicRect(make_point([0, 0], 3), (3, 0))
    with pytest.raises(RangeError):
        rect_measure_check(thin, 2)  # side 1/8 finer than depth-2 grid
    shifted = DyadicRect(make_point([1, 0], 3), (1, 1))
    with pytest.raises(RangeError):
        rect_measure_check(shifted, 2)  # corner 1/8 off the depth-2 grid


def test_rect_measure_check_bounds_the_cells_it_builds(monkeypatch):
    monkeypatch.setattr(measure, "MAX_CELL_COORDS", 1 << 4)
    # 2^2 cells of 2 coordinates is within 2^4; 2^4 cells are not
    assert rect_measure_check(DyadicRect(make_point([0, 0], 2), (2, 2)), 3).passed
    with pytest.raises(RangeError, match=re.escape(
            "box has 2^4 cells of 2 coordinates; rect_measure_check "
            "takes cells * d <= 2^4")):
        rect_measure_check(DyadicRect(make_point([0, 0], 1), (1, 1)), 3)


def test_monte_carlo_uniformity_passes():
    report = monte_carlo_uniformity(200_000, 8, seed=123)
    assert report.passed
    assert report.seed == 123


def test_monte_carlo_deterministic_for_seed():
    a = monte_carlo_uniformity(120_000, 4, seed=5)
    b = monte_carlo_uniformity(120_000, 4, seed=5)
    assert a == b


def test_monte_carlo_degenerate_draws_fail(monkeypatch):
    def constant_draw(rng, size, depth):
        return np.zeros(size, dtype=np.uint64)

    monkeypatch.setattr(measure, "_draw_cells", constant_draw)
    report = monte_carlo_uniformity(200_000, 8, seed=1)
    assert not report.passed


@pytest.mark.parametrize("grid_k", [3, 5, 10, 100])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_monte_carlo_passes_at_non_dyadic_grids(grid_k, seed):
    # bins of a k that is not a power of two hold unequal numbers of
    # depth-8 grid points; a flat expectation fails a correct map here
    assert monte_carlo_uniformity(1_000_000, grid_k, seed).passed


@pytest.mark.parametrize("grid_k", [3, 5, 10, 16, 25])
def test_monte_carlo_expectation_is_the_exact_grid_law(monkeypatch, grid_k):
    # every depth-8 segment cell drawn once: the counts are the exact law
    # of the corners, so they must match the expectation to the last bit
    def every_cell(rng, size, depth):
        return np.arange(size, dtype=np.uint64)

    monkeypatch.setattr(measure, "_draw_cells", every_cell)
    report = monte_carlo_uniformity(4 ** 8, grid_k, seed=0)
    assert report.statistic == 0.0


def test_monte_carlo_single_bin_trivially_passes():
    assert monte_carlo_uniformity(100, 1, seed=0).passed


def test_monte_carlo_rejects_undersampling():
    with pytest.raises(RangeError,
                       match=r"^need at least 25600 samples for a 16x16 grid, got N=100$"):
        monte_carlo_uniformity(100, 16, seed=0)


def test_monte_carlo_rejects_an_empty_grid():
    with pytest.raises(RangeError, match=r"^grid must be in 1..2147483648, got 0$"):
        monte_carlo_uniformity(100, 0, 0)


def test_bin_counts_are_exactly_uniform_over_all_cells():
    # exhaustive depth-4 enumeration: every bin of a 4x4 grid gets the
    # same number of cells, the exact-count core of uniformity
    counts = stream_bin_counts(np.arange(256, dtype=np.uint64), 4, 4)
    assert list(counts) == [16] * 16
    stat, dof = chi_squared(counts, np.full(16, 16.0))
    assert stat == 0.0 and dof == 15


# records of the whole-chunk binning, before it went per block: the two
# benchmark shapes, a tail that is not a multiple of BLOCK, and 8 chunks
FROZEN_UNIFORMITY = {
    (250000, 16, 3): '{"name": "uniformity", "passed": true, "scope": '
    '"N=250000 grid=16x16 depth=8", "seed": 3, "statistic": 262.792192, '
    '"threshold": 330.51974363403815}',
    (250000, 32, 3): '{"name": "uniformity", "passed": true, "scope": '
    '"N=250000 grid=32x32 depth=8", "seed": 3, "statistic": 1060.125696, '
    '"threshold": 1168.4971641798852}',
    (300001, 8, 11): '{"name": "uniformity", "passed": true, "scope": '
    '"N=300001 grid=8x8 depth=8", "seed": 11, "statistic": 60.04416985276716, '
    '"threshold": 103.44237731984913}',
    (1000000, 16, 7): '{"name": "uniformity", "passed": true, "scope": '
    '"N=1000000 grid=16x16 depth=8", "seed": 7, "statistic": '
    '218.42380799999998, "threshold": 330.51974363403815}',
}


@pytest.mark.parametrize("args", sorted(FROZEN_UNIFORMITY))
def test_monte_carlo_records_frozen(args):
    assert monte_carlo_uniformity(*args).to_json() == FROZEN_UNIFORMITY[args]


@pytest.mark.parametrize("sample_count, grid_k", [
    *(pytest.param(n, 4, id=str(n)) for n in
      (1600, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5, measure._CHUNK + 7)),
    (3 * BLOCK + 5, 3), (measure._CHUNK + 7, 10), (1_000_000, 100),
    (6_604_900, 257), (measure._CHUNK + 7, 2), (250_000, 16), (250_000, 32),
    (409_600, 64)])
def test_monte_carlo_blocked_counts_match_one_call_per_chunk(monkeypatch,
                                                             sample_count,
                                                             grid_k):
    # the folded cell counts against the depth-n kernel run on every draw
    # of each chunk; at k = 2^j the audit counts depth-j ancestor cells
    drawn, seen = [], []
    whole = np.zeros(grid_k * grid_k, dtype=np.int64)

    def draw(rng, size, depth):
        q = rng.integers(0, 1 << (2 * depth), size=size, dtype=np.uint64)
        drawn.append(len(q))
        whole[:] += stream_bin_counts(q, grid_k, depth)
        return q

    def recording_chi_squared(counts, expected):
        seen.append(counts.copy())
        return chi_squared(counts, expected)

    monkeypatch.setattr(measure, "chi_squared", recording_chi_squared)
    monkeypatch.setattr(measure, "_draw_cells", draw)
    monte_carlo_uniformity(sample_count, grid_k, seed=sample_count)
    assert sum(drawn) == sample_count
    assert len(seen) == 1 and seen[0].tolist() == whole.tolist()


@pytest.mark.parametrize("grid_k", [*range(1, 34), 100, 257])
def test_cell_bins_hold_the_exact_grid_law(grid_k):
    # one count per depth-n cell, folded: bin i, j holds per_axis[i] * per_axis[j]
    depth = max(8, (grid_k - 1).bit_length())
    ceil = [-(-i * (1 << depth) // grid_k) for i in range(grid_k + 1)]
    per_axis = [hi - lo for lo, hi in zip(ceil, ceil[1:])]
    counts = _bin_counts(np.ones(4 ** depth, dtype=np.int64), grid_k, depth)
    assert counts.dtype == np.int64
    assert counts.tolist() == np.outer(per_axis, per_axis).ravel().tolist()


@pytest.mark.parametrize("j", range(1, 9))
def test_bin_counts_at_the_level_of_a_dyadic_grid_are_one_per_bin(j):
    # at k = 2^j and level j each depth-j cell is one bin of its own
    counts = _bin_counts(np.ones(4 ** j, dtype=np.int64), 2 ** j, j)
    assert counts.tolist() == [1] * 4 ** j


@pytest.mark.parametrize("grid_k", [3, 16, 100, 257])
def test_bin_counts_match_the_kernel_run_on_every_draw(grid_k):
    # random per-cell counts, folded, against the streaming oracle run on
    # the same draws spelled out one by one
    depth = max(8, (grid_k - 1).bit_length())
    cell_counts = np.random.default_rng(grid_k).integers(0, 4, size=4 ** depth)
    draws = np.repeat(np.arange(4 ** depth, dtype=np.uint64), cell_counts)
    folded = _bin_counts(cell_counts, grid_k, depth)
    assert folded.tolist() == stream_bin_counts(draws, grid_k, depth).tolist()


@pytest.mark.parametrize("sample_count, grid_k, cells", [
    pytest.param(250_000, 16, 4 ** 4, id="250000"),
    pytest.param(1_000_000, 16, 4 ** 4, id="1000000"),
    pytest.param(250_000, 32, 4 ** 5, id="k32-250000"),
    pytest.param(1_000_000, 32, 4 ** 5, id="k32-1000000"),
    pytest.param(1_000_000, 100, 4 ** 8, id="k100-1000000")])
def test_monte_carlo_maps_each_cell_once_whatever_n(monkeypatch, sample_count,
                                                    grid_k, cells):
    # the kernel maps the 4^level counted cells once, to fold their counts,
    # not each draw: depth j at k = 2^j, the draw depth 8 otherwise
    mapped = []
    real = measure.inverse_map_batch

    def counting(indices, depth, dimension):
        mapped.append(len(indices))
        return real(indices, depth, dimension)

    monkeypatch.setattr(measure, "inverse_map_batch", counting)
    assert monte_carlo_uniformity(sample_count, grid_k, seed=2).passed
    assert sum(mapped) == cells


@pytest.mark.parametrize("grid_k", [(1 << 31) + 1, 3_000_000_000, 10 ** 3000],
                         ids=["2^31+1", "3e9", "10^3000"])
def test_monte_carlo_names_the_grid_bound(grid_k):
    # 2*depth > 63 once named neither the grid nor its bound; the check
    # comes before the k*k sample count, which could not be printed
    with pytest.raises(RangeError, match=r"^grid must be in 1..2147483648, got \d"):
        monte_carlo_uniformity(10 ** 6, grid_k, 0)
    with pytest.raises(RangeError, match=r"^need at least \d+ samples for a 2147483648x"):
        monte_carlo_uniformity(10 ** 6, 1 << 31, 0)


@pytest.mark.parametrize("args", [
    (np.int64(250_000), np.int64(16), np.int64(3)),
    (np.uint64(250_000), np.uint8(16), np.uint8(3))], ids=["int64", "uint8"])
def test_monte_carlo_reads_numpy_integer_arguments_as_ints(args):
    # a numpy k had no bit_length, and a uint8 k overflowed in 100*k*k
    assert monte_carlo_uniformity(*args).to_json() == FROZEN_UNIFORMITY[(250000, 16, 3)]


@pytest.mark.parametrize("args", [(250_000.0, 16, 3), (250_000, 16.0, 3),
                                  (250_000, 16, 3.0), (250_000, "16", 3)],
                         ids=["N", "k", "seed", "str-k"])
def test_monte_carlo_rejects_non_integer_arguments(args):
    with pytest.raises(TypeError):
        monte_carlo_uniformity(*args)


@pytest.mark.parametrize("grid_k", [1, 16])
@pytest.mark.parametrize("seed", [-1, np.int64(-5), -10 ** 3000],
                         ids=["-1", "int64", "-10^3000"])
def test_monte_carlo_names_a_negative_seed_before_any_draw(monkeypatch, grid_k, seed):
    def no_draw(rng, size, depth):
        raise AssertionError("drew before checking the seed")

    monkeypatch.setattr(measure, "_draw_cells", no_draw)
    with pytest.raises(RangeError, match=r"^seed must be >= 0, got -\d"):
        monte_carlo_uniformity(250_000, grid_k, seed)


@pytest.mark.parametrize("suite", ["roundtrip", "measure"])
def test_random_suites_read_their_seed_as_an_integer(suite):
    # random.Random would draw seed 1's cells for -1 and reject a numpy int
    with pytest.raises(RangeError, match=r"^seed must be >= 0, got -1$"):
        list(measure.SUITES[suite](2, 3, -1))
    numpy_seed = [r.to_json() for r in measure.SUITES[suite](2, 3, np.int64(3))]
    assert numpy_seed == [r.to_json() for r in measure.SUITES[suite](2, 3, 3)]
    assert json.loads(numpy_seed[0])["seed"] == 3


@pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
def test_monte_carlo_dyadic_bins_are_the_drawn_cells_permuted(monkeypatch, j):
    # at k = 2^j a bin is one depth-j cell, so the counts are the draws'
    # depth-j cell counts moved by the cell -> bin map; the map is taken
    # from the child_order enumeration, not from the kernel
    k, draws, seen = 1 << j, [], []

    def recording_draw(rng, size, depth):
        draws.append(real_draw(rng, size, depth))
        return draws[-1]

    def recording_chi_squared(counts, expected):
        seen.append(counts.copy())
        return chi_squared(counts, expected)

    real_draw = measure._draw_cells
    monkeypatch.setattr(measure, "_draw_cells", recording_draw)
    monkeypatch.setattr(measure, "chi_squared", recording_chi_squared)
    monte_carlo_uniformity(250_000, k, seed=j)
    q = np.concatenate(draws)
    assert len(q) == 250_000
    cell_counts = np.bincount((q >> np.uint64(2 * (8 - j))).astype(np.int64),
                              minlength=4 ** j)
    want = np.zeros(k * k, dtype=np.int64)
    for digits, (x, y) in brute_force_cells(2, j).items():
        want[x * k + y] = cell_counts[int("".join(map(str, digits)), 4)]
    assert len(seen) == 1 and seen[0].tolist() == want.tolist()


def test_monte_carlo_fails_a_map_that_merges_two_cells(monkeypatch):
    # every index of depth-4 cell 37 lands in depth-4 cell 200: the bin
    # of cell 37 stays empty and the bin of cell 200 gets twice its share
    real = measure.inverse_map_batch

    def merged(indices, depth, dimension):
        cell = indices >> np.uint64(2 * (depth - 4))
        moved = (np.uint64(200) << np.uint64(2 * (depth - 4))) | \
            (indices & np.uint64((1 << 2 * (depth - 4)) - 1))
        return real(np.where(cell == 37, moved, indices), depth, dimension)

    assert monte_carlo_uniformity(250_000, 16, seed=4).passed
    monkeypatch.setattr(measure, "inverse_map_batch", merged)
    report = monte_carlo_uniformity(250_000, 16, seed=4)
    assert not report.passed
    assert report.statistic > 2 * report.threshold


@pytest.mark.parametrize("grid_k", [16, 32])
def test_monte_carlo_counts_follow_the_map_at_the_grid_level(monkeypatch, grid_k):
    # a depth-j map that no longer nests in the depth-8 one: two outputs
    # swapped at depth j only.  The audit reads the map at depth j, so its
    # counts leave the depth-8 kernel's run on every draw
    real, drawn, seen = measure.inverse_map_batch, [], []

    def unnested(indices, depth, dimension):
        if depth < 8:
            indices = np.where(indices == 5, 200, np.where(indices == 200, 5, indices))
        return real(indices, depth, dimension)

    def recording_draw(rng, size, depth):
        drawn.append(real_draw(rng, size, depth))
        return drawn[-1]

    def recording_chi_squared(counts, expected):
        seen.append(counts.copy())
        return chi_squared(counts, expected)

    real_draw = measure._draw_cells
    monkeypatch.setattr(measure, "_draw_cells", recording_draw)
    monkeypatch.setattr(measure, "chi_squared", recording_chi_squared)
    monkeypatch.setattr(measure, "inverse_map_batch", unnested)
    monte_carlo_uniformity(250_000, grid_k, seed=grid_k)
    whole = stream_bin_counts(np.concatenate(drawn), grid_k, 8)
    assert len(seen) == 1 and seen[0].tolist() != whole.tolist()
    assert seen[0].sum() == whole.sum() == 250_000


def test_monte_carlo_chunk_i_draws_from_child_i_of_the_seed(monkeypatch):
    # the stream contract: chunk i reads the SeedSequence child of spawn
    # key (i,), whatever spawns it, so records do not depend on the loop
    drawn = []
    real_draw = measure._draw_cells

    def recording_draw(rng, size, depth):
        seq = rng.bit_generator.seed_seq
        drawn.append((seq.entropy, seq.spawn_key, size))
        return real_draw(rng, size, depth)

    monkeypatch.setattr(measure, "_draw_cells", recording_draw)
    monte_carlo_uniformity(3 * measure._CHUNK + 7, 16, seed=9)
    sizes = [measure._CHUNK] * 3 + [7]
    assert drawn == [(9, (i,), size) for i, size in enumerate(sizes)]


def test_monte_carlo_spawns_no_stream_before_its_chunk(monkeypatch):
    # the streams of all chunks were once spawned before the first draw, a
    # list that grew with N: 7.0 MiB at 20000 chunks
    def first_draw(rng, size, depth):
        raise RuntimeError("first draw")

    monkeypatch.setattr(measure, "_draw_cells", first_draw)
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="first draw"):
            monte_carlo_uniformity(20000 * measure._CHUNK, 16, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
