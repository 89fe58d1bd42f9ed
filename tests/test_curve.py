import hashlib
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cubefold import curve
from cubefold.curve import (
    OrientationState,
    child_order,
    compose_n_to_m,
    forward_map,
    forward_map_batch,
    inverse_map,
    inverse_map_batch,
)
from cubefold.dyadic import (
    CubePoint,
    PrecisionError,
    RangeError,
    UnitScalar,
    parse_scalar,
)
from helpers import (
    brute_force_cells,
    brute_force_corner,
    brute_force_locate,
    make_point,
    packed_cell,
    path_index,
    unpack_corners,
)


def test_declared_root_table_d2():
    # lower-left, upper-left, upper-right, lower-right; octant bit a = upper
    # half along axis a
    order = child_order(OrientationState.identity(2))
    assert [octant for octant, _ in order] == [0b00, 0b10, 0b11, 0b01]
    swap, ident, ident2, antiswap = [state for _, state in order]
    assert ident == ident2 == OrientationState.identity(2)
    # swap exchanges the axes (a rotation by one of two axes); antiswap
    # exchanges them and reflects both
    assert (swap.rotation, swap.flips) == (1, 0b00)
    assert (antiswap.rotation, antiswap.flips) == (1, 0b11)


def test_declared_root_table_d1():
    order = child_order(OrientationState.identity(1))
    assert [octant for octant, _ in order] == [0, 1]
    assert all(state == OrientationState.identity(1) for _, state in order)


# sha256 of the lines `d r octant rotation flips` of every child of
# `child_order(OrientationState(d, r, 0))`, d = 1..8, every rotation r
ONE_LEVEL_SHA256 = "b82d9096482af33983f89fc36ee9d9214d3abad4d8597b4966603cb2a9bcea44"


def test_every_one_level_move_is_pinned():
    lines = [f"{d} {r} {octant} {state.rotation} {state.flips}\n"
             for d in range(1, 9) for r in range(d)
             for octant, state in child_order(OrientationState(d, r, 0))]
    assert len(lines) == 3586
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == ONE_LEVEL_SHA256


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_children_permute_octants(d):
    state = OrientationState.identity(d)
    for _ in range(20):
        octants = [o for o, _ in child_order(state)]
        assert sorted(octants) == list(range(1 << d))
        state = random.Random(d).choice([s for _, s in child_order(state)])


def test_d2_reaches_exactly_four_states():
    seen = set()
    frontier = [OrientationState.identity(2)]
    while frontier:
        s = frontier.pop()
        if s in seen:
            continue
        seen.add(s)
        frontier.extend(child for _, child in child_order(s))
    assert len(seen) == 4


def test_rejects_unsupported_dimension():
    with pytest.raises(RangeError):
        OrientationState.identity(0)
    with pytest.raises(RangeError):
        OrientationState.identity(9)


@pytest.mark.parametrize("args,message", [
    ((9, 0, 0), "dimension must be in 1..8, got 9"),
    ((2, 2, 0), "rotation must be in 0..1, got 2"),
    ((2, 0, 4), "flips must be in 0..3, got 4"),
], ids=["dimension", "rotation", "flips"])
def test_orientation_state_guards_raise_their_message(args, message):
    with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
        OrientationState(*args)


def test_forward_map_matches_brute_force_depth2():
    cells = brute_force_cells(2, 2)
    pt = make_point([3, 7], 3)  # (3/8, 7/8)
    digits = brute_force_locate(cells, (Fraction(3, 8), Fraction(7, 8)), 2)
    assert digits == (1, 2)  # one-based (2, 3), frozen from the oracle
    assert forward_map(pt, 2) == UnitScalar(path_index(digits, 2), 4)


def _no_walk(monkeypatch):
    def walked(*args):
        raise AssertionError("the table walk started before the checks")
    monkeypatch.setattr(curve, "_plan", walked)


def test_forward_map_needs_precision(monkeypatch):
    # a point with fewer bits than the depth reads as its value: (1/4, 1/4)
    # lies in the depth-3 cell the brute-force oracle finds for it
    digits = brute_force_locate(brute_force_cells(2, 3), (Fraction(1, 4),) * 2, 3)
    assert forward_map(make_point([1, 1], 2), 3) == UnitScalar(path_index(digits, 2), 6)
    assert forward_map(make_point([1, 1, 1], 4), 5) == \
        forward_map(make_point([2, 2, 2], 5), 5)
    _no_walk(monkeypatch)
    with pytest.raises(RangeError, match="dimension must be in 1..8"):
        forward_map(make_point([0] * 9, 1), 1)
    with pytest.raises(RangeError, match=r"^depth must be >= 0, got -1$"):
        forward_map(make_point([1, 1], 2), -1)


def test_cells_match_brute_force_enumeration():
    # every d; where a table step holds several digits, the depth also
    # reads a padded first step
    for d, depth in [(1, 5), (1, 9), (2, 4), (2, 6), (3, 3), (4, 3), (5, 2),
                     (6, 2), (7, 1), (8, 1)]:
        cells = brute_force_cells(d, depth)
        for digits, corner in cells.items():
            cell = UnitScalar(path_index(digits, d), d * depth)
            pt = inverse_map(cell, depth, d)
            assert tuple(c.mantissa for c in pt.coords) == corner
            assert forward_map(pt, depth) == cell
        indices = [path_index(digits, d) for digits in cells]
        batch = inverse_map_batch(np.array(indices, dtype=np.uint64), depth, d)
        assert list(map(tuple, unpack_corners(batch, depth, d).tolist())) == \
            list(cells.values())


@pytest.mark.parametrize("d,depth", [(1, 6), (2, 6), (3, 4)])
def test_partition_exhaustive(d, depth):
    base = 1 << d
    corners = unpack_corners(
        inverse_map_batch(np.arange(base ** depth, dtype=np.uint64), depth, d), depth, d)
    flat = np.ravel_multi_index(corners.T.astype(np.int64), ((1 << depth),) * d)
    assert len(np.unique(flat)) == base ** depth


@pytest.mark.parametrize("d,depth", [(1, 8), (2, 8), (3, 5)])
def test_adjacency_consecutive_cells_share_a_face(d, depth):
    base = 1 << d
    corners = unpack_corners(inverse_map_batch(
        np.arange(base ** depth, dtype=np.uint64), depth, d), depth, d).astype(np.int64)
    diff = np.abs(np.diff(corners, axis=0))
    assert np.all(diff.sum(axis=1) == 1)
    assert np.all(diff.max(axis=1) == 1)


def test_nesting_cells_extend_by_one_digit():
    rng = random.Random(5)
    for _ in range(200):
        d = rng.randint(1, 3)
        depth = rng.randint(1, 6)
        pt = make_point([rng.getrandbits(8) for _ in range(d)], 8)
        inner = forward_map(pt, depth)
        outer = forward_map(pt, depth - 1)
        # the coarser index is the finer one less its last digit ...
        assert outer.mantissa == inner.mantissa >> d
        # ... so the intervals nest accordingly
        assert outer.as_fraction() <= inner.as_fraction()
        assert (inner.as_fraction() + Fraction(1, (1 << d) ** depth)
                <= outer.as_fraction() + Fraction(1, (1 << d) ** (depth - 1)))


def test_forward_map_first_quadrant():
    pt = make_point([1, 1], 3)  # interior of lower-left quadrant
    assert forward_map(pt, 1).as_fraction() < Fraction(1, 4)


def test_forward_map_matches_brute_force():
    cells = brute_force_cells(2, 4)
    pt = make_point([3 << 1, 7 << 1], 4)  # (3/8, 7/8) at precision 4
    digits = brute_force_locate(cells, (Fraction(3, 8), Fraction(7, 8)), 4)
    q = path_index(digits, 2)
    assert q == 104  # frozen from the oracle
    assert forward_map(pt, 4) == UnitScalar(q, 8)


def test_forward_map_refinement_cauchy_bound():
    rng = random.Random(11)
    for _ in range(100):
        d = rng.randint(1, 3)
        pt = make_point([rng.getrandbits(10) for _ in range(d)], 10)
        for n in range(1, 8):
            fn = forward_map(pt, n).as_fraction()
            for m in range(n + 1, 10):
                fm = forward_map(pt, m).as_fraction()
                assert abs(fm - fn) < Fraction(1, (1 << d) ** n)


def test_inverse_map_examples():
    pt = inverse_map(UnitScalar(1, 4), 1, 2)  # t = 1/16 in [0, 1/4)
    assert [c.as_fraction() for c in pt.coords] == [0, 0]
    # the README's unmap example, the corner child_order gives cell 6
    pt = inverse_map(UnitScalar(6, 4), 2, 2)
    assert pt == make_point([1, 3], 2) == make_point(brute_force_corner(2, 2, 6), 2)


def test_inverse_map_cell_roundtrip_exhaustive():
    for depth in range(5):
        for q in range(4 ** depth):
            t = UnitScalar(q, 2 * depth)
            pt = inverse_map(t, depth, 2)
            out = forward_map(pt, depth)
            assert (out.mantissa, out.precision) == (q, 2 * depth)


def test_inverse_map_needs_precision(monkeypatch):
    # the origin needs no table, so it comes before the walk is disabled
    origin = inverse_map(UnitScalar(5, 3), 0, 3)
    assert [(c.mantissa, c.precision) for c in origin.coords] == [(0, 0)] * 3
    # a scalar with fewer bits than d * depth reads as its value
    assert inverse_map(UnitScalar(1, 3), 2, 2) == inverse_map(UnitScalar(2, 4), 2, 2)
    assert inverse_map(UnitScalar(1, 63), 8, 8) == inverse_map(UnitScalar(2, 64), 8, 8)
    _no_walk(monkeypatch)
    with pytest.raises(RangeError, match=r"^depth must be >= 0, got -1$"):
        inverse_map(UnitScalar(1, 4), -1, 2)
    for dimension in (0, 9):
        with pytest.raises(RangeError, match="dimension must be in 1..8"):
            inverse_map(UnitScalar(0, 64), 1, dimension)


def _scalars(max_precision):
    return st.integers(0, max_precision).flatmap(lambda p: st.builds(
        UnitScalar, st.integers(0, (1 << p) - 1), st.just(p)))


@settings(max_examples=200, deadline=None)
@given(st.lists(_scalars(16), min_size=1, max_size=4), st.integers(0, 10),
       st.integers(0, 3))
def test_forward_map_reads_values_at_any_precision(coords, depth, extra):
    # coordinates of mixed precisions, above or below the depth, give the
    # result of the point refined to one precision that covers the depth
    pt = CubePoint(tuple(coords))
    common = max([depth] + [c.precision for c in coords]) + extra
    refined = CubePoint(tuple(UnitScalar(c.mantissa << (common - c.precision), common)
                              for c in coords))
    out = forward_map(pt, depth)
    assert out == forward_map(refined, depth)
    assert out.precision == len(coords) * depth


@settings(max_examples=200, deadline=None)
@given(_scalars(40), st.integers(1, 4), st.integers(0, 10), st.integers(0, 3))
def test_inverse_map_reads_values_at_any_precision(t, d, depth, extra):
    common = max(t.precision, d * depth) + extra
    refined = UnitScalar(t.mantissa << (common - t.precision), common)
    out = inverse_map(t, depth, d)
    assert out == inverse_map(refined, depth, d)
    assert [c.precision for c in out.coords] == [depth] * d


@pytest.mark.parametrize("d", range(1, 9))
def test_batch_returns_one_packed_grid_index_per_index(d):
    # small depths, every cell where they are few, and the deepest depth
    # the kernel takes, 64 // d (d * depth = 64 at d = 1, 2, 4, 8)
    rng = random.Random(d)
    for depth in (0, 1, 2, 3, 64 // d):
        total = 1 << d * depth
        qs = list(range(total)) if total <= 512 else \
            [0, total - 1] + [rng.randrange(total) for _ in range(30)]
        batch = inverse_map_batch(np.array(qs, dtype=np.uint64), depth, d)
        assert batch.dtype == np.uint64 and batch.shape == (len(qs),)
        assert batch.tolist() == [packed_cell(brute_force_corner(d, depth, q), depth)
                                  for q in qs]
        assert batch.tolist() == [
            packed_cell([c.mantissa for c in inverse_map(UnitScalar(q, d * depth),
                                                         depth, d).coords], depth)
            for q in qs]


def test_batch_matches_scalar():
    rng = random.Random(7)
    for d, depth in [(1, 4), (2, 4), (3, 4), (5, 4), (8, 4), (1, 64), (2, 32),
                     (3, 21), (4, 16), (8, 8)]:
        qs = [rng.randrange((1 << d) ** depth) for _ in range(50)]
        batch = unpack_corners(inverse_map_batch(np.array(qs, dtype=np.uint64), depth, d),
                               depth, d)
        for q, row in zip(qs, batch):
            pt = inverse_map(UnitScalar(q, d * depth), depth, d)
            assert tuple(c.mantissa for c in pt.coords) == tuple(int(v) for v in row)


def test_batch_spread_tables_depend_on_depth():
    # each pair shares d and so the step width L, but not the depth; the
    # calls alternate, so tables reused across depths would show in one of
    # them.  The first depth of each pair puts d * depth at 64.
    rng = random.Random(11)
    pairs = [((1, 64), (1, 16)), ((2, 32), (2, 8)), ((4, 16), (4, 5)),
             ((8, 8), (8, 3))]
    for _ in range(2):
        for pair in pairs:
            for d, depth in pair:
                qs = [rng.randrange((1 << d) ** depth) for _ in range(16)]
                batch = unpack_corners(
                    inverse_map_batch(np.array(qs, dtype=np.uint64), depth, d), depth, d)
                for q, row in zip(qs, batch.tolist()):
                    pt = inverse_map(UnitScalar(q, d * depth), depth, d)
                    assert [c.mantissa for c in pt.coords] == row


def _segment_cells():
    # d, depth <= 64 // d, and 64-bit words whose top d * depth bits are
    # segment cell indices
    return st.integers(1, 8).flatmap(lambda d: st.tuples(
        st.just(d), st.integers(0, 64 // d),
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8)))


@settings(max_examples=300, deadline=None)
@given(_segment_cells())
@example((1, 64, [0, 2**64 - 1]))
@example((2, 32, [2**64 - 1, 2**63]))
@example((3, 21, [2**64 - 1, 2**63]))
@example((4, 16, [2**64 - 1]))
@example((8, 8, [2**64 - 1, 2**56]))
def test_batch_scalar_and_forward_maps_agree(case):
    d, depth, words = case
    bits = d * depth
    indices = [w >> (64 - bits) for w in words]
    batch = unpack_corners(inverse_map_batch(np.array(indices, dtype=np.uint64), depth, d),
                           depth, d)
    for q, row in zip(indices, batch.tolist()):
        pt = inverse_map(UnitScalar(q, bits), depth, d)
        assert [c.mantissa for c in pt.coords] == row
        cell = UnitScalar(q, bits)
        assert forward_map(pt, depth) == cell
        # a point inside the cell, off its lower corner, lies in it too
        low = random.Random(q).getrandbits
        inner = CubePoint(tuple(UnitScalar((m << 5) | low(5), depth + 5)
                                for m in row))
        assert forward_map(inner, depth) == cell


def _deep_segment_cells():
    # depths that take three or more table steps of L = max(1, 8 // d)
    # digits, so that a flip is carried past the next step
    def depths(d):
        return st.integers(2 * max(1, 8 // d) + 1, 64 // d)
    return st.integers(1, 8).flatmap(lambda d: st.tuples(
        st.just(d), depths(d),
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4)))


@settings(max_examples=150, deadline=None)
@given(_deep_segment_cells())
@example((1, 64, [2**64 - 1, 2**63, 0x0123456789ABCDEF]))
@example((2, 32, [2**64 - 1, 0xFEDCBA9876543210]))
@example((3, 21, [2**64 - 1, 0x0123456789ABCDEF]))
@example((4, 16, [2**64 - 1, 0xFEDCBA9876543210]))
@example((5, 12, [2**64 - 1, 0x0123456789ABCDEF]))
@example((8, 8, [2**64 - 1, 0xFEDCBA9876543210]))
@example((2, 9, [2**64 - 1, 0x0123456789ABCDEF]))
@example((3, 7, [2**64 - 1, 0xFEDCBA9876543210]))
def test_batch_matches_child_order_walk_over_three_or_more_steps(case):
    d, depth, words = case
    assert len(curve._plan(d, depth, False)[1]) >= 3
    indices = [w >> (64 - d * depth) for w in words]
    batch = inverse_map_batch(np.array(indices, dtype=np.uint64), depth, d)
    assert unpack_corners(batch, depth, d).tolist() == \
        [list(brute_force_corner(d, depth, q)) for q in indices]


def _grid_cells():
    # d, depth <= 64 // d, and 64-bit words whose low d * depth bits are
    # packed grid indices; the bits above them must be ignored
    return st.integers(1, 8).flatmap(lambda d: st.tuples(
        st.just(d), st.integers(0, 64 // d),
        st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8)))


@settings(max_examples=300, deadline=None)
@given(_grid_cells())
@example((1, 64, [0, 2**64 - 1, 0x0123456789ABCDEF]))
@example((2, 32, [2**64 - 1, 2**63, 0xFEDCBA9876543210]))
@example((3, 21, [2**64 - 1, 2**62, 0x0123456789ABCDEF]))
@example((4, 16, [2**64 - 1, 0xFEDCBA9876543210]))
@example((5, 12, [2**64 - 1, 0x0123456789ABCDEF]))
@example((6, 10, [2**64 - 1, 0xFEDCBA9876543210]))
@example((7, 9, [2**64 - 1, 0x0123456789ABCDEF]))
@example((8, 8, [2**64 - 1, 2**56, 0xFEDCBA9876543210]))
@example((3, 7, [2**64 - 1, 0x0123456789ABCDEF]))
@example((2, 9, [2**64 - 1, 0xFEDCBA9876543210]))
@example((5, 3, [2**64 - 1, 0x0123456789ABCDEF]))
@example((8, 0, [2**64 - 1]))
def test_forward_batch_matches_scalar_forward_map(case):
    # (3, 7) and (2, 9) read leading zero digits, a padded first step
    d, depth, words = case
    batch = forward_map_batch(np.array(words, dtype=np.uint64), depth, d)
    assert batch.dtype == np.uint64 and batch.shape == (len(words),)
    mask = (1 << depth) - 1
    for w, q in zip(words, batch.tolist()):
        pt = CubePoint(tuple(UnitScalar(w >> a * depth & mask, depth)
                             for a in range(d)))
        assert forward_map(pt, depth) == UnitScalar(q, d * depth)


@pytest.mark.parametrize("d,depth", [(1, 0), (1, 9), (2, 5), (3, 3), (4, 2),
                                     (5, 2), (8, 1), (3, 4)])
def test_forward_batch_matches_child_order_cells(d, depth):
    # every cell: its digit path, read base 2**d, is its segment index
    cells = brute_force_cells(d, depth)
    paths = sorted(cells)
    packed = np.array([packed_cell(cells[p], depth) for p in paths], dtype=np.uint64)
    expected = [path_index(p, d) for p in paths]
    assert forward_map_batch(packed, depth, d).tolist() == expected


@settings(max_examples=150, deadline=None)
@given(_segment_cells())
@example((1, 64, [0, 2**64 - 1]))
@example((4, 16, [2**64 - 1, 2**63]))
@example((8, 8, [2**64 - 1, 2**56]))
@example((3, 7, [2**64 - 1, 0x0123456789ABCDEF]))
def test_forward_batch_inverts_the_inverse_batch(case):
    d, depth, words = case
    indices = np.array([w >> (64 - d * depth) for w in words], dtype=np.uint64)
    packed = inverse_map_batch(indices, depth, d)
    assert forward_map_batch(packed, depth, d).tolist() == indices.tolist()


def test_forward_batch_keeps_the_kernel_limits():
    with pytest.raises(RangeError, match="depth must be >= 0"):
        forward_map_batch(np.zeros(1, dtype=np.uint64), -1, 2)
    with pytest.raises(RangeError):
        forward_map_batch(np.zeros(1, dtype=np.uint64), 1, 9)
    assert forward_map_batch([], 8, 8).tolist() == []
    assert forward_map_batch([], 33, 2).tolist() == []


@pytest.mark.parametrize("depth", [2, 40])
@pytest.mark.parametrize("batch_map", [inverse_map_batch, forward_map_batch])
@pytest.mark.parametrize("cells,bad", [
    ([1.5], "1.5"), ([-1], "-1"), (np.array([0, -3]), "-3"),
    (np.array([2.0]), "2.0"), ([1, 2**63, 0.5], "0.5"),
    # a bool is no cell: a mask was almost surely meant
    ([True], "True"), (np.array([True, False]), "True"),
    # None is named, not read by int(); a str shows quoted
    ([None], "None"), (["3"], "'3'"),
    # a bool among ints is read as given, not as the int numpy makes of it
    ([True, 2], "True"), ([2, False], "False"), ([np.True_, 3], "True"),
    ([[1, 2], [3, True]], "True"),
    # a tuple among ints is one bad cell
    ([1, (0, 1)], "(0, 1)"),
], ids=["float", "negative", "negative-int64", "float-array", "mixed", "bool",
        "bool-array", "none", "str", "bool-first", "bool-last", "numpy-bool",
        "nested-bool", "tuple"])
def test_batch_maps_reject_a_cell_that_is_no_integer_or_negative(depth, batch_map, cells, bad):
    # on both sides of the kernels' 64 bits (d * depth = 4 and 80)
    with pytest.raises(RangeError, match=f"^cell index {re.escape(bad)} is not an integer >= 0$"):
        batch_map(cells, depth, 2)


@pytest.mark.parametrize("depth", [8, 40])
def test_maps_read_a_numpy_depth_as_the_equal_int(depth):
    # the checked int is the one the walks use: an int64 depth of 40 once
    # overflowed in the shifts, so forward_map raised ValueError and
    # inverse_map returned the origin
    pt, t = make_point([1, 3], 2), UnitScalar(5, 3)
    assert forward_map(pt, np.int64(depth)) == forward_map(pt, depth)
    assert inverse_map(t, np.int64(depth), np.int64(2)) == inverse_map(t, depth, 2)
    assert compose_n_to_m(pt, np.int64(depth), np.int64(3)) == compose_n_to_m(pt, depth, 3)
    cells = [0, 5, 7]
    for batch_map in (inverse_map_batch, forward_map_batch):
        assert batch_map(cells, np.int64(depth), np.int64(2)).tolist() == \
            batch_map(cells, depth, 2).tolist()


def test_batch_maps_read_a_list_of_63_and_64_bit_ints_exactly():
    # numpy reads this list as floats; the maps read each int as given
    cells = [1, 2**63 + 2**40 + 3]
    for batch_map in (inverse_map_batch, forward_map_batch):
        assert batch_map(cells, 32, 2).tolist() == \
            batch_map(np.array(cells, dtype=np.uint64), 32, 2).tolist()


@pytest.mark.parametrize("d,depth", [(2, 31), (3, 20), (2, 33), (3, 22)])
def test_forward_batch_ignores_bits_above_the_cell(d, depth):
    # bit d * depth + 1 changes no image, in a uint64 array up to
    # 64 bits and in an object array beyond
    rng = random.Random(d * depth)
    cells = [rng.getrandbits(d * depth) for _ in range(8)]
    dtype = np.uint64 if d * depth < 64 else object
    high = np.array([c | 1 << d * depth + 1 for c in cells], dtype=dtype)
    assert forward_map_batch(high, depth, d).tolist() == \
        forward_map_batch(np.array(cells, dtype=dtype), depth, d).tolist()


@pytest.mark.parametrize("d,depth", [(2, 31), (3, 21), (2, 33), (3, 23)])
def test_inverse_maps_ignore_bits_above_the_index(d, depth):
    # each depth is read with leading zero digits, so the first step's
    # mask must leave out bit d * depth + 1, in a uint64 array up to 64
    # bits and in an object array beyond; at (3, 21) that bit is 64, past
    # a uint64, and bit 63, the sign of the kernel's int64 view, stands in
    rng = random.Random(d * depth)
    bits = d * depth
    qs = [rng.getrandbits(bits) for _ in range(8)]
    high = [q | 1 << (63 if bits == 63 else bits + 1) for q in qs]
    dtype = np.uint64 if bits < 64 else object
    assert inverse_map_batch(np.array(high, dtype=dtype), depth, d).tolist() == \
        inverse_map_batch(np.array(qs, dtype=dtype), depth, d).tolist()
    assert [curve._inverse_cell(q, depth, d) for q in high] == \
        [curve._inverse_cell(q, depth, d) for q in qs]


@pytest.mark.parametrize("d,depth", [(2, 2), (1, 64), (3, 21), (4, 16), (5, 12),
                                     (6, 10), (7, 9), (8, 8)])
def test_kernel_maps_read_ints_of_64_bits_or_more_modulo_2_to_the_64(d, depth):
    # bits above the cell are ignored, as they are in a uint64 array
    for batch_map in (inverse_map_batch, forward_map_batch):
        for big, small in [([2**64 + 5], [5]),
                           (np.array([[2**70 + 1, 2**64 - 1]], dtype=object),
                            [[1, 2**64 - 1]])]:
            got = batch_map(big, depth, d)
            assert got.dtype == np.uint64 and got.shape == np.shape(small)
            assert got.tolist() == batch_map(np.array(small, dtype=np.uint64),
                                             depth, d).tolist()


@pytest.mark.parametrize("d,depth", [(1, 100), (2, 40), (3, 30), (8, 9),
                                     (1, 0), (8, 0)])
def test_scalar_maps_match_child_order_walk_beyond_the_batch_kernel(d, depth):
    # d * depth > 64 or depth 0, where the batch kernel is no oracle; the
    # inputs carry up to 5 bits more than the depth needs
    rng = random.Random(d * 1000 + depth)
    bits = d * depth
    for q in [0, (1 << bits) - 1] + [rng.getrandbits(bits) for _ in range(20)]:
        corner = brute_force_corner(d, depth, q)
        extra = rng.randint(0, 5)
        t = UnitScalar(q << extra | rng.getrandbits(extra), bits + extra)
        pt = inverse_map(t, depth, d)
        assert [(c.mantissa, c.precision) for c in pt.coords] == \
            [(m, depth) for m in corner]
        inner = CubePoint(tuple(UnitScalar(m << extra | rng.getrandbits(extra),
                                           depth + extra) for m in corner))
        out = forward_map(inner, depth)
        assert (out.mantissa, out.precision) == (q, bits)


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used")


@pytest.mark.parametrize("d", range(1, 9))
def test_scalar_maps_build_their_tables_without_numpy(monkeypatch, d):
    # every cache of curve cleared, so the plans and their lists are built
    # while curve.np is unusable
    for cached in vars(curve).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    monkeypatch.setattr(curve, "np", _NoNumpy())
    full = max(1, 8 // d)
    rng = random.Random(d)
    for depth in sorted({0, 1, full + 1, 64 // d + 1}):
        bits = d * depth
        for q in {0, (1 << bits) - 1, rng.getrandbits(bits)}:
            corner = brute_force_corner(d, depth, q)
            pt = inverse_map(UnitScalar(q, bits), depth, d)
            assert [(c.mantissa, c.precision) for c in pt.coords] == \
                [(m, depth) for m in corner]
            out = forward_map(pt, depth)
            assert (out.mantissa, out.precision) == (q, bits)


@pytest.mark.parametrize("d", range(1, 9))
def test_zero_digits_walk_a_padded_start_to_the_identity(d):
    # a depth read with `pad` leading zero digits starts at rotation
    # -pad mod d: through the pad the walk visits octant 0, and after it
    # stands where an unpadded walk starts
    for pad in range(max(1, 8 // d)):
        state = OrientationState(d, -pad % d, 0)
        for _ in range(pad):
            octant, state = child_order(state)[0]
            assert octant == 0
        assert state == OrientationState(d, 0, 0)


@pytest.mark.parametrize("d", range(1, 9))
def test_digit_table_entries_follow_child_order(d):
    # the one list set of each direction, L = max(1, 8 // d) digits
    children = {}

    def step(state, digit):
        if state not in children:
            children[state] = child_order(state)
        return children[state][digit]

    full = max(1, 8 // d)
    bits = d * full
    lists = {forward: curve._step_lists(d, forward) for forward in (False, True)}
    for out, adds, nxt in lists.values():
        assert len(out) == len(adds) == len(nxt) == d << bits
    for rotation in range(d):
        for word in range(1 << bits):
            state = OrientationState(d, rotation, 0)
            cells = 0
            for level in range(full):
                digit = (word >> (d * (full - 1 - level))) & ((1 << d) - 1)
                octant, state = step(state, digit)
                cells = cells << d | octant
            for forward, (out, adds, nxt) in lists.items():
                # the inverse lists are keyed by the digit word, the
                # forward lists by the octant word
                key = rotation << bits | (cells if forward else word)
                assert out[key] == (word if forward else cells)
                assert adds[key] == state.flips
                assert nxt[key] == state.rotation << bits

    # every plan, both directions, at depths with and without leading
    # zero digits where L > 1
    for depth in sorted({0, 1, full, full + 1, 2 * full, 3 * full - 1}):
        for forward in (False, True):
            start, steps, rep, *plan_lists = curve._plan(d, depth, forward)
            assert tuple(plan_lists) == lists[forward]
            assert rep == sum(1 << d * j for j in range(full))
            # full-width words tile the padded index, first highest
            assert len(steps) == -(-depth // full)
            assert [shift for shift, _ in steps] == \
                [bits * k for k in reversed(range(len(steps)))]
            # the masks cover the depth's own digits: all of every word
            # but the first, which leaves out the pad
            widths = [mask.bit_length() for _, mask in steps]
            assert [mask for _, mask in steps] == [(1 << w) - 1 for w in widths]
            assert sum(widths) == d * depth and widths[1:] == [bits] * (len(steps) - 1)
            pad = len(steps) * full - depth
            assert (pad > 0) == (bool(steps) and widths[0] < bits)
            assert widths[:1] in ([], [d * (full - pad)])
            assert start == (-pad % d) << bits


def test_compose_identity_at_cell_level():
    for depth in (1, 2, 3):
        for q in range(4 ** depth):
            pt = inverse_map(UnitScalar(q, 2 * depth), depth, 2)
            back = compose_n_to_m(pt, depth, 2)
            assert forward_map(back, depth) == forward_map(pt, depth) == UnitScalar(q, 2 * depth)


def test_compose_2_to_1_equals_forward_map():
    rng = random.Random(3)
    for _ in range(50):
        pt = make_point([rng.getrandbits(6) for _ in range(2)], 6)
        out = compose_n_to_m(pt, 3, 1)
        assert out.coords[0] == forward_map(pt, 3)


def test_compose_2_to_3_preserves_cell_volume():
    # depth 3 in the square -> depth 2 in the cube: 4^-3 == 8^-2 exactly,
    # and the 64 square cells land on the 64 cube cells, one each
    cells = set()
    for q in range(4 ** 3):
        out = compose_n_to_m(inverse_map(UnitScalar(q, 6), 3, 2), 3, 3)
        assert [c.precision for c in out.coords] == [2] * 3
        cells.add(forward_map(out, 2).mantissa)
    assert cells == set(range(64))


def test_compose_rejects_insufficient_precision():
    with pytest.raises(PrecisionError):
        compose_n_to_m(make_point([1, 1], 1), 1, 3)  # 2 bits, no 3-d digit


@pytest.mark.parametrize("depth,target,message", [
    (3, 0, "dimension must be in 1..8, got 0"),
    (3, -1, "dimension must be in 1..8, got -1"),
    (3, 9, "dimension must be in 1..8, got 9"),
    (-1, 2, "depth must be >= 0, got -1"),
])
def test_compose_rejects_an_unsupported_target_dimension_or_depth(depth, target, message):
    with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
        compose_n_to_m(make_point([1, 1], 3), depth, target)


def test_interval_text_roundtrip():
    # `map` prints a segment cell as q/(2^d)^n; parse_scalar reads back its
    # left end, and reads any other power-of-two base by value
    left = UnitScalar(17, 6)
    assert parse_scalar("17/4^3") == left
    assert parse_scalar("17/8^3") == UnitScalar(17, 9) != left
