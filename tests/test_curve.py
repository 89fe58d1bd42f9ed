import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cubefold.curve import (
    CellAddress,
    OrientationState,
    SegmentInterval,
    address_to_interval,
    address_to_rect,
    child_order,
    compose_n_to_m,
    forward_map,
    interval_to_address,
    inverse_map,
    inverse_map_batch,
    parse_interval,
    point_to_address,
)
from cubefold.dyadic import (
    CubePoint,
    PrecisionError,
    RangeError,
    UnitScalar,
    make_point,
)
from helpers import brute_force_cells, brute_force_locate


def test_declared_root_table_d2():
    # lower-left, upper-left, upper-right, lower-right; octant bit a = upper
    # half along axis a
    order = child_order(OrientationState.identity(2))
    assert [octant for octant, _ in order] == [0b00, 0b10, 0b11, 0b01]
    swap, ident, ident2, antiswap = [state for _, state in order]
    assert ident == ident2 == OrientationState.identity(2)
    # swap exchanges the axes; antiswap exchanges and reflects both
    assert [swap.apply(b) for b in range(4)] == [0, 2, 1, 3]
    assert [antiswap.apply(b) for b in range(4)] == [3, 1, 2, 0]


def test_declared_root_table_d1():
    order = child_order(OrientationState.identity(1))
    assert [octant for octant, _ in order] == [0, 1]
    assert all(state == OrientationState.identity(1) for _, state in order)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_children_permute_octants(d):
    state = OrientationState.identity(d)
    for _ in range(20):
        octants = [o for o, _ in child_order(state)]
        assert sorted(octants) == list(range(1 << d))
        state = random.Random(d).choice([s for _, s in child_order(state)])


def test_state_composition_is_closed_and_has_identity():
    ident = OrientationState.identity(2)
    states = [s for _, s in child_order(ident)]
    for a in states:
        assert a.compose(ident) == a
        assert ident.compose(a) == a
        for b in states:
            c = a.compose(b)
            for octant in range(4):
                assert c.apply(octant) == a.apply(b.apply(octant))


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


def test_point_to_address_depth1():
    pt = make_point([1, 1], 2)  # (1/4, 1/4): lower-left quadrant
    assert point_to_address(pt, 1).digits == (0,)


def test_point_to_address_depth0():
    assert point_to_address(make_point([3, 5], 4), 0).digits == ()


def test_point_to_address_matches_brute_force_depth2():
    cells = brute_force_cells(2, 2)
    pt = make_point([3, 7], 3)  # (3/8, 7/8)
    digits = point_to_address(pt, 2).digits
    assert digits == brute_force_locate(cells, (Fraction(3, 8), Fraction(7, 8)), 2)
    assert digits == (1, 2)  # one-based (2, 3), frozen from the oracle


def test_point_to_address_needs_precision():
    with pytest.raises(PrecisionError):
        point_to_address(make_point([1, 1], 2), 3)
    with pytest.raises(RangeError):
        point_to_address(make_point([0] * 9, 1), 1)


def test_address_to_rect_examples():
    root = address_to_rect(CellAddress(2, ()))
    assert root.volume() == 1
    first = address_to_rect(CellAddress(2, (0,)))
    assert first.lower.as_fractions() == (0, 0)
    assert first.side_exponents == (1, 1)
    for digits in [(0, 3, 2), (1, 1, 1), (3, 2, 0)]:
        assert address_to_rect(CellAddress(2, digits)).volume() == Fraction(1, 64)


def test_address_to_interval_examples():
    assert address_to_interval(CellAddress(2, (0, 0, 0))).index == 0
    iv = address_to_interval(CellAddress(2, (3,)))
    assert iv.index == 3 and iv.left().as_fraction() == Fraction(3, 4)
    iv = address_to_interval(CellAddress(2, (1, 2)))
    assert iv.index == 6 and iv.length() == Fraction(1, 16)


def test_interval_to_address_examples():
    assert interval_to_address(SegmentInterval(2, 3, 0)).digits == (0, 0, 0)
    assert interval_to_address(SegmentInterval(2, 2, 6)).digits == (1, 2)


@pytest.mark.parametrize("d,max_depth", [(1, 8), (2, 6), (3, 4)])
def test_address_interval_exhaustive_roundtrip(d, max_depth):
    for depth in range(max_depth + 1):
        seen = set()
        for q in range((1 << d) ** depth):
            addr = interval_to_address(SegmentInterval(d, depth, q))
            assert address_to_interval(addr).index == q
            seen.add(addr.digits)
        assert len(seen) == (1 << d) ** depth


def test_cells_match_brute_force_enumeration():
    # every d; where a table step holds several digits, the depth also
    # takes a shorter last step
    for d, depth in [(1, 5), (1, 9), (2, 4), (2, 6), (3, 3), (4, 3), (5, 2),
                     (6, 2), (7, 1), (8, 1)]:
        cells = brute_force_cells(d, depth)
        for digits, corner in cells.items():
            rect = address_to_rect(CellAddress(d, digits))
            assert tuple(c.mantissa for c in rect.lower.coords) == corner
            assert point_to_address(rect.lower, depth).digits == digits
        indices = [sum(j << (d * (depth - 1 - k)) for k, j in enumerate(digits))
                   for digits in cells]
        batch = inverse_map_batch(np.array(indices, dtype=np.uint64), depth, d)
        assert list(map(tuple, batch.tolist())) == list(cells.values())


@pytest.mark.parametrize("d,depth", [(1, 6), (2, 6), (3, 4)])
def test_partition_exhaustive(d, depth):
    base = 1 << d
    corners = inverse_map_batch(np.arange(base ** depth, dtype=np.uint64), depth, d)
    flat = np.ravel_multi_index(corners.T.astype(np.int64), ((1 << depth),) * d)
    assert len(np.unique(flat)) == base ** depth


@pytest.mark.parametrize("d,depth", [(1, 8), (2, 8), (3, 5)])
def test_adjacency_consecutive_cells_share_a_face(d, depth):
    base = 1 << d
    corners = inverse_map_batch(
        np.arange(base ** depth, dtype=np.uint64), depth, d).astype(np.int64)
    diff = np.abs(np.diff(corners, axis=0))
    assert np.all(diff.sum(axis=1) == 1)
    assert np.all(diff.max(axis=1) == 1)


def test_nesting_addresses_extend_by_one_digit():
    rng = random.Random(5)
    for _ in range(200):
        d = rng.randint(1, 3)
        depth = rng.randint(1, 6)
        pt = make_point([rng.getrandbits(8) for _ in range(d)], 8)
        full = point_to_address(pt, depth)
        assert point_to_address(pt, depth - 1).digits == full.digits[:-1]
        # intervals nest accordingly
        inner = address_to_interval(full)
        outer = address_to_interval(full.prefix(depth - 1))
        assert outer.left().as_fraction() <= inner.left().as_fraction()
        assert (inner.left().as_fraction() + inner.length()
                <= outer.left().as_fraction() + outer.length())


def test_forward_map_first_quadrant():
    pt = make_point([1, 1], 3)  # interior of lower-left quadrant
    assert forward_map(pt, 1).as_fraction() < Fraction(1, 4)


def test_forward_map_matches_brute_force():
    cells = brute_force_cells(2, 4)
    pt = make_point([3 << 1, 7 << 1], 4)  # (3/8, 7/8) at precision 4
    digits = brute_force_locate(cells, (Fraction(3, 8), Fraction(7, 8)), 4)
    q = 0
    for j in digits:
        q = q * 4 + j
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
    assert pt.as_fractions() == (0, 0)
    pt = inverse_map(UnitScalar(6, 4), 2, 2)
    assert pt == address_to_rect(CellAddress(2, (1, 2))).lower


def test_inverse_map_cell_roundtrip_exhaustive():
    for depth in range(5):
        for q in range(4 ** depth):
            t = UnitScalar(q, 2 * depth)
            pt = inverse_map(t, depth, 2)
            expect = interval_to_address(SegmentInterval(2, depth, q))
            assert point_to_address(pt, depth) == expect


def test_inverse_map_needs_precision():
    with pytest.raises(PrecisionError):
        inverse_map(UnitScalar(1, 3), 2, 2)


def test_batch_matches_scalar():
    rng = random.Random(7)
    for d, depth in [(1, 4), (2, 4), (3, 4), (5, 4), (8, 4), (1, 64), (2, 32),
                     (3, 21), (4, 16), (8, 8)]:
        qs = [rng.randrange((1 << d) ** depth) for _ in range(50)]
        batch = inverse_map_batch(np.array(qs, dtype=np.uint64), depth, d)
        for q, row in zip(qs, batch):
            pt = inverse_map(UnitScalar(q, d * depth), depth, d)
            assert tuple(c.mantissa for c in pt.coords) == tuple(int(v) for v in row)


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
    batch = inverse_map_batch(np.array(indices, dtype=np.uint64), depth, d)
    for q, row in zip(indices, batch.tolist()):
        pt = inverse_map(UnitScalar(q, bits), depth, d)
        assert [c.mantissa for c in pt.coords] == row
        cell = interval_to_address(SegmentInterval(d, depth, q))
        assert point_to_address(pt, depth) == cell
        # a point inside the cell, off its lower corner, lies in it too
        low = random.Random(q).getrandbits
        inner = CubePoint(tuple(UnitScalar((m << 5) | low(5), depth + 5)
                                for m in row))
        assert point_to_address(inner, depth) == cell


def test_compose_identity_at_cell_level():
    for depth in (1, 2, 3):
        for q in range(4 ** depth):
            pt = inverse_map(UnitScalar(q, 2 * depth), depth, 2)
            back = compose_n_to_m(pt, depth, 2)
            assert point_to_address(back, depth) == point_to_address(pt, depth)


def test_compose_2_to_1_equals_forward_map():
    rng = random.Random(3)
    for _ in range(50):
        pt = make_point([rng.getrandbits(6) for _ in range(2)], 6)
        out = compose_n_to_m(pt, 3, 1)
        assert out.coords[0] == forward_map(pt, 3)


def test_compose_2_to_3_preserves_cell_volume():
    # depth 3 in the square -> depth 2 in the cube: 4^-3 == 8^-2 exactly
    for q in range(4 ** 3):
        pt = inverse_map(UnitScalar(q, 6), 3, 2)
        out = compose_n_to_m(pt, 3, 3)
        cell = address_to_rect(point_to_address(out, 2))
        assert cell.volume() == Fraction(1, 64)


def test_compose_rejects_insufficient_precision():
    with pytest.raises(PrecisionError):
        compose_n_to_m(make_point([1, 1], 1), 1, 3)  # 2 bits, no 3-d digit


def test_address_text_roundtrip():
    a = CellAddress(2, (0, 2, 1, 3))
    assert a.format() == "1.3.2.4"
    assert CellAddress.parse("1.3.2.4", 2) == a
    assert CellAddress.parse("", 2).depth == 0


def test_interval_text_roundtrip():
    iv = SegmentInterval(2, 3, 17)
    assert iv.format() == "17/4^3"
    assert parse_interval("17/4^3", 2) == iv
    with pytest.raises(ValueError):
        parse_interval("17/8^3", 2)
