import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cubefold.dyadic import (
    CubePoint,
    DyadicRect,
    PrecisionError,
    RangeError,
    UnitScalar,
    format_scalar,
    parse_scalar,
)
from cubefold import curve, measure, sampling
from helpers import make_point


def test_make_scalar_zero():
    assert UnitScalar(0, 4).as_fraction() == 0


def test_make_scalar_half():
    assert UnitScalar(8, 4).as_fraction() == Fraction(1, 2)


def test_make_scalar_rejects_one():
    with pytest.raises(RangeError):
        UnitScalar(2**20, 20)


def test_make_scalar_rejects_negative():
    with pytest.raises(RangeError):
        UnitScalar(-1, 4)
    with pytest.raises(RangeError):
        UnitScalar(0, -1)


def test_value_equality_across_precisions():
    assert UnitScalar(1, 1) == UnitScalar(2, 2) == UnitScalar(4, 3)
    assert hash(UnitScalar(1, 1)) == hash(UnitScalar(4, 3))


@given(st.integers(0, 2**12 - 1), st.integers(0, 28))
def test_a_shifted_mantissa_keeps_value_and_hash(m, k):
    # the same value at a higher precision, as the maps read it
    s, shifted = UnitScalar(m, 12), UnitScalar(m << k, 12 + k)
    assert shifted == s and hash(shifted) == hash(s)
    assert shifted.as_fraction() == s.as_fraction()


@given(st.integers(0, 255), st.integers(0, 8), st.integers(0, 255), st.integers(0, 8))
def test_order_is_representation_independent(m1, e1, m2, e2):
    p1, p2 = 8 + e1, 8 + e2
    a, b = UnitScalar(m1 << e1, p1), UnitScalar(m2 << e2, p2)
    assert (a < b) == (a.as_fraction() < b.as_fraction())
    assert (a == b) == (a.as_fraction() == b.as_fraction())


def test_scalar_str_is_its_rational_form():
    assert str(UnitScalar(3, 4)) == "3/2^4"
    assert parse_scalar(str(UnitScalar(3, 4))) == UnitScalar(3, 4)


def test_scalar_compares_with_no_other_type():
    # equality with a float is False, not a value comparison; order raises
    assert (UnitScalar(1, 1) == 0.5) is False
    with pytest.raises(TypeError):
        UnitScalar(1, 1) < 0.5


# binary input is written back in the one rational form
RATIONAL_FORM = {"0b0.101": "5/2^3", "0b0.": "0/2^0"}


@pytest.mark.parametrize("text", ["5/2^3", "0/2^0", "1365/2^12", "0b0.101", "0b0."])
def test_scalar_text_roundtrip(text):
    s = parse_scalar(text)
    assert format_scalar(s) == RATIONAL_FORM.get(text, text)
    assert parse_scalar(format_scalar(s)) == s


def test_parse_scalar_rejects_garbage():
    # the last five: a base that is not a power of two, and 6/4 >= 1
    for bad in ["", "3/2", "2/2^1", "0b1.01", "x", "1/3^2", "1/1^2", "1/0^2",
                "0/12^0", "6/4^1"]:
        with pytest.raises(ValueError):
            parse_scalar(bad)


@pytest.mark.parametrize("text", ["\u0661/2^1", "1/\uff12^1", "1/2^\u0661"])
def test_parse_scalar_reads_ascii_digits_only(text):
    # Arabic-Indic one and fullwidth two: Unicode decimal digits that int() reads
    with pytest.raises(ValueError, match="cannot parse unit scalar from"):
        parse_scalar(text)


@given(st.integers(1, 70), st.integers(0, 12), st.data())
def test_parse_scalar_reads_any_power_of_two_base(s, p, data):
    m = data.draw(st.integers(0, (1 << s * p) - 1))
    assert parse_scalar(f"{m}/{2**s}^{p}") == UnitScalar(m, s * p)
    assert parse_scalar(f"{m}/{2**s}^{p}").precision == s * p


def test_huge_precision_is_checked_without_building_2_to_the_precision():
    # 1 << 10**15 would need 125 TB; 1 << 10**9 allocates 125 MB
    tracemalloc.start()
    try:
        for p in (10**9, 10**15):
            assert UnitScalar(1, p).mantissa == 1
            with pytest.raises(RangeError, match=f"for precision {p}:"):
                UnitScalar(-1, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# about 50 values at precisions 0..11, each also at a higher precision,
# and the float edges 2^-1074 (the least subnormal) to 2^-1077
VALUES = sorted({UnitScalar(m % (1 << p), p) for p in range(12)
                 for m in (0, 1, 3, 5, (1 << p) - 1, (1 << p) // 3)}
                | {UnitScalar(m << 2, p + 2) for m, p in [(1, 3), (5, 4), (0, 0)]}
                | {UnitScalar(m, p) for p in range(1074, 1078) for m in (1, 2, 3)},
                key=UnitScalar.as_fraction)


def test_unit_scalar_compares_hashes_and_converts_as_its_fraction():
    assert len(VALUES) >= 50
    for a in VALUES:
        fa = a.as_fraction()
        assert float(a) == float(fa)
        for b in VALUES:
            fb = b.as_fraction()
            assert ((a == b), (a < b), (a <= b), (a > b)) == \
                ((fa == fb), (fa < fb), (fa <= fb), (fa > fb))
            if fa == fb:
                assert hash(a) == hash(b)
    assert [float(UnitScalar(m, p)) for m, p in [(1, 1074), (1, 1075), (3, 1076),
                                                  (1, 1076), (1, 1077)]] == \
        [5e-324, 0.0, 5e-324, 0.0, 0.0]


def test_huge_precision_compares_hashes_and_converts_without_building_it():
    # each once shifted a mantissa by the other's precision, or divided by
    # 1 << precision, and raised MemoryError under a 1.5 GB address-space cap
    tracemalloc.start()
    try:
        tiny, half = UnitScalar(1, 10**15), UnitScalar(1, 1)
        assert tiny != half and tiny < half and not half <= tiny
        assert tiny == UnitScalar(2, 10**15 + 1) < UnitScalar(3, 10**15 + 1)
        assert UnitScalar(0, 10**15) == UnitScalar(0, 0) < tiny
        assert hash(tiny) == hash(UnitScalar(4, 10**15 + 2))
        assert float(tiny) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 10


def test_cube_point_requires_shared_precision():
    # coordinates keep their own precisions; points compare by value
    pt = CubePoint((UnitScalar(1, 2), UnitScalar(1, 3)))
    assert [c.precision for c in pt.coords] == [2, 3]
    assert pt == CubePoint((UnitScalar(2, 3), UnitScalar(1, 3)))


def test_cube_point_keeps_its_coordinates_as_a_tuple():
    # a list was kept as given: the point did not hash, and it was unequal
    # to the same point built from a tuple
    listed, point = CubePoint([UnitScalar(1, 1)]), CubePoint((UnitScalar(1, 1),))
    assert type(listed.coords) is tuple
    assert listed == point and hash(listed) == hash(point)


def test_cube_point_rejects_a_coordinate_that_is_not_a_unit_scalar():
    # a float was kept, and forward_map raised AttributeError on it
    with pytest.raises(TypeError, match="^coordinate must be a UnitScalar, got float$"):
        curve.forward_map(CubePoint((0.5, 0.25)), 3)


def test_rect_rejects_a_lower_corner_that_is_not_a_cube_point():
    # a tuple of coordinates raised AttributeError on its missing dimension
    with pytest.raises(TypeError, match="^lower corner must be a CubePoint, got tuple$"):
        DyadicRect((UnitScalar(0, 1),), (1,))


def test_rect_volume_and_containment():
    r = DyadicRect(make_point([0, 2], 2), (1, 2))
    assert r.volume() == Fraction(1, 8)


def test_rect_must_fit_in_cube():
    with pytest.raises(RangeError):
        DyadicRect(make_point([3], 2), (1,))  # 3/4 + 1/2 > 1
    with pytest.raises(RangeError):
        DyadicRect(make_point([1, 0], 1), (0, 0))  # 1/2 + 1 > 1
    # ending exactly at 1 fits, at every corner precision
    DyadicRect(make_point([3], 2), (2,))
    DyadicRect(make_point([1, 0], 1), (1, 0))
    DyadicRect(make_point([0], 0), (0,))
    # side exponent above the corner's precision
    DyadicRect(make_point([1], 1), (5,))  # [1/2, 1/2 + 1/32)
    DyadicRect(make_point([7], 3), (7,))  # ends at 7/8 + 1/128
    with pytest.raises(RangeError):
        DyadicRect(make_point([7], 3), (2,))  # 7/8 + 1/4 > 1


@pytest.mark.parametrize("build,message", [
    (lambda: CubePoint(()), "need at least one coordinate"),
    (lambda: DyadicRect(make_point([0, 0], 1), (1,)),
     "one side exponent per axis required"),
    (lambda: DyadicRect(make_point([0], 1), (-1,)),
     "side exponent must be >= 0, got -1"),
    (lambda: DyadicRect(make_point([3], 2), (1,)),
     "box must be contained in [0,1)^d"),
], ids=["no-coords", "arity", "negative-exponent", "leaves-cube"])
def test_point_and_rect_guards_raise_their_message(build, message):
    with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
        build()


@given(st.integers(0, 20), st.integers(0, 30), st.data())
def test_rect_fit_matches_fraction_sum(p, k, data):
    m = data.draw(st.integers(0, (1 << p) - 1))
    fits = Fraction(m, 1 << p) + Fraction(1, 1 << k) <= 1
    if fits:
        DyadicRect(make_point([m], p), (k,))
    else:
        with pytest.raises(RangeError):
            DyadicRect(make_point([m], p), (k,))


HUGE = 10 ** 5000  # more digits than str() converts
COIN = sampling.DistributionSpec(atoms=[("0", "1/2"), ("1", "1/2")], name="coin")


@pytest.mark.parametrize("call,error,shown", [
    (lambda: measure.monte_carlo_uniformity(10 ** 6, HUGE, 0), RangeError, "1" + "0" * 36),
    (lambda: sampling.sample_independent(0, 10, [COIN], depth=HUGE), PrecisionError,
     "1" + "0" * 36),
    (lambda: UnitScalar(HUGE, 3), RangeError, "1" + "0" * 36),
    (lambda: UnitScalar(0, -HUGE), RangeError, "-1" + "0" * 35),
    (lambda: curve.inverse_map_batch([0], 3, HUGE), RangeError, "1" + "0" * 36),
    (lambda: measure.CellUnion.of_segment(2, 3, [10 ** 60]), RangeError, "1" + "0" * 36),
    (lambda: measure.CellUnion.of_segment(2, 3, [HUGE]), RangeError, "1" + "0" * 36),
], ids=["grid", "sample-depth", "mantissa", "precision", "dimension",
        "index-61-digits", "index"])
def test_errors_echo_a_huge_int_cut(call, error, shown):
    # str() of an int of over 4300 digits raised Python's digit-limit
    # ValueError in place of the intended error, and shorter ints showed whole
    with pytest.raises(error) as info:
        call()
    message = str(info.value)
    assert f"{shown}..." in message
    assert max(map(len, re.findall(r"[-\d.]+", message))) <= 40


RECT = DyadicRect(make_point([0, 0], 1), (1, 1))


@pytest.mark.parametrize("call", [
    lambda: UnitScalar(1.5, 4),
    lambda: UnitScalar(1, 2.0),
    lambda: curve.OrientationState(2, 0.5, 0),
    lambda: curve.forward_map(RECT.lower, 2.0),
    lambda: curve.inverse_map_batch([1], 2.0, 2),
    lambda: DyadicRect(make_point([0], 1), (1.5,)),
    lambda: measure.rect_measure_check(RECT, 2.0),
    lambda: measure.CellUnion.of_segment(2, 2.0, [1]),
    lambda: curve.compose_n_to_m(RECT.lower, 2, 3.0),
], ids=["mantissa", "precision", "rotation", "forward-depth",
        "batch-depth", "side-exponent", "rect-depth", "union-depth", "compose-target"])
def test_every_integer_argument_rejects_a_float(call):
    # each once raised AttributeError or an arithmetic TypeError further
    # on, or built; operator.index names the type at the call
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        call()


@pytest.mark.parametrize("call,message", [
    (lambda: curve.OrientationState(2, 2, 0), "rotation must be in 0..1, got 2"),
    (lambda: curve.OrientationState(2, 0, 4), "flips must be in 0..3, got 4"),
    (lambda: measure.CellUnion.of_segment(2, 2, [16]), "cell index must be in 0..15, got 16"),
    # a bound of 1807 digits shows its first 37, as a value does
    (lambda: measure.CellUnion.of_segment(2, 3000, [1 << 6001]),
     "cell index must be in 0..1513470582304237072513410067329391955..., "
     "got 3026941164608474145026820134658783910..."),
    (lambda: DyadicRect(make_point([0], 1), (-1,)), "side exponent must be >= 0, got -1"),
    (lambda: measure.monte_carlo_uniformity(100, 0, 0),
     "grid must be in 1..2147483648, got 0"),
], ids=["rotation", "flips", "index", "index-bound-cut", "side-exponent", "grid"])
def test_every_integer_argument_names_its_range(call, message):
    with pytest.raises(RangeError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call", [
    lambda n: UnitScalar(1, n(70)) == UnitScalar(1, 70),
    lambda n: UnitScalar(1, n(70)).as_fraction(),
    lambda n: DyadicRect(make_point([0, 0], 0), (n(40),) * 2).volume(),
    lambda n: measure.CellUnion.of_segment(n(8), n(8), [1]).measure(),
    lambda n: measure.CellUnion.of_cube(n(2), n(40), [5]).measure(),
    lambda n: curve.forward_map(CubePoint((UnitScalar(n(3), n(70)),) * 2), n(40)),
    lambda n: curve.inverse_map(UnitScalar(n(5), n(80)), n(40), n(2)),
], ids=["scalar-equality", "scalar-fraction", "rect-volume", "segment-union-measure",
        "cube-union-measure", "forward-map", "inverse-map"])
def test_a_numpy_int_field_acts_as_the_equal_int(call):
    # each value once kept the numpy int it was given, so a later shift
    # ran in int64: a wrong value or a ZeroDivisionError
    assert call(np.int64) == call(int)


def test_frozen_values_keep_the_python_int_their_reader_returns():
    n = np.int64
    union = measure.CellUnion.of_segment(n(8), n(8), [1])
    rect = DyadicRect(make_point([0], 0), [n(40)])
    assert rect.side_exponents == (40,) and type(rect.side_exponents) is tuple
    kept = [*vars(UnitScalar(n(3), n(70))).values(),
            *vars(curve.OrientationState(n(3), n(2), n(5))).values(),
            *rect.side_exponents, union.dimension, union.depth]
    assert len(kept) == 8 and all(type(v) is int for v in kept)
