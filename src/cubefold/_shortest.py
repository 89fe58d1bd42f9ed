"""Python's `repr` of float64 values, as bytes, for a whole array at once.

The digits are the shortest decimal that reads back to the same double,
the one nearest the value when two are that short: Schubfach
(R. Giulietti, "The Schubfach way to render doubles", 2020), in uint64
numpy arithmetic.  Each 64 x 64 -> 128-bit product is built from 32-bit
limbs, and 10^-k is read from a table of 617 126-bit values made from
Python ints on first use.  The Java reference (`DoubleToDecimal`) has two
rules that `repr` does not share, and both are left out: it tries the
one-digit-shorter candidate only when the scaled value has 3 digits or
more, and it rescales the smallest subnormals by 10.  With them it writes
4.9e-324 and 7.9e-323 where `repr` writes 5e-324 and 8e-323.

The text follows `repr`'s layout.  With value = 0.d1d2... * 10^point it
is positional for point in -3..16 and `d1.d2...e+XX` otherwise, with at
least two exponent digits; `.0` ends an integer, and zeros, infinities
and NaNs read `0.0`, `-0.0`, `inf`, `-inf` and `nan`.  A value's bytes
are one gather from its source row (17 left-aligned digits, 3 exponent
digits, constant bytes) through the layout keyed by (sign, point, digit
count).  `repr` is the tests' oracle.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

WIDTH = 24  # the longest repr: -1.2345678901234567e-308
_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U((1 << 63) - 1)
_K_MIN, _K_MAX = -324, 292  # the decimal exponent k of every double

# A source row: digits "A".."Q", exponent digits "XYZ", constant bytes;
# a layout is a string of these letters, " " a pad (a zero byte).
_SOURCE = "ABCDEFGHIJKLMNOPQXYZ-.0e+infa "
# The point of every finite double is in -323..309; two more stand for
# infinity and NaN.
_P_MIN, _P_INF, _P_NAN = -323, 310, 311
_POINTS = np.arange(_P_MIN, _P_NAN + 1)


def _read_only(*arrays):
    """The arrays, made read-only: a cache hands them to every caller."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _flog2pow10(e):
    """floor(e log2 10), exact for every |e| <= 2000."""
    return (e * 913124641741) >> 38


@lru_cache(maxsize=None)
def _g_table():
    """For k in _K_MIN.._K_MAX the 126-bit g = floor(10^-k 2^-r) + 1,
    r = flog2pow10(-k) - 125: the 32-bit limbs (low first) of its high
    63 bits and of its low 63 bits, and its high 63 bits whole."""
    fives = [1]
    for _ in range(-_K_MIN):
        fives.append(5 * fives[-1])
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        s = 125 - k - _flog2pow10(-k)  # 10^-k 2^-r = 5^-k 2^s
        if k <= 0:
            g.append((fives[-k] << s if s >= 0 else fives[-k] >> -s) + 1)
        else:
            g.append((1 << s) // fives[k] + 1)
    g1 = np.array([x >> 63 for x in g], dtype=np.uint64)
    g0 = np.array([x & ((1 << 63) - 1) for x in g], dtype=np.uint64)
    return _read_only(g1 & _M32, g1 >> _U(32), g0 & _M32, g0 >> _U(32), g1)


def _mulhi(a_lo, a_hi, b_lo, b_hi):
    """High 64 bits of the 128-bit product of a and b, given as limbs."""
    lh, hl = a_lo * b_hi, a_hi * b_lo
    mid = ((a_lo * b_lo) >> _U(32)) + (lh & _M32) + (hl & _M32)
    return a_hi * b_hi + (lh >> _U(32)) + (hl >> _U(32)) + (mid >> _U(32))


def _rop(g, cp):
    """Schubfach's g * cp / 2^127, rounded to odd; g as `_g_table` gives
    it, at each value's k."""
    g1_lo, g1_hi, g0_lo, g0_hi, g1 = g
    c_lo, c_hi = cp & _M32, cp >> _U(32)
    z = ((g1 * cp) >> _U(1)) + _mulhi(g0_lo, g0_hi, c_lo, c_hi)
    vbp = _mulhi(g1_lo, g1_hi, c_lo, c_hi) + (z >> _U(63))
    return vbp | (((z & _M63) + _M63) >> _U(63))


def _shortest(bits):
    """(f, k) with f * 10^k the shortest decimal in the rounding interval
    of each finite nonzero double, the nearer if two are; anything for
    zeros, infinities and NaNs."""
    exp_bits = ((bits >> _U(52)) & _U(0x7FF)).astype(np.int64)
    t = bits & _U((1 << 52) - 1)
    c = t | ((exp_bits > 0).astype(np.uint64) << _U(52))
    q = np.maximum(exp_bits, 1) - 1075
    # at a power of two above 2^-1022 the interval below is half as wide
    asym = (t == 0) & (exp_bits > 1)
    # floor(log10 2^q), or floor(log10 (3/4 2^q)) there; exact for every q
    # of a double
    k = (q * 661971961083 - asym * 274743187321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g = tuple(np.take(part, k - _K_MIN) for part in _g_table())
    cb = c << _U(2)
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - _U(2) + asym) << h)
    vbr = _rop(g, (cb + _U(2)) << h)
    out = c & _U(1)  # an odd significand's interval leaves out its ends
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    upin = vbl + out <= sp10 << _U(2)
    wpin = (sp10 << _U(2)) + _U(40) + out <= vbr
    uin = vbl + out <= s << _U(2)
    win = (s << _U(2)) + _U(4) + out <= vbr
    mid = (s << _U(2)) + _U(2)  # vb against the midpoint of s and s + 1
    nearer_s = (vb < mid) | ((vb == mid) & (s & _U(1) == 0))
    one = uin ^ win
    f = s + ((one & win) | (~one & ~nearer_s))
    ten = upin ^ wpin  # one of sp10, sp10 + 10 is in: a digit fewer
    return f + ten * (sp10 + wpin * _U(10) - f), k


# A layout is fixed by the sign, the digit count and the point's class:
# each point of -3..16 (positional); in exponent form the exponent's sign
# and whether it has 3 digits; infinity; NaN.  A point stands for each.
_CLASS_POINT = [*range(-3, 17), 20, 200, -10, -200, _P_INF, _P_NAN]
_EXP_POINTS = _POINTS - 1
_CLASS = np.select(
    [_POINTS == _P_INF, _POINTS == _P_NAN, (_POINTS >= -3) & (_POINTS <= 16)],
    [_CLASS_POINT.index(_P_INF), _CLASS_POINT.index(_P_NAN), _POINTS + 3],
    20 + 2 * (_EXP_POINTS < 0) + (np.abs(_EXP_POINTS) >= 100))


def _layout(point, n):
    """The layout of a nonnegative value's text; n digits, point as in the
    module doc."""
    digits = "ABCDEFGHIJKLMNOPQ"[:n]
    if point == _P_INF:
        return "inf"
    if point == _P_NAN:
        return "nan"
    if point <= -4 or point > 16:
        exponent = "-" if point < 1 else "+"
        exponent += "XYZ" if abs(point - 1) >= 100 else "YZ"
        return digits[0] + "." * (n > 1) + digits[1:] + "e" + exponent
    if point <= 0:
        return "0." + "0" * -point + digits
    if point < n:
        return digits[:point] + "." + digits[point:]
    return digits + "0" * (point - n) + ".0"


@lru_cache(maxsize=None)
def _templates():
    """Every layout, numbered (sign * classes + class) * 17 + digits - 1, as a
    column of source-row indices padded to WIDTH; their lengths; and the 3
    ASCII exponent digits of each point, a column each."""
    plain = [_layout(point, n) for point in _CLASS_POINT for n in range(1, 18)]
    signed = ["-" * (text != "nan") + text for text in plain]
    text = "".join(layout.ljust(WIDTH) for layout in plain + signed)
    lut = np.zeros(128, dtype=np.intp)
    lut[np.frombuffer(_SOURCE.encode(), dtype=np.uint8)] = np.arange(len(_SOURCE))
    index = lut[np.frombuffer(text.encode(), dtype=np.uint8)].reshape(-1, WIDTH).T
    lengths = np.count_nonzero(index != _SOURCE.index(" "), axis=0)
    expo = np.abs(_EXP_POINTS)
    exp_digits = np.stack([expo // 100, expo // 10 % 10, expo % 10])
    return _read_only(index, lengths, (exp_digits + ord("0")).astype(np.uint8))


_POW10 = np.array([10 ** i for i in range(18)], dtype=np.uint64)
_PLACES = np.arange(1, 18, dtype=np.uint8)[:, None]
_CONSTANTS = np.frombuffer(_SOURCE[20:].replace(" ", "\0").encode(),
                           dtype=np.uint8)[:, None]


def repr_bytes(bits: np.ndarray):
    """Each float64 bit pattern's `repr` as ASCII bytes.

    Returns the texts as the rows of a uint8 matrix as wide as the
    longest, each followed by zero bytes, and the length of each text.
    """
    bits = np.asarray(bits, dtype=np.uint64)
    index, layout_lengths, exp_digits = _templates()
    f, k = _shortest(bits)
    special = (bits << _U(1)) >= _U(0x7FF << 53)
    odd = special | ((bits << _U(1)) == 0)  # zeros, infinities, NaNs
    f[odd] = 0  # one digit 0 at point 1, or at the point standing for them
    k[odd] = 0
    k[special] = _P_INF - 1 + ((bits[special] << _U(12)) != 0)  # NaN: _P_NAN
    size = np.maximum(np.searchsorted(_POW10, f, side="right"), 1)  # f's digits
    point = k + size
    aligned = f * np.take(_POW10, 17 - size)  # 17 digits, the first nonzero
    high = aligned // _U(10 ** 8)
    parts = np.concatenate([high, aligned - high * _U(10 ** 8)]).astype(np.uint32)
    m = len(bits)
    source = np.empty((len(_SOURCE), m), dtype=np.uint8)
    above = parts // np.uint32(10 ** 8)  # the first digit; 0 in the low part
    source[0] = above[:m]
    for i in range(1, 9):
        part = parts // np.uint32(10 ** (8 - i))
        source[i], source[8 + i] = np.split(part - above * np.uint32(10), 2)
        above = part
    ndigits = np.max((source[:17] != 0) * _PLACES, axis=0)
    source[:17] += ord("0")
    source[17:20] = np.take(exp_digits, point - _P_MIN, axis=1)
    source[20:] = _CONSTANTS
    sign = (bits >> _U(63)).astype(np.intp)
    layout = ((sign * len(_CLASS_POINT) + np.take(_CLASS, point - _P_MIN)) * 17
              + np.maximum(ndigits, 1) - 1)
    lengths = np.take(layout_lengths, layout)
    gather = np.take(index[:lengths.max(initial=0)], layout, axis=1)
    gather *= m
    gather += np.arange(m)
    return np.ascontiguousarray(np.take(source.ravel(), gather).T), lengths
