"""`repr`'s bytes for a batch of doubles, built in numpy.

`repr` prints a float's shortest round-trip digits (Steele and White, 1990):
the fewest significant digits that read back as the same double and, of
those, the nearest to it. For each double x in [1e-7, 1) that is not a power
of two, `repr_bytes` finds those digits for a whole batch at once:

1. With x in [10**(k-1), 10**k), V = x * 10**p for p = 16 - k <= 22 lies in
   [1e15, 1e16). 10**p is a double, so Dekker's split product (1971) gives V
   exactly as a sum of two doubles; numpy never fuses a multiply and an add,
   which would spoil its error term. From that sum comes V = w + phi: w the
   nearest integer, |phi| <= 1/2.
2. w is the 16-digit candidate. Below 2**53 it is a double, and a division
   is correctly rounded, so w / 10**p == x holds exactly when w reads back
   as x. From 2**53 on, w is judged against x's rounding interval,
   x +- ulp/2, scaled by 10**p.
3. If w fails, 17 digits are needed: the nearest 17-digit integer to 10 * V,
   10 * w + rint(10 * phi), always reads back.
4. If w passes, the nearest candidates of 15, 14, ... digits are tried with
   the same exact division, and the last one to pass is the shortest. As x's
   interval is symmetric (x is not a power of two), a candidate nearer to x
   passes whenever a farther one does, so the nearest one of each length
   decides that length.
5. The digits are laid out as `repr` lays them out: `0.000ddd` down to
   1e-4, `d.ddde-05` below.

A value within 2**-40 of a tie at 16 or 17 digits, or of its interval's end
where the interval judges it, goes to `repr`, as does every value outside
that range: one list of `repr` strings for the batch.
"""

from __future__ import annotations

import numpy as np

# A row's columns: `0.000` (the positional prefix), the first digit, `.`, one
# spare that 4-byte aligns the next 16, the other 16 digits, and `e-0X`. The
# bytes a row does not use are PAD, which neither ASCII nor UTF-8 uses.
WIDTH = 28
PAD = 0xFF
_FIRST, _REST = 5, 8

_POW10 = np.array([float(10 ** p) for p in range(23)])  # 10**p is a double up to p = 22
_POW10_INT = np.array([10 ** p for p in range(18)], dtype=np.int64)
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's splitting factor for doubles
_TOL = 2.0 ** -40     # values nearer than this to a tie or an interval's end go to `repr`
_MANTISSA = np.uint64((1 << 52) - 1)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a as hi + lo, each of at most 26 significant bits (Dekker)."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


def _least_double_at_least(power: int) -> float:
    """The least double >= 10**power, for power <= 0."""
    f = float(f"1e{power}")
    num, den = f.as_integer_ratio()
    return f if num * 10 ** -power >= den else float(np.nextafter(f, np.inf))


def _shapes() -> np.ndarray:
    """The bytes of each row shape but its digits' own, shape `count - 18 * point`.

    `point` runs over [-6, 0]: `0.000ddd` down to -3, `d.ddde-0X` below.
    """
    rows = []
    for zeros in range(7):
        for count in range(18):
            row = bytearray([PAD]) * WIDTH
            row[_FIRST] = ord("0")
            if zeros < 4:
                row[:2 + zeros] = b"0." + b"0" * zeros
            else:
                row[-4:] = b"e-0%d" % (zeros + 1)
                if count > 1:
                    row[_FIRST + 1] = ord(".")
            rows.append(row)
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(-1, WIDTH)


_POW10_HI, _POW10_LO = _split(_POW10)
# x at or above _DECADES[i - 1] and below _DECADES[i] lies in [10**(i-8), 10**(i-7)): p = 23 - i.
_DECADES = [_least_double_at_least(e) for e in range(-7, 1)]
_SHAPES = _shapes()
# Row `count` of _UNUSED is PAD over the 16 digit columns a `count`-digit value leaves empty.
_UNUSED = np.frombuffer(b"".join(bytes(used) + bytes([PAD]) * (16 - used)
                                 for used in [0, *range(17)]), dtype=np.uint32).reshape(18, 4)
# The ASCII of each 4-digit group 0000-9999, as one uint32.
_ASCII = np.frombuffer(b"0123456789", dtype=np.uint8)
_DIGITS4 = np.stack([np.repeat(_ASCII, 1000), np.tile(np.repeat(_ASCII, 100), 10),
                     np.tile(np.repeat(_ASCII, 10), 100), np.tile(_ASCII, 1000)], axis=1).view(np.uint32).ravel()


def repr_bytes(x: np.ndarray) -> np.ndarray:
    """A (len(x), WIDTH) uint8 matrix: row i without its PAD bytes is `repr(float(x[i]))`.

    `x` is 1-D; any double is formatted, those off the vector path by `repr`.
    """
    x = np.asarray(x, dtype=np.float64)
    decade = np.zeros(x.shape, dtype=np.intp)
    for bound in _DECADES:
        decade += x >= bound  # NaN is at no bound
    fast = (decade >= 1) & (decade < len(_DECADES)) & ((x.view(np.uint64) & _MANTISSA) != 0)
    at = np.flatnonzero(fast)
    digits, count, point, doubtful = _shortest(x[at], 23 - decade[at])
    if at.size == x.size:
        chars = _layout(digits, count, point)
    else:
        chars = np.empty((x.size, WIDTH), dtype=np.uint8)
        chars[at] = _layout(digits, count, point)
    fast[at[doubtful]] = False
    _fill_with_repr(x, np.flatnonzero(~fast), chars)
    return chars


def _shortest(x: np.ndarray, p: np.ndarray):
    """(digits, count, point, doubtful) of each x in [10**(15-p), 10**(16-p)), not a power of two.

    x's shortest round-trip digits are those of the `count`-digit integer
    `digits`, and x is about 0.digits * 10**point. `doubtful` marks the
    values to leave to `repr`.
    """
    scale = _POW10[p]
    hi = x * scale
    x_hi, x_lo = _split(x)
    scale_hi, scale_lo = _POW10_HI[p], _POW10_LO[p]
    lo = ((x_hi * scale_hi - hi) + x_hi * scale_lo + x_lo * scale_hi) + x_lo * scale_lo
    whole = np.floor(hi)
    frac = (hi - whole) + lo
    up = np.rint(frac)
    phi = frac - up  # V = w + phi, to within 2**-52
    w = whole.astype(np.int64) + up.astype(np.int64)

    exact = w < 2 ** 53
    half_ulp = np.spacing(x) * 0.5 * scale
    size = np.abs(phi)
    reads_back = np.where(exact, w.astype(np.float64) / scale == x, size < half_ulp)
    doubtful = np.abs(size - 0.5) < _TOL
    doubtful |= ~exact & (np.abs(size - half_ulp) < _TOL)

    tenth = phi * 10.0
    last = np.rint(tenth)
    doubtful |= ~reads_back & (np.abs(np.abs(tenth - last) - 0.5) < _TOL)
    digits = np.where(reads_back, w, w * 10 + last.astype(np.int64))
    count = 17 - reads_back
    point = 16 - p

    # The nearest candidate of 16 - drop digits is w rounded at 10**drop. A
    # tail of exactly half a unit leaves both neighbours 4.5 or more from V,
    # beyond half an ulp (under 1.12 at this scale): neither reads back.
    at = np.flatnonzero(reads_back & ~doubtful)
    w, x, p = w[at], x[at], p[at]
    for drop in range(1, 16):
        unit = 10 ** drop
        shorter = (w + unit // 2) // unit
        passes = shorter.astype(np.float64) / _POW10[p - drop] == x
        at = at[passes]
        if not at.size:
            break
        digits[at], count[at] = shorter[passes], 16 - drop
        w, x, p = w[passes], x[passes], p[passes]

    carry = digits == _POW10_INT[count]  # x reads back as the power of ten 10**point
    digits[carry], count[carry] = 1, 1
    point[carry] += 1
    return digits, count, point, doubtful


def _layout(digits: np.ndarray, count: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Rows of `0.000ddd` for point > -4 and of `d.ddde-0X` below, as `repr` writes them."""
    chars = np.take(_SHAPES, count - 18 * point, axis=0)
    unused = np.take(_UNUSED, count, axis=0)
    padded = digits * _POW10_INT[17 - count]  # 17 digits
    head = padded // 10 ** 8
    first = head // 10 ** 8
    chars[:, _FIRST] += first.astype(np.uint8)
    quads = chars[:, _REST:_REST + 16].view(np.uint32)
    for col, part in enumerate((head - first * 10 ** 8, padded - head * 10 ** 8)):
        high = part // 10_000
        np.bitwise_or(_DIGITS4[high], unused[:, 2 * col], out=quads[:, 2 * col])
        np.bitwise_or(_DIGITS4[part - high * 10_000], unused[:, 2 * col + 1], out=quads[:, 2 * col + 1])
    return chars


def _fill_with_repr(x: np.ndarray, rows: np.ndarray, chars: np.ndarray) -> None:
    """Rows `rows` of `chars` from `repr`, one list for the batch."""
    if not rows.size:
        return
    raw = np.array(list(map(repr, x[rows].tolist())), dtype="S24").view(np.uint8).reshape(rows.size, 24)
    raw[raw == 0] = PAD  # `repr` writes no NUL: these pad the shorter strings
    if rows.size == x.size:
        rows = slice(None)
    chars[rows, :24] = raw
    chars[rows, 24:] = PAD
