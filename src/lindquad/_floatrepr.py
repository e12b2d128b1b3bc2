"""Python's float ``repr`` for whole float64 arrays at once.

``repr_words(x)`` returns a ``(len(x), 4)`` array of little-endian uint64
words. The 32 bytes of row ``i`` are the ASCII text of
``repr(float(x[i]))`` once their NUL bytes are dropped. Each piece of the
text has a fixed byte slot, and unused slots hold NUL, so a caller can lay
many rows side by side and drop every NUL in one pass. The last byte of a
row is always NUL, free for a separator.

``repr`` prints the shortest decimal that reads back to the same double;
when several are that short, the one nearest the double, and on a tie the
one with an even last digit. Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020) finds exactly that decimal from three 126 x 64 bit
products ``rop`` against a table of powers of ten: the scaled value vb and
the ends vbl and vbr of the interval that rounds to it. It runs as numpy
uint64 arithmetic with each product split into 32-bit halves. It differs
from the JDK's ``DoubleToDecimal`` in one place: the one-digit-shorter
candidate is tried whenever ``s >= 10``. The JDK keeps two digits
(``4.9E-324`` where ``repr`` prints ``5e-324``), and so the small
subnormals need no rescaling by ten here.

Only vb is multiplied out; the ends come from its product, as Ryū's
``mulShiftAll64`` (U. Adams, "Ryū: fast float-to-string conversion", PLDI
2018) gets its three results from shared partial products. The three
multipliers differ by +-2**t, and moving the multiplier moves ``rop``'s
truncated sum by an amount that is known exactly, including the carry out
of the low word ``rop`` drops (see ``_moves``). So every bound equals the
direct product, bit for bit: there is no rounding band to guard and no
value falls back to three products. ``tests/floatrepr_sweep.py`` checks
this against the direct products over random bit patterns.

The text follows CPython's short float repr. With the value written as
``0.DIGITS * 10**decpt``, it is positional when ``decpt`` is in -3..16, with
``.0`` after a whole number, and otherwise ``d[.ddd]e±XX`` with at least
two exponent digits. Non-finite values print as ``inf``, ``-inf`` and
``nan``.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.typing import NDArray

__all__ = ["repr_words"]

# Byte slots of one row, eight to a word:
#   word 0     sign, "0.000" for 1e-4 <= |x| < 1 (its first 2-5 bytes),
#              digit 0, point
#   words 1-2  digits 1-16; a point after digit j > 0 is put in after them
#              and the bytes that follow move up by one
#   word 3     the byte moved out of word 2, "e", exponent sign, two or
#              three exponent digits, NUL
_U = np.uint64
_K_MIN, _K_MAX = -324, 292  # decimal exponents k of the binary exponents
_DECPT = 330  # offset of decpt, -323..309 for finite doubles, in its tables
_C_MIN = _U(1 << 52)
_MASK_32 = _U((1 << 32) - 1)
_MASK_63 = _U((1 << 63) - 1)
_HIGH_BIT = _U(1 << 63)
_POW10 = np.array([10 ** i for i in range(18)], dtype=_U)


def _word(text: bytes) -> int:
    return int.from_bytes(text.ljust(8, b"\0"), "little")


def _frozen(table) -> NDArray:
    table = np.asarray(table)
    table.setflags(write=False)
    return table


# the first k bytes of a word, k = 0..8
_BYTES = _frozen(np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=_U))
_INF, _NAN = (_U(_word(text)) for text in (b"inf", b"nan"))


def _flog2pow10(e):
    """floor(e log2 10), exact for |e| <= 5,456,721."""
    return (e * 913_124_641_741) >> 38


@functools.cache
def _powers() -> tuple[NDArray[np.uint64], NDArray[np.uint64]]:
    """Schubfach's g = floor(10**-k / 2**r) + 1 with 2**125 <= g < 2**126.

    Returned as its high and low 63 bits g1 and g0, each indexed by
    ``k - _K_MIN``.
    """
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        if k > 0:
            g.append((1 << -r) // 10 ** k + 1)
        else:
            g.append((10 ** -k << -r if r < 0 else 10 ** -k >> r) + 1)
    return (_frozen(np.array([v >> 63 for v in g], dtype=_U)),
            _frozen(np.array([v & (1 << 63) - 1 for v in g], dtype=_U)))


@functools.cache
def _layout() -> tuple[NDArray, ...]:
    """Lookup tables for the text, built at first use.

    By group v < 10**4: its four ASCII digits, and for each of the four
    groups j the digits shown up to its last nonzero one, 4 j + 1 + its
    length without trailing zeros (0 for v = 0). By the digits shown: the
    bytes of words 1 and 2 that hold them. By ``point + 1``, point = -1..15:
    the bytes of words 1 and 2 that stay put and the point put in after
    them. By ``decpt + _DECPT``: word 0 with an ASCII zero for digit 0 and
    no sign or point, word 3 without its first byte, the fewest digits shown
    (``decpt + 1`` for whole numbers, which end in ``.0``) and one more
    than the digit the point follows (0: none).
    """
    v = np.arange(10 ** 4)
    ascii4 = sum(_U(ord("0")) + (v // 10 ** (3 - j) % 10).astype(_U) << _U(8 * j)
                 for j in range(4))
    length = np.full(v.size, 4)
    for j in (1, 2, 3):
        length -= v % 10 ** j == 0
    ends = np.array([(length + 1 + 4 * j) * (v != 0) for j in range(4)], dtype=np.int8)
    shown = np.arange(18)
    shown_a = _BYTES[np.clip(shown - 1, 0, 8)]
    shown_b = _BYTES[np.clip(shown - 9, 0, 8)]
    everything = (1 << 64) - 1
    keep_a = [everything] * 2 + [_BYTES[j] if j < 8 else everything for j in range(1, 16)]
    keep_b = [everything] * 2 + [0 if j < 8 else _BYTES[j - 8] for j in range(1, 16)]
    dot_a = [0] * 2 + [ord(".") << 8 * j if j < 8 else 0 for j in range(1, 16)]
    dot_b = [0] * 2 + [0 if j < 8 else ord(".") << 8 * (j - 8) for j in range(1, 16)]
    lead, exponent, min_used, point = [], [], [], []
    for decpt in range(-_DECPT, _DECPT):
        positional = -4 < decpt <= 16
        whole = positional and decpt > 0
        lead.append(_word((b"\0" + b"0.000"[:2 - decpt] if positional and not whole
                           else b"").ljust(6, b"\0") + b"0"))
        exponent.append(0 if positional else _word(b"\0e%+03d" % (decpt - 1)))
        min_used.append(decpt + 1 if whole else 1)
        point.append(decpt if whole else 0 if positional else 1)
    words = [ascii4, shown_a, shown_b, keep_a, dot_a, keep_b, dot_b, lead, exponent]
    return (*(_frozen(np.array(t, dtype=_U)) for t in words), _frozen(ends),
            *(_frozen(np.array(t, dtype=np.int8)) for t in (min_used, point)))


def _mulhi(a, b1, b0):
    """High 64 bits of the 128-bit products ``a b`` for a < 2**63 and
    b = b1 2**32 + b0 < 2**60, so that the two cross products sum to less
    than 2**64."""
    a1, a0 = a >> 32, a & _MASK_32
    cross = a0 * b1 + a1 * b0
    mid = ((a0 * b0) >> 32) + (cross & _MASK_32)
    return a1 * b1 + (cross >> 32) + (mid >> 32)


def _moves(whole, fraction, g1, g0, low, t):
    """``rop`` of g (cp - 2**t) and of g (cp + 2**t), given g cp as
    ``whole`` 2**63 + ``fraction`` and ``low``, the low word of g0 cp.

    Moving cp by +-2**t moves W = floor(g1 cp / 2) + floor(g0 cp / 2**64)
    by exactly +-g1 2**(t - 1) and +-(g0 >> (64 - t)), plus the carry or
    less the borrow of ``low`` +- the low word of g0 2**t.
    """
    spill = 64 - t
    g0_moved = g0 << t
    step = ((g1 << (t - 1)) & _MASK_63) + (g0 >> spill)
    steps = (g1 >> spill) + (step >> 63)
    step &= _MASK_63  # the move is steps 2**63 + step, and step < 2**63
    up = fraction + step + (low + g0_moved < low)
    down = (fraction | _HIGH_BIT) - step - (low < g0_moved)
    return ((whole - steps - _U(1) + (down >> 63)) | ((down & _MASK_63) != 0),
            (whole + steps + (up >> 63)) | ((up & _MASK_63) != 0))


def _bounds(g1, g0, cb, h, twos):
    """Schubfach's vbl, vb and vbr: ``rop`` of g (cb - 2) 2**h, g cb 2**h
    and g (cb + 2) 2**h, all three from the products of one cp; vbl is at
    g (cb - 1) 2**h instead for the indices ``twos``, the powers of two.

    With g = g1 2**63 + g0, ``rop`` of g cp is floor(W / 2**63), made odd
    when 2**63 does not divide W, for W = floor(g1 cp / 2) + floor(g0 cp /
    2**64): the low 64 bits of g0 cp are dropped. :func:`_moves` moves W
    exactly, so every value takes ``rop``'s digits. cp < 2**55 2**5 suits
    :func:`_mulhi`.
    """
    cp = cb << h
    cp1, cp0 = cp >> 32, cp & _MASK_32
    z = ((g1 * cp) >> 1) + _mulhi(g0, cp1, cp0)
    whole, fraction = _mulhi(g1, cp1, cp0) + (z >> 63), z & _MASK_63
    low = g0 * cp
    vbl, vbr = _moves(whole, fraction, g1, g0, low, h + 1)
    if twos.size:
        vbl[twos] = _moves(*(a[twos] for a in (whole, fraction, g1, g0, low, h)))[0]
    return vbl, whole | (fraction != 0), vbr


def _shortest(bits: NDArray[np.uint64]) -> tuple[NDArray[np.uint64], NDArray[np.int64]]:
    """Digits ``d`` and exponent ``e`` such that d 10**e reads back as |x|.

    ``bits`` are the IEEE bits of finite, nonzero doubles with the sign
    cleared. ``d`` is the shortest such integer up to trailing zeros, and
    the nearest to |x| among those, ties to even. Other bit patterns give
    arbitrary digits.
    """
    biased = np.maximum(bits >> 52, 1)  # 1 for subnormals
    c = bits - ((biased - 1) << 52)  # the significand with its leading bit
    q = biased.view(np.int64) - 1075  # |x| = c 2**q
    # the values that round to |x| span [vbl, vbr] / 4 in units of 10**k,
    # around vb / 4; the span below a power of two is half as wide
    twos = np.flatnonzero((c == _C_MIN) & (q > -1074))
    # k = floor(log10(2**q)), or floor(log10(3/4 2**q)) below a power of two
    k = (q * 661_971_961_083) >> 41
    k[twos] = (q[twos] * 661_971_961_083 - 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).view(_U)
    g1, g0 = (table.take(k - _K_MIN) for table in _powers())
    vbl, vb, vbr = _bounds(g1, g0, c << 2, h, twos)
    out = c & 1  # an even c keeps the end points
    lower = vbl + out
    s = vb >> 2
    # one digit shorter: at most one multiple of ten is in the span
    s10 = s // 10
    s40 = s10 * 40
    upin = lower <= s40
    wpin = s40 + 40 + out <= vbr
    shorter = (s >= 10) & (upin != wpin)
    # as long as s: s or s + 1, the one inside, else the nearer, else even
    s4 = vb & ~_U(3)
    uin = lower <= s4
    win = s4 + 4 + out <= vbr
    nearer = (vb & 3) + (s & 1) < 3
    digits = s + ~((uin & ~win) | ((uin == win) & nearer))
    return np.where(shorter, s10 + ~upin, digits), k + shorter


def repr_words(x, out: NDArray[np.uint64] | None = None) -> NDArray[np.uint64]:
    """``repr`` of every value of the float64 array ``x``, as NUL-padded rows.

    The rows are written to ``out``, a ``(x.size, 4)`` little-endian uint64
    array or view, when it is given.
    """
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    bits = x.view(_U)
    magnitude = bits & _MASK_63
    (ascii4, shown_a, shown_b, keep_a, dot_a, keep_b, dot_b, lead, exponent, ends,
     min_used, point_at) = _layout()

    digits, exp10 = _shortest(magnitude)
    odd = np.flatnonzero(magnitude - _U(1) >= _U(0x7FEF_FFFF_FFFF_FFFF))  # 0 (wraps), inf, nan
    digits[odd] = 0  # zero prints as 0.0: decpt 1
    # normal values have 15 to 17 digits; zero and subnormals may have fewer
    length = 15 + (digits >= _POW10[15]) + (digits >= _POW10[16])
    few = np.flatnonzero(digits < _POW10[14])
    length[few] = np.searchsorted(_POW10, digits[few], side="right")
    decpt = exp10 + length + _DECPT  # |x| = 0.DIGITS 10**decpt
    decpt[odd] = 1 + _DECPT
    scaled = digits * _POW10.take(17 - length)  # exactly 17 digits, or zero
    first = scaled // _U(10 ** 16)
    rest = scaled - first * _U(10 ** 16)
    high = rest // _U(10 ** 8)
    low = rest - high * _U(10 ** 8)
    high4, low4 = high // _U(10 ** 4), low // _U(10 ** 4)
    groups = (high4, high - high4 * _U(10 ** 4), low4, low - low4 * _U(10 ** 4))
    used = min_used.take(decpt, mode="clip")
    for end, group in zip(ends, groups):
        used = np.maximum(used, end.take(group))
    point = point_at.take(decpt, mode="clip")
    point *= used > point

    rows = np.empty((x.size, 4), dtype="<u8") if out is None else out
    rows[:, 0] = (lead.take(decpt, mode="clip") | (bits >> 63) * _U(ord("-"))
                  | first << 48 | (point == 1) * _U(ord(".") << 56))
    run_a = (ascii4.take(groups[0]) | ascii4.take(groups[1]) << 32) & shown_a.take(used)
    run_b = (ascii4.take(groups[2]) | ascii4.take(groups[3]) << 32) & shown_b.take(used)
    rows[:, 1] = run_a
    rows[:, 2] = run_b
    rows[:, 3] = exponent.take(decpt, mode="clip")
    inside = np.flatnonzero(point > 1)  # the point follows a digit of words 1-2
    if inside.size:
        point, run_a, run_b = point[inside], run_a[inside], run_b[inside]
        stay_a = run_a & keep_a.take(point)
        stay_b = run_b & keep_b.take(point)
        moved_a, moved_b = run_a ^ stay_a, run_b ^ stay_b
        rows[inside, 1] = stay_a | dot_a.take(point) | moved_a << 8
        rows[inside, 2] = stay_b | dot_b.take(point) | moved_b << 8 | moved_a >> 56
        rows[inside, 3] |= moved_b >> 56
    special = odd[~np.isfinite(x[odd])]
    if special.size:
        nan = np.isnan(x[special])
        rows[special] = 0
        rows[special, 0] = (bits[special] >> 63) * _U(ord("-")) * ~nan
        rows[special, 1] = np.where(nan, _NAN, _INF)
    return rows
