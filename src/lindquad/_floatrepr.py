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
render doubles", 2020) finds exactly that decimal with three 64 x 126 bit
products against a table of powers of ten, so it runs as numpy uint64
arithmetic with each product split into 32-bit halves. It differs from the
JDK's ``DoubleToDecimal`` in one place: the one-digit-shorter candidate is
tried whenever ``s >= 10``. The JDK keeps two digits (``4.9E-324`` where
``repr`` prints ``5e-324``), and so the small subnormals need no rescaling
by ten here.

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
_MASK_52 = _U((1 << 52) - 1)
_MASK_63 = _U((1 << 63) - 1)
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
def _powers() -> tuple[NDArray[np.uint64], ...]:
    """Schubfach's g = floor(10**-k / 2**r) + 1 with 2**125 <= g < 2**126.

    Returned as its high and low 63 bits g1 and g0, then their high and low
    32-bit halves, each indexed by ``k - _K_MIN``.
    """
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        if k > 0:
            g.append((1 << -r) // 10 ** k + 1)
        else:
            g.append((10 ** -k << -r if r < 0 else 10 ** -k >> r) + 1)
    g1 = np.array([v >> 63 for v in g], dtype=_U)
    g0 = np.array([v & (1 << 63) - 1 for v in g], dtype=_U)
    return tuple(_frozen(t) for t in (g1, g0, g1 >> 32, g1 & _MASK_32,
                                      g0 >> 32, g0 & _MASK_32))


@functools.cache
def _layout() -> tuple[NDArray, ...]:
    """Lookup tables for the text, built at first use.

    By group v < 10**4: its four ASCII digits, and its length without
    trailing zeros (-16 for 0, below any other). By ``point + 1``, point =
    -1..15: the bytes of words 1 and 2 that stay put and the point put in
    after them. By ``decpt + _DECPT``: word 0 without the sign, digit 0 and
    point, word 3 without its first byte, the fewest digits shown
    (``decpt + 1`` for whole numbers, which end in ``.0``) and the digit the
    point follows (-1: none).
    """
    v = np.arange(10 ** 4)
    ascii4 = sum(_U(ord("0")) + (v // 10 ** (3 - j) % 10).astype(_U) << _U(8 * j)
                 for j in range(4))
    length = np.full(v.size, 4)
    for j in (1, 2, 3):
        length -= v % 10 ** j == 0
    length[0] = -16
    everything = (1 << 64) - 1
    keep_a = [everything] * 2 + [_BYTES[j] if j < 8 else everything for j in range(1, 16)]
    keep_b = [everything] * 2 + [0 if j < 8 else _BYTES[j - 8] for j in range(1, 16)]
    dot_a = [0] * 2 + [ord(".") << 8 * j if j < 8 else 0 for j in range(1, 16)]
    dot_b = [0] * 2 + [0 if j < 8 else ord(".") << 8 * (j - 8) for j in range(1, 16)]
    lead, exponent, min_used, point = [], [], [], []
    for decpt in range(-_DECPT, _DECPT):
        positional = -4 < decpt <= 16
        whole = positional and decpt > 0
        lead.append(_word(b"\0" + b"0.000"[:2 - decpt]) if positional and not whole else 0)
        exponent.append(0 if positional else _word(b"\0e%+03d" % (decpt - 1)))
        min_used.append(decpt + 1 if whole else 1)
        point.append(decpt - 1 if whole else -1 if positional else 0)
    words = [ascii4, keep_a, dot_a, keep_b, dot_b, lead, exponent]
    return (*(_frozen(np.array(t, dtype=_U)) for t in words), _frozen(length),
            _frozen(np.array(min_used)), _frozen(np.array(point)))


def _mulhi(a1, a0, b):
    """High 64 bits of the 128-bit products ``a b``, a = a1 2**32 + a0."""
    b1, b0 = b >> 32, b & _MASK_32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> 32) + (p01 & _MASK_32) + (p10 & _MASK_32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _rop(g, cp):
    """g cp / 2**127 rounded to odd, as Schubfach's ``rop`` computes it (the
    low 64 bits of g0 cp are dropped)."""
    g1, g0, g1h, g1l, g0h, g0l = g
    z = ((g1 * cp) >> 1) + _mulhi(g0h, g0l, cp)
    return (_mulhi(g1h, g1l, cp) + (z >> 63)) | ((z & _MASK_63) != 0)


def _shortest(bits: NDArray[np.uint64]) -> tuple[NDArray[np.uint64], NDArray[np.int64]]:
    """Digits ``d`` and exponent ``e`` such that d 10**e reads back as |x|.

    ``bits`` are the IEEE bits of finite, nonzero doubles with the sign
    cleared. ``d`` is the shortest such integer up to trailing zeros, and
    the nearest to |x| among those, ties to even. Other bit patterns give
    arbitrary digits.
    """
    biased = (bits >> 52).astype(np.int64)
    c = (bits & _MASK_52) | (biased != 0) * _C_MIN
    q = np.maximum(biased, 1) - 1075  # |x| = c 2**q
    # the values that round to |x| span [vbl, vbr] / 4 in units of 10**k,
    # around vb / 4; the span below a power of two is half as wide
    regular = (c != _C_MIN) | (q == -1074)
    # k = floor(log10(2**q)), or floor(log10(3/4 2**q)) below a power of two
    k = (q * 661_971_961_083 - ~regular * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(_U)
    index = k - _K_MIN
    g = tuple(table.take(index) for table in _powers())
    cb = c << 2
    vb = _rop(g, cb << h)
    vbl = _rop(g, (cb - 1 - regular) << h)
    vbr = _rop(g, (cb + 2) << h)
    out = c & 1  # an even c keeps the end points
    lower = vbl + out
    s = vb >> 2
    # one digit shorter: at most one multiple of ten is in the span
    s10 = s // 10
    upin = lower <= s10 * 40
    wpin = s10 * 40 + 40 + out <= vbr
    shorter = (s >= 10) & (upin != wpin)
    # as long as s: s or s + 1, the one inside, else the nearer, else even
    uin = lower <= s << 2
    win = ((s + 1) << 2) + out <= vbr
    mid = (s << 2) + 2
    nearer = (vb < mid) | ((vb == mid) & ((s & 1) == 0))
    take_s = (uin & ~win) | ((uin == win) & nearer)
    digits = s + ~take_s
    return digits + (s10 + ~upin - digits) * shorter, k + shorter


def repr_words(x, out: NDArray[np.uint64] | None = None) -> NDArray[np.uint64]:
    """``repr`` of every value of the float64 array ``x``, as NUL-padded rows.

    The rows are written to ``out``, a ``(x.size, 4)`` little-endian uint64
    array or view, when it is given.
    """
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    bits = x.view(_U)
    magnitude = bits & _MASK_63
    finite = np.isfinite(x)
    nonzero = finite & (magnitude != 0)
    (ascii4, keep_a, dot_a, keep_b, dot_b, lead, exponent, group_length,
     min_used, point_at) = _layout()

    digits, exp10 = _shortest(magnitude)
    digits *= nonzero  # zero prints as 0.0: decpt 1
    length = np.searchsorted(_POW10, digits, side="right")
    decpt = exp10 * nonzero + ~nonzero + length + _DECPT  # |x| = 0.DIGITS 10**decpt
    scaled = digits * _POW10.take(17 - length)  # exactly 17 digits, or zero
    first = scaled // _U(10 ** 16)
    rest = scaled - first * _U(10 ** 16)
    high = rest // _U(10 ** 8)
    low = rest - high * _U(10 ** 8)
    high4, low4 = high // _U(10 ** 4), low // _U(10 ** 4)
    groups = (high4, high - high4 * _U(10 ** 4), low4, low - low4 * _U(10 ** 4))
    used = min_used.take(decpt, mode="clip")
    for j, group in enumerate(groups):
        used = np.maximum(used, group_length.take(group) + (1 + 4 * j))
    point = point_at.take(decpt, mode="clip")
    point = (point + 1) * (used > point + 1)

    rows = np.empty((x.size, 4), dtype="<u8") if out is None else out
    rows[:, 0] = (lead.take(decpt, mode="clip") | (bits >> 63) * _U(ord("-"))
                  | (first + ord("0")) << 48 | (point == 1) * _U(ord(".") << 56))
    run_a = (ascii4.take(groups[0]) | ascii4.take(groups[1]) << 32) \
        & _BYTES.take(used - 1, mode="clip")
    run_b = (ascii4.take(groups[2]) | ascii4.take(groups[3]) << 32) \
        & _BYTES.take(used - 9, mode="clip")
    stay_a = run_a & keep_a.take(point)
    stay_b = run_b & keep_b.take(point)
    moved_a, moved_b = run_a ^ stay_a, run_b ^ stay_b
    rows[:, 1] = stay_a | dot_a.take(point) | moved_a << 8
    rows[:, 2] = stay_b | dot_b.take(point) | moved_b << 8 | moved_a >> 56
    rows[:, 3] = exponent.take(decpt, mode="clip") | moved_b >> 56
    if not finite.all():
        special = ~finite
        rows[special] = 0
        rows[special, 0] = (bits[special] >> 63) * _U(ord("-")) * ~np.isnan(x[special])
        rows[special, 1] = np.where(np.isnan(x[special]), _NAN, _INF)
    return rows
