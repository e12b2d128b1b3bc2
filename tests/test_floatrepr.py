"""The array float formatter against Python's own ``repr``."""
from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lindquad._floatrepr import repr_words


def _texts(values) -> list[str]:
    words = repr_words(np.asarray(values, dtype=np.float64))
    assert words.shape == (np.size(values), 4)
    assert not words.view(np.uint8)[:, -1].any()  # free for a separator
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in words]


def _sweep() -> np.ndarray:
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    powers_of_ten = np.array([float(f"1e{k}") for k in range(-323, 309)])
    subnormals = np.concatenate([np.arange(1, 4097), (1 << 52) - np.arange(1, 4097)])
    around = np.concatenate([[2.0 ** 53, 1e16, 1e15, 1e-4, 1e-5, 1e17, 1.0],
                             powers_of_ten, powers_of_two])
    neighbours = [np.nextafter(around, np.inf), np.nextafter(around, 0.0)]
    for _ in range(3):
        neighbours += [np.nextafter(neighbours[-2], np.inf),
                       np.nextafter(neighbours[-1], 0.0)]
    whole = np.concatenate([2.0 ** 53 + np.arange(-300, 301), 1e16 + 2 * np.arange(-300, 301),
                            np.arange(0, 2000, dtype=float), 123.0 * 10.0 ** np.arange(17)])
    switches = np.array([1e-4, 1e-5, 9.999999999999999e-05, 0.00010000000000000002,
                         1.5e16, 9999999999999998.0, 1e16, 1.0000000000000002e16,
                         0.1, 0.3, 2.0 / 3.0, 5e-324, 1.7976931348623157e308,
                         2.2250738585072014e-308, 2.225073858507201e-308,
                         0.0, np.inf, np.nan])
    values = np.concatenate([powers_of_two, powers_of_ten,
                             subnormals.astype(np.uint64).view(np.float64),
                             *neighbours, whole, switches])
    return np.concatenate([values, -values])


def test_repr_words_sweep_matches_repr() -> None:
    values = _sweep()
    assert _texts(values) == [repr(v) for v in values.tolist()]


def test_repr_words_prints_special_values() -> None:
    bits = np.array([0x7FF8_0000_0000_0000, 0xFFF8_0000_0000_0001, 0x7FF0_0000_0000_0000,
                     0xFFF0_0000_0000_0000, 0x8000_0000_0000_0000, 0], dtype=np.uint64)
    assert _texts(bits.view(np.float64)) == ["nan", "nan", "inf", "-inf", "-0.0", "0.0"]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40))
def test_repr_words_matches_repr_on_any_bit_pattern(patterns) -> None:
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert _texts(values) == [repr(v) for v in values.tolist()]


def _joined_texts(values) -> list[str]:
    """``_texts`` for many values: one newline in each row's free last byte
    and one NUL drop over the whole array."""
    words = repr_words(np.asarray(values, dtype=np.float64))
    assert not words.view(np.uint8)[:, -1].any()
    words[:, 3] |= np.uint64(ord("\n") << 56)
    return words.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def _binade_sweep() -> np.ndarray:
    """About 64 random significands in every binade, subnormals included,
    and values whose scaled products are exact or nearly so, where the
    carry out of the dropped low word decides a bound: whole numbers
    d 10**j up to 1e22, short decimals of 2**53 and more, powers of two,
    and their neighbours one unit in the last place away."""
    rng = np.random.default_rng(2020)
    biased = np.repeat(np.arange(2047, dtype=np.uint64), 64)
    significands = rng.integers(0, 1 << 52, size=biased.size, dtype=np.uint64)
    random = (biased << np.uint64(52) | significands).view(np.float64)
    whole = np.array([float(d * 10 ** j) for d in range(1, 100) for j in range(23)
                      if d * 10 ** j <= 10 ** 22])
    short = np.array([float(f"{d}e{e}") for d, e in
                      zip(rng.integers(1, 10 ** 4, size=4000),
                          rng.integers(16, 306, size=4000))])
    exact = np.concatenate([whole, short, np.ldexp(1.0, np.arange(-60, 80))])
    return np.concatenate([random, exact, np.nextafter(exact, np.inf),
                           np.nextafter(exact, 0.0)])


def test_repr_words_matches_repr_in_every_binade() -> None:
    values = _binade_sweep()
    values = np.concatenate([values, -values])
    assert _joined_texts(values) == [repr(v) for v in values.tolist()]
