"""Compare ``_floatrepr.repr_words`` with ``repr`` over random bit patterns.

Run by hand from the repository root; pytest does not collect this file:

    PYTHONPATH=src python tests/floatrepr_sweep.py --patterns 10000000 --seed 1

Every 64-bit pattern is equally likely, so about one in 2,048 is an
infinity or NaN and one in 2,048 a subnormal or zero. Besides the text,
the script checks the bounds vbl, vb and vbr that ``_bounds`` derives from
one product against Schubfach's three direct ``rop`` products. It prints
each mismatch (at most 20 of each kind), then the totals.
"""
from __future__ import annotations

import argparse

import numpy as np

from lindquad import _floatrepr

_CHUNK = 1 << 20
_MASK_32, _MASK_63 = np.uint64((1 << 32) - 1), np.uint64((1 << 63) - 1)


def _rop(g1, g0, cp):
    """g cp / 2**127 rounded to odd as Schubfach computes it, one product
    at a time (the low 64 bits of g0 cp are dropped)."""
    cp1, cp0 = cp >> 32, cp & _MASK_32
    z = ((g1 * cp) >> 1) + _floatrepr._mulhi(g0, cp1, cp0)
    return (_floatrepr._mulhi(g1, cp1, cp0) + (z >> 63)) | ((z & _MASK_63) != 0)


def _texts(values: np.ndarray) -> list[str]:
    words = _floatrepr.repr_words(values)
    words[:, 3] |= np.uint64(ord("\n") << 56)
    return words.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--patterns", type=int, default=10 ** 6)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    bounds = _floatrepr._bounds
    bad_bounds = [0]

    def checked_bounds(g1, g0, cb, h, twos):
        derived = bounds(g1, g0, cb, h, twos)
        lower = cb - 2
        lower[twos] += 1  # below a power of two the lower end is nearer
        direct = [_rop(g1, g0, cp << h) for cp in (lower, cb, cb + 2)]
        wrong = np.flatnonzero(np.any(np.array(derived) != np.array(direct), axis=0))
        for i in wrong[:max(0, 20 - bad_bounds[0])].tolist():
            print(f"bounds: cb {int(cb[i])}, h {int(h[i])}: derived "
                  f"{[int(b[i]) for b in derived]}, direct {[int(b[i]) for b in direct]}")
        bad_bounds[0] += wrong.size
        return derived

    _floatrepr._bounds = checked_bounds
    rng = np.random.default_rng(args.seed)
    bad_texts = 0
    for start in range(0, args.patterns, _CHUNK):
        size = min(_CHUNK, args.patterns - start)
        values = rng.integers(0, 2 ** 64, size=size, dtype=np.uint64).view(np.float64)
        for value, text in zip(values.tolist(), _texts(values)):
            if text != repr(value):
                bad_texts += 1
                if bad_texts <= 20:
                    print(f"text: repr {value!r}, repr_words {text!r}")
    print(f"patterns {args.patterns}  seed {args.seed}  text mismatches {bad_texts}  "
          f"bound mismatches {bad_bounds[0]}")


if __name__ == "__main__":
    main()
