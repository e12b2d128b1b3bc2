"""Gauss-Legendre quadrature helpers.

Two flavours used throughout the package:

* a globally adaptive panel integrator for matrix-valued integrands on an
  interval (the damping-matrix audit in ``oracle``, where the integrand
  mixes decaying exponentials with oscillation or hyperbolic growth), and
* tensor-product rules on a 2D box with order doubling (the purity audit
  in ``oracle``).

Both demand vectorized integrands: ``f(nodes)`` receives all nodes at once.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import QuadratureNotConverged


@lru_cache(maxsize=64)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _panel_integral(f: Callable[[np.ndarray], np.ndarray], a: float,
                    b: float) -> np.ndarray:
    nodes, weights = _leggauss(15)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    values = f(mid + half * nodes)
    return half * np.tensordot(weights, values, axes=(0, 0))


def gauss_legendre_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    rtol: float = 1e-10,
    max_splits: int = 2000,
) -> np.ndarray:
    """Integrate a vectorized (possibly matrix-valued) ``f`` over [a, b].

    Globally adaptive: order-15 panels, the one with the worst
    whole-vs-halves discrepancy bisected until the summed discrepancy meets
    ``rtol`` (max-abs norm over components). Orientation follows the sign of
    ``b - a``.

    Raises QuadratureNotConverged when ``max_splits`` bisections are not
    enough.
    """
    if a == b:
        return np.zeros_like(np.asarray(f(np.array([a]))[0], dtype=float))
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0

    # Each panel keeps its own whole-panel integral, the sum over its two
    # halves, and the resulting error estimate; the refined (halves) value is
    # the one that enters the total.
    def make_panel(lo: float, hi: float, whole: np.ndarray):
        mid = 0.5 * (lo + hi)
        left = _panel_integral(f, lo, mid)
        right = _panel_integral(f, mid, hi)
        refined = left + right
        err = float(np.max(np.abs(refined - whole)))
        return {"lo": lo, "hi": hi, "left": left, "right": right,
                "refined": refined, "err": err}

    panels = [make_panel(a, b, _panel_integral(f, a, b))]
    for _ in range(max_splits):
        total = panels[0]["refined"].copy()
        for p in panels[1:]:
            total += p["refined"]
        err_sum = sum(p["err"] for p in panels)
        if err_sum <= max(rtol * float(np.max(np.abs(total))), 1e-300):
            return sign * total
        worst = max(range(len(panels)), key=lambda i: panels[i]["err"])
        p = panels.pop(worst)
        mid = 0.5 * (p["lo"] + p["hi"])
        panels.append(make_panel(p["lo"], mid, p["left"]))
        panels.append(make_panel(mid, p["hi"], p["right"]))
    raise QuadratureNotConverged(
        f"interval quadrature did not reach rtol={rtol:g} within "
        f"{max_splits} panel splits")


def tensor_gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray],
    box: tuple[tuple[float, float], tuple[float, float]],
    order: int,
) -> complex:
    """Tensor-product Gauss-Legendre integral of ``f`` over a rectangle.

    ``f`` receives an (N, 2) array of points and returns N values.
    """
    (a1, b1), (a2, b2) = box
    nodes, weights = _leggauss(order)
    x1 = 0.5 * (a1 + b1) + 0.5 * (b1 - a1) * nodes
    x2 = 0.5 * (a2 + b2) + 0.5 * (b2 - a2) * nodes
    pts = np.stack(np.meshgrid(x1, x2, indexing="ij"), axis=-1).reshape(-1, 2)
    values = np.asarray(f(pts)).reshape(order, order)
    w2 = np.outer(weights, weights)
    scale = 0.25 * (b1 - a1) * (b2 - a2)
    return scale * complex(np.sum(w2 * values))


def adaptive_tensor_gl(
    f: Callable[[np.ndarray], np.ndarray],
    box: tuple[tuple[float, float], tuple[float, float]],
    *,
    rtol: float = 1e-8,
    start_order: int = 32,
    max_order: int = 2048,
) -> complex:
    """2D integral by order doubling until two successive rules agree."""
    order = start_order
    prev = tensor_gauss_legendre(f, box, order)
    while order <= max_order:
        order *= 2
        cur = tensor_gauss_legendre(f, box, order)
        if abs(cur - prev) <= rtol * abs(cur):
            return cur
        prev = cur
    raise QuadratureNotConverged(
        f"tensor quadrature did not reach rtol={rtol:g} by order {max_order}")
