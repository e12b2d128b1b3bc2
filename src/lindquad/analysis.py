"""Derived quantities: positivity threshold, purity, state reconstruction.

The central observable is ``det M(-t)``, the determinant of the
time-reversed damping matrix. It starts at zero, never decreases, and the
first time it reaches 1/4 the evolved Wigner function of *every* initial
state becomes pointwise nonnegative — the attenuation Gaussian is then at
least as wide as a pure-state chord function can be. :func:`positivity_time`
locates that threshold; :func:`purity` evaluates the exact trace-square
integral in the chord plane; :func:`purity_asymptotic` is its late-time
saddle value; :func:`reconstruct` inverts the evolution (with a reliability
mask, since division by the attenuation Gaussian amplifies whatever noise
lives at large chords).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._quadrature import adaptive_tensor_gl
from .errors import AsymptoticInvalid, ConfigError, Unstable
from .grid import atomic_write_text
from .model import OpenSystem, characteristic_timescale
from .propagator import damping_matrix, flow
from .states import ChordState

__all__ = [
    "PositivityResult",
    "positivity_time",
    "purity",
    "linear_entropy",
    "purity_asymptotic",
    "reconstruct",
    "PurityCurve",
    "purity_curve",
    "write_purity_csv",
]

_THRESHOLD = 0.25
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class PositivityResult:
    """Outcome of the positivity-threshold search.

    ``reached`` with the crossing time ``t_p`` and the verified determinant,
    or not reached within ``horizon`` with the supremum ``limit`` of
    det M(-t) observed on the scan, less its round-off (so at most 1/4).
    """

    reached: bool
    horizon: float
    iterations: int
    t_p: Optional[float] = None
    det_value: Optional[float] = None
    limit: Optional[float] = None

    def to_dict(self) -> dict:
        if self.reached:
            return {"status": "reached", "t_p": self.t_p,
                    "det_value": self.det_value, "horizon": self.horizon,
                    "iterations": self.iterations}
        return {"status": "unreached", "limit": self.limit,
                "horizon": self.horizon, "iterations": self.iterations}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n"


def positivity_time(system: OpenSystem, horizon: float = 100.0) -> PositivityResult:
    """First t with det M(-t) = 1/4, or the supremum reached by ``horizon``.

    det M(-t) is nondecreasing (its derivative is a congruence of the
    positive-semidefinite K). A point counts as crossed only where det - 1/4
    exceeds its round-off 4 eps (|m00 m11| + m01^2), so ``limit`` <= 1/4.
    The scan doubles from 1e-3 of the characteristic timescale up to
    ``horizon``; where round-off first hides the sign it rescans from the
    last resolved point in steps of 1/20 of the timescale, since in weakly
    damped hyperbolic systems the resolved window can be short. Bisection
    refines the crossing to ~1e-13 relative. An overflowed M counts as
    crossed, but :class:`Unstable` is raised if the crossing lands on it.
    """
    if not 0.0 < horizon < math.inf:
        raise ConfigError("horizon must be positive and finite")
    if not np.any(system.k_matrix):
        return PositivityResult(reached=False, horizon=horizon, iterations=0,
                                limit=0.0)
    scale = min(characteristic_timescale(system), horizon)
    evals = 0

    def above(t: float) -> tuple[bool, float, float]:
        """(crossed, det M(-t) - 1/4, round-off); (True, inf, 0) on overflow."""
        nonlocal evals
        evals += 1
        try:
            (m00, m01), (m10, m11) = damping_matrix(system, -t).m.tolist()
            diag, off = m00 * m11, m01 * m10
        except Unstable:
            diag = off = math.inf
        margin = 4.0 * _EPS * (abs(diag) + off)
        if not math.isfinite(margin):
            return True, math.inf, 0.0
        d = diag - off - _THRESHOLD
        return d > margin, d, margin

    lo, hi, step = 0.0, 1e-3 * scale, 0.0
    best = -_THRESHOLD
    while True:
        crossed, d, margin = above(hi)
        if crossed:
            break
        best = max(best, d - margin)
        if not step and d >= -margin:
            step, hi = scale / 20.0, lo
        elif hi >= horizon:
            return PositivityResult(reached=False, horizon=horizon,
                                    iterations=evals, limit=best + _THRESHOLD)
        else:
            lo = hi
        hi = min(hi + step if step else 2.0 * hi, horizon)

    upper = d
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        crossed, d, _ = above(mid)
        if crossed:
            hi, upper = mid, d
        else:
            lo = mid
        if hi - lo <= 1e-13 * hi:
            break
    t_p = 0.5 * (lo + hi)
    if upper == math.inf:
        raise Unstable(f"det M(-t) overflows near t={t_p!r} before it is "
                       f"resolved above 1/4")
    det_value = damping_matrix(system, -t_p).det
    return PositivityResult(reached=True, horizon=horizon, iterations=evals,
                            t_p=t_p, det_value=det_value)


def purity(system: OpenSystem, state: ChordState, t: float, *,
           rtol: float = 1e-8) -> float:
    """Tr rho_t^2 = 2 pi hbar e^{2 alpha t} Int |Wt_0|^2 e^{xi.M(-t)xi/hbar}.

    The reversed damping matrix is negative semidefinite, so the integrand
    is the initial chord intensity times a decaying Gaussian; it is
    integrated in the Gaussian's eigenbasis on a box sized so the truncated
    tail mass is below 1e-10 of the peak.
    """
    if t < 0:
        raise ConfigError("purity requires t >= 0")
    if not math.isfinite(state.chord_radius):
        raise ConfigError("state must carry a finite chord_radius")
    hbar = system.hbar
    shrink = -damping_matrix(system, -t).m  # PSD
    lam, basis = np.linalg.eigh(shrink)
    lam = np.clip(lam, 0.0, None)
    halves = []
    for eig in lam:
        half = state.chord_radius
        if eig > 0.0:
            half = min(half, math.sqrt(hbar * math.log(1e10) / eig))
        halves.append(half)
    evaluator = state.evaluator

    def f(pts: np.ndarray) -> np.ndarray:
        xi = pts @ basis.T
        weight = np.exp(-(pts ** 2 @ lam) / hbar)
        return np.abs(evaluator(xi)) ** 2 * weight

    box = ((-halves[0], halves[0]), (-halves[1], halves[1]))
    integral = adaptive_tensor_gl(f, box, rtol=rtol).real
    return 2.0 * math.pi * hbar * math.exp(2.0 * system.alpha * t) * integral


def linear_entropy(system: OpenSystem, state: ChordState, t: float, *,
                   rtol: float = 1e-8) -> float:
    """1 - Tr rho_t^2."""
    return 1.0 - purity(system, state, t, rtol=rtol)


def purity_asymptotic(system: OpenSystem, t: float, *,
                      eigen_floor: float = 50.0) -> float:
    """Late-time purity e^{2 alpha t} / (2 sqrt(det M(-t))), state-free.

    Valid once the attenuation Gaussian is much narrower than any initial
    chord structure; concretely both eigenvalues of -M(-t) must exceed
    ``eigen_floor`` (50 bounds the envelope correction of a coherent state
    by ~1%). Otherwise raises :class:`AsymptoticInvalid` carrying the
    offending eigenvalue.
    """
    if t < 0:
        raise ConfigError("purity_asymptotic requires t >= 0")
    shrink = -damping_matrix(system, -t).m
    lam = np.linalg.eigvalsh(shrink)
    if lam[0] < eigen_floor:
        raise AsymptoticInvalid(
            f"-M(-t) eigenvalue {lam[0]:.6g} below floor {eigen_floor:g}; "
            f"the state-free purity formula is not yet controlled",
            eigenvalue=lam[0])
    return math.exp(2.0 * system.alpha * t) / (2.0 * math.sqrt(lam[0] * lam[1]))


def reconstruct(system: OpenSystem, evolved: ChordState, t: float, *,
                floor: float = 1e-8) -> ChordState:
    """Invert the evolution: recover the initial chord function from time t.

    Exact where the attenuation Gaussian is appreciable; ``reliability``
    marks chords whose Gaussian factor is at least ``floor`` — beyond that
    the division amplifies anything (noise, truncation) by more than
    1/floor and the recovered values should not be trusted.
    """
    if t < 0:
        raise ConfigError("reconstruct requires t >= 0")
    if not 0.0 < floor <= 1.0:
        raise ConfigError("floor must lie in (0, 1]")
    hbar = system.hbar
    if abs(evolved.hbar - hbar) > 1e-12 * hbar:
        raise ConfigError("evolved state hbar does not match the system")
    damping = damping_matrix(system, t)
    forward = math.exp(system.alpha * t) * flow(system.hamiltonian, t).matrix
    evolved_eval = evolved.evaluator

    def gauss(eta: np.ndarray) -> np.ndarray:
        quad = np.einsum("...i,ij,...j->...", eta, damping.m, eta)
        return np.exp(-quad / (2.0 * hbar))

    def evaluator(xi):
        xi = np.asarray(xi, dtype=float)
        eta = xi @ forward.T
        return evolved_eval(eta) / gauss(eta)

    def reliability(xi):
        xi = np.asarray(xi, dtype=float)
        return gauss(xi @ forward.T) >= floor

    backward = math.exp(-system.alpha * t) * flow(system.hamiltonian, -t).matrix
    radius = float(np.linalg.norm(backward, 2)) * evolved.chord_radius
    return ChordState(evaluator=evaluator,
                      label=f"reconstructed({evolved.label})", pure=False,
                      hbar=hbar, chord_radius=radius, wigner=None,
                      reliability=reliability)


@dataclass(frozen=True)
class PurityCurve:
    """Tabulated purity along a time list, with the evaluation route per row."""

    times: np.ndarray
    values: np.ndarray
    methods: tuple[str, ...]

    def rows(self):
        for t, v, m in zip(self.times, self.values, self.methods):
            yield float(t), float(v), 1.0 - float(v), m


def purity_curve(system: OpenSystem, state: ChordState,
                 times: Sequence[float], *, rtol: float = 1e-8,
                 include_asymptotic: bool = True) -> PurityCurve:
    """Quadrature purity at every time, plus asymptotic rows where valid."""
    ts, vals, methods = [], [], []
    for t in times:
        ts.append(float(t))
        vals.append(purity(system, state, t, rtol=rtol))
        methods.append("quadrature")
    if include_asymptotic:
        for t in times:
            try:
                val = purity_asymptotic(system, t)
            except AsymptoticInvalid:
                continue
            ts.append(float(t))
            vals.append(val)
            methods.append("asymptotic")
    return PurityCurve(times=np.asarray(ts), values=np.asarray(vals),
                       methods=tuple(methods))


def write_purity_csv(curve: PurityCurve, path: str) -> None:
    lines = ["t,purity,linear_entropy,method"]
    for t, v, s, m in curve.rows():
        lines.append(f"{t!r},{v!r},{s!r},{m}")
    atomic_write_text(path, "\n".join(lines) + "\n")
