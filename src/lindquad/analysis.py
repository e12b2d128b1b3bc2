"""Derived quantities: positivity threshold, purity, state reconstruction.

The central observable is ``det M(-t)``, the determinant of the
time-reversed damping matrix. It starts at zero, never decreases, and the
first time it reaches 1/4 the evolved Wigner function of *every* initial
state becomes pointwise nonnegative — the attenuation Gaussian is then at
least as wide as a pure-state chord function can be. :func:`positivity_time`
locates that threshold; :func:`purity_curve` evaluates the exact
trace-square integral in closed form over the state's Gaussian terms
(:func:`purity` is its one-row case); :func:`purity_asymptotic` is its
late-time saddle value; :func:`reconstruct` inverts the evolution, and
:func:`reliable_chords` is its reliability mask, since division by the
attenuation Gaussian amplifies whatever noise lives at large chords.

Every function here asks the propagator's kernel for one time per call:
the threshold depends on the system alone, so the bracket and the search
evaluate det M(-t) point by point, starting from the small-time law
det M(-t) ~ det K t^2, and a purity curve loops over its times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import AsymptoticInvalid, ConfigError, Unstable
from .grid import _csv_text, atomic_write_text
from .model import OpenSystem, characteristic_timescale
from .propagator import _chord_exponent, _reversed_det, damping_matrix, map_state
from .states import ChordState

__all__ = [
    "PositivityResult",
    "positivity_time",
    "purity",
    "purity_asymptotic",
    "reconstruct",
    "reliable_chords",
    "PurityCurve",
    "purity_curve",
    "write_purity_csv",
]

_THRESHOLD = 0.25
# -M(-t) eigenvalue above which the state-free late-time purity is used
_EIGEN_FLOOR = 50.0


@dataclass(frozen=True)
class PositivityResult:
    """Outcome of the positivity-threshold search.

    ``reached`` with ``t_p``, the first evaluated time whose det M(-t) is
    resolved above 1/4, and ``det_value`` >= 1/4 there; or not reached
    within ``horizon``, with the supremum ``limit`` of det M(-t) seen on the
    bracket less its round-off (so <= 1/4). ``iterations`` counts the times at
    which det M(-t) was evaluated, t_p included.
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


def _newton_step(det: float, slope: float, margin: float) -> Optional[float]:
    """Newton correction dx (next iterate t - dx) towards det M(-t) = 1/4 + margin.

    The step is taken in s = sqrt(det M(-t)), which grows like t where det
    grows like t^2, with the closed-form slope d det/dt. None where det or
    the slope is not finite and positive.
    """
    if not (0.0 < det < math.inf and 0.0 < slope < math.inf):
        return None
    # (s - s*) / s' with s' = slope / 2s and s - s* = (det - 1/4 - margin) / (s + s*)
    root = math.sqrt(det)
    return ((det - _THRESHOLD - margin) / slope
            * (2.0 * root / (root + math.sqrt(_THRESHOLD + margin))))


def positivity_time(system: OpenSystem, horizon: float = 100.0) -> PositivityResult:
    """First t with det M(-t) = 1/4, or the supremum reached by ``horizon``.

    det M(-t) is nondecreasing (its derivative is a congruence of the
    positive-semidefinite K). A time counts as crossed only where det - 1/4
    exceeds its round-off, so ``limit`` <= 1/4. Determinant, slope and
    round-off come from scalar products of the system's cached forms, one
    time per call (:func:`~lindquad.propagator._reversed_det`), never from
    an assembled M(-t) whose m00 m11 - m01^2 would cancel.

    Since M(-t) ~ -K t near t = 0, det M(-t) reaches 1/4 near 1/(2 sqrt(det
    K)). The first evaluation is there, or at the characteristic timescale
    where det K is 0 or not finite, or at ``horizon`` if that comes first.
    M(0) = 0, so 0 is the uncrossed end of every bracket: a crossed start
    t0 brackets the root in (0, t0], and an uncrossed one doubles up to a
    crossed time or the horizon.
    A safeguarded Newton search (rtsafe) then refines that bracket to 1e-13
    relative, starting from its crossed end. It takes Newton steps in
    sqrt(det M(-t)) while they land inside the bracket and at most half as
    long as the step before last, and bisects otherwise. A step shorter
    than the tolerance is lengthened to land just past the root and close
    the bracket from the other side; should it fall short, the length test
    turns the next step into bisection.

    ``t_p``, ``det_value`` and ``iterations`` are as in
    :class:`PositivityResult`. An overflowed determinant counts as crossed,
    but :class:`Unstable` is raised if the crossing lands on it.
    """
    if not 0.0 < horizon < math.inf:
        raise ConfigError("horizon must be positive and finite")
    k00, k01, k11 = system.moment_forms[0]
    if not (k00 or k01 or k11):
        return PositivityResult(reached=False, horizon=horizon, iterations=0,
                                limit=0.0)
    det_k = k00 * k11 - k01 * k01
    scale = (0.5 / math.sqrt(det_k) if 0.0 < det_k < math.inf
             else characteristic_timescale(system))
    evals = 0

    def det_at(t: float) -> tuple:
        """(t, det M(-t), slope, round-off); (t, inf, slope, 0) on overflow."""
        nonlocal evals
        evals += 1
        d, s, m = _reversed_det(system, float(t))
        if math.isfinite(d) and math.isfinite(m):
            return t, d, s, m
        return t, math.inf, s, 0.0

    def crossed(point: tuple) -> bool:
        return point[1] - _THRESHOLD > point[3]

    high = det_at(scale if 0.0 < scale < horizon else horizon)
    lo, best = 0.0, -_THRESHOLD
    while not crossed(high):  # double up to a crossed time or the horizon
        best = max(best, high[1] - _THRESHOLD - high[3])
        if high[0] >= horizon:
            return PositivityResult(reached=False, horizon=horizon,
                                    iterations=evals, limit=best + _THRESHOLD)
        lo = high[0]
        high = det_at(min(2.0 * lo, horizon))

    # safeguarded Newton (rtsafe) from the crossed end of the bracket
    hi, point = high[0], high
    moved = before = hi - lo
    while hi - lo > 1e-13 * hi:
        x = point[0]
        dx = _newton_step(*point[1:])
        if dx is not None and abs(dx) < 0.25e-13 * hi:
            # converged: step just past the root to close the bracket
            dx += 0.25e-13 * hi if x == hi else -0.25e-13 * hi
        if dx is not None and lo < x - dx < hi and 2.0 * abs(dx) <= before:
            x -= dx
        else:
            x = 0.5 * (lo + hi)
        before, moved = moved, abs(x - point[0])
        point = det_at(x)
        if crossed(point):
            hi, high = x, point
        else:
            lo = x
    if high[1] == math.inf:
        raise Unstable(f"det M(-t) overflows near t={hi!r} before it is "
                       f"resolved above 1/4")
    return PositivityResult(reached=True, horizon=horizon, iterations=evals,
                            t_p=hi, det_value=high[1])


def purity(system: OpenSystem, state: ChordState, t: float) -> float:
    """Tr rho_t^2 at one time: the exact row of :func:`purity_curve` at [t]."""
    return float(purity_curve(system, state, [t], include_asymptotic=False).values[0])


def _purity_asymptotic(system: OpenSystem, t: float, shrink: np.ndarray,
                       det: float) -> float:
    # eigenvalues of -M(-t) from its trace and the uncancelled det M(-t):
    # eigvalsh of the dense matrix loses the small one where the entries
    # cancel (sheared frames), and the trace squared can overflow
    trace = -float(shrink[0, 0] + shrink[1, 1])
    ratio = det / trace / trace if trace > 0.0 else 0.0
    lam_max = 0.5 * trace * (1.0 + math.sqrt(max(0.0, 1.0 - 4.0 * ratio)))
    lam_min = det / lam_max if lam_max > 0.0 else 0.0
    if not lam_min >= _EIGEN_FLOOR:
        raise AsymptoticInvalid(
            f"-M(-t) eigenvalue {lam_min:.6g} below floor {_EIGEN_FLOOR:g}; "
            f"the state-free purity formula is not yet controlled",
            eigenvalue=lam_min)
    return math.exp(2.0 * system.alpha * t) / (2.0 * math.sqrt(det))


def purity_asymptotic(system: OpenSystem, t: float) -> float:
    """Late-time purity e^{2 alpha t} / (2 sqrt(det M(-t))), state-free.

    Valid once the attenuation Gaussian is much narrower than any initial
    chord structure; concretely both eigenvalues of -M(-t) must exceed 50,
    which bounds the envelope correction of a coherent state by ~1%.
    Otherwise raises :class:`AsymptoticInvalid` carrying the offending
    eigenvalue. The small eigenvalue is det M(-t) over the large one, with
    the determinant from the uncancelled spectral products, so it holds in
    every symplectic frame.
    """
    if t < 0:
        raise ConfigError("purity_asymptotic requires t >= 0")
    return _purity_asymptotic(system, t, damping_matrix(system, -t),
                              _reversed_det(system, float(t))[0])


def reconstruct(system: OpenSystem, evolved: ChordState, t: float) -> ChordState:
    """Invert the evolution: recover the initial chord function from time t.

    This is :func:`~lindquad.propagator.map_state` at -t, which divides out
    the attenuation Gaussian and undoes the affine flow term by term.
    :func:`reliable_chords` marks where the result can be trusted.
    """
    if t < 0:
        raise ConfigError("reconstruct requires t >= 0")
    return map_state(system, evolved, -t, label=f"reconstructed({evolved.label})")


def reliable_chords(system: OpenSystem, t: float, xi,
                    floor: float = 1e-8) -> np.ndarray:
    """Whether :func:`reconstruct` from time t can be trusted at chords ``xi``.

    True where the Gaussian factor exp(xi . M(-t) xi / 2 hbar) it divides
    out is at least ``floor``; below it, the division amplifies any noise by
    more than 1/floor. By M(-t) = -e^{2 alpha t} R_t^T M(t) R_t this is the
    forward factor at the evolved chord. The mask depends on no state, and
    its exponent comes from projected chords, the same in every frame.
    """
    if t < 0:
        raise ConfigError("reliable_chords requires t >= 0")
    if not 0.0 < floor <= 1.0:
        raise ConfigError("floor must lie in (0, 1]")
    quad = _chord_exponent(system, -t, xi)
    return np.exp(quad / (2.0 * system.hbar)) >= floor


@dataclass(frozen=True)
class PurityCurve:
    """Tabulated purity along a time list, with the evaluation route per row."""

    times: np.ndarray
    values: np.ndarray
    methods: tuple[str, ...]


def purity_curve(system: OpenSystem, state: ChordState,
                 times: Sequence[float], *,
                 include_asymptotic: bool = True) -> PurityCurve:
    """Exact purity at every time, plus asymptotic rows where valid.

    Tr rho_t^2 = 2 pi hbar e^{2 alpha t} Int |Wt_0|^2 e^{xi.M(-t)xi/hbar},
    the average of a narrowing Gaussian (M(-t) is negative semidefinite)
    over the initial chord intensity: the closed-form pair sum
    :meth:`ChordState.norm_squared` with E = -2 M(-t)/hbar and det E from
    the uncancelled :func:`_reversed_det`, exact in sheared frames, one
    kernel call each per time. The exact rows keep the method name
    "quadrature" of the CSV format.
    """
    ts = [float(t) for t in times]
    if any(t < 0 for t in ts):
        raise ConfigError("purity requires t >= 0")
    rows = [(t, damping_matrix(system, -t), _reversed_det(system, t)[0]) for t in ts]
    vals = [math.exp(2.0 * system.alpha * t) * state.norm_squared(
                -2.0 * m / system.hbar, 4.0 * det / system.hbar / system.hbar)
            for t, m, det in rows]
    methods = ["quadrature"] * len(ts)
    if include_asymptotic:
        for t, m, det in rows:
            try:
                vals.append(_purity_asymptotic(system, t, m, det))
            except AsymptoticInvalid:
                continue
            ts.append(t)
            methods.append("asymptotic")
    return PurityCurve(times=np.asarray(ts), values=np.asarray(vals),
                       methods=tuple(methods))


def write_purity_csv(curve: PurityCurve, path: str) -> None:
    atomic_write_text(path, _csv_text(
        ("t", "purity", "linear_entropy", "method"),
        [(float(t), float(v), 1.0 - float(v), m)
         for t, v, m in zip(curve.times, curve.values, curve.methods)]))
