"""Classical Langevin correspondence of the quantum evolution.

The Wigner function of a quadratic-plus-linear open system obeys a genuine
Fokker–Planck equation, so its dynamics is reproduced exactly (not just to
second moments — the generator is identical) by the Ito SDE

    dx = [(2 J H - alpha I) x + J b] dt + sum_j (v'_j dW'_j + v''_j dW''_j),

with one independent Wiener process per real/imaginary channel component
and noise vectors v = sqrt(hbar) J l. The diffusion matrix is then
D = (hbar/2) J K J^T; :class:`OpenSystem` holds the drift, the noise
vectors and D. The exact moment transport

    mean_t = F mean_0 + o,
    cov_t  = F cov_0 F^T + hbar (-J M(t) J),

with (F, o) the affine flow of the drift, is available in closed form. Over
any interval the SDE therefore has an exact Gaussian transition,
x -> F x + o + S z with S S^T = hbar (-J M J) and z standard normal.

:func:`simulate` samples either by that transition between consecutive
stored times (``scheme="exact"``, what the CLI runs) or by Euler–Maruyama
steps (the default, kept as an audit with an O(dt) bias). Both draw from
counter-based (Philox) streams keyed by ``(seed, block)`` with a fixed block
of 1024 paths: path i always consumes the same normals no matter how many
paths are requested, so ensembles are bit-reproducible and extendable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, SingularFrame, Unstable
from .model import (J, OpenSystem, _covariance, _psd_root, _symmetrized,
                    finite_array, symplectic_transform)
from .propagator import _exact_step

__all__ = [
    "TrajectoryEnsemble",
    "simulate",
    "ensemble_moments",
    "exact_moments",
    "momentum_dissipation_frame",
]

_BLOCK = 1024
_SCHEMES = ("euler-maruyama", "exact")


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Sample paths at the stored times.

    ``scheme`` says how they were drawn: ``"exact"`` Gaussian transitions
    between stored times, or ``"euler-maruyama"`` steps of ``dt``. Either
    way the stored times are multiples of ``dt``, the effective step.
    """

    times: NDArray[np.float64]        # (n_stored,)
    paths: NDArray[np.float64]        # (n_paths, n_stored, 2)
    seed: int
    dt: float                         # effective step of the time grid
    store_stride: int
    scheme: str = "euler-maruyama"


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _exact_advance(system: OpenSystem, dt: float, gaps):
    """Advance by the exact transition over ``gap`` steps of ``dt``, one
    (block, 2) normal array per call.

    The maps are built once per distinct gap (a stored grid has at most
    two). The noise factor S with S S^T = C = hbar (-J M J) is the clipped
    ``eigh`` root, since C is singular wherever M is and then has no
    Cholesky factor.
    """
    maps = {}
    for gap in set(gaps):
        linear, offset, m = _exact_step(system, gap * dt)
        maps[gap] = linear.T, offset, _psd_root(system.hbar * (-J @ m @ J)).T

    def advance(x, rng, gap):
        linear_t, offset, factor_t = maps[gap]
        return x @ linear_t + offset + rng.standard_normal((_BLOCK, 2)) @ factor_t
    return advance


def _euler_advance(system: OpenSystem, dt: float):
    """Advance by ``gap`` Euler–Maruyama steps of ``dt``, one
    (block, channels) normal array per step when there is noise."""
    a_mat, offset = system.drift_matrix, system.drift_offset
    noise = system.noise_vectors
    m_noise = noise.shape[0]
    root_dt = math.sqrt(dt)

    def advance(x, rng, gap):
        for _ in range(gap):
            if m_noise:
                dw = rng.standard_normal((_BLOCK, m_noise))
                kick = root_dt * dw @ noise
            else:
                kick = 0.0
            x = x + dt * (x @ a_mat.T + offset) + kick
        return x
    return advance


def simulate(system: OpenSystem, initial_mean, initial_cov, t: float, dt: float,
             n_paths: int, seed: int, *, store_stride: int = 1,
             scheme: str = "euler-maruyama") -> TrajectoryEnsemble:
    """Sample path ensemble from a Gaussian initial condition.

    The step count is round(t/dt) (at least 1) and the step is stretched to
    land exactly on ``t``; ``store_stride`` keeps every k-th step (plus the
    last). ``scheme="exact"`` jumps between stored times by the exact
    Gaussian transition, so there ``dt`` and ``store_stride`` only place
    the stored times; ``"euler-maruyama"`` takes every step with the
    system's drift and ``noise_vectors``. Initial points are drawn first
    from each block's stream, then one (block, 2) normal array per stored
    interval (exact) or one (block, channels) array per step (Euler);
    partial final blocks draw the full block and discard, keeping every
    path's noise independent of ``n_paths``; a singular ``initial_cov``
    draws through its clipped ``eigh`` root, a definite one through its
    Cholesky factor. The initial moments are read as in
    :func:`exact_moments`. ``t`` and ``dt`` must be finite, with t/dt
    finite too, ``seed`` an integer in [0, 2**64), and the stored paths at
    most ~2 GB (:class:`ConfigError` otherwise). Raises :class:`Unstable`
    when the paths overflow.
    """
    mean = finite_array(initial_mean, (2,), "initial_mean")
    _, root = _covariance(initial_cov, "initial_cov", definite=False)
    if not (0 <= t < math.inf and 0 < dt < math.inf and t / dt < math.inf):
        raise ConfigError(
            f"need finite t >= 0, dt > 0 and t/dt, got t={t!r}, dt={dt!r}")
    if n_paths < 1:
        raise ConfigError("n_paths must be at least 1")
    if store_stride < 1:
        raise ConfigError("store_stride must be at least 1")
    if not 0 <= seed < 2 ** 64 or int(seed) != seed:  # one Philox key word
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    seed = int(seed)
    if scheme not in _SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; expected one of {_SCHEMES}")

    steps = max(1, round(t / dt)) if t > 0 else 0
    dt_eff = t / steps if steps else dt
    # every store_stride-th step plus the last, counted before they are listed
    estimate = n_paths * (-(-steps // store_stride) + 1) * 2 * 8
    if estimate > 2_000_000_000:
        raise ConfigError(
            f"ensemble storage would need ~{estimate/1e9:.1f} GB; "
            f"increase store_stride")
    stored_steps = list(range(0, steps + 1, store_stride))
    if stored_steps[-1] != steps:
        stored_steps.append(steps)

    gaps = np.diff(stored_steps).tolist()
    advance = (_exact_advance(system, dt_eff, gaps) if scheme == "exact"
               else _euler_advance(system, dt_eff))
    out = np.empty((n_paths, len(stored_steps), 2))
    times = dt_eff * np.asarray(stored_steps, dtype=float)
    n_blocks = (n_paths + _BLOCK - 1) // _BLOCK

    for block in range(n_blocks):
        rng = _block_rng(seed, block)
        lo = block * _BLOCK
        hi = min(lo + _BLOCK, n_paths)
        keep = hi - lo
        x = mean + rng.standard_normal((_BLOCK, 2)) @ root.T
        out[lo:hi, 0] = x[:keep]
        # overflow shows as non-finite paths, reported below
        with np.errstate(over="ignore", invalid="ignore"):
            for idx, gap in enumerate(gaps, start=1):
                x = advance(x, rng, gap)
                out[lo:hi, idx] = x[:keep]
        finite = np.isfinite(out[lo:hi]).all(axis=(0, 2))
        if not finite.all():
            raise Unstable(f"Langevin paths overflow by t={float(times[~finite][0])!r}")

    return TrajectoryEnsemble(times=times, paths=out, seed=seed, dt=dt_eff,
                              store_stride=store_stride, scheme=scheme)


def ensemble_moments(ensemble: TrajectoryEnsemble, index: int = -1
                     ) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Sample mean and covariance (ddof=1) at a stored time index: at least
    two paths (:class:`ConfigError`), :class:`Unstable` when they overflow."""
    snap = ensemble.paths[:, index, :]
    if snap.shape[0] < 2:
        raise ConfigError("a sample covariance needs at least 2 paths")
    with np.errstate(over="ignore", invalid="ignore"):
        mean, cov = snap.mean(axis=0), np.cov(snap.T, ddof=1)
    if not np.isfinite(cov).all():  # an infinite mean leaves none finite
        raise Unstable("sample moments overflow")
    return mean, cov


def exact_moments(system: OpenSystem, initial_mean, initial_cov, t: float
                  ) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Closed-form first and second moments of the SDE (= Wigner moments).

    The initial moments must be finite (:class:`ConfigError`), with a
    symmetric positive semidefinite covariance (:class:`NotPositiveDefinite`).
    """
    mean = finite_array(initial_mean, (2,), "initial_mean")
    cov, _ = _covariance(initial_cov, "initial_cov", definite=False)
    linear, offset, m = _exact_step(system, t)
    mean = mean @ linear.T + offset
    cov = linear @ cov @ linear.T + system.hbar * (-J @ m @ J)
    return mean, _symmetrized(cov)


def momentum_dissipation_frame(system: OpenSystem) -> tuple[OpenSystem, NDArray[np.float64]]:
    """Symplectic shear making dissipation act on the momentum alone.

    With k = alpha / (2 H11) and C = [[1, -k], [0, 1]], the transformed
    drift C (2JH - alpha I) C^{-1} splits as 2 J Hbar - diag(2 alpha, 0):
    all of the contraction is carried by the momentum row at twice the
    original rate — convenient for comparing against classical damped-mass
    models. Requires H11 != 0 (otherwise no shear can do it: SingularFrame).
    Returns the transformed system and C; alpha = 0 returns the system
    unchanged with the identity.
    """
    alpha = system.alpha
    if alpha == 0.0:
        return system, np.eye(2)
    h = system.hamiltonian.matrix
    if abs(h[0, 0]) <= 1e-12 * max(1.0, float(np.max(np.abs(h)))):
        raise SingularFrame(
            "momentum-dissipation frame needs a p^2 term (H11 != 0)")
    k = alpha / (2.0 * h[0, 0])
    c = np.array([[1.0, -k], [0.0, 1.0]])
    return symplectic_transform(system, c), c
