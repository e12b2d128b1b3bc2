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

:func:`simulate` samples by that transition between consecutive stored
times. It draws from counter-based (Philox) streams keyed by
``(seed, block)`` with a fixed block of 1024 paths: path i always consumes
the same normals no matter how many paths are requested, so ensembles are
bit-reproducible and extendable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, Unstable
from .model import (J, OpenSystem, _covariance, _psd_root, _symmetrized,
                    finite_array)
from .propagator import _exact_step

__all__ = [
    "TrajectoryEnsemble",
    "simulate",
    "ensemble_moments",
    "exact_moments",
]

_BLOCK = 1024


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Sample paths at the stored times, multiples of ``dt``, the effective
    step."""

    times: NDArray[np.float64]        # (n_stored,)
    paths: NDArray[np.float64]        # (n_paths, n_stored, 2), time-major view
    seed: int
    dt: float                         # effective step of the time grid
    store_stride: int


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw(rngs, buf: np.ndarray) -> np.ndarray:
    """Fill ``buf`` with each block's next (block, k) normals, in block order,
    each from that block's own stream."""
    for block, rng in enumerate(rngs):
        rng.standard_normal(out=buf[block * _BLOCK:(block + 1) * _BLOCK])
    return buf


def simulate(system: OpenSystem, initial_mean, initial_cov, t: float, dt: float,
             n_paths: int, seed: int, *, store_stride: int = 1) -> TrajectoryEnsemble:
    """Sample path ensemble from a Gaussian initial condition.

    The step count is round(t/dt) (at least 1) and the step is stretched to
    land exactly on ``t``; ``store_stride`` keeps every k-th step (plus the
    last). Paths jump between stored times by the exact Gaussian
    transition, so ``dt`` and ``store_stride`` only place the stored times.
    The maps are built once per distinct gap (a stored grid has at most
    two), the noise factor S with S S^T = hbar (-J M J) as the clipped
    ``eigh`` root, since M is singular in places and then has no Cholesky
    factor. Initial points are drawn first from each block's stream, then
    one (block, 2) normal array per stored interval; partial final blocks
    draw the full block and discard, keeping every path's noise independent
    of ``n_paths``; a singular ``initial_cov`` draws through its clipped
    ``eigh`` root, a definite one through its Cholesky factor. All paths
    advance together, one interval at a time, and are stored time-major:
    ``paths`` is a transposed view. The initial moments are read as in
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

    steps = max(1, round(t / dt)) if t > 0 else 0
    dt_eff = t / steps if steps else dt
    # every store_stride-th step plus the last, counted before they are listed
    estimate = n_paths * (-(-steps // store_stride) + 1) * 2 * 8
    if estimate > 2_000_000_000:
        raise ConfigError(
            f"ensemble storage would need {estimate:,} bytes, over 2 GB; "
            f"increase store_stride")
    stored_steps = list(range(0, steps + 1, store_stride))
    if stored_steps[-1] != steps:
        stored_steps.append(steps)

    gaps = np.diff(stored_steps).tolist()
    times = dt_eff * np.asarray(stored_steps, dtype=float)
    maps = {}
    for gap in set(gaps):
        linear, offset, m = _exact_step(system, gap * dt_eff)
        factor = _psd_root(system.hbar * (-J @ m @ J))
        # C-ordered transposes: the same BLAS products, without the strided path
        maps[gap] = (np.ascontiguousarray(linear.T), offset,
                     np.ascontiguousarray(factor.T))
    rngs = [_block_rng(seed, block) for block in range(-(-n_paths // _BLOCK))]
    z = np.empty((len(rngs) * _BLOCK, 2))
    out = np.empty((len(stored_steps), n_paths, 2))
    x = mean + _draw(rngs, z) @ np.ascontiguousarray(root.T)
    # overflow shows as non-finite paths, reported at the first stored time
    with np.errstate(over="ignore", invalid="ignore"):
        for idx in range(len(stored_steps)):
            if idx:
                linear_t, offset, factor_t = maps[gaps[idx - 1]]
                x = x @ linear_t + offset + _draw(rngs, z) @ factor_t
            out[idx] = x[:n_paths]
            if not np.isfinite(out[idx]).all():
                raise Unstable(f"Langevin paths overflow by t={float(times[idx])!r}")

    return TrajectoryEnsemble(times=times, paths=out.transpose(1, 0, 2), seed=seed,
                              dt=dt_eff, store_stride=store_stride)


def ensemble_moments(ensemble: TrajectoryEnsemble, index: int | slice = -1
                     ) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Sample mean and covariance (ddof=1) at a stored time index, or at
    every time of a slice of them (along the results' leading axis).

    The paths at the requested times are copied once into a contiguous
    (times, 2, paths) array. Each row's mean is its running sum over n, the
    order in which ``np.mean`` sums over a (paths, 2) slice and with which
    ``np.cov`` centres it; one batched product of the centred rows with
    their transpose then gives every covariance, so the moments are those
    of ``np.mean`` and ``np.cov(ddof=1)`` at each time, to the bit. Needs at
    least two paths (:class:`ConfigError`); raises :class:`Unstable` when
    the moments at any requested time overflow.
    """
    snaps = ensemble.paths.transpose(1, 0, 2)[index]
    n = snaps.shape[-2]
    if n < 2:
        raise ConfigError("a sample covariance needs at least 2 paths")
    x = np.ascontiguousarray(snaps.reshape(-1, n, 2).transpose(0, 2, 1))
    run = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = [np.cumsum(row, out=run)[-1] for row in x.reshape(-1, n)]
        mean = np.array(sums).reshape(x.shape[:2]) / n
        x -= mean[..., None]
        cov = x @ x.transpose(0, 2, 1)
        cov *= 1.0 / (n - 1)
    if not np.isfinite(cov).all():  # an infinite mean leaves none finite
        raise Unstable("sample moments overflow")
    times = snaps.shape[:-2]  # () for an index
    return mean.reshape(times + (2,)), cov.reshape(times + (2, 2))


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
