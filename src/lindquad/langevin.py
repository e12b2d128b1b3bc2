"""Classical Langevin correspondence of the quantum evolution.

The Wigner function of a quadratic-plus-linear open system obeys a genuine
Fokker–Planck equation, so its dynamics is reproduced exactly (not just to
second moments — the generator is identical) by the Ito SDE

    dx = [(2 J H - alpha I) x + J b] dt + sum_j (v'_j dW'_j + v''_j dW''_j),

with one independent Wiener process per real/imaginary channel component
and noise vectors v = sqrt(hbar) J l. The diffusion matrix is then
D = (hbar/2) J K J^T, and the exact moment transport

    mean_t = F mean_0 + o,
    cov_t  = F cov_0 F^T + hbar (-J M(t) J),

with (F, o) the affine flow of the drift, is available in closed form for
validation of the sampler.

Sampling uses Euler–Maruyama over counter-based (Philox) streams keyed by
``(seed, block)`` with a fixed block of 1024 paths: path i always consumes
the same increments no matter how many paths are requested or how results
are stored, so ensembles are bit-reproducible and extendable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, NotPositiveDefinite, SingularFrame
from .model import J, OpenSystem, symplectic_transform
from .propagator import affine_flow, damping_matrix

__all__ = [
    "SdeSpec",
    "TrajectoryEnsemble",
    "sde_from_system",
    "simulate",
    "ensemble_moments",
    "exact_moments",
    "momentum_dissipation_frame",
]

_BLOCK = 1024


@dataclass(frozen=True)
class SdeSpec:
    """Drift and noise data of the equivalent classical SDE."""

    drift_matrix: NDArray[np.float64]
    drift_offset: NDArray[np.float64]
    noise_vectors: NDArray[np.float64]  # (2 * channels, 2), zero rows retained
    hbar: float

    @property
    def diffusion(self) -> NDArray[np.float64]:
        """D = (1/2) sum_j v_j v_j^T."""
        return 0.5 * self.noise_vectors.T @ self.noise_vectors


def sde_from_system(system: OpenSystem) -> SdeSpec:
    """Build the SDE whose Fokker–Planck equation is the Wigner transport."""
    root = math.sqrt(system.hbar)
    vectors = []
    for chan in system.channels:
        vectors.append(root * J @ chan.l_re)
        vectors.append(root * J @ chan.l_im)
    noise = np.array(vectors, dtype=float) if vectors else np.zeros((0, 2))
    return SdeSpec(drift_matrix=system.drift_matrix.copy(),
                   drift_offset=system.drift_offset.copy(),
                   noise_vectors=noise, hbar=system.hbar)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Euler–Maruyama sample paths at the stored times."""

    times: NDArray[np.float64]        # (n_stored,)
    paths: NDArray[np.float64]        # (n_paths, n_stored, 2)
    seed: int
    dt: float                         # effective step actually used
    store_stride: int
    scheme: str = "euler-maruyama"


def _block_rng(seed: int, block: int) -> np.random.Generator:
    key = np.array([seed, block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def simulate(spec: SdeSpec, initial_mean, initial_cov, t: float, dt: float,
             n_paths: int, seed: int, *, store_stride: int = 1) -> TrajectoryEnsemble:
    """Euler–Maruyama ensemble from a Gaussian initial condition.

    The step count is round(t/dt) (at least 1) and the step is stretched to
    land exactly on ``t``. Initial points are drawn first from each block's
    stream, then one (block, m) normal array per step; partial final blocks
    draw the full block and discard, keeping every path's noise independent
    of ``n_paths``. ``store_stride`` keeps every k-th step (plus the last).
    """
    mean = np.asarray(initial_mean, dtype=float)
    cov = np.asarray(initial_cov, dtype=float)
    if mean.shape != (2,) or cov.shape != (2, 2):
        raise ConfigError("initial_mean must be a 2-vector, initial_cov 2x2")
    if float(np.max(np.abs(cov - cov.T))) > 1e-12 * max(1.0, float(np.max(np.abs(cov)))):
        raise NotPositiveDefinite("initial covariance must be symmetric")
    try:
        chol = np.linalg.cholesky(0.5 * (cov + cov.T))
    except np.linalg.LinAlgError:
        if np.allclose(cov, 0.0):
            chol = np.zeros((2, 2))
        else:
            raise NotPositiveDefinite("initial covariance is not positive semidefinite")
    if t < 0 or dt <= 0:
        raise ConfigError("need t >= 0 and dt > 0")
    if n_paths < 1:
        raise ConfigError("n_paths must be at least 1")
    if store_stride < 1:
        raise ConfigError("store_stride must be at least 1")
    if int(seed) != seed or seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    seed = int(seed)

    steps = max(1, round(t / dt)) if t > 0 else 0
    dt_eff = t / steps if steps else dt
    stored_steps = list(range(0, steps + 1, store_stride))
    if stored_steps[-1] != steps:
        stored_steps.append(steps)
    estimate = n_paths * len(stored_steps) * 2 * 8
    if estimate > 2_000_000_000:
        raise ConfigError(
            f"ensemble storage would need ~{estimate/1e9:.1f} GB; "
            f"increase store_stride")

    a_mat = spec.drift_matrix
    offset = spec.drift_offset
    noise = spec.noise_vectors
    m_noise = noise.shape[0]
    root_dt = math.sqrt(dt_eff)

    out = np.empty((n_paths, len(stored_steps), 2))
    times = dt_eff * np.asarray(stored_steps, dtype=float)
    n_blocks = (n_paths + _BLOCK - 1) // _BLOCK
    stored_set = {s: idx for idx, s in enumerate(stored_steps)}

    for block in range(n_blocks):
        rng = _block_rng(seed, block)
        lo = block * _BLOCK
        hi = min(lo + _BLOCK, n_paths)
        keep = hi - lo
        x = mean + rng.standard_normal((_BLOCK, 2)) @ chol.T
        if 0 in stored_set:
            out[lo:hi, stored_set[0]] = x[:keep]
        for step in range(1, steps + 1):
            if m_noise:
                dw = rng.standard_normal((_BLOCK, m_noise))
                kick = root_dt * dw @ noise
            else:
                kick = 0.0
            x = x + dt_eff * (x @ a_mat.T + offset) + kick
            idx = stored_set.get(step)
            if idx is not None:
                out[lo:hi, idx] = x[:keep]

    return TrajectoryEnsemble(times=times, paths=out, seed=seed, dt=dt_eff,
                              store_stride=store_stride)


def ensemble_moments(ensemble: TrajectoryEnsemble, index: int = -1
                     ) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Sample mean and covariance (ddof=1) at a stored time index."""
    snap = ensemble.paths[:, index, :]
    mean = snap.mean(axis=0)
    if snap.shape[0] < 2:
        return mean, np.zeros((2, 2))
    return mean, np.cov(snap.T, ddof=1)


def exact_moments(system: OpenSystem, initial_mean, initial_cov, t: float
                  ) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Closed-form first and second moments of the SDE (= Wigner moments)."""
    # M(t) first: where it overflows it raises Unstable before F does
    noise = system.hbar * damping_matrix(system, t).mj
    linear, offset = affine_flow(system, t)
    mean = np.asarray(initial_mean, dtype=float) @ linear.T + offset
    cov = linear @ np.asarray(initial_cov, dtype=float) @ linear.T + noise
    return mean, 0.5 * (cov + cov.T)


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
