"""Test-side checks that call the exact solver itself.

Unlike ``audits``, these evaluate the propagator's own output: the
transport-equation residual of an evolved chord function, and the linear
entropy as one minus the exact purity. Euler–Maruyama steps of the
Langevin SDE, on the exact sampler's own noise streams, audit it.
"""
from __future__ import annotations

import math

import numpy as np

from lindquad import (ConfigError, J, OpenSystem, TrajectoryEnsemble, evolve_chord,
                      purity)
from lindquad.langevin import _BLOCK, _block_rng, _draw
from lindquad.model import _covariance
from lindquad.states import ChordState


def linear_entropy(system: OpenSystem, state: ChordState, t: float) -> float:
    """1 - Tr rho_t^2."""
    return 1.0 - purity(system, state, t)


def chord_pde_residual(system: OpenSystem, state: ChordState, t: float, xi,
                       h: float = 1e-2) -> float:
    """|d_t Wt + (2 J H xi + alpha xi) . grad Wt + (xi . K xi / 2 hbar) Wt
    - (i/hbar) (J xi . J b) Wt|.

    Central differences of step ``h`` in both time and chord directions
    (O(h^2) bias), evaluated on the exact evolution — a direct check that
    the propagated chord function satisfies its transport equation.
    Requires 0 < h < t so both time stencil points stay in range.
    """
    if not 0.0 < h < t:
        raise ConfigError("need 0 < h < t for the centered time stencil")
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (2,):
        raise ConfigError("xi must be a single 2-vector")

    w_plus = complex(evolve_chord(system, state, t + h, xi))
    w_minus = complex(evolve_chord(system, state, t - h, xi))
    dt_w = (w_plus - w_minus) / (2.0 * h)

    offsets = np.array([[h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
    w_near = evolve_chord(system, state, t, xi + offsets)
    grad = np.array([(w_near[0] - w_near[1]) / (2.0 * h),
                     (w_near[2] - w_near[3]) / (2.0 * h)])
    w_here = complex(evolve_chord(system, state, t, xi))

    drift = system.generator @ xi + system.alpha * xi
    damp_rate = float(xi @ system.k_matrix @ xi) / (2.0 * system.hbar)
    # the drive J b turns the phase at the rate (J xi . J b)/hbar
    phase_rate = float((J @ xi) @ system.drift_offset) / system.hbar
    residual = dt_w + drift @ grad + (damp_rate - 1j * phase_rate) * w_here
    return abs(residual)


def euler_maruyama(system: OpenSystem, initial_mean, initial_cov, t: float,
                   dt: float, n_paths: int, seed: int, *,
                   store_stride: int = 1) -> TrajectoryEnsemble:
    """Euler–Maruyama paths of the Langevin SDE, with an O(dt) bias.

    The stored times, the Philox block streams and the initial points are
    those of :func:`lindquad.simulate` with the same arguments. Every step
    then draws one (block, channels) normal array per block and takes
    x -> x + dt (A x + J b) + sqrt(dt) dW V, with A the drift matrix and V
    the rows of ``noise_vectors``. Inputs are not validated.
    """
    steps = max(1, round(t / dt)) if t > 0 else 0
    dt = t / steps if steps else dt
    stored = list(range(0, steps + 1, store_stride))
    if stored[-1] != steps:
        stored.append(steps)
    _, root = _covariance(initial_cov, "initial_cov", definite=False)
    rngs = [_block_rng(seed, block) for block in range(-(-n_paths // _BLOCK))]
    rows = len(rngs) * _BLOCK
    x = (np.asarray(initial_mean, dtype=float)
         + _draw(rngs, np.empty((rows, 2))) @ np.ascontiguousarray(root.T))
    # a C-ordered transpose: the same product as drift_matrix.T, faster
    drift_t = np.ascontiguousarray(system.drift_matrix.T)
    offset, noise = system.drift_offset, system.noise_vectors
    dw = np.empty((rows, len(noise)))
    root_dt = math.sqrt(dt)
    out = np.empty((len(stored), n_paths, 2))
    out[0] = x[:n_paths]
    for idx in range(1, len(stored)):
        for _ in range(stored[idx] - stored[idx - 1]):
            kick = root_dt * _draw(rngs, dw) @ noise if len(noise) else 0.0
            x = x + dt * (x @ drift_t + offset) + kick
        out[idx] = x[:n_paths]
    return TrajectoryEnsemble(times=dt * np.asarray(stored, dtype=float),
                              paths=out.transpose(1, 0, 2), seed=seed, dt=dt,
                              store_stride=store_stride)
