"""Test-side checks that call the exact solver itself.

Unlike ``audits``, these evaluate the propagator's own output: the
transport-equation residual of an evolved chord function, and the linear
entropy as one minus the exact purity.
"""
from __future__ import annotations

import numpy as np

from lindquad import ConfigError, J, OpenSystem, evolve_chord, purity
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
