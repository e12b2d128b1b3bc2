"""Shared builders for the test suite."""
from __future__ import annotations

import numpy as np

from lindquad import (HamiltonianForm, LindbladChannel, OpenSystem, affine_flow, oracle,
                      photon_bath)


def det2(m: np.ndarray) -> float:
    """m00 m11 - m01 m10 of a 2x2 matrix, with no LU round-off."""
    return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def orbit(hamiltonian: HamiltonianForm, t: float) -> np.ndarray:
    """R_t = exp(2 J H t): the affine flow's F of the closed system."""
    return affine_flow(OpenSystem(hamiltonian=hamiltonian), t)[0]


def centre_flow(system: OpenSystem, t: float, x) -> np.ndarray:
    """Phase-space points x carried by the affine flow, F x + o (batched)."""
    linear, offset = affine_flow(system, t)
    return np.asarray(x, dtype=float) @ linear.T + offset


def damping_bath(gamma: float, nbar: float = 0.0, hbar: float = 1.0) -> OpenSystem:
    """Photon-bath channels with the oscillator rotation removed (H = 0).

    Same noise matrix and dissipation coefficient as ``photon_bath`` but in
    the co-rotating frame, so fringes of an evolving cat state stay put on
    the momentum axis.
    """
    return photon_bath(gamma, nbar, omega=0.0, hbar=hbar)


def channel_with_alpha(rng: np.random.Generator, alpha: float) -> LindbladChannel:
    """Random channel whose dissipation coefficient is exactly ``alpha``.

    With l'' = -(alpha/|l'|^2) J l' + c l' the wedge-trace picks up exactly
    ``alpha`` from the first term and nothing from the second.
    """
    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    l_re = rng.normal(size=2)
    while np.linalg.norm(l_re) < 0.3:
        l_re = rng.normal(size=2)
    l_im = -(alpha / (l_re @ l_re)) * (j @ l_re) + rng.normal() * l_re
    return LindbladChannel(l_re=l_re, l_im=l_im)


def random_hamiltonian(rng: np.random.Generator, regime: str) -> HamiltonianForm:
    """Random symmetric Hamiltonian matrix of the requested regime."""
    if regime == "parabolic":
        # rank-one positive form rotated by a random orthogonal matrix
        theta = rng.uniform(0.0, 2.0 * np.pi)
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        core = np.diag([rng.uniform(0.2, 1.5), 0.0])
        return HamiltonianForm(matrix=rot @ core @ rot.T)
    h = rng.normal(size=(2, 2))
    h = 0.5 * (h + h.T)
    want_positive = regime == "elliptic"
    while (np.linalg.det(h) > 0) != want_positive or abs(np.linalg.det(h)) < 0.05:
        h = rng.normal(size=(2, 2))
        h = 0.5 * (h + h.T)
    return HamiltonianForm(matrix=h)


def random_system(rng: np.random.Generator, regime: str,
                  alpha: float | None = None,
                  n_channels: int = 2) -> OpenSystem:
    """Random open system; dissipation coefficient pinned when requested."""
    ham = random_hamiltonian(rng, regime)
    channels = []
    if alpha is None:
        for _ in range(n_channels):
            channels.append(LindbladChannel(l_re=rng.normal(size=2),
                                            l_im=rng.normal(size=2)))
    else:
        channels.append(channel_with_alpha(rng, alpha))
        for _ in range(n_channels - 1):
            channels.append(channel_with_alpha(rng, 0.0))
    return OpenSystem(hamiltonian=ham, channels=tuple(channels))


def random_symplectic(rng: np.random.Generator, scale: float = 0.6) -> np.ndarray:
    """Random symplectic matrix exp(J S) with S symmetric."""
    from scipy.linalg import expm

    j = np.array([[0.0, -1.0], [1.0, 0.0]])
    s = rng.normal(scale=scale, size=(2, 2))
    s = 0.5 * (s + s.T)
    return expm(j @ s)


def rk4_factor(z):
    """RK4's stability polynomial P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24."""
    return 1.0 + z * (1.0 + z * (0.5 + z * (1.0 / 6.0 + z / 24.0)))


def dense_transport(system: OpenSystem, grid) -> np.ndarray:
    """The Fokker–Planck transport operator on ``grid`` as a dense matrix
    over the flattened field, built one unit vector at a time."""
    rhs = oracle._transport_operator(system, grid)
    n = grid.shape[0] * grid.shape[1]
    out = np.empty((n, n))
    unit = np.zeros(n)
    for i in range(n):
        unit[i] = 1.0
        out[:, i] = rhs(unit.reshape(grid.shape)).ravel()
        unit[i] = 0.0
    return out
