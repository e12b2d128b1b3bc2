"""Test-side audits: routes that re-derive what the package computes in
closed form, and the few helpers that only the tests call.

* :func:`damping_matrix_quadrature` — M(t) from ``bench/reference.py``,
  which rebuilds the integral apart from the package with
  ``scipy.linalg.expm`` and a fixed composite Gauss–Legendre rule; the
  system reaches it as the JSON dict the CLI reads.
* :func:`affine_flow_expm` — the affine flow from a generic matrix
  exponential of the augmented drift.
* :func:`purity_quadrature` — the trace-square integral of any chord
  callable on an adaptive tensor Gauss–Legendre rule.
* :func:`fock_thermal` and :func:`fock_mean` — a thermal number-basis state
  and the mean of any one.
* :func:`cat_wigner_line`, :func:`cat_fringe_wavenumber` and
  :func:`cat_fringe_zero` — the textbook photon-bath closed forms of an even
  cat on the line q = 0, derived by hand rather than from the Gaussian-term
  evolution.
* :func:`momentum_dissipation_frame` and :func:`system_to_dict`.

Like ``lindquad.oracle``, nothing here imports the propagator or the
Gaussian state code: agreement between these routes and the exact
evolution is evidence, not construction.
"""
from __future__ import annotations

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from lindquad._quadrature import adaptive_tensor_gl
from lindquad.errors import ConfigError
from lindquad.model import OpenSystem, symplectic_transform
from lindquad.oracle import FockDensity, _beta, fock_operators

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_module(name: str):
    """bench/<name>.py, loaded by path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


_REFERENCE = bench_module("reference")


def system_to_dict(system: OpenSystem) -> dict:
    """Inverse of ``lindquad.system_from_dict`` (canonical field order)."""
    return {
        "hbar": system.hbar,
        "hamiltonian": {
            "matrix": system.hamiltonian.matrix.tolist(),
            "linear": system.hamiltonian.linear.tolist(),
        },
        "channels": [{"l_re": ch.l_re.tolist(), "l_im": ch.l_im.tolist()}
                     for ch in system.channels],
    }


def damping_matrix_quadrature(system: OpenSystem, t: float) -> np.ndarray:
    """M(t) = Integral_{-t}^{0} E^T K E d tau, E = expm((2 J H + alpha) tau),
    by ``bench/reference.py``."""
    return _REFERENCE.damping_matrix(_REFERENCE.System(system_to_dict(system)), t)


def affine_flow_expm(system: OpenSystem, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(F, o) of xdot = A x + J b from the augmented 3x3 matrix exponential.

    exp(t [[A, J b], [0, 0]]) = [[F, o], [0, 1]] with A = 2 J H - alpha I,
    by a generic Pade exponential rather than the closed form.
    """
    aug = np.zeros((3, 3))
    aug[:2, :2], aug[:2, 2] = system.drift_matrix, system.drift_offset
    e = expm(aug * float(t))
    return e[:2, :2], e[:2, 2]


def purity_quadrature(system: OpenSystem, chord, t: float,
                      half_width: float) -> float:
    """Tr rho_t^2 = 2 pi hbar e^{2 alpha t} Int |chord|^2 e^{xi.M(-t)xi/hbar} d xi.

    ``chord`` is the initial chord function, any callable vectorized over
    (..., 2) chords. Tensor Gauss–Legendre with order doubling to rtol 1e-8
    over the square |xi_p|, |xi_q| <= ``half_width``, with M(-t) from
    :func:`damping_matrix_quadrature`.
    """
    m = damping_matrix_quadrature(system, -t)
    hbar = system.hbar

    def f(xi: np.ndarray) -> np.ndarray:
        quad = np.einsum("...i,ij,...j->...", xi, m, xi)
        return np.abs(chord(xi)) ** 2 * np.exp(quad / hbar)

    box = ((-half_width, half_width), (-half_width, half_width))
    integral = adaptive_tensor_gl(f, box, rtol=1e-8).real
    return 2.0 * math.pi * hbar * math.exp(2.0 * system.alpha * t) * integral


def fock_thermal(nbar: float, dim: int, hbar: float = 1.0) -> FockDensity:
    """Thermal state with mean occupancy ``nbar`` (renormalized after cut)."""
    if nbar < 0:
        raise ConfigError("nbar must be nonnegative")
    if nbar == 0:
        diag = np.zeros(dim)
        diag[0] = 1.0
    else:
        ratio = nbar / (nbar + 1.0)
        diag = ratio ** np.arange(dim)
        diag /= diag.sum()
    return FockDensity(matrix=np.diag(diag).astype(complex), hbar=hbar)


def fock_mean(rho: FockDensity) -> np.ndarray:
    """(⟨p⟩, ⟨q⟩) of a number-basis density matrix."""
    p, q = fock_operators(rho.dim, rho.hbar)
    return np.array([float(np.trace(rho.matrix @ p).real),
                     float(np.trace(rho.matrix @ q).real)])


def cat_wigner_line(zeta: float, gamma: float, nbar: float, t: float, p,
                    hbar: float = 1.0):
    """Closed-form W_t(p, q=0) of the cat under the photon bath.

    With s = e^{-gamma t} and beta_t = 2 nbar (1 - s) + 1:

        W_t(p, 0) = (2 NN / pi hbar beta) e^{-p^2 / hbar beta}
                    [ e^{-A} cos(k p) + e^{-B} ],
        A = (zeta^2/hbar)(1 - s/beta),  B = (zeta^2/hbar) s/beta,
        k = 2 sqrt(s) zeta / (hbar beta),  NN = 1/(2 (1 + e^{-zeta^2/hbar})).

    The fringe envelope e^{-A} and the Gaussian-overlap term e^{-B} swap
    dominance exactly at the positivity time (A = B there, independent of
    zeta); the fringe wavenumber k shrinks as the two components merge.
    """
    if t < 0:
        raise ConfigError("t must be nonnegative")
    p = np.asarray(p, dtype=float)
    s = math.exp(-gamma * t)
    beta = _beta(gamma, nbar, t)
    z2 = zeta ** 2 / hbar
    a_exp = z2 * (1.0 - s / beta)
    b_exp = z2 * s / beta
    k = cat_fringe_wavenumber(zeta, gamma, nbar, t, hbar)
    scriptn = 0.5 * (1.0 / (1.0 + math.exp(-zeta ** 2 / hbar)))
    pref = 2.0 * scriptn / (math.pi * hbar * beta)
    return pref * np.exp(-p ** 2 / (hbar * beta)) * (
        math.exp(-a_exp) * np.cos(k * p) + math.exp(-b_exp))


def cat_fringe_wavenumber(zeta: float, gamma: float, nbar: float, t: float,
                          hbar: float = 1.0) -> float:
    """k(t) = 2 e^{-gamma t/2} zeta / (hbar beta_t), the q=0 fringe frequency."""
    s = math.exp(-gamma * t)
    return 2.0 * math.sqrt(s) * zeta / (hbar * _beta(gamma, nbar, t))


def cat_fringe_zero(zeta: float, gamma: float, nbar: float, t: float,
                    hbar: float = 1.0) -> float | None:
    """Smallest p > 0 with W_t(p, 0) = 0, or None once fringes cannot win.

    Solves cos(k p) = -e^{A-B}; a zero exists iff e^{A-B} <= 1, i.e. up to
    (and including) the positivity time, where the zero sits at p = pi/k.
    """
    s = math.exp(-gamma * t)
    beta = _beta(gamma, nbar, t)
    z2 = zeta ** 2 / hbar
    contrast = math.exp(z2 * (1.0 - 2.0 * s / beta))
    if contrast > 1.0 or zeta == 0.0:
        return None
    k = cat_fringe_wavenumber(zeta, gamma, nbar, t, hbar)
    return math.acos(-contrast) / k


class SingularFrame(ConfigError):
    """The momentum-dissipation frame change needs H_11 != 0."""


def momentum_dissipation_frame(system: OpenSystem) -> tuple[OpenSystem, np.ndarray]:
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
