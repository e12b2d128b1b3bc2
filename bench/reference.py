"""Reference computations made apart from the package.

Nothing here imports ``lindquad``. Systems arrive as the JSON dicts the
benchmark hands to the CLI, and every quantity is rebuilt from them with
``scipy.linalg.expm`` and a fixed composite Gauss-Legendre rule, or from a
closed form for the photon bath. The benchmark compares the program's
output files against these values.

Conventions follow the package README: phase-space points are x = (p, q),
H(x) = x.Hx, channels L = l_re.x + i l_im.x, J = [[0, -1], [1, 0]],
alpha = sum (J l_im).l_re, K = sum (l_re l_re^T + l_im l_im^T), and the
chord function is Wt(xi) = (1/2 pi hbar) Int e^{(i/hbar) xi^x} W(x) dx.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.linalg import expm

J = np.array([[0.0, -1.0], [1.0, 0.0]])

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_UNIT_NODES = 0.5 * (_GL_NODES + 1.0)
_UNIT_WEIGHTS = 0.5 * _GL_WEIGHTS


class System:
    """The pieces of a system dict that the references need."""

    def __init__(self, data: dict):
        self.hbar = float(data.get("hbar", 1.0))
        self.h = np.asarray(data["hamiltonian"]["matrix"], dtype=float)
        self.k = np.zeros((2, 2))
        self.alpha = 0.0
        for chan in data.get("channels", []):
            l_re = np.asarray(chan.get("l_re", (0.0, 0.0)), dtype=float)
            l_im = np.asarray(chan.get("l_im", (0.0, 0.0)), dtype=float)
            self.k += np.outer(l_re, l_re) + np.outer(l_im, l_im)
            self.alpha += float((J @ l_im) @ l_re)
        # dx/dt = (2 J H - alpha) x for phase-space points
        self.drift = 2.0 * J @ self.h - self.alpha * np.eye(2)


def _congruence_integral(f: np.ndarray, q: np.ndarray, lo: float,
                         hi: float) -> np.ndarray:
    """Int_lo^hi e^{F^T tau} Q e^{F tau} d tau by composite Gauss-Legendre.

    Panels are short against the norm of F, so 20 nodes per panel
    integrate the exponential-polynomial integrand to round-off.
    """
    length = hi - lo
    if length == 0.0:
        return np.zeros((2, 2))
    rate = max(float(np.linalg.norm(f, 2)), 1e-3)
    panels = max(1, math.ceil(abs(length) * rate / 0.5))
    step = length / panels
    starts = expm(f[None, :, :] * (lo + step * np.arange(panels))[:, None, None])
    inner = expm(f[None, :, :] * (step * _UNIT_NODES)[:, None, None])
    # e^{F tau} at every node: e^{F start_j} e^{F step u_k}
    nodes = np.einsum("jab,kbc->jkac", starts, inner)
    terms = np.einsum("jkba,bc,jkcd->jkad", nodes, q, nodes)
    total = step * np.einsum("k,jkad->ad", _UNIT_WEIGHTS, terms)
    return 0.5 * (total + total.T)


def damping_matrix(system: System, t: float) -> np.ndarray:
    """M(t) = Int_{-t}^0 e^{2 alpha tau} R_tau^T K R_tau d tau."""
    # e^{alpha tau} R_tau = e^{(2 J H + alpha) tau}
    generator = 2.0 * J @ system.h + system.alpha * np.eye(2)
    return _congruence_integral(generator, system.k, -t, 0.0)


def reversed_det(system: System, t: float) -> tuple[float, float]:
    """det M(-t) and the round-off scale of that determinant (eps |M|^2)."""
    m = damping_matrix(system, -t)
    det = float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    return det, 1e-16 * float(np.sum(m * m))


def isotropic_threshold(alpha: float, kappa: float) -> float | None:
    """t_p when H is a multiple of I and K = kappa I, or None if never reached.

    Then M(-t) = -kappa (e^{2 alpha t} - 1)/(2 alpha) I, so det M(-t) = 1/4
    at t = ln(1 + alpha/kappa) / (2 alpha). With gain (alpha < 0) and
    kappa <= |alpha| the determinant only approaches its limit
    kappa^2/(4 alpha^2) <= 1/4, and the threshold is never reached. The
    photon bath (alpha = gamma/2, kappa = gamma (2 nbar + 1)/2) gives
    ln(1 + 1/(2 nbar + 1))/gamma; one unit channel (kappa = alpha) gives
    ln 2/(2 alpha).
    """
    arg = 1.0 + alpha / kappa
    if arg <= 0.0:
        return None
    return math.log(arg) / (2.0 * alpha)


def photon_bath(gamma: float, nbar: float, omega: float) -> dict:
    """System dict of an oscillator (omega/2)(p^2 + q^2) in a thermal bath."""
    c = math.sqrt(gamma * (nbar + 1.0) / 2.0)
    channels = [{"l_re": [0.0, c], "l_im": [c, 0.0]}]
    if nbar > 0.0:
        d = math.sqrt(gamma * nbar / 2.0)
        channels.append({"l_re": [0.0, d], "l_im": [-d, 0.0]})
    return {"hbar": 1.0,
            "hamiltonian": {"matrix": [[0.5 * omega, 0.0], [0.0, 0.5 * omega]]},
            "channels": channels}


def photon_bath_threshold(gamma: float, nbar: float) -> float:
    """ln(1 + 1/(2 nbar + 1))/gamma."""
    return isotropic_threshold(0.5 * gamma, 0.5 * gamma * (2.0 * nbar + 1.0))


def photon_bath_gaussian(mean0, cov0, gamma: float, nbar: float, omega: float,
                         t: float, hbar: float = 1.0
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Exact Wigner mean and covariance of a Gaussian state in the bath.

    The mean rotates at omega and decays at gamma/2; the covariance relaxes
    to the thermal value (hbar/2)(2 nbar + 1) I.
    """
    rot = np.array([[math.cos(omega * t), -math.sin(omega * t)],
                    [math.sin(omega * t), math.cos(omega * t)]])
    decay = math.exp(-gamma * t)
    mean = math.sqrt(decay) * rot @ np.asarray(mean0, dtype=float)
    cov = (decay * rot @ np.asarray(cov0, dtype=float) @ rot.T
           + 0.5 * hbar * (2.0 * nbar + 1.0) * (1.0 - decay) * np.eye(2))
    return mean, cov


def gaussian_wigner(points: np.ndarray, mean, cov) -> np.ndarray:
    d = points - np.asarray(mean, dtype=float)
    inv = np.linalg.inv(cov)
    quad = np.einsum("...i,ij,...j->...", d, inv, d)
    return np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(np.linalg.det(cov)))


def gaussian_chord(xi: np.ndarray, mean, cov, hbar: float = 1.0) -> np.ndarray:
    """Chord function of a Gaussian Wigner function with this mean and cov."""
    mean = np.asarray(mean, dtype=float)
    form = J @ np.asarray(cov, dtype=float) @ J.T
    quad = np.einsum("...i,ij,...j->...", xi, form, xi)
    wedge = xi[..., 0] * mean[1] - xi[..., 1] * mean[0]
    return np.exp(-quad / (2.0 * hbar ** 2) + 1j * wedge / hbar) / (2.0 * math.pi * hbar)


def cat_chord(xi: np.ndarray, zeta: float, hbar: float = 1.0) -> np.ndarray:
    """Chord function of the even cat with coherent components at q = +-zeta.

    W = N [G(x - x+) + G(x - x-) + 2 G(x) cos(2 zeta p/hbar)] with G the
    vacuum Gaussian and N = 1/(2 (1 + e^{-zeta^2/hbar})); each term maps to
    a shifted or modulated vacuum chord function.
    """
    vac = 0.5 * hbar * np.eye(2)
    norm = 0.5 / (1.0 + math.exp(-zeta ** 2 / hbar))
    components = (gaussian_chord(xi, (0.0, zeta), vac, hbar)
                  + gaussian_chord(xi, (0.0, -zeta), vac, hbar))
    shifted_up = xi - np.array([0.0, 2.0 * zeta])
    shifted_dn = xi + np.array([0.0, 2.0 * zeta])
    fringes = (gaussian_chord(shifted_up, (0.0, 0.0), vac, hbar)
               + gaussian_chord(shifted_dn, (0.0, 0.0), vac, hbar))
    return norm * (components + fringes)


def state_chord(state: dict, xi: np.ndarray, hbar: float = 1.0) -> np.ndarray:
    kind = state["type"]
    if kind == "coherent":
        return gaussian_chord(xi, state.get("center", (0.0, 0.0)),
                              0.5 * hbar * np.eye(2), hbar)
    if kind == "gaussian":
        return gaussian_chord(xi, state.get("mean", (0.0, 0.0)), state["cov"], hbar)
    if kind == "cat":
        return cat_chord(xi, float(state["zeta"]), hbar)
    raise ValueError(f"no reference chord function for {kind!r}")


def sde_moments(system: System, mean0, cov0, t: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of dx = A x dt + noise with diffusion hbar J K J^T.

    mean_t = e^{A t} mean_0 and cov_t = e^{A t} cov_0 e^{A^T t} +
    Int_0^t e^{A s} (hbar J K J^T) e^{A^T s} ds.
    """
    flow = expm(system.drift * t)
    noise = system.hbar * J @ system.k @ J.T
    mean = flow @ np.asarray(mean0, dtype=float)
    cov = (flow @ np.asarray(cov0, dtype=float) @ flow.T
           + _congruence_integral(system.drift.T, noise, 0.0, t))
    return mean, 0.5 * (cov + cov.T)


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_json(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)
