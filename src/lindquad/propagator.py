"""Exact propagation of chord and Wigner functions.

Everything here rests on two closed-form objects:

* the symplectic orbit ``R_t = cosh(sigma t) I + sinh(sigma t)/sigma * B``
  with ``B = 2 J H`` and ``sigma^2 = -4 det H`` (trace-free B makes this the
  full matrix exponential), and
* the damping matrix ``M(t) = Integral_{-t}^{0} e^{2 alpha tau} R_tau^T K
  R_tau d tau`` built from the channel second moments ``K``.

A chord function then evolves by exact composition,

    Wt_t(xi) = Wt_0(e^{-alpha t} R_{-t} xi) * exp(-xi . M(t) xi / 2 hbar),

and the Wigner function follows by a symplectic Fourier transform carried
out as an explicit (non-FFT) midpoint-node DFT so the chord mesh can be
centered and oversampled independently of the target grid.

``damping_matrix`` evaluates M(t) in closed form in the eigenbasis of B;
the adaptive quadrature of the same integral is an audit in ``oracle``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import expm

from .errors import ConfigError, GridTooCoarse, Unstable
from .grid import GridField, GridSpec
from .model import J, HamiltonianForm, OpenSystem, _inv2
from .states import ChordState

__all__ = [
    "FlowMatrix",
    "DampingMatrix",
    "flow",
    "chord_flow",
    "point_flow",
    "damping_matrix",
    "gaussian_factor",
    "evolve_chord",
    "evolved_state",
    "evolve_wigner_grid",
    "chord_pde_residual",
]

# |W_boundary| / |W_peak| above which a chord mesh cannot be trusted
_TAIL_RATIO = 1e-8


@dataclass(frozen=True)
class FlowMatrix:
    """Linear orbit matrix R_t of the Hamiltonian part (det R_t = 1)."""

    matrix: NDArray[np.float64]
    time: float

    @property
    def symplectic_defect(self) -> float:
        r = self.matrix
        return float(np.max(np.abs(r.T @ J @ r - J)))


@dataclass(frozen=True)
class DampingMatrix:
    """Symmetric damping matrix M(t)."""

    m: NDArray[np.float64]
    time: float

    @property
    def det(self) -> float:
        return float(self.m[0, 0] * self.m[1, 1] - self.m[0, 1] * self.m[1, 0])

    @property
    def mj(self) -> NDArray[np.float64]:
        """-J M J, the J-conjugate (PSD whenever M is)."""
        return -J @ self.m @ J


def _orbit_scalars(minus4det: float, t: float) -> tuple[float, float]:
    """(c, s) with R_t = c I + s B; B^2 = minus4det * I."""
    if minus4det == 0.0:
        return 1.0, t
    if minus4det > 0.0:
        w = math.sqrt(minus4det)
        return math.cosh(w * t), math.sinh(w * t) / w
    w = math.sqrt(-minus4det)
    return math.cos(w * t), math.sin(w * t) / w


def flow(hamiltonian: HamiltonianForm, t: float) -> FlowMatrix:
    """Orbit matrix R_t = exp(2 J H t) in closed form.

    B = 2 J H is trace-free with B^2 = (-4 det H) I, so the exponential
    collapses to cosh/sinh (hyperbolic), cos/sin (elliptic) or I + t B
    (parabolic) — the same two scalars in every regime.
    """
    b = 2.0 * J @ hamiltonian.matrix
    c, s = _orbit_scalars(-4.0 * hamiltonian.det, float(t))
    return FlowMatrix(matrix=c * np.eye(2) + s * b, time=float(t))


def chord_flow(system: OpenSystem, t: float, xi) -> np.ndarray:
    """Chord characteristic flow xi -> e^{alpha t} R_t xi (batched)."""
    xi = np.asarray(xi, dtype=float)
    r = flow(system.hamiltonian, t).matrix
    return math.exp(system.alpha * t) * (xi @ r.T)


def point_flow(system: OpenSystem, t: float, x) -> np.ndarray:
    """Phase-space centre flow: solves xdot = (2 J H - alpha) x + J b.

    The homogeneous part is e^{-alpha t} R_t in closed form; a linear
    Hamiltonian term adds an affine offset, obtained from the augmented
    3x3 exponential so it stays exact in every regime.
    """
    x = np.asarray(x, dtype=float)
    linear = math.exp(-system.alpha * t) * flow(system.hamiltonian, t).matrix
    offset = np.zeros(2)
    drive = system.drift_offset
    if np.any(drive != 0.0):
        aug = np.zeros((3, 3))
        aug[:2, :2] = system.drift_matrix
        aug[:2, 2] = drive
        e = expm(aug * t)
        linear = e[:2, :2]
        offset = e[:2, 2]
    return x @ linear.T + offset


def _phi(x: complex, t: float) -> complex:
    """Integral of e^{x tau} over [-t, 0], smooth through x = 0."""
    xt = x * t
    if abs(xt) < 1e-4:
        return t * (1.0 + xt * (-0.5 + xt * (1.0 / 6.0 + xt * (-1.0 / 24.0 + xt / 120.0))))
    if x.imag == 0.0:
        return -math.expm1(-x.real * t) / x.real
    return -(cmath.exp(-xt) - 1.0) / x


def _poly_exp_integrals(a: float, t: float, nmax: int) -> list[float]:
    """J_n = Integral_{-t}^{0} e^{a tau} tau^n d tau for n = 0..nmax."""
    if abs(a * t) < 1.0:
        out = []
        for n in range(nmax + 1):
            total = 0.0
            term = -((-t) ** (n + 1)) / (n + 1)  # m = 0
            m = 0
            while True:
                total += term
                m += 1
                term *= a * (-t) * (n + m) / (m * (n + m + 1))
                if abs(term) <= 1e-18 * abs(total) or m > 80:
                    break
            out.append(total)
        return out
    js = [-math.expm1(-a * t) / a]
    decay = math.exp(-a * t)
    for n in range(1, nmax + 1):
        js.append(-decay * (-t) ** n / a - (n / a) * js[n - 1])
    return js


def _near_parabolic(k: np.ndarray, bmat: np.ndarray, s2: float, a: float,
                    t: float) -> np.ndarray:
    """M(t) from polynomial-exponential moments, for |sigma^2| t^2 small.

    Writing R_tau = c I + s B gives M = K I_cc + (B^T K + K B) I_cs +
    B^T K B I_ss, with the even/odd Taylor series of c and s integrated
    term by term against e^{a tau}.
    """
    js = _poly_exp_integrals(a, t, 14)
    u4 = 4.0 * s2
    i_cs, i_ss, power = 0.0, 0.0, 1.0
    for order in range(7):
        i_cs += power * js[2 * order + 1] / math.factorial(2 * order + 1)
        i_ss += 2.0 * power * js[2 * order + 2] / math.factorial(2 * order + 2)
        power *= u4
    i_cc = js[0] + s2 * i_ss
    return k * i_cc + (bmat.T @ k + k @ bmat) * i_cs + (bmat.T @ k @ bmat) * i_ss


def _eigenbasis(k: np.ndarray, bmat: np.ndarray, s2: float, a: float,
                t: float) -> np.ndarray:
    """M(t) = Re[V^{-T} ((V^T K V) o Phi) V^{-1}] with B = V diag(sigma, -sigma) V^{-1}.

    Phi_ij = phi(a + lambda_i + lambda_j, t). Each eigenvector is the
    larger column of adj(B - lambda I), nonzero whenever sigma != 0.
    """
    sigma = cmath.sqrt(complex(s2))
    (b00, b01), (b10, _) = bmat
    v = np.array([max([(b01, lam - b00), (lam + b00, b10)],
                      key=lambda col: abs(col[0]) + abs(col[1]))
                  for lam in (sigma, -sigma)]).T
    v_inv = _inv2(v)
    phi_0 = _phi(complex(a), t)
    phi = np.array([[_phi(a + 2.0 * sigma, t), phi_0],
                    [phi_0, _phi(a - 2.0 * sigma, t)]])
    return (v_inv.T @ ((v.T @ k @ v) * phi) @ v_inv).real


def damping_matrix(system: OpenSystem, t: float) -> DampingMatrix:
    """M(t) = Integral_{-t}^{0} e^{2 alpha tau} R_tau^T K R_tau d tau, closed form.

    Positive semidefinite for t >= 0, negative semidefinite for t <= 0,
    M(0) = 0. Polynomial-moment series take over where |sigma^2| t^2 is
    small and the eigenbasis of B is ill-conditioned. Raises
    :class:`Unstable` when the exponentials overflow.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ConfigError(f"damping matrix needs a finite time, got {t!r}")
    k = system.k_matrix
    if not np.any(k):
        return DampingMatrix(m=np.zeros((2, 2)), time=t)
    bmat = 2.0 * J @ system.hamiltonian.matrix
    s2 = -4.0 * system.hamiltonian.det
    a = 2.0 * system.alpha
    route = _near_parabolic if abs(4.0 * s2) * t * t < 1e-2 else _eigenbasis
    try:
        m = route(k, bmat, s2, a, t)
    except OverflowError:
        m = np.full((2, 2), math.inf)
    if not np.all(np.isfinite(m)):
        raise Unstable(f"damping matrix overflows at t={t!r}")
    return DampingMatrix(m=0.5 * (m + m.T), time=t)


def _attenuation(m: NDArray[np.float64], hbar: float, xi: np.ndarray) -> np.ndarray:
    quad = np.einsum("...i,ij,...j->...", xi, m, xi)
    return np.exp(-quad / (2.0 * hbar))


def gaussian_factor(system: OpenSystem, t: float, xi) -> np.ndarray:
    """exp(-xi . M(t) xi / 2 hbar), the chord attenuation envelope.

    Lies in (0, 1] for t >= 0.
    """
    if t < 0:
        raise ConfigError("gaussian_factor requires t >= 0")
    m = damping_matrix(system, t).m
    return _attenuation(m, system.hbar, np.asarray(xi, dtype=float))


def _check_state(system: OpenSystem, state: ChordState) -> None:
    if abs(state.hbar - system.hbar) > 1e-12 * system.hbar:
        raise ConfigError(
            f"state hbar {state.hbar} does not match system hbar {system.hbar}")


def evolve_chord(system: OpenSystem, state: ChordState, t: float, xi) -> np.ndarray:
    """Evolved chord function at chords ``xi`` (batched, complex).

    Pure composition: the initial evaluator is pulled back along the
    reversed chord flow and attenuated by the Gaussian factor.
    """
    if t < 0:
        raise ConfigError("evolve_chord requires t >= 0")
    _check_state(system, state)
    m = damping_matrix(system, t).m
    xi = np.asarray(xi, dtype=float)
    back = math.exp(-system.alpha * t) * flow(system.hamiltonian, -t).matrix
    return state.evaluator(xi @ back.T) * _attenuation(m, system.hbar, xi)


def evolved_state(system: OpenSystem, state: ChordState, t: float) -> ChordState:
    """Package the evolved chord function as a :class:`ChordState`.

    The support radius combines the flowed initial support with the
    attenuation envelope (whichever is smaller).
    """
    if t < 0:
        raise ConfigError("evolved_state requires t >= 0")
    _check_state(system, state)
    damping = damping_matrix(system, t)
    back = math.exp(-system.alpha * t) * flow(system.hamiltonian, -t).matrix
    fwd = math.exp(system.alpha * t) * flow(system.hamiltonian, t).matrix
    initial = state.evaluator
    hbar = system.hbar

    def evaluator(xi):
        xi = np.asarray(xi, dtype=float)
        return initial(xi @ back.T) * _attenuation(damping.m, hbar, xi)

    radius = float(np.linalg.norm(fwd, 2)) * state.chord_radius
    lam_min = float(np.linalg.eigvalsh(damping.m)[0])
    if lam_min > 0.0:
        radius = min(radius, math.sqrt(2.0 * hbar * math.log(1e20) / lam_min))
    return ChordState(evaluator=evaluator, label=f"{state.label}@t={t:g}",
                      pure=state.pure and t == 0.0, hbar=hbar, chord_radius=radius,
                      wigner=None, reliability=state.reliability)


def _chord_mesh(axis_count: int, extent: float) -> NDArray[np.float64]:
    """Midpoint-symmetric nodes covering (-extent/2, extent/2)."""
    step = extent / axis_count
    return (np.arange(axis_count) - (axis_count - 1) / 2.0) * step


def evolve_wigner_grid(system: OpenSystem, state: ChordState, t: float,
                       grid: GridSpec, *, oversample: int = 2) -> GridField:
    """Evolved Wigner function sampled on ``grid``.

    Evaluates the evolved chord function on the dual chord mesh (extent
    2 pi hbar / spacing per axis — the target grid's Nyquist window — with
    ``oversample`` times as many nodes as the target axis to push the
    periodization artifacts out to twice the window) and applies the
    symplectic Fourier transform as two dense matrix products. Raises
    :class:`GridTooCoarse` when the chord function has not decayed at the
    mesh boundary, i.e. when the requested spacing cannot resolve the state.
    """
    if t < 0:
        raise ConfigError("evolve_wigner_grid requires t >= 0")
    if oversample < 1:
        raise ConfigError("oversample must be >= 1")
    _check_state(system, state)
    hbar = system.hbar
    n_p, n_q = grid.shape
    d_p, d_q = grid.spacing
    # xi_p is conjugate to q and xi_q to p (wedge pairing)
    count_p = oversample * n_q
    count_q = oversample * n_p
    xi_p = _chord_mesh(count_p, 2.0 * math.pi * hbar / d_q)
    xi_q = _chord_mesh(count_q, 2.0 * math.pi * hbar / d_p)
    mesh = np.stack(np.meshgrid(xi_p, xi_q, indexing="ij"), axis=-1)

    vals = evolve_chord(system, state, t, mesh)

    mags = np.abs(vals)
    peak = float(mags.max())
    boundary = float(max(mags[0, :].max(), mags[-1, :].max(),
                         mags[:, 0].max(), mags[:, -1].max()))
    if peak == 0.0 or boundary > _TAIL_RATIO * peak:
        raise GridTooCoarse(
            f"chord function magnitude {boundary:.3e} at the dual-mesh edge "
            f"(peak {peak:.3e}); decrease the grid spacing or enlarge oversample")

    p_axis, q_axis = grid.p_axis, grid.q_axis
    u = np.exp(1j * np.outer(p_axis, xi_q) / hbar)          # (n_p, count_q)
    v = np.exp(-1j * np.outer(xi_p, q_axis) / hbar)         # (count_p, n_q)
    step_p = xi_p[1] - xi_p[0]
    step_q = xi_q[1] - xi_q[0]
    w = (step_p * step_q / (2.0 * math.pi * hbar)) * (u @ (vals.T @ v))
    return GridField(spec=grid, values=np.ascontiguousarray(w.real))


def chord_pde_residual(system: OpenSystem, state: ChordState, t: float, xi,
                       h: float = 1e-2) -> float:
    """|d_t Wt + (2 J H xi + alpha xi) . grad Wt + (xi . K xi / 2 hbar) Wt|.

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

    drift = 2.0 * J @ system.hamiltonian.matrix @ xi + system.alpha * xi
    damp_rate = float(xi @ system.k_matrix @ xi) / (2.0 * system.hbar)
    residual = dt_w + drift @ grad + damp_rate * w_here
    return abs(residual)
