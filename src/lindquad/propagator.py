"""Exact propagation of chord and Wigner functions.

Everything here rests on two closed-form objects:

* the affine flow ``x -> F x + o`` of the drift ``(2 J H - alpha) x + J b``,
  ``F = e^{-alpha t} R_t`` with the symplectic orbit ``R_t = cosh(sigma t) I
  + sinh(sigma t)/sigma * B``, ``B = 2 J H`` and ``sigma^2 = -4 det H``
  (trace-free B makes this the full matrix exponential), and
* the damping matrix ``M(t) = Integral_{-t}^{0} e^{2 alpha tau} R_tau^T K
  R_tau d tau`` built from the channel second moments ``K``.

A chord function then evolves by exact composition,

    Wt_t(xi) = Wt_0(e^{-alpha t} R_{-t} xi) * exp(-xi . M(t) xi / 2 hbar)
               * exp((i/hbar) xi ^ o),

which :func:`map_state` applies to each Gaussian term of a
:class:`~lindquad.states.ChordState`, for either sign of t, so the evolved
Wigner function is closed form too and reconstruction is the map at -t.

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
    "affine_flow",
    "point_flow",
    "damping_matrix",
    "gaussian_factor",
    "evolve_chord",
    "map_state",
    "evolved_state",
    "evolve_wigner_grid",
    "chord_pde_residual",
]

# |Wt| on the dual-mesh rim / Wt(0) above which a grid is too coarse
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
    try:
        c, s = _orbit_scalars(-4.0 * hamiltonian.det, float(t))
    except OverflowError:
        raise Unstable(f"orbit matrix overflows at t={t!r}") from None
    return FlowMatrix(matrix=c * np.eye(2) + s * b, time=float(t))


def _exp_at(exponent: float, t: float) -> float:
    """e^exponent for a flow at time t, or :class:`Unstable` where it overflows."""
    try:
        return math.exp(exponent)
    except OverflowError:
        raise Unstable(f"flow factor e^({exponent!r}) overflows at t={t!r}") from None


def chord_flow(system: OpenSystem, t: float, xi) -> np.ndarray:
    """Chord characteristic flow xi -> e^{alpha t} R_t xi (batched)."""
    xi = np.asarray(xi, dtype=float)
    r = flow(system.hamiltonian, t).matrix
    return _exp_at(system.alpha * t, t) * (xi @ r.T)


def affine_flow(system: OpenSystem, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(F, o) with x(t) = F x(0) + o, the flow of xdot = (2 J H - alpha) x + J b.

    Without a linear Hamiltonian term F = e^{-alpha t} R_t in closed form and
    o = 0; with one, both come from the augmented 3x3 exponential, exact in
    every regime. Valid for t of either sign; raises :class:`Unstable` when
    the flow overflows.
    """
    drive = system.drift_offset
    if np.any(drive != 0.0):
        aug = np.zeros((3, 3))
        aug[:2, :2], aug[:2, 2] = system.drift_matrix, drive
        e = expm(aug * t)
        linear, offset = e[:2, :2], e[:2, 2]
    else:
        linear = _exp_at(-system.alpha * t, t) * flow(system.hamiltonian, t).matrix
        offset = np.zeros(2)
    if not (np.all(np.isfinite(linear)) and np.all(np.isfinite(offset))):
        raise Unstable(f"affine flow overflows at t={t!r}")
    return linear, offset


def point_flow(system: OpenSystem, t: float, x) -> np.ndarray:
    """Phase-space centre flow x -> F x + o (batched), see :func:`affine_flow`."""
    linear, offset = affine_flow(system, t)
    return np.asarray(x, dtype=float) @ linear.T + offset


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


def gaussian_factor(system: OpenSystem, t: float, xi) -> np.ndarray:
    """exp(-xi . M(t) xi / 2 hbar), the chord attenuation envelope.

    Lies in (0, 1] for t >= 0.
    """
    if t < 0:
        raise ConfigError("gaussian_factor requires t >= 0")
    m = damping_matrix(system, t).m
    xi = np.asarray(xi, dtype=float)
    return np.exp(-np.einsum("...i,ij,...j->...", xi, m, xi) / (2.0 * system.hbar))


def map_state(system: OpenSystem, state: ChordState, t: float, *, label: str,
              reliability=None) -> ChordState:
    """Carry every term of ``state`` along the affine flow over t (either sign).

    With (F, o) from :func:`affine_flow` and the chord pull-back
    back = -J F^T J: A -> back^T A back + M(t)/hbar, b -> back^T b + (o J)/hbar,
    weights unchanged. The map at -t inverts the map at t, since
    M(-t) = -back^T M(t) back with back taken at -t.
    """
    if abs(state.hbar - system.hbar) > 1e-12 * system.hbar:
        raise ConfigError(
            f"state hbar {state.hbar} does not match system hbar {system.hbar}")
    # M first: where it overflows it raises Unstable before the pull-back can
    m = damping_matrix(system, t).m
    linear, offset = affine_flow(system, t)
    back = -J @ linear.T @ J
    return ChordState(weights=state.weights,
                      forms=back.T @ state.forms @ back + m / system.hbar,
                      shifts=state.shifts @ back + (offset @ J) / system.hbar,
                      label=label, pure=state.pure and t == 0.0,
                      hbar=system.hbar, reliability=reliability)


def evolved_state(system: OpenSystem, state: ChordState, t: float) -> ChordState:
    """The evolved chord function, :func:`map_state` at t >= 0."""
    if t < 0:
        raise ConfigError("evolved_state requires t >= 0")
    return map_state(system, state, t, label=f"{state.label}@t={t:g}",
                     reliability=state.reliability)


def evolve_chord(system: OpenSystem, state: ChordState, t: float, xi) -> np.ndarray:
    """Evolved chord function at chords ``xi`` (batched, complex)."""
    return evolved_state(system, state, t)(xi)


def evolve_wigner_grid(system: OpenSystem, state: ChordState, t: float,
                       grid: GridSpec) -> GridField:
    """Evolved Wigner function sampled on ``grid``, in closed form.

    Raises :class:`GridTooCoarse` when the requested spacing cannot resolve
    the state: the evolved chord function must have decayed to 1e-8 of its
    peak 1/(2 pi hbar) on the rim of the dual chord mesh, which spans
    2 pi hbar / spacing per axis with twice the target's node count at
    midpoint-symmetric nodes.
    """
    evolved = evolved_state(system, state, t)
    hbar = system.hbar
    # xi_p is conjugate to q and xi_q to p (wedge pairing)
    xi_p, xi_q = [(np.arange(2 * n) - n + 0.5) * (math.pi * hbar / (n * d))
                  for n, d in zip(grid.shape[::-1], grid.spacing[::-1])]
    rim = np.concatenate([
        np.stack(np.meshgrid(rows, cols, indexing="ij"), axis=-1).reshape(-1, 2)
        for rows, cols in ((xi_p[[0, -1]], xi_q), (xi_p, xi_q[[0, -1]]))])
    edge = float(np.max(np.abs(evolved(rim))))
    peak = 1.0 / (2.0 * math.pi * hbar)
    if edge > _TAIL_RATIO * peak:
        raise GridTooCoarse(
            f"chord function magnitude {edge:.3e} at the dual-mesh edge "
            f"(peak {peak:.3e}); decrease the grid spacing")
    return GridField(spec=grid, values=evolved.wigner(grid.points()))


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

    drift = 2.0 * J @ system.hamiltonian.matrix @ xi + system.alpha * xi
    damp_rate = float(xi @ system.k_matrix @ xi) / (2.0 * system.hbar)
    # the drive J b turns the phase at the rate (J xi . J b)/hbar
    phase_rate = float((J @ xi) @ system.drift_offset) / system.hbar
    residual = dt_w + drift @ grad + (damp_rate - 1j * phase_rate) * w_here
    return abs(residual)
