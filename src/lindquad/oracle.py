"""Brute-force reference integrators, independent of the exact solution.

Three deliberately different routes re-derive the dynamics from scratch:

* :func:`damping_matrix_quadrature` — M(t) by adaptive Gauss–Legendre
  quadrature of its integral, with a generic matrix exponential for the flow;
  :func:`purity_quadrature` integrates the trace-square of any chord callable
  with it on a tensor Gauss–Legendre rule.

* :func:`integrate_fokker_planck` — the Wigner transport equation as a
  classical PDE on a rectangular grid: flux-form advection plus constant
  diffusion, fourth-order central stencils, RK4 in time, zero-value ghost
  cells. Flux form makes every stencil's coefficient sum vanish, so total
  mass is conserved to roundoff as long as the state stays inside the box.

* :func:`integrate_fock_lindblad` — the operator master equation in a
  truncated number basis: build p and q from ladder operators, apply the
  dissipator verbatim, integrate the dense matrix ODE with RK4. Population
  reaching the truncation edge raises :class:`TruncationLeak` rather than
  silently reflecting.

:func:`wigner_from_fock` converts a number-basis density matrix to a Wigner
function through the closed-form Laguerre kernel, which closes the loop:
exact propagation, PDE, and operator routes can all be compared pointwise.

None of this imports the propagator or the Gaussian state terms: agreement
between these integrators and the exact evolution is evidence, not
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.special import eval_genlaguerre

from ._quadrature import adaptive_tensor_gl, gauss_legendre_adaptive
from .errors import ConfigError, GridTooCoarse, TruncationLeak, Unstable
from .grid import GridField, GridSpec
from .model import J, LindbladChannel, OpenSystem

__all__ = [
    "damping_matrix_quadrature",
    "purity_quadrature",
    "FockDensity",
    "fokker_planck_max_dt",
    "integrate_fokker_planck",
    "fock_operators",
    "fock_coherent",
    "fock_cat",
    "fock_thermal",
    "coherent_fock_dim",
    "cat_fock_dim",
    "integrate_fock_lindblad",
    "wigner_from_fock",
    "fock_mean",
]

# ---------------------------------------------------------------------------
# Damping-matrix and purity quadrature


def damping_matrix_quadrature(system: OpenSystem, t: float, *,
                              rtol: float = 1e-12) -> NDArray[np.float64]:
    """M(t) = Integral_{-t}^{0} E^T K E d tau, E = expm((2 J H + alpha) tau)."""
    from scipy.linalg import expm

    k = system.k_matrix
    gen = 2.0 * J @ system.hamiltonian.matrix + system.alpha * np.eye(2)

    def integrand(taus: NDArray[np.float64]) -> np.ndarray:
        e = expm(taus[:, None, None] * gen)
        return np.einsum("nji,jk,nkl->nil", e, k, e)

    m = gauss_legendre_adaptive(integrand, -float(t), 0.0, rtol=rtol)
    return 0.5 * (m + m.T)


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

    def f(xi: NDArray[np.float64]) -> np.ndarray:
        quad = np.einsum("...i,ij,...j->...", xi, m, xi)
        return np.abs(chord(xi)) ** 2 * np.exp(quad / hbar)

    box = ((-half_width, half_width), (-half_width, half_width))
    integral = adaptive_tensor_gl(f, box, rtol=1e-8).real
    return 2.0 * math.pi * hbar * math.exp(2.0 * system.alpha * t) * integral


# ---------------------------------------------------------------------------
# Fokker-Planck route


def _d1(w: np.ndarray, axis: int, step: float) -> np.ndarray:
    """Fourth-order first derivative with zero ghost cells."""
    pad = [(0, 0), (0, 0)]
    pad[axis] = (2, 2)
    p = np.pad(w, pad)
    sl = [slice(None), slice(None)]

    def take(shift: int) -> np.ndarray:
        s = list(sl)
        s[axis] = slice(2 + shift, p.shape[axis] - 2 + shift)
        return p[tuple(s)]

    return (take(-2) - 8.0 * take(-1) + 8.0 * take(1) - take(2)) / (12.0 * step)


def _d2(w: np.ndarray, axis: int, step: float) -> np.ndarray:
    """Fourth-order second derivative with zero ghost cells."""
    pad = [(0, 0), (0, 0)]
    pad[axis] = (2, 2)
    p = np.pad(w, pad)

    def take(shift: int) -> np.ndarray:
        s = [slice(None), slice(None)]
        s[axis] = slice(2 + shift, p.shape[axis] - 2 + shift)
        return p[tuple(s)]

    return (-take(-2) + 16.0 * take(-1) - 30.0 * take(0) + 16.0 * take(1)
            - take(2)) / (12.0 * step ** 2)


def _wigner_diffusion(system: OpenSystem) -> NDArray[np.float64]:
    """D = (hbar/2) J K J^T, the diffusion matrix of the Wigner transport."""
    return 0.5 * system.hbar * J @ system.k_matrix @ J.T


def fokker_planck_max_dt(system: OpenSystem, grid: GridSpec) -> float:
    """Conservative RK4 step bound for :func:`integrate_fokker_planck`."""
    d_p, d_q = grid.spacing
    diff = _wigner_diffusion(system)
    d_norm = float(np.linalg.norm(diff, 2))
    a_mat = system.drift_matrix
    offset = system.drift_offset
    p_lo, p_hi = grid.p_axis[0], grid.p_axis[-1]
    q_lo, q_hi = grid.q_axis[0], grid.q_axis[-1]
    corners = np.array([[p, q] for p in (p_lo, p_hi) for q in (q_lo, q_hi)])
    velocity = corners @ a_mat.T + offset
    v_p = float(np.max(np.abs(velocity[:, 0])))
    v_q = float(np.max(np.abs(velocity[:, 1])))
    bound = math.inf
    if d_norm > 0.0:
        bound = 0.1 * min(d_p, d_q) ** 2 / d_norm
    if v_p > 0.0:
        bound = min(bound, 0.25 * d_p / v_p)
    if v_q > 0.0:
        bound = min(bound, 0.25 * d_q / v_q)
    return bound


def integrate_fokker_planck(system: OpenSystem, initial: GridField, t: float,
                            *, dt: float | None = None,
                            check_every: int = 25) -> GridField:
    """Integrate the Wigner transport PDE on the grid of ``initial``.

    Fourth-order flux-form stencils, RK4, zero ghost cells. The initial
    field must have negligible mass in the outer two-cell frame
    (:class:`GridTooCoarse` otherwise — enlarge the box), ``dt`` must
    respect :func:`fokker_planck_max_dt`, and sup-norm doubling or NaNs
    raise :class:`Unstable`.
    """
    if t < 0:
        raise ConfigError("integrate_fokker_planck requires t >= 0")
    grid = initial.spec
    w = np.asarray(initial.values, dtype=float).copy()

    cell = grid.cell_area
    total = float(np.sum(np.abs(w))) * cell
    frame = np.ones_like(w, dtype=bool)
    frame[2:-2, 2:-2] = False
    frame_mass = float(np.sum(np.abs(w[frame]))) * cell
    if total == 0.0 or frame_mass > 1e-8 * total:
        raise GridTooCoarse(
            f"initial field carries {frame_mass:.3e} absolute mass in the "
            f"boundary frame (total {total:.3e}); enlarge the box")

    bound = fokker_planck_max_dt(system, grid)
    if dt is None:
        dt = bound
    if dt <= 0:
        raise ConfigError("dt must be positive")
    if dt > bound:
        raise ConfigError(
            f"dt={dt:g} exceeds the stability bound {bound:g} for this grid")
    if t == 0.0:
        return GridField(spec=grid, values=w)
    if not math.isfinite(dt):
        steps = 1
    else:
        steps = max(1, math.ceil(t / dt))
    dt_eff = t / steps

    d_p, d_q = grid.spacing
    diff = _wigner_diffusion(system)
    a_mat = system.drift_matrix
    offset = system.drift_offset
    pts = grid.points()
    vel = pts @ a_mat.T + offset
    v_p, v_q = vel[..., 0], vel[..., 1]

    def rhs(field: np.ndarray) -> np.ndarray:
        out = -_d1(v_p * field, 0, d_p) - _d1(v_q * field, 1, d_q)
        if diff[0, 0] != 0.0:
            out += diff[0, 0] * _d2(field, 0, d_p)
        if diff[1, 1] != 0.0:
            out += diff[1, 1] * _d2(field, 1, d_q)
        if diff[0, 1] != 0.0:
            out += 2.0 * diff[0, 1] * _d1(_d1(field, 1, d_q), 0, d_p)
        return out

    sup0 = float(np.max(np.abs(w)))
    for step in range(1, steps + 1):
        k1 = rhs(w)
        k2 = rhs(w + 0.5 * dt_eff * k1)
        k3 = rhs(w + 0.5 * dt_eff * k2)
        k4 = rhs(w + dt_eff * k3)
        w = w + (dt_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % check_every == 0 or step == steps:
            sup = float(np.max(np.abs(w)))
            if not math.isfinite(sup) or sup > 2.0 * sup0 + 1e-300:
                raise Unstable(
                    f"field sup-norm {sup:.3e} vs initial {sup0:.3e} at "
                    f"step {step}/{steps}; decrease dt or refine the grid")
    return GridField(spec=grid, values=w)


# ---------------------------------------------------------------------------
# Fock route


@dataclass(frozen=True)
class FockDensity:
    """Density matrix in the truncated number basis."""

    matrix: NDArray[np.complex128]
    hbar: float = 1.0

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise ConfigError("density matrix must be square, dim >= 2")
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise ConfigError("density matrix must be finite")
        scale = max(float(np.max(np.abs(m))), 1e-300)
        if float(np.max(np.abs(m - m.conj().T))) > 1e-8 * scale:
            raise ConfigError("density matrix must be hermitian")
        if self.hbar <= 0:
            raise ConfigError("hbar must be positive")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    @property
    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def fock_operators(dim: int, hbar: float = 1.0
                   ) -> tuple[NDArray[np.complex128], NDArray[np.complex128]]:
    """(p, q) operator matrices from the truncated ladder operator."""
    lower = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    raise_ = lower.T
    q = math.sqrt(hbar / 2.0) * (lower + raise_).astype(complex)
    p = 1j * math.sqrt(hbar / 2.0) * (raise_ - lower).astype(complex)
    return p, q


def coherent_fock_dim(center, hbar: float = 1.0) -> int:
    """Basis size holding a coherent state's Poisson tail below ~1e-9."""
    c = np.asarray(center, dtype=float)
    occupancy = float(c @ c) / (2.0 * hbar)
    return int(math.ceil(occupancy + 8.0 * math.sqrt(occupancy) + 20.0))


def cat_fock_dim(zeta: float, hbar: float = 1.0) -> int:
    """Basis size for a cat of half-separation ``zeta`` (components at ±zeta)."""
    return 4 * int(math.ceil(zeta ** 2 / hbar)) + 20


def _coherent_vector(center, dim: int, hbar: float) -> NDArray[np.complex128]:
    c = np.asarray(center, dtype=float)
    amp = (c[1] + 1j * c[0]) / math.sqrt(2.0 * hbar)
    log_fact = np.cumsum(np.log(np.arange(1, dim, dtype=float)))
    log_fact = np.concatenate([[0.0], log_fact])
    n = np.arange(dim)
    with np.errstate(divide="ignore"):
        log_mag = n * np.log(max(abs(amp), 1e-300)) - 0.5 * log_fact
    phase = np.exp(1j * n * np.angle(amp)) if amp != 0 else (n == 0).astype(complex)
    vec = np.exp(-0.5 * abs(amp) ** 2 + log_mag) * phase
    if amp == 0:
        vec = np.zeros(dim, dtype=complex)
        vec[0] = 1.0
    return vec


def fock_coherent(center, dim: int, hbar: float = 1.0) -> FockDensity:
    """Coherent state at phase-space point ``center`` = (p, q)."""
    vec = _coherent_vector(center, dim, hbar)
    tail = 1.0 - float(np.real(vec @ vec.conj()))
    if tail > 1e-8:
        raise TruncationLeak(
            f"coherent state loses {tail:.3e} norm at dim={dim}; "
            f"use dim >= {coherent_fock_dim(center, hbar)}")
    vec = vec / math.sqrt(float(np.real(vec @ vec.conj())))
    return FockDensity(matrix=np.outer(vec, vec.conj()), hbar=hbar)


def fock_cat(zeta: float, dim: int, hbar: float = 1.0) -> FockDensity:
    """Even cat (|+zeta> + |-zeta>)/norm along the q axis."""
    if zeta < 0:
        raise ConfigError("zeta must be nonnegative")
    up = _coherent_vector((0.0, zeta), dim, hbar)
    dn = _coherent_vector((0.0, -zeta), dim, hbar)
    vec = up + dn
    norm2 = float(np.real(vec @ vec.conj()))
    expect = 2.0 * (1.0 + math.exp(-zeta ** 2 / hbar))
    if abs(norm2 - expect) > 1e-8 * expect:
        raise TruncationLeak(
            f"cat state norm {norm2:.12f} vs exact {expect:.12f} at dim={dim}; "
            f"use dim >= {cat_fock_dim(zeta, hbar)}")
    vec = vec / math.sqrt(norm2)
    return FockDensity(matrix=np.outer(vec, vec.conj()), hbar=hbar)


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


def _channel_matrix(chan: LindbladChannel, p: np.ndarray, q: np.ndarray
                    ) -> NDArray[np.complex128]:
    lp = chan.l_re[0] + 1j * chan.l_im[0]
    lq = chan.l_re[1] + 1j * chan.l_im[1]
    return lp * p + lq * q


def integrate_fock_lindblad(system: OpenSystem, rho0: FockDensity, t: float,
                            *, dt: float | None = None,
                            check_every: int = 20) -> FockDensity:
    """RK4 integration of the master equation in the truncated basis.

    The generator is assembled literally: H from the quadratic form on
    (p, q), one operator per channel, dissipator (1/2 hbar) sum (2 L rho L+
    - L+L rho - rho L+L). Population accumulating in the top two levels
    raises :class:`TruncationLeak`; sup-norm blowup, NaNs, or end-time
    trace/hermiticity drift beyond 1e-9 raise :class:`Unstable`.
    """
    if t < 0:
        raise ConfigError("integrate_fock_lindblad requires t >= 0")
    if abs(rho0.hbar - system.hbar) > 1e-12 * system.hbar:
        raise ConfigError("rho0 hbar does not match the system")
    hbar = system.hbar
    dim = rho0.dim
    p, q = fock_operators(dim, hbar)
    h = system.hamiltonian.matrix
    b = system.hamiltonian.linear
    ham = (h[0, 0] * p @ p + h[0, 1] * (p @ q + q @ p) + h[1, 1] * q @ q
           + b[0] * p + b[1] * q)
    chans = [_channel_matrix(c, p, q) for c in system.channels]
    ldl = [c.conj().T @ c for c in chans]

    rate = 2.0 * float(np.linalg.norm(ham, 2)) / hbar
    rate += sum(2.0 * float(np.linalg.norm(c, 2)) ** 2 / hbar for c in chans)
    bound = 1.0 / rate if rate > 0 else math.inf
    if dt is None:
        dt = bound
    if dt <= 0:
        raise ConfigError("dt must be positive")
    if t == 0.0:
        return FockDensity(matrix=rho0.matrix.copy(), hbar=hbar)
    steps = 1 if not math.isfinite(dt) else max(1, math.ceil(t / dt))
    dt_eff = t / steps

    def rhs(rho: np.ndarray) -> np.ndarray:
        out = (-1j / hbar) * (ham @ rho - rho @ ham)
        for c, dd in zip(chans, ldl):
            out += (0.5 / hbar) * (2.0 * c @ rho @ c.conj().T - dd @ rho - rho @ dd)
        return out

    rho = rho0.matrix.copy()
    sup0 = float(np.max(np.abs(rho)))
    for step in range(1, steps + 1):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt_eff * k1)
        k3 = rhs(rho + 0.5 * dt_eff * k2)
        k4 = rhs(rho + dt_eff * k3)
        rho = rho + (dt_eff / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if step % check_every == 0 or step == steps:
            edge = float(rho[-1, -1].real + rho[-2, -2].real)
            if edge > 1e-8:
                raise TruncationLeak(
                    f"population {edge:.3e} reached the truncation edge at "
                    f"step {step}/{steps}; increase dim={dim}")
            sup = float(np.max(np.abs(rho)))
            if not math.isfinite(sup) or sup > 4.0 * sup0 + 1e-300:
                raise Unstable(
                    f"density matrix sup-norm {sup:.3e} at step {step}/{steps}")
    trace_drift = abs(float(np.trace(rho).real) - rho0.trace)
    herm_defect = float(np.max(np.abs(rho - rho.conj().T)))
    if trace_drift > 1e-9 or herm_defect > 1e-9:
        raise Unstable(
            f"integration degraded: trace drift {trace_drift:.3e}, "
            f"hermiticity defect {herm_defect:.3e}")
    return FockDensity(matrix=rho, hbar=hbar)


def fock_mean(rho: FockDensity) -> NDArray[np.float64]:
    """(⟨p⟩, ⟨q⟩) of a number-basis density matrix."""
    p, q = fock_operators(rho.dim, rho.hbar)
    return np.array([float(np.trace(rho.matrix @ p).real),
                     float(np.trace(rho.matrix @ q).real)])


def wigner_from_fock(rho: FockDensity, grid: GridSpec) -> GridField:
    """Wigner function of a number-basis density matrix on ``grid``.

    Uses the Laguerre closed form of the number-basis Wigner kernel with
    z = (q + i p)/sqrt(2 hbar); the result is real by hermiticity and
    integrates to the trace.
    """
    hbar = rho.hbar
    pts = grid.points()
    z = (pts[..., 1] + 1j * pts[..., 0]) / math.sqrt(2.0 * hbar)
    y = 4.0 * np.abs(z) ** 2
    base = np.exp(-2.0 * np.abs(z) ** 2) / (math.pi * hbar)
    dim = rho.dim
    m = rho.matrix
    out = np.zeros(grid.shape)
    two_zbar = 2.0 * np.conj(z)
    for n in range(dim):
        out += m[n, n].real * ((-1.0) ** n) * eval_genlaguerre(n, 0, y)
    for k in range(1, dim):
        power = two_zbar ** k
        for n in range(0, dim - k):
            coeff = m[n + k, n]
            if coeff == 0:
                continue
            scale = ((-1.0) ** n) * math.exp(
                0.5 * (math.lgamma(n + 1) - math.lgamma(n + k + 1)))
            kern = scale * power * eval_genlaguerre(n, k, y)
            out += 2.0 * (coeff * kern).real
    return GridField(spec=grid, values=base * out)
