"""Brute-force reference integrators, independent of the exact solution.

Two deliberately different routes re-derive the dynamics from scratch:

* :func:`integrate_fokker_planck` — the Wigner transport equation as a
  classical PDE on a rectangular grid: flux-form advection plus constant
  diffusion, fourth-order central stencils, RK4 in time, zero-value ghost
  cells. The linear, time-independent operator is assembled once per
  integration: each axis folds advection and its diffusion into per-node
  five-point weights applied by one contraction, and cross-diffusion is a
  constant stencil used only when D_pq != 0. Flux form makes the weights
  each source node sends out, offset by offset, sum to zero, so total mass
  is conserved to roundoff as long as the state stays inside the box.

* :func:`integrate_fock_lindblad` — the operator master equation in a
  truncated number basis: build p and q from ladder operators, apply the
  generator in effective-Hamiltonian form, integrate the dense matrix ODE
  with RK4. Population reaching the truncation edge raises
  :class:`TruncationLeak` rather than silently reflecting.

:func:`wigner_from_fock` converts a number-basis density matrix to a Wigner
function by an exact Hermite–Gauss route: along each grid row q the Wigner
integrand <q - y|rho|q + y> is a finite sum of Hermite functions in y, whose
coefficients a Gauss–Hermite rule gives exactly and whose Fourier transforms
are Hermite functions in p, so the grid is a few small matrix products. This
closes the loop: exact propagation, PDE, and operator routes can all be
compared pointwise. The audits by quadrature and matrix exponential (M(t),
the affine flow, purity) are test-side, in ``tests/audits.py``, so the
package needs no ``scipy``.

:func:`cat_zero_crossing_time` is the textbook photon-bath time at which an
even cat's Wigner function on the line q = 0 loses its negative fringes,
derived by hand rather than from the Gaussian-term evolution.

None of this imports the propagator or the Gaussian state terms: agreement
between these integrators and the exact evolution is evidence, not
construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.typing import NDArray

from .errors import ConfigError, GridTooCoarse, TruncationLeak, Unstable
from .grid import GridField, GridSpec
from .model import LindbladChannel, OpenSystem, checked_hbar, finite_array

__all__ = [
    "FockDensity",
    "fokker_planck_max_dt",
    "integrate_fokker_planck",
    "fock_operators",
    "fock_coherent",
    "fock_cat",
    "coherent_fock_dim",
    "cat_fock_dim",
    "integrate_fock_lindblad",
    "wigner_from_fock",
    "cat_zero_crossing_time",
]

# ---------------------------------------------------------------------------
# Fokker-Planck route


# Most RK4 steps one integration may plan, so that a large finite t fails at
# once instead of running for hours; the audited runs take a few hundred.
_MAX_STEPS = 1_000_000
# RK4 steps between two health checks of a run (and one after the last)
_CHECK_EVERY = 20

# Fourth-order central weights on the offsets -2..2: first derivative (times
# the step) and second derivative (times the squared step).
_D1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def fokker_planck_max_dt(system: OpenSystem, grid: GridSpec) -> float:
    """RK4 step bound for :func:`integrate_fokker_planck`.

    The least of 0.2 h^2/|D| (h the smaller spacing, |D| the 2-norm of the
    diffusion) and 0.75 h/v on each axis, v the largest speed along that
    axis at the grid's corners. Both constants come from RK4's stability
    polynomial P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 and the symbols of the
    fourth-order stencils, with the coefficients frozen:

    * the _D2 symbol is -(30 - 32 cos k + 2 cos 2k)/12, at most 16/3 in
      size (k = pi), and the _D1 symbol is i (8 sin k - sin 2k)/6, at most
      1.372 in size. The square of the one never exceeds the other, so the
      diffusion symbol, cross term included, is real and at most
      (32/3)|D|/h^2 in size over both axes. RK4 reaches -2.785 on the real
      axis, so pure diffusion is stable up to 0.261 h^2/|D|.
    * advection adds an imaginary part of at most 2 x 1.372 x 0.75 = 2.06,
      inside RK4's 2 sqrt 2 on the imaginary axis. Every symbol then lies
      in a rectangle [-x, 0] x [-y, y] of these two extents, and the
      largest |P| over all of them is 1 at (0.2, 0.75). At 0.75 diffusion
      stays stable up to 0.247 (margin 19 %); at 0.2 advection stays
      stable up to 0.824 (margin 9 %). (0.25, 0.75) gives |P| = 1.018 and
      (0.2, 1.0) gives 1.645.

    The flux form's variable coefficients and the zero ghost cells are
    outside this argument; dense spectra of the assembled operator on small
    grids (``tests/fp_stability_sweep.py``) agree with it.
    """
    d_p, d_q = grid.spacing
    d_norm = float(np.linalg.norm(system.diffusion, 2))
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
        bound = 0.2 * min(d_p, d_q) ** 2 / d_norm
    if v_p > 0.0:
        bound = min(bound, 0.75 * d_p / v_p)
    if v_q > 0.0:
        bound = min(bound, 0.75 * d_q / v_q)
    return bound


def _stencil_stack(v: np.ndarray, step: float,
                   diff: float) -> NDArray[np.float64]:
    """Per-node weights of flux-form advection plus diffusion along axis 0.

    C[k, i, j] = -_D1[k] v[i + k - 2, j]/step + diff _D2[k]/step**2, so that
    sum_k C[k, i, j] w[i + k - 2, j] = -d(v w)/dx + diff d2w/dx2 at node
    (i, j). v is zero on the two ghost nodes each side; they only ever meet
    the field's zero ghost cells.
    """
    n = v.shape[0]
    v_pad = np.zeros((n + 4,) + v.shape[1:])
    v_pad[2:-2] = v
    out = np.empty((5,) + v.shape)
    for k in range(5):
        np.multiply(v_pad[k:k + n], -_D1[k] / step, out=out[k])
        out[k] += diff * _D2[k] / step ** 2
    return out


def _transport_operator(system: OpenSystem, grid: GridSpec):
    """The Wigner transport's right-hand side on ``grid``, assembled once.

    Along each axis, advection and that axis's diffusion are one five-point
    stencil with per-node weights (:func:`_stencil_stack`), applied as a
    single contraction against a window over a buffer with two zero ghost
    cells each side. The q buffer holds the transposed field, so both
    contractions run along the slow axis. Cross-diffusion 2 D_pq d2w/dpdq is
    the constant-coefficient product of the two first-derivative stencils,
    applied only when D_pq != 0. The returned ``rhs(field, out=None)``
    writes into ``out`` when given and reuses its buffers, so it serves one
    integration at a time.
    """
    n_p, n_q = grid.shape
    h_p, h_q = grid.spacing
    diff = system.diffusion
    vel = grid.points() @ system.drift_matrix.T + system.drift_offset
    c_p = _stencil_stack(vel[..., 0], h_p, diff[0, 0])
    c_q = _stencil_stack(vel[..., 1].T, h_q, diff[1, 1])
    del vel
    buf_p = np.zeros((n_p + 4, n_q))
    buf_q = np.zeros((n_q + 4, n_p))
    win_p = sliding_window_view(buf_p, 5, axis=0)
    win_q = sliding_window_view(buf_q, 5, axis=0)
    along_p, along_q = np.empty((n_p, n_q)), np.empty((n_q, n_p))
    cross = 2.0 * diff[0, 1] / (h_p * h_q)

    def rhs(field: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        buf_p[2:-2] = field
        buf_q[2:-2] = field.T
        out = np.einsum("kij,ijk->ij", c_p, win_p, out=out)
        out += np.einsum("kij,ijk->ij", c_q, win_q, out=along_q).T
        if cross != 0.0:
            buf_p[2:-2] = np.einsum("k,ijk->ij", _D1, win_q, out=along_q).T
            np.einsum("k,ijk->ij", _D1, win_p, out=along_p)
            out += np.multiply(along_p, cross, out=along_p)
        return out

    return rhs


def _check_run(t: float, dt: float | None) -> None:
    """Reject a time or an explicit step no RK4 run honours."""
    if not (math.isfinite(t) and t >= 0):
        raise ConfigError(f"t must be finite and nonnegative, got {t!r}")
    if dt is not None and not (math.isfinite(dt) and dt > 0):
        raise ConfigError(f"dt must be finite and positive, got {dt!r}")


def _rk4(rhs, y: np.ndarray, t: float, dt: float, check) -> np.ndarray:
    """Classical RK4 for y' = rhs(y) over [0, t], shared by both integrators.

    Equal steps of at most ``dt`` (one for an infinite ``dt``); more than
    ``_MAX_STEPS`` raises :class:`ConfigError` before any step is taken.
    ``check(y, step, steps)`` runs every ``_CHECK_EVERY`` steps and after
    the last one, and raises to stop the run.

    ``y`` is advanced in place, and ``rhs(y, out)`` must write into ``out``.
    Three stage buffers are allocated once: the stage input, the newest
    slope, and the running sum ((k1 + 2 k2) + 2 k3) + k4, which is then
    scaled by h/6, in the operation order of the textbook expression.
    """
    if t / dt > _MAX_STEPS:
        raise ConfigError(f"t={t!r} at dt={dt:g} needs {t / dt:.3g} RK4 steps, "
                          f"more than the budget of {_MAX_STEPS:,}")
    steps = 1 if math.isinf(dt) else max(1, math.ceil(t / dt))
    h = t / steps
    stage, k, total = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    for step in range(1, steps + 1):
        rhs(y, total)                              # k1
        np.add(y, np.multiply(total, 0.5 * h, out=stage), out=stage)
        rhs(stage, k)                              # k2
        np.add(y, np.multiply(k, 0.5 * h, out=stage), out=stage)
        total += np.multiply(k, 2.0, out=k)
        rhs(stage, k)                              # k3
        np.add(y, np.multiply(k, h, out=stage), out=stage)
        total += np.multiply(k, 2.0, out=k)
        total += rhs(stage, k)                     # k4
        y += np.multiply(total, h / 6.0, out=total)
        if step % _CHECK_EVERY == 0 or step == steps:
            check(y, step, steps)
    return y


def integrate_fokker_planck(system: OpenSystem, initial: GridField, t: float,
                            *, dt: float | None = None) -> GridField:
    """Integrate the Wigner transport PDE on the grid of ``initial``.

    The transport operator is assembled once: per-node five-point weights
    for each axis (flux-form fourth-order advection plus diffusion) and,
    when D_pq != 0, the constant cross-diffusion stencil, all with zero
    ghost cells; RK4 then applies it as one contraction per axis. Each
    stencil's weights that a source node sends out sum to zero, so mass is
    conserved to roundoff while the field stays inside the box. The initial
    field must have negligible mass in the outer two-cell frame
    (:class:`GridTooCoarse` otherwise — enlarge the box), ``t`` must be
    finite, an explicit ``dt`` finite and within
    :func:`fokker_planck_max_dt` and the run at most a million steps
    (:class:`ConfigError` otherwise). A periodic check raises
    :class:`Unstable` when the L1 norm is not finite or exceeds twice its
    initial value: the flux form all but conserves it, while an unstable
    mode grows it exponentially. The peak is no such measure, since it
    rises wherever the flow contracts phase space.
    """
    _check_run(t, dt)
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
    if dt > bound:
        raise ConfigError(
            f"dt={dt:g} exceeds the stability bound {bound:g} for this grid")
    if t == 0.0:
        return GridField(spec=grid, values=w)

    def check(field: np.ndarray, step: int, steps: int) -> None:
        l1 = float(np.sum(np.abs(field))) * cell
        if not math.isfinite(l1) or l1 > 2.0 * total:
            raise Unstable(
                f"field L1 norm {l1:.3e} vs initial {total:.3e} at "
                f"step {step}/{steps}; decrease dt or refine the grid")

    w = _rk4(_transport_operator(system, grid), w, t, dt, check)
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
        object.__setattr__(self, "hbar", checked_hbar(self.hbar))
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
    """Basis size holding a coherent state's Poisson tail below ~1e-9;
    :class:`ConfigError` when the occupancy |center|^2/(2 hbar) is not finite."""
    radius = math.hypot(*np.asarray(center, dtype=float))
    occupancy = radius * radius / (2.0 * hbar)
    if not math.isfinite(occupancy):
        raise ConfigError(f"coherent |center|^2/(2 hbar) must be finite, got "
                          f"|center| = {radius:g} at hbar = {hbar:g}")
    return int(math.ceil(occupancy + 8.0 * math.sqrt(occupancy) + 20.0))


def cat_fock_dim(zeta: float, hbar: float = 1.0) -> int:
    """Basis size for a cat of half-separation ``zeta`` (components at ±zeta);
    :class:`ConfigError` when zeta^2/hbar is not finite."""
    if not math.isfinite(zeta * zeta / hbar):
        raise ConfigError(f"cat zeta^2/hbar must be finite, got zeta = {zeta!r}")
    return 4 * int(math.ceil(zeta ** 2 / hbar)) + 20


def _coherent_vector(center, dim: int, hbar: float) -> NDArray[np.complex128]:
    if dim > _MAX_WIGNER_DIM:  # refused before anything of that size exists
        raise ConfigError(f"number basis of {dim} states is above the largest, "
                          f"{_MAX_WIGNER_DIM}")
    c = np.asarray(center, dtype=float)
    amp = (c[1] + 1j * c[0]) / math.sqrt(2.0 * hbar)
    if amp == 0:
        vec = np.zeros(dim, dtype=complex)
        vec[0] = 1.0
        return vec
    log_fact = np.cumsum(np.log(np.arange(1, dim, dtype=float)))
    log_fact = np.concatenate([[0.0], log_fact])
    n = np.arange(dim)
    log_mag = n * np.log(abs(amp)) - 0.5 * log_fact
    phase = np.exp(1j * n * np.angle(amp))
    return np.exp(-0.5 * abs(amp) ** 2 + log_mag) * phase


def _pure(vec: np.ndarray, expect: float, what: str, need: int,
          hbar: float) -> FockDensity:
    """|vec><vec| normalised, or :class:`TruncationLeak` when the squared
    norm of ``vec`` misses its exact value ``expect`` by more than 1e-8 of
    it; the message names the state and the basis size ``need`` to use."""
    norm2 = float(np.real(vec @ vec.conj()))
    if abs(norm2 - expect) > 1e-8 * expect:
        raise TruncationLeak(
            f"{what} norm {norm2:.12f} vs exact {expect:.12f} at "
            f"dim={vec.size}; use dim >= {need}")
    vec = vec / math.sqrt(norm2)
    return FockDensity(matrix=np.outer(vec, vec.conj()), hbar=hbar)


def fock_coherent(center, dim: int | None = None, hbar: float = 1.0) -> FockDensity:
    """Coherent state at phase-space point ``center`` = (p, q), in ``dim``
    number states (default :func:`coherent_fock_dim`), at most 500."""
    center, hbar = finite_array(center, (2,), "coherent center"), checked_hbar(hbar)
    need = coherent_fock_dim(center, hbar)
    return _pure(_coherent_vector(center, need if dim is None else dim, hbar),
                 1.0, "coherent state", need, hbar)


def fock_cat(zeta: float, dim: int | None = None, hbar: float = 1.0) -> FockDensity:
    """Even cat (|+zeta> + |-zeta>)/norm along the q axis, in ``dim`` number
    states (default :func:`cat_fock_dim`), at most 500."""
    zeta, hbar = float(finite_array(zeta, (), "cat zeta")), checked_hbar(hbar)
    if zeta < 0:
        raise ConfigError("zeta must be nonnegative")
    need = cat_fock_dim(zeta, hbar)
    dim = need if dim is None else dim
    vec = (_coherent_vector((0.0, zeta), dim, hbar)
           + _coherent_vector((0.0, -zeta), dim, hbar))
    return _pure(vec, 2.0 * (1.0 + math.exp(-zeta ** 2 / hbar)), "cat state",
                 need, hbar)


def _channel_matrix(chan: LindbladChannel, p: np.ndarray, q: np.ndarray
                    ) -> NDArray[np.complex128]:
    lp = chan.l_re[0] + 1j * chan.l_im[0]
    lq = chan.l_re[1] + 1j * chan.l_im[1]
    return lp * p + lq * q


def integrate_fock_lindblad(system: OpenSystem, rho0: FockDensity, t: float,
                            *, dt: float | None = None) -> FockDensity:
    """RK4 integration of the master equation in the truncated basis.

    H comes from the quadratic form on (p, q) and one operator L from each
    channel. The generator -(i/hbar)[H, rho] + (1/2 hbar) sum (2 L rho L+
    - L+L rho - rho L+L) is applied in effective-Hamiltonian form,
    G rho + rho G+ + (1/hbar) sum L rho L+ with G = -(i/hbar) H
    - (1/2 hbar) sum L+L precomputed: two products for G and two per
    channel. rho G+ is a product of its own, not the adjoint of G rho, so
    the end-time hermiticity check still tests the integration.

    Population accumulating in the top two levels raises
    :class:`TruncationLeak` at a periodic check; at the same check an entry
    larger than twice the initial trace (which bounds every entry of a
    density matrix) or NaNs raise :class:`Unstable`, and so does end-time
    trace/hermiticity drift beyond 1e-9. ``t`` must be finite, an explicit
    ``dt`` finite and positive and the run at most a million steps
    (:class:`ConfigError` otherwise).
    """
    _check_run(t, dt)
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

    rate = 2.0 * float(np.linalg.norm(ham, 2)) / hbar
    rate += sum(2.0 * float(np.linalg.norm(c, 2)) ** 2 / hbar for c in chans)
    bound = 1.0 / rate if rate > 0 else math.inf
    if dt is None:
        dt = bound
    if t == 0.0:
        return FockDensity(matrix=rho0.matrix.copy(), hbar=hbar)

    g = (-1j / hbar) * ham - (0.5 / hbar) * sum(c.conj().T @ c for c in chans)
    g_adj = g.conj().T
    jumps = [(c / math.sqrt(hbar), c.conj().T / math.sqrt(hbar)) for c in chans]

    product, jumped = np.empty_like(g), np.empty_like(g)

    def rhs(rho: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.matmul(g, rho, out=out)
        out += np.matmul(rho, g_adj, out=product)
        for c, c_adj in jumps:
            out += np.matmul(np.matmul(c, rho, out=product), c_adj, out=jumped)
        return out

    # entries of a density matrix are at most its trace; the initial peak
    # stands in when the input is no density matrix (trace <= 0)
    limit = 2.0 * max(rho0.trace, float(np.max(np.abs(rho0.matrix))))

    def check(rho: np.ndarray, step: int, steps: int) -> None:
        edge = float(rho[-1, -1].real + rho[-2, -2].real)
        if edge > 1e-8:
            raise TruncationLeak(
                f"population {edge:.3e} reached the truncation edge at "
                f"step {step}/{steps}; increase dim={dim}")
        sup = float(np.max(np.abs(rho)))
        if not math.isfinite(sup) or sup > limit:
            raise Unstable(
                f"density matrix sup-norm {sup:.3e} vs bound {limit:.3e} at "
                f"step {step}/{steps}")

    rho = _rk4(rhs, rho0.matrix.copy(), t, dt, check)
    trace_drift = abs(float(np.trace(rho).real) - rho0.trace)
    herm_defect = float(np.max(np.abs(rho - rho.conj().T)))
    if trace_drift > 1e-9 or herm_defect > 1e-9:
        raise Unstable(
            f"integration degraded: trace drift {trace_drift:.3e}, "
            f"hermiticity defect {herm_defect:.3e}")
    return FockDensity(matrix=rho, hbar=hbar)


# Largest basis :func:`wigner_from_fock` synthesises (see its docstring), and
# so the largest that fock_coherent and fock_cat build.
_MAX_WIGNER_DIM = 500
# Most entries of one block of its table of number-state wave functions.
_BLOCK_ENTRIES = 1 << 16
# |u| beyond which every Hermite-function start there underflows to zero, so
# that clipping arguments to it changes no value and keeps u^2 finite.
_U_CLIP = 60.0
# Most multiply-adds in one BLAS product of wigner_from_fock: OpenBLAS runs
# products up to 2^18 on the calling thread. Its two-thread split of a product of 1e6-1e7
# took 16 ms instead of 0.2 ms on a shared 2-CPU VM (OpenBLAS 0.3.31), and
# its spinning worker thread added CPU time to the jobs that followed.
_ONE_THREAD_MACS = 1 << 18


def _hermite_functions(u, n: int, shift) -> NDArray[np.float64]:
    """e^shift phi_k(u) for k < n, stacked along a new first axis.

    phi_k(u) = H_k(u) e^{-u^2/2} / sqrt(2^k k! sqrt(pi)) are the orthonormal
    Hermite functions, from the recurrence phi_{k+1} = sqrt(2/(k+1)) u phi_k
    - sqrt(k/(k+1)) phi_{k-1} started at pi^{-1/4} e^{shift - u^2/2}. Where
    that start underflows the rows are zero.
    """
    out = np.empty((n,) + u.shape)
    out[0] = np.exp(shift - 0.5 * u * u) * math.pi ** -0.25
    if n > 1:
        np.multiply(math.sqrt(2.0) * u, out[0], out=out[1])
    for k in range(1, n - 1):
        np.multiply(u, out[k], out=out[k + 1])
        out[k + 1] *= math.sqrt(2.0 / (k + 1))
        out[k + 1] -= math.sqrt(k / (k + 1)) * out[k - 1]
    return out


def _matmul_one_thread(a: np.ndarray, b: np.ndarray) -> NDArray[np.float64]:
    """a @ b as products of row slices of ``a``, each within
    ``_ONE_THREAD_MACS`` multiply-adds (one row at the least)."""
    out = np.empty((a.shape[0], b.shape[1]))
    step = max(1, _ONE_THREAD_MACS // (a.shape[1] * b.shape[1]))
    for i in range(0, a.shape[0], step):
        np.matmul(a[i:i + step], b, out=out[i:i + step])
    return out


@functools.lru_cache(maxsize=8)
def _gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n-node Gauss–Hermite rule (weight e^{-x^2}) as the synthesis uses it.

    Returns the nodes x_l, log mu_l with mu_l = sqrt(w_l e^{x_l^2}), and
    v[b, l] = mu_l phi_b(x_l) for b < n (the normalised eigenvectors of the
    Jacobi matrix). The nodes are the Jacobi matrix's eigenvalues, polished
    by one Newton step on phi_n and made exactly symmetric. The weights come
    from the Christoffel sum mu_l^{-2} = sum_{b<n} phi_b(x_l)^2, evaluated
    on e^{x^2/4}-scaled functions divided by their peak, so neither the
    underflowing w_l nor the overflowing e^{x_l^2} is ever formed.
    """
    off = np.sqrt(np.arange(1.0, n) / 2.0)
    x = np.linalg.eigvalsh(np.diag(off, -1))
    phi = _hermite_functions(x, n + 1, 0.25 * x * x)
    x = x - phi[n] / (math.sqrt(2.0 * n) * phi[n - 1] - x * phi[n])
    x = 0.5 * (x - x[::-1])
    phi = _hermite_functions(x, n, 0.25 * x * x)
    peak = np.max(np.abs(phi), axis=0)
    phi /= peak
    norm = np.sqrt(np.einsum("bl,bl->l", phi, phi))
    phi /= norm
    log_mu = 0.25 * x * x - np.log(peak * norm)
    for arr in (x, log_mu, phi):
        arr.setflags(write=False)
    return x, log_mu, phi


def wigner_from_fock(rho: FockDensity, grid: GridSpec) -> GridField:
    """Wigner function of a number-basis density matrix on ``grid``.

    W(q, p) = (1/pi hbar) Int g_q(y) e^{2 i p y/hbar} dy with g_q(y) =
    <q - y|rho|q + y> = sum_mn rho_mn psi_m(q - y) psi_n(q + y), psi_m the
    number-state wave functions. For d = dim, g_q is e^{-y^2/hbar} times a
    polynomial of degree <= 2d - 2 in y, so it is exactly a sum of the
    Hermite functions chi_b (b < 2d - 1) of the oscillator with hbar/2, and
    its coefficients c_b(q) = Int g_q chi_b dy integrate e^{-2y^2/hbar}
    times a polynomial of degree <= 4d - 4: the Gauss–Hermite rule with
    2d - 1 nodes (exact to degree 4d - 3) gives them exactly. The Fourier
    transform maps chi_b to sqrt(pi hbar) i^b chi_b(p), so W = Re sum_b
    c_b i^b chi_b(p)/sqrt(pi hbar). Hermiticity makes c_b real for even b
    (from Re g, even in y) and imaginary for odd b (from Im g), so W is real
    by construction.

    The work is one product of a table of psi_m at q - y_l, d x N_q (2d - 1),
    with Re rho and Im rho (the symmetric nodes give psi_n(q + y_l) from the
    same table, mirrored), a sum over m, and one
    product with the (2(2d - 1) x N_p) matrix that folds the quadrature and
    the p-axis functions together. The q rows go in blocks of at most
    ``_BLOCK_ENTRIES`` table entries, so memory does not grow with the grid,
    and each product in slices that OpenBLAS runs on one thread. Every
    function table starts from a scaled exponential (see
    :func:`_hermite_functions` and :func:`_gauss_hermite`); the result is
    exact to rounding for dim <= 500 on any grid, and a larger basis raises
    :class:`ConfigError` (there the psi_m table's start underflows where
    psi_m is not yet negligible).
    """
    hbar, d = rho.hbar, rho.dim
    if d > _MAX_WIGNER_DIM:
        raise ConfigError(f"wigner_from_fock takes dim <= {_MAX_WIGNER_DIM}, "
                          f"got {d}")
    n = 2 * d - 1
    x, log_mu, v = _gauss_hermite(n)
    y = x * math.sqrt(0.5 * hbar)
    with np.errstate(over="ignore"):  # an infinite argument clips too
        u = np.clip(grid.p_axis * math.sqrt(2.0 / hbar), -_U_CLIP, _U_CLIP)
        u_q = np.clip((grid.q_axis[:, None] - y) / math.sqrt(hbar),
                      -_U_CLIP, _U_CLIP)
    # chi_b(p) up to b = 2d - 2, started up to e^700 high so that no order
    # is lost where e^{-u^2/2} alone underflows; the quadrature is folded
    # in: rows l pair with Re g at even b and (below) Im g at odd b, each b
    # with the sign i^b gives it (+, -, -, + for b = 0, 1, 2, 3 mod 4)
    shift = np.minimum(0.25 * u * u, 700.0)
    phi_p = _hermite_functions(u, n, shift) * np.exp(-shift)
    sign = np.array([1.0, -1.0, -1.0, 1.0])[np.arange(n) % 4, None]
    sv = sign * v / (math.sqrt(math.pi) * hbar)
    fold = np.concatenate([_matmul_one_thread(sv[0::2].T, phi_p[0::2]),
                           _matmul_one_thread(sv[1::2].T, phi_p[1::2])])
    right = np.concatenate([rho.matrix.real.T, rho.matrix.imag.T], axis=1)
    n_q = grid.shape[1]
    blocks = -(-n_q * d * n // _BLOCK_ENTRIES)
    rows = -(-n_q // blocks)
    out = np.empty(grid.shape)
    for start in range(0, n_q, rows):
        # sqrt(mu_l) psi_m(q - y_l); hbar^{-1/4} per factor is in the fold
        table = _hermite_functions(u_q[start:start + rows], d, 0.5 * log_mu)
        mixed = _matmul_one_thread(table.reshape(d, -1).T, right)
        # mu_l g_q(y_l) = sum_m table[m, l] (rho @ table)[m, mirror of l],
        # its real and imaginary parts along the axis c
        g = np.einsum("mil,ilcm->icl", table[..., ::-1],
                      mixed.reshape(table.shape[1:] + (2, d)))[..., ::-1]
        out[:, start:start + rows] = _matmul_one_thread(
            g.reshape(g.shape[0], -1), fold).T
    return GridField(spec=grid, values=out)


# ---------------------------------------------------------------------------
# Photon-bath cat closed form: the time at which the q = 0 Wigner section of
# an even cat under damping rate ``gamma`` and occupancy ``nbar`` (in the
# frame co-rotating with the oscillator) loses its negative fringes, which
# makes the positivity threshold observable on one line of the plane.


def _beta(gamma: float, nbar: float, t: float) -> float:
    """beta_t = 2 nbar (1 - e^{-gamma t}) + 1, the bath's width factor."""
    if not (0.0 <= gamma < math.inf and 0.0 <= nbar < math.inf):
        raise ConfigError("gamma and nbar must be finite and nonnegative")
    return 2.0 * nbar * (1.0 - math.exp(-gamma * t)) + 1.0


def cat_zero_crossing_time(gamma: float, nbar: float) -> float:
    """First t at which the cat's W_t(p, 0) loses its negative fringe minima.

    With s = e^{-gamma t} the section is a Gaussian times e^{-A} cos(k p)
    + e^{-B}, A = (zeta^2/hbar)(1 - s/beta_t) and B = (zeta^2/hbar) s/beta_t;
    the fringe-extinction condition A(t) = B(t), e^{-gamma t} = beta_t / 2,
    solved: t = ln(1 + 1/(2 nbar + 1)) / gamma. It depends only on the
    bath, not on zeta or hbar.
    """
    if not 0.0 < gamma < math.inf:
        raise ConfigError("fringe extinction requires a finite gamma > 0")
    _beta(gamma, nbar, 0.0)  # rejects a negative or non-finite nbar
    return math.log(1.0 + 1.0 / (2.0 * nbar + 1.0)) / gamma
