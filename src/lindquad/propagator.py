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

:func:`affine_flow` returns (F, o) and :func:`damping_matrix` (or
:func:`damping_matrices` for many times) returns M(t) as a plain array;
they are the only routes to orbit and damping data. Both are closed form,
from scalars and matrices the system caches once: the offset o of a linear
Hamiltonian term is t phi_1(t A) J b = (c1 I + s1 B) J b, and M(t) is
Re sum_r phi(x_r, t) q_r over the projector forms of B (``damping_spectrum``),
or moment series times K, B^T K + K B, B^T K B (``moment_forms``) where
|sigma^2| t^2 is small. det M(-t) and its slope, for the positivity search,
come from two scalar products per time, never from an assembled M. The
adaptive quadrature of the same integral and the matrix exponential of the
affine flow are audits in ``oracle``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import ConfigError, GridTooCoarse, Unstable
from .grid import GridField, GridSpec
from .model import J, OpenSystem
from .states import ChordState

__all__ = [
    "affine_flow",
    "damping_matrix",
    "damping_matrices",
    "evolve_chord",
    "map_state",
    "evolved_state",
    "evolve_wigner_grid",
    "chord_pde_residual",
]

# |Wt| on the dual-mesh rim / Wt(0) above which a grid is too coarse
_TAIL_RATIO = 1e-8
_EPS = float(np.finfo(float).eps)


def _cosh_sinh(s2: float, t):
    """(c, s) with R_t = exp(t B) = c I + s B, elementwise in ``t``.

    B = 2 J H is trace-free with B^2 = sigma^2 I = s2 I, so the exponential
    collapses to (cosh w t, sinh w t / w) (hyperbolic, w^2 = s2),
    (cos w t, sin w t / w) (elliptic, w^2 = -s2) or (1, t) (parabolic).
    Overflow shows as non-finite values.
    """
    if s2 > 0.0:
        w = math.sqrt(s2)
        return np.cosh(w * t), np.sinh(w * t) / w
    if s2 < 0.0:
        w = math.sqrt(-s2)
        return np.cos(w * t), np.sin(w * t) / w
    return np.ones_like(t), t


def _finite(value: np.ndarray, what: str, t: float) -> np.ndarray:
    if not np.all(np.isfinite(value)):
        raise Unstable(f"{what} overflows at t={t!r}")
    return value


def _offset_scalars(system: OpenSystem, t: float) -> tuple[float, float]:
    """(c1, s1) with Integral_0^t e^{tau A} d tau = t phi_1(t A) = c1 I + s1 B.

    A = B - alpha I and e^{tau A} = e^{-alpha tau} (c(tau) I + s(tau) B), so
    c1 and s1 are integrals of e^{-alpha tau} cosh(sigma tau) and
    e^{-alpha tau} sinh(sigma tau)/sigma: sums and divided differences of
    :func:`_phis` at alpha -+ sigma, or their series in sigma^2 t^2 where the
    divided difference would cancel.
    """
    alpha, s2 = system.alpha, system.sigma_squared
    if abs(s2) * t * t < _SERIES_REACH:
        j0, odd, even = _moment_sums(alpha, s2, np.array([float(t)]))
        return float(j0[0] + s2 * even[0]), float(-odd[0])
    sigma = cmath.sqrt(complex(s2))
    plus, minus = _phis(np.array([alpha + sigma, alpha - sigma]), t)
    return (0.5 * (plus + minus)).real, ((minus - plus) / (2.0 * sigma)).real


def affine_flow(system: OpenSystem, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(F, o) with x(t) = F x(0) + o, the flow of xdot = (2 J H - alpha) x + J b.

    Closed form in every regime: F = e^{-alpha t} R_t, and with a linear
    Hamiltonian term o = t phi_1(t A) J b = (c1 I + s1 B) J b, see
    :func:`_offset_scalars` (``oracle.affine_flow_expm`` is the matrix
    exponential audit). Valid for t of either sign; raises :class:`Unstable`
    when the flow overflows.
    """
    drive = system.drift_offset
    with np.errstate(over="ignore", invalid="ignore"):
        c, s = _cosh_sinh(system.sigma_squared, t)
        linear = np.exp(-system.alpha * t) * (c * np.eye(2) + s * system.generator)
        if np.any(drive != 0.0):
            c1, s1 = _offset_scalars(system, t)
            offset = c1 * drive + s1 * (system.generator @ drive)
        else:
            offset = np.zeros(2)
    _finite(linear, "affine flow", t)
    return linear, _finite(offset, "affine flow", t)


# ---------------------------------------------------------------------------
# The damping kernel: M and det M(-t) at an array of times from the system's
# cached forms. Overflow shows as non-finite entries here and is reported by
# the callers.

# (w t)^2 below which series in w^2 t^2 replace divided differences of
# _phis at exponents -+ w (w = 2 sigma in M, sigma in the affine offset)
_SERIES_REACH = 1e-2
# at most this many orders of those series: (w t)^14 / 15! < 1e-26 on the reach
_SERIES_ORDERS = 7
_FACTORIALS = np.array([float(math.factorial(n)) for n in range(2 * _SERIES_ORDERS + 1)])
# _poly_exp_integrals: row n of _RATIOS[m] is (n + m) / (m (n + m + 1));
# its series needs m <= 21 for |a t| < 1
_N = np.arange(2 * _SERIES_ORDERS + 1.0)[:, None]
_RATIOS = [None] + [(_N + m) / (m * (_N + m + 1)) for m in range(1, 40)]


def _phis(x, t):
    """Integral of e^{x tau} over [-t, 0], -expm1(-x t)/x or t where x = 0,
    broadcast over the arrays ``x`` and ``t``."""
    still = x == 0
    if np.count_nonzero(still):
        return np.where(still, t, np.expm1(-x * t) / np.where(still, -1.0, -x))
    return np.expm1(-x * t) / -x


def _poly_exp_integrals(a: float, t: np.ndarray, nmax: int) -> np.ndarray:
    """J_n = Integral_{-t}^{0} e^{a tau} tau^n d tau for n = 0..nmax, shape (nmax + 1, T).

    A power series in a t where |a t| < 1, else the recurrence
    J_n = -e^{-a t} (-t)^n / a - (n / a) J_{n-1}.
    """
    js = np.empty((nmax + 1, t.size))
    near = np.abs(a * t) < 1.0
    if near.any():
        tn, x = t[near], -a * t[near]
        n = _N[:nmax + 1]
        # J_n = (-1)^n t^{n+1} sum_m (-a t)^m / (m! (n + m + 1)); the terms
        # shrink like |a t|^m / m!, so stop once that is below 1e-19
        term = -((-tn) ** (n + 1)) / (n + 1)
        total, reach, m, bound = term, float(np.max(np.abs(x))), 1, 1.0
        while (bound := bound * reach / m) > 1e-19:
            term = term * (x * _RATIOS[m][:nmax + 1])
            total = total + term
            m += 1
        js[:, near] = total
    if not near.all():
        tf = t[~near]
        rec = np.empty((nmax + 1, tf.size))
        decay, power = np.exp(-a * tf), np.ones_like(tf)
        rec[0] = -np.expm1(-a * tf) / a
        for k in range(1, nmax + 1):
            power = power * -tf
            rec[k] = -decay * power / a - (k / a) * rec[k - 1]
        js[:, ~near] = rec
    return js


def _moment_sums(a: float, u: float, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """(J_0, S_1, S_2) with S_p = sum_k u^k J_{2k+p} / (2k+p)!.

    These are the integrals of e^{a tau} against 1, sinh(w tau)/w and
    (cosh(w tau) - 1)/w^2 over [-t, 0], w^2 = u, as series in u t^2. Since
    |J_n| <= |t|^{n-1} |J_1|, order k is below (|u| t^2)^k / (2k+1)! of the
    leading term; orders under 1e-19 of it are left out. They are summed from
    the lowest, so the orders a longer batch keeps add nothing to a time
    that needs fewer.
    """
    reach, orders, bound = abs(u) * float(np.max(t * t, initial=0.0)), 1, 1.0
    while orders < _SERIES_ORDERS:
        bound *= reach / ((2 * orders) * (2 * orders + 1))
        if bound < 1e-19:
            break
        orders += 1
    js = _poly_exp_integrals(a, t, 2 * orders) / _FACTORIALS[:2 * orders + 1, None]
    odd, even, power = js[1], js[2], 1.0
    for k in range(1, orders):
        power *= u
        odd = odd + power * js[2 * k + 1]
        even = even + power * js[2 * k + 2]
    return js[0], odd, even


def _moment_route(system: OpenSystem, t: np.ndarray) -> np.ndarray:
    """M = I_cc K + I_cs (B^T K + K B) + I_ss B^T K B from the moment series."""
    s2 = system.sigma_squared
    j0, i_cs, half_ss = _moment_sums(2.0 * system.alpha, 4.0 * s2, t)
    i_ss = 2.0 * half_ss
    k, sym, bkb = system.moment_forms
    return ((j0 + s2 * i_ss)[:, None, None] * k + i_cs[:, None, None] * sym
            + i_ss[:, None, None] * bkb)


def _eigen_route(system: OpenSystem, t: np.ndarray) -> np.ndarray:
    """M = Re sum_r phi(x_r, t) q_r from the spectral projectors of B."""
    x, q, _ = system.damping_spectrum
    phi = _phis(x[:, None], t)[:, :, None, None]
    return (phi[0] * q[0] + phi[1] * q[1] + phi[2] * q[2]).real


def _by_route(system: OpenSystem, t: np.ndarray, near_route, far_route) -> np.ndarray:
    """``near_route`` at the times ``t`` where |2 sigma t|^2 is small and the
    projectors of B ill-conditioned, ``far_route`` elsewhere, stacked on axis 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        near = abs(4.0 * system.sigma_squared) * (t * t) < _SERIES_REACH
        count = np.count_nonzero(near)
        if count == t.size:
            return near_route(system, t)
        if not count:
            return far_route(system, t)
        first = near_route(system, t[near])
        out = np.empty((t.size,) + first.shape[1:])
        out[near], out[~near] = first, far_route(system, t[~near])
        return out


def _moment_dets(system: OpenSystem, t: np.ndarray) -> np.ndarray:
    """(det, slope, round-off) of M(-t) from the moment series, shape (T, 3)."""
    m = _moment_route(system, -t)
    c, s = _cosh_sinh(system.sigma_squared, t)
    # d/dt M(-t) = -e^{2 alpha t} R_t^T K R_t, entries (00, 01, 10, 11)
    dm = (np.array([c * c, c * s, s * s]).T @ system.moment_forms.reshape(3, 4)
          * -np.exp(2.0 * system.alpha * t)[:, None])
    m00, m01, m11 = m[:, 0, 0], m[:, 0, 1], m[:, 1, 1]
    diag, off = m00 * m11, m01 * m01
    slope = m11 * dm[:, 0] + m00 * dm[:, 3] - 2.0 * m01 * dm[:, 1]
    return np.array([diag - off, slope, 4.0 * _EPS * (np.abs(diag) + off)]).T


def _spectral_dets(system: OpenSystem, t: np.ndarray) -> np.ndarray:
    """(det, slope, round-off) of M(-t) from the cached det_form, shape (T, 3)."""
    x, _, (weights, scales) = system.damping_spectrum
    x = x[:, None]
    phi = _phis(x, -t)
    pairs = phi[:2] * phi[:0:-1]  # phi+ phi-, phi0^2
    # d/dt phi(x, -t) = -e^{x t} = x phi - 1, times the partner in each pair
    grown = (x * phi - 1.0) * phi[::-1]
    slope = np.dot(weights, (grown + grown[::-1])[:2]).real
    return np.array([np.dot(weights, pairs).real, slope,
                     4.0 * _EPS * np.dot(scales, np.abs(pairs))]).T


def _reversed_dets(system: OpenSystem, t: np.ndarray) -> np.ndarray:
    """(det M(-t), d/dt det M(-t), round-off of det) at the times t >= 0, shape (T, 3).

    Off the moment-series route, det M(-t) = Re(e phi+ phi- + f phi0^2) with
    phi_r = phi(x_r, -t) and e, f from ``damping_spectrum``: two products
    that keep their relative precision however far apart the exponentials
    grow. On it, the series' m00 m11 - m01^2 does not cancel, and the slope
    is tr(adj M dM/dt). Overflow is left non-finite for the caller to report.
    """
    return _by_route(system, t, _moment_dets, _spectral_dets)


def damping_matrices(system: OpenSystem, times) -> np.ndarray:
    """M(t) at every time in ``times``, shape (T, 2, 2); see :func:`damping_matrix`.

    One batched evaluation of the system's cached ``moment_forms`` and
    ``damping_spectrum``; entry i equals ``damping_matrix(system, times[i])``
    bit for bit. Raises :class:`Unstable` naming the first time whose
    exponentials overflow.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1:
        raise ConfigError(f"damping matrices need a list of times, got shape {t.shape}")
    if not np.isfinite(t).all():
        raise ConfigError(f"damping matrix needs finite times, got {t.tolist()!r}")
    if not (system.k_matrix.any() and t.size):
        return np.zeros((t.size, 2, 2))
    m = _by_route(system, t, _moment_route, _eigen_route)
    finite = np.isfinite(m).all(axis=(1, 2))
    if not finite.all():
        raise Unstable(f"damping matrix overflows at t={float(t[~finite][0])!r}")
    return m


def damping_matrix(system: OpenSystem, t: float) -> np.ndarray:
    """M(t) = Integral_{-t}^{0} e^{2 alpha tau} R_tau^T K R_tau d tau, closed form.

    Positive semidefinite for t >= 0, negative semidefinite for t <= 0,
    M(0) = 0. The batch of one of :func:`damping_matrices`: three
    exponentials times the projector forms of B, with moment series where
    |sigma^2| t^2 is small and the projectors are ill-conditioned. Raises
    :class:`Unstable` when the exponentials overflow.
    """
    return damping_matrices(system, [t])[0]


def _chord_exponent(system: OpenSystem, t: float, xi) -> np.ndarray:
    """xi . M(t) xi at the chords ``xi`` of shape (..., 2).

    Off the moment-series route this is Re sum_r phi(x_r, t) xi . q_r xi over
    ``damping_spectrum``'s exponents x_r, with the forms taken at the
    projected chords: (P+ xi) . K (P+ xi), 2 (P+ xi) . K (P- xi) and
    (P- xi) . K (P- xi). A chord along P- then meets no e^{x+ t}, which a
    dense M, or q+ in a sheared frame, spreads over entries that cancel. On
    the route, the dense :func:`damping_matrix`, which also refuses a time
    that is not finite. Raises :class:`Unstable` when the exponentials
    overflow.
    """
    xi = np.asarray(xi, dtype=float)
    reach = abs(4.0 * system.sigma_squared) * t * t
    if not (_SERIES_REACH <= reach < math.inf and system.k_matrix.any()):
        return np.einsum("...i,ij,...j->...", xi, damping_matrix(system, t), xi)
    with np.errstate(over="ignore", invalid="ignore"):
        up = xi @ system.projector[1].T
        down, k = xi - up, system.k_matrix
        forms = (up @ k * up, 2.0 * up @ k * down, down @ k * down)
        phi = _finite(_phis(system.damping_spectrum[0], float(t)), "damping matrix", t)
    return sum(p * np.sum(f, axis=-1) for p, f in zip(phi, forms)).real


def _exact_step(system: OpenSystem, t: float) -> tuple[np.ndarray, ...]:
    """(F, o, M(t)) over t; M first, so that it reports an overflow of both."""
    m = damping_matrix(system, t)
    return (*affine_flow(system, t), m)


def map_state(system: OpenSystem, state: ChordState, t: float, *,
              label: str) -> ChordState:
    """Carry ``state`` along the affine flow over t (either sign).

    With (F, o) from :func:`affine_flow` and the chord pull-back
    back = -J F^T J: the shared form A -> back^T A back + M(t)/hbar, each
    shift b -> back^T b + (o J)/hbar, weights unchanged. The map at -t
    inverts the map at t, since M(-t) = -back^T M(t) back with back at -t.
    """
    if abs(state.hbar - system.hbar) > 1e-12 * system.hbar:
        raise ConfigError(
            f"state hbar {state.hbar} does not match system hbar {system.hbar}")
    linear, offset, m = _exact_step(system, t)
    back = -J @ linear.T @ J
    return ChordState(log_weights=state.log_weights,
                      form=back.T @ state.form @ back + m / system.hbar,
                      shifts=state.shifts @ back + (offset @ J) / system.hbar,
                      label=label, pure=state.pure and t == 0.0,
                      hbar=system.hbar)


def evolved_state(system: OpenSystem, state: ChordState, t: float) -> ChordState:
    """The evolved chord function, :func:`map_state` at t >= 0."""
    if t < 0:
        raise ConfigError("evolved_state requires t >= 0")
    return map_state(system, state, t, label=f"{state.label}@t={t:g}")


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
    return GridField(spec=grid, values=evolved.wigner_grid(grid))


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
