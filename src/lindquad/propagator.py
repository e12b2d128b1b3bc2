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

:func:`affine_flow` returns (F, o) and :func:`damping_matrix` returns M(t)
as plain arrays; they are the only routes to orbit and damping data. Both
are closed form, evaluated at one time in Python scalars from data the
system caches once: the offset o of a linear Hamiltonian term is
t phi_1(t A) J b = (c1 I + s1 B) J b, and M(t) is Re sum_r phi(x_r, t) q_r
over the projector forms of B (``damping_spectrum``), or moment series
times K, B^T K + K B, B^T K B (``moment_forms``) where |sigma^2| t^2 is
small. Both records hold each form as its (00, 01, 11) entries in Python
scalars, which the kernel unpacks by name with no conversion per call.
det M(-t) and its slope, for the positivity search, come from two scalar
products (:func:`_reversed_det`), never from an assembled M. The
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
    "evolve_chord",
    "map_state",
    "evolved_state",
    "evolve_wigner_grid",
    "chord_pde_residual",
]

# |Wt| on the dual-mesh rim / Wt(0) above which a grid is too coarse
_TAIL_RATIO = 1e-8
_EPS = float(np.finfo(float).eps)
# (w t)^2 below which series in w^2 t^2 replace divided differences of
# _phi at exponents -+ w (w = 2 sigma in M, sigma in the affine offset)
_SERIES_REACH = 1e-2
# at most this many orders of those series: (w t)^14 / 15! < 1e-26 on the reach
_SERIES_ORDERS = 7


def _finite(value: np.ndarray, what: str, t: float) -> np.ndarray:
    if not np.all(np.isfinite(value)):
        raise Unstable(f"{what} overflows at t={t!r}")
    return value


# ---------------------------------------------------------------------------
# The scalar kernel: orbit, offset and damping data at one time, in math
# scalars from the system's cached forms.


def _nan_on_overflow(width: int):
    """Decorate a kernel of ``width`` floats to give nans where math raises
    (OverflowError past e^709.78, ValueError for cos or sin of inf) and
    numpy gave inf or nan: the one place the callers' checks see overflow."""
    nans = (math.nan,) * width

    def decorate(kernel):
        def guarded(*args):
            try:
                return kernel(*args)
            except (OverflowError, ValueError):
                return nans
        return guarded
    return decorate


def _on_series(w2: float, t: float) -> bool:
    """|w^2| t^2 below the series reach, or undefined (0 times an infinite t^2)."""
    return not abs(w2) * (t * t) >= _SERIES_REACH


@_nan_on_overflow(2)
def _cosh_sinh(s2: float, t: float) -> tuple[float, float]:
    """(c, s) with R_t = exp(t B) = c I + s B.

    B = 2 J H is trace-free with B^2 = sigma^2 I = s2 I, so the exponential
    collapses to (cosh w t, sinh w t / w) (hyperbolic, w^2 = s2),
    (cos w t, sin w t / w) (elliptic, w^2 = -s2) or (1, t) (parabolic).
    """
    if s2 > 0.0:
        w = math.sqrt(s2)
        return math.cosh(w * t), math.sinh(w * t) / w
    if s2 < 0.0:
        w = math.sqrt(-s2)
        return math.cos(w * t), math.sin(w * t) / w
    return 1.0, t


def _phi(x, t: float):
    """Integral of e^{x tau} over [-t, 0]: -expm1(-x t)/x, or t where x = 0.

    For complex x, expm1(a + ib) = expm1(a) cos b - 2 sin^2(b/2)
    + i e^a sin b, numpy's complex expm1.
    """
    if x == 0:
        return t
    z = -x * t
    if isinstance(z, complex):
        half = math.sin(0.5 * z.imag)
        z = complex(math.expm1(z.real) * math.cos(z.imag) - 2.0 * half * half,
                    math.exp(z.real) * math.sin(z.imag))
    else:
        z = math.expm1(z)
    return z / -x


def _poly_exp_integrals(a: float, t: float, nmax: int) -> list:
    """[J_0, ..., J_nmax] with J_n = Integral_{-t}^{0} e^{a tau} tau^n d tau.

    J_n = (-1)^n t^{n+1} I_n(-a t) with I_n(x) = Integral_0^1 e^{x s} s^n ds,
    and I_{n-1} = (e^x - x I_n)/n. Where |a t| < 1 that recurrence runs
    down from the power series I_nmax = sum_m x^m / (m! (nmax + m + 1)),
    else up from I_0 = expm1(x)/x; each is the stable direction.
    """
    x = -a * t
    if abs(x) < 1.0:
        # the series' terms shrink like |x|^m / m!: stop once below 1e-19
        term, m, total = 1.0, 1, 1.0 / (nmax + 1)
        while abs(term := term * x / m) > 1e-19:
            total += term / (nmax + m + 1)
            m += 1
        grow, integrals = math.exp(x), [total]
        for n in range(nmax, 0, -1):
            integrals.append((grow - x * integrals[-1]) / n)
        integrals.reverse()
    else:
        grow, integrals = math.exp(x), [math.expm1(x) / x]
        for n in range(1, nmax + 1):
            integrals.append((grow - n * integrals[-1]) / x)
    return [t * (-t) ** n * value for n, value in enumerate(integrals)]


def _moment_sums(a: float, u: float, t: float) -> tuple[float, float, float]:
    """(J_0, S_1, S_2) with S_p = sum_k u^k J_{2k+p} / (2k+p)!.

    These are the integrals of e^{a tau} against 1, sinh(w tau)/w and
    (cosh(w tau) - 1)/w^2 over [-t, 0], w^2 = u, as series in u t^2. Since
    |J_n| <= |t|^{n-1} |J_1|, order k is below (|u| t^2)^k / (2k+1)! of the
    leading term; orders under 1e-19 of it are left out.
    """
    reach, orders, bound = abs(u) * (t * t), 1, 1.0
    while orders < _SERIES_ORDERS:
        bound *= reach / ((2 * orders) * (2 * orders + 1))
        if bound < 1e-19:
            break
        orders += 1
    js = [j / math.factorial(n)
          for n, j in enumerate(_poly_exp_integrals(a, t, 2 * orders))]
    odd, even, power = js[1], js[2], 1.0
    for k in range(1, orders):
        power *= u
        odd += power * js[2 * k + 1]
        even += power * js[2 * k + 2]
    return js[0], odd, even


@_nan_on_overflow(2)
def _offset_scalars(system: OpenSystem, t: float) -> tuple[float, float]:
    """(c1, s1) with Integral_0^t e^{tau A} d tau = t phi_1(t A) = c1 I + s1 B.

    A = B - alpha I and e^{tau A} = e^{-alpha tau} (c(tau) I + s(tau) B), so
    c1 and s1 are integrals of e^{-alpha tau} cosh(sigma tau) and
    e^{-alpha tau} sinh(sigma tau)/sigma: sums and divided differences of
    :func:`_phi` at alpha -+ sigma, or their series in sigma^2 t^2 where the
    divided difference would cancel.
    """
    alpha, s2 = system.alpha, system.sigma_squared
    if _on_series(s2, t):
        j0, odd, even = _moment_sums(alpha, s2, t)
        return j0 + s2 * even, -odd
    sigma = cmath.sqrt(complex(s2))
    plus, minus = _phi(alpha + sigma, t), _phi(alpha - sigma, t)
    return (0.5 * (plus + minus)).real, ((minus - plus) / (2.0 * sigma)).real


@_nan_on_overflow(3)
def _spectral_phis(x: tuple, t: float) -> tuple:
    """phi(x_r, t) at ``damping_spectrum``'s x = 2 alpha + (2 sigma, 0, -2 sigma)."""
    return tuple(_phi(xr, t) for xr in x)


def _entries(weights, forms: tuple) -> tuple[float, float, float]:
    """Entries 00, 01, 11 of Re sum_r w_r F_r, each form F_r its (00, 01, 11)."""
    (w0, w1, w2), (f0, f1, f2) = weights, forms
    return tuple((w0 * a + w1 * b + w2 * c).real for a, b, c in zip(f0, f1, f2))


@_nan_on_overflow(3)
def _damping_entries(system: OpenSystem, t: float) -> tuple[float, float, float]:
    """(m00, m01, m11) of M(t).

    Off the moment-series route, M = Re sum_r phi(x_r, t) q_r over the
    projector forms q_r of B. On it, where |2 sigma t|^2 is small and the
    projectors are ill-conditioned, M = I_cc K + I_cs (B^T K + K B)
    + I_ss B^T K B with the moment series I.
    """
    s2 = system.sigma_squared
    if _on_series(4.0 * s2, t):
        j0, i_cs, half_ss = _moment_sums(2.0 * system.alpha, 4.0 * s2, t)
        i_ss = 2.0 * half_ss
        return _entries((j0 + s2 * i_ss, i_cs, i_ss), system.moment_forms)
    x, q, _, _ = system.damping_spectrum
    return _entries(_spectral_phis(x, t), q)


@_nan_on_overflow(3)
def _reversed_det(system: OpenSystem, t: float) -> tuple[float, float, float]:
    """(det M(-t), d/dt det M(-t), round-off of det) at one time t >= 0.

    Off the moment-series route, det M(-t) = Re(e phi+ phi- + f phi0^2) with
    phi_r = phi(x_r, -t) and e, f from ``damping_spectrum``: two products
    that keep their relative precision however far apart the exponentials
    grow. On it, the series' m00 m11 - m01^2 does not cancel, and the slope
    is tr(adj M dM/dt). Overflow is left non-finite for the caller to report.
    """
    s2 = system.sigma_squared
    if _on_series(4.0 * s2, t):
        m00, m01, m11 = _damping_entries(system, -t)
        c, s = _cosh_sinh(s2, t)
        # d/dt M(-t) = -e^{2 alpha t} R_t^T K R_t
        grow = -math.exp(2.0 * system.alpha * t)
        d00, d01, d11 = _entries((grow * c * c, grow * c * s, grow * s * s),
                                 system.moment_forms)
        diag, off = m00 * m11, m01 * m01
        return (diag - off, m11 * d00 + m00 * d11 - 2.0 * m01 * d01,
                4.0 * _EPS * (abs(diag) + off))
    x, _, (e, f, e_scale, f_scale), _ = system.damping_spectrum
    phi = _spectral_phis(x, -t)
    pair, square = phi[0] * phi[2], phi[1] * phi[1]
    # d/dt phi(x, -t) = -e^{x t} = x phi - 1, times the partner in each pair
    grown = [(xr * p - 1.0) * q for xr, p, q in zip(x, phi, phi[::-1])]
    slope = e * (grown[0] + grown[2]) + f * (grown[1] + grown[1])
    return ((e * pair + f * square).real, slope.real,
            4.0 * _EPS * (e_scale * abs(pair) + f_scale * abs(square)))


def affine_flow(system: OpenSystem, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(F, o) with x(t) = F x(0) + o, the flow of xdot = (2 J H - alpha) x + J b.

    Closed form in every regime: F = e^{-alpha t} R_t, and with a linear
    Hamiltonian term o = t phi_1(t A) J b = (c1 I + s1 B) J b, see
    :func:`_offset_scalars` (``oracle.affine_flow_expm`` is the matrix
    exponential audit). Valid for t of either sign; raises :class:`Unstable`
    when the flow overflows.
    """
    t = float(t)
    drive = system.drift_offset
    c, s = _cosh_sinh(system.sigma_squared, t)
    with np.errstate(over="ignore", invalid="ignore"):
        linear = np.exp(-system.alpha * t) * (c * np.eye(2) + s * system.generator)
        if np.any(drive != 0.0):
            c1, s1 = _offset_scalars(system, t)
            offset = c1 * drive + s1 * (system.generator @ drive)
        else:
            offset = np.zeros(2)
    _finite(linear, "affine flow", t)
    return linear, _finite(offset, "affine flow", t)


def damping_matrix(system: OpenSystem, t: float) -> np.ndarray:
    """M(t) = Integral_{-t}^{0} e^{2 alpha tau} R_tau^T K R_tau d tau, closed form.

    Positive semidefinite for t >= 0, negative semidefinite for t <= 0,
    M(0) = 0. Three exponentials times the projector forms of B, with moment
    series where |sigma^2| t^2 is small and the projectors are
    ill-conditioned. Raises :class:`ConfigError` for a time that is not
    finite and :class:`Unstable` when the exponentials overflow.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ConfigError(f"damping matrix needs finite times, got {t!r}")
    if not system.k_matrix.any():
        return np.zeros((2, 2))
    m00, m01, m11 = _damping_entries(system, t)
    return _finite(np.array([[m00, m01], [m01, m11]]), "damping matrix", t)


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
    t = float(t)
    xi = np.asarray(xi, dtype=float)
    reach = abs(4.0 * system.sigma_squared) * t * t
    if not (_SERIES_REACH <= reach < math.inf and system.k_matrix.any()):
        return np.einsum("...i,ij,...j->...", xi, damping_matrix(system, t), xi)
    x, _, _, plus = system.damping_spectrum
    phi = _finite(_spectral_phis(x, t), "damping matrix", t)
    with np.errstate(over="ignore", invalid="ignore"):
        up = xi @ plus.T
        down, k = xi - up, system.k_matrix
        forms = (up @ k * up, 2.0 * up @ k * down, down @ k * down)
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
