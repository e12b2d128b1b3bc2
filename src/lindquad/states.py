"""Initial states in the chord representation, held as sums of Gaussians.

A chord function here is the symplectic Fourier transform of the Wigner
function,

    Wt(xi) = (1/2 pi hbar) Integral e^{+(i/hbar) xi ^ x} W(x) dx,

so Wt(0) = 1/(2 pi hbar) encodes unit trace and Wt(-xi) = conj(Wt(xi))
encodes hermiticity. Every built-in state (coherent, Gaussian, cat) is a
finite sum of complex Gaussians,

    Wt(xi) = sum_k w_k exp(-xi . A_k xi / 2 + i xi . b_k),

and the exact evolution maps that family to itself. A :class:`ChordState`
is therefore plain term data, and its Wigner function and trace-square
integrals are closed-form Gaussian integrals over the terms.

The cat-state helpers also expose the closed-form q=0 Wigner section of the
photon-bath evolution (damping rate ``gamma``, occupancy ``nbar``), including
the fringe wavenumber and the location of the fringe zero — the quantities
that make the positivity threshold observable on a single line of the plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, NotPositiveDefinite, Unstable
from .model import J, _as_vector, _inv2, _require_keys, finite_array

__all__ = [
    "ChordState",
    "CatParameters",
    "coherent_state",
    "gaussian_state",
    "cat_state",
    "cat_wigner_line",
    "cat_fringe_wavenumber",
    "cat_fringe_zero",
    "cat_zero_crossing_time",
    "state_from_dict",
]


def _quadratic(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v . A v for a symmetric 2x2 ``a``, batched over the leading axes of ``v``."""
    return (a[0, 0] * v[..., 0] ** 2 + 2.0 * a[0, 1] * v[..., 0] * v[..., 1]
            + a[1, 1] * v[..., 1] ** 2)


@dataclass(frozen=True, eq=False)
class ChordState:
    """Chord function Wt(xi) = sum_k w_k exp(-xi . A_k xi / 2 + i xi . b_k).

    ``weights`` (n,) complex w_k, ``forms`` (n, 2, 2) real positive definite
    A_k, ``shifts`` (n, 2) complex b_k. ``reliability`` (used by
    reconstruction) maps chords to booleans; None means everywhere reliable.
    """

    weights: NDArray[np.complex128]
    forms: NDArray[np.float64]
    shifts: NDArray[np.complex128]
    label: str
    pure: bool
    hbar: float = 1.0
    reliability: Optional[Callable[[NDArray[np.float64]], np.ndarray]] = None

    def __post_init__(self) -> None:
        weights = np.asarray(self.weights, dtype=complex)
        forms = np.asarray(self.forms, dtype=float)
        shifts = np.asarray(self.shifts, dtype=complex)
        n = weights.shape[0] if weights.ndim == 1 else -1
        if forms.shape != (n, 2, 2) or shifts.shape != (n, 2):
            raise ConfigError("a chord state needs (n,) weights, (n, 2, 2) forms "
                              "and (n, 2) shifts")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "forms", 0.5 * (forms + forms.transpose(0, 2, 1)))
        object.__setattr__(self, "shifts", shifts)

    def _log_terms(self):
        # log weights: a cat lobe's e^{-zeta^2/hbar} offsets an e^{+zeta^2/hbar}
        return zip(np.log(self.weights), self.forms, self.shifts)

    def __call__(self, xi) -> np.ndarray:
        """Wt at chords ``xi`` of shape (..., 2), complex."""
        xi = np.asarray(xi, dtype=float)
        out = np.zeros(xi.shape[:-1], dtype=complex)
        for log_w, a, b in self._log_terms():
            out += np.exp(log_w - 0.5 * _quadratic(a, xi) + 1j * (xi @ b))
        return out

    def wigner(self, x) -> np.ndarray:
        """W(x) = (1/hbar) sum_k w_k det(A_k)^{-1/2} exp(-beta . A_k^{-1} beta / 2).

        Here beta = b_k - (x_q, -x_p)/hbar, for phase-space points ``x`` of
        shape (..., 2). Raises :class:`Unstable` when a value is not finite
        or max|Im W| exceeds 1e-9 max|W| (a non-hermitian chord function).
        """
        x = np.asarray(x, dtype=float)
        dual = (x @ J) / self.hbar  # x @ J = (x_q, -x_p)
        out = np.zeros(x.shape[:-1], dtype=complex)
        for log_w, a, b in self._log_terms():
            out += np.exp(log_w - 0.5 * (np.log(np.linalg.det(a))
                                         + _quadratic(_inv2(a), b - dual)))
        out /= self.hbar
        imag = float(np.max(np.abs(out.imag), initial=0.0))
        if (not np.all(np.isfinite(out))
                or imag > 1e-9 * float(np.max(np.abs(out), initial=0.0))):
            raise Unstable(f"Wigner function of '{self.label}' is not finite or "
                           f"not real: max|Im W| = {imag:.3e}")
        return np.ascontiguousarray(out.real)

    def moments(self) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """Wigner mean hbar (Re b) J^T and covariance hbar^2 J^T A J of a
        one-term (Gaussian) state; :class:`ConfigError` for any other."""
        if self.weights.shape != (1,):
            raise ConfigError(
                "langevin sampling needs a gaussian-family initial state "
                "(type 'coherent' or 'gaussian')")
        return (self.hbar * (self.shifts[0].real @ J.T),
                self.hbar ** 2 * J.T @ self.forms[0] @ J)

    def norm_squared(self, extra: np.ndarray | float = 0.0) -> float:
        """2 pi hbar Integral |Wt(xi)|^2 exp(-xi . E xi / 2) d xi, E = ``extra``.

        Tr rho^2 for E = 0 (the default). Over pairs of terms this is
        4 pi^2 hbar Re sum_kl w_k conj(w_l) det(S)^{-1/2} exp(-beta . S^{-1} beta / 2)
        with S = A_k + A_l + E and beta = b_k - conj(b_l). Raises
        :class:`Unstable` when the sum is not finite.
        """
        terms = list(self._log_terms())
        total = 0j
        for log_wk, ak, bk in terms:
            for log_wl, al, bl in terms:
                s = ak + al + extra
                total += np.exp(log_wk + np.conj(log_wl) - 0.5 * (
                    np.log(np.linalg.det(s)) + _quadratic(_inv2(s), bk - np.conj(bl))))
        value = 4.0 * math.pi ** 2 * self.hbar * float(total.real)
        if not math.isfinite(value):
            raise Unstable(f"trace-square integral of '{self.label}' is not finite")
        return value


def _validate_builtin(state: ChordState) -> ChordState:
    peak = 1.0 / (2.0 * math.pi * state.hbar)
    at_zero = complex(np.sum(state.weights))
    if abs(at_zero - peak) > 1e-12 * peak:
        raise ConfigError(
            f"state '{state.label}' violates Wt(0) = 1/(2 pi hbar): {at_zero}")
    probes = np.array([[0.3, -0.7], [1.1, 0.4], [-0.2, 0.9]]) * math.sqrt(state.hbar)
    if np.max(np.abs(np.conj(state(probes)) - state(-probes))) > 1e-12 * peak:
        raise ConfigError(f"state '{state.label}' violates Wt(-xi) = conj(Wt(xi))")
    if state.pure:
        norm2 = state.norm_squared()
        if abs(norm2 - 1.0) > 1e-6:
            raise ConfigError(
                f"pure state '{state.label}' has 2 pi hbar |Wt|^2 integral "
                f"{norm2!r}, expected 1")
    return state


def coherent_state(center, hbar: float = 1.0) -> ChordState:
    """Coherent state displaced to ``center`` = (p, q).

    Chord function (1/2 pi hbar) exp(-xi^2/4 hbar) exp((i/hbar) xi ^ center);
    Wigner function is the round Gaussian of width sqrt(hbar/2) per axis.
    """
    c = _as_vector(center, "center")
    return _validate_builtin(ChordState(
        weights=[1.0 / (2.0 * math.pi * hbar)], forms=[np.eye(2) / (2.0 * hbar)],
        shifts=[(c @ J) / hbar], label=f"coherent@({c[0]:g},{c[1]:g})",
        pure=True, hbar=hbar))


def gaussian_state(mean, cov, hbar: float = 1.0) -> ChordState:
    """General Gaussian state with Wigner mean and covariance as given.

    Pure iff det cov = (hbar/2)^2; purity is (hbar/2)/sqrt(det cov).
    """
    mean = _as_vector(mean, "mean")
    cov = finite_array(cov, (2, 2), "cov")
    if float(np.max(np.abs(cov - cov.T))) > 1e-12 * max(1.0, float(np.max(np.abs(cov)))):
        raise NotPositiveDefinite("covariance must be symmetric")
    cov = 0.5 * (cov + cov.T)
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(f"covariance is not positive definite: {cov.tolist()}")
    det = float(np.linalg.det(cov))
    pure = abs(det - (hbar / 2.0) ** 2) <= 1e-9 * (hbar / 2.0) ** 2
    # chord form J cov J^T / hbar^2, so the Wigner transform has covariance cov
    return _validate_builtin(ChordState(
        weights=[1.0 / (2.0 * math.pi * hbar)], forms=[J @ cov @ J.T / hbar ** 2],
        shifts=[(mean @ J) / hbar], label="gaussian", pure=pure, hbar=hbar))


@dataclass(frozen=True)
class CatParameters:
    """Even cat along q: (|zeta> + |-zeta>)/sqrt(2)-type superposition.

    ``zeta`` is the half-separation of the two Gaussian components on the
    q axis; ``gamma`` and ``nbar`` parameterize the photon bath used by the
    closed-form evolution helpers below.
    """

    zeta: float
    gamma: float = 1.0
    nbar: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.zeta < math.inf:  # false for NaN too
            raise ConfigError("zeta must be finite and nonnegative")
        if not (0.0 <= self.gamma < math.inf and 0.0 <= self.nbar < math.inf):
            raise ConfigError("gamma and nbar must be finite and nonnegative")

    def normalization(self, hbar: float = 1.0) -> float:
        """N = 1/(1 + exp(-zeta^2/hbar)), in (1/2, 1] — the overlap norm."""
        return 1.0 / (1.0 + math.exp(-self.zeta ** 2 / hbar))


def cat_state(params: CatParameters, hbar: float = 1.0) -> ChordState:
    """Cat state chord function: central fringe lobe plus lobes at ±2 x_zeta.

    The two displaced-Gaussian components at x = (0, ±zeta) interfere; in the
    chord plane that appears as an oscillating central lobe 2 cos(zeta xi_p /
    hbar) e^{-xi^2/4 hbar}, written as two terms with shifts ±(zeta/hbar, 0),
    plus two real coherence lobes at xi = (0, ±2 zeta): the same Gaussian
    with shifts ∓i(0, zeta/hbar) and weight times e^{-zeta^2/hbar}. The
    normalization keeps Wt(0) = 1/(2 pi hbar) exactly.
    """
    z = params.zeta / hbar
    central = 0.5 * params.normalization(hbar) / (2.0 * math.pi * hbar)
    lobe = central * math.exp(-params.zeta * z)
    return _validate_builtin(ChordState(
        weights=[central, central, lobe, lobe],
        forms=np.broadcast_to(np.eye(2) / (2.0 * hbar), (4, 2, 2)),
        shifts=[(z, 0.0), (-z, 0.0), (0.0, -1j * z), (0.0, 1j * z)],
        label=f"cat(zeta={params.zeta:g})", pure=True, hbar=hbar))


def _beta(params: CatParameters, t: float) -> float:
    return 2.0 * params.nbar * (1.0 - math.exp(-params.gamma * t)) + 1.0


def cat_wigner_line(params: CatParameters, t: float, p, hbar: float = 1.0):
    """Closed-form W_t(p, q=0) of the cat under the photon bath.

    With s = e^{-gamma t} and beta_t = 2 nbar (1 - s) + 1:

        W_t(p, 0) = (2 NN / pi hbar beta) e^{-p^2 / hbar beta}
                    [ e^{-A} cos(k p) + e^{-B} ],
        A = (zeta^2/hbar)(1 - s/beta),  B = (zeta^2/hbar) s/beta,
        k = 2 sqrt(s) zeta / (hbar beta),  NN = normalization/2.

    The fringe envelope e^{-A} and the Gaussian-overlap term e^{-B} swap
    dominance exactly at the positivity time (A = B there, independent of
    zeta); the fringe wavenumber k shrinks as the two components merge.
    """
    if t < 0:
        raise ConfigError("t must be nonnegative")
    p = np.asarray(p, dtype=float)
    s = math.exp(-params.gamma * t)
    beta = _beta(params, t)
    z2 = params.zeta ** 2 / hbar
    a_exp = z2 * (1.0 - s / beta)
    b_exp = z2 * s / beta
    k = cat_fringe_wavenumber(params, t, hbar)
    scriptn = 0.5 * params.normalization(hbar)
    pref = 2.0 * scriptn / (math.pi * hbar * beta)
    return pref * np.exp(-p ** 2 / (hbar * beta)) * (
        math.exp(-a_exp) * np.cos(k * p) + math.exp(-b_exp))


def cat_fringe_wavenumber(params: CatParameters, t: float, hbar: float = 1.0) -> float:
    """k(t) = 2 e^{-gamma t/2} zeta / (hbar beta_t), the q=0 fringe frequency."""
    s = math.exp(-params.gamma * t)
    return 2.0 * math.sqrt(s) * params.zeta / (hbar * _beta(params, t))


def cat_fringe_zero(params: CatParameters, t: float, hbar: float = 1.0) -> Optional[float]:
    """Smallest p > 0 with W_t(p, 0) = 0, or None once fringes cannot win.

    Solves cos(k p) = -e^{A-B}; a zero exists iff e^{A-B} <= 1, i.e. up to
    (and including) the positivity time, where the zero sits at p = pi/k.
    """
    s = math.exp(-params.gamma * t)
    beta = _beta(params, t)
    z2 = params.zeta ** 2 / hbar
    contrast = math.exp(z2 * (1.0 - 2.0 * s / beta))
    if contrast > 1.0 or params.zeta == 0.0:
        return None
    k = cat_fringe_wavenumber(params, t, hbar)
    return math.acos(-contrast) / k


def cat_zero_crossing_time(params: CatParameters, hbar: float = 1.0) -> float:
    """First t at which W_t(p, 0) loses its negative fringe minima.

    Bisects the fringe-extinction condition A(t) = B(t) from
    :func:`cat_wigner_line`; the result does not depend on zeta (or hbar) —
    only on the bath parameters.
    """
    if params.gamma <= 0:
        raise ConfigError("fringe extinction requires gamma > 0")

    def contrast(t: float) -> float:
        s = math.exp(-params.gamma * t)
        return 1.0 - 2.0 * s / _beta(params, t)

    lo, hi = 0.0, 1.0 / params.gamma
    while contrast(hi) < 0.0:
        hi *= 2.0
        if hi > 1e6 / params.gamma:
            raise ConfigError("fringe extinction not reached within 1e6/gamma")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if contrast(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


def state_from_dict(data: dict, hbar: float = 1.0) -> ChordState:
    """Parse a JSON state descriptor.

    ``{"type": "coherent", "center": [p, q]}``, ``{"type": "cat", "zeta": z}``
    or ``{"type": "gaussian", "mean": [p, q], "cov": [[..], [..]]}``.
    """
    if not isinstance(data, dict):
        raise ConfigError("state descriptor must be a JSON object")
    kind = data.get("type")
    if kind == "coherent":
        _require_keys(data, {"type", "center"}, set(), "coherent state")
        return coherent_state(data.get("center", (0.0, 0.0)), hbar=hbar)
    if kind == "cat":
        _require_keys(data, {"type", "zeta"}, {"zeta"}, "cat state")
        zeta = float(finite_array(data["zeta"], (), "cat zeta"))
        return cat_state(CatParameters(zeta=zeta), hbar=hbar)
    if kind == "gaussian":
        _require_keys(data, {"type", "mean", "cov"}, {"cov"}, "gaussian state")
        return gaussian_state(data.get("mean", (0.0, 0.0)), data["cov"], hbar=hbar)
    raise ConfigError(f"unknown state type: {kind!r}")
