"""Open-system data model on the phase plane x = (p, q).

A system is a real symmetric 2x2 Hamiltonian matrix H (quadratic form
H(x) = x.Hx, plus an optional linear term b.x) together with a set of
environment channels, each a complex linear form L_j(x) = l'_j.x + i l''_j.x
encoded by two real 2-vectors. Everything downstream — flows, damping matrix,
positivity threshold, entropy — is a deterministic function of these fields,
hbar, and time.

Derived scalars, both properties of :class:`OpenSystem`:

* the dissipation coefficient ``alpha = sum_j (J l''_j) . l'_j`` (positive
  means friction: phase-space points contract),
* ``sigma = 2 sqrt(-det H)`` — real for hyperbolic dynamics (a stretching
  rate), imaginary for elliptic (rotation frequency), zero for parabolic,

with ``J = [[0, -1], [1, 0]]`` the matrix of the wedge product,
``xi ^ x = (J xi) . x``.

:class:`OpenSystem` caches ``B = 2 J H`` (``B^2 = sigma^2 I``), ``K`` and the
constant, exactly symmetric forms of the damping matrix M(t), so M is
symmetric too: ``moment_forms`` (``K, B^T K + K B, B^T K B``) and, for
sigma != 0, ``damping_spectrum`` (the forms ``P_i^T K P_j`` of the spectral
projectors ``P+- = (I +- B/sigma)/2`` of B, their exponents and the two
coefficients that give det M from products of scalars). numpy builds them
once per system, without warnings where they overflow (the kernel reports
that), and each form is kept as its (00, 01, 11) entries in Python scalars,
the layout the propagator reads at one time per call. It also holds the
Wigner transport's data, used by the Langevin sampler and the Fokker–Planck
oracle alike: the drift ``2 J H - alpha I`` with offset ``J b``, the noise
vectors ``sqrt(hbar) J l`` and the diffusion ``D = (hbar/2) J K J^T``.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, NonSymplectic, NotPositiveDefinite

__all__ = [
    "J",
    "HamiltonianForm",
    "LindbladChannel",
    "OpenSystem",
    "Regime",
    "classify",
    "symplectic_transform",
    "photon_bath",
    "characteristic_timescale",
    "system_from_dict",
    "system_to_dict",
]

J = np.array([[0.0, -1.0], [1.0, 0.0]])
J.setflags(write=False)

_SYM_RTOL = 1e-12


def finite_array(value, shape: tuple[int, ...], name: str) -> NDArray[np.float64]:
    """Outside input ``value`` as a new finite float array of ``shape``.

    Every entry must be an int or a float (booleans, strings and misshapen
    nesting are refused) and finite; anything else raises :class:`ConfigError`.
    """
    try:
        arr = np.asarray(value, dtype=object)
    except ValueError:  # ragged nesting numpy cannot hold
        arr = np.asarray(None, dtype=object)
    if arr.shape != shape or not all(
            isinstance(v, (int, float, np.integer, np.floating))
            and not isinstance(v, bool) for v in arr.flat):
        kind = f"numbers of shape {shape}" if shape else "a number"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    arr = arr.astype(float)
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} must be finite, got {arr.tolist()}")
    return arr


def whole_number(value, name: str, low: int) -> int:
    """Outside input ``value`` as an int >= ``low`` (booleans and floats refused)."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < low):
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def checked_hbar(value) -> float:
    """``value`` as hbar, the one rule for every system, state and density:
    :class:`ConfigError` naming it unless it is a positive finite number."""
    hbar = float(finite_array(value, (), "hbar"))
    if not hbar > 0.0:
        raise ConfigError(f"hbar must be positive and finite, got {value!r}")
    return hbar


def _psd_root(c: NDArray[np.float64]) -> NDArray[np.float64]:
    """S with S S^T = c for a symmetric c, from ``eigh`` with eigenvalues
    clipped at 0 (c may be singular and then has no Cholesky factor)."""
    w, v = np.linalg.eigh(c)
    return v * np.sqrt(np.clip(w, 0.0, None))


def _covariance(value, name: str, definite: bool = True
                ) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Outside input ``value`` as a symmetric 2x2 covariance C and a factor
    S with S S^T = C.

    Entries must be finite (:class:`ConfigError`) and symmetric within
    round-off. S is the Cholesky factor; where there is none, C must be
    only semidefinite (``definite=False``) with no eigenvalue below
    -1e-12 max|C_ij|, and S is :func:`_psd_root`'s. Anything else raises
    :class:`NotPositiveDefinite`.
    """
    cov = finite_array(value, (2, 2), name)
    scale = float(np.max(np.abs(cov)))
    if float(np.max(np.abs(cov - cov.T))) > _SYM_RTOL * max(1.0, scale):
        raise NotPositiveDefinite(f"{name} must be symmetric")
    cov = 0.5 * (cov + cov.T)
    try:
        return cov, np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        if definite or np.linalg.eigvalsh(cov)[0] < -_SYM_RTOL * scale:
            kind = "definite" if definite else "semidefinite"
            raise NotPositiveDefinite(
                f"{name} is not positive {kind}: {cov.tolist()}") from None
    return cov, _psd_root(cov)


def _as_vector(value, name: str) -> NDArray[np.float64]:
    vec = finite_array(value, (2,), name)
    vec.setflags(write=False)
    return vec


def wedge(a: NDArray[np.float64], b: NDArray[np.float64]) -> float:
    """Wedge product a ^ b = a_p b_q - a_q b_p."""
    return float(a[0] * b[1] - a[1] * b[0])


@dataclass(frozen=True, eq=False)
class HamiltonianForm:
    """Quadratic Hamiltonian H(x) = x.Hx + linear.x.

    ``matrix`` must be symmetric: inputs within round-off of symmetric are
    symmetrized exactly, anything worse is rejected.
    """

    matrix: NDArray[np.float64]
    linear: NDArray[np.float64] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        m = finite_array(self.matrix, (2, 2), "H matrix")
        scale = max(1.0, float(np.max(np.abs(m))))
        if float(np.max(np.abs(m - m.T))) > _SYM_RTOL * scale:
            raise ConfigError(
                "H matrix must be symmetric (|H - H^T| exceeds round-off)")
        m = 0.5 * (m + m.T)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        lin = self.linear if self.linear is not None else np.zeros(2)
        object.__setattr__(self, "linear", _as_vector(lin, "H linear term"))

    @property
    def det(self) -> float:
        """m00 m11 - m01 m10; inf or NaN when the entries overflow it."""
        m = self.matrix
        with np.errstate(over="ignore", invalid="ignore"):
            return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])

    def value(self, x: NDArray[np.float64]) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ self.matrix @ x + self.linear @ x)


@dataclass(frozen=True, eq=False)
class LindbladChannel:
    """One environment channel L(x) = l_re.x + i l_im.x."""

    l_re: NDArray[np.float64]
    l_im: NDArray[np.float64] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "l_re", _as_vector(self.l_re, "l_re"))
        im = self.l_im if self.l_im is not None else np.zeros(2)
        object.__setattr__(self, "l_im", _as_vector(im, "l_im"))


class Regime(enum.Enum):
    ELLIPTIC = "Elliptic"
    HYPERBOLIC = "Hyperbolic"
    PARABOLIC = "Parabolic"


def classify(hamiltonian: HamiltonianForm) -> Regime:
    """Classify by the sign of det H against 1e-12 * max|H_ij|.

    That tolerance keeps the parabolic set detectable in scaled units while
    staying below any representable curvature.
    """
    tol = 1e-12 * float(np.max(np.abs(hamiltonian.matrix)))
    det = hamiltonian.det
    if det > tol:
        return Regime.ELLIPTIC
    if det < -tol:
        return Regime.HYPERBOLIC
    return Regime.PARABOLIC


def _symmetric_entries(*forms: np.ndarray) -> tuple:
    """The (00, 01, 11) entries of each form's symmetric part, as Python scalars."""
    stack = np.stack(forms)
    sym = 0.5 * (stack + stack.swapaxes(-1, -2))
    return tuple(map(tuple, sym.reshape(-1, 4)[:, [0, 1, 3]].tolist()))


@dataclass(frozen=True, eq=False)
class OpenSystem:
    """Immutable system description.

    Derived quantities are computed on first use and cached on the instance
    (the fields never change); cached arrays are read-only.
    """

    hamiltonian: HamiltonianForm
    channels: tuple[LindbladChannel, ...] = ()
    hbar: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "hbar", checked_hbar(self.hbar))
        object.__setattr__(self, "channels", tuple(self.channels))

    @cached_property
    def alpha(self) -> float:
        """alpha = sum_j (J l''_j) . l'_j, additive over channels."""
        with np.errstate(over="ignore", invalid="ignore"):
            return float(sum((J @ ch.l_im) @ ch.l_re for ch in self.channels))

    @property
    def sigma(self) -> complex:
        """sigma = 2 sqrt(-det H), branch with Re >= 0, then Im >= 0."""
        with np.errstate(over="ignore", invalid="ignore"):
            return complex(2.0 * np.sqrt(complex(-self.hamiltonian.det)))

    @property
    def regime(self) -> Regime:
        return classify(self.hamiltonian)

    @cached_property
    def k_matrix(self) -> NDArray[np.float64]:
        """K = sum_j (l' l'^T + l'' l''^T), the channel second-moment matrix."""
        k = np.zeros((2, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            for ch in self.channels:
                k += np.outer(ch.l_re, ch.l_re) + np.outer(ch.l_im, ch.l_im)
        k.setflags(write=False)
        return k

    @cached_property
    def generator(self) -> NDArray[np.float64]:
        """B = 2 J H, the generator of the orbit R_t = exp(t B)."""
        b = 2.0 * J @ self.hamiltonian.matrix
        b.setflags(write=False)
        return b

    @cached_property
    def sigma_squared(self) -> float:
        """sigma^2 = -4 det H, so that B^2 = sigma^2 I."""
        return -4.0 * self.hamiltonian.det

    @cached_property
    def moment_forms(self) -> tuple:
        """The (00, 01, 11) entries of K, B^T K + K B and B^T K B, the forms
        of M's moment series."""
        b, k = self.generator, self.k_matrix
        with np.errstate(over="ignore", invalid="ignore"):
            return _symmetric_entries(k, b.T @ k + k @ b, b.T @ k @ b)

    @cached_property
    def damping_spectrum(self) -> Optional[tuple]:
        """(x, q, (e, f, e_scale, f_scale), P+) with M(t) = Re sum_r
        phi(x_r, t) q_r where sigma != 0, else None; phi(x, t) is the
        integral of e^{x tau} over [-t, 0]. P+ = (I + B/sigma)/2 is the
        spectral projector of B (B P+ = sigma P+, P- = I - P+) and the one
        array; the rest are Python scalars.

        R_tau = e^{sigma tau} P+ + e^{-sigma tau} P-, so M's integrand has
        exponents x = 2 alpha + (2 sigma, 0, -2 sigma) on q = (P+^T K P+,
        P+^T K P- + P-^T K P+, P-^T K P-), each the (00, 01, 11) of its form.
        P+- have rank one, so det q+- and the mixed determinants of q0 with
        q+- vanish: det M = Re(e phi+ phi- + f phi0^2), e = q+00 q-11 + q+11
        q-00 - 2 q+01 q-01, f = det q0, each scale the sum of the magnitudes
        of the products in e or f, which bounds their round-off.
        """
        s2 = self.sigma_squared
        if s2 == 0.0:
            return None
        root = math.sqrt(s2) if s2 > 0.0 else cmath.sqrt(s2)
        k = self.k_matrix
        with np.errstate(over="ignore", invalid="ignore"):
            plus = (self.generator + root * np.eye(2)) / (2.0 * root)
            minus = np.eye(2) - plus
            cross = plus.T @ k @ minus  # q_r at O(1), before any exponential
            q = _symmetric_entries(plus.T @ k @ plus, cross + cross.T,
                                   minus.T @ k @ minus)
            x = 2.0 * self.alpha + np.array([2.0 * root, 0.0, -2.0 * root])
        plus.setflags(write=False)
        (p00, p01, p11), (z00, z01, z11), (m00, m01, m11) = q
        e_terms = (p00 * m11, p11 * m00, -2.0 * p01 * m01)
        f_terms = (z00 * z11, -z01 * z01)
        det = (sum(e_terms).real, sum(f_terms).real,
               sum(map(abs, e_terms)), sum(map(abs, f_terms)))
        return tuple(x.tolist()), q, det, plus

    @property
    def drift_matrix(self) -> NDArray[np.float64]:
        """A = 2 J H - alpha I, the linear part of the dissipative flow."""
        return self.generator - self.alpha * np.eye(2)

    @property
    def drift_offset(self) -> NDArray[np.float64]:
        """Constant drift J b contributed by the linear Hamiltonian term."""
        return J @ self.hamiltonian.linear

    @cached_property
    def noise_vectors(self) -> NDArray[np.float64]:
        """Rows sqrt(hbar) J l'_j, sqrt(hbar) J l''_j per channel in turn,
        shape (2 * channels, 2) with zero rows kept: the Langevin noise."""
        root = math.sqrt(self.hbar)
        v = np.array([root * J @ l for ch in self.channels
                      for l in (ch.l_re, ch.l_im)], dtype=float).reshape(-1, 2)
        v.setflags(write=False)
        return v

    @cached_property
    def diffusion(self) -> NDArray[np.float64]:
        """D = (hbar/2) J K J^T, the diffusion matrix of the Wigner transport."""
        d = 0.5 * self.hbar * J @ self.k_matrix @ J.T
        d.setflags(write=False)
        return d


def characteristic_timescale(sys: OpenSystem) -> float:
    """min(1/|alpha|, 1/|sigma|), falling back to 1/sqrt(||K||) and then inf.

    Used to scale positivity scans and similar searches.
    """
    scales = []
    if sys.alpha != 0.0:
        scales.append(1.0 / abs(sys.alpha))
    s = abs(sys.sigma)
    if s != 0.0:
        scales.append(1.0 / s)
    if scales:
        return min(scales)
    knorm = float(np.linalg.norm(sys.k_matrix, 2))
    if knorm > 0.0:
        return 1.0 / math.sqrt(knorm)
    return math.inf


def _inv2(c: NDArray[np.float64]) -> NDArray[np.float64]:
    det = c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]
    return np.array([[c[1, 1], -c[0, 1]], [-c[1, 0], c[0, 0]]]) / det


def symplectic_transform(sys: OpenSystem, c: NDArray[np.float64]) -> OpenSystem:
    """Rewrite the system in coordinates x' = C x for symplectic C.

    The Hamiltonian maps as H' = C^-T H C^-1 (so H'(Cx) = H(x)), the linear
    term as b' = C^-T b, and every channel covector as l' = C^-T l — the
    mapping under which the damping matrix is covariant, M'(t) = C^-T M(t)
    C^-1, and alpha, sigma, the regime, and det M are invariant.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (2, 2):
        raise NonSymplectic(f"C must be 2x2, got shape {c.shape}")
    defect = float(np.max(np.abs(c.T @ J @ c - J)))
    if not np.isfinite(defect) or defect > 1e-12:
        raise NonSymplectic(f"C^T J C - J has max defect {defect:.3e} > 1e-12")
    cinv = _inv2(c)
    cinv_t = cinv.T
    h_new = HamiltonianForm(
        matrix=cinv_t @ sys.hamiltonian.matrix @ cinv,
        linear=cinv_t @ sys.hamiltonian.linear,
    )
    channels = tuple(
        LindbladChannel(l_re=cinv_t @ ch.l_re, l_im=cinv_t @ ch.l_im)
        for ch in sys.channels
    )
    return OpenSystem(hamiltonian=h_new, channels=channels, hbar=sys.hbar)


def photon_bath(gamma: float, nbar: float = 0.0, omega: float = 1.0,
                hbar: float = 1.0) -> OpenSystem:
    """Harmonic oscillator H = (omega/2)(p^2 + q^2) coupled to a thermal bath.

    Decay rate ``gamma`` and mean occupancy ``nbar`` give channels with
    alpha = gamma/2 and K = (gamma(2 nbar + 1)/2) I.
    """
    if gamma < 0 or nbar < 0:
        raise ConfigError("gamma and nbar must be nonnegative")
    h = HamiltonianForm(matrix=0.5 * omega * np.eye(2))
    channels: list[LindbladChannel] = []
    if gamma > 0:
        c = math.sqrt(gamma * (nbar + 1.0) / 2.0)
        channels.append(LindbladChannel(l_re=np.array([0.0, c]),
                                        l_im=np.array([c, 0.0])))
        if nbar > 0:
            d = math.sqrt(gamma * nbar / 2.0)
            channels.append(LindbladChannel(l_re=np.array([0.0, d]),
                                            l_im=np.array([-d, 0.0])))
    return OpenSystem(hamiltonian=h, channels=tuple(channels), hbar=hbar)


def _require_keys(d: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown field(s) in {where}: {sorted(unknown)}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"missing field(s) in {where}: {sorted(missing)}")


def system_from_dict(data: dict) -> OpenSystem:
    """Parse the JSON system descriptor (exact field names, no extras).

    ::

        {"hbar": 1.0,
         "hamiltonian": {"matrix": [[h11, h12], [h12, h22]],
                         "linear": [b_p, b_q]},
         "channels": [{"l_re": [a, b], "l_im": [c, d]}, ...]}
    """
    if not isinstance(data, dict):
        raise ConfigError("system descriptor must be a JSON object")
    _require_keys(data, {"hbar", "hamiltonian", "channels"}, {"hamiltonian"},
                  "system descriptor")
    ham = data["hamiltonian"]
    if not isinstance(ham, dict):
        raise ConfigError("'hamiltonian' must be an object")
    _require_keys(ham, {"matrix", "linear"}, {"matrix"}, "'hamiltonian'")
    h = HamiltonianForm(matrix=ham["matrix"], linear=ham.get("linear"))
    raw_channels = data.get("channels", [])
    if not isinstance(raw_channels, list):
        raise ConfigError("'channels' must be a list")
    channels = []
    for i, ch in enumerate(raw_channels):
        if not isinstance(ch, dict):
            raise ConfigError(f"channel {i} must be an object")
        _require_keys(ch, {"l_re", "l_im"}, set(), f"channel {i}")
        if not ch:
            raise ConfigError(f"channel {i} is empty")
        channels.append(LindbladChannel(l_re=ch.get("l_re", np.zeros(2)),
                                        l_im=ch.get("l_im")))
    hbar = float(finite_array(data.get("hbar", 1.0), (), "'hbar'"))
    return OpenSystem(hamiltonian=h, channels=tuple(channels), hbar=hbar)


def system_to_dict(sys: OpenSystem) -> dict:
    """Inverse of :func:`system_from_dict` (canonical field order)."""
    return {
        "hbar": sys.hbar,
        "hamiltonian": {
            "matrix": [[float(v) for v in row] for row in sys.hamiltonian.matrix],
            "linear": [float(v) for v in sys.hamiltonian.linear],
        },
        "channels": [
            {"l_re": [float(v) for v in ch.l_re],
             "l_im": [float(v) for v in ch.l_im]}
            for ch in sys.channels
        ],
    }
