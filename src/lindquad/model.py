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

Outside input is read one way: nested lists, tuples and arrays by
:func:`finite_array`, every 2x2 form symmetrized by :func:`_symmetrized`
alone, and det H computed once, by ``HamiltonianForm.det``.

:class:`OpenSystem` caches ``B = 2 J H`` (``B^2 = sigma^2 I``), ``K`` and the
constant, exactly symmetric forms of the damping matrix M(t):
``moment_forms`` (``K, B^T K + K B, B^T K B``) and, for sigma != 0,
``damping_spectrum`` (the forms ``P_i^T K P_j`` of B's spectral projectors
``P+- = (I +- B/sigma)/2``, their exponents and the coefficients of det M).
They are built once per system in Python scalars from one read of H's and
the channels' entries, each form as its (00, 01, 11), so overflow gives inf
or nan without a warning (the kernel reports it). It also holds the Wigner
transport's data, for the Langevin sampler and the Fokker–Planck oracle:
the drift ``2 J H - alpha I`` with offset ``J b``, the noise vectors
``sqrt(hbar) J l`` and the diffusion ``D = (hbar/2) J K J^T``.
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
]

J = np.array([[0.0, -1.0], [1.0, 0.0]])
J.setflags(write=False)

_SYM_RTOL = 1e-12


def finite_array(value, shape: tuple[int, ...], name: str) -> NDArray[np.float64]:
    """Outside input ``value`` as a new read-only finite float array of ``shape``.

    ``value`` and its rows, walked one nesting level at a time, must be
    lists, tuples or numpy arrays (read by ``tolist``) of each level's
    length, and every entry a finite int or float; anything else (booleans
    and strings too) raises :class:`ConfigError`.
    """
    items = [value.tolist() if isinstance(value, np.ndarray) else value]
    for size in shape:
        rows = [v.tolist() if isinstance(v, np.ndarray) else v for v in items]
        if not all(type(v) in (list, tuple) and len(v) == size for v in rows):
            items = [None]  # refused below
            break
        items = [v for row in rows for v in row]
    if not all(isinstance(v, (int, float, np.integer, np.floating))
               and not isinstance(v, bool) for v in items):
        kind = f"numbers of shape {shape}" if shape else "a number"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    try:
        arr = np.array(items, dtype=float).reshape(shape)
    except OverflowError:  # an int beyond the float range
        arr = None
    if arr is None or not all(map(math.isfinite, items)):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    arr.setflags(write=False)
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


def _symmetrized(m: NDArray[np.float64]) -> NDArray[np.float64]:
    """The 2x2 ``m`` with its off-diagonal pair replaced by their mean, each
    halved before the sum so that a finite pair stays finite."""
    (a, b), (c, d) = m.tolist()
    off = 0.5 * b + 0.5 * c
    return np.array([[a, off], [off, d]])


def _symmetric_input(value, name: str, error: type[Exception]) -> NDArray[np.float64]:
    """Outside input ``value`` as a finite 2x2, symmetrized; ``error`` when its
    off-diagonal pair differs by more than ``_SYM_RTOL * max(1, max|entry|)``."""
    m = finite_array(value, (2, 2), name)
    (a, b), (c, d) = m.tolist()
    if abs(b - c) > _SYM_RTOL * max(1.0, abs(a), abs(b), abs(c), abs(d)):
        raise error(f"{name} must be symmetric within round-off")
    return _symmetrized(m)


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
    cov = _symmetric_input(value, name, NotPositiveDefinite)
    try:
        return cov, np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        scale = float(np.max(np.abs(cov)))
        if definite or np.linalg.eigvalsh(cov)[0] < -_SYM_RTOL * scale:
            kind = "definite" if definite else "semidefinite"
            raise NotPositiveDefinite(
                f"{name} is not positive {kind}: {cov.tolist()}") from None
    return cov, _psd_root(cov)


def wedge(a: NDArray[np.float64], b: NDArray[np.float64]) -> float:
    """Wedge product a ^ b = a_p b_q - a_q b_p."""
    return float(a[0] * b[1] - a[1] * b[0])


@dataclass(frozen=True, eq=False)
class HamiltonianForm:
    """Quadratic Hamiltonian H(x) = x.Hx + linear.x.

    ``matrix`` must be symmetric: inputs within round-off of symmetric are
    symmetrized (:func:`_symmetrized`), anything worse is rejected.
    """

    matrix: NDArray[np.float64]
    linear: NDArray[np.float64] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        m = _symmetric_input(self.matrix, "H matrix", ConfigError)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        lin = self.linear if self.linear is not None else np.zeros(2)
        object.__setattr__(self, "linear", finite_array(lin, (2,), "H linear term"))

    @cached_property
    def det(self) -> float:
        """h00 h11 - h01^2 in Python floats, the one det H (sigma, sigma^2, the
        regime and the timescale read it); inf or NaN where the entries overflow."""
        (h00, h01), (_, h11) = self.matrix.tolist()
        return h00 * h11 - h01 * h01

    def value(self, x: NDArray[np.float64]) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ self.matrix @ x + self.linear @ x)


@dataclass(frozen=True, eq=False)
class LindbladChannel:
    """One environment channel L(x) = l_re.x + i l_im.x."""

    l_re: NDArray[np.float64]
    l_im: NDArray[np.float64] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "l_re", finite_array(self.l_re, (2,), "l_re"))
        im = self.l_im if self.l_im is not None else np.zeros(2)
        object.__setattr__(self, "l_im", finite_array(im, (2,), "l_im"))


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


def _pair_form(k: tuple, a: tuple, c: tuple) -> tuple:
    """(00, 01, 11) of a^T K c + c^T K a, with K given by its (00, 01, 11)
    and the 2x2 a and c by their (00, 01, 10, 11), all Python scalars."""
    k00, k01, k11 = k
    u0, u1 = k00 * c[0] + k01 * c[2], k00 * c[1] + k01 * c[3]  # row 0 of K c
    v0, v1 = k01 * c[0] + k11 * c[2], k01 * c[1] + k11 * c[3]  # row 1 of K c
    x00, x11 = a[0] * u0 + a[2] * v0, a[1] * u1 + a[3] * v1
    return (x00 + x00, a[0] * u1 + a[2] * v1 + (a[1] * u0 + a[3] * v0), x11 + x11)


def _halved(form: tuple) -> tuple:
    return tuple(0.5 * v for v in form)


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
    def _scalars(self) -> tuple:
        """(B's (00, 01, 10, 11), one (l'_p, l'_q, l''_p, l''_q) per channel):
        the Python floats every derived form is built from, read from the
        arrays once."""
        (h00, h01), (_, h11) = self.hamiltonian.matrix.tolist()
        return ((-2.0 * h01, -2.0 * h11, 2.0 * h00, 2.0 * h01),
                tuple(ch.l_re.tolist() + ch.l_im.tolist() for ch in self.channels))

    @cached_property
    def alpha(self) -> float:
        """alpha = sum_j (J l''_j) . l'_j, additive over channels."""
        return float(sum(b0 * a1 - b1 * a0 for a0, a1, b0, b1 in self._scalars[1]))

    @property
    def sigma(self) -> complex:
        """sigma = 2 sqrt(-det H), branch with Re >= 0, then Im >= 0."""
        return 2.0 * cmath.sqrt(-self.hamiltonian.det)

    @property
    def regime(self) -> Regime:
        return classify(self.hamiltonian)

    @cached_property
    def k_matrix(self) -> NDArray[np.float64]:
        """K = sum_j (l' l'^T + l'' l''^T), the channel second-moment matrix."""
        k00, k01, k11 = self.moment_forms[0]
        k = np.array([[k00, k01], [k01, k11]])
        k.setflags(write=False)
        return k

    @cached_property
    def generator(self) -> NDArray[np.float64]:
        """B = 2 J H, the generator of the orbit R_t = exp(t B)."""
        b = np.array(self._scalars[0]).reshape(2, 2)
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
        b, channels = self._scalars
        k00 = k01 = k11 = 0.0
        for a0, a1, b0, b1 in channels:
            k00 += a0 * a0 + b0 * b0
            k01 += a0 * a1 + b0 * b1
            k11 += a1 * a1 + b1 * b1
        k = (k00, k01, k11)
        return k, _pair_form(k, (1.0, 0.0, 0.0, 1.0), b), _halved(_pair_form(k, b, b))

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
        b, k, twice = self._scalars[0], self.moment_forms[0], 2.0 * root
        plus = ((b[0] + root) / twice, b[1] / twice, b[2] / twice, (b[3] + root) / twice)
        minus = (1.0 - plus[0], -plus[1], -plus[2], 1.0 - plus[3])
        q = (_halved(_pair_form(k, plus, plus)), _pair_form(k, plus, minus),
             _halved(_pair_form(k, minus, minus)))
        (p00, p01, p11), (z00, z01, z11), (m00, m01, m11) = q
        e_terms = (p00 * m11, p11 * m00, -2.0 * p01 * m01)
        f_terms = (z00 * z11, -z01 * z01)
        det = (sum(e_terms).real, sum(f_terms).real,
               sum(map(abs, e_terms)), sum(map(abs, f_terms)))
        projector = np.array(plus).reshape(2, 2)
        projector.setflags(write=False)
        two_alpha = 2.0 * self.alpha
        return (two_alpha + twice, two_alpha, two_alpha - twice), q, det, projector

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
    rates = [r for r in (abs(sys.alpha), abs(sys.sigma)) if r]
    if rates:
        return 1.0 / max(rates)
    k00, k01, k11 = sys.moment_forms[0]
    knorm = 0.5 * (k00 + k11 + math.hypot(k00 - k11, 2.0 * k01))  # K's top eigenvalue
    return 1.0 / math.sqrt(knorm) if knorm > 0.0 else math.inf


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
    alpha = gamma/2 and K = (gamma(2 nbar + 1)/2) I. ``gamma``, ``nbar`` and
    ``omega`` are read by :func:`finite_array`.
    """
    gamma, nbar, omega = (float(finite_array(v, (), name)) for v, name in
                          ((gamma, "gamma"), (nbar, "nbar"), (omega, "omega")))
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
    return OpenSystem(hamiltonian=h, channels=tuple(channels),
                      hbar=data.get("hbar", 1.0))
