"""Open-system data model on the phase plane x = (p, q).

A system is a real symmetric 2x2 Hamiltonian matrix H (quadratic form
H(x) = x.Hx, plus an optional linear term b.x) together with a set of
environment channels, each a complex linear form L_j(x) = l'_j.x + i l''_j.x
encoded by two real 2-vectors. Everything downstream — flows, damping matrix,
positivity threshold, entropy — is a deterministic function of these fields,
hbar, and time.

Derived scalars:

* the dissipation coefficient ``alpha = sum_j (J l''_j) . l'_j`` (positive
  means friction: phase-space points contract),
* ``sigma = 2 sqrt(-det H)`` — real for hyperbolic dynamics (a stretching
  rate), imaginary for elliptic (rotation frequency), zero for parabolic,

with ``J = [[0, -1], [1, 0]]`` the matrix of the wedge product,
``xi ^ x = (J xi) . x``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, NonSymplectic

__all__ = [
    "J",
    "HamiltonianForm",
    "LindbladChannel",
    "OpenSystem",
    "Regime",
    "classify",
    "dissipation_coefficient",
    "sigma",
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
        m = self.matrix
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


def classify(hamiltonian: HamiltonianForm, tol: float | None = None) -> Regime:
    """Classify by the sign of det H against ``tol``.

    Default tolerance 1e-12 * max|H_ij| keeps the parabolic set detectable
    in scaled units while staying below any representable curvature.
    """
    if tol is None:
        tol = 1e-12 * float(np.max(np.abs(hamiltonian.matrix)))
    if tol < 0:
        raise ConfigError("classification tolerance must be nonnegative")
    det = hamiltonian.det
    if det > tol:
        return Regime.ELLIPTIC
    if det < -tol:
        return Regime.HYPERBOLIC
    return Regime.PARABOLIC


def dissipation_coefficient(channels: tuple[LindbladChannel, ...] | list[LindbladChannel]) -> float:
    """alpha = sum_j (J l''_j) . l'_j, additive over channels."""
    return float(sum((J @ ch.l_im) @ ch.l_re for ch in channels))


def sigma(hamiltonian: HamiltonianForm) -> complex:
    """sigma = 2 sqrt(-det H), branch with Re >= 0, then Im >= 0."""
    return complex(2.0 * np.sqrt(complex(-hamiltonian.det)))


@dataclass(frozen=True, eq=False)
class OpenSystem:
    """Immutable system description; all derived scalars are recomputed."""

    hamiltonian: HamiltonianForm
    channels: tuple[LindbladChannel, ...] = ()
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if not (self.hbar > 0 and math.isfinite(self.hbar)):
            raise ConfigError(f"hbar must be positive and finite, got {self.hbar}")
        object.__setattr__(self, "channels", tuple(self.channels))

    @property
    def alpha(self) -> float:
        return dissipation_coefficient(self.channels)

    @property
    def sigma(self) -> complex:
        return sigma(self.hamiltonian)

    @property
    def regime(self) -> Regime:
        return classify(self.hamiltonian)

    @property
    def k_matrix(self) -> NDArray[np.float64]:
        """K = sum_j (l' l'^T + l'' l''^T), the channel second-moment matrix."""
        k = np.zeros((2, 2))
        for ch in self.channels:
            k += np.outer(ch.l_re, ch.l_re) + np.outer(ch.l_im, ch.l_im)
        return k

    @property
    def drift_matrix(self) -> NDArray[np.float64]:
        """A = 2 J H - alpha I, the linear part of the dissipative flow."""
        return 2.0 * J @ self.hamiltonian.matrix - self.alpha * np.eye(2)

    @property
    def drift_offset(self) -> NDArray[np.float64]:
        """Constant drift J b contributed by the linear Hamiltonian term."""
        return J @ self.hamiltonian.linear


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
