"""Initial states in the chord representation, held as sums of Gaussians.

A chord function here is the symplectic Fourier transform of the Wigner
function,

    Wt(xi) = (1/2 pi hbar) Integral e^{+(i/hbar) xi ^ x} W(x) dx,

so Wt(0) = 1/(2 pi hbar) encodes unit trace and Wt(-xi) = conj(Wt(xi))
encodes hermiticity. Every built-in state (coherent, Gaussian, cat) is a
finite sum of complex Gaussians,

    Wt(xi) = sum_k w_k exp(-xi . A xi / 2 + i xi . b_k),

with one form A for all terms, and the exact evolution maps that family to
itself. A :class:`ChordState` is therefore plain term data, and its Wigner
function and trace-square integrals are closed-form Gaussian integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, Unstable
from .model import (J, _covariance, _inv2, _require_keys, _symmetrized, checked_hbar,
                    finite_array)

__all__ = [
    "ChordState",
    "coherent_state",
    "gaussian_state",
    "cat_state",
    "state_from_dict",
]


def _exponent(form, lin, const, r0, r1):
    """c_k + l_k . r - r . F r / 2 at the offsets r = (r0, r1) from the anchors,
    the terms on the last axis: the one exponent of every :class:`ChordState`
    value, on grids (:func:`_grid_sum`) and at points (:func:`_point_sum`)."""
    return (const + lin[:, 0] * r0 + lin[:, 1] * r1
            - (0.5 * form[0, 0] * r0 * r0 + form[0, 1] * r0 * r1
               + 0.5 * form[1, 1] * r1 * r1))


def _point_sum(form, anchors, lin, const, u, v) -> np.ndarray:
    """sum_k exp(c_k + l_k . r - r . F r / 2), r = (u, v) - s_k, at the nodes of
    the same-shaped ``u`` and ``v``: the per-node sum :func:`_grid_sum` matches."""
    r0 = np.asarray(u)[..., None] - anchors[:, 0]
    r1 = np.asarray(v)[..., None] - anchors[:, 1]
    return np.asarray(np.sum(np.exp(_exponent(form, lin, const, r0, r1)), axis=-1))


_NORMAL_MIN = float(np.finfo(float).tiny)  # the smallest normal float

# bound on |d . F d| / 2 over the offsets d from a tile's centre: it keeps the
# shared cross factor within e^{+-64}, and the one-axis exponents, whose sums
# cancel to each node's exponent, within a few times 64 (a few hundred ulps)
_TILE_REACH = 64.0


def _tile_size(form: np.ndarray, hu: float, hv: float) -> float:
    """Largest tile side T with |d . F d| / 2 <= _TILE_REACH on T x T nodes of
    spacings (hu, hv): inf where F vanishes on the mesh, under 2 (one node per
    tile, the per-node sum) where it is steep."""
    spread = (abs(form[0, 0]) * hu * hu + 2.0 * abs(form[0, 1] * hu * hv)
              + abs(form[1, 1]) * hv * hv)
    if not spread > 0.0:  # NaN too: the sum is NaN whatever the tiles
        return math.inf
    return 1.0 + 2.0 * math.sqrt(2.0 * _TILE_REACH / spread)


def _axis_tiles(start: float, step: float, count: int, size: float):
    """(T, centres, offsets, real) of the fewest equal tiles of at most
    ``size`` nodes that cover the ``count`` nodes start + i step: node t of
    tile i sits at centres[i] + offsets[t], and ``real`` (tiles, T) is False
    on the nodes that pad the last tile."""
    tiles = -(-count // int(min(count, size)))
    t = -(-count // tiles)
    centres = start + (np.arange(tiles) * t + 0.5 * (t - 1)) * step
    offsets = (np.arange(t) - 0.5 * (t - 1)) * step
    return t, centres, offsets, (np.arange(tiles * t) < count).reshape(tiles, t)


def _grid_sum(form, anchors, lin, const, u, v) -> np.ndarray:
    """sum_k exp(c_k + l_k . r - r . F r / 2), r = (u_i, v_j) - s_k, shape (Nu, Nv).

    ``form`` F (2, 2) real symmetric and shared by the terms, ``anchors`` s_k
    and ``lin`` l_k (n, 2), ``const`` c_k (n,) complex, ``u`` and ``v`` axes
    (u0, hu, Nu) of nodes u0 + i hu. Each caller writes its exponent about the
    point its per-node sum expands about, so the grid adds no cancellation.

    On a tile of centre z0 and node offsets d the exponent is
    E(z0) + g . d - d . F d / 2 with g = l - F (z0 - s): a function of d_u,
    plus one of d_v, plus -F_01 d_u d_v. So term k is U_k(d_u) V_k(d_v)
    times exp(-F_01 d_u d_v), one T x T matrix for every tile and term. U_k
    carries E(z0) and is shifted down by its largest real part on the tile's
    grid nodes, V_k up by the same: neither overflows where the term is
    finite, and what underflows is below e^-580 of the term's largest value
    on the tile. Each tile is n broadcast multiply-adds of U_k and V_k; a
    batched matrix product gives the same sum, but on these small matrices
    it costs more than it saves and can wake a second BLAS thread.
    """
    (u0, hu, nu), (v0, hv, nv) = u, v
    size = _tile_size(form, hu, hv)
    tu, cu, du, real_u = _axis_tiles(u0, hu, nu, size)
    tv, cv, dv, _ = _axis_tiles(v0, hv, nv, size)
    f00, f01, f11 = form[0, 0], form[0, 1], form[1, 1]
    # z0 - s per tile and term, (tiles on u, tiles on v, n) once broadcast
    r0 = cu[:, None, None] - anchors[:, 0]
    r1 = cv[None, :, None] - anchors[:, 1]
    e0 = _exponent(form, lin, const, r0, r1)
    g0 = lin[:, 0] - (f00 * r0 + f01 * r1)
    g1 = lin[:, 1] - (f01 * r0 + f11 * r1)
    eu = e0[..., None] + g0[..., None] * du - 0.5 * f00 * du * du
    ev = g1[..., None] * dv - 0.5 * f11 * dv * dv
    top = np.max(np.where(real_u[:, None, None, :], eu.real, -np.inf),
                  axis=-1, keepdims=True)
    # node (i, j) of tile (a, b) lands at out[a, i, b, j], so the grid is a
    # reshape of out: us is (n, a, i, b, 1) and vs (n, a, 1, b, j); a term
    # that is zero on the tile (c_k = -inf) gets U = V = 0
    us = np.exp(eu - np.where(top == -np.inf, 0.0, top))
    us = us.transpose(2, 0, 3, 1)[..., None]
    vs = np.exp(ev + top).transpose(2, 0, 1, 3)[:, :, None]
    out = us[0] * vs[0]
    part = np.empty_like(out)
    for k in range(1, const.size):
        np.multiply(us[k], vs[k], out=part)
        out += part
    out *= np.exp(-f01 * du[:, None, None] * dv)
    return out.reshape(cu.size * tu, cv.size * tv)[:nu, :nv]


@dataclass(frozen=True, eq=False)
class ChordState:
    """Chord function Wt(xi) = sum_k w_k exp(-xi . A xi / 2 + i xi . b_k).

    ``log_weights`` (n,) complex log w_k, ``form`` (2, 2) the real positive
    definite A that every term shares, ``shifts`` (n, 2) complex b_k. The
    weights are held as logs because a term's weight can lie far below the
    smallest float while its Gaussian factor is as far above the largest (a
    cat lobe's e^{-zeta^2/hbar} against an e^{+zeta^2/hbar} from its
    imaginary shift).

    Every value sums terms exp(c_k + l_k . r - r . F r / 2) of one exponent
    (:func:`_exponent`), whose (F, s, l, c) each representation builds once.
    :meth:`__call__` and :meth:`wigner` sum them at scattered points
    (:func:`_point_sum`); :meth:`chord_grid` and :meth:`wigner_grid` take a
    :class:`~lindquad.grid.GridSpec` and return the same values on its nodes
    to within 1e-12 of the largest, one T x T tile at a time
    (:func:`_grid_sum`). Each sums under ``np.errstate(all="ignore")`` and
    raises :class:`Unstable` when a value is not finite.
    """

    log_weights: NDArray[np.complex128]
    form: NDArray[np.float64]
    shifts: NDArray[np.complex128]
    label: str
    pure: bool
    hbar: float = 1.0

    def __post_init__(self) -> None:
        log_weights = np.array(self.log_weights, dtype=complex)
        form = np.asarray(self.form, dtype=float)
        shifts = np.array(self.shifts, dtype=complex)
        n = log_weights.shape[0] if log_weights.ndim == 1 else -1
        if form.shape != (2, 2) or shifts.shape != (n, 2):
            raise ConfigError("a chord state needs (n,) log weights, a (2, 2) "
                              "form and (n, 2) shifts")
        object.__setattr__(self, "hbar", checked_hbar(self.hbar))
        for name, value in (("log_weights", log_weights), ("form", _symmetrized(form)),
                            ("shifts", shifts)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def weights(self) -> NDArray[np.complex128]:
        """The weights w_k (those below the smallest float read 0)."""
        return np.exp(self.log_weights)

    def _chord_terms(self):
        """(F, s, l, c) of Wt: F = A, s_k = 0, l_k = i b_k, c_k = log w_k."""
        return self.form, np.zeros(self.shifts.shape), 1j * self.shifts, self.log_weights

    def _wigner_terms(self):
        """(F, s, l, c) of W in z = (-p, q)/hbar: W(x) = (1/hbar) sum_k w_k
        det(A)^{-1/2} exp(-beta . A^{-1} beta / 2) with beta = b_k - (x_q, -x_p)/hbar
        = b_k - (z_1, z_0), so F = A^{-1} and s_k = b_k with both axes swapped,
        l_k = 0 and c_k = log w_k - (log det A)/2 - log hbar. Where det A is
        not a normal float, A is first scaled exactly by 2^-e, e the exponent
        of its largest entry: log det A = log det(2^-e A) + e log 4 and
        A^{-1} = 2^-e (2^-e A)^{-1}, neither of which overflows."""
        form, e = self.form, 0
        det = np.linalg.det(form)
        if not _NORMAL_MIN <= abs(det) < math.inf:
            e = math.frexp(float(np.max(np.abs(form))))[1]
            form = np.ldexp(form, -e)
            det = np.linalg.det(form)
        log_det, inv = np.log(det) + e * math.log(4.0), np.ldexp(_inv2(form), -e)
        return (inv[::-1, ::-1], self.shifts[:, ::-1], np.zeros(self.shifts.shape),
                self.log_weights - (0.5 * log_det + math.log(self.hbar)))

    def __call__(self, xi) -> np.ndarray:
        """Wt at chords ``xi`` of shape (..., 2), complex. Raises :class:`Unstable`
        when a value is not finite, as a form that is not positive definite
        gives at large chords."""
        xi = np.asarray(xi, dtype=float)
        with np.errstate(all="ignore"):
            out = _point_sum(*self._chord_terms(), xi[..., 0], xi[..., 1])
        return self._finite_chord(out)

    def chord_grid(self, grid) -> np.ndarray:
        """Wt at the chords (p0 + i h_p, q0 + j h_q) of ``grid``, shape (N_p, N_q):
        :meth:`__call__` at every node, to within 1e-12 of the largest value."""
        with np.errstate(all="ignore"):
            out = _grid_sum(*self._chord_terms(),
                            *zip(grid.origin, grid.spacing, grid.shape))
        return self._finite_chord(out)

    def _finite_chord(self, out: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(out)):
            raise Unstable(f"chord function of '{self.label}' is not finite")
        return out

    def wigner(self, x) -> np.ndarray:
        """W at phase-space points ``x`` of shape (..., 2). Raises :class:`Unstable`
        when a value is not finite or max|Im W| exceeds 1e-9 max|W| (a
        non-hermitian chord function)."""
        with np.errstate(all="ignore"):
            z = np.asarray(x, dtype=float) / self.hbar
            out = _point_sum(*self._wigner_terms(), -z[..., 0], z[..., 1])
        return self._real_wigner(out)

    def wigner_grid(self, grid) -> np.ndarray:
        """W at the points (p0 + i h_p, q0 + j h_q) of ``grid``, shape (N_p, N_q):
        :meth:`wigner` at every node, to within 1e-12 of the largest value."""
        (p0, q0), (hp, hq), (n_p, n_q) = grid.origin, grid.spacing, grid.shape
        with np.errstate(all="ignore"):
            out = _grid_sum(*self._wigner_terms(),
                            (-p0 / self.hbar, -hp / self.hbar, n_p),
                            (q0 / self.hbar, hq / self.hbar, n_q))
        return self._real_wigner(out)

    def _real_wigner(self, out: np.ndarray) -> np.ndarray:
        # max|W| >= max|Re W|: within 1e-9 max|Re W| passes the 1e-9 max|W|
        # bound as well, and only the rest pays for the modulus
        imag = float(np.max(np.abs(out.imag), initial=0.0))
        real = float(np.max(np.abs(out.real), initial=0.0))
        if (not math.isfinite(imag) or not math.isfinite(real)
                or (imag > 1e-9 * real
                    and imag > 1e-9 * float(np.max(np.abs(out), initial=0.0)))):
            raise Unstable(f"Wigner function of '{self.label}' is not finite or "
                           f"not real: max|Im W| = {imag:.3e}")
        return np.ascontiguousarray(out.real)

    def moments(self) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        """Wigner mean hbar (Re b) J^T and covariance hbar^2 J^T A J of a
        one-term (Gaussian) state; :class:`ConfigError` for any other."""
        if self.log_weights.shape != (1,):
            raise ConfigError(
                "langevin sampling needs a gaussian-family initial state "
                "(type 'coherent' or 'gaussian')")
        return (self.hbar * (self.shifts[0].real @ J.T),
                self.hbar * (self.hbar * (J.T @ self.form @ J)))

    def norm_squared(self, extra: np.ndarray | None = None,
                     det_extra: float | None = None) -> float:
        """2 pi hbar Integral |Wt(xi)|^2 exp(-xi . E xi / 2) d xi, E = ``extra``.

        Tr rho^2 for E = 0 (the default). Over pairs of terms this is
        4 pi^2 hbar Re sum_kl w_k conj(w_l) det(S)^{-1/2} exp(-beta . S^{-1} beta / 2)
        with S = 2A + E, S^{-1} = adj(S)/det S and beta = b_k - conj(b_l).
        ``det_extra`` is det E, which a caller may know without the
        cancellation of a dense E, so det S = det 2A + det E + tr(adj(2A) E)
        holds in sheared frames; None takes the dense determinant of E.
        Raises :class:`Unstable` when the sum is not finite.
        """
        e = np.zeros((2, 2)) if extra is None else np.asarray(extra, dtype=float)
        log_w, b = self.log_weights, self.shifts
        with np.errstate(all="ignore"):
            a2 = 2.0 * self.form
            if det_extra is None:
                det_extra = e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]
            # adj(X) = J X J^T for a symmetric 2x2 X
            det_s = (a2[0, 0] * a2[1, 1] - a2[0, 1] ** 2 + det_extra
                     + float(np.sum(J @ a2 @ J.T * e)))
            total = _point_sum(J @ (a2 + e) @ J.T / det_s,
                               (b[:, None] - np.conj(b)).reshape(-1, 2),
                               np.zeros((log_w.size ** 2, 2)),
                               (log_w[:, None] + np.conj(log_w)).ravel()
                               - 0.5 * np.log(det_s), 0.0, 0.0)
        value = 4.0 * math.pi ** 2 * self.hbar * float(total.real)
        if not math.isfinite(value):
            raise Unstable(f"trace-square integral of '{self.label}' is not finite")
        return value


def _log_weight(weight: float) -> complex:
    return complex(np.log(complex(weight)))


def _validate_builtin(state: ChordState) -> ChordState:
    # a builder divides by hbar under np.errstate; what leaves the float
    # range is refused here
    if not all(np.all(np.isfinite(part))
               for part in (state.log_weights, state.form, state.shifts)):
        raise ConfigError(f"state '{state.label}' at hbar = {state.hbar!r} has "
                          f"terms beyond the float range")
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


def _gaussian(mean: np.ndarray, cov: np.ndarray, hbar: float, label: str) -> ChordState:
    """The Gaussian of Wigner mean and covariance C: the one builder of coherent
    and Gaussian states. det C is compared with (hbar/2)^2 as det(C/hbar)/g with
    1/(4 g), g the larger diagonal entry of C/hbar, in floats that cannot
    overflow: below by over 1e-9 relative raises :class:`ConfigError`, within it
    the state is pure. A C/hbar out of the float range leaves the form so."""
    (a, b), (_, d) = [[x / hbar for x in row] for row in cov.tolist()]
    g, pure = max(a, d), False
    if all(map(math.isfinite, (a, b, d))):
        schur, bound = (min(a, d) - b * (b / g), 0.25 / g) if g else (0.0, math.inf)
        if schur < (1.0 - 1e-9) * bound:
            raise ConfigError(f"state '{label}' violates the uncertainty bound: det C "
                              f"/ (hbar/2)^2 = {4.0 * g * schur!r} < 1")
        pure = abs(schur - bound) <= 1e-9 * bound
    off = (0.0 - b) / hbar  # the form J C J^T / hbar^2, with a zero entry +0
    with np.errstate(divide="ignore", over="ignore"):
        state = ChordState(log_weights=[_log_weight(1.0 / (2.0 * math.pi * hbar))],
                           form=[[d / hbar, off], [off, a / hbar]],
                           shifts=[(mean @ J) / hbar], label=label, pure=pure, hbar=hbar)
    return _validate_builtin(state)


def coherent_state(center, hbar: float = 1.0) -> ChordState:
    """Coherent state at ``center`` = (p, q): the Gaussian of covariance (hbar/2) I,
    whose chord function is (1/2 pi hbar) exp(-xi^2/4 hbar + (i/hbar) xi ^ center)."""
    c, hbar = finite_array(center, (2,), "center"), checked_hbar(hbar)
    return _gaussian(c, np.eye(2) * (0.5 * hbar), hbar, f"coherent@({c[0]:g},{c[1]:g})")


def gaussian_state(mean, cov, hbar: float = 1.0) -> ChordState:
    """General Gaussian state with Wigner mean and covariance as given: pure iff
    det cov = (hbar/2)^2, and of purity (hbar/2)/sqrt(det cov)."""
    mean, hbar = finite_array(mean, (2,), "mean"), checked_hbar(hbar)
    return _gaussian(mean, _covariance(cov, "covariance")[0], hbar, "gaussian")


def cat_state(zeta: float, hbar: float = 1.0) -> ChordState:
    """Even cat along q, (|zeta> + |-zeta>)/norm with half-separation ``zeta``.

    The two displaced-Gaussian components at x = (0, ±zeta) interfere; in the
    chord plane that appears as an oscillating central lobe 2 cos(zeta xi_p /
    hbar) e^{-xi^2/4 hbar}, written as two terms with shifts ±(zeta/hbar, 0),
    plus two real coherence lobes at xi = (0, ±2 zeta): the same Gaussian
    with shifts ∓i(0, zeta/hbar) and weight times e^{-zeta^2/hbar}, kept as
    a log weight so that it stays exact where e^{-zeta^2/hbar} underflows.
    The normalization 1/(1 + e^{-zeta^2/hbar}) keeps Wt(0) = 1/(2 pi hbar)
    exactly.
    """
    zeta, hbar = float(finite_array(zeta, (), "cat zeta")), checked_hbar(hbar)
    if zeta < 0.0:
        raise ConfigError("zeta must be nonnegative")
    if not math.isfinite(zeta * zeta / hbar):
        raise ConfigError(f"cat zeta^2/hbar must be finite, got zeta = {zeta!r}")
    z = zeta / hbar
    norm = 1.0 / (1.0 + math.exp(-zeta ** 2 / hbar))
    with np.errstate(divide="ignore", over="ignore"):
        central = _log_weight(0.5 * norm / (2.0 * math.pi * hbar))
        lobe = central - zeta * z
        state = ChordState(
            log_weights=[central, central, lobe, lobe],
            form=np.eye(2) / (2.0 * hbar),
            shifts=[(z, 0.0), (-z, 0.0), (0.0, -1j * z), (0.0, 1j * z)],
            label=f"cat(zeta={zeta:g})", pure=True, hbar=hbar)
    return _validate_builtin(state)


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
        return cat_state(data["zeta"], hbar=hbar)
    if kind == "gaussian":
        _require_keys(data, {"type", "mean", "cov"}, {"cov"}, "gaussian state")
        return gaussian_state(data.get("mean", (0.0, 0.0)), data["cov"], hbar=hbar)
    raise ConfigError(f"unknown state type: {kind!r}")
