"""Property tests over random systems, frames and sum-of-Gaussian states.

Systems come from the shared random builders in all three regimes (either
sign of the dissipation coefficient), with a random linear Hamiltonian term;
states are cats and squeezed, possibly mixed, Gaussians. Times are scaled by
the stretching rate so hyperbolic frames stay on grids of a few hundred
nodes per axis. The tiled grid evaluators are checked against the per-node
sums they replace, in random symplectic frames and at several hbar.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from audits import affine_flow_expm, damping_matrix_quadrature, purity_quadrature
from conftest import det2, random_hamiltonian, random_symplectic, random_system
from lindquad import (ChordState, GridSpec, HamiltonianForm, J, LindbladChannel,
                      OpenSystem, TruncationLeak, affine_flow, cat_state, centered_grid,
                      coherent_state, damping_matrix, evolve_chord, evolve_wigner_grid,
                      evolved_state, fock_cat, fock_coherent, fock_operators,
                      gaussian_state, integrate_fock_lindblad, photon_bath,
                      positivity_time, purity, reconstruct, reliable_chords,
                      symplectic_transform, wigner_from_fock)
from lindquad.propagator import _reversed_det
from lindquad.states import _tile_size

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)


def _driven_system(regime: str, seed: int) -> OpenSystem:
    rng = np.random.default_rng(seed)
    system = random_system(rng, regime)
    ham = HamiltonianForm(matrix=system.hamiltonian.matrix,
                          linear=rng.normal(size=2))
    return OpenSystem(hamiltonian=ham, channels=system.channels)


systems = st.builds(_driven_system,
                    st.sampled_from(["elliptic", "hyperbolic", "parabolic"]),
                    st.integers(0, 2 ** 32 - 1))

cats = st.builds(cat_state,
                 st.floats(0.0, 2.5))


def _squeezed(r: float, angle: float, mix: float, p: float, q: float):
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    cov = 0.5 * mix * rot @ np.diag([math.exp(2 * r), math.exp(-2 * r)]) @ rot.T
    return gaussian_state((p, q), cov)


squeezed = st.builds(_squeezed, st.floats(0.0, 0.8), st.floats(0.0, math.pi),
                     st.floats(1.0, 2.0), st.floats(-1.0, 1.0),
                     st.floats(-1.0, 1.0))
states = cats | squeezed
times = st.floats(0.05, 1.0)


def _scaled_time(system, t: float) -> float:
    return t / max(1.0, abs(system.sigma))


def _chord_reach(state) -> float:
    """Chord radius beyond which every term is below e^-30 of its peak."""
    a = state.form
    return max(float(np.linalg.norm(np.linalg.solve(a, b.imag)))
               + math.sqrt(60.0 / np.linalg.eigvalsh(a)[0]) for b in state.shifts)


@PROPERTY
@given(systems, states, times)
def test_purity_matches_quadrature_audit(system, state, t) -> None:
    t = _scaled_time(system, t)
    exact = purity(system, state, t)
    audit = purity_quadrature(system, state, t, _chord_reach(state))
    assert abs(exact - audit) <= 1e-7 * audit


@PROPERTY
@given(systems, states, times, st.integers(0, 2 ** 32 - 1))
def test_evolved_chord_function_is_hermitian(system, state, t, seed) -> None:
    t = _scaled_time(system, t)
    xi = np.random.default_rng(seed).normal(scale=2.0, size=(30, 2))
    plus = evolve_chord(system, state, t, xi)
    minus = evolve_chord(system, state, t, -xi)
    assert np.max(np.abs(plus - np.conj(minus))) <= 1e-13 / (2.0 * math.pi)


@PROPERTY
@given(systems, states, times)
def test_evolved_wigner_grid_has_unit_mass(system, state, t) -> None:
    t = _scaled_time(system, t)
    evolved = evolved_state(system, state, t)
    # each Wigner term is centred at hbar Re(b) J^T with covariance
    # hbar^2 J A J^T; the chord reach sets the spacing the grid needs
    half = max(float(np.max(np.abs(b.real @ J.T)))
               + 9.0 * math.sqrt(np.linalg.eigvalsh(evolved.form)[1])
               for b in evolved.shifts)
    spacing = math.pi / (1.1 * _chord_reach(evolved))
    n = 2 * math.ceil(half / spacing) + 1
    assert n <= 801
    field = evolve_wigner_grid(system, state, t, centered_grid((0.0, 0.0), half, n))
    assert abs(field.integral - 1.0) <= 1e-6


@PROPERTY
@given(systems, states, times, st.integers(0, 2 ** 32 - 1))
def test_reconstruction_inverts_evolution(system, state, t, seed) -> None:
    t = _scaled_time(system, t)
    recovered = reconstruct(system, evolved_state(system, state, t), t)
    xi = np.random.default_rng(seed).normal(scale=2.0, size=(200, 2))
    reliable = reliable_chords(system, t, xi)
    error = np.abs(recovered(xi[reliable]) - state(xi[reliable]))
    assert np.max(error, initial=0.0) <= 1e-8 / (2.0 * math.pi)


# ---------------------------------------------------------------------------
# grid evaluators: the tiled sums against the per-node sums, to 1e-12 of the
# field's peak


def _moved(state: ChordState, c: np.ndarray) -> ChordState:
    """``state`` in the frame x' = C x: A -> C^-T A C^-1, b -> C^-T b."""
    cinv = np.linalg.inv(c)
    return ChordState(log_weights=state.log_weights, form=cinv.T @ state.form @ cinv,
                      shifts=state.shifts @ cinv, label=state.label,
                      pure=state.pure, hbar=state.hbar)


def _axes(center, half, shape) -> GridSpec:
    return centered_grid(center, half, shape)


def _centres(state: ChordState) -> tuple[np.ndarray, np.ndarray]:
    """Each term's peak: at hbar Re(b_k) J^T in phase space, and its chord
    modulus at -A^-1 Im(b_k)."""
    return (state.hbar * (state.shifts.real @ J.T),
            -state.shifts.imag @ np.linalg.inv(state.form))


def _assert_grids_match(state: ChordState, wigner_axes, chord_axes) -> None:
    # the peak is the field's, on the grid or at a term's centre
    wigner_at, chord_at = _centres(state)
    nodes = state.wigner(wigner_axes.points())
    tiled = state.wigner_grid(wigner_axes)
    peak = max(np.max(np.abs(nodes)), np.max(np.abs(state.wigner(wigner_at))))
    assert np.max(np.abs(tiled - nodes)) <= 1e-12 * peak
    nodes = state(chord_axes.points())
    tiled = state.chord_grid(chord_axes)
    peak = max(np.max(np.abs(nodes)), np.max(np.abs(state(chord_at))))
    assert np.max(np.abs(tiled - nodes)) <= 1e-12 * peak


def _grids_about_a_term(state: ChordState, k: int, offset, reach, shape):
    """Wigner and chord axes about term k's centres, ``reach`` widths out.

    The widths are those of the Wigner covariance hbar^2 J^T A J and of
    A^-1; ``offset`` moves both centres by that many widths.
    """
    wigner_at, chord_at = _centres(state)
    cov = state.hbar ** 2 * J.T @ state.form @ J
    width = np.sqrt(np.diag(cov))
    chord_width = np.sqrt(np.diag(np.linalg.inv(state.form)))
    offset = np.asarray(offset)
    return (_axes(wigner_at[k] + offset * width, reach * width, shape),
            _axes(chord_at[k] + offset * chord_width, reach * chord_width, shape))


def _squeezed_state(r: float, angle: float, hbar: float) -> ChordState:
    """A pure Gaussian squeezed by r along ``angle``, centred off the origin."""
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    cov = 0.5 * hbar * rot @ np.diag([math.exp(2 * r), math.exp(-2 * r)]) @ rot.T
    return gaussian_state(math.sqrt(hbar) * np.array([1.5, -0.7]), cov, hbar=hbar)


shapes = st.tuples(st.integers(2, 90), st.integers(2, 90))
offsets = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
hbars = st.sampled_from([1.0, 0.05, 3.0])

# Both sums round each exponent to about eps times the size of its parts,
# which for a cat is zeta^2/hbar times the frame's stretch squared, so random
# frames take cats to zeta = 5 sqrt(hbar) and the shear s of the wide-cat
# frames keeps zeta^2 (1 + s^2) <= 1600 hbar, where the per-node sums keep
# 5e-13 of the peak (zeta = 40 sqrt(hbar) with s = 3 takes both past 1e-12).
# Squeezing stays at r <= 1: the rounding of a form of condition number
# e^{4r} along a 45 degree ridge reaches 3e-12 of the peak at r = 3.


@PROPERTY
@given(systems, st.booleans(), st.floats(0.0, 5.0), st.floats(0.0, math.pi), hbars,
       times, st.integers(0, 2 ** 32 - 1), st.integers(0, 3), offsets,
       st.floats(0.5, 12.0), shapes)
def test_grid_evaluators_match_the_per_node_sums(system, cat, size, angle, hbar, t,
                                                 seed, k, offset, reach, shape) -> None:
    # initial and evolved states, from a random system at hbar, in a random
    # symplectic frame
    c = random_symplectic(np.random.default_rng(seed))
    system = symplectic_transform(OpenSystem(hamiltonian=system.hamiltonian,
                                             channels=system.channels, hbar=hbar), c)
    state = (cat_state(size * math.sqrt(hbar), hbar=hbar) if cat
             else _squeezed_state(size / 5.0, angle, hbar))
    state = _moved(state, c)
    evolved = evolved_state(system, state, _scaled_time(system, t))
    k = min(k, evolved.shifts.shape[0] - 1)
    for s in (state, evolved):
        _assert_grids_match(s, *_grids_about_a_term(s, k, offset, reach, shape))


@PROPERTY
@given(st.floats(0.0, 1.0), st.floats(0.0, 3.0), hbars, st.floats(0.0, 0.5),
       st.integers(0, 3), offsets, st.floats(0.5, 12.0), shapes)
@example(1.0, 0.0, 1.0, 0.3, 0, (0.0, 0.0), 12.0, (90, 90))
@example(1.0, 3.0, 1.0, 0.3, 2, (0.0, 0.0), 12.0, (90, 90))
def test_grid_evaluators_hold_for_wide_cats(share, shear, hbar, t, k, offset, reach,
                                            shape) -> None:
    # cats up to zeta = 40 sqrt(hbar), lobes and fringes, decohering under
    # the photon bath in a sheared frame
    zeta = 40.0 * share * math.sqrt(hbar / (1.0 + shear * shear))
    c = np.array([[1.0, 0.0], [shear, 1.0]])
    system = symplectic_transform(photon_bath(gamma=1.0, nbar=0.1, hbar=hbar), c)
    state = _moved(cat_state(zeta, hbar=hbar), c)
    for s in (state, evolved_state(system, state, t)):
        _assert_grids_match(s, *_grids_about_a_term(s, k, offset, reach, shape))


@PROPERTY
@given(st.floats(0.0, 1.0), st.floats(0.0, math.pi), st.floats(0.02, 6.0), shapes,
       offsets)
@example(1.0, math.pi / 4, 4.5, (41, 41), (0.0, 0.0))
def test_grid_evaluators_hold_on_steep_forms(r, angle, spacing, shape, offset) -> None:
    # a squeezed Gaussian on a coarse mesh has a large |F_01| h_u h_v, so
    # tiles shrink to a few nodes and, in the example, to one (the per-node
    # sum); its grid has a node on the centre
    state = _squeezed_state(r, angle, 1.0)
    center = np.array([1.5, -0.7]) + np.asarray(offset)
    half = 0.5 * spacing * (np.array(shape) - 1)
    _assert_grids_match(state, _axes(center, half, shape),
                        _axes(np.asarray(offset), half, shape))
    if (r, spacing) == (1.0, 4.5):
        inv = np.linalg.inv(state.form)
        assert _tile_size(inv[::-1, ::-1], spacing, spacing) < 2.0


@pytest.mark.parametrize("shape", [(2, 2), (2, 77), (77, 2), (65, 129), (130, 67)])
@pytest.mark.parametrize("state", [cat_state(3.0), _squeezed_state(0.4, 0.4, 1.0)],
                         ids=["cat", "squeezed"])
def test_grid_evaluators_hold_on_thin_and_ragged_grids(shape, state) -> None:
    # a sheared frame makes F_01 nonzero, so the larger Wigner grids are cut
    # into tiles of 22 to 34 nodes that do not divide them; the grids sit off
    # the origin
    state = _moved(state, np.array([[1.0, 0.0], [1.5, 1.0]]))
    _assert_grids_match(state, _axes((0.8, -1.1), (5.0, 9.0), shape),
                        _axes((0.3, 0.2), (4.0, 3.0), shape))


# ---------------------------------------------------------------------------
# the damping matrix M(t)


def _scale(m: np.ndarray) -> float:
    return max(1.0, float(np.max(np.abs(m))))


@PROPERTY
@given(systems)
def test_damping_matrix_vanishes_at_zero(system) -> None:
    assert np.all(damping_matrix(system, 0.0) == 0.0)


@PROPERTY
@given(systems, times)
def test_damping_matrix_sign_follows_time(system, t) -> None:
    t = _scaled_time(system, t)
    forward = damping_matrix(system, t)
    reverse = damping_matrix(system, -t)
    assert np.linalg.eigvalsh(forward)[0] >= -1e-12 * _scale(forward)
    assert np.linalg.eigvalsh(reverse)[1] <= 1e-12 * _scale(reverse)


@PROPERTY
@given(systems, times, times)
def test_reversed_determinant_is_nondecreasing(system, t1, t2) -> None:
    early, late = sorted((_scaled_time(system, t1), _scaled_time(system, t2)))
    lo, hi = damping_matrix(system, -early), damping_matrix(system, -late)
    (m00, m01), (_, m11) = hi
    assert det2(lo) <= det2(hi) + 1e-12 * (abs(m00 * m11) + m01 ** 2)


@PROPERTY
@given(systems, times, st.integers(0, 2 ** 32 - 1))
def test_damping_matrix_is_symplectically_covariant(system, t, seed) -> None:
    t = _scaled_time(system, t)
    c = random_symplectic(np.random.default_rng(seed))
    cinv = np.linalg.inv(c)
    m = damping_matrix(system, t)
    moved = damping_matrix(symplectic_transform(system, c), t)
    assert np.max(np.abs(moved - cinv.T @ m @ cinv)) <= 1e-9 * _scale(m)


@PROPERTY
@given(systems, times)
def test_damping_matrix_reversal_identity(system, t) -> None:
    # M(-t) = -back^T M(t) back with back = -J F^T J taken at -t, the
    # identity that makes reconstruction the evolution map at -t
    t = _scaled_time(system, t)
    linear, _ = affine_flow(system, -t)
    back = -J @ linear.T @ J
    reverse = damping_matrix(system, -t)
    expect = -back.T @ damping_matrix(system, t) @ back
    assert np.max(np.abs(reverse - expect)) <= 1e-9 * _scale(reverse)


# ---------------------------------------------------------------------------
# the scalar damping kernel, the closed-form affine offset and the
# threshold search, also on near-parabolic systems where the moment series
# and the eigenbasis meet


def _near_parabolic(det: float, seed: int) -> OpenSystem:
    """A driven random parabolic system whose det H is moved to ``det``."""
    system = _driven_system("parabolic", seed)
    values, vectors = np.linalg.eigh(system.hamiltonian.matrix)
    big = values[np.argmax(np.abs(values))]
    h = vectors @ np.diag([big, det / big]) @ vectors.T
    return OpenSystem(hamiltonian=HamiltonianForm(matrix=h,
                                                  linear=system.hamiltonian.linear),
                      channels=system.channels)


kernel_systems = systems | st.builds(
    _near_parabolic, st.sampled_from([1e-9, -1e-9, 1e-4, -1e-4]),
    st.integers(0, 2 ** 32 - 1))


def _rate(system) -> float:
    return abs(system.sigma) + abs(system.alpha) + 0.1


def _crossed(system, t: float) -> bool:
    """The search's crossing test: det M(-t) - 1/4 above its round-off."""
    det, _, margin = _reversed_det(system, t)
    return det - 0.25 > margin


@PROPERTY
@given(kernel_systems, st.floats(-3.0, 3.0))
def test_damping_kernel_matches_quadrature_audit(system, x) -> None:
    t = x / _rate(system)
    m = damping_matrix(system, t)
    audit = damping_matrix_quadrature(system, t)
    assert np.max(np.abs(m - audit)) <= 1e-9 * _scale(m)


@PROPERTY
@given(kernel_systems, st.floats(-2.0, 2.0))
def test_affine_offset_matches_exponential_audit(system, x) -> None:
    # |t| (|sigma| + |alpha|) <= 2: beyond it the audit's scaling and
    # squaring, not the closed form, drifts past 1e-13
    t = x / _rate(system)
    linear, offset = affine_flow(system, t)
    audit_linear, audit_offset = affine_flow_expm(system, t)
    assert np.linalg.norm(offset - audit_offset) <= 1e-13 * np.linalg.norm(audit_offset)
    assert np.max(np.abs(linear - audit_linear)) <= 1e-13 * np.max(np.abs(audit_linear))


@PROPERTY
@given(kernel_systems)
def test_threshold_brackets_the_crossing(system) -> None:
    result = positivity_time(system)
    if result.reached:
        assert _crossed(system, result.t_p * (1.0 + 1e-12))
        assert not _crossed(system, result.t_p * (1.0 - 1e-12))
        assert result.det_value > 0.25
        # a few halving or doubling steps to bracket t_p, then a few Newton steps
        assert result.iterations <= 30


@PROPERTY
@given(st.floats(0.5, 4.0), st.floats(0.0, 3.0))
def test_photon_bath_threshold_takes_few_evaluations(gamma, nbar) -> None:
    result = positivity_time(photon_bath(gamma=gamma, nbar=nbar))
    assert result.t_p == pytest.approx(math.log1p(1.0 / (2.0 * nbar + 1.0)) / gamma,
                                       rel=1e-12)
    assert result.iterations <= 20


# The paper's weak-coupling threshold laws. det M(-t) = Re(e phi+ phi- +
# f phi0^2) with the symplectic invariants e = det(sigma^2 K + B^T K B) and
# f = det(sigma^2 K - B^T K B), each over 4 sigma^4, computed here from the
# raw channels and H. alpha^2 <= det K = e + f, and e >= 0 when hyperbolic,
# e <= 0 when elliptic, so the coupling kappa = (sqrt|e| + sqrt|f|)/|sigma|
# bounds |alpha/sigma| and the elliptic log1p stays defined:
# - hyperbolic, t_p ~ ln(sigma^2/e)/(2 sigma), off by about alpha/sigma
#   relative;
# - elliptic, t_p ~ ln(1 + alpha/sqrt f)/(2 alpha), off by O(kappa^2) plus
#   the round-off of the phases sigma t_p.
# Scratch sweeps of 9,000 hyperbolic and 12,000 elliptic systems (channels
# scaled by sqrt(eps), eps = 1e-2 to 1e-6) found at worst 0.996 kappa and
# 0.56 (kappa^2 + eps_mach |sigma| t_p); the bounds are twice those.


def _weak_system(regime: str, log_eps: float, seed: int) -> OpenSystem:
    """H with eigenvalues of magnitude 0.25 to 1 (either sign when
    elliptic), one to three channels of standard normal vectors times
    sqrt(eps), in a frame sheared by k in [-3, 3]."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.25, 1.0, size=2)
    sign = rng.choice([-1.0, 1.0])
    values = [a, -b] if regime == "hyperbolic" else [sign * a, sign * b]
    angle = rng.uniform(0.0, math.pi)
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    root = math.sqrt(10.0 ** log_eps)
    channels = tuple(LindbladChannel(l_re=root * rng.normal(size=2),
                                     l_im=root * rng.normal(size=2))
                     for _ in range(rng.integers(1, 4)))
    h = HamiltonianForm(matrix=rot @ np.diag(values) @ rot.T)
    shear = np.array([[1.0, 0.0], [rng.uniform(-3.0, 3.0), 1.0]])
    return symplectic_transform(OpenSystem(hamiltonian=h, channels=channels), shear)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.sampled_from(["hyperbolic", "elliptic"]), st.floats(-6.0, -2.0),
       st.integers(0, 2 ** 32 - 1))
@example("hyperbolic", -6.0, 1)
@example("elliptic", -6.0, 1)
def test_weak_coupling_thresholds_follow_the_paper_laws(regime, log_eps, seed) -> None:
    system = _weak_system(regime, log_eps, seed)
    b = 2.0 * J @ system.hamiltonian.matrix
    s2 = -4.0 * det2(system.hamiltonian.matrix)
    k = sum(np.outer(ch.l_re, ch.l_re) + np.outer(ch.l_im, ch.l_im)
            for ch in system.channels)
    alpha = sum((J @ ch.l_im) @ ch.l_re for ch in system.channels)
    e = det2(s2 * k + b.T @ k @ b) / (4.0 * s2 * s2)
    f = det2(s2 * k - b.T @ k @ b) / (4.0 * s2 * s2)
    rate = math.sqrt(abs(s2))
    kappa = (math.sqrt(abs(e)) + math.sqrt(abs(f))) / rate
    if regime == "hyperbolic":
        law = math.log(s2 / e) / (2.0 * rate)
    else:
        law = math.log1p(alpha / math.sqrt(f)) / (2.0 * alpha)
    result = positivity_time(system, horizon=4.0 * law)
    assert result.reached
    error = abs(result.t_p - law) / result.t_p
    if regime == "hyperbolic":
        assert error <= 2.0 * kappa, (error, kappa)
    else:
        floor = np.finfo(float).eps * rate * result.t_p
        assert error <= 2.0 * (kappa ** 2 + floor), (error, kappa)


# The paper's parabolic law at alpha = 0. With sigma^2 = 0, B^2 = 0 and
# R_tau = I + tau B, so at alpha = 0 M(-t) = -(K t + S t^2/2 + Q t^3/3)
# with S = B^T K + K B and Q = B^T K B: t_p is the first root of
# det(K t + S t^2/2 + Q t^3/3) = 1/4, solved here by bisection from the raw
# H and channels. (d'' = 0 in the paper's table is its closed case
# (3/d'^2)^(1/4).) The root is as ill-conditioned as that determinant
# cancels: kappa = (|a00 a11| + a01^2)/det at the root. A scratch sweep of
# 4,000 systems found at worst 1e-13 + 77 eps_mach kappa (kappa up to
# 5e6); the bound is twice that.


def _parabolic_system(seed: int, drift: bool = False) -> OpenSystem:
    """Rank-one H (eigenvalue of magnitude 0.25 to 1, either sign), one to
    three channels with l'' = c l' (so alpha = 0) of standard normal l' and
    c, in a frame sheared by k in [-3, 3]. With ``drift``, l'' = c l' + d J l'
    with |d| log-uniform in [0.05, 2] and either sign, so each channel adds
    -d |l'|^2 to alpha."""
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, math.pi)
    u = np.array([math.cos(angle), math.sin(angle)])
    h = HamiltonianForm(matrix=rng.choice([-1.0, 1.0]) * rng.uniform(0.25, 1.0)
                        * np.outer(u, u))
    channels = []
    for _ in range(rng.integers(1, 4)):
        l = rng.normal(size=2)
        l_im = rng.normal() * l
        if drift:
            d = math.exp(rng.uniform(math.log(0.05), math.log(2.0)))
            l_im = l_im + rng.choice([-1.0, 1.0]) * d * (J @ l)
        channels.append(LindbladChannel(l_re=l, l_im=l_im))
    shear = np.array([[1.0, 0.0], [rng.uniform(-3.0, 3.0), 1.0]])
    return symplectic_transform(OpenSystem(hamiltonian=h, channels=tuple(channels)),
                                shear)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(0, 2 ** 32 - 1))
def test_parabolic_thresholds_follow_the_cubic_moment_law(seed) -> None:
    system = _parabolic_system(seed)
    b = 2.0 * J @ system.hamiltonian.matrix
    k = sum(np.outer(ch.l_re, ch.l_re) + np.outer(ch.l_im, ch.l_im)
            for ch in system.channels)
    s, q = b.T @ k + k @ b, b.T @ k @ b

    def form(t: float) -> np.ndarray:
        return k * t + s * (t * t / 2.0) + q * (t ** 3 / 3.0)

    lo, hi = 0.0, 1.0
    while det2(form(hi)) <= 0.25:
        lo, hi = hi, 2.0 * hi
        assert hi < 1e6
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if det2(form(mid)) <= 0.25 else (lo, mid)
    a = form(hi)
    kappa = (abs(a[0, 0] * a[1, 1]) + a[0, 1] ** 2) / 0.25
    result = positivity_time(system, horizon=4.0 * hi)
    assert result.reached
    error = abs(result.t_p - hi) / hi
    assert error <= 2e-13 + 154.0 * np.finfo(float).eps * kappa, (error, kappa)


# With alpha != 0 the same expansion holds under the weight e^{2 alpha tau}:
# det M(-t) = det(I0 K + I1 S + I2 Q) with I_n = int_0^t e^{2 alpha tau}
# tau^n dtau, here from a fixed composite 16-node Gauss-Legendre rule of
# panels no longer than 1/|2 alpha| (relative error far below 1e-16), with
# alpha = sum_j (J l''_j) . l'_j from the raw channels. Where alpha < 0 the
# weight decays and det M(-t) can flatten near 1/4, and S is indefinite, so
# the root's condition number takes the entries' magnitudes and the slope:
# kappa = (c00 c11 + c01^2) / (t d det/dt) at the root, with c = I0 |K| +
# I1 |S| + I2 |Q| and d det/dt = tr(adj(a) e^{2 alpha t} R_t^T K R_t). A
# scratch sweep of 24,000 systems (alpha from -28 to 30, t_p up to 543)
# found at worst 1e-13 + 7.4 eps_mach kappa; the bound is twice that.
_LEGENDRE = np.polynomial.legendre.leggauss(16)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.integers(0, 2 ** 32 - 1))
def test_drifting_parabolic_thresholds_follow_the_weighted_moment_law(seed) -> None:
    system = _parabolic_system(seed, drift=True)
    b = 2.0 * J @ system.hamiltonian.matrix
    k = sum(np.outer(ch.l_re, ch.l_re) + np.outer(ch.l_im, ch.l_im)
            for ch in system.channels)
    alpha = sum(float((J @ ch.l_im) @ ch.l_re) for ch in system.channels)
    forms = (k, b.T @ k + k @ b, b.T @ k @ b)

    def form(t: float, parts=forms) -> np.ndarray:
        edges = np.linspace(0.0, t, max(1, math.ceil(abs(2.0 * alpha) * t)) + 1)
        half = 0.5 * np.diff(edges)[:, None]
        tau = (edges[:-1, None] + half * (1.0 + _LEGENDRE[0])).ravel()
        w = (half * _LEGENDRE[1]).ravel() * np.exp(2.0 * alpha * tau)
        return sum((w @ tau ** n) * part for n, part in enumerate(parts))

    lo, hi = 0.0, 1.0
    while det2(form(hi)) <= 0.25:
        lo, hi = hi, 2.0 * hi
        assert hi < 1e4
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if det2(form(mid)) <= 0.25 else (lo, mid)
    a, c, r = form(hi), form(hi, [abs(part) for part in forms]), np.eye(2) + hi * b
    rate = math.exp(2.0 * alpha * hi) * (r.T @ k @ r)
    slope = a[1, 1] * rate[0, 0] + a[0, 0] * rate[1, 1] - 2.0 * a[0, 1] * rate[0, 1]
    kappa = (c[0, 0] * c[1, 1] + c[0, 1] ** 2) / (hi * slope)
    result = positivity_time(system, horizon=4.0 * hi)
    assert result.reached
    error = abs(result.t_p - hi) / hi
    assert error <= 2e-13 + 15.0 * np.finfo(float).eps * kappa, (error, kappa, alpha)


# The paper's headline claim (ROADMAP item 12(a)): once det M(-t) >= 1/4
# the evolved Wigner function of every pure initial state is nonnegative,
# so t_p depends on no state. Systems are the threshold-law draws above, in
# all three regimes (the parabolic ones with and without drift); states are
# coherent, squeezed (r <= 1) and cat (zeta <= 3) states in random
# symplectic frames, displaced by a standard normal vector. At t_p (1 + 1e-9)
# the evolved state is moved to the symplectic frame that makes its
# covariance round, which leaves the values of W alone, and sampled on a
# grid reaching 6 widths past every term's centre, with at least 4 nodes per
# width and 8 per fringe period. Its minimum must be at least -1e-12 of its
# maximum, a round-off bound: the grid holds the per-node sums to 1e-12 of
# the largest value, and those round each term's exponent to about eps times
# its size, below about a hundred here. Examples whose evolved chord form
# has a condition number above 1e12 are skipped, since the dense form has
# then lost its small eigenvalue (ROADMAP item 4). A run of 300
# examples found no value below 0 at t_p (1 + 1e-9), and a ninth of them
# below -1e-12 of the peak at 0.99 t_p.


def _displaced_pure_state(kind: str, seed: int) -> ChordState:
    rng = np.random.default_rng(seed)
    if kind == "coherent":
        state = coherent_state(rng.normal(size=2))
    elif kind == "squeezed":
        state = _squeezed_state(rng.uniform(0.0, 1.0), rng.uniform(0.0, math.pi), 1.0)
    else:
        state = cat_state(rng.uniform(0.0, 3.0))
    moved = _moved(state, random_symplectic(rng))
    return ChordState(log_weights=moved.log_weights, form=moved.form,
                      shifts=moved.shifts + (rng.normal(size=2) @ J) / moved.hbar,
                      label=moved.label, pure=True, hbar=moved.hbar)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.sampled_from(["hyperbolic", "elliptic", "parabolic", "drifting"]),
       st.floats(-6.0, -2.0), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["coherent", "squeezed", "cat"]), st.integers(0, 2 ** 32 - 1))
def test_every_pure_state_is_nonnegative_past_the_threshold(regime, log_eps, seed,
                                                            kind, state_seed) -> None:
    if regime in ("hyperbolic", "elliptic"):
        system = _weak_system(regime, log_eps, seed)
    else:
        system = _parabolic_system(seed, drift=regime == "drifting")
    result = positivity_time(system, horizon=1e9)
    assume(result.reached)
    evolved = evolved_state(system, _displaced_pure_state(kind, state_seed),
                            result.t_p * (1.0 + 1e-9))
    low, high = np.linalg.eigvalsh(evolved.form)
    assume(low > 1e-12 * high)
    # C = (cov / sqrt(det cov))^(-1/2) has det C = 1 and C cov C^T = w^2 I;
    # a term's fringes have wave vector A^-1 Im(b) / hbar
    hbar = evolved.hbar
    values, vectors = np.linalg.eigh(hbar * hbar * (J.T @ evolved.form @ J))
    width = math.sqrt(math.sqrt(values[0] * values[1]))
    white = _moved(evolved, (vectors * (width / np.sqrt(values))) @ vectors.T)
    centres = hbar * (white.shifts.real @ J.T)
    wave = np.max(np.linalg.norm(white.shifts.imag @ np.linalg.inv(white.form),
                                 axis=1)) / hbar
    step = min(0.25 * width, math.pi / (4.0 * wave) if wave > 0.0 else math.inf)
    low_corner = centres.min(axis=0) - 6.0 * width
    high_corner = centres.max(axis=0) + 6.0 * width
    shape = np.ceil((high_corner - low_corner) / step).astype(int) + 1
    field = white.wigner_grid(centered_grid(0.5 * (low_corner + high_corner),
                                            0.5 * (high_corner - low_corner),
                                            tuple(shape.tolist())))
    assert field.min() >= -1e-12 * field.max(), (field.min(), field.max())


# The number-basis oracle against the exact solver beyond the photon bath:
# random H in each regime, one to three random channels, a random drive and
# hbar != 1, for coherent states and cats at t = 0.3 in 40 number states.
# Bounds, stated before any run: 1e-7 for the means, the symmetrised
# covariances and the purity (each against max(1, its largest entry)), and
# 2e-6 of the peak for a cat's Wigner field on a 21 x 21 grid. The oracle
# is the reference only where its basis holds the state: an example is
# rejected when it raises TruncationLeak (more than 1e-8 on the top two
# levels during the run) or ends with more than 1e-11 there, since a
# population of 1e-9 on the top levels moves the covariances by about 5e-8
# and the cat field by up to 2e-5 of its peak.
FOCK_DIM, FOCK_T, FOCK_EDGE = 40, 0.3, 1e-11


def _fock_case(seed: int) -> tuple[OpenSystem, str, object]:
    """A random system (regime, H, drive, one to three channels, hbar in
    [0.5, 1.5]) and a coherent state's centre or a cat's zeta up to 1.5."""
    rng = np.random.default_rng(seed)
    regime = ("elliptic", "hyperbolic", "parabolic")[seed % 3]
    ham = HamiltonianForm(matrix=random_hamiltonian(rng, regime).matrix,
                          linear=rng.normal(scale=0.5, size=2))
    channels = tuple(LindbladChannel(l_re=rng.normal(scale=0.5, size=2),
                                     l_im=rng.normal(scale=0.5, size=2))
                     for _ in range(rng.integers(1, 4)))
    system = OpenSystem(hamiltonian=ham, channels=channels, hbar=rng.uniform(0.5, 1.5))
    if seed // 3 % 2:
        return system, "cat", rng.uniform(0.0, 1.5)
    return system, "coherent", tuple(rng.uniform(-1.5, 1.5, size=2))


def _term_moments(state: ChordState) -> tuple[np.ndarray, np.ndarray]:
    """Wigner mean and covariance of a sum of Gaussian terms: term k has
    mass 2 pi hbar w_k, mean mu_k = hbar b_k J^T and covariance hbar^2 J^T A J."""
    mass = 2.0 * math.pi * state.hbar * state.weights
    mu = state.hbar * state.shifts @ J.T
    mean = mass @ mu
    second = (state.hbar ** 2 * J.T @ state.form @ J
              + np.einsum("k,ki,kj->ij", mass, mu, mu))
    return mean.real, (second - np.outer(mean, mean)).real


def _fock_moments(rho) -> tuple[np.ndarray, np.ndarray]:
    """<x> and the symmetrised covariance <(x_i x_j + x_j x_i)/2> - <x_i><x_j>."""
    ops = fock_operators(rho.dim, rho.hbar)
    mean = np.array([np.trace(rho.matrix @ x).real for x in ops])
    second = np.array([[0.5 * np.trace(rho.matrix @ (a @ b + b @ a)).real
                        for b in ops] for a in ops])
    return mean, second - np.outer(mean, mean)


def _fock_oracle_errors(system: OpenSystem, kind: str, value) -> dict:
    """Errors of the exact solver against the number-basis master equation
    for a coherent state at ``value`` = (p, q) or a cat of zeta ``value``;
    :class:`TruncationLeak` when the basis does not hold the state."""
    hbar = system.hbar
    if kind == "coherent":
        state = coherent_state(value, hbar=hbar)
        rho0 = fock_coherent(value, FOCK_DIM, hbar)
    else:
        state = cat_state(value, hbar=hbar)
        rho0 = fock_cat(value, FOCK_DIM, hbar)
    rho = integrate_fock_lindblad(system, rho0, FOCK_T)
    if np.trace(rho.matrix[-2:, -2:]).real > FOCK_EDGE:
        raise TruncationLeak("the top two levels hold more than the reference allows")
    evolved = evolved_state(system, state, FOCK_T)
    mean, cov = _term_moments(evolved)
    fock_mean, fock_cov = _fock_moments(rho)
    errors = {
        "mean": float(np.max(np.abs(mean - fock_mean))) / max(1.0, np.max(np.abs(mean))),
        "cov": float(np.max(np.abs(cov - fock_cov))) / max(1.0, np.max(np.abs(cov))),
        "purity": abs(purity(system, state, FOCK_T) - rho.purity),
    }
    if kind == "cat":
        half = 4.0 * np.sqrt(np.diag(cov))
        grid = centered_grid(mean, half, 21)
        exact = evolved.wigner_grid(grid)
        errors["grid"] = float(np.max(np.abs(exact - wigner_from_fock(rho, grid).values))
                               / np.max(np.abs(exact)))
    return errors


@settings(derandomize=True, deadline=None, max_examples=20)
@given(st.integers(0, 2 ** 32 - 1))
def test_exact_solver_matches_the_number_basis_master_equation(seed) -> None:
    try:
        errors = _fock_oracle_errors(*_fock_case(seed))
    except TruncationLeak:
        assume(False)
    assert errors["mean"] <= 1e-7
    assert errors["cov"] <= 1e-7
    assert errors["purity"] <= 1e-7
    assert errors.get("grid", 0.0) <= 2e-6
