"""Property tests over random systems, frames and sum-of-Gaussian states.

Systems come from the shared random builders in all three regimes (either
sign of the dissipation coefficient), with a random linear Hamiltonian term;
states are cats and squeezed, possibly mixed, Gaussians. Times are scaled by
the stretching rate so hyperbolic frames stay on grids of a few hundred
nodes per axis.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import det2, random_symplectic, random_system
from lindquad import (HamiltonianForm, J, OpenSystem,
                      affine_flow, affine_flow_expm, cat_state, centered_grid,
                      damping_matrices, damping_matrix,
                      damping_matrix_quadrature, evolve_chord,
                      evolve_wigner_grid, evolved_state, gaussian_state,
                      photon_bath, positivity_time, purity, purity_quadrature,
                      reconstruct, reliable_chords, symplectic_transform)
from lindquad.propagator import _reversed_dets

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
# the batched damping kernel, the closed-form affine offset and the
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
    det, _, margin = _reversed_dets(system, np.array([t]))[0]
    return det - 0.25 > margin


@PROPERTY
@given(kernel_systems, st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=12))
def test_batched_damping_matrices_equal_per_time_calls(system, xs) -> None:
    ts = [x / _rate(system) for x in xs]
    batch = damping_matrices(system, ts)
    for t, m in zip(ts, batch):
        assert np.array_equal(m, damping_matrix(system, t))


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
        # about 17 typically: two scan batches and a few Newton steps
        assert result.iterations <= 30


@PROPERTY
@given(st.floats(0.5, 4.0), st.floats(0.0, 3.0))
def test_photon_bath_threshold_takes_few_evaluations(gamma, nbar) -> None:
    result = positivity_time(photon_bath(gamma=gamma, nbar=nbar))
    assert result.t_p == pytest.approx(math.log1p(1.0 / (2.0 * nbar + 1.0)) / gamma,
                                       rel=1e-12)
    assert result.iterations <= 20
