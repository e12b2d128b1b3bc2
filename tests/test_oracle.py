"""Tests for the two brute-force reference integrators."""
from __future__ import annotations

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from audits import cat_wigner_line, fock_mean, fock_thermal
from conftest import centre_flow, damping_bath, dense_transport, rk4_factor
from lindquad import (ConfigError, FockDensity, GridField, GridTooCoarse,
                      HamiltonianForm, LindbladChannel, OpenSystem, TruncationLeak,
                      Unstable, cat_fock_dim, cat_state, centered_grid,
                      coherent_fock_dim, coherent_state, evolve_wigner_grid, fock_cat,
                      fock_coherent, fock_operators, fokker_planck_max_dt,
                      gaussian_state, integrate_fock_lindblad, integrate_fokker_planck,
                      photon_bath, purity, wigner_from_fock)
from lindquad import oracle


# ---------------------------------------------------------------------------
# number-basis side


def test_operators_satisfy_commutator() -> None:
    for hbar in (1.0, 0.5):
        p, q = fock_operators(24, hbar=hbar)
        comm = q @ p - p @ q
        # truncation corrupts only the last diagonal entry
        block = comm[:-1, :-1]
        assert np.max(np.abs(block - 1j * hbar * np.eye(23))) < 1e-12
        assert np.max(np.abs(p - p.conj().T)) < 1e-12
        assert np.max(np.abs(q - q.conj().T)) < 1e-12


def test_coherent_density_orientation() -> None:
    center = (0.8, -0.6)
    rho = fock_coherent(center, coherent_fock_dim(center))
    assert rho.trace == pytest.approx(1.0, abs=1e-12)
    assert rho.purity == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(fock_mean(rho), center, atol=1e-9)


def test_coherent_density_needs_enough_levels() -> None:
    with pytest.raises(TruncationLeak):
        fock_coherent((3.0, 0.0), 6)
    with pytest.raises(TruncationLeak, match="cat"):
        fock_cat(3.0, 10)


def test_fock_builders_default_to_their_basis_size() -> None:
    for hbar in (1.0, 0.5):
        center = (0.8, -0.6)
        assert np.array_equal(
            fock_coherent(center, hbar=hbar).matrix,
            fock_coherent(center, coherent_fock_dim(center, hbar), hbar).matrix)
        assert np.array_equal(fock_cat(2.0, hbar=hbar).matrix,
                              fock_cat(2.0, cat_fock_dim(2.0, hbar), hbar).matrix)


@pytest.mark.parametrize("build", [
    lambda: FockDensity(np.ones((2, 3))),
    lambda: FockDensity(np.array([[np.nan, 0.0], [0.0, 1.0]])),
    lambda: FockDensity(np.array([[1.0, 1j], [1j, 0.0]])),
    lambda: FockDensity(np.eye(2), hbar=0.0),
    lambda: fock_cat(-1.0, 10),
    lambda: fock_thermal(-1.0, 10),
    lambda: integrate_fock_lindblad(photon_bath(gamma=1.0),
                                    fock_coherent((0.5, 0.0), 20, hbar=0.5), 0.1),
    lambda: fock_coherent((0.0, 1e200)),
], ids=["non-square", "non-finite", "non-hermitian", "zero-hbar",
        "negative-zeta", "negative-nbar", "hbar-mismatch", "overflowing-center"])
def test_number_basis_inputs_are_validated(build) -> None:
    with pytest.raises(ConfigError):
        build()


def test_integrators_return_the_initial_data_at_t_zero() -> None:
    sys = photon_bath(gamma=1.0, nbar=0.3)
    grid = centered_grid((0.0, 0.0), (6.0, 6.0), (33, 33))
    initial = _coherent_field((0.5, 0.0), grid)
    assert np.array_equal(integrate_fokker_planck(sys, initial, 0.0).values,
                          initial.values)
    rho0 = fock_coherent((0.5, 0.0), 20)
    rho = integrate_fock_lindblad(sys, rho0, 0.0)
    assert np.array_equal(rho.matrix, rho0.matrix)
    assert rho.matrix is not rho0.matrix


def test_thermal_density_purity() -> None:
    for nbar in (0.5, 2.0):
        rho = fock_thermal(nbar, 80)
        assert rho.trace == pytest.approx(1.0, abs=1e-12)
        assert rho.purity == pytest.approx(1.0 / (2.0 * nbar + 1.0), rel=1e-8)


def test_wigner_synthesis_coherent() -> None:
    center = (0.7, 0.3)
    rho = fock_coherent(center, 30)
    grid = centered_grid(center, (4.0, 4.0), (41, 41))
    field = wigner_from_fock(rho, grid)
    expect = coherent_state(center).wigner(grid.points())
    assert np.max(np.abs(field.values - expect)) < 1e-12
    assert field.integral == pytest.approx(1.0, abs=1e-6)


def test_wigner_synthesis_cat() -> None:
    zeta = 1.5
    rho = fock_cat(zeta, cat_fock_dim(zeta))
    grid = centered_grid((0.0, 0.0), (5.0, 5.0), (41, 41))
    field = wigner_from_fock(rho, grid)
    expect = cat_state(zeta).wigner(grid.points())
    assert np.max(np.abs(field.values - expect)) < 1e-12


def test_wigner_synthesis_thermal() -> None:
    nbar = 1.2
    rho = fock_thermal(nbar, 90)
    grid = centered_grid((0.0, 0.0), (5.0, 5.0), (31, 31))
    field = wigner_from_fock(rho, grid)
    expect = gaussian_state((0.0, 0.0),
                            (2 * nbar + 1) / 2.0 * np.eye(2)).wigner(grid.points())
    assert np.max(np.abs(field.values - expect)) < 1e-12


def test_lindblad_integration_preserves_coherent_states() -> None:
    # pure loss maps coherent states to coherent states on the spiral orbit
    sys = photon_bath(gamma=1.0, nbar=0.0, omega=1.0)
    center = np.array([1.2, 0.4])
    rho0 = fock_coherent(center, 30)
    for t in (0.3, 0.9):
        rho_t = integrate_fock_lindblad(sys, rho0, t)
        assert rho_t.trace == pytest.approx(1.0, abs=1e-9)
        assert rho_t.purity == pytest.approx(1.0, abs=1e-8)
        assert np.allclose(fock_mean(rho_t), centre_flow(sys, t, center),
                           atol=1e-8)


def test_lindblad_integration_mean_with_linear_drive() -> None:
    ham = HamiltonianForm(matrix=[[0.5, 0.0], [0.0, 0.5]], linear=[0.3, -0.4])
    c = np.sqrt(0.35)
    from lindquad import LindbladChannel

    sys = OpenSystem(hamiltonian=ham,
                     channels=(LindbladChannel(l_re=[0.0, c], l_im=[c, 0.0]),))
    rho0 = fock_coherent((0.5, 0.0), 34)
    t = 0.6
    rho_t = integrate_fock_lindblad(sys, rho0, t)
    assert np.allclose(fock_mean(rho_t), centre_flow(sys, t, (0.5, 0.0)),
                       atol=1e-7)


def test_lindblad_integration_matches_fringe_line() -> None:
    sys = damping_bath(gamma=1.0)
    rho0 = fock_cat(2.0, cat_fock_dim(2.0))
    t = 0.3
    rho_t = integrate_fock_lindblad(sys, rho0, t, dt=2e-3)
    grid = centered_grid((0.0, 0.0), (4.0, 0.5), (61, 3))
    field = wigner_from_fock(rho_t, grid)
    expect = cat_wigner_line(2.0, 1.0, 0.0, t, grid.p_axis)
    assert np.max(np.abs(field.values[:, 1] - expect)) < 1e-8


def test_lindblad_integration_purity_with_thermal_bath() -> None:
    sys = photon_bath(gamma=1.0, nbar=0.5)
    state = coherent_state((0.6, 0.0))
    rho0 = fock_coherent((0.6, 0.0), 40)
    for t in (0.25, 0.8):
        rho_t = integrate_fock_lindblad(sys, rho0, t)
        assert rho_t.purity == pytest.approx(purity(sys, state, t), abs=1e-8)


def test_lindblad_integration_detects_truncation_leak() -> None:
    sys = photon_bath(gamma=1.0, nbar=1.0)  # gain populates high levels
    rho0 = fock_coherent((0.0, 1.5), 12)
    with pytest.raises(TruncationLeak):
        integrate_fock_lindblad(sys, rho0, 3.0)


def test_lindblad_integration_detects_instability() -> None:
    sys = photon_bath(gamma=1.0, nbar=0.0)
    rho0 = fock_coherent((0.5, 0.0), 20)
    # dt far beyond the RK4 stability limit: of its 200 steps, the run
    # stops at a periodic check well before the last
    with np.errstate(all="ignore"), pytest.raises(Unstable) as info:
        integrate_fock_lindblad(sys, rho0, 100.0, dt=0.5)
    step, steps = map(int, str(info.value).rsplit("step ", 1)[1].split("/"))
    assert steps == 200
    assert step < steps
    assert step % oracle._CHECK_EVERY == 0


def test_lindblad_integration_lets_a_peak_grow_under_decay() -> None:
    # loss from |alpha|^2 = 9 piles population into rho_00, which passes
    # four times the initial peak long before the run ends; every entry
    # stays below the trace
    sys = photon_bath(gamma=1.0, nbar=0.0)
    center = (0.0, math.sqrt(18.0))
    rho0 = fock_coherent(center)
    assert rho0.dim == 53
    t = 3.0
    rho_t = integrate_fock_lindblad(sys, rho0, t)
    assert abs(rho_t.matrix[0, 0]) > 4.0 * np.max(np.abs(rho0.matrix))
    grid = centered_grid((0.0, 0.0), (5.0, 5.0), (41, 41))
    exact = evolve_wigner_grid(sys, coherent_state(center), t, grid)
    assert np.max(np.abs(wigner_from_fock(rho_t, grid).values
                         - exact.values)) < 1e-7


def test_lindblad_integration_matches_literal_generator() -> None:
    # the effective-Hamiltonian form against the dissipator written out
    # term by term, stepped by the same RK4 with the same step
    hbar = 0.5
    sys = OpenSystem(hamiltonian=HamiltonianForm(matrix=[[0.6, 0.2], [0.2, 0.4]],
                                                 linear=[0.3, -0.2]),
                     channels=(LindbladChannel(l_re=[0.3, 0.2], l_im=[-0.1, 0.4]),
                               LindbladChannel(l_re=[0.0, 0.3], l_im=[0.2, 0.0])),
                     hbar=hbar)
    rho0 = fock_coherent((0.4, -0.3), 24, hbar)
    p, q = fock_operators(rho0.dim, hbar)
    h, b = sys.hamiltonian.matrix, sys.hamiltonian.linear
    ham = (h[0, 0] * p @ p + h[0, 1] * (p @ q + q @ p) + h[1, 1] * q @ q
           + b[0] * p + b[1] * q)
    chans = [(c.l_re[0] + 1j * c.l_im[0]) * p + (c.l_re[1] + 1j * c.l_im[1]) * q
             for c in sys.channels]

    def rhs(rho):
        out = (-1j / hbar) * (ham @ rho - rho @ ham)
        for c in chans:
            dd = c.conj().T @ c
            out += (0.5 / hbar) * (2.0 * c @ rho @ c.conj().T - dd @ rho - rho @ dd)
        return out

    t, steps = 0.2, 20
    expect, h_t = rho0.matrix, t / steps
    for _ in range(steps):
        k1 = rhs(expect)
        k2 = rhs(expect + 0.5 * h_t * k1)
        k3 = rhs(expect + 0.5 * h_t * k2)
        k4 = rhs(expect + h_t * k3)
        expect = expect + (h_t / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    got = integrate_fock_lindblad(sys, rho0, t, dt=h_t).matrix
    assert np.max(np.abs(got - expect)) < 1e-13


# ---------------------------------------------------------------------------
# density-equation side


def _coherent_field(center, grid) -> GridField:
    return GridField(spec=grid,
                     values=coherent_state(center).wigner(grid.points()))


def test_density_integration_conserves_mass() -> None:
    sys = photon_bath(gamma=1.0, nbar=0.5)
    grid = centered_grid((0.0, 0.0), (6.0, 6.0), (65, 65))
    initial = _coherent_field((1.2, 0.4), grid)
    out = integrate_fokker_planck(sys, initial, 0.25)
    assert out.integral == pytest.approx(initial.integral, abs=1e-9)


def test_density_integration_matches_exact_solution() -> None:
    sys = photon_bath(gamma=1.0, nbar=0.5)
    state = coherent_state((1.2, 0.4))
    grid = centered_grid((0.0, 0.0), (6.0, 6.0), (65, 65))
    t = 0.25
    approx = integrate_fokker_planck(sys, GridField(spec=grid,
                                                    values=state.wigner(grid.points())), t)
    exact = evolve_wigner_grid(sys, state, t, grid)
    assert np.max(np.abs(approx.values - exact.values)) < 5e-4


def test_density_integration_is_fourth_order() -> None:
    sys = photon_bath(gamma=1.0, nbar=0.5)
    state = coherent_state((1.2, 0.4))
    t = 0.2
    errors = {}
    for n in (33, 65):
        grid = centered_grid((0.0, 0.0), (6.0, 6.0), (n, n))
        approx = integrate_fokker_planck(
            sys, GridField(spec=grid, values=state.wigner(grid.points())), t,
            dt=2e-4)
        exact = evolve_wigner_grid(sys, state, t, grid)
        errors[n] = float(np.max(np.abs(approx.values - exact.values)))
    order = np.log2(errors[33] / errors[65])
    assert 3.2 < order < 4.8


def test_density_integration_dt_bound() -> None:
    sys = photon_bath(gamma=1.0)
    grid = centered_grid((0.0, 0.0), (6.0, 6.0), (65, 65))
    bound = fokker_planck_max_dt(sys, grid)
    assert bound > 0.0
    finer = centered_grid((0.0, 0.0), (6.0, 6.0), (129, 129))
    assert fokker_planck_max_dt(sys, finer) < bound
    initial = _coherent_field((0.0, 0.0), grid)
    with pytest.raises(ConfigError):
        integrate_fokker_planck(sys, initial, 0.1, dt=2.0 * bound)


def test_density_integration_needs_room() -> None:
    sys = photon_bath(gamma=1.0)
    grid = centered_grid((0.0, 0.0), (2.5, 2.5), (33, 33))
    initial = _coherent_field((1.8, 0.0), grid)  # mass piled on the edge
    with pytest.raises(GridTooCoarse):
        integrate_fokker_planck(sys, initial, 0.2)


def test_density_integration_flags_non_finite_fields() -> None:
    sys = photon_bath(gamma=1.0)
    grid = centered_grid((0.0, 0.0), (6.0, 6.0), (33, 33))
    values = coherent_state((0.0, 0.0)).wigner(grid.points())
    values[16, 16] = np.nan
    with pytest.raises(Unstable):
        integrate_fokker_planck(sys, GridField(spec=grid, values=values), 0.1)


def test_density_integration_lets_a_contracting_field_peak() -> None:
    # a wide Gaussian contracting under loss: the peak rises fourfold while
    # the L1 norm stays put, and the run must not read that as instability
    sys = OpenSystem(hamiltonian=HamiltonianForm(matrix=0.5 * np.eye(2)),
                     channels=(LindbladChannel(l_re=[0.0, 1.0], l_im=[1.0, 0.0]),))
    state = gaussian_state((0.0, 0.0), 2.0 * np.eye(2))
    grid = centered_grid((0.0, 0.0), (10.0, 10.0), (129, 129))
    t = 2.0
    initial = evolve_wigner_grid(sys, state, 0.0, grid)
    out = integrate_fokker_planck(sys, initial, t)
    assert np.max(out.values) > 2.0 * np.max(initial.values)
    assert out.integral == pytest.approx(initial.integral, abs=1e-9)
    exact = evolve_wigner_grid(sys, state, t, grid)
    assert np.max(np.abs(out.values - exact.values)) < 1e-3


def test_integrators_reject_non_finite_dt() -> None:
    # NaN fails every comparison, so the stability test alone cannot catch it
    sys = photon_bath(gamma=1.0)
    grid = centered_grid((0.0, 0.0), (6.0, 6.0), (33, 33))
    initial = _coherent_field((0.0, 0.0), grid)
    rho0 = fock_coherent((0.5, 0.0), 20)
    for dt in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            integrate_fokker_planck(sys, initial, 0.5, dt=dt)
        with pytest.raises(ConfigError):
            integrate_fock_lindblad(sys, rho0, 0.5, dt=dt)


def test_integrators_reject_non_finite_t() -> None:
    sys = photon_bath(gamma=1.0)
    grid = centered_grid((0.0, 0.0), (6.0, 6.0), (33, 33))
    initial = _coherent_field((0.0, 0.0), grid)
    rho0 = fock_coherent((0.5, 0.0), 20)
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError):
            integrate_fokker_planck(sys, initial, t)
        with pytest.raises(ConfigError):
            integrate_fock_lindblad(sys, rho0, t)


def test_integrators_refuse_runs_beyond_the_step_budget() -> None:
    # t = 1e6 on a 33^2 photon-bath grid plans ~1e8 RK4 steps: refused at once
    sys = photon_bath(gamma=1.0)
    grid = centered_grid((0.0, 0.0), (6.0, 6.0), (33, 33))
    initial = _coherent_field((0.0, 0.0), grid)
    rho0 = fock_coherent((0.5, 0.0), 20)
    with pytest.raises(ConfigError, match="budget"):
        integrate_fokker_planck(sys, initial, 1e6)
    with pytest.raises(ConfigError, match="budget"):
        integrate_fock_lindblad(sys, rho0, 1e6)
    # a tiny explicit step counts against the same budget
    with pytest.raises(ConfigError, match="budget"):
        integrate_fock_lindblad(sys, rho0, 1.0, dt=1e-7)


def test_density_integration_without_transport_takes_one_step() -> None:
    # no drift and no diffusion: the default step bound is infinite
    still = OpenSystem(hamiltonian=HamiltonianForm(matrix=np.zeros((2, 2))))
    grid = centered_grid((0.0, 0.0), (6.0, 6.0), (33, 33))
    initial = _coherent_field((0.5, 0.0), grid)
    assert math.isinf(fokker_planck_max_dt(still, grid))
    out = integrate_fokker_planck(still, initial, 2.0)
    assert np.array_equal(out.values, initial.values)


def _skew_system() -> OpenSystem:
    """Driven elliptic system with one channel whose diffusion has D_pq != 0."""
    return OpenSystem(
        hamiltonian=HamiltonianForm(matrix=[[0.6, 0.2], [0.2, 0.4]],
                                    linear=[0.3, -0.2]),
        channels=(LindbladChannel(l_re=[0.3, 0.2], l_im=[-0.1, 0.4]),))


def test_density_integration_with_cross_diffusion_is_fourth_order() -> None:
    sys = _skew_system()
    assert sys.diffusion[0, 1] != 0.0
    assert np.all(sys.drift_offset != 0.0)
    state = coherent_state((1.2, 0.4))
    t = 0.2
    errors = {}
    for n in (41, 81):
        grid = centered_grid((0.0, 0.0), (6.0, 6.0), (n, n))
        approx = integrate_fokker_planck(
            sys, GridField(spec=grid, values=state.wigner(grid.points())), t,
            dt=2e-4)
        exact = evolve_wigner_grid(sys, state, t, grid)
        errors[n] = float(np.max(np.abs(approx.values - exact.values)))
    order = np.log2(errors[41] / errors[81])
    assert 3.2 < order < 4.8
    assert errors[81] < 2e-4


def test_density_integration_with_cross_diffusion_conserves_mass() -> None:
    sys = _skew_system()
    grid = centered_grid((0.0, 0.0), (6.0, 6.0), (65, 65))
    initial = _coherent_field((1.2, 0.4), grid)
    out = integrate_fokker_planck(sys, initial, 0.25)
    assert out.integral == pytest.approx(initial.integral, abs=1e-9)


def _stencil_rhs(system: OpenSystem, grid):
    """The transport right-hand side from padded shifts and separate
    derivative stencils on every call: the reference the assembled operator
    is pinned to."""

    def shifts(w, axis):
        pad = [(0, 0), (0, 0)]
        pad[axis] = (2, 2)
        p, n = np.pad(w, pad), w.shape[axis]
        return [p[(slice(None),) * axis + (slice(k, k + n),)] for k in range(5)]

    def d1(w, axis, step):
        m2, m1, _, p1, p2 = shifts(w, axis)
        return (m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * step)

    def d2(w, axis, step):
        m2, m1, c, p1, p2 = shifts(w, axis)
        return (-m2 + 16.0 * m1 - 30.0 * c + 16.0 * p1 - p2) / (12.0 * step ** 2)

    d_p, d_q = grid.spacing
    diff = system.diffusion
    vel = grid.points() @ system.drift_matrix.T + system.drift_offset
    v_p, v_q = vel[..., 0], vel[..., 1]

    def rhs(field):
        out = -d1(v_p * field, 0, d_p) - d1(v_q * field, 1, d_q)
        if diff[0, 0] != 0.0:
            out += diff[0, 0] * d2(field, 0, d_p)
        if diff[1, 1] != 0.0:
            out += diff[1, 1] * d2(field, 1, d_q)
        if diff[0, 1] != 0.0:
            out += 2.0 * diff[0, 1] * d1(d1(field, 1, d_q), 0, d_p)
        return out

    return rhs


_REGIMES = {"elliptic": [[0.5, 0.1], [0.1, 0.7]],
            "hyperbolic": [[0.3, 0.5], [0.5, 0.1]],
            "parabolic": [[0.5, 0.25], [0.25, 0.125]]}


def _pinned_system(regime: str, cross: bool) -> OpenSystem:
    channels = (_skew_system().channels if cross
                else photon_bath(gamma=0.8, nbar=0.3).channels)
    return OpenSystem(hamiltonian=HamiltonianForm(matrix=_REGIMES[regime],
                                                  linear=[0.2, -0.1]),
                      channels=channels)


@pytest.mark.parametrize("cross", [False, True])
@pytest.mark.parametrize("regime", sorted(_REGIMES))
def test_transport_operator_matches_stencil_reference(regime, cross) -> None:
    sys = _pinned_system(regime, cross)
    assert (sys.diffusion[0, 1] != 0.0) == cross
    for shape, half in (((37, 53), (5.0, 6.5)), ((61, 29), (7.0, 4.0))):
        grid = centered_grid((0.3, -0.2), half, shape)
        field = cat_state(1.0).wigner(grid.points())
        expect = _stencil_rhs(sys, grid)(field)
        got = oracle._transport_operator(sys, grid)(field)
        assert np.max(np.abs(got - expect)) < 1e-13 * np.max(np.abs(expect))


@pytest.mark.parametrize("cross", [False, True])
@pytest.mark.parametrize("regime", sorted(_REGIMES))
def test_density_integration_matches_stencil_reference(regime, cross) -> None:
    sys = _pinned_system(regime, cross)
    grid = centered_grid((0.0, 0.0), (6.0, 7.0), (41, 57))
    initial = _coherent_field((0.6, -0.3), grid)
    t = 0.2
    steps = math.ceil(t / fokker_planck_max_dt(sys, grid))
    rhs = _stencil_rhs(sys, grid)
    expect, h = initial.values, t / steps
    for _ in range(steps):
        k1 = rhs(expect)
        k2 = rhs(expect + 0.5 * h * k1)
        k3 = rhs(expect + 0.5 * h * k2)
        k4 = rhs(expect + h * k3)
        expect = expect + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    got = integrate_fokker_planck(sys, initial, t).values
    assert np.max(np.abs(got - expect)) < 1e-12 * np.max(np.abs(expect))


# ---------------------------------------------------------------------------
# the default step


def _old_max_dt(system: OpenSystem, grid) -> float:
    """The earlier default step: 0.1 h^2/|D| and 0.25 h/v per axis."""
    d_p, d_q = grid.spacing
    d_norm = float(np.linalg.norm(system.diffusion, 2))
    corners = np.array([[p, q] for p in grid.p_axis[[0, -1]]
                        for q in grid.q_axis[[0, -1]]])
    v = np.max(np.abs(corners @ system.drift_matrix.T + system.drift_offset),
               axis=0)
    bounds = [0.1 * min(d_p, d_q) ** 2 / d_norm if d_norm else math.inf]
    bounds += [0.25 * h / s for h, s in zip((d_p, d_q), v) if s]
    return min(bounds)


_DIFFUSION_ONLY = OpenSystem(
    hamiltonian=HamiltonianForm(matrix=np.zeros((2, 2))),
    channels=(LindbladChannel(l_re=[0.6, 0.3], l_im=[0.0, 0.0]),
              LindbladChannel(l_re=[-0.2, 0.5], l_im=[0.0, 0.0])))
_ROTATION = OpenSystem(hamiltonian=HamiltonianForm(matrix=0.5 * np.eye(2)))


def _step_systems() -> dict:
    systems = {f"{regime}-{'cross' if cross else 'diag'}":
               _pinned_system(regime, cross)
               for regime in sorted(_REGIMES) for cross in (False, True)}
    systems["diffusion-only"] = _DIFFUSION_ONLY
    systems["rotation"] = _ROTATION
    return systems


@pytest.mark.parametrize("name", sorted(_step_systems()))
def test_default_step_is_rk4_stable(name) -> None:
    # the assembled operator as a dense matrix, one unit vector at a time,
    # on an anisotropic grid of 391 nodes: RK4 at the default step may not
    # amplify any of its eigenmodes
    sys = _step_systems()[name]
    grid = centered_grid((0.3, -0.2), (4.0, 6.5), (23, 17))
    assert grid.spacing[0] != grid.spacing[1]
    lam = np.linalg.eigvals(dense_transport(sys, grid))
    dt = fokker_planck_max_dt(sys, grid)
    assert np.max(np.abs(rk4_factor(dt * lam))) <= 1.0 + 1e-12


def _worst_symbol_factor(c_diff: float, c_adv: float) -> float:
    """Largest |P| over the frozen-coefficient symbols at the step
    min(c_diff h^2/|D|, c_adv h/v). For wavenumbers (k_p, k_q) the symbol
    lies in [-x, 0] x [-y, y] with x = c_diff (|D2(k_p)| + |D2(k_q)|) and
    y = c_adv (|D1(k_p)| + |D1(k_q)|); |P| peaks on the two far edges."""
    k = np.linspace(0.0, math.pi, 91)
    d2 = (30.0 - 32.0 * np.cos(k) + 2.0 * np.cos(2.0 * k)) / 12.0
    d1 = (8.0 * np.sin(k) - np.sin(2.0 * k)) / 6.0
    # D1^2 <= |D2| keeps the cross term's share inside x
    assert np.all(d1 ** 2 <= d2 + 1e-15)
    x = (c_diff * (d2[:, None] + d2[None, :])).ravel()
    y = (c_adv * (d1[:, None] + d1[None, :])).ravel()
    share = np.linspace(0.0, 1.0, 51)[:, None]
    return max(float(np.max(np.abs(rk4_factor(-x + 1j * share * y)))),
               float(np.max(np.abs(rk4_factor(-share * x + 1j * y)))))


def test_default_step_constants_sit_inside_the_symbol_bound() -> None:
    # read both constants back from the step rule on a square grid
    grid = centered_grid((0.0, 0.0), (4.0, 4.0), (33, 33))
    h = grid.spacing[0]
    c_diff = (fokker_planck_max_dt(_DIFFUSION_ONLY, grid)
              * float(np.linalg.norm(_DIFFUSION_ONLY.diffusion, 2)) / h ** 2)
    c_adv = fokker_planck_max_dt(_ROTATION, grid) * 4.0 / h  # speed 4 at corners
    assert c_diff == pytest.approx(0.2, rel=1e-12)
    assert c_adv == pytest.approx(0.75, rel=1e-12)
    assert _worst_symbol_factor(c_diff, c_adv) <= 1.0 + 1e-12
    assert _worst_symbol_factor(c_diff, 1.0) > 1.6
    assert _worst_symbol_factor(0.25, c_adv) > 1.01


def test_default_step_keeps_the_error_of_the_old_step() -> None:
    # the zeta = 2 cat of the oracle comparisons: a third of the steps
    # leaves the error against the exact field where it was
    sys = photon_bath(gamma=1.0, nbar=0.1)
    state = cat_state(2.0)
    grid = centered_grid((0.0, 0.0), (7.0, 7.0), (129, 129))
    t = 0.3
    initial = evolve_wigner_grid(sys, state, 0.0, grid)
    exact = evolve_wigner_grid(sys, state, t, grid).values
    old_dt = _old_max_dt(sys, grid)
    assert t / old_dt > 2.9 * math.ceil(t / fokker_planck_max_dt(sys, grid))
    errors = [float(np.max(np.abs(
        integrate_fokker_planck(sys, initial, t, dt=dt).values - exact)))
        for dt in (None, old_dt)]
    assert abs(errors[0] - errors[1]) <= 0.01 * errors[1]


def test_default_step_is_never_below_the_old_rule() -> None:
    systems = list(_step_systems().values()) + [_skew_system(),
                                                photon_bath(gamma=1.0, nbar=0.1)]
    for sys in systems:
        for center, half, shape in (((0.0, 0.0), (6.0, 6.0), (65, 65)),
                                    ((0.3, -0.2), (4.0, 6.5), (23, 17)),
                                    ((-1.0, 2.0), (9.0, 3.0), (41, 97))):
            grid = centered_grid(center, half, shape)
            assert fokker_planck_max_dt(sys, grid) >= _old_max_dt(sys, grid)


def _wigner_from_fock_scipy(rho, grid) -> np.ndarray:
    """The number-basis Wigner kernel summed term by term with scipy's
    generalized Laguerre polynomials: the reference for the recurrence."""
    from scipy.special import eval_genlaguerre

    pts = grid.points()
    z = (pts[..., 1] + 1j * pts[..., 0]) / math.sqrt(2.0 * rho.hbar)
    y = 4.0 * np.abs(z) ** 2
    m = rho.matrix
    out = np.zeros(grid.shape)
    for n in range(rho.dim):
        out += m[n, n].real * ((-1.0) ** n) * eval_genlaguerre(n, 0, y)
    for k in range(1, rho.dim):
        power = (2.0 * np.conj(z)) ** k
        for n in range(rho.dim - k):
            if m[n + k, n] == 0:
                continue
            scale = ((-1.0) ** n) * math.exp(
                0.5 * (math.lgamma(n + 1) - math.lgamma(n + k + 1)))
            out += 2.0 * (m[n + k, n] * scale * power
                          * eval_genlaguerre(n, k, y)).real
    return np.exp(-2.0 * np.abs(z) ** 2) / (math.pi * rho.hbar) * out


@pytest.mark.parametrize("kind, param, hbar", [
    ("coherent", (2.0, -1.5), 1.0), ("coherent", (0.6, 0.9), 0.5),
    ("cat", 1.0, 1.0), ("cat", 2.0, 1.0), ("cat", 4.0, 1.0)])
def test_wigner_synthesis_recurrence_matches_scipy(kind, param, hbar) -> None:
    # coherent states fill every diagonal of rho, cats the even ones; all but
    # the dim-84 cat are first evolved so the entries are generic
    if kind == "cat":
        dim = cat_fock_dim(param, hbar)
        rho = fock_cat(param, dim, hbar)
    else:
        dim = coherent_fock_dim(param, hbar)
        rho = fock_coherent(param, dim, hbar)
    bath = OpenSystem(hamiltonian=HamiltonianForm(matrix=[[0.5, 0.1], [0.1, 0.5]]),
                      channels=photon_bath(gamma=0.8, nbar=0.2).channels,
                      hbar=hbar)
    if dim < 60:
        rho = integrate_fock_lindblad(bath, rho, 0.2)
    grid = centered_grid((0.0, 0.0), (7.0, 7.0), (33, 33))
    field = wigner_from_fock(rho, grid).values
    expect = _wigner_from_fock_scipy(rho, grid)
    assert np.max(np.abs(field - expect)) < 1e-12 * np.max(np.abs(expect))


@pytest.mark.parametrize("dim", [2, 3, 9, 24, 41, 60])
def test_wigner_synthesis_of_random_densities_matches_scipy(dim) -> None:
    # generic Hermitian rho fill every entry; hbar and the grid's centre,
    # spacings and (non-square) shape vary with the seed
    rng = np.random.default_rng(dim)
    hbar = float(rng.uniform(0.3, 2.0))
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    rho = FockDensity(matrix=m / np.trace(m).real, hbar=hbar)
    reach = math.sqrt((2 * dim + 1) * hbar)
    n_p = int(rng.integers(9, 24))
    grid = centered_grid(rng.uniform(-1.0, 1.0, 2),
                         reach * rng.uniform(0.5, 1.2, 2),
                         (n_p, n_p + int(rng.integers(1, 8))))
    field = wigner_from_fock(rho, grid).values
    expect = _wigner_from_fock_scipy(rho, grid)
    assert np.max(np.abs(field - expect)) < 1e-12 * np.max(np.abs(expect))


def test_wigner_synthesis_in_a_dim_200_basis() -> None:
    # the outer Gauss-Hermite weights of 399 nodes underflow and e^{x^2}
    # overflows; their product is never formed
    grid = centered_grid((0.3, -0.2), (12.0, 10.0), (31, 27))
    nbar = 1.2
    thermal = wigner_from_fock(fock_thermal(nbar, 200), grid).values
    expect = gaussian_state((0.0, 0.0),
                            (2 * nbar + 1) / 2.0 * np.eye(2)).wigner(grid.points())
    assert np.max(np.abs(thermal - expect)) < 1e-12
    center = (3.0, -4.0)
    coherent = wigner_from_fock(fock_coherent(center, 200), grid).values
    assert np.all(np.isfinite(coherent))
    expect = coherent_state(center).wigner(grid.points())
    assert np.max(np.abs(coherent - expect)) < 1e-12


def test_wigner_synthesis_memory_is_bounded() -> None:
    # the q rows go in blocks: the whole d = 84 table on 513 rows would
    # be about 58 MB
    rho = fock_cat(4.0)
    grid = centered_grid((0.0, 0.0), 9.0, 513)
    wigner_from_fock(rho, centered_grid((0.0, 0.0), 9.0, 5))  # node cache
    tracemalloc.start()
    try:
        wigner_from_fock(rho, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 36e6


def test_wigner_synthesis_refuses_bases_beyond_its_range() -> None:
    grid = centered_grid((0.0, 0.0), 5.0, 5)
    with pytest.raises(ConfigError, match="dim <= 500"):
        wigner_from_fock(fock_thermal(1.0, 501), grid)


# ---------------------------------------------------------------------------
# independence


def test_oracle_imports_neither_propagator_nor_analysis() -> None:
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported.update(f"{node.module or ''}.{alias.name}"
                            for alias in node.names)
    parts = {part for name in imported for part in name.split(".")}
    assert not parts & {"propagator", "analysis"}


def test_oracle_imports_no_state_terms() -> None:
    # the number-basis routes check the Gaussian-term evolution only while
    # they never see its terms
    tree = ast.parse(Path(oracle.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
    assert not any("states" in name.split(".") for name in names)


def test_audits_import_neither_solver_nor_state_code() -> None:
    # the test-side audits keep the oracle's independence; purity_quadrature
    # audits the Gaussian-term purity only while it takes the chord function
    # as an opaque callable
    tree = ast.parse((Path(__file__).resolve().parent / "audits.py").read_text())
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    assert {name for name in modules if name.split(".")[0] == "lindquad"} <= {
        "lindquad._quadrature", "lindquad.errors", "lindquad.model", "lindquad.oracle"}
    assert not modules & {"conftest", "solver_audits"}
