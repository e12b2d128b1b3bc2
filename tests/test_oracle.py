"""Tests for the two brute-force reference integrators."""
from __future__ import annotations

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import centre_flow, damping_bath
from lindquad import (ConfigError, FockDensity, GridField, GridTooCoarse,
                      HamiltonianForm, LindbladChannel, OpenSystem,
                      TruncationLeak, Unstable, cat_fock_dim, cat_state,
                      cat_wigner_line, centered_grid, coherent_fock_dim,
                      coherent_state, evolve_wigner_grid, fock_cat,
                      fock_coherent, fock_mean, fock_operators, fock_thermal,
                      fokker_planck_max_dt, gaussian_state,
                      integrate_fock_lindblad, integrate_fokker_planck,
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
], ids=["non-square", "non-finite", "non-hermitian", "zero-hbar",
        "negative-zeta", "negative-nbar", "hbar-mismatch"])
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
    # purity_quadrature audits the Gaussian-term purity only while it takes
    # the chord function as an opaque callable
    tree = ast.parse(Path(oracle.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
    assert not any("states" in name.split(".") for name in names)
