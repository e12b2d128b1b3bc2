"""Tests for the two brute-force reference integrators."""
from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

from conftest import damping_bath
from lindquad import (CatParameters, ConfigError, GridField, GridTooCoarse,
                      HamiltonianForm, OpenSystem, TruncationLeak, Unstable,
                      cat_fock_dim, cat_state, cat_wigner_line, centered_grid,
                      coherent_fock_dim, coherent_state, evolve_wigner_grid,
                      fock_cat, fock_coherent, fock_mean, fock_operators,
                      fock_thermal, fokker_planck_max_dt, gaussian_state,
                      integrate_fock_lindblad, integrate_fokker_planck,
                      photon_bath, point_flow, purity, wigner_from_fock)
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
    expect = cat_state(CatParameters(zeta=zeta)).wigner(grid.points())
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
        assert np.allclose(fock_mean(rho_t), point_flow(sys, t, center),
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
    assert np.allclose(fock_mean(rho_t), point_flow(sys, t, (0.5, 0.0)),
                       atol=1e-7)


def test_lindblad_integration_matches_fringe_line() -> None:
    params = CatParameters(zeta=2.0, gamma=1.0, nbar=0.0)
    sys = damping_bath(gamma=1.0)
    rho0 = fock_cat(2.0, cat_fock_dim(2.0))
    t = 0.3
    rho_t = integrate_fock_lindblad(sys, rho0, t, dt=2e-3)
    grid = centered_grid((0.0, 0.0), (4.0, 0.5), (61, 3))
    field = wigner_from_fock(rho_t, grid)
    expect = cat_wigner_line(params, t, grid.p_axis)
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
    # dt far beyond the RK4 stability limit; blow-up surfaces at the end check
    with np.errstate(all="ignore"), pytest.raises(Unstable):
        integrate_fock_lindblad(sys, rho0, 100.0, dt=0.5, check_every=10 ** 6)


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
