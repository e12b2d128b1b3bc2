"""Tests for the stochastic-trajectory correspondence."""
from __future__ import annotations

import math

import numpy as np
import pytest

from audits import SingularFrame, momentum_dissipation_frame
from conftest import random_system
from lindquad import (ConfigError, HamiltonianForm, J, LindbladChannel,
                      NotPositiveDefinite, OpenSystem, Unstable, ensemble_moments,
                      exact_moments, photon_bath, simulate, symplectic_transform)


def test_diffusion_matches_noise_matrix() -> None:
    rng = np.random.default_rng(50)
    for regime in ("elliptic", "hyperbolic"):
        sys = random_system(rng, regime, alpha=0.2)
        expect = 0.5 * sys.hbar * J @ sys.k_matrix @ J.T
        noise = sys.noise_vectors
        assert np.allclose(0.5 * noise.T @ noise, expect, atol=1e-12)
        assert np.allclose(sys.diffusion, expect, atol=1e-12)


def test_noise_vectors_per_channel_component() -> None:
    # one row per real and per imaginary component, zero rows kept
    ch = LindbladChannel(l_re=[1.0, 0.0])
    sys = OpenSystem(hamiltonian=HamiltonianForm(matrix=np.eye(2)),
                     channels=(ch,))
    assert sys.noise_vectors.shape == (2, 2)
    assert np.allclose(sys.noise_vectors[1], 0.0)


def test_simulation_is_reproducible() -> None:
    sys = photon_bath(gamma=1.0, nbar=0.5)
    mean0 = np.array([1.0, 0.0])
    cov0 = 0.5 * np.eye(2)
    a = simulate(sys, mean0, cov0, 0.5, 1e-2, 500, seed=7)
    b = simulate(sys, mean0, cov0, 0.5, 1e-2, 500, seed=7)
    assert np.array_equal(a.paths, b.paths)
    c = simulate(sys, mean0, cov0, 0.5, 1e-2, 500, seed=8)
    assert not np.array_equal(a.paths, c.paths)


def test_path_count_does_not_reshuffle_draws() -> None:
    # path i consumes the same noise regardless of how many paths run
    sys = photon_bath(gamma=1.0)
    small = simulate(sys, np.zeros(2), np.eye(2), 0.3, 1e-2, 300, seed=3)
    large = simulate(sys, np.zeros(2), np.eye(2), 0.3, 1e-2, 1500, seed=3)
    assert np.array_equal(large.paths[:300], small.paths)


def test_store_stride_subsamples_the_same_run() -> None:
    sys = photon_bath(gamma=1.0, nbar=0.2)
    full = simulate(sys, np.zeros(2), np.eye(2), 0.4, 1e-2, 200, seed=5)
    thin = simulate(sys, np.zeros(2), np.eye(2), 0.4, 1e-2, 200, seed=5,
                    store_stride=8)
    for idx, t in enumerate(thin.times):
        full_idx = int(np.argmin(np.abs(full.times - t)))
        assert full.times[full_idx] == pytest.approx(t, abs=1e-12)
        assert np.array_equal(thin.paths[:, idx], full.paths[:, full_idx])
    assert thin.times[-1] == pytest.approx(0.4)


def test_moments_match_exact_evolution() -> None:
    ham = HamiltonianForm(matrix=[[0.5, 0.1], [0.1, 0.4]], linear=[0.3, -0.2])
    c = np.sqrt(0.4)
    sys = OpenSystem(hamiltonian=ham,
                     channels=(LindbladChannel(l_re=[0.0, c], l_im=[c, 0.0]),))
    mean0 = np.array([0.8, -0.5])
    cov0 = np.array([[0.6, 0.1], [0.1, 0.3]])
    t = 0.7
    ens = simulate(sys, mean0, cov0, t, 5e-4, 40_000, seed=11)
    mean, cov = ensemble_moments(ens)
    exact_mean, exact_cov = exact_moments(sys, mean0, cov0, t)
    n = 40_000
    for i in range(2):
        se = np.sqrt(exact_cov[i, i] / n)
        assert abs(mean[i] - exact_mean[i]) < 5 * se
        for j in range(2):
            se_c = np.sqrt((exact_cov[i, i] * exact_cov[j, j]
                            + exact_cov[i, j] ** 2) / n)
            assert abs(cov[i, j] - exact_cov[i, j]) < 5 * se_c + 2e-3


def test_exact_moments_photon_bath_closed_form() -> None:
    gamma, nbar, hbar = 1.2, 0.7, 1.0
    sys = photon_bath(gamma=gamma, nbar=nbar)
    cov0 = (hbar / 2.0) * np.eye(2)
    for t in (0.4, 1.5):
        _, cov = exact_moments(sys, np.zeros(2), cov0, t)
        decay = np.exp(-gamma * t)
        expect = (decay * hbar / 2.0
                  + (1 - decay) * (2 * nbar + 1) * hbar / 2.0) * np.eye(2)
        assert np.allclose(cov, expect, atol=1e-10)


def test_euler_bias_shrinks_with_dt() -> None:
    sys = photon_bath(gamma=2.0, nbar=0.0)
    mean0 = np.zeros(2)
    cov0 = np.eye(2)
    t = 0.6
    _, exact_cov = exact_moments(sys, mean0, cov0, t)

    def cov_error(dt: float) -> float:
        ens = simulate(sys, mean0, cov0, t, dt, 300_000, seed=21)
        _, cov = ensemble_moments(ens)
        return float(np.max(np.abs(cov - exact_cov)))

    coarse = cov_error(0.03)
    fine = cov_error(0.0075)
    assert fine < coarse / 2.0


def _moment_z_scores(ens, system, mean0, cov0) -> np.ndarray:
    """|sample - exact| / standard error of (mean_p, mean_q, cov_pp, cov_pq,
    cov_qq) at every stored time after t = 0, shape (n_stored - 1, 5)."""
    n = ens.paths.shape[0]
    rows = []
    for idx in range(1, ens.times.size):
        mean, cov = ensemble_moments(ens, idx)
        exact_mean, exact_cov = exact_moments(system, mean0, cov0, ens.times[idx])
        var = np.diag(exact_cov)
        se_cov = np.sqrt((np.outer(var, var) + exact_cov ** 2) / n)
        rows.append(np.concatenate([np.abs(mean - exact_mean) / np.sqrt(var / n),
                                    (np.abs(cov - exact_cov) / se_cov)[np.triu_indices(2)]]))
    return np.array(rows)


def _driven_system() -> OpenSystem:
    ham = HamiltonianForm(matrix=[[0.5, 0.1], [0.1, 0.4]], linear=[0.3, -0.2])
    c = np.sqrt(0.4)
    return OpenSystem(hamiltonian=ham,
                      channels=(LindbladChannel(l_re=[0.0, c], l_im=[c, 0.0]),))


@pytest.mark.parametrize("regime, seed", [("elliptic", 4), ("hyperbolic", 5),
                                          ("driven", 6)])
def test_exact_scheme_moments_match_at_every_stored_time(regime, seed) -> None:
    system = (_driven_system() if regime == "driven"
              else random_system(np.random.default_rng(60 + seed), regime, alpha=0.3))
    mean0 = np.array([0.8, -0.5])
    cov0 = np.array([[0.6, 0.1], [0.1, 0.3]])
    # 13 steps with stride 4: stored gaps 4, 4, 4 and a short last one
    ens = simulate(system, mean0, cov0, 1.3, 0.1, 20_000,
                   seed=seed, store_stride=4, scheme="exact")
    assert ens.scheme == "exact"
    assert np.allclose(ens.times, [0.0, 0.4, 0.8, 1.2, 1.3])
    assert np.max(_moment_z_scores(ens, system, mean0, cov0)) < 5.0


def test_exact_scheme_paths_do_not_depend_on_path_count() -> None:
    system = _driven_system()
    small = simulate(system, np.zeros(2), np.eye(2), 0.6, 0.1, 300, seed=3,
                     store_stride=2, scheme="exact")
    large = simulate(system, np.zeros(2), np.eye(2), 0.6, 0.1, 1500, seed=3,
                     store_stride=2, scheme="exact")
    assert np.array_equal(large.paths[:300], small.paths)


def test_exact_transitions_compose_across_strides() -> None:
    # one jump over k steps has the law of k jumps of one step
    system = photon_bath(gamma=1.0, nbar=0.4)
    mean0, cov0 = np.array([1.0, -0.5]), np.array([[0.7, 0.15], [0.15, 0.4]])
    n = 20_000
    fine = simulate(system, mean0, cov0, 1.0, 0.05, n, seed=8, scheme="exact")
    coarse = simulate(system, mean0, cov0, 1.0, 0.05, n, seed=9, store_stride=7,
                      scheme="exact")
    for idx, t in enumerate(coarse.times):
        fine_idx = int(np.argmin(np.abs(fine.times - t)))
        assert fine.times[fine_idx] == pytest.approx(t, abs=1e-12)
        mean_a, cov_a = ensemble_moments(fine, fine_idx)
        mean_b, cov_b = ensemble_moments(coarse, idx)
        _, exact_cov = exact_moments(system, mean0, cov0, t)
        var = np.diag(exact_cov)
        # two independent samples: the difference has twice the variance
        assert np.all(np.abs(mean_a - mean_b) < 5.0 * np.sqrt(2.0 * var / n))
        se_cov = np.sqrt(2.0 * (np.outer(var, var) + exact_cov ** 2) / n)
        assert np.all(np.abs(cov_a - cov_b) < 5.0 * se_cov)


def test_exact_scheme_samples_a_singular_damping_matrix() -> None:
    # H = 0 keeps the rank-one K = l l^T, so M(t) = t K is singular and has
    # no Cholesky factor; only q diffuses
    system = OpenSystem(hamiltonian=HamiltonianForm(matrix=np.zeros((2, 2))),
                        channels=(LindbladChannel(l_re=[1.0, 0.0]),))
    mean0, cov0 = np.array([0.3, -0.2]), 0.5 * np.eye(2)
    ens = simulate(system, mean0, cov0, 1.0, 0.25, 20_000,
                   seed=2, scheme="exact")
    assert np.array_equal(ens.paths[:, :, 0],
                          np.broadcast_to(ens.paths[:, :1, 0], ens.paths.shape[:2]))
    assert np.max(_moment_z_scores(ens, system, mean0, cov0)) < 5.0


def test_exact_scheme_needs_the_system() -> None:
    system = photon_bath(gamma=1.0)
    with pytest.raises(ConfigError, match="scheme"):
        simulate(system, np.zeros(2), np.eye(2), 0.2, 0.1, 10, seed=0, scheme="milstein")


@pytest.mark.parametrize("scheme, dt", [("exact", 100.0), ("euler-maruyama", 0.1)])
def test_overflowing_paths_raise_unstable(scheme, dt) -> None:
    # sigma = 5: the saddle carries every path past the float range by t = 200
    saddle = OpenSystem(hamiltonian=HamiltonianForm(matrix=[[0.0, 2.5], [2.5, 0.0]]))
    with pytest.raises(Unstable, match="overflow"):
        simulate(saddle, np.zeros(2), np.eye(2), 200.0, dt, 16,
                 seed=0, scheme=scheme)


def test_initial_conditions() -> None:
    sys = photon_bath(gamma=1.0)
    mean0 = np.array([0.3, -0.8])
    ens = simulate(sys, mean0, np.zeros((2, 2)), 0.2, 1e-2, 50, seed=1)
    # zero covariance: every path starts exactly at the mean
    assert np.array_equal(ens.paths[:, 0],
                          np.broadcast_to(mean0, (50, 2)))
    mean, cov = ensemble_moments(ens, index=0)
    assert np.allclose(mean, mean0)
    assert np.allclose(cov, 0.0)


def test_simulation_validation() -> None:
    sys = photon_bath(gamma=1.0)
    mean0, cov0 = np.zeros(2), np.eye(2)
    with pytest.raises(ConfigError):
        simulate(sys, mean0, cov0, -0.1, 1e-2, 10, seed=0)
    with pytest.raises(ConfigError):
        simulate(sys, mean0, cov0, 0.1, 0.0, 10, seed=0)
    with pytest.raises(ConfigError):
        simulate(sys, mean0, cov0, 0.1, 1e-2, 0, seed=0)
    with pytest.raises(ConfigError):
        simulate(sys, mean0, cov0, 0.1, 1e-2, 10, seed=-1)
    with pytest.raises(ConfigError):
        simulate(sys, mean0, cov0, 0.1, 1e-2, 10, seed=0, store_stride=0)
    with pytest.raises(NotPositiveDefinite):
        simulate(sys, mean0, [[1.0, 2.0], [2.0, 1.0]], 0.1, 1e-2, 10, seed=0)


def test_seeds_fill_one_philox_key_word() -> None:
    # the Philox key is (seed, block), two uint64 words: 2**64 - 1 is the
    # largest seed, and anything beyond is refused before a draw
    sys = photon_bath(gamma=1.0)
    ens = simulate(sys, np.zeros(2), np.eye(2), 0.1, 0.05, 4, seed=2 ** 64 - 1)
    assert ens.seed == 2 ** 64 - 1
    assert np.all(np.isfinite(ens.paths))
    for seed in (2 ** 64, 2.0 ** 64, math.inf, math.nan):
        with pytest.raises(ConfigError, match="seed"):
            simulate(sys, np.zeros(2), np.eye(2), 0.1, 0.05, 4, seed=seed)


@pytest.mark.parametrize("scheme", ["euler-maruyama", "exact"])
def test_one_path_has_no_sample_covariance(scheme) -> None:
    # ddof = 1 needs two paths; one path once reported a zero covariance
    ens = simulate(photon_bath(gamma=1.0), np.zeros(2), np.eye(2), 0.2, 0.1, 1,
                   seed=0, scheme=scheme)
    assert ens.paths.shape == (1, 3, 2)
    for index in (0, -1):
        with pytest.raises(ConfigError, match="2 paths"):
            ensemble_moments(ens, index)


@pytest.mark.parametrize("mean0, cov0", [
    ([np.nan, 0.0], np.eye(2)),
    ([0.0, np.inf], np.eye(2)),
    ([0.0, 0.0], [[1.0, np.nan], [np.nan, 1.0]]),
    ([0.0, 0.0], [[np.inf, 0.0], [0.0, 1.0]]),
    ([0.0, 0.0], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
])
def test_non_finite_initial_moments_are_config_errors(mean0, cov0) -> None:
    # NaN once surfaced as an overflow at t = 0, inf as a RuntimeWarning, and
    # exact_moments returned NaN moments
    system = photon_bath(gamma=1.0)
    with pytest.raises(ConfigError):
        simulate(system, mean0, cov0, 0.1, 0.05, 8, seed=0)
    with pytest.raises(ConfigError):
        exact_moments(system, mean0, cov0, 0.1)


def test_initial_covariance_may_be_singular_but_not_negative() -> None:
    system = photon_bath(gamma=1.0, nbar=0.5)
    mean0 = np.array([0.3, -0.8])
    for cov0 in ([[1.0, 0.0], [0.0, 0.0]], [[1e-300, 0.0], [0.0, 0.0]],
                 [[1.0, 1.0], [1.0, 1.0]]):
        ens = simulate(system, mean0, cov0, 0.2, 0.1, 4000, seed=3, scheme="exact")
        start = ens.paths[:, 0]
        # the draws lie on the covariance's range through the mean
        null = np.linalg.eigh(np.asarray(cov0))[1][:, 0]
        assert np.max(np.abs((start - mean0) @ null)) < 1e-12
        assert np.allclose(np.cov(start.T), cov0, atol=0.1)
        _, cov_t = exact_moments(system, mean0, cov0, 0.2)
        assert np.all(np.linalg.eigvalsh(cov_t) > 0.0)
    for cov0 in ([[1.0, 0.0], [0.0, -1e-6]], [[1.0, 2.0], [2.0, 1.0]]):
        with pytest.raises(NotPositiveDefinite):
            simulate(system, mean0, cov0, 0.2, 0.1, 8, seed=3)
        with pytest.raises(NotPositiveDefinite):
            exact_moments(system, mean0, cov0, 0.2)
    with pytest.raises(NotPositiveDefinite):
        exact_moments(system, mean0, [[1.0, 0.5], [0.2, 1.0]], 0.2)


def test_definite_initial_covariance_draws_through_cholesky() -> None:
    # seeded ensembles stay bit-identical: x0 = mean + z L^T, L L^T = cov
    system = photon_bath(gamma=1.0)
    mean0, cov0 = np.array([0.1, 0.2]), np.array([[1.0, 0.3], [0.3, 0.5]])
    ens = simulate(system, mean0, cov0, 0.1, 0.1, 100, seed=7, scheme="exact")
    z = np.random.Generator(np.random.Philox(key=np.array([7, 0], dtype=np.uint64)))
    expect = mean0 + z.standard_normal((1024, 2)) @ np.linalg.cholesky(cov0).T
    assert np.array_equal(ens.paths[:, 0], expect[:100])


def test_storage_guard_suggests_stride() -> None:
    sys = photon_bath(gamma=1.0)
    with pytest.raises(ConfigError, match="store_stride"):
        simulate(sys, np.zeros(2), np.eye(2), 10.0, 1e-5, 1_000_000, seed=0)


@pytest.mark.parametrize("scheme", ["euler-maruyama", "exact"])
def test_simulation_rejects_non_finite_times(scheme) -> None:
    # NaN t once stored one time, infinite dt took one step of size t
    system = photon_bath(gamma=1.0)
    for t, dt in ((np.nan, 0.1), (np.inf, 0.1), (1.0, np.nan), (1.0, np.inf),
                  (1e10, 5e-324)):
        with pytest.raises(ConfigError):
            simulate(system, np.zeros(2), np.eye(2), t, dt, 8, seed=0, scheme=scheme)


def test_storage_guard_runs_before_the_stored_times_are_listed() -> None:
    # 1e15 steps: listing them first would exhaust memory
    system = photon_bath(gamma=1.0)
    with pytest.raises(ConfigError, match="store_stride"):
        simulate(system, np.zeros(2), np.eye(2), 1e12, 1e-3, 8, seed=0)


def test_momentum_dissipation_frame_isolates_damping() -> None:
    ham = HamiltonianForm(matrix=[[0.6, 0.15], [0.15, 0.35]])
    c = np.sqrt(0.5)
    sys = OpenSystem(hamiltonian=ham,
                     channels=(LindbladChannel(l_re=[0.0, c], l_im=[c, 0.0]),))
    frame_sys, c_mat = momentum_dissipation_frame(sys)
    # the frame change is itself a symplectic transform of the system
    direct = symplectic_transform(sys, c_mat)
    assert np.allclose(frame_sys.hamiltonian.matrix,
                       direct.hamiltonian.matrix, atol=1e-12)
    assert np.allclose(frame_sys.k_matrix, direct.k_matrix, atol=1e-12)
    # drift splits as 2 J Hbar - diag(2 alpha, 0) where the effective
    # Hamiltonian keeps the mass and cross terms and only renormalizes the
    # potential curvature
    alpha = sys.alpha
    h = ham.matrix
    hbar_eff = -J @ (frame_sys.drift_matrix + np.diag([2.0 * alpha, 0.0])) / 2.0
    assert np.allclose(hbar_eff, hbar_eff.T, atol=1e-12)
    assert hbar_eff[0, 0] == pytest.approx(h[0, 0], abs=1e-12)
    assert hbar_eff[0, 1] == pytest.approx(h[0, 1], abs=1e-12)
    expect_22 = h[1, 1] + (alpha ** 2 + 4 * alpha * h[0, 1]) / (4 * h[0, 0])
    assert hbar_eff[1, 1] == pytest.approx(expect_22, abs=1e-12)


def test_momentum_dissipation_frame_edge_cases() -> None:
    lossless = OpenSystem(hamiltonian=HamiltonianForm(matrix=np.eye(2)))
    same, c_mat = momentum_dissipation_frame(lossless)
    assert np.allclose(c_mat, np.eye(2))
    assert np.allclose(same.hamiltonian.matrix, np.eye(2))

    c = np.sqrt(0.5)
    degenerate = OpenSystem(
        hamiltonian=HamiltonianForm(matrix=[[0.0, 0.0], [0.0, 1.0]]),
        channels=(LindbladChannel(l_re=[0.0, c], l_im=[c, 0.0]),))
    with pytest.raises(SingularFrame):
        momentum_dissipation_frame(degenerate)
