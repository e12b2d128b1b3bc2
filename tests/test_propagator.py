"""Tests for flows, damping matrices and chord/Wigner evolution."""
from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import (centre_flow, damping_bath, det2, orbit,
                      random_symplectic, random_system)
from lindquad import (ChordState, ConfigError, GridTooCoarse,
                      HamiltonianForm, J, LindbladChannel, OpenSystem,
                      Unstable, affine_flow, cat_state, cat_wigner_line, centered_grid,
                      chord_pde_residual, coherent_state, damping_matrix,
                      damping_matrix_quadrature, evolve_chord,
                      evolve_wigner_grid, evolved_state, exact_moments,
                      gaussian_state, photon_bath, symplectic_transform)


def _driven_oscillator() -> OpenSystem:
    """H = (p^2 + q^2)/2 + q with one damping channel (alpha = 0.2)."""
    c = np.sqrt(0.2)
    return OpenSystem(
        hamiltonian=HamiltonianForm(matrix=0.5 * np.eye(2), linear=[0.0, 1.0]),
        channels=(LindbladChannel(l_re=[0.0, c], l_im=[c, 0.0]),))


def _random_hamiltonians(rng: np.random.Generator, n: int) -> list[HamiltonianForm]:
    """Mix of regimes, including nearly degenerate determinants."""
    out = []
    for i in range(n):
        if i % 7 == 3:
            # near-parabolic: det ~ 1e-9, stresses the small-frequency branch
            eps = rng.choice([-1e-9, 1e-9])
            h = np.array([[rng.uniform(0.3, 1.5), 0.0], [0.0, 0.0]])
            h[1, 1] = eps / h[0, 0]
            theta = rng.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(theta), -np.sin(theta)],
                            [np.sin(theta), np.cos(theta)]])
            out.append(HamiltonianForm(matrix=rot @ h @ rot.T))
        else:
            m = rng.normal(size=(2, 2))
            out.append(HamiltonianForm(matrix=0.5 * (m + m.T)))
    return out


# ---------------------------------------------------------------------------
# linear flows


def test_flow_matches_matrix_exponential() -> None:
    rng = np.random.default_rng(10)
    for ham in _random_hamiltonians(rng, 60):
        b = 2.0 * J @ ham.matrix
        for t in (-1.3, 0.37, 2.0):
            r = orbit(ham, t)
            expect = expm(b * t)
            scale = max(1.0, float(np.max(np.abs(expect))))
            assert np.max(np.abs(r - expect)) < 1e-11 * scale


def test_flow_group_properties() -> None:
    rng = np.random.default_rng(11)
    for ham in _random_hamiltonians(rng, 10):
        r1 = orbit(ham, 0.6)
        r2 = orbit(ham, -0.35)
        r12 = orbit(ham, 0.25)
        assert np.allclose(r1 @ r2, r12, atol=1e-12 * max(1, np.abs(r12).max()))
        assert np.linalg.det(r1) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(r1.T @ J @ r1 - J)) < 1e-12
    assert np.allclose(orbit(ham, 0.0), np.eye(2))


def test_flow_is_continuous_across_parabolic() -> None:
    base = np.array([[0.8, 0.0], [0.0, 0.0]])
    exact = orbit(HamiltonianForm(matrix=base), 1.7)
    for eps in (-1e-13, 1e-13):
        h = base.copy()
        h[1, 1] = eps
        near = orbit(HamiltonianForm(matrix=h), 1.7)
        assert np.max(np.abs(near - exact)) < 1e-10


def test_point_flow_linear_potential() -> None:
    # H = p^2/2 + q gives the classical free fall p_t = p - t,
    # q_t = q + p t - t^2/2
    ham = HamiltonianForm(matrix=[[0.5, 0.0], [0.0, 0.0]], linear=[0.0, 1.0])
    sys = OpenSystem(hamiltonian=ham)
    x0 = np.array([0.7, -1.2])
    for t in (0.5, 1.8, -0.9):
        got = centre_flow(sys, t, x0)
        expect = np.array([x0[0] - t,
                           x0[1] + x0[0] * t - 0.5 * t ** 2])
        assert np.allclose(got, expect, atol=1e-12)
    # the chord moves with the momentum-free part: R_t = [[1, 0], [t, 1]]
    assert np.allclose(orbit(ham, 2.0), [[1.0, 0.0], [2.0, 1.0]])


def test_point_flow_with_damping_matches_expm() -> None:
    sys = photon_bath(gamma=0.8, nbar=0.3, omega=1.4)
    a = sys.drift_matrix
    x0 = np.array([1.0, -0.5])
    for t in (0.4, 2.1):
        assert np.allclose(centre_flow(sys, t, x0), expm(a * t) @ x0,
                           atol=1e-12)


def test_flows_raise_unstable_when_the_damping_factor_overflows() -> None:
    sys = photon_bath(gamma=1.0)
    with pytest.raises(Unstable):
        affine_flow(sys, -2000.0)


def test_flows_raise_unstable_when_the_orbit_product_overflows() -> None:
    # e^{-alpha t} and R_t are finite here but their product is not: the
    # flow must say Unstable, not warn or hand back infinities
    saddle = OpenSystem(hamiltonian=HamiltonianForm(matrix=np.diag([1.0, -1.0])),
                        channels=photon_bath(gamma=1.0).channels)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(Unstable):
            affine_flow(saddle, -300.0)


# ---------------------------------------------------------------------------
# damping matrix


def _near_parabolic_system(rng: np.random.Generator, det: float) -> OpenSystem:
    h = np.array([[rng.uniform(0.3, 1.5), 0.0], [0.0, 0.0]])
    h[1, 1] = det / h[0, 0]
    theta = rng.uniform(0, 2 * np.pi)
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]])
    channels = tuple(LindbladChannel(l_re=rng.normal(size=2),
                                     l_im=rng.normal(size=2))
                     for _ in range(2))
    return OpenSystem(hamiltonian=HamiltonianForm(matrix=rot @ h @ rot.T),
                      channels=channels)


def test_damping_quadrature_agrees_with_closed_form() -> None:
    rng = np.random.default_rng(12)
    times = (-5.0, -0.9, -1e-3, 1e-3, 0.6, 2.3, 5.0)
    cases = [(random_system(rng, regime, alpha=rng.uniform(-0.6, 0.8)), times)
             for regime in ("elliptic", "hyperbolic", "parabolic")
             for _ in range(25)]
    # near-parabolic Hamiltonians (det H ~ 1e-9) with random channels
    for ham in _random_hamiltonians(rng, 70)[3::7]:
        channels = tuple(LindbladChannel(l_re=rng.normal(size=2),
                                         l_im=rng.normal(size=2))
                         for _ in range(2))
        cases.append((OpenSystem(hamiltonian=ham, channels=channels), times))
    # small |sigma| at times on both sides of the switch from the moment
    # series (|sigma| t < 0.05) to the eigenbasis, where its eigenvectors
    # are worst conditioned
    for det in (-1e-2, -1e-4, 1e-4, 1e-2):
        for _ in range(3):
            sys = _near_parabolic_system(rng, det)
            sigma = abs(sys.sigma)
            cases.append((sys, tuple(sign * f / sigma for sign in (-1.0, 1.0)
                                     for f in (0.04, 0.06, 1.0))))
    worst = 0.0
    for sys, ts in cases:
        for t in ts:
            mq = damping_matrix_quadrature(sys, t)
            mc = damping_matrix(sys, t)
            scale = max(1.0, float(np.max(np.abs(mc))))
            worst = max(worst, float(np.max(np.abs(mq - mc))) / scale)
    assert worst < 1e-9


def test_damping_kernel_handles_vanishing_exponents() -> None:
    # alpha = -sigma makes the exponent 2 alpha + 2 sigma vanish, alpha = 0
    # the middle one; those parts of M grow like t instead of expm1
    rng = np.random.default_rng(5)
    saddle = HamiltonianForm(matrix=np.diag([0.5, -0.5]))
    for ham, gain in ((saddle, 1.0), (saddle, 0.0),
                      (HamiltonianForm(matrix=0.5 * np.eye(2)), 0.0)):
        sys = OpenSystem(hamiltonian=ham, channels=(
            LindbladChannel(l_re=[0.0, gain], l_im=[-gain, 0.0]),
            LindbladChannel(l_re=rng.normal(size=2)),
            LindbladChannel(l_re=rng.normal(size=2))))
        assert sys.alpha == -gain ** 2
        exponents = 2.0 * sys.alpha + np.array([2.0 * sys.sigma, 0.0, -2.0 * sys.sigma])
        assert (exponents == 0.0).any()
        for t in (-2.0, -0.3, 0.7, 2.0):
            mc = damping_matrix(sys, t)
            mq = damping_matrix_quadrature(sys, t)
            assert np.max(np.abs(mc - mq)) <= 1e-9 * max(1.0, np.max(np.abs(mc)))


def test_damping_matrix_refuses_nan_and_overflow() -> None:
    sys = photon_bath(gamma=1.0)
    with pytest.raises(ConfigError):
        damping_matrix(sys, float("nan"))
    with pytest.raises(Unstable):
        damping_matrix(sys, -2000.0)
    # a parabolic system once took the projector route where t^2 overflows
    # and failed there with a TypeError
    parabolic = OpenSystem(hamiltonian=HamiltonianForm(matrix=[[1.0, 0.0], [0.0, 0.0]]),
                           channels=(LindbladChannel(l_re=[0.3, 0.0]),))
    with pytest.raises(Unstable):
        damping_matrix(parabolic, 1e200)


def test_damping_basics() -> None:
    sys = photon_bath(gamma=1.0, nbar=0.5, omega=0.7)
    assert np.allclose(damping_matrix(sys, 0.0), 0.0)
    m_fwd = damping_matrix(sys, 1.2)
    m_bwd = damping_matrix(sys, -1.2)
    assert np.all(np.linalg.eigvalsh(m_fwd) > 0)
    assert np.all(np.linalg.eigvalsh(m_bwd) < 0)
    # -J M J is the noise covariance of the exact moments (PSD whenever M is)
    _, noise = exact_moments(sys, np.zeros(2), np.zeros((2, 2)), 1.2)
    assert np.allclose(noise, -J @ m_fwd @ J)


def test_photon_bath_damping_is_isotropic() -> None:
    # ((2 nbar + 1)/2) (1 - e^{-gamma t}) I, independent of the oscillator
    # frequency
    gamma, nbar = 1.3, 0.8
    for omega in (0.0, 1.0, 2.7):
        sys = photon_bath(gamma=gamma, nbar=nbar, omega=omega)
        for t in (0.3, 1.7):
            expect = (2 * nbar + 1) / 2.0 * (1.0 - np.exp(-gamma * t))
            assert np.allclose(damping_matrix(sys, t),
                               expect * np.eye(2), atol=1e-11)


def test_damping_reversal_identity() -> None:
    # M(-t) = -e^{2 alpha t} R_t^T M(t) R_t
    rng = np.random.default_rng(13)
    for regime in ("elliptic", "hyperbolic"):
        sys = random_system(rng, regime, alpha=0.3)
        r = orbit(sys.hamiltonian, 0.8)
        lhs = damping_matrix(sys, -0.8)
        rhs = -np.exp(2 * sys.alpha * 0.8) * r.T @ damping_matrix(sys, 0.8) @ r
        assert np.allclose(lhs, rhs, atol=1e-10 * max(1, np.abs(lhs).max()))


def test_damping_symplectic_covariance() -> None:
    rng = np.random.default_rng(14)
    sys = random_system(rng, "elliptic", alpha=0.25)
    m = damping_matrix(sys, 0.9)
    for _ in range(5):
        c = random_symplectic(rng)
        cinv = np.linalg.inv(c)
        m_new = damping_matrix(symplectic_transform(sys, c), 0.9)
        assert np.allclose(m_new, cinv.T @ m @ cinv,
                           atol=1e-9 * max(1, np.abs(m).max()))


def test_elliptic_determinant_closed_form() -> None:
    # det M(-t) for H = omega*(p^2+q^2)/2 in terms of the channel matrix
    # rotated into normal-mode coordinates
    p = np.array([[-1.0, 1j], [-1j, 1.0]]) / np.sqrt(2.0)
    pinv = np.linalg.inv(p)
    rng = np.random.default_rng(15)
    checked = 0
    while checked < 5:
        omega = rng.uniform(0.3, 2.0)
        ch = LindbladChannel(l_re=rng.normal(size=2), l_im=rng.normal(size=2))
        sys = OpenSystem(hamiltonian=HamiltonianForm(matrix=(omega / 2) * np.eye(2)),
                         channels=(ch,))
        alpha = sys.alpha
        if abs(alpha) < 5e-2:
            continue
        checked += 1
        a = pinv.T @ sys.k_matrix @ pinv
        for t in (0.25, 0.8, 1.7):
            c1 = (np.exp(4 * alpha * t) - 2 * np.exp(2 * alpha * t)
                  * np.cos(2 * omega * t) + 1) / (4 * (alpha ** 2 + omega ** 2))
            c2 = (np.exp(4 * alpha * t) - 2 * np.exp(2 * alpha * t) + 1) \
                / (4 * alpha ** 2)
            expect = (c1 * a[0, 0] * a[1, 1] - c2 * a[0, 1] * a[1, 0]).real
            got = det2(damping_matrix(sys, -t))
            assert got == pytest.approx(expect, rel=1e-9)


def test_hyperbolic_determinant_closed_form() -> None:
    # det M(-t) for H = omega*p*q directly in terms of the noise matrix
    rng = np.random.default_rng(16)
    checked = 0
    while checked < 5:
        omega = rng.uniform(0.3, 1.6)
        ch = LindbladChannel(l_re=rng.normal(size=2), l_im=rng.normal(size=2))
        ham = HamiltonianForm(matrix=[[0.0, omega / 2], [omega / 2, 0.0]])
        sys = OpenSystem(hamiltonian=ham, channels=(ch,))
        alpha = sys.alpha
        if abs(alpha) < 5e-2 or abs(abs(alpha) - omega) < 5e-2:
            continue
        checked += 1
        k = sys.k_matrix
        for t in (0.25, 0.8, 1.6):
            c1 = (np.exp(4 * alpha * t) - 2 * np.exp(2 * alpha * t)
                  * np.cosh(2 * omega * t) + 1) / (4 * (alpha ** 2 - omega ** 2))
            c2 = (np.exp(4 * alpha * t) - 2 * np.exp(2 * alpha * t) + 1) \
                / (4 * alpha ** 2)
            expect = c1 * k[0, 0] * k[1, 1] - c2 * k[0, 1] * k[1, 0]
            got = det2(damping_matrix(sys, -t))
            assert got == pytest.approx(expect, rel=1e-9)


def test_parabolic_determinant_closed_form() -> None:
    # det M(-t) for H = p^2/2 + q with one channel l' = (0, sqrt(D')),
    # l'' = (eps sqrt(D''), 0)
    d_prime = 2.0
    ham = HamiltonianForm(matrix=[[0.5, 0.0], [0.0, 0.0]], linear=[0.0, 1.0])
    for d_second in (0.1, 1.0, 10.0):
        for eps in (-1.0, 1.0):
            ch = LindbladChannel(l_re=[0.0, np.sqrt(d_prime)],
                                 l_im=[eps * np.sqrt(d_second), 0.0])
            sys = OpenSystem(hamiltonian=ham, channels=(ch,))
            dbar = np.sqrt(d_prime * d_second)
            for t in (0.3, 0.9):
                expect = 0.25 * (
                    np.exp(4 * eps * dbar * t) * (1 + 1 / (4 * d_second ** 2))
                    - np.exp(2 * eps * dbar * t)
                    * (d_prime / d_second * t ** 2 + 1 / (2 * d_second ** 2) + 2)
                    + 1 + 1 / (4 * d_second ** 2))
                got = det2(damping_matrix(sys, -t))
                assert got == pytest.approx(expect, rel=1e-9)


# ---------------------------------------------------------------------------
# chord evolution


def test_evolution_is_a_semigroup() -> None:
    sys = photon_bath(gamma=0.9, nbar=0.4, omega=1.1)
    state = cat_state(1.5)
    rng = np.random.default_rng(18)
    xi = rng.normal(scale=1.5, size=(40, 2))
    direct = evolve_chord(sys, state, 0.85, xi)
    stepped = evolve_chord(sys, evolved_state(sys, state, 0.6), 0.25, xi)
    assert np.max(np.abs(direct - stepped)) < 1e-12 * np.max(np.abs(direct))


def test_evolution_preserves_trace_and_hermiticity() -> None:
    sys = photon_bath(gamma=1.0, nbar=0.7, omega=0.8)
    state = cat_state(2.0)
    hbar = 1.0
    for t in (0.2, 1.0, 3.0):
        origin = evolve_chord(sys, state, t, np.zeros(2))
        assert origin == pytest.approx(1.0 / (2 * np.pi * hbar), rel=1e-12)
        rng = np.random.default_rng(19)
        xi = rng.normal(size=(20, 2))
        plus = evolve_chord(sys, state, t, xi)
        minus = evolve_chord(sys, state, t, -xi)
        assert np.max(np.abs(plus - np.conj(minus))) < 1e-13


def test_wigner_grid_reproduces_initial_coherent_state() -> None:
    sys = photon_bath(gamma=1.0)
    state = coherent_state((0.4, -0.9))
    grid = centered_grid((0.4, -0.9), (5.0, 5.0), (64, 64))
    field = evolve_wigner_grid(sys, state, 0.0, grid)
    expect = state.wigner(grid.points())
    assert np.max(np.abs(field.values - expect)) < 1e-12
    assert field.integral == pytest.approx(1.0, abs=1e-9)


def test_evolved_wigner_mean_follows_point_flow() -> None:
    # the linear Hamiltonian term drives the centre off the origin
    sys = _driven_oscillator()
    grid = centered_grid((0.0, 0.0), 7.0, 81)
    for center in ((0.0, 0.0), (0.5, -0.3)):
        field = evolve_wigner_grid(sys, coherent_state(center), 1.0, grid)
        mean = np.einsum("ijk,ij->k", grid.points(), field.values) * grid.cell_area
        assert np.max(np.abs(mean - centre_flow(sys, 1.0, center))) < 1e-8


def test_wigner_grid_tail_ratio_threshold() -> None:
    # at t = 0 a coherent state's chord function on the dual-mesh rim is
    # 6.8e-6 of its peak at spacing 0.45 and 2.9e-9 at spacing 0.35
    sys = photon_bath(gamma=1.0)
    state = coherent_state((0.0, 0.0))
    with pytest.raises(GridTooCoarse):
        evolve_wigner_grid(sys, state, 0.0, centered_grid((0.0, 0.0), 20 * 0.45, 41))
    evolve_wigner_grid(sys, state, 0.0, centered_grid((0.0, 0.0), 20 * 0.35, 41))


def test_wigner_grid_at_t_zero_is_the_state_wigner_bit_for_bit() -> None:
    # the map at t = 0 is the identity, so the oracle comparison's initial
    # field can come from evolve_wigner_grid without moving a bit
    sys = photon_bath(gamma=1.0, nbar=0.5)
    grid = centered_grid((0.0, 0.0), (7.0, 7.0), (129, 129))
    rot = np.array([[np.cos(0.6), -np.sin(0.6)], [np.sin(0.6), np.cos(0.6)]])
    squeezed = gaussian_state((0.3, -0.2), rot @ np.diag([2.0, 0.125]) @ rot.T)
    for state in (coherent_state((0.5, -1.2)), squeezed, cat_state(2.0)):
        field = evolve_wigner_grid(sys, state, 0.0, grid).values
        assert np.array_equal(field, state.wigner_grid(grid))
        nodes = state.wigner(grid.points())
        assert np.max(np.abs(field - nodes)) <= 1e-12 * np.max(np.abs(nodes))


def test_wigner_grid_is_deterministic() -> None:
    sys = photon_bath(gamma=1.0)
    state = cat_state(1.0)
    grid = centered_grid((0.0, 0.0), (6.0, 6.0), (48, 48))
    a = evolve_wigner_grid(sys, state, 0.3, grid).values
    b = evolve_wigner_grid(sys, state, 0.3, grid).values
    assert np.array_equal(a, b)


def test_wigner_grid_matches_fringe_line() -> None:
    # co-rotating frame: fringes stay on the momentum axis, where the
    # evolved cat has a closed-form section
    for nbar in (0.0, 1.5):
        sys = damping_bath(gamma=1.0, nbar=nbar)
        state = cat_state(2.0)
        t = 0.4
        grid = centered_grid((0.0, 0.0), (7.0, 7.0), (129, 129))
        field = evolve_wigner_grid(sys, state, t, grid)
        # q = 0 is the middle column of the odd-sized centered grid
        line = field.values[:, 64]
        expect = cat_wigner_line(2.0, 1.0, nbar, t, grid.p_axis)
        assert np.max(np.abs(line - expect)) < 1e-10


def test_wigner_grid_rejects_coarse_grids() -> None:
    sys = photon_bath(gamma=1.0)
    state = cat_state(2.0)
    grid = centered_grid((0.0, 0.0), (2.0, 2.0), (8, 8))
    with pytest.raises(GridTooCoarse):
        evolve_wigner_grid(sys, state, 0.1, grid)


def test_coarse_grid_verdicts_do_not_depend_on_the_evaluator(monkeypatch) -> None:
    # the dual-mesh rim check runs before either evaluator: a sweep of grid
    # sizes across the threshold gets the same verdicts, and the same values
    # to 1e-12 of the peak, from the tiled sum and from the per-node sum
    sys = photon_bath(gamma=1.0, nbar=0.1)
    rot = np.array([[np.cos(0.6), -np.sin(0.6)], [np.sin(0.6), np.cos(0.6)]])
    states = (coherent_state((0.5, -1.2)), cat_state(2.0),
              gaussian_state((0.3, -0.2), rot @ np.diag([2.0, 0.125]) @ rot.T))
    grids = [centered_grid((0.3, -0.1), (7.0, 6.0), (n, n + 3)) for n in range(9, 60, 5)]

    def outcomes():
        found = []
        for state in states:
            for t in (0.0, 0.4):
                for grid in grids:
                    try:
                        found.append(evolve_wigner_grid(sys, state, t, grid).values)
                    except GridTooCoarse:
                        found.append(None)
        return found

    tiled = outcomes()
    monkeypatch.setattr(ChordState, "wigner_grid",
                        lambda self, grid: self.wigner(grid.points()))
    nodes = outcomes()
    assert [v is None for v in tiled] == [v is None for v in nodes]
    assert 0 < sum(v is None for v in tiled) < len(tiled)
    for a, b in zip(tiled, nodes):
        if a is not None:
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_state_and_system_hbar_must_match() -> None:
    sys = photon_bath(gamma=1.0, hbar=1.0)
    state = coherent_state((0.0, 0.0), hbar=0.5)
    with pytest.raises(ConfigError):
        evolve_chord(sys, state, 0.1, np.zeros(2))


def test_evolved_state_metadata() -> None:
    sys = photon_bath(gamma=1.0)
    state = cat_state(1.0)
    out = evolved_state(sys, state, 0.7)
    assert not out.pure
    assert "0.7" in out.label


def test_state_arrays_are_read_only_and_unshared() -> None:
    # a write through the evolved state must not reach the initial one
    cat = cat_state(1.0)
    out = evolved_state(photon_bath(gamma=1.0, nbar=0.2), cat, 0.5)
    for state in (cat, out):
        for array in (state.log_weights, state.form, state.shifts):
            with pytest.raises(ValueError):
                array[0] += 1
    for mine, theirs in zip((out.log_weights, out.form, out.shifts),
                            (cat.log_weights, cat.form, cat.shifts)):
        assert not np.shares_memory(mine, theirs)
    assert cat.norm_squared() == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# equation-of-motion residual


def test_chord_residual_is_second_order_in_h() -> None:
    state = cat_state(1.5)
    xi = np.array([0.8, -0.4])
    for sys in (photon_bath(gamma=1.0, nbar=0.5, omega=1.2), _driven_oscillator()):
        r_coarse = chord_pde_residual(sys, state, 0.6, xi, h=0.04)
        r_fine = chord_pde_residual(sys, state, 0.6, xi, h=0.02)
        assert r_fine < 1e-4
        assert r_coarse / r_fine == pytest.approx(4.0, abs=0.4)


def test_chord_residual_validates_step() -> None:
    sys = photon_bath(gamma=1.0)
    state = coherent_state((0.0, 0.0))
    with pytest.raises(ConfigError):
        chord_pde_residual(sys, state, 0.1, np.array([0.5, 0.5]), h=0.1)
    with pytest.raises(ConfigError):
        chord_pde_residual(sys, state, 0.1, np.array([0.5, 0.5]), h=0.0)
    with pytest.raises(ConfigError, match="2-vector"):
        chord_pde_residual(sys, state, 0.5, np.array([0.5, 0.5, 0.5]))
