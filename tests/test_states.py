"""Tests for the built-in chord-space states."""
from __future__ import annotations

import numpy as np
import pytest

from lindquad import (CatParameters, ChordState, ConfigError,
                      NotPositiveDefinite, Unstable, cat_fringe_zero,
                      cat_state, cat_wigner_line, cat_zero_crossing_time,
                      coherent_state, gaussian_state, state_from_dict)

TWO_PI = 2.0 * np.pi


def test_coherent_state_chord_values() -> None:
    hbar = 1.0
    center = np.array([0.6, -1.1])
    state = coherent_state(center, hbar=hbar)
    assert state.pure
    rng = np.random.default_rng(30)
    xi = rng.normal(size=(30, 2))
    wedge = xi[:, 0] * center[1] - xi[:, 1] * center[0]
    expect = (np.exp(-np.sum(xi ** 2, axis=1) / (4 * hbar) + 1j * wedge / hbar)
              / (TWO_PI * hbar))
    assert np.max(np.abs(state(xi) - expect)) < 1e-14


def test_coherent_state_wigner_peak() -> None:
    for hbar in (1.0, 0.37):
        center = (0.2, 0.8)
        state = coherent_state(center, hbar=hbar)
        # a pure state's Wigner function peaks at 1/(pi hbar)
        assert state.wigner(np.array(center)) \
            == pytest.approx(1.0 / (np.pi * hbar), rel=1e-12)
        assert state(np.zeros(2)) \
            == pytest.approx(1.0 / (TWO_PI * hbar), rel=1e-12)


def test_gaussian_state_matches_coherent_when_minimal() -> None:
    hbar = 0.7
    center = np.array([0.5, 0.25])
    gauss = gaussian_state(center, (hbar / 2.0) * np.eye(2), hbar=hbar)
    coh = coherent_state(center, hbar=hbar)
    assert gauss.pure
    rng = np.random.default_rng(31)
    xi = rng.normal(size=(30, 2))
    assert np.max(np.abs(gauss(xi) - coh(xi))) < 1e-13
    x = rng.normal(size=(30, 2))
    assert np.max(np.abs(gauss.wigner(x) - coh.wigner(x))) < 1e-13


def test_gaussian_state_validation() -> None:
    with pytest.raises(NotPositiveDefinite):
        gaussian_state((0.0, 0.0), [[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(NotPositiveDefinite):
        gaussian_state((0.0, 0.0), [[1.0, 2.0], [2.0, 1.0]])
    thermal = gaussian_state((0.0, 0.0), 2.0 * np.eye(2))
    assert not thermal.pure


def test_gaussian_wigner_is_normalized_density() -> None:
    cov = np.array([[0.9, 0.25], [0.25, 0.7]])
    state = gaussian_state((0.3, -0.2), cov)
    from scipy.stats import multivariate_normal

    rng = np.random.default_rng(32)
    x = rng.normal(size=(50, 2))
    expect = multivariate_normal(mean=[0.3, -0.2], cov=cov).pdf(x)
    assert np.max(np.abs(state.wigner(x) - expect)) < 1e-12


def test_gaussian_chord_and_wigner_are_transform_pairs() -> None:
    # evolve for zero time under a trivial system: the grid synthesis path
    # rebuilds the Wigner function from the chord evaluator alone
    from lindquad import (HamiltonianForm, OpenSystem, centered_grid,
                          evolve_wigner_grid)

    cov = np.array([[0.8, 0.3], [0.3, 1.1]])
    state = gaussian_state((0.0, 0.0), cov)
    free = OpenSystem(hamiltonian=HamiltonianForm(matrix=np.zeros((2, 2))))
    grid = centered_grid((0.0, 0.0), (7.0, 7.0), (96, 96))
    field = evolve_wigner_grid(free, state, 0.0, grid)
    expect = state.wigner(grid.points())
    assert np.max(np.abs(field.values - expect)) < 1e-10


def test_wigner_rejects_non_hermitian_and_non_finite_terms() -> None:
    x = np.random.default_rng(34).normal(size=(20, 2))
    round_ = np.eye(2) / 2.0
    tilted = ChordState(weights=[np.exp(0.1j) / TWO_PI], forms=[round_],
                        shifts=[[0.0, 0.0]], label="tilted", pure=False)
    with pytest.raises(Unstable):
        tilted.wigner(x)
    broken = ChordState(weights=[1.0 / TWO_PI], forms=[round_],
                        shifts=[[np.nan, 0.0]], label="broken", pure=False)
    with pytest.raises(Unstable):
        broken.wigner(x)
    # the same single term with a real weight is the vacuum
    vacuum = ChordState(weights=[1.0 / TWO_PI], forms=[round_],
                        shifts=[[0.0, 0.0]], label="vacuum", pure=True)
    assert np.max(np.abs(vacuum.wigner(x)
                         - coherent_state((0.0, 0.0)).wigner(x))) < 1e-15


def test_cat_reduces_to_coherent_at_zero_separation() -> None:
    cat = cat_state(CatParameters(zeta=0.0))
    coh = coherent_state((0.0, 0.0))
    rng = np.random.default_rng(33)
    xi = rng.normal(size=(30, 2))
    assert np.max(np.abs(cat(xi) - coh(xi))) < 1e-13


def test_cat_wigner_structure() -> None:
    hbar = 1.0
    zeta = 2.0
    cat = cat_state(CatParameters(zeta=zeta), hbar=hbar)
    # the central interference peak always reaches the pure-state maximum
    assert cat.wigner(np.zeros(2)) == pytest.approx(1.0 / (np.pi * hbar),
                                                    rel=1e-12)
    # lobes sit at q = +/- zeta
    norm = 1.0 / (1.0 + np.exp(-zeta ** 2 / hbar))
    lobe = cat.wigner(np.array([0.0, zeta]))
    expect = (norm / 2.0 / (np.pi * hbar)) * (
        1.0 + np.exp(-4 * zeta ** 2 / hbar) + 2.0 * np.exp(-zeta ** 2 / hbar))
    assert lobe == pytest.approx(expect, rel=1e-12)
    # fringes oscillate along p with wavenumber 2*zeta/hbar
    p_node = np.pi * hbar / (2.0 * zeta)
    assert cat.wigner(np.array([p_node, 0.0])) < 0.0


def test_widely_separated_cat_stays_finite() -> None:
    # each lobe weight e^{-zeta^2/hbar} meets a factor e^{+zeta^2/hbar}
    # that overflows on its own once zeta^2/hbar passes ~355
    cat = cat_state(CatParameters(zeta=20.0))
    assert cat.norm_squared() == pytest.approx(1.0, rel=1e-11)
    assert cat.wigner(np.zeros(2)) == pytest.approx(1.0 / np.pi, rel=1e-11)
    # a full-depth fringe minimum, cos(2 zeta p / hbar) = -1
    p_min = np.pi / 40.0
    assert cat.wigner(np.array([p_min, 0.0])) == pytest.approx(
        -np.exp(-p_min ** 2) / np.pi, rel=1e-11)


def test_cat_line_matches_wigner_at_t_zero() -> None:
    for nbar in (0.0, 0.9):
        params = CatParameters(zeta=1.7, gamma=1.0, nbar=nbar)
        cat = cat_state(params)
        p = np.linspace(-4.0, 4.0, 41)
        x = np.stack([p, np.zeros_like(p)], axis=-1)
        assert np.max(np.abs(cat_wigner_line(params, 0.0, p)
                             - cat.wigner(x))) < 1e-13


def test_cat_line_rejects_negative_time() -> None:
    with pytest.raises(ConfigError):
        cat_wigner_line(CatParameters(zeta=1.0), -0.1, np.zeros(3))


def test_fringe_zero_is_a_sign_change() -> None:
    params = CatParameters(zeta=2.0, gamma=1.0, nbar=0.3)
    t = 0.15
    p0 = cat_fringe_zero(params, t)
    assert p0 is not None
    val = cat_wigner_line(params, t, np.array([p0]))[0]
    assert abs(val) < 1e-12
    before = cat_wigner_line(params, t, np.array([p0 - 0.05]))[0]
    after = cat_wigner_line(params, t, np.array([p0 + 0.05]))[0]
    assert before * after < 0.0


def test_fringe_zero_disappears_after_threshold() -> None:
    params = CatParameters(zeta=2.0, gamma=1.0, nbar=0.0)
    t_p = cat_zero_crossing_time(params)
    assert cat_fringe_zero(params, 1.01 * t_p) is None
    assert cat_fringe_zero(CatParameters(zeta=0.0), 0.1) is None


def test_zero_crossing_time_closed_form() -> None:
    # fringe death when the contrast drops to one: t = log(1 + 1/(2 nbar + 1))
    # divided by gamma, independent of the separation
    for gamma, nbar in ((1.0, 0.0), (2.0, 3.0), (0.7, 1.2)):
        for zeta in (1.0, 2.5):
            got = cat_zero_crossing_time(
                CatParameters(zeta=zeta, gamma=gamma, nbar=nbar))
            expect = np.log(1.0 + 1.0 / (2.0 * nbar + 1.0)) / gamma
            assert got == pytest.approx(expect, rel=1e-9)


def test_cat_parameters_validation() -> None:
    with pytest.raises(ConfigError):
        CatParameters(zeta=-1.0)
    with pytest.raises(ConfigError):
        CatParameters(zeta=1.0, gamma=-0.5)
    with pytest.raises(ConfigError):
        CatParameters(zeta=1.0, nbar=-0.1)
    with pytest.raises(ConfigError):
        cat_zero_crossing_time(CatParameters(zeta=1.0, gamma=0.0))


def test_state_from_dict() -> None:
    coh = state_from_dict({"type": "coherent", "center": [0.5, -0.5]})
    assert coh.pure
    cat = state_from_dict({"type": "cat", "zeta": 1.5})
    assert cat.pure
    gauss = state_from_dict({"type": "gaussian", "mean": [0.0, 0.0],
                             "cov": [[1.0, 0.0], [0.0, 1.0]]})
    assert not gauss.pure
    with pytest.raises(ConfigError):
        state_from_dict({"type": "squeezed"})
    with pytest.raises(ConfigError):
        state_from_dict({"type": "cat", "zeta": 1.0, "bogus": 2.0})
    with pytest.raises(ConfigError):
        state_from_dict({"type": "cat"})
    # center defaults to the origin
    assert state_from_dict({"type": "coherent"})(np.zeros(2)).imag == 0.0
