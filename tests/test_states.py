"""Tests for the built-in chord-space states."""
from __future__ import annotations

import re
import warnings

import numpy as np
import pytest

from audits import cat_fringe_zero, cat_wigner_line
from lindquad import (ChordState, ConfigError, LindquadError, NotPositiveDefinite, Unstable,
                      cat_fock_dim, cat_state, cat_zero_crossing_time, centered_grid,
                      coherent_state, evolve_wigner_grid, fock_cat, gaussian_state,
                      photon_bath, purity, state_from_dict)

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
    tilted = ChordState(log_weights=[0.1j - np.log(TWO_PI)], form=round_,
                        shifts=[[0.0, 0.0]], label="tilted", pure=False)
    with pytest.raises(Unstable):
        tilted.wigner(x)
    broken = ChordState(log_weights=[-np.log(TWO_PI)], form=round_,
                        shifts=[[np.nan, 0.0]], label="broken", pure=False)
    with pytest.raises(Unstable):
        broken.wigner(x)
    # the same single term with a real weight is the vacuum
    vacuum = ChordState(log_weights=[-np.log(TWO_PI)], form=round_,
                        shifts=[[0.0, 0.0]], label="vacuum", pure=True)
    assert np.max(np.abs(vacuum.wigner(x)
                         - coherent_state((0.0, 0.0)).wigner(x))) < 1e-15


# the argument keeps the name "forms" so that the cases keep their ids
@pytest.mark.parametrize("log_weights, forms, shifts", [
    ([0.0, 0.0], np.eye(2), [[0.0, 0.0]]),          # two weights, one term
    ([0.0], np.eye(3), [[0.0, 0.0]]),               # 3x3 form
    ([0.0], np.eye(2), [[0.0, 0.0, 0.0]]),          # 3-vector shift
    ([[0.0]], np.eye(2), [[0.0, 0.0]]),             # weights not a vector
    ([0.0], [np.eye(2)], [[0.0, 0.0]]),             # a stack of one form
])
def test_chord_state_checks_term_shapes(log_weights, forms, shifts) -> None:
    with pytest.raises(ConfigError, match="a chord state needs"):
        ChordState(log_weights=log_weights, form=forms, shifts=shifts,
                   label="misshapen", pure=False)


def test_cat_reduces_to_coherent_at_zero_separation() -> None:
    cat = cat_state(0.0)
    coh = coherent_state((0.0, 0.0))
    rng = np.random.default_rng(33)
    xi = rng.normal(size=(30, 2))
    assert np.max(np.abs(cat(xi) - coh(xi))) < 1e-13


def test_cat_wigner_structure() -> None:
    hbar = 1.0
    zeta = 2.0
    cat = cat_state(zeta, hbar=hbar)
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


def test_norm_squared_takes_the_determinant_of_the_extra_form() -> None:
    # without det E, the pair sum over S = 2A + E equals the plain trace
    # square of the state whose form is A + E/2
    cat = cat_state(1.5)
    for extra in (np.eye(2), np.array([[0.7, 0.3], [0.3, 0.4]])):
        shifted = ChordState(log_weights=cat.log_weights,
                             form=cat.form + 0.5 * extra, shifts=cat.shifts,
                             label="shifted", pure=False)
        assert cat.norm_squared(extra) == pytest.approx(shifted.norm_squared(),
                                                        rel=1e-12)
    assert cat.norm_squared(np.eye(2)) == pytest.approx(
        cat.norm_squared(np.eye(2), 1.0), rel=1e-12)


def test_chord_values_must_be_finite() -> None:
    # a form that is not positive definite grows without bound
    state = ChordState(log_weights=[np.log(1.0 / TWO_PI)],
                       form=[[0.5, 0.0], [0.0, -0.5]], shifts=[(0.0, 0.0)],
                       label="indefinite", pure=False)
    assert np.isfinite(state(np.array([[0.0, 3.0]]))).all()
    with pytest.raises(Unstable, match="not finite"):
        state(np.array([[0.0, 3.0], [0.0, 60.0]]))


def test_widely_separated_cat_stays_finite() -> None:
    # each lobe weight e^{-zeta^2/hbar} meets a factor e^{+zeta^2/hbar}
    # that overflows on its own once zeta^2/hbar passes ~355
    cat = cat_state(20.0)
    assert cat.norm_squared() == pytest.approx(1.0, rel=1e-11)
    assert cat.wigner(np.zeros(2)) == pytest.approx(1.0 / np.pi, rel=1e-11)
    # a full-depth fringe minimum, cos(2 zeta p / hbar) = -1
    p_min = np.pi / 40.0
    assert cat.wigner(np.array([p_min, 0.0])) == pytest.approx(
        -np.exp(-p_min ** 2) / np.pi, rel=1e-11)


def test_point_sums_match_the_per_term_formulas() -> None:
    # the closed forms written out term by term and pair by pair: the shared
    # kernel only reorders their arithmetic, so they agree to a few ulp of
    # the largest value (bound fixed before the first run)
    rng = np.random.default_rng(24)
    rot = np.array([[np.cos(0.6), -np.sin(0.6)], [np.sin(0.6), np.cos(0.6)]])
    squeezed = gaussian_state((0.3, -0.2), rot @ np.diag([2.0, 0.125]) @ rot.T)
    for state in (cat_state(2.0, hbar=0.7), squeezed, coherent_state((0.5, -1.2))):
        a, hbar = state.form, state.hbar
        x = 2.0 * rng.normal(size=(40, 2))
        terms = list(zip(state.log_weights, state.shifts))
        chord = sum(np.exp(lw - 0.5 * np.einsum("ni,ij,nj->n", x, a, x) + 1j * x @ b)
                    for lw, b in terms)
        beta = [b - np.stack([x[:, 1], -x[:, 0]], axis=-1) / hbar for _, b in terms]
        wigner = sum(np.exp(lw - 0.5 * np.einsum("ni,ij,nj->n", d, np.linalg.inv(a), d))
                     for (lw, _), d in zip(terms, beta)) / (hbar * np.sqrt(np.linalg.det(a)))
        assert np.max(np.abs(state(x) - chord)) <= 1e-13 * np.max(np.abs(chord))
        assert np.max(np.abs(state.wigner(x) - wigner)) <= 1e-13 * np.max(np.abs(wigner))
        extra = rot @ np.diag([0.4, 3.0]) @ rot.T
        s = 2.0 * a + extra
        pairs = sum(np.exp(lk + np.conj(ll) - 0.5 * (bk - np.conj(bl)) @ np.linalg.inv(s)
                           @ (bk - np.conj(bl))) for lk, bk in terms for ll, bl in terms)
        expect = 4.0 * np.pi ** 2 * hbar * (pairs / np.sqrt(np.linalg.det(s))).real
        assert state.norm_squared(extra) == pytest.approx(expect, rel=1e-13)


def test_degenerate_forms_raise_typed_errors() -> None:
    # det S underflows to 0 (hbar = 1e200) or overflows (hbar = 1e-300), and
    # an evolved form's det A cancels to 0: each evaluator sums under one
    # errstate, so its finiteness check reports these, not a RuntimeWarning
    with pytest.raises(Unstable, match="trace-square"):
        coherent_state((0.0, 0.0), hbar=1e200)
    with pytest.raises(ConfigError, match="expected 1"):
        coherent_state((0.0, 0.0), hbar=1e-300)
    wide = gaussian_state((0.0, 0.0), [[1e200, 0.0], [0.0, 1.0]])
    with pytest.raises(Unstable, match="Wigner"):
        evolve_wigner_grid(photon_bath(1.0), wide, 0.2,
                           centered_grid((0.0, 0.0), (5.0, 5.0), (9, 9)))


def test_cats_whose_separation_overflows_are_refused() -> None:
    # zeta^2/hbar beyond the float range: a typed refusal, not OverflowError
    for zeta, hbar in ((1e160, 1.0), (1e150, 1e-100)):
        with pytest.raises(ConfigError, match="zeta"):
            state_from_dict({"type": "cat", "zeta": zeta}, hbar=hbar)
        with pytest.raises(ConfigError, match="zeta"):
            fock_cat(zeta, hbar=hbar)
        with pytest.raises(ConfigError, match="zeta"):
            cat_fock_dim(zeta, hbar)


def test_grids_stay_finite_where_the_nodes_are() -> None:
    # one-axis factors of exponents near -1e9 and slopes near 1e7 would
    # overflow unshifted; the grids must give what the per-node sums give
    narrow = coherent_state((300.0, -200.0), hbar=1e-4)
    for grid in (centered_grid((300.0, -200.0), 0.05, (101, 83)),
                 centered_grid((0.0, 0.0), 7.0, (64, 65))):
        nodes = narrow.wigner(grid.points())
        tiled = narrow.wigner_grid(grid)
        assert np.all(np.isfinite(tiled))
        # the nodes' coordinates round to 1e-16 of 300, which the slope of a
        # Gaussian of width 0.007 turns into 1e-10 of its peak in both sums
        assert np.max(np.abs(tiled - nodes)) <= 1e-9 * max(np.max(nodes), 1e-300)
        assert np.max(nodes) > 0.0 or not np.any(tiled)
    # zeta = 40 lobes: weights e^{-1600} against Gaussian factors e^{+1600}
    cat = cat_state(40.0)
    for center in ((0.0, 40.0), (0.0, -40.0), (0.0, 0.0)):
        grid = centered_grid(center, 3.0, (77, 66))
        nodes = cat.wigner(grid.points())
        assert np.max(np.abs(cat.wigner_grid(grid) - nodes)) <= (
            1e-12 / np.pi)
    for center in ((0.0, 80.0), (0.0, -80.0), (40.0, 0.0)):
        grid = centered_grid(center, 4.0, (70, 71))
        nodes = cat(grid.points())
        assert np.max(np.abs(cat.chord_grid(grid) - nodes)) <= (
            1e-12 / TWO_PI)
    # a zero-weight term far off: its U and V are both zero, not 0 * inf
    state = ChordState(log_weights=[np.log(1.0 / TWO_PI), -np.inf], form=np.eye(2) / 2.0,
                       shifts=[(0.0, 0.0), (300.0, -200.0)], label="zero", pure=False)
    grid = centered_grid((0.0, 0.0), 150.0, (61, 61))
    nodes = state(grid.points())
    assert np.max(np.abs(state.chord_grid(grid) - nodes)) <= (
        1e-12 / TWO_PI)


def test_cat_line_matches_wigner_at_t_zero() -> None:
    for nbar in (0.0, 0.9):
        cat = cat_state(1.7)
        p = np.linspace(-4.0, 4.0, 41)
        x = np.stack([p, np.zeros_like(p)], axis=-1)
        assert np.max(np.abs(cat_wigner_line(1.7, 1.0, nbar, 0.0, p)
                             - cat.wigner(x))) < 1e-13


def test_cat_line_rejects_negative_time() -> None:
    with pytest.raises(ConfigError):
        cat_wigner_line(1.0, 1.0, 0.0, -0.1, np.zeros(3))


def test_fringe_zero_is_a_sign_change() -> None:
    bath = (2.0, 1.0, 0.3)  # zeta, gamma, nbar
    t = 0.15
    p0 = cat_fringe_zero(*bath, t)
    assert p0 is not None
    val = cat_wigner_line(*bath, t, np.array([p0]))[0]
    assert abs(val) < 1e-12
    before = cat_wigner_line(*bath, t, np.array([p0 - 0.05]))[0]
    after = cat_wigner_line(*bath, t, np.array([p0 + 0.05]))[0]
    assert before * after < 0.0


def test_fringe_zero_disappears_after_threshold() -> None:
    t_p = cat_zero_crossing_time(1.0, 0.0)
    assert cat_fringe_zero(2.0, 1.0, 0.0, 1.01 * t_p) is None
    assert cat_fringe_zero(0.0, 1.0, 0.0, 0.1) is None


def test_zero_crossing_time_closed_form() -> None:
    # fringe death when the contrast drops to one: t = log(1 + 1/(2 nbar + 1))
    # divided by gamma, independent of the separation
    for gamma, nbar in ((1.0, 0.0), (2.0, 3.0), (0.7, 1.2)):
        got = cat_zero_crossing_time(gamma, nbar)
        expect = np.log(1.0 + 1.0 / (2.0 * nbar + 1.0)) / gamma
        assert got == pytest.approx(expect, rel=1e-9)


@pytest.mark.parametrize("gamma, nbar", [(1.0, 0.0), (0.3, 0.5), (2.0, 3.0),
                                         (0.05, 10.0), (7.0, 0.1)])
def test_zero_crossing_time_is_where_the_fringe_zero_ends(gamma, nbar) -> None:
    # the closed form against the hand-derived fringe condition of
    # cat_fringe_zero, just before and just after
    t_p = cat_zero_crossing_time(gamma, nbar)
    for zeta in (0.5, 1.0, 4.0):
        assert cat_fringe_zero(zeta, gamma, nbar, t_p * (1.0 - 1e-9)) is not None
        assert cat_fringe_zero(zeta, gamma, nbar, t_p * (1.0 + 1e-9)) is None


def test_zero_crossing_time_rejects_a_bad_bath() -> None:
    for gamma, nbar in ((-1.0, 0.0), (np.nan, 0.0), (np.inf, 0.0),
                        (1.0, -0.5), (1.0, np.nan), (1.0, np.inf)):
        with pytest.raises(ConfigError):
            cat_zero_crossing_time(gamma, nbar)


def test_gaussian_state_checks_its_covariance() -> None:
    # a state needs a definite covariance; a singular one is refused
    with pytest.raises(NotPositiveDefinite):
        gaussian_state((0.0, 0.0), [[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ConfigError):
        gaussian_state((0.0, 0.0), [[1.0, np.inf], [np.inf, 1.0]])


def test_covariance_below_the_uncertainty_bound_is_refused() -> None:
    # det C = 0.01 < (hbar/2)^2 = 1/4 is no quantum state's: it once built
    # with purity 5
    with pytest.raises(ConfigError, match="uncertainty bound"):
        gaussian_state((0.0, 0.0), 0.1 * np.eye(2))
    for hbar in (1.0, 0.37, 1e-150, 1e200, 1e300):
        with pytest.raises(ConfigError, match="uncertainty bound"):
            gaussian_state((0.0, 0.0), (0.499 * hbar) * np.eye(2), hbar=hbar)
    # within 1e-9 relative of the bound, on either side, the state is pure
    for scale in (1.0 - 4e-10, 1.0, 1.0 + 4e-10):
        cov = np.array([[2.0, 0.3], [0.3, (0.25 * scale + 0.09) / 2.0]]) * 0.37
        assert gaussian_state((0.1, 0.0), cov, hbar=0.37).pure


def test_huge_covariances_build_without_warnings() -> None:
    # det C overflowed numpy's det with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for cov in ([[1e200, 0.0], [0.0, 1e200]], [[1e300, 0.0], [0.0, 1e-300]]):
            assert not gaussian_state((0.0, 0.0), cov).pure


def _built(builder):
    """``builder()``, or the type of the package error it raised, with numpy
    warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return builder()
        except LindquadError as exc:
            return type(exc)


@pytest.mark.parametrize("hbar", [1.0, 0.37, 1e-150, 1e200, 1e300])
def test_coherent_state_is_the_minimal_gaussian(hbar) -> None:
    center = (0.1, 0.2)
    coh = _built(lambda: coherent_state(center, hbar=hbar))
    gauss = _built(lambda: gaussian_state(center, (hbar / 2.0) * np.eye(2), hbar=hbar))
    if isinstance(coh, type) or isinstance(gauss, type):
        assert coh is gauss
        return
    assert coh.pure and gauss.pure
    for a, b in ((coh.log_weights, gauss.log_weights), (coh.form, gauss.form),
                 (coh.shifts, gauss.shifts)):
        np.testing.assert_array_max_ulp(a.view(float), b.view(float), maxulp=1)


def test_cat_parameters_validation() -> None:
    with pytest.raises(ConfigError):
        cat_state(-1.0)
    with pytest.raises(ConfigError):
        cat_wigner_line(1.0, -0.5, 0.0, 0.1, np.zeros(3))
    with pytest.raises(ConfigError):
        cat_wigner_line(1.0, 1.0, -0.1, 0.1, np.zeros(3))
    with pytest.raises(ConfigError):
        cat_zero_crossing_time(0.0, 0.0)


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


@pytest.mark.parametrize("zeta", [28.0, 40.0])
def test_large_cats_keep_their_lobes_as_log_weights(zeta) -> None:
    # the lobe weight e^{-zeta^2} is below the smallest float; the builder's
    # pure-state check runs on the log weights
    cat = cat_state(zeta)
    assert purity(photon_bath(gamma=1.0), cat, 0.0) == pytest.approx(1.0, abs=1e-12)
    grid = centered_grid((0.0, 0.0), (6.0, zeta + 6.0), (41, 121))
    assert np.all(np.isfinite(cat.wigner(grid.points())))


def test_real_wigner_verdicts_match_the_modulus_check() -> None:
    # the check the two reductions stand in for: every value finite and
    # max|Im W| <= 1e-9 max|W|, with that max|Im W| in the message
    state = coherent_state((0.0, 0.0))
    edge = np.nextafter(1e-9, np.inf)
    fields = [np.zeros(4, dtype=complex), np.array([1.0, 1e-9j]),
              np.array([1.0, edge * 1j]), np.array([1.0 + 1e-9j]),
              np.array([-3.0 + 1e-9j, 2e-9j]), np.array([-2.0 + edge * 2j]),
              np.array([1e-300j, 0.0]), np.array([5e-324 + 5e-324j])]
    for bad in (np.nan, np.inf, -np.inf):
        fields += [np.array([1.0, complex(bad, 0.0)]),
                   np.array([1.0, complex(0.0, bad)]),
                   np.array([complex(bad, bad)])]
    for out in fields:
        imag = float(np.max(np.abs(out.imag), initial=0.0))
        fails = (not np.all(np.isfinite(out))
                 or imag > 1e-9 * float(np.max(np.abs(out), initial=0.0)))
        if fails:
            with pytest.raises(Unstable, match=re.escape(f"max|Im W| = {imag:.3e}") + "$"):
                state._real_wigner(out)
        else:
            np.testing.assert_array_equal(state._real_wigner(out), out.real)
