"""Tests for positivity thresholds, purity and state reconstruction."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lindquad
from conftest import det2, random_symplectic
from lindquad import (AsymptoticInvalid, ChordState, ConfigError, HamiltonianForm,
                      LindbladChannel, OpenSystem, Unstable, cat_state,
                      cat_zero_crossing_time, coherent_state, evolved_state,
                      gaussian_state, photon_bath, positivity_time, purity,
                      purity_asymptotic, purity_curve, reconstruct, reliable_chords,
                      symplectic_transform, write_purity_csv)
from lindquad.grid import _json_text
from lindquad.propagator import _chord_exponent, _reversed_det
from solver_audits import linear_entropy


def _parabolic_system(d_prime: float, eps: float, d_second: float) -> OpenSystem:
    # sign convention of the reference sweep (and the CLI): eps = -1 damps
    # the motion (alpha > 0), eps = +1 pumps it
    ham = HamiltonianForm(matrix=[[0.5, 0.0], [0.0, 0.0]], linear=[0.0, 1.0])
    ch = LindbladChannel(l_re=[0.0, np.sqrt(d_prime)],
                         l_im=[-eps * np.sqrt(d_second), 0.0])
    return OpenSystem(hamiltonian=ham, channels=(ch,))


# Solver outputs for the momentum-coupling sweep at D' = 2, frozen once the
# determinant route had been cross-checked against the closed forms.  The
# looser comparisons against the two-to-three digit reference values live in
# the acceptance suite.
FROZEN_SWEEP = {
    (-1.0, 0.0): 0.9306048591020732,
    (-1.0, 0.1): 0.6404224516205653,
    (-1.0, 1.0): 0.244211702563023,
    (-1.0, 10.0): 0.07749347928770056,
    (-1.0, 100.0): 0.024506444948095535,
    (1.0, 0.0): 0.9306048591020732,
    (1.0, 0.1): 1.0400041398985713,
    (1.0, 1.0): 1.0241550094795204,
    (1.0, 10.0): 0.7537419773963691,
    (1.0, 100.0): 0.39921103041510286,
}


# ---------------------------------------------------------------------------
# positivity threshold


def test_photon_bath_threshold_closed_form() -> None:
    for gamma, nbar in ((1.0, 0.0), (1.0, 0.5), (2.0, 3.0)):
        result = positivity_time(photon_bath(gamma=gamma, nbar=nbar))
        expect = np.log(1.0 + 1.0 / (2.0 * nbar + 1.0)) / gamma
        assert result.reached
        assert result.t_p == pytest.approx(expect, rel=1e-11)
        assert result.det_value == pytest.approx(0.25, rel=1e-9)


def test_photon_bath_threshold_is_frequency_independent() -> None:
    base = positivity_time(photon_bath(gamma=1.0, nbar=0.5, omega=1.0))
    for omega in (0.0, 2.7):
        other = positivity_time(photon_bath(gamma=1.0, nbar=0.5, omega=omega))
        assert other.t_p == pytest.approx(base.t_p, rel=1e-9)


def test_threshold_equals_fringe_death_time() -> None:
    # two independent routes: determinant crossing vs the vanishing of the
    # last interference zero of an evolving cat
    for gamma, nbar in ((1.0, 0.0), (2.0, 3.0)):
        solver = positivity_time(photon_bath(gamma=gamma, nbar=nbar)).t_p
        fringe = cat_zero_crossing_time(gamma, nbar)
        assert solver == pytest.approx(fringe, rel=1e-8)


def test_momentum_noise_hand_integral() -> None:
    # pure momentum coupling: M(-t) integrates by hand to
    # [[D' t, -D' t^2 / 2], [-D' t^2/2, D' t^3/3]] whose determinant is
    # D'^2 t^4 / 12; threshold at (3/D'^2)^(1/4)
    from lindquad import damping_matrix

    for d_prime in (2.0, 0.7):
        sys = _parabolic_system(d_prime, 1.0, 0.0)
        for t in (0.4, 0.93):
            det = det2(damping_matrix(sys, -t))
            assert det == pytest.approx(d_prime ** 2 * t ** 4 / 12.0,
                                        rel=1e-10)
        result = positivity_time(sys)
        assert result.t_p == pytest.approx((3.0 / d_prime ** 2) ** 0.25,
                                           rel=1e-9)


def test_momentum_coupling_sweep_frozen_values() -> None:
    for (eps, d_second), expect in FROZEN_SWEEP.items():
        result = positivity_time(_parabolic_system(2.0, eps, d_second))
        assert result.reached
        assert result.t_p == pytest.approx(expect, rel=1e-9)


def test_threshold_unreached_below_horizon() -> None:
    result = positivity_time(photon_bath(gamma=1.0), horizon=1e-6)
    assert not result.reached
    assert result.t_p is None
    assert result.limit < 1e-10
    data = result.to_dict()
    assert data["status"] == "unreached"
    assert set(data) == {"status", "limit", "horizon", "iterations"}


def test_subnormal_horizon_ends_the_scan() -> None:
    # a start of 0 would never move under doubling: a horizon below the
    # small-time scale 1/(2 sqrt(det K)), subnormal ones included, is itself
    # the one evaluation. A subprocess with a timeout turns a regression
    # into a failure instead of a hang
    code = ("from lindquad import photon_bath, positivity_time; "
            "r = positivity_time(photon_bath(gamma=1.0), horizon=1e-323); "
            "print(r.reached, r.iterations)")
    src = str(Path(lindquad.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == ["False", "1"], proc.stderr
    # det K = 1/4: the start 1 is crossed, so the bracket is (0, 1] after
    # one evaluation, and rtsafe takes six more
    for horizon, iterations in ((100.0, 7), (1e-6, 1), (5e-321, 1)):
        assert positivity_time(photon_bath(gamma=1.0),
                               horizon=horizon).iterations == iterations


def test_threshold_bracket_takes_few_evaluations() -> None:
    # the benchmark's threshold jobs without their jitter and frames: the
    # 5 x 4 photon-bath grid and the unit-channel oscillators. The
    # small-time start 1/(2 sqrt(det K)) brackets t_p within a step or two;
    # the doubling ladder from 1e-3 of the timescale took about 15 each
    systems = [(photon_bath(gamma=gamma, nbar=nbar), 100.0)
               for gamma in (0.25, 0.5, 1.0, 2.0, 4.0)
               for nbar in (0.0, 0.5, 1.0, 3.0)]
    for alpha in (1e-1, 1e-2, 1e-3):
        r = np.sqrt(alpha)
        for h in (np.diag([0.5, 0.5]), np.diag([0.5, -0.5])):
            systems.append((OpenSystem(
                hamiltonian=HamiltonianForm(matrix=h),
                channels=(LindbladChannel(l_re=[0.0, r], l_im=[r, 0.0]),)), 800.0))
    results = [positivity_time(sys, horizon=horizon) for sys, horizon in systems]
    assert all(result.reached for result in results)
    assert np.mean([result.iterations for result in results]) <= 8.0


def test_unreached_verdicts_keep_their_limit() -> None:
    # pure gain approaches 1/4 from below: the limit is the supremum seen,
    # less its round-off, the same value the doubling ladder reported
    gain = OpenSystem(hamiltonian=HamiltonianForm(matrix=0.5 * np.eye(2)),
                      channels=(LindbladChannel(l_re=[0.0, 0.3], l_im=[-0.3, 0.0]),))
    result = positivity_time(gain, horizon=300.0)
    assert not result.reached
    assert result.limit <= 0.25
    assert result.limit == 0.24999999999999975
    # no noise at all: no evaluation
    free = OpenSystem(hamiltonian=HamiltonianForm(matrix=np.eye(2)))
    assert positivity_time(free).iterations == 0


def test_threshold_without_noise() -> None:
    free = OpenSystem(hamiltonian=HamiltonianForm(matrix=np.eye(2)))
    result = positivity_time(free)
    assert not result.reached
    assert result.limit == 0.0
    with pytest.raises(ConfigError):
        positivity_time(free, horizon=0.0)


def test_threshold_saturates_for_pure_gain() -> None:
    # a pure amplification channel on the oscillator drives the determinant
    # to the threshold value from below without ever crossing it
    ham = HamiltonianForm(matrix=0.5 * np.eye(2))
    d = 0.3
    ch = LindbladChannel(l_re=[0.0, d], l_im=[-d, 0.0])
    sys = OpenSystem(hamiltonian=ham, channels=(ch,))
    assert sys.alpha == pytest.approx(-d * d)
    result = positivity_time(sys, horizon=60.0)
    assert not result.reached
    assert 0.2 < result.limit < 0.25
    assert result.limit == pytest.approx(0.25, abs=1e-3)
    reported = json.loads(_json_text(result.to_dict()))
    assert reported["limit"] == pytest.approx(result.limit)


def test_threshold_found_in_short_resolved_window() -> None:
    # sigma = 1: det M(-t) ~ alpha^2 (cosh 2t - 1) / 2 while the entries of M
    # grow like alpha e^{2t}, so m00 m11 - m01^2 of an assembled M(-t) would
    # resolve the determinant above 1/4 only for t in about (16.5, 17.6);
    # the brackets (12.5, 25) and (15.6, 31.3) halved down from the horizons
    # hold no point of it, and the search must still find t_p
    alpha = 7e-8
    r = np.sqrt(alpha)
    ham = HamiltonianForm(matrix=[[0.5, 0.0], [0.0, -0.5]])
    sys = OpenSystem(hamiltonian=ham,
                     channels=(LindbladChannel(l_re=[0.0, r], l_im=[r, 0.0]),))
    for horizon in (100.0, 250.0):
        result = positivity_time(sys, horizon=horizon)
        assert result.reached
        assert result.t_p == pytest.approx(np.log(1.0 / alpha), abs=0.1)
        assert 0.25 < result.det_value < 0.35


def test_short_window_threshold_takes_few_evaluations() -> None:
    # the system above: the crossed scan point at t = 32.8 is resolved, so
    # Newton refines the bracket (16.4, 32.8) without a finer scan
    alpha = 7e-8
    r = np.sqrt(alpha)
    sys = OpenSystem(hamiltonian=HamiltonianForm(matrix=[[0.5, 0.0], [0.0, -0.5]]),
                     channels=(LindbladChannel(l_re=[0.0, r], l_im=[r, 0.0]),))
    assert positivity_time(sys).iterations <= 60


def test_crossing_test_changes_sign_once_near_a_weak_saddle_threshold() -> None:
    # alpha = 1e-3 on a sigma = 1 saddle in a sheared frame: the entries of
    # M(-t_p) reach 1e3, and m00 m11 - m01^2 of an assembled M(-t), which
    # cancels products near 1e6, flips the crossing test 181 times across
    # +-2e-10 t_p; det M(-t) from the two spectral products changes sign once
    r = np.sqrt(1e-3)
    saddle = OpenSystem(hamiltonian=HamiltonianForm(matrix=np.diag([0.5, -0.5])),
                        channels=(LindbladChannel(l_re=[0.0, r], l_im=[r, 0.0]),))
    system = symplectic_transform(saddle, random_symplectic(np.random.default_rng(4)))
    t_p = positivity_time(system, horizon=800.0).t_p
    times = t_p * (1.0 + np.linspace(-2e-10, 2e-10, 4001))
    det, _, margin = np.array([_reversed_det(system, t) for t in times.tolist()]).T
    crossed = det - 0.25 > margin
    assert np.count_nonzero(crossed[1:] != crossed[:-1]) == 1


def test_threshold_reported_as_json() -> None:
    result = positivity_time(photon_bath(gamma=1.0))
    data = json.loads(_json_text(result.to_dict()))
    assert data["status"] == "reached"
    assert data["t_p"] == pytest.approx(np.log(2.0), rel=1e-10)


def test_threshold_is_symplectically_invariant() -> None:
    rng = np.random.default_rng(40)
    sys = photon_bath(gamma=1.0, nbar=0.5)
    base = positivity_time(sys).t_p
    for _ in range(5):
        c = random_symplectic(rng)
        moved = positivity_time(symplectic_transform(sys, c)).t_p
        assert moved == pytest.approx(base, rel=1e-9)


def test_weak_coupling_elliptic_vs_hyperbolic() -> None:
    # identical weak channels: the rotating system loses its last negativity
    # on the coupling timescale, the stretching system on the dynamical one
    alpha = 0.01
    c = np.sqrt(alpha)
    channels = (LindbladChannel(l_re=[0.0, c], l_im=[c, 0.0]),)
    elliptic = OpenSystem(hamiltonian=HamiltonianForm(matrix=0.5 * np.eye(2)),
                          channels=channels)
    hyperbolic = OpenSystem(
        hamiltonian=HamiltonianForm(matrix=[[0.0, 0.5], [0.5, 0.0]]),
        channels=channels)
    t_ell = positivity_time(elliptic, horizon=200.0).t_p
    t_hyp = positivity_time(hyperbolic, horizon=200.0).t_p
    assert t_ell == pytest.approx(np.log(2.0) / (2.0 * alpha), rel=1e-6)
    assert t_hyp < t_ell
    assert t_hyp < 10.0  # saturates near the stretching time, not 1/alpha


def test_hyperbolic_weak_coupling_law_in_sheared_frames() -> None:
    # criterion 11's saddle: sigma = 1 and e = alpha^2, so the weak-coupling
    # law t_p ~ (1/2 sigma) ln(sigma^2/e) reads ln(1/alpha); the threshold
    # rises by ln 10 per decade and sits about alpha t_p below the law
    for alpha in 10.0 ** -np.arange(1, 9):
        r = np.sqrt(alpha)
        saddle = OpenSystem(
            hamiltonian=HamiltonianForm(matrix=np.diag([0.5, -0.5])),
            channels=(LindbladChannel(l_re=[0.0, r], l_im=[r, 0.0]),))
        law = np.log(1.0 / alpha)
        for k in (0.0, 3.0, 1.0 / 3.0):
            frame = symplectic_transform(saddle, np.array([[1.0, 0.0], [k, 1.0]]))
            t_p = positivity_time(frame).t_p
            assert abs(t_p - law) <= 1.1 * alpha * t_p, (alpha, k, t_p)


# ---------------------------------------------------------------------------
# purity and linear entropy


def test_purity_of_relaxing_coherent_state() -> None:
    state = coherent_state((0.7, -0.2))
    for gamma, nbar in ((0.8, 1.3), (1.0, 0.0)):
        sys = photon_bath(gamma=gamma, nbar=nbar)
        for t in (0.3, 1.0, 2.5):
            got = purity(sys, state, t)
            egt = np.exp(gamma * t)
            expect = egt / (1.0 + (egt - 1.0) * (2.0 * nbar + 1.0))
            assert got == pytest.approx(expect, rel=1e-10)


def test_purity_thermal_limit() -> None:
    state = coherent_state((0.5, 0.5))
    for nbar in (0.5, 2.0):
        sys = photon_bath(gamma=1.0, nbar=nbar)
        assert purity(sys, state, 18.0) == pytest.approx(
            1.0 / (2.0 * nbar + 1.0), rel=1e-6)


def test_cat_purity_dips_and_recovers_under_pure_loss() -> None:
    sys = photon_bath(gamma=1.0, nbar=0.0)
    state = cat_state(2.0)
    early = purity(sys, state, 0.4)
    assert purity(sys, state, 0.0) == pytest.approx(1.0, rel=1e-8)
    assert early < 0.75
    # residual mixedness decays like zeta^2 e^{-gamma t}
    late = purity(sys, state, 12.0)
    assert late > early
    assert late == pytest.approx(1.0, abs=1e-4)


def test_linear_entropy_complements_purity() -> None:
    sys = photon_bath(gamma=1.0, nbar=0.5)
    state = coherent_state((0.0, 0.0))
    assert linear_entropy(sys, state, 0.9) == pytest.approx(
        1.0 - purity(sys, state, 0.9), abs=1e-12)


def test_purity_validation() -> None:
    sys = photon_bath(gamma=1.0)
    state = coherent_state((0.0, 0.0))
    with pytest.raises(ConfigError, match="t >= 0"):
        purity(sys, state, -0.1)
    with pytest.raises(ConfigError, match="finite times"):
        purity(sys, state, float("nan"))
    with pytest.raises(ConfigError):
        purity_curve(sys, state, [0.5, -0.1])
    with pytest.raises(ConfigError):
        purity_asymptotic(sys, -0.1)


def test_purity_asymptote_matches_quadrature() -> None:
    sys = photon_bath(gamma=1.0, nbar=0.5)
    for state in (coherent_state((0.4, 0.0)),
                  cat_state(2.0)):
        exact = purity(sys, state, 7.0)
        approx = purity_asymptotic(sys, 7.0)
        assert abs(approx - exact) / exact < 1e-2


def test_purity_asymptote_rejects_short_times() -> None:
    sys = photon_bath(gamma=1.0, nbar=0.5)
    with pytest.raises(AsymptoticInvalid) as exc:
        purity_asymptotic(sys, 0.5)
    assert exc.value.eigenvalue < 50.0


def test_purity_asymptote_never_valid_for_weakly_damped_hyperbolic() -> None:
    # |alpha| below the stretching rate: the contracting direction keeps one
    # eigenvalue of the reversed damping matrix finite forever
    ham = HamiltonianForm(matrix=[[0.0, 0.5], [0.5, 0.0]])  # sigma = 1
    c = np.sqrt(0.3)
    ch = LindbladChannel(l_re=[0.0, c], l_im=[c, 0.0])  # alpha = 0.3
    sys = OpenSystem(hamiltonian=ham, channels=(ch,))
    eigenvalues = []
    for t in (10.0, 20.0, 40.0):
        with pytest.raises(AsymptoticInvalid) as exc:
            purity_asymptotic(sys, t)
        eigenvalues.append(exc.value.eigenvalue)
    # the blocking eigenvalue converges instead of growing with t
    assert eigenvalues[2] < 1.2 * eigenvalues[1]


def test_purity_asymptote_holds_in_sheared_frames() -> None:
    # saddle with alpha = 0.999 > sigma = 0.5: both eigenvalues of -M(-t)
    # grow, but a shear makes the dense matrix cancel its small one to 0
    a = np.sqrt(0.999)
    sys = OpenSystem(hamiltonian=HamiltonianForm(matrix=[[0.0, 0.5], [0.5, 0.0]]),
                     channels=(LindbladChannel(l_re=[0.0, a], l_im=[a, 0.0]),))
    sheared = symplectic_transform(sys, np.array([[1.0, 0.0], [0.5, 1.0]]))
    expected = {100.0: 0.0951151, 150.0: 0.0756649}
    for t, value in expected.items():
        assert purity_asymptotic(sys, t) == pytest.approx(value, rel=1e-6)
        assert purity_asymptotic(sheared, t) == pytest.approx(
            purity_asymptotic(sys, t), rel=1e-12)
    # the curve's per-time determinants give the same rows
    curve = purity_curve(sys, coherent_state((0.0, 0.0)), list(expected))
    assert curve.methods == ("quadrature",) * 2 + ("asymptotic",) * 2
    assert curve.values[2:].tolist() == [purity_asymptotic(sys, t) for t in expected]
    # a stronger shear: the small eigenvalue (det over the large one) is
    # really below the floor
    steep = symplectic_transform(sys, np.array([[1.0, 0.0], [2.0, 1.0]]))
    with pytest.raises(AsymptoticInvalid) as exc:
        purity_asymptotic(steep, 100.0)
    assert exc.value.eigenvalue == pytest.approx(18.1088, rel=1e-4)


def test_purity_holds_in_sheared_saddle_frames() -> None:
    # the saddle above: det(2A - 2M(-t)/hbar) of the dense matrix cancels in
    # a sheared frame, so the determinant takes det M(-t) from its products
    a = np.sqrt(0.999)
    sys = OpenSystem(hamiltonian=HamiltonianForm(matrix=[[0.0, 0.5], [0.5, 0.0]]),
                     channels=(LindbladChannel(l_re=[0.0, a], l_im=[a, 0.0]),))
    cat = cat_state(1.5)
    for k in (0.5, 2.0):
        c = np.array([[1.0, 0.0], [k, 1.0]])
        c_inv = np.linalg.inv(c)
        sheared = symplectic_transform(sys, c)
        # the states move with the frame: W'(x) = W(C^-1 x), Wt'(xi) = Wt(C^-1 xi)
        pairs = [(coherent_state((0.0, 0.0)), gaussian_state((0.0, 0.0), 0.5 * c @ c.T)),
                 (cat, ChordState(log_weights=cat.log_weights,
                                  form=c_inv.T @ cat.form @ c_inv,
                                  shifts=cat.shifts @ c_inv, label="moved cat",
                                  pure=True))]
        for t in (5.0, 20.0, 40.0):
            for state, moved in pairs:
                assert purity(sheared, moved, t) == pytest.approx(
                    purity(sys, state, t), rel=1e-10)


def test_purity_curve_rows_and_csv(tmp_path) -> None:
    sys = photon_bath(gamma=1.0, nbar=0.5)
    state = coherent_state((0.0, 0.0))
    curve = purity_curve(sys, state, [0.2, 8.0])
    methods = [m for m in curve.methods]
    assert methods.count("quadrature") == 2
    assert methods.count("asymptotic") == 1  # only the late time qualifies
    path = str(tmp_path / "purity.csv")
    write_purity_csv(curve, path)
    lines = (tmp_path / "purity.csv").read_text().splitlines()
    assert lines[0] == "t,purity,linear_entropy,method"
    assert len(lines) == 4
    t, value, entropy, method = lines[1].split(",")
    assert float(t) == 0.2
    assert float(value) + float(entropy) == pytest.approx(1.0, abs=1e-12)
    assert method == "quadrature"


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruction_round_trip() -> None:
    sys = photon_bath(gamma=1.0, nbar=0.0)
    state = cat_state(2.0)
    t = 0.3
    recovered = reconstruct(sys, evolved_state(sys, state, t), t)
    rng = np.random.default_rng(41)
    xi = rng.normal(scale=1.5, size=(200, 2))
    reliable = reliable_chords(sys, t, xi)
    assert reliable.any()
    orig = state(xi[reliable])
    back = recovered(xi[reliable])
    assert np.max(np.abs(back - orig)) / np.max(np.abs(orig)) < 1e-12


def test_reconstruction_reliability_mask() -> None:
    sys = photon_bath(gamma=1.0, nbar=1.0)
    state = coherent_state((0.0, 0.0))
    recovered = reconstruct(sys, evolved_state(sys, state, 1.0), 1.0)
    assert reliable_chords(sys, 1.0, np.zeros((1, 2)), 1e-6)[0]
    far = np.array([[40.0, 0.0]])
    assert not reliable_chords(sys, 1.0, far, 1e-6)[0]
    assert not recovered.pure


def test_reconstruction_mask_follows_the_reversed_damping_matrix() -> None:
    # saddle H = pq with one channel (alpha = 0.3): at t = 20 the chord
    # (30, 0) has Gaussian factor exp(xi . M(-t) xi / 2) = e^{-96}, so it is
    # not reliable, although the forward chord e^{alpha t} R_t xi rounds to
    # a vector whose forward factor is 1
    saddle = OpenSystem(hamiltonian=HamiltonianForm(matrix=[[0.0, 0.5], [0.5, 0.0]]),
                        channels=photon_bath(gamma=0.6).channels)
    assert saddle.alpha == pytest.approx(0.3)
    t = 20.0
    reconstruct(saddle, evolved_state(saddle, coherent_state((0.0, 0.0)), t), t)
    xi = np.array([[30.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert reliable_chords(saddle, t, xi).tolist() == [False, True, False]


def test_reconstruction_mask_is_the_same_in_sheared_saddle_frames() -> None:
    # the saddle with alpha = 0.999: xi . M(-20) xi / 2 at xi = (30, 0) is
    # -8,813.55, but a dense M(-20) in the frames k = 0.5 and 2 cancels it to
    # 0; the projected chords give the same exponent in every frame
    a = np.sqrt(0.999)
    sys = OpenSystem(hamiltonian=HamiltonianForm(matrix=[[0.0, 0.5], [0.5, 0.0]]),
                     channels=(LindbladChannel(l_re=[0.0, a], l_im=[a, 0.0]),))
    t, xi = 20.0, np.array([30.0, 0.0])
    reference = _chord_exponent(sys, -t, xi)
    assert reference / 2.0 == pytest.approx(-8813.55, rel=1e-6)
    for k in (0.0, 0.5, 2.0):
        c = np.array([[1.0, 0.0], [k, 1.0]])
        sheared = symplectic_transform(sys, c)
        assert _chord_exponent(sheared, -t, c @ xi) == pytest.approx(reference, rel=1e-9)
        assert not reliable_chords(sheared, t, (c @ xi)[None])[0]


def test_reconstruction_raises_where_its_chord_values_are_not_finite() -> None:
    # on the saddle H = pq at t = 20 the reversed map's dense M(-t) cancels
    # to a form with a large negative entry, whose chord values overflow
    saddle = OpenSystem(
        hamiltonian=HamiltonianForm(matrix=[[0.0, 0.5], [0.5, 0.0]]),
        channels=(LindbladChannel(l_re=[0.0, 0.5], l_im=[0.5, 0.0]),))
    t = 20.0
    recovered = reconstruct(
        saddle, evolved_state(saddle, coherent_state((0.3, 0.1)), t), t)
    with pytest.raises(Unstable, match="not finite"):
        recovered(np.array([[-30.0, -30.0], [0.0, 0.0]]))


def test_reconstruction_validation() -> None:
    sys = photon_bath(gamma=1.0)
    evolved = evolved_state(sys, coherent_state((0.0, 0.0)), 0.5)
    for floor in (0.0, -1.0, 1.5):
        with pytest.raises(ConfigError):
            reliable_chords(sys, 0.5, np.zeros((1, 2)), floor)
    with pytest.raises(ConfigError):
        reconstruct(sys, evolved, -0.5)
    with pytest.raises(ConfigError):
        reliable_chords(sys, -0.5, np.zeros((1, 2)))
