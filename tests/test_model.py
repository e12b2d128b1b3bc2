"""Tests for the system description layer."""
from __future__ import annotations

import math

import numpy as np
import pytest

from audits import system_to_dict
from conftest import channel_with_alpha, random_symplectic, random_system
from lindquad import (ChordState, ConfigError, FockDensity, HamiltonianForm, J,
                      LindbladChannel, NonSymplectic, OpenSystem, Regime, cat_state,
                      characteristic_timescale, classify, coherent_state, fock_cat,
                      fock_coherent, gaussian_state, photon_bath, symplectic_transform,
                      system_from_dict, wedge)
from lindquad.model import finite_array


def test_wedge_is_antisymmetric_and_matches_j() -> None:
    rng = np.random.default_rng(1)
    for _ in range(20):
        a, b = rng.normal(size=2), rng.normal(size=2)
        assert wedge(a, b) == pytest.approx(-wedge(b, a), abs=1e-14)
        assert wedge(a, b) == pytest.approx((J @ a) @ b, abs=1e-14)
    assert np.allclose(J @ J, -np.eye(2))


def test_hamiltonian_requires_symmetry() -> None:
    with pytest.raises(ConfigError):
        HamiltonianForm(matrix=[[1.0, 0.4], [0.0, 2.0]])
    # round-off level asymmetry is absorbed rather than rejected
    ham = HamiltonianForm(matrix=[[1.0, 0.2 + 1e-14], [0.2, 2.0]])
    assert np.allclose(ham.matrix, ham.matrix.T)
    assert ham.det == pytest.approx(2.0 - 0.04)
    assert np.allclose(ham.linear, [0.0, 0.0])


def test_hamiltonian_value_has_no_half_factor() -> None:
    ham = HamiltonianForm(matrix=[[0.5, 0.0], [0.0, 0.5]], linear=[0.0, 1.0])
    x = np.array([2.0, 3.0])
    # x.Hx + b.x = 0.5*4 + 0.5*9 + 3
    assert ham.value(x) == pytest.approx(9.5)


def test_hamiltonian_rejects_bad_shapes() -> None:
    with pytest.raises(ConfigError):
        HamiltonianForm(matrix=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ConfigError):
        HamiltonianForm(matrix=[[1.0, 0.0], [0.0, np.inf]])
    with pytest.raises(ConfigError):
        HamiltonianForm(matrix=np.eye(2), linear=[1.0, 2.0, 3.0])


def test_classify_regimes() -> None:
    assert classify(HamiltonianForm(matrix=np.eye(2))) is Regime.ELLIPTIC
    assert classify(HamiltonianForm(matrix=[[0.0, 0.5], [0.5, 0.0]])) \
        is Regime.HYPERBOLIC
    assert classify(HamiltonianForm(matrix=[[0.5, 0.0], [0.0, 0.0]])) \
        is Regime.PARABOLIC
    # determinants below the relative tolerance count as parabolic
    assert classify(HamiltonianForm(matrix=[[1.0, 0.0], [0.0, 1e-14]])) \
        is Regime.PARABOLIC
    assert classify(HamiltonianForm(matrix=[[1.0, 0.0], [0.0, 1e-10]])) \
        is Regime.ELLIPTIC


def test_sigma_convention() -> None:
    # hyperbolic p*q form: det H = -1/4, so sigma = 1 (real)
    assert OpenSystem(HamiltonianForm(matrix=[[0.0, 0.5], [0.5, 0.0]])).sigma \
        == pytest.approx(1.0)
    # elliptic oscillator at frequency omega: sigma = i*omega
    omega = 0.7
    s = OpenSystem(HamiltonianForm(matrix=(omega / 2.0) * np.eye(2))).sigma
    assert s == pytest.approx(1j * omega)


def test_dissipation_coefficient_targets() -> None:
    rng = np.random.default_rng(2)
    for alpha in (-0.3, 0.0, 0.45):
        ch = channel_with_alpha(rng, alpha)
        assert OpenSystem(HamiltonianForm(matrix=np.eye(2)), (ch,)).alpha \
            == pytest.approx(alpha, abs=1e-12)


def test_photon_bath_parameters() -> None:
    gamma, nbar, omega = 1.2, 0.7, 1.9
    sys = photon_bath(gamma=gamma, nbar=nbar, omega=omega)
    assert sys.alpha == pytest.approx(gamma / 2.0)
    assert sys.regime is Regime.ELLIPTIC
    assert sys.sigma == pytest.approx(1j * omega)
    # noise matrix is isotropic: gamma*(2*nbar+1)/2 * identity
    assert np.allclose(sys.k_matrix,
                       gamma * (2.0 * nbar + 1.0) / 2.0 * np.eye(2))
    c = np.sqrt(gamma * (nbar + 1.0) / 2.0)
    d = np.sqrt(gamma * nbar / 2.0)
    assert np.allclose(sys.channels[0].l_re, [0.0, c])
    assert np.allclose(sys.channels[0].l_im, [c, 0.0])
    assert np.allclose(sys.channels[1].l_re, [0.0, d])
    assert np.allclose(sys.channels[1].l_im, [-d, 0.0])


def test_photon_bath_rejects_bad_parameters() -> None:
    with pytest.raises(ConfigError):
        photon_bath(gamma=-1.0)
    with pytest.raises(ConfigError):
        photon_bath(gamma=1.0, nbar=-0.1)


@pytest.mark.parametrize("kwargs", [
    {"gamma": math.nan}, {"gamma": 1.0, "nbar": math.nan},
    {"gamma": 1.0, "omega": math.nan}, {"gamma": math.inf},
    {"gamma": 1.0, "omega": -math.inf}, {"gamma": "1.0"}, {"gamma": True},
], ids=["nan-gamma", "nan-nbar", "nan-omega", "inf-gamma", "inf-omega",
        "string-gamma", "boolean-gamma"])
def test_photon_bath_rejects_values_that_are_not_finite_numbers(kwargs) -> None:
    # a NaN decay rate once passed both sign checks and gave no channels
    with pytest.raises(ConfigError):
        photon_bath(**kwargs)


def test_drift_matrix_and_offset() -> None:
    ham = HamiltonianForm(matrix=[[0.5, 0.1], [0.1, 0.3]], linear=[0.2, -0.4])
    rng = np.random.default_rng(3)
    ch = channel_with_alpha(rng, 0.25)
    sys = OpenSystem(hamiltonian=ham, channels=(ch,))
    assert np.allclose(sys.drift_matrix,
                       2.0 * J @ ham.matrix - 0.25 * np.eye(2), atol=1e-12)
    assert np.allclose(sys.drift_offset, J @ ham.linear)


def test_cached_arrays_refuse_writes() -> None:
    # one write to a cached array would silently change every later M
    saddle = OpenSystem(hamiltonian=HamiltonianForm(matrix=np.diag([0.5, -0.5])),
                        channels=(LindbladChannel(l_re=[0.0, 1.0], l_im=[-1.0, 0.0]),))
    assert 0.0 in saddle.damping_spectrum[0]  # 2 alpha + 2 sigma = 0
    for sys in (photon_bath(1.0, nbar=0.5), saddle):
        x, q, det, plus = sys.damping_spectrum
        cached = [sys.k_matrix, sys.generator, plus, sys.noise_vectors, sys.diffusion]
        for arr in cached:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        # the kernel's per-call data are tuples of Python scalars, immutable
        # by type: no array reaches the per-call path
        scalars = [*x, *det, *(v for form in (*q, *sys.moment_forms) for v in form)]
        assert len(scalars) == 3 + 4 + 18
        assert all(type(v) in (float, complex) for v in scalars)


def test_characteristic_timescale() -> None:
    sys = photon_bath(gamma=1.0, nbar=0.0, omega=1.0)
    # alpha = 1/2 and |sigma| = 1: fastest scale wins
    assert characteristic_timescale(sys) == pytest.approx(1.0)
    free = OpenSystem(hamiltonian=HamiltonianForm(matrix=np.zeros((2, 2))))
    assert characteristic_timescale(free) == np.inf


def test_symplectic_transform_preserves_invariants() -> None:
    rng = np.random.default_rng(4)
    for regime in ("elliptic", "hyperbolic", "parabolic"):
        sys = random_system(rng, regime, alpha=0.2)
        for _ in range(5):
            c = random_symplectic(rng)
            out = symplectic_transform(sys, c)
            assert out.regime is sys.regime
            assert out.alpha == pytest.approx(sys.alpha, abs=1e-10)
            # sigma^2 = -4 det H is the round-off-stable invariant
            assert out.sigma ** 2 == pytest.approx(sys.sigma ** 2, abs=1e-12)
            cinv = np.linalg.inv(c)
            assert np.allclose(out.k_matrix, cinv.T @ sys.k_matrix @ cinv,
                               atol=1e-10)


def test_symplectic_transform_rejects_non_symplectic() -> None:
    sys = photon_bath(gamma=1.0)
    with pytest.raises(NonSymplectic):
        symplectic_transform(sys, 2.0 * np.eye(2))
    with pytest.raises(NonSymplectic, match="2x2"):
        symplectic_transform(sys, np.eye(3))


def test_system_dict_round_trip() -> None:
    ham = HamiltonianForm(matrix=[[0.5, 0.1], [0.1, -0.2]], linear=[0.0, 1.0])
    ch = LindbladChannel(l_re=[0.0, 1.3], l_im=[0.7, 0.0])
    sys = OpenSystem(hamiltonian=ham, channels=(ch,), hbar=0.5)
    back = system_from_dict(system_to_dict(sys))
    assert np.allclose(back.hamiltonian.matrix, sys.hamiltonian.matrix)
    assert np.allclose(back.hamiltonian.linear, sys.hamiltonian.linear)
    assert np.allclose(back.channels[0].l_re, ch.l_re)
    assert np.allclose(back.channels[0].l_im, ch.l_im)
    assert back.hbar == sys.hbar


def test_system_from_dict_is_strict() -> None:
    good = system_to_dict(photon_bath(gamma=1.0))
    bad = dict(good)
    bad["extra"] = 1
    with pytest.raises(ConfigError):
        system_from_dict(bad)
    with pytest.raises(ConfigError):
        system_from_dict({k: v for k, v in good.items() if k != "hamiltonian"})
    bad = dict(good)
    bad["channels"] = [{"l_re": [1.0, 0.0, 0.0]}]
    with pytest.raises(ConfigError):
        system_from_dict(bad)
    bad = dict(good)
    bad["hbar"] = -1.0
    with pytest.raises(ConfigError):
        system_from_dict(bad)


def test_system_hbar_is_checked_by_the_one_rule(monkeypatch) -> None:
    # the descriptor's hbar reaches OpenSystem as given, so checked_hbar is
    # the only check it meets, and every bad value is still typed
    good = system_to_dict(photon_bath(gamma=1.0))
    for hbar in (-1.0, 0.0, math.nan, math.inf, True, "1.0", [1.0]):
        with pytest.raises(ConfigError):
            system_from_dict(dict(good, hbar=hbar))
    seen = []
    monkeypatch.setattr("lindquad.model.checked_hbar",
                        lambda value: seen.append(value) or 1.0)
    assert system_from_dict(dict(good, hbar=2)).hbar == 1.0
    assert seen == [2] and type(seen[0]) is int


def test_one_hbar_rule_gives_typed_errors() -> None:
    # hbar must be positive and finite wherever it enters, and the state
    # and Fock builders read their centre and zeta as finite numbers, before any
    # division by hbar or any basis size is worked out
    form, shifts = np.eye(2) / 2.0, [(0.0, 0.0)]
    probes = {
        "coherent hbar=0": lambda: coherent_state((0.0, 0.0), hbar=0.0),
        "gaussian hbar=0": lambda: gaussian_state((0.0, 0.0), np.eye(2) / 2, hbar=0.0),
        "cat hbar=0": lambda: cat_state(1.0, hbar=0.0),
        "coherent hbar=inf": lambda: coherent_state((0.0, 0.0), hbar=math.inf),
        "fock_coherent hbar=0": lambda: fock_coherent((1.0, 0.0), hbar=0),
        "fock_coherent hbar=-1": lambda: fock_coherent((1.0, 0.0), hbar=-1),
        "fock_cat(nan)": lambda: fock_cat(math.nan),
        "cat_state(nan)": lambda: cat_state(math.nan),
        "cat_state(True)": lambda: cat_state(True),
        "fock_cat(inf)": lambda: fock_cat(math.inf),
        "fock_coherent((nan, 0))": lambda: fock_coherent((math.nan, 0.0)),
        "fock_coherent((0, 1, 5))": lambda: fock_coherent((0.0, 1.0, 5.0)),
        "FockDensity hbar=nan": lambda: FockDensity(np.eye(3), hbar=math.nan),
        "FockDensity hbar=inf": lambda: FockDensity(np.eye(3), hbar=math.inf),
        "ChordState hbar=0": lambda: ChordState(
            log_weights=[0.0], form=form, shifts=shifts, label="x", pure=False,
            hbar=0.0),
    }
    for name, probe in probes.items():
        with pytest.raises(ConfigError):
            probe()
            pytest.fail(f"{name} was accepted")


_A = np.array
# finite_array reads every nesting of outside numbers by one walk: lists,
# tuples and numpy arrays (at the top or as rows), numpy scalars and a 0-d
# array; the rest is refused with ConfigError, range(2) too, since only
# lists, tuples and arrays nest.
_FINITE_ARRAY_CASES = {
    "json-2x2": ([[1, 2.5], [-3, 4]], (2, 2), [[1.0, 2.5], [-3.0, 4.0]]),
    "json-vector": ([0.5, -1], (2,), [0.5, -1.0]),
    "json-int": (3, (), 3.0),
    "json-float": (2.5, (), 2.5),
    "tuple-2x2": (((1.0, 2.0), (3.0, 4.0)), (2, 2), [[1.0, 2.0], [3.0, 4.0]]),
    "tuple-vector": ((1, 2.0), (2,), [1.0, 2.0]),
    "array-2x2": (_A([[1.0, 2.0], [3.0, 4.0]]), (2, 2), [[1.0, 2.0], [3.0, 4.0]]),
    "int-array": (_A([1, 2]), (2,), [1.0, 2.0]),
    "float32-array": (_A([0.1, 2.0], dtype=np.float32), (2,), [0.10000000149011612, 2.0]),
    "object-array-of-numbers": (_A([1.0, 2.0], dtype=object), (2,), [1.0, 2.0]),
    "array-rows-in-list": ([_A([1.0, 2.0]), _A([3.0, 4.0])], (2, 2),
                           [[1.0, 2.0], [3.0, 4.0]]),
    "array-row-in-tuple": ((_A([1.0, 2.0]), [3, 4]), (2, 2), [[1.0, 2.0], [3.0, 4.0]]),
    "numpy-float": (np.float64(1.5), (), 1.5),
    "numpy-int": (np.int64(7), (), 7.0),
    "numpy-scalars-in-list": ([np.float32(0.5), np.int8(3)], (2,), [0.5, 3.0]),
    "0d-array": (_A(1.25), (), 1.25),
    "big-int": ([10 ** 300, 1], (2,), [1e300, 1.0]),
    "true": (True, (), ConfigError),
    "numpy-bool": (np.bool_(True), (), ConfigError),
    "bool-in-list": ([True, 1.0], (2,), ConfigError),
    "bool-array": (_A([True, False]), (2,), ConfigError),
    "string": ("1.0", (), ConfigError),
    "string-in-list": (["1", 2.0], (2,), ConfigError),
    "none": (None, (), ConfigError),
    "none-in-list": ([None, 1.0], (2,), ConfigError),
    "complex": (1 + 2j, (), ConfigError),
    "complex-array": (_A([1 + 0j, 2]), (2,), ConfigError),
    "object-array-mixed": (_A([1.0, "a"], dtype=object), (2,), ConfigError),
    "ragged": ([[1.0, 2.0], [3.0]], (2, 2), ConfigError),
    "array-rows-unequal": ([_A([1.0, 2.0]), _A([3.0])], (2, 2), ConfigError),
    "list-of-0d-arrays": ([_A(1.0), _A(2.0)], (2,), ConfigError),
    "too-long": ([1.0, 2.0, 3.0], (2,), ConfigError),
    "too-shallow": ([1.0, 2.0], (2, 2), ConfigError),
    "too-deep": ([[1.0, 2.0], [3.0, 4.0]], (2,), ConfigError),
    "array-wrong-shape": (_A([[1.0, 2.0]]), (2, 2), ConfigError),
    "list-for-number": ([1.0], (), ConfigError),
    "dict": ({"a": 1}, (), ConfigError),
    "range": (range(2), (2,), ConfigError),
    "nan": ([math.nan, 1.0], (2,), ConfigError),
    "inf": (math.inf, (), ConfigError),
    "nan-array": (_A([[1.0, np.nan], [0.0, 1.0]]), (2, 2), ConfigError),
    "int-beyond-float": (10 ** 400, (), ConfigError),
    "int-beyond-float-in-list": ([1.0, -10 ** 400], (2,), ConfigError),
}


@pytest.mark.parametrize("name", sorted(_FINITE_ARRAY_CASES))
def test_finite_array_reads_every_nesting_by_one_walk(name) -> None:
    value, shape, expect = _FINITE_ARRAY_CASES[name]
    if expect is ConfigError:
        with pytest.raises(ConfigError):
            finite_array(value, shape, "x")
        return
    arr = finite_array(value, shape, "x")
    assert arr.dtype == np.float64 and arr.shape == shape
    assert arr.tolist() == expect and not arr.flags.writeable


def test_entries_up_to_the_float_maximum_are_read_as_given() -> None:
    # halving each off-diagonal entry before the sum keeps a finite pair
    # finite, and sigma and the timescale come from det H = 1e308 itself
    system = system_from_dict(dict(system_to_dict(photon_bath(gamma=1.0)),
                                   hamiltonian={"matrix": [[1e308, 0.0], [0.0, 1.0]]}))
    assert system.hamiltonian.matrix.tolist() == [[1e308, 0.0], [0.0, 1.0]]
    assert system.hamiltonian.det == 1e308
    assert system.sigma == 2e154j
    assert characteristic_timescale(system) == 5e-155
    ham = HamiltonianForm(matrix=[[1.0, 1e308], [1e308, 1.0]])
    assert ham.matrix.tolist() == [[1.0, 1e308], [1e308, 1.0]]
    assert ham.det == -math.inf and classify(ham) is Regime.HYPERBOLIC
