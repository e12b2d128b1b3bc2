"""End-to-end tests of the command-line interface.

Every test drives ``lindquad.cli.main`` directly (it returns the exit
code instead of calling ``sys.exit``), writing JSON configs into the
pytest tmp directory.
"""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from lindquad import (cat_state, coherent_state, oracle, photon_bath, purity,
                      read_field_csv, system_to_dict)
from lindquad.cli import main

# full-precision values behind the three-decimal sweep table
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

PHOTON = system_to_dict(photon_bath(gamma=1.0, nbar=0.0))
COHERENT = {"type": "coherent", "center": [0.8, 0.0]}


def _config(tmp_path, payload: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# classify / positivity


def test_classify_prints_json(tmp_path, capsys) -> None:
    cfg = _config(tmp_path, {"system": PHOTON})
    assert main(["classify", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["regime"] == "Elliptic"
    assert payload["alpha"] == pytest.approx(0.5)
    assert payload["sigma_re"] == pytest.approx(0.0, abs=1e-12)
    assert payload["sigma_im"] == pytest.approx(1.0)
    assert payload["timescale"] == pytest.approx(1.0)


def test_classify_writes_file(tmp_path) -> None:
    cfg = _config(tmp_path, {"system": PHOTON})
    out = tmp_path / "classify.json"
    assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["hbar"] == 1.0


def test_positivity_single_system(tmp_path, capsys) -> None:
    cfg = _config(tmp_path, {"system": PHOTON, "horizon": 5.0})
    assert main(["positivity", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "reached"
    assert payload["t_p"] == pytest.approx(math.log(2.0), rel=1e-9)
    assert payload["det_value"] == pytest.approx(0.25, abs=1e-9)


def test_positivity_pure_gain_is_unreached(tmp_path, capsys) -> None:
    # alpha = -0.09, K = 0.09 I: det M(-t) = (1 - e^{-0.18 t})^2 / 4 only
    # approaches 1/4 from below
    gain = {"hamiltonian": {"matrix": [[0.5, 0.0], [0.0, 0.5]]},
            "channels": [{"l_re": [0.0, 0.3], "l_im": [-0.3, 0.0]}]}
    cfg = _config(tmp_path, {"system": gain, "horizon": 300.0})
    assert main(["positivity", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "unreached"
    assert payload["limit"] <= 0.25


def test_positivity_overflow_exits_five(tmp_path) -> None:
    # alpha = 1e-100 on a sigma = 1 saddle: M(-t) overflows before its
    # determinant is resolved above 1/4
    r = 1e-50
    saddle = {"hamiltonian": {"matrix": [[0.5, 0.0], [0.0, -0.5]]},
              "channels": [{"l_re": [0.0, r], "l_im": [r, 0.0]}]}
    cfg = _config(tmp_path, {"system": saddle, "horizon": 1000.0})
    assert main(["positivity", "--config", cfg]) == 5


def test_positivity_require_reached_exit_code(tmp_path, capsys) -> None:
    # no channels: the determinant never leaves zero
    quiet = {"hamiltonian": {"matrix": [[0.5, 0.0], [0.0, 0.5]]}}
    cfg = _config(tmp_path, {"system": quiet, "horizon": 2.0})
    assert main(["positivity", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "unreached"
    assert main(["positivity", "--config", cfg, "--require-reached"]) == 3


def test_sweep_reproduces_frozen_thresholds(tmp_path) -> None:
    out = tmp_path / "sweep.csv"
    assert main(["positivity", "--sweep", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "epsilon,d_second,status,t_p"
    got = {}
    for line in lines[1:]:
        eps, ds, status, t_p = line.split(",")
        assert status == "reached"
        got[(float(eps), float(ds))] = float(t_p)
    assert set(got) == set(FROZEN_SWEEP)
    for key, expect in FROZEN_SWEEP.items():
        assert got[key] == pytest.approx(expect, rel=1e-9)


def test_sweep_reruns_byte_identical(tmp_path) -> None:
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(["positivity", "--sweep", "--out", str(first)]) == 0
    assert main(["positivity", "--sweep", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_threshold_table_preset(tmp_path) -> None:
    out = tmp_path / "table.csv"
    assert main(["positivity", "--paper-table", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "case,param1,param2,t_p_solver,t_p_formula"
    parabolic = [l for l in lines[1:] if l.startswith("parabolic,")]
    photon = [l for l in lines[1:] if l.startswith("photon,")]
    assert len(parabolic) == 10
    assert len(photon) == 3
    for line in parabolic:
        _, eps, ds, solver, formula = line.split(",")
        assert float(solver) == pytest.approx(
            FROZEN_SWEEP[(float(eps), float(ds))], rel=1e-9)
        if float(ds) == 0.0:
            assert float(formula) == pytest.approx((3.0 / 4.0) ** 0.25,
                                                   rel=1e-12)
            assert abs(float(solver) - float(formula)) < 1e-6
        else:
            assert formula == ""
    for line in photon:
        _, gamma, nbar, solver, formula = line.split(",")
        expect = math.log(1.0 + 1.0 / (2.0 * float(nbar) + 1.0)) / float(gamma)
        assert float(formula) == pytest.approx(expect, rel=1e-12)
        assert abs(float(solver) - float(formula)) < 1e-6


# ---------------------------------------------------------------------------
# evolve / entropy


def test_evolve_wigner_field(tmp_path) -> None:
    cfg = _config(tmp_path, {
        "system": PHOTON, "state": COHERENT, "t": 0.4,
        "grid": {"center": [0.0, 0.0], "half_extent": [4.0, 4.0],
                 "shape": [33, 33]},
    })
    out = tmp_path / "field.csv"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    assert out.exists() and (tmp_path / "field.csv.json").exists()
    field = read_field_csv(str(out))
    assert field.values.shape == (33, 33)
    assert field.values.dtype == np.float64
    assert field.integral == pytest.approx(1.0, abs=1e-6)


def test_evolve_chord_representation(tmp_path) -> None:
    grid = {"center": [0.0, 0.0], "half_extent": [3.0, 3.0], "shape": [17, 17]}
    cfg = _config(tmp_path, {
        "system": PHOTON, "state": COHERENT, "t": 0.3,
        "grid": grid, "representation": "chord",
    })
    out = tmp_path / "chord.csv"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    field = read_field_csv(str(out))
    assert np.iscomplexobj(field.values)
    assert np.max(np.abs(field.values.imag)) > 1e-3  # genuinely complex
    # the origin carries the conserved trace 1/(2 pi hbar)
    assert field.values[8, 8] == pytest.approx(1.0 / (2.0 * math.pi))


def test_evolve_overflow_exits_five(tmp_path) -> None:
    # sigma = 5: e^{2 sigma t} overflows the damping matrix at t = 100
    unstable = {"hamiltonian": {"matrix": [[0.0, 2.5], [2.5, 0.0]]},
                "channels": [{"l_re": [0.0, 1.0], "l_im": [0.01, 0.0]}]}
    cfg = _config(tmp_path, {
        "system": unstable, "state": COHERENT, "t": 100.0,
        "grid": {"center": [0.0, 0.0], "half_extent": [4.0, 4.0],
                 "shape": [17, 17]}})
    assert main(["evolve", "--config", cfg, "--out",
                 str(tmp_path / "w.csv")]) == 5


def test_evolve_rejects_undersized_grid(tmp_path) -> None:
    cfg = _config(tmp_path, {
        "system": PHOTON, "state": COHERENT, "t": 0.4,
        "grid": {"center": [0.0, 0.0], "half_extent": [2.0, 2.0],
                 "shape": [8, 8]},
    })
    assert main(["evolve", "--config", cfg, "--out",
                 str(tmp_path / "x.csv")]) == 4


def test_entropy_curve_csv(tmp_path) -> None:
    cfg = _config(tmp_path, {
        "system": PHOTON, "state": COHERENT, "times": [0.2, 8.0],
    })
    out = tmp_path / "purity.csv"
    assert main(["entropy", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,purity,linear_entropy,method"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[3] for r in rows] == ["quadrature", "quadrature", "asymptotic"]
    sys = photon_bath(gamma=1.0, nbar=0.0)
    state = coherent_state((0.8, 0.0))
    for r in rows[:2]:
        assert float(r[1]) == pytest.approx(purity(sys, state, float(r[0])),
                                            rel=1e-9)
        assert float(r[2]) == pytest.approx(1.0 - float(r[1]), rel=1e-12)


# ---------------------------------------------------------------------------
# langevin / reconstruct / oracle-compare


def _langevin_config(tmp_path, **extra) -> str:
    payload = {
        "system": PHOTON,
        "state": {"type": "gaussian", "mean": [1.0, -0.5],
                  "cov": [[0.7, 0.15], [0.15, 0.4]]},
        "t": 0.3, "dt": 1e-3, "n_paths": 400, "store_stride": 100,
    }
    payload.update(extra)
    return _config(tmp_path, payload, name="langevin.json")


def test_langevin_outputs(tmp_path) -> None:
    cfg = _langevin_config(tmp_path, seed=7)
    out = tmp_path / "paths.csv"
    assert main(["langevin", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,mean_p,mean_q,cov_pp,cov_pq,cov_qq,n_paths"
    assert len(lines) == 5  # t=0 plus three stored strides plus final
    assert all(line.endswith(",400") for line in lines[1:])

    report = json.loads((tmp_path / "paths.csv.json").read_text())
    assert report["seed"] == 7
    assert report["n_paths"] == 400
    assert report["t"] == 0.3
    sample = np.asarray(report["sample_mean"])
    exact = np.asarray(report["exact_mean"])
    cov = np.asarray(report["exact_cov"])
    tol = 5.0 * np.sqrt(np.diag(cov) / 400)
    assert np.all(np.abs(sample - exact) < tol)


def test_langevin_seeded_rerun_is_byte_identical(tmp_path) -> None:
    cfg = _langevin_config(tmp_path, seed=3)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["langevin", "--config", cfg, "--out", str(a)]) == 0
    assert main(["langevin", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.json").read_bytes() == \
        (tmp_path / "b.csv.json").read_bytes()


def test_langevin_seed_flag_overrides_config(tmp_path) -> None:
    cfg = _langevin_config(tmp_path, seed=3)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["langevin", "--config", cfg, "--out", str(a),
                 "--seed", "11"]) == 0
    assert main(["langevin", "--config", cfg, "--out", str(b)]) == 0
    assert json.loads((tmp_path / "a.csv.json").read_text())["seed"] == 11
    assert a.read_bytes() != b.read_bytes()


def test_reconstruct_outputs(tmp_path) -> None:
    cfg = _config(tmp_path, {
        "system": PHOTON, "state": COHERENT, "t": 0.2,
        "chord_grid": {"center": [0.0, 0.0], "half_extent": [3.0, 3.0],
                       "shape": [17, 17]},
    })
    out = tmp_path / "recon.csv"
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 0
    values = read_field_csv(str(out))
    mask = read_field_csv(str(out) + ".reliability.csv")
    assert set(np.unique(mask.values)) <= {0.0, 1.0}
    assert mask.values[8, 8] == 1.0  # origin is always reliable
    assert values.values[8, 8] == pytest.approx(1.0 / (2.0 * math.pi),
                                                rel=1e-9)


def test_oracle_compare_report(tmp_path) -> None:
    cfg = _config(tmp_path, {
        "system": PHOTON,
        "state": {"type": "coherent", "center": [0.6, 0.0]},
        "t": 0.15,
        "grid": {"center": [0.0, 0.0], "half_extent": [5.0, 5.0],
                 "shape": [49, 49]},
    })
    out = tmp_path / "report.json"
    assert main(["oracle-compare", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report["linf"]) == {"exact_vs_fp", "exact_vs_fock",
                                   "fp_vs_fock"}
    assert set(report["tv"]) == set(report["linf"])
    assert report["fock_dim"] >= 2
    assert report["linf"]["exact_vs_fp"] < 2e-3
    assert report["linf"]["exact_vs_fock"] < 1e-6
    assert report["tv"]["exact_vs_fp"] < 1e-3


def test_oracle_compare_honours_linear_drive(tmp_path) -> None:
    # H = (p^2 + q^2)/2 + q moves the coherent state off the origin
    c = math.sqrt(0.2)
    cfg = _config(tmp_path, {
        "system": {"hamiltonian": {"matrix": [[0.5, 0.0], [0.0, 0.5]],
                                   "linear": [0.0, 1.0]},
                   "channels": [{"l_re": [0.0, c], "l_im": [c, 0.0]}]},
        "state": {"type": "coherent", "center": [0.0, 0.0]},
        "t": 1.0,
        "grid": {"center": [0.0, 0.0], "half_extent": [7.0, 7.0],
                 "shape": [81, 81]},
    })
    out = tmp_path / "report.json"
    assert main(["oracle-compare", "--config", cfg, "--out", str(out)]) == 0
    linf = json.loads(out.read_text())["linf"]
    assert linf["exact_vs_fock"] < 1e-6
    assert linf["exact_vs_fp"] <= 2.0 * linf["fp_vs_fock"]


def test_oracle_compare_rejects_gaussian_before_integrating(
        tmp_path, monkeypatch) -> None:
    def no_integration(*args, **kwargs):
        raise AssertionError("Fokker-Planck run before validation")

    monkeypatch.setattr(oracle, "integrate_fokker_planck", no_integration)
    cfg = _config(tmp_path, {
        "system": PHOTON,
        "state": {"type": "gaussian", "mean": [0.0, 0.0],
                  "cov": [[0.8, 0.1], [0.1, 0.7]]},
        "t": 0.1,
        "grid": {"center": [0.0, 0.0], "half_extent": [5.0, 5.0],
                 "shape": [33, 33]},
    })
    assert main(["oracle-compare", "--config", cfg, "--out",
                 str(tmp_path / "r.json")]) == 2


def test_oracle_compare_truncation_exit_code(tmp_path) -> None:
    cfg = _config(tmp_path, {
        "system": PHOTON,
        "state": {"type": "coherent", "center": [1.5, 0.0]},
        "t": 0.05,
        "grid": {"center": [0.0, 0.0], "half_extent": [6.0, 6.0],
                 "shape": [49, 49]},
        "fock_dim": 4,  # far too small for this displacement
    })
    assert main(["oracle-compare", "--config", cfg, "--out",
                 str(tmp_path / "r.json")]) == 5


# ---------------------------------------------------------------------------
# config validation


def test_config_errors_exit_two(tmp_path) -> None:
    # unknown top-level key
    cfg = _config(tmp_path, {"system": PHOTON, "bogus": 1}, name="a.json")
    assert main(["classify", "--config", cfg]) == 2
    # syntactically broken JSON
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["classify", "--config", str(broken)]) == 2
    # config file absent
    assert main(["classify", "--config", str(tmp_path / "missing.json")]) == 2
    # --config omitted entirely
    assert main(["classify"]) == 2
    # --out required for file-producing commands
    assert main(["positivity", "--sweep"]) == 2


def test_evolve_validation_errors(tmp_path) -> None:
    base = {
        "system": PHOTON, "state": COHERENT, "t": 0.1,
        "grid": {"center": [0.0, 0.0], "half_extent": [4.0, 4.0],
                 "shape": [17, 17]},
    }
    bad_repr = dict(base, representation="husimi")
    cfg = _config(tmp_path, bad_repr, name="r.json")
    assert main(["evolve", "--config", cfg, "--out",
                 str(tmp_path / "x.csv")]) == 2
    bad_t = dict(base, t="soon")
    cfg = _config(tmp_path, bad_t, name="t.json")
    assert main(["evolve", "--config", cfg, "--out",
                 str(tmp_path / "y.csv")]) == 2


def test_non_finite_numbers_exit_two(tmp_path) -> None:
    grid = {"center": [0.0, 0.0], "half_extent": [4.0, 4.0], "shape": [17, 17]}
    cfg = _config(tmp_path, {"system": PHOTON, "state": COHERENT,
                             "t": math.nan, "grid": grid}, name="t.json")
    out = tmp_path / "w.csv"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    cfg = _config(tmp_path, {"system": PHOTON, "state": COHERENT,
                             "times": [math.nan]}, name="times.json")
    assert main(["entropy", "--config", cfg, "--out",
                 str(tmp_path / "p.csv")]) == 2
    cfg = _config(tmp_path, {"system": PHOTON, "horizon": math.inf},
                  name="h.json")
    assert main(["positivity", "--config", cfg]) == 2


def test_non_finite_state_fields_exit_two(tmp_path) -> None:
    grid = {"center": [0.0, 0.0], "half_extent": [4.0, 4.0], "shape": [17, 17]}
    out = tmp_path / "w.csv"
    for state in ({"type": "coherent", "center": [math.nan, 0.0]},
                  {"type": "gaussian", "cov": [[1.0, 0.0], [0.0, math.inf]]},
                  {"type": "cat", "zeta": 1.0, "nbar": math.nan}):
        cfg = _config(tmp_path, {"system": PHOTON, "state": state, "t": 0.4,
                                 "grid": grid})
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
    cfg = _config(tmp_path, {"system": PHOTON, "times": [0.5],
                             "state": {"type": "coherent",
                                       "center": [0.0, math.nan]}})
    assert main(["entropy", "--config", cfg, "--out",
                 str(tmp_path / "p.csv")]) == 2


_GRID = {"center": [0.0, 0.0], "half_extent": [4.0, 4.0], "shape": [17, 17]}
_BASE = {
    "evolve": {"system": PHOTON, "state": COHERENT, "t": 0.4, "grid": _GRID},
    "entropy": {"system": PHOTON, "state": COHERENT, "times": [0.5]},
    "langevin": {"system": PHOTON, "state": COHERENT, "t": 0.1, "dt": 0.05,
                 "n_paths": 8},
}
_BAD_VALUES = {
    "cat-zeta": ("entropy", {"state": {"type": "cat", "zeta": "a"}}),
    "cat-gamma": ("entropy", {"state": {"type": "cat", "zeta": 1.0, "gamma": 1.0}}),
    "cat-nbar": ("entropy", {"state": {"type": "cat", "zeta": 1.0, "nbar": 0.0}}),
    "center-string": ("evolve", {"state": {"type": "coherent", "center": "ab"}}),
    "center-entry": ("evolve", {"state": {"type": "coherent", "center": ["a", 0]}}),
    "cov-entry": ("evolve", {"state": {"type": "gaussian",
                                       "cov": [[1.0, 0.0], [0.0, "a"]]}}),
    "h-matrix-entry": ("evolve", {"system": {
        "hamiltonian": {"matrix": [[0.5, 0.0], [0.0, "a"]]}}}),
    "l-re-entry": ("evolve", {"system": dict(
        PHOTON, channels=[{"l_re": ["x", 0], "l_im": [0.5, 0.0]}])}),
    "half-extent": ("evolve", {"grid": dict(_GRID, half_extent="a")}),
    "fractional-shape": ("evolve", {"grid": dict(_GRID, shape=[17.5, 17])}),
    "boolean-shape": ("evolve", {"grid": dict(_GRID, shape=[True, 17])}),
    "langevin-center-string": ("langevin", {
        "state": {"type": "coherent", "center": "ab"}}),
    "langevin-nan-center": ("langevin", {
        "state": {"type": "coherent", "center": [math.nan, 0.0]}}),
}


@pytest.mark.parametrize("command, override", list(_BAD_VALUES.values()),
                         ids=list(_BAD_VALUES))
def test_non_numeric_config_values_exit_two(tmp_path, command, override) -> None:
    cfg = _config(tmp_path, dict(_BASE[command], **override))
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_positivity_sweep_lists_are_validated(tmp_path) -> None:
    for payload in ({"epsilons": ["a"]}, {"epsilons": []},
                    {"d_second": [1.0, math.inf]}, {"d_second": 0.5}):
        cfg = _config(tmp_path, payload)
        for flag in ("--sweep", "--paper-table"):
            assert main(["positivity", flag, "--config", cfg, "--out",
                         str(tmp_path / "s.csv")]) == 2


def test_entropy_validation_errors(tmp_path) -> None:
    cfg = _config(tmp_path, {"system": PHOTON, "state": COHERENT,
                             "times": []}, name="e1.json")
    assert main(["entropy", "--config", cfg, "--out",
                 str(tmp_path / "p.csv")]) == 2
    cfg = _config(tmp_path, {"system": PHOTON, "state": COHERENT,
                             "times": [0.1, True]}, name="e2.json")
    assert main(["entropy", "--config", cfg, "--out",
                 str(tmp_path / "q.csv")]) == 2


def test_langevin_orbit_overflow_exits_five(tmp_path) -> None:
    # sigma = 5: cosh(sigma t) overflows the exact moments at t = 200
    cfg = _langevin_config(
        tmp_path, system={"hamiltonian": {"matrix": [[0.0, 2.5], [2.5, 0.0]]},
                          "channels": []},
        t=200.0, dt=100.0, n_paths=16, store_stride=1)
    assert main(["langevin", "--config", cfg, "--out",
                 str(tmp_path / "p.csv")]) == 5


def test_langevin_validation_errors(tmp_path) -> None:
    cfg = _langevin_config(tmp_path)
    out = str(tmp_path / "p.csv")
    assert main(["langevin", "--config", cfg, "--out", out,
                 "--seed", "-1"]) == 2
    cfg = _langevin_config(tmp_path, n_paths=0)
    assert main(["langevin", "--config", cfg, "--out", out]) == 2
    cat_cfg = _langevin_config(tmp_path, state={"type": "cat", "zeta": 1.0})
    assert main(["langevin", "--config", cat_cfg, "--out", out]) == 2
