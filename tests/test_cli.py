"""End-to-end tests of the command-line interface.

Every test drives ``lindquad.cli.main`` directly (it returns the exit
code instead of calling ``sys.exit``), writing JSON configs into the
pytest tmp directory.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import lindquad
from audits import system_to_dict
from lindquad import (analysis, coherent_state, oracle, photon_bath, purity,
                      read_field_csv)
from lindquad.cli import _build_parser, main

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


def _saddle(r: float) -> dict:
    # one channel of amplitude r on a sigma = 1 saddle: alpha = r^2 and
    # det M(-t) ~ r^4 sinh(t)^2, which reaches 1/4 at t = -2 ln r + O(r^2)
    return {"hamiltonian": {"matrix": [[0.5, 0.0], [0.0, -0.5]]},
            "channels": [{"l_re": [0.0, r], "l_im": [r, 0.0]}]}


def test_positivity_overflow_exits_five(tmp_path) -> None:
    # r = 1e-100: t_p = -2 ln r = 460.5 lies past the overflow of e^{2t}
    # (t ~ 354.9), which the search meets before det M(-t) resolves above 1/4
    cfg = _config(tmp_path, {"system": _saddle(1e-100), "horizon": 1000.0})
    assert main(["positivity", "--config", cfg]) == 5


def test_positivity_resolves_a_weak_saddle_before_overflow(tmp_path, capsys) -> None:
    # r = 1e-50: the entries of M(-t) near 1e-100 e^{2t} stay finite at t_p
    cfg = _config(tmp_path, {"system": _saddle(1e-50), "horizon": 1000.0})
    assert main(["positivity", "--config", cfg]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "reached"
    assert payload["t_p"] == pytest.approx(-2.0 * math.log(1e-50), rel=1e-9)
    assert payload["det_value"] >= 0.25


def test_positivity_require_reached_exit_code(tmp_path, capsys) -> None:
    # no channels: the determinant never leaves zero
    quiet = {"hamiltonian": {"matrix": [[0.5, 0.0], [0.0, 0.5]]}}
    cfg = _config(tmp_path, {"system": quiet, "horizon": 2.0})
    assert main(["positivity", "--config", cfg]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "unreached"
    assert main(["positivity", "--config", cfg, "--require-reached"]) == 3


def test_cached_parser_matches_fresh_parsers(tmp_path) -> None:
    photon = _config(tmp_path, {"system": PHOTON}, "photon.json")
    quiet = _config(tmp_path, {"system": {"hamiltonian": {"matrix": [[0.5, 0.0],
                                                                      [0.0, 0.5]]}}},
                    "quiet.json")
    calls = [["positivity", "--config", photon], ["positivity", "--sweep"],
             ["classify", "--config", photon],
             ["positivity", "--config", quiet, "--require-reached"]]

    def run(tag: str, fresh: bool) -> list:
        results = []
        for i, argv in enumerate(calls):
            if fresh:
                _build_parser.cache_clear()
            out = tmp_path / f"{tag}-{i}.out"
            results.append((main(argv + ["--out", str(out)]), out.read_bytes()))
        return results

    cached = run("cached", fresh=False)
    assert _build_parser() is _build_parser()
    assert cached == run("fresh", fresh=True)
    assert [code for code, _ in cached] == [0, 0, 0, 3]


def test_seed_is_a_langevin_option_only(capsys) -> None:
    # the other subcommands draw nothing, so argparse rejects --seed there
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_sweep_and_paper_table_exclude_each_other(tmp_path, capsys) -> None:
    # together, one of the two tables would be dropped without a word
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        main(["positivity", "--sweep", "--paper-table", "--out", str(out)])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_loads_no_scipy() -> None:
    # scipy serves only the audits in oracle, which import it when called
    src = str(Path(lindquad.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, lindquad.cli; print(sorted(name for name in sys.modules "
            "if name.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert proc.stdout.strip() == "[]"


def test_cli_runs_every_subcommand_without_scipy(tmp_path) -> None:
    # scipy is blocked from import: only the audits in oracle may need it
    grid = {"center": [0.0, 0.0], "half_extent": [5.0, 5.0], "shape": [49, 49]}
    table = _config(tmp_path, {"d_second": [0.0, 1.0], "epsilons": [1.0]},
                    name="table.json")
    evolve = {"system": PHOTON, "state": COHERENT, "t": 0.2, "grid": grid}
    configs = {
        "classify": {"system": PHOTON},
        "positivity": {"system": PHOTON},
        "evolve": evolve,
        "chord": dict(evolve, representation="chord"),
        "entropy": {"system": PHOTON, "state": COHERENT, "times": [0.2, 8.0]},
        "langevin": {"system": PHOTON, "state": COHERENT, "t": 0.3, "dt": 0.1,
                     "n_paths": 64},
        "reconstruct": {"system": PHOTON, "state": COHERENT, "t": 0.2,
                        "chord_grid": dict(grid, shape=[17, 17])},
        "oracle-compare": {"system": PHOTON, "t": 0.15, "grid": grid,
                           "state": {"type": "coherent", "center": [0.6, 0.0]},
                           "with_fock": True},
    }
    runs = [["evolve" if name == "chord" else name, "--config",
             _config(tmp_path, payload, name=f"{name}.json"),
             "--out", str(tmp_path / f"{name}.out")]
            for name, payload in configs.items()]
    runs += [["positivity", flag, "--config", table, "--out",
              str(tmp_path / f"table{flag}.csv")]
             for flag in ("--sweep", "--paper-table")]
    code = ("import json, sys; sys.modules['scipy'] = None; "
            "from lindquad.cli import main; "
            "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))")
    src = str(Path(lindquad.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(runs), proc.stderr
    # a numpy warning outside pytest's error::RuntimeWarning filter shows here
    assert proc.stderr == ""


def test_extreme_valid_numbers_exit_with_documented_codes(tmp_path) -> None:
    # finite JSON numbers at the edges of the float range: every subcommand
    # exits 0, 2, 3, 4 or 5 without a traceback, in one subprocess whose
    # timeout turns a hang into a failure. A cat whose zeta^2 overflows and
    # a seed past the Philox key word are refused; a subnormal horizon is
    # unreached
    grid = {"center": [0.0, 0.0], "half_extent": [5.0, 5.0], "shape": [17, 17]}
    base = {
        "classify": {"system": PHOTON},
        "positivity": {"system": PHOTON},
        "evolve": {"system": PHOTON, "state": COHERENT, "t": 0.2, "grid": grid},
        "chord": {"system": PHOTON, "state": COHERENT, "t": 0.2, "grid": grid,
                  "representation": "chord"},
        "entropy": {"system": PHOTON, "state": COHERENT, "times": [0.2]},
        "langevin": {"system": PHOTON, "state": COHERENT, "t": 0.3, "dt": 0.1,
                     "n_paths": 8},
        "reconstruct": {"system": PHOTON, "state": COHERENT, "t": 0.2,
                        "chord_grid": grid},
        "oracle-compare": {"system": PHOTON, "state": COHERENT, "t": 0.1,
                           "grid": grid},
    }
    documented = {0, 2, 3, 4, 5}
    systems = [dict(PHOTON, hamiltonian={"matrix": [[1e200, 0.0], [0.0, 1e200]]}),
               dict(PHOTON, channels=[{"l_re": [1e200, 0.0], "l_im": [0.0, 1e200]}]),
               dict(PHOTON, hbar=1e200), dict(PHOTON, hbar=1e-300)]
    cases = [(name, {"system": system}, documented)
             for system in systems for name in base]
    cases += [(name, {"state": {"type": "cat", "zeta": 1e160}}, {2})
              for name in ("evolve", "chord", "entropy", "reconstruct",
                           "oracle-compare")]
    cases += [(name, {"t": 1e308}, documented)
              for name in ("evolve", "chord", "langevin", "reconstruct",
                           "oracle-compare")]
    cases += [("entropy", {"times": [1e308]}, documented),
              ("reconstruct", {"chord_grid": dict(grid, half_extent=[1e308, 1e308])},
               documented),
              ("langevin", {"seed": 2 ** 64}, {2}),
              ("positivity", {"horizon": 1e-323}, {0})]
    runs, expect = [], []
    for index, (name, override, codes) in enumerate(cases):
        cfg = _config(tmp_path, dict(base[name], **override), name=f"{index}.json")
        runs.append(["evolve" if name == "chord" else name, "--config", cfg,
                     "--out", str(tmp_path / f"{index}.out")])
        expect.append(codes)
    horizon = _config(tmp_path, {"horizon": 1e-323}, name="horizon.json")
    runs += [["positivity", flag, "--config", horizon, "--out",
              str(tmp_path / f"table{flag}.csv")]
             for flag in ("--sweep", "--paper-table")]
    runs.append(["langevin", "--config", _config(tmp_path, base["langevin"]),
                 "--out", str(tmp_path / "seed.csv"), "--seed", str(2 ** 64)])
    expect += [{0}, {0}, {2}]
    code = ("import json, sys; from lindquad.cli import main; "
            "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))")
    src = str(Path(lindquad.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.splitlines()[-1])
    assert [(argv, got) for argv, got, ok in zip(runs, codes, expect)
            if got not in ok] == []


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


@pytest.mark.parametrize("flag", ["--sweep", "--paper-table"])
def test_threshold_tables_print_integers_as_floats(tmp_path, flag) -> None:
    # every number is a float64 repr: -1 and 0 in a config print as -1.0
    # and 0.0, the same bytes as the float spelling
    texts = []
    for payload in ({"epsilons": [-1, 1], "d_second": [0, 1], "d_prime": 2},
                    {"epsilons": [-1.0, 1.0], "d_second": [0.0, 1.0],
                     "d_prime": 2.0}):
        out = tmp_path / "table.csv"
        assert main(["positivity", flag, "--config", _config(tmp_path, payload),
                     "--out", str(out)]) == 0
        texts.append(out.read_text())
    assert texts[0] == texts[1]
    assert "-1.0,0.0," in texts[0].splitlines()[1]


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


def test_out_of_memory_exits_two(tmp_path, monkeypatch, capsys) -> None:
    # the allocation site fails as numpy's would, without allocating
    def refuse(self, grid):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(lindquad.ChordState, "wigner_grid", refuse)
    cfg = _config(tmp_path, {
        "system": PHOTON, "state": COHERENT, "t": 0.4,
        "grid": {"center": [0.0, 0.0], "half_extent": [4.0, 4.0],
                 "shape": [33, 33]},
    })
    out = tmp_path / "field.csv"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: evolve: out of memory")


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


def test_reconstruct_refuses_non_finite_chord_values(tmp_path) -> None:
    # saddle H = pq at t = 20: the recovered form cancels to a large negative
    # entry, so chords far out overflow; nothing is written
    cfg = _config(tmp_path, {
        "system": {"hamiltonian": {"matrix": [[0.0, 0.5], [0.5, 0.0]]},
                   "channels": [{"l_re": [0.0, 0.5], "l_im": [0.5, 0.0]}]},
        "state": {"type": "coherent", "center": [0.3, 0.1]}, "t": 20.0,
        "chord_grid": {"center": [0.0, 0.0], "half_extent": [30.0, 30.0],
                       "shape": [9, 9]},
    })
    out = tmp_path / "recon.csv"
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 5
    assert list(tmp_path.glob("recon.csv*")) == []


def test_reconstruct_refuses_through_the_chord_grid(tmp_path, monkeypatch) -> None:
    # the saddle case above: the tiled chord grid, not a per-node sum, is what
    # finds the overflow, and still nothing is written
    seen = []
    tiled = lindquad.ChordState.chord_grid

    def spy(self, grid):
        try:
            return tiled(self, grid)
        except lindquad.Unstable:
            seen.append("Unstable")
            raise

    monkeypatch.setattr(lindquad.ChordState, "chord_grid", spy)
    cfg = _config(tmp_path, {
        "system": {"hamiltonian": {"matrix": [[0.0, 0.5], [0.5, 0.0]]},
                   "channels": [{"l_re": [0.0, 0.5], "l_im": [0.5, 0.0]}]},
        "state": {"type": "coherent", "center": [0.3, 0.1]}, "t": 20.0,
        "chord_grid": {"center": [0.0, 0.0], "half_extent": [30.0, 30.0],
                       "shape": [9, 9]},
    })
    out = tmp_path / "recon.csv"
    assert main(["reconstruct", "--config", cfg, "--out", str(out)]) == 5
    assert seen == ["Unstable"]
    assert list(tmp_path.glob("recon.csv*")) == []


def test_evolve_chord_representation_is_the_chord_grid(tmp_path) -> None:
    cfg = _config(tmp_path, {
        "system": PHOTON, "state": {"type": "cat", "zeta": 1.5}, "t": 0.4,
        "grid": {"center": [0.2, -0.1], "half_extent": [3.0, 4.0], "shape": [17, 12]},
        "representation": "chord",
    })
    out = tmp_path / "chord.csv"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
    field = lindquad.read_field_csv(str(out))
    evolved = lindquad.evolved_state(photon_bath(gamma=1.0), lindquad.cat_state(1.5), 0.4)
    nodes = evolved(field.spec.points())
    assert np.max(np.abs(field.values - nodes)) <= 1e-12 * np.max(np.abs(nodes))


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


def test_oracle_compare_checks_the_initial_grid_before_integrating(
        tmp_path, monkeypatch) -> None:
    # spacing 0.5 resolves the state at t = 0.5 under the thermal bath but
    # not at t = 0, where the Fokker-Planck run would start
    def no_integration(*args, **kwargs):
        raise AssertionError("Fokker-Planck run from an unresolved grid")

    monkeypatch.setattr(oracle, "integrate_fokker_planck", no_integration)
    cfg = _config(tmp_path, {
        "system": system_to_dict(photon_bath(gamma=1.0, nbar=2.0)),
        "state": {"type": "coherent", "center": [0.5, 0.0]}, "t": 0.5,
        "with_fock": False,
        "grid": {"center": [0.0, 0.0], "half_extent": [6.0, 6.0],
                 "shape": [25, 25]},
    })
    assert main(["oracle-compare", "--config", cfg, "--out",
                 str(tmp_path / "r.json")]) == 4


def test_oracle_compare_runs_a_cat_through_the_fock_basis(tmp_path) -> None:
    cfg = _config(tmp_path, {
        "system": PHOTON, "state": {"type": "cat", "zeta": 1.0}, "t": 0.1,
        "grid": {"center": [0.0, 0.0], "half_extent": [6.0, 6.0],
                 "shape": [65, 65]},
    })
    out = tmp_path / "report.json"
    assert main(["oracle-compare", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["fock_dim"] == oracle.cat_fock_dim(1.0)
    assert report["linf"]["exact_vs_fock"] < 1e-8


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
    # valid JSON that is not an object
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    assert main(["classify", "--config", str(listed)]) == 2
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
    "reconstruct": {"system": PHOTON, "state": COHERENT, "t": 0.4,
                    "chord_grid": _GRID},
    "oracle-compare": {"system": PHOTON, "state": COHERENT, "t": 0.1,
                       "grid": _GRID},
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
    "three-entry-shape": ("evolve", {"grid": dict(_GRID, shape=[17, 17, 17])}),
    # shapes past an array's size once exited 1 with an untyped error
    "evolve-unbuildable-shape": ("evolve", {"grid": dict(_GRID, shape=[2 ** 63, 17])}),
    "oracle-compare-unbuildable-shape": ("oracle-compare", {
        "grid": dict(_GRID, shape=[10 ** 400, 17])}),
    "reconstruct-unbuildable-shape": ("reconstruct", {
        "chord_grid": dict(_GRID, shape=[17, 10 ** 400])}),
    "channels-object": ("evolve", {"system": dict(PHOTON, channels={})}),
    "ragged-h-matrix": ("evolve", {"system": {
        "hamiltonian": {"matrix": [[0.5, 0.0], [0.0]]}}}),
    "evolve-negative-t": ("evolve", {"t": -0.1}),
    "reconstruct-negative-t": ("reconstruct", {"t": -0.1}),
    "oracle-compare-negative-t": ("oracle-compare", {"t": -0.1}),
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


_TABLE = {"d_second": [0.0, 1.0], "epsilons": [1.0]}
_FINE = {"grid": dict(_GRID, half_extent=[5.0, 5.0], shape=[49, 49])}
_WRITES = {"classify": (["classify"], {"system": PHOTON}),
           "positivity": (["positivity"], {"system": PHOTON}),
           "sweep": (["positivity", "--sweep"], _TABLE),
           "paper-table": (["positivity", "--paper-table"], _TABLE),
           "evolve": (["evolve"], dict(_BASE["evolve"], **_FINE)),
           "oracle-compare": (["oracle-compare"], dict(
               _BASE["oracle-compare"], t=0.15, **_FINE,
               state={"type": "coherent", "center": [0.6, 0.0]})),
           **{command: ([command], _BASE[command])
              for command in ("entropy", "langevin", "reconstruct")}}


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize("name", sorted(_WRITES))
def test_unwritable_out_exits_two(tmp_path, capsys, name, where) -> None:
    # a path in a missing directory, or an existing directory, cannot be
    # written: an error line naming it, and no temp file left behind
    argv, payload = _WRITES[name]
    cfg = _config(tmp_path, payload)
    out = tmp_path / ("taken" if where == "directory" else "missing/out.csv")
    if where == "directory":
        out.mkdir()
    assert main([*argv, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write " + str(out)), err
    assert "Traceback" not in err
    assert list(tmp_path.rglob(".tmp-*.part")) == []


def test_cats_whose_separation_overflows_exit_two(tmp_path) -> None:
    # zeta^2 overflows from zeta ~ 1.35e154: refused before any file is made
    for command in ("evolve", "entropy", "reconstruct", "oracle-compare"):
        cfg = _config(tmp_path, dict(_BASE[command],
                                     state={"type": "cat", "zeta": 1e160}))
        out = tmp_path / f"{command}.out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert list(tmp_path.glob(f"{command}.out*")) == []


def test_coherent_centres_whose_occupancy_overflows_exit_two(tmp_path) -> None:
    # |c|^2 overflows: refused by coherent_fock_dim (it once exited 1 with an
    # OverflowError from math.ceil), under pytest's error::RuntimeWarning
    cfg = _config(tmp_path, dict(_BASE["oracle-compare"],
                                 state={"type": "coherent", "center": [0, 1e200]}))
    out = tmp_path / "oracle.json"
    assert main(["oracle-compare", "--config", cfg, "--out", str(out)]) == 2
    assert list(tmp_path.glob("oracle.json*")) == []


def test_number_bases_above_the_largest_exit_two_before_any_run(tmp_path,
                                                                monkeypatch) -> None:
    # fock_dim 501 once exited 2 only at wigner_from_fock, after about 5 s of
    # number-basis Lindblad run
    def no_run(*args, **kwargs):
        raise AssertionError("Lindblad run before the basis check")

    monkeypatch.setattr(oracle, "integrate_fock_lindblad", no_run)
    cfg = _config(tmp_path, dict(_BASE["oracle-compare"], fock_dim=501))
    start = time.perf_counter()
    assert main(["oracle-compare", "--config", cfg, "--out",
                 str(tmp_path / "oracle.json")]) == 2
    assert time.perf_counter() - start < 1.0
    assert list(tmp_path.glob("oracle.json*")) == []


def test_coherent_centres_above_the_largest_default_basis_exit_two(tmp_path) -> None:
    # |c|^2 is finite, but its default basis of about 5e199 states once failed
    # to allocate with an untyped ValueError (exit 1)
    cfg = _config(tmp_path, dict(_BASE["oracle-compare"],
                                 state={"type": "coherent", "center": [0, 1e100]}))
    assert main(["oracle-compare", "--config", cfg, "--out",
                 str(tmp_path / "oracle.json")]) == 2
    assert list(tmp_path.glob("oracle.json*")) == []


_HUGE_H = dict(PHOTON, hamiltonian={"matrix": [[1e200, 0.0], [0.0, 1e200]]})
_HUGE_CHANNEL = dict(PHOTON, channels=[{"l_re": [1e200, 0.0], "l_im": [0.0, 1e200]}])
_HUGE_ENTRY = dict(PHOTON, hamiltonian={"matrix": [[1e308, 0.0], [0.0, 1.0]]})
_HUGE_COV = {"type": "gaussian", "cov": [[1e308, 0.0], [0.0, 1.0]]}
_OVERFLOWING = {
    "classify-h": ("classify", {"system": _HUGE_H}, 5),
    "positivity-h": ("positivity", {"system": _HUGE_H}, 5),
    "classify-channel": ("classify", {"system": _HUGE_CHANNEL}, 5),
    "positivity-channel": ("positivity", {"system": _HUGE_CHANNEL}, 5),
    "evolve-t": ("evolve", dict(_BASE["evolve"], t=1e308), 5),
    "reconstruct-channel": ("reconstruct",
                            dict(_BASE["reconstruct"], system=_HUGE_CHANNEL), 5),
    "reconstruct-extent": ("reconstruct", dict(
        _BASE["reconstruct"], chord_grid=dict(_GRID, half_extent=[1e308, 1e308])), 2),
    "reconstruct-photon-extent": ("reconstruct", dict(
        _BASE["reconstruct"], chord_grid=dict(_GRID, half_extent=[1e300, 1e300])), 5),
    "reconstruct-saddle-h": ("reconstruct", dict(_BASE["reconstruct"], system=dict(
        _saddle(1.0), hamiltonian={"matrix": [[1e300, 0.5], [0.5, 0.0]]})), 5),
    "reconstruct-far-centre": ("reconstruct", dict(
        _BASE["reconstruct"],
        chord_grid=dict(_GRID, center=[1.7e308, 0.0], half_extent=[1e-12, 1e-12])), 0),
    # finite entries up to the float maximum are read and symmetrized as given
    "classify-huge-entry": ("classify", {"system": _HUGE_ENTRY}, 0),
    "evolve-huge-cov": ("evolve", dict(_BASE["evolve"], state=_HUGE_COV), 5),
    "langevin-huge-cov": ("langevin", dict(_BASE["langevin"], state=_HUGE_COV), 5),
}


@pytest.mark.parametrize("name", sorted(_OVERFLOWING))
def test_overflowing_inputs_exit_alike_under_warning_errors(tmp_path, name) -> None:
    # each once printed a numpy RuntimeWarning before its typed exit, and so
    # exited 1 where warnings are errors
    command, payload, code = _OVERFLOWING[name]
    argv = [command, "--config", _config(tmp_path, payload),
            "--out", str(tmp_path / "out")]
    got = []
    for action in ("ignore", "error"):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            got.append(main(argv))
    assert got == [code, code]


def test_positivity_sweep_lists_are_validated(tmp_path) -> None:
    for payload in ({"epsilons": ["a"]}, {"epsilons": []},
                    {"d_second": [1.0, math.inf]}, {"d_second": 0.5}):
        cfg = _config(tmp_path, payload)
        for flag in ("--sweep", "--paper-table"):
            assert main(["positivity", flag, "--config", cfg, "--out",
                         str(tmp_path / "s.csv")]) == 2


def test_threshold_tables_reject_negative_couplings(tmp_path) -> None:
    # both once reached math.sqrt and exited 1 with a ValueError
    out = tmp_path / "s.csv"
    for payload in ({"d_prime": -1.0}, {"d_second": [-1.0]}):
        cfg = _config(tmp_path, payload)
        for flag in ("--sweep", "--paper-table"):
            assert main(["positivity", flag, "--config", cfg, "--out",
                         str(out)]) == 2
            assert not out.exists()


@pytest.mark.parametrize("d_prime", [0.0, 1e-170, 1e200])
def test_paper_table_without_a_closed_form(tmp_path, d_prime) -> None:
    # d' = 0 has no parabolic closed form, and d'^2 out of the float range
    # none to print: empty cells, not a ZeroDivisionError or OverflowError
    cfg = _config(tmp_path, {"d_prime": d_prime})
    out = tmp_path / "table.csv"
    assert main(["positivity", "--paper-table", "--config", cfg, "--out",
                 str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["parabolic"] * 10 + ["photon"] * 3
    assert all(row[4] == "" for row in rows[:10])
    assert all(float(row[4]) > 0.0 for row in rows[10:])


def test_paper_table_unreached_photon_row(tmp_path) -> None:
    # ln 2 > 0.5: the nbar = 0 photon bath is not reached within the horizon
    cfg = _config(tmp_path, {"horizon": 0.5, "d_prime": 100.0,
                             "d_second": [0.0]})
    out = tmp_path / "table.csv"
    argv = ["positivity", "--paper-table", "--config", cfg, "--out", str(out)]
    assert main(argv) == 0
    assert main(argv + ["--require-reached"]) == 3
    lines = out.read_text().splitlines()
    assert f"photon,1.0,0.0,,{math.log(2.0)!r}" in lines
    assert "None" not in out.read_text()


@pytest.mark.parametrize("flag", ["--sweep", "--paper-table"])
def test_threshold_tables_need_out_before_solving(monkeypatch, flag) -> None:
    calls = []
    monkeypatch.setattr(lindquad.analysis, "positivity_time",
                        lambda *args, **kwargs: calls.append(args))
    assert main(["positivity", flag]) == 2
    assert calls == []


_UNKNOWN_KEY = {
    "classify": (["classify"], {"system": PHOTON, "bogus": 1}),
    "positivity": (["positivity"], {"system": PHOTON, "bogus": 1}),
    "sweep": (["positivity", "--sweep"], {"bogus": 1}),
    "paper-table": (["positivity", "--paper-table"], {"bogus": 1}),
    "evolve": (["evolve"], dict(_BASE["evolve"], bogus=1)),
    "entropy": (["entropy"], dict(_BASE["entropy"], bogus=1)),
    "langevin": (["langevin"], dict(_BASE["langevin"], bogus=1)),
    "reconstruct": (["reconstruct"], dict(_BASE["reconstruct"], bogus=1)),
    "oracle-compare": (["oracle-compare"], dict(_BASE["oracle-compare"], bogus=1)),
    "grid": (["evolve"], dict(_BASE["evolve"], grid=dict(_GRID, bogus=1))),
}


@pytest.mark.parametrize("argv, payload", list(_UNKNOWN_KEY.values()),
                         ids=list(_UNKNOWN_KEY))
def test_unknown_config_keys_exit_two(tmp_path, capsys, argv, payload) -> None:
    cfg = _config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(argv + ["--config", cfg, "--out", str(out)]) == 2
    assert "bogus" in capsys.readouterr().err
    assert not out.exists()


def test_entropy_validation_errors(tmp_path) -> None:
    cfg = _config(tmp_path, {"system": PHOTON, "state": COHERENT,
                             "times": []}, name="e1.json")
    assert main(["entropy", "--config", cfg, "--out",
                 str(tmp_path / "p.csv")]) == 2
    cfg = _config(tmp_path, {"system": PHOTON, "state": COHERENT,
                             "times": [0.1, True]}, name="e2.json")
    assert main(["entropy", "--config", cfg, "--out",
                 str(tmp_path / "q.csv")]) == 2
    cfg = _config(tmp_path, {"system": PHOTON, "state": COHERENT, "times": [0.1],
                             "include_asymptotic": "yes"}, name="e3.json")
    assert main(["entropy", "--config", cfg, "--out",
                 str(tmp_path / "r.csv")]) == 2


@pytest.mark.parametrize("command, key, payload", [
    ("entropy", "purity_curve", {"times": [0.2, 8.0]}),
    ("reconstruct", "reconstruct", {
        "t": 0.2, "chord_grid": {"center": [0.0, 0.0], "half_extent": [3.0, 3.0],
                                 "shape": [17, 17]}}),
])
def test_missing_out_is_reported_before_computing(
        tmp_path, monkeypatch, command, key, payload) -> None:
    calls = []
    monkeypatch.setattr(analysis, key, lambda *a, **k: calls.append(a))
    cfg = _config(tmp_path, dict(payload, system=PHOTON, state=COHERENT))
    assert main([command, "--config", cfg]) == 2
    assert calls == []


def test_oracle_compare_checks_fock_dim_without_fock(tmp_path, monkeypatch) -> None:
    def no_integration(*args, **kwargs):
        raise AssertionError("Fokker-Planck run before validation")

    monkeypatch.setattr(oracle, "integrate_fokker_planck", no_integration)
    for dim in ("lots", 1, 2.5, True):
        cfg = _config(tmp_path, {
            "system": PHOTON, "state": COHERENT, "t": 0.1, "with_fock": False,
            "fock_dim": dim, "grid": {"center": [0.0, 0.0],
                                      "half_extent": [5.0, 5.0], "shape": [33, 33]},
        })
        assert main(["oracle-compare", "--config", cfg, "--out",
                     str(tmp_path / "r.json")]) == 2


def test_langevin_orbit_overflow_exits_five(tmp_path) -> None:
    # sigma = 5: cosh(sigma t) overflows the exact moments at t = 200
    cfg = _langevin_config(
        tmp_path, system={"hamiltonian": {"matrix": [[0.0, 2.5], [2.5, 0.0]]},
                          "channels": []},
        t=200.0, dt=100.0, n_paths=16, store_stride=1)
    assert main(["langevin", "--config", cfg, "--out",
                 str(tmp_path / "p.csv")]) == 5


def test_langevin_failure_writes_no_file(tmp_path) -> None:
    # the saddle's paths and exact moments overflow: exit 5 leaves nothing
    cfg = _langevin_config(
        tmp_path, system={"hamiltonian": {"matrix": [[0.0, 2.5], [2.5, 0.0]]},
                          "channels": []},
        t=200.0, dt=100.0, n_paths=16, store_stride=1)
    out = tmp_path / "p.csv"
    assert main(["langevin", "--config", cfg, "--out", str(out)]) == 5
    assert list(tmp_path.glob("p.csv*")) == []


def test_langevin_refuses_seeds_beyond_the_philox_key(tmp_path) -> None:
    # a Philox key word holds seeds below 2**64; the largest one still runs
    out = tmp_path / "p.csv"
    cfg = _langevin_config(tmp_path, seed=2 ** 64)
    assert main(["langevin", "--config", cfg, "--out", str(out)]) == 2
    cfg = _langevin_config(tmp_path)
    assert main(["langevin", "--config", cfg, "--out", str(out),
                 "--seed", str(2 ** 64)]) == 2
    assert list(tmp_path.glob("p.csv*")) == []
    cfg = _langevin_config(tmp_path, seed=2 ** 64 - 1)
    assert main(["langevin", "--config", cfg, "--out", str(out)]) == 0
    assert json.loads((tmp_path / "p.csv.json").read_text())["seed"] == 2 ** 64 - 1


def test_langevin_samples_by_exact_transitions(tmp_path) -> None:
    cfg = _langevin_config(tmp_path, seed=5)
    out = tmp_path / "paths.csv"
    assert main(["langevin", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((tmp_path / "paths.csv.json").read_text())
    assert report["scheme"] == "exact"
    # one exact jump per stored interval: the same seed through the library
    system = photon_bath(gamma=1.0, nbar=0.0)
    ensemble = lindquad.simulate(
        system, [1.0, -0.5], [[0.7, 0.15], [0.15, 0.4]],
        0.3, 1e-3, 400, 5, store_stride=100, scheme="exact")
    mean, cov = lindquad.ensemble_moments(ensemble)
    assert report["sample_mean"] == [float(v) for v in mean]
    assert report["sample_cov"] == [[float(v) for v in row] for row in cov]


def test_langevin_refuses_one_path_before_sampling(tmp_path, monkeypatch) -> None:
    # a ddof = 1 covariance needs two paths; one once wrote zeros as sample_cov
    calls = []
    monkeypatch.setattr(lindquad.langevin, "simulate",
                        lambda *a, **k: calls.append(a))
    out = tmp_path / "p.csv"
    cfg = _langevin_config(tmp_path, n_paths=1)
    assert main(["langevin", "--config", cfg, "--out", str(out)]) == 2
    assert calls == []
    assert list(tmp_path.glob("p.csv*")) == []


def test_langevin_validation_errors(tmp_path) -> None:
    cfg = _langevin_config(tmp_path)
    out = str(tmp_path / "p.csv")
    assert main(["langevin", "--config", cfg, "--out", out,
                 "--seed", "-1"]) == 2
    cfg = _langevin_config(tmp_path, n_paths=0)
    assert main(["langevin", "--config", cfg, "--out", out]) == 2
    cat_cfg = _langevin_config(tmp_path, state={"type": "cat", "zeta": 1.0})
    assert main(["langevin", "--config", cat_cfg, "--out", out]) == 2


def test_integers_beyond_the_float_range_exit_two(tmp_path) -> None:
    # JSON integers are exact: one past the float range once escaped
    # finite_array as an OverflowError traceback (exit 1)
    huge = 10 ** 400
    for payload in (dict(PHOTON, hbar=huge),
                    dict(PHOTON, hamiltonian={"matrix": [[huge, 0], [0, 1]]})):
        cfg = _config(tmp_path, {"system": payload})
        assert main(["classify", "--config", cfg]) == 2
