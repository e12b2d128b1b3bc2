"""The package's public names and the benchmark's traced layers resolve, and no
module imports a name it never uses."""
from __future__ import annotations

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lindquad
import lindquad.cli
from audits import bench_module as _bench_module
from audits import system_to_dict
from lindquad import (HamiltonianForm, LindbladChannel, OpenSystem, analysis,
                      photon_bath, symplectic_transform)

_BENCH = Path(__file__).resolve().parent.parent / "bench"
_MODULES = ("analysis", "cli", "grid", "langevin", "model", "oracle",
            "propagator", "states", "_quadrature")


def test_every_exported_name_resolves() -> None:
    missing = [name for name in lindquad.__all__ if not hasattr(lindquad, name)]
    assert missing == []


def test_every_module_export_resolves() -> None:
    # a deleted class or function must leave its module's __all__ too
    missing = []
    for info in pkgutil.iter_modules(lindquad.__path__):
        module = importlib.import_module(f"lindquad.{info.name}")
        missing += [f"{info.name}.{export}" for export in getattr(module, "__all__", ())
                    if not hasattr(module, export)]
    assert missing == []


def _bench_tracing():
    """bench/tracing.py and the module dict its Tracer is built over."""
    tracing = _bench_module("tracing")
    modules = {name: importlib.import_module(f"lindquad.{name}") for name in _MODULES}
    modules["lindquad"] = lindquad
    return tracing, modules


def test_every_traced_layer_resolves() -> None:
    # bench/tracing.py wraps these functions by name; a deleted or renamed
    # one would break the traced benchmark
    tracing, modules = _bench_tracing()
    layers = tracing.layers(modules)
    assert layers
    missing = [(module, func) for module, func, *_ in layers
               if not callable(getattr(modules[module], func, None))]
    assert missing == []


def test_traced_jobs_count_work_and_write_the_same_bytes(tmp_path) -> None:
    # the count hooks read the arguments and results of the functions they
    # wrap, so a changed signature shows only when a traced run calls them
    photon = system_to_dict(lindquad.photon_bath(gamma=1.0, nbar=0.2))
    coherent = {"type": "coherent", "center": [0.6, 0.0]}
    grid = {"center": [0.0, 0.0], "half_extent": [6.0, 6.0], "shape": [49, 49]}
    jobs = {
        "positivity": {"system": photon, "horizon": 5.0},
        "evolve": {"system": photon, "state": coherent, "t": 0.3, "grid": grid},
        "langevin": {"system": photon, "state": coherent, "t": 0.1, "dt": 0.05,
                     "n_paths": 64, "seed": 1},
        "oracle-compare": {"system": photon, "state": coherent, "t": 0.05,
                           "grid": grid},
    }
    for command, payload in jobs.items():
        (tmp_path / f"{command}.json").write_text(json.dumps(payload))
    tracing, modules = _bench_tracing()
    cli = modules["cli"]

    def run_all(out_dir: Path) -> dict:
        # through the module attribute, as bench/run.py calls it
        out_dir.mkdir()
        for command in jobs:
            argv = [command, "--config", str(tmp_path / f"{command}.json"),
                    "--out", str(out_dir / command)]
            assert cli.main(argv) == 0, command
        return {path.name: path.read_bytes() for path in out_dir.iterdir()}

    main = cli.main
    plain = run_all(tmp_path / "plain")
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        traced = run_all(tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert cli.main is main
    assert traced == plain
    counts = dict(tracer.counts)
    assert counts["cli.calls"] == len(jobs)
    for key in ("langevin.simulate.normals", "oracle.integrate_fokker_planck.steps",
                "analysis.positivity_time.det_evals", "grid.write.bytes"):
        assert counts.get(key, 0) > 0, key
    assert all(value > 0 for key, value in counts.items()
               if key.endswith(".calls")), counts


@pytest.mark.parametrize("workload", ["thresholds", "fields", "crosscheck"])
def test_every_bench_job_passes_the_bench_checks(workload, tmp_path, monkeypatch) -> None:
    # one round of the workload at seed 1, run and judged as bench/run.py does
    monkeypatch.syspath_prepend(str(_BENCH))  # workloads imports reference
    workloads, run = _bench_module("workloads"), _bench_module("run")
    jobs = workloads.build(workload, 1)
    cfg_dir, out_dir = tmp_path / "config", tmp_path / "out"
    workloads.write_configs(jobs, cfg_dir)
    out_dir.mkdir()
    results = [run.run_job(lindquad.cli, job.argv(cfg_dir, out_dir)) for job in jobs]
    verdicts = run.check_jobs(jobs, [{"codes": [r[0] for r in results]}], out_dir)
    problems = {job.name: (found, result[3][-500:])
                for job, found, result in zip(jobs, verdicts, results) if found}
    assert problems == {}


def _unused_imports(path: Path) -> list:
    """Names ``path`` imports but never reads; a name in ``__all__`` is read."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used]


def test_positivity_iterations_count_determinant_calls(monkeypatch) -> None:
    # PositivityResult.iterations, which the bench's det_evals counter reads,
    # is the number of kernel calls the scan and the search make
    calls = []
    kernel = analysis._reversed_det

    def counted(system, t):
        calls.append(t)
        return kernel(system, t)

    monkeypatch.setattr(analysis, "_reversed_det", counted)
    saddle = OpenSystem(hamiltonian=HamiltonianForm(matrix=[[0.5, 0.0], [0.0, -0.5]]),
                        channels=(LindbladChannel(l_re=[0.0, 0.1], l_im=[0.1, 0.0]),))
    parabolic = OpenSystem(hamiltonian=HamiltonianForm(matrix=[[1.0, 0.0], [0.0, 0.0]]),
                           channels=(LindbladChannel(l_re=[0.3, 0.1], l_im=[0.0, 0.2]),))
    cases = [(photon_bath(gamma=1.0, nbar=0.3), 100.0, True),
             (symplectic_transform(saddle, [[1.0, 0.0], [3.0, 1.0]]), 100.0, True),
             (parabolic, 100.0, True),
             (photon_bath(gamma=1.0), 0.1, False),
             (photon_bath(gamma=1.0), 1e-323, False)]
    for system, horizon, reached in cases:
        calls.clear()
        result = analysis.positivity_time(system, horizon)
        assert result.reached == reached
        assert len(calls) == result.iterations > 0


def test_no_unused_imports() -> None:
    root = Path(__file__).resolve().parent.parent
    files = sorted((root / "src" / "lindquad").glob("*.py")) + sorted(
        (root / "tests").glob("*.py"))
    assert files
    assert [hit for path in files for hit in _unused_imports(path)] == []


def test_no_module_imports_scipy() -> None:
    # scipy serves the tests alone; lazy imports inside functions count too
    root = Path(__file__).resolve().parent.parent / "src" / "lindquad"
    found = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_every_module_imports_with_scipy_blocked() -> None:
    code = ("import importlib, pkgutil, sys; sys.modules['scipy'] = None; "
            "import lindquad; "
            "names = [info.name for info in pkgutil.iter_modules(lindquad.__path__)]; "
            "[importlib.import_module('lindquad.' + name) for name in names]; "
            "print(len(names))")
    src = str(Path(lindquad.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == len(list(pkgutil.iter_modules(lindquad.__path__))) > 0


def _private_definitions(tree: ast.Module) -> set:
    """Module-level names ``tree`` defines that start with one underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {leaf.id for target in targets for leaf in ast.walk(target)
                      if isinstance(leaf, ast.Name)}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_every_private_name_is_read() -> None:
    # a helper that a merge leaves behind, defined but never called, fails here
    root = Path(__file__).resolve().parent.parent / "src" / "lindquad"
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(root.glob("*.py"))}
    assert trees
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert [f"{name}: {private}" for name, tree in trees.items()
            for private in sorted(_private_definitions(tree))
            if private not in read] == []


def test_only_grid_writes_json() -> None:
    # result text has one writer: grid._json_text, for reports and sidecars
    root = Path(__file__).resolve().parent.parent / "src" / "lindquad"
    callers = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        callers += [path.name for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "dumps"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "json"]
    assert callers == ["grid.py"]


def _adds_its_transpose(node: ast.AST) -> bool:
    """Whether ``node`` is X + X.T or X.T + X."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and any(isinstance(x, ast.Attribute) and x.attr == "T"
                    and ast.dump(x.value) == ast.dump(y)
                    for x, y in ((node.left, node.right), (node.right, node.left))))


def test_input_is_read_one_way() -> None:
    # model._symmetrized is the one symmetrization of a 2x2, and finite_array
    # walks its input without building an object array
    root = Path(__file__).resolve().parent.parent / "src" / "lindquad"
    found = []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if _adds_its_transpose(node)]
    assert found == []
    tree = ast.parse((root / "model.py").read_text())
    reader = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "finite_array")
    assert [node.lineno for node in ast.walk(reader)
            if isinstance(node, ast.Name) and node.id == "object"
            or isinstance(node, ast.Attribute) and node.attr == "object_"
            or isinstance(node, ast.Constant) and node.value in ("O", "object")] == []


def test_grids_are_evaluated_by_the_tiled_kernel() -> None:
    # propagator leaves node lists to the scattered-point API, and the grid
    # kernel sums its tiles by broadcast multiply-adds, not a BLAS product
    root = Path(__file__).resolve().parent.parent / "src" / "lindquad"
    tree = ast.parse((root / "propagator.py").read_text())
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "points"] == []
    tree = ast.parse((root / "states.py").read_text())
    kernel = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name in ("_grid_sum", "_axis_tiles", "_tile_size")]
    assert len(kernel) == 3
    products = {"matmul", "dot", "vdot", "inner", "tensordot", "einsum"}
    assert [node.lineno for function in kernel for node in ast.walk(function)
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))
            or (isinstance(node, ast.Attribute) and node.attr in products)
            or (isinstance(node, ast.Name) and node.id in products)] == []


def test_chord_state_values_share_one_exponent() -> None:
    # the term exponent is written once and both sums call it; the
    # evaluators build their terms and sum them without a loop over terms
    root = Path(__file__).resolve().parent.parent / "src" / "lindquad"
    tree = ast.parse((root / "states.py").read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    assert sorted(name for name, function in functions.items()
                  if any(isinstance(node, ast.Name) and node.id == "_exponent"
                         for node in ast.walk(function))) == ["_grid_sum", "_point_sum"]
    (state,) = [node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "ChordState"]
    evaluators = [node for node in state.body if isinstance(node, ast.FunctionDef)
                  and node.name in ("__call__", "chord_grid", "wigner", "wigner_grid",
                                    "norm_squared")]
    assert len(evaluators) == 5
    assert [node.lineno for function in evaluators for node in ast.walk(function)
            if isinstance(node, (ast.For, ast.comprehension))] == []


def test_hand_run_sweeps_still_run() -> None:
    # the sweeps are run by hand and reach private names (conftest's dense
    # transport operator, the _floatrepr internals); one short run of each
    # keeps them working and checks their summary lines
    tests = Path(__file__).resolve().parent
    src = str(Path(lindquad.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

    def run(script: str, *argv: str) -> str:
        return subprocess.run([sys.executable, str(tests / script), *argv], env=env,
                              check=True, capture_output=True, text=True,
                              timeout=120).stdout

    worst = re.search(r"^worst beyond exp = (\S+)",
                      run("fp_stability_sweep.py", "--systems", "1"), re.MULTILINE)
    assert worst is not None and float(worst.group(1)) <= 1e-12
    assert "text mismatches 0  bound mismatches 0" in run(
        "floatrepr_sweep.py", "--patterns", "2000")
