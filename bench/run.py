"""Benchmark of the ``lindquad`` command line on three seeded workloads.

    python3 bench/run.py --workload thresholds|fields|crosscheck \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src`` (it
need not be installed). One process drives every job in process through
``lindquad.cli.main(argv)``, one job after another, and repeats the
workload's whole job list while the next round still fits in ``--seconds``.
It starts no threads of its own; BLAS keeps its default thread count.

Job times are reported in reference seconds: each job's measured time is
scaled by ``REFERENCE_CAL_S`` over the time a fixed calibration loop took
just before and just after it. The machine's speed drifts with its other
load by tens of percent over minutes; the calibration loop is not part of
the package, so the scaling removes that drift and leaves the program's
own cost. Import times (``setup_s``) are reported as measured, and raw job
seconds are kept in ``result.json``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and reports per-layer spans and counts plus the
tracing overhead. Every output file is hashed after each round and must
match the first round byte for byte, traced rounds included. Outputs are
then checked against computations made apart from the package
(``reference.py``). The last line printed is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Details go to
``.bench_out/<workload>-trace<k>/result.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

SETUP_SAMPLES = 7
# calibrate() on the reference machine (2 CPUs, Python 3.11) when it is quiet
REFERENCE_CAL_S = 3.0e-3

_SPAN_LAYERS = ("analysis.positivity_time", "propagator.damping_matrix",
                "quadrature.interval", "quadrature.tensor", "states.build",
                "propagator.evolve_chord", "propagator.evolve_wigner_grid",
                "analysis.purity", "grid.write", "langevin.simulate",
                "langevin.moments", "oracle.integrate_fokker_planck",
                "oracle.integrate_fock_lindblad", "oracle.wigner_from_fock", "cli")
_COUNTS = ("analysis.positivity_time.calls", "analysis.positivity_time.det_evals",
           "propagator.damping_matrix.calls", "quadrature.interval.calls",
           "quadrature.interval.integrand_nodes", "quadrature.tensor.calls",
           "quadrature.tensor.integrand_nodes", "states.build.calls",
           "propagator.evolve_chord.points", "propagator.evolve_wigner_grid.calls",
           "propagator.evolve_wigner_grid.nodes_out", "analysis.purity.calls",
           "grid.write.calls", "grid.write.bytes", "langevin.simulate.calls",
           "langevin.simulate.path_steps", "langevin.simulate.normals",
           "oracle.integrate_fokker_planck.calls",
           "oracle.integrate_fokker_planck.steps",
           "oracle.integrate_fock_lindblad.calls", "oracle.wigner_from_fock.calls")


# ---------------------------------------------------------------------------
# environment


def _blas_info() -> dict:
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        try:
            get = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        info["threads"] = int(get())
    return info


def _git_commit() -> str | None:
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment() -> dict:
    import scipy
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas": _blas_info(),
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(),
            "git_commit": _git_commit()}


# ---------------------------------------------------------------------------
# measurement


_CAL_R = np.random.default_rng(0).normal(size=(15, 2, 2))
_CAL_W = np.linspace(0.0, 1.0, 15)


def calibrate() -> float:
    """Seconds for fixed work shaped like the package's hot paths.

    Tiny-array numpy calls (einsum, tensordot, exp on 15 nodes of 2x2
    matrices) and a list of dict panels searched with a keyed max, as in
    adaptive quadrature. Work of this shape slows with the machine's load
    the way the jobs do, more than plain loops or large-array passes do.
    """
    start = time.perf_counter()
    for _ in range(40):
        v = np.einsum("nji,jk,nkl->nil", _CAL_R, np.eye(2), _CAL_R)
        m = np.tensordot(_CAL_W, v, axes=(0, 0))
        float(np.max(np.abs(m - m.T)))
        np.exp(2.0 * _CAL_W)
    panels = []
    for i in range(500):
        panels.append({"lo": i, "err": (i * 7919) % 101})
        if len(panels) > 50:
            panels.pop(max(range(len(panels)), key=lambda j: panels[j]["err"]))
    return time.perf_counter() - start


def measure_setup(samples: int) -> list:
    """Seconds to ``import lindquad`` in fresh interpreters.

    The first import writes the bytecode caches and is not counted. These
    are raw seconds: an import is mostly file loading and too short to be
    scaled by calibration samples, which made the median less steady.
    """
    code = ("import time; t = time.perf_counter(); import lindquad; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(samples + 1):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import lindquad failed: {proc.stderr.strip()}")
        if i:
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_job(cli, argv: list) -> tuple:
    """(exit code or 'crash', seconds, CPU seconds, stderr) of one CLI call."""
    err = io.StringIO()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        code = "crash"
        err.write(traceback.format_exc())
    return (code, time.perf_counter() - start, time.process_time() - cpu_start,
            err.getvalue())


def run_round(cli, argvs: list, out_dir: Path) -> dict:
    """Every job once between calibration samples; then hash the outputs.

    A job's speed factor is REFERENCE_CAL_S over the mean of the samples
    taken just before and just after it.
    """
    fresh_dir(out_dir)
    cals, results = [calibrate()], []
    for argv in argvs:
        results.append(run_job(cli, argv))
        cals.append(calibrate())
    speed = [2.0 * REFERENCE_CAL_S / (a + b) for a, b in zip(cals, cals[1:])]
    seconds = [r[1] for r in results]
    cpu_seconds = [r[2] for r in results]
    return {"ref_seconds": [t * f for t, f in zip(seconds, speed)],
            "ref_cpu_seconds": [t * f for t, f in zip(cpu_seconds, speed)],
            "seconds": seconds, "cals": cals,
            "codes": [r[0] for r in results],
            "stderr": [r[3] for r in results],
            "hashes": hash_outputs(out_dir)}


def hash_outputs(out_dir: Path) -> dict:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.iterdir())}


def fresh_dir(path: Path) -> None:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)


def measure(cli, argvs: list, out_dir: Path, seconds: float, tracer=None) -> tuple:
    """Rounds while the next one is expected to end within ``seconds``.

    With a tracer every pass is an untraced round followed by a traced one,
    so both sides see the same machine conditions. Returns the untraced
    rounds, the traced rounds and each traced round's (self times, counts).
    """
    plain, traced, layers, passes = [], [], [], []
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        plain.append(run_round(cli, argvs, out_dir))
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced.append(run_round(cli, argvs, out_dir))
            finally:
                tracer.uninstall()
            layers.append((dict(tracer.self_s), dict(tracer.counts)))
        passes.append(time.perf_counter() - pass_start)
        if time.perf_counter() - started + statistics.median(passes) > seconds:
            return plain, traced, layers


def round_total(rounds: list, key: str) -> float:
    """Median over rounds of the jobs' summed reference seconds."""
    return float(statistics.median(sum(r[key]) for r in rounds))


def job_p50(rounds: list) -> float:
    """Median over jobs of each job's median reference seconds."""
    per_job = [statistics.median(times)
               for times in zip(*(r["ref_seconds"] for r in rounds))]
    return float(statistics.median(per_job))


# ---------------------------------------------------------------------------
# checking


def check_jobs(jobs: list, rounds: list, out_dir: Path) -> list:
    """Per job: the problems found (empty when it succeeded in every round)."""
    verdicts = []
    for index, job in enumerate(jobs):
        codes = {r["codes"][index] for r in rounds}
        problems = []
        if codes != {job.expect_exit}:
            problems.append(f"exit {sorted(map(str, codes))}, expected {job.expect_exit}")
        elif job.expect_exit == 0:
            try:
                problems += job.check(out_dir / job.output)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        verdicts.append(problems)
    return verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "lindquad" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'lindquad'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    run_dir = OUT_ROOT / f"{args.workload}-trace{args.trace}"
    fresh_dir(run_dir)
    cfg_dir, out_dir = run_dir / "config", run_dir / "out"

    setup = [] if args.trace else measure_setup(SETUP_SAMPLES)

    import lindquad.cli as cli
    jobs = workloads.build(args.workload, args.seed)
    workloads.write_configs(jobs, cfg_dir)
    argvs = [job.argv(cfg_dir, out_dir) for job in jobs]

    tracer = None
    if args.trace:
        import tracing
        modules = {name: sys.modules[f"lindquad.{name}"]
                   for name in ("analysis", "cli", "grid", "langevin", "model",
                                "oracle", "propagator", "states", "_quadrature")}
        modules["lindquad"] = sys.modules["lindquad"]
        tracer = tracing.Tracer(modules)
    rounds, traced_rounds, layer_rounds = measure(cli, argvs, out_dir, args.seconds,
                                                  tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    all_rounds = rounds + traced_rounds
    verdicts = check_jobs(jobs, all_rounds, out_dir)
    notes = []
    if any(r["hashes"] != all_rounds[0]["hashes"] for r in all_rounds):
        notes.append("output bytes differ between rounds"
                     + (" (traced and untraced)" if args.trace else ""))
    if any(counts != layer_rounds[0][1] for _, counts in layer_rounds):
        notes.append("traced counts differ between rounds")
    failing = [job for job, problems in zip(jobs, verdicts) if problems]
    unexpected = [job.name for job in failing if not job.known_fault]
    correct = not notes and not unexpected
    attempted = len(jobs) * len(all_rounds)
    failed = len(failing) * len(all_rounds)

    if args.trace:
        metrics = {}
        # self times in reference seconds, at each traced round's mean speed
        speeds = [sum(r["ref_seconds"]) / sum(r["seconds"]) for r in traced_rounds]
        for layer in _SPAN_LAYERS:
            metrics[f"{layer}.self_s"] = (float(statistics.median(
                s.get(layer, 0.0) * f for (s, _), f in zip(layer_rounds, speeds))), "s")
        counts = layer_rounds[0][1]
        metrics["cli.jobs"] = (counts.get("cli.calls", 0), "count")
        for key in _COUNTS:
            unit = "bytes" if key.endswith(".bytes") else "count"
            metrics[key] = (counts.get(key, 0), unit)
        metrics["trace.overhead_s"] = (
            round_total(traced_rounds, "ref_seconds") - round_total(rounds, "ref_seconds"),
            "s")
    else:
        metrics = {
            "setup_s": (float(statistics.median(setup)), "s"),
            "wall_s": (round_total(rounds, "ref_seconds"), "s"),
            "cpu_s": (round_total(rounds, "ref_cpu_seconds"), "s"),
            "job_p50_ms": (1000.0 * job_p50(rounds), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "reference_cal_s": REFERENCE_CAL_S,
        "rounds": len(rounds), "traced_rounds": len(traced_rounds),
        "round_raw_wall_s": [sum(r["seconds"]) for r in rounds],
        "traced_round_raw_wall_s": [sum(r["seconds"]) for r in traced_rounds],
        "setup_raw_s": setup,
        "job_raw_seconds": [r["seconds"] for r in rounds],
        "job_ref_seconds": [r["ref_seconds"] for r in rounds],
        "calibration_s": [r["cals"] for r in rounds],
        "notes": notes,
        "jobs": [{"name": job.name, "command": job.command,
                  "exit": rounds[0]["codes"][i], "expect_exit": job.expect_exit,
                  "known_fault": job.known_fault, "problems": verdicts[i],
                  "stderr": rounds[0]["stderr"][i][-2000:]}
                 for i, job in enumerate(jobs)],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (run_dir / "result.json").write_text(json.dumps(summary, indent=1) + "\n")
    if tracer is not None:
        (run_dir / "spans.json").write_text(json.dumps(tracing.span_log(tracer)) + "\n")

    for job, problems in zip(jobs, verdicts):
        for problem in problems:
            tag = "known fault" if job.known_fault else "FAILED"
            print(f"[{tag}] {job.name}: {problem}")
    for note in notes:
        print(f"[FAILED] {note}")
    print(f"{args.workload}: {len(all_rounds)} round(s) of {len(jobs)} jobs, "
          f"attempted {attempted}, failed {failed}, correct {correct}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summary["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
