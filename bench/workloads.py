"""Seeded job lists for the three workloads, each job with its own check.

A job is one ``lindquad`` CLI call. Its check reads the files the call
wrote and compares them with :mod:`reference`, which is computed apart
from the package. A check returns a list of problems; an empty list means
the output is right.

Every workload ends with the same four small coverage jobs (a positivity
threshold, a purity curve, a Langevin ensemble and an oracle comparison),
so that each traced layer does some work in every workload and a change
that moves cost from one layer to another shows wherever it lands.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import reference as ref

Check = Callable[[Path], list]

HORIZON = 100.0
# Relative t_p bracket: det M(-t) must have crossed 1/4 by (1 + _LATE) t_p
# and not yet by (1 - _EARLY) t_p.
_LATE = 1e-9
_EARLY = 1e-6
_TP_RTOL = 1e-9
# Langevin sample moments must lie within this many standard errors.
_Z_BOUND = 6.0


@dataclass
class Job:
    """One CLI call: ``command`` with ``--config <name>.json --out <output>``.

    ``check`` reads the output when the call exits 0; a job expected to
    exit with another code has no check. ``known_fault`` names the program
    fault that makes the job fail today.
    """

    name: str
    command: list
    config: dict
    output: str
    check: Optional[Check] = None
    expect_exit: int = 0
    known_fault: Optional[str] = None

    def argv(self, cfg_dir: Path, out_dir: Path) -> list:
        return (list(self.command)
                + ["--config", str(cfg_dir / f"{self.name}.json"),
                   "--out", str(out_dir / self.output)])


def _job(name, command, config, check, ext, **kw) -> Job:
    return Job(name=name, command=command, config=config, output=f"{name}.{ext}",
               check=check, **kw)


# ---------------------------------------------------------------------------
# readers


def _read_json(path: Path):
    return ref.strict_json(path.read_text())


def _read_csv(path: Path) -> tuple[list, list]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _read_field(path: Path) -> tuple[np.ndarray, np.ndarray, dict]:
    """(points (n,m,2), complex values (n,m), sidecar) of a field CSV."""
    meta = _read_json(Path(str(path) + ".json"))
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    shape = tuple(meta["shape"])
    pts = table[:, :2].reshape(shape + (2,))
    return pts, (table[:, 2] + 1j * table[:, 3]).reshape(shape), meta


# ---------------------------------------------------------------------------
# threshold checks


def _bracket_problems(system: dict, t_p: float) -> list:
    sys_ = ref.System(system)
    late, late_eps = ref.reversed_det(sys_, (1.0 + _LATE) * t_p)
    early, early_eps = ref.reversed_det(sys_, (1.0 - _EARLY) * t_p)
    problems = []
    if late < 0.25 - 64.0 * late_eps:
        problems.append(f"det M(-t_p(1+{_LATE:g}))={late!r} < 1/4")
    if early >= 0.25 + 64.0 * early_eps:
        problems.append(f"det M(-t_p(1-{_EARLY:g}))={early!r} >= 1/4")
    return problems


def _unreached_problems(system: dict, horizon: float) -> list:
    det, eps = ref.reversed_det(ref.System(system), horizon)
    if det >= 0.25 + 64.0 * eps:
        return [f"reported unreached but det M(-horizon)={det!r} >= 1/4"]
    return []


def _rel_problem(label: str, got: float, want: float, rtol: float) -> list:
    if not abs(got - want) <= rtol * abs(want):
        return [f"{label}={got!r}, expected {want!r} (rtol {rtol:g})"]
    return []


def positivity_check(system: dict, horizon: float,
                     closed_form: Optional[tuple] = None) -> Check:
    """Check a positivity report.

    ``closed_form`` is ("reached", t_p) or ("unreached", None) when the
    threshold is known in closed form; otherwise the verdict is checked
    against the reference determinant.
    """
    def check(out: Path) -> list:
        report = _read_json(out)
        status = report.get("status")
        if closed_form is not None:
            want_status, want_tp = closed_form
            if status != want_status:
                return [f"status {status!r}, closed form says {want_status!r}"
                        f" (det_value={report.get('det_value')!r})"]
            if want_tp is not None:
                return _rel_problem("t_p", report["t_p"], want_tp, _TP_RTOL)
            return []
        if status == "reached":
            return _bracket_problems(system, report["t_p"])
        if status == "unreached":
            return _unreached_problems(system, horizon)
        return [f"unknown status {status!r}"]
    return check


def _parabolic(d_prime: float, eps: float, d_second: float) -> dict:
    """The sweep's system: H = p^2/2, one channel with these couplings."""
    return {"hamiltonian": {"matrix": [[0.5, 0.0], [0.0, 0.0]]},
            "channels": [{"l_re": [0.0, math.sqrt(d_prime)],
                          "l_im": [-eps * math.sqrt(d_second), 0.0]}]}


def _parabolic_tp(d_prime: float) -> float:
    return (3.0 / d_prime ** 2) ** 0.25


def _sweep_row_problems(cfg: dict, eps: float, ds: float, status: str,
                        t_p: str) -> list:
    system = _parabolic(cfg["d_prime"], eps, ds)
    where = f"row eps={eps!r} d''={ds!r}: "
    if status == "unreached":
        return [where + p for p in _unreached_problems(system, cfg["horizon"])]
    if ds == 0.0:
        return [where + p for p in _rel_problem(
            "t_p", float(t_p), _parabolic_tp(cfg["d_prime"]), _TP_RTOL)]
    return [where + p for p in _bracket_problems(system, float(t_p))]


def sweep_check(cfg: dict) -> Check:
    def check(out: Path) -> list:
        header, rows = _read_csv(out)
        if header != ["epsilon", "d_second", "status", "t_p"]:
            return [f"unexpected header {header}"]
        if len(rows) != len(cfg["epsilons"]) * len(cfg["d_second"]):
            return [f"{len(rows)} rows"]
        problems = []
        for eps, ds, status, t_p in rows:
            problems += _sweep_row_problems(cfg, float(eps), float(ds), status, t_p)
        return problems
    return check


def paper_table_check(cfg: dict) -> Check:
    def check(out: Path) -> list:
        header, rows = _read_csv(out)
        if header != ["case", "param1", "param2", "t_p_solver", "t_p_formula"]:
            return [f"unexpected header {header}"]
        problems = []
        for case, p1, p2, solver, formula in rows:
            if case == "parabolic":
                status = "reached" if solver else "unreached"
                problems += _sweep_row_problems(cfg, float(p1), float(p2),
                                                status, solver)
                if float(p2) == 0.0:
                    problems += _rel_problem("t_p_formula", float(formula),
                                             _parabolic_tp(cfg["d_prime"]), 1e-12)
            elif case == "photon":
                want = ref.photon_bath_threshold(float(p1), float(p2))
                problems += _rel_problem("photon t_p_solver", float(solver),
                                         want, _TP_RTOL)
                problems += _rel_problem("photon t_p_formula", float(formula),
                                         want, 1e-12)
            else:
                problems.append(f"unknown case {case!r}")
        return problems
    return check


# ---------------------------------------------------------------------------
# field checks

_MASS_TOL = 1e-6
_NEG_TOL = 1e-6
_GAUSS_TOL = 1e-6   # max |W - W_exact| relative to the exact peak


def evolve_check(bath: tuple, state: dict, t: float, t_p: float) -> Check:
    gamma, nbar, omega = bath

    def check(out: Path) -> list:
        pts, values, meta = _read_field(out)
        problems = []
        if np.any(values.imag != 0.0):
            problems.append("Wigner values carry an imaginary part")
        w = values.real
        cell = meta["spacing"][0] * meta["spacing"][1]
        mass = float(np.sum(w)) * cell
        if abs(mass - 1.0) > _MASS_TOL:
            problems.append(f"mass {mass!r} differs from 1 by more than {_MASS_TOL:g}")
        if t >= t_p and float(w.min()) < -_NEG_TOL:
            problems.append(f"min {float(w.min())!r} < -{_NEG_TOL:g} at t >= t_p")
        if state["type"] in ("coherent", "gaussian"):
            mean0 = state.get("center", state.get("mean", (0.0, 0.0)))
            cov0 = (0.5 * np.eye(2) if state["type"] == "coherent"
                    else np.asarray(state["cov"]))
            mean, cov = ref.photon_bath_gaussian(mean0, cov0, gamma, nbar, omega, t)
            exact = ref.gaussian_wigner(pts, mean, cov)
            err = float(np.max(np.abs(w - exact)) / np.max(exact))
            if err > _GAUSS_TOL:
                problems.append(f"max |W - W_exact|/peak = {err:.3e} > {_GAUSS_TOL:g}")
        return problems
    return check


def entropy_check(bath: tuple, state: dict) -> Check:
    gamma, nbar, omega = bath

    def check(out: Path) -> list:
        header, rows = _read_csv(out)
        if header != ["t", "purity", "linear_entropy", "method"]:
            return [f"unexpected header {header}"]
        problems = []
        for t, pur, ent, method in rows:
            t, pur, ent = float(t), float(pur), float(ent)
            if ent != 1.0 - pur:
                problems.append(f"t={t!r}: linear entropy {ent!r} != 1 - purity")
            if state["type"] == "cat":
                if not 0.0 < pur <= 1.0 + 1e-9:
                    problems.append(f"t={t!r}: purity {pur!r} outside (0, 1]")
                continue
            cov0 = (0.5 * np.eye(2) if state["type"] == "coherent"
                    else np.asarray(state["cov"]))
            _, cov = ref.photon_bath_gaussian((0.0, 0.0), cov0, gamma, nbar, omega, t)
            want = 0.5 / math.sqrt(float(np.linalg.det(cov)))
            rtol = 1e-6 if method == "quadrature" else 2e-2
            problems += [f"t={t!r} {method}: " + p
                         for p in _rel_problem("purity", pur, want, rtol)]
        return problems
    return check


def reconstruct_check(state: dict) -> Check:
    def check(out: Path) -> list:
        pts, values, _ = _read_field(out)
        _, reliable, _ = _read_field(Path(str(out) + ".reliability.csv"))
        mask = reliable.real == 1.0
        if not mask.any():
            return ["no reliable chord"]
        want = ref.state_chord(state, pts[mask])
        err = float(np.max(np.abs(values[mask] - want))) * 2.0 * math.pi
        if err > 1e-8:
            return [f"max |recovered - initial| * 2 pi hbar = {err:.3e} > 1e-8 "
                    f"on {int(mask.sum())} reliable chords"]
        return []
    return check


# ---------------------------------------------------------------------------
# crosscheck checks


def langevin_check(system: dict, mean0, cov0, n_paths: int) -> Check:
    sys_ = ref.System(system)

    def check(out: Path) -> list:
        header, rows = _read_csv(out)
        if header != ["t", "mean_p", "mean_q", "cov_pp", "cov_pq", "cov_qq", "n_paths"]:
            return [f"unexpected header {header}"]
        problems = []
        for row in rows:
            t = float(row[0])
            mean, cov = ref.sde_moments(sys_, mean0, cov0, t)
            got_mean = np.array([float(row[1]), float(row[2])])
            got_cov = np.array([[float(row[3]), float(row[4])],
                                [float(row[4]), float(row[5])]])
            se_mean = np.sqrt(np.diag(cov) / n_paths)
            se_cov = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2) / n_paths)
            z_mean = float(np.max(np.abs(got_mean - mean) / se_mean))
            z_cov = float(np.max(np.abs(got_cov - cov) / se_cov))
            if max(z_mean, z_cov) > _Z_BOUND:
                problems.append(f"t={t!r}: sample moments {max(z_mean, z_cov):.2f} "
                                f"standard errors from the reference")
        report = _read_json(Path(str(out) + ".json"))
        mean, cov = ref.sde_moments(sys_, mean0, cov0, report["t"])
        scale = float(np.max(np.abs(cov)))
        err = max(float(np.max(np.abs(np.asarray(report["exact_mean"]) - mean))),
                  float(np.max(np.abs(np.asarray(report["exact_cov"]) - cov))))
        if err > 1e-9 * max(scale, 1.0):
            problems.append(f"reported exact moments differ from the reference by {err:.3e}")
        return problems
    return check


def oracle_check(fp_bound: float) -> Check:
    """linf and tv distances: exact vs Fock to 1e-7, either vs FP to ``fp_bound``.

    The Fock route is exact up to truncation and RK4 round-off; the
    Fokker-Planck route carries the grid's fourth-order stencil error.
    """
    bounds = {"exact_vs_fock": 1e-7, "exact_vs_fp": fp_bound, "fp_vs_fock": fp_bound}

    def check(out: Path) -> list:
        report = _read_json(out)
        problems = []
        for key, bound in bounds.items():
            for norm in ("linf", "tv"):
                value = report[norm][key]
                if not value <= bound:
                    problems.append(f"{norm} {key}={value!r} > {bound:g}")
        return problems
    return check


# ---------------------------------------------------------------------------
# input builders


def _jitter(rng: np.random.Generator, value: float, share: float = 0.05) -> float:
    return float(value * (1.0 + share * rng.uniform(-1.0, 1.0)))


def _symplectic(rng: np.random.Generator, scale: float = 0.3) -> np.ndarray:
    """Random symplectic matrix exp(J S) with S symmetric."""
    from scipy.linalg import expm
    s = rng.normal(scale=scale, size=(2, 2))
    return expm(ref.J @ (0.5 * (s + s.T)))


def _transform(system: dict, c: np.ndarray) -> dict:
    """The system in coordinates x' = C x; t_p and det M do not change."""
    cinv_t = np.linalg.inv(c).T
    h = cinv_t @ np.asarray(system["hamiltonian"]["matrix"]) @ cinv_t.T
    h = 0.5 * (h + h.T)
    return {"hamiltonian": {"matrix": h.tolist()},
            "channels": [{"l_re": (cinv_t @ np.asarray(ch["l_re"])).tolist(),
                          "l_im": (cinv_t @ np.asarray(ch["l_im"])).tolist()}
                         for ch in system["channels"]]}


def _unit_channel(h: list, alpha: float) -> dict:
    r = math.sqrt(alpha)
    return {"hamiltonian": {"matrix": h},
            "channels": [{"l_re": [0.0, r], "l_im": [r, 0.0]}]}


def _channel_with_alpha(rng: np.random.Generator, alpha: float) -> dict:
    """Random channel with dissipation coefficient exactly ``alpha``."""
    l_re = rng.normal(size=2)
    while np.linalg.norm(l_re) < 0.5:
        l_re = rng.normal(size=2)
    l_im = -(alpha / (l_re @ l_re)) * (ref.J @ l_re) + rng.normal(scale=0.5) * l_re
    return {"l_re": l_re.tolist(), "l_im": l_im.tolist()}


def _random_system(rng: np.random.Generator, regime: str) -> dict:
    """Random damped system (alpha in [0.1, 0.5]) of the given regime."""
    theta = rng.uniform(0.0, math.pi)
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    first = rng.uniform(0.3, 1.0)
    second = {"elliptic": rng.uniform(0.3, 1.0),
              "hyperbolic": -rng.uniform(0.3, 1.0),
              "parabolic": 0.0}[regime]
    h = rot @ np.diag([first, second]) @ rot.T
    channels = [_channel_with_alpha(rng, rng.uniform(0.1, 0.5)),
                _channel_with_alpha(rng, 0.0)]
    return {"hamiltonian": {"matrix": (0.5 * (h + h.T)).tolist()},
            "channels": channels}


def _random_bath(rng: np.random.Generator) -> tuple:
    """(gamma, nbar, omega) near (1, 0.1, 1): step counts of the oracles and
    the Langevin noise columns stay put, so the seed moves no work around."""
    return _jitter(rng, 1.0, 0.02), _jitter(rng, 0.1, 0.1), _jitter(rng, 1.0, 0.02)


def _on_circle(rng: np.random.Generator, radius: float) -> list:
    """A point at a fixed distance from the origin (fixes Fock dimensions)."""
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return [radius * math.cos(angle), radius * math.sin(angle)]


def _squeezed_cov(rng: np.random.Generator) -> list:
    r = rng.uniform(0.3, 0.5)
    theta = rng.uniform(0.0, math.pi)
    rot = np.array([[math.cos(theta), -math.sin(theta)],
                    [math.sin(theta), math.cos(theta)]])
    cov = 0.5 * rot @ np.diag([math.exp(2 * r), math.exp(-2 * r)]) @ rot.T
    return (0.5 * (cov + cov.T)).tolist()


def _grid(half: float, n: int) -> dict:
    return {"center": [0.0, 0.0], "half_extent": [half, half], "shape": [n, n]}


# ---------------------------------------------------------------------------
# coverage jobs shared by every workload


def coverage(rng: np.random.Generator) -> list:
    gamma, nbar, omega = bath = _random_bath(rng)
    system = ref.photon_bath(gamma, nbar, omega)
    coherent = {"type": "coherent",
                "center": _on_circle(rng, 0.5)}
    mean0, cov0 = coherent["center"], 0.5 * np.eye(2)
    n_small = 2048
    return [
        _job("cover-positivity", ["positivity"],
             {"system": system, "horizon": HORIZON},
             positivity_check(system, HORIZON,
                              ("reached", ref.photon_bath_threshold(gamma, nbar))),
             "json"),
        _job("cover-entropy", ["entropy"],
             {"system": system, "state": coherent, "times": [0.3, 1.0]},
             entropy_check(bath, coherent), "csv"),
        _job("cover-langevin", ["langevin"],
             {"system": system, "state": coherent, "t": 1.0, "dt": 0.01,
              "n_paths": n_small, "store_stride": 50,
              "seed": int(rng.integers(0, 2 ** 31))},
             langevin_check(system, mean0, cov0, n_small), "csv"),
        _job("cover-oracle", ["oracle-compare"],
             {"system": system, "state": coherent, "t": 0.1,
              "grid": _grid(6.0, 41)},
             oracle_check(5e-3), "json"),
    ]


# ---------------------------------------------------------------------------
# workloads


def thresholds(rng: np.random.Generator) -> list:
    jobs = []
    for i, gamma in enumerate((0.25, 0.5, 1.0, 2.0, 4.0)):
        for j, nbar in enumerate((0.0, 0.5, 1.0, 3.0)):
            g, n = _jitter(rng, gamma), _jitter(rng, nbar)
            system = ref.photon_bath(g, n, _jitter(rng, 1.0, 0.1))
            jobs.append(_job(
                f"photon-{i}-{j}", ["positivity"],
                {"system": system, "horizon": HORIZON},
                positivity_check(system, HORIZON,
                                 ("reached", ref.photon_bath_threshold(g, n))),
                "json"))
    for alpha in (1e-1, 1e-2, 1e-3):
        for regime, h in (("elliptic", [[0.5, 0.0], [0.0, 0.5]]),
                          ("hyperbolic", [[0.5, 0.0], [0.0, -0.5]])):
            system = _transform(_unit_channel(h, alpha), _symplectic(rng))
            closed = None
            if regime == "elliptic":
                closed = ("reached", ref.isotropic_threshold(alpha, alpha))
            jobs.append(_job(
                f"unit-{regime}-{alpha:g}", ["positivity"],
                {"system": system, "horizon": 800.0},
                positivity_check(system, 800.0, closed), "json"))
    for regime in ("elliptic", "hyperbolic", "parabolic"):
        for k in range(24):
            system = _random_system(rng, regime)
            jobs.append(_job(
                f"random-{regime}-{k}", ["positivity"],
                {"system": system, "horizon": HORIZON},
                positivity_check(system, HORIZON), "json"))
    # Pure gain: alpha = -0.09 with K = 0.09 I, so det M(-t) = (1 - e^{-0.18 t})^2/4
    # approaches 1/4 from below and never reaches it.
    gain = {"hamiltonian": {"matrix": [[0.5, 0.0], [0.0, 0.5]]},
            "channels": [{"l_re": [0.0, 0.3], "l_im": [-0.3, 0.0]}]}
    jobs.append(_job(
        "pure-gain", ["positivity"], {"system": gain, "horizon": 300.0},
        positivity_check(gain, 300.0,
                         ("unreached", ref.isotropic_threshold(-0.09, 0.09))),
        "json",
        known_fault="pure-gain oscillator reported reached with det_value < 1/4"))
    sweep = {"d_prime": _jitter(rng, 2.0, 0.1),
             "d_second": [0.0] + [_jitter(rng, v, 0.1) for v in (0.1, 1.0, 10.0, 100.0)],
             "epsilons": [-1.0, 1.0], "horizon": HORIZON}
    jobs.append(_job("sweep", ["positivity", "--sweep"], sweep,
                     sweep_check(sweep), "csv"))
    table = dict(sweep, d_prime=_jitter(rng, 2.0, 0.1))
    jobs.append(_job("paper-table", ["positivity", "--paper-table"], table,
                     paper_table_check(table), "csv"))
    return jobs + coverage(rng)


def fields(rng: np.random.Generator) -> list:
    gamma, nbar, omega = bath = _random_bath(rng)
    system = ref.photon_bath(gamma, nbar, omega)
    t_p = ref.photon_bath_threshold(gamma, nbar)
    states = {
        "cat1": ({"type": "cat", "zeta": 1.0}, 7.0),
        "cat2": ({"type": "cat", "zeta": 2.0}, 8.0),
        "cat4": ({"type": "cat", "zeta": 4.0}, 10.0),
        "coh-a": ({"type": "coherent",
                   "center": _on_circle(rng, 1.0)}, 8.0),
        "coh-b": ({"type": "coherent",
                   "center": _on_circle(rng, 1.0)}, 8.0),
        "sq-a": ({"type": "gaussian", "mean": _on_circle(rng, 1.0),
                  "cov": _squeezed_cov(rng)}, 9.0),
        "sq-b": ({"type": "gaussian", "mean": _on_circle(rng, 1.0),
                  "cov": _squeezed_cov(rng)}, 9.0),
    }
    frames = [(label, share, 129) for label in states for share in (0.5, 1.0, 2.0)]
    frames += [("cat2", 0.9, 257), ("cat2", 1.5, 257), ("sq-a", 1.0, 257),
               ("coh-a", 0.5, 257), ("cat4", 1.0, 513)]
    jobs = []
    for label, share, n in frames:
        state, half = states[label]
        t = share * t_p
        jobs.append(_job(
            f"evolve-{label}-{share:g}tp-{n}", ["evolve"],
            {"system": system, "state": state, "t": t, "grid": _grid(half, n)},
            evolve_check(bath, state, t, t_p), "csv"))
    times = [v / gamma for v in (0.1, 0.3, 0.7, 1.5, 3.0, 6.0)]
    for label in ("coh-a", "sq-a", "sq-b", "cat2"):
        state = states[label][0]
        jobs.append(_job(f"entropy-{label}", ["entropy"],
                         {"system": system, "state": state, "times": times},
                         entropy_check(bath, state), "csv"))
    for label, share in (("cat2", 0.5), ("coh-b", 1.0), ("sq-b", 0.8)):
        state = states[label][0]
        jobs.append(_job(f"reconstruct-{label}", ["reconstruct"],
                         {"system": system, "state": state, "t": share * t_p,
                          "chord_grid": _grid(6.0, 129)},
                         reconstruct_check(state), "csv"))
    jobs.append(_job(
        "evolve-nan-time", ["evolve"],
        {"system": system, "state": {"type": "coherent"}, "t": math.nan,
         "grid": _grid(8.0, 129)},
        None, "csv", expect_exit=2,
        known_fault="evolve with t = NaN exits 5 after 2000 quadrature splits"))
    return jobs + coverage(rng)


def crosscheck(rng: np.random.Generator) -> list:
    gamma, nbar, omega = bath = _random_bath(rng)
    photon = ref.photon_bath(gamma, nbar, omega)
    corotating = dict(photon, hamiltonian={"matrix": [[0.0, 0.0], [0.0, 0.0]]})
    damped = _random_system(rng, "elliptic")
    n_paths = 10_000
    langevin = [
        ("photon-coherent", photon,
         {"type": "coherent", "center": _on_circle(rng, 1.0)}),
        ("corotating-squeezed", corotating,
         {"type": "gaussian", "mean": _on_circle(rng, 1.0),
          "cov": _squeezed_cov(rng)}),
        ("random-damped", damped,
         {"type": "coherent", "center": _on_circle(rng, 1.0)}),
    ]
    jobs = []
    for label, system, state in langevin:
        mean0 = state.get("center", state.get("mean"))
        cov0 = 0.5 * np.eye(2) if state["type"] == "coherent" else np.asarray(state["cov"])
        jobs.append(_job(
            f"langevin-{label}", ["langevin"],
            {"system": system, "state": state, "t": 1.0, "dt": 1e-3,
             "n_paths": n_paths, "store_stride": 100,
             "seed": int(rng.integers(0, 2 ** 31))},
            langevin_check(system, mean0, cov0, n_paths), "csv"))
    t = 0.3
    for label, state, half in (("cat1", {"type": "cat", "zeta": 1.0}, 7.0),
                               ("cat2", {"type": "cat", "zeta": 2.0}, 7.0),
                               ("coherent", {"type": "coherent",
                                             "center": _on_circle(rng, 1.0)},
                                7.0)):
        jobs.append(_job(f"oracle-{label}", ["oracle-compare"],
                         {"system": photon, "state": state, "t": t,
                          "grid": _grid(half, 129)},
                         oracle_check(1e-3), "json"))
    # oracle-compare has no Fock state for a Gaussian: the config is rejected (exit 2).
    jobs.append(_job("oracle-gaussian-rejected", ["oracle-compare"],
                     {"system": photon,
                      "state": {"type": "gaussian", "mean": [0.0, 0.0],
                                "cov": _squeezed_cov(rng)},
                      "t": t, "grid": _grid(7.0, 129)},
                     None, "json", expect_exit=2))
    return jobs + coverage(rng)


WORKLOADS = {"thresholds": thresholds, "fields": fields, "crosscheck": crosscheck}


def build(workload: str, seed: int) -> list:
    jobs = WORKLOADS[workload](np.random.default_rng(seed))
    names = [job.name for job in jobs]
    if len(names) != len(set(names)):
        raise ValueError(f"{workload}: job names must be unique")
    return jobs


def write_configs(jobs: list, cfg_dir: Path) -> None:
    cfg_dir.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        (cfg_dir / f"{job.name}.json").write_text(json.dumps(job.config, indent=1))
