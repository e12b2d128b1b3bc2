"""Command-line interface.

Subcommands: classify | positivity | evolve | entropy | langevin |
reconstruct | oracle-compare. Every command reads a JSON config

    {"system": {"hbar": 1.0,
                "hamiltonian": {"matrix": [[..],[..]], "linear": [..]},
                "channels": [{"l_re": [..], "l_im": [..]}, ...]},
     ...command-specific keys...}

validated strictly (unknown keys are errors), and writes results either to
stdout (JSON commands) or to ``--out`` (CSV commands; grids get a
``<path>.json`` sidecar). All files are written atomically and all floats
are serialized via repr, so reruns are byte-identical.

Exit codes: 0 success; 2 configuration/validation error (including NaN or
Infinity in a config); 3 positivity not reached under ``--require-reached``;
4 grid too coarse; 5 numerical failure (overflow, quadrature
non-convergence, integrator instability, truncation leak, a non-real
Wigner function, NaN results).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

import numpy as np

from . import analysis, langevin, oracle, propagator
from .errors import (ConfigError, GridTooCoarse, QuadratureNotConverged,
                     TruncationLeak, Unstable)
from .grid import GridField, atomic_write_text, grid_from_dict, write_field_csv
from .model import (HamiltonianForm, LindbladChannel, OpenSystem,
                    characteristic_timescale, finite_array, photon_bath,
                    system_from_dict, whole_number)
from .states import ChordState, state_from_dict

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_UNREACHED = 3
_EXIT_GRID = 4
_EXIT_NUMERIC = 5


def _load_config(path: str | None, allowed: set[str], required: set[str]) -> dict:
    if path is None:
        raise ConfigError("--config is required for this command")
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    extra = set(data) - allowed
    if extra:
        raise ConfigError(f"unknown config key(s): {sorted(extra)}")
    missing = required - set(data)
    if missing:
        raise ConfigError(f"missing config key(s): {sorted(missing)}")
    return data


def _system(data: dict) -> OpenSystem:
    if "system" not in data:
        raise ConfigError("config needs a 'system' object")
    return system_from_dict(data["system"])


def _state(data: dict, system: OpenSystem) -> ChordState:
    if "state" not in data:
        raise ConfigError("config needs a 'state' object")
    return state_from_dict(data["state"], hbar=system.hbar)


def _float_field(data: dict, key: str, default: float | None = None) -> float:
    if key not in data:
        if default is None:
            raise ConfigError(f"config needs '{key}'")
        return default
    return float(finite_array(data[key], (), f"'{key}'"))


def _number_list(data: dict, key: str, default: list | None = None) -> list:
    value = data.get(key, default)
    if not isinstance(value, list) or not value:
        raise ConfigError(f"'{key}' must be a non-empty list of finite numbers")
    finite_array(value, (len(value),), f"'{key}'")
    return value


def _json(payload: dict) -> str:
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # a NaN or Infinity in the results
        raise Unstable(f"non-finite value in the output: {exc}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(out, text)


def _require_out(out: str | None) -> str:
    if out is None:
        raise ConfigError("--out is required for this command")
    return out


# ---------------------------------------------------------------------------


def cmd_classify(args: argparse.Namespace) -> int:
    data = _load_config(args.config, {"system"}, {"system"})
    system = _system(data)
    sig = system.sigma
    scale = characteristic_timescale(system)
    payload = {
        "regime": system.regime.value,
        "alpha": system.alpha,
        "sigma_re": sig.real,
        "sigma_im": sig.imag,
        "timescale": scale if math.isfinite(scale) else None,
        "hbar": system.hbar,
    }
    _emit(_json(payload), args.out)
    return _EXIT_OK


def _parabolic_system(d_prime: float, eps: float, d_second: float) -> OpenSystem:
    ham = HamiltonianForm(matrix=[[0.5, 0.0], [0.0, 0.0]])
    chan = LindbladChannel(l_re=[0.0, math.sqrt(d_prime)],
                           l_im=[-eps * math.sqrt(d_second), 0.0])
    return OpenSystem(hamiltonian=ham, channels=(chan,))


def _sweep_rows(d_prime: float, epsilons: Sequence[float],
                d_seconds: Sequence[float], horizon: float) -> list[tuple]:
    rows = []
    for eps in epsilons:
        for d_second in d_seconds:
            result = analysis.positivity_time(
                _parabolic_system(d_prime, eps, d_second), horizon=horizon)
            rows.append((eps, d_second, result))
    return rows


def cmd_positivity(args: argparse.Namespace) -> int:
    if args.sweep or args.paper_table:
        data = _load_config(args.config,
                            {"d_prime", "d_second", "epsilons", "horizon"},
                            set()) if args.config else {}
        d_prime = _float_field(data, "d_prime", 2.0)
        d_seconds = _number_list(data, "d_second", [0.0, 0.1, 1.0, 10.0, 100.0])
        epsilons = _number_list(data, "epsilons", [-1.0, 1.0])
        horizon = _float_field(data, "horizon", 100.0)
        rows = _sweep_rows(d_prime, epsilons, d_seconds, horizon)
        unreached = any(not r.reached for _, _, r in rows)
        if args.paper_table:
            lines = ["case,param1,param2,t_p_solver,t_p_formula"]
            by_key = {(eps, ds): r for eps, ds, r in rows}
            for eps in epsilons:
                for ds in d_seconds:
                    r = by_key[(eps, ds)]
                    solver = repr(r.t_p) if r.reached else ""
                    formula = repr((3.0 / d_prime ** 2) ** 0.25) if ds == 0.0 else ""
                    lines.append(f"parabolic,{eps!r},{ds!r},{solver},{formula}")
            for gamma, nbar in ((1.0, 0.0), (1.0, 0.5), (2.0, 3.0)):
                r = analysis.positivity_time(photon_bath(gamma=gamma, nbar=nbar),
                                             horizon=horizon)
                formula = math.log(1.0 + 1.0 / (2.0 * nbar + 1.0)) / gamma
                lines.append(f"photon,{gamma!r},{nbar!r},{r.t_p!r},{formula!r}")
            _emit("\n".join(lines) + "\n", _require_out(args.out))
        else:
            lines = ["epsilon,d_second,status,t_p"]
            for eps, ds, r in rows:
                t_p = repr(r.t_p) if r.reached else ""
                status = "reached" if r.reached else "unreached"
                lines.append(f"{eps!r},{ds!r},{status},{t_p}")
            _emit("\n".join(lines) + "\n", _require_out(args.out))
        if unreached and args.require_reached:
            return _EXIT_UNREACHED
        return _EXIT_OK

    data = _load_config(args.config, {"system", "horizon"}, {"system"})
    system = _system(data)
    horizon = _float_field(data, "horizon", 100.0)
    result = analysis.positivity_time(system, horizon=horizon)
    _emit(_json(result.to_dict()), args.out)
    if not result.reached and args.require_reached:
        return _EXIT_UNREACHED
    return _EXIT_OK


def cmd_evolve(args: argparse.Namespace) -> int:
    data = _load_config(
        args.config,
        {"system", "state", "t", "grid", "representation"},
        {"system", "state", "t", "grid"})
    system = _system(data)
    state = _state(data, system)
    t = _float_field(data, "t")
    grid = grid_from_dict(data["grid"])
    representation = data.get("representation", "wigner")
    out = _require_out(args.out)
    if representation == "wigner":
        field = propagator.evolve_wigner_grid(system, state, t, grid)
    elif representation == "chord":
        values = propagator.evolve_chord(system, state, t, grid.points())
        field = GridField(spec=grid, values=values)
    else:
        raise ConfigError(f"unknown representation: {representation!r}")
    write_field_csv(field, out)
    return _EXIT_OK


def cmd_entropy(args: argparse.Namespace) -> int:
    data = _load_config(args.config,
                        {"system", "state", "times", "include_asymptotic"},
                        {"system", "state", "times"})
    system = _system(data)
    state = _state(data, system)
    times = _number_list(data, "times")
    include = data.get("include_asymptotic", True)
    if not isinstance(include, bool):
        raise ConfigError("'include_asymptotic' must be a boolean")
    curve = analysis.purity_curve(system, state, [float(v) for v in times],
                                  include_asymptotic=include)
    out = _require_out(args.out)
    analysis.write_purity_csv(curve, out)
    return _EXIT_OK


def cmd_langevin(args: argparse.Namespace) -> int:
    data = _load_config(
        args.config,
        {"system", "state", "t", "dt", "n_paths", "store_stride", "seed"},
        {"system", "state", "t", "dt", "n_paths"})
    system = _system(data)
    mean0, cov0 = _state(data, system).moments()
    t = _float_field(data, "t")
    dt = _float_field(data, "dt")
    n_paths = whole_number(data["n_paths"], "'n_paths'", 1)
    stride = whole_number(data.get("store_stride", 1), "'store_stride'", 1)
    seed = whole_number(args.seed if args.seed is not None else data.get("seed", 0),
                        "seed", 0)

    spec = langevin.sde_from_system(system)
    ensemble = langevin.simulate(spec, mean0, cov0, t, dt, n_paths, seed,
                                 store_stride=stride)
    lines = ["t,mean_p,mean_q,cov_pp,cov_pq,cov_qq,n_paths"]
    for idx, time_val in enumerate(ensemble.times):
        mean, cov = langevin.ensemble_moments(ensemble, idx)
        lines.append(f"{float(time_val)!r},{float(mean[0])!r},{float(mean[1])!r},"
                     f"{float(cov[0, 0])!r},{float(cov[0, 1])!r},"
                     f"{float(cov[1, 1])!r},{n_paths}")
    out = _require_out(args.out)
    _emit("\n".join(lines) + "\n", out)

    exact_mean, exact_cov = langevin.exact_moments(system, mean0, cov0, t)
    sample_mean, sample_cov = langevin.ensemble_moments(ensemble, -1)
    report = {
        "t": t, "dt": ensemble.dt, "n_paths": n_paths, "seed": seed,
        "exact_mean": [float(v) for v in exact_mean],
        "sample_mean": [float(v) for v in sample_mean],
        "exact_cov": [[float(v) for v in row] for row in exact_cov],
        "sample_cov": [[float(v) for v in row] for row in sample_cov],
    }
    atomic_write_text(out + ".json", _json(report))
    return _EXIT_OK


def cmd_reconstruct(args: argparse.Namespace) -> int:
    data = _load_config(args.config,
                        {"system", "state", "t", "floor", "chord_grid"},
                        {"system", "state", "t", "chord_grid"})
    system = _system(data)
    state = _state(data, system)
    t = _float_field(data, "t")
    floor = _float_field(data, "floor", 1e-8)
    grid = grid_from_dict(data["chord_grid"])
    evolved = propagator.evolved_state(system, state, t)
    recovered = analysis.reconstruct(system, evolved, t, floor=floor)
    pts = grid.points()
    values = recovered(pts)
    reliable = recovered.reliability(pts)
    out = _require_out(args.out)
    write_field_csv(GridField(spec=grid, values=values), out)
    write_field_csv(GridField(spec=grid, values=reliable.astype(float)),
                    out + ".reliability.csv")
    return _EXIT_OK


def _fock_initial(data: dict, system: OpenSystem) -> oracle.FockDensity:
    """Number-basis initial state for the Fock comparison (coherent or cat)."""
    state, hbar = data["state"], system.hbar
    kind, center = state.get("type"), state.get("center", (0.0, 0.0))
    if kind not in ("cat", "coherent"):
        raise ConfigError("fock comparison supports coherent or cat states")
    dim = data.get("fock_dim")
    if dim is None:
        dim = (oracle.cat_fock_dim(float(state["zeta"]), hbar) if kind == "cat"
               else oracle.coherent_fock_dim(center, hbar))
    dim = whole_number(dim, "'fock_dim'", 2)
    if kind == "cat":
        return oracle.fock_cat(float(state["zeta"]), dim, hbar)
    return oracle.fock_coherent(center, dim, hbar)


def cmd_oracle_compare(args: argparse.Namespace) -> int:
    data = _load_config(
        args.config,
        {"system", "state", "t", "grid", "fp_dt", "fock_dim", "with_fock"},
        {"system", "state", "t", "grid"})
    system = _system(data)
    state = _state(data, system)
    t = _float_field(data, "t")
    grid = grid_from_dict(data["grid"])
    with_fock = data.get("with_fock", True)
    if not isinstance(with_fock, bool):
        raise ConfigError("'with_fock' must be a boolean")
    fp_dt = data.get("fp_dt")
    if fp_dt is not None:
        fp_dt = _float_field(data, "fp_dt")
    rho0 = _fock_initial(data, system) if with_fock else None

    exact = propagator.evolve_wigner_grid(system, state, t, grid)
    initial = GridField(spec=grid, values=state.wigner(grid.points()))
    fp = oracle.integrate_fokker_planck(system, initial, t, dt=fp_dt)

    cell = grid.cell_area

    def linf(a: GridField, b: GridField) -> float:
        return float(np.max(np.abs(a.values - b.values)))

    def tv(a: GridField, b: GridField) -> float:
        return 0.5 * float(np.sum(np.abs(a.values - b.values))) * cell

    report = {
        "t": t,
        "grid": grid.to_dict(),
        "linf": {"exact_vs_fp": linf(exact, fp)},
        "tv": {"exact_vs_fp": tv(exact, fp)},
    }
    if rho0 is not None:
        rho_t = oracle.integrate_fock_lindblad(system, rho0, t)
        fock_field = oracle.wigner_from_fock(rho_t, grid)
        report["fock_dim"] = rho0.dim
        report["linf"]["exact_vs_fock"] = linf(exact, fock_field)
        report["linf"]["fp_vs_fock"] = linf(fp, fock_field)
        report["tv"]["exact_vs_fock"] = tv(exact, fock_field)
        report["tv"]["fp_vs_fock"] = tv(fp, fock_field)
    _emit(_json(report), args.out)
    return _EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lindquad",
        description="Exact phase-space evolution of quadratic open systems")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "classify": cmd_classify,
        "positivity": cmd_positivity,
        "evolve": cmd_evolve,
        "entropy": cmd_entropy,
        "langevin": cmd_langevin,
        "reconstruct": cmd_reconstruct,
        "oracle-compare": cmd_oracle_compare,
    }
    for name, handler in handlers.items():
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="JSON configuration file")
        cmd.add_argument("--out", help="output file path")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the sampling seed")
        if name == "positivity":
            cmd.add_argument("--sweep", action="store_true",
                             help="emit the parabolic threshold sweep CSV")
            cmd.add_argument("--paper-table", action="store_true",
                             help="emit the combined threshold table CSV")
            cmd.add_argument("--require-reached", action="store_true",
                             help="exit 3 when the threshold is not reached")
        cmd.set_defaults(handler=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except GridTooCoarse as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_GRID
    except (QuadratureNotConverged, Unstable, TruncationLeak) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
