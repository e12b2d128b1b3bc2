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
4 grid too coarse; 5 numerical failure (overflow, integrator instability,
truncation leak, a non-real Wigner function, a non-finite chord value, NaN
results).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Sequence

import numpy as np

from . import analysis, langevin, oracle, propagator
from .errors import ConfigError, GridTooCoarse, TruncationLeak, Unstable
from .grid import (GridField, _csv_text, _json_text, _read_json,
                   atomic_write_text, grid_from_dict, write_field_csv)
from .model import (HamiltonianForm, LindbladChannel, OpenSystem,
                    _require_keys, characteristic_timescale, finite_array,
                    photon_bath, system_from_dict, whole_number)
from .states import state_from_dict

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_UNREACHED = 3
_EXIT_GRID = 4
_EXIT_NUMERIC = 5


def _load_config(path: str | None, allowed: set[str], required: set[str]) -> dict:
    if path is None:
        raise ConfigError("--config is required for this command")
    data = _read_json(path, "config")
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(data, allowed, required, "config")
    return data


def _float_field(data: dict, key: str, default: float | None = None) -> float | None:
    if key not in data:
        return default
    return float(finite_array(data[key], (), f"'{key}'"))


def _bool_field(data: dict, key: str) -> bool:
    """``data[key]`` as a JSON boolean; true when absent."""
    value = data.get(key, True)
    if not isinstance(value, bool):
        raise ConfigError(f"'{key}' must be a boolean")
    return value


def _number_list(data: dict, key: str, default: list | None = None) -> list[float]:
    value = data.get(key, default)
    if not isinstance(value, list) or not value:
        raise ConfigError(f"'{key}' must be a non-empty list of finite numbers")
    return finite_array(value, (len(value),), f"'{key}'").tolist()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(out, text)


def _unreached(message: str) -> int:
    """Exit 3 under ``--require-reached``, with its one ``error:`` line."""
    print(f"error: {message}", file=sys.stderr)
    return _EXIT_UNREACHED


def _require_out(out: str | None) -> str:
    if out is None:
        raise ConfigError("--out is required for this command")
    return out


# ---------------------------------------------------------------------------


def cmd_classify(args: argparse.Namespace) -> int:
    data = _load_config(args.config, {"system"}, {"system"})
    system = system_from_dict(data["system"])
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
    _emit(_json_text(payload), args.out)
    return _EXIT_OK


def _parabolic_system(d_prime: float, eps: float, d_second: float) -> OpenSystem:
    ham = HamiltonianForm(matrix=[[0.5, 0.0], [0.0, 0.0]])
    chan = LindbladChannel(l_re=[0.0, math.sqrt(d_prime)],
                           l_im=[-eps * math.sqrt(d_second), 0.0])
    return OpenSystem(hamiltonian=ham, channels=(chan,))


def _threshold_rows(data: dict, photon: bool) -> list[tuple]:
    """(case, param1, param2, result, formula) rows of both threshold tables.

    The parabolic rows come in (epsilon, d_second) order; ``photon`` appends
    the three photon-bath cases. ``formula`` is the closed-form t_p, or None
    where there is none: d_second != 0, or d_prime = 0 (or so far from 1
    that its square leaves the float range).
    """
    d_prime = _float_field(data, "d_prime", 2.0)
    d_seconds = _number_list(data, "d_second", [0.0, 0.1, 1.0, 10.0, 100.0])
    epsilons = _number_list(data, "epsilons", [-1.0, 1.0])
    horizon = _float_field(data, "horizon", 100.0)
    if d_prime < 0 or min(d_seconds) < 0:
        raise ConfigError("'d_prime' and every 'd_second' must be nonnegative")
    try:
        closed = (3.0 / d_prime ** 2) ** 0.25
    except (ZeroDivisionError, OverflowError):  # d' = 0, or d'^2 out of range
        closed = None
    rows = [("parabolic", eps, ds,
             analysis.positivity_time(_parabolic_system(d_prime, eps, ds),
                                      horizon=horizon),
             closed if ds == 0.0 else None)
            for eps in epsilons for ds in d_seconds]
    if photon:
        rows += [("photon", gamma, nbar,
                  analysis.positivity_time(photon_bath(gamma=gamma, nbar=nbar),
                                           horizon=horizon),
                  oracle.cat_zero_crossing_time(gamma, nbar))
                 for gamma, nbar in ((1.0, 0.0), (1.0, 0.5), (2.0, 3.0))]
    return rows


def cmd_positivity(args: argparse.Namespace) -> int:
    if args.sweep or args.paper_table:
        out = _require_out(args.out)
        data = _load_config(args.config,
                            {"d_prime", "d_second", "epsilons", "horizon"},
                            set()) if args.config else {}
        rows = _threshold_rows(data, photon=args.paper_table)
        if args.paper_table:
            text = _csv_text(
                ("case", "param1", "param2", "t_p_solver", "t_p_formula"),
                [(case, p1, p2, r.t_p, formula)
                 for case, p1, p2, r, formula in rows])
        else:
            text = _csv_text(
                ("epsilon", "d_second", "status", "t_p"),
                [(eps, ds, "reached" if r.reached else "unreached", r.t_p)
                 for _, eps, ds, r, _ in rows])
        _emit(text, out)
        missed = sum(not row[3].reached for row in rows)
        if args.require_reached and missed:
            return _unreached(f"{missed} of {len(rows)} thresholds not reached "
                              f"within the horizon")
        return _EXIT_OK

    data = _load_config(args.config, {"system", "horizon"}, {"system"})
    system = system_from_dict(data["system"])
    horizon = _float_field(data, "horizon", 100.0)
    result = analysis.positivity_time(system, horizon=horizon)
    _emit(_json_text(result.to_dict()), args.out)
    if not result.reached and args.require_reached:
        return _unreached(f"positivity threshold not reached within the "
                          f"horizon {horizon!r}")
    return _EXIT_OK


def cmd_evolve(args: argparse.Namespace) -> int:
    data = _load_config(
        args.config,
        {"system", "state", "t", "grid", "representation"},
        {"system", "state", "t", "grid"})
    system = system_from_dict(data["system"])
    state = state_from_dict(data["state"], hbar=system.hbar)
    t = _float_field(data, "t")
    grid = grid_from_dict(data["grid"])
    representation = data.get("representation", "wigner")
    out = _require_out(args.out)
    if representation == "wigner":
        field = propagator.evolve_wigner_grid(system, state, t, grid)
    elif representation == "chord":
        values = propagator.evolved_state(system, state, t).chord_grid(grid)
        field = GridField(spec=grid, values=values)
    else:
        raise ConfigError(f"unknown representation: {representation!r}")
    write_field_csv(field, out)
    return _EXIT_OK


def cmd_entropy(args: argparse.Namespace) -> int:
    data = _load_config(args.config,
                        {"system", "state", "times", "include_asymptotic"},
                        {"system", "state", "times"})
    out = _require_out(args.out)
    system = system_from_dict(data["system"])
    state = state_from_dict(data["state"], hbar=system.hbar)
    curve = analysis.purity_curve(
        system, state, _number_list(data, "times"),
        include_asymptotic=_bool_field(data, "include_asymptotic"))
    analysis.write_purity_csv(curve, out)
    return _EXIT_OK


def cmd_langevin(args: argparse.Namespace) -> int:
    data = _load_config(
        args.config,
        {"system", "state", "t", "dt", "n_paths", "store_stride", "seed"},
        {"system", "state", "t", "dt", "n_paths"})
    system = system_from_dict(data["system"])
    mean0, cov0 = state_from_dict(data["state"], hbar=system.hbar).moments()
    t = _float_field(data, "t")
    dt = _float_field(data, "dt")
    n_paths = whole_number(data["n_paths"], "'n_paths'", 2)
    stride = whole_number(data.get("store_stride", 1), "'store_stride'", 1)
    seed = whole_number(args.seed if args.seed is not None else data.get("seed", 0),
                        "seed", 0)

    out = _require_out(args.out)

    # every result first, so a failure leaves no file behind
    ensemble = langevin.simulate(system, mean0, cov0, t, dt, n_paths, seed,
                                 store_stride=stride, scheme="exact")
    exact_mean, exact_cov = langevin.exact_moments(system, mean0, cov0, t)
    rows = []
    for idx, time_val in enumerate(ensemble.times):
        mean, cov = langevin.ensemble_moments(ensemble, idx)
        rows.append((float(time_val), float(mean[0]), float(mean[1]),
                     float(cov[0, 0]), float(cov[0, 1]), float(cov[1, 1]),
                     n_paths))
    sample_mean, sample_cov = langevin.ensemble_moments(ensemble, -1)
    report = _json_text({
        "t": t, "dt": ensemble.dt, "n_paths": n_paths, "seed": seed,
        "scheme": ensemble.scheme,
        "exact_mean": [float(v) for v in exact_mean],
        "sample_mean": [float(v) for v in sample_mean],
        "exact_cov": [[float(v) for v in row] for row in exact_cov],
        "sample_cov": [[float(v) for v in row] for row in sample_cov],
    })
    _emit(_csv_text(("t", "mean_p", "mean_q", "cov_pp", "cov_pq", "cov_qq",
                      "n_paths"), rows), out)
    atomic_write_text(out + ".json", report)
    return _EXIT_OK


def cmd_reconstruct(args: argparse.Namespace) -> int:
    data = _load_config(args.config,
                        {"system", "state", "t", "floor", "chord_grid"},
                        {"system", "state", "t", "chord_grid"})
    out = _require_out(args.out)
    system = system_from_dict(data["system"])
    state = state_from_dict(data["state"], hbar=system.hbar)
    t = _float_field(data, "t")
    floor = _float_field(data, "floor", 1e-8)
    grid = grid_from_dict(data["chord_grid"])
    reliable = analysis.reliable_chords(system, t, grid.points(), floor)
    evolved = propagator.evolved_state(system, state, t)
    values = analysis.reconstruct(system, evolved, t).chord_grid(grid)
    write_field_csv(GridField(spec=grid, values=values), out)
    write_field_csv(GridField(spec=grid, values=reliable), out + ".reliability.csv")
    return _EXIT_OK


def _fock_initial(data: dict, system: OpenSystem, dim: int | None
                  ) -> oracle.FockDensity:
    """Number-basis initial state for the Fock comparison (coherent or cat),
    of dimension ``dim`` or, when None, the oracle's default for the state."""
    state, hbar = data["state"], system.hbar
    kind = state.get("type")
    if kind == "cat":
        return oracle.fock_cat(float(state["zeta"]), dim, hbar)
    if kind == "coherent":
        return oracle.fock_coherent(state.get("center", (0.0, 0.0)), dim, hbar)
    raise ConfigError("fock comparison supports coherent or cat states")


def cmd_oracle_compare(args: argparse.Namespace) -> int:
    data = _load_config(
        args.config,
        {"system", "state", "t", "grid", "fp_dt", "fock_dim", "with_fock"},
        {"system", "state", "t", "grid"})
    system = system_from_dict(data["system"])
    state = state_from_dict(data["state"], hbar=system.hbar)
    t = _float_field(data, "t")
    grid = grid_from_dict(data["grid"])
    fp_dt = _float_field(data, "fp_dt")
    dim = data.get("fock_dim")
    dim = None if dim is None else whole_number(dim, "'fock_dim'", 2)
    rho0 = (_fock_initial(data, system, dim) if _bool_field(data, "with_fock")
            else None)

    exact = propagator.evolve_wigner_grid(system, state, t, grid)
    initial = propagator.evolve_wigner_grid(system, state, 0.0, grid)
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
    _emit(_json_text(report), args.out)
    return _EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
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
        if name == "langevin":
            cmd.add_argument("--seed", type=int, default=None,
                             help="override the sampling seed")
        if name == "positivity":
            table = cmd.add_mutually_exclusive_group()
            table.add_argument("--sweep", action="store_true",
                               help="emit the parabolic threshold sweep CSV")
            table.add_argument("--paper-table", action="store_true",
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
    except (Unstable, TruncationLeak) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except MemoryError as exc:
        # a grid, basis or ensemble too large for this machine is refused
        print(f"error: {args.command}: out of memory ({exc})", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
