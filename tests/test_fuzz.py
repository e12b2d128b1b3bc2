"""A config fuzz property for every subcommand.

Each example takes a valid config of one subcommand, replaces one or two of
its leaves with values from a fixed menu of edge cases (signed zeros, a
subnormal, numbers near and past the float range, NaN, infinities, wrong
types, integers past 64 bits and past the float range), and runs
``lindquad.cli.main`` in-process with ``RuntimeWarning`` as an error. Every
run must end with a documented exit code, no traceback or warning on
stderr, one ``error:`` line on failure, and strict JSON in every JSON file
it wrote. Grids stay at 17^2 and ensembles at 8 paths, so the whole
property costs about a second.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from audits import system_to_dict
from lindquad import HamiltonianForm, LindbladChannel, OpenSystem, photon_bath
from lindquad.cli import main

FUZZ = settings(derandomize=True, deadline=None, max_examples=300)

_PHOTON = system_to_dict(photon_bath(gamma=1.0, nbar=0.2))
_SADDLE = system_to_dict(OpenSystem(
    hamiltonian=HamiltonianForm(matrix=[[0.5, 0.1], [0.1, -0.5]], linear=[0.2, 0.0]),
    channels=(LindbladChannel(l_re=[0.0, 0.5], l_im=[0.5, 0.0]),
              LindbladChannel(l_re=[0.3, 0.0])),
    hbar=0.5))
_COHERENT = {"type": "coherent", "center": [0.6, 0.0]}
_CAT = {"type": "cat", "zeta": 1.0}
_SQUEEZED = {"type": "gaussian", "mean": [0.1, -0.2], "cov": [[0.8, 0.1], [0.1, 0.4]]}
_GRID = {"center": [0.0, 0.0], "half_extent": [5.0, 5.0], "shape": [17, 17]}
_TABLE = {"d_prime": 2.0, "d_second": [0.0, 1.0], "epsilons": [-1.0, 1.0],
          "horizon": 50.0}

# (argv before --config, config)
_BASES = [
    (["classify"], {"system": _PHOTON}),
    (["classify"], {"system": _SADDLE}),
    (["positivity"], {"system": _PHOTON, "horizon": 20.0}),
    (["positivity", "--require-reached"], {"system": _SADDLE, "horizon": 0.5}),
    (["positivity", "--sweep"], _TABLE),
    (["positivity", "--paper-table", "--require-reached"], _TABLE),
    (["evolve"], {"system": _PHOTON, "state": _COHERENT, "t": 0.3, "grid": _GRID}),
    (["evolve"], {"system": _SADDLE, "state": _SQUEEZED, "t": 0.2, "grid": _GRID,
                  "representation": "chord"}),
    (["entropy"], {"system": _PHOTON, "state": _CAT, "times": [0.0, 0.5, 8.0],
                   "include_asymptotic": True}),
    (["entropy"], {"system": _SADDLE, "state": _SQUEEZED, "times": [0.3]}),
    (["langevin"], {"system": _PHOTON, "state": _COHERENT, "t": 0.2, "dt": 0.05,
                    "n_paths": 8, "store_stride": 2, "seed": 3}),
    (["langevin"], {"system": _SADDLE, "state": _SQUEEZED, "t": 0.1, "dt": 0.05,
                    "n_paths": 4}),
    (["reconstruct"], {"system": _PHOTON, "state": _CAT, "t": 0.3, "floor": 1e-6,
                       "chord_grid": _GRID}),
    (["reconstruct"], {"system": _SADDLE, "state": _COHERENT, "t": 0.2,
                       "chord_grid": _GRID}),
    (["oracle-compare"], {"system": _PHOTON, "state": _COHERENT, "t": 0.05,
                          "grid": _GRID, "fock_dim": 24}),
    (["oracle-compare"], {"system": _PHOTON, "state": _CAT, "t": 0.05,
                          "grid": _GRID, "fp_dt": 0.01, "with_fock": False}),
]
_CSV_OUT = {"evolve", "entropy", "langevin", "reconstruct", "--sweep", "--paper-table"}

_MENU = [0.0, -0.0, 5e-324, 1e300, -1e300, 1.7e308, -1.7e308, math.nan, math.inf,
         -math.inf, "a", None, True, [], {}, 2 ** 63, 10 ** 400]


def _leaves(node, path=()):
    """Paths to every leaf of a JSON tree, in document order."""
    if isinstance(node, dict):
        return [leaf for key, value in node.items() for leaf in _leaves(value, path + (key,))]
    if isinstance(node, list) and node:
        return [leaf for i, value in enumerate(node) for leaf in _leaves(value, path + (i,))]
    return [path]


def _replaced(node, path, value):
    """A copy of ``node`` with the leaf at ``path`` set to ``value``."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(node, dict):
        return {key: _replaced(item, rest, value) if key == head else item
                for key, item in node.items()}
    return [_replaced(item, rest, value) if i == head else item
            for i, item in enumerate(node)]


def _refuse_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


@st.composite
def _cases(draw):
    argv, config = draw(st.sampled_from(_BASES))
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(_leaves(config)))
        config = _replaced(config, path, draw(st.sampled_from(_MENU)))
    return argv, config


def _check(directory, argv, config) -> None:
    """``main`` on ``config`` in an emptied ``directory`` ends cleanly."""
    for path in directory.iterdir():
        path.unlink()
    cfg = directory / "config.json"
    cfg.write_text(json.dumps(config))
    out = directory / ("out.csv" if _CSV_OUT & set(argv) else "out.json")
    err = io.StringIO()
    with (warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("error", RuntimeWarning)
        code = main([*argv, "--config", str(cfg), "--out", str(out)])
    err = err.getvalue()
    assert code in (0, 2, 3, 4, 5), (code, err)
    assert "Traceback" not in err and "Warning" not in err, err
    if code != 0:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    else:
        assert err == ""
    for path in directory.glob("*.json"):
        if path != cfg:
            json.loads(path.read_text(), parse_constant=_refuse_constant)


def test_fuzzed_configs_exit_cleanly(tmp_path) -> None:
    @FUZZ
    @given(_cases())
    def run(case) -> None:
        _check(tmp_path, *case)

    run()


def _edited(index: int, **changes) -> tuple:
    """Base config ``index`` with top-level keys replaced."""
    argv, config = _BASES[index]
    return argv, dict(config, **changes)


# each once failed: exit 3 printed no error line; the others printed a
# RuntimeWarning (exit 1 where warnings are errors) or exited 1 with an
# OverflowError, from the state builders' divisions by hbar, their hbar ** 2
# and the ensemble-size message
_FOUND = {
    "unreached-threshold": _edited(3),
    "gaussian-mean": _edited(9, state=dict(_SQUEEZED, mean=[0.1, 1.7e308])),
    "gaussian-cov": _edited(9, state=dict(_SQUEEZED, cov=[[0.8, 0.1], [0.1, 1.7e308]])),
    "gaussian-huge-hbar": _edited(9, system=dict(_SADDLE, hbar=1.7e308)),
    "coherent-center": _edited(13, state=dict(_COHERENT, center=[1.7e308, 0.0])),
    "coherent-huge-hbar": _edited(10, system=dict(_PHOTON, hbar=1.7e308)),
    "langevin-large-hbar": _edited(10, system=dict(_PHOTON, hbar=1e155)),
    "coherent-subnormal-hbar": _edited(14, system=dict(_PHOTON, hbar=5e-324)),
    "langevin-paths": _edited(11, n_paths=10 ** 400),
}


@pytest.mark.parametrize("name", sorted(_FOUND))
def test_configs_the_fuzz_found_exit_cleanly(tmp_path, name) -> None:
    _check(tmp_path, *_FOUND[name])
