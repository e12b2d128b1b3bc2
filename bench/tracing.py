"""Spans and exact counts around the package's layers, from outside it.

:class:`Tracer` replaces selected public functions of ``lindquad`` modules
with timing wrappers. A function is replaced under every module name that
binds it, so a call through an imported name (``analysis.damping_matrix``
is ``propagator.damping_matrix``) is traced too. Wrappers pass arguments
and results through unchanged (an integrand is wrapped only to count its
nodes), so traced runs write the same bytes as untraced ones.

A span's self time is its duration minus the durations of the traced
spans it directly contains. Spans with the same layer name add up.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from types import ModuleType
from typing import Callable, Optional

_clock = time.perf_counter


def _counting(counts, key: str, f: Callable) -> Callable:
    """Wrap an integrand so each call adds its node count to ``key``."""
    def counted(nodes):
        counts[key] += len(nodes)
        return f(nodes)
    return counted


class Tracer:
    """Records spans and counts while installed; see :func:`layers`."""

    def __init__(self, modules: dict[str, ModuleType]):
        self.modules = modules
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._saved: list[tuple] = []
        self._next_id = 0

    def reset(self) -> None:
        self.spans = []
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, count_calls: bool,
              before: Optional[Callable], after: Optional[Callable]) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer.counts, args, kwargs)
            parent = tracer.stack[-1][0] if tracer.stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0]
            tracer.stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                tracer.stack.pop()
                duration = end - start
                tracer.self_s[layer] += duration - frame[1]
                if tracer.stack:
                    tracer.stack[-1][1] += duration
                tracer.spans.append((span_id, parent, layer, start, end))
            if count_calls:
                tracer.counts[f"{layer}.calls"] += 1
            if after is not None:
                after(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        replaced = {}
        for module_name, func_name, layer, count_calls, before, after in layers(self.modules):
            original = getattr(self.modules[module_name], func_name)
            replaced[original] = self._wrap(original, layer, count_calls, before, after)
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if callable(value) and value in replaced:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, replaced[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved = []


# -- counters -----------------------------------------------------------------


def _interval_nodes(counts, args, kwargs):
    f = _counting(counts, "quadrature.interval.integrand_nodes", args[0])
    return (f, *args[1:]), kwargs


def _tensor_nodes(counts, args, kwargs):
    f = _counting(counts, "quadrature.tensor.integrand_nodes", args[0])
    return (f, *args[1:]), kwargs


def _det_evals(counts, args, kwargs, result):
    counts["analysis.positivity_time.det_evals"] += result.iterations


def _chord_points(counts, args, kwargs, result):
    counts["propagator.evolve_chord.points"] += int(result.size)


def _nodes_out(counts, args, kwargs, result):
    counts["propagator.evolve_wigner_grid.nodes_out"] += int(result.values.size)


def _bytes(counts, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    counts["grid.write.bytes"] += len(text.encode("utf-8"))


def _simulate_counts(counts, args, kwargs, result):
    # simulate(spec, mean, cov, t, dt, n_paths, seed): draws 2 normals per path
    # for the initial point and one per noise column per step, in whole
    # blocks of 1024 paths (computed from the arguments).
    spec, t, dt, n_paths = args[0], args[3], args[4], args[5]
    steps = max(1, round(t / dt)) if t > 0 else 0  # simulate's step rule
    blocks = math.ceil(n_paths / 1024)
    counts["langevin.simulate.path_steps"] += n_paths * steps
    counts["langevin.simulate.normals"] += (
        blocks * 1024 * (2 + steps * spec.noise_vectors.shape[0]))


def _fp_steps(fokker_planck_max_dt):
    # Step count of integrate_fokker_planck(system, initial, t, dt=None),
    # computed from its arguments with the same rule.
    def count(counts, args, kwargs, result):
        system, initial, t = args[:3]
        dt = kwargs.get("dt")
        if dt is None:
            dt = fokker_planck_max_dt(system, initial.spec)
        if t == 0.0:
            steps = 0
        elif not math.isfinite(dt):
            steps = 1
        else:
            steps = max(1, math.ceil(t / dt))
        counts["oracle.integrate_fokker_planck.steps"] += steps
    return count


def layers(modules: dict[str, ModuleType]) -> list:
    """Traced functions: (module, function, layer, count calls, before, after)."""
    return [
        ("cli", "main", "cli", True, None, None),
        ("analysis", "positivity_time", "analysis.positivity_time", True, None, _det_evals),
        ("analysis", "purity", "analysis.purity", True, None, None),
        ("propagator", "damping_matrix", "propagator.damping_matrix", True, None, None),
        ("propagator", "evolve_chord", "propagator.evolve_chord", True, None, _chord_points),
        ("propagator", "evolve_wigner_grid", "propagator.evolve_wigner_grid", True,
         None, _nodes_out),
        ("_quadrature", "gauss_legendre_adaptive", "quadrature.interval", True,
         _interval_nodes, None),
        ("_quadrature", "adaptive_tensor_gl", "quadrature.tensor", True,
         _tensor_nodes, None),
        ("states", "coherent_state", "states.build", True, None, None),
        ("states", "gaussian_state", "states.build", True, None, None),
        ("states", "cat_state", "states.build", True, None, None),
        # row formatting of field CSVs counts as writing; calls and bytes
        # count every atomic_write_text
        ("grid", "write_field_csv", "grid.write", False, None, None),
        ("grid", "atomic_write_text", "grid.write", True, None, _bytes),
        ("langevin", "simulate", "langevin.simulate", True, None, _simulate_counts),
        ("langevin", "ensemble_moments", "langevin.moments", True, None, None),
        ("langevin", "exact_moments", "langevin.moments", True, None, None),
        ("oracle", "integrate_fokker_planck", "oracle.integrate_fokker_planck", True,
         None, _fp_steps(modules["oracle"].fokker_planck_max_dt)),
        ("oracle", "integrate_fock_lindblad", "oracle.integrate_fock_lindblad", True,
         None, None),
        ("oracle", "wigner_from_fock", "oracle.wigner_from_fock", True, None, None),
    ]


def span_log(tracer: Tracer) -> list:
    """Spans as dicts with times relative to the first start."""
    if not tracer.spans:
        return []
    origin = min(span[3] for span in tracer.spans)
    return [{"id": i, "parent": p, "layer": name,
             "start_s": start - origin, "end_s": end - origin}
            for i, p, name, start, end in tracer.spans]
