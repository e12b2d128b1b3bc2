"""The package's public names and the benchmark's traced layers resolve."""
from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import lindquad

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


def test_every_traced_layer_resolves() -> None:
    # bench/tracing.py wraps these functions by name; a deleted or renamed
    # one would break the traced benchmark
    spec = importlib.util.spec_from_file_location("bench_tracing", _BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {name: importlib.import_module(f"lindquad.{name}") for name in _MODULES}
    modules["lindquad"] = lindquad
    layers = tracing.layers(modules)
    assert layers
    missing = [(module, func) for module, func, *_ in layers
               if not callable(getattr(modules[module], func, None))]
    assert missing == []
