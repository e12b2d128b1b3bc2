"""The package's public names and the benchmark's traced layers resolve, and no
module imports a name it never uses."""
from __future__ import annotations

import ast
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


def test_no_unused_imports() -> None:
    root = Path(__file__).resolve().parent.parent
    files = sorted((root / "src" / "lindquad").glob("*.py")) + sorted(
        (root / "tests").glob("*.py"))
    assert files
    assert [hit for path in files for hit in _unused_imports(path)] == []
