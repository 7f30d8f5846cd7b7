"""Every name the benchmark's tracer wraps still exists.

``perfbench/tracing.py`` wraps run-path functions by attribute path from
the ``bdrlab`` package. A path that no longer resolves fails only inside a
traced benchmark run; this check reads the same table and names it at once.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _patched_paths():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PATCHES"]:
            return [path for path, _ in ast.literal_eval(node.value)]
    raise AssertionError(f"no PATCHES table in {TRACING}")


def test_every_traced_path_resolves():
    missing = []
    for path in _patched_paths():
        module, *attrs = path.split(".")
        try:
            owner = importlib.import_module(f"bdrlab.{module}")
        except ModuleNotFoundError:
            owner = None
        for attr in attrs:
            owner = getattr(owner, attr, None)
        if owner is None:
            missing.append(path)
    assert not missing, f"unresolved traced paths: {', '.join(missing)}"
