"""Every name the benchmark's tracer wraps still exists, and the benchmark's
recorded behaviour is still met.

``perfbench/tracing.py`` wraps run-path functions by attribute path from
the ``bdrlab`` package. A path that no longer resolves fails only inside a
traced benchmark run; this check reads the same table and names it at once.

``perfbench/checks.py`` looks its reference up by the child's whole record
of loaded BLAS libraries, which names scipy's own BLAS only while a run
imports ``scipy.linalg``. Without it the harness finds no reference and
skips its behavioural comparison, so this file makes that comparison, on
window 0 of every workload, under the key nproc, numpy version and numpy's
BLAS build.
"""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


# Traced paths that no run calls, and why; their spans read 0 on every run.
NEVER_ON_A_RUN = {"tensor.Tensor.backward": "the tape is the tests' reference kernel, off the run path"}

REACH_CONFIG = """
[dataset]
classes = 6
per_class = 24
dim = 4
separation = 3.0

[protocol]
initial_classes = 2
increment = 2

[memory]
budget = 3
selection = herding

[train]
epochs = 2
batch_size = 12
hidden = 12, 12

[run]
variants = ce, cr, bdr
seeds = 0
"""


def test_every_traced_path_is_reached(tmp_path, monkeypatch):
    # A call site that moves can leave a span that resolves but never fires,
    # and its per-layer metric then reads 0: count each path's calls over a
    # small three-phase run of every variant.
    from bdrlab.cli import main

    reached = {}

    def counting(path, fn):
        def counted(*args, **kwargs):
            reached[path] += 1
            return fn(*args, **kwargs)

        return counted

    for path in _patched_paths():
        module, *attrs = path.split(".")
        owner = importlib.import_module(f"bdrlab.{module}")
        for attr in attrs[:-1]:
            owner = getattr(owner, attr)
        reached[path] = 0
        monkeypatch.setattr(owner, attrs[-1], counting(path, getattr(owner, attrs[-1])))
    config_path = tmp_path / "reach.cfg"
    config_path.write_text(REACH_CONFIG)
    assert main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 0
    unreached = [path for path, calls in reached.items() if not calls and path not in NEVER_ON_A_RUN]
    assert not unreached, f"traced paths no run reached: {', '.join(unreached)}"


def _numpy_key(environment):
    """nproc, numpy's version and its own BLAS record (the one numpy wheels ship)."""
    blas = [record for record in environment["blas"] if record[0].startswith("libscipy_openblas64_")]
    return environment["nproc"], environment["numpy"], blas


@pytest.mark.parametrize(
    "name, runs", [("paired", 15), ("long_stream", 2), ("wide", 6)], ids=["paired", "long_stream", "wide"]
)
def test_window_zero_meets_the_recorded_behaviour(tmp_path, monkeypatch, name, runs):
    # configs/benchmark.cfg is the paired workload's window 0 (seeds 0-4)
    assert (ROOT / "configs" / "benchmark.cfg").read_bytes() == (PERFBENCH / "workloads" / "paired.cfg").read_bytes()
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import checks
    import run

    workload = run.Workload(name, run.WORKLOADS[name])
    config_path, out, facts_path = tmp_path / f"{name}.cfg", tmp_path / "out", tmp_path / "facts.json"
    config_path.write_text(workload.config_text(0))
    done = subprocess.run(
        [sys.executable, run.CHILD, "run", str(config_path), str(out), "1", str(facts_path)],
        cwd=ROOT,
        env=run.child_environment(),
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    environment = json.loads(facts_path.read_text())["environment"]
    key = _numpy_key(environment)
    entries = json.loads(Path(checks.REFERENCE_PATH).read_text())["environments"]
    matches = [e["workloads"][name] for e in entries if _numpy_key(e["environment"]) == key]
    if not key[2] or not matches:
        pytest.skip(f"no reference recorded for nproc {key[0]}, numpy {key[1]}, BLAS {key[2]}")
    expected = matches[0]
    outputs = [checks.RunOutput(out, v, s) for v in workload.variants for s in workload.seeds(0)]
    for output in outputs:
        output.compare(expected[output.run])
    assert len(outputs) == runs
    assert [p for o in outputs for p in o.problems] == []
