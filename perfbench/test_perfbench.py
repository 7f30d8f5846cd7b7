"""Self-test of the benchmark harness at a tiny size.

    python3 -m pytest perfbench -q

Runs every workload shrunk to a few seconds, with tracing off and on, and
checks that every metric named in BENCHMARK.json is emitted with its unit.
Then corrupts finished reports and checks that the output check fires.
"""

from __future__ import annotations

import configparser
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
from checks import RunOutput, behaviour_digest, sha256_of  # noqa: E402

TINY = {
    "dataset": {"per_class": "24", "dim": "4"},
    "train": {"epochs": "2", "batch_size": "16", "hidden": "8, 8"},
}


def _benchmark():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _tiny(name, tmp_path):
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(os.path.join(HERE, "workloads", f"{name}.cfg"), encoding="utf-8")
    for section, values in TINY.items():
        parser[section].update(values)
    if parser["dataset"]["classes"] == "16":
        parser["dataset"]["classes"] = "8"
    parser["run"]["seeds"] = "0, 1"
    path = tmp_path / f"{name}.cfg"
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    # a different name keeps the full-size reference and directional claims out
    return run.Workload(f"tiny_{name}", 1, str(path))


def _units(section):
    return {m["name"]: m["unit"] for m in _benchmark()[section]}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(name, tmp_path):
    workload = _tiny(name, tmp_path)
    deadline = time.perf_counter() + 170
    verdict, metrics, _, units = run.measure(workload, 0, 0.1, str(tmp_path / "plain"), deadline)
    assert verdict.failed == 0 and not verdict.problems, verdict.problems
    assert {k: units[k] for k in metrics} == _units("end_to_end")
    assert all(metrics[k] > 0 for k in metrics)

    verdict, metrics, _, units = run.trace_run(workload, 0, str(tmp_path / "traced"), deadline)
    assert verdict.failed == 0 and not verdict.problems, verdict.problems
    assert {k: units[k] for k in metrics} == _units("per_layer")


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in _benchmark()["workloads"]] == list(run.WORKLOADS)


def _finished_run(tmp_path):
    workload = _tiny("paired", tmp_path)
    child = run.run_workload(workload, 0, str(tmp_path / "w"), time.perf_counter() + 120)
    assert not child.problems
    return child.out_dir


def _rewrite(path, edit, rehash):
    with open(path, encoding="utf-8") as fh:
        document = json.load(fh)
    edit(document["body"])
    if rehash:
        document["body_sha256"] = sha256_of(document["body"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)


def test_output_check_fires_on_corrupted_reports(tmp_path):
    out_dir = _finished_run(tmp_path)
    clean = RunOutput(out_dir, "bdr", 0)
    assert clean.problems == []
    expected = [behaviour_digest(clean.body), clean.body_sha256]
    assert clean.compare(expected) and clean.problems == []

    def bump_avg(body):
        body["avg"] += 1.0

    # an edited body that keeps its old hash
    _rewrite(os.path.join(out_dir, "bdr_0.json"), bump_avg, rehash=False)
    assert any("body_sha256" in p for p in RunOutput(out_dir, "bdr", 0).problems)

    # a consistent report whose behaviour moved away from the reference
    _rewrite(os.path.join(out_dir, "bdr_0.json"), lambda body: None, rehash=True)
    moved = RunOutput(out_dir, "bdr", 0)
    assert moved.problems == []
    assert not moved.compare(expected)
    assert any("behavioural fields" in p for p in moved.problems)

    # a trace file the report names is gone
    os.remove(os.path.join(out_dir, "ce_1_steps.csv"))
    assert any("missing steps trace" in p for p in RunOutput(out_dir, "ce", 1).problems)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    args = [sys.executable, "perfbench/run.py", "--workload", "paired", "--seed", "0", "--seconds", "1", "--trace", "0"]
    result = subprocess.run(args, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
