"""Acceptance gate: one test per criterion, each printing a PASS line.

Criteria 7-10 share a 5-seed paired benchmark (gaussian stream, 8 classes,
initial block of 4, increments of 2, 5 exemplars per class, two hidden
layers); pairing means every variant sees identical data, init, and batch
order per seed, so differences are attributable to the loss alone.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from bdrlab.cli import build_stream, main
from bdrlab.config import ExperimentConfig
from bdrlab.training import first_phase, run_experiment
from bdrlab import verification

SEEDS = tuple(range(5))

# the desk-scale benchmark: moderate class crowding (8 classes on a sphere in
# 8 dimensions) and a 20:1 new-to-exemplar imbalance; tau = 2 calibrates the
# offset scale for phases a hundred steps long
BENCHMARK = ExperimentConfig(tau=2.0)

_RESULT_CACHE = {}
_FIRST_PHASE_CACHE = {}


def _run(cfg, variant, seed):
    """One run, continued from the first phase shared by the seed's variants,
    as ``bdrlab run`` does."""
    key = (cfg, variant, seed)
    if key not in _RESULT_CACHE:
        if (cfg, seed) not in _FIRST_PHASE_CACHE:
            _FIRST_PHASE_CACHE[(cfg, seed)] = first_phase(build_stream(cfg, seed), replace(cfg, seed=seed))
        _RESULT_CACHE[key] = run_experiment(_FIRST_PHASE_CACHE[(cfg, seed)], variant)
    return _RESULT_CACHE[key]


@pytest.fixture(scope="module")
def benchmark_runs():
    started = time.perf_counter()
    runs = {(v, s): _run(BENCHMARK, v, s) for v in ("ce", "cr", "bdr") for s in SEEDS}
    return runs, time.perf_counter() - started


def _per_phase(report, field):
    return [p["destruction"][field] for p in report["phases"] if p["destruction"] is not None]


def test_criterion_01_gradient_oracle():
    started = time.perf_counter()
    check = verification.check_gradient_oracle(instances=100)
    elapsed = time.perf_counter() - started
    assert check.passed, check.detail
    assert elapsed < 60.0
    print(f"PASS criterion 1 (gradient oracle): {check.detail} in {elapsed:.1f}s")


def test_criterion_02_exact_reductions():
    check = verification.check_exact_reduction(trials=1000)
    assert check.passed, check.detail
    print(f"PASS criterion 2 (exact reduction to plain CE): {check.detail}")


def test_criterion_03_binary_closed_form():
    check = verification.check_binary_saturation(tol=1e-10)
    assert check.passed, check.detail
    print(f"PASS criterion 3 (binary-gradient closed form): {check.detail}")


def test_criterion_04_cauchy_identity():
    check = verification.check_cauchy_identity(trials=1000, tol=1e-10)
    assert check.passed, check.detail
    print(f"PASS criterion 4 (gradient-balance gap identity): {check.detail}")


def test_criterion_05_balanced_risk_oracle():
    started = time.perf_counter()
    check = verification.check_balanced_risk(problems=50)
    elapsed = time.perf_counter() - started
    assert check.passed, check.detail
    assert elapsed < 120.0
    print(f"PASS criterion 5 (balanced-risk equivalence): {check.detail} in {elapsed:.1f}s")


def test_criterion_06_curvature_and_toy_bound():
    estimator = verification.check_hessian_estimator(problems=20, tol=1e-3)
    assert estimator.passed, estimator.detail
    toy = verification.check_toy_bound(problems=10)
    assert toy.passed is True, toy.detail  # a bool, not a numpy one
    print(f"PASS criterion 6 (curvature estimator + analytic bound): {estimator.detail}; {toy.detail}")


def test_criterion_07_destruction_direction(benchmark_runs):
    runs, elapsed = benchmark_runs
    fmax_ok = conv_ok = 0
    for seed in SEEDS:
        bdr = runs[("bdr", seed)].report
        ce = runs[("ce", seed)].report
        fmax_ok += all(b <= c for b, c in zip(_per_phase(bdr, "f_max"), _per_phase(ce, "f_max")))
        conv_ok += all(
            b <= c for b, c in zip(_per_phase(bdr, "converged"), _per_phase(ce, "converged"))
        )
    assert fmax_ok >= 4, f"peak destruction lower in only {fmax_ok}/5 seeds"
    assert conv_ok >= 4, f"converged old loss lower in only {conv_ok}/5 seeds"
    assert elapsed < 600.0
    print(
        f"PASS criterion 7 (destruction direction): peak lower {fmax_ok}/5, "
        f"converged lower {conv_ok}/5, benchmark took {elapsed:.0f}s"
    )


def test_criterion_08_accuracy_direction(benchmark_runs):
    runs, _ = benchmark_runs
    avg = {v: np.mean([runs[(v, s)].report["avg"] for s in SEEDS]) for v in ("ce", "cr", "bdr")}
    overcorrected = 0
    for seed in SEEDS:
        cr = runs[("cr", seed)].report["phases"][-1]["accuracy"]
        ce = runs[("ce", seed)].report["phases"][-1]["accuracy"]
        if cr["new_group"] < ce["new_group"] and cr["old_group"] > ce["old_group"]:
            overcorrected += 1
    assert avg["bdr"] - avg["ce"] >= 2.0, f"gap {avg['bdr'] - avg['ce']:.2f} below 2 points"
    assert avg["bdr"] >= avg["cr"], f"balanced {avg['bdr']:.2f} below constant-rebalancing {avg['cr']:.2f}"
    assert overcorrected >= 3, f"over-correction pattern in only {overcorrected}/5 seeds"
    print(
        f"PASS criterion 8 (accuracy direction): avg ce={avg['ce']:.2f} cr={avg['cr']:.2f} "
        f"bdr={avg['bdr']:.2f}, over-correction {overcorrected}/5"
    )


def test_criterion_09_small_memory_amplification():
    gaps = {}
    for budget in (2, 5, 20):
        cfg = replace(BENCHMARK, memory_budget=budget)
        diffs = [
            _run(cfg, "bdr", s).report["avg"] - _run(cfg, "ce", s).report["avg"] for s in SEEDS
        ]
        gaps[budget] = float(np.mean(diffs))
    assert gaps[2] > gaps[5] and gaps[2] > gaps[20], f"gap not largest at 2 exemplars: {gaps}"
    print(
        "PASS criterion 9 (small-memory amplification): gaps "
        + ", ".join(f"R={r}: {g:+.2f}" for r, g in gaps.items())
    )


def test_criterion_10_initialization_pattern(benchmark_runs):
    runs, _ = benchmark_runs
    worst = 0.0
    for seed in SEEDS:
        for variant in ("ce", "bdr"):
            for trace in runs[(variant, seed)].traces[1:]:
                first = trace.rows[0]
                worst = max(worst, first.loss_old / first.loss_new)
    assert worst < 0.2, f"initial old/new loss ratio {worst:.3f} is not small"
    print(f"PASS criterion 10 (initialization pattern): max initial ratio {worst:.2e} < 0.2")


def test_criterion_11_determinism(tmp_path):
    config_text = """
[dataset]
classes = 4
per_class = 36
dim = 4

[protocol]
initial_classes = 2
increment = 2

[memory]
budget = 3

[train]
epochs = 3
batch_size = 12
hidden = 12, 12

[balance]
tau = 2.0

[run]
variants = ce, bdr
seeds = 0
"""
    config_path = tmp_path / "exp.cfg"
    config_path.write_text(config_text)
    digests = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        assert main(["run", str(config_path), "--out", str(out)]) == 0
        digests.append(
            tuple(json.loads((out / name).read_text())["body_sha256"] for name in ("ce_0.json", "bdr_0.json"))
        )
    assert digests[0] == digests[1]
    print(f"PASS criterion 11 (determinism): body hashes identical across executions")
