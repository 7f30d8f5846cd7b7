"""Command-line harness: run experiments, sweep a hyper-parameter, or verify.

``run`` executes every configured (variant, seed) pair, writes one hashed
JSON report plus CSV traces per run, and prints a tab-separated summary
line per run. ``sweep`` repeats that across values of one parameter and
aggregates a CSV. ``verify`` runs the oracle battery and exits non-zero on
any failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from .config import ConfigError, ExperimentConfig, load_config, validate
from .data import load_idx, make_gaussian_mixture, make_rings, split_phases
from .reporting import (
    atomic_write_text,
    write_balance_csv,
    write_boxplot_csv,
    write_report,
    write_step_csv,
)
from .training import DivergenceError, run_experiment

# sweep name -> config attribute (protocol letters follow the benchmark notation)
SWEEP_PARAMS = {
    "m": ("m", float),
    "m_prime": ("m_prime", float),
    "beta": ("beta", float),
    "tau": ("tau", float),
    "R": ("memory_budget", int),
    "S": ("increment", int),
    "B": ("initial_classes", int),
    "lambda": ("distill_weight", float),
}


def build_stream(cfg: ExperimentConfig, seed):
    if cfg.dataset_kind == "gaussian":
        data = make_gaussian_mixture(cfg.classes, cfg.per_class, cfg.dim, cfg.separation, seed=seed)
    elif cfg.dataset_kind == "rings":
        data = make_rings(cfg.classes, cfg.per_class, cfg.ring_noise, seed=seed)
    else:
        data = load_idx(cfg.idx_images, cfg.idx_labels)
    return split_phases(data, cfg.initial_classes, cfg.increment, seed=seed)


def run_single(cfg: ExperimentConfig, variant, seed, out_dir):
    """One experiment: train, write report + traces, return the summary."""
    started = time.perf_counter()
    stream = build_stream(cfg, seed)
    result = run_experiment(stream, cfg.train_config(variant, seed))
    stem = f"{variant}_{seed}"
    records = [row for trace in result.traces for row in trace.rows]
    balance_rows = [row for trace in result.traces for row in trace.balance_rows]
    write_step_csv(os.path.join(out_dir, f"{stem}_steps.csv"), records)
    trace_files = {"steps": f"{stem}_steps.csv"}
    if balance_rows:
        write_balance_csv(os.path.join(out_dir, f"{stem}_balance.csv"), balance_rows)
        trace_files["balance"] = f"{stem}_balance.csv"
    boxes = [
        (entry["phase"], entry["destruction"]["box"])
        for entry in result.report["phases"]
        if entry["destruction"] is not None
    ]
    if boxes:
        write_boxplot_csv(os.path.join(out_dir, f"{stem}_boxplot.csv"), boxes)
        trace_files["boxplot"] = f"{stem}_boxplot.csv"
    body = dict(result.report)
    body["config"] = cfg.as_dict()
    body["traces"] = trace_files
    wall = time.perf_counter() - started
    digest = write_report(os.path.join(out_dir, f"{stem}.json"), body, wall)
    f_max_per_phase = [
        entry["destruction"]["f_max"]
        for entry in result.report["phases"]
        if entry["destruction"] is not None
    ]
    return {
        "variant": variant,
        "seed": seed,
        "avg": result.report["avg"],
        "last": result.report["last"],
        "f_max": f_max_per_phase,
        "body_sha256": digest,
    }


def _summary_line(summary):
    fmax = ",".join(f"{v:.6g}" for v in summary["f_max"])
    return (
        f"{summary['variant']}\t{summary['seed']}\t{summary['avg']:.4f}\t"
        f"{summary['last']:.4f}\t{fmax}"
    )


def _execute(cfg: ExperimentConfig, out_dir, jobs):
    specs = [(variant, seed) for variant in cfg.variants for seed in cfg.seeds]
    os.makedirs(out_dir, exist_ok=True)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(run_single, cfg, v, s, out_dir) for v, s in specs]
            return [f.result() for f in futures]
    return [run_single(cfg, v, s, out_dir) for v, s in specs]


def _cmd_run(args):
    cfg = load_config(args.config)
    out_dir = args.out or cfg.out
    for summary in _execute(cfg, out_dir, args.jobs):
        print(_summary_line(summary))
    return 0


def _cmd_verify(args):
    from .verification import run_all

    failures = 0
    for check in run_all():
        status = "PASS" if check.passed else "FAIL"
        print(f"{status}\t{check.name}\t{check.detail}")
        failures += 0 if check.passed else 1
    return 0 if failures == 0 else 1


def _parse_values(text, cast):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ConfigError("sweep needs at least one value")
    return [cast(p) for p in parts]


def _cmd_sweep(args):
    cfg = load_config(args.config)
    if args.param not in SWEEP_PARAMS:
        raise ConfigError(
            f"unknown sweep parameter {args.param!r}; valid names: {', '.join(sorted(SWEEP_PARAMS))}"
        )
    attr, cast = SWEEP_PARAMS[args.param]
    values = _parse_values(args.values, cast)
    out_root = args.out or cfg.out
    swept_configs = []
    for value in values:  # every value is checked before the first run starts
        try:
            swept_configs.append((value, validate(replace(cfg, **{attr: value}))))
        except ConfigError as exc:
            raise ConfigError(f"sweep value {args.param}={value}: {exc}") from exc
    rows = []
    for value, swept in swept_configs:
        sub_dir = os.path.join(out_root, f"{args.param}={value}")
        for summary in _execute(swept, sub_dir, args.jobs):
            peak = max(summary["f_max"]) if summary["f_max"] else 0.0
            rows.append(
                (args.param, value, summary["variant"], summary["seed"], summary["avg"], summary["last"], peak)
            )
            print(f"{args.param}={value}\t" + _summary_line(summary))
    lines = ["param,value,variant,seed,avg,last,f_max"]
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    csv_path = os.path.join(out_root, f"sweep_{args.param}.csv")
    atomic_write_text(csv_path, "\n".join(lines) + "\n")
    print(f"wrote {csv_path}")
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(prog="bdrlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run every configured (variant, seed) pair")
    p_run.add_argument("config", help="path to an experiment config file")
    p_run.add_argument("--out", default=None, help="output directory (overrides the config)")
    p_run.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="run the oracle and property battery")
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="cross-product runs over one parameter")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True, help=f"one of: {', '.join(sorted(SWEEP_PARAMS))}")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
