"""Command-line harness: run experiments, sweep a hyper-parameter, or verify.

``run`` executes every configured (variant, seed) pair, writes one hashed
JSON report plus CSV traces per run, and prints a tab-separated summary
line per run. Phase 0 trains with plain cross-entropy whatever the variant,
so the stream, phase 0 and the phase-1 curvature are computed once per seed
and shared by its variants; the first variant's ``wall_time_s`` includes
them. ``--jobs`` runs seeds in parallel, at most one worker per seed.
``sweep`` repeats that across values of one parameter and aggregates a
CSV. ``verify`` runs the oracle battery and exits non-zero on any failure.

A pair whose training diverges or degenerates ends the run at its seed:
the summaries of the pairs that finished are printed first, then one error
line naming the failed pair, and the exit code is 1. With ``--jobs`` > 1
no seed starts once a failure is known, and stderr names each report that
a later seed, already running, wrote.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import replace

from .config import ConfigError, ExperimentConfig, check_class_count, load_config, parse_value
from .data import IdxFormatError, load_idx, make_gaussian_mixture, make_rings, split_phases
from .reporting import write_balance_csv, write_boxplot_csv, write_report, write_step_csv, write_sweep_csv
from .training import DegenerateTrainingError, DivergenceError, first_phase, run_experiment

# sweep name -> config attribute (protocol letters follow the benchmark notation)
SWEEP_PARAMS = {
    "m": "m",
    "m_prime": "m_prime",
    "beta": "beta",
    "tau": "tau",
    "R": "memory_budget",
    "S": "increment",
    "B": "initial_classes",
    "lambda": "distill_weight",
}


def build_stream(cfg: ExperimentConfig, seed):
    if cfg.dataset_kind == "gaussian":
        data = make_gaussian_mixture(cfg.classes, cfg.per_class, cfg.dim, cfg.separation, seed=seed)
    elif cfg.dataset_kind == "rings":
        data = make_rings(cfg.classes, cfg.per_class, cfg.ring_noise, seed=seed)
    else:
        data = load_idx(cfg.idx_images, cfg.idx_labels)
        check_class_count(cfg, data.class_count)  # known only now that the file is read
    return split_phases(data, cfg.initial_classes, cfg.increment, seed=seed)


def run_single(cfg: ExperimentConfig, variant, seed, out_dir, seed_start):
    """One experiment: train, write report + traces, return the summary,
    which names the report's path.

    ``seed_start`` is a dict shared by the runs of one seed. The first run
    fills it with the first phase, stream included, so their cost is part
    of that run's wall time; the others continue from it.
    """
    started = time.perf_counter()
    if not seed_start:
        seed_start["start"] = first_phase(build_stream(cfg, seed), replace(cfg, seed=seed))
    result = run_experiment(seed_start["start"], variant)
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
    body["config"] = cfg.as_trained(variant)
    body["traces"] = trace_files
    path = os.path.join(out_dir, f"{stem}.json")
    write_report(path, body, time.perf_counter() - started)
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
        "path": path,
    }


def _summary_line(summary):
    fmax = ",".join(f"{v:.6g}" for v in summary["f_max"])
    return (
        f"{summary['variant']}\t{summary['seed']}\t{summary['avg']:.4f}\t"
        f"{summary['last']:.4f}\t{fmax}"
    )


def _run_seed(cfg: ExperimentConfig, seed, out_dir):
    """Every variant of one seed, from one shared first phase, until one ends
    in a typed training failure. Returns the finished summaries and that
    failure (or None), tagged with its ``pair``."""
    seed_start = {}
    summaries = []
    for variant in cfg.variants:
        try:
            summaries.append(run_single(cfg, variant, seed, out_dir, seed_start))
        except (DivergenceError, DegenerateTrainingError) as exc:
            exc.pair = (variant, seed)
            return summaries, exc
    return summaries, None


def _pooled(cfg: ExperimentConfig, out_dir, jobs):
    """Each started seed's ``_run_seed`` result, in seed order, from up to
    ``jobs`` worker processes, no more than there are seeds: a fork pool
    starts all its workers at the first submit. A seed goes to the pool only
    when a worker is free and no seed has failed yet, so none starts after a
    known failure; a pool holding queued seeds could not cancel them,
    because it hands them to its workers' queue ahead of time."""
    workers = min(jobs, len(cfg.seeds))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures, running = [], set()
        for seed in cfg.seeds:
            if len(running) == workers:
                done, running = wait(running, return_when=FIRST_COMPLETED)
                if any(f.result()[1] is not None for f in done):
                    break
            futures.append(pool.submit(_run_seed, cfg, seed, out_dir))
            running.add(futures[-1])
        return [f.result() for f in futures]


def _execute(cfg: ExperimentConfig, out_dir, jobs):
    """Run every (variant, seed) pair, one task per seed, up to the first seed
    with a failed pair. Returns the finished pairs' summaries in (variant,
    seed) order and that failure (or None).

    With ``jobs`` > 1 a later seed may already be running at the failure; it
    runs to its end, and stderr names each report it writes, so that no
    report on disk goes unnamed. The first write creates ``out_dir``, so a
    run that fails before it leaves no directory behind.
    """
    if jobs > 1:
        results = _pooled(cfg, out_dir, jobs)
    else:
        results = (_run_seed(cfg, seed, out_dir) for seed in cfg.seeds)  # lazy: none runs after a failure
    per_seed, failure = [], None
    for runs, failure in results:
        per_seed.append(runs)
        if failure is not None:
            break
    if jobs > 1:
        for runs, _ in results[len(per_seed) :]:
            for late in runs:
                print(f"not summarised, its seed follows the failed one: {late['path']}", file=sys.stderr)
    summaries = [runs[i] for i in range(len(cfg.variants)) for runs in per_seed if i < len(runs)]
    return summaries, failure


def _cmd_run(args):
    cfg = load_config(args.config)
    out_dir = args.out or cfg.out
    summaries, failure = _execute(cfg, out_dir, args.jobs)
    for summary in summaries:
        print(_summary_line(summary))
    if failure is not None:
        raise failure
    return 0


def _cmd_verify(args):
    from .verification import run_all

    failures = 0
    for check in run_all():
        status = "PASS" if check.passed else "FAIL"
        print(f"{status}\t{check.name}\t{check.detail}")
        failures += 0 if check.passed else 1
    return 0 if failures == 0 else 1


def _cmd_sweep(args):
    cfg = load_config(args.config)
    if args.param not in SWEEP_PARAMS:
        raise ConfigError(
            f"unknown sweep parameter {args.param!r}; valid names: {', '.join(sorted(SWEEP_PARAMS))}"
        )
    attr = SWEEP_PARAMS[args.param]
    texts = [p.strip() for p in args.values.split(",") if p.strip()]
    if not texts:
        raise ConfigError("sweep needs at least one value")
    out_root = args.out or cfg.out
    classes = load_idx(cfg.idx_images, cfg.idx_labels).class_count if cfg.dataset_kind == "idx" else cfg.classes
    swept_configs = []
    for text in texts:  # every value is checked before the first run starts
        try:
            value = parse_value(attr, text)
            swept = replace(cfg, **{attr: value})
            check_class_count(swept, classes)
            for earlier, earlier_cfg in swept_configs:
                if value == earlier:
                    raise ConfigError(f"{value} listed more than once")
                if all(swept.as_trained(v) == earlier_cfg.as_trained(v) for v in cfg.variants):
                    raise ConfigError(f"trains the same protocol as {args.param}={earlier}")
            swept_configs.append((value, swept))
        except ConfigError as exc:
            raise ConfigError(f"sweep value {args.param}={text}: {exc}") from exc
    rows = []
    for value, swept in swept_configs:
        sub_dir = os.path.join(out_root, f"{args.param}={value}")
        summaries, failure = _execute(swept, sub_dir, args.jobs)
        for summary in summaries:
            peak = max(summary["f_max"]) if summary["f_max"] else ""  # no incremental phase, no peak
            rows.append(
                (args.param, value, summary["variant"], summary["seed"], summary["avg"], summary["last"], peak)
            )
            print(f"{args.param}={value}\t" + _summary_line(summary))
        if failure is not None:
            raise failure
    csv_path = os.path.join(out_root, f"sweep_{args.param}.csv")
    write_sweep_csv(csv_path, rows)
    print(f"wrote {csv_path}")
    return 0


def positive_int(text):
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def _build_parser():
    parser = argparse.ArgumentParser(prog="bdrlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run every configured (variant, seed) pair")
    p_run.add_argument("config", help="path to an experiment config file")
    p_run.add_argument("--out", default=None, help="output directory (overrides the config)")
    p_run.add_argument("--jobs", type=positive_int, default=1, help="parallel worker processes, at most one per seed")
    p_run.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="run the oracle and property battery")
    p_verify.set_defaults(func=_cmd_verify)

    p_sweep = sub.add_parser("sweep", help="cross-product runs over one parameter")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True, help=f"one of: {', '.join(sorted(SWEEP_PARAMS))}")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--jobs", type=positive_int, default=1)
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def _pair_note(exc):
    pair = getattr(exc, "pair", None)
    return "" if pair is None else f" (variant {pair[0]}, seed {pair[1]})"


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IdxFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"training diverged: {exc}{_pair_note(exc)}", file=sys.stderr)
        return 1
    except DegenerateTrainingError as exc:
        print(f"training degenerated: {exc}{_pair_note(exc)}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
