"""bdrlab benchmark: paired class-incremental runs timed end to end.

    python3 perfbench/run.py --workload paired --seed 0 --seconds 45 --trace 0

Each workload is a config in ``perfbench/workloads`` plus a cycle of seed
windows: window ``w`` runs the config's seed list shifted by ``w`` times its
length. A run launches fresh ``bdrlab run`` processes (``child.py``) back to
back, closed loop, one at a time; process ``i`` of a run with seed ``n``
runs window ``(n + i) mod W``. A run always completes whole cycles, so
every seed does the same work in a different order. The first cycle and the
set-up probes always run, even when they take longer than ``--seconds``;
another cycle starts only while it fits in ``--seconds``. (The cost of one
seed varies up to threefold with how fast the curvature estimate converges,
so runs over different seed subsets would differ by more than any bound
could allow.) Every window has
a recorded reference output.

With ``--trace 0`` the end-to-end metrics are measured with tracing off.
With ``--trace 1`` one window is run three times: untraced, traced (spans
around every layer entry point, see ``tracing.py``) and untraced with
``--jobs 2``; the per-layer metrics come from these, and the traced run's
body hashes must equal the untraced run's.

Children run with the user's default BLAS threading: OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS are removed from their environment.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
from checks import RunOutput, directional_claims, load_reference  # noqa: E402
from tracing import SPAN_NAMES, summarize  # noqa: E402

# workload -> seed windows per cycle; one cycle takes 23-33 s on a 2-core box
WORKLOADS = {"paired": 3, "long_stream": 4, "wide": 3}
SETUP_PROBES = 4  # set-up-only processes per run, besides the workload processes
DEADLINE_S = 170.0  # a run must end within 180 s, whatever --seconds says
WARNING_TEXT = "RuntimeWarning: power iteration did not converge"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "steps_per_s": "1/s",
    "run_s.p50": "s",
    "peak_rss_mb": "MB",
}

TIMED_LAYERS = (
    "tensor.backward",
    "training.train_phase",
    "training.forward",
    "training.sgd_step",
    "training.predict",
    "training.grad_split",
    "training.curvature",
    "diagnostics.hessian_top_eigen",
    "balance.momentum_update",
    "balance.bdr_loss",
    "memory.update",
    "memory.herding_select",
    "data.split_phases",
    "data.make_gaussian_mixture",
    "config.load_config",
)

PER_LAYER_UNITS = {
    **{f"{name}.s": "s" for name in TIMED_LAYERS},
    "tensor.backward.calls_per_step": "calls/step",
    "training.forward.calls_per_step": "calls/step",
    "training.step_ms": "ms",
    "training.phase0.share": "ratio",
    "diagnostics.grad_evals": "count",
    "diagnostics.nonconverged": "count",
    "diagnostics.negative_sigma": "count",
    "reporting.write.s": "s",
    "reporting.bytes": "B",
    "cli.run_inflation": "ratio",
    "cli.worker_busy_share": "ratio",
    **{f"{name}.self_s": "s" for name in SPAN_NAMES},
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}


class Workload:
    """A config from ``perfbench/workloads`` whose seed list is shifted per window."""

    def __init__(self, name, windows, path=None):
        self.name = name
        self.windows = windows
        self.path = path or os.path.join(HERE, "workloads", f"{name}.cfg")
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(self.path, encoding="utf-8")
        self.variants = [v.strip() for v in parser["run"]["variants"].split(",")]
        self.seed_count = len(parser["run"]["seeds"].split(","))

    def seeds(self, window):
        first = (window % self.windows) * self.seed_count
        return list(range(first, first + self.seed_count))

    def config_text(self, window):
        parser = configparser.ConfigParser(interpolation=None)
        parser.read(self.path, encoding="utf-8")
        parser["run"]["seeds"] = ", ".join(str(s) for s in self.seeds(window))
        text = io.StringIO()
        parser.write(text)
        return text.getvalue()


class Child:
    """One finished workload (or set-up probe) process and its outputs."""

    def __init__(self, wall, cpu, setup, exit_code, maxrss_mb, warnings, facts, out_dir):
        self.wall = wall
        self.cpu = cpu
        self.setup = setup
        self.exit_code = exit_code
        self.maxrss_mb = maxrss_mb
        self.warnings = warnings
        self.facts = facts
        self.out_dir = out_dir
        self.outputs = []
        self.problems = []


def child_environment():
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # every power-iteration warning is printed, so they can be counted
    env["PYTHONWARNINGS"] = "always::RuntimeWarning"
    return env


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(args, work_dir, deadline):
    """Run ``child.py`` with ``args``; returns a ``Child`` timed from spawn to exit."""
    os.makedirs(work_dir, exist_ok=True)
    facts_path = os.path.join(work_dir, "facts.json")
    with open(os.path.join(work_dir, "stderr.txt"), "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, CHILD, *args, facts_path],
            cwd=ROOT,
            env=child_environment(),
            stdout=subprocess.DEVNULL,
            stderr=err,
            start_new_session=True,  # its own process group, so pool workers die with it
        )
        watchdog = threading.Timer(max(1.0, deadline - started), _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            os.wait4(proc.pid, 0)
            raise
        finally:
            watchdog.cancel()
        ended = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        with open(facts_path, encoding="utf-8") as fh:
            facts = json.load(fh)
    except (OSError, ValueError):
        facts = None
    with open(os.path.join(work_dir, "stderr.txt"), encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Child(
        wall=ended - started,
        cpu=usage.ru_utime + usage.ru_stime,
        # perf_counter is CLOCK_MONOTONIC on Linux, shared by all processes
        setup=facts["setup_at"] - started if facts else None,
        exit_code=proc.returncode,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # Linux reports kilobytes
        warnings=stderr.count(WARNING_TEXT),
        facts=facts,
        out_dir=os.path.join(work_dir, "out"),
    )


def run_workload(workload, window, work_dir, deadline, jobs=1, trace_path=None):
    """One workload process over one seed window, with its outputs checked."""
    os.makedirs(work_dir, exist_ok=True)
    config_path = os.path.join(work_dir, "workload.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(workload.config_text(window))
    args = ["run", config_path, os.path.join(work_dir, "out"), str(jobs)]
    if trace_path:
        args.append(trace_path)
    child = spawn(args, work_dir, deadline)
    if child.exit_code != 0 or child.facts is None:
        child.problems.append(f"workload process exited with {child.exit_code}")
    for variant in workload.variants:
        for seed in workload.seeds(window):
            child.outputs.append(RunOutput(child.out_dir, variant, seed))
    return child


def probe_setup(workload, work_dir, deadline):
    config_path = os.path.join(work_dir, "workload.cfg")
    os.makedirs(work_dir, exist_ok=True)
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(workload.config_text(0))
    child = spawn(["setup", config_path], work_dir, deadline)
    if child.setup is None:
        raise RuntimeError(f"set-up probe failed with exit code {child.exit_code}")
    return child.setup


class Verdict:
    """Accumulates the output checks of every run made in one benchmark run."""

    def __init__(self, workload):
        self.workload = workload
        self.environment = None
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.body_hash_match = 0
        self.problems = []

    def add(self, child, window, claims=False):
        facts_env = child.facts["environment"] if child.facts else None
        if self.environment is None and facts_env is not None:
            self.environment = facts_env
            self.reference = load_reference(facts_env)
        if facts_env is not None and facts_env != self.environment:
            child.problems.append("numeric environment changed between processes")
        expected = (self.reference or {}).get(self.workload.name, {})
        for output in child.outputs:
            if self.reference is not None:
                self.body_hash_match += output.compare(expected.get(output.run))
            self.problems.extend(output.problems)
        if claims:
            bodies = {(o.variant, o.seed): o.body for o in child.outputs}
            if all(body is not None for body in bodies.values()):
                child.problems.extend(directional_claims(bodies, self.workload.seeds(window)))
        self.problems.extend(child.problems)
        self.attempted += len(child.outputs)
        if child.problems:
            self.failed += len(child.outputs)
        else:
            self.failed += sum(1 for o in child.outputs if o.problems)

    def require_same_hashes(self, left, right, label):
        """The same runs from two processes must have byte-identical bodies."""
        for a, b in zip(left.outputs, right.outputs):
            if a.body_sha256 != b.body_sha256:
                self.problems.append(f"{a.run}: body hash differs {label}")
                self.failed += 1


def tail(samples):
    """(percentile, value): the highest percentile with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return 100, ordered[-1]
    index = n - 11
    return (100 * (index + 1)) // n, ordered[index]


def measure(workload, seed, seconds, work_root, deadline):
    """Tracing off: set-up probes, then workload processes until time is up."""
    started = time.perf_counter()
    verdict = Verdict(workload)
    setups = [probe_setup(workload, os.path.join(work_root, f"probe{i}"), deadline) for i in range(SETUP_PROBES)]
    children = []
    while True:
        cycle_started = time.perf_counter()
        for _ in range(workload.windows):
            window = seed + len(children)
            work_dir = os.path.join(work_root, f"w{len(children)}")
            child = run_workload(workload, window, work_dir, deadline)
            verdict.add(child, window, claims=workload.name == "paired" and window % workload.windows == 0)
            children.append(child)
            shutil.rmtree(child.out_dir, ignore_errors=True)
        now = time.perf_counter()
        cycle = now - cycle_started
        if now + cycle > min(started + seconds, deadline):
            break
    ok = [c for c in children if c.setup is not None]
    setups += [c.setup for c in ok]
    latencies = [o.wall_time_s for c in children for o in c.outputs if o.wall_time_s is not None]
    percentile, tail_value = tail(latencies) if latencies else (100, float("nan"))
    # means over whole cycles: the windows of a cycle differ in cost, and a
    # mean weighs each of them once whatever the seed
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(c.wall for c in children),
        "steps_per_s": sum(o.steps for c in ok for o in c.outputs) / sum(c.wall - c.setup for c in ok)
        if ok
        else float("nan"),
        "run_s.p50": statistics.median(latencies) if latencies else float("nan"),
        "peak_rss_mb": max(c.maxrss_mb for c in children),
    }
    notes = {
        "run_s.tail": f"{tail_value:.6g} s (p{percentile} of {len(latencies)} runs)",
        "failed_share": f"{verdict.failed / max(1, verdict.attempted):.6g} ratio ({verdict.failed}/{verdict.attempted})",
        "body_hash_match": f"{verdict.body_hash_match}/{verdict.attempted} count",
        "power_iteration_warnings": f"{sum(c.warnings for c in children)} count",
        "negative_sigma": f"{sum(o.negative_sigma for c in children for o in c.outputs)} count",
        "processes": f"{len(children)} workload + {SETUP_PROBES} set-up-only",
    }
    return verdict, metrics, notes, END_TO_END_UNITS


def trace_run(workload, seed, work_root, deadline):
    """Tracing on: per-layer metrics from one traced window and its untraced twins."""
    verdict = Verdict(workload)
    window = seed % workload.windows
    claims = workload.name == "paired" and window == 0
    plain = run_workload(workload, window, os.path.join(work_root, "plain"), deadline)
    verdict.add(plain, window, claims)
    trace_path = os.path.join(work_root, "spans.json")
    traced = run_workload(workload, window, os.path.join(work_root, "traced"), deadline, trace_path=trace_path)
    verdict.add(traced, window, claims)
    pooled = run_workload(workload, window, os.path.join(work_root, "jobs2"), deadline, jobs=2)
    verdict.add(pooled, window, claims)
    verdict.require_same_hashes(plain, traced, "with and without tracing")
    verdict.require_same_hashes(plain, pooled, "between --jobs 1 and --jobs 2")
    if verdict.failed:
        return verdict, {}, {}, PER_LAYER_UNITS
    with open(trace_path, encoding="utf-8") as fh:
        document = json.load(fh)

    totals, top_level, phase0 = summarize(document)
    steps = sum(o.steps for o in traced.outputs)
    train = totals["training.train_phase"]["s"]
    metrics = {f"{name}.s": totals[name]["s"] for name in TIMED_LAYERS}
    metrics.update({f"{name}.self_s": totals[name]["self_s"] for name in SPAN_NAMES})
    pooled_latency = statistics.median(o.wall_time_s for o in pooled.outputs if o.wall_time_s is not None)
    plain_latency = statistics.median(o.wall_time_s for o in plain.outputs if o.wall_time_s is not None)
    busy = sum(o.wall_time_s for o in pooled.outputs if o.wall_time_s is not None)
    metrics.update(
        {
            "tensor.backward.calls_per_step": totals["tensor.backward"]["calls_in_train"] / steps,
            "training.forward.calls_per_step": totals["training.forward"]["calls_in_train"] / steps,
            "training.step_ms": 1000.0 * train / steps,
            "training.phase0.share": phase0 / train,
            "diagnostics.grad_evals": document["grad_evals"],
            "diagnostics.nonconverged": plain.warnings,
            "diagnostics.negative_sigma": sum(o.negative_sigma for o in plain.outputs),
            "reporting.write.s": sum(v["s"] for k, v in totals.items() if k.startswith("reporting.")),
            "reporting.bytes": document["bytes_written"],
            "cli.run_inflation": pooled_latency / plain_latency,
            "cli.worker_busy_share": busy / (2 * (pooled.wall - pooled.setup)),
            "trace.unattributed_s": (traced.wall - traced.setup) - top_level,
            # CPU time, not wall time, so waits on other processes drop out;
            # machine drift between the two processes still enters it
            "trace.overhead_s": traced.cpu - plain.cpu,
        }
    )
    notes = {
        "wall_s": f"{plain.wall:.6g} s untraced, {traced.wall:.6g} s traced, {pooled.wall:.6g} s with --jobs 2",
        "steps": f"{steps} count",
        "trace.overhead_s": f"one traced/untraced pair: {traced.cpu - plain.cpu:+.6g} s CPU, "
        f"{traced.wall - plain.wall:+.6g} s wall; machine drift, not only the tracer",
        "failed_share": f"{verdict.failed / max(1, verdict.attempted):.6g} ratio ({verdict.failed}/{verdict.attempted})",
        "body_hash_match": f"{verdict.body_hash_match}/{verdict.attempted} count",
    }
    return verdict, metrics, notes, PER_LAYER_UNITS


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "bdrlab", "cli.py")):
        print(f"no bdrlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    workload = Workload(args.workload, WORKLOADS[args.workload])
    work_root = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    deadline = started + DEADLINE_S
    try:
        if args.trace:
            verdict, metrics, notes, units = trace_run(workload, args.seed, work_root, deadline)
        else:
            verdict, metrics, notes, units = measure(workload, args.seed, args.seconds, work_root, deadline)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    report(workload, args, verdict, metrics, notes, units)
    return 0


def report(workload, args, verdict, metrics, notes, units):
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print(f"environment {json.dumps(verdict.environment, sort_keys=True)}")
    if verdict.reference is None:
        print("reference: none recorded for this environment; behavioural fields not compared")
    for name in units:
        print(f"  {name:40s} {metrics.get(name, float('nan')):14.6g} {units[name]}")
    for name, value in notes.items():
        print(f"  {name:40s} {value}")
    for problem in verdict.problems[:20]:
        print(f"  FAILED {problem}")
    measured = {name: metrics[name] for name in units if math.isfinite(metrics.get(name, math.nan))}
    result = {
        "correct": verdict.failed == 0 and not verdict.problems and len(measured) == len(units),
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in measured.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
