"""Span recorder that wraps bdrlab's layer entry points from the outside.

Each wrapper is installed where the caller looks the name up (for example
``training.hessian_top_eigen`` rather than ``diagnostics.hessian_top_eigen``,
because ``training`` imported the name), so the package's source is left
untouched. Spans are kept in memory as (name, start, end, parent, run, tag)
tuples and written out once, when the traced process ends.
"""

from __future__ import annotations

import functools
import json
import os
import time

# (module attribute path, span name). Attribute paths are looked up inside
# the ``bdrlab`` package; a class attribute wraps the method for every
# instance.
PATCHES = (
    ("cli.load_config", "config.load_config"),
    ("cli.make_gaussian_mixture", "data.make_gaussian_mixture"),
    ("cli.split_phases", "data.split_phases"),
    ("training.concat_sets", "data.concat_sets"),
    ("tensor.Tensor.backward", "tensor.backward"),
    ("cli.run_experiment", "training.run_experiment"),
    ("training.train_phase", "training.train_phase"),
    ("training.Classifier.forward", "training.forward"),
    ("training.SGD.step", "training.sgd_step"),
    ("training._contribution_sums", "training.grad_split"),
    ("training._old_phase_curvature", "training.curvature"),
    ("training.Classifier.predict", "training.predict"),
    ("training.hessian_top_eigen", "diagnostics.hessian_top_eigen"),
    ("training.destruction_report", "diagnostics.destruction_report"),
    ("training.bound_report", "diagnostics.bound_report"),
    ("balance.momentum_update", "balance.momentum_update"),
    ("balance.bdr_loss", "balance.bdr_loss"),
    ("balance.stats_from_pass", "balance.stats_from_pass"),
    ("training.ExemplarMemory.update", "memory.update"),
    ("memory.herding_select", "memory.herding_select"),
    ("training.merged_training_set", "memory.merged_training_set"),
    ("cli.write_report", "reporting.write_report"),
    ("cli.write_step_csv", "reporting.write_step_csv"),
    ("cli.write_balance_csv", "reporting.write_balance_csv"),
    ("cli.write_boxplot_csv", "reporting.write_boxplot_csv"),
    ("cli.build_stream", "cli.build_stream"),
    ("cli.run_single", "cli.run_single"),
)

SPAN_NAMES = tuple(name for _, name in PATCHES)


class Tracer:
    """In-memory span store for one single-threaded process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, run, tag]
        self._stack = []
        self.run = None
        self.grad_evals = 0
        self.bytes_written = 0

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, clock(), None, stack[-1] if stack else None, self.run, None]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            try:
                return self._call(name, fn, record, args, kwargs)
            finally:
                stack.pop()
                record[2] = clock()

        return traced

    def _call(self, name, fn, record, args, kwargs):
        if name == "cli.run_single":
            # run_single(cfg, variant, seed, out_dir): every span below it
            # belongs to this (variant, seed) run
            self.run = f"{args[1]}_{args[2]}"
            record[4] = self.run
            try:
                return fn(*args, **kwargs)
            finally:
                self.run = None
        if name == "training.train_phase":
            record[5] = int(args[3])  # phase index
        if name == "diagnostics.hessian_top_eigen":
            grad_fn = args[0]

            def counted(vec):
                self.grad_evals += 1
                return grad_fn(vec)

            return fn(counted, *args[1:], **kwargs)
        result = fn(*args, **kwargs)
        if name.startswith("reporting.write_"):
            self.bytes_written += os.path.getsize(args[0])
        return result

    def install(self, package):
        """Replace every patched attribute of ``package`` by a traced wrapper."""
        for path, name in PATCHES:
            *owner_path, attr = path.split(".")
            owner = package
            for part in owner_path:
                owner = getattr(owner, part)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def dump(self, path):
        document = {
            "grad_evals": self.grad_evals,
            "bytes_written": self.bytes_written,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)


def summarize(document):
    """Per-span-name totals, self times and call counts from a dumped trace.

    Self time is a span's duration minus the durations of its direct
    children. ``in_train`` counts calls made while a ``training.train_phase``
    span was open, which is what the per-step ratios use.
    """
    spans = document["spans"]
    child_time = [0.0] * len(spans)
    in_train = [False] * len(spans)
    for i, (name, start, end, parent, _run, _tag) in enumerate(spans):
        if parent is not None:
            child_time[parent] += end - start
            in_train[i] = in_train[parent] or spans[parent][0] == "training.train_phase"
    totals = {name: {"s": 0.0, "self_s": 0.0, "calls": 0, "calls_in_train": 0} for name in SPAN_NAMES}
    top_level = 0.0
    phase0 = 0.0
    for i, (name, start, end, parent, _run, tag) in enumerate(spans):
        entry = totals[name]
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        entry["calls"] += 1
        entry["calls_in_train"] += in_train[i]
        if parent is None:
            top_level += end - start
        if name == "training.train_phase" and tag == 0:
            phase0 += end - start
    return totals, top_level, phase0
