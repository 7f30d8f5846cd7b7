"""Record the reference outputs of every workload window for this machine.

    python3 perfbench/make_reference.py

Runs each workload over all of its seed windows once, with the same child
environment the benchmark uses, and stores each run's behavioural digest and
body hash in ``reference.json`` under this machine's numeric environment
(replacing an earlier entry for the same environment). Run it on the commit
whose outputs are the reference; the benchmark then compares against them.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from checks import REFERENCE_PATH, behaviour_digest  # noqa: E402
from run import WORK_ROOT, WORKLOADS, Workload, run_workload  # noqa: E402


def main():
    environment = None
    recorded = {}
    work_root = os.path.join(WORK_ROOT, f"reference-{os.getpid()}")
    try:
        for name, windows in WORKLOADS.items():
            workload = Workload(name, windows)
            runs = recorded[name] = {}
            for window in range(windows):
                child = run_workload(
                    workload, window, os.path.join(work_root, f"{name}-{window}"), time.perf_counter() + 600
                )
                problems = child.problems + [p for o in child.outputs for p in o.problems]
                if problems:
                    raise SystemExit(f"{name} window {window}: " + "; ".join(problems))
                if environment is None:
                    environment = child.facts["environment"]
                elif child.facts["environment"] != environment:
                    raise SystemExit("numeric environment changed between processes")
                for output in child.outputs:
                    runs[output.run] = [behaviour_digest(output.body), output.body_sha256]
                latencies = " ".join(f"{o.run}={o.wall_time_s:.2f}" for o in child.outputs)
                print(f"{name} window {window}: {child.wall:.2f} s  {latencies}", flush=True)
                shutil.rmtree(child.out_dir)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    try:
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            entries = json.load(fh)["environments"]
    except FileNotFoundError:
        entries = []
    entries = [e for e in entries if e["environment"] != environment]
    entries.append({"environment": environment, "workloads": recorded})
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump({"environments": entries}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
