"""One benchmark process: import bdrlab, parse the config, run it, report facts.

    python3 perfbench/child.py run CONFIG OUT_DIR JOBS [TRACE_JSON] FACTS_JSON
    python3 perfbench/child.py setup CONFIG FACTS_JSON

The process imports ``bdrlab`` from the checkout's ``src`` directory and
parses the config once, which marks the end of set-up; ``setup`` stops
there. ``run`` then runs ``bdrlab run CONFIG --out OUT_DIR --jobs JOBS``
through the package's own ``main``. With TRACE_JSON it first wraps the layer
entry points (see ``tracing.py``) and writes the spans there when the run
ends. FACTS_JSON receives the set-up timestamp and the numeric environment (library versions, BLAS builds and their resolved
thread counts).
"""

from __future__ import annotations

import ctypes
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
BLAS_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _blas_libraries():
    """(file name, build string, resolved thread count) of each loaded BLAS."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "/" in line})
    paths = [p for p in paths if os.path.basename(p).startswith("lib") and "blas" in p.lower()]
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        raw = _first_symbol(lib, BLAS_CONFIG_SYMBOLS, ctypes.c_char_p)
        threads = _first_symbol(lib, BLAS_THREAD_SYMBOLS, ctypes.c_int)
        found.append([os.path.basename(path), raw.decode() if raw else None, threads])
    return found


def _first_symbol(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


def numeric_environment():
    """What decides the float results: library versions, BLAS builds, threads."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_libraries(),
    }


def main(argv):
    mode, config, *rest = argv
    facts_path = rest.pop()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import bdrlab.cli
    from bdrlab.config import load_config

    load_config(config)
    setup_at = time.perf_counter()
    code = 0
    if mode == "run":
        out_dir, jobs, *trace_path = rest
        tracer = None
        if trace_path:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install(bdrlab)
        code = bdrlab.cli.main(["run", config, "--out", out_dir, "--jobs", jobs])
        if tracer is not None:
            tracer.dump(trace_path[0])
    facts = {"setup_at": setup_at, "environment": numeric_environment()}
    with open(facts_path, "w", encoding="utf-8") as fh:
        json.dump(facts, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
