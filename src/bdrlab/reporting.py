"""Machine-readable run outputs: hashed JSON reports and CSV traces.

The JSON body is canonicalised (sorted keys, no whitespace) before hashing
so two runs of the same config produce byte-identical hashed bodies; wall
time lives outside the body. All files are written atomically.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import fields

BALANCE_COLUMNS = ("phase", "step", "class", "psi", "omega", "pi_hat")

BOXPLOT_COLUMNS = ("phase", "min", "q1", "median", "q3", "max", "outlier_count")

SWEEP_COLUMNS = ("param", "value", "variant", "seed", "avg", "last", "f_max")


def atomic_write_text(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def canonical_json(obj) -> str:
    # allow_nan=False enforces the every-number-finite contract
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def body_hash(body) -> str:
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


def write_report(path, body, wall_time_s):
    """Write the run report: its body, the body's hash and the wall time."""
    document = {"body": body, "body_sha256": body_hash(body), "wall_time_s": wall_time_s}
    atomic_write_text(path, json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n")


def _csv_text(columns, rows):
    """CSV text. A float cell is written with ``float.__repr__``, so a
    numpy float64 reads as the Python float it equals, not ``np.float64(...)``."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(float.__repr__(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def write_step_csv(path, records):
    """records: a non-empty list of one dataclass's instances; its fields, in
    order, are the columns."""
    columns = [f.name for f in fields(records[0])]
    atomic_write_text(path, _csv_text(columns, [[getattr(r, c) for c in columns] for r in records]))


def write_balance_csv(path, rows):
    atomic_write_text(path, _csv_text(BALANCE_COLUMNS, rows))


def write_boxplot_csv(path, per_phase_boxes):
    """per_phase_boxes: iterable of (phase, the report's ``box`` dict)."""
    rows = [[phase] + [box[c] for c in BOXPLOT_COLUMNS[1:]] for phase, box in per_phase_boxes]
    atomic_write_text(path, _csv_text(BOXPLOT_COLUMNS, rows))


def write_sweep_csv(path, rows):
    atomic_write_text(path, _csv_text(SWEEP_COLUMNS, rows))
