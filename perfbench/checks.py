"""Output checks on the files a workload process leaves behind.

Every (variant, seed) run must have written its JSON report and the CSV
traces the report names, and the report's ``body_sha256`` must match a
fresh hash of its body. Its behavioural fields (per-phase accuracies,
stored exemplar indices, ``avg`` and ``last``) must equal the reference
recorded for the same numeric environment in ``reference.json``. The full
body hash is compared as well, but only counted: diagnostic fields may move
for legitimate reasons, and every speed change has to say whether they did.
"""

from __future__ import annotations

import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


def canonical_json(obj):
    # the same canonical form bdrlab hashes: sorted keys, no whitespace
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def sha256_of(obj):
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def behaviour_digest(body):
    return sha256_of(
        {
            "accuracy": [phase["accuracy"] for phase in body["phases"]],
            "memory": body["memory"],
            "avg": body["avg"],
            "last": body["last"],
        }
    )


class RunOutput:
    """What one (variant, seed) run left in its output directory."""

    def __init__(self, out_dir, variant, seed):
        self.variant = variant
        self.seed = seed
        self.run = f"{variant}_{seed}"
        self.problems = []
        self.body = None
        self.body_sha256 = None
        self.wall_time_s = None
        self.steps = 0
        path = os.path.join(out_dir, f"{self.run}.json")
        try:
            with open(path, encoding="utf-8") as fh:
                document = json.load(fh)
            self.body = document["body"]
            self.body_sha256 = document["body_sha256"]
            self.wall_time_s = float(document["wall_time_s"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.problems.append(f"{self.run}: unreadable report ({exc})")
            return
        if sha256_of(self.body) != self.body_sha256:
            self.problems.append(f"{self.run}: body_sha256 does not match the report body")
        traces = self.body.get("traces", {})
        if "steps" not in traces:
            self.problems.append(f"{self.run}: report names no steps trace")
        for kind, name in traces.items():
            try:
                with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                    rows = sum(1 for _ in fh) - 1
            except OSError as exc:
                self.problems.append(f"{self.run}: missing {kind} trace ({exc})")
                continue
            if rows < 1:
                self.problems.append(f"{self.run}: empty {kind} trace")
            if kind == "steps":
                self.steps = rows

    @property
    def negative_sigma(self):
        if self.body is None:
            return 0
        return sum(
            1
            for phase in self.body["phases"]
            if phase.get("bound") is not None and phase["bound"]["sigma_max"] < 0
        )

    def compare(self, expected):
        """Check behaviour against ``expected`` = (behaviour digest, body hash);
        returns whether the full body hash matched too."""
        if self.body is None or expected is None:
            return False
        behaviour, body_sha256 = expected
        if behaviour_digest(self.body) != behaviour:
            self.problems.append(f"{self.run}: behavioural fields differ from the reference")
        return body_sha256 == self.body_sha256


def _per_phase(body, field):
    return [p["destruction"][field] for p in body["phases"] if p["destruction"] is not None]


def directional_claims(bodies, seeds):
    """Acceptance criteria 7 and 8 on a paired (ce, cr, bdr) set of reports.

    Returns the list of claims that do not hold.
    """
    failures = []
    fmax_ok = conv_ok = overcorrected = 0
    for seed in seeds:
        bdr, ce, cr = bodies[("bdr", seed)], bodies[("ce", seed)], bodies[("cr", seed)]
        fmax_ok += all(b <= c for b, c in zip(_per_phase(bdr, "f_max"), _per_phase(ce, "f_max")))
        conv_ok += all(b <= c for b, c in zip(_per_phase(bdr, "converged"), _per_phase(ce, "converged")))
        last_cr, last_ce = cr["phases"][-1]["accuracy"], ce["phases"][-1]["accuracy"]
        if last_cr["new_group"] < last_ce["new_group"] and last_cr["old_group"] > last_ce["old_group"]:
            overcorrected += 1
    avg = {v: sum(bodies[(v, s)]["avg"] for s in seeds) / len(seeds) for v in ("ce", "cr", "bdr")}
    need = len(seeds) - 1
    if fmax_ok < need:
        failures.append(f"criterion 7: peak destruction lower in only {fmax_ok}/{len(seeds)} seeds")
    if conv_ok < need:
        failures.append(f"criterion 7: converged old loss lower in only {conv_ok}/{len(seeds)} seeds")
    if avg["bdr"] - avg["ce"] < 2.0:
        failures.append(f"criterion 8: bdr leads ce by {avg['bdr'] - avg['ce']:.2f} < 2 points")
    if avg["bdr"] < avg["cr"]:
        failures.append("criterion 8: bdr average below cr")
    if overcorrected < (len(seeds) + 1) // 2:
        failures.append(f"criterion 8: cr over-correction in only {overcorrected}/{len(seeds)} seeds")
    return failures


def load_reference(environment, path=REFERENCE_PATH):
    """The recorded outputs for exactly this numeric environment, or None."""
    try:
        with open(path, encoding="utf-8") as fh:
            entries = json.load(fh)["environments"]
    except (OSError, ValueError, KeyError):
        return None
    for entry in entries:
        if entry["environment"] == environment:
            return entry["workloads"]
    return None
