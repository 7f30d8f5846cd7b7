import ast
import configparser
import csv
import json
import os
import re
import struct
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import bdrlab
from bdrlab.cli import build_stream, main
from bdrlab.config import _SCHEMA, ConfigError, ExperimentConfig, parse_config, parse_value
from bdrlab.reporting import BALANCE_COLUMNS, BOXPLOT_COLUMNS, SWEEP_COLUMNS, _csv_text, body_hash
from bdrlab.training import LOSS_BDR, LOSS_VARIANTS, StepRecord, first_phase, run_experiment

BENCHMARK_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "benchmark.cfg"
README = Path(__file__).resolve().parents[1] / "README.md"

# every config key's attribute, in _SCHEMA order
CONFIG_ATTRS = [attr for keys in _SCHEMA.values() for attr, _ in keys.values()]
# the keys that act on one variant or some dataset kinds only
BDR_ONLY_KEYS = {"variance_source", "m", "m_prime", "beta", "tau"}
KIND_ONLY_KEYS = {
    "gaussian": {"classes", "per_class", "dim", "separation"},
    "rings": {"classes", "per_class", "ring_noise"},
    "idx": {"idx_images", "idx_labels"},
}

SMALL_CONFIG = """
[dataset]
kind = gaussian
classes = 4
per_class = 36
dim = 4
separation = 3.0

[protocol]
initial_classes = 2
increment = 2

[memory]
budget = 3

[train]
epochs = 3
batch_size = 12
lr = 0.05
hidden = 12, 12

[run]
variants = ce, bdr
seeds = 0
out = runs
"""


def _readme_config_block():
    return README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]


class TestConfigParsing:
    def test_readme_config_block_is_the_defaults(self):
        # each key's trailing comment is a comment, not part of its value
        assert parse_config(_readme_config_block()) == ExperimentConfig()

    def test_readme_config_block_names_every_key_in_schema_order(self):
        # a key missing from the block would still parse to its default
        parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#",))
        parser.read_string(_readme_config_block())
        documented = [(section, list(parser[section])) for section in parser.sections()]
        assert documented == [(section, list(keys)) for section, keys in _SCHEMA.items()]

    def test_readme_names_the_csv_columns_the_code_writes(self):
        text = README.read_text()
        written = {
            "_steps.csv": [f.name for f in fields(StepRecord)],
            "_balance.csv": BALANCE_COLUMNS,
            "_boxplot.csv": BOXPLOT_COLUMNS,
            "sweep_<param>.csv": SWEEP_COLUMNS,
        }
        for name, columns in written.items():
            documented = re.findall(re.escape(name) + r"`[^`]*columns\s+`([^`]+)`", text)
            assert documented == [",".join(columns)], name

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="memoryy"):
            parse_config("[memoryy]\nbudget = 3\n")
        with pytest.raises(ConfigError, match="budgett"):
            parse_config("[memory]\nbudgett = 3\n")

    def test_bad_value_names_key(self):
        with pytest.raises(ConfigError, match="epochs"):
            parse_config("[train]\nepochs = soon\n")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="focal"):
            parse_config("[run]\nvariants = focal\n")

    def test_syntax_error_reports_line(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config("[dataset\nkind = gaussian\n")

    @pytest.mark.parametrize("kind", list(KIND_ONLY_KEYS))
    @pytest.mark.parametrize("variant", LOSS_VARIANTS)
    def test_as_trained_holds_the_keys_that_act(self, variant, kind):
        assert len(CONFIG_ATTRS) == 28
        run_keys = {attr for attr, _ in _SCHEMA["run"].values()}
        other_kinds = set().union(*KIND_ONLY_KEYS.values()) - KIND_ONLY_KEYS[kind]
        dropped = run_keys | other_kinds | (set() if variant == LOSS_BDR else BDR_ONLY_KEYS)
        cfg = ExperimentConfig(dataset_kind=kind, idx_images="images.idx", idx_labels="labels.idx")
        assert list(cfg.as_trained(variant)) == [attr for attr in CONFIG_ATTRS if attr not in dropped]

    @pytest.mark.parametrize("variant", LOSS_VARIANTS)
    def test_as_trained_reads_b_zero_as_s(self, variant):
        # B = 0 deals out S classes first, as B = S does
        as_s = ExperimentConfig(initial_classes=2, increment=2).as_trained(variant)
        assert ExperimentConfig(initial_classes=0, increment=2).as_trained(variant) == as_s
        assert ExperimentConfig(initial_classes=4, increment=2).as_trained(variant) != as_s

    @pytest.mark.parametrize("attr", CONFIG_ATTRS)
    def test_each_setting_parses_its_own_default(self, attr):
        # a key's parser and its default are declared together, so they must agree
        default = getattr(ExperimentConfig, attr)
        text = ", ".join(map(str, default)) if isinstance(default, tuple) else str(default)
        parsed = parse_value(attr, text)
        assert parsed == default and type(parsed) is type(default)
        if isinstance(default, tuple):
            assert [type(v) for v in parsed] == [type(v) for v in default]

    @pytest.mark.parametrize(
        "text",
        ["[DEFAULT]\nlr = 0.5\n", "[DEFAULT]\nepochs = 3\n\n[train]\nlr = 0.05\n", "[DEFAULT]\n" + SMALL_CONFIG],
        ids=["alone", "leaking", "empty"],
    )
    @pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "tau", "--values", "1"]], ids=["run", "sweep"])
    def test_default_section_is_an_unknown_section(self, tmp_path, capsys, text, command):
        # configparser would otherwise drop it, or copy its keys into every section
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(text)
        out = tmp_path / "out"
        assert main([command[0], str(config_path), *command[1:], "--out", str(out)]) == 2
        assert capsys.readouterr().err == "config error: unknown section [DEFAULT]\n"
        assert not out.exists()


def _runaway_config(tmp_path, initial_classes):
    """The benchmark config at lr = 1e300 for one full-batch step, seed 0."""
    text = BENCHMARK_CONFIG.read_text().replace("lr = 0.03", "lr = 1e300").replace("epochs = 12", "epochs = 1")
    text = text.replace("batch_size = 32", "batch_size = 1000").replace("seeds = 0, 1, 2, 3, 4", "seeds = 0")
    config_path = tmp_path / "runaway.cfg"
    config_path.write_text(text.replace("initial_classes = 4", f"initial_classes = {initial_classes}"))
    return config_path


def _python(*args):
    """A fresh interpreter on this checkout's bdrlab, with every warning shown."""
    src = os.path.dirname(os.path.dirname(bdrlab.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONWARNINGS="always")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


class TestCmdRun:
    def test_writes_one_report_per_variant_and_prints_summaries(self, tmp_path, capsys):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_CONFIG)
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out", str(out)]) == 0
        assert (out / "ce_0.json").exists()
        assert (out / "bdr_0.json").exists()
        assert (out / "ce_0_steps.csv").exists()
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 2
        for line in lines:
            fields = line.split("\t")
            assert len(fields) == 5
            float(fields[2])  # avg parses

    def test_reports_are_deterministic(self, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_CONFIG)
        hashes = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["run", str(config_path), "--out", str(out)]) == 0
            doc = json.loads((out / "bdr_0.json").read_text())
            assert doc["body_sha256"] == body_hash(doc["body"])
            hashes.append(doc["body_sha256"])
        assert hashes[0] == hashes[1]

    def test_parallel_jobs_match_serial(self, tmp_path, capsys):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(
            SMALL_CONFIG.replace("seeds = 0", "seeds = 0, 1").replace("variants = ce, bdr", "variants = ce, cr, bdr")
        )
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(["run", str(config_path), "--out", str(serial)]) == 0
        serial_lines = capsys.readouterr().out.splitlines()
        assert main(["run", str(config_path), "--out", str(parallel), "--jobs", "2"]) == 0
        parallel_lines = capsys.readouterr().out.splitlines()
        pairs = [(v, s) for v in ("ce", "cr", "bdr") for s in (0, 1)]
        for variant, seed in pairs:
            a = json.loads((serial / f"{variant}_{seed}.json").read_text())["body_sha256"]
            b = json.loads((parallel / f"{variant}_{seed}.json").read_text())["body_sha256"]
            assert a == b
        # one line per pair, in (variant, seed) order, whatever the job count
        assert [tuple(line.split("\t")[:2]) for line in serial_lines] == [(v, str(s)) for v, s in pairs]
        assert parallel_lines == serial_lines

    @pytest.mark.parametrize("seeds, started", [("0", 1), ("0, 1", 2)])
    def test_jobs_start_at_most_one_worker_per_seed(self, tmp_path, monkeypatch, seeds, started):
        forked = []

        class RecordingPool(ProcessPoolExecutor):
            def shutdown(self, *args, **kwargs):
                forked.append(len(self._processes))
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr("bdrlab.cli.ProcessPoolExecutor", RecordingPool)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_CONFIG.replace("seeds = 0", f"seeds = {seeds}"))
        assert main(["run", str(config_path), "--out", str(tmp_path / "out"), "--jobs", "4"]) == 0
        assert forked == [started]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, command, jobs):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_CONFIG)
        out = tmp_path / "out"
        argv = [command, str(config_path), "--out", str(out), "--jobs", jobs]
        if command == "sweep":
            argv += ["--param", "m", "--values", "0.5"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_errors(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_config_nonzero_exit(self, tmp_path, capsys):
        config_path = tmp_path / "bad.cfg"
        config_path.write_text("[memoryy]\nbudget = 1\n")
        assert main(["run", str(config_path)]) == 2
        assert "memoryy" in capsys.readouterr().err

    def test_dead_network_is_one_line_and_exit_one(self, tmp_path, capsys):
        # lr = 0.5 kills the last hidden layer in phase 0, which every variant
        # shares, so the seed's first variant stops there
        text = BENCHMARK_CONFIG.read_text().replace("lr = 0.03", "lr = 0.5")
        text = text.replace("seeds = 0, 1, 2, 3, 4", "seeds = 0")
        config_path = tmp_path / "dead.cfg"
        config_path.write_text(text)
        assert main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("training degenerated: dead network")
        assert err[0].endswith(" (variant ce, seed 0)")

    def test_failure_keeps_finished_summaries_and_names_its_pair(self, tmp_path, capsys):
        # tau acts on bdr only: ce and cr finish, and bdr's first offset overflows
        text = BENCHMARK_CONFIG.read_text().replace("tau = 2.0", "tau = 1e308")
        text = text.replace("seeds = 0, 1, 2, 3, 4", "seeds = 0")
        config_path = tmp_path / "overflow.cfg"
        config_path.write_text(text)
        assert main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert [line.split("\t")[:2] for line in captured.out.splitlines()] == [["ce", "0"], ["cr", "0"]]
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].endswith(" (variant bdr, seed 0)")

    def test_failure_with_jobs_names_every_report_on_disk(self, tmp_path, capsys):
        # a seed after the failed one either never starts or, when it was
        # already running, has each report it wrote named on stderr
        text = BENCHMARK_CONFIG.read_text().replace("tau = 2.0", "tau = 1e308")
        text = text.replace("seeds = 0, 1, 2, 3, 4", "seeds = 0, 1, 2")
        config_path = tmp_path / "overflow.cfg"
        config_path.write_text(text)
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out", str(out), "--jobs", "2"]) == 1
        captured = capsys.readouterr()
        summarised = {"{}_{}.json".format(*line.split("\t")[:2]) for line in captured.out.splitlines()}
        assert summarised == {"ce_0.json", "cr_0.json"}
        err = captured.err.splitlines()
        assert err[-1].endswith(" (variant bdr, seed 0)")
        named = {os.path.basename(line.rsplit(" ", 1)[-1]) for line in err[:-1]}
        on_disk = {path.name for path in out.glob("*.json")}
        assert on_disk >= summarised and on_disk - summarised == named

    @pytest.mark.parametrize("initial_classes", ["4", "8"], ids=["three_phases", "one_phase"])
    def test_divergence_on_a_phase_last_update_is_one_line_and_exit_one(self, tmp_path, capsys, initial_classes):
        # one step at lr = 1e300 leaves phase 0's model non-finite; closing the
        # phase must end the run as a divergence, not a traceback or a
        # chance-level accuracy taken from NaN logits
        config_path = _runaway_config(tmp_path, initial_classes)
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("training diverged: ")
        assert err[0].endswith(" (variant ce, seed 0)")
        assert not list(out.glob("*.json"))

    def test_divergence_prints_no_numpy_warning(self, tmp_path):
        # out of process, where no test harness collects numpy's warnings
        config_path = _runaway_config(tmp_path, "4")
        done = _python("-m", "bdrlab.cli", "run", str(config_path), "--out", str(tmp_path / "out"))
        assert done.returncode == 1
        err = done.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("training diverged: "), done.stderr

    def test_overflowing_teacher_temperature_is_one_line_and_exit_one(self, tmp_path):
        # the teacher's tempered logits overflow before the first step; out of
        # process, so a numpy warning from the phase's set-up would reach stderr
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(
            BENCHMARK_CONFIG.read_text().replace("distill_temperature = 2.0", "distill_temperature = 1e-310")
        )
        done = _python("-m", "bdrlab.cli", "run", str(config_path), "--out", str(tmp_path / "out"))
        assert done.returncode == 1
        err = done.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("training diverged: "), done.stderr

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_command_never_imports_scipy(self, tmp_path, command):
        # bdrlab runs on numpy alone: Lanczos solves its tridiagonal with
        # np.linalg.eigh, and the balanced-risk oracle behind `verify` solves
        # its points by Newton
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_CONFIG)
        argv = ["run", str(config_path), "--out", str(tmp_path / "out")] if command == "run" else ["verify"]
        script = (
            "import sys\nfrom bdrlab.cli import main\n"
            f"code = main({argv!r})\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\nsys.exit(code)\n"
        )
        done = _python("-c", script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"

    def test_report_body_schema(self, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_CONFIG)
        out = tmp_path / "out"
        main(["run", str(config_path), "--out", str(out)])
        body = json.loads((out / "bdr_0.json").read_text())["body"]
        assert body["schema_version"] == 2
        assert body["config"]["classes"] == 4
        for entry in body["phases"]:
            acc = entry["accuracy"]
            assert acc["overall"] is not None
        assert body["phases"][1]["destruction"] is not None
        assert body["phases"][1]["bound"]["sigma_max"] is not None
        # every number in the canonical body must be finite (json rejects NaN)
        json.dumps(body, allow_nan=False)

    def test_balance_trace_csv_for_bdr_only(self, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_CONFIG)
        out = tmp_path / "out"
        main(["run", str(config_path), "--out", str(out)])
        assert (out / "bdr_0_balance.csv").exists()
        assert not (out / "ce_0_balance.csv").exists()
        header = (out / "bdr_0_balance.csv").read_text().splitlines()[0]
        assert header == "phase,step,class,omega,pi_hat"

    def test_balance_rows_are_keyed_by_phase_and_step(self, tmp_path):
        # every phase counts its steps from 0, so two phases share step numbers
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_CONFIG.replace("classes = 4", "classes = 6").replace("ce, bdr", "bdr"))
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out", str(out)]) == 0
        balance = (out / "bdr_0_balance.csv").read_text().splitlines()[1:]
        keys = [tuple(int(v) for v in line.split(",")[:3]) for line in balance]
        assert len(set(keys)) == len(keys)
        assert {phase for phase, _, _ in keys} == {1, 2}
        steps = [line.split(",") for line in (out / "bdr_0_steps.csv").read_text().splitlines()[1:]]
        incremental = {(int(row[0]), int(row[2])) for row in steps if int(row[0]) >= 1}
        assert {(phase, step) for phase, step, _ in keys} == incremental

    def test_csv_cells_of_numpy_scalars_read_as_python_numbers(self):
        rows = [[np.float64(0.5), np.int64(3), 0.1, np.float64(-1e-300), 7]]
        assert _csv_text(("a", "b", "c", "d", "e"), rows) == "a,b,c,d,e\n0.5,3,0.1,-1e-300,7\n"

    def test_step_csv_schema(self, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_CONFIG)
        out = tmp_path / "out"
        main(["run", str(config_path), "--out", str(out)])
        header = (out / "ce_0_steps.csv").read_text().splitlines()[0]
        assert header == (
            "phase,epoch,step,loss_new,loss_old,grad_new_norm,grad_old_norm,"
            "grad_total_sq,contrib_inner,batch_size"
        )

    def test_step_csv_rows_are_the_trace(self, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_CONFIG)
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out", str(out)]) == 0
        cfg = parse_config(SMALL_CONFIG)
        result = run_experiment(first_phase(build_stream(cfg, 0), cfg), "bdr")
        records = [r for trace in result.traces for r in trace.rows]
        lines = (out / "bdr_0_steps.csv").read_text().splitlines()[1:]
        assert len(lines) == len(records) > 0
        columns = [f.name for f in fields(StepRecord)]
        for line, record in zip(lines, records):
            values = line.split(",")
            assert len(values) == len(columns) == 10
            for text, column in zip(values, columns):
                value = getattr(record, column)
                assert type(value)(text) == value, column

    def test_cr_ignores_tau(self, tmp_path):
        # the [balance] keys act on bdr only; cr shifts by the unscaled log priors
        bodies, steps = [], []
        for tau in ("1.0", "2.0"):
            config_path = tmp_path / f"tau{tau}.cfg"
            config_path.write_text(
                SMALL_CONFIG.replace("variants = ce, bdr", "variants = cr") + f"\n[balance]\ntau = {tau}\n"
            )
            out = tmp_path / f"tau{tau}"
            assert main(["run", str(config_path), "--out", str(out)]) == 0
            body = json.loads((out / "cr_0.json").read_text())["body"]
            bodies.append(body)
            steps.append((out / "cr_0_steps.csv").read_bytes())
        assert bodies[0] == bodies[1]
        assert steps[0] == steps[1]

    def test_boxplot_csv_schema(self, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_CONFIG)
        out = tmp_path / "out"
        main(["run", str(config_path), "--out", str(out)])
        lines = (out / "ce_0_boxplot.csv").read_text().splitlines()
        assert lines[0] == "phase,min,q1,median,q3,max,outlier_count"
        assert len(lines) == 2  # one incremental phase


class TestConfigErrorsAtParseTime:
    # each input exits 2 with a config error naming the key, before any run starts

    @pytest.mark.parametrize(
        "edits, key",
        [
            ({"lr = 0.05": "lr = -1"}, "'lr'"),
            ({"lr = 0.05": "lr = 0.05\nmomentum = 5"}, "'momentum'"),
            (
                {"classes = 4": "classes = 8", "initial_classes = 2": "initial_classes = 4", "increment = 2": "increment = 3"},
                "'increment'",
            ),
            ({"initial_classes = 2": "initial_classes = -3"}, "'initial_classes' in [protocol]"),
            ({"seeds = 0": "seeds = -1"}, "'seeds' in [run]"),
            ({"seeds = 0": "seeds = 0, 1, 0"}, "'seeds' in [run]"),
            ({"variants = ce, bdr": "variants = ce, ce"}, "'variants' in [run]"),
            ({"variants = ce, bdr": "variants = ce, focal"}, "'variants' in [run]"),
            ({"variants = ce, bdr": "variants = ce, reweight"}, "'variants' in [run]"),
            ({"budget = 3": "budget = 0"}, "'budget' in [memory]"),
            ({"budget = 3": "mode = global\nbudget = 3"}, "'budget' in [memory]"),
            ({"hidden = 12, 12": "hidden = 12, 12\ndistill_temperature = 0"}, "'distill_temperature' in [train]"),
            ({"hidden = 12, 12": "hidden = 0"}, "'hidden' in [train]"),
            ({"hidden = 12, 12": "hidden = 8, 0"}, "'hidden' in [train]"),
            ({"classes = 4": "classes = 1"}, "'classes' in [dataset]"),
            ({"per_class = 36": "per_class = 0"}, "'per_class' in [dataset]"),
            ({"per_class = 36": "per_class = 1"}, "'per_class' in [dataset]"),
            ({"dim = 4": "dim = 1"}, "'dim' in [dataset]"),
            ({"separation = 3.0": "separation = 0"}, "'separation' in [dataset]"),
            ({"kind = gaussian": "kind = rings\nnoise = -1"}, "'noise' in [dataset]"),
            ({"[run]": "[balance]\ntau = -1\n\n[run]"}, "'tau' in [balance]"),
        ],
        ids=[
            "negative_lr",
            "momentum_above_one",
            "indivisible_increment",
            "negative_initial_classes",
            "negative_seed",
            "duplicate_seed",
            "duplicate_variant",
            "unknown_variant",
            "removed_reweight_variant",
            "zero_budget",
            "global_budget_below_classes",
            "zero_temperature",
            "zero_hidden",
            "zero_second_hidden",
            "one_class",
            "zero_per_class",
            "one_per_class",
            "one_dim",
            "zero_separation",
            "negative_ring_noise",
            "negative_tau",
        ],
    )
    def test_run_rejects(self, tmp_path, capsys, edits, key):
        text = SMALL_CONFIG
        for old, new in edits.items():
            text = text.replace(old, new)
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(text)
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "param, good, bad, key",
        [
            ("S", "2", "3", "'increment'"),
            ("m", "0.5", "1.5", "'m'"),
            ("R", "2", "2.5", "'budget' in [memory]"),
            ("R", "2", "0", "'budget' in [memory]"),
            ("tau", "1.0", "-1", "'tau' in [balance]"),
            ("tau", "1", "1.0", "1.0 listed more than once"),
            ("R", "3", "03", "3 listed more than once"),
            ("B", "0", "2", "trains the same protocol as B=0"),
        ],
        ids=["S", "m", "fractional_R", "zero_R", "negative_tau", "repeated_tau", "repeated_R", "B_zero_reads_as_S"],
    )
    def test_sweep_rejects(self, tmp_path, capsys, param, good, bad, key):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_CONFIG)
        out = tmp_path / "sweep"
        # the good value listed first must not run either
        assert main(["sweep", str(config_path), "--param", param, "--values", f"{good},{bad}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{param}={bad}" in err and key in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, key",
        [
            (("seeds = 0", "seeds = -1"), "'seeds'"),
            (("seeds = 0", "seeds = 0, 0"), "'seeds'"),
            (("variants = ce, bdr", "variants = bdr, ce, bdr"), "'variants'"),
        ],
        ids=["negative_seed", "duplicate_seed", "duplicate_variant"],
    )
    def test_sweep_rejects_bad_run_list(self, tmp_path, capsys, edit, key):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_CONFIG.replace(*edit))
        out = tmp_path / "sweep"
        assert main(["sweep", str(config_path), "--param", "m", "--values", "0.5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{key} in [run]" in err
        assert not out.exists()


    @pytest.mark.parametrize(
        "key, edit",
        [
            ("'lr' in [train]", ("lr = 0.05", "lr = inf")),
            ("'distill_weight' in [train]", ("hidden = 12, 12", "hidden = 12, 12\ndistill_weight = inf")),
            ("'distill_temperature' in [train]", ("hidden = 12, 12", "hidden = 12, 12\ndistill_temperature = 1e309")),
            ("'tau' in [balance]", ("[run]", "[balance]\ntau = inf\n\n[run]")),
            ("'separation' in [dataset]", ("separation = 3.0", "separation = inf")),
            ("'noise' in [dataset]", ("separation = 3.0", "separation = 3.0\nnoise = inf")),
        ],
        ids=["lr", "distill_weight", "distill_temperature", "tau", "separation", "noise"],
    )
    def test_infinite_float_setting_rejected(self, tmp_path, capsys, key, edit):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_CONFIG.replace(*edit))
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: bad value for {key}:") and "must be finite, got inf" in err
        assert not out.exists()

    @pytest.mark.parametrize("param, key", [("tau", "'tau' in [balance]"), ("lambda", "'distill_weight' in [train]")])
    def test_sweep_rejects_an_infinite_value(self, tmp_path, capsys, param, key):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_CONFIG)
        out = tmp_path / "sweep"
        assert main(["sweep", str(config_path), "--param", param, "--values", "1,inf", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: sweep value {param}=inf: bad value for {key}:")
        assert not out.exists()

    @pytest.mark.parametrize("attr, section", [("hidden", "train"), ("variants", "run"), ("seeds", "run")])
    def test_empty_list_from_python_is_a_config_error(self, attr, section):
        # as `hidden =` in a file fails, so does an empty tuple
        with pytest.raises(ConfigError, match=re.escape(f"bad value for '{attr}' in [{section}]: {attr} ")):
            ExperimentConfig(**{attr: ()})

    def test_nan_keeps_its_range_message(self):
        with pytest.raises(ConfigError, match="lr must be positive, got nan"):
            ExperimentConfig(lr=float("nan"))

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "tau", "--values", "1"]], ids=["run", "sweep"])
    def test_config_that_is_not_utf8_is_a_config_error(self, tmp_path, capsys, command):
        config_path = tmp_path / "exp.cfg"
        config_path.write_bytes(SMALL_CONFIG.replace("out = runs", "out = caf\xe9").encode("latin-1"))
        offset = SMALL_CONFIG.index("out = runs") + len("out = caf")
        out = tmp_path / "out"
        assert main([command[0], str(config_path), *command[1:], "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {config_path} is not UTF-8 text:") and f"at byte {offset}" in err
        assert not out.exists()

    @pytest.mark.parametrize("param, values", [("tau", "1,2"), ("m", "0.5,0.6")])
    def test_sweep_over_a_balance_key_without_bdr_repeats_its_runs(self, tmp_path, capsys, param, values):
        # the [balance] keys act on bdr only, so ce and cr train alike at every value
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_CONFIG.replace("variants = ce, bdr", "variants = ce, cr"))
        out = tmp_path / "sweep"
        assert main(["sweep", str(config_path), "--param", param, "--values", values, "--out", str(out)]) == 2
        first, second = values.split(",")
        err = capsys.readouterr().err
        assert err.startswith(f"config error: sweep value {param}={second}: ")
        assert f"trains the same protocol as {param}={float(first)}" in err
        assert not out.exists()


class TestCmdSweep:
    def test_sweep_row_count(self, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_CONFIG.replace("seeds = 0", "seeds = 0, 1"))
        out = tmp_path / "sweep"
        rc = main(["sweep", str(config_path), "--param", "beta", "--values", "0.5,0.99", "--out", str(out)])
        assert rc == 0
        lines = (out / "sweep_beta.csv").read_text().splitlines()
        assert lines[0] == "param,value,variant,seed,avg,last,f_max"
        assert len(lines) == 1 + 2 * 2 * 2  # values x variants x seeds

    @pytest.mark.parametrize("initial_classes, peaks", [(2, True), (4, False)], ids=["two_phases", "one_phase"])
    def test_f_max_cell_is_empty_without_an_incremental_phase(self, tmp_path, initial_classes, peaks):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_CONFIG.replace("initial_classes = 2", f"initial_classes = {initial_classes}"))
        out = tmp_path / "sweep"
        assert main(["sweep", str(config_path), "--param", "tau", "--values", "1,2", "--out", str(out)]) == 0
        with open(out / "sweep_tau.csv", newline="") as fh:
            cells = [row["f_max"] for row in csv.DictReader(fh)]
        assert len(cells) == 4
        for cell in cells:
            assert float(cell) >= 0 if peaks else cell == ""

    def test_unknown_param_lists_valid_names(self, tmp_path, capsys):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_CONFIG)
        assert main(["sweep", str(config_path), "--param", "gamma", "--values", "1"]) == 2
        err = capsys.readouterr().err
        assert "m_prime" in err and "lambda" in err

    def test_empty_values_rejected(self, tmp_path, capsys):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_CONFIG)
        assert main(["sweep", str(config_path), "--param", "beta", "--values", " , "]) == 2

    def test_memory_budget_param(self, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_CONFIG)
        out = tmp_path / "sweep"
        assert main(["sweep", str(config_path), "--param", "R", "--values", "2,3", "--out", str(out)]) == 0
        assert (out / "R=2" / "ce_0.json").exists()
        assert (out / "R=3" / "bdr_0.json").exists()


class TestIdxDatasetEndToEnd:
    @pytest.fixture
    def no_training(self, monkeypatch):
        """A bad idx file must stop the run before its first phase trains."""

        def first_phase(*args):
            raise AssertionError("training started")

        monkeypatch.setattr("bdrlab.cli.first_phase", first_phase)

    @staticmethod
    def _write_idx_config(tmp_path, classes=4, n=160, side=4, counts=None):
        counts = counts or [n // classes] * classes  # samples per label
        labels = np.repeat(np.arange(len(counts)), counts).astype(np.uint8)
        n = labels.size
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (n, side, side), dtype=np.uint8)
        ipath = tmp_path / "images.idx"
        lpath = tmp_path / "labels.idx"
        ipath.write_bytes(struct.pack(">IIII", 0x00000803, n, side, side) + images.tobytes())
        lpath.write_bytes(struct.pack(">II", 0x00000801, n) + labels.tobytes())
        config_path = tmp_path / "idx.cfg"
        config_path.write_text(
            f"""
[dataset]
kind = idx
images = {ipath}
labels = {lpath}

[protocol]
initial_classes = 2
increment = 2

[memory]
budget = 2

[train]
epochs = 2
batch_size = 16
hidden = 8

[run]
variants = ce
seeds = 0
"""
        )
        return config_path, ipath

    def test_run_on_idx_files(self, tmp_path):
        config_path, _ = self._write_idx_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out", str(out)]) == 0
        body = json.loads((out / "ce_0.json").read_text())["body"]
        assert len(body["phases"]) == 2

    def test_class_count_the_protocol_cannot_split_is_a_config_error(self, tmp_path, capsys, no_training):
        # 5 classes cannot be dealt as 2 then blocks of 2; known only once the file is read
        config_path, _ = self._write_idx_config(tmp_path, classes=5, n=150)
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "[protocol]" in err and "cannot split 5 classes" in err
        assert not out.exists()

    def test_global_budget_below_the_file_classes_is_a_config_error(self, tmp_path, capsys, no_training):
        # 4 classes share a global budget of 3; known only once the file is read.
        # A --jobs worker process inherits the patched first_phase.
        config_path, _ = self._write_idx_config(tmp_path)
        config_path.write_text(config_path.read_text().replace("budget = 2", "mode = global\nbudget = 3"))
        for jobs in ("1", "2"):
            out = tmp_path / f"out{jobs}"
            assert main(["run", str(config_path), "--out", str(out), "--jobs", jobs]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: bad value for 'budget' in [memory]")
            assert not out.exists()

    def test_sweep_checks_each_split_of_the_file_classes_before_the_first_run(self, tmp_path, capsys, no_training):
        # B = 2 then blocks of S deal out 6 classes at S = 2, but not at S = 3
        config_path, _ = self._write_idx_config(tmp_path, classes=6, n=180)
        out = tmp_path / "sweep"
        assert main(["sweep", str(config_path), "--param", "S", "--values", "2,3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: sweep value S=3: bad value for 'initial_classes' or 'increment'")
        assert not out.exists()

    @pytest.mark.parametrize(
        "counts, named",
        [([40, 40, 40, 0, 40, 40], "class 3 has 0 sample(s)"), ([40, 40, 1, 40], "class 2 has 1 sample(s)")],
        ids=["skipped_label", "single_sample_class"],
    )
    def test_class_without_a_test_sample_is_a_data_error(self, tmp_path, capsys, no_training, counts, named):
        # each class holds one sample out for testing, so it needs two
        config_path, _ = self._write_idx_config(tmp_path, counts=counts)
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and named in err
        assert not out.exists()

    @pytest.mark.parametrize("rows, cols", [(0, 3), (3, 0)])
    def test_image_without_pixels_is_a_data_error(self, tmp_path, capsys, no_training, rows, cols):
        config_path, ipath = self._write_idx_config(tmp_path, n=24)
        ipath.write_bytes(struct.pack(">IIII", 0x00000803, 24, rows, cols))
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {ipath}:") and f"{rows}x{cols}" in err and "offsets 8 and 12" in err
        assert not out.exists()

    def test_truncated_idx_file_names_the_file(self, tmp_path, capsys):
        config_path, ipath = self._write_idx_config(tmp_path)
        ipath.write_bytes(ipath.read_bytes()[:10])
        assert main(["run", str(config_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert str(ipath) in err and "header needs 16 bytes" in err


class TestCmdVerify:
    def test_every_check_passes(self, capsys):
        assert main(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 9
        assert all(line.startswith("PASS\t") for line in lines)

    def test_a_failed_check_exits_one(self, capsys, monkeypatch):
        from bdrlab import verification

        monkeypatch.setattr(verification, "run_all", lambda: [verification.CheckResult("stub", False, "forced")])
        assert main(["verify"]) == 1
        assert capsys.readouterr().out.splitlines() == ["FAIL\tstub\tforced"]


class TestDependencies:
    def test_nothing_imports_scipy(self):
        # numpy is bdrlab's only dependency, and no test module imports scipy
        root = Path(__file__).resolve().parents[1]
        sites = set()
        for path in [*sorted((root / "src" / "bdrlab").glob("*.py")), *sorted((root / "tests").glob("*.py"))]:
            for node in ast.walk(ast.parse(path.read_text())):
                names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
                if isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                sites.update((path.name, name) for name in names if name.split(".")[0] == "scipy")
        assert sites == set()


class TestOutputsIsolated:
    def test_runs_do_not_cross_write(self, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_CONFIG)
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out", str(out)]) == 0
        assert sorted(os.listdir(out)) == [
            "bdr_0.json",
            "bdr_0_balance.csv",
            "bdr_0_boxplot.csv",
            "bdr_0_steps.csv",
            "ce_0.json",
            "ce_0_boxplot.csv",
            "ce_0_steps.csv",
        ]
        for stem in ("ce_0", "bdr_0"):
            traces = json.loads((out / f"{stem}.json").read_text())["body"]["traces"]
            own = sorted(n for n in os.listdir(out) if n.startswith(f"{stem}_"))
            assert sorted(traces.values()) == own


class TestRunIdentity:
    # a body holds the settings its run trains on, not the invocation around it
    def test_one_pair_has_one_hash_under_any_run_list_and_out(self, tmp_path, monkeypatch):
        config_path = tmp_path / "full.cfg"
        config_path.write_text(SMALL_CONFIG)
        assert main(["run", str(config_path), "--out", str(tmp_path / "full")]) == 0
        alone = SMALL_CONFIG.replace("variants = ce, bdr", "variants = bdr")
        alone = alone.replace("seeds = 0", "seeds = 1, 0").replace("out = runs", "out = alone")
        config_path = tmp_path / "alone.cfg"
        config_path.write_text(alone)
        monkeypatch.chdir(tmp_path)  # no --out: the file's out names the directory
        assert main(["run", str(config_path)]) == 0
        full, alone = (json.loads((tmp_path / d / "bdr_0.json").read_text()) for d in ("full", "alone"))
        assert full["body_sha256"] == alone["body_sha256"]
        assert full["body"] == alone["body"]

    def test_temperature_leaves_the_body_when_distillation_is_off(self, tmp_path):
        def body(weight, temperature):
            text = SMALL_CONFIG.replace("variants = ce, bdr", "variants = bdr").replace(
                "hidden = 12, 12", f"hidden = 12, 12\ndistill_weight = {weight}\ndistill_temperature = {temperature}"
            )
            config_path = tmp_path / f"{weight}_{temperature}.cfg"
            config_path.write_text(text)
            out = tmp_path / config_path.stem
            assert main(["run", str(config_path), "--out", str(out)]) == 0
            return json.loads((out / "bdr_0.json").read_text())["body"]

        assert body(0, 2) == body(0, 3)
        assert body(1, 2) != body(1, 3)

    def test_ce_and_cr_bodies_are_equal_across_a_tau_sweep(self, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_CONFIG.replace("variants = ce, bdr", "variants = ce, cr, bdr"))
        out = tmp_path / "sweep"
        assert main(["sweep", str(config_path), "--param", "tau", "--values", "1,2", "--out", str(out)]) == 0

        def body(tau, stem):
            return json.loads((out / f"tau={tau}" / f"{stem}.json").read_text())["body"]

        assert body(1.0, "ce_0") == body(2.0, "ce_0")
        assert body(1.0, "cr_0") == body(2.0, "cr_0")
        assert [body(tau, "bdr_0")["config"]["tau"] for tau in (1.0, 2.0)] == [1.0, 2.0]
