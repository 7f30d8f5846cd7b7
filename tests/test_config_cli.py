import json
import os

import numpy as np
import pytest

from bdrlab.cli import main
from bdrlab.config import ConfigError, ExperimentConfig, parse_config, serialize_config
from bdrlab.reporting import body_hash, read_report

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


class TestConfigParsing:
    def test_round_trip_is_identical(self):
        cfg = parse_config(SMALL_CONFIG)
        text = serialize_config(cfg)
        assert serialize_config(parse_config(text)) == text

    def test_defaults_round_trip(self):
        cfg = ExperimentConfig()
        assert parse_config(serialize_config(cfg)) == cfg

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
            doc = read_report(out / "bdr_0.json")
            assert doc["body_sha256"] == body_hash(doc["body"])
            hashes.append(doc["body_sha256"])
        assert hashes[0] == hashes[1]

    def test_parallel_jobs_match_serial(self, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_CONFIG.replace("seeds = 0", "seeds = 0, 1"))
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert main(["run", str(config_path), "--out", str(serial)]) == 0
        assert main(["run", str(config_path), "--out", str(parallel), "--jobs", "2"]) == 0
        for name in ("ce_0.json", "ce_1.json", "bdr_0.json", "bdr_1.json"):
            a = read_report(serial / name)["body_sha256"]
            b = read_report(parallel / name)["body_sha256"]
            assert a == b

    def test_missing_config_errors(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_config_nonzero_exit(self, tmp_path, capsys):
        config_path = tmp_path / "bad.cfg"
        config_path.write_text("[memoryy]\nbudget = 1\n")
        assert main(["run", str(config_path)]) == 2
        assert "memoryy" in capsys.readouterr().err

    def test_report_body_schema(self, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_CONFIG)
        out = tmp_path / "out"
        main(["run", str(config_path), "--out", str(out)])
        body = read_report(out / "bdr_0.json")["body"]
        assert body["schema_version"] == 1
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
        assert header == "step,class,psi,omega,pi_hat"

    def test_step_csv_schema(self, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_CONFIG)
        out = tmp_path / "out"
        main(["run", str(config_path), "--out", str(out)])
        header = (out / "ce_0_steps.csv").read_text().splitlines()[0]
        assert header == (
            "phase,epoch,step,loss_new,loss_old,grad_new_norm,grad_old_norm,"
            "grad_total_sq,contrib_inner"
        )

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
        ],
        ids=["negative_lr", "momentum_above_one", "indivisible_increment"],
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
        [("S", "2", "3", "'increment'"), ("m", "0.5", "1.5", "'m'")],
        ids=["S", "m"],
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
    def test_run_on_idx_files(self, tmp_path):
        import struct

        rng = np.random.default_rng(0)
        n, side, classes = 160, 4, 4
        images = rng.integers(0, 256, (n, side, side), dtype=np.uint8)
        labels = np.repeat(np.arange(classes), n // classes).astype(np.uint8)
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
        out = tmp_path / "out"
        assert main(["run", str(config_path), "--out", str(out)]) == 0
        body = read_report(out / "ce_0.json")["body"]
        assert len(body["phases"]) == 2


class TestOutputsIsolated:
    def test_runs_do_not_cross_write(self, tmp_path):
        config_path = tmp_path / "exp.cfg"
        config_path.write_text(SMALL_CONFIG)
        out = tmp_path / "out"
        main(["run", str(config_path), "--out", str(out)])
        names = sorted(os.listdir(out))
        stems = {n.split(".")[0].rsplit("_", 1)[0] for n in names if n.endswith(".json")}
        assert stems == {"ce_0", "bdr_0"} or stems == {"ce", "bdr"}
