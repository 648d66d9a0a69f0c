"""CLI contract: commands, flags, exit codes, and emitted files."""

import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from bpsfair.cli import main
from bpsfair.config import load_config
from bpsfair.data import load_csv
from bpsfair.errors import ConfigError, DataError
from bpsfair.losses import DenominatorMode
from bpsfair.network import NetworkConfig, init, save_model
from bpsfair.report import read_runs_csv


def write_config(path, **overrides):
    cfg = {
        "dataset": {"preset": "synthetic", "feature_dim": 3,
                    "path": str(path.parent / "synth.csv")},
        "network": {"hidden": [8], "activation": "relu", "dropout": 0.0,
                    "batch_norm": False},
        "training": {"batch_size": 64, "epochs": 3, "lr": 0.01, "seed": 3},
        "loss": {"terms": ["FNR:continuous:0.3:1"]},
        "grid": {"measures": [["FNR"]], "variants": ["continuous"], "powers": [1],
                 "alphas": [0.0, 0.3]},
        "split": {"iterations": 2, "train_fraction": 0.7, "val_fraction": 0.1,
                  "base_seed": 5},
        "synth": {"n": 600, "base_rate_g0": 0.35, "base_rate_g1": 0.5,
                  "feature_dim": 3, "noise": 0.5, "seed": 9},
    }
    for key, value in overrides.items():
        cfg[key] = value
    path.write_text(yaml.safe_dump(cfg))
    return path


@pytest.fixture
def workspace(tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml")
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "synth.csv")]) == 0
    return tmp_path


class TestSynth:
    def test_writes_dataset(self, workspace):
        lines = (workspace / "synth.csv").read_text().strip().split("\n")
        assert lines[0] == "f0,f1,f2,group,label"
        assert len(lines) == 601

    def test_seed_flag_changes_data(self, workspace):
        main(["synth", "--config", str(workspace / "cfg.yaml"),
              "--out", str(workspace / "synth2.csv"), "--seed", "77"])
        assert (workspace / "synth.csv").read_text() != (workspace / "synth2.csv").read_text()


class TestTrain:
    def test_writes_result_and_artifact(self, workspace):
        out = workspace / "train"
        code = main(["train", "--config", str(workspace / "cfg.yaml"), "--out", str(out)])
        assert code == 0
        assert (out / "model.bpsf").exists()
        assert (out / "manifest.json").exists()
        payload = json.loads((out / "run_result.json").read_text())
        assert 0.0 <= payload["accuracy"] <= 1.0
        assert payload["terms"] == ["FNR:continuous:0.3:1"]
        assert "FPR" in payload["bps"]

    def test_missing_config_is_clean_error(self, workspace, capsys):
        code = main(["train", "--config", str(workspace / "nope.yaml"),
                     "--out", str(workspace / "x")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("lr", -0.01), ("lr", 0.0), ("lr", float("nan")), ("lr", float("inf")),
        ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.5), ("beta2", float("nan")),
        ("adam_eps", 0.0), ("adam_eps", float("inf")),
    ])
    def test_bad_adam_setting_exits_2_before_training(self, workspace, capsys, field, value):
        training = {"batch_size": 64, "epochs": 3, "lr": 0.01, "seed": 3, field: value}
        cfg_path = write_config(workspace / "bad.yaml", training=training)
        out = workspace / "out"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field} must be")
        assert not out.exists()


class TestGrid:
    def test_emits_results_and_series(self, workspace):
        out = workspace / "grid"
        code = main(["grid", "--config", str(workspace / "cfg.yaml"), "--out", str(out)])
        assert code == 0
        for name in ("runs.csv", "cells.csv", "manifest.json", "series_FNR_continuous_k1.csv"):
            assert (out / name).exists()
        with open(out / "runs.csv") as fh:
            assert sum(1 for _ in fh) == 5  # header + 2 cells x 2 iterations

    def test_jobs_flag_parallel_matches_serial(self, workspace):
        serial, parallel = workspace / "g1", workspace / "g2"
        main(["grid", "--config", str(workspace / "cfg.yaml"), "--out", str(serial)])
        main(["grid", "--config", str(workspace / "cfg.yaml"), "--out", str(parallel),
              "--jobs", "2"])
        assert (serial / "runs.csv").read_bytes() == (parallel / "runs.csv").read_bytes()

    def test_jobs_env_default(self, workspace, monkeypatch):
        monkeypatch.setenv("BPSFAIR_JOBS", "2")
        from bpsfair.cli import build_parser

        args = build_parser().parse_args(
            ["grid", "--config", "c", "--out", "o"]
        )
        assert args.jobs == 2


class TestReportCommand:
    def test_rebuilds_byte_identical(self, workspace):
        out = workspace / "grid"
        main(["grid", "--config", str(workspace / "cfg.yaml"), "--out", str(out)])
        before = {
            name: (out / name).read_bytes()
            for name in ("cells.csv", "series_FNR_continuous_k1.csv")
        }
        assert main(["report", "--out", str(out)]) == 0
        for name, blob in before.items():
            assert (out / name).read_bytes() == blob

    def test_never_retrains(self, workspace):
        out = workspace / "grid"
        main(["grid", "--config", str(workspace / "cfg.yaml"), "--out", str(out)])
        runs_mtime = (out / "runs.csv").stat().st_mtime_ns
        main(["report", "--out", str(out)])
        assert (out / "runs.csv").stat().st_mtime_ns == runs_mtime

    def test_non_utf8_runs_csv_exits_2(self, workspace, capsys):
        out = workspace / "grid"
        main(["grid", "--config", str(workspace / "cfg.yaml"), "--out", str(out)])
        blob = (out / "runs.csv").read_bytes()
        (out / "runs.csv").write_bytes(blob[:40] + b"\xff" + blob[41:])
        with pytest.raises(DataError, match="byte 0xff at offset 40"):
            read_runs_csv(out / "runs.csv")
        assert main(["report", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not UTF-8" in err

    @pytest.mark.parametrize("column, value, message", [
        ("accuracy", "abc", "column 'accuracy' holds 'abc', not a number"),
        ("power", "1.5", "column 'power' holds '1.5', not an integer"),
    ])
    def test_non_numeric_runs_csv_cell_exits_2(self, workspace, capsys, column, value,
                                               message):
        out = workspace / "grid"
        main(["grid", "--config", str(workspace / "cfg.yaml"), "--out", str(out)])
        with open(out / "runs.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        rows[2][rows[0].index(column)] = value
        with open(out / "runs.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(DataError, match=f"row 1: {message}$") as exc:
            read_runs_csv(out / "runs.csv")
        assert exc.value.rows == (1,)
        assert main(["report", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {out / 'runs.csv'}: row 1: ")

    def test_runs_csv_row_longer_than_header_exits_2(self, workspace, capsys):
        out = workspace / "grid"
        main(["grid", "--config", str(workspace / "cfg.yaml"), "--out", str(out)])
        with open(out / "runs.csv", "a", encoding="utf-8") as fh:
            fh.write("FNR,continuous" + ",1" * 60 + "\n")
        with pytest.raises(DataError, match="more fields than the header"):
            read_runs_csv(out / "runs.csv")
        assert main(["report", "--out", str(out)]) == 2

    def test_missing_runs_is_error(self, workspace, capsys):
        assert main(["report", "--out", str(workspace / "empty")]) == 2
        assert "runs.csv" in capsys.readouterr().err

    def test_foreign_config_digest_rejected(self, workspace, capsys):
        out = workspace / "grid"
        main(["grid", "--config", str(workspace / "cfg.yaml"), "--out", str(out)])
        other = write_config(workspace / "other.yaml",
                             training={"batch_size": 32, "epochs": 1})
        assert main(["report", "--out", str(out), "--config", str(other)]) == 2
        assert "digest mismatch" in capsys.readouterr().err
        # the original config still works
        assert main(["report", "--out", str(out),
                     "--config", str(workspace / "cfg.yaml")]) == 0


class TestEvaluate:
    def test_prediction_dump_equal_fpr_scores_100(self, workspace, capsys):
        rows = ["y_true,y_prob,group"]
        for g in (0, 1):
            rows.append(f"0,0.9,{g}")
            rows += [f"0,0.1,{g}"] * 9
            rows += [f"1,0.8,{g}"] * 4
        dump = workspace / "dump.csv"
        dump.write_text("\n".join(rows) + "\n")
        code = main(["evaluate", "--predictions", str(dump), "--out", str(workspace / "ev")])
        assert code == 0
        with open(workspace / "ev" / "evaluation.csv") as fh:
            table = {r["measure"]: r for r in csv.DictReader(fh)}
        assert float(table["FPR"]["bps"]) == 100.0

    def test_model_artifact_round_trip(self, workspace, capsys):
        out = workspace / "train"
        main(["train", "--config", str(workspace / "cfg.yaml"), "--out", str(out)])
        code = main(["evaluate", "--model", str(out / "model.bpsf"),
                     "--dataset", str(workspace / "synth.csv")])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_malformed_prediction_dump_exits_2(self, workspace, capsys):
        dump = workspace / "dump.csv"
        dump.write_text("y_true,y_prob,group\n1,0.9,0\n0,nan,1\n0,abc,1\n")
        assert main(["evaluate", "--predictions", str(dump)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "2 unusable row(s)" in err

    def test_non_utf8_prediction_dump_exits_2(self, workspace, capsys):
        dump = workspace / "dump.csv"
        dump.write_bytes(b"y_true,y_prob,group\n1,0.9,0\n0,0.\xff,1\n")
        assert main(["evaluate", "--predictions", str(dump)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "byte 0xff at offset 32" in err

    def test_artifact_without_encoder_metadata_exits_2(self, workspace, capsys):
        # save_model's default metadata is empty: no schema, no encoder
        bare = workspace / "bare.bpsf"
        save_model(bare, init(NetworkConfig(input_dim=3, hidden=((4, "relu"),))))
        code = main(["evaluate", "--model", str(bare), "--dataset", str(workspace / "synth.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "encoder metadata" in err

    def test_needs_exactly_one_input(self, workspace, capsys):
        assert main(["evaluate"]) == 2
        assert main(["evaluate", "--predictions", "a", "--model", "b"]) == 2


class TestConfigParsing:
    def test_example_config_parses(self):
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "example.yaml")
        assert cfg.schema.sensitive == "sex"
        assert cfg.network["hidden"] == ((108, "relu"), (108, "relu"))
        assert cfg.training["batch_size"] == 256
        assert [str(t) for t in cfg.terms] == ["STP:continuous:0.8:4"]
        assert cfg.grid.powers == (4,)
        assert cfg.plan.iterations == 10
        assert cfg.table_rows == {
            "Architecture 1": {"measures": "STP", "variant": "continuous",
                               "power": 4, "alpha": 0.8}
        }

    def test_denominator_mode_parsed(self, tmp_path):
        cfg_path = write_config(tmp_path / "cfg.yaml",
                                training={"batch_size": 32, "epochs": 1,
                                          "denominator_mode": "rate"})
        cfg = load_config(cfg_path)
        assert cfg.denominator_mode is DenominatorMode.RATE

    def test_per_layer_activations(self, tmp_path):
        cfg_path = write_config(
            tmp_path / "cfg.yaml",
            network={"hidden": [108, 324], "activation": ["leaky_relu", "leaky_relu"],
                     "dropout": 0.1, "batch_norm": True},
        )
        cfg = load_config(cfg_path)
        assert cfg.network["hidden"] == ((108, "leaky_relu"), (324, "leaky_relu"))

    def test_scaled_measures(self, tmp_path):
        cfg_path = write_config(
            tmp_path / "cfg.yaml",
            grid={"measures": [["FPR", "FNR*1.25"]], "variants": ["sigmoided"],
                  "powers": [3], "alphas": [0.1]},
        )
        cfg = load_config(cfg_path)
        (template,) = cfg.grid.templates
        assert [(k.value, s) for k, s in template] == [("FPR", 1.0), ("FNR", 1.25)]

    def test_sigmoided_beta_variant(self, tmp_path):
        cfg_path = write_config(
            tmp_path / "cfg.yaml",
            grid={"measures": [["FPR"]], "variants": ["sigmoided:5.0"], "powers": [1],
                  "alphas": [0.1]},
        )
        cfg = load_config(cfg_path)
        assert cfg.grid.variants[0].beta == 5.0

    def test_continuous_beta_variant_rejected(self, tmp_path):
        # it would share runs.csv labels and series files with plain continuous
        cfg_path = write_config(
            tmp_path / "cfg.yaml",
            grid={"measures": [["FPR"]], "variants": ["continuous", "continuous:3"],
                  "powers": [1], "alphas": [0.1]},
        )
        with pytest.raises(ConfigError):
            load_config(cfg_path)

    def test_non_numeric_beta_variant_rejected(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path / "cfg.yaml",
            grid={"measures": [["FPR"]], "variants": ["sigmoided:sharp"], "powers": [1],
                  "alphas": [0.1]},
        )
        with pytest.raises(ConfigError, match="beta not numeric"):
            load_config(cfg_path)
        code = main(["grid", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("section, field, value", [
        ("training", "epochs", "many"),
        ("training", "epochs", 2.5),
        ("training", "epochs", float("inf")),
        ("training", "lr", 10**400),
        ("training", "batch_size", [64]),
        ("training", "lr", "fast"),
        ("training", "denominator_mode", "ratio"),
        ("split", "train_fraction", "most"),
        ("network", "dropout", {"rate": 0.1}),
        ("grid", "powers", ["two"]),
        ("grid", "measures", [["FPR*lots"]]),
        # bool() would read these as true
        ("network", "batch_norm", "false"),
        ("training", "keep_trace", "false"),
        ("training", "keep_trace", 1),
    ])
    def test_malformed_value_names_its_key(self, tmp_path, section, field, value):
        cfg_path = write_config(tmp_path / "cfg.yaml")
        doc = yaml.safe_load(cfg_path.read_text())
        doc[section][field] = value
        cfg_path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError, match=rf"^{section}\.{field}\b"):
            load_config(cfg_path)

    def test_train_with_malformed_epochs_exits_2(self, workspace, capsys):
        cfg_path = write_config(workspace / "bad.yaml",
                                training={"batch_size": 64, "epochs": "many"})
        code = main(["train", "--config", str(cfg_path), "--out", str(workspace / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: training.epochs must be an integer, got 'many'")

    def test_train_with_non_utf8_config_exits_2(self, workspace, capsys):
        cfg_path = workspace / "bad.yaml"
        cfg_path.write_bytes(b"network: {hidden: [4]}\n# caf\xff\n")
        with pytest.raises(ConfigError, match="byte 0xff at offset 28"):
            load_config(cfg_path)
        code = main(["train", "--config", str(cfg_path), "--out", str(workspace / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("text, where", [
        ("network: [\n", " at line 2, column 1: expected the node content"),
        ("network: {hidden: [4]}\ntraining: a: b\n", " at line 2, column 12: mapping values"),
        ("network: {hidden: [4]}\x00\n", ": unacceptable character #x0000"),
    ])
    def test_invalid_yaml_names_file_and_position(self, workspace, capsys, text, where):
        cfg_path = workspace / "bad.yaml"
        cfg_path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"{cfg_path}: not valid YAML{where}")):
            load_config(cfg_path)
        code = main(["train", "--config", str(cfg_path), "--out", str(workspace / "out")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg_path}: not valid YAML")

    def test_yaml_booleans_load(self, tmp_path):
        cfg_path = tmp_path / "cfg.yaml"
        cfg_path.write_text("network: {hidden: [4], batch_norm: yes}\n"
                            "training: {keep_trace: false}\n")
        cfg = load_config(cfg_path)
        assert cfg.network["use_batch_norm"] is True
        assert cfg.training["keep_trace"] is False

    def test_unknown_sections_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("wat: {}\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_numeric_missing_token_drops_its_rows(self, tmp_path):
        # YAML reads -1 as an int; the token must still equal the "-1" cells
        cfg_path = write_config(tmp_path / "cfg.yaml", dataset={
            "path": str(tmp_path / "toy.csv"),
            "schema": {"label": "y", "positive_label": 1, "sensitive": "g",
                       "sensitive_map": {"a": 0, "b": 1}, "continuous": ["x"],
                       "missing_token": -1},
        })
        (tmp_path / "toy.csv").write_text("x,g,y\n1,a,1\n-1,b,0\n2,b,0\n")
        cfg = load_config(cfg_path)
        assert cfg.schema.missing_token == "-1"
        table = load_csv(cfg.dataset_path, cfg.schema)
        assert table.dropped_count == 1
        np.testing.assert_array_equal(table.continuous["x"], [1.0, 2.0])

    def test_unknown_training_field_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path / "cfg.yaml",
                                training={"batch_size": 32, "learning_rate": 0.1})
        with pytest.raises(ConfigError):
            load_config(cfg_path)
