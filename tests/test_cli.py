"""CLI contract: commands, flags, exit codes, and emitted files."""

import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from bpsfair import cli, engine
from bpsfair.cli import main
from bpsfair.config import load_config
from bpsfair.data import load_csv
from bpsfair.engine import select_cell
from bpsfair.errors import ConfigError, DataError
from bpsfair.losses import DenominatorMode
from bpsfair.network import NetworkConfig, init, load_model, save_model
from bpsfair.report import file_digest, read_runs_csv
from conftest import stored_cells, write_adult_shaped_csv


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


def no_dataset_read(*args):
    raise AssertionError("the dataset was read")


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

    @pytest.mark.parametrize("synth, message", [
        ({"n": "abc"}, "error: synth.n must be a positive integer, got 'abc'"),
        ({"n": 50, "seeed": 3}, "error: unknown [synth] fields ['seeed']"),
    ])
    def test_malformed_block_exits_2(self, workspace, capsys, synth, message):
        cfg_path = write_config(workspace / "bad.yaml", synth=synth)
        out = workspace / "bad.csv"
        assert main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_defaults_fill_missing_fields(self, workspace):
        cfg_path = write_config(workspace / "short.yaml", synth={"n": 40, "seed": 9},
                                dataset={"preset": "synthetic", "path": "s.csv"})
        assert main(["synth", "--config", str(cfg_path), "--out", str(workspace / "s.csv")]) == 0
        lines = (workspace / "s.csv").read_text().strip().split("\n")
        assert lines[0] == "f0,f1,f2,f3,f4,f5,group,label"  # feature_dim 6
        assert len(lines) == 41


# the "bps" block of run_result.json for the workspace config, as written when each
# rendering of a BpsReport walked its entries on its own
TRAIN_BPS = {
    "FPR": {"group_values": {"0": 0.05128205128205128, "1": 0.5666666666666667},
            "population_value": 0.2753623188405797, "bps": 9.049773755656108,
            "undefined_groups": []},
    "FNR": {"group_values": {"0": 0.29411764705882354, "1": 0.08823529411764706},
            "population_value": 0.1568627450980392, "bps": 30.0, "undefined_groups": []},
    "TPR": {"group_values": {"0": 0.7058823529411765, "1": 0.9117647058823529},
            "population_value": 0.8431372549019608, "bps": 77.41935483870968,
            "undefined_groups": []},
    "TNR": {"group_values": {"0": 0.9487179487179487, "1": 0.43333333333333335},
            "population_value": 0.7246376811594203, "bps": 45.67567567567568,
            "undefined_groups": []},
    "ACC": {"group_values": {"0": 0.875, "1": 0.6875}, "population_value": 0.775,
            "bps": 78.57142857142857, "undefined_groups": []},
    "STP": {"group_values": {"0": 0.25, "1": 0.75}, "population_value": 0.5166666666666667,
            "bps": 33.333333333333336, "undefined_groups": []},
}


# the whole run_result.json of the workspace config with training.keep_trace, as written
# while a trained run and an evaluation were two records
TRAIN_RESULT = {
    "accuracy": 0.775, "bce": 0.47237472171447586, "best_epoch": 3, "seed": 3,
    "terms": ["FNR:continuous:0.3:1"], "denominator_mode": "as_written", "bps": TRAIN_BPS,
    "per_term": [{"term": "FNR:continuous:0.3:1", "soft_bps": 0.48793478530975487,
                  "loss": 0.5120652146902451, "skipped": False}],
    "trace": [{"epoch": 1, "train_loss": 0.8024851747221697, "val_accuracy": 0.4},
              {"epoch": 2, "train_loss": 0.6655455930990372, "val_accuracy": 0.6666666666666666},
              {"epoch": 3, "train_loss": 0.5776015184168155, "val_accuracy": 0.7333333333333333}],
}


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

    def test_bps_block_pinned(self, workspace):
        out = workspace / "train"
        assert main(["train", "--config", str(workspace / "cfg.yaml"), "--out", str(out)]) == 0
        bps = json.loads((out / "run_result.json").read_text())["bps"]
        # compared as JSON text, so the key order is pinned too
        assert json.dumps(bps) == json.dumps(TRAIN_BPS)

    def test_run_result_pinned(self, workspace):
        training = {"batch_size": 64, "epochs": 3, "lr": 0.01, "seed": 3, "keep_trace": True}
        cfg = write_config(workspace / "trace.yaml", training=training)
        out = workspace / "train"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        # compared as the file's text, so the key order and the layout are pinned too
        assert (out / "run_result.json").read_text() == json.dumps(TRAIN_RESULT, indent=2) + "\n"

    def test_seed_flag_overrides_config_seed(self, workspace):
        for flag, seed in (([], 3), (["--seed", "11"], 11)):
            out = workspace / f"train{seed}"
            assert main(["train", "--config", str(workspace / "cfg.yaml"), "--out", str(out),
                         *flag]) == 0
            assert json.loads((out / "run_result.json").read_text())["seed"] == seed

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
        assert capsys.readouterr().err.startswith(f"error: training.{field} must be")
        assert not out.exists()


@pytest.mark.parametrize("command, overrides, flags, key", [
    ("train", {"network": {"hidden": [8], "seed": -1}}, [], "network.seed"),
    ("train", {"training": {"epochs": 1, "seed": -3}}, [], "training.seed"),
    ("grid", {"split": {"iterations": 2, "base_seed": -5}}, [], "split.base_seed"),
    ("synth", {"synth": {"n": 600, "seed": -1}}, [], "synth.seed"),
    ("train", {}, ["--seed", "-2"], "seed"),
    ("grid", {}, ["--seed", "-2"], "seed"),
    ("synth", {}, ["--seed", "-2"], "seed"),
], ids=["network.seed", "training.seed", "split.base_seed", "synth.seed", "train--seed",
        "grid--seed", "synth--seed"])
def test_negative_seed_exits_2_without_writing(workspace, capsys, monkeypatch, command, overrides,
                                               flags, key):
    # numpy's generators take no negative seed: these ended in a ValueError traceback
    monkeypatch.setattr(cli, "load_csv", no_dataset_read)
    cfg = write_config(workspace / "neg.yaml", **overrides)
    out = workspace / ("neg.csv" if command == "synth" else "neg_out")
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 2
    assert re.match(rf"error: {re.escape(key)} must be a non-negative integer, got -\d\n",
                    capsys.readouterr().err)
    assert not out.exists()


# (command, section, key, value): each was refused only after the dataset was read, named no
# config key, or was not refused at all
OUT_OF_RANGE = [
    ("grid", "grid", "alphas", [0, float("nan")]),
    ("grid", "grid", "alphas", [0, float("inf")]),
    ("grid", "grid", "measures", [["FNR*nan"]]),
    ("grid", "grid", "measures", [["FNR*-1"]]),
    ("grid", "grid", "powers", [0, 1]),
    ("train", "loss", "terms", ["FPR:continuous:nan:1"]),
    ("synth", "synth", "noise", float("nan")),
    ("synth", "synth", "seed", -1),
    ("train", "training", "epochs", 0),
    ("train", "training", "batch_size", 0),
    ("train", "training", "seed", -3),
    ("train", "network", "dropout", 1.5),
    ("train", "split", "val_fraction", 1.0),
    # cells that collide in runs.csv's key columns
    ("grid", "grid", "alphas", [0.0, 0.5, 0.5]),
    ("grid", "grid", "alphas", [0.0, 0.5, 0.5000001]),
    ("grid", "grid", "powers", [1, 2, 1]),
    ("grid", "grid", "variants", ["continuous", "sigmoided:2", "sigmoided:2.0000001"]),
    ("grid", "grid", "measures", [["FNR"], "FNR"]),
    # each in range, but a cell's term weight alpha * scale overflows to inf
    ("grid", "grid", "alphas", [0, 1e200], {"measures": ["FPR*1e200"]}),
    # an empty measure set trained BCE only at every alpha and wrote series__continuous_k1.csv
    ("grid", "grid", "measures", [[]], {"alphas": [0, 0.5]}),
]
OUT_OF_RANGE = [case if len(case) == 5 else (*case, {}) for case in OUT_OF_RANGE]


@pytest.mark.parametrize("command, section, key, value, also", OUT_OF_RANGE,
                         ids=[f"{s}.{k}={v}" for _, s, k, v, _ in OUT_OF_RANGE])
def test_out_of_range_value_exits_2_at_load(workspace, capsys, monkeypatch, command, section,
                                           key, value, also):
    doc = yaml.safe_load(write_config(workspace / "bad.yaml").read_text())
    doc[section].update({key: value, **also})
    cfg = workspace / "bad.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    monkeypatch.setattr(cli, "load_csv", no_dataset_read)
    out = workspace / ("bad.csv" if command == "synth" else "bad_out")
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {section}.{key}")
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "train", "grid"])
@pytest.mark.parametrize("dataset_dim, synth_dim", [(3, 6), (3, None), (None, 3)],
                         ids=["both-given", "synth-default", "dataset-default"])
def test_feature_dim_mismatch_exits_2_at_load(workspace, capsys, monkeypatch, command,
                                              dataset_dim, synth_dim):
    # `synth` wrote f0..f5 and `train` and `grid` read f0..f2 of it; both defaults are 6
    doc = yaml.safe_load(write_config(workspace / "dims.yaml").read_text())
    for section, dim in (("dataset", dataset_dim), ("synth", synth_dim)):
        if dim is None:
            del doc[section]["feature_dim"]
        else:
            doc[section]["feature_dim"] = dim
    cfg = workspace / "dims.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    monkeypatch.setattr(cli, "load_csv", no_dataset_read)
    out = workspace / ("dims.csv" if command == "synth" else "dims_out")
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: dataset.feature_dim {dataset_dim or 6} and synth.feature_dim {synth_dim or 6} "
        "must agree")
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "report", "train", "grid"])
@pytest.mark.parametrize("overrides, message", [
    ({"network": {"hidden": [4], "activation": "tanh"}},
     "network.activation must be one of ['relu', 'leaky_relu'], got 'tanh'"),
    ({"network": {"hidden": [4], "batch_norm": True}, "training": {"batch_size": 1}},
     "training.batch_size must be at least 2 when network.batch_norm is true, got 1"),
    ({"network": {"hidden": [4, 4], "activation": ["relu"]}},
     "network.activation must name one activation per network.hidden width, got 1 for 2"),
], ids=["activation", "batch-norm-batch", "activation-count"])
def test_bad_network_exits_2_before_reading_the_dataset(workspace, capsys, monkeypatch, command,
                                                        overrides, message):
    # load_config builds the run's TrainConfig, so every command meets these checks before
    # the data is read; batch norm with one-row batches was once refused by train and grid only
    cfg = write_config(workspace / "bad.yaml", **overrides)
    monkeypatch.setattr(cli, "load_csv", no_dataset_read)
    out = workspace / ("bad.csv" if command == "synth" else "bad_out")
    if command == "report":  # it rebuilds the derived files of a results directory
        out.mkdir()
        (out / "runs.csv").write_text("measures,variant,beta,power,alpha,iteration,seed,diverged,"
                                      "accuracy\nFPR,continuous,1,1,0,0,7,0,0.5\n")
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    if command == "report":
        assert [path.name for path in out.iterdir()] == ["runs.csv"]
    else:
        assert not out.exists()


@pytest.mark.parametrize("command", ["train", "grid"])
@pytest.mark.parametrize("text, line", [
    ("network: {hidden: [4]}\ntraining: {epochs: 0}\ntraining: {epochs: 1}\n",
     "line 5, column 1: duplicate key 'training', first given at line 4"),
    ("network: {hidden: [4], hidden: [0]}\n",
     "line 3, column 24: duplicate key 'hidden', first given at line 3"),
], ids=["section", "nested-key"])
def test_repeated_key_exits_2_before_reading_the_dataset(workspace, capsys, monkeypatch, command,
                                                         text, line):
    # yaml.safe_load keeps the last of two equal keys: the first block was dropped unread
    cfg = workspace / "repeated.yaml"
    cfg.write_text("dataset: {preset: synthetic, feature_dim: 3, path: synth.csv}\ngrid: {}\n"
                   + text, encoding="utf-8")
    monkeypatch.setattr(cli, "load_csv", no_dataset_read)
    out = workspace / "repeated_out"
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: not valid YAML at {line}\n"
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

    def test_jobs_below_one_exits_2(self, workspace, capsys):
        out = workspace / "g0"
        code = main(["grid", "--config", str(workspace / "cfg.yaml"), "--out", str(out),
                     "--jobs", "0"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: jobs must be a positive integer")
        assert not out.exists()

    def test_jobs_env_default(self, workspace, monkeypatch):
        monkeypatch.setenv("BPSFAIR_JOBS", "2")
        real_run_grid, seen = cli.run_grid, []

        def run_grid(*args, jobs):
            seen.append(jobs)
            return real_run_grid(*args, jobs=jobs)

        monkeypatch.setattr(cli, "run_grid", run_grid)
        assert main(["grid", "--config", str(workspace / "cfg.yaml"),
                     "--out", str(workspace / "g")]) == 0
        assert seen == [2]

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5", " "])
    def test_malformed_jobs_env_exits_2(self, workspace, capsys, monkeypatch, value):
        # these values used to run the grid serially, as if the variable were unset
        monkeypatch.setenv("BPSFAIR_JOBS", value)
        out = workspace / "g"
        assert main(["grid", "--config", str(workspace / "cfg.yaml"), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: BPSFAIR_JOBS must be a positive integer, got {value!r}\n")
        assert not out.exists()

    def test_jobs_resolution(self, monkeypatch):
        monkeypatch.delenv("BPSFAIR_JOBS", raising=False)
        assert cli._jobs(None) == 1
        monkeypatch.setenv("BPSFAIR_JOBS", "")
        assert cli._jobs(None) == 1
        monkeypatch.setenv("BPSFAIR_JOBS", "3")
        assert cli._jobs(None) == 3
        monkeypatch.setenv("BPSFAIR_JOBS", "abc")
        assert cli._jobs(2) == 2  # the flag wins and the variable is not read

    def test_malformed_jobs_env_leaves_other_commands_alone(self, workspace, monkeypatch):
        monkeypatch.setenv("BPSFAIR_JOBS", "abc")
        assert cli.build_parser().parse_args(["grid", "--config", "c", "--out", "o"]).jobs is None
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert main(["synth", "--config", str(workspace / "cfg.yaml"),
                     "--out", str(workspace / "again.csv")]) == 0

    @pytest.mark.parametrize("command", [[], ["train"], ["grid"], ["evaluate"], ["report"],
                                         ["synth"]], ids=lambda c: c[0] if c else "bpsfair")
    def test_one_parser_prints_the_help_a_fresh_one_prints(self, command, capsys):
        def printed(parse):
            with pytest.raises(SystemExit) as exc:
                parse(command + ["--help"])
            assert exc.value.code == 0
            return capsys.readouterr().out

        assert cli.build_parser() is cli.build_parser()  # built once per process
        fresh = printed(cli.build_parser.__wrapped__().parse_args)
        assert fresh.startswith("usage: bpsfair") and "--help" in fresh
        assert printed(main) == fresh
        # parsing a command's arguments leaves nothing behind in the shared parser
        cli.build_parser().parse_args(["grid", "--config", "c", "--out", "o", "--jobs", "3"])
        assert printed(main) == fresh

    @pytest.mark.parametrize("overrides, message", [
        ({"report": {"tables": [{"label": "x", "alpha": 0.7}]}}, "matched 0 cells"),
        ({"report": {"tables": [{"label": "x", "measures": "FNR"}]}}, "matched 2 cells"),
        ({"report": {"tables": [{"label": "x", "alpha": 0.3}]},
          "grid": {"measures": [["FNR"]], "powers": [1], "alphas": [0.3, 0.5]}},
         "comparison tables need an alpha=0 baseline cell"),
        ({"report": {"plot_measures": ["FPR"]}},
         "report.plot_measures ['FPR'] name no measure set of the cells"),
    ])
    def test_unwritable_report_refused_before_training(self, workspace, capsys, monkeypatch,
                                                       overrides, message):
        # the grid used to train every model and write runs.csv before it refused these
        def refuse(*args, **kwargs):
            raise AssertionError("run_grid was entered")

        monkeypatch.setattr(cli, "run_grid", refuse)
        cfg, out = write_config(workspace / "bad.yaml", **overrides), workspace / "g"
        assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "runs.csv").exists()
        assert not out.exists()

    def test_out_that_cannot_be_created_refused_before_training(self, workspace, capsys,
                                                                monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("run_grid was entered")

        monkeypatch.setattr(cli, "run_grid", refuse)
        out = workspace / "taken"
        out.write_text("a file, not a directory")
        assert main(["grid", "--config", str(workspace / "cfg.yaml"), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: --out {out}: cannot create the results directory")

    def test_selector_matches_alpha_as_runs_csv_stores_it(self, workspace, capsys):
        # runs.csv keeps 6 significant digits: alpha 0.3333333 is stored, and reported, as 0.333333
        grid = {"measures": [["FNR"]], "variants": ["continuous"], "powers": [1],
                "alphas": [0.0, 0.3333333]}
        refused = write_config(workspace / "full.yaml", grid=grid,
                               report={"tables": [{"label": "x", "alpha": 0.3333333}]})
        out = workspace / "refused"
        assert main(["grid", "--config", str(refused), "--out", str(out)]) == 2
        assert "matched 0 cells" in capsys.readouterr().err
        assert not out.exists()
        accepted = write_config(workspace / "stored.yaml", grid=grid,
                                report={"tables": [{"label": "x", "alpha": 0.333333}]})
        out = workspace / "accepted"
        assert main(["grid", "--config", str(accepted), "--out", str(out)]) == 0
        assert "0.333333" in (out / "cells.csv").read_text()
        assert (out / "prule_table.csv").exists()
        assert main(["report", "--out", str(out), "--config", str(accepted)]) == 0


ADULT_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("adult_*.yaml"))


@pytest.fixture(scope="module")
def adult_shaped_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("adult") / "adult.csv"
    write_adult_shaped_csv(path, 4_000, seed=3)
    return path


@pytest.mark.parametrize("config", ADULT_CONFIGS, ids=lambda p: p.stem)
def test_committed_adult_config_runs(tmp_path, adult_shaped_csv, config, monkeypatch):
    # the file Adult criteria 1-4 run, cut to one epoch and one iteration; so cut, a stack
    # shards only once its work counts as heavy at any size
    assert len(ADULT_CONFIGS) == 4
    monkeypatch.setattr(engine, "SHARD_MIN_WORK", 0)
    doc = yaml.safe_load(config.read_text(encoding="utf-8"))
    doc["training"]["epochs"] = 1
    doc["split"]["iterations"] = 1
    cfg = tmp_path / config.name
    cfg.write_text(yaml.safe_dump(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["grid", "--config", str(cfg), "--dataset", str(adult_shaped_csv),
                 "--out", str(out)]) == 0
    for name in ("runs.csv", "cells.csv", "prule_table.csv", "error_rate_table.csv",
                 "manifest.json"):
        assert (out / name).exists()
    assert list(out.glob("series_*.csv"))
    # the manifest records what set the speed: a stack of two models splits over idle CPUs,
    # one worker process per shard and job, each with BLAS held to one thread
    speed = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["speed"]
    assert set(speed) == {"python", "numpy", "blas", "usable_cpus", "jobs", "workers",
                          "blas_threads_per_worker", "shards_per_stack", "blas_thread_pin"}
    shards = min(2, speed["usable_cpus"] // speed["jobs"]) if speed["blas_thread_pin"] else 1
    assert speed["shards_per_stack"] == [max(shards, 1)]
    assert speed["workers"] == max(1, min(speed["usable_cpus"], speed["jobs"] * max(shards, 1)))
    assert speed["blas_threads_per_worker"] == (1 if speed["blas_thread_pin"] else None)
    # criteria 1-4's selection, without their thresholds: the baseline and the table's cell
    cells = stored_cells(out)
    (row,) = doc["report"]["tables"]
    for alpha in (0.0, row["alpha"]):
        cell = select_cell(cells, {"alpha": alpha})
        assert cell["n_runs"] == 1
        for name in ("accuracy", "bps_stp", "bps_fpr", "bps_fnr", "fpr_g0", "fpr_g1"):
            assert np.isfinite(cell[f"mean_{name}"]), (alpha, name)
    # `report --config` rebuilds every derived file, the tables included, from runs.csv alone
    rebuilt = tmp_path / "rebuilt"
    rebuilt.mkdir()
    for name in ("runs.csv", "manifest.json"):
        (rebuilt / name).write_bytes((out / name).read_bytes())
    assert main(["report", "--out", str(rebuilt), "--config", str(cfg)]) == 0
    assert {path.name: path.read_bytes() for path in rebuilt.iterdir()} == {
        path.name: path.read_bytes() for path in out.iterdir()}


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
        # int() takes it, and the float64 statistics block cannot hold it
        ("best_epoch", "1" + "0" * 400,
         "column 'best_epoch' holds an integer beyond the float64 range"),
    ])
    def test_non_numeric_runs_csv_cell_exits_2(self, workspace, capsys, column, value,
                                               message):
        out = workspace / "grid"
        main(["grid", "--config", str(workspace / "cfg.yaml"), "--out", str(out)])
        cells = (out / "cells.csv").read_bytes()
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
        assert (out / "cells.csv").read_bytes() == cells

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
        cells = (out / "cells.csv").read_bytes()
        runs = (out / "runs.csv").read_text().splitlines(keepends=True)
        (out / "runs.csv").write_text("".join(runs[:-1]))
        assert main(["report", "--out", str(out), "--config", str(other)]) == 2
        assert "digest mismatch" in capsys.readouterr().err
        # the refused report rewrote no derived file: cells.csv used to follow runs.csv
        assert (out / "cells.csv").read_bytes() == cells
        # the original config still works
        assert main(["report", "--out", str(out),
                     "--config", str(workspace / "cfg.yaml")]) == 0

    def test_unmatched_table_selector_rewrites_nothing(self, workspace, capsys):
        # cells.csv and the plot series used to be rebuilt, and prule_table.csv
        # rewritten, before the selector was refused
        out, cfg = workspace / "grid", workspace / "tables.yaml"
        write_config(cfg, report={"tables": [{"label": "x", "alpha": 0.3}]})
        assert main(["grid", "--config", str(cfg), "--out", str(out)]) == 0
        runs = (out / "runs.csv").read_text().splitlines(keepends=True)
        (out / "runs.csv").write_text("".join(runs[:-1]))
        write_config(cfg, report={"tables": [{"label": "x", "alpha": 0.7}]})
        manifest = json.loads((out / "manifest.json").read_text())
        (out / "manifest.json").write_text(json.dumps({**manifest,
                                                       "config_digest": file_digest(cfg)}))
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert {"cells.csv", "prule_table.csv", "error_rate_table.csv"} <= set(before)
        capsys.readouterr()
        assert main(["report", "--out", str(out), "--config", str(cfg)]) == 2
        assert "matched 0 cells" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize("blob, problem", [
        (b"{not json", "not valid JSON: Expecting property name enclosed in double quotes"),
        (b'{"config_digest": "\xff"}', "not UTF-8 text: byte 0xff at offset 19"),
        (b"[1, 2]", "not a JSON object"),
    ])
    def test_corrupt_manifest_exits_2(self, workspace, capsys, blob, problem):
        # a manifest that did not parse used to end in a JSONDecodeError traceback
        out = workspace / "grid"
        main(["grid", "--config", str(workspace / "cfg.yaml"), "--out", str(out)])
        (out / "manifest.json").write_bytes(blob)
        capsys.readouterr()
        assert main(["report", "--out", str(out), "--config", str(workspace / "cfg.yaml")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {out / 'manifest.json'}: {problem}")


# (dump rows, stdout, evaluation.csv) of `evaluate --predictions`: both show every group under
# its id and the population value; undefined values print as undef and are blank in the CSV
EVALUATE_PINS = [
    ("0,0.9,0 0,0.2,0 1,0.8,0 1,0.3,0 0,0.1,1 0,0.7,1 0,0.6,1 1,0.9,1 "
     "1,0.4,2 0,0.2,2 1,0.55,2 0,0.51,2 1,0.05,2",
     "measure  group0    group1    group2  population      bps\n"
     "FPR         0.5  0.666667       0.5    0.571429  86.9048\n"
     "FNR         0.5         0  0.666667         0.5  58.3333\n"
     "TPR         0.5         1  0.333333         0.5  72.2222\n"
     "TNR         0.5  0.333333       0.5    0.428571  83.0688\n"
     "ACC         0.5       0.5       0.4    0.461538  90.4274\n"
     "STP         0.5      0.75       0.4    0.538462  79.6459\n",
     "measure,group0,group1,group2,population,bps\r\n"
     "FPR,0.5,0.666667,0.5,0.571429,86.9048\r\n"
     "FNR,0.5,0,0.666667,0.5,58.3333\r\n"
     "TPR,0.5,1,0.333333,0.5,72.2222\r\n"
     "TNR,0.5,0.333333,0.5,0.428571,83.0688\r\n"
     "ACC,0.5,0.5,0.4,0.461538,90.4274\r\n"
     "STP,0.5,0.75,0.4,0.538462,79.6459\r\n"),
    # group 1 has no positive label: its FNR and TPR are undefined, and so is their BPS
    ("0,0.9,0 0,0.2,0 1,0.8,0 1,0.3,0 0,0.1,1 0,0.7,1 0,0.6,1",
     "measure  group0    group1  population      bps\n"
     "FPR         0.5  0.666667         0.6       75\n"
     "FNR         0.5     undef         0.5    undef\n"
     "TPR         0.5     undef         0.5    undef\n"
     "TNR         0.5  0.333333         0.4  66.6667\n"
     "ACC         0.5  0.333333    0.428571  66.6667\n"
     "STP         0.5  0.666667    0.571429       75\n",
     "measure,group0,group1,population,bps\r\n"
     "FPR,0.5,0.666667,0.6,75\r\n"
     "FNR,0.5,,0.5,\r\n"
     "TPR,0.5,,0.5,\r\n"
     "TNR,0.5,0.333333,0.4,66.6667\r\n"
     "ACC,0.5,0.333333,0.428571,66.6667\r\n"
     "STP,0.5,0.666667,0.571429,75\r\n"),
    ("0,0.9,4 1,0.8,4 1,0.3,4",
     "measure    group4  population    bps\n"
     "FPR             1           1  undef\n"
     "FNR           0.5         0.5  undef\n"
     "TPR           0.5         0.5  undef\n"
     "TNR             0           0  undef\n"
     "ACC      0.333333    0.333333  undef\n"
     "STP      0.666667    0.666667  undef\n",
     "measure,group4,population,bps\r\n"
     "FPR,1,1,\r\n"
     "FNR,0.5,0.5,\r\n"
     "TPR,0.5,0.5,\r\n"
     "TNR,0,0,\r\n"
     "ACC,0.333333,0.333333,\r\n"
     "STP,0.666667,0.666667,\r\n"),
]


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

    @pytest.mark.parametrize("rows, stdout, table", EVALUATE_PINS, ids=["3-group", "undefined",
                                                                        "1-group"])
    def test_prediction_dump_output_pinned(self, workspace, capsys, rows, stdout, table):
        dump = workspace / "dump.csv"
        dump.write_text("y_true,y_prob,group\n" + "".join(f"{r}\n" for r in rows.split()))
        capsys.readouterr()
        assert main(["evaluate", "--predictions", str(dump), "--out", str(workspace / "ev")]) == 0
        assert capsys.readouterr().out == stdout
        assert (workspace / "ev" / "evaluation.csv").read_bytes() == table.encode()

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

    def test_artifact_schema_with_unknown_key_exits_2(self, workspace, capsys):
        out = workspace / "train"
        main(["train", "--config", str(workspace / "cfg.yaml"), "--out", str(out)])
        state, metadata = load_model(out / "model.bpsf")
        metadata["schema"]["categorial"] = ["f0"]
        save_model(workspace / "typo.bpsf", state, metadata)
        capsys.readouterr()
        code = main(["evaluate", "--model", str(workspace / "typo.bpsf"),
                     "--dataset", str(workspace / "synth.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {workspace / 'typo.bpsf'}: no usable schema and encoder metadata "
            "(unknown [dataset.schema] fields ['categorial'])")

    def test_artifact_encoder_with_unknown_key_exits_2(self, workspace, capsys):
        out = workspace / "train"
        main(["train", "--config", str(workspace / "cfg.yaml"), "--out", str(out)])
        state, metadata = load_model(out / "model.bpsf")
        metadata["encoder"]["mean"] = {"f0": 0.0}
        save_model(workspace / "typo.bpsf", state, metadata)
        capsys.readouterr()
        code = main(["evaluate", "--model", str(workspace / "typo.bpsf"),
                     "--dataset", str(workspace / "synth.csv"), "--out", str(workspace / "ev")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {workspace / 'typo.bpsf'}: no usable schema and encoder metadata "
            "(unknown [encoder] fields ['mean'])")
        assert not (workspace / "ev").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_model_with_non_finite_output_exits_2(self, workspace, capsys):
        out = workspace / "train"
        main(["train", "--config", str(workspace / "cfg.yaml"), "--out", str(out)])
        state, metadata = load_model(out / "model.bpsf")
        state.weights[0][...] = 1e308  # finite weights whose forward overflows
        save_model(workspace / "overflow.bpsf", state, metadata)
        capsys.readouterr()
        code = main(["evaluate", "--model", str(workspace / "overflow.bpsf"),
                     "--dataset", str(workspace / "synth.csv")])
        assert code == 2
        assert re.match(r"error: model output is not finite on \d+ of 600 rows",
                        capsys.readouterr().err)

    def test_needs_exactly_one_input(self, workspace, capsys):
        assert main(["evaluate"]) == 2
        assert main(["evaluate", "--predictions", "a", "--model", "b"]) == 2

    def test_dataset_refused_with_a_prediction_dump(self, workspace, capsys):
        dump = workspace / "dump.csv"
        dump.write_text("y_true,y_prob,group\n1,0.9,0\n0,0.2,1\n")
        capsys.readouterr()
        code = main(["evaluate", "--predictions", str(dump), "--dataset",
                     str(workspace / "missing.csv"), "--out", str(workspace / "ev")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --dataset goes with --model only")
        assert not (workspace / "ev").exists()


class TestConfigParsing:
    def test_example_config_parses(self):
        cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "example.yaml")
        assert cfg.schema.sensitive == "sex"
        assert cfg.train.network.hidden == ((108, "relu"), (108, "relu"))
        assert cfg.train.batch_size == 256
        assert [str(t) for t in cfg.train.terms] == ["STP:continuous:0.8:4"]
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
        assert cfg.train.denominator_mode is DenominatorMode.RATE

    def test_per_layer_activations(self, tmp_path):
        cfg_path = write_config(
            tmp_path / "cfg.yaml",
            network={"hidden": [108, 324], "activation": ["leaky_relu", "leaky_relu"],
                     "dropout": 0.1, "batch_norm": True},
        )
        cfg = load_config(cfg_path)
        assert cfg.train.network.hidden == ((108, "leaky_relu"), (324, "leaky_relu"))

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
        with pytest.raises(ConfigError, match=re.escape(
                "grid.variants 'sigmoided:sharp' beta must be a finite positive number, "
                "got 'sharp'")):
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
        ("synth", "n", "abc"),
        ("synth", "noise", "loud"),
        ("synth", "seed", 2.5),
        # int(True) is 1: `epochs: yes` trained one epoch
        ("training", "epochs", True),
        ("synth", "noise", False),
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
        assert err.startswith("error: training.epochs must be a positive integer, got 'many'")

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
        assert cfg.train.network.use_batch_norm is True
        assert cfg.train.keep_trace is False

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

    def test_numeric_label_column_is_read_as_text(self, tmp_path):
        # YAML reads `label: 1` as an int; the header's "1" column must still match it
        rows = [f"{i % 2},{i / 40:.3f},{'ab'[i % 3 % 2]}" for i in range(40)]
        (tmp_path / "num.csv").write_text("\n".join(["1,x,g", *rows]) + "\n")
        cfg_path = write_config(tmp_path / "cfg.yaml", dataset={
            "path": str(tmp_path / "num.csv"),
            "schema": {"label": 1, "positive_label": 1, "sensitive": "g",
                       "sensitive_map": {"a": 0, "b": 1}, "continuous": ["x"]},
        })
        assert load_config(cfg_path).schema.label == "1"
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "model.bpsf").exists()

    @pytest.mark.parametrize("key, value, message", [
        # int(0.7) is 0: Female was put in group 0
        ("sensitive_map", {"a": 0.7, "b": 1},
         "dataset.schema.sensitive_map.a must be an integer, got 0.7"),
        # str([1]) is "[1]": refused only once the CSV was read
        ("positive_label", [1], "dataset.schema.positive_label must be a string or number"),
        ("label", None, "dataset.schema.label must be a string or number, got None"),
        ("label_aliases", {"x": {"y": 1}}, "dataset.schema.label_aliases.x must be a string"),
        # YAML reads an unquoted yes as true, whose text "True" matched no label in the CSV
        ("positive_label", True, "dataset.schema.positive_label must be a string or number, "
         "got True (quote yes/no/true/false)"),
        ("sensitive_map", {True: 1}, "dataset.schema.sensitive_map key must be a string or "
         "number, got True (quote yes/no/true/false)"),
    ], ids=["sensitive_map-fraction", "positive_label-list", "label-null", "label_aliases-mapping",
            "positive_label-yes", "sensitive_map-key-yes"])
    def test_malformed_schema_value_names_its_key(self, tmp_path, capsys, key, value, message):
        schema = {"label": "y", "positive_label": "1", "sensitive": "g",
                  "sensitive_map": {"a": 0, "b": 1}, "continuous": ["x"], key: value}
        cfg_path = write_config(tmp_path / "cfg.yaml",
                                dataset={"path": str(tmp_path / "none.csv"), "schema": schema})
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            load_config(cfg_path)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()

    def test_synth_block_typed(self, tmp_path):
        cfg_path = write_config(tmp_path / "cfg.yaml", synth={"n": 600.0, "noise": 1},
                                dataset={"preset": "synthetic", "path": "synth.csv"})
        synth = load_config(cfg_path).synth
        assert synth == {"n": 600, "noise": 1.0}
        assert type(synth["n"]) is int and type(synth["noise"]) is float

    def test_unknown_synth_field_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path / "cfg.yaml", synth={"n": 600, "seeed": 3})
        with pytest.raises(ConfigError, match=re.escape("unknown [synth] fields ['seeed']")):
            load_config(cfg_path)

    def test_unknown_training_field_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path / "cfg.yaml",
                                training={"batch_size": 32, "learning_rate": 0.1})
        with pytest.raises(ConfigError):
            load_config(cfg_path)
