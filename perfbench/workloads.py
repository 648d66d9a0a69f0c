"""The benchmark's workloads: set-up, timed operations and output checks.

Every workload is a closed loop from one process with ``jobs=1``: an
operation starts only after the previous one ended.  A workload's
``round()`` lists the operations of one loop turn as
``(op_type, run, check, rows)``; ``run`` is the timed call into bpsfair,
``check`` validates its output afterwards (outside the timed region) and
returns an error message or None, and ``rows`` is the number of input
rows the operation processes, for the throughput metric.

The program is always called through module attributes
(``engine.run_grid``, ``data.load_csv``, ``cli.main``) so that the
tracer's recorders see the calls.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np

from bpsfair import cli, data, engine
from bpsfair.engine import GridSpec, TrainConfig
from bpsfair.losses import DenominatorMode, SoftVariant
from bpsfair.metrics import MeasureKind, bps_report
from bpsfair.network import NetworkConfig
from bpsfair.report import emit_results, file_digest, fmt, write_runs_csv

import adult_shaped

TRAIN_SEED = 7  # training and split seeds of the reproduction configs
SPLIT_SEED = 2024


def evaluation_rows(report, accuracy=None):
    """Rows ``bpsfair evaluate --out`` writes to evaluation.csv for a report."""
    gids = sorted(next(iter(report.entries.values())).group_values)
    rows = [["measure"] + [f"group{g}" for g in gids] + ["population", "bps"]]
    for kind, entry in report.entries.items():
        rows.append([kind.value] + [fmt(entry.group_values[g]) for g in gids]
                    + [fmt(entry.population_value), fmt(entry.bps)])
    if accuracy is not None:
        rows.append(["accuracy"] + [""] * len(gids) + ["", fmt(accuracy)])
    return rows


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class SameOutput:
    """Checks that every repeat of an operation produces the same digests."""

    def __init__(self):
        self.first: dict | None = None

    def check(self, digests: dict):
        if self.first is None:
            self.first = dict(digests)
            return None
        changed = sorted(k for k, v in digests.items() if self.first.get(k) != v)
        return f"output differs from the first repeat: {changed}" if changed else None


def run_cli(argv):
    """In-process ``bpsfair`` invocation; returns the exit code, stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


class GridWorkload:
    """One operation is one ``run_grid`` call over the workload's grid."""

    name = ""

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        self.same = SameOutput()

    def load_table(self, work: Path):
        raise NotImplementedError

    def setup(self, work: Path):
        self.work = work
        self.table = self.load_table(work)
        test_labels = self.table.labels[data.mc_splits(self.table.n_rows, self.plan)[0][2]]
        positive = float(test_labels.mean())
        self.majority = max(positive, 1.0 - positive)
        n_train = round(self.table.n_rows * self.plan.train_fraction)
        n_runs = len(list(self.grid.cells())) * self.grid.iterations
        self.rows_per_op = self.config.epochs * n_train * n_runs

    def round(self):
        return [("grid", self.run_grid, self.check, self.rows_per_op)]

    def run_grid(self):
        return engine.run_grid(self.table, self.config, self.grid, self.plan, jobs=1)

    def check(self, result):
        diverged = sum(c.n_diverged for c in result.cells)
        if diverged:
            return f"{diverged} training run(s) diverged"
        out = self.work / "grid_out"
        emit_results(result, out)
        error = self.same.check({f: file_digest(out / f) for f in ("runs.csv", "cells.csv")})
        if error:
            return error
        baseline = min(c.means["accuracy"] for c in result.cells if c.key.alpha == 0.0)
        if not baseline > self.majority:
            return f"alpha=0 test accuracy {baseline:.4f} <= majority rate {self.majority:.4f}"
        return None

    def digests(self):
        return self.same.first or {}


class SynthGrid(GridWorkload):
    """Criterion-6 grid shape: FPR term, powers {1,3} x alphas 0..1, 6->16->16->1."""

    name = "synth_grid"

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.n_rows = 1_200 if tiny else 6_000
        self.plan = data.SplitPlan(iterations=8, train_fraction=0.7, val_fraction=0.1,
                                   base_seed=SPLIT_SEED)
        self.config = TrainConfig(
            network=NetworkConfig(input_dim=6, hidden=((16, "relu"), (16, "relu")), seed=0),
            batch_size=128, epochs=5 if tiny else 30, lr=0.005, seed=TRAIN_SEED,
            denominator_mode=DenominatorMode.RATE,
        )
        self.grid = GridSpec(templates=[[("FPR", 1.0)]], variants=[SoftVariant.continuous()],
                             powers=[1, 3], alphas=[round(0.1 * i, 1) for i in range(11)],
                             iterations=1)

    def load_table(self, work):
        table = data.synthesize_biased(n=self.n_rows, base_rate_g0=0.34, base_rate_g1=0.46,
                                       group_fraction=0.5, feature_dim=6, noise=1.0,
                                       seed=self.seed)
        path = work / "synth.csv"
        data.write_csv(table, path)
        return data.load_csv(path, data.synthetic_preset(6))


def adult_rows(tiny: bool):
    """(raw, kept) row counts of the Adult-shaped file at the chosen size."""
    if not tiny:
        return adult_shaped.RAW_ROWS, adult_shaped.KEPT_ROWS
    raw = 4_000
    return raw, raw - round(raw * (adult_shaped.RAW_ROWS - adult_shaped.KEPT_ROWS)
                             / adult_shaped.RAW_ROWS)


ARCH2_NETWORK = dict(hidden=((108, "leaky_relu"), (324, "leaky_relu")), dropout_rate=0.1,
                     use_batch_norm=True, seed=0)


class AdultArch2(GridWorkload):
    """The adult_arch2_fprfnr config on Adult-shaped data, one iteration, few epochs."""

    name = "adult_arch2"
    EPOCHS = 2

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.plan = data.SplitPlan(iterations=10, train_fraction=0.7, val_fraction=0.1,
                                   base_seed=SPLIT_SEED)
        # input_dim is resolved per split by run_grid
        self.config = TrainConfig(
            network=NetworkConfig(input_dim=1, **ARCH2_NETWORK),
            batch_size=256, epochs=3 if tiny else self.EPOCHS, lr=0.001, seed=TRAIN_SEED,
            denominator_mode=DenominatorMode.RATE,
        )
        self.grid = GridSpec(templates=[[("FPR", 1.0), ("FNR", 1.25)]],
                             variants=[SoftVariant.sigmoided(10.0)], powers=[3],
                             alphas=[0.0, 0.1], iterations=1)

    def load_table(self, work):
        raw, kept = adult_rows(self.tiny)
        path = work / "adult.csv"
        adult_shaped.write_adult_csv(path, self.seed, raw_rows=raw, kept_rows=kept)
        table = data.load_csv(path, data.adult_preset())
        if table.n_rows != kept:
            raise RuntimeError(f"load_csv kept {table.n_rows} rows, expected {kept}")
        return table


def synthetic_runs_rows(seed: int):
    """Rows shaped like the full synthetic_curves grid's runs.csv (1,056 runs)."""
    rng = np.random.default_rng((seed, 3))
    kinds = [k.value.lower() for k in MeasureKind]
    rows = []
    for measures, n_terms in (("FPR", 1), ("FNR", 1), ("FPR+FNR", 2)):
        for power in (1, 2, 3, 4):
            for alpha in [round(0.1 * i, 1) for i in range(11)]:
                for it in range(8):
                    row = {"measures": measures, "variant": "continuous", "beta": 1.0,
                           "power": power, "alpha": alpha, "iteration": it,
                           "seed": TRAIN_SEED + it, "diverged": False,
                           "divergence_epoch": None}
                    if rng.random() < 0.005:
                        row.update(diverged=True, divergence_epoch=int(rng.integers(1, 30)))
                        rows.append(row)
                        continue
                    row.update(accuracy=rng.uniform(0.6, 0.75), bce=rng.uniform(0.5, 0.7),
                               best_epoch=int(rng.integers(1, 31)))
                    for kind in kinds:
                        row[f"bps_{kind}"] = rng.uniform(40.0, 100.0)
                        row[f"{kind}_g0"] = rng.uniform(0.05, 0.95)
                        row[f"{kind}_g1"] = rng.uniform(0.05, 0.95)
                    for t in range(n_terms):
                        row[f"term{t}_loss"] = rng.uniform(0.0, 0.3) ** power
                        row[f"term{t}_soft_bps"] = rng.uniform(0.6, 1.0)
                    rows.append(row)
    return rows


class IngestReport:
    """No training: CSV load+encode, report rebuild, and both evaluate modes."""

    name = "ingest_report"
    # Repeats per round, chosen so each operation type takes a similar share of
    # a round's time and a regression in any one of them moves the round time.
    REPEATS = {"load_encode": 1, "report": 8, "evaluate_dump": 16, "evaluate_model": 1}

    def __init__(self, seed, tiny):
        self.seed = seed
        self.tiny = tiny
        self.raw_rows, self.kept_rows = adult_rows(tiny)
        self.same = {op: SameOutput() for op in self.REPEATS}

    def setup(self, work: Path):
        self.work = work
        self.csv = work / "adult.csv"
        adult_shaped.write_adult_csv(self.csv, self.seed, self.raw_rows, self.kept_rows)

        self.report_dir = work / "report"
        self.report_dir.mkdir()
        self.runs_rows = synthetic_runs_rows(self.seed)
        write_runs_csv(self.runs_rows, self.report_dir / "runs.csv")

        self.dump = work / "dump.csv"
        y_true, y_prob, group = adult_shaped.write_prediction_dump(
            self.dump, self.kept_rows, self.seed)
        self.dump_expected = evaluation_rows(
            bps_report((y_prob >= 0.5).astype(np.int64), y_true, group))

        # A short-trained arch2 artifact from the CLI, on the first 6,000 raw rows.
        train_csv = work / "adult_train.csv"
        with open(self.csv, encoding="utf-8") as src:
            head = [next(src) for _ in range(min(6_001, self.raw_rows + 1))]
        train_csv.write_text("".join(head), encoding="utf-8")
        config = {
            "dataset": {"preset": "adult", "path": str(train_csv)},
            "network": {"hidden": [108, 324], "activation": "leaky_relu", "dropout": 0.1,
                        "batch_norm": True},
            "training": {"batch_size": 256, "epochs": 1, "lr": 0.001, "seed": TRAIN_SEED,
                         "denominator_mode": "rate"},
            "split": {"iterations": 1, "train_fraction": 0.7, "val_fraction": 0.1,
                      "base_seed": SPLIT_SEED},
        }
        config_path = work / "arch2.yaml"
        config_path.write_text(json.dumps(config), encoding="utf-8")  # JSON is YAML
        model_dir = work / "model"
        code = run_cli(["train", "--config", config_path, "--out", model_dir])
        if code != 0:
            raise RuntimeError(f"bpsfair train exited with {code}")
        self.model = model_dir / "model.bpsf"

    def round(self):
        ops = {
            "load_encode": (self.load_encode, self.check_load_encode, self.raw_rows),
            "report": (self.report, self.check_report, len(self.runs_rows)),
            "evaluate_dump": (self.evaluate_dump, self.check_evaluate_dump, self.kept_rows),
            "evaluate_model": (self.evaluate_model, self.check_evaluate_model, self.raw_rows),
        }
        return [(op, *ops[op]) for op, n in self.REPEATS.items() for _ in range(n)]

    def load_encode(self):
        table = data.load_csv(self.csv, data.adult_preset())
        encoder = data.fit_encoder(table)
        return table, data.apply_encoder(table, encoder)

    def check_load_encode(self, out):
        table, dataset = out
        if table.n_rows != self.kept_rows or table.dropped_count != self.raw_rows - self.kept_rows:
            return f"load_csv kept {table.n_rows} and dropped {table.dropped_count} rows"
        if dataset.X.shape[0] != self.kept_rows or not np.isfinite(dataset.X).all():
            return f"encoded matrix has shape {dataset.X.shape} or non-finite values"
        return self.same["load_encode"].check(
            {"encoded_X": hashlib.sha256(dataset.X.tobytes()).hexdigest()})

    def report(self):
        return run_cli(["report", "--out", self.report_dir])

    def check_report(self, code):
        if code != 0:
            return f"bpsfair report exited with {code}"
        return self.same["report"].check({"cells.csv": file_digest(self.report_dir / "cells.csv")})

    def evaluate_dump(self):
        return run_cli(["evaluate", "--predictions", self.dump, "--out", self.work / "dump_eval"])

    def check_evaluate_dump(self, code):
        if code != 0:
            return f"bpsfair evaluate --predictions exited with {code}"
        rows = read_rows(self.work / "dump_eval" / "evaluation.csv")
        if rows != self.dump_expected:
            return "evaluate --predictions disagrees with bps_report on the same arrays"
        return None

    def evaluate_model(self):
        return run_cli(["evaluate", "--model", self.model, "--dataset", self.csv,
                        "--out", self.work / "model_eval"])

    def check_evaluate_model(self, code):
        if code != 0:
            return f"bpsfair evaluate --model exited with {code}"
        rows = read_rows(self.work / "model_eval" / "evaluation.csv")
        if len(rows) != len(MeasureKind) + 2 or rows[-1][0] != "accuracy":
            return "evaluate --model wrote a malformed evaluation.csv"
        return self.same["evaluate_model"].check(
            {"evaluation.csv": file_digest(self.work / "model_eval" / "evaluation.csv")})

    def digests(self):
        out = {}
        for op, same in self.same.items():
            out.update({f"{op}:{k}": v for k, v in (same.first or {}).items()})
        return out


WORKLOADS = {cls.name: cls for cls in (SynthGrid, AdultArch2, IngestReport)}
