"""Results emission: runs/cells CSVs, plot series, and comparison tables."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from bpsfair.data import SplitPlan, synthesize_biased
from bpsfair.engine import GridSpec, TrainConfig, run_grid
from bpsfair.errors import ConfigError
from bpsfair.losses import SoftVariant
from bpsfair.metrics import bps_binary
from bpsfair.network import NetworkConfig
from bpsfair.report import (
    cells_from_runs,
    emit_comparison_tables,
    emit_plot_series,
    emit_results,
    fmt,
    literature_constants,
    read_runs_csv,
    runs_table_from_grid,
    write_cells_csv,
    write_manifest,
    write_runs_csv,
)

RUNS_HEADER_PREFIX = [
    "measures", "variant", "beta", "power", "alpha", "iteration", "seed",
    "diverged", "divergence_epoch", "accuracy", "bce", "best_epoch",
    "bps_fpr", "bps_fnr", "bps_tpr", "bps_tnr", "bps_acc", "bps_stp",
]


@pytest.fixture(scope="module")
def grid_result():
    table = synthesize_biased(n=400, base_rate_g0=0.35, base_rate_g1=0.5,
                              feature_dim=3, noise=0.4, seed=41)
    plan = SplitPlan(iterations=2, train_fraction=0.7, val_fraction=0.1, base_seed=41)
    base = TrainConfig(
        network=NetworkConfig(input_dim=3, hidden=((6, "relu"),), seed=0),
        batch_size=64, epochs=4, lr=0.01, seed=11,
    )
    grid = GridSpec(templates=[[("STP", 1.0)]], variants=[SoftVariant.continuous()],
                    powers=[1], alphas=[0.0, 0.5])
    return run_grid(table, base, grid, plan)


class TestFmt:
    def test_six_significant_digits(self):
        assert fmt(0.8451234567) == "0.845123"
        assert fmt(123456.789) == "123457"
        assert fmt(1.0) == "1"
        assert fmt(None) == ""
        assert fmt(float("nan")) == ""
        assert fmt(True) == "1"
        assert fmt(7) == "7"
        assert fmt("FPR") == "FPR"


class TestRunsCsv:
    def test_row_count_and_header(self, grid_result, tmp_path):
        rows = emit_results(grid_result, tmp_path)
        with open(tmp_path / "runs.csv") as fh:
            lines = fh.read().strip().split("\n")
        assert len(lines) == 1 + 4  # header + 2 cells x 2 iterations
        header = lines[0].split(",")
        assert header[: len(RUNS_HEADER_PREFIX)] == RUNS_HEADER_PREFIX
        assert len(rows) == 4

    def test_round_trip_preserves_values(self, grid_result, tmp_path):
        rows = runs_table_from_grid(grid_result)
        write_runs_csv(rows, tmp_path / "runs.csv")
        back = read_runs_csv(tmp_path / "runs.csv")
        assert len(back) == len(rows)
        for orig, parsed in zip(rows, back):
            assert parsed["measures"] == orig["measures"]
            assert parsed["alpha"] == orig["alpha"]
            assert parsed["accuracy"] == pytest.approx(orig["accuracy"], rel=1e-5)

    def test_emission_is_byte_stable(self, grid_result, tmp_path):
        emit_results(grid_result, tmp_path / "a")
        emit_results(grid_result, tmp_path / "b")
        for name in ("runs.csv", "cells.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestCellsCsv:
    def test_means_match_recomputation_from_runs(self, grid_result, tmp_path):
        emit_results(grid_result, tmp_path)
        stored = read_runs_csv(tmp_path / "runs.csv")
        with open(tmp_path / "cells.csv") as fh:
            cells = list(csv.DictReader(fh))
        for cell in cells:
            members = [
                r for r in stored
                if r["measures"] == cell["measures"] and r["alpha"] == float(cell["alpha"])
                and r["power"] == int(cell["power"])
            ]
            accs = [r["accuracy"] for r in members if not r["diverged"]]
            assert float(cell["mean_accuracy"]) == pytest.approx(np.mean(accs), rel=1e-5)
            expected_var = np.var(accs, ddof=1) if len(accs) > 1 else 0.0
            assert float(cell["var_accuracy"]) == pytest.approx(expected_var, rel=1e-4, abs=1e-12)

    def test_rebuild_from_stored_runs_is_byte_identical(self, grid_result, tmp_path):
        emit_results(grid_result, tmp_path)
        first = (tmp_path / "cells.csv").read_bytes()
        stored = read_runs_csv(tmp_path / "runs.csv")
        write_cells_csv(cells_from_runs(stored), tmp_path / "cells.csv")
        assert (tmp_path / "cells.csv").read_bytes() == first

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            write_cells_csv([], tmp_path / "cells.csv")


class TestPlotSeries:
    def test_alpha_ascending_and_scaling(self, grid_result, tmp_path):
        rows = emit_results(grid_result, tmp_path)
        cells = cells_from_runs(rows)
        paths = emit_plot_series(cells, tmp_path)
        assert len(paths) == 1
        with open(paths[0]) as fh:
            series = list(csv.DictReader(fh))
        alphas = [float(r["alpha"]) for r in series]
        assert alphas == sorted(alphas)
        assert alphas[0] == 0.0
        for cell, row in zip(sorted(cells, key=lambda c: c["alpha"]), series):
            assert float(row["accuracy_x100"]) == pytest.approx(
                100 * cell["mean_accuracy"], rel=1e-4
            )
            assert float(row["bps_stp"]) == pytest.approx(cell["mean_bps_stp"], rel=1e-4)

    def test_accuracy_scaling_convention(self):
        cells = [{
            "measures": "STP", "variant": "continuous", "beta": 1.0, "power": 1,
            "alpha": 0.0, "n_runs": 1, "n_diverged": 0,
            "mean_accuracy": 0.845, "var_accuracy": 0.0,
            "mean_bce": 0.4, "var_bce": 0.0, "mean_best_epoch": 3.0, "var_best_epoch": 0.0,
            **{f"mean_bps_{m}": 50.0 for m in ("fpr", "fnr", "tpr", "tnr", "acc", "stp")},
            **{f"var_bps_{m}": 0.0 for m in ("fpr", "fnr", "tpr", "tnr", "acc", "stp")},
        }]
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            (path,) = emit_plot_series(cells, tmp)
            with open(path) as fh:
                row = next(csv.DictReader(fh))
        assert row["accuracy_x100"] == "84.5"

    def test_empty_cells_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            emit_plot_series([], tmp_path)


class TestComparisonTables:
    def test_tables_include_literature_and_run_rows(self, grid_result, tmp_path):
        rows = emit_results(grid_result, tmp_path)
        cells = cells_from_runs(rows)
        emit_comparison_tables(cells, tmp_path, {"Architecture 1": {"alpha": 0.5}})
        with open(tmp_path / "prule_table.csv") as fh:
            prule = list(csv.DictReader(fh))
        techniques = [r["technique"] for r in prule]
        assert "Krasanakis et al. 2018" in techniques
        assert "Baseline" in techniques
        assert "Architecture 1" in techniques
        lit_rows = [r for r in prule if r["source"] == "literature"]
        assert len(lit_rows) == len(literature_constants()["prule"])

    def test_bps_column_consistent_with_group_values(self, grid_result, tmp_path):
        rows = emit_results(grid_result, tmp_path)
        cells = cells_from_runs(rows)
        emit_comparison_tables(cells, tmp_path, {"Arch": {"alpha": 0.5}})
        with open(tmp_path / "error_rate_table.csv") as fh:
            table = list(csv.DictReader(fh))
        ours = [r for r in table if r["source"] == "this run"]
        assert len(ours) == 2  # FPR and FNR rows
        for row in ours:
            recomputed = bps_binary(float(row["group0_with"]), float(row["group1_with"]))
            assert abs(recomputed - float(row["bps"])) < 0.1

    def test_without_column_comes_from_baseline_cell(self, grid_result, tmp_path):
        rows = emit_results(grid_result, tmp_path)
        cells = cells_from_runs(rows)
        baseline = next(c for c in cells if c["alpha"] == 0.0)
        emit_comparison_tables(cells, tmp_path, {"Arch": {"alpha": 0.5}})
        with open(tmp_path / "error_rate_table.csv") as fh:
            table = list(csv.DictReader(fh))
        fpr_row = next(r for r in table if r["source"] == "this run" and r["measure"] == "FPR")
        assert float(fpr_row["group0_without"]) == pytest.approx(
            baseline["mean_fpr_g0"], rel=1e-4
        )

    def test_baseline_and_same_seeds_required(self, grid_result, tmp_path):
        rows = emit_results(grid_result, tmp_path)
        cells = [c for c in cells_from_runs(rows) if c["alpha"] != 0.0]
        with pytest.raises(ConfigError):
            emit_comparison_tables(cells, tmp_path, {"Arch": {"alpha": 0.5}})
        # both cells trained from the same per-iteration seeds
        stored = read_runs_csv(tmp_path / "runs.csv")
        seeds = {}
        for r in stored:
            seeds.setdefault(r["alpha"], set()).add(r["seed"])
        assert seeds[0.0] == seeds[0.5]

    @pytest.mark.parametrize("selector", [{"measures_label": "STP", "alpha": 0.5}, {"alpha": 0.7}],
                             ids=["unknown-field", "no-match"])
    def test_selector_errors(self, grid_result, tmp_path, selector):
        rows = emit_results(grid_result, tmp_path)
        with pytest.raises(ConfigError):
            emit_comparison_tables(cells_from_runs(rows), tmp_path, {"Arch": selector})

    def test_ambiguous_selector_rejected(self, grid_result, tmp_path):
        rows = emit_results(grid_result, tmp_path)
        cells = cells_from_runs(rows)
        with pytest.raises(ConfigError):
            emit_comparison_tables(cells, tmp_path, {"Arch": {"measures": "STP"}})


class TestManifest:
    def test_digests_recorded(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("grid: {}\n")
        data = tmp_path / "d.csv"
        data.write_text("a,b\n1,2\n")
        path = write_manifest(tmp_path, config_path=cfg, dataset_path=data,
                              grid_spec={"alphas": [0.0]}, version="0.1.0")
        manifest = json.loads(Path(path).read_text())
        assert len(manifest["config_digest"]) == 64
        assert len(manifest["dataset_digest"]) == 64
        assert manifest["tool_version"] == "0.1.0"
        assert manifest["grid_spec"] == {"alphas": [0.0]}
