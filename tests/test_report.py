"""Results emission: runs/cells CSVs, plot series, and comparison tables."""

import csv
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpsfair.data import SplitPlan, not_utf8_error, synthesize_biased
from bpsfair.engine import (
    CELL_FIELDS,
    RUN_FIELDS,
    GridSpec,
    TrainConfig,
    mean_and_variance,
    run_grid,
    scalar_columns,
)
from bpsfair.errors import ConfigError, DataError
from bpsfair.losses import SoftVariant
from bpsfair.metrics import bps_binary
from bpsfair.network import NetworkConfig
from bpsfair.report import (
    cells_from_runs,
    comparison_cells,
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

    def test_every_type_formats_as_the_isinstance_rules(self):
        class Label(str):
            pass

        class Count(int):
            pass

        values = [None, "", "x", Label("y"), True, False, np.bool_(True), 0, -7, Count(5),
                  10 ** 30, np.int64(-3), np.int32(4), np.uint8(200), 0.0, -0.0, 1e-310,
                  123456.5, math.inf, -math.inf, math.nan, np.float64(-0.0), np.float64(2.5e-7),
                  np.float32(0.1), np.float32(math.nan), np.float16(3.0)]
        assert [fmt(v) for v in values] == [oracle_fmt(v) for v in values]


class TestRunsCsv:
    def test_row_count_and_header(self, grid_result, tmp_path):
        cells = emit_results(grid_result, tmp_path)
        with open(tmp_path / "runs.csv") as fh:
            lines = fh.read().strip().split("\n")
        assert len(lines) == 1 + 4  # header + 2 cells x 2 iterations
        header = lines[0].split(",")
        assert header[: len(RUNS_HEADER_PREFIX)] == RUNS_HEADER_PREFIX
        assert [c["n_runs"] for c in cells] == [2, 2]

    def test_round_trip_preserves_values(self, grid_result, tmp_path):
        rows = runs_table_from_grid(grid_result)
        write_runs_csv(rows, tmp_path / "runs.csv")
        back = read_runs_csv(tmp_path / "runs.csv")
        assert all(len(column) == len(rows) for column in back.values())
        for r, orig in enumerate(rows):
            assert back["measures"][r] == orig["measures"]
            assert back["alpha"][r] == orig["alpha"]
            assert back["accuracy"][r] == pytest.approx(orig["accuracy"], rel=1e-5)

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
        runs = [dict(zip(stored, values)) for values in zip(*stored.values())]
        for cell in cells:
            members = [
                r for r in runs
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
        cells = emit_results(grid_result, tmp_path)
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
        cells = emit_results(grid_result, tmp_path)
        tables = comparison_cells(cells, {"Architecture 1": {"alpha": 0.5}})
        emit_comparison_tables(tables, tmp_path)
        with open(tmp_path / "prule_table.csv") as fh:
            prule = list(csv.DictReader(fh))
        techniques = [r["technique"] for r in prule]
        assert "Krasanakis et al. 2018" in techniques
        assert "Baseline" in techniques
        assert "Architecture 1" in techniques
        lit_rows = [r for r in prule if r["source"] == "literature"]
        assert len(lit_rows) == len(literature_constants()["prule"])

    def test_bps_column_consistent_with_group_values(self, grid_result, tmp_path):
        cells = emit_results(grid_result, tmp_path)
        emit_comparison_tables(comparison_cells(cells, {"Arch": {"alpha": 0.5}}), tmp_path)
        with open(tmp_path / "error_rate_table.csv") as fh:
            table = list(csv.DictReader(fh))
        ours = [r for r in table if r["source"] == "this run"]
        assert len(ours) == 2  # FPR and FNR rows
        for row in ours:
            recomputed = bps_binary(float(row["group0_with"]), float(row["group1_with"]))
            assert abs(recomputed - float(row["bps"])) < 0.1

    def test_without_column_comes_from_baseline_cell(self, grid_result, tmp_path):
        cells = emit_results(grid_result, tmp_path)
        baseline = next(c for c in cells if c["alpha"] == 0.0)
        emit_comparison_tables(comparison_cells(cells, {"Arch": {"alpha": 0.5}}), tmp_path)
        with open(tmp_path / "error_rate_table.csv") as fh:
            table = list(csv.DictReader(fh))
        fpr_row = next(r for r in table if r["source"] == "this run" and r["measure"] == "FPR")
        assert float(fpr_row["group0_without"]) == pytest.approx(
            baseline["mean_fpr_g0"], rel=1e-4
        )

    def test_baseline_and_same_seeds_required(self, grid_result, tmp_path):
        cells = [c for c in emit_results(grid_result, tmp_path) if c["alpha"] != 0.0]
        with pytest.raises(ConfigError):
            comparison_cells(cells, {"Arch": {"alpha": 0.5}})
        # both cells trained from the same per-iteration seeds
        stored = read_runs_csv(tmp_path / "runs.csv")
        seeds = {}
        for alpha, seed in zip(stored["alpha"], stored["seed"]):
            seeds.setdefault(alpha, set()).add(seed)
        assert seeds[0.0] == seeds[0.5]

    @pytest.mark.parametrize("selector", [{"measures_label": "STP", "alpha": 0.5}, {"alpha": 0.7}],
                             ids=["unknown-field", "no-match"])
    def test_selector_errors(self, grid_result, tmp_path, selector):
        cells = emit_results(grid_result, tmp_path)
        with pytest.raises(ConfigError):
            comparison_cells(cells, {"Arch": selector})

    def test_ambiguous_selector_rejected(self, grid_result, tmp_path):
        cells = emit_results(grid_result, tmp_path)
        with pytest.raises(ConfigError):
            comparison_cells(cells, {"Arch": {"measures": "STP"}})


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


# The row-at-a-time report path that the column-at-a-time one replaced: the
# oracle of TestColumnarMatchesRowByRow.
def oracle_fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return ""
    return f"{v:.6g}"


def oracle_max_terms(rows) -> int:
    best = 0
    for row in rows:
        i = 0
        while f"term{i}_loss" in row:
            i += 1
        best = max(best, i)
    return best


def oracle_write_runs_csv(rows, path):
    columns = RUN_FIELDS + scalar_columns(oracle_max_terms(rows))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([oracle_fmt(row.get(c)) for c in columns])


def oracle_read_runs_csv(path):
    int_fields = {"power", "iteration", "seed", "best_epoch", "divergence_epoch"}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or ()
            records = list(reader)
    except UnicodeDecodeError:
        raise not_utf8_error(path) from None
    missing = [c for c in CELL_FIELDS + ("diverged",) if c not in header]
    if missing:
        raise DataError(f"{path}: the header has no {missing} column(s)")
    rows = []
    for row_no, raw in enumerate(records):
        if None in raw:
            raise DataError(f"{path}: row {row_no}: more fields than the header", rows=[row_no])
        if None in raw.values():
            raise DataError(f"{path}: row {row_no}: fewer fields than the header", rows=[row_no])
        row = {}
        for key, val in raw.items():
            if key in ("measures", "variant"):
                row[key] = val
            elif key == "diverged":
                if val not in ("0", "1"):
                    raise DataError(f"{path}: row {row_no}: column 'diverged' holds {val!r}, "
                                    "not 0 or 1", rows=[row_no])
                row[key] = val == "1"
            elif val == "" and key in CELL_FIELDS:
                raise DataError(f"{path}: row {row_no}: column {key!r} is blank", rows=[row_no])
            elif val == "":
                row[key] = None if key in int_fields else float("nan")
            else:
                kind = int if key in int_fields else float
                try:
                    row[key] = kind(val)
                except ValueError:
                    raise DataError(f"{path}: row {row_no}: column {key!r} holds {val!r}, not "
                                    f"{'an integer' if kind is int else 'a number'}",
                                    rows=[row_no]) from None
        rows.append(row)
    return rows


def oracle_cell_statistics(rows, columns):
    ok = [row for row in rows if not row["diverged"]]
    columns = tuple(columns)
    block = np.array([list(map(row.get, columns)) for row in ok], dtype=np.float64)
    block = np.ascontiguousarray(block.reshape(len(ok), len(columns)).T)
    holes = np.isnan(block).any(axis=1)
    if len(ok) > 1:
        means, variances = block.mean(axis=1).tolist(), block.var(axis=1, ddof=1).tolist()
    else:
        means, variances = block.sum(axis=1).tolist(), [0.0] * len(columns)
        holes |= not ok
    for j in np.flatnonzero(holes).tolist():
        means[j], variances[j] = mean_and_variance(block[j])
    return dict(zip(columns, means)), dict(zip(columns, variances)), len(ok), len(rows) - len(ok)


def oracle_cells_from_runs(rows):
    groups: dict = {}
    for row in rows:
        groups.setdefault(tuple(row[f] for f in CELL_FIELDS), []).append(row)
    columns = scalar_columns(oracle_max_terms(rows))
    cells = []
    for key in sorted(groups):
        means, variances, n_ok, n_diverged = oracle_cell_statistics(groups[key], columns)
        cell = dict(zip(CELL_FIELDS, key), n_runs=n_ok, n_diverged=n_diverged)
        for col in columns:
            cell[f"mean_{col}"], cell[f"var_{col}"] = means[col], variances[col]
        cells.append(cell)
    return cells


def oracle_write_cells_csv(cells, path):
    stat_cols = [c for c in cells[0] if c not in CELL_FIELDS + ("n_runs", "n_diverged")]
    columns = [*CELL_FIELDS, "n_runs", "n_diverged", *stat_cols]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for cell in cells:
            writer.writerow([oracle_fmt(cell.get(c)) for c in columns])


def oracle_emit_plot_series(cells, out):
    series: dict = {}
    for cell in cells:
        series.setdefault(
            (cell["measures"], cell["variant"], cell["beta"], cell["power"]), []
        ).append(cell)
    bps_cols = [f"mean_{c}" for c in scalar_columns(0) if c.startswith("bps_")]
    for (meas, variant, beta, power), cell_list in sorted(series.items()):
        cell_list.sort(key=lambda c: c["alpha"])
        term_cols = sorted(c[len("mean_"):] for c in cell_list[0]
                           if c.startswith("mean_term") and c.endswith("_loss"))
        header = (["alpha"] + [c[5:] for c in bps_cols] + ["accuracy_x100", "bce_x100"]
                  + [f"{t}_x100" for t in term_cols] + [f"var_{c[5:]}" for c in bps_cols]
                  + ["var_accuracy", "var_bce"])
        tag = variant if variant != "sigmoided" or beta in (None, 1.0) else f"{variant}-b{beta:g}"
        name = f"series_{meas.replace('*', 'x')}_{tag}_k{power}.csv"
        with open(Path(out) / name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for cell in cell_list:
                row = [oracle_fmt(cell["alpha"])]
                row += [oracle_fmt(cell[c]) for c in bps_cols]
                row += [oracle_fmt(100.0 * cell["mean_accuracy"]),
                        oracle_fmt(100.0 * cell["mean_bce"])]
                row += [oracle_fmt(100.0 * cell[f"mean_{t}"]) for t in term_cols]
                row += [oracle_fmt(cell[f"var_{c[5:]}"]) for c in bps_cols]
                row += [oracle_fmt(cell["var_accuracy"]), oracle_fmt(cell["var_bce"])]
                writer.writerow(row)


def bits(value):
    """A value with each float replaced by its IEEE bytes, so -0.0 and NaN payloads count."""
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    if isinstance(value, list):
        return [bits(v) for v in value]
    return struct.pack("<d", value) if type(value) is float else value


def outcome(read, path):
    """What a runs.csv reader makes of ``path``: its rows, or its DataError."""
    try:
        rows = read(path)
    except DataError as exc:
        return "DataError", str(exc), exc.rows
    if isinstance(rows, dict):  # the column table, as rows
        rows = [dict(zip(rows, values)) for values in zip(*rows.values())]
    return "rows", bits(rows)


SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300, 0.1234565, 123456.5]


@st.composite
def run_rows(draw):
    """Rows as runs_table_from_grid gives them, over a few cells of 1-8 iterations.

    A fifth of the runs diverged (blank scalars); a fifth of the scalars are
    special values, and some are numpy floats rather than Python ones.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        columns = scalar_columns(int(rng.integers(0, 4)))
        fields = {
            "measures": str(rng.choice(["FPR", "FNR", "FPR+FNR", "STPx2+FPR", "ACC"])),
            "variant": str(rng.choice(["continuous", "sigmoided"])),
            "beta": float(rng.choice([1.0, 2.0, 10.0, 0.5])),
            "power": int(rng.integers(1, 5)),
            "alpha": float(rng.choice([0.0, 0.1, 0.25, 1.0, 2.5, -0.0])),
        }
        for iteration in range(int(rng.integers(1, 9))):
            row = {**fields, "iteration": iteration, "seed": 7 + iteration}
            if rng.random() < 0.2:
                row.update(diverged=True, divergence_epoch=int(rng.integers(1, 31)))
            else:
                values = rng.uniform(-2.0, 2.0, len(columns)) * 10.0 ** rng.integers(-8, 8)
                special = rng.random(len(columns)) < 0.2
                values[special] = rng.choice(SPECIAL, special.sum())
                row.update(diverged=False, divergence_epoch=None)
                row.update(zip(columns, values.tolist() if rng.random() < 0.5 else values))
                row["best_epoch"] = float(rng.integers(1, 31))
            rows.append(row)
    return rows


@st.composite
def malformed(draw, text):
    """``text`` with 1-3 edits of its data rows: an extra or a missing field, a blank
    cell field, an unparsable number, a diverged flag other than 0 or 1 or a blank line,
    each at a random position."""
    lines = text.split("\r\n")
    header = lines[0].split(",")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.sampled_from([i for i, line in enumerate(lines) if i and line]))
        cells = lines[i].split(",")
        action = draw(st.sampled_from(["extra", "missing", "blank", "number", "diverged",
                                       "line"]))
        if action == "line":
            lines.insert(i, "")
        elif action == "extra":
            cells.insert(draw(st.integers(0, len(cells))), draw(st.sampled_from(["", "1", "x"])))
        elif action == "missing":
            del cells[draw(st.integers(0, len(cells) - 1))]
        elif action == "blank":
            j = header.index(draw(st.sampled_from(CELL_FIELDS)))
            cells[min(j, len(cells) - 1)] = ""
        elif action == "diverged":
            cells[min(header.index("diverged"), len(cells) - 1)] = draw(
                st.sampled_from(["", "yes", "true", "2", "01", "1.0"]))
        else:
            cells[draw(st.integers(0, len(cells) - 1))] = draw(
                st.sampled_from(["abc", "1.5", "1e", " ", "0x1", "--1", "1_0", "nan"]))
        if action != "line":
            lines[i] = ",".join(cells)
    return "\r\n".join(lines)


class TestColumnarMatchesRowByRow:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf, inf * inf
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(rows=run_rows(), data=st.data())
    def test_same_bytes_and_errors_as_the_row_path(self, rows, data):
        with tempfile.TemporaryDirectory() as tmp:
            new, old = Path(tmp, "new"), Path(tmp, "old")
            new.mkdir()
            old.mkdir()
            write_runs_csv(rows, new / "runs.csv")
            oracle_write_runs_csv(rows, old / "runs.csv")
            assert (new / "runs.csv").read_bytes() == (old / "runs.csv").read_bytes()

            cells = cells_from_runs(read_runs_csv(new / "runs.csv"))
            expected = oracle_cells_from_runs(oracle_read_runs_csv(old / "runs.csv"))
            assert bits(cells) == bits(expected)  # every mean and variance bit
            write_cells_csv(cells, new / "cells.csv")
            oracle_write_cells_csv(expected, old / "cells.csv")
            emit_plot_series(cells, new)
            oracle_emit_plot_series(expected, old)
            written = sorted(path.name for path in new.iterdir())
            assert written == sorted(path.name for path in old.iterdir())
            for name in written:
                assert (new / name).read_bytes() == (old / name).read_bytes(), name

            bad = Path(tmp, "bad.csv")
            text = (old / "runs.csv").read_bytes().decode("utf-8")
            bad.write_bytes(data.draw(malformed(text)).encode("utf-8"))
            assert outcome(read_runs_csv, bad) == outcome(oracle_read_runs_csv, bad)

    @pytest.mark.parametrize("flag", ["", "yes", "true", "2", "-0", " 1"])
    def test_diverged_flag_other_than_0_or_1_refused(self, flag, tmp_path):
        # read as not diverged, such a run would count in its cell's means
        path = tmp_path / "runs.csv"
        header = ",".join(RUN_FIELDS + ("accuracy",))
        path.write_text(f"{header}\nFPR,continuous,1,1,0,0,7,0,,0.5\n"
                        f"FPR,continuous,1,1,0,1,8,{flag},,0.9\n", encoding="utf-8")
        with pytest.raises(DataError) as exc:
            read_runs_csv(path)
        assert str(exc.value) == f"{path}: row 1: column 'diverged' holds {flag!r}, not 0 or 1"
        assert exc.value.rows == (1,)
        assert outcome(read_runs_csv, path) == outcome(oracle_read_runs_csv, path)

    def test_repeated_header_name_takes_its_last_column(self, tmp_path):
        path = tmp_path / "runs.csv"
        header = ",".join(RUN_FIELDS + ("accuracy", "accuracy"))
        path.write_text(f"{header}\nFPR,continuous,1,1,0,0,7,0,,abc,0.5\n", encoding="utf-8")
        assert outcome(read_runs_csv, path) == outcome(oracle_read_runs_csv, path)
        assert read_runs_csv(path)["accuracy"] == [0.5]
