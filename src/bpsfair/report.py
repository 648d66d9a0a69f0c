"""Results persistence: runs.csv, cells.csv, plot series, comparison tables.

Everything here is a pure transformation of stored run rows, laid out
by ``engine``'s run/cell schema.  Numeric output uses a fixed
6-significant-digit format so emitted files are byte-for-byte
reproducible from the same results.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from datetime import datetime, timezone
from importlib import resources as importlib_resources
from pathlib import Path

import numpy as np

from .data import not_utf8_error
from .engine import (
    CELL_FIELDS,
    RUN_FIELDS,
    GridResult,
    cell_statistics,
    run_scalars,
    scalar_columns,
    select_cell,
)
from .errors import ConfigError, DataError
from .metrics import bps_binary

__all__ = [
    "runs_table_from_grid",
    "write_runs_csv",
    "read_runs_csv",
    "cells_from_runs",
    "write_cells_csv",
    "emit_results",
    "emit_plot_series",
    "emit_comparison_tables",
    "write_manifest",
    "literature_constants",
    "file_digest",
    "fmt",
]


def fmt(value) -> str:
    """Fixed formatting: 6 significant digits, empty for missing."""
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


def runs_table_from_grid(result: GridResult):
    """Flatten a GridResult into per-run row dicts."""
    rows = []
    for cell in result.cells:
        fields = cell.key.fields()
        for run in cell.runs:
            rows.append({**fields, "iteration": run.iteration, "seed": run.seed,
                         "diverged": run.diverged, "divergence_epoch": run.divergence_epoch,
                         **run_scalars(run)})
    return rows


def _max_terms(rows) -> int:
    best = 0
    for row in rows:
        i = 0
        while f"term{i}_loss" in row:
            i += 1
        best = max(best, i)
    return best


def write_runs_csv(rows, path):
    """One row per training run, fixed documented column order."""
    columns = RUN_FIELDS + scalar_columns(_max_terms(rows))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([fmt(row.get(c)) for c in columns])


def read_runs_csv(path):
    """Inverse of write_runs_csv; numeric fields parsed, blanks to NaN.

    A row with more fields than the header, or a numeric cell that does
    not parse, raises DataError naming the row (counted from 0 after the
    header) and the column.
    """
    int_fields = {"power", "iteration", "seed", "best_epoch", "divergence_epoch"}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            records = list(csv.DictReader(fh))
    except UnicodeDecodeError:
        raise not_utf8_error(path) from None
    rows = []
    for row_no, raw in enumerate(records):
        if None in raw:
            raise DataError(f"{path}: row {row_no}: more fields than the header", rows=[row_no])
        row = {}
        for key, val in raw.items():
            if key in ("measures", "variant"):
                row[key] = val
            elif key == "diverged":
                row[key] = val == "1"
            elif val == "" or val is None:
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


def cells_from_runs(rows):
    """Group runs by cell, in CELL_FIELDS order, with means and unbiased variances."""
    groups: dict = {}
    for row in rows:
        groups.setdefault(tuple(row[f] for f in CELL_FIELDS), []).append(row)
    columns = scalar_columns(_max_terms(rows))
    cells = []
    for key in sorted(groups):
        means, variances, n_ok, n_diverged = cell_statistics(groups[key], columns)
        cell = dict(zip(CELL_FIELDS, key), n_runs=n_ok, n_diverged=n_diverged)
        for col in columns:
            cell[f"mean_{col}"], cell[f"var_{col}"] = means[col], variances[col]
        cells.append(cell)
    return cells


def write_cells_csv(cells, path):
    if not cells:
        raise ConfigError("no cells to write")
    stat_cols = [c for c in cells[0] if c not in CELL_FIELDS + ("n_runs", "n_diverged")]
    columns = [*CELL_FIELDS, "n_runs", "n_diverged", *stat_cols]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for cell in cells:
            writer.writerow([fmt(cell.get(c)) for c in columns])


def emit_results(result: GridResult, out_dir):
    """Write runs.csv and cells.csv; returns the stored run rows.

    cells.csv is aggregated from the re-read runs.csv, so stored results
    are the single source of truth and `report` rebuilds every derived
    file byte-for-byte.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = runs_table_from_grid(result)
    if not rows:
        raise ConfigError("no run results to emit")
    write_runs_csv(rows, out / "runs.csv")
    stored = read_runs_csv(out / "runs.csv")
    write_cells_csv(cells_from_runs(stored), out / "cells.csv")
    return stored


def _series_name(measures: str, variant: str, beta, power) -> str:
    tag = variant if variant != "sigmoided" or beta in (None, 1.0) else f"{variant}-b{beta:g}"
    safe_measures = measures.replace("*", "x")
    return f"series_{safe_measures}_{tag}_k{power}.csv"


def emit_plot_series(cells, out_dir, measures=None):
    """One CSV per (measure set, variant, power): metric curves over alpha.

    Accuracy, BCE, and term losses are scaled by 100 so every curve
    shares the BPS percentage axis; variance columns ride along as bands.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if not cells:
        raise ConfigError("no aggregated cells: nothing to plot")
    series: dict = {}
    for cell in cells:
        series.setdefault(
            (cell["measures"], cell["variant"], cell["beta"], cell["power"]), []
        ).append(cell)

    bps_cols = [f"mean_{c}" for c in scalar_columns(0) if c.startswith("bps_")]
    written = []
    for (meas, variant, beta, power), cell_list in sorted(series.items()):
        if measures is not None and meas not in measures:
            continue
        cell_list.sort(key=lambda c: c["alpha"])
        term_cols = sorted(
            c[len("mean_"):] for c in cell_list[0]
            if c.startswith("mean_term") and c.endswith("_loss")
        )
        header = (
            ["alpha"]
            + [c[5:] for c in bps_cols]
            + ["accuracy_x100", "bce_x100"]
            + [f"{t}_x100" for t in term_cols]
            + [f"var_{c[5:]}" for c in bps_cols]
            + ["var_accuracy", "var_bce"]
        )
        path = out / _series_name(meas, variant, beta, power)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for cell in cell_list:
                row = [fmt(cell["alpha"])]
                row += [fmt(cell[c]) for c in bps_cols]
                row += [fmt(100.0 * cell["mean_accuracy"]), fmt(100.0 * cell["mean_bce"])]
                row += [fmt(100.0 * cell[f"mean_{t}"]) for t in term_cols]
                row += [fmt(cell[f"var_{c[5:]}"]) for c in bps_cols]
                row += [fmt(cell["var_accuracy"]), fmt(cell["var_bce"])]
                writer.writerow(row)
        written.append(path)
    return written


def literature_constants() -> dict:
    """Published comparison rows shipped as data, never recomputed."""
    blob = (
        importlib_resources.files("bpsfair.resources")
        .joinpath("comparison_constants.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(blob)


def emit_comparison_tables(cells, out_dir, table_rows):
    """Write the p-rule/accuracy table and the per-group FPR/FNR table.

    ``table_rows`` maps row labels to cell selectors for the debiased
    configurations.  The without-debiasing column always comes from the
    alpha = 0 baseline cell, which shares its Monte Carlo seeds with
    every other cell of the same grid.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    baselines = [c for c in cells if c["alpha"] == 0.0]
    if not baselines:
        raise ConfigError("comparison tables need an alpha=0 baseline cell")
    baseline = baselines[0]
    lit = literature_constants()

    prule_path = out / "prule_table.csv"
    with open(prule_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["technique", "prule", "accuracy", "source"])
        for row in lit["prule"]:
            writer.writerow([row["technique"], fmt(row["prule"]), fmt(row["accuracy"]),
                             "literature"])
        writer.writerow(
            ["Baseline", fmt(baseline["mean_bps_stp"]),
             fmt(100.0 * baseline["mean_accuracy"]), "this run"]
        )
        for label, selector in table_rows.items():
            cell = select_cell(cells, selector)
            writer.writerow(
                [label, fmt(cell["mean_bps_stp"]), fmt(100.0 * cell["mean_accuracy"]),
                 "this run"]
            )

    error_path = out / "error_rate_table.csv"
    with open(error_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["technique", "measure", "group0_without", "group0_with",
             "group1_without", "group1_with", "bps", "source"]
        )
        for row in lit["error_rates"]:
            writer.writerow(
                [row["technique"], row["measure"], fmt(row["group0_without"]),
                 fmt(row["group0_with"]), fmt(row["group1_without"]),
                 fmt(row["group1_with"]), fmt(row["bps"]), "literature"]
            )
        for label, selector in table_rows.items():
            cell = select_cell(cells, selector)
            for measure in ("fpr", "fnr"):
                with_g0 = cell[f"mean_{measure}_g0"]
                with_g1 = cell[f"mean_{measure}_g1"]
                writer.writerow(
                    [label, measure.upper(), fmt(baseline[f"mean_{measure}_g0"]),
                     fmt(with_g0), fmt(baseline[f"mean_{measure}_g1"]), fmt(with_g1),
                     fmt(bps_binary(with_g0, with_g1)), "this run"]
                )
    return [prule_path, error_path]


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, config_path=None, dataset_path=None, grid_spec=None, version="0"):
    """Record digests of the exact inputs that produced a result directory."""
    manifest = {
        "tool_version": version,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config_digest": file_digest(config_path) if config_path else None,
        "config_path": str(config_path) if config_path else None,
        "dataset_digest": file_digest(dataset_path) if dataset_path else None,
        "dataset_path": str(dataset_path) if dataset_path else None,
        "grid_spec": grid_spec,
    }
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
