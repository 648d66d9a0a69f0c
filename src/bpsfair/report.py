"""Results persistence: runs.csv, cells.csv, plot series, comparison tables.

Everything here is a pure transformation of stored run rows, laid out
by ``engine``'s run/cell schema.  Numeric output uses a fixed
6-significant-digit format so emitted files are byte-for-byte
reproducible from the same results.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import sys
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
    "comparison_cells",
    "check_plot_measures",
    "stored_fields",
    "emit_comparison_tables",
    "write_manifest",
    "literature_constants",
    "file_digest",
    "fmt",
]


def _fmt_float(v) -> str:
    return f"{v:.6g}" if v == v else ""


def _fmt_other(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _fmt_float(float(value))


# fmt's rule for each exact type; subclasses and any other type take _fmt_other
_FORMATTERS = {type(None): lambda v: "", str: str, bool: "01".__getitem__, int: str,
               float: _fmt_float, np.float64: _fmt_float}


def fmt(value) -> str:
    """Fixed formatting: 6 significant digits, empty for missing."""
    return _FORMATTERS.get(type(value), _fmt_other)(value)


def _fmt_column(values) -> list:
    """``fmt`` of every value of one column, with one formatter per value type."""
    return [_FORMATTERS.get(type(v), _fmt_other)(v) for v in values]


def _write_rows(path, rows):
    """Write a CSV from its rows of formatted cells."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _write_columns(path, header, columns):
    """Write a CSV from its header and its columns of formatted cells."""
    _write_rows(path, itertools.chain([header], zip(*columns)))


def runs_table_from_grid(result: GridResult):
    """A GridResult's runs.csv rows, cell by cell."""
    return [row for cell in result.cells for row in cell.runs]


def _n_terms(names) -> int:
    i = 0
    while f"term{i}_loss" in names:
        i += 1
    return i


def write_runs_csv(rows, path):
    """One row per training run, fixed documented column order."""
    columns = RUN_FIELDS + scalar_columns(max(map(_n_terms, rows), default=0))
    _write_columns(path, columns, [_fmt_column([row.get(c) for row in rows]) for c in columns])


_INT_FIELDS = frozenset({"power", "iteration", "seed", "best_epoch", "divergence_epoch"})
_FLOAT_MAX = int(sys.float_info.max)


def _in_float_range(values) -> bool:
    """True if float64 holds every integer of ``values`` (None aside): cells_from_runs needs it."""
    return max(map(abs, filter(None, values)), default=0) <= _FLOAT_MAX


def _parse_column(name, cells):
    """(typed values, None), or (None, (row, message)) naming the first bad cell.

    Blank cells read as None in the integer columns and as NaN in the
    other numeric ones; a blank beta, power or alpha is an error, and so are
    an integer that float64 cannot hold and a ``diverged`` cell other than
    0 or 1.
    """
    if name in ("measures", "variant"):
        return list(cells), None
    if name == "diverged":
        bad = next((r for r, cell in enumerate(cells) if cell not in ("0", "1")), None)
        if bad is not None:
            return None, (bad, f"column 'diverged' holds {cells[bad]!r}, not 0 or 1")
        return [cell == "1" for cell in cells], None
    kind = int if name in _INT_FIELDS else float
    blank = None if kind is int else math.nan
    values = None
    try:  # one typed pass; a column with a bad cell takes the cell-by-cell pass below
        if "" not in cells:
            values = list(map(kind, cells))
        elif name not in CELL_FIELDS:
            values = [kind(cell) if cell else blank for cell in cells]
    except ValueError:
        pass
    if values is not None and (kind is float or _in_float_range(values)):
        return values, None
    values = []
    for row_no, cell in enumerate(cells):
        if not cell and name in CELL_FIELDS:
            return None, (row_no, f"column {name!r} is blank")
        try:
            values.append(kind(cell) if cell else blank)
        except ValueError:
            return None, (row_no, f"column {name!r} holds {cell!r}, not "
                                  f"{'an integer' if kind is int else 'a number'}")
        if kind is int and not _in_float_range(values[-1:]):
            return None, (row_no, f"column {name!r} holds an integer beyond the float64 range")
    return values, None


def stored_fields(fields: dict) -> dict:
    """A cell's CELL_FIELDS values as runs.csv stores them and read_runs_csv reads them back.

    beta and alpha keep ``fmt``'s 6 significant digits, so a selector
    matched against them matches the cells ``report`` rebuilds.
    """
    return {name: float(fmt(v)) if name in ("beta", "alpha") else v for name, v in fields.items()}


def read_runs_csv(path):
    """Inverse of write_runs_csv: {column name: per-run values}, in header order.

    Each column is parsed in one typed pass: measures and variant stay
    strings, ``diverged`` is True for "1" and False for "0", and the
    other columns are integers (blank reads as None) or floats (blank
    reads as NaN).  A header without a CELL_FIELDS or ``diverged`` column
    raises DataError.  So does a row with more or fewer fields than the
    header, a blank beta, power or alpha (cells are sorted by them), a
    ``diverged`` cell other than 0 or 1 or a numeric cell that does not
    parse, naming the first such row (counted from 0 after the header,
    blank lines skipped) and, within it, the first column.
    A name the header repeats takes its last column's values.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            records = [row for row in reader if row]
    except UnicodeDecodeError:
        raise not_utf8_error(path) from None
    missing = [c for c in CELL_FIELDS + ("diverged",) if c not in header]
    if missing:
        raise DataError(f"{path}: the header has no {missing} column(s)")
    width = len(header)
    n_good = next((r for r, row in enumerate(records) if len(row) != width), len(records))
    raw_columns = list(zip(*records[:n_good])) or [()] * width
    position = {name: i for i, name in enumerate(header)}  # first-seen order, last column
    columns, failures = {}, []
    for name, i in position.items():
        columns[name], failure = _parse_column(name, raw_columns[i])
        if failure:
            failures.append(failure)
    if failures:
        row_no, message = min(failures, key=lambda failure: failure[0])
        raise DataError(f"{path}: row {row_no}: {message}", rows=[row_no])
    if n_good < len(records):
        which = "more" if len(records[n_good]) > width else "fewer"
        raise DataError(f"{path}: row {n_good}: {which} fields than the header", rows=[n_good])
    return columns


def cells_from_runs(runs):
    """Group runs by cell, in CELL_FIELDS order, with means and unbiased variances.

    ``runs`` maps column names to per-run values, as read_runs_csv
    returns them; a scalar column it lacks reads as NaN.
    """
    groups: dict = {}
    for run, key in enumerate(zip(*(runs[f] for f in CELL_FIELDS))):
        groups.setdefault(key, []).append(run)
    keys = sorted(groups)
    cell_of_run = np.empty(len(runs["diverged"]), dtype=np.int64)
    for cell, key in enumerate(keys):
        cell_of_run[groups[key]] = cell
    columns = scalar_columns(_n_terms(runs))
    missing = [None] * cell_of_run.size
    block = np.array([runs.get(c, missing) for c in columns], dtype=np.float64).T
    means, variances, n_ok, n_diverged = cell_statistics(block, cell_of_run, runs["diverged"])
    names = [name for c in columns for name in (f"mean_{c}", f"var_{c}")]
    stats = np.stack([means, variances], axis=-1).reshape(len(keys), len(names))
    cells = []
    for key, n_runs, n_div, values in zip(keys, n_ok.tolist(), n_diverged.tolist(),
                                          stats.tolist()):
        cell = dict(zip(CELL_FIELDS, key), n_runs=n_runs, n_diverged=n_div)
        cell.update(zip(names, values))
        cells.append(cell)
    return cells


def write_cells_csv(cells, path):
    if not cells:
        raise ConfigError("no cells to write")
    stat_cols = [c for c in cells[0] if c not in CELL_FIELDS + ("n_runs", "n_diverged")]
    columns = [*CELL_FIELDS, "n_runs", "n_diverged", *stat_cols]
    _write_columns(path, columns, [_fmt_column([cell.get(c) for cell in cells]) for c in columns])


def emit_results(result: GridResult, out_dir):
    """Write runs.csv and cells.csv; returns the cells written.

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
    cells = cells_from_runs(read_runs_csv(out / "runs.csv"))
    write_cells_csv(cells, out / "cells.csv")
    return cells


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

    bps_cols = [c for c in scalar_columns(0) if c.startswith("bps_")]
    written = []
    for (meas, variant, beta, power), cell_list in sorted(series.items()):
        if measures is not None and meas not in measures:
            continue
        cell_list.sort(key=lambda c: c["alpha"])
        term_cols = sorted(
            c[len("mean_"):] for c in cell_list[0]
            if c.startswith("mean_term") and c.endswith("_loss")
        )
        scaled = ["accuracy", "bce", *term_cols]
        header = (["alpha", *bps_cols, *(f"{c}_x100" for c in scaled)]
                  + [f"var_{c}" for c in (*bps_cols, "accuracy", "bce")])
        columns = ([[cell["alpha"] for cell in cell_list]]
                   + [[cell[f"mean_{c}"] for cell in cell_list] for c in bps_cols]
                   + [[100.0 * cell[f"mean_{c}"] for cell in cell_list] for c in scaled]
                   + [[cell[f"var_{c}"] for cell in cell_list]
                      for c in (*bps_cols, "accuracy", "bce")])
        path = out / _series_name(meas, variant, beta, power)
        _write_columns(path, header, map(_fmt_column, columns))
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


def comparison_cells(cells, table_rows):
    """The comparison tables' cells: (alpha = 0 baseline, [(label, cell), ...]).

    ``table_rows`` maps row labels to cell selectors for the debiased
    configurations.  No baseline cell, or a selector that does not match
    exactly one cell, raises ConfigError, so resolving the tables first
    leaves every derived file as it was.
    """
    baselines = [c for c in cells if c["alpha"] == 0.0]
    if not baselines:
        raise ConfigError("comparison tables need an alpha=0 baseline cell")
    return baselines[0], [(label, select_cell(cells, selector))
                          for label, selector in table_rows.items()]


def check_plot_measures(cells, measures):
    """Refuse plot measure sets that no cell's ``measures`` names.

    ``measures`` of None plots every measure set.
    """
    if measures is None:
        return
    known = list(dict.fromkeys(cell["measures"] for cell in cells))
    unknown = [m for m in measures if m not in known]
    if unknown:
        raise ConfigError(f"report.plot_measures {unknown} name no measure set of the cells; "
                          f"they have {known}")


def emit_comparison_tables(tables, out_dir):
    """Write the p-rule/accuracy table and the per-group FPR/FNR table.

    ``tables`` is what ``comparison_cells`` resolved.  The without-debiasing
    column always comes from the alpha = 0 baseline cell, which shares its
    Monte Carlo seeds with every other cell of the same grid.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    baseline, rows = tables
    lit = literature_constants()
    prule = [["technique", "prule", "accuracy", "source"]]
    prule += [[row["technique"], fmt(row["prule"]), fmt(row["accuracy"]), "literature"]
              for row in lit["prule"]]
    prule += [[label, fmt(cell["mean_bps_stp"]), fmt(100.0 * cell["mean_accuracy"]), "this run"]
              for label, cell in [("Baseline", baseline), *rows]]
    errors = [["technique", "measure", "group0_without", "group0_with", "group1_without",
               "group1_with", "bps", "source"]]
    errors += [[row["technique"], row["measure"], *(fmt(row[c]) for c in errors[0][2:7]),
                "literature"] for row in lit["error_rates"]]
    # per group, the value without debiasing (the baseline's), then with it (the row's cell)
    errors += [[label, m.upper(),
                *(fmt(c[f"mean_{m}_g{g}"]) for g in (0, 1) for c in (baseline, cell)),
                fmt(bps_binary(cell[f"mean_{m}_g0"], cell[f"mean_{m}_g1"])), "this run"]
               for label, cell in rows for m in ("fpr", "fnr")]
    paths = [out / "prule_table.csv", out / "error_rate_table.csv"]
    for path, table in zip(paths, (prule, errors)):
        _write_rows(path, table)
    return paths


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, config_path=None, dataset_path=None, grid_spec=None, version="0",
                   speed=None):
    """Record digests of the exact inputs that produced a result directory.

    ``speed``, if given, records what set a grid's speed (versions, CPUs,
    worker processes, BLAS threads and shards); nothing reads it back.
    """
    manifest = {
        "tool_version": version,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "config_digest": file_digest(config_path) if config_path else None,
        "config_path": str(config_path) if config_path else None,
        "dataset_digest": file_digest(dataset_path) if dataset_path else None,
        "dataset_path": str(dataset_path) if dataset_path else None,
        "grid_spec": grid_spec,
    }
    if speed is not None:
        manifest["speed"] = speed
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path
