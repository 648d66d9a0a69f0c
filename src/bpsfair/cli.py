"""Command-line surface: train, grid, evaluate, report, synth."""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .data import (
    DatasetSchema,
    EncoderState,
    apply_encoder,
    fit_encoder,
    load_csv,
    mc_splits,
    not_utf8_error,
    synthesize_biased,
    write_csv,
)
from .engine import evaluate as evaluate_state
from .engine import blas_thread_pin, run_grid, train_model, usable_cpus
from .errors import BpsfairError, ConfigError, FormatError
from .fields import POSITIVE_INT, typed
from .metrics import BpsReport, evaluate_prediction_dump
from .network import load_model, save_model
from .report import (
    cells_from_runs,
    check_plot_measures,
    comparison_cells,
    emit_comparison_tables,
    emit_plot_series,
    file_digest,
    fmt,
    read_runs_csv,
    runs_table_from_grid,
    stored_fields,
    write_cells_csv,
    write_manifest,
    write_runs_csv,
)

__all__ = ["main"]


def _jobs(flag) -> int:
    """``--jobs``, else $BPSFAIR_JOBS, else 1; either must be a positive integer."""
    if flag is not None:
        return typed(POSITIVE_INT, flag, "jobs")
    env = os.environ.get("BPSFAIR_JOBS")
    return typed(POSITIVE_INT, env, "BPSFAIR_JOBS") if env else 1


def _load_table(cfg: RunConfig, dataset_override):
    path = Path(dataset_override) if dataset_override else cfg.dataset_path
    if path is None:
        raise ConfigError("no dataset: set [dataset] path in the config or pass --dataset")
    if cfg.schema is None:
        raise ConfigError("no dataset schema: set a preset or a [dataset] schema block")
    return load_csv(path, cfg.schema), path


def _report_to_dict(report: BpsReport) -> dict:
    gids, rows = report.rows()
    return {kind.value: {"group_values": dict(zip(map(str, gids), values)),
                         "population_value": population, "bps": bps,
                         "undefined_groups": list(report[kind].undefined_groups)}
            for kind, values, population, bps in rows}


def _show_report(report: BpsReport, accuracy, out) -> None:
    """Print the evaluation.csv table, space-aligned with undefined values as undef.

    ``out`` also gets the table as evaluation.csv, undefined values blank.
    """
    gids, rows = report.rows()
    table = [["measure", *(f"group{g}" for g in gids), "population", "bps"]]
    table += [[kind.value, *values, population, bps] for kind, values, population, bps in rows]
    if accuracy is not None:
        table.append(["accuracy", *[""] * len(gids), "", accuracy])
    shown = [["undef" if v is None else fmt(v) for v in row] for row in table]
    widths = [max(map(len, column)) for column in zip(*shown)]
    for row in shown:
        print("  ".join([row[0].ljust(widths[0])]
                        + [v.rjust(w) for v, w in zip(row[1:], widths[1:])]))
    if out:
        Path(out).mkdir(parents=True, exist_ok=True)
        with open(Path(out) / "evaluation.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([list(map(fmt, row)) for row in table])


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    train_config = cfg.train_config(seed=args.seed)
    table, data_path = _load_table(cfg, args.dataset)
    split = mc_splits(table.n_rows, replace(cfg.plan, iterations=1))[0]  # the one it uses
    encoder = fit_encoder(table, rows=split[0])
    dataset = apply_encoder(table, encoder)

    state, result = train_model(dataset, split, train_config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    metadata = {
        "schema": table.schema.to_dict(),
        "encoder": encoder.to_dict(),
        "feature_names": list(dataset.feature_names),
    }
    save_model(out / "model.bpsf", state, metadata)
    payload = {
        "accuracy": result.accuracy,
        "bce": result.bce,
        "best_epoch": result.best_epoch,
        "seed": result.seed,
        "terms": [str(t) for t in train_config.terms],
        "denominator_mode": train_config.denominator_mode.value,
        "bps": _report_to_dict(result.report),
        "per_term": [
            {"term": str(tv.term), "soft_bps": tv.soft_bps, "loss": tv.term_loss,
             "skipped": tv.skipped}
            for tv in result.per_term
        ],
        "trace": list(result.trace),
    }
    (out / "run_result.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    write_manifest(out, config_path=args.config, dataset_path=data_path, version=__version__)
    print(f"trained 1 model: test accuracy {fmt(result.accuracy)} "
          f"(best epoch {result.best_epoch}); artifacts in {out}")
    return 0


def cmd_grid(args) -> int:
    jobs = _jobs(args.jobs)
    cfg = load_config(args.config)
    if cfg.grid is None:
        raise ConfigError("config has no [grid] section")
    # every cell is known before training: a grid whose report cannot be written is refused
    iterations = cfg.grid.iterations_for(cfg.plan)
    _resolve_report([stored_fields(key.fields()) for key in cfg.grid.cells()], cfg.table_rows,
                    cfg.plot_measures)
    base_config = cfg.train_config(seed=args.seed)
    table, data_path = _load_table(cfg, args.dataset)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out}: cannot create the results directory: {exc}") from None

    result = run_grid(table, base_config, cfg.grid, cfg.plan, jobs=jobs)
    write_runs_csv(runs_table_from_grid(result), out / "runs.csv")
    _derive(out, cfg.table_rows, cfg.plot_measures)
    grid_echo = {
        "templates": [[f"{k.value}*{s:g}" for k, s in t] for t in cfg.grid.templates],
        "variants": [str(v) for v in cfg.grid.variants],
        "powers": list(cfg.grid.powers),
        "alphas": list(cfg.grid.alphas),
        "iterations": iterations,
    }
    write_manifest(out, config_path=args.config, dataset_path=data_path,
                   grid_spec=grid_echo, version=__version__, speed=_speed(jobs, result))
    n_runs = sum(len(c.runs) for c in result.cells)
    n_diverged = sum(c.n_diverged for c in result.cells)
    print(f"grid finished: {len(result.cells)} cells, {n_runs} runs "
          f"({n_diverged} diverged); results in {out}")
    return 0


def _speed(jobs: int, result) -> dict:
    """What set a grid's speed, for manifest.json; no reader depends on it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):  # a numpy that reports no BLAS build
        blas = None
    pinned = blas_thread_pin() is not None  # else BLAS keeps its own thread count
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "usable_cpus": usable_cpus(), "jobs": jobs, "workers": result.workers,
            "blas_threads_per_worker": 1 if pinned else None,
            "shards_per_stack": list(result.shards), "blas_thread_pin": pinned}


def cmd_evaluate(args) -> int:
    if bool(args.predictions) == bool(args.model):
        raise ConfigError("evaluate needs exactly one of --predictions or --model")
    if args.predictions and args.dataset is not None:
        raise ConfigError("--dataset goes with --model only: a prediction dump holds its own rows")
    if args.predictions:
        report = evaluate_prediction_dump(args.predictions)
        accuracy = None
    else:
        state, metadata = load_model(args.model)
        if args.dataset is None:
            raise ConfigError("evaluating a model artifact needs --dataset")
        try:
            schema = DatasetSchema.from_dict(metadata.get("schema"))
            encoder = EncoderState.from_dict(metadata.get("encoder"))
        except ConfigError as exc:
            raise FormatError(f"{args.model}: no usable schema and encoder metadata ({exc}); "
                              "evaluate --model needs an artifact written by `bpsfair train`"
                              ) from None
        table = load_csv(args.dataset, schema)
        dataset = apply_encoder(table, encoder)
        frag = evaluate_state(state, dataset)
        report, accuracy = frag.report, frag.accuracy
    _show_report(report, accuracy, args.out)
    return 0


def _check_config_digest(out: Path, config_path) -> None:
    """A results directory is tied to the config that produced it."""
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        return
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise not_utf8_error(manifest_path, ConfigError) from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{manifest_path}: not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ConfigError(f"{manifest_path}: not a JSON object")
    recorded = manifest.get("config_digest")
    if recorded and recorded != file_digest(config_path):
        raise ConfigError(
            f"digest mismatch: {config_path} is not the config recorded in {manifest_path}"
        )


def _resolve_report(cells, table_rows, plot_measures):
    """The comparison tables' cells (None without rows); refuses what matches no cell."""
    check_plot_measures(cells, plot_measures)
    return comparison_cells(cells, table_rows) if table_rows else None


def _derive(out: Path, table_rows, plot_measures) -> None:
    """Rebuild cells.csv, the plot series and the comparison tables from out/runs.csv.

    A plot measure or table selector that matches no cell is refused
    before any file is rewritten.
    """
    cells = cells_from_runs(read_runs_csv(out / "runs.csv"))
    tables = _resolve_report(cells, table_rows, plot_measures)
    write_cells_csv(cells, out / "cells.csv")
    emit_plot_series(cells, out, measures=plot_measures)
    if tables:
        emit_comparison_tables(tables, out)


def cmd_report(args) -> int:
    out = Path(args.out)
    runs_path = out / "runs.csv"
    if not runs_path.exists():
        raise ConfigError(f"{runs_path} not found: run `bpsfair grid` first")
    table_rows, plot_measures = {}, None
    if args.config:  # a refused config leaves every derived file as it was
        _check_config_digest(out, args.config)
        cfg = load_config(args.config)
        table_rows, plot_measures = cfg.table_rows, cfg.plot_measures
    _derive(out, table_rows, plot_measures)
    print(f"report rebuilt from {runs_path}")
    return 0


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    if cfg.synth is None:
        raise ConfigError("config has no [synth] section")
    params = dict(cfg.synth)
    if args.seed is not None:
        params["seed"] = args.seed
    table = synthesize_biased(**params)
    write_csv(table, args.out)
    print(f"wrote {table.n_rows} synthetic rows to {args.out}")
    return 0


@cache  # one parser per process: it is built once, however often main runs
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bpsfair",
        description="Train fairness-regularized classifiers and reproduce "
                    "bias-parity trade-off curves.",
    )
    parser.add_argument("--version", action="version", version=f"bpsfair {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train one model from a config")
    train.add_argument("--config", required=True)
    train.add_argument("--out", required=True)
    train.add_argument("--dataset", help="override the config's dataset path")
    train.add_argument("--seed", type=int)
    train.set_defaults(func=cmd_train)

    grid = sub.add_parser("grid", help="run a regularization grid search")
    grid.add_argument("--config", required=True)
    grid.add_argument("--out", required=True)
    grid.add_argument("--dataset", help="override the config's dataset path")
    grid.add_argument("--seed", type=int)
    grid.add_argument("--jobs", type=int,
                      help="parallel workers (default: $BPSFAIR_JOBS or 1)")
    grid.set_defaults(func=cmd_grid)

    ev = sub.add_parser("evaluate", help="score a prediction dump or model artifact")
    ev.add_argument("--predictions", help="CSV dump with y_true, y_prob, group columns")
    ev.add_argument("--model", help="model artifact produced by `train`")
    ev.add_argument("--dataset", help="CSV to score a model artifact on")
    ev.add_argument("--out", help="also write evaluation.csv here")
    ev.set_defaults(func=cmd_evaluate)

    rep = sub.add_parser("report", help="rebuild tables/plots from stored runs.csv")
    rep.add_argument("--out", required=True, help="directory containing runs.csv")
    rep.add_argument("--config", help="config providing table row selectors")
    rep.set_defaults(func=cmd_report)

    synth = sub.add_parser("synth", help="write a synthetic biased dataset")
    synth.add_argument("--config", required=True)
    synth.add_argument("--out", required=True)
    synth.add_argument("--seed", type=int)
    synth.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BpsfairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a missing file, a directory, no permission
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
