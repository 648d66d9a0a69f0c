"""Command-line surface: train, grid, evaluate, report, synth."""

from __future__ import annotations

import argparse
import json
import os
import sys
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
from .engine import run_grid, train_model
from .errors import BpsfairError, ConfigError, FormatError
from .metrics import BpsReport, evaluate_prediction_dump
from .network import load_model, save_model
from .report import (
    cells_from_runs,
    check_plot_measures,
    comparison_cells,
    emit_comparison_tables,
    emit_plot_series,
    emit_results,
    file_digest,
    fmt,
    read_runs_csv,
    stored_fields,
    write_cells_csv,
    write_manifest,
)

__all__ = ["main"]


def _jobs(flag) -> int:
    """``--jobs``, else $BPSFAIR_JOBS, else 1; either must be a positive integer."""
    if flag is not None:
        if flag < 1:
            raise ConfigError(f"jobs must be a positive integer, got {flag!r}")
        return flag
    env = os.environ.get("BPSFAIR_JOBS")
    if not env:
        return 1
    try:
        jobs = int(env)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ConfigError(f"BPSFAIR_JOBS must be a positive integer, got {env!r}")
    return jobs


def _load_table(cfg: RunConfig, dataset_override):
    path = Path(dataset_override) if dataset_override else cfg.dataset_path
    if path is None:
        raise ConfigError("no dataset: set [dataset] path in the config or pass --dataset")
    if cfg.schema is None:
        raise ConfigError("no dataset schema: set a preset or a [dataset] schema block")
    return load_csv(path, cfg.schema), path


def _report_to_dict(report: BpsReport) -> dict:
    out = {}
    for kind, entry in report.entries.items():
        out[kind.value] = {
            "group_values": {str(g): v for g, v in entry.group_values.items()},
            "population_value": entry.population_value,
            "bps": entry.bps,
            "undefined_groups": list(entry.undefined_groups),
        }
    return out


def _print_report(report: BpsReport, accuracy=None):
    print(f"{'measure':<9}{'group0':>10}{'group1':>10}{'bps':>9}")
    for kind, entry in report.entries.items():
        gids = sorted(entry.group_values)
        cells = []
        for gid in gids[:2]:
            v = entry.group_values[gid]
            cells.append("undef" if v is None else fmt(v))
        while len(cells) < 2:
            cells.append("-")
        bps = "undef" if entry.bps is None else fmt(entry.bps)
        print(f"{kind.value:<9}{cells[0]:>10}{cells[1]:>10}{bps:>9}")
    if accuracy is not None:
        print(f"accuracy {fmt(accuracy)}")


def _write_report_csv(report: BpsReport, path, accuracy=None):
    import csv

    gids = sorted(next(iter(report.entries.values())).group_values)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["measure"] + [f"group{g}" for g in gids] + ["population", "bps"])
        for kind, entry in report.entries.items():
            row = [kind.value]
            row += [fmt(entry.group_values[g]) for g in gids]
            row += [fmt(entry.population_value), fmt(entry.bps)]
            writer.writerow(row)
        if accuracy is not None:
            writer.writerow(["accuracy"] + [""] * len(gids) + ["", fmt(accuracy)])


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    table, data_path = _load_table(cfg, args.dataset)
    seed = args.seed if args.seed is not None else cfg.training["seed"]
    split = mc_splits(table.n_rows, cfg.plan)[0]
    encoder = fit_encoder(table, rows=split[0])
    dataset = apply_encoder(table, encoder)
    train_config = cfg.train_config(dataset.X.shape[1], seed_override=seed)

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
    planned = [stored_fields(key.fields()) for key in cfg.grid.cells()]
    check_plot_measures(planned, cfg.plot_measures)
    if cfg.table_rows:
        comparison_cells(planned, cfg.table_rows)
    table, data_path = _load_table(cfg, args.dataset)
    seed = args.seed if args.seed is not None else cfg.training["seed"]
    base_config = cfg.train_config(1, seed_override=seed)  # input_dim resolved per split
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {out}: cannot create the results directory: {exc}") from None

    result = run_grid(table, base_config, cfg.grid, cfg.plan, jobs=jobs)
    cells = emit_results(result, out)
    tables = comparison_cells(cells, cfg.table_rows) if cfg.table_rows else None
    emit_plot_series(cells, out, measures=cfg.plot_measures)
    if tables:
        emit_comparison_tables(tables, out)
    grid_echo = {
        "templates": [[f"{k.value}*{s:g}" for k, s in t] for t in cfg.grid.templates],
        "variants": [str(v) for v in cfg.grid.variants],
        "powers": list(cfg.grid.powers),
        "alphas": list(cfg.grid.alphas),
        "iterations": iterations,
    }
    write_manifest(out, config_path=args.config, dataset_path=data_path,
                   grid_spec=grid_echo, version=__version__)
    n_runs = sum(len(c.runs) for c in result.cells)
    n_diverged = sum(c.n_diverged for c in result.cells)
    print(f"grid finished: {len(result.cells)} cells, {n_runs} runs "
          f"({n_diverged} diverged); results in {out}")
    return 0


def cmd_evaluate(args) -> int:
    if bool(args.predictions) == bool(args.model):
        raise ConfigError("evaluate needs exactly one of --predictions or --model")
    if args.predictions:
        report = evaluate_prediction_dump(args.predictions)
        accuracy = None
    else:
        state, metadata = load_model(args.model)
        if args.dataset is None:
            raise ConfigError("evaluating a model artifact needs --dataset")
        try:
            schema = DatasetSchema.from_dict(metadata["schema"])
            encoder = EncoderState.from_dict(metadata["encoder"])
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise FormatError(f"{args.model}: no usable schema and encoder metadata "
                              f"({type(exc).__name__}: {exc}); evaluate --model needs an "
                              "artifact written by `bpsfair train`") from None
        table = load_csv(args.dataset, schema)
        dataset = apply_encoder(table, encoder)
        frag = evaluate_state(state, dataset, np.arange(dataset.n_rows))
        report, accuracy = frag.report, frag.accuracy
    _print_report(report, accuracy)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _write_report_csv(report, out / "evaluation.csv", accuracy)
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
    cells = cells_from_runs(read_runs_csv(runs_path))
    # a plot measure or selector that matches no cell is refused before any file is rewritten
    check_plot_measures(cells, plot_measures)
    tables = comparison_cells(cells, table_rows) if table_rows else None
    write_cells_csv(cells, out / "cells.csv")
    emit_plot_series(cells, out, measures=plot_measures)
    if tables:
        emit_comparison_tables(tables, out)
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
