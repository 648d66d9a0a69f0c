"""Declarative run configuration: one YAML file describes one experiment.

Sections: ``dataset`` (preset or explicit schema plus file path),
``network``, ``training``, ``loss`` (terms for single runs), ``grid``
(axes for grid searches), ``split``, ``synth`` (generator parameters),
and ``report`` (comparison-table row selectors).  A complete example
lives in ``configs/`` at the repository root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .data import DatasetSchema, SplitPlan, adult_preset, not_utf8_error, synthetic_preset
from .engine import DEFAULT_ALPHAS, GridSpec, TrainConfig
from .errors import ConfigError
from .losses import DenominatorMode, MeasureKind, SoftVariant, parse_term
from .network import NetworkConfig

__all__ = ["RunConfig", "load_config"]


@dataclass
class RunConfig:
    """Parsed experiment description."""

    dataset_path: Path | None
    schema: DatasetSchema | None
    network: dict  # architecture fields; input_dim resolved after encoding
    training: dict
    terms: tuple
    denominator_mode: DenominatorMode
    plan: SplitPlan
    grid: GridSpec | None
    synth: dict | None
    table_rows: dict = field(default_factory=dict)
    plot_measures: tuple | None = None

    def network_config(self, input_dim: int) -> NetworkConfig:
        if not self.network:
            raise ConfigError("config is missing the [network] section")
        return NetworkConfig(input_dim=input_dim, **self.network)

    def train_config(self, input_dim: int, seed_override=None) -> TrainConfig:
        training = dict(self.training)
        if seed_override is not None:
            training["seed"] = seed_override
        return TrainConfig(
            network=self.network_config(input_dim),
            terms=self.terms,
            denominator_mode=self.denominator_mode,
            **training,
        )


_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
               list: "a list", DenominatorMode: f"one of {[m.value for m in DenominatorMode]}",
               MeasureKind: f"one of {[m.value for m in MeasureKind]}"}


def _typed(kind, value, key):
    """``kind(value)``; a value that does not convert raises ConfigError naming ``key``.

    An integer field takes no fractional, infinite or NaN number, which int()
    would truncate or reject with an OverflowError.  A bool, str or list
    field takes only a YAML boolean, string or list: bool() would read the
    string "false" as True, and str() or list() would take any value.
    """
    try:
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        if kind in (bool, str, list) and not isinstance(value, kind):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}") from None


def _require_mapping(doc, section, optional=False):
    block = doc.get(section)
    if block is None:
        if optional:
            return None
        raise ConfigError(f"config is missing the [{section}] section")
    if not isinstance(block, dict):
        raise ConfigError(f"[{section}] must be a mapping")
    return dict(block)


def _parse_schema(block) -> DatasetSchema:
    try:
        return DatasetSchema.from_dict(block)
    except KeyError as exc:
        raise ConfigError(f"dataset schema is missing {exc}")
    except (TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"malformed dataset schema ({type(exc).__name__}: {exc})") from None


def _parse_dataset(block):
    if block is None:
        return None, None
    path = Path(_typed(str, block["path"], "dataset.path")) if "path" in block else None
    preset = block.get("preset")
    if preset == "adult":
        schema = adult_preset()
    elif preset == "synthetic":
        schema = synthetic_preset(_typed(int, block.get("feature_dim", 6), "dataset.feature_dim"))
    elif preset is not None:
        raise ConfigError(f"unknown dataset preset {preset!r}")
    elif "schema" in block:
        schema = _parse_schema(block["schema"])
    else:
        schema = None
    return path, schema


def _parse_network(block) -> dict:
    widths = block.get("hidden")
    if not widths:
        raise ConfigError("[network] needs a hidden layer width list")
    widths = _typed(list, widths, "network.hidden")
    activation = block.get("activation", "relu")
    if isinstance(activation, str):
        activations = [activation] * len(widths)
    else:
        activations = _typed(list, activation, "network.activation")
        if len(activations) != len(widths):
            raise ConfigError("per-layer activation list must match hidden widths")
    return {
        "hidden": tuple((_typed(int, w, "network.hidden"), a) for w, a in zip(widths, activations)),
        "dropout_rate": _typed(float, block.get("dropout", 0.0), "network.dropout"),
        "use_batch_norm": _typed(bool, block.get("batch_norm", False), "network.batch_norm"),
        "seed": _typed(int, block.get("seed", 0), "network.seed"),
    }


def _parse_variant(spec) -> SoftVariant:
    if isinstance(spec, str) and ":" in spec:
        name, beta = spec.split(":", 1)
        try:
            beta = float(beta)
        except ValueError:
            raise ConfigError(f"bad variant {spec!r}: beta not numeric")
        return SoftVariant(name.strip().lower(), beta)
    return SoftVariant(str(spec).strip().lower())


def _parse_measures_entry(entry):
    """One grid template: list of measures, each 'KIND' or 'KIND*scale'."""
    template = []
    for item in [entry] if isinstance(entry, str) else _typed(list, entry, "grid.measures entry"):
        kind, star, scale = str(item).partition("*")
        template.append((_typed(MeasureKind, kind.strip().upper(), "grid.measures"),
                         _typed(float, scale, "grid.measures scale") if star else 1.0))
    return tuple(template)


def _parse_grid(block) -> GridSpec | None:
    if block is None:
        return None

    def axis(key, default):
        return _typed(list, block.get(key, default), f"grid.{key}")

    templates = tuple(_parse_measures_entry(entry) for entry in axis("measures", [["FPR"]]))
    variants = tuple(_parse_variant(v) for v in axis("variants", ["continuous"]))
    powers = tuple(_typed(int, p, "grid.powers") for p in axis("powers", [1, 2, 3, 4]))
    alphas = tuple(_typed(float, a, "grid.alphas") for a in axis("alphas", list(DEFAULT_ALPHAS)))
    iterations = block.get("iterations")
    return GridSpec(
        templates=templates,
        variants=variants,
        powers=powers,
        alphas=alphas,
        iterations=None if iterations is None else _typed(int, iterations, "grid.iterations"),
    )


_SYNTH_FIELDS = {"n": int, "base_rate_g0": float, "base_rate_g1": float,
                 "group_fraction": float, "feature_dim": int, "noise": float, "seed": int}


def _parse_synth(block) -> dict | None:
    """Typed ``synthesize_biased`` arguments; the function holds the defaults."""
    if block is None:
        return None
    unknown = sorted(set(block) - set(_SYNTH_FIELDS))
    if unknown:
        raise ConfigError(f"unknown [synth] fields {unknown}")
    return {key: _typed(_SYNTH_FIELDS[key], value, f"synth.{key}") for key, value in block.items()}


def _parse_table_rows(block) -> dict:
    rows = {}
    for entry in _typed(list, block or [], "report.tables"):
        if not isinstance(entry, dict):
            raise ConfigError(f"each [report] table row must be a mapping, got {entry!r}")
        entry = dict(entry)
        try:
            label = str(entry.pop("label"))
        except KeyError:
            raise ConfigError("each [report] table row needs a label")
        selector = {}
        if "measures" in entry:
            selector["measures"] = str(entry.pop("measures"))
        if "variant" in entry:
            selector["variant"] = str(entry.pop("variant"))
        if "beta" in entry:
            selector["beta"] = _typed(float, entry.pop("beta"), "report.tables beta")
        if "power" in entry:
            selector["power"] = _typed(int, entry.pop("power"), "report.tables power")
        if "alpha" in entry:
            selector["alpha"] = _typed(float, entry.pop("alpha"), "report.tables alpha")
        if entry:
            raise ConfigError(f"unknown table-row fields {sorted(entry)}")
        rows[label] = selector
    return rows


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except UnicodeDecodeError:
        raise not_utf8_error(path, ConfigError) from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = "" if mark is None else f" at line {mark.line + 1}, column {mark.column + 1}"
        problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
        raise ConfigError(f"{path}: not valid YAML{where}: {problem}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping of sections")
    unknown = set(doc) - {"dataset", "network", "training", "loss", "grid", "split",
                          "synth", "report"}
    if unknown:
        raise ConfigError(f"{path}: unknown sections {sorted(unknown)}")

    dataset_path, schema = _parse_dataset(_require_mapping(doc, "dataset", optional=True))
    network = _parse_network(_require_mapping(doc, "network")) if "network" in doc else None

    training_block = _require_mapping(doc, "training", optional=True) or {}
    mode = _typed(DenominatorMode, training_block.pop("denominator_mode", "as_written"),
                  "training.denominator_mode")
    training = {
        "batch_size": _typed(int, training_block.pop("batch_size", 256), "training.batch_size"),
        "epochs": _typed(int, training_block.pop("epochs", 100), "training.epochs"),
        "lr": _typed(float, training_block.pop("lr", 0.001), "training.lr"),
        "seed": _typed(int, training_block.pop("seed", 0), "training.seed"),
        "keep_trace": _typed(bool, training_block.pop("keep_trace", False), "training.keep_trace"),
    }
    for extra in ("beta1", "beta2", "adam_eps"):
        if extra in training_block:
            training[extra] = _typed(float, training_block.pop(extra), f"training.{extra}")
    if training_block:
        raise ConfigError(f"unknown [training] fields {sorted(training_block)}")

    loss_block = _require_mapping(doc, "loss", optional=True) or {}
    terms = tuple(parse_term(_typed(str, spec, "loss.terms"))
                  for spec in _typed(list, loss_block.get("terms", []), "loss.terms"))

    split_block = _require_mapping(doc, "split", optional=True) or {}
    plan = SplitPlan(
        iterations=_typed(int, split_block.get("iterations", 10), "split.iterations"),
        train_fraction=_typed(float, split_block.get("train_fraction", 0.70),
                              "split.train_fraction"),
        val_fraction=_typed(float, split_block.get("val_fraction", 0.10), "split.val_fraction"),
        base_seed=_typed(int, split_block.get("base_seed", 0), "split.base_seed"),
    )

    report_block = _require_mapping(doc, "report", optional=True) or {}
    plot_measures = report_block.get("plot_measures")
    if plot_measures is not None:
        plot_measures = tuple(_typed(list, plot_measures, "report.plot_measures"))

    return RunConfig(
        dataset_path=dataset_path,
        schema=schema,
        network=network or {},
        training=training,
        terms=terms,
        denominator_mode=mode,
        plan=plan,
        grid=_parse_grid(_require_mapping(doc, "grid", optional=True)),
        synth=_parse_synth(_require_mapping(doc, "synth", optional=True)),
        table_rows=_parse_table_rows(report_block.get("tables")),
        plot_measures=plot_measures,
    )
