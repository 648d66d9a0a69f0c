"""Declarative run configuration: one YAML file describes one experiment.

Sections: ``dataset`` (preset or explicit schema plus file path),
``network``, ``training``, ``loss`` (terms for single runs), ``grid``
(axes for grid searches), ``split``, ``synth`` (generator parameters),
and ``report`` (comparison-table row selectors).  A section refuses a
key it does not name, and a key it leaves out takes the default of the
dataclass the section builds.  A complete example lives in ``configs/``
at the repository root.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import yaml

from .data import (SYNTH_KINDS, DatasetSchema, SplitPlan, adult_preset, not_utf8_error,
                   synthetic_preset)
from .engine import GridSpec, TrainConfig
from .errors import ConfigError
from .fields import NON_NEGATIVE, POSITIVE, POSITIVE_INT, TEXT, read, typed
from .losses import MeasureKind, SoftVariant, parse_term
from .network import ACTIVATION, NetworkConfig

__all__ = ["RunConfig", "load_config"]


@dataclass
class RunConfig:
    """Parsed experiment description.

    ``train`` is the run's TrainConfig, None without ``[network]``.  Its
    network's ``input_dim`` of 1 is a placeholder: the engine sets the
    encoded width when it trains.
    """

    dataset_path: Path | None
    schema: DatasetSchema | None
    train: TrainConfig | None
    plan: SplitPlan
    grid: GridSpec | None
    synth: dict | None
    table_rows: dict = field(default_factory=dict)
    plot_measures: tuple | None = None

    def train_config(self, *, seed=None) -> TrainConfig:
        """``train``, with ``seed`` (``--seed``) as its training seed when given."""
        if self.train is None:
            raise ConfigError("config is missing the [network] section")
        return self.train if seed is None else replace(self.train, seed=seed)


_DATASET_FIELDS = {"path": str, "preset": None, "feature_dim": POSITIVE_INT, "schema": None}
_FEATURE_DIM = 6  # the synthetic preset's width when none is given, as synthesize_biased's


def _parse_dataset(block, synth):
    if block is None:
        return None, None
    fields = read(block, "dataset", _DATASET_FIELDS)
    path = Path(fields["path"]) if "path" in fields else None
    preset = fields.get("preset")
    if preset == "adult":
        schema = adult_preset()
    elif preset == "synthetic":
        # the preset reads the f0.. columns `bpsfair synth` writes from the same config
        width = fields.get("feature_dim", _FEATURE_DIM)
        written = width if synth is None else synth.get("feature_dim", _FEATURE_DIM)
        if written != width:
            raise ConfigError(f"dataset.feature_dim {width} and synth.feature_dim {written} "
                              "must agree: the synthetic preset reads the columns synth writes")
        schema = synthetic_preset(width)
    elif preset is not None:
        raise ConfigError(f"unknown dataset preset {preset!r}")
    elif "schema" in fields:
        schema = DatasetSchema.from_dict(fields["schema"])
    else:
        schema = None
    return path, schema


# the NetworkConfig field each key sets, read as that field's kind
_NETWORK_ARGS = {"dropout": "dropout_rate", "batch_norm": "use_batch_norm", "seed": "seed"}
_NETWORK_FIELDS = {"hidden": [POSITIVE_INT], "activation": None,
                   **{key: NetworkConfig.KINDS[arg] for key, arg in _NETWORK_ARGS.items()}}


def _parse_network(block) -> NetworkConfig:
    """The block's NetworkConfig, input_dim 1 until the engine sets it; it holds the defaults."""
    fields = read(block, "network", _NETWORK_FIELDS)
    hidden = fields.pop("hidden", None)
    if not hidden:
        raise ConfigError("[network] needs a hidden layer width list")
    if "activation" in fields:  # else NetworkConfig's: a bare width is a ReLU layer
        activation = fields.pop("activation")
        if isinstance(activation, str):  # one name for every layer
            activation = [activation] * len(hidden)
        activations = typed([ACTIVATION], activation, "network.activation")
        if len(activations) != len(hidden):
            raise ConfigError(f"network.activation must name one activation per network.hidden "
                              f"width, got {len(activations)} for {len(hidden)}")
        hidden = tuple(zip(hidden, activations))
    return NetworkConfig(input_dim=1, hidden=hidden,
                         **{_NETWORK_ARGS[k]: v for k, v in fields.items()})


def _parse_variant(spec) -> SoftVariant:
    name, colon, beta = str(spec).partition(":")
    beta = typed(POSITIVE, beta, f"grid.variants {spec!r} beta") if colon else 1.0
    return SoftVariant(name.strip().lower(), beta)


def _parse_measures_entry(entry):
    """One grid template: list of measures, each 'KIND' or 'KIND*scale'."""
    template = []
    for item in [entry] if isinstance(entry, str) else typed(list, entry, "grid.measures entry"):
        kind, star, scale = str(item).partition("*")
        template.append((typed(MeasureKind, kind.strip().upper(), "grid.measures"),
                         typed(NON_NEGATIVE, scale, "grid.measures scale") if star else 1.0))
    return tuple(template)


_GRID_FIELDS = {"measures": list, "variants": list, "powers": [POSITIVE_INT],
                "alphas": [NON_NEGATIVE], "iterations": POSITIVE_INT}


def _parse_grid(block) -> GridSpec | None:
    """The axes the block gives; GridSpec holds the defaults."""
    if block is None:
        return None
    axes = read(block, "grid", _GRID_FIELDS)
    if "measures" in axes:
        axes["templates"] = tuple(map(_parse_measures_entry, axes.pop("measures")))
    if "variants" in axes:
        axes["variants"] = tuple(map(_parse_variant, axes["variants"]))
    return GridSpec(**axes)


_TABLE_ROW_FIELDS = {"label": TEXT, "measures": str, "variant": str, "beta": float,
                     "power": int, "alpha": float}


def _parse_table_row(entry):
    """(label, cell selector) of one [report] table row."""
    selector = read(entry, "report.tables", _TABLE_ROW_FIELDS)
    if "label" not in selector:
        raise ConfigError("each [report] table row needs a label")
    return selector.pop("label"), selector


class _UniqueKeyLoader(yaml.SafeLoader):
    """SafeLoader refusing a mapping key given twice, at any depth; safe_load keeps the last."""

    def construct_mapping(self, node, deep=False):
        first = {}
        for key_node, _ in node.value if isinstance(node, yaml.MappingNode) else ():
            if key_node.tag == "tag:yaml.org,2002:merge":  # `<<` merges may override keys
                continue
            key = self.construct_object(key_node, deep=True)
            try:
                mark = first.setdefault(key, key_node.start_mark)
            except TypeError:  # unhashable: the base class refuses it
                continue
            if mark is not key_node.start_mark:
                raise yaml.constructor.ConstructorError(
                    None, None, f"duplicate key {key!r}, first given at line {mark.line + 1}",
                    key_node.start_mark)
        return super().construct_mapping(node, deep)


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_UniqueKeyLoader)
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
        raise ConfigError(f"{path}: unknown sections {sorted(unknown, key=str)}")

    def section(name, kinds):  # an absent or empty section takes every default
        return read({} if doc.get(name) is None else doc[name], name, kinds)

    synth = None if doc.get("synth") is None else read(doc["synth"], "synth", SYNTH_KINDS)
    dataset_path, schema = _parse_dataset(doc.get("dataset"), synth)
    training = section("training", TrainConfig.KINDS)
    report = section("report", {"tables": list, "plot_measures": list})
    network = _parse_network(doc["network"]) if "network" in doc else None
    terms = tuple(map(parse_term, section("loss", {"terms": [str]}).get("terms", ())))
    return RunConfig(
        dataset_path=dataset_path,
        schema=schema,
        train=None if network is None else TrainConfig(network=network, terms=terms, **training),
        plan=SplitPlan(**section("split", SplitPlan.KINDS)),
        grid=_parse_grid(doc.get("grid")),
        synth=synth,
        table_rows=dict(map(_parse_table_row, report.get("tables", ()))),
        plot_measures=tuple(report["plot_measures"]) if "plot_measures" in report else None,
    )
