"""Config parsing: one typed field reader for every section.

``load_config`` types each value of a section with ``fields.typed`` and
refuses a key the section does not name; the dataclass each section
builds holds the defaults.  ``oracle_from_doc`` keeps the per-section
parsers this reader replaced, with their own value reader and schema
reader, and a property requires the same parse from both on valid
documents.
"""

import re
from dataclasses import fields, replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from bpsfair import cli
from bpsfair.config import RunConfig, load_config
from bpsfair.data import (MISSING_TOKEN, DatasetSchema, SplitPlan, adult_preset,
                          synthesize_biased, synthetic_preset)
from bpsfair.engine import DEFAULT_ALPHAS, GridSpec, TrainConfig
from bpsfair.errors import ConfigError
from bpsfair.losses import DenominatorMode, FairnessTerm, MeasureKind, SoftVariant, parse_term
from bpsfair.network import NetworkConfig

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))


# ---- oracle: the per-section parsers, each with its own defaults and key handling ----

_KIND_NAMES = {int: "an integer", float: "a number", bool: "true or false", str: "a string",
               list: "a list", DenominatorMode: f"one of {[m.value for m in DenominatorMode]}",
               MeasureKind: f"one of {[m.value for m in MeasureKind]}"}


def _typed(kind, value, key):
    """The value reader the per-section parsers used: ``kind(value)``, with type gates."""
    if isinstance(kind, list):
        return [_typed(kind[0], item, key) for item in _typed(list, value, key)]
    try:
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        if kind in (bool, str, list) and not isinstance(value, kind):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}") from None


def _strings(values) -> tuple:
    if not (isinstance(values, list) and all(isinstance(v, str) for v in values)):
        raise TypeError(f"expected a list of strings, got {values!r}")
    return tuple(values)


def oracle_schema_from_dict(d):
    """The hand-written DatasetSchema reader: str()/int() coercion, KeyError when a key is missing."""
    unknown = sorted(set(d) - {f.name for f in fields(DatasetSchema)}, key=str)
    if unknown:
        raise ValueError(f"unknown schema fields {unknown}")
    return DatasetSchema(
        label=d["label"],
        positive_label=str(d["positive_label"]),
        negative_label=str(d.get("negative_label", "0")),
        sensitive=d["sensitive"],
        sensitive_map={str(k): int(v) for k, v in d["sensitive_map"].items()},
        categorical=_strings(d.get("categorical", [])),
        continuous=_strings(d.get("continuous", [])),
        ignore=_strings(d.get("ignore", [])),
        label_aliases={str(k): str(v) for k, v in d.get("label_aliases", {}).items()},
        missing_token=str(d.get("missing_token", MISSING_TOKEN)),
    )


def oracle_parse_schema(block):
    try:
        return oracle_schema_from_dict(block)
    except KeyError as exc:
        raise ConfigError(f"dataset schema is missing {exc}")
    except (TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"malformed dataset schema ({type(exc).__name__}: {exc})") from None


def oracle_parse_dataset(block):
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
        schema = oracle_parse_schema(block["schema"])
    else:
        schema = None
    return path, schema


def oracle_parse_network(block):
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


def oracle_parse_variant(spec):
    if isinstance(spec, str) and ":" in spec:
        name, beta = spec.split(":", 1)
        try:
            beta = float(beta)
        except ValueError:
            raise ConfigError(f"bad variant {spec!r}: beta not numeric")
        return SoftVariant(name.strip().lower(), beta)
    return SoftVariant(str(spec).strip().lower())


def oracle_parse_measures_entry(entry):
    template = []
    for item in [entry] if isinstance(entry, str) else _typed(list, entry, "grid.measures entry"):
        kind, star, scale = str(item).partition("*")
        template.append((_typed(MeasureKind, kind.strip().upper(), "grid.measures"),
                         _typed(float, scale, "grid.measures scale") if star else 1.0))
    return tuple(template)


def oracle_parse_grid(block):
    if block is None:
        return None

    def axis(key, default):
        return _typed(list, block.get(key, default), f"grid.{key}")

    templates = tuple(oracle_parse_measures_entry(entry) for entry in axis("measures", [["FPR"]]))
    variants = tuple(oracle_parse_variant(v) for v in axis("variants", ["continuous"]))
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


ORACLE_SYNTH_FIELDS = {"n": int, "base_rate_g0": float, "base_rate_g1": float,
                       "group_fraction": float, "feature_dim": int, "noise": float, "seed": int}


def oracle_parse_synth(block):
    if block is None:
        return None
    unknown = sorted(set(block) - set(ORACLE_SYNTH_FIELDS))
    if unknown:
        raise ConfigError(f"unknown [synth] fields {unknown}")
    return {key: _typed(ORACLE_SYNTH_FIELDS[key], value, f"synth.{key}")
            for key, value in block.items()}


def oracle_parse_table_rows(block):
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


def oracle_mapping(doc, section, optional=False):
    block = doc.get(section)
    if block is None:
        if optional:
            return None
        raise ConfigError(f"config is missing the [{section}] section")
    if not isinstance(block, dict):
        raise ConfigError(f"[{section}] must be a mapping")
    return dict(block)


def oracle_from_doc(doc) -> RunConfig:
    """load_config as it was before the one field reader, from the parsed YAML on."""
    dataset_path, schema = oracle_parse_dataset(oracle_mapping(doc, "dataset", optional=True))
    network = oracle_parse_network(oracle_mapping(doc, "network")) if "network" in doc else None

    training_block = oracle_mapping(doc, "training", optional=True) or {}
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

    loss_block = oracle_mapping(doc, "loss", optional=True) or {}
    terms = tuple(parse_term(_typed(str, spec, "loss.terms"))
                  for spec in _typed(list, loss_block.get("terms", []), "loss.terms"))

    split_block = oracle_mapping(doc, "split", optional=True) or {}
    plan = SplitPlan(
        iterations=_typed(int, split_block.get("iterations", 10), "split.iterations"),
        train_fraction=_typed(float, split_block.get("train_fraction", 0.70),
                              "split.train_fraction"),
        val_fraction=_typed(float, split_block.get("val_fraction", 0.10), "split.val_fraction"),
        base_seed=_typed(int, split_block.get("base_seed", 0), "split.base_seed"),
    )

    report_block = oracle_mapping(doc, "report", optional=True) or {}
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
        grid=oracle_parse_grid(oracle_mapping(doc, "grid", optional=True)),
        synth=oracle_parse_synth(oracle_mapping(doc, "synth", optional=True)),
        table_rows=oracle_parse_table_rows(report_block.get("tables")),
        plot_measures=plot_measures,
    )


def resolved(cfg: RunConfig) -> dict:
    """Every field of ``cfg``, with ``network`` and ``training`` as the dataclasses they build.

    The oracle's dicts spell out its defaults and the reader's hold only the
    keys a config gives, so they are compared through the configs they build.
    """
    view = dict(vars(cfg))
    network, training = view.pop("network"), view.pop("training")
    view["network"] = NetworkConfig(input_dim=5, **network) if network else None
    view["training"] = TrainConfig(network=NetworkConfig(input_dim=5, hidden=(4,)), **training)
    return view


# ---- valid documents: every section, with and without each optional key ----

def optional_keys(draw, required: dict, optional: dict) -> dict:
    """``required`` plus a drawn subset of ``optional``, each value drawn from its strategy."""
    block = {key: draw(strategy) for key, strategy in required.items()}
    for key, strategy in optional.items():
        if draw(st.booleans()):
            block[key] = draw(strategy)
    return block


WORDS = st.text("abcxyz", min_size=1, max_size=4)
MEASURES = st.sampled_from([m.value for m in MeasureKind])


@st.composite
def schema_blocks(draw):
    columns = draw(st.lists(st.sampled_from(["c1", "c2", "c3", "c4"]), min_size=1, max_size=4,
                            unique=True))
    cut = draw(st.integers(0, len(columns)))
    block = optional_keys(
        draw,
        {"label": st.just("y"), "positive_label": st.sampled_from(["1", 1, "yes"]),
         "sensitive": st.just("g"), "sensitive_map": st.just({"a": 0, "b": 1})},
        {"negative_label": st.sampled_from(["0", 0, "no"]), "categorical": st.just(columns[:cut]),
         "continuous": st.just(columns[cut:]), "ignore": st.lists(WORDS, max_size=2),
         "label_aliases": st.dictionaries(WORDS, WORDS, max_size=2),
         "missing_token": st.sampled_from(["?", "NA", -1])},
    )
    if not block.get("categorical") and not block.get("continuous"):
        block["continuous"] = columns  # a schema needs a feature column
    return block


@st.composite
def dataset_blocks(draw):
    kind = draw(st.sampled_from(["adult", "synthetic", "schema", "path only"]))
    block = {"path": draw(WORDS)} if kind == "path only" or draw(st.booleans()) else {}
    if kind == "schema":
        block["schema"] = draw(schema_blocks())
    elif kind != "path only":
        block["preset"] = kind
        if kind == "synthetic" and draw(st.booleans()):
            block["feature_dim"] = draw(st.integers(1, 8))
    return block


@st.composite
def network_blocks(draw):
    widths = draw(st.lists(st.integers(1, 32), min_size=1, max_size=3))
    activation = (st.sampled_from(["relu", "leaky_relu"])
                  | st.lists(st.sampled_from(["relu", "leaky_relu"]), min_size=len(widths),
                             max_size=len(widths)))
    return optional_keys(draw, {"hidden": st.just(widths)},
                         {"activation": activation, "dropout": st.floats(0.0, 0.9) | st.just(0),
                          "batch_norm": st.booleans(), "seed": st.integers(0, 99)})


TRAINING = {"batch_size": st.integers(2, 512), "epochs": st.integers(1, 200),
            "lr": st.floats(1e-5, 1.0) | st.just(1), "seed": st.integers(0, 10**6),
            "keep_trace": st.booleans(), "beta1": st.floats(0.0, 0.99),
            "beta2": st.floats(0.0, 0.9999), "adam_eps": st.floats(1e-12, 1e-3),
            "denominator_mode": st.sampled_from([m.value for m in DenominatorMode])}
TERMS = st.builds("{}:{}:{}:{}".format, MEASURES, st.sampled_from(["continuous", "sigmoided"]),
                  st.sampled_from(["0", "0.5", "0.8"]), st.integers(1, 4))
SCALED = st.builds("{}*{}".format, MEASURES, st.sampled_from(["1", "1.25"]))


def measure_set(entry) -> tuple:
    """The (measure, scale) pairs a grid.measures entry names: FPR, [FPR] and [FPR*1] are one."""
    items = [entry] if isinstance(entry, str) else entry
    return tuple((m.partition("*")[0], float(m.partition("*")[2] or 1)) for m in items)


# a grid lists each measure set, variant, power and alpha once, as runs.csv stores it
GRID = {"measures": st.lists(MEASURES | st.lists(MEASURES | SCALED, min_size=1, max_size=2),
                             min_size=1, max_size=3, unique_by=measure_set),
        "variants": st.lists(st.sampled_from(["continuous", "sigmoided", "sigmoided:5.0"]),
                             min_size=1, max_size=3, unique=True),
        "powers": st.lists(st.integers(1, 4), min_size=1, max_size=4, unique=True),
        "alphas": st.lists(st.floats(0.0, 2.0) | st.integers(0, 2), min_size=1, max_size=4,
                           unique_by=lambda a: float(f"{a:.6g}")),
        "iterations": st.integers(1, 5)}
SPLIT = {"iterations": st.integers(1, 20), "base_seed": st.integers(0, 10**6),
         # with or without the defaults, the two fractions leave a test split
         "train_fraction": st.floats(0.05, 0.7), "val_fraction": st.floats(0.0, 0.25)}
SYNTH = {"n": st.integers(10, 10**5), "base_rate_g0": st.floats(0.1, 0.9),
         "base_rate_g1": st.floats(0.1, 0.9), "group_fraction": st.floats(0.1, 0.9),
         "feature_dim": st.integers(1, 8), "noise": st.floats(0.0, 2.0) | st.just(1),
         "seed": st.integers(0, 99)}
TABLE_ROW = {"measures": MEASURES, "variant": st.sampled_from(["continuous", "sigmoided"]),
             "beta": st.floats(0.5, 10.0), "power": st.integers(1, 4),
             "alpha": st.floats(0.0, 1.0) | st.just(1)}


@st.composite
def documents(draw):
    doc = {}
    if draw(st.booleans()):
        doc["dataset"] = draw(dataset_blocks())
    if draw(st.booleans()):
        doc["network"] = draw(network_blocks())
    for name, optional in (("training", TRAINING), ("split", SPLIT), ("synth", SYNTH),
                           ("grid", GRID), ("loss", {"terms": st.lists(TERMS, max_size=2)})):
        if draw(st.booleans()):
            doc[name] = optional_keys(draw, {}, optional)
    dataset, synth = doc.get("dataset", {}), doc.get("synth")
    if dataset.get("preset") == "synthetic" and synth is not None:
        # `synth` writes the columns the synthetic preset reads: both widths are one
        width = dataset.get("feature_dim", 6)
        if synth.get("feature_dim", 6) != width:
            synth["feature_dim"] = width
    if draw(st.booleans()):
        rows = st.builds(lambda label, row: {"label": label, **row},
                         st.text("ABC 12", min_size=1, max_size=6) | st.integers(0, 2030),
                         st.fixed_dictionaries({}, optional=TABLE_ROW))
        doc["report"] = optional_keys(draw, {}, {"tables": st.lists(rows, max_size=3),
                                                 "plot_measures": st.lists(MEASURES, max_size=2)})
    return doc


class TestSameParseAsTheOracle:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(doc=documents())
    def test_valid_documents(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("cfg") / "c.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        assert resolved(load_config(path)) == resolved(oracle_from_doc(yaml.safe_load(
            path.read_text(encoding="utf-8"))))

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_repository_configs(self, path):
        assert len(CONFIGS) == 6
        doc = yaml.safe_load(path.read_text(encoding="utf-8"))
        assert resolved(load_config(path)) == resolved(oracle_from_doc(doc))


# ---- refusal: a misspelled key in any section, table row or schema block ----

SCHEMA = {"label": "y", "positive_label": "1", "sensitive": "g",
          "sensitive_map": {"a": 0, "b": 1}, "categorical": ["c1"], "continuous": ["c2"]}
VALID = {
    "dataset": {"path": "data.csv", "schema": SCHEMA},
    "network": {"hidden": [4], "activation": "relu", "dropout": 0.1, "batch_norm": False,
                "seed": 0},
    "training": {"batch_size": 32, "epochs": 1, "lr": 0.01, "seed": 3},
    "loss": {"terms": ["FPR:continuous:0.3:1"]},
    "grid": {"measures": [["FPR"]], "variants": ["continuous"], "powers": [1],
             "alphas": [0.0, 0.5], "iterations": 1},
    "split": {"iterations": 1, "train_fraction": 0.7, "val_fraction": 0.1, "base_seed": 5},
    "synth": {"n": 60, "seed": 9},
    "report": {"tables": [{"label": "fair", "measures": "FPR", "alpha": 0.5}],
               "plot_measures": ["FPR"]},
}
# (where the key goes, the misspelled key, the start of the error)
MISSPELLED = [
    (("dataset",), "pathh", "unknown [dataset] fields ['pathh']"),
    (("dataset", "schema"), "categorial", "unknown [dataset.schema] fields ['categorial']"),
    (("network",), "dropout_rate", "unknown [network] fields ['dropout_rate']"),
    (("training",), "learning_rate", "unknown [training] fields ['learning_rate']"),
    (("loss",), "term", "unknown [loss] fields ['term']"),
    (("grid",), "alpha", "unknown [grid] fields ['alpha']"),
    (("split",), "iteration", "unknown [split] fields ['iteration']"),
    (("synth",), "seeed", "unknown [synth] fields ['seeed']"),
    (("report",), "table", "unknown [report] fields ['table']"),
    (("report", "tables", 0), "alpah", "unknown [report.tables] fields ['alpah']"),
]
IDS = [".".join(map(str, where)) for where, _, _ in MISSPELLED]


def misspelled_config(path, where, key):
    doc = yaml.safe_load(yaml.safe_dump(VALID))
    block = doc
    for step in where:
        block = block[step]
    block[key] = 1
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


@pytest.fixture
def data_dir(tmp_path, monkeypatch):
    """The working directory, holding a 60-row data.csv that VALID's schema reads."""
    rows = [f"{'pq'[i % 2]},{i % 11 / 10},{'ab'[i % 3 % 2]},{i % 4 // 2}" for i in range(60)]
    (tmp_path / "data.csv").write_text("\n".join(["c1,c2,g,y", *rows]) + "\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestUnknownKeysRefused:
    def test_valid_config_trains_and_grids(self, data_dir):
        cfg = data_dir / "ok.yaml"
        cfg.write_text(yaml.safe_dump(VALID), encoding="utf-8")
        assert cli.main(["train", "--config", str(cfg), "--out", str(data_dir / "t")]) == 0
        assert cli.main(["grid", "--config", str(cfg), "--out", str(data_dir / "g"),
                         "--jobs", "1"]) == 0

    @pytest.mark.parametrize("where, key, message", MISSPELLED, ids=IDS)
    def test_load_config_names_section_and_key(self, tmp_path, where, key, message):
        path = misspelled_config(tmp_path / "c.yaml", where, key)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            load_config(path)

    @pytest.mark.parametrize("command", ["train", "grid"])
    @pytest.mark.parametrize("where, key, message", MISSPELLED, ids=IDS)
    def test_command_exits_2_before_reading_the_dataset(self, data_dir, monkeypatch, capsys,
                                                        command, where, key, message):
        def no_read(*args, **kwargs):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(cli, "load_csv", no_read)
        path = misspelled_config(data_dir / "c.yaml", where, key)
        out = data_dir / "out"
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not out.exists()


class TestDefaultsHaveOneHome:
    def test_empty_sections_take_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text("network: {hidden: [4]}\ntraining: {}\nsplit: {}\ngrid: {}\n",
                        encoding="utf-8")
        cfg = load_config(path)
        network = NetworkConfig(input_dim=3, hidden=(4,))
        assert cfg.network_config(3) == network
        assert cfg.train_config(3) == TrainConfig(network=network)
        assert cfg.plan == SplitPlan()
        assert cfg.grid == GridSpec()


# ---- ranges: Python callers meet the rule the config reader applies ----

NET = NetworkConfig(input_dim=3, hidden=(4,))
CONT = SoftVariant.continuous()


class TestPythonCallersMeetTheSameRanges:
    @pytest.mark.parametrize("build, message", [
        (lambda: TrainConfig(network=NET, epochs=0), "epochs must be a positive integer, got 0"),
        (lambda: TrainConfig(network=NET, lr=float("nan")),
         "lr must be a finite positive number, got nan"),
        (lambda: SplitPlan(iterations=0), "iterations must be a positive integer, got 0"),
        (lambda: SplitPlan(train_fraction=0.5, val_fraction=0.5),
         "train + validation fractions must leave room for a test split"),
        (lambda: synthesize_biased(noise=float("nan")),
         "noise must be a finite non-negative number, got nan"),
        (lambda: synthesize_biased(seed=-1), "seed must be a non-negative integer, got -1"),
        (lambda: FairnessTerm(MeasureKind.FPR, CONT, alpha=float("inf")),
         "alpha must be a finite non-negative number, got inf"),
        (lambda: FairnessTerm(MeasureKind.FPR, CONT, alpha=0.5, power=1.5),
         "power must be a positive integer, got 1.5"),
        (lambda: SoftVariant.sigmoided(float("inf")), "beta must be a finite positive number"),
        (lambda: NetworkConfig(input_dim=3, hidden=(4,), dropout_rate=1.5),
         "dropout_rate must be a number in [0, 1), got 1.5"),
        (lambda: GridSpec(powers=(0, 1)), "power must be a positive integer, got 0"),
        (lambda: GridSpec(alphas=(0.0, 0.5, 0.5)), "grid.alphas must list one or more values"),
        (lambda: GridSpec(iterations=0), "iterations must be a positive integer, got 0"),
        # a cell with no fairness term trains BCE only at every alpha
        (lambda: GridSpec(templates=[[("FPR", 1.0)], []]),
         "grid.measures must not hold an empty measure set"),
        (lambda: GridSpec(templates=[[("FPR", 1e200)]], alphas=(0.0, 1e200)),
         "grid.alphas times a grid.measures scale must be finite, got 1e+200 * 1e+200"),
        (lambda: NetworkConfig(input_dim=3, hidden=((4, "tanh"),)),
         "hidden activation must be one of ['relu', 'leaky_relu'], got 'tanh'"),
        (lambda: TrainConfig(network=replace(NET, use_batch_norm=True), batch_size=1),
         "training.batch_size must be at least 2 when network.batch_norm is true, got 1"),
    ])
    def test_refused_naming_the_field(self, build, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            build()

    def test_fields_are_stored_as_their_kind_reads_them(self):
        assert type(NetworkConfig(input_dim=3, hidden=(4,), dropout_rate=0).dropout_rate) is float
        term = FairnessTerm(MeasureKind.FPR, CONT, alpha=1, power=2.0)
        assert (type(term.alpha), type(term.power)) == (float, int)
