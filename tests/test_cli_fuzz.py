"""CLI-level property: on fuzzed config, CSV, dump and artifact files every
command returns 0 or 2, and exit 2 prints the CLI's ``error:`` line.

Each file starts from a valid one and takes a few structured mutations
(a value replaced or deleted, a cell or line edited) and sometimes a
byte-level one.  The values are small, so a mutated config trains at most
a few epochs of a tiny network on at most 200 rows, and every command runs
in this process (no pool).  Each ``@example`` is an input that once ended
in a traceback.
"""

import copy
import hashlib
import json
import struct
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bpsfair.cli import main
from bpsfair.data import apply_encoder, fit_encoder, synthesize_biased, write_csv
from bpsfair.engine import RUN_FIELDS, scalar_columns
from bpsfair.network import FORMAT_VERSION, MAGIC, NetworkConfig, init, serialize

FUZZ = settings(derandomize=True, deadline=None, max_examples=40,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])
DELETE = object()  # an edit that removes the key

BASE_CONFIG = {
    "dataset": {"preset": "synthetic", "feature_dim": 3, "path": "data.csv"},
    "network": {"hidden": [4], "activation": "relu", "dropout": 0.0, "batch_norm": False},
    "training": {"batch_size": 64, "epochs": 1, "lr": 0.01, "seed": 3},
    "loss": {"terms": ["FPR:continuous:0.3:1"]},
    "grid": {"measures": [["FPR"]], "variants": ["continuous"], "powers": [1],
             "alphas": [0.0, 0.5]},
    "split": {"iterations": 1, "train_fraction": 0.7, "val_fraction": 0.1, "base_seed": 5},
    "synth": {"n": 200, "base_rate_g0": 0.35, "base_rate_g1": 0.5, "feature_dim": 3,
              "noise": 0.5, "seed": 9},
    "report": {"tables": [{"label": "fair", "measures": "FPR", "alpha": 0.5}],
               "plot_measures": ["FPR"]},
}
CONFIG = yaml.safe_dump(BASE_CONFIG).encode("utf-8")
TABLE = synthesize_biased(n=200, base_rate_g0=0.35, base_rate_g1=0.5, feature_dim=3,
                          noise=0.5, seed=9)
# grids read the data through an explicit schema block, so it is fuzzed too
GRID_CONFIG = {**BASE_CONFIG, "dataset": {"path": "data.csv", "schema": TABLE.schema.to_dict()}}
# where a misspelled key can go: every section, a report table row and the schema block
KEY_PLACES = [("dataset",), ("dataset", "schema"), ("network",), ("training",), ("loss",),
              ("grid",), ("split",), ("synth",), ("report",), ("report", "tables", 0)]
MISSPELLED = ["dropout_rate", "alpha", "iteration", "categorial", "seeed", "learning_rate", "x"]


def _data_csv() -> str:
    with tempfile.TemporaryDirectory() as d:
        write_csv(TABLE, Path(d) / "data.csv")
        return (Path(d) / "data.csv").read_text(encoding="utf-8")


def _artifact() -> bytes:
    """An untrained model with the schema and encoder metadata `bpsfair train` writes."""
    encoder = fit_encoder(TABLE)
    names = apply_encoder(TABLE, encoder).feature_names
    return serialize(init(NetworkConfig(input_dim=3, hidden=((4, "relu"),))),
                     {"schema": TABLE.schema.to_dict(), "encoder": encoder.to_dict(),
                      "feature_names": list(names)})


def _runs_csv() -> str:
    """Two cells (alpha 0 and 0.5) of two runs each, every other scalar 0.5."""
    columns = RUN_FIELDS + scalar_columns(1)
    lines = [",".join(columns)]
    for alpha in ("0", "0.5"):
        for iteration in ("0", "1"):
            cells = {"measures": "FPR", "variant": "continuous", "beta": "1", "power": "1",
                     "alpha": alpha, "iteration": iteration, "seed": "3", "diverged": "0",
                     "divergence_epoch": "", "best_epoch": "1"}
            lines.append(",".join(cells.get(c, "0.5") for c in columns))
    return "\n".join(lines) + "\n"


DATA_CSV = _data_csv()
GRID_DATA_CSV = "\n".join(DATA_CSV.split("\n")[:61]) + "\n"  # the header and 60 rows
DUMP_CSV = "y_true,y_prob,group\n" + "".join(
    f"{i % 2},{(i % 7) / 7:.3f},{i // 10 % 2}\n" for i in range(20))
ARTIFACT = _artifact()
RUNS_CSV = _runs_csv()
MANIFEST = json.dumps({"config_digest": hashlib.sha256(CONFIG).hexdigest()}).encode("utf-8")

# small values only: a mutated epochs, n or batch_size stays cheap
WORDS = ["", "?", "1", "-1", "0.5", "1e-3", "nan", "inf", "true", "x", "FPR", "STP", "relu",
         "continuous", "sigmoided:2", "FPR*2", "FPR:continuous:0.5:1", "adult", "data.csv", "."]
LEAVES = (st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from(WORDS)
          | st.sampled_from([0.5, -0.5, 1.5, 1e-300, float("nan"), float("inf"), -float("inf")])
          | st.text(st.characters(codec="utf-8", exclude_characters="0123456789"), max_size=4))


def _containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(WORDS), inner,
                                                         max_size=2)


VALUES = st.recursive(LEAVES, _containers, max_leaves=5)
CELLS = ["", " ", "?", "0", "1", "2", "-1", "0.5", "nan", "inf", "1e999", "x", '"', "a,b",
         "\xff", ">50K"]


def _paths(node, prefix=()):
    """The key path of every value inside a parsed YAML/JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _edit(doc, path, value):
    """Set the value at ``path`` in ``doc``, or delete it when ``value`` is DELETE."""
    parent = _parent(doc, path)
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value


def edited_config(path, value) -> bytes:
    doc = copy.deepcopy(BASE_CONFIG)
    _edit(doc, path, value)
    return yaml.safe_dump(doc).encode("utf-8")


def _header(blob: bytes):
    """(JSON header, payload) of an artifact."""
    (length,) = struct.unpack_from("<I", blob, len(MAGIC) + 4)
    start = len(MAGIC) + 8
    return json.loads(blob[start:start + length]), blob[start + length:]


def _with_header(header: dict, payload: bytes) -> bytes:
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    return MAGIC + struct.pack("<II", FORMAT_VERSION, len(encoded)) + encoded + payload


def edited_artifact(path, value) -> bytes:
    header, payload = _header(ARTIFACT)
    _edit(header["metadata"], path, value)
    return _with_header(header, payload)


def mutate_document(draw, doc):
    """Replace or delete 1-3 values of ``doc`` in place, or add an unknown key."""
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            return
        path = draw(st.sampled_from(paths))
        action = draw(st.sampled_from(["value", "value", "delete", "add"]))
        if action == "add" and isinstance(_parent(doc, path), dict):
            path = path[:-1] + (draw(st.sampled_from(WORDS)),)
        _edit(doc, path, DELETE if action == "delete" else draw(VALUES))


def mutate_bytes(draw, blob: bytes) -> bytes:
    """Sometimes flip, delete or cut one byte of ``blob``."""
    action = draw(st.sampled_from(["keep", "keep", "keep", "flip", "delete", "cut"]))
    if action == "keep" or not blob:
        return blob
    at = draw(st.integers(0, len(blob) - 1))
    if action == "flip":
        return blob[:at] + bytes([blob[at] ^ draw(st.integers(1, 255))]) + blob[at + 1:]
    if action == "delete":
        return blob[:at] + blob[at + 1:]
    return blob[:at]


@st.composite
def configs(draw):
    doc = copy.deepcopy(BASE_CONFIG)
    if draw(st.booleans()):
        mutate_document(draw, doc)
    return mutate_bytes(draw, yaml.safe_dump(doc).encode("utf-8"))


@st.composite
def grid_configs(draw):
    """GRID_CONFIG, maybe with a misspelled key in one place, then maybe mutated."""
    doc = copy.deepcopy(GRID_CONFIG)
    if draw(st.booleans()):
        block = doc
        for step in draw(st.sampled_from(KEY_PLACES)):
            block = block[step]
        block[draw(st.sampled_from(MISSPELLED))] = draw(VALUES)
    if draw(st.booleans()):
        mutate_document(draw, doc)
    return mutate_bytes(draw, yaml.safe_dump(doc).encode("utf-8"))


@st.composite
def csv_files(draw, text):
    """``text`` with 0-3 cells replaced, a line dropped or doubled, and maybe a byte edit."""
    lines = text.split("\n")
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        cells = lines[i].split(",")
        action = draw(st.sampled_from(["cell", "cell", "drop", "double", "short"]))
        if action == "cell":
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(CELLS))
            lines[i] = ",".join(cells)
        elif action == "drop":
            del lines[i]
        elif action == "double":
            lines.insert(i, lines[i])
        else:
            lines[i] = ",".join(cells[:draw(st.integers(0, len(cells)))])
    return mutate_bytes(draw, "\n".join(lines).encode("utf-8"))


@st.composite
def artifacts(draw):
    """The artifact with mutated metadata (schema, encoder, feature names) or bytes."""
    header, payload = _header(ARTIFACT)
    if draw(st.booleans()):
        mutate_document(draw, header["metadata"])
    return mutate_bytes(draw, _with_header(header, payload))


@st.composite
def manifests(draw):
    """None for no manifest, else the manifest of CONFIG, maybe with a byte edit."""
    return None if draw(st.booleans()) else mutate_bytes(draw, MANIFEST)


def assert_exits_cleanly(argv, capsys):
    code = main([str(a) for a in argv])  # any exception fails the property
    err = capsys.readouterr().err
    assert code in (0, 2)
    if code == 2:
        assert err.startswith("error: ")
    return code


def short_first_row(text):
    header, first, rest = text.split("\n", 2)
    return "\n".join([header, "FPR", rest]).encode("utf-8")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestEveryCommandExitsCleanly:
    def test_unmutated_files_exit_0(self, tmp_path, monkeypatch):
        # so the mutations start from inputs every command accepts
        monkeypatch.chdir(tmp_path)
        for name, blob in [("c.yaml", CONFIG), ("data.csv", DATA_CSV.encode("utf-8")),
                           ("dump.csv", DUMP_CSV.encode("utf-8")), ("m.bpsf", ARTIFACT),
                           ("runs.csv", RUNS_CSV.encode("utf-8")), ("manifest.json", MANIFEST)]:
            (tmp_path / name).write_bytes(blob)
        (tmp_path / "g.yaml").write_text(yaml.safe_dump(GRID_CONFIG), encoding="utf-8")
        for argv in (["synth", "--config", "c.yaml", "--out", "s.csv"],
                     ["train", "--config", "c.yaml", "--out", "out"],
                     ["grid", "--config", "g.yaml", "--out", "grid", "--jobs", "1"],
                     ["evaluate", "--predictions", "dump.csv"],
                     ["evaluate", "--model", "m.bpsf", "--dataset", "data.csv"],
                     ["report", "--out", ".", "--config", "c.yaml"]):
            assert main(argv) == 0, argv

    @FUZZ
    @given(config=configs())
    @example(config=edited_config(("dataset", "path"), None))  # Path(None)
    @example(config=edited_config(("grid", "measures"), float("inf")))  # iterating a float
    @example(config=edited_config(("grid", "measures", 0), None))  # iterating None
    @example(config=edited_config(("grid", "measures", 0, 0), None))  # MeasureKind("NONE")
    @example(config=edited_config(("report", "tables", 0), "x"))  # dict("x")
    @example(config=edited_config(("loss", "terms", 0), None))  # None.strip()
    @example(config=edited_config(("synth", "seed"), -1))  # default_rng(-1)
    def test_synth(self, tmp_path_factory, capsys, config):
        d = tmp_path_factory.mktemp("synth")
        (d / "c.yaml").write_bytes(config)
        assert_exits_cleanly(["synth", "--config", d / "c.yaml", "--out", d / "s.csv"], capsys)

    @FUZZ
    @given(config=configs(), data_csv=csv_files(DATA_CSV))
    @example(config=edited_config(("network",), DELETE),  # NetworkConfig(**{})
             data_csv=DATA_CSV.encode("utf-8"))
    @example(config=edited_config(("dataset", "path"), "."),  # a directory: IsADirectoryError
             data_csv=DATA_CSV.encode("utf-8"))
    @example(config=edited_config(("network", "seed"), -1),  # default_rng(-1)
             data_csv=DATA_CSV.encode("utf-8"))
    @example(config=edited_config(("training", "seed"), -3),  # default_rng((-3, epoch, 0))
             data_csv=DATA_CSV.encode("utf-8"))
    @example(config=edited_config(("split", "base_seed"), -5),  # default_rng(-5 + iteration)
             data_csv=DATA_CSV.encode("utf-8"))
    def test_train(self, tmp_path_factory, capsys, monkeypatch, config, data_csv):
        d = tmp_path_factory.mktemp("train")
        monkeypatch.chdir(d)  # the config's dataset path is relative
        (d / "c.yaml").write_bytes(config)
        (d / "data.csv").write_bytes(data_csv)
        assert_exits_cleanly(["train", "--config", d / "c.yaml", "--out", d / "out"], capsys)

    @FUZZ
    @given(config=grid_configs())
    @example(config=yaml.safe_dump(GRID_CONFIG).encode("utf-8"))
    def test_grid(self, tmp_path_factory, capsys, monkeypatch, config):
        # a tiny in-process grid: 60 rows, 1 epoch, 1 iteration, 2 alphas, --jobs 1
        d = tmp_path_factory.mktemp("grid")
        monkeypatch.chdir(d)  # the config's dataset path is relative
        (d / "c.yaml").write_bytes(config)
        (d / "data.csv").write_text(GRID_DATA_CSV, encoding="utf-8")
        out = d / "out"
        code = assert_exits_cleanly(["grid", "--config", d / "c.yaml", "--out", out,
                                     "--jobs", "1"], capsys)
        if code == 2:  # a refused config leaves --out as it was: absent
            assert not out.exists()

    @FUZZ
    @given(dump=csv_files(DUMP_CSV))
    def test_evaluate_predictions(self, tmp_path_factory, capsys, dump):
        d = tmp_path_factory.mktemp("dump")
        (d / "dump.csv").write_bytes(dump)
        assert_exits_cleanly(["evaluate", "--predictions", d / "dump.csv", "--out", d / "ev"],
                             capsys)

    @FUZZ
    @given(artifact=artifacts(), data_csv=csv_files(DATA_CSV))
    @example(artifact=edited_artifact(("encoder", "stds", "f2"), {}),  # x / {}
             data_csv=DATA_CSV.encode("utf-8"))
    @example(artifact=edited_artifact(("encoder", "stds", "f2"), []),  # x / []
             data_csv=DATA_CSV.encode("utf-8"))
    @example(artifact=edited_artifact(("encoder", "stds", "f1"), DELETE),  # stds["f1"]
             data_csv=DATA_CSV.encode("utf-8"))
    def test_evaluate_model(self, tmp_path_factory, capsys, artifact, data_csv):
        d = tmp_path_factory.mktemp("model")
        (d / "m.bpsf").write_bytes(artifact)
        (d / "data.csv").write_bytes(data_csv)
        assert_exits_cleanly(["evaluate", "--model", d / "m.bpsf", "--dataset", d / "data.csv",
                              "--out", d / "ev"], capsys)

    @FUZZ
    @given(runs=csv_files(RUNS_CSV), manifest=manifests(), config=st.none() | configs())
    @example(runs=short_first_row(RUNS_CSV), manifest=None, config=None)  # sorting None
    @example(runs=RUNS_CSV.replace("power", "nan", 1).encode("utf-8"),  # row["power"]
             manifest=None, config=None)
    @example(runs=RUNS_CSV.encode("utf-8"), manifest=None,
             config=edited_config(("dataset", "path"), -1))  # Path(-1)
    def test_report(self, tmp_path_factory, capsys, runs, manifest, config):
        d = tmp_path_factory.mktemp("report")
        (d / "runs.csv").write_bytes(runs)
        argv = ["report", "--out", d]
        if manifest is not None:
            (d / "manifest.json").write_bytes(manifest)
        if config is not None:
            (d / "c.yaml").write_bytes(config)
            argv += ["--config", d / "c.yaml"]
        assert_exits_cleanly(argv, capsys)
