"""CSV ingestion, encoding, Monte Carlo splits, and dataset presets.

The sensitive column is extracted into its own vector and never enters
the feature matrix; ``EncodedDataset.feature_names`` records the
provenance of every column so that exclusion is checkable.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import Mapping, NamedTuple

import numpy as np

from .errors import BpsfairError, ConfigError, DataError, EmptyInputError, SchemaError
from .fields import (FRACTION, NON_NEGATIVE, NON_NEGATIVE_INT, OPEN_FRACTION, POSITIVE_INT, TEXT,
                     Record, typed)

__all__ = [
    "DatasetSchema",
    "RawTable",
    "Categorical",
    "EncoderState",
    "EncodedDataset",
    "SplitPlan",
    "load_csv",
    "fit_encoder",
    "apply_encoder",
    "mc_splits",
    "adult_preset",
    "synthetic_preset",
    "synthesize_biased",
    "write_csv",
]

log = logging.getLogger(__name__)

MISSING_TOKEN = "?"
# CSV records per block of load_csv and write_csv.  The 48,842-row Adult-shaped file
# loads in 177 ms with blocks of 1,024 rows, 204 ms with 4,096, 265 ms with
# 16,384 and 333 ms in one block (tracemalloc peak 11.7/12.6/33.6/59.2 MB).
INGEST_BLOCK_ROWS = 1024
_MISSING = -2  # a dictionary lookup's entry for the missing token


@dataclass(frozen=True)
class DatasetSchema(Record):
    """Column roles for one CSV dataset.

    ``sensitive_map`` sends raw sensitive-column values to group codes 0/1.
    ``label_aliases`` normalizes label spellings before comparison with
    ``positive_label`` (the UCI Adult test file writes ``>50K.``).
    ``from_dict`` reads the label and sensitive column names, the labels,
    the sensitive values and the missing token as text: ``label: 1`` names
    the column headed ``1``.
    """

    KINDS = {"label": TEXT, "positive_label": TEXT, "negative_label": TEXT, "sensitive": TEXT,
             "sensitive_map": {TEXT: int}, "categorical": [str], "continuous": [str],
             "ignore": [str], "label_aliases": {TEXT: TEXT}, "missing_token": TEXT}
    SECTION = "dataset.schema"

    label: str
    positive_label: str
    sensitive: str
    sensitive_map: Mapping[str, int]
    negative_label: str = "0"
    categorical: tuple = ()
    continuous: tuple = ()
    ignore: tuple = ()
    label_aliases: Mapping[str, str] = field(default_factory=dict)
    missing_token: str = MISSING_TOKEN

    def __post_init__(self):
        object.__setattr__(self, "categorical", tuple(self.categorical))
        object.__setattr__(self, "continuous", tuple(self.continuous))
        object.__setattr__(self, "ignore", tuple(self.ignore))
        features = self.categorical + self.continuous
        if not features:
            raise ConfigError("schema needs at least one feature column")
        overlap = {self.label, self.sensitive} & set(features)
        if overlap:
            raise ConfigError(f"label/sensitive columns cannot be features: {sorted(overlap)}")
        if set(self.sensitive_map.values()) - {0, 1}:
            raise ConfigError("sensitive_map must map onto group codes {0, 1}")

    @property
    def used_columns(self):
        return (self.label, self.sensitive) + self.categorical + self.continuous


class Categorical(NamedTuple):
    """A dictionary-encoded column: row i holds ``vocabulary[codes[i]]``.

    ``vocabulary`` lists distinct stripped cells in the order the file
    first shows them; it may hold values that only dropped rows had.
    """

    vocabulary: tuple
    codes: np.ndarray  # int64

    def decode(self) -> list:
        """The column's values, one string per row."""
        return list(map(self.vocabulary.__getitem__, self.codes.tolist()))


@dataclass
class RawTable:
    """Typed columns straight from a CSV, after missing-value filtering."""

    schema: DatasetSchema
    categorical: dict  # column -> Categorical
    continuous: dict  # column -> np.ndarray float64
    labels: np.ndarray  # {0,1}
    groups: np.ndarray  # {0,1}
    row_indices: np.ndarray  # positions in the source file's data section
    dropped_count: int = 0

    @property
    def n_rows(self) -> int:
        return self.labels.size


@dataclass(frozen=True)
class EncoderState(Record):
    """Fitted vocabularies and normalization statistics.

    Vocabularies are ordered; continuous columns with zero training
    variance are marked constant and encode to 0.
    """

    KINDS = {"vocabularies": {str: [str]}, "means": {str: float}, "stds": {str: float},
             "constant_columns": [str]}
    SECTION = "encoder"

    vocabularies: Mapping[str, tuple]
    means: Mapping[str, float]
    stds: Mapping[str, float]
    constant_columns: tuple = ()


@dataclass
class EncodedDataset:
    """Numeric design matrix plus withheld sensitive attribute and labels."""

    X: np.ndarray
    A: np.ndarray
    Y: np.ndarray
    feature_names: tuple

    @property
    def n_rows(self) -> int:
        return self.Y.size


@dataclass(frozen=True)
class SplitPlan(Record):
    """Monte Carlo cross-validation plan: repeated seeded shuffles."""

    KINDS = {"iterations": POSITIVE_INT, "train_fraction": OPEN_FRACTION,
             "val_fraction": FRACTION, "base_seed": NON_NEGATIVE_INT}
    SECTION = "split"

    iterations: int = 10
    train_fraction: float = 0.70
    val_fraction: float = 0.10
    base_seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        if self.train_fraction + self.val_fraction >= 1.0:
            raise ConfigError("train + validation fractions must leave room for a test split")


def load_csv(path, schema: DatasetSchema) -> RawTable:
    """Read and type-check a headered CSV against a schema.

    Blank rows are skipped.  Rows containing the missing-value token in
    any used column are dropped (and counted).  Rows shorter than the
    used columns need, with an unmapped sensitive value, an unparseable
    numeric or a label that is neither the positive nor the negative one
    (after ``label_aliases``) raise one DataError listing them.  The file
    is read in blocks of INGEST_BLOCK_ROWS records, so no step holds the
    whole file's cells as strings.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = [h.strip() for h in next(reader)]
            except StopIteration:
                raise EmptyInputError(f"{path}: file is empty")
            for col in schema.used_columns:
                if col not in header:
                    raise SchemaError(f"{path}: column {col!r} not found in header")
            ingest = _Ingest(schema, {col: header.index(col) for col in schema.used_columns})
            start = 0  # row numbers count every record after the header
            while records := list(islice(reader, INGEST_BLOCK_ROWS)):
                ingest.add(records, start)
                start += len(records)
    except UnicodeDecodeError:
        raise not_utf8_error(path) from None
    return ingest.table(path)


class _Dictionary:
    """File-wide dictionary encoding of one column's stripped cells.

    ``lookup[code]`` is ``classify(vocabulary[code])``, or _MISSING for the
    missing token, so a check on a value runs once per distinct value.
    """

    def __init__(self, missing_token, classify=lambda value: 0):
        self.missing_token = missing_token
        self.classify = classify
        self.vocabulary = []  # distinct stripped cells, in first-seen order
        self.code = {}  # stripped cell -> code
        self.raw_code = {}  # raw cell -> code
        self.lookup = np.empty(0, dtype=np.int64)

    def encode(self, cells: list) -> np.ndarray:
        """The codes of one block's cells, adding their new values to the vocabulary."""
        for raw in dict.fromkeys(cells):
            if raw not in self.raw_code:
                value = raw.strip()
                if value not in self.code:
                    self.code[value] = len(self.vocabulary)
                    self.vocabulary.append(value)
                self.raw_code[raw] = self.code[value]
        if len(self.vocabulary) > self.lookup.size:
            added = self.vocabulary[self.lookup.size:]
            self.lookup = np.append(self.lookup, [
                _MISSING if v == self.missing_token else self.classify(v) for v in added])
        return np.fromiter(map(self.raw_code.__getitem__, cells), np.int64, len(cells))


class _Ingest:
    """Typed columns of load_csv, built one block of records at a time."""

    def __init__(self, schema: DatasetSchema, col_idx: dict):
        self.schema = schema
        self.col_idx = col_idx
        self.width = max(col_idx.values()) + 1
        token = schema.missing_token
        # a missing token that parses as a float hides among the numbers
        self.numeric_token = _parse_float(token) is not None
        label_code = {schema.negative_label: 0, schema.positive_label: 1}
        self.sensitive = _Dictionary(token, lambda v: schema.sensitive_map.get(v, -1))
        self.label = _Dictionary(
            token, lambda v: label_code.get(schema.label_aliases.get(v, v), -1))
        self.categorical = {c: _Dictionary(token) for c in schema.categorical}
        self.bad_rows = []  # (row, message)
        self.blocks = []  # per block: (codes, continuous, labels, groups, rows) of its kept rows
        self.dropped = 0

    def add(self, records: list, start: int):
        """Check and type one block of records; ``start`` is its first row number."""
        schema = self.schema
        # a row is blank when all its cells are whitespace
        n_fields = np.fromiter(map(len, records), np.int64, len(records))
        blank = np.fromiter(map(len, map(str.strip, map("".join, records))), np.int64,
                            len(records)) == 0
        self.bad_rows.extend((start + r, f"short row: {n_fields[r]} of {self.width} field(s)")
                             for r in np.flatnonzero(~blank & (n_fields < self.width)).tolist())
        rows = np.flatnonzero(~blank & (n_fields >= self.width))
        n = rows.size
        # the first `width` columns of the block's full rows, as tuples of cells
        fields = list(islice(zip(*map(records.__getitem__, rows.tolist())), self.width))

        def cells(col):
            return fields[self.col_idx[col]] if n else ()

        sensitive = self.sensitive.encode(cells(schema.sensitive))
        label = self.label.encode(cells(schema.label))
        codes = {c: d.encode(cells(c)) for c, d in self.categorical.items()}
        groups = self.sensitive.lookup[sensitive]
        labels = self.label.lookup[label]
        missing = (groups == _MISSING) | (labels == _MISSING)
        for c, d in self.categorical.items():
            missing |= d.lookup[codes[c]] == _MISSING
        continuous, texts = {}, {}  # texts: stripped cells of the columns read per value
        for c in schema.continuous:
            column = cells(c)
            try:
                if not self.numeric_token:
                    continuous[c] = np.fromiter(map(float, column), np.float64, n)
                    continue
            except ValueError:
                pass
            texts[c] = list(map(str.strip, column))
            missing |= np.array([t == schema.missing_token for t in texts[c]], dtype=bool)
        ok = ~missing

        def reject(failed, message):
            failed &= ok  # a row is reported once, for its first failed check
            self.bad_rows.extend((start + int(rows[i]), message(i)) for i in np.flatnonzero(failed))
            ok[failed] = False

        reject(groups < 0, lambda i: "unmapped sensitive value "
               f"{self.sensitive.vocabulary[sensitive[i]]!r}")
        for c, text in texts.items():
            parsed = list(map(_parse_float, text))
            reject(np.array([v is None for v in parsed], dtype=bool),
                   lambda i: f"non-numeric value {text[i]!r} in column {c!r}")
            continuous[c] = np.array([np.nan if v is None else v for v in parsed],
                                     dtype=np.float64)
        reject(labels < 0, lambda i: f"unknown label {self.label.vocabulary[label[i]]!r}")

        self.dropped += int(missing.sum())
        keep = np.flatnonzero(ok)
        self.blocks.append(({c: v[keep] for c, v in codes.items()},
                            {c: continuous[c][keep] for c in schema.continuous},
                            labels[keep], groups[keep], start + rows[keep]))

    def table(self, path) -> RawTable:
        """The kept rows of every block, or the DataError naming the unusable rows."""
        schema = self.schema
        if self.bad_rows:
            self.bad_rows.sort()
            preview = "; ".join(f"row {r}: {msg}" for r, msg in self.bad_rows[:5])
            raise DataError(
                f"{path}: {len(self.bad_rows)} unusable row(s): {preview}",
                rows=[r for r, _ in self.bad_rows],
            )
        if not any(block[2].size for block in self.blocks):
            raise EmptyInputError(f"{path}: no usable rows after filtering")
        if self.dropped:
            log.info("%s: dropped %d row(s) containing %r", path, self.dropped,
                     schema.missing_token)
        codes, continuous, labels, groups, rows = zip(*self.blocks)
        return RawTable(
            schema=schema,
            categorical={c: Categorical(tuple(d.vocabulary),
                                        np.concatenate([b[c] for b in codes]))
                         for c, d in self.categorical.items()},
            continuous={c: np.concatenate([b[c] for b in continuous])
                        for c in schema.continuous},
            labels=np.concatenate(labels),
            groups=np.concatenate(groups),
            row_indices=np.concatenate(rows),
            dropped_count=self.dropped,
        )


def not_utf8_error(path, error=DataError) -> BpsfairError:
    """The ``error`` for a file that does not decode as UTF-8, naming the first bad byte."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return error(f"{path}: not UTF-8 text: byte 0x{raw[exc.start]:02x} "
                     f"at offset {exc.start}")
    return error(f"{path}: not UTF-8 text")  # the file changed since the failed read


def _parse_float(text):
    try:
        return float(text)
    except ValueError:
        return None


def fit_encoder(table: RawTable, rows=None) -> EncoderState:
    """Fit vocabularies and z-score statistics on the given rows only.

    ``rows`` defaults to the whole table; during Monte Carlo runs it must
    be the training indices so no test statistics leak into the encoder.
    """
    if table.n_rows == 0:
        raise EmptyInputError("cannot fit an encoder on an empty table")
    idx = np.arange(table.n_rows) if rows is None else np.asarray(rows, dtype=np.int64)
    if idx.size == 0:
        raise EmptyInputError("cannot fit an encoder on zero rows")
    schema = table.schema
    vocabularies = {}
    for c in schema.categorical:
        vocabulary, codes = table.categorical[c]
        seen = np.unique(codes if rows is None else codes[idx]).tolist()
        vocabularies[c] = tuple(sorted(map(vocabulary.__getitem__, seen)))
    means, stds, constant = {}, {}, []
    for c in schema.continuous:
        vals = table.continuous[c][idx]
        mean, std = float(vals.mean()), float(vals.std())
        means[c] = mean
        if std == 0.0:
            constant.append(c)
            stds[c] = 1.0  # encoded value is forced to 0 below
        else:
            stds[c] = std
    return EncoderState(vocabularies=vocabularies, means=means, stds=stds,
                        constant_columns=tuple(constant))


def apply_encoder(table: RawTable, encoder: EncoderState, rows=None) -> EncodedDataset:
    """Encode rows into the design matrix; unseen categories map to all-zero blocks.

    Continuous columns come first, then one one-hot block per categorical
    column, set by one assignment from each row's design-matrix column,
    which a per-column lookup table gives for each dictionary code.
    """
    idx = np.arange(table.n_rows) if rows is None else np.asarray(rows, dtype=np.int64)
    schema = table.schema
    unfit = [c for c in schema.continuous if c not in encoder.means or c not in encoder.stds]
    unfit += [c for c in schema.categorical if c not in encoder.vocabularies]
    if unfit:
        raise SchemaError(f"the encoder was not fit on column(s) {unfit}")
    n = idx.size
    names = list(schema.continuous)
    # hot[k, i]: the design-matrix column of row i's value of categorical column k, -1 if unseen
    hot = np.empty((len(schema.categorical), n), dtype=np.int64)
    for k, c in enumerate(schema.categorical):
        vocabulary, codes = table.categorical[c]
        column = {v: len(names) + j for j, v in enumerate(encoder.vocabularies[c])}
        lookup = np.fromiter(map(column.get, vocabulary, repeat(-1)), np.int64, len(vocabulary))
        hot[k] = lookup[codes if rows is None else codes[idx]]
        names.extend(f"{c}={v}" for v in encoder.vocabularies[c])
    X = np.zeros((n, len(names)))
    for j, c in enumerate(schema.continuous):
        if c not in encoder.constant_columns:
            X[:, j] = (table.continuous[c][idx] - encoder.means[c]) / encoder.stds[c]
    seen = hot >= 0
    X[np.broadcast_to(np.arange(n), hot.shape)[seen], hot[seen]] = 1.0
    unseen = hot.size - int(np.count_nonzero(seen))
    if unseen:
        log.info("encoder: %d unseen categorical value(s) mapped to zero blocks", unseen)
    return EncodedDataset(
        X=X,
        A=table.groups[idx].copy(),
        Y=table.labels[idx].copy(),
        feature_names=tuple(names),
    )


def mc_splits(n_rows: int, plan: SplitPlan):
    """Disjoint exhaustive (train, val, test) index triples, one per iteration.

    Each iteration is an independent uniform shuffle seeded by
    ``base_seed + iteration``, so a plan always reproduces its splits.
    """
    if n_rows < 10:
        raise ConfigError(f"need at least 10 rows to split, got {n_rows}")
    n_train = round(n_rows * plan.train_fraction)
    n_val = round(n_rows * plan.val_fraction)
    if n_train < 1 or n_rows - n_train - n_val < 1 or (n_val < 1 and plan.val_fraction > 0):
        raise ConfigError(
            f"degenerate split of {n_rows} rows: train={n_train}, val={n_val}"
        )
    splits = []
    for it in range(plan.iterations):
        rng = np.random.default_rng(plan.base_seed + it)
        perm = rng.permutation(n_rows)
        splits.append(
            (perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :])
        )
    return splits


def adult_preset() -> DatasetSchema:
    """Schema for the combined UCI Adult Income CSV.

    Label is income over 50K; the sensitive attribute is gender with
    female coded 0 and male coded 1, withheld from the features.
    """
    return DatasetSchema(
        label="income",
        positive_label=">50K",
        negative_label="<=50K",
        sensitive="sex",
        sensitive_map={"Female": 0, "Male": 1},
        categorical=(
            "workclass",
            "education",
            "marital-status",
            "occupation",
            "relationship",
            "race",
            "native-country",
        ),
        continuous=(
            "age",
            "fnlwgt",
            "education-num",
            "capital-gain",
            "capital-loss",
            "hours-per-week",
        ),
        label_aliases={">50K.": ">50K", "<=50K.": "<=50K"},
    )


def synthetic_preset(feature_dim: int) -> DatasetSchema:
    """Schema matching the output of :func:`synthesize_biased`."""
    return DatasetSchema(
        label="label",
        positive_label="1",
        sensitive="group",
        sensitive_map={"0": 0, "1": 1},
        continuous=tuple(f"f{j}" for j in range(feature_dim)),
    )


# synthesize_biased's arguments, as [synth] reads them; the function holds the defaults
SYNTH_KINDS = {"n": POSITIVE_INT, "base_rate_g0": OPEN_FRACTION, "base_rate_g1": OPEN_FRACTION,
               "group_fraction": OPEN_FRACTION, "feature_dim": POSITIVE_INT, "noise": NON_NEGATIVE,
               "seed": NON_NEGATIVE_INT}


def synthesize_biased(
    n: int = 10_000,
    base_rate_g0: float = 0.34,
    base_rate_g1: float = 0.46,
    group_fraction: float = 0.5,
    feature_dim: int = 6,
    noise: float = 1.0,
    seed: int = 0,
) -> RawTable:
    """Generate a biased binary-classification table.

    Group membership is drawn with P(A=0) = ``group_fraction`` and labels
    with group-dependent positive rates.  Feature 0 carries a pure label
    signal (a single threshold suffices when ``noise`` is 0); the
    remaining features mix label and group signal so that an
    accuracy-trained model picks up group-correlated shortcuts and shows
    measurable bias at the baseline.
    """
    arguments = locals()
    for name, kind in SYNTH_KINDS.items():
        typed(kind, arguments[name], name)

    rng = np.random.default_rng(seed)
    a = (rng.random(n) >= group_fraction).astype(np.int64)
    rates = np.where(a == 0, base_rate_g0, base_rate_g1)
    y = (rng.random(n) < rates).astype(np.int64)

    label_coef = np.empty(feature_dim)
    group_coef = np.empty(feature_dim)
    label_coef[0], group_coef[0] = 1.0, 0.0
    if feature_dim > 1:
        label_coef[1:] = rng.uniform(0.4, 1.2, feature_dim - 1)
        group_coef[1:] = rng.uniform(0.3, 1.0, feature_dim - 1)
    X = (
        (y - 0.5)[:, None] * label_coef
        + (a - 0.5)[:, None] * group_coef
        + noise * rng.standard_normal((n, feature_dim))
    )

    schema = synthetic_preset(feature_dim)
    return RawTable(
        schema=schema,
        categorical={},
        continuous={f"f{j}": X[:, j].copy() for j in range(feature_dim)},
        labels=y,
        groups=a,
        row_indices=np.arange(n, dtype=np.int64),
        dropped_count=0,
    )


def write_csv(table: RawTable, path):
    """Write a RawTable back out in the loaders' CSV format, INGEST_BLOCK_ROWS rows at a time."""
    schema = table.schema
    inverse_group = {code: raw for raw, code in reversed(schema.sensitive_map.items())}
    # the coded columns, each with the names its codes index; a group code's name is its first value
    coded = [*map(table.categorical.__getitem__, schema.categorical), (inverse_group, table.groups),
             ((schema.negative_label, schema.positive_label), table.labels)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*schema.continuous, *schema.categorical, schema.sensitive, schema.label])
        for start in range(0, table.n_rows, INGEST_BLOCK_ROWS):
            rows = slice(start, start + INGEST_BLOCK_ROWS)
            block = [[f"{v:.10g}" for v in table.continuous[c][rows].tolist()]
                     for c in schema.continuous]
            block += [list(map(names.__getitem__, codes[rows].tolist())) for names, codes in coded]
            writer.writerows(zip(*block))
