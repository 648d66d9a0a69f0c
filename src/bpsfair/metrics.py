"""Per-group statistical measures, their shared formula, and the Bias Parity Score.

Every measure, hard or soft, is a ratio num/den of sums over one group's
(group x label) table.  The hard measures here evaluate it on 0/1
predictions; ``losses`` evaluates the same spec on soft weights.  BPS
scales the min/max ratio of a per-group measure to a percentage: 100 is
perfect parity between groups, 0 is maximal bias.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .data import not_utf8_error
from .errors import DataError, EmptyInputError, InputShapeError, SchemaError, UndefinedMeasureError

__all__ = [
    "MeasureKind",
    "measure_coefficients",
    "measure_parts",
    "GroupConfusion",
    "BpsEntry",
    "BpsReport",
    "confusion",
    "hard_measure",
    "bps_binary",
    "bps_multiclass",
    "bps_report",
    "read_prediction_dump",
    "evaluate_prediction_dump",
]


class MeasureKind(str, Enum):
    """Per-group statistical measures BPS can be computed over.

    STP is the positivity rate P(C=1), whose cross-group BPS is the
    p-rule / statistical-parity percentage.
    """

    FPR = "FPR"
    FNR = "FNR"
    TPR = "TPR"
    TNR = "TNR"
    ACC = "ACC"
    STP = "STP"


# One group's table is T[0, y] = P[y], the positive-side weight summed over
# the group's rows with label y, and T[1, y] = N[y], the number of those
# rows.  The weight is the 0/1 prediction for hard measures and w(prob) for
# soft ones.  Per kind: the coefficients on (P[0], P[1], N[0], N[1]) of the
# numerator, of the fixed denominator and, for the four rates, of the
# as-written denominator, which sums the numerator's own weight over the
# whole group.
_SPEC = {
    MeasureKind.FPR: ((1, 0, 0, 0), (0, 0, 1, 0), (1, 1, 0, 0)),
    MeasureKind.FNR: ((0, -1, 0, 1), (0, 0, 0, 1), (-1, -1, 1, 1)),
    MeasureKind.TPR: ((0, 1, 0, 0), (0, 0, 0, 1), (1, 1, 0, 0)),
    MeasureKind.TNR: ((-1, 0, 1, 0), (0, 0, 1, 0), (-1, -1, 1, 1)),
    MeasureKind.ACC: ((-1, 1, 1, 0), (0, 0, 1, 1), None),
    MeasureKind.STP: ((1, 1, 0, 0), (0, 0, 1, 1), None),
}
_COEFFICIENTS = {
    (kind, as_written): np.array((num, written if as_written and written else fixed),
                                 dtype=np.int64).reshape(2, 2, 2)
    for kind, (num, fixed, written) in _SPEC.items()
    for as_written in (False, True)
}


def measure_coefficients(kind, as_written: bool = False) -> np.ndarray:
    """Coefficients [num/den, P/N, label] of one measure on a (2, 2) table.

    ``as_written`` selects the denominator that moves with the weights;
    STP and ACC divide by the group size either way.
    """
    return _COEFFICIENTS[(MeasureKind(kind), bool(as_written))]


def measure_parts(coefficients: np.ndarray, tables) -> np.ndarray:
    """(num, den) of one measure over (..., 2, 2) tables, shaped (..., 2)."""
    return (tables[..., None, :, :] * coefficients).sum(axis=(-2, -1))


@dataclass(frozen=True)
class GroupConfusion:
    """Confusion-matrix counts for one sensitive-attribute group."""

    group_id: int
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class BpsEntry:
    """Per-group values and the BPS score for one measure kind.

    ``group_values`` maps group id to the measure value, or None where the
    measure is undefined (empty conditioning class).  ``bps`` is None when
    any group value is undefined, listed in ``undefined_groups``, or when
    fewer than two groups are present; such entries are flagged so
    callers can report rather than abort.
    """

    kind: MeasureKind
    group_values: Mapping[int, float | None]
    population_value: float | None
    bps: float | None
    undefined_groups: tuple[int, ...] = ()

    @property
    def flagged(self) -> bool:
        return self.bps is None


@dataclass(frozen=True)
class BpsReport:
    """BPS entries for every MeasureKind over one prediction set."""

    entries: Mapping[MeasureKind, BpsEntry]

    def __getitem__(self, kind: MeasureKind) -> BpsEntry:
        return self.entries[kind]

    def bps(self, kind: MeasureKind) -> float | None:
        return self.entries[kind].bps


def _as_binary_vector(name: str, values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise InputShapeError(f"{name} must be one-dimensional, got shape {arr.shape}")
    # checked before the cast, which would truncate 0.7 to 0
    if not ((arr == 0) | (arr == 1)).all():
        raise InputShapeError(f"{name} must contain only 0/1 values")
    return arr.astype(np.int64)


def _count_tables(predictions, labels, groups):
    """Group ids and their (G, 2, 2) tables of predicted-positive and row counts."""
    preds = _as_binary_vector("predictions", predictions)
    y = _as_binary_vector("labels", labels)
    g = np.asarray(groups)
    if g.ndim != 1:
        raise InputShapeError(f"groups must be one-dimensional, got shape {g.shape}")
    # checked before the cast, which would truncate group 0.5 to 0
    if g.dtype.kind not in "biu" and not (
        g.dtype.kind == "f" and np.all(np.isfinite(g) & (g == np.trunc(g)))
    ):
        raise InputShapeError("groups must be integer ids")
    g = g.astype(np.int64)
    if not (preds.size == y.size == g.size):
        raise InputShapeError(
            f"length mismatch: predictions {preds.size}, labels {y.size}, groups {g.size}"
        )
    if preds.size == 0:
        raise EmptyInputError("cannot compute confusion counts on empty input")
    gids, index = np.unique(g, return_inverse=True)
    # counts[g, y, prediction]
    counts = np.bincount(index * 4 + y * 2 + preds, minlength=4 * gids.size).reshape(-1, 2, 2)
    return gids.tolist(), np.stack((counts[:, :, 1], counts.sum(axis=2)), axis=1)


def confusion(predictions, labels, groups) -> tuple[GroupConfusion, ...]:
    """Count per-group confusion matrices.

    Parameters
    ----------
    predictions, labels : array-like of {0,1}
        Hard predictions and true labels.
    groups : array-like of int
        Integer-coded sensitive attribute, one entry per sample.

    Returns
    -------
    tuple of GroupConfusion
        One entry per distinct group value, ordered by group id.
    """
    gids, tables = _count_tables(predictions, labels, groups)
    return tuple(
        GroupConfusion(group_id=gid, tp=tp, fp=fp, tn=n0 - fp, fn=n1 - tp)
        for gid, ((fp, tp), (n0, n1)) in zip(gids, tables.tolist())
    )


def _hard_values(kind: MeasureKind, tables) -> list:
    """Hard measure of each (2, 2) count table, or None where its denominator is 0."""
    parts = measure_parts(measure_coefficients(kind), np.asarray(tables, dtype=np.int64))
    return [num / den if den else None for num, den in parts.reshape(-1, 2).tolist()]


def hard_measure(kind: MeasureKind, c: GroupConfusion) -> float:
    """Evaluate one confusion-matrix rate for one group.

    Raises
    ------
    UndefinedMeasureError
        If the measure's denominator count is zero.
    """
    kind = MeasureKind(kind)
    (value,) = _hard_values(kind, ((c.fp, c.tp), (c.fp + c.tn, c.tp + c.fn)))
    if value is None:
        raise UndefinedMeasureError(kind.value, c.group_id)
    return value


def bps_binary(m0: float, m1: float) -> float:
    """Bias Parity Score between two group measure values, in [0, 100].

    Both-zero inputs score 100 (the groups are identically treated);
    exactly one zero scores 0, the limit of the min/max ratio.
    """
    if m0 < 0 or m1 < 0:
        raise InputShapeError("measure values must be non-negative")
    hi = max(m0, m1)
    if hi == 0.0:
        return 100.0
    return 100.0 * min(m0, m1) / hi


def bps_multiclass(values: Mapping[int, float], population_value: float) -> float:
    """Average per-group parity against the population value, in [0, 100].

    Each group contributes min(m_g, m_pop)/max(m_g, m_pop); the result is
    the mean contribution scaled to a percentage.
    """
    if not values:
        raise EmptyInputError("bps_multiclass needs at least one group value")
    if population_value < 0 or any(v < 0 for v in values.values()):
        raise InputShapeError("measure values must be non-negative")
    total = 0.0
    for v in values.values():
        hi = max(v, population_value)
        total += 1.0 if hi == 0.0 else min(v, population_value) / hi
    return 100.0 * total / len(values)


def bps_report(predictions, labels, groups) -> BpsReport:
    """Compute per-group values and BPS for all six measure kinds.

    Undefined measures (a group with an empty conditioning class) are
    reported as flagged entries with ``bps=None`` instead of raising, so a
    degenerate evaluation slice never aborts a run.  With exactly two
    groups the BPS is the pairwise ratio; with more, parity is averaged
    against the whole-population value.  A single group has no parity to
    score: every entry is flagged.
    """
    gids, tables = _count_tables(predictions, labels, groups)
    population = tables.sum(axis=0)
    entries = {}
    for kind in MeasureKind:
        values = _hard_values(kind, tables)
        (pop_value,) = _hard_values(kind, population)
        group_values = dict(zip(gids, values))
        undefined = tuple(gid for gid, v in group_values.items() if v is None)
        if undefined or len(gids) < 2:
            bps = None
        elif len(gids) == 2:
            bps = bps_binary(*values)
        else:
            bps = bps_multiclass(group_values, pop_value)
        entries[kind] = BpsEntry(
            kind=kind,
            group_values=group_values,
            population_value=pop_value,
            bps=bps,
            undefined_groups=undefined,
        )
    return BpsReport(entries=entries)


PREDICTION_DUMP_COLUMNS = ("y_true", "y_prob", "group")
_DUMP_DTYPE = [("y_true", np.int64), ("y_prob", np.float64), ("group", np.int64)]
# numpy's C parser reads these as csv.reader and int()/float() do only in plain
# ASCII text without quotes or control characters (it strips \x1c-\x1f, and
# takes some non-ASCII letters for digits), so other text goes row by row.
_NOT_PLAIN = '"\x7f' + "".join(map(chr, (*range(0x09), *range(0x0e, 0x20))))


def read_prediction_dump(path):
    """Read a ``y_true, y_prob, group`` CSV into numpy vectors.

    ``y_true`` must be 0/1 and ``y_prob`` a probability in [0, 1]; rows
    that break this or do not parse raise DataError listing them.  Plain
    ASCII dumps are parsed a column at a time by numpy's C parser; the
    row-by-row reader handles every other file and names the offending
    rows of a dump that fails the parse or the range checks.
    """
    try:
        with open(path, encoding="utf-8") as fh:  # universal newlines split rows as csv.reader does
            text = fh.read()
    except UnicodeDecodeError:
        raise not_utf8_error(path) from None
    if not text or not text.isascii() or any(c in text for c in _NOT_PLAIN):
        return _read_dump_rows(path)
    header = _dump_header(path, next(csv.reader([text.partition("\n")[0]])))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            # older numpy reads an int64 cell such as 0.7 through float(), with
            # only a DeprecationWarning, where int() rejects it
            warnings.simplefilter("error", DeprecationWarning)
            # numpy reads a path in C chunks, where it iterates a file object line by line
            table = np.loadtxt(path, dtype=_DUMP_DTYPE, delimiter=",", comments=None,
                               skiprows=1, usecols=header, ndmin=1, encoding="utf-8")
    except (ValueError, DeprecationWarning):
        return _read_dump_rows(path)
    y_true, y_prob, group = (np.ascontiguousarray(table[c]) for c in PREDICTION_DUMP_COLUMNS)
    if not (((y_true == 0) | (y_true == 1)).all() and ((y_prob >= 0.0) & (y_prob <= 1.0)).all()):
        return _read_dump_rows(path)
    if not y_true.size:
        raise EmptyInputError(f"{path}: prediction dump has no data rows")
    return y_true, y_prob, group


def _dump_header(path, header):
    """Positions of the dump columns in a header row."""
    header = [h.strip() for h in header]
    for col in PREDICTION_DUMP_COLUMNS:
        if col not in header:
            raise SchemaError(f"{path}: missing column {col!r} in header {header}")
    return tuple(header.index(col) for col in PREDICTION_DUMP_COLUMNS)


def _read_dump_rows(path):
    """Row-by-row reader of a prediction dump; names the rows that fail."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            i_true, i_prob, i_group = _dump_header(path, next(reader))
        except StopIteration:
            raise EmptyInputError(f"{path}: empty prediction dump")
        y_true, y_prob, group = [], [], []
        bad_rows = []
        for row_no, row in enumerate(reader):
            if not row:
                continue
            try:
                t, p, g = int(row[i_true]), float(row[i_prob]), int(row[i_group])
            except (ValueError, IndexError):
                bad_rows.append((row_no, f"unparseable row {row!r}"))
                continue
            if t not in (0, 1) or not 0.0 <= p <= 1.0:  # NaN fails the range check
                bad_rows.append((row_no, f"y_true {t} / y_prob {p} out of range"))
                continue
            y_true.append(t)
            y_prob.append(p)
            group.append(g)
    if bad_rows:
        preview = "; ".join(f"row {r}: {msg}" for r, msg in bad_rows[:5])
        raise DataError(f"{path}: {len(bad_rows)} unusable row(s): {preview}",
                        rows=[r for r, _ in bad_rows])
    if not y_true:
        raise EmptyInputError(f"{path}: prediction dump has no data rows")
    return np.array(y_true), np.array(y_prob), np.array(group)


def evaluate_prediction_dump(path, threshold: float = 0.5) -> BpsReport:
    """Score a stored prediction dump; probabilities at the threshold count as positive."""
    y_true, y_prob, group = read_prediction_dump(path)
    preds = (y_prob >= threshold).astype(np.int64)
    return bps_report(preds, y_true, group)
