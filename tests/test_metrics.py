"""Hard measures and BPS: definitional cases, oracles, and invariants."""

import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpsfair.errors import (
    DataError,
    EmptyInputError,
    InputShapeError,
    SchemaError,
    UndefinedMeasureError,
)
from bpsfair.metrics import (
    GroupConfusion,
    MeasureKind,
    bps_binary,
    bps_multiclass,
    bps_report,
    confusion,
    evaluate_prediction_dump,
    hard_measure,
    read_prediction_dump,
)


def brute_force_counts(preds, labels, groups):
    """Independent per-sample recount, no vectorized shortcuts."""
    out = {}
    for p, y, g in zip(preds, labels, groups):
        c = out.setdefault(g, {"tp": 0, "fp": 0, "tn": 0, "fn": 0})
        if p == 1 and y == 1:
            c["tp"] += 1
        elif p == 1 and y == 0:
            c["fp"] += 1
        elif p == 0 and y == 0:
            c["tn"] += 1
        else:
            c["fn"] += 1
    return out


class TestConfusion:
    def test_micro_case(self):
        (c,) = confusion([1, 0, 1, 0], [0, 0, 1, 1], [0, 0, 0, 0])
        assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 1, 1)

    def test_perfect_predictions_have_no_errors(self):
        rng = np.random.default_rng(3)
        y = rng.integers(0, 2, 50)
        g = rng.integers(0, 3, 50)
        for c in confusion(y, y, g):
            assert c.fp == 0 and c.fn == 0

    def test_matches_per_sample_recount_oracle(self):
        rng = np.random.default_rng(11)
        preds = rng.integers(0, 2, 1000)
        labels = rng.integers(0, 2, 1000)
        groups = rng.integers(0, 4, 1000)
        expected = brute_force_counts(preds, labels, groups)
        got = {c.group_id: c for c in confusion(preds, labels, groups)}
        assert set(got) == set(expected)
        for gid, e in expected.items():
            c = got[gid]
            assert (c.tp, c.fp, c.tn, c.fn) == (e["tp"], e["fp"], e["tn"], e["fn"])
            assert c.total == sum(e.values())

    def test_length_mismatch(self):
        with pytest.raises(InputShapeError):
            confusion([1, 0], [1], [0, 0])

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            confusion([], [], [])

    def test_non_binary_rejected(self):
        with pytest.raises(InputShapeError):
            confusion([2, 0], [1, 0], [0, 0])

    @pytest.mark.parametrize("bad", [0.7, 2, -1, float("nan")])
    def test_non_binary_rejected_before_the_integer_cast(self, bad):
        # a cast first would count 0.7 as 0
        with pytest.raises(InputShapeError):
            confusion([bad, 0], [1, 0], [0, 0])
        with pytest.raises(InputShapeError):
            confusion([1, 0], [bad, 0], [0, 0])

    def test_bool_and_float_zero_one_accepted(self):
        (c,) = confusion(np.array([True, False, True]), np.array([1.0, 0.0, 0.0]), [0, 0, 0])
        assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 1, 0)


class TestHardMeasure:
    def test_balanced_confusion(self):
        c = GroupConfusion(0, tp=1, fp=1, tn=1, fn=1)
        assert hard_measure(MeasureKind.FPR, c) == 0.5
        assert hard_measure(MeasureKind.ACC, c) == 0.5
        assert hard_measure(MeasureKind.STP, c) == 0.5

    def test_definitions(self):
        c = GroupConfusion(0, tp=6, fp=2, tn=8, fn=4)
        assert hard_measure(MeasureKind.FPR, c) == 2 / 10
        assert hard_measure(MeasureKind.FNR, c) == 4 / 10
        assert hard_measure(MeasureKind.TPR, c) == 6 / 10
        assert hard_measure(MeasureKind.TNR, c) == 8 / 10
        assert hard_measure(MeasureKind.ACC, c) == 14 / 20
        assert hard_measure(MeasureKind.STP, c) == 8 / 20

    def test_complementarity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            tp, fp, tn, fn = rng.integers(1, 50, 4)
            c = GroupConfusion(0, tp=int(tp), fp=int(fp), tn=int(tn), fn=int(fn))
            assert hard_measure(MeasureKind.TPR, c) + hard_measure(MeasureKind.FNR, c) == pytest.approx(1.0)
            assert hard_measure(MeasureKind.FPR, c) + hard_measure(MeasureKind.TNR, c) == pytest.approx(1.0)

    def test_reference_rates_from_engineered_counts(self):
        # counts chosen to reproduce the male-group baseline rates exactly
        c = GroupConfusion(1, tp=6261, fp=1203, tn=8797, fn=3739)
        assert hard_measure(MeasureKind.FPR, c) == pytest.approx(0.1203)
        assert hard_measure(MeasureKind.FNR, c) == pytest.approx(0.3739)

    def test_zero_denominator_raises_with_context(self):
        c = GroupConfusion(7, tp=3, fp=0, tn=0, fn=2)
        with pytest.raises(UndefinedMeasureError) as exc:
            hard_measure(MeasureKind.FPR, c)
        assert exc.value.kind == "FPR"
        assert exc.value.group_id == 7


class TestBpsBinary:
    def test_table_golden_values(self):
        assert bps_binary(0.0589, 0.0628) == pytest.approx(93.79, abs=0.01)
        assert bps_binary(0.4431, 0.5105) == pytest.approx(86.80, abs=0.01)

    def test_perfect_parity(self):
        for x in (0.3, 0.5, 1.0, 2.5):
            assert bps_binary(x, x) == 100.0

    def test_maximal_bias(self):
        assert bps_binary(0.0, 0.3) == 0.0

    def test_both_zero_is_parity(self):
        assert bps_binary(0.0, 0.0) == 100.0

    def test_symmetry_and_scale_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            a, b = rng.uniform(0, 1, 2)
            c = rng.uniform(0.01, 10)
            assert bps_binary(a, b) == bps_binary(b, a)
            assert bps_binary(c * a, c * b) == pytest.approx(bps_binary(a, b), rel=1e-12)

    def test_range(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            a, b = rng.uniform(0, 2, 2)
            assert 0.0 <= bps_binary(a, b) <= 100.0

    def test_negative_rejected(self):
        with pytest.raises(InputShapeError):
            bps_binary(-0.1, 0.5)


class TestBpsMulticlass:
    def test_single_group_equal_to_population(self):
        assert bps_multiclass({0: 0.4}, 0.4) == 100.0

    def test_two_group_forced_value(self):
        assert bps_multiclass({0: 0.2, 1: 0.4}, 0.4) == pytest.approx(75.0)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            values = {g: float(rng.uniform(0, 1)) for g in range(k)}
            pop = float(rng.uniform(0.01, 1))
            expected = 0.0
            for v in values.values():
                expected += (100.0 / k) * (min(v, pop) / max(v, pop) if max(v, pop) > 0 else 1.0)
            assert bps_multiclass(values, pop) == pytest.approx(expected, rel=1e-12)

    def test_single_group_degenerates_to_binary(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            v, pop = rng.uniform(0.01, 1, 2)
            assert bps_multiclass({0: v}, pop) == pytest.approx(bps_binary(v, pop))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            bps_multiclass({}, 0.5)


class TestBpsReport:
    def test_perfectly_fair_predictions(self):
        # both groups get identical confusion structure
        preds = [1, 0, 1, 0, 1, 0, 1, 0]
        labels = [1, 0, 0, 1, 1, 0, 0, 1]
        groups = [0, 0, 0, 0, 1, 1, 1, 1]
        rep = bps_report(preds, labels, groups)
        for kind in MeasureKind:
            assert rep.bps(kind) == pytest.approx(100.0)

    def test_contains_all_kinds(self):
        rep = bps_report([1, 0, 1, 0], [0, 0, 1, 1], [0, 0, 1, 1])
        assert set(rep.entries) == set(MeasureKind)

    def test_three_group_report_matches_hand_recomputation(self):
        rng = np.random.default_rng(37)
        preds = rng.integers(0, 2, 600)
        labels = rng.integers(0, 2, 600)
        groups = rng.integers(0, 3, 600)
        rep = bps_report(preds, labels, groups)
        counts = brute_force_counts(preds, labels, groups)

        def rate(c, kind):
            if kind == "FPR":
                return c["fp"] / (c["fp"] + c["tn"])
            if kind == "FNR":
                return c["fn"] / (c["fn"] + c["tp"])
            if kind == "TPR":
                return c["tp"] / (c["tp"] + c["fn"])
            if kind == "TNR":
                return c["tn"] / (c["tn"] + c["fp"])
            if kind == "ACC":
                return (c["tp"] + c["tn"]) / sum(c.values())
            return (c["tp"] + c["fp"]) / sum(c.values())

        pop = {k: sum(counts[g][k] for g in counts) for k in ("tp", "fp", "tn", "fn")}
        for kind in MeasureKind:
            entry = rep[kind]
            per_group = {}
            for gid, c in counts.items():
                value = rate(c, kind.value)
                per_group[gid] = value
                assert entry.group_values[gid] == pytest.approx(value)
            pop_value = rate(pop, kind.value)
            expected = sum(
                (100.0 / 3) * (min(v, pop_value) / max(v, pop_value)) for v in per_group.values()
            )
            assert entry.bps == pytest.approx(expected)

    def test_binary_uses_pairwise_ratio(self):
        rng = np.random.default_rng(41)
        preds = rng.integers(0, 2, 400)
        labels = rng.integers(0, 2, 400)
        groups = rng.integers(0, 2, 400)
        rep = bps_report(preds, labels, groups)
        for kind in MeasureKind:
            entry = rep[kind]
            v0, v1 = entry.group_values[0], entry.group_values[1]
            assert entry.bps == pytest.approx(bps_binary(v0, v1))

    def test_undefined_measure_is_flagged_not_fatal(self):
        # group 1 has no true negatives or false positives -> FPR undefined
        preds = [1, 0, 1, 1]
        labels = [1, 0, 1, 1]
        groups = [0, 0, 1, 1]
        rep = bps_report(preds, labels, groups)
        entry = rep[MeasureKind.FPR]
        assert entry.flagged
        assert entry.undefined_groups == (1,)
        assert entry.bps is None
        assert rep[MeasureKind.ACC].bps is not None

    def test_single_group_is_flagged_not_scored_fair(self):
        rep = bps_report([1, 0, 1, 0], [1, 0, 0, 1], [3, 3, 3, 3])
        for kind in MeasureKind:
            entry = rep[kind]
            assert entry.bps is None
            assert entry.flagged
            assert entry.undefined_groups == ()
            assert entry.group_values == {3: entry.population_value}

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
                    min_size=1, max_size=40))
    def test_bps_in_range_and_symmetric_under_group_swap(self, rows):
        preds, labels, groups = (np.array(col) for col in zip(*rows))
        rep = bps_report(preds, labels, groups)
        swapped = bps_report(preds, labels, 1 - groups)
        for kind in MeasureKind:
            bps = rep.bps(kind)
            assert bps is None or 0.0 <= bps <= 100.0
            assert swapped.bps(kind) == bps

    def test_sample_order_invariance(self):
        rng = np.random.default_rng(43)
        preds = rng.integers(0, 2, 300)
        labels = rng.integers(0, 2, 300)
        groups = rng.integers(0, 2, 300)
        rep1 = bps_report(preds, labels, groups)
        perm = rng.permutation(300)
        rep2 = bps_report(preds[perm], labels[perm], groups[perm])
        for kind in MeasureKind:
            assert rep1.bps(kind) == rep2.bps(kind)
            assert rep1[kind].group_values == rep2[kind].group_values


class TestPredictionDump:
    def test_threshold_and_report(self, tmp_path):
        path = tmp_path / "dump.csv"
        path.write_text(
            "y_true,y_prob,group\n"
            "1,0.9,0\n1,0.5,0\n0,0.2,0\n0,0.1,0\n"
            "1,0.8,1\n1,0.6,1\n0,0.3,1\n0,0.4,1\n"
        )
        rep = evaluate_prediction_dump(path)
        # prob 0.5 counts as a positive prediction
        assert rep.bps(MeasureKind.TPR) == pytest.approx(100.0)
        assert rep.bps(MeasureKind.FPR) == pytest.approx(100.0)

    def test_equal_group_fpr_scores_100(self, tmp_path):
        rows = ["y_true,y_prob,group"]
        # both groups: 1 of 10 negatives predicted positive -> FPR 0.1 each
        for g in (0, 1):
            rows.append(f"0,0.9,{g}")
            rows += [f"0,0.1,{g}"] * 9
            rows += [f"1,0.9,{g}"] * 5
        path = tmp_path / "dump.csv"
        path.write_text("\n".join(rows) + "\n")
        rep = evaluate_prediction_dump(path)
        assert rep.bps(MeasureKind.FPR) == pytest.approx(100.0)

    def test_missing_column_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y_true,prob,group\n1,0.5,0\n")
        with pytest.raises(SchemaError):
            evaluate_prediction_dump(path)

    @pytest.mark.parametrize("row", ["0,nan,0", "0,1.5,1", "1,-0.1,0", "2,0.5,1",
                                     "1,0.5", "x,0.5,0", "1,0.5,g",
                                     "0.7,0.5,0", "1,0.5,0.5", "1,0.5,1e3"])
    def test_malformed_rows_are_data_errors(self, tmp_path, row):
        path = tmp_path / "dump.csv"
        path.write_text(f"y_true,y_prob,group\n1,0.9,0\n{row}\n0,0.2,1\n")
        with pytest.raises(DataError) as info:
            evaluate_prediction_dump(path)
        assert info.value.rows == (1,)


def read_dump_rows(path):
    """Per-row oracle of read_prediction_dump: int()/float() on each csv.reader row."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise EmptyInputError("empty")
        if any(col not in header for col in ("y_true", "y_prob", "group")):
            raise SchemaError("header")
        i_true, i_prob, i_group = (header.index(c) for c in ("y_true", "y_prob", "group"))
        rows, bad = [], []
        for row_no, row in enumerate(reader):
            if not row:
                continue
            try:
                t, p, g = int(row[i_true]), float(row[i_prob]), int(row[i_group])
            except (ValueError, IndexError):
                bad.append(row_no)
                continue
            if t not in (0, 1) or not 0.0 <= p <= 1.0:
                bad.append(row_no)
                continue
            rows.append((t, p, g))
    if bad:
        raise DataError("bad rows", rows=bad)
    if not rows:
        raise EmptyInputError("no rows")
    return tuple(np.array(col) for col in zip(*rows))


def dump_outcome(read, path):
    """A reader's result, or its error; any other exception fails the test."""
    try:
        return "ok", read(path)
    except DataError as exc:
        return "DataError", tuple(exc.rows)
    except (SchemaError, EmptyInputError) as exc:
        return type(exc).__name__, None


DUMP_HEADERS = [("y_true", "y_prob", "group"), ("group", " y_prob ", "y_true", "note"),
                ("y_true", "prob", "group")]
# (valid, invalid) cells per column; the invalid ones cover what int()/float()
# reject, what numpy's C parser reads differently, fractional integers and quoting
DUMP_CELLS = {
    "y_true": (["0", "1", " 1", "0 ", "+1", "-0"], ["2", "-1", "1.0", "0.7", "x", ""]),
    " y_prob ": (["0.5", "0.125", "1e-3", ".25", "1.0", "0", "1", " 0.75 "],
                 ["nan", "inf", "1.5", "-0.1", "x", "", "0.5\x1c", "1_0"]),
    "group": (["0", "1", "3", "-2", " 1"], ["0.5", "1e3", "g", "١", "99999999999999999999"]),
    "note": (["a", "", "b c"], ['"q"', '"a\n1"', '"x,y"']),
}
DUMP_CELLS["y_prob"] = DUMP_CELLS["prob"] = DUMP_CELLS[" y_prob "]


@st.composite
def mutated_dumps(draw):
    """Dump texts: valid ones, ones with a single invalid cell, and ones with
    mutated, quoted, short and blank rows."""
    mode = draw(st.sampled_from(["clean", "one bad cell", "mutated"]))
    mutated = mode == "mutated"
    header = draw(st.sampled_from(DUMP_HEADERS if mutated else DUMP_HEADERS[:-1]))
    rows = []
    for _ in range(draw(st.integers(1 if mode == "one bad cell" else 0, 10))):
        cells = [draw(st.sampled_from(sum(DUMP_CELLS[col], []) if mutated else DUMP_CELLS[col][0]))
                 for col in header]
        if mutated:
            cells = cells[: draw(st.integers(0, len(cells) + 1))]
        rows.append(cells)
    if mode == "one bad cell":
        r, c = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(header) - 1))
        rows[r][c] = draw(st.sampled_from(DUMP_CELLS[header[c]][1]))
    lines = [",".join(header)] + [",".join(cells) for cells in rows]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    if mutated and draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


class TestPredictionDumpFuzz:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(mutated_dumps())
    def test_column_reader_equals_row_oracle(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("dump") / "dump.csv"
        path.write_bytes(text.encode("utf-8"))
        got, want = dump_outcome(read_prediction_dump, path), dump_outcome(read_dump_rows, path)
        assert got[0] == want[0]
        if got[0] == "ok":
            for a, b in zip(got[1], want[1]):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tolist() == b.tolist() and (a.dtype == object or a.tobytes() == b.tobytes())
        else:
            assert got[1] == want[1]

    # numpy's C parser strips \x1c-\x1f around numbers and reads some letters
    # (U+01FE) as digits, where int() and float() reject them
    @pytest.mark.parametrize("row", ["1,0.5\x1c,0", "1,0.5,\x1f1", "1,0.5,\u01fe",
                                     "\u0661,0.5,1", '"1",0.5,1'])
    def test_cells_the_c_parser_reads_differently_go_row_by_row(self, tmp_path, row):
        path = tmp_path / "dump.csv"
        path.write_bytes(f"y_true,y_prob,group\n0,0.25,1\n{row}\n".encode("utf-8"))
        got, want = dump_outcome(read_prediction_dump, path), dump_outcome(read_dump_rows, path)
        assert got[0] == want[0]
        if got[0] == "ok":
            assert [a.tolist() for a in got[1]] == [b.tolist() for b in want[1]]
        else:
            assert got[1] == want[1] == (1,)

    def test_integer_via_float_deprecation_goes_row_by_row(self, tmp_path, monkeypatch):
        # older numpy parses an int64 cell 0.7 as 0 and only warns; mimic it
        path = tmp_path / "dump.csv"
        path.write_text("y_true,y_prob,group\n1,0.9,0\n0.7,0.5,0\n")

        def truncating_loadtxt(text, dtype, **kw):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
            return np.array([(1, 0.9, 0), (0, 0.5, 0)], dtype=dtype)

        monkeypatch.setattr("bpsfair.metrics.np.loadtxt", truncating_loadtxt)
        with pytest.raises(DataError) as info:
            read_prediction_dump(path)
        assert info.value.rows == (1,)

    def test_non_utf8_dump_is_data_error_naming_the_offset(self, tmp_path):
        path = tmp_path / "dump.csv"
        head = ("y_true,y_prob,group\n" + "1,0.9,0\n" * 2000).encode()
        path.write_bytes(head + b"0,0.5,\xff\n")
        with pytest.raises(DataError, match=f"byte 0xff at offset {len(head) + 6}$"):
            read_prediction_dump(path)

    def test_plain_dump_is_parsed_by_columns(self, tmp_path, monkeypatch):
        path = tmp_path / "dump.csv"
        path.write_text("group,y_prob,y_true,note\n1,0.25,0,a\n\n0, 1.0 ,1,b\n")

        def no_row_reader(path):
            raise AssertionError("a plain valid dump needs no row-by-row reader")

        monkeypatch.setattr("bpsfair.metrics._read_dump_rows", no_row_reader)
        y_true, y_prob, group = read_prediction_dump(path)
        assert y_true.tolist() == [0, 1] and y_prob.tolist() == [0.25, 1.0]
        assert group.tolist() == [1, 0]
        assert y_true.dtype == group.dtype == np.int64 and y_true.flags.c_contiguous


class TestGroupIds:
    def test_non_integer_group_ids_rejected(self):
        # a cast first would count groups 0.5 and 0.2 as group 0
        with pytest.raises(InputShapeError):
            confusion([1, 0, 1], [1, 0, 0], [0.5, 1.7, 0.2])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "a"])
    def test_unusable_group_ids_rejected(self, bad):
        with pytest.raises(InputShapeError):
            confusion([1, 0], [1, 0], [0, bad])

    def test_integer_valued_floats_and_bools_accepted(self):
        expected = confusion([1, 0, 1], [1, 0, 0], [0, 1, 0])
        assert confusion([1, 0, 1], [1, 0, 0], [0.0, 1.0, 0.0]) == expected
        assert confusion([1, 0, 1], [1, 0, 0], [False, True, False]) == expected
