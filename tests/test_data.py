"""CSV loading, encoding, split plans, presets, and the synthetic generator."""

import csv
import dataclasses
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bpsfair.data
from bpsfair.data import (
    Categorical,
    DatasetSchema,
    RawTable,
    SplitPlan,
    adult_preset,
    apply_encoder,
    fit_encoder,
    load_csv,
    mc_splits,
    synthesize_biased,
    synthetic_preset,
    write_csv,
)
from bpsfair.errors import ConfigError, DataError, EmptyInputError, SchemaError
from conftest import write_adult_shaped_csv

TOY_SCHEMA = DatasetSchema(
    label="outcome",
    positive_label="yes",
    negative_label="no",
    sensitive="grp",
    sensitive_map={"a": 0, "b": 1},
    categorical=("color",),
    continuous=("size",),
)


def write_toy_csv(path, rows):
    path.write_text("color,size,grp,outcome\n" + "\n".join(rows) + "\n")


class TestLoadCsv:
    def test_missing_token_rows_dropped_and_counted(self, tmp_path):
        p = tmp_path / "toy.csv"
        write_toy_csv(p, ["red,1.0,a,yes", "blue,2.0,b,no", "red,?,a,yes",
                          "blue,3.5,a,no", "red,4.0,b,yes"])
        table = load_csv(p, TOY_SCHEMA)
        assert table.n_rows == 4
        assert table.dropped_count == 1
        np.testing.assert_array_equal(table.labels, [1, 0, 0, 1])
        np.testing.assert_array_equal(table.groups, [0, 1, 0, 1])
        # provenance: row 2 (the "?" row) is absent
        np.testing.assert_array_equal(table.row_indices, [0, 1, 3, 4])

    def test_header_mismatch_names_column(self, tmp_path):
        p = tmp_path / "toy.csv"
        p.write_text("color,magnitude,grp,outcome\nred,1.0,a,yes\n")
        with pytest.raises(SchemaError, match="size"):
            load_csv(p, TOY_SCHEMA)

    def test_unparseable_numeric_reports_rows(self, tmp_path):
        p = tmp_path / "toy.csv"
        write_toy_csv(p, ["red,1.0,a,yes", "blue,oops,b,no"])
        with pytest.raises(DataError) as exc:
            load_csv(p, TOY_SCHEMA)
        assert exc.value.rows == (1,)

    def test_whitespace_stripped(self, tmp_path):
        p = tmp_path / "toy.csv"
        write_toy_csv(p, [" red , 1.0 , a , yes "])
        table = load_csv(p, TOY_SCHEMA)
        assert table.categorical["color"].decode() == ["red"]
        assert table.labels[0] == 1

    def test_empty_file(self, tmp_path):
        p = tmp_path / "toy.csv"
        p.write_text("")
        with pytest.raises(EmptyInputError):
            load_csv(p, TOY_SCHEMA)

    def test_short_row_is_unusable_row(self, tmp_path):
        # the row used to escape as a bare IndexError
        p = tmp_path / "synth.csv"
        p.write_text("f0,f1,group,label\n0.5,1.5,0,1\n1.0\n2.0,0.5,1,0\n")
        with pytest.raises(DataError, match="row 1: short row") as exc:
            load_csv(p, synthetic_preset(2))
        assert exc.value.rows == (1,)

    def test_unknown_label_is_unusable_row(self, tmp_path):
        # the label used to load silently as 0
        p = tmp_path / "toy.csv"
        write_toy_csv(p, ["red,1.0,a,yes", "blue,2.0,b,maybe", "red,3.0,a,no"])
        with pytest.raises(DataError, match="unknown label 'maybe'") as exc:
            load_csv(p, TOY_SCHEMA)
        assert exc.value.rows == (1,)

    def test_rows_reported_in_order_with_their_first_failure(self, tmp_path):
        p = tmp_path / "toy.csv"
        write_toy_csv(p, ["red,x,c,maybe", "red,1.0,a,yes", "red", "red,1.0,a,maybe",
                          "blue,y,a,no"])
        with pytest.raises(DataError) as exc:
            load_csv(p, TOY_SCHEMA)
        assert exc.value.rows == (0, 2, 3, 4)
        assert "row 0: unmapped sensitive value 'c'; row 2: short row" in str(exc.value)
        assert "row 4: non-numeric value 'y' in column 'size'" in str(exc.value)

    @pytest.mark.parametrize("rows_before", [0, 2000])
    def test_non_utf8_file_is_data_error_naming_the_offset(self, tmp_path, rows_before):
        # the second case puts the byte past the text reader's first 8 KiB chunk
        head = ("color,size,grp,outcome\n" + "red,1.0,a,yes\n" * rows_before).encode()
        p = tmp_path / "toy.csv"
        p.write_bytes(head + b"bl\xffue,2.0,b,no\n")
        with pytest.raises(DataError, match=f"byte 0xff at offset {len(head) + 2}$"):
            load_csv(p, TOY_SCHEMA)

    def test_blank_rows_skipped_but_counted_in_row_numbers(self, tmp_path):
        p = tmp_path / "toy.csv"
        write_toy_csv(p, ["red,1.0,a,yes", "", " , ,", "blue,2.0,b,no"])
        table = load_csv(p, TOY_SCHEMA)
        np.testing.assert_array_equal(table.row_indices, [0, 3])


class TestEncoder:
    def toy_table(self, tmp_path):
        p = tmp_path / "toy.csv"
        write_toy_csv(p, ["red,1.0,a,yes", "blue,2.0,b,no", "green,3.0,a,no",
                          "blue,4.0,b,yes", "red,5.0,a,yes", "blue,6.0,b,no"])
        return load_csv(p, TOY_SCHEMA)

    def test_vocabulary_order_one_hot(self, tmp_path):
        table = self.toy_table(tmp_path)
        enc = fit_encoder(table)
        assert enc.vocabularies["color"] == ("blue", "green", "red")
        ds = apply_encoder(table, enc)
        names = list(ds.feature_names)
        j = names.index("color=blue")
        # row 1 is blue -> indicator (1,0,0) in vocabulary order
        np.testing.assert_array_equal(ds.X[1, j : j + 3], [1.0, 0.0, 0.0])

    def test_zscore_on_fit_rows(self, tmp_path):
        table = self.toy_table(tmp_path)
        enc = fit_encoder(table)
        ds = apply_encoder(table, enc)
        col = ds.X[:, list(ds.feature_names).index("size")]
        assert abs(col.mean()) < 1e-9
        assert abs(col.std() - 1.0) < 1e-9

    def test_unseen_value_zero_block_and_counter(self, tmp_path):
        table = self.toy_table(tmp_path)
        enc = fit_encoder(table, rows=[0, 1, 3, 5])  # never sees "green"
        ds = apply_encoder(table, enc)
        assert enc.vocabularies["color"] == ("blue", "red")
        assert ds.unseen_categorical_count == 1
        j = list(ds.feature_names).index("color=blue")
        np.testing.assert_array_equal(ds.X[2, j : j + 2], [0.0, 0.0])

    def test_sensitive_never_in_features(self, tmp_path):
        table = self.toy_table(tmp_path)
        ds = apply_encoder(table, fit_encoder(table))
        assert not any("grp" in name for name in ds.feature_names)
        assert ds.X.shape[1] == len(ds.feature_names)
        np.testing.assert_array_equal(sorted(set(ds.A)), [0, 1])

    def test_no_test_statistics_leak(self, tmp_path):
        table1 = self.toy_table(tmp_path)
        train_rows = [0, 1, 2]
        enc1 = fit_encoder(table1, rows=train_rows)
        # perturb the non-train rows and refit: encoder must be identical
        table2 = self.toy_table(tmp_path)
        table2.continuous["size"][3:] += 100.0
        vocabulary, codes = table2.categorical["color"]
        codes[4] = len(vocabulary)
        table2.categorical["color"] = Categorical(vocabulary + ("purple",), codes)
        enc2 = fit_encoder(table2, rows=train_rows)
        assert enc1 == enc2

    def test_constant_column_encodes_to_zero(self, tmp_path):
        p = tmp_path / "toy.csv"
        write_toy_csv(p, ["red,2.0,a,yes", "blue,2.0,b,no", "red,2.0,a,no"])
        table = load_csv(p, TOY_SCHEMA)
        enc = fit_encoder(table)
        assert "size" in enc.constant_columns
        ds = apply_encoder(table, enc)
        np.testing.assert_array_equal(ds.X[:, list(ds.feature_names).index("size")], 0.0)

    def test_row_order_independence(self, tmp_path):
        table = self.toy_table(tmp_path)
        enc = fit_encoder(table)
        full = apply_encoder(table, enc)
        perm = [3, 0, 5, 1, 4, 2]
        shuffled = apply_encoder(table, enc, rows=perm)
        np.testing.assert_array_equal(shuffled.X, full.X[perm])
        np.testing.assert_array_equal(shuffled.Y, full.Y[perm])
        np.testing.assert_array_equal(shuffled.A, full.A[perm])


class TestMcSplits:
    def test_deterministic(self):
        plan = SplitPlan(iterations=3, train_fraction=0.7, val_fraction=0.1, base_seed=5)
        s1, s2 = mc_splits(100, plan), mc_splits(100, plan)
        for (a1, b1, c1), (a2, b2, c2) in zip(s1, s2):
            np.testing.assert_array_equal(a1, a2)
            np.testing.assert_array_equal(b1, b2)
            np.testing.assert_array_equal(c1, c2)

    def test_partition_property(self):
        plan = SplitPlan(iterations=5, train_fraction=0.7, val_fraction=0.1, base_seed=9)
        for train, val, test in mc_splits(237, plan):
            combined = np.concatenate([train, val, test])
            assert combined.size == 237
            np.testing.assert_array_equal(np.sort(combined), np.arange(237))

    def test_pairwise_overlap_matches_simulation_expectation(self):
        # independent uniform subsets of fraction f overlap in ~f^2 of the rows
        plan = SplitPlan(iterations=10, train_fraction=0.7, val_fraction=0.1, base_seed=1)
        splits = mc_splits(1000, plan)
        overlaps = []
        for i in range(len(splits)):
            for j in range(i + 1, len(splits)):
                overlaps.append(
                    len(set(splits[i][0]) & set(splits[j][0])) / 1000
                )
        assert abs(np.mean(overlaps) - 0.7**2) < 0.05 * 0.7**2

    def test_fraction_sizes(self):
        plan = SplitPlan(iterations=1, train_fraction=0.7, val_fraction=0.1, base_seed=0)
        train, val, test = mc_splits(1000, plan)[0]
        assert train.size == 700 and val.size == 100 and test.size == 200

    def test_too_few_rows(self):
        with pytest.raises(ConfigError):
            mc_splits(5, SplitPlan(iterations=1))

    def test_degenerate_fractions_rejected(self):
        with pytest.raises(ConfigError):
            SplitPlan(iterations=1, train_fraction=0.95, val_fraction=0.1)
        with pytest.raises(ConfigError):
            SplitPlan(iterations=0)


FUZZ_SCHEMA = DatasetSchema(
    label="outcome",
    positive_label="yes",
    negative_label="no",
    sensitive="grp",
    sensitive_map={"a": 0, "b": 1},
    categorical=("color",),
    continuous=("size", "weight"),
    label_aliases={"yes.": "yes", "no.": "no"},
)


def load_csv_rows(path, schema):
    """Per-row oracle of load_csv: its kept columns by name, and the dropped-row count.

    Unusable rows raise the DataError load_csv raises: the same rows and
    the same message.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise EmptyInputError("empty")
        if any(col not in header for col in schema.used_columns):
            raise SchemaError("header")
        idx = {col: header.index(col) for col in schema.used_columns}
        width = max(idx.values()) + 1
        out = {"cat": {c: [] for c in schema.categorical},
               "num": {c: [] for c in schema.continuous},
               "labels": [], "groups": [], "rows": []}
        dropped, bad = 0, []
        for row_no, row in enumerate(reader):
            if all(not cell.strip() for cell in row):
                continue
            if len(row) < width:
                bad.append((row_no, f"short row: {len(row)} of {width} field(s)"))
                continue
            cells = {col: row[i].strip() for col, i in idx.items()}
            if schema.missing_token in cells.values():
                dropped += 1
                continue
            if cells[schema.sensitive] not in schema.sensitive_map:
                bad.append((row_no, f"unmapped sensitive value {cells[schema.sensitive]!r}"))
                continue
            try:
                nums = []
                for c in schema.continuous:
                    nums.append(float(cells[c]))
            except ValueError:
                bad.append((row_no, f"non-numeric value {cells[c]!r} in column {c!r}"))
                continue
            label = schema.label_aliases.get(cells[schema.label], cells[schema.label])
            if label not in (schema.positive_label, schema.negative_label):
                bad.append((row_no, f"unknown label {cells[schema.label]!r}"))
                continue
            for c in schema.categorical:
                out["cat"][c].append(cells[c])
            for c, v in zip(schema.continuous, nums):
                out["num"][c].append(v)
            out["labels"].append(int(label == schema.positive_label))
            out["groups"].append(schema.sensitive_map[cells[schema.sensitive]])
            out["rows"].append(row_no)
    if bad:
        preview = "; ".join(f"row {r}: {msg}" for r, msg in bad[:5])
        raise DataError(f"{path}: {len(bad)} unusable row(s): {preview}",
                        rows=[r for r, _ in bad])
    if not out["rows"]:
        raise EmptyInputError("no rows")
    return out, dropped


def reader_outcome(read, *args):
    """A reader's result, or its error; any other exception fails the test."""
    try:
        return "ok", read(*args)
    except DataError as exc:
        return "DataError", (exc.rows, str(exc))
    except (SchemaError, EmptyInputError) as exc:
        return type(exc).__name__, None


def assert_load_csv_equals_row_oracle(path, schema):
    got = reader_outcome(load_csv, path, schema)
    want = reader_outcome(load_csv_rows, path, schema)
    assert got[0] == want[0]
    if got[0] == "DataError":
        assert got[1] == want[1]
    if got[0] != "ok":
        return
    table, (expected, dropped) = got[1], want[1]
    assert table.dropped_count == dropped
    assert {c: column.decode() for c, column in table.categorical.items()} == expected["cat"]
    for c, values in expected["num"].items():
        assert table.continuous[c].tobytes() == np.array(values, dtype=np.float64).tobytes()
    for field, key in (("labels", "labels"), ("groups", "groups"), ("row_indices", "rows")):
        arr = getattr(table, field)
        assert arr.dtype == np.int64 and arr.tolist() == expected[key]


@st.composite
def mutated_csv_texts(draw, headers, columns):
    """A headered CSV text whose rows mix valid cells, mutations and blank lines.

    ``headers`` lists valid header lines first and a broken one last;
    ``columns`` holds one (valid cells, invalid cells) pair per column.
    About half the texts are clean; the others draw invalid cells, edit
    rows (truncate, extend, blank, whitespace only) and may be cut short.
    """
    clean = draw(st.booleans())
    lines = [draw(st.sampled_from(headers[:-1] if clean else headers))]
    for _ in range(draw(st.integers(0, 10))):
        cells = [draw(st.sampled_from(valid if clean else valid + invalid))
                 for valid, invalid in columns]
        edit = "keep" if clean else draw(
            st.sampled_from(["keep", "keep", "truncate", "extend", "blank", "spaces"]))
        cut = draw(st.integers(0, len(columns) - 1))
        if edit == "truncate":
            cells = cells[:cut]
        elif edit == "extend":
            cells.append("extra")
        elif edit == "blank":
            cells = []
        elif edit == "spaces":
            cells = [" \t"] * cut
        lines.append(",".join(cells))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    if not clean and draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


CSV_HEADERS = ["color,size,weight,grp,outcome", "outcome , grp,weight,size,color,note",
               "color,size,grp,outcome"]
CSV_COLUMNS = [
    (["red", "blue", " red ", "?", '"blue"', '"r,e\nd"', ""], []),
    (["1.0", "-2.5", " 3 ", "1e-3", "nan", "?", '"4.5"'], ["x", "1_0", "١", ""]),
    (["0.5", "7", "inf", "-0"], ["", "?"]),
    (["a", "b", " b ", '"a"'], ["c", "?"]),
    (["yes", "no", "yes.", "no.", " yes "], ["maybe", "?", ""]),
]


class TestColumnReaderFuzz:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(mutated_csv_texts(CSV_HEADERS, CSV_COLUMNS))
    def test_load_csv_equals_row_oracle(self, tmp_path_factory, text):
        p = tmp_path_factory.mktemp("fuzz") / "data.csv"
        p.write_bytes(text.encode("utf-8"))
        assert_load_csv_equals_row_oracle(p, FUZZ_SCHEMA)

    @pytest.mark.parametrize("block_rows", [1, 2, 3, 7])
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(text=mutated_csv_texts(CSV_HEADERS, CSV_COLUMNS))
    def test_load_csv_in_small_blocks_equals_row_oracle(self, tmp_path_factory, block_rows,
                                                       text):
        p = tmp_path_factory.mktemp("fuzz") / "data.csv"
        p.write_bytes(text.encode("utf-8"))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bpsfair.data, "INGEST_BLOCK_ROWS", block_rows)
            assert_load_csv_equals_row_oracle(p, FUZZ_SCHEMA)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.lists(st.tuples(st.sampled_from(["u", "v", "w", "x", "y"]),
                              st.floats(-1e6, 1e6)), min_size=1, max_size=30),
           st.data())
    def test_encoder_equals_row_oracle(self, values, data):
        n = len(values)
        # codes into a vocabulary in file order, holding values no row has
        vocabulary = tuple(data.draw(st.permutations(["u", "v", "w", "x", "y"])))
        codes = np.array([vocabulary.index(v) for v, _ in values], dtype=np.int64)
        table = RawTable(
            schema=FUZZ_SCHEMA,
            categorical={"color": Categorical(vocabulary, codes)},
            continuous={"size": np.array([x for _, x in values]), "weight": np.ones(n)},
            labels=np.zeros(n, dtype=np.int64),
            groups=np.zeros(n, dtype=np.int64),
            row_indices=np.arange(n, dtype=np.int64),
        )
        fit_rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
        rows = data.draw(st.none() | st.lists(st.integers(0, n - 1), max_size=n))
        enc = fit_encoder(table, rows=fit_rows)
        ds = apply_encoder(table, enc, rows=rows)
        idx = range(n) if rows is None else rows
        colors = table.categorical["color"].decode()
        vocab = sorted({colors[i] for i in fit_rows})
        assert enc.vocabularies["color"] == tuple(vocab)
        expected = np.zeros((len(idx), 2 + len(vocab)))
        unseen = 0
        for out_row, i in enumerate(idx):
            if "size" not in enc.constant_columns:
                expected[out_row, 0] = (table.continuous["size"][i] - enc.means["size"]) \
                    / enc.stds["size"]
            value = colors[i]
            if value in vocab:
                expected[out_row, 2 + vocab.index(value)] = 1.0
            else:
                unseen += 1
        assert ds.X.tobytes() == expected.tobytes()
        assert ds.feature_names == ("size", "weight", *(f"color={v}" for v in vocab))
        assert ds.unseen_categorical_count == unseen


BLOCK = 4  # INGEST_BLOCK_ROWS in the block-edge tests
TOY_ROWS = {
    "ok": "red,1.5,a,yes",
    "blank": "",
    "spaces": " , ,\t, ",
    "short": "red,1.0",
    "missing": "blue,2.0,?,no",
    "unmapped": "red,1.0,c,yes",
    "non_numeric": "red,x1,a,yes",
    "unknown_label": "red,1.0,b,maybe",
}


class TestIngestBlocks:
    @pytest.mark.parametrize("kind", [k for k in TOY_ROWS if k != "ok"])
    @pytest.mark.parametrize("n", [BLOCK - 1, BLOCK, BLOCK + 1])
    def test_odd_rows_at_block_edges_equal_row_oracle(self, tmp_path, monkeypatch, n, kind):
        # the odd rows close the first block, open the second and end the file
        monkeypatch.setattr(bpsfair.data, "INGEST_BLOCK_ROWS", BLOCK)
        edges = {BLOCK - 1, BLOCK, n - 1}
        p = tmp_path / "toy.csv"
        write_toy_csv(p, [TOY_ROWS[kind if i in edges else "ok"] for i in range(n)])
        assert_load_csv_equals_row_oracle(p, TOY_SCHEMA)

    def test_unusable_rows_across_blocks_keep_numbers_and_message(self, tmp_path,
                                                                  monkeypatch):
        monkeypatch.setattr(bpsfair.data, "INGEST_BLOCK_ROWS", 3)
        kinds = ["ok", "short", "blank", "missing", "unmapped", "non_numeric",
                 "unknown_label", "spaces", "short", "unmapped", "ok"]
        p = tmp_path / "toy.csv"
        write_toy_csv(p, [TOY_ROWS[k] for k in kinds])
        with pytest.raises(DataError) as exc:
            load_csv(p, TOY_SCHEMA)
        assert exc.value.rows == (1, 4, 5, 6, 8, 9)
        assert str(exc.value) == (
            f"{p}: 6 unusable row(s): row 1: short row: 2 of 4 field(s); "
            "row 4: unmapped sensitive value 'c'; row 5: non-numeric value 'x1' in column "
            "'size'; row 6: unknown label 'maybe'; row 8: short row: 2 of 4 field(s)")

    @pytest.mark.parametrize("token", ["?", "nan", "-1"])
    def test_missing_token_in_a_numeric_column(self, tmp_path, monkeypatch, token):
        # "nan" and "-1" parse as floats; "\x1c" is stripped by str.strip, not by float
        monkeypatch.setattr(bpsfair.data, "INGEST_BLOCK_ROWS", 2)
        schema = dataclasses.replace(TOY_SCHEMA, missing_token=token)
        p = tmp_path / "toy.csv"
        write_toy_csv(p, ["red,1.0,a,yes", f"blue, {token} ,b,no", "red,\x1c2.5\x1c,a,no",
                          f"red,{token},a,yes", "blue,3.0,b,no"])
        assert_load_csv_equals_row_oracle(p, schema)
        assert load_csv(p, schema).dropped_count == 2

    def test_stripped_values_share_one_code_across_blocks(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bpsfair.data, "INGEST_BLOCK_ROWS", 2)
        p = tmp_path / "toy.csv"
        write_toy_csv(p, [" red,1.0, a,yes", "blue,2.0,b,no", "red,3.0,a ,yes",
                          " blue ,4.0,b, no"])
        table = load_csv(p, TOY_SCHEMA)
        assert table.categorical["color"].vocabulary == ("red", "blue")
        assert table.categorical["color"].codes.tolist() == [0, 1, 0, 1]
        np.testing.assert_array_equal(table.groups, [0, 1, 0, 1])

    def test_peak_memory_is_a_third_of_the_rows_as_strings(self, tmp_path):
        # The bound is a third of the csv rows' own footprint (42.8 MB here),
        # so a load that holds every row at once, as one block would, fails it.
        p = tmp_path / "adult.csv"
        write_adult_shaped_csv(p, 40_000)
        with open(p, newline="", encoding="utf-8") as fh:
            tracemalloc.start()
            rows = list(csv.reader(fh))
            strings_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        del rows
        tracemalloc.start()
        table = load_csv(p, adult_preset())
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert table.n_rows > 35_000
        assert peak < strings_peak / 3


class TestAdultPreset:
    def test_sensitive_role(self):
        schema = adult_preset()
        assert schema.sensitive == "sex"
        assert "sex" not in schema.categorical + schema.continuous
        assert schema.sensitive_map == {"Female": 0, "Male": 1}

    def test_label_mapping(self):
        schema = adult_preset()
        assert schema.positive_label == ">50K"
        assert schema.label_aliases[">50K."] == ">50K"
        assert schema.label_aliases["<=50K."] == "<=50K"

    def test_encoded_sample_has_no_gender_column(self, tmp_path):
        schema = adult_preset()
        header = ",".join(
            ["age", "workclass", "fnlwgt", "education", "education-num", "marital-status",
             "occupation", "relationship", "race", "sex", "capital-gain", "capital-loss",
             "hours-per-week", "native-country", "income"]
        )
        rows = [
            "39,State-gov,77516,Bachelors,13,Never-married,Adm-clerical,Not-in-family,White,Male,2174,0,40,United-States,<=50K",
            "50,Self-emp-not-inc,83311,Bachelors,13,Married-civ-spouse,Exec-managerial,Husband,White,Male,0,0,13,United-States,>50K",
            "38,Private,215646,HS-grad,9,Divorced,Handlers-cleaners,Not-in-family,White,Female,0,0,40,United-States,<=50K.",
            "53,Private,234721,11th,7,Married-civ-spouse,Handlers-cleaners,Husband,Black,Male,0,0,40,United-States,>50K.",
        ]
        p = tmp_path / "adult_sample.csv"
        p.write_text(header + "\n" + "\n".join(rows) + "\n")
        table = load_csv(p, schema)
        ds = apply_encoder(table, fit_encoder(table))
        assert not any(name.startswith("sex") for name in ds.feature_names)
        np.testing.assert_array_equal(ds.Y, [0, 1, 0, 1])  # aliases normalized
        np.testing.assert_array_equal(ds.A, [1, 1, 0, 1])


def best_stump_accuracy(X, y):
    """Depth-1 rule oracle: best single-feature threshold split."""
    best = 0.0
    for j in range(X.shape[1]):
        col = X[:, j]
        for thr in np.quantile(col, np.linspace(0.02, 0.98, 49)):
            for polarity in (1, 0):
                pred = (col > thr).astype(int) if polarity else (col <= thr).astype(int)
                best = max(best, float(np.mean(pred == y)))
    return best


class TestSyntheticGenerator:
    def test_group_rates_match_targets(self):
        table = synthesize_biased(
            n=100_000, base_rate_g0=0.34, base_rate_g1=0.46, group_fraction=0.5,
            feature_dim=4, noise=1.0, seed=7,
        )
        for g, target in ((0, 0.34), (1, 0.46)):
            mask = table.groups == g
            rate = table.labels[mask].mean()
            assert abs(rate - target) < 0.01

    def test_noise_free_is_stump_separable(self):
        table = synthesize_biased(
            n=4000, base_rate_g0=0.3, base_rate_g1=0.5, group_fraction=0.5,
            feature_dim=3, noise=0.0, seed=11,
        )
        X = np.column_stack([table.continuous[f"f{j}"] for j in range(3)])
        assert best_stump_accuracy(X, table.labels) > 0.99

    def test_seed_determinism(self):
        t1 = synthesize_biased(n=500, base_rate_g0=0.3, base_rate_g1=0.5, seed=3)
        t2 = synthesize_biased(n=500, base_rate_g0=0.3, base_rate_g1=0.5, seed=3)
        np.testing.assert_array_equal(t1.labels, t2.labels)
        np.testing.assert_array_equal(t1.groups, t2.groups)
        for c in t1.continuous:
            np.testing.assert_array_equal(t1.continuous[c], t2.continuous[c])

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            synthesize_biased(n=10, base_rate_g0=0.0, base_rate_g1=0.5)
        with pytest.raises(ConfigError):
            synthesize_biased(n=10, base_rate_g0=0.3, base_rate_g1=1.5)
        with pytest.raises(ConfigError):
            synthesize_biased(n=10, base_rate_g0=0.3, base_rate_g1=0.5, noise=-1.0)

    def test_csv_round_trip(self, tmp_path):
        table = synthesize_biased(n=200, base_rate_g0=0.3, base_rate_g1=0.5,
                                  feature_dim=2, seed=5)
        p = tmp_path / "synth.csv"
        write_csv(table, p)
        loaded = load_csv(p, synthetic_preset(feature_dim=2))
        np.testing.assert_array_equal(loaded.labels, table.labels)
        np.testing.assert_array_equal(loaded.groups, table.groups)
        for c in table.continuous:
            np.testing.assert_allclose(loaded.continuous[c], table.continuous[c], rtol=1e-9)


# write_csv pins: sha256 of the bytes the per-row writer wrote before the block-streamed one
WRITE_CSV_SHA256 = {
    "synth7": "f8322f0b2cd9c0aefcfafe5b989f5833c4fc8bf7aa4ddf50423856817a9e4ba5",
    "synth1024": "29d8e7e98ba34eb46cd05f8679659b70397f13972ace5abc633e9b111f9f6f8f",
    "synth1025": "0e9d9c13a7e48d70541cab3a5edf3890965993976e2fa26e4ac8c77eced6483c",
    "quoting": "d0fd220450cedd57ba7b2d3d8c26e519e17e85fe00c6155f0a61e5cbaf136392",
    "empty": "f2e4eeccb64f05acaf3ff779c9210d642625c12b4023b7a3d025c4609a9d3ac2",
    "one_group": "4bd0ecf9a08bbe1fe35314614af21afef01dd7c5c8d1eb81d005267f4f598740",
}
QUOTING_SCHEMA = DatasetSchema(
    label="outcome",
    positive_label='yes, "really"',
    negative_label=" no",
    sensitive="grp",
    sensitive_map={" lead": 0, 'say "c"': 1, "a,b": 0},
    categorical=("color", "shape"),
    continuous=("size",),
)


def quoting_table():
    """Seven rows whose categorical, sensitive and label cells need CSV quoting."""
    return RawTable(
        schema=QUOTING_SCHEMA,
        categorical={
            "color": Categorical(("red, dark", 'x "q"', " lead", "plain", "unused"),
                                 np.array([0, 1, 2, 3, 1, 0, 2], dtype=np.int64)),
            "shape": Categorical(("line\nbreak", "", "sq"),
                                 np.array([2, 2, 0, 1, 2, 0, 1], dtype=np.int64)),
        },
        continuous={"size": np.array([np.nan, np.inf, -0.0, 1e-300, 123456789012.5,
                                      -np.inf, 0.1 + 0.2])},
        labels=np.array([1, 0, 0, 1, 1, 0, 1], dtype=np.int64),
        groups=np.array([0, 1, 1, 0, 1, 0, 0], dtype=np.int64),
        row_indices=np.arange(7, dtype=np.int64),
    )


def one_group_table():
    """A schema whose sensitive_map holds only group code 0, on rows that are all group 0."""
    table = synthesize_biased(n=9, base_rate_g0=0.3, base_rate_g1=0.5, feature_dim=2, seed=8)
    schema = dataclasses.replace(table.schema, sensitive_map={"only": 0})
    return dataclasses.replace(table, schema=schema, groups=np.zeros(9, dtype=np.int64))


def empty_table():
    return RawTable(
        schema=QUOTING_SCHEMA,
        categorical={c: Categorical(("red",), np.empty(0, dtype=np.int64))
                     for c in QUOTING_SCHEMA.categorical},
        continuous={"size": np.empty(0)},
        labels=np.empty(0, dtype=np.int64),
        groups=np.empty(0, dtype=np.int64),
        row_indices=np.empty(0, dtype=np.int64),
    )


def written_sha256(table, path):
    write_csv(table, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@st.composite
def writable_tables(draw):
    """A RawTable of 0-12 rows whose cells survive load_csv's stripping and missing token."""
    n = draw(st.integers(0, 12))
    cell = st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=6).filter(
        lambda v: v == v.strip() and v != "?")
    vocabulary = tuple(draw(st.lists(cell, min_size=1, max_size=5, unique=True)))
    codes = np.array(draw(st.lists(st.integers(0, len(vocabulary) - 1), min_size=n,
                                   max_size=n)), dtype=np.int64)
    floats = st.lists(st.floats(width=64), min_size=n, max_size=n)
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    return RawTable(
        schema=FUZZ_SCHEMA,
        categorical={"color": Categorical(vocabulary, codes)},
        continuous={c: np.array(draw(floats), dtype=np.float64) for c in FUZZ_SCHEMA.continuous},
        labels=np.array(draw(bits), dtype=np.int64),
        groups=np.array(draw(bits), dtype=np.int64),
        row_indices=np.arange(n, dtype=np.int64),
    )


class TestWriteCsv:
    @pytest.mark.parametrize("block_rows", [2, 3, 1024])
    def test_synthetic_table_across_block_edges(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(bpsfair.data, "INGEST_BLOCK_ROWS", block_rows)
        table = synthesize_biased(n=7, base_rate_g0=0.3, base_rate_g1=0.5, feature_dim=3,
                                  seed=2)
        assert written_sha256(table, tmp_path / "t.csv") == WRITE_CSV_SHA256["synth7"]

    @pytest.mark.parametrize("n", [1024, 1025])
    def test_synthetic_table_at_the_default_block_edge(self, tmp_path, n):
        assert bpsfair.data.INGEST_BLOCK_ROWS == 1024
        table = synthesize_biased(n=n, base_rate_g0=0.34, base_rate_g1=0.46, seed=n)
        assert written_sha256(table, tmp_path / "t.csv") == WRITE_CSV_SHA256[f"synth{n}"]

    @pytest.mark.parametrize("block_rows", [2, 3, 1024])
    def test_cells_that_need_quoting(self, tmp_path, monkeypatch, block_rows):
        monkeypatch.setattr(bpsfair.data, "INGEST_BLOCK_ROWS", block_rows)
        assert written_sha256(quoting_table(), tmp_path / "t.csv") == WRITE_CSV_SHA256["quoting"]

    def test_zero_rows_is_header_only(self, tmp_path):
        p = tmp_path / "t.csv"
        assert written_sha256(empty_table(), p) == WRITE_CSV_SHA256["empty"]
        assert p.read_bytes() == b"size,color,shape,grp,outcome\r\n"

    def test_one_group_schema(self, tmp_path):
        p = tmp_path / "t.csv"
        assert written_sha256(one_group_table(), p) == WRITE_CSV_SHA256["one_group"]
        assert load_csv(p, one_group_table().schema).groups.tolist() == [0] * 9

    @pytest.mark.parametrize("block_rows", [1, 3, 1024])
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(table=writable_tables())
    def test_load_csv_reads_back_what_write_csv_wrote(self, tmp_path_factory, block_rows, table):
        p = tmp_path_factory.mktemp("written") / "t.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bpsfair.data, "INGEST_BLOCK_ROWS", block_rows)
            write_csv(table, p)
            if table.n_rows == 0:
                with pytest.raises(EmptyInputError):
                    load_csv(p, FUZZ_SCHEMA)
                return
            loaded = load_csv(p, FUZZ_SCHEMA)
        color = table.categorical["color"]
        first_seen = tuple(dict.fromkeys(color.decode()))
        assert loaded.categorical["color"].vocabulary == first_seen
        assert loaded.categorical["color"].codes.tolist() == [
            first_seen.index(v) for v in color.decode()]
        assert loaded.labels.tolist() == table.labels.tolist()
        assert loaded.groups.tolist() == table.groups.tolist()
        for c, values in table.continuous.items():
            expected = np.array([float(f"{v:.10g}") for v in values.tolist()])
            assert loaded.continuous[c].tobytes() == expected.tobytes()


class TestSchemaValidation:
    def test_needs_features(self):
        with pytest.raises(ConfigError):
            DatasetSchema(label="y", positive_label="1", sensitive="g",
                          sensitive_map={"0": 0, "1": 1})

    def test_label_cannot_be_feature(self):
        with pytest.raises(ConfigError):
            DatasetSchema(label="y", positive_label="1", sensitive="g",
                          sensitive_map={"0": 0, "1": 1}, continuous=("y",))

    def test_sensitive_map_codes(self):
        with pytest.raises(ConfigError):
            DatasetSchema(label="y", positive_label="1", sensitive="g",
                          sensitive_map={"a": 0, "b": 2}, continuous=("x",))


class TestSchemaDict:
    def test_round_trip(self):
        schema = DatasetSchema(
            label="income", positive_label=">50K", negative_label="<=50K", sensitive="sex",
            sensitive_map={"Male": 1, "Female": 0}, categorical=("race",),
            continuous=("age", "hours"), ignore=("fnlwgt",),
            label_aliases={">50K.": ">50K"}, missing_token="NA",
        )
        d = schema.to_dict()
        assert list(d) == ["label", "positive_label", "negative_label", "sensitive",
                           "sensitive_map", "categorical", "continuous", "ignore",
                           "label_aliases", "missing_token"]
        assert DatasetSchema.from_dict(d) == schema
        assert DatasetSchema.from_dict(adult_preset().to_dict()) == adult_preset()

    def test_from_dict_coerces_and_defaults(self):
        schema = DatasetSchema.from_dict({
            "label": "y", "positive_label": 1, "sensitive": "g",
            "sensitive_map": {0: "0", 1: 1}, "continuous": ["x"],
        })
        assert schema.positive_label == "1"
        assert schema.negative_label == "0"
        assert schema.sensitive_map == {"0": 0, "1": 1}
        assert schema.missing_token == "?"

    @pytest.mark.parametrize("key", ["categorical", "continuous", "ignore"])
    @pytest.mark.parametrize("value", ["age", ["age", 3]])
    def test_column_lists_take_only_lists_of_strings(self, key, value):
        # a string used to become one column per letter: "age" gave ("a", "g", "e")
        d = {"label": "y", "positive_label": "1", "sensitive": "g", "sensitive_map": {"a": 0},
             "continuous": ["x"]}
        with pytest.raises(ConfigError, match=rf"^dataset\.schema\.{key} must be a (list|string)"):
            DatasetSchema.from_dict({**d, key: value})

    def test_unknown_key(self):
        d = {"label": "y", "positive_label": "1", "sensitive": "g", "sensitive_map": {"a": 0},
             "continuous": ["x"], "categorial": ["c"]}
        with pytest.raises(ConfigError, match=r"unknown \[dataset\.schema\] fields \['categorial'\]"):
            DatasetSchema.from_dict(d)

    def test_missing_key(self):
        with pytest.raises(ConfigError, match=r"missing \[dataset\.schema\] fields "
                                              r"\['sensitive', 'sensitive_map'\]"):
            DatasetSchema.from_dict({"label": "y", "positive_label": "1", "continuous": ["x"]})
