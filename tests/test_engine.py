"""Training loop, evaluation, grid search, and aggregation behavior."""

import csv
import gc
import hashlib
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpsfair.data import (SplitPlan, apply_encoder, fit_encoder, mc_splits,
                          synthesize_biased)
from bpsfair.engine import (
    CELL_FIELDS,
    RUN_FIELDS,
    GridSpec,
    TrainConfig,
    cell_statistics,
    dataset_for_split,
    evaluate,
    mean_and_variance,
    run_grid,
    run_scalars,
    scalar_columns,
    select_cell,
    train_model,
)
from bpsfair.errors import ConfigError, DivergenceError, NonFiniteOutputError
from bpsfair.losses import DenominatorMode, FairnessTerm, SoftVariant
from bpsfair.metrics import MeasureKind, bps_report
from bpsfair import engine, network
from bpsfair.network import NetworkConfig, forward, serialize
from bpsfair.engine import RunResult, _train_stack
from bpsfair.report import (cells_from_runs, comparison_cells, emit_comparison_tables,
                            emit_results, fmt, read_runs_csv)
from conftest import stored_cells


def separable_setup(n=600, seed=5):
    table = synthesize_biased(n=n, base_rate_g0=0.35, base_rate_g1=0.5,
                              feature_dim=3, noise=0.0, seed=seed)
    plan = SplitPlan(iterations=2, train_fraction=0.7, val_fraction=0.1, base_seed=seed)
    split = mc_splits(table.n_rows, plan)[0]
    dataset = dataset_for_split(table, split)
    return dataset, split, plan, table


def small_config(**kw):
    defaults = dict(
        network=NetworkConfig(input_dim=3, hidden=((8, "relu"),), dropout_rate=0.0,
                              use_batch_norm=False, seed=0),
        batch_size=64,
        epochs=15,
        lr=0.01,
        seed=13,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestTrainModel:
    def test_baseline_learns_separable_data(self):
        dataset, split, _, _ = separable_setup()
        _, result = train_model(dataset, split, small_config())
        assert result.accuracy > 0.99
        assert not result.diverged

    def test_fixed_seed_reproducible(self):
        dataset, split, _, _ = separable_setup()
        cfg = small_config(keep_trace=True)
        state1, r1 = train_model(dataset, split, cfg)
        state2, r2 = train_model(dataset, split, cfg)
        assert serialize(state1) == serialize(state2)
        assert r1.accuracy == r2.accuracy
        assert r1.bce == r2.bce
        assert r1.best_epoch == r2.best_epoch
        assert r1.trace == r2.trace

    def test_zero_alpha_bit_identical_to_bce_only(self):
        dataset, split, _, _ = separable_setup()
        zero_term = (FairnessTerm(MeasureKind.FPR, SoftVariant.continuous(), 0.0, 2),)
        state_a, ra = train_model(dataset, split, small_config(terms=()))
        state_b, rb = train_model(dataset, split, small_config(terms=zero_term))
        assert serialize(state_a) == serialize(state_b)
        assert ra.accuracy == rb.accuracy
        assert ra.bce == rb.bce

    def test_best_epoch_is_validation_argmax(self):
        dataset, split, _, _ = separable_setup()
        cfg = small_config(epochs=8, keep_trace=True)
        _, result = train_model(dataset, split, cfg)
        accs = [t["val_accuracy"] for t in result.trace]
        assert accs[result.best_epoch - 1] == max(accs)
        # ties resolve to the earliest epoch
        assert all(a < accs[result.best_epoch - 1] for a in accs[: result.best_epoch - 1])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_run_raises_with_epoch(self):
        dataset, split, _, _ = separable_setup(n=200)
        cfg = small_config(lr=1e200, epochs=3)
        with pytest.raises(DivergenceError) as exc:
            train_model(dataset, split, cfg)
        assert 1 <= exc.value.epoch <= 3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("val_fraction", [0.1, 0.0])
    def test_overflow_in_the_last_step_diverges(self, val_fraction):
        # one batch per epoch and one epoch: no later batch loss sees the wrecked
        # weights (~1e308, still finite), only the validation or test forward does
        table = synthesize_biased(n=200, base_rate_g0=0.35, base_rate_g1=0.5,
                                  feature_dim=3, noise=0.5, seed=9)
        plan = SplitPlan(iterations=1, train_fraction=0.7, val_fraction=val_fraction,
                         base_seed=0)
        split = mc_splits(table.n_rows, plan)[0]
        cfg = small_config(batch_size=256, epochs=1, lr=1e308)
        with pytest.raises(DivergenceError) as exc:
            train_model(dataset_for_split(table, split), split, cfg)
        assert (exc.value.epoch, exc.value.batch) == (1, None)

    def test_fairness_term_training_runs(self):
        dataset, split, _, _ = separable_setup()
        term = FairnessTerm(MeasureKind.FNR, SoftVariant.continuous(), 0.3, 1)
        _, result = train_model(dataset, split, small_config(terms=(term,)))
        assert not result.diverged
        assert len(result.per_term) == 1
        assert 0.0 <= result.per_term[0].soft_bps <= 1.0


class TestStackedValidation:
    def test_each_model_scored_as_if_trained_alone(self, monkeypatch):
        # blocks of 16 rows split the 60-row validation set unevenly
        monkeypatch.setattr(network, "EVAL_BLOCK_ROWS", 16)
        dataset, split, _, _ = separable_setup()
        cfg = small_config(
            network=NetworkConfig(input_dim=3, hidden=((8, "leaky_relu"), (5, "relu")),
                                  dropout_rate=0.1, use_batch_norm=True, seed=2),
            epochs=5, keep_trace=True)
        term_sets = [(FairnessTerm(MeasureKind.FPR, SoftVariant.continuous(), alpha, 2),)
                     for alpha in (0.2, 0.5, 0.9)]
        stacked = _train_stack(dataset, split, cfg, term_sets)
        for terms, (state, best_epoch, trace) in zip(term_sets, stacked):
            ((solo_state, solo_epoch, solo_trace),) = _train_stack(dataset, split, cfg, [terms])
            assert trace == solo_trace
            assert best_epoch == solo_epoch
            assert serialize(state) == serialize(solo_state)

    def test_non_finite_validation_output_leaves_stack(self, monkeypatch):
        dataset, split, _, _ = separable_setup()
        cfg = small_config(epochs=4, keep_trace=True)
        term_sets = [(FairnessTerm(MeasureKind.FPR, SoftVariant.continuous(), alpha, 2),)
                     for alpha in (0.2, 0.5, 0.9)]
        eval_calls = []

        def forward_with_nan(state, X, mode="eval", **kw):
            probs, cache = forward(state, X, mode=mode, **kw)
            if mode == "eval":
                eval_calls.append(probs.shape)
                if len(eval_calls) == 2:  # the second epoch's validation pass
                    probs[1, 0] = np.nan
            return probs, cache

        monkeypatch.setattr(engine, "forward", forward_with_nan)
        stacked = _train_stack(dataset, split, cfg, term_sets)
        assert eval_calls[:3] == [(3, split[1].size), (3, split[1].size), (2, split[1].size)]
        assert isinstance(stacked[1], DivergenceError)
        assert (stacked[1].epoch, stacked[1].batch) == (2, None)
        for i in (0, 2):
            ((solo_state, solo_epoch, solo_trace),) = _train_stack(dataset, split, cfg,
                                                                   [term_sets[i]])
            state, best_epoch, trace = stacked[i]
            assert (trace, best_epoch) == (solo_trace, solo_epoch)
            assert serialize(state) == serialize(solo_state)


class TestEvaluate:
    def test_memorizing_model_scores_train_split(self):
        dataset, split, _, _ = separable_setup()
        state, _ = train_model(dataset, split, small_config())
        frag = evaluate(state, dataset, split[0])
        assert frag.accuracy > 0.99

    def test_threshold_point_five_is_positive(self):
        dataset, split, _, _ = separable_setup()
        state, _ = train_model(dataset, split, small_config(epochs=2))
        idx = split[2]
        probs, _ = forward(state, dataset.X[idx], mode="eval")
        preds = (probs >= 0.5).astype(int)
        frag = evaluate(state, dataset, idx)
        assert frag.accuracy == pytest.approx(float(np.mean(preds == dataset.Y[idx])))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_probability_is_not_thresholded(self):
        dataset, split, _, _ = separable_setup()
        state, _ = train_model(dataset, split, small_config(epochs=1))
        state.weights[0][...] = 1e308  # the forward overflows to inf - inf
        with pytest.raises(NonFiniteOutputError, match=rf"not finite on \d+ of {split[2].size}"):
            evaluate(state, dataset, split[2])

    def test_metrics_agree_with_dumped_predictions(self):
        dataset, split, _, _ = separable_setup()
        state, _ = train_model(dataset, split, small_config(epochs=3))
        idx = split[2]
        probs, _ = forward(state, dataset.X[idx], mode="eval")
        preds = (probs >= 0.5).astype(int)
        oracle = bps_report(preds, dataset.Y[idx], dataset.A[idx])
        frag = evaluate(state, dataset, idx)
        for kind in MeasureKind:
            assert frag.report.bps(kind) == oracle.bps(kind)

    def test_no_indices_scores_every_row_in_order(self):
        dataset, split, _, _ = separable_setup()
        state, _ = train_model(dataset, split, small_config(epochs=2))
        terms = (FairnessTerm(MeasureKind.FPR, SoftVariant.continuous(), alpha=0.5, power=2),)
        every = evaluate(state, dataset, None, terms)
        assert every == evaluate(state, dataset, np.arange(dataset.n_rows), terms)
        probs, _ = forward(state, dataset.X, mode="eval")
        assert every.accuracy == float(np.mean((probs >= 0.5) == dataset.Y))


def aggregate(runs):
    """cells_from_runs over one cell's runs as columns; (means, variances, n_runs, n_diverged).

    The columns are what read_runs_csv returns for the runs, at full
    precision; the statistics are keyed by scalar column.
    """
    rows = [run_scalars(run) for run in runs]
    fields = ("FPR", "continuous", 1.0, 1, 0.0)
    columns = {name: [value] * len(runs) for name, value in zip(CELL_FIELDS, fields)}
    columns["diverged"] = [run.diverged for run in runs]
    for c in dict.fromkeys(k for row in rows for k in row):
        columns[c] = [row.get(c, np.nan) for row in rows]
    (cell,) = cells_from_runs(columns)
    means, variances = ({name[len(prefix):]: v for name, v in cell.items()
                         if name.startswith(prefix)} for prefix in ("mean_", "var_"))
    return means, variances, cell["n_runs"], cell["n_diverged"]


class TestAggregate:
    def run_with(self, accuracy, seed=0, diverged=False):
        rep = bps_report([1, 0, 1, 0], [1, 0, 0, 1], [0, 0, 1, 1])
        return RunResult(accuracy=accuracy, report=None if diverged else rep,
                         bce=accuracy / 2, per_term=(), best_epoch=3, seed=seed,
                         diverged=diverged)

    def test_forced_two_run_values(self):
        means, variances, n_ok, n_div = aggregate([self.run_with(0.8), self.run_with(0.9)])
        assert means["accuracy"] == pytest.approx(0.85)
        assert variances["accuracy"] == pytest.approx(0.005)
        assert (n_ok, n_div) == (2, 0)

    def test_single_run_zero_variance(self):
        means, variances, *_ = aggregate([self.run_with(0.8)])
        assert variances["accuracy"] == 0.0

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(19)
        vals = rng.uniform(0.5, 1.0, 10)
        runs = [self.run_with(float(v)) for v in vals]
        means, variances, *_ = aggregate(runs)
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
        assert means["accuracy"] == pytest.approx(mean, rel=1e-12)
        assert variances["accuracy"] == pytest.approx(var, rel=1e-12)

    def test_diverged_runs_excluded_but_counted(self):
        runs = [self.run_with(0.8), self.run_with(0.9), self.run_with(0.1, diverged=True)]
        means, _, n_ok, n_div = aggregate(runs)
        assert means["accuracy"] == pytest.approx(0.85)
        assert (n_ok, n_div) == (2, 1)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.lists(st.tuples(
        st.booleans(),
        st.lists(st.one_of(st.none(), st.just(float("nan")),
                           st.floats(-1e9, 1e9), st.floats(0.0, 1.0)),
                 min_size=3, max_size=3),
    ), max_size=40), st.integers(1, 200))
    def test_cell_statistics_equal_per_column_oracle(self, runs, repeat):
        # repeating the rows reaches the multi-block pairwise sums of long columns
        columns = ("a", "b", "c")
        rows = []
        for _ in range(repeat if len(runs) < 5 else 1):
            for diverged, values in runs:
                row = {"diverged": diverged}
                # a None value is a missing column
                row.update((c, v) for c, v in zip(columns, values) if v is not None)
                rows.append(row)
        block = np.array([[row.get(c) for c in columns] for row in rows],
                         dtype=np.float64).reshape(len(rows), len(columns))
        means, variances, n_ok, n_div = cell_statistics(
            block, [0] * len(rows), [row["diverged"] for row in rows])
        if not rows:  # cells are numbered by their runs: no run, no cell
            assert means.shape == variances.shape == (0, 3) and n_ok.size == n_div.size == 0
            return
        ok = [row for row in rows if not row["diverged"]]
        assert (n_ok.tolist(), n_div.tolist()) == ([len(ok)], [len(rows) - len(ok)])
        for j, col in enumerate(columns):
            want = mean_and_variance([row.get(col) for row in ok])
            got = (means[0, j], variances[0, j])
            assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_all_diverged_flagged(self):
        means, variances, n_ok, n_div = aggregate([self.run_with(0.1, diverged=True)])
        assert means and all(np.isnan(v) for v in (*means.values(), *variances.values()))
        assert (n_ok, n_div) == (0, 1)


def tiny_grid_inputs(seed=23):
    table = synthesize_biased(n=400, base_rate_g0=0.35, base_rate_g1=0.5,
                              feature_dim=3, noise=0.3, seed=seed)
    plan = SplitPlan(iterations=2, train_fraction=0.7, val_fraction=0.1, base_seed=seed)
    base = TrainConfig(
        network=NetworkConfig(input_dim=3, hidden=((6, "relu"),), seed=0),
        batch_size=64,
        epochs=5,
        lr=0.01,
        seed=31,
    )
    grid = GridSpec(
        templates=[[("FPR", 1.0)]],
        variants=[SoftVariant.continuous()],
        powers=[1],
        alphas=[0.0, 0.1],
    )
    return table, base, grid, plan


def assert_every_cell_diverged(result, out):
    """cells.csv holds both of each cell's runs as diverged, and blank means."""
    emit_results(result, out)
    with open(out / "cells.csv", newline="") as fh:
        cells = list(csv.DictReader(fh))
    assert len(cells) == len(result.cells)
    for cell in cells:
        assert (cell["n_runs"], cell["n_diverged"]) == ("0", "2")
        assert all(v == "" for name, v in cell.items() if name.startswith("mean_"))


class TestRunGrid:
    def test_cell_and_run_counting(self):
        table, base, grid, plan = tiny_grid_inputs()
        result = run_grid(table, base, grid, plan)
        assert len(result.cells) == 2
        assert all(len(c.runs) == 2 for c in result.cells)

    def test_baseline_cell_mean_is_exact_run_mean(self, tmp_path):
        table, base, grid, plan = tiny_grid_inputs()
        result = run_grid(table, base, grid, plan)
        emit_results(result, tmp_path)
        runs = read_runs_csv(tmp_path / "runs.csv")
        accs = [acc for acc, alpha in zip(runs["accuracy"], runs["alpha"]) if alpha == 0.0]
        assert accs == [float(fmt(r.accuracy)) for r in result.cells[0].runs]
        cell = select_cell(stored_cells(tmp_path), {"alpha": 0.0})
        assert cell["mean_accuracy"] == pytest.approx(sum(accs) / 2, rel=1e-15)

    def test_baseline_cell_matches_manual_training(self):
        table, base, grid, plan = tiny_grid_inputs()
        result = run_grid(table, base, grid, plan)
        (cell,) = [c for c in result.cells if c.key.alpha == 0.0]
        splits = mc_splits(table.n_rows, plan)
        for it in (0, 1):
            dataset = dataset_for_split(table, splits[it])
            cfg = TrainConfig(network=base.network, terms=(), batch_size=base.batch_size,
                              epochs=base.epochs, lr=base.lr, seed=base.seed + it)
            _, manual = train_model(dataset, splits[it], cfg)
            assert cell.runs[it].accuracy == manual.accuracy
            assert cell.runs[it].bce == manual.bce

    def test_grid_reproducible(self, tmp_path):
        table, base, grid, plan = tiny_grid_inputs()
        emit_results(run_grid(table, base, grid, plan), tmp_path / "first")
        emit_results(run_grid(table, base, grid, plan), tmp_path / "second")
        for name in ("runs.csv", "cells.csv"):
            assert (tmp_path / "first" / name).read_bytes() == (
                tmp_path / "second" / name).read_bytes()

    def test_parallel_equals_serial(self, tmp_path):
        table, base, grid, plan = tiny_grid_inputs()
        serial = run_grid(table, base, grid, plan, jobs=1)
        parallel = run_grid(table, base, grid, plan, jobs=2)
        for c1, c2 in zip(serial.cells, parallel.cells):
            assert c1.key == c2.key
        emit_results(serial, tmp_path / "serial")
        emit_results(parallel, tmp_path / "parallel")
        for name in ("runs.csv", "cells.csv"):
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "parallel" / name).read_bytes()

    def test_means_bounded_by_run_extremes(self, tmp_path):
        table, base, grid, plan = tiny_grid_inputs()
        emit_results(run_grid(table, base, grid, plan), tmp_path)
        runs = read_runs_csv(tmp_path / "runs.csv")
        for cell in stored_cells(tmp_path):
            accs = [acc for acc, alpha, diverged in zip(runs["accuracy"], runs["alpha"],
                                                        runs["diverged"])
                    if alpha == cell["alpha"] and not diverged]
            assert min(accs) <= cell["mean_accuracy"] <= max(accs)

    def test_iteration_bounds_validated(self):
        table, base, grid, plan = tiny_grid_inputs()
        bad = GridSpec(templates=grid.templates, variants=grid.variants,
                       powers=grid.powers, alphas=grid.alphas, iterations=5)
        with pytest.raises(ConfigError):
            run_grid(table, base, bad, plan)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_cell_flagged_not_fatal(self, tmp_path):
        table, base, grid, plan = tiny_grid_inputs()
        from dataclasses import replace

        exploding = replace(base, lr=1e200)
        result = run_grid(table, exploding, grid, plan)
        for cell in result.cells:
            for run in cell.runs:
                assert run.diverged and run.divergence_epoch is not None
        assert_every_cell_diverged(result, tmp_path)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("val_fraction", [0.1, 0.0])
    def test_overflow_in_the_last_step_flags_every_cell(self, val_fraction, tmp_path):
        table, base, grid, _ = tiny_grid_inputs()
        plan = SplitPlan(iterations=2, train_fraction=0.7, val_fraction=val_fraction,
                         base_seed=23)
        result = run_grid(table, replace(base, batch_size=512, epochs=1, lr=1e308), grid, plan)
        for cell in result.cells:
            assert [run.divergence_epoch for run in cell.runs] == [1, 1]
        assert_every_cell_diverged(result, tmp_path)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        table, base, grid, plan = tiny_grid_inputs()
        with pytest.raises(ConfigError, match="jobs must be a positive integer"):
            run_grid(table, base, grid, plan, jobs=jobs)

    def test_pre_encoded_source_refused(self):
        # an encoder fitted on every row would have seen the test rows of each split
        table, base, grid, plan = tiny_grid_inputs()
        encoded = apply_encoder(table, fit_encoder(table))
        with pytest.raises(ConfigError, match="^unsupported dataset source EncodedDataset$"):
            dataset_for_split(encoded, mc_splits(table.n_rows, plan)[0])
        with pytest.raises(ConfigError, match="^unsupported dataset source EncodedDataset$"):
            run_grid(encoded, base, grid, plan)

    def test_serial_grid_encodes_once_per_iteration(self, monkeypatch):
        table, base, _, plan = tiny_grid_inputs()
        grid = GridSpec(templates=[[("FPR", 1.0)], [("STP", 1.0)]],
                        variants=[SoftVariant.continuous()], powers=[1], alphas=[0.0, 0.1])
        encoded = []

        def counting(source, split):
            encoded.append(split)
            return dataset_for_split(source, split)

        monkeypatch.setattr(engine, "dataset_for_split", counting)
        result = run_grid(table, base, grid, plan, jobs=1)
        assert len(result.cells) == 4  # two groups, so two tasks per iteration
        # one encoding per iteration, fitted on that iteration's training rows
        assert [train.tolist() for train, *_ in encoded] == [
            train.tolist() for train, *_ in mc_splits(table.n_rows, plan)]

    def test_serial_grid_keeps_no_reference_to_the_source(self):
        table, base, grid, plan = tiny_grid_inputs()
        source = weakref.ref(table)
        result = run_grid(table, base, grid, plan, jobs=1)
        del table
        gc.collect()
        assert source() is None
        assert len(result.cells) == 2

    def test_scaled_template_weights(self):
        grid = GridSpec(
            templates=[[("FPR", 1.0), ("FNR", 1.25)]],
            variants=[SoftVariant.sigmoided()],
            powers=[3],
            alphas=[0.1],
        )
        (key,) = list(grid.cells())
        terms = key.terms()
        assert [t.alpha for t in terms] == [pytest.approx(0.1), pytest.approx(0.125)]
        assert key.measures_label == "FPR+FNR*1.25"


def mixed_grid_inputs(mode, alphas=(0.0, 0.3, 1.0)):
    """Two templates x two variants x powers {1,3} x alphas, batch norm and dropout."""
    table = synthesize_biased(n=400, base_rate_g0=0.35, base_rate_g1=0.5,
                              feature_dim=3, noise=0.3, seed=23)
    plan = SplitPlan(iterations=2, train_fraction=0.7, val_fraction=0.1, base_seed=23)
    base = TrainConfig(
        network=NetworkConfig(input_dim=3, hidden=((6, "relu"), (5, "leaky_relu")),
                              dropout_rate=0.2, use_batch_norm=True, seed=0),
        batch_size=64, epochs=4, lr=0.01, seed=31, denominator_mode=mode,
    )
    grid = GridSpec(templates=[[("FPR", 1.0), ("FNR", 1.25)], [("STP", 1.0)]],
                    variants=[SoftVariant.continuous(), SoftVariant.sigmoided(10.0)],
                    powers=[1, 3], alphas=alphas)
    return table, base, grid, plan


def solo_run(table, base, plan, key, iteration):
    """The cell's run trained on its own with train_model (RunResult or DivergenceError)."""
    split = mc_splits(table.n_rows, plan)[iteration]
    config = replace(base, terms=key.terms(), seed=base.seed + iteration)
    try:
        return train_model(dataset_for_split(table, split), split, config)[1]
    except DivergenceError as exc:
        return exc


def assert_same_run(grid_run, solo):
    assert grid_run.accuracy == solo.accuracy
    assert grid_run.bce == solo.bce
    assert grid_run.best_epoch == solo.best_epoch
    for kind in MeasureKind:
        assert grid_run.report[kind] == solo.report[kind]
    assert len(grid_run.per_term) == len(solo.per_term)
    for mine, theirs in zip(grid_run.per_term, solo.per_term):
        assert mine.term_loss == theirs.term_loss
        assert mine.soft_bps == theirs.soft_bps


# sha256 of runs.csv for mixed_grid_inputs, as written by the per-cell training loop
MIXED_RUNS_SHA256 = {
    DenominatorMode.AS_WRITTEN: "8b72f81122d74a040b211e7aa1d37c49c6038ec0b85159cbae951163dcb02751",
    DenominatorMode.RATE: "7ed9b739c883b36f55c7e40cc31e1401b8cab74ae1de13b5dd801622201ad3e1",
}
# sha256 of cells.csv for mixed_grid_inputs, as written while report kept its own cell schema
MIXED_CELLS_SHA256 = {
    DenominatorMode.AS_WRITTEN: "01939cc39c8a993f55ba621ab4089ef5cc61439c80ea4923faf9cb2c3382090a",
    DenominatorMode.RATE: "172f6914fa02d31264a17568358602a88ce667af50ff4b92484ae96c814ac865",
}
# the comparison tables' rows for mixed_grid_inputs, and the sha256 of prule_table.csv and
# error_rate_table.csv they give, as written by two writerow loops
MIXED_TABLE_ROWS = {
    "FPR+FNR k3": {"measures": "FPR+FNR*1.25", "variant": "continuous", "power": 3, "alpha": 1.0},
    "STP sigmoided": {"measures": "STP", "variant": "sigmoided", "beta": 10.0, "power": 1,
                      "alpha": 0.3},
}
MIXED_TABLES_SHA256 = {
    DenominatorMode.AS_WRITTEN: (
        "4c2b86dd5a10fbe33e7ea1262ca654736806fec858f3cc93adc5c5a4f8682a12",
        "5822ff109382e1b595f089e2de7e185fef7c907ec06c7d44ab82726ac3180647"),
    DenominatorMode.RATE: (
        "eb27a553976bf5b8f37d7b12c19c02204ddb9a3e76730966a117955a59dd3839",
        "1aa3551b77e467006328b26a4bd6b80365db01aaa178e83dd4d87220c260da4e"),
}


class TestLockstepGrid:
    @pytest.mark.parametrize("mode", list(DenominatorMode), ids=lambda m: m.value)
    def test_every_cell_matches_solo_training(self, mode, tmp_path):
        table, base, grid, plan = mixed_grid_inputs(mode)
        result = run_grid(table, base, grid, plan)
        assert len(result.cells) == 24
        for cell in result.cells:
            for it, run in enumerate(cell.runs):
                assert not run.diverged
                assert_same_run(run, solo_run(table, base, plan, cell.key, it))
        emit_results(result, tmp_path)
        digest = hashlib.sha256((tmp_path / "runs.csv").read_bytes()).hexdigest()
        assert digest == MIXED_RUNS_SHA256[mode]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_diverged_cell_flagged_while_neighbours_finish(self, tmp_path):
        # an overflowing weight makes that cell's gradient infinite, then its loss NaN
        table, base, grid, plan = mixed_grid_inputs(DenominatorMode.RATE,
                                                    alphas=(0.0, 0.3, 1e308))
        result = run_grid(table, base, grid, plan)
        n_diverged = 0
        for cell in result.cells:
            for it, run in enumerate(cell.runs):
                solo = solo_run(table, base, plan, cell.key, it)
                if isinstance(solo, DivergenceError):
                    assert run.diverged and run.divergence_epoch == solo.epoch
                    n_diverged += 1
                else:
                    assert not run.diverged
                    assert_same_run(run, solo)
        assert 0 < n_diverged < sum(len(c.runs) for c in result.cells)
        emit_results(result, tmp_path)
        assert all(c["n_runs"] == 2 for c in stored_cells(tmp_path) if c["alpha"] < 1.0)


class TestAdultFormatPipeline:
    def test_fabricated_census_rows_train_end_to_end(self, tmp_path):
        from bpsfair.data import adult_preset, load_csv

        rng = np.random.default_rng(51)
        workclass = ["Private", "State-gov", "Self-emp-not-inc", "?"]
        education = ["Bachelors", "HS-grad", "11th", "Masters"]
        marital = ["Never-married", "Married-civ-spouse", "Divorced"]
        occupation = ["Adm-clerical", "Exec-managerial", "Sales"]
        relationship = ["Husband", "Wife", "Not-in-family"]
        race = ["White", "Black", "Asian-Pac-Islander"]
        country = ["United-States", "Mexico"]
        lines = ["age,workclass,fnlwgt,education,education-num,marital-status,occupation,"
                 "relationship,race,sex,capital-gain,capital-loss,hours-per-week,"
                 "native-country,income"]
        for _ in range(240):
            sex = "Male" if rng.random() < 0.65 else "Female"
            income = ">50K" if rng.random() < (0.3 if sex == "Male" else 0.11) else "<=50K"
            lines.append(
                f"{rng.integers(17, 80)},{rng.choice(workclass)},{rng.integers(10_000, 900_000)},"
                f"{rng.choice(education)},{rng.integers(1, 16)},{rng.choice(marital)},"
                f"{rng.choice(occupation)},{rng.choice(relationship)},{rng.choice(race)},"
                f"{sex},{rng.integers(0, 5000)},{rng.integers(0, 2000)},"
                f"{rng.integers(10, 60)},{rng.choice(country)},{income}"
            )
        path = tmp_path / "census.csv"
        path.write_text("\n".join(lines) + "\n")

        table = load_csv(path, adult_preset())
        assert table.dropped_count > 0  # the "?" workclass rows
        plan = SplitPlan(iterations=1, train_fraction=0.7, val_fraction=0.1, base_seed=1)
        split = mc_splits(table.n_rows, plan)[0]
        dataset = dataset_for_split(table, split)
        config = TrainConfig(
            network=NetworkConfig(input_dim=dataset.X.shape[1], hidden=((16, "relu"),),
                                  dropout_rate=0.1, use_batch_norm=True, seed=0),
            batch_size=32, epochs=3, lr=0.005, seed=2,
            terms=(FairnessTerm(MeasureKind.STP, SoftVariant.continuous(), 0.5, 4),),
        )
        _, result = train_model(dataset, split, config)
        assert not result.diverged
        assert np.isfinite(result.bce)
        assert result.report.bps(MeasureKind.STP) is not None


class TestRunScalars:
    def test_flattening_contains_expected_keys(self):
        dataset, split, _, _ = separable_setup(n=300)
        term = FairnessTerm(MeasureKind.STP, SoftVariant.continuous(), 0.2, 2)
        _, result = train_model(dataset, split, small_config(epochs=2, terms=(term,)))
        scalars = run_scalars(result)
        for key in ("accuracy", "bce", "best_epoch", "bps_fpr", "bps_stp",
                    "fpr_g0", "fpr_g1", "term0_loss", "term0_soft_bps"):
            assert key in scalars

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TrainConfig(
                network=NetworkConfig(input_dim=3, hidden=((4, "relu"),), use_batch_norm=True),
                batch_size=1,
            )

    @pytest.mark.parametrize("field, value", [
        ("lr", -0.01), ("lr", 0.0), ("lr", float("nan")), ("lr", float("inf")),
        ("beta1", 1.0), ("beta1", -0.1), ("beta1", float("nan")),
        ("beta2", 1.0), ("beta2", 1.5), ("beta2", float("-inf")),
        ("adam_eps", 0.0), ("adam_eps", -1e-8), ("adam_eps", float("nan")),
    ])
    def test_bad_adam_settings_rejected(self, field, value):
        with pytest.raises(ConfigError, match=rf"^{field} must be"):
            small_config(**{field: value})

    def test_adam_setting_edges_accepted(self):
        config = small_config(lr=1e-12, beta1=0.0, beta2=0.0, adam_eps=1e-300)
        assert (config.beta1, config.beta2) == (0.0, 0.0)


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestCellSchema:
    @pytest.mark.parametrize("mode", list(DenominatorMode), ids=lambda m: m.value)
    def test_mixed_grid_csvs_pinned(self, mode, tmp_path):
        table, base, grid, plan = mixed_grid_inputs(mode)
        cells = emit_results(run_grid(table, base, grid, plan), tmp_path)
        assert sha256_of(tmp_path / "runs.csv") == MIXED_RUNS_SHA256[mode]
        assert sha256_of(tmp_path / "cells.csv") == MIXED_CELLS_SHA256[mode]
        emit_comparison_tables(comparison_cells(cells, MIXED_TABLE_ROWS), tmp_path)
        assert (sha256_of(tmp_path / "prule_table.csv"),
                sha256_of(tmp_path / "error_rate_table.csv")) == MIXED_TABLES_SHA256[mode]

    def test_multi_beta_grid_lists_cells_in_one_order(self, tmp_path):
        table, base, _, plan = tiny_grid_inputs()
        grid = GridSpec(templates=[[("FPR", 1.0)]],
                        variants=[SoftVariant.sigmoided(10.0), SoftVariant.sigmoided(2.0)],
                        powers=[1], alphas=[0.1, 0.0])
        result = run_grid(table, base, grid, plan)
        emit_results(result, tmp_path)
        order = [tuple(c.key.fields().values()) for c in result.cells]
        assert [(beta, alpha) for _, _, beta, _, alpha in order] == [
            (2.0, 0.0), (2.0, 0.1), (10.0, 0.0), (10.0, 0.1)]
        runs = read_runs_csv(tmp_path / "runs.csv")
        assert list(dict.fromkeys(zip(*(runs[f] for f in CELL_FIELDS)))) == order
        with open(tmp_path / "cells.csv", newline="") as fh:
            cells = [tuple(row[f] for f in CELL_FIELDS) for row in csv.DictReader(fh)]
        assert cells == [tuple(fmt(v) for v in fields) for fields in order]

    def test_cell_selector(self, tmp_path):
        table, base, grid, plan = tiny_grid_inputs()
        cells = emit_results(run_grid(table, base, grid, plan), tmp_path)
        cell = select_cell(cells, {"measures": "FPR", "variant": "continuous", "beta": 1.0,
                                   "power": 1, "alpha": 0.1})
        assert cell["alpha"] == 0.1
        for selector in ({"measures_label": "FPR", "alpha": 0.1},  # not a cell field
                         {"alpha": 0.7},  # no cell
                         {"measures": "FPR"}):  # two cells
            with pytest.raises(ConfigError):
                select_cell(cells, selector)

    def test_every_run_scalar_is_a_runs_csv_column(self, tmp_path):
        table, base, _, plan = tiny_grid_inputs()
        grid = GridSpec(templates=[[("FNR", 1.0), ("STP", 0.5)]],
                        variants=[SoftVariant.continuous()], powers=[2], alphas=[0.0, 0.2])
        result = run_grid(table, base, grid, plan)
        emit_results(result, tmp_path)
        with open(tmp_path / "runs.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == list(RUN_FIELDS + scalar_columns(2))
        for cell in result.cells:
            for run in cell.runs:
                scalars = run_scalars(run)
                assert {"term1_soft_bps", "stp_g1"} <= set(scalars)
                assert set(scalars) <= set(header)
