"""Training loop, single-run evaluation, grid search, and MC aggregation.

A grid cell is (measure template, soft variant, power, alpha); every cell
is trained once per Monte Carlo iteration with deterministic seeds, so
results are reproducible regardless of execution order or worker count.

Models that share a config and differ only in their term weights train
in lockstep as one stack (see ``network``): each minibatch runs one
stacked forward, loss, backward and Adam step.  A grid trains each
(iteration, template, variant) group of cells this way; a single model
is a stack of one.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .data import EncodedDataset, RawTable, SplitPlan, apply_encoder, fit_encoder, mc_splits
from .errors import ConfigError, DivergenceError, NonFiniteOutputError, StateError
from .fields import FRACTION, NON_NEGATIVE, NON_NEGATIVE_INT, POSITIVE, POSITIVE_INT, Record, typed
from .losses import (
    DenominatorMode,
    FairnessTerm,
    SoftVariant,
    combined_loss,
    combined_loss_and_gradient,
)
from .metrics import BpsReport, MeasureKind, bps_report
from .network import NetworkConfig, adam_step, backward, forward, init, init_adam

__all__ = [
    "TrainConfig",
    "RunResult",
    "EvalResult",
    "GridSpec",
    "CellKey",
    "CellResult",
    "GridResult",
    "CELL_FIELDS",
    "RUN_FIELDS",
    "scalar_columns",
    "select_cell",
    "train_model",
    "evaluate",
    "run_grid",
    "cell_statistics",
    "mean_and_variance",
    "run_scalars",
    "dataset_for_split",
]

DEFAULT_ALPHAS = tuple(round(0.1 * i, 1) for i in range(11))  # 0.0 baseline + 0.1 .. 1.0

# The run/cell schema of runs.csv and cells.csv; scalar_columns lists what run_scalars emits.
CELL_FIELDS = ("measures", "variant", "beta", "power", "alpha")
RUN_FIELDS = CELL_FIELDS + ("iteration", "seed", "diverged", "divergence_epoch")


def scalar_columns(n_terms: int) -> tuple:
    """Scalar columns of runs with up to ``n_terms`` fairness terms, in CSV order."""
    names = [kind.value.lower() for kind in MeasureKind]
    return (("accuracy", "bce", "best_epoch") + tuple(f"bps_{m}" for m in names)
            + tuple(f"{m}_g{slot}" for m in names for slot in (0, 1))
            + tuple(f"term{i}_{part}" for i in range(n_terms) for part in ("loss", "soft_bps")))


@dataclass(frozen=True)
class TrainConfig(Record):
    """Everything one training run needs besides the data; ``KINDS`` reads ``[training]``."""

    KINDS = {"batch_size": POSITIVE_INT, "epochs": POSITIVE_INT, "lr": POSITIVE,
             "seed": NON_NEGATIVE_INT, "keep_trace": bool, "beta1": FRACTION, "beta2": FRACTION,
             "adam_eps": POSITIVE, "denominator_mode": DenominatorMode}
    SECTION = "training"

    network: NetworkConfig
    terms: tuple = ()
    denominator_mode: DenominatorMode = DenominatorMode.AS_WRITTEN
    batch_size: int = 256
    epochs: int = 100
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    keep_trace: bool = False

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.network.use_batch_norm and self.batch_size < 2:
            raise ConfigError(f"training.batch_size must be at least 2 when network.batch_norm "
                              f"is true, got {self.batch_size}")


@dataclass
class EvalResult:
    """Metrics of one state on one index set."""

    accuracy: float
    report: BpsReport
    bce: float
    per_term: tuple


@dataclass
class RunResult:
    """Outcome of one (config, split, seed) training run."""

    accuracy: float
    report: BpsReport | None
    bce: float
    per_term: tuple
    best_epoch: int
    seed: int
    iteration: int = 0
    trace: tuple = ()
    diverged: bool = False
    divergence_epoch: int | None = None


def _epoch_rngs(seed: int, epoch: int):
    shuffle_rng = np.random.default_rng((seed, epoch, 0))
    dropout_rng = np.random.default_rng((seed, epoch, 1))
    return shuffle_rng, dropout_rng


def _train_stack(dataset, split, config: TrainConfig, term_sets):
    """Train one model per term tuple in lockstep; returns one outcome each.

    All models share ``config`` apart from their terms, hence the init,
    the shuffle order and the dropout masks.  Per epoch the training
    indices are reshuffled with a seed derived from (config.seed, epoch);
    after each epoch every model is scored on the validation split in
    eval mode and its highest-accuracy state (earliest epoch on ties) is
    kept.  An outcome is (best state, best epoch, trace), or the
    DivergenceError of a model whose batch loss or validation
    probabilities went non-finite: that model leaves the stack and the
    others train on.
    """
    train_idx, val_idx = (np.asarray(ix, dtype=np.int64) for ix in split[:2])
    state = init(config.network, models=len(term_sets))
    adam = init_adam(state, lr=config.lr, beta1=config.beta1, beta2=config.beta2,
                     eps=config.adam_eps)
    X, Y, A = dataset.X, dataset.Y, dataset.A
    Y_val = Y[val_idx]

    live = list(range(len(term_sets)))  # stack position -> model index
    live_terms = list(term_sets)
    diverged = {}  # model index -> DivergenceError
    best = [(-1.0, 0, None)] * len(term_sets)  # (val accuracy, epoch, state)
    traces = [[] for _ in term_sets]
    for epoch in range(1, config.epochs + 1):
        shuffle_rng, dropout_rng = _epoch_rngs(config.seed, epoch)
        order = shuffle_rng.permutation(train_idx)
        epoch_losses = [[] for _ in term_sets]
        for start in range(0, order.size, config.batch_size):
            batch = order[start : start + config.batch_size]
            probs, cache = forward(state, X, mode="train", rng=dropout_rng, rows=batch)
            totals, dprobs = combined_loss_and_gradient(
                live_terms, probs, Y[batch], A[batch], config.denominator_mode
            )
            finite = np.isfinite(totals)
            keep = None if finite.all() else np.flatnonzero(finite).tolist()
            if keep is not None:
                for pos in np.flatnonzero(~finite).tolist():
                    diverged[live[pos]] = DivergenceError(epoch, batch=start // config.batch_size)
                if not keep:
                    return [diverged[i] for i in range(len(term_sets))]
            if config.keep_trace:
                for i, total in zip(live, totals.tolist()):
                    epoch_losses[i].append(total)
            grads = backward(state, cache, dprobs)
            adam_step(state, adam, grads)
            if keep is not None:  # drop diverged models; slices never mix
                state, adam = state[keep], adam[keep]
                live = [live[pos] for pos in keep]
                live_terms = [live_terms[pos] for pos in keep]
        if val_idx.size:  # one stacked forward scores every live model
            val_probs, _ = forward(state, X, mode="eval", rows=val_idx)
            finite = np.isfinite(val_probs).all(axis=-1)
            if not finite.all():  # the epoch's last step overflowed a forward no loss has seen
                keep = np.flatnonzero(finite).tolist()
                for pos in np.flatnonzero(~finite).tolist():
                    diverged[live[pos]] = DivergenceError(epoch)
                if not keep:
                    return [diverged[i] for i in range(len(term_sets))]
                state, adam, val_probs = state[keep], adam[keep], val_probs[keep]
                live = [live[pos] for pos in keep]
                live_terms = [live_terms[pos] for pos in keep]
            val_accs = np.mean((val_probs >= 0.5) == Y_val, axis=-1).tolist()
        else:
            val_accs = [float("nan")] * len(live)
        for pos, (i, val_acc) in enumerate(zip(live, val_accs)):
            if val_idx.size == 0 or val_acc > best[i][0]:
                best[i] = (val_acc, epoch, state[pos].copy())
            if config.keep_trace:
                traces[i].append({"epoch": epoch, "train_loss": float(np.mean(epoch_losses[i])),
                                  "val_accuracy": val_acc})
    return [diverged[i] if i in diverged else (best[i][2], best[i][1], tuple(traces[i]))
            for i in range(len(term_sets))]


def _test_result(outcome, dataset, split, terms, config: TrainConfig, iteration=0) -> RunResult:
    """RunResult of a trained model's best state on the test split.

    A best state whose test probabilities are not finite diverged at its
    best epoch: that raises DivergenceError.
    """
    best_state, best_epoch, trace = outcome
    try:
        frag = evaluate(best_state, dataset, split[2], terms, config.denominator_mode)
    except NonFiniteOutputError:
        raise DivergenceError(best_epoch) from None
    return RunResult(
        accuracy=frag.accuracy,
        report=frag.report,
        bce=frag.bce,
        per_term=frag.per_term,
        best_epoch=best_epoch,
        seed=config.seed,
        iteration=iteration,
        trace=trace,
    )


def train_model(dataset: EncodedDataset, split, config: TrainConfig):
    """Train one model; returns (best state, RunResult).

    This is the lockstep loop of ``_train_stack`` with a single model.
    The RunResult is computed on the test split with hard 0.5
    thresholding.  A non-finite batch loss, or non-finite validation or
    test probabilities, raise DivergenceError.
    """
    (outcome,) = _train_stack(dataset, split, config, [config.terms])
    if isinstance(outcome, DivergenceError):
        raise outcome
    return outcome[0], _test_result(outcome, dataset, split, config.terms, config)


def evaluate(state, dataset: EncodedDataset, indices=None, terms=(),
             mode: DenominatorMode = DenominatorMode.AS_WRITTEN) -> EvalResult:
    """Eval-mode forward on the given rows (all rows, in order, for None), thresholded at 0.5.

    Returns accuracy, the full BPS report, and a full-pass recomputation
    of the BCE plus each fairness term on those rows.  A probability that
    is not finite has no threshold: it raises NonFiniteOutputError.
    """
    rows = None if indices is None else np.asarray(indices, dtype=np.int64)
    if dataset.X.shape[1] != state.config.input_dim:
        raise StateError(
            f"dataset has {dataset.X.shape[1]} features, model expects {state.config.input_dim}"
        )
    probs, _ = forward(state, dataset.X, mode="eval", rows=rows)
    bad = probs.size - np.count_nonzero(np.isfinite(probs))
    if bad:
        raise NonFiniteOutputError(f"model output is not finite on {bad} of {probs.size} rows")
    preds = (probs >= 0.5).astype(np.int64)
    y, a = (dataset.Y, dataset.A) if rows is None else (dataset.Y[rows], dataset.A[rows])
    value = combined_loss(terms, probs, y, a, mode)
    return EvalResult(
        accuracy=float(np.mean(preds == y)),
        report=bps_report(preds, y, a),
        bce=value.bce,
        per_term=value.per_term,
    )


def _measures_label(template) -> str:
    return "+".join(kind.value if scale == 1.0 else f"{kind.value}*{scale:g}"
                    for kind, scale in template)


@dataclass(frozen=True)
class GridSpec:
    """Axes of a regularization grid search.

    ``templates`` lists measure templates; each is a tuple of
    (MeasureKind, scale) pairs and a cell's term weights are
    alpha * scale.  ``iterations`` of None means "use the split plan's".
    """

    templates: tuple = ((("FPR", 1.0),),)
    variants: tuple = (SoftVariant.continuous(),)
    powers: tuple = (1, 2, 3, 4)
    alphas: tuple = DEFAULT_ALPHAS
    iterations: int | None = None

    def __post_init__(self):
        templates = tuple(tuple((MeasureKind(k), typed(NON_NEGATIVE, s, "scale"))
                                for k, s in template) for template in self.templates)
        if not all(templates):  # its cells would train BCE only at every alpha
            raise ConfigError(f"grid.measures must not hold an empty measure set, got "
                              f"{list(map(_measures_label, templates))}")
        object.__setattr__(self, "templates", templates)
        object.__setattr__(self, "variants", tuple(self.variants))
        object.__setattr__(self, "powers",
                           tuple(typed(POSITIVE_INT, p, "power") for p in self.powers))
        object.__setattr__(self, "alphas",
                           tuple(typed(NON_NEGATIVE, a, "alpha") for a in self.alphas))
        if self.iterations is not None:
            typed(POSITIVE_INT, self.iterations, "iterations")
        # runs.csv keys a run by its cell's fields, beta and alpha at fmt's 6 significant
        # digits; two values of one axis stored alike would pool their runs into one cell
        for axis, stored in (("measures", list(map(_measures_label, templates))),
                             ("variants", [f"{v.name}:{v.beta:.6g}" for v in self.variants]),
                             ("powers", list(self.powers)),
                             ("alphas", [float(f"{a:.6g}") for a in self.alphas])):
            if not stored or len(set(stored)) < len(stored):
                raise ConfigError(f"grid.{axis} must list one or more values, none twice as "
                                  f"runs.csv stores them, got {stored}")
        # a cell's term weight is alpha * scale: each is finite, their product may not be
        alpha = max(self.alphas)
        scale = max((s for template in templates for _, s in template), default=0.0)
        if math.isinf(alpha * scale):
            raise ConfigError(f"grid.alphas times a grid.measures scale must be finite, "
                              f"got {alpha:g} * {scale:g}")

    def iterations_for(self, plan: SplitPlan) -> int:
        """The Monte Carlo iterations this grid runs under ``plan``; ConfigError if out of range."""
        iterations = plan.iterations if self.iterations is None else self.iterations
        if iterations > plan.iterations:
            raise ConfigError(
                f"grid iterations {iterations} out of range for plan with {plan.iterations}"
            )
        return iterations

    def cells(self):
        for template, variant, power, alpha in itertools.product(
            self.templates, self.variants, self.powers, self.alphas
        ):
            yield CellKey(measures=template, variant=variant, power=power, alpha=alpha)


@dataclass(frozen=True)
class CellKey:
    """Identity of one grid cell."""

    measures: tuple
    variant: SoftVariant
    power: int
    alpha: float

    @property
    def measures_label(self) -> str:
        return _measures_label(self.measures)

    def terms(self) -> tuple:
        """Fairness terms for this cell.

        The alpha = 0 baseline keeps zero-weight terms: they are inert
        during training (bit-identical to BCE-only) but their loss values
        are still evaluated, so emitted curves start at the baseline.
        """
        return tuple(
            FairnessTerm(kind=kind, variant=self.variant, alpha=self.alpha * scale,
                         power=self.power)
            for kind, scale in self.measures
        )

    def fields(self) -> dict:
        """The cell's CELL_FIELDS values; cells are listed in their order everywhere."""
        return dict(zip(CELL_FIELDS, (self.measures_label, self.variant.name,
                                      self.variant.beta, self.power, self.alpha)))


@dataclass
class CellResult:
    """One cell's runs, one per Monte Carlo iteration; ``cells_from_runs`` aggregates them."""

    key: CellKey
    runs: tuple

    @property
    def n_diverged(self) -> int:  # read by perfbench and cmd_grid's summary line
        return sum(run.diverged for run in self.runs)

    @property
    def means(self) -> dict:  # read by perfbench until it reads cells.csv
        rows = [run_scalars(run) for run in self.runs if not run.diverged]
        columns = dict.fromkeys(k for row in rows for k in row)
        return {c: mean_and_variance([row.get(c) for row in rows])[0] for c in columns}


@dataclass
class GridResult:
    cells: tuple
    plan: SplitPlan


def select_cell(cells, selector: dict):
    """The unique cell dict whose CELL_FIELDS values match every selector entry.

    Selector keys are CELL_FIELDS names; an unknown key, no match or
    several matches raise ConfigError.
    """
    unknown = sorted(set(selector) - set(CELL_FIELDS))
    if unknown:
        raise ConfigError(f"unknown cell selector fields {unknown}; expected {CELL_FIELDS}")
    matches = [c for c in cells if all(c[k] == v for k, v in selector.items())]
    if len(matches) != 1:
        raise ConfigError(f"cell selector {selector} matched {len(matches)} cells")
    return matches[0]


def run_scalars(run: RunResult) -> dict:
    """Flatten one run into named scalars for aggregation and CSV emission."""
    if run.diverged:
        return {}
    out = {"accuracy": run.accuracy, "bce": run.bce, "best_epoch": float(run.best_epoch)}
    for kind, values, _, bps in run.report.rows()[1]:
        name = kind.value.lower()
        out[f"bps_{name}"] = np.nan if bps is None else bps
        for slot, v in enumerate(values[:2]):
            out[f"{name}_g{slot}"] = np.nan if v is None else v
    for i, tv in enumerate(run.per_term):
        out[f"term{i}_loss"] = tv.term_loss
        out[f"term{i}_soft_bps"] = tv.soft_bps
    return out


def cell_statistics(block, cell_of_run, diverged) -> tuple:
    """(means, variances, n_success, n_diverged) of every cell's runs.

    ``block`` is a (runs, columns) array, NaN (or None) where a run has
    no value; run r belongs to cell ``cell_of_run[r]`` (cells are
    numbered from 0) and ``diverged[r]`` flags it.  Each cell's column
    mean and unbiased variance come from its runs that did not diverge,
    as (cells, columns) arrays; the others are only counted.
    """
    cell_of_run = np.asarray(cell_of_run, dtype=np.int64)
    diverged = np.asarray(diverged, dtype=bool)
    block = np.asarray(block, dtype=np.float64)
    n_cells = int(cell_of_run.max()) + 1 if cell_of_run.size else 0
    n_ok = np.bincount(cell_of_run[~diverged], minlength=n_cells)
    n_diverged = np.bincount(cell_of_run[diverged], minlength=n_cells)
    # the runs that did not diverge, cell by cell, each cell's in run order
    ok_runs = np.flatnonzero(~diverged)
    ok_runs = ok_runs[np.argsort(cell_of_run[ok_runs], kind="stable")]
    first = np.cumsum(n_ok) - n_ok
    means = np.full((n_cells, block.shape[1]), np.nan)  # no run: every column is a hole
    variances = means.copy()
    for n in np.unique(n_ok[n_ok > 0]).tolist():
        cells = np.flatnonzero(n_ok == n)
        # (cells, columns, runs), contiguous: each reduction is the pairwise sum of one
        # 1-D column, so mean and var equal mean_and_variance's bit for bit
        group = np.ascontiguousarray(
            block[ok_runs[first[cells, None] + np.arange(n)]].transpose(0, 2, 1))
        if n > 1:
            mean, var = group.mean(axis=-1), group.var(axis=-1, ddof=1)
        else:  # one run has variance 0 by convention
            mean, var = group.sum(axis=-1), np.zeros(group.shape[:2])
        for c, j in zip(*np.nonzero(np.isnan(group).any(axis=-1))):
            mean[c, j], var[c, j] = mean_and_variance(group[c, j])
        means[cells], variances[cells] = mean, var
    return means, variances, n_ok, n_diverged


def mean_and_variance(values) -> tuple[float, float]:
    """Mean and unbiased variance of the values that are not None or NaN.

    One value has variance 0 by convention; none gives (NaN, NaN).
    """
    kept = [v for v in values if v is not None and not math.isnan(v)]
    if not kept:
        return np.nan, np.nan
    arr = np.array(kept, dtype=np.float64)
    return float(arr.mean()), float(arr.var(ddof=1)) if arr.size > 1 else 0.0


def dataset_for_split(source, split) -> EncodedDataset:
    """Encode a raw table with statistics fitted on the split's train rows.

    The table is re-encoded per split so the encoder never sees
    validation or test statistics; any other source raises ConfigError.
    """
    if isinstance(source, RawTable):
        encoder = fit_encoder(source, rows=split[0])
        return apply_encoder(source, encoder)
    raise ConfigError(f"unsupported dataset source {type(source).__name__}")


def _train_group(dataset, split, base_config: TrainConfig, keys, iteration: int) -> dict:
    """Train one iteration of a (template, variant) group's cells in lockstep.

    Cells whose terms all have zero weight train bit-identically to
    BCE-only, so they share one model; its best state is evaluated once
    per such cell, with that cell's terms.  Returns {key: RunResult}.
    """
    network = base_config.network
    if network.input_dim != dataset.X.shape[1]:
        # per-split encoding can shift the one-hot width with the vocabulary
        network = replace(network, input_dim=dataset.X.shape[1])
    config = replace(base_config, network=network, seed=base_config.seed + iteration)
    model_of, term_sets, inert_model = {}, [], None
    for key in keys:
        terms = key.terms()
        if all(t.alpha == 0.0 for t in terms):
            if inert_model is None:
                inert_model = len(term_sets)
                term_sets.append(terms)
            model_of[key] = inert_model
        else:
            model_of[key] = len(term_sets)
            term_sets.append(terms)
    outcomes = _train_stack(dataset, split, config, term_sets)

    results = {}
    for key in keys:
        outcome = outcomes[model_of[key]]
        if not isinstance(outcome, DivergenceError):
            try:
                results[key] = _test_result(outcome, dataset, split, key.terms(), config,
                                            iteration)
                continue
            except DivergenceError as exc:
                outcome = exc
        results[key] = RunResult(
            accuracy=float("nan"),
            report=None,
            bce=float("nan"),
            per_term=(),
            best_epoch=-1,
            seed=config.seed,
            iteration=iteration,
            diverged=True,
            divergence_epoch=outcome.epoch,
        )
    return results


_WORKER_CTX: dict = {}


def _init_worker(source, base_config, plan):
    _WORKER_CTX.clear()
    _WORKER_CTX["source"] = source
    _WORKER_CTX["base_config"] = base_config
    _WORKER_CTX["splits"] = mc_splits(source.n_rows, plan)
    _WORKER_CTX["encoded"] = (None, None)


def _worker_task(task):
    iteration, keys = task
    split = _WORKER_CTX["splits"][iteration]
    # tasks arrive iteration-major, so one encoding slot serves a whole iteration
    if _WORKER_CTX["encoded"][0] != iteration:
        _WORKER_CTX["encoded"] = iteration, dataset_for_split(_WORKER_CTX["source"], split)
    return iteration, _train_group(_WORKER_CTX["encoded"][1], split, _WORKER_CTX["base_config"],
                                   keys, iteration)


def run_grid(source, base_config: TrainConfig, grid: GridSpec, plan: SplitPlan,
             jobs: int = 1) -> GridResult:
    """Train every grid cell for every Monte Carlo iteration; cells in CELL_FIELDS order.

    ``source`` is a RawTable, re-encoded per split.  One task is one
    iteration of one (template, variant) group, trained in lockstep by
    ``_worker_task``; with jobs > 1 a process pool runs the tasks, with
    jobs == 1 this process does.  Each cell's runs are in iteration
    order, whatever order the tasks complete in; ``report.cells_from_runs``
    aggregates them from the runs.csv rows.
    """
    typed(POSITIVE_INT, jobs, "jobs")
    iterations = grid.iterations_for(plan)
    keys = list(grid.cells())
    groups: dict = {}
    for key in keys:
        groups.setdefault((key.measures, key.variant), []).append(key)
    # iteration-major order so one encoding serves consecutive tasks
    tasks = [(it, group) for it in range(iterations) for group in groups.values()]

    if jobs > 1:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(source, base_config, plan)
        ) as pool:
            done = list(pool.map(_worker_task, tasks, chunksize=1))
    else:
        _init_worker(source, base_config, plan)
        try:
            done = list(map(_worker_task, tasks))
        finally:
            _WORKER_CTX.clear()
    results = {(key, it): run for it, group_runs in done for key, run in group_runs.items()}
    cells = tuple(CellResult(key, tuple(results[(key, it)] for it in range(iterations)))
                  for key in sorted(keys, key=lambda k: tuple(k.fields().values())))
    return GridResult(cells=cells, plan=plan)
