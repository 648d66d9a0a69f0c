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
from dataclasses import dataclass, field, replace

import numpy as np

from .data import EncodedDataset, RawTable, SplitPlan, apply_encoder, fit_encoder, mc_splits
from .errors import ConfigError, DivergenceError, NonFiniteOutputError, StateError
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
class TrainConfig:
    """Everything one training run needs besides the data."""

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
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be positive")
        if self.network.use_batch_norm and self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 when batch norm is enabled")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ConfigError(f"lr must be a finite positive number, got {self.lr!r}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)!r}")
        if not (math.isfinite(self.adam_eps) and self.adam_eps > 0.0):
            raise ConfigError(f"adam_eps must be a finite positive number, got {self.adam_eps!r}")


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


def evaluate(state, dataset: EncodedDataset, indices, terms=(),
             mode: DenominatorMode = DenominatorMode.AS_WRITTEN) -> EvalResult:
    """Eval-mode forward on the given rows, thresholded at 0.5.

    Returns accuracy, the full BPS report, and a full-pass recomputation
    of the BCE plus each fairness term on those rows.  A probability that
    is not finite has no threshold: it raises NonFiniteOutputError.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if dataset.X.shape[1] != state.config.input_dim:
        raise StateError(
            f"dataset has {dataset.X.shape[1]} features, model expects {state.config.input_dim}"
        )
    probs, _ = forward(state, dataset.X, mode="eval", rows=idx)
    bad = probs.size - np.count_nonzero(np.isfinite(probs))
    if bad:
        raise NonFiniteOutputError(f"model output is not finite on {bad} of {probs.size} rows")
    preds = (probs >= 0.5).astype(np.int64)
    y, a = dataset.Y[idx], dataset.A[idx]
    value = combined_loss(terms, probs, y, a, mode)
    return EvalResult(
        accuracy=float(np.mean(preds == y)),
        report=bps_report(preds, y, a),
        bce=value.bce,
        per_term=value.per_term,
    )


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
        templates = tuple(
            tuple((MeasureKind(k), float(s)) for k, s in template) for template in self.templates
        )
        object.__setattr__(self, "templates", templates)
        object.__setattr__(self, "variants", tuple(self.variants))
        object.__setattr__(self, "powers", tuple(int(p) for p in self.powers))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if not (self.templates and self.variants and self.powers and self.alphas):
            raise ConfigError("grid axes must all be non-empty")
        if any(a < 0 for a in self.alphas):
            raise ConfigError("alpha values must be non-negative")

    def iterations_for(self, plan: SplitPlan) -> int:
        """The Monte Carlo iterations this grid runs under ``plan``; ConfigError if out of range."""
        iterations = plan.iterations if self.iterations is None else self.iterations
        if iterations < 1 or iterations > plan.iterations:
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
        parts = []
        for kind, scale in self.measures:
            parts.append(kind.value if scale == 1.0 else f"{kind.value}*{scale:g}")
        return "+".join(parts)

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
    key: CellKey
    runs: tuple
    means: dict = field(default_factory=dict)
    variances: dict = field(default_factory=dict)
    n_success: int = 0
    n_diverged: int = 0

    @property
    def all_diverged(self) -> bool:
        return self.n_success == 0


@dataclass
class GridResult:
    cells: tuple
    plan: SplitPlan

    def cell(self, **selector) -> CellResult:
        """The unique cell matching CELL_FIELDS selectors (measures, alpha, ...)."""
        return select_cell(self.cells, selector, lambda c: c.key.fields())


def select_cell(cells, selector: dict, fields=lambda cell: cell):
    """The unique cell whose ``fields(cell)`` match every selector entry.

    Selector keys are CELL_FIELDS names; an unknown key, no match or
    several matches raise ConfigError.
    """
    unknown = sorted(set(selector) - set(CELL_FIELDS))
    if unknown:
        raise ConfigError(f"unknown cell selector fields {unknown}; expected {CELL_FIELDS}")
    matches = [c for c in cells if all(fields(c)[k] == v for k, v in selector.items())]
    if len(matches) != 1:
        raise ConfigError(f"cell selector {selector} matched {len(matches)} cells")
    return matches[0]


def run_scalars(run: RunResult) -> dict:
    """Flatten one run into named scalars for aggregation and CSV emission."""
    if run.diverged:
        return {}
    out = {"accuracy": run.accuracy, "bce": run.bce, "best_epoch": float(run.best_epoch)}
    for kind in MeasureKind:
        entry = run.report[kind]
        name = kind.value.lower()
        out[f"bps_{name}"] = np.nan if entry.bps is None else entry.bps
        gids = sorted(entry.group_values)
        for slot, gid in enumerate(gids[:2]):
            v = entry.group_values[gid]
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

    Pre-encoded datasets pass through unchanged (callers accept the
    leakage trade-off); raw tables are re-encoded per split so the
    encoder never sees validation or test statistics.
    """
    if isinstance(source, EncodedDataset):
        return source
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
    """Train every grid cell for every Monte Carlo iteration and aggregate.

    ``source`` is a RawTable (re-encoded per split) or a pre-encoded
    EncodedDataset.  One task is one iteration of one (template, variant)
    group, trained in lockstep by ``_worker_task``; with jobs > 1 a process
    pool runs the tasks, with jobs == 1 this process does.  Aggregation is
    deterministic in the task identity rather than completion order.
    """
    if jobs < 1:
        raise ConfigError(f"jobs must be a positive integer, got {jobs!r}")
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

    cells = []
    for key in sorted(keys, key=lambda k: tuple(k.fields().values())):
        runs = tuple(results[(key, it)] for it in range(iterations))
        rows = [run_scalars(run) for run in runs]
        columns = tuple(dict.fromkeys(k for row in rows for k in row))
        block = [[row.get(c) for c in columns] for row in rows]  # None reads as NaN
        means, variances, n_ok, n_div = cell_statistics(
            block, np.zeros(len(runs), np.int64), [run.diverged for run in runs])
        cells.append(
            CellResult(key=key, runs=runs, means=dict(zip(columns, means[0].tolist())),
                       variances=dict(zip(columns, variances[0].tolist())),
                       n_success=int(n_ok[0]), n_diverged=int(n_div[0]))
        )
    return GridResult(cells=tuple(cells), plan=plan)
