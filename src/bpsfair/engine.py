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
from .errors import ConfigError, DivergenceError, StateError
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
    "train_model",
    "evaluate",
    "run_grid",
    "aggregate",
    "run_scalars",
    "dataset_for_split",
]

DEFAULT_ALPHAS = tuple(round(0.1 * i, 1) for i in range(11))  # 0.0 baseline + 0.1 .. 1.0


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
    DivergenceError of a model whose batch loss went non-finite: that
    model leaves the stack and the others train on.
    """
    train_idx, val_idx = (np.asarray(ix, dtype=np.int64) for ix in split[:2])
    state = init(config.network, models=len(term_sets))
    adam = init_adam(state, lr=config.lr, beta1=config.beta1, beta2=config.beta2,
                     eps=config.adam_eps)
    X, Y, A = dataset.X, dataset.Y, dataset.A
    X_val, Y_val = X[val_idx], Y[val_idx]

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
            probs, cache = forward(state, X[batch], mode="train", rng=dropout_rng)
            values, dprobs = combined_loss_and_gradient(
                live_terms, probs, Y[batch], A[batch], config.denominator_mode
            )
            keep = []
            for pos, (i, value) in enumerate(zip(live, values)):
                if math.isfinite(value.total):
                    keep.append(pos)
                    epoch_losses[i].append(value.total)
                else:
                    diverged[i] = DivergenceError(epoch, batch=start // config.batch_size)
            if not keep:
                return [diverged[i] for i in range(len(term_sets))]
            grads = backward(state, cache, dprobs)
            adam_step(state, adam, grads)
            if len(keep) < len(live):  # drop diverged models; slices never mix
                state, adam = state[keep], adam[keep]
                live = [live[pos] for pos in keep]
                live_terms = [live_terms[pos] for pos in keep]
        for pos, i in enumerate(live):
            model = state[pos]
            if val_idx.size:
                val_probs, _ = forward(model, X_val, mode="eval")
                val_acc = float(np.mean((val_probs >= 0.5).astype(np.int64) == Y_val))
            else:
                val_acc = float("nan")
            if val_idx.size == 0 or val_acc > best[i][0]:
                best[i] = (val_acc, epoch, model.copy())
            if config.keep_trace:
                traces[i].append({"epoch": epoch, "train_loss": float(np.mean(epoch_losses[i])),
                                  "val_accuracy": val_acc})
    return [diverged[i] if i in diverged else (best[i][2], best[i][1], tuple(traces[i]))
            for i in range(len(term_sets))]


def _test_result(outcome, dataset, split, terms, config: TrainConfig, iteration=0) -> RunResult:
    """RunResult of a trained model's best state on the test split."""
    best_state, best_epoch, trace = outcome
    frag = evaluate(best_state, dataset, split[2], terms, config.denominator_mode)
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
    thresholding.  A non-finite batch loss aborts the run with
    DivergenceError.
    """
    (outcome,) = _train_stack(dataset, split, config, [config.terms])
    if isinstance(outcome, DivergenceError):
        raise outcome
    return outcome[0], _test_result(outcome, dataset, split, config.terms, config)


def evaluate(state, dataset: EncodedDataset, indices, terms=(),
             mode: DenominatorMode = DenominatorMode.AS_WRITTEN) -> EvalResult:
    """Eval-mode forward on the given rows, thresholded at 0.5.

    Returns accuracy, the full BPS report, and a full-pass recomputation
    of the BCE plus each fairness term on those rows.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if dataset.X.shape[1] != state.config.input_dim:
        raise StateError(
            f"dataset has {dataset.X.shape[1]} features, model expects {state.config.input_dim}"
        )
    probs, _ = forward(state, dataset.X[idx], mode="eval")
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

    def sort_key(self):
        return (self.measures_label, str(self.variant), self.power, self.alpha)


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

    def cell(self, **selectors) -> CellResult:
        """Find the unique cell matching keyword selectors (measures_label, alpha, ...)."""
        matches = []
        for c in self.cells:
            key = c.key
            fields = {
                "measures_label": key.measures_label,
                "variant": key.variant.name,
                "beta": key.variant.beta,
                "power": key.power,
                "alpha": key.alpha,
            }
            if all(fields[k] == v for k, v in selectors.items()):
                matches.append(c)
        if len(matches) != 1:
            raise KeyError(f"selectors {selectors} matched {len(matches)} cells")
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


def aggregate(runs) -> tuple[dict, dict, int, int]:
    """Mean and unbiased variance of every scalar over successful runs.

    Diverged runs are excluded from the statistics and counted
    separately; a single successful run has variance 0 by convention.
    """
    ok = [r for r in runs if not r.diverged]
    n_diverged = len(runs) - len(ok)
    means: dict = {}
    variances: dict = {}
    if not ok:
        return means, variances, 0, n_diverged
    tables: dict = {}
    for r in ok:
        for k, v in run_scalars(r).items():
            tables.setdefault(k, []).append(v)
    for k, vals in tables.items():
        arr = np.asarray(vals, dtype=np.float64)
        arr = arr[~np.isnan(arr)]
        if arr.size == 0:
            means[k], variances[k] = np.nan, np.nan
        else:
            means[k] = float(arr.mean())
            variances[k] = float(arr.var(ddof=1)) if arr.size > 1 else 0.0
    return means, variances, len(ok), n_diverged


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
        if isinstance(outcome, DivergenceError):
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
        else:
            results[key] = _test_result(outcome, dataset, split, key.terms(), config, iteration)
    return results


_WORKER_CTX: dict = {}


def _init_worker(source, base_config, plan):
    _WORKER_CTX.clear()
    _WORKER_CTX["source"] = source
    _WORKER_CTX["base_config"] = base_config
    _WORKER_CTX["splits"] = mc_splits(source.n_rows, plan)
    _WORKER_CTX["encoded"] = {}


def _worker_task(task):
    iteration, keys = task
    split = _WORKER_CTX["splits"][iteration]
    encoded = _WORKER_CTX["encoded"]
    if iteration not in encoded:
        if len(encoded) >= 2:  # bound per-worker memory
            encoded.pop(next(iter(encoded)))
        encoded[iteration] = dataset_for_split(_WORKER_CTX["source"], split)
    return iteration, _train_group(encoded[iteration], split, _WORKER_CTX["base_config"], keys,
                                   iteration)


def run_grid(source, base_config: TrainConfig, grid: GridSpec, plan: SplitPlan,
             jobs: int = 1) -> GridResult:
    """Train every grid cell for every Monte Carlo iteration and aggregate.

    ``source`` is a RawTable (re-encoded per split) or a pre-encoded
    EncodedDataset.  One task is one iteration of one (template, variant)
    group, trained in lockstep; tasks are independent, and with jobs > 1
    they execute in a process pool.  Aggregation is deterministic in the
    task identity rather than completion order.
    """
    iterations = plan.iterations if grid.iterations is None else grid.iterations
    if iterations < 1 or iterations > plan.iterations:
        raise ConfigError(
            f"grid iterations {iterations} out of range for plan with {plan.iterations}"
        )
    keys = list(grid.cells())
    groups: dict = {}
    for key in keys:
        groups.setdefault((key.measures, key.variant), []).append(key)
    # iteration-major order so one encoding serves consecutive tasks
    tasks = [(it, group) for it in range(iterations) for group in groups.values()]

    results: dict = {}
    if jobs > 1:
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=_init_worker, initargs=(source, base_config, plan)
        ) as pool:
            for it, group_results in pool.map(_worker_task, tasks, chunksize=1):
                for key, result in group_results.items():
                    results[(key, it)] = result
    else:
        splits = mc_splits(source.n_rows, plan)
        for it in range(iterations):
            dataset = dataset_for_split(source, splits[it])
            for group in groups.values():
                for key, result in _train_group(dataset, splits[it], base_config, group,
                                                it).items():
                    results[(key, it)] = result

    cells = []
    for key in sorted(keys, key=lambda k: k.sort_key()):
        runs = tuple(results[(key, it)] for it in range(iterations))
        means, variances, n_ok, n_div = aggregate(runs)
        cells.append(
            CellResult(key=key, runs=runs, means=means, variances=variances,
                       n_success=n_ok, n_diverged=n_div)
        )
    return GridResult(cells=tuple(cells), plan=plan)
