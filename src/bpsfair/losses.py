"""Differentiable soft measures, soft BPS, and the combined training loss.

The training objective is mean binary cross-entropy plus a weighted sum of
fairness penalties.  Each penalty is (1 - soft BPS)^k, where soft BPS is a
min/max ratio of differentiable per-group measure approximations: the
measure spec of ``metrics`` evaluated on tables of soft weights of the
model's output probabilities.  Everything here is expressed with respect
to those probabilities; gradients are analytic.  The combined
loss also takes the (M, n) outputs of a stack of M models, with one term
tuple per model, and evaluates every model exactly as it would alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ConfigError, InputShapeError, UndefinedMeasureError
from .fields import NON_NEGATIVE, POSITIVE, POSITIVE_INT, typed
from .metrics import MeasureKind, _as_binary_vector, measure_coefficients, measure_parts

__all__ = [
    "SoftVariant",
    "DenominatorMode",
    "FairnessTerm",
    "TermValue",
    "LossValue",
    "parse_term",
    "soft_measure",
    "soft_bps",
    "combined_loss",
    "binary_cross_entropy",
]

# Guards against empty (group, class) cells in a minibatch.
DENOM_EPS = 1e-7
BCE_EPS = 1e-7


@dataclass(frozen=True)
class SoftVariant:
    """How output probabilities are turned into soft per-sample weights.

    ``continuous`` uses the raw probability.  ``sigmoided`` sharpens it
    with S(beta * (prob - 0.5)), pushing weights toward 0/1 so the soft
    measure tracks the thresholded one more closely.
    """

    name: str
    beta: float = 1.0

    def __post_init__(self):
        if self.name not in ("continuous", "sigmoided"):
            raise ConfigError(f"unknown soft variant {self.name!r}")
        object.__setattr__(self, "beta", typed(POSITIVE, self.beta, "beta"))
        if self.name == "continuous" and self.beta != 1.0:
            raise ConfigError(f"beta only applies to sigmoided weights, got {self.beta:g}")

    @classmethod
    def continuous(cls) -> "SoftVariant":
        return cls("continuous")

    @classmethod
    def sigmoided(cls, beta: float = 1.0) -> "SoftVariant":
        return cls("sigmoided", beta)

    @property
    def is_sigmoided(self) -> bool:
        return self.name == "sigmoided"

    def __str__(self) -> str:
        if self.is_sigmoided and self.beta != 1.0:
            return f"sigmoided({self.beta:g})"
        return self.name


class DenominatorMode(str, Enum):
    """Normalization used by the four rate-style soft measures.

    AS_WRITTEN sums the same soft weight over the whole group, so the
    denominator itself moves with the outputs.  RATE divides by the size
    of the conditioning class instead, which makes the soft measure
    converge to the hard rate as outputs saturate.  STP and ACC average
    over the whole group under either mode.
    """

    AS_WRITTEN = "as_written"
    RATE = "rate"


@dataclass(frozen=True)
class FairnessTerm:
    """One fairness regularization term: measure, variant, weight, power."""

    kind: MeasureKind
    variant: SoftVariant
    alpha: float
    power: int = 1

    def __post_init__(self):
        object.__setattr__(self, "alpha", typed(NON_NEGATIVE, self.alpha, "alpha"))
        object.__setattr__(self, "power", typed(POSITIVE_INT, self.power, "power"))

    def __str__(self) -> str:
        base = f"{self.kind.value}:{self.variant.name}:{self.alpha:g}:{self.power}"
        if self.variant.is_sigmoided and self.variant.beta != 1.0:
            base += f":{self.variant.beta:g}"
        return base


def parse_term(spec: str) -> FairnessTerm:
    """Parse a ``loss.terms`` entry, a ``measure:variant:alpha:power[:beta]`` string.

    Example: ``FPR:sigmoided:0.05:4`` or ``STP:continuous:0.8:4``.
    """
    parts = spec.strip().split(":")
    if len(parts) not in (4, 5):
        raise ConfigError(f"bad term spec {spec!r}: expected measure:variant:alpha:power[:beta]")
    kind_s, variant_s, alpha_s, power_s = parts[:4]
    try:
        kind = MeasureKind(kind_s.strip().upper())
    except ValueError:
        raise ConfigError(f"bad term spec {spec!r}: unknown measure {kind_s!r}")
    key = f"loss.terms {spec!r}"
    beta = typed(POSITIVE, parts[4], f"{key} beta") if len(parts) == 5 else 1.0
    return FairnessTerm(kind=kind, variant=SoftVariant(variant_s.strip().lower(), beta),
                        alpha=typed(NON_NEGATIVE, alpha_s, f"{key} alpha"),
                        power=typed(POSITIVE_INT, power_s, f"{key} power"))


@dataclass(frozen=True)
class TermValue:
    """Evaluated contribution of one fairness term."""

    term: FairnessTerm
    soft_bps: float
    term_loss: float
    skipped: bool = False


@dataclass(frozen=True)
class LossValue:
    """Combined objective breakdown: total = bce + sum(alpha_i * term_loss_i)."""

    total: float
    bce: float
    per_term: tuple[TermValue, ...]


def _sigmoid(x):
    # tanh form stays finite for arbitrarily large |x|
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x, dtype=np.float64)))


def _weights(variant: SoftVariant, probs: np.ndarray, want_grad: bool):
    """Positive-side soft weights w(prob) and, when sigmoided and wanted, w'(prob).

    The continuous weight is the probability itself: its w' is 1, returned
    as None so no multiply by ones is spent.
    """
    if not variant.is_sigmoided:
        return probs, None
    s = _sigmoid(variant.beta * (probs - 0.5))
    return s, (variant.beta * s * (1.0 - s) if want_grad else None)


def _tables(w, cell, counts):
    """(M, G, 2, 2) tables of (M, n) weights: P[g, y] sums w per cell, N counts rows.

    ``cell`` is each row's cell 2*group + label and ``counts`` the (G, 2)
    row counts N; every model's cells are summed in row order.
    """
    models, cells = w.shape[0], counts.size
    index = cell + cells * np.arange(models)[:, None]
    sums = np.bincount(index.ravel(), weights=w.ravel(), minlength=models * cells)
    tables = np.empty((models,) + counts.shape + (2,))
    tables[:, :, 0] = sums.reshape(models, *counts.shape)
    tables[:, :, 1] = counts
    return tables


def _counts(cell, n_groups):
    return np.bincount(cell, minlength=2 * n_groups).reshape(n_groups, 2)


def _measure(kind, mode, tables, want_grad):
    """Soft measures of (..., 2, 2) tables and, optionally, d measure / d P[y].

    Denominators are clamped to DENOM_EPS so an empty (group, class) cell
    yields measure 0 rather than a division blowup; a clamped denominator
    is held constant in the gradient.
    """
    coef = measure_coefficients(kind, mode is DenominatorMode.AS_WRITTEN)
    parts = measure_parts(coef, tables)
    num, den = parts[..., 0], parts[..., 1]
    den_c = np.maximum(den, DENOM_EPS)
    m = num / den_c
    if not want_grad:
        return m, None
    # quotient rule; select, never scale by 0, where the denominator is clamped
    moving = np.where(den > DENOM_EPS, m, 0.0)
    return m, (coef[0, 0] - coef[1, 0] * moving[..., None]) / den_c[..., None]


def soft_measure(kind, variant, mode, probs, labels, group_mask) -> float:
    """Differentiable approximation of one hard measure over one group."""
    kind = MeasureKind(kind)
    mode = DenominatorMode(mode)
    probs, labels = _check_vectors(probs, labels)
    mask = np.asarray(group_mask, dtype=bool)
    if mask.shape != probs.shape:
        raise InputShapeError(f"group_mask shape {mask.shape} != probs shape {probs.shape}")
    if not mask.any():
        raise UndefinedMeasureError(kind.value, None, f"soft {kind.value}: empty group selection")
    w, _ = _weights(variant, probs[None, mask], want_grad=False)
    cell = labels[mask]
    m, _ = _measure(kind, mode, _tables(w, cell, _counts(cell, 1)), want_grad=False)
    return float(m[0, 0])


def _check_vectors(probs, labels, probs_ndims=(1,)):
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim not in probs_ndims or labels.ndim != 1:
        raise InputShapeError(f"probs must have {probs_ndims} dimensions and labels one")
    if probs.shape[-1:] != labels.shape:
        raise InputShapeError(f"probs shape {probs.shape} != labels shape {labels.shape}")
    return probs, _as_binary_vector("labels", labels)


def _cells(groups, labels):
    """The sorted group values present and each row's cell 2*group + label.

    With two groups present, group index 0/1 is the sorted group value.
    """
    groups = np.asarray(groups)
    if groups.ndim != 1 or groups.size != labels.size:
        raise InputShapeError("groups must be a vector matching probs")
    present = np.unique(groups)
    if present.size != 2:
        return present, labels
    return present, labels + 2 * (groups == present[1])


def _ratio(m, want_grad=False):
    """min/max ratios of (..., 2) measure pairs (1 where both are 0) and, optionally, d ratio /
    d (m0, m1) as (..., 2); ties route the subgradient through group 0."""
    low = m[..., 0] <= m[..., 1]  # group 0 holds the min
    lo, hi = np.where(low, m[..., 0], m[..., 1]), np.where(low, m[..., 1], m[..., 0])
    moving = hi != 0.0  # the ratio is the constant 1 elsewhere
    r = np.divide(lo, hi, out=np.ones_like(hi), where=moving)
    if not want_grad:
        return r, None
    d_lo = np.divide(1.0, hi, out=np.zeros_like(hi), where=moving)
    d_hi = np.divide(-lo, hi * hi, out=np.zeros_like(hi), where=moving)
    return r, np.stack([np.where(low, d_lo, d_hi), np.where(low, d_hi, d_lo)], axis=-1)


def soft_bps(kind, variant, mode, probs, labels, groups) -> float:
    """Soft BPS in [0, 1]: min/max ratio of the two groups' soft measures."""
    kind = MeasureKind(kind)
    mode = DenominatorMode(mode)
    probs, labels = _check_vectors(probs, labels)
    present, cell = _cells(groups, labels)
    if present.size != 2:
        raise InputShapeError(f"expected exactly two group values, found {present.tolist()}")
    w, _ = _weights(variant, probs[None], want_grad=False)
    m, _ = _measure(kind, mode, _tables(w, cell, _counts(cell, 2)), want_grad=False)
    return float(_ratio(m)[0][0])


def _bce(probs, labels, want_grad):
    """Per-row mean BCE of (M, n) probabilities and, optionally, its gradient."""
    n = probs.shape[-1]
    labels = labels.astype(np.float64)  # exact for 0/1; spares mixed-type loops
    p = np.clip(probs, BCE_EPS, 1.0 - BCE_EPS)
    bce = -np.mean(np.log(np.where(labels, p, 1.0 - p)), axis=-1)
    if not want_grad:
        return bce, None
    inside = (probs > BCE_EPS) & (probs < 1.0 - BCE_EPS)
    grad = np.where(inside, (p - labels) / (n * p * (1.0 - p)), 0.0)
    return bce, grad


def binary_cross_entropy(probs, labels, want_grad=False):
    """Mean BCE with probabilities clamped to [BCE_EPS, 1 - BCE_EPS].

    The gradient is zero where the clamp is active.
    """
    probs, labels = _check_vectors(probs, labels)
    bce, grad = _bce(probs[None], labels, want_grad)
    return float(bce[0]), (grad[0] if want_grad else None)


def _term_columns(term_sets):
    """Terms by position across models; each position must share kind and variant."""
    sizes = {len(terms) for terms in term_sets}
    if len(sizes) > 1:
        raise ConfigError(f"stacked models need the same number of terms, got {sorted(sizes)}")
    columns = list(zip(*term_sets))
    for column in columns:
        head = column[0]
        if any(t.kind is not head.kind or (t.variant is not head.variant
                                           and t.variant != head.variant) for t in column):
            raise ConfigError("stacked models' terms must share kind and variant per position")
    return columns


def _evaluate(terms, probs, labels, groups, mode, want_grad):
    """A stack's combined loss as arrays: (stacked, term sets, bce (M,), soft BPS and penalties
    (T, M), skipped (T,), totals (M,), gradient (M, n) or None); 1-D probs are a stack of one."""
    probs, labels = _check_vectors(probs, labels, probs_ndims=(1, 2))
    mode = DenominatorMode(mode)
    stacked = probs.ndim == 2
    if stacked:
        term_sets = [tuple(t) for t in terms]
        if len(term_sets) != probs.shape[0]:
            raise InputShapeError(
                f"{probs.shape[0]} stacked models need as many term tuples, got {len(term_sets)}")
    else:
        term_sets = [tuple(terms)]
        probs = probs[None]
    present, cell = _cells(groups, labels)
    if present.size > 2:
        raise InputShapeError(f"training losses support two groups, found {present.tolist()}")
    counts = _counts(cell, 2) if present.size == 2 else None

    columns = _term_columns(term_sets)
    models = len(term_sets)
    bce, grad = _bce(probs, labels, want_grad)
    totals = bce.copy()
    bps, penalties = np.ones((len(columns), models)), np.zeros((len(columns), models))
    skipped = [True] * len(columns)
    trains = np.zeros(models, dtype=bool)  # rows with a term of nonzero weight
    by_variant = {}  # variant -> (tables, w'(probs) or None, d total / d P)
    for t, column in enumerate(columns):
        kind, variant = column[0].kind, column[0].variant
        # both groups need rows in the term's conditioning class, which the
        # fixed denominator counts; otherwise the ratio would be meaningless
        if counts is None or not (counts @ measure_coefficients(kind)[1, 1]).all():
            continue
        skipped[t] = False
        if variant not in by_variant:
            w, dw = _weights(variant, probs, want_grad)
            by_variant[variant] = (_tables(w, cell, counts), dw, np.zeros((models, 2, 2)))
        tables, _, d_total = by_variant[variant]
        m, dm = _measure(kind, mode, tables, want_grad)
        bps[t], dr = _ratio(m, want_grad)
        alphas, powers = np.array([term.alpha for term in column]), [term.power for term in column]
        base = (1.0 - bps[t]).tolist()  # Python scalar pows: np.power can differ in the last bit
        penalties[t] = [b ** k for b, k in zip(base, powers)]
        weighted = alphas != 0.0  # zero-weight terms must leave BCE bit-identical
        np.add(totals, alphas * penalties[t], out=totals, where=weighted)
        trains |= weighted
        if want_grad:
            slope = (-alphas * powers) * [b ** (k - 1) for b, k in zip(base, powers)]
            np.add(d_total, (slope[:, None] * dr)[..., None] * dm, out=d_total,
                   where=weighted[:, None, None])
    if want_grad and trains.any():
        for _, dw, d_total in by_variant.values():
            # the per-sample gradient is a gather: d total / d P[g_i, y_i] * w'(prob_i)
            step = d_total.reshape(models, 4)[:, cell]
            if dw is not None:
                step *= dw
            # rows whose terms all have zero weight are left out, never added as 0
            np.add(grad, step, out=grad, where=trains[:, None])
    return stacked, term_sets, bce, bps, penalties, skipped, totals, grad


def combined_loss(terms: Sequence[FairnessTerm], probs, labels, groups,
                  mode: DenominatorMode = DenominatorMode.AS_WRITTEN) -> LossValue:
    """BCE plus weighted fairness penalties over one batch.

    Terms whose (group, class) cell is empty in this batch (or with fewer
    than two groups present) contribute zero and are marked ``skipped``;
    with an empty term list the result is exactly the BCE.

    With (M, n) probabilities from a stack of models, ``terms`` holds one
    term tuple per model and the result is a tuple of M LossValues.  The
    tuples must match in length, kind and variant position by position;
    alpha and power may differ.
    """
    stacked, term_sets, bce, bps, penalties, skipped, totals, _ = _evaluate(
        terms, probs, labels, groups, mode, want_grad=False)
    rows = zip(totals.tolist(), bce.tolist(), term_sets, bps.T.tolist(), penalties.T.tolist())
    values = tuple(LossValue(total, b, tuple(map(TermValue, model_terms, soft, loss, skipped)))
                   for total, b, model_terms, soft, loss in rows)
    return values if stacked else values[0]


def combined_loss_and_gradient(terms, probs, labels, groups,
                               mode: DenominatorMode = DenominatorMode.AS_WRITTEN):
    """Single-pass (total, gradient) evaluation used by the training loop.

    Stacked (M, n) probabilities give ((M,) totals, (M, n) gradient); no
    LossValue is built.
    """
    stacked, *_, totals, grad = _evaluate(terms, probs, labels, groups, mode, want_grad=True)
    return (totals, grad) if stacked else (float(totals[0]), grad[0])
