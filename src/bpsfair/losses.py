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
    "fairness_loss",
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
        if self.name == "sigmoided" and self.beta <= 0:
            raise ConfigError(f"sigmoid sharpness must be positive, got {self.beta}")
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
        if self.alpha < 0:
            raise ConfigError(f"term weight must be non-negative, got {self.alpha}")
        if self.power < 1 or int(self.power) != self.power:
            raise ConfigError(f"term power must be an integer >= 1, got {self.power}")

    def __str__(self) -> str:
        base = f"{self.kind.value}:{self.variant.name}:{self.alpha:g}:{self.power}"
        if self.variant.is_sigmoided and self.variant.beta != 1.0:
            base += f":{self.variant.beta:g}"
        return base


def parse_term(spec: str) -> FairnessTerm:
    """Parse a ``measure:variant:alpha:power[:beta]`` term string.

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
    try:
        beta = float(parts[4]) if len(parts) == 5 else 1.0
    except ValueError:
        raise ConfigError(f"bad term spec {spec!r}: beta not numeric")
    variant = SoftVariant(variant_s.strip().lower(), beta)
    try:
        alpha = float(alpha_s)
        power = int(power_s)
    except ValueError:
        raise ConfigError(f"bad term spec {spec!r}: alpha/power not numeric")
    return FairnessTerm(kind=kind, variant=variant, alpha=alpha, power=power)


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


def _ratio(m0, m1):
    """min/max ratio of two measures (Python floats); 1 when both are 0."""
    if max(m0, m1) == 0.0:
        return 1.0
    return m0 / m1 if m0 <= m1 else m1 / m0


def _ratio_grad(m0, m1):
    """d _ratio / d (m0, m1); ties route the subgradient through group 0."""
    if max(m0, m1) == 0.0:
        return 0.0, 0.0  # the ratio is the constant 1 there
    if m0 <= m1:
        return 1.0 / m1, -m0 / (m1 * m1)
    return -m1 / (m0 * m0), 1.0 / m0


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
    return _ratio(*m[0].tolist())


def fairness_loss(term: FairnessTerm, probs, labels, groups,
                  mode: DenominatorMode = DenominatorMode.AS_WRITTEN) -> float:
    """Penalty (1 - soft BPS)^power for one term; 0 iff the groups are soft-equal."""
    r = soft_bps(term.kind, term.variant, mode, probs, labels, groups)
    return (1.0 - r) ** term.power


def _bce(probs, labels, want_grad):
    """Per-row mean BCE of (M, n) probabilities and, optionally, its gradient."""
    n = probs.shape[-1]
    labels = labels.astype(np.float64)  # exact for 0/1; spares mixed-type loops
    p = np.clip(probs, BCE_EPS, 1.0 - BCE_EPS)
    bce = -np.mean(labels * np.log(p) + (1 - labels) * np.log(1.0 - p), axis=-1)
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

    bce, grad = _bce(probs, labels, want_grad)
    bce = bce.tolist()
    totals = list(bce)
    per_term = [[] for _ in term_sets]
    models = len(term_sets)
    trains = np.zeros(models, dtype=bool)  # rows with a term of nonzero weight
    by_variant = {}  # variant -> (tables, w'(probs) or None, d total / d P)
    for column in _term_columns(term_sets):
        kind, variant = column[0].kind, column[0].variant
        # both groups need rows in the term's conditioning class, which the
        # fixed denominator counts; otherwise the ratio would be meaningless
        if counts is None or not (counts @ measure_coefficients(kind)[1, 1]).all():
            for term_values, term in zip(per_term, column):
                term_values.append(TermValue(term=term, soft_bps=1.0, term_loss=0.0,
                                             skipped=True))
            continue
        if variant not in by_variant:
            w, dw = _weights(variant, probs, want_grad)
            by_variant[variant] = (_tables(w, cell, counts), dw, np.zeros((models, 2, 2)))
        tables, _, d_total = by_variant[variant]
        m, dm = _measure(kind, mode, tables, want_grad)
        slopes = []  # per row: d total / d (m0, m1)
        for i, (term, (m0, m1)) in enumerate(zip(column, m.tolist())):
            r = _ratio(m0, m1)
            loss = (1.0 - r) ** term.power
            if term.alpha != 0.0:  # zero-weight terms must leave BCE bit-identical
                totals[i] += term.alpha * loss
                trains[i] = True
                slope = -term.alpha * term.power * (1.0 - r) ** (term.power - 1)
                d0, d1 = _ratio_grad(m0, m1)
                slopes.append((slope * d0, slope * d1))
            else:
                slopes.append((0.0, 0.0))
            per_term[i].append(TermValue(term=term, soft_bps=r, term_loss=loss))
        if want_grad:
            d_total += np.array(slopes)[..., None] * dm
    if want_grad and trains.any():
        for _, dw, d_total in by_variant.values():
            # the per-sample gradient is a gather: d total / d P[g_i, y_i] * w'(prob_i)
            step = d_total.reshape(models, 4)[:, cell]
            if dw is not None:
                step *= dw
            # rows whose terms all have zero weight are left out, never added as 0
            np.add(grad, step, out=grad, where=trains[:, None])
    values = tuple(
        LossValue(total=total, bce=b, per_term=tuple(term_values))
        for total, b, term_values in zip(totals, bce, per_term)
    )
    if not stacked:
        return values[0], (grad[0] if want_grad else None)
    return values, grad


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
    value, _ = _evaluate(terms, probs, labels, groups, mode, want_grad=False)
    return value


def combined_loss_and_gradient(terms, probs, labels, groups,
                               mode: DenominatorMode = DenominatorMode.AS_WRITTEN):
    """Single-pass (LossValue, gradient) evaluation used by the training loop.

    Stacked (M, n) probabilities give (tuple of M LossValues, (M, n) gradient).
    """
    return _evaluate(terms, probs, labels, groups, mode, want_grad=True)
