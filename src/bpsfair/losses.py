"""Differentiable soft measures, soft BPS, and the combined training loss.

The training objective is mean binary cross-entropy plus a weighted sum of
fairness penalties.  Each penalty is (1 - soft BPS)^k, where soft BPS is a
min/max ratio of differentiable per-group measure approximations built
from the model's output probabilities.  Everything here is expressed with
respect to those probabilities; gradients are analytic.  The combined
loss also takes the (M, n) outputs of a stack of M models, with one term
tuple per model, and evaluates every model exactly as it would alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ConfigError, InputShapeError, UndefinedMeasureError
from .metrics import MeasureKind

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
    "loss_gradient",
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
    beta = float(parts[4]) if len(parts) == 5 else 1.0
    variant_s = variant_s.strip().lower()
    if variant_s == "continuous" and len(parts) == 5:
        raise ConfigError(f"bad term spec {spec!r}: beta only applies to sigmoided terms")
    variant = SoftVariant(variant_s, beta)
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


def _pos_weight(variant: SoftVariant, probs: np.ndarray) -> np.ndarray:
    if variant.is_sigmoided:
        return _sigmoid(variant.beta * (probs - 0.5))
    return probs


def _pos_weight_grad(variant: SoftVariant, probs: np.ndarray) -> np.ndarray:
    if variant.is_sigmoided:
        s = _sigmoid(variant.beta * (probs - 0.5))
        return variant.beta * s * (1.0 - s)
    return np.ones_like(probs)


# kind -> (conditioning label, True if the positive-side weight is summed)
_RATE_SPEC = {
    MeasureKind.FPR: (0, True),
    MeasureKind.FNR: (1, False),
    MeasureKind.TPR: (1, True),
    MeasureKind.TNR: (0, False),
}


def _masked_sum(w, mask):
    """Row sums of ``w[:, mask]`` for an (M, n) array.

    The gather is made C-contiguous first: each row is then summed with
    numpy's pairwise summation, exactly like a 1-D ``np.sum(w[i][mask])``.
    """
    return np.ascontiguousarray(w[:, mask]).sum(axis=1)


def _measure_and_grad(kind, variant, mode, probs, labels, mask, want_grad):
    """Soft measure of every row of ``probs`` (M, n) over ``mask``.

    Returns the (M,) measures and, optionally, their (M, n) gradients wrt
    probs; entries outside ``mask`` are 0.  Denominators are clamped to
    DENOM_EPS so an empty (group, class) cell yields measure 0 rather
    than a division blowup.
    """
    w_pos = _pos_weight(variant, probs)
    w_pos_g = _pos_weight_grad(variant, probs) if want_grad else None

    if kind in _RATE_SPEC:
        cond_label, use_pos = _RATE_SPEC[kind]
        cond = mask & (labels == cond_label)
        w = w_pos if use_pos else 1.0 - w_pos
        num = _masked_sum(w, cond)
        if mode is DenominatorMode.RATE:
            den = float(np.count_nonzero(cond))
            den_moves = False
        else:
            den = _masked_sum(w, mask)
            den_moves = True
    elif kind is MeasureKind.STP:
        cond = mask
        use_pos = True
        num = _masked_sum(w_pos, mask)
        den = float(np.count_nonzero(mask))
        den_moves = False
    elif kind is MeasureKind.ACC:
        cond = mask
        use_pos = None  # per-sample sign depends on the label
        correct = np.where(labels == 1, w_pos, 1.0 - w_pos)
        num = _masked_sum(correct, mask)
        den = float(np.count_nonzero(mask))
        den_moves = False
    else:
        raise ConfigError(f"unknown measure kind {kind!r}")

    den_c = np.maximum(den, DENOM_EPS)
    m = num / den_c
    if not want_grad:
        return m, None

    grad = np.zeros_like(probs)
    col_den = den_c[:, None] if den_moves else den_c  # per row only when it moves
    if kind is MeasureKind.ACC:
        sign = np.where(labels == 1, 1.0, -1.0)
        grad[:, cond] = sign[cond] * w_pos_g[:, cond] / col_den
        return m, grad

    sign = 1.0 if use_pos else -1.0
    grad[:, cond] = sign * w_pos_g[:, cond] / col_den
    if den_moves:
        # quotient rule: the denominator sums the weight over the whole group
        moved = (num * sign)[:, None] * w_pos_g[:, mask] / (den_c * den_c)[:, None]
        # rows with a vanishing denominator keep the plain term (select, never scale by 0)
        grad[:, mask] -= np.where((den > DENOM_EPS)[:, None], moved, 0.0)
    return m, grad


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
    m, _ = _measure_and_grad(kind, variant, mode, probs[None], labels, mask, want_grad=False)
    return float(m[0])


def _check_vectors(probs, labels, probs_ndims=(1,)):
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim not in probs_ndims or labels.ndim != 1:
        raise InputShapeError(f"probs must have {probs_ndims} dimensions and labels one")
    if probs.shape[-1:] != labels.shape:
        raise InputShapeError(f"probs shape {probs.shape} != labels shape {labels.shape}")
    return probs, labels.astype(np.int64)


def _two_group_masks(groups, n):
    groups = np.asarray(groups)
    if groups.ndim != 1 or groups.size != n:
        raise InputShapeError("groups must be a vector matching probs")
    present = np.unique(groups)
    if present.size != 2:
        raise InputShapeError(f"expected exactly two group values, found {present.tolist()}")
    return groups == present[0], groups == present[1]


def _ratio(m0, m1):
    """min/max ratio of two measures (Python floats); 1 when both are 0."""
    if max(m0, m1) == 0.0:
        return 1.0
    return m0 / m1 if m0 <= m1 else m1 / m0


def _ratio_grad(m0, d0, m1, d1):
    """Per-row gradient of ``_ratio``; ties route the subgradient through group 0."""
    first = m0 <= m1
    lo, hi = np.where(first, m0, m1), np.where(first, m1, m0)
    dlo = np.where(first[:, None], d0, d1)
    dhi = np.where(first[:, None], d1, d0)
    zero = np.where(m1 > m0, m1, m0) == 0.0  # Python's max(m0, m1), NaN included
    hi = np.where(zero, 1.0, hi)  # the ratio is the constant 1 there
    grad = (dlo * hi[:, None] - lo[:, None] * dhi) / (hi * hi)[:, None]
    return np.where(zero[:, None], 0.0, grad)


def soft_bps(kind, variant, mode, probs, labels, groups) -> float:
    """Soft BPS in [0, 1]: min/max ratio of the two groups' soft measures."""
    kind = MeasureKind(kind)
    mode = DenominatorMode(mode)
    probs, labels = _check_vectors(probs, labels)
    mask0, mask1 = _two_group_masks(groups, probs.size)
    m0, _ = _measure_and_grad(kind, variant, mode, probs[None], labels, mask0, want_grad=False)
    m1, _ = _measure_and_grad(kind, variant, mode, probs[None], labels, mask1, want_grad=False)
    return _ratio(float(m0[0]), float(m1[0]))


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


def _term_cells_present(kind, labels, mask0, mask1):
    """True when both groups have rows in the term's conditioning class."""
    if kind in _RATE_SPEC:
        cond_label, _ = _RATE_SPEC[kind]
        in_class = labels == cond_label
        return bool((mask0 & in_class).any() and (mask1 & in_class).any())
    return bool(mask0.any() and mask1.any())


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
    groups = np.asarray(groups)
    if groups.ndim != 1 or groups.size != labels.size:
        raise InputShapeError("groups must be a vector matching probs")
    present = np.unique(groups)
    if present.size > 2:
        raise InputShapeError(f"training losses support two groups, found {present.tolist()}")
    two_groups = present.size == 2
    if two_groups:
        mask0, mask1 = groups == present[0], groups == present[1]

    bce, grad = _bce(probs, labels, want_grad)
    bce = bce.tolist()
    totals = list(bce)
    per_term = [[] for _ in term_sets]
    for column in _term_columns(term_sets):
        kind, variant = column[0].kind, column[0].variant
        if not (two_groups and _term_cells_present(kind, labels, mask0, mask1)):
            # an empty (group, class) cell would make the ratio meaningless
            for term_values, term in zip(per_term, column):
                term_values.append(TermValue(term=term, soft_bps=1.0, term_loss=0.0,
                                             skipped=True))
            continue
        m0, d0 = _measure_and_grad(kind, variant, mode, probs, labels, mask0, want_grad)
        m1, d1 = _measure_and_grad(kind, variant, mode, probs, labels, mask1, want_grad)
        weights = []  # (row, d total / d ratio) of the terms that train
        for i, (term, r) in enumerate(zip(column, map(_ratio, m0.tolist(), m1.tolist()))):
            loss = (1.0 - r) ** term.power
            if term.alpha != 0.0:  # zero-weight terms must leave BCE bit-identical
                totals[i] += term.alpha * loss
                weights.append((i, term.alpha * term.power * (1.0 - r) ** (term.power - 1)))
            per_term[i].append(TermValue(term=term, soft_bps=r, term_loss=loss))
        if want_grad and weights:
            dr = _ratio_grad(m0, d0, m1, d1)
            rows, coef = (np.array(v) for v in zip(*weights))
            if rows.size == len(term_sets):
                grad += coef[:, None] * -dr
            else:
                grad[rows] += coef[:, None] * -dr[rows]
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


def loss_gradient(terms: Sequence[FairnessTerm], probs, labels, groups,
                  mode: DenominatorMode = DenominatorMode.AS_WRITTEN) -> np.ndarray:
    """Analytic d(total)/d(prob_i) of the combined loss, shaped like ``probs``."""
    _, grad = _evaluate(terms, probs, labels, groups, mode, want_grad=True)
    return grad


def combined_loss_and_gradient(terms, probs, labels, groups,
                               mode: DenominatorMode = DenominatorMode.AS_WRITTEN):
    """Single-pass (LossValue, gradient) evaluation used by the training loop.

    Stacked (M, n) probabilities give (tuple of M LossValues, (M, n) gradient).
    """
    return _evaluate(terms, probs, labels, groups, mode, want_grad=True)
