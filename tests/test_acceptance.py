"""Acceptance suite: one test per criterion, one printed PASS line each.

Criteria 1-4 need the combined UCI Adult Income CSV.  Its location is
taken from $BPSFAIR_ADULT_CSV or data/adult.csv under the repository
root; without the file those tests skip (scripts/fetch_adult.py
assembles it on a machine with network access).  Everything else runs
self-contained.  $BPSFAIR_JOBS controls training parallelism, read with
the CLI's rule when a grid runs: a malformed value fails only the grid
criteria, with the CLI's ConfigError.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from bpsfair.cli import _jobs
from bpsfair.data import SplitPlan, adult_preset, load_csv, mc_splits, synthesize_biased
from bpsfair.engine import GridSpec, TrainConfig, dataset_for_split, run_grid, train_model
from bpsfair.errors import UndefinedMeasureError
from bpsfair.losses import (
    DenominatorMode,
    FairnessTerm,
    SoftVariant,
    combined_loss,
    combined_loss_and_gradient,
    soft_measure,
)
from bpsfair.metrics import MeasureKind, bps_binary, bps_report, confusion, hard_measure
from bpsfair.network import NetworkConfig, serialize

REPO = Path(__file__).resolve().parents[1]

ARCH1 = ((108, "relu"), (108, "relu"))
ARCH2 = ((108, "leaky_relu"), (324, "leaky_relu"))
CONT = SoftVariant.continuous()


def _adult_path():
    env = os.environ.get("BPSFAIR_ADULT_CSV")
    if env and Path(env).exists():
        return Path(env)
    local = REPO / "data" / "adult.csv"
    return local if local.exists() else None


ADULT_PATH = _adult_path()
needs_adult = pytest.mark.skipif(
    ADULT_PATH is None,
    reason="combined UCI Adult CSV not found; set BPSFAIR_ADULT_CSV or run "
           "scripts/fetch_adult.py (needs network) to create data/adult.csv",
)


def ok(criterion, detail):
    print(f"ACCEPTANCE criterion {criterion}: PASS ({detail})")


# ---------------------------------------------------------------------------
# Adult experiments (criteria 1-4), cached so criteria share grid runs
# ---------------------------------------------------------------------------

_adult_cache = {}


def adult_table():
    if "table" not in _adult_cache:
        _adult_cache["table"] = load_csv(ADULT_PATH, adult_preset())
    return _adult_cache["table"]


def adult_plan():
    return SplitPlan(iterations=10, train_fraction=0.70, val_fraction=0.10, base_seed=2024)


def adult_base(hidden, mode=DenominatorMode.AS_WRITTEN):
    return TrainConfig(
        network=NetworkConfig(input_dim=1, hidden=hidden, dropout_rate=0.10,
                              use_batch_norm=True, seed=0),
        batch_size=256,
        epochs=100,
        lr=0.001,
        seed=7,
        denominator_mode=mode,
    )


def adult_grid(tag, hidden, grid, mode=DenominatorMode.AS_WRITTEN):
    if tag not in _adult_cache:
        _adult_cache[tag] = run_grid(
            adult_table(), adult_base(hidden, mode), grid, adult_plan(), jobs=_jobs(None)
        )
    return _adult_cache[tag]


def arch1_stp():
    grid = GridSpec(templates=[[("STP", 1.0)]], variants=[CONT], powers=[4],
                    alphas=[0.0, 0.8])
    return adult_grid("arch1_stp", ARCH1, grid)


def arch2_stp():
    grid = GridSpec(templates=[[("STP", 1.0)]], variants=[CONT], powers=[4],
                    alphas=[0.0, 0.84])
    return adult_grid("arch2_stp", ARCH2, grid)


@needs_adult
def test_criterion_1_adult_baseline():
    """Architecture 1 without regularization: accuracy 84.5 +/- 1.5, pRule 34 +/- 6."""
    cell = arch1_stp().cell(alpha=0.0)
    acc = 100.0 * cell.means["accuracy"]
    prule = cell.means["bps_stp"]
    line = f"baseline accuracy {acc:.2f}% (target 84.5+/-1.5), pRule {prule:.1f} (target 34+/-6)"
    assert abs(acc - 84.5) <= 1.5, line
    assert abs(prule - 34.0) <= 6.0, line
    ok(1, line)


@needs_adult
def test_criterion_2_adult_stp_debiasing_arch1():
    """STP continuous loss, k=4, alpha=0.8: mean pRule >= 97 at accuracy >= 80.5%."""
    cell = arch1_stp().cell(alpha=0.8)
    acc = 100.0 * cell.means["accuracy"]
    prule = cell.means["bps_stp"]
    line = f"arch 1 debiased pRule {prule:.2f} (>=97), accuracy {acc:.2f}% (>=80.5)"
    assert prule >= 97.0, line
    assert acc >= 80.5, line
    ok(2, line)


@needs_adult
def test_criterion_3_adult_stp_debiasing_arch2():
    """Leaky-ReLU 108/324 net, k=4, alpha=0.84: mean pRule >= 98 at accuracy >= 81%."""
    cell = arch2_stp().cell(alpha=0.84)
    acc = 100.0 * cell.means["accuracy"]
    prule = cell.means["bps_stp"]
    line = f"arch 2 debiased pRule {prule:.2f} (>=98), accuracy {acc:.2f}% (>=81)"
    assert prule >= 98.0, line
    assert acc >= 81.0, line
    ok(3, line)


@needs_adult
def test_criterion_4_adult_fpr_fnr_equalization():
    """Sigmoided FPR+FNR losses equalize error rates at low absolute FPR.

    The sigmoid needs a sharpness well above 1 to separate the two sides
    of the threshold, and the rate-style denominator ties the soft
    measure to the hard rate it regularizes; beta=10 with RATE mode is
    the committed configuration for both architectures.
    """
    sig = SoftVariant.sigmoided(10.0)
    g1 = GridSpec(templates=[[("FPR", 1.0), ("FNR", 1.0)]], variants=[sig], powers=[4],
                  alphas=[0.05])
    arch1 = adult_grid("arch1_fprfnr", ARCH1, g1, mode=DenominatorMode.RATE).cells[0]
    g2 = GridSpec(templates=[[("FPR", 1.0), ("FNR", 1.25)]], variants=[sig], powers=[3],
                  alphas=[0.1])
    arch2 = adult_grid("arch2_fprfnr", ARCH2, g2, mode=DenominatorMode.RATE).cells[0]

    line1 = (f"arch 1 BPS_FPR {arch1.means['bps_fpr']:.1f} (>=88), "
             f"BPS_FNR {arch1.means['bps_fnr']:.1f} (>=80)")
    assert arch1.means["bps_fpr"] >= 88.0, line1
    assert arch1.means["bps_fnr"] >= 80.0, line1
    line2 = f"arch 2 BPS_FNR {arch2.means['bps_fnr']:.1f} (>=93)"
    assert arch2.means["bps_fnr"] >= 93.0, line2
    for cell, tag in ((arch1, "arch 1"), (arch2, "arch 2")):
        fprs = (cell.means["fpr_g0"], cell.means["fpr_g1"])
        assert max(fprs) <= 0.10, f"{tag} absolute FPR {fprs} exceeds 0.10"
    ok(4, f"{line1}; {line2}; absolute FPR within 0.10 for both groups")


@needs_adult
def test_adult_file_integrity():
    """The combined Adult file retains 45,222 rows after dropping '?' rows."""
    import csv as _csv

    # independent text-processing recount, no pipeline code involved
    with open(ADULT_PATH, newline="", encoding="utf-8") as fh:
        reader = _csv.reader(fh)
        header = next(reader)
        kept = sum(
            1 for row in reader
            if row and not any(cell.strip() == "?" for cell in row)
        )
    table = adult_table()
    assert table.n_rows == kept
    assert table.n_rows == 45_222
    ok("1 (data)", f"Adult retains {table.n_rows} rows after missing-value filtering")


# ---------------------------------------------------------------------------
# Synthetic directional reproductions (criteria 5-6)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def synth_setup():
    table = synthesize_biased(n=6000, base_rate_g0=0.34, base_rate_g1=0.46,
                              group_fraction=0.5, feature_dim=6, noise=1.0, seed=2024)
    plan = SplitPlan(iterations=8, train_fraction=0.7, val_fraction=0.1, base_seed=2024)
    base = TrainConfig(
        network=NetworkConfig(input_dim=6, hidden=((16, "relu"), (16, "relu")), seed=0),
        batch_size=128,
        epochs=30,
        lr=0.005,
        seed=7,
        denominator_mode=DenominatorMode.RATE,
    )
    return table, base, plan


def test_criterion_5_synthetic_fnr_curve(synth_setup):
    """At alpha=0.3 the FNR parity score jumps while accuracy barely moves."""
    table, base, plan = synth_setup
    grid = GridSpec(templates=[[("FNR", 1.0)]], variants=[CONT], powers=[1],
                    alphas=[0.0, 0.3])
    result = run_grid(table, base, grid, plan, jobs=_jobs(None))
    baseline = result.cell(alpha=0.0)
    regularized = result.cell(alpha=0.3)
    gain = regularized.means["bps_fnr"] - baseline.means["bps_fnr"]
    acc_drop = 100.0 * (baseline.means["accuracy"] - regularized.means["accuracy"])
    line = f"BPS_FNR {baseline.means['bps_fnr']:.1f} -> {regularized.means['bps_fnr']:.1f} " \
           f"(gain {gain:+.1f} >= 5), accuracy drop {acc_drop:.2f} points (<= 2)"
    assert gain >= 5.0, line
    assert acc_drop <= 2.0, line
    ok(5, line)


def first_decoupling_alpha(cells):
    """Smallest alpha where the loss improves but the hard score does not."""
    cells = sorted(cells, key=lambda c: c.key.alpha)
    for prev, cur in zip(cells, cells[1:]):
        if (cur.means["term0_loss"] < prev.means["term0_loss"]
                and cur.means["bps_fpr"] <= prev.means["bps_fpr"]):
            return cur.key.alpha
    return None


def test_criterion_6_decoupling_later_at_higher_power(synth_setup):
    """FPR loss decouples from the hard score; power 3 delays the onset."""
    table, base, plan = synth_setup
    grid = GridSpec(
        templates=[[("FPR", 1.0)]],
        variants=[CONT],
        powers=[1, 3],
        alphas=[round(0.1 * i, 1) for i in range(11)],
    )
    result = run_grid(table, base, grid, plan, jobs=_jobs(None))
    by_power = {
        k: [c for c in result.cells if c.key.power == k] for k in (1, 3)
    }
    alpha_k1 = first_decoupling_alpha(by_power[1])
    alpha_k3 = first_decoupling_alpha(by_power[3])
    line = f"first decoupling alpha: k=1 at {alpha_k1}, k=3 at {alpha_k3}"
    assert alpha_k1 is not None, line
    assert alpha_k3 is None or alpha_k3 > alpha_k1, line
    ok(6, line)


# ---------------------------------------------------------------------------
# Gradient correctness (criterion 7)
# ---------------------------------------------------------------------------


def test_criterion_7_full_objective_gradients():
    """BCE plus every (kind, variant, mode) combination matches finite differences."""
    rng = np.random.default_rng(7_000)
    variants = [CONT, SoftVariant.sigmoided(), SoftVariant.sigmoided(7.0)]
    modes = [DenominatorMode.AS_WRITTEN, DenominatorMode.RATE]
    checked = 0
    worst = 0.0
    for kind in MeasureKind:
        for variant in variants:
            for mode in modes:
                probs = rng.uniform(0.05, 0.95, 16)
                labels = rng.integers(0, 2, 16)
                groups = rng.integers(0, 2, 16)
                labels[:4], groups[:4] = [0, 1, 0, 1], [0, 0, 1, 1]
                labels[4:8], groups[4:8] = [1, 0, 1, 0], [0, 0, 1, 1]
                terms = [FairnessTerm(kind, variant, alpha=0.6, power=int(rng.integers(1, 5)))]
                analytic = combined_loss_and_gradient(terms, probs, labels, groups, mode)[1]
                numeric = np.zeros_like(probs)
                h = 1e-5
                for i in range(probs.size):
                    up, down = probs.copy(), probs.copy()
                    up[i] += h
                    down[i] -= h
                    numeric[i] = (
                        combined_loss(terms, up, labels, groups, mode).total
                        - combined_loss(terms, down, labels, groups, mode).total
                    ) / (2 * h)
                np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)
                worst = max(worst, float(np.max(np.abs(analytic - numeric))))
                checked += 1
    ok(7, f"{checked} kind/variant/mode combinations, max abs deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# Metric oracle equivalence (criterion 8)
# ---------------------------------------------------------------------------


def brute_force_bps(preds, labels, groups):
    counts = {}
    for p, y, g in zip(preds, labels, groups):
        c = counts.setdefault(g, [0, 0, 0, 0])  # tp, fp, tn, fn
        if p == 1 and y == 1:
            c[0] += 1
        elif p == 1 and y == 0:
            c[1] += 1
        elif p == 0 and y == 0:
            c[2] += 1
        else:
            c[3] += 1

    def rate(c, kind):
        tp, fp, tn, fn = c
        pairs = {
            "FPR": (fp, fp + tn), "FNR": (fn, fn + tp), "TPR": (tp, tp + fn),
            "TNR": (tn, tn + fp), "ACC": (tp + tn, tp + fp + tn + fn),
            "STP": (tp + fp, tp + fp + tn + fn),
        }
        num, den = pairs[kind]
        return None if den == 0 else num / den

    out = {}
    for kind in ("FPR", "FNR", "TPR", "TNR", "ACC", "STP"):
        values = {g: rate(c, kind) for g, c in counts.items()}
        if any(v is None for v in values.values()) or len(values) != 2:
            out[kind] = (values, None)
            continue
        v0, v1 = (values[g] for g in sorted(values))
        hi = max(v0, v1)
        bps = 100.0 if hi == 0 else 100.0 * min(v0, v1) / hi
        out[kind] = (values, bps)
    return out


def test_criterion_8_metric_oracle_equivalence():
    """1000 random dumps match a per-sample recount; saturated RATE soft == hard."""
    rng = np.random.default_rng(8_000)
    for _ in range(1000):
        n = int(rng.integers(10, 120))
        preds = rng.integers(0, 2, n)
        labels = rng.integers(0, 2, n)
        groups = rng.integers(0, 2, n)
        report = bps_report(preds, labels, groups)
        oracle = brute_force_bps(preds, labels, groups)
        for kind in MeasureKind:
            values, bps = oracle[kind.value]
            entry = report[kind]
            for g, v in values.items():
                assert entry.group_values[g] == v
            if bps is not None and not entry.flagged and len(values) == 2:
                assert entry.bps == bps

    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(8, 60))
        preds = rng.integers(0, 2, n)
        labels = rng.integers(0, 2, n)
        (c,) = confusion(preds, labels, np.zeros(n, dtype=int))
        for kind in MeasureKind:
            try:
                hard = hard_measure(kind, c)
            except UndefinedMeasureError:
                continue
            soft = soft_measure(kind, CONT, DenominatorMode.RATE,
                                preds.astype(float), labels, np.ones(n, dtype=bool))
            worst = max(worst, abs(soft - hard))
    assert worst <= 1e-9
    ok(8, f"1000 dumps recounted exactly; saturated soft/hard gap {worst:.1e} <= 1e-9")


# ---------------------------------------------------------------------------
# Reduction identity (criterion 9)
# ---------------------------------------------------------------------------


def test_criterion_9_zero_weight_reduction_identity():
    """Training with all-zero fairness weights is bit-identical to BCE-only."""
    table = synthesize_biased(n=800, base_rate_g0=0.35, base_rate_g1=0.5,
                              feature_dim=4, noise=0.8, seed=99)
    plan = SplitPlan(iterations=1, train_fraction=0.7, val_fraction=0.1, base_seed=99)
    split = mc_splits(table.n_rows, plan)[0]
    dataset = dataset_for_split(table, split)
    network = NetworkConfig(input_dim=dataset.X.shape[1], hidden=((12, "relu"),),
                            dropout_rate=0.1, use_batch_norm=True, seed=3)
    zero_terms = tuple(
        FairnessTerm(kind, CONT, alpha=0.0, power=2) for kind in MeasureKind
    )
    common = dict(batch_size=64, epochs=10, lr=0.005, seed=41)
    state_bce, run_bce = train_model(
        dataset, split, TrainConfig(network=network, terms=(), **common)
    )
    state_zero, run_zero = train_model(
        dataset, split, TrainConfig(network=network, terms=zero_terms, **common)
    )
    assert serialize(state_bce) == serialize(state_zero)
    assert run_bce.accuracy == run_zero.accuracy
    assert run_bce.bce == run_zero.bce
    ok(9, "final parameters and metrics bit-identical with six zero-weight terms")


# ---------------------------------------------------------------------------
# Formula golden values (criterion 10)
# ---------------------------------------------------------------------------


def test_criterion_10_formula_golden_values():
    """Published per-group rate pairs reproduce their printed parity scores."""
    first = bps_binary(0.0589, 0.0628)
    second = bps_binary(0.4431, 0.5105)
    assert math.isclose(first, 93.79, abs_tol=0.01)
    assert math.isclose(second, 86.80, abs_tol=0.01)
    ok(10, f"bps(0.0589, 0.0628) = {first:.2f}, bps(0.4431, 0.5105) = {second:.2f}")
