"""Soft measures, soft BPS, fairness losses, and analytic gradients.

Gradients are checked against central finite differences; soft measures
against straight-loop reimplementations of their defining ratios and,
for RATE mode on saturated outputs, against the hard-metric module.
"""

import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpsfair import losses
from bpsfair.errors import ConfigError, InputShapeError, UndefinedMeasureError
from bpsfair.losses import (
    DenominatorMode,
    FairnessTerm,
    LossValue,
    SoftVariant,
    TermValue,
    binary_cross_entropy,
    combined_loss,
    combined_loss_and_gradient,
    parse_term,
    soft_bps,
    soft_measure,
)
from bpsfair.metrics import MeasureKind, bps_binary, confusion, hard_measure, measure_coefficients

def stable_seed(*parts):
    return zlib.crc32(repr(parts).encode())


CONT = SoftVariant.continuous()
SIG = SoftVariant.sigmoided()
AS_WRITTEN = DenominatorMode.AS_WRITTEN
RATE = DenominatorMode.RATE
ALL_KINDS = list(MeasureKind)


def sigmoid(x):
    return 1.0 / (1.0 + math.exp(-x))


def loop_soft_measure(kind, variant, mode, probs, labels, mask):
    """Pure-Python re-evaluation of the defining sums, one sample at a time."""
    def w_pos(p):
        return sigmoid(variant.beta * (p - 0.5)) if variant.is_sigmoided else p

    num = den = 0.0
    for p, y, m in zip(probs, labels, mask):
        if not m:
            continue
        if kind == MeasureKind.STP:
            num += w_pos(p)
            den += 1.0
        elif kind == MeasureKind.ACC:
            num += w_pos(p) if y == 1 else 1.0 - w_pos(p)
            den += 1.0
        else:
            cond_label = 0 if kind in (MeasureKind.FPR, MeasureKind.TNR) else 1
            weight = w_pos(p) if kind in (MeasureKind.FPR, MeasureKind.TPR) else 1.0 - w_pos(p)
            if y == cond_label:
                num += weight
            if mode == RATE:
                if y == cond_label:
                    den += 1.0
            else:
                den += weight
    return num / max(den, 1e-7)


def random_fixture(rng, n=16, lo=0.05, hi=0.95):
    probs = rng.uniform(lo, hi, n)
    labels = rng.integers(0, 2, n)
    groups = rng.integers(0, 2, n)
    # guarantee every (group, class) cell is populated
    labels[:4] = [0, 1, 0, 1]
    groups[:4] = [0, 0, 1, 1]
    labels[4:8] = [1, 0, 1, 0]
    groups[4:8] = [0, 0, 1, 1]
    return probs, labels, groups


class TestSoftMeasure:
    def test_fpr_as_written_forced_value(self):
        # one group, labels [0, 1]: numerator 0.6, denominator 0.6 + 0.4
        m = soft_measure(MeasureKind.FPR, CONT, AS_WRITTEN, [0.6, 0.4], [0, 1], [True, True])
        assert m == pytest.approx(0.6 / (0.6 + 0.4))

    def test_soft_moves_where_hard_does_not(self):
        labels = [0, 1, 0, 1]
        mask = [True] * 4
        before = soft_measure(MeasureKind.FPR, CONT, AS_WRITTEN, [0.6, 0.8, 0.2, 0.7], labels, mask)
        after = soft_measure(MeasureKind.FPR, CONT, AS_WRITTEN, [0.7, 0.8, 0.2, 0.7], labels, mask)
        assert before != after
        preds_before = (np.array([0.6, 0.8, 0.2, 0.7]) >= 0.5).astype(int)
        preds_after = (np.array([0.7, 0.8, 0.2, 0.7]) >= 0.5).astype(int)
        assert np.array_equal(preds_before, preds_after)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("variant", [CONT, SIG, SoftVariant.sigmoided(7.5)])
    @pytest.mark.parametrize("mode", [AS_WRITTEN, RATE])
    def test_matches_loop_oracle(self, kind, variant, mode):
        rng = np.random.default_rng(stable_seed(kind.value, variant.name, variant.beta, mode.value))
        for _ in range(5):
            probs, labels, _ = random_fixture(rng, n=24)
            mask = rng.random(24) < 0.7
            mask[:8] = True
            got = soft_measure(kind, variant, mode, probs, labels, mask)
            want = loop_soft_measure(kind, variant, mode, probs, labels, mask)
            assert got == pytest.approx(want, rel=1e-12)
            assert 0.0 <= got <= 1.0

    def test_rate_mode_saturated_equals_hard_measure(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            n = int(rng.integers(8, 40))
            preds = rng.integers(0, 2, n)
            labels = rng.integers(0, 2, n)
            probs = preds.astype(float)
            mask = np.ones(n, dtype=bool)
            (c,) = confusion(preds, labels, np.zeros(n, dtype=int))
            for kind in ALL_KINDS:
                try:
                    hard = hard_measure(kind, c)
                except UndefinedMeasureError:
                    continue
                soft = soft_measure(kind, CONT, RATE, probs, labels, mask)
                assert soft == pytest.approx(hard, abs=1e-9)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=40))
    def test_zero_one_weights_equal_hard_measure_exactly(self, rows):
        # one formula: the soft measure on 0/1 weights is the hard measure
        preds, labels = (np.array(col) for col in zip(*rows))
        (c,) = confusion(preds, labels, np.zeros(preds.size, dtype=int))
        mask = np.ones(preds.size, dtype=bool)
        for kind in ALL_KINDS:
            try:
                hard = hard_measure(kind, c)
            except UndefinedMeasureError:
                continue
            assert soft_measure(kind, CONT, RATE, preds.astype(float), labels, mask) == hard

    def test_sigmoided_rate_converges_to_hard_at_large_beta(self):
        rng = np.random.default_rng(103)
        sharp = SoftVariant.sigmoided(50.0)
        for _ in range(50):
            n = 30
            # finite sharpness cannot match the threshold jump at 0.5 itself,
            # so the fixture keeps all probabilities at least 0.2 away from it
            low = rng.uniform(0.05, 0.3, n)
            high = rng.uniform(0.7, 0.95, n)
            probs = np.where(rng.random(n) < 0.5, low, high)
            labels = rng.integers(0, 2, n)
            preds = (probs >= 0.5).astype(int)
            (c,) = confusion(preds, labels, np.zeros(n, dtype=int))
            for kind in ALL_KINDS:
                try:
                    hard = hard_measure(kind, c)
                except UndefinedMeasureError:
                    continue
                soft = soft_measure(kind, sharp, RATE, probs, labels, np.ones(n, dtype=bool))
                assert soft == pytest.approx(hard, abs=1e-3)

    def test_empty_group_selection_raises(self):
        with pytest.raises(UndefinedMeasureError):
            soft_measure(MeasureKind.FPR, CONT, AS_WRITTEN, [0.5], [0], [False])

    def test_empty_cell_is_clamped_not_error(self):
        # group present but no Y=0 rows: numerator 0 over clamped denominator
        m = soft_measure(MeasureKind.FPR, CONT, RATE, [0.9, 0.8], [1, 1], [True, True])
        assert m == 0.0


class TestSoftBps:
    def test_identical_groups_score_one(self):
        probs = [0.7, 0.3, 0.7, 0.3]
        labels = [1, 0, 1, 0]
        groups = [0, 0, 1, 1]
        assert soft_bps(MeasureKind.STP, CONT, AS_WRITTEN, probs, labels, groups) == pytest.approx(1.0)

    def test_forced_ratio(self):
        # group measures 0.3 and 0.6 -> 0.5 (STP is the group mean probability)
        probs = [0.3, 0.3, 0.6, 0.6]
        labels = [0, 1, 0, 1]
        groups = [0, 0, 1, 1]
        assert soft_bps(MeasureKind.STP, CONT, AS_WRITTEN, probs, labels, groups) == pytest.approx(0.5)

    def test_saturated_rate_mode_matches_hard_bps(self):
        rng = np.random.default_rng(107)
        for _ in range(100):
            n = 40
            preds = rng.integers(0, 2, n)
            labels = rng.integers(0, 2, n)
            groups = rng.integers(0, 2, n)
            # make sure every (group, class) cell exists
            labels[:4], groups[:4] = [0, 1, 0, 1], [0, 0, 1, 1]
            preds[:4] = [1, 0, 1, 0]
            parts = {c.group_id: c for c in confusion(preds, labels, groups)}
            for kind in ALL_KINDS:
                try:
                    h0 = hard_measure(kind, parts[0])
                    h1 = hard_measure(kind, parts[1])
                except UndefinedMeasureError:
                    continue
                soft = soft_bps(kind, CONT, RATE, preds.astype(float), labels, groups)
                assert soft * 100.0 == pytest.approx(bps_binary(h0, h1), abs=1e-9)

    def test_group_label_swap_symmetry(self):
        rng = np.random.default_rng(109)
        probs, labels, groups = random_fixture(rng, n=20)
        for kind in ALL_KINDS:
            a = soft_bps(kind, CONT, AS_WRITTEN, probs, labels, groups)
            b = soft_bps(kind, CONT, AS_WRITTEN, probs, labels, 1 - groups)
            assert a == pytest.approx(b, rel=1e-12)

    def test_requires_exactly_two_groups(self):
        with pytest.raises(InputShapeError):
            soft_bps(MeasureKind.STP, CONT, AS_WRITTEN, [0.5, 0.5], [0, 1], [0, 0])


class TestFairnessLoss:
    @staticmethod
    def fairness_loss(term, probs, labels, groups):
        """The term's penalty (1 - soft BPS)^power, as combined_loss reports it."""
        (value,) = combined_loss([term], probs, labels, groups).per_term
        assert not value.skipped
        return value.term_loss

    def test_zero_at_parity(self):
        probs = [0.7, 0.3, 0.7, 0.3]
        labels = [1, 0, 1, 0]
        groups = [0, 0, 1, 1]
        for k in (1, 2, 3, 4):
            term = FairnessTerm(MeasureKind.STP, CONT, alpha=1.0, power=k)
            assert self.fairness_loss(term, probs, labels, groups) == pytest.approx(0.0)

    def test_power_values(self):
        # group STP means 0.4 and 0.5 -> soft bps 0.8
        probs = [0.4, 0.4, 0.5, 0.5]
        labels = [0, 1, 0, 1]
        groups = [0, 0, 1, 1]
        for k, expected in [(1, 0.2), (2, 0.04), (4, 0.0016)]:
            term = FairnessTerm(MeasureKind.STP, CONT, alpha=1.0, power=k)
            assert self.fairness_loss(term, probs, labels, groups) == pytest.approx(expected)

    def test_higher_power_strictly_smaller(self):
        rng = np.random.default_rng(113)
        probs, labels, groups = random_fixture(rng)
        for kind in ALL_KINDS:
            r = soft_bps(kind, CONT, AS_WRITTEN, probs, labels, groups)
            if not 0.0 < 1.0 - r < 1.0:
                continue
            losses = [
                self.fairness_loss(FairnessTerm(kind, CONT, 1.0, k), probs, labels, groups)
                for k in (1, 2, 3, 4)
            ]
            assert all(a > b for a, b in zip(losses, losses[1:]))

    def test_loss_in_unit_interval_and_monotone(self):
        rng = np.random.default_rng(127)
        for _ in range(50):
            probs, labels, groups = random_fixture(rng, n=20)
            term = FairnessTerm(MeasureKind.FNR, CONT, 1.0, 2)
            value = self.fairness_loss(term, probs, labels, groups)
            assert 0.0 <= value <= 1.0


class TestCombinedLoss:
    def test_empty_terms_is_exactly_bce(self):
        rng = np.random.default_rng(131)
        probs, labels, groups = random_fixture(rng)
        value = combined_loss([], probs, labels, groups)
        bce, _ = binary_cross_entropy(probs, labels)
        assert value.total == bce
        assert value.bce == bce
        assert value.per_term == ()

    def test_zero_alpha_total_bit_identical_to_bce(self):
        rng = np.random.default_rng(137)
        probs, labels, groups = random_fixture(rng)
        terms = [FairnessTerm(k, CONT, 0.0, 2) for k in ALL_KINDS]
        value = combined_loss(terms, probs, labels, groups)
        assert value.total == combined_loss([], probs, labels, groups).total

    def test_saturated_probs_reduce_to_fairness_terms(self):
        probs = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0])
        labels = np.array([1, 0, 1, 0, 1, 1, 0, 0])
        groups = np.array([0, 0, 1, 1, 0, 1, 0, 1])
        terms = [FairnessTerm(MeasureKind.STP, CONT, 0.5, 2)]
        value = combined_loss(terms, probs, labels, groups)
        assert value.bce == pytest.approx(0.0, abs=1e-5)
        expected = sum(t.alpha * tv.term_loss for t, tv in zip(terms, value.per_term))
        assert value.total == pytest.approx(expected, abs=1e-5)

    def test_twenty_sample_hand_recomputation(self):
        # spreadsheet-style independent recomputation of every quantity
        rng = np.random.default_rng(139)
        probs, labels, groups = random_fixture(rng, n=20)
        term = FairnessTerm(MeasureKind.FPR, CONT, alpha=0.5, power=1)
        value = combined_loss([term], probs, labels, groups)

        bce_hand = -sum(
            y * math.log(p) + (1 - y) * math.log(1 - p) for p, y in zip(probs, labels)
        ) / len(probs)
        m0 = loop_soft_measure(MeasureKind.FPR, CONT, AS_WRITTEN, probs, labels, groups == 0)
        m1 = loop_soft_measure(MeasureKind.FPR, CONT, AS_WRITTEN, probs, labels, groups == 1)
        ratio = min(m0, m1) / max(m0, m1)
        assert value.bce == pytest.approx(bce_hand, rel=1e-12)
        assert value.per_term[0].soft_bps == pytest.approx(ratio, rel=1e-12)
        assert value.total == pytest.approx(bce_hand + 0.5 * (1.0 - ratio), rel=1e-12)

    def test_total_is_bce_plus_weighted_terms(self):
        rng = np.random.default_rng(149)
        probs, labels, groups = random_fixture(rng, n=30)
        terms = [
            FairnessTerm(MeasureKind.FPR, SIG, 0.05, 4),
            FairnessTerm(MeasureKind.FNR, SIG, 0.05, 4),
        ]
        value = combined_loss(terms, probs, labels, groups)
        recomposed = value.bce + sum(
            t.alpha * tv.term_loss for t, tv in zip(terms, value.per_term)
        )
        assert value.total == pytest.approx(recomposed, rel=1e-12)

    def test_missing_cell_skips_term(self):
        # group 1 has no Y=0 rows: FPR term must contribute nothing
        probs = [0.6, 0.4, 0.7, 0.8]
        labels = [0, 1, 1, 1]
        groups = [0, 0, 1, 1]
        term = FairnessTerm(MeasureKind.FPR, CONT, 1.0, 1)
        value = combined_loss([term], probs, labels, groups)
        assert value.per_term[0].skipped
        assert value.per_term[0].term_loss == 0.0
        assert value.total == value.bce
        grad = combined_loss_and_gradient([term], probs, labels, groups)[1]
        bce_grad = binary_cross_entropy(np.asarray(probs, dtype=float), labels)[1]
        np.testing.assert_array_equal(grad, bce_grad)

    def test_single_group_batch_skips_all_terms(self):
        probs = [0.6, 0.4, 0.3]
        labels = [0, 1, 0]
        groups = [0, 0, 0]
        term = FairnessTerm(MeasureKind.STP, CONT, 1.0, 1)
        value = combined_loss([term], probs, labels, groups)
        assert value.per_term[0].skipped
        assert value.total == value.bce


def fd_gradient(fn, probs, h=1e-5):
    grad = np.zeros_like(probs)
    for i in range(probs.size):
        up, down = probs.copy(), probs.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (fn(up) - fn(down)) / (2 * h)
    return grad


def assert_close_to_fd(analytic, numeric, rel=1e-4, abs_tol=1e-7):
    np.testing.assert_allclose(analytic, numeric, rtol=rel, atol=abs_tol)


class TestLossGradient:
    def test_bce_only_matches_closed_form(self):
        rng = np.random.default_rng(151)
        probs, labels, groups = random_fixture(rng)
        grad = combined_loss_and_gradient([], probs, labels, groups)[1]
        n = probs.size
        expected = (probs - labels) / (n * probs * (1.0 - probs))
        np.testing.assert_allclose(grad, expected, rtol=1e-12)

    def test_public_bce_reads_the_stack_pass(self):
        eps = losses.BCE_EPS
        probs = np.array([0.0, 1.0, eps, 1.0 - eps, eps / 2, 1.0 - eps / 2,
                          np.nextafter(eps, 1.0), 0.3, 0.8, 0.55])
        labels = np.array([0, 1, 1, 0, 1, 0, 0, 1, 0, 1])
        groups = np.array([0, 1] * 5)
        bce, grad = binary_cross_entropy(probs, labels)
        assert isinstance(grad, np.ndarray)
        assert grad.tobytes() == combined_loss_and_gradient((), probs, labels, groups)[1].tobytes()
        assert bce.hex() == combined_loss((), probs, labels, groups).bce.hex()

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("variant", [CONT, SIG])
    @pytest.mark.parametrize("mode", [AS_WRITTEN, RATE])
    def test_single_term_matches_finite_differences(self, kind, variant, mode):
        rng = np.random.default_rng(stable_seed(kind.value, variant.name, mode.value))
        for k in (1, 3):
            probs, labels, groups = random_fixture(rng)
            term = FairnessTerm(kind, variant, alpha=0.7, power=k)
            analytic = combined_loss_and_gradient([term], probs, labels, groups, mode)[1]
            numeric = fd_gradient(
                lambda p: combined_loss([term], p, labels, groups, mode).total, probs
            )
            assert_close_to_fd(analytic, numeric)

    def test_term_mix_matches_finite_differences(self):
        rng = np.random.default_rng(157)
        probs, labels, groups = random_fixture(rng)
        terms = [
            FairnessTerm(MeasureKind.FPR, CONT, 0.3, 2),
            FairnessTerm(MeasureKind.FNR, SIG, 0.4, 1),
            FairnessTerm(MeasureKind.STP, SoftVariant.sigmoided(5.0), 0.25, 4),
            FairnessTerm(MeasureKind.ACC, CONT, 0.2, 3),
        ]
        for mode in (AS_WRITTEN, RATE):
            analytic = combined_loss_and_gradient(terms, probs, labels, groups, mode)[1]
            numeric = fd_gradient(
                lambda p: combined_loss(terms, p, labels, groups, mode).total, probs
            )
            assert_close_to_fd(analytic, numeric)

    def test_hundred_random_points(self):
        rng = np.random.default_rng(163)
        term_pool = [
            FairnessTerm(MeasureKind.FPR, CONT, 0.5, 1),
            FairnessTerm(MeasureKind.TNR, SIG, 0.5, 2),
            FairnessTerm(MeasureKind.STP, CONT, 0.8, 4),
        ]
        for trial in range(100):
            probs, labels, groups = random_fixture(rng, n=12)
            terms = [term_pool[trial % len(term_pool)]]
            mode = AS_WRITTEN if trial % 2 == 0 else RATE
            analytic = combined_loss_and_gradient(terms, probs, labels, groups, mode)[1]
            numeric = fd_gradient(
                lambda p: combined_loss(terms, p, labels, groups, mode).total, probs
            )
            assert_close_to_fd(analytic, numeric)

    def test_stp_gradient_reaches_every_group_member(self):
        # STP conditions on the whole group: even samples with Y=1 get pushed
        probs = np.array([0.6, 0.7, 0.4, 0.52, 0.8, 0.3])
        labels = np.array([1, 1, 0, 1, 0, 0])
        groups = np.array([0, 0, 0, 1, 1, 1])
        term = FairnessTerm(MeasureKind.STP, CONT, 1.0, 1)
        grad_total = combined_loss_and_gradient([term], probs, labels, groups)[1]
        grad_bce = combined_loss_and_gradient([], probs, labels, groups)[1]
        assert not np.allclose(grad_total - grad_bce, 0.0)
        assert np.all(np.abs(grad_total - grad_bce) > 0)

    def test_tie_uses_group0_as_numerator(self):
        # equal group measures: loss value continuous, subgradient via group 0
        probs = np.array([0.4, 0.6, 0.4, 0.6])
        labels = np.array([0, 1, 0, 1])
        groups = np.array([0, 0, 1, 1])
        term = FairnessTerm(MeasureKind.STP, CONT, 1.0, 1)
        grad = combined_loss_and_gradient([term], probs, labels, groups)[1]
        bce = combined_loss_and_gradient([], probs, labels, groups)[1]
        extra = grad - bce
        # r = m0/m1 with m0 = m1 = 0.5: d r/d p = +1/(2 m1) for group 0, -m0/(2 m1^2) for group 1
        assert extra[0] == pytest.approx(-(1.0 / (2 * 0.5)), rel=1e-9)
        assert extra[2] == pytest.approx(0.5 / (2 * 0.25), rel=1e-9)


class TestStackedLoss:
    @pytest.mark.parametrize("mode", [AS_WRITTEN, RATE])
    @pytest.mark.parametrize("kinds", [(MeasureKind.FPR, MeasureKind.FNR),
                                       (MeasureKind.STP,), (MeasureKind.ACC,)])
    def test_rows_equal_single_model_calls(self, kinds, mode):
        rng = np.random.default_rng(stable_seed(kinds, mode))
        probs, labels, groups = random_fixture(rng, n=24)
        stack = np.stack([probs, rng.uniform(0.05, 0.95, 24), probs[::-1].copy()])
        stack[1, :3] = 0.0  # an empty-weight corner for the ratio
        term_sets = [
            tuple(FairnessTerm(k, SIG, alpha, power) for k in kinds)
            for alpha, power in ((0.0, 2), (0.7, 1), (0.3, 3))
        ]
        totals, grad = combined_loss_and_gradient(term_sets, stack, labels, groups, mode)
        values = combined_loss(term_sets, stack, labels, groups, mode)
        for i, terms in enumerate(term_sets):
            alone, alone_grad = combined_loss_and_gradient(terms, stack[i], labels, groups, mode)
            assert totals[i] == alone
            assert values[i] == combined_loss(terms, stack[i], labels, groups, mode)
            np.testing.assert_array_equal(grad[i], alone_grad)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 40),
        kinds=st.lists(st.sampled_from(ALL_KINDS), min_size=0, max_size=3),
        variant=st.sampled_from([CONT, SIG, SoftVariant.sigmoided(6.0)]),
        mode=st.sampled_from([AS_WRITTEN, RATE]),
        weights=st.lists(st.tuples(st.sampled_from([0.0, 0.25, 1.5]), st.integers(1, 4)),
                         min_size=1, max_size=5),
    )
    def test_any_stack_row_equals_its_single_model_call(self, seed, n, kinds, variant, mode,
                                                        weights):
        rng = np.random.default_rng(seed)
        stack = rng.uniform(0.0, 1.0, (len(weights), n))
        labels, groups = rng.integers(0, 2, n), rng.integers(0, 2, n)
        term_sets = [tuple(FairnessTerm(k, variant, alpha, power) for k in kinds)
                     for alpha, power in weights]
        totals, grad = combined_loss_and_gradient(term_sets, stack, labels, groups, mode)
        values = combined_loss(term_sets, stack, labels, groups, mode)
        for i, terms in enumerate(term_sets):
            alone, alone_grad = combined_loss_and_gradient(terms, stack[i], labels, groups, mode)
            assert totals[i] == alone
            assert values[i] == combined_loss(terms, stack[i], labels, groups, mode)
            assert grad[i].tobytes() == alone_grad.tobytes()

    def test_terms_must_line_up(self):
        probs, labels, groups = random_fixture(np.random.default_rng(3))
        stack = np.stack([probs, probs])
        fpr = FairnessTerm(MeasureKind.FPR, CONT, 0.5, 1)
        with pytest.raises(ConfigError):
            combined_loss([(fpr,), (FairnessTerm(MeasureKind.FNR, CONT, 0.5, 1),)],
                          stack, labels, groups)
        with pytest.raises(ConfigError):
            combined_loss([(fpr,), (FairnessTerm(MeasureKind.FPR, SIG, 0.5, 1),)],
                          stack, labels, groups)
        with pytest.raises(InputShapeError):
            combined_loss([(fpr,)], stack, labels, groups)


def loop_ratio(m0, m1):
    """min/max ratio of two measures (Python floats); 1 when both are 0."""
    if max(m0, m1) == 0.0:
        return 1.0
    return m0 / m1 if m0 <= m1 else m1 / m0


def loop_ratio_grad(m0, m1):
    """d loop_ratio / d (m0, m1); ties route the subgradient through group 0."""
    if max(m0, m1) == 0.0:
        return 0.0, 0.0
    if m0 <= m1:
        return 1.0 / m1, -m0 / (m1 * m1)
    return -m1 / (m0 * m0), 1.0 / m0


def loop_bce(probs, labels):
    """Per-row mean BCE and its gradient, as written with a log per label class."""
    n = probs.shape[-1]
    labels = labels.astype(np.float64)
    p = np.clip(probs, losses.BCE_EPS, 1.0 - losses.BCE_EPS)
    bce = -np.mean(labels * np.log(p) + (1 - labels) * np.log(1.0 - p), axis=-1)
    inside = (probs > losses.BCE_EPS) & (probs < 1.0 - losses.BCE_EPS)
    return bce, np.where(inside, (p - labels) / (n * p * (1.0 - p)), 0.0)


def loop_evaluate(terms, probs, labels, groups, mode):
    """The combined loss one model at a time, with one LossValue per model: the oracle
    for the array-valued evaluation."""
    probs, labels = losses._check_vectors(probs, labels, probs_ndims=(1, 2))
    mode = DenominatorMode(mode)
    stacked = probs.ndim == 2
    term_sets = [tuple(t) for t in terms] if stacked else [tuple(terms)]
    probs = probs if stacked else probs[None]
    present, cell = losses._cells(groups, labels)
    counts = losses._counts(cell, 2) if present.size == 2 else None
    bce, grad = loop_bce(probs, labels)
    bce = bce.tolist()
    totals = list(bce)
    per_term = [[] for _ in term_sets]
    models = len(term_sets)
    trains = np.zeros(models, dtype=bool)
    by_variant = {}
    for column in losses._term_columns(term_sets):
        kind, variant = column[0].kind, column[0].variant
        if counts is None or not (counts @ measure_coefficients(kind)[1, 1]).all():
            for term_values, term in zip(per_term, column):
                term_values.append(TermValue(term=term, soft_bps=1.0, term_loss=0.0,
                                             skipped=True))
            continue
        if variant not in by_variant:
            w, dw = losses._weights(variant, probs)
            by_variant[variant] = (losses._tables(w, cell, counts), dw, np.zeros((models, 2, 2)))
        tables, _, d_total = by_variant[variant]
        m, dm = losses._measure(measure_coefficients(kind, mode is AS_WRITTEN), tables)
        slopes = []
        for i, (term, (m0, m1)) in enumerate(zip(column, m.tolist())):
            r = loop_ratio(m0, m1)
            loss = (1.0 - r) ** term.power
            if term.alpha != 0.0:
                totals[i] += term.alpha * loss
                trains[i] = True
                slope = -term.alpha * term.power * (1.0 - r) ** (term.power - 1)
                d0, d1 = loop_ratio_grad(m0, m1)
                slopes.append((slope * d0, slope * d1))
            else:
                slopes.append((0.0, 0.0))
            per_term[i].append(TermValue(term=term, soft_bps=r, term_loss=loss))
        d_total += np.array(slopes)[..., None] * dm
    if trains.any():
        for _, dw, d_total in by_variant.values():
            step = d_total.reshape(models, 4)[:, cell]
            if dw is not None:
                step *= dw
            np.add(grad, step, out=grad, where=trains[:, None])
    values = tuple(LossValue(total=total, bce=b, per_term=tuple(term_values))
                   for total, b, term_values in zip(totals, bce, per_term))
    if not stacked:
        return values[0], grad[0]
    return values, grad


class TestArrayLossMatchesLoop:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        seed=st.integers(0, 2**32 - 1),
        models=st.integers(1, 44),
        n=st.integers(2, 299),
        columns=st.lists(st.tuples(st.sampled_from(ALL_KINDS),
                                   st.sampled_from([CONT, SIG, SoftVariant.sigmoided(10.0)])),
                         max_size=3),
        mode=st.sampled_from([AS_WRITTEN, RATE]),
        saturated=st.sampled_from([0.0, 0.3, 1.0]),
        group_values=st.sampled_from([(0, 1), (0, 3), (3, 3)]),
        mirrored=st.booleans(),
    )
    def test_same_bits_as_the_per_model_loop(self, seed, models, n, columns, mode, saturated,
                                             group_values, mirrored):
        rng = np.random.default_rng(seed)
        stack = rng.uniform(0.0, 1.0, (models, n))
        corner = rng.random((models, n)) < saturated  # outputs pinned at exactly 0 or 1
        stack[corner] = rng.integers(0, 2, corner.sum())
        labels, groups = rng.integers(0, 2, n), rng.choice(group_values, n)
        if mirrored:  # the second group's rows copy the first's, so the measures tie exactly
            half = n // 2
            stack = np.concatenate([stack[:, :half]] * 2, axis=1)
            labels, groups = np.concatenate([labels[:half]] * 2), np.repeat(group_values, half)
        alphas = rng.choice([0.0, 0.05, 0.3, 1.0, 2.5], (models, len(columns)))
        powers = rng.integers(1, 5, (models, len(columns))).tolist()
        term_sets = [tuple(FairnessTerm(kind, variant, alpha, power)
                           for (kind, variant), alpha, power in zip(columns, a_i, k_i))
                     for a_i, k_i in zip(alphas.tolist(), powers)]
        for terms, probs in ((term_sets, stack), (term_sets[0], stack[0])):
            expected, expected_grad = loop_evaluate(terms, probs, labels, groups, mode)
            totals, grad = combined_loss_and_gradient(terms, probs, labels, groups, mode)
            values = combined_loss(terms, probs, labels, groups, mode)
            # repr tells -0.0 from 0.0 and a numpy scalar from a float
            assert repr(values) == repr(expected) and values == expected
            assert grad.tobytes() == expected_grad.tobytes()
            if probs.ndim == 1:
                assert type(totals) is float and totals.hex() == expected.total.hex()
            else:
                assert totals.tobytes() == np.array([v.total for v in expected]).tobytes()

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(
        seed=st.integers(0, 2**32 - 1),
        models=st.integers(1, 12),
        n=st.integers(8, 299),
        columns=st.lists(st.tuples(st.sampled_from(ALL_KINDS),
                                   st.sampled_from([CONT, SIG, SoftVariant.sigmoided(10.0)])),
                         max_size=3),
        mode=st.sampled_from([AS_WRITTEN, RATE]),
        saturated=st.sampled_from([0.0, 0.3, 1.0]),
        group_values=st.sampled_from([(0, 1), (0, 3), (3, 3)]),
    )
    def test_one_plan_serves_many_batches(self, seed, models, n, columns, mode, saturated,
                                          group_values):
        # the training step's path: one plan over the data, then batches of row indices
        rng = np.random.default_rng(seed)
        labels, groups = rng.integers(0, 2, n), rng.choice(group_values, n)
        alphas = rng.choice([0.0, 0.05, 0.3, 1.0, 2.5], (models, len(columns)))
        powers = rng.integers(1, 5, (models, len(columns))).tolist()
        term_sets = [tuple(FairnessTerm(kind, variant, alpha, power)
                           for (kind, variant), alpha, power in zip(columns, a_i, k_i))
                     for a_i, k_i in zip(alphas.tolist(), powers)]
        batches = [rng.choice(n, size, replace=False) for size in rng.integers(1, n + 1, 3)]
        batches += [np.flatnonzero(groups == groups[0]),  # one group only
                    np.flatnonzero((groups != groups[0]) | (labels == 1)),  # an empty cell
                    rng.integers(0, n, 40)]  # rows drawn twice
        survivors = sorted(rng.choice(models, rng.integers(1, models + 1), replace=False).tolist())
        plan = losses.LossPlan(term_sets, labels, groups, mode)
        dropped = plan[survivors]  # what the step keeps after a drop
        fresh = losses.LossPlan([term_sets[i] for i in survivors], labels, groups, mode)
        for rows in batches:
            stack = rng.uniform(0.0, 1.0, (models, rows.size))
            corner = rng.random(stack.shape) < saturated  # outputs pinned at exactly 0 or 1
            stack[corner] = rng.integers(0, 2, corner.sum())
            for step_plan, sets, probs in ((plan, term_sets, stack),
                                           (dropped, fresh.term_sets, stack[survivors])):
                expected, expected_grad = loop_evaluate(sets, probs, labels[rows], groups[rows],
                                                        mode)
                totals, grad = combined_loss_and_gradient(step_plan, probs, rows)
                assert grad.tobytes() == expected_grad.tobytes()
                assert totals.tobytes() == np.array([v.total for v in expected]).tobytes()
            # the survivors' plan, the loop's last, gives a fresh plan's bits
            again, again_grad = combined_loss_and_gradient(fresh, stack[survivors], rows)
            assert (again.tobytes(), again_grad.tobytes()) == (totals.tobytes(), grad.tobytes())

    def test_variants_add_their_gradients_in_the_order_they_first_train(self):
        # group 1 has no negatives, so the FPR term is skipped and the sigmoided variant's
        # gradient joins after the continuous one's, as the per-model loop adds them
        rng = np.random.default_rng(5)
        labels = np.array([0, 1] * 20 + [1] * 20)
        groups = np.repeat([0, 1], [40, 20])
        term_sets = [(FairnessTerm(MeasureKind.FPR, SIG, a, 2),
                      FairnessTerm(MeasureKind.STP, CONT, a, 1),
                      FairnessTerm(MeasureKind.TPR, SIG, 2 * a, 3)) for a in (0.3, 1.0, 2.5)]
        plan = losses.LossPlan(term_sets, labels, groups, RATE)
        for _ in range(20):
            rows = rng.choice(labels.size, 30, replace=False)
            rows[:2] = [0, 59]  # a negative of group 0 and a row of group 1
            probs = rng.uniform(0.0, 1.0, (3, rows.size))
            expected, expected_grad = loop_evaluate(term_sets, probs, labels[rows], groups[rows],
                                                    RATE)
            assert [t.skipped for t in expected[0].per_term] == [True, False, False]
            assert combined_loss_and_gradient(plan, probs, rows)[1].tobytes() == (
                expected_grad.tobytes())

    def test_plan_refuses_what_the_data_cannot_hold(self):
        terms = [(FairnessTerm(MeasureKind.FPR, CONT, 0.5, 1),)]
        with pytest.raises(InputShapeError, match="two groups"):
            losses.LossPlan(terms, [0, 1, 0, 1], [0, 1, 2, 1])
        with pytest.raises(InputShapeError, match="0/1"):
            losses.LossPlan(terms, [0, 2, 0, 1], [0, 1, 0, 1])
        plan = losses.LossPlan(terms, [0, 1, 0, 1], [0, 1, 0, 1])
        with pytest.raises(InputShapeError, match="1 models, 3 rows"):
            combined_loss_and_gradient(plan, np.full((2, 3), 0.5), np.arange(3))

    def test_training_path_builds_no_loss_objects(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the training path built a loss object")

        monkeypatch.setattr(losses, "LossValue", refuse)
        monkeypatch.setattr(losses, "TermValue", refuse)
        rng = np.random.default_rng(11)
        probs, labels, groups = random_fixture(rng, n=24)
        terms = (FairnessTerm(MeasureKind.FPR, CONT, 0.5, 2),
                 FairnessTerm(MeasureKind.FNR, SIG, 0.0, 1))
        combined_loss_and_gradient([terms, terms], np.stack([probs, probs[::-1]]), labels, groups)
        combined_loss_and_gradient(terms, probs, labels, groups)
        with pytest.raises(AssertionError, match="built a loss object"):
            combined_loss(terms, probs, labels, groups)


class TestTermParsing:
    def test_round_trip(self):
        term = parse_term("FPR:sigmoided:0.05:4")
        assert term.kind is MeasureKind.FPR
        assert term.variant.is_sigmoided
        assert term.alpha == 0.05
        assert term.power == 4
        assert str(term) == "FPR:sigmoided:0.05:4"

    def test_beta_suffix(self):
        term = parse_term("FNR:sigmoided:0.1:2:7.5")
        assert term.variant.beta == 7.5
        assert str(term) == "FNR:sigmoided:0.1:2:7.5"

    def test_case_insensitive_measure(self):
        assert parse_term("stp:continuous:0.8:4").kind is MeasureKind.STP

    @pytest.mark.parametrize(
        "bad",
        ["FPR:sigmoided:0.05", "XYZ:continuous:1:1", "FPR:continuous:1:1:2.0",
         "FPR:continuous:x:1", "FPR:linear:1:1", "FPR:sigmoided:0.1:1:sharp"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ConfigError):
            parse_term(bad)

    def test_invalid_term_fields(self):
        with pytest.raises(ConfigError):
            FairnessTerm(MeasureKind.FPR, CONT, alpha=-0.1, power=1)
        with pytest.raises(ConfigError):
            FairnessTerm(MeasureKind.FPR, CONT, alpha=0.1, power=0)
        with pytest.raises(ConfigError):
            SoftVariant.sigmoided(0.0)


class TestLabelCheck:
    def test_bce_rejects_fractional_labels(self):
        # a cast first would read label 0.7 as 0
        with pytest.raises(InputShapeError):
            binary_cross_entropy([0.6, 0.4], [0.7, 1.0])

    @pytest.mark.parametrize("terms", [(), (FairnessTerm(MeasureKind.FPR, CONT, 0.5, 1),)],
                             ids=["bce-only", "fpr-term"])
    def test_combined_loss_rejects_fractional_labels(self, terms):
        with pytest.raises(InputShapeError):
            combined_loss(terms, [0.6, 0.4, 0.3, 0.2], [0.7, 1.0, 0.0, 1.0], [0, 0, 1, 1])

    def test_float_and_bool_labels_accepted(self):
        expected, _ = binary_cross_entropy([0.6, 0.4], [0, 1])
        assert binary_cross_entropy([0.6, 0.4], [0.0, 1.0])[0] == expected
        assert binary_cross_entropy([0.6, 0.4], [False, True])[0] == expected


class TestContinuousBeta:
    def test_variant_and_term_spec_reject_beta(self):
        with pytest.raises(ConfigError):
            SoftVariant("continuous", 3.0)
        with pytest.raises(ConfigError):
            parse_term("FPR:continuous:0.1:1:2")
        assert SoftVariant("continuous", 1.0) == SoftVariant.continuous()
