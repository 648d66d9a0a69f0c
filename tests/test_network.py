"""Forward/backward correctness, Adam behavior, and artifact round trips.

``oracle_deserialize`` keeps the artifact reader whose array manifest had
its own name-keyed codec; a property requires every artifact that
``deserialize`` accepts to read the same through it.
"""

import json
import math
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpsfair import network
from bpsfair.data import DatasetSchema, EncoderState
from bpsfair.errors import ConfigError, FormatError, InputShapeError, StateError
from bpsfair.losses import DenominatorMode, FairnessTerm, SoftVariant, combined_loss_and_gradient
from bpsfair.metrics import MeasureKind
from bpsfair.network import (
    EVAL_BLOCK_ROWS,
    LEAKY_SLOPE,
    NetworkConfig,
    adam_step,
    backward,
    deserialize,
    forward,
    init,
    init_adam,
    serialize,
    _rank1_matmul,
    _row_sum,
)


def _rows_of(v):
    """A per-unit vector broadcast over the batch axis, stacked or not."""
    return v[..., None, :]


def _t_of(a):
    """Transpose of the last two axes."""
    return np.swapaxes(a, -1, -2)


def tiny_config(**kw):
    defaults = dict(input_dim=2, hidden=((2, "relu"),), dropout_rate=0.0,
                    use_batch_norm=False, seed=0)
    defaults.update(kw)
    return NetworkConfig(**defaults)


class TestInit:
    def test_same_seed_bit_identical(self):
        cfg = tiny_config(seed=42)
        s1, s2 = init(cfg), init(cfg)
        for a, b in zip(s1.parameters(), s2.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_shapes(self):
        cfg = NetworkConfig(input_dim=5, hidden=((3, "relu"),), seed=1)
        state = init(cfg)
        assert state.weights[0].shape == (5, 3)
        assert state.weights[1].shape == (3, 1)
        assert state.biases[0].shape == (3,)
        assert state.biases[1].shape == (1,)

    def test_scaled_normal_variance(self):
        cfg = NetworkConfig(input_dim=1000, hidden=((1000, "relu"),), seed=7)
        state = init(cfg)
        var = state.weights[0].var()
        assert abs(var - 2.0 / 1000) < 0.1 * (2.0 / 1000)

    def test_batch_norm_initialization(self):
        cfg = tiny_config(use_batch_norm=True)
        state = init(cfg)
        np.testing.assert_array_equal(state.bn_scale[0], 1.0)
        np.testing.assert_array_equal(state.bn_shift[0], 0.0)
        np.testing.assert_array_equal(state.bn_mean[0], 0.0)
        np.testing.assert_array_equal(state.bn_var[0], 1.0)

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            NetworkConfig(input_dim=0, hidden=((3, "relu"),))
        with pytest.raises(ConfigError):
            NetworkConfig(input_dim=3, hidden=())
        with pytest.raises(ConfigError):
            NetworkConfig(input_dim=3, hidden=((0, "relu"),))
        with pytest.raises(ConfigError):
            NetworkConfig(input_dim=3, hidden=((2, "gelu"),))
        with pytest.raises(ConfigError):
            NetworkConfig(input_dim=3, hidden=((2, "relu"),), dropout_rate=1.0)


class TestForward:
    def test_zero_weights_give_half(self):
        state = init(tiny_config())
        for w in state.weights:
            w[:] = 0.0
        probs, _ = forward(state, np.array([[1.0, -2.0], [3.0, 4.0]]))
        np.testing.assert_allclose(probs, 0.5)

    def test_eval_mode_deterministic(self):
        state = init(tiny_config(seed=3, dropout_rate=0.5, use_batch_norm=True))
        X = np.random.default_rng(0).normal(size=(5, 2))
        p1, _ = forward(state, X, mode="eval")
        p2, _ = forward(state, X, mode="eval")
        np.testing.assert_array_equal(p1, p2)

    def test_hand_computed_two_by_two(self):
        # no dropout, no batch norm: plain MLP computable by hand
        state = init(tiny_config())
        state.weights[0][:] = np.array([[1.0, -1.0], [0.5, 2.0]])
        state.biases[0][:] = np.array([0.1, -0.2])
        state.weights[1][:] = np.array([[2.0], [-1.0]])
        state.biases[1][:] = np.array([0.3])
        X = np.array([[1.0, 2.0], [-1.0, 0.5]])
        # sample 1: z = [1*1+2*0.5+0.1, 1*(-1)+2*2-0.2] = [2.1, 2.8] -> relu same
        # out = 2*2.1 - 1*2.8 + 0.3 = 1.7
        # sample 2: z = [-1+0.25+0.1, 1+1-0.2] = [-0.65, 1.8] -> relu [0, 1.8]
        # out = 0 - 1.8 + 0.3 = -1.5
        expected = 1.0 / (1.0 + np.exp(-np.array([1.7, -1.5])))
        probs, cache = forward(state, X, mode="train")
        np.testing.assert_allclose(probs, expected, rtol=1e-12)
        assert cache is not None and len(cache.layers) == 1

    def test_leaky_relu_negative_slope(self):
        state = init(tiny_config(hidden=((2, "leaky_relu"),)))
        state.weights[0][:] = np.eye(2)
        state.biases[0][:] = 0.0
        state.weights[1][:] = np.array([[1.0], [1.0]])
        state.biases[1][:] = 0.0
        probs, _ = forward(state, np.array([[-1.0, -1.0]]))
        z = LEAKY_SLOPE * -1.0 * 2
        assert probs[0] == pytest.approx(1.0 / (1.0 + np.exp(-z)), rel=1e-12)

    def test_wrong_input_dim_rejected(self):
        state = init(tiny_config())
        with pytest.raises(InputShapeError):
            forward(state, np.zeros((4, 3)))

    def test_train_dropout_needs_rng(self):
        state = init(tiny_config(dropout_rate=0.5))
        with pytest.raises(ConfigError):
            forward(state, np.zeros((4, 2)), mode="train")

    @pytest.mark.parametrize("models", [None, 3])
    def test_inputs_parameters_and_cached_inputs_left_unchanged(self, models):
        # every elementwise step writes into the layer's own fresh array
        cfg = tiny_config(input_dim=3, hidden=((6, "leaky_relu"), (4, "relu")),
                          dropout_rate=0.25, use_batch_norm=True, seed=8)
        state = init(cfg, models=models)
        rng = np.random.default_rng(4)
        for p in state.parameters():
            p += rng.normal(scale=0.3, size=p.shape)
        X = rng.normal(size=(7, 3))
        X_before = X.copy()
        params_before = [p.copy() for p in state.parameters()]
        masks = [rng.random((7, w)) >= 0.25 for w in cfg.widths]

        forward(state, X, mode="eval")
        _, cache = forward(state, X, mode="train", dropout_masks=masks)
        np.testing.assert_array_equal(X, X_before)
        for p, before in zip(state.parameters(), params_before):
            np.testing.assert_array_equal(p, before)

        # each cached h_in equals the previous layer's output, recomputed
        # with fresh arrays from the cached xhat, and the last feeds the output layer
        assert cache.layers[0]["h_in"] is X
        outputs = [_rows_of(state.bn_scale[l]) * layer["xhat"] + _rows_of(state.bn_shift[l])
                   for l, layer in enumerate(cache.layers)]
        for layer, expected in zip(cache.layers[1:], outputs):
            np.testing.assert_array_equal(layer["h_in"], expected)
        np.testing.assert_array_equal(cache.final_in, outputs[-1])
        h = X
        for l, (layer, (_, act)) in enumerate(zip(cache.layers, cfg.hidden)):
            z = h @ state.weights[l] + _rows_of(state.biases[l])
            np.testing.assert_array_equal(layer["positive"], z > 0.0)
            a = np.maximum(z, 0.0) if act == "relu" else np.where(z > 0, z, LEAKY_SLOPE * z)
            a = a * masks[l] / 0.75
            xhat = (a - a.mean(axis=-2, keepdims=True)) / np.sqrt(
                a.var(axis=-2, keepdims=True) + 1e-5)
            np.testing.assert_allclose(layer["xhat"], xhat, rtol=1e-12, atol=1e-12)
            h = outputs[l]

    def test_running_stats_updated_only_in_train(self):
        state = init(tiny_config(use_batch_norm=True, seed=5))
        X = np.random.default_rng(1).normal(size=(8, 2))
        before = state.bn_mean[0].copy()
        forward(state, X, mode="eval")
        np.testing.assert_array_equal(state.bn_mean[0], before)
        forward(state, X, mode="train")
        assert not np.array_equal(state.bn_mean[0], before)

    def test_inverted_dropout_preserves_expectation(self):
        cfg = tiny_config(input_dim=3, hidden=((8, "relu"),), dropout_rate=0.1, seed=11)
        state = init(cfg)
        X = np.random.default_rng(2).normal(size=(1, 3))
        z = X @ state.weights[0] + state.biases[0]
        reference = np.maximum(z, 0.0)  # pre-dropout activation
        rng = np.random.default_rng(123)
        acc = np.zeros_like(reference)
        trials = 10_000
        for _ in range(trials):
            _, cache = forward(state, X, mode="train", rng=rng)
            acc += cache.final_in  # the dropped activation (one layer, no batch norm)
        np.testing.assert_allclose(acc / trials, reference, rtol=0.02, atol=1e-12)


def linear_loss(coeffs, probs):
    return float(np.dot(coeffs, probs))


def fd_param_grads(state, X, coeffs, masks, h=1e-5):
    """Central finite differences through a full train-mode forward."""
    grads = []
    for p in state.parameters():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up, _ = forward(state, X, mode="train", dropout_masks=masks)
            p[idx] = orig - h
            down, _ = forward(state, X, mode="train", dropout_masks=masks)
            p[idx] = orig
            g[idx] = (linear_loss(coeffs, up) - linear_loss(coeffs, down)) / (2 * h)
        grads.append(g)
    return grads


class TestBackward:
    def test_zero_output_gradient_gives_zero_grads(self):
        state = init(tiny_config(seed=9, use_batch_norm=True))
        X = np.random.default_rng(3).normal(size=(6, 2))
        _, cache = forward(state, X, mode="train")
        grads = backward(state, cache, np.zeros(6))
        assert grads.shape == state.params.shape
        for g in state.split(grads):
            np.testing.assert_array_equal(g, 0.0)

    @pytest.mark.parametrize(
        "cfg",
        [
            tiny_config(input_dim=4, hidden=((5, "relu"),), seed=21),
            tiny_config(input_dim=4, hidden=((5, "leaky_relu"), (3, "relu")), seed=22),
            tiny_config(input_dim=4, hidden=((5, "relu"),), use_batch_norm=True, seed=23),
            tiny_config(
                input_dim=4, hidden=((5, "relu"), (4, "leaky_relu")),
                use_batch_norm=True, dropout_rate=0.25, seed=24,
            ),
            tiny_config(
                input_dim=6, hidden=((41, "relu"), (41, "relu")),
                use_batch_norm=True, dropout_rate=0.1, seed=25,
            ),
        ],
        ids=["plain", "two-layer", "batchnorm", "bn-dropout", "41x41-full"],
    )
    def test_matches_finite_differences(self, cfg):
        rng = np.random.default_rng(cfg.seed)
        state = init(cfg)
        X = rng.normal(size=(16, cfg.input_dim))
        coeffs = rng.normal(size=16)
        masks = None
        if cfg.dropout_rate > 0.0:
            masks = [
                rng.random((16, w)) >= cfg.dropout_rate for w, _ in cfg.hidden
            ]
        probs, cache = forward(state, X, mode="train", dropout_masks=masks)
        dprobs = coeffs * probs * 0.0 + coeffs  # dL/dprobs = coeffs
        analytic = state.split(backward(state, cache, dprobs))
        numeric = fd_param_grads(state, X, coeffs, masks)
        for a, n in zip(analytic, numeric):
            np.testing.assert_allclose(a, n, rtol=1e-4, atol=1e-7)

    def test_fully_masked_unit_gets_no_weight_gradient(self):
        cfg = tiny_config(input_dim=3, hidden=((4, "relu"),), dropout_rate=0.5, seed=31)
        state = init(cfg)
        X = np.random.default_rng(4).normal(size=(6, 3))
        masks = [np.ones((6, 4), dtype=bool)]
        masks[0][:, 2] = False  # unit 2 dropped for every sample
        _, cache = forward(state, X, mode="train", dropout_masks=masks)
        grads = state.split(backward(state, cache, np.ones(6)))
        np.testing.assert_array_equal(grads[0][:, 2], 0.0)  # W0 column of the dead unit
        np.testing.assert_array_equal(grads[1][2], 0.0)  # its bias too

    def test_cache_state_mismatch(self):
        state = init(tiny_config(seed=1))
        other = init(tiny_config(input_dim=4, hidden=((3, "relu"), (3, "relu")), seed=2))
        X = np.random.default_rng(5).normal(size=(4, 2))
        _, cache = forward(state, X, mode="train")
        with pytest.raises(StateError):
            backward(other, cache, np.ones(4))
        with pytest.raises(StateError):
            backward(state, cache, np.ones(7))
        with pytest.raises(StateError):
            backward(state, None, np.ones(4))


def reference_activate_grad(positive, act):
    if act == "relu":
        return positive.astype(np.float64)
    return np.where(positive, 1.0, LEAKY_SLOPE)


def reference_backward(state, cache, dloss_dprobs):
    """The allocating backward chain that backward() must reproduce bit for bit."""
    cfg = state.config
    dprobs = np.asarray(dloss_dprobs, dtype=np.float64)
    n = cache.x.shape[0]
    probs = cache.probs
    dz = (dprobs * probs * (1.0 - probs))[..., None]
    grads_w = [None] * len(state.weights)
    grads_b = [None] * len(state.biases)
    grads_scale = [None] * len(state.bn_scale)
    grads_shift = [None] * len(state.bn_shift)
    grads_w[-1] = _t_of(cache.final_in) @ dz
    grads_b[-1] = dz.sum(axis=-2)
    dh = dz @ _t_of(state.weights[-1])
    for l in range(len(cfg.hidden) - 1, -1, -1):
        layer = cache.layers[l]
        _, act = cfg.hidden[l]
        if cfg.use_batch_norm:
            xhat, inv_std = layer["xhat"], layer["inv_std"]
            grads_scale[l] = (dh * xhat).sum(axis=-2)
            grads_shift[l] = dh.sum(axis=-2)
            dxhat = dh * _rows_of(state.bn_scale[l])
            du = (inv_std / n) * (
                n * dxhat - dxhat.sum(axis=-2, keepdims=True)
                - xhat * (dxhat * xhat).sum(axis=-2, keepdims=True)
            )
        else:
            du = dh
        if layer["mask"] is not None:
            da = du * layer["mask"] / (1.0 - cfg.dropout_rate)
        else:
            da = du
        dz = da * reference_activate_grad(layer["positive"], act)
        grads_w[l] = _t_of(layer["h_in"]) @ dz
        grads_b[l] = dz.sum(axis=-2)
        if l:
            dh = dz @ _t_of(state.weights[l])
    grads = []
    for l in range(len(cfg.hidden)):
        grads += [grads_w[l], grads_b[l]]
        if cfg.use_batch_norm:
            grads += [grads_scale[l], grads_shift[l]]
    return grads + [grads_w[-1], grads_b[-1]]


def reference_adam_step(state, adam, grads):
    """The allocating per-array Adam update that adam_step() must reproduce bit for bit."""
    adam.t += 1
    bc1 = 1.0 - adam.beta1 ** adam.t
    bc2 = 1.0 - adam.beta2 ** adam.t
    arrays = zip(state.parameters(), state.split(grads), state.split(adam.m),
                 state.split(adam.v))
    for p, g, m, v in arrays:
        m *= adam.beta1
        m += (1.0 - adam.beta1) * g
        v *= adam.beta2
        v += (1.0 - adam.beta2) * (g * g)
        p -= adam.lr * (m / bc1) / (np.sqrt(v / bc2) + adam.eps)


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


class TestInPlaceChainMatchesAllocatingChain:
    """backward and adam_step against the allocating reference, compared by bytes."""

    @pytest.mark.parametrize("models", [None, 2, 21])
    @pytest.mark.parametrize("n", [1, 5, 256])
    def test_rank1_matmul_is_the_matmul(self, models, n):
        # numpy's sums start from +0.0, so the gradients never show the sign
        # of a zero in the output layer's dh; this compares dh itself
        lead = () if models is None else (models,)
        rng = np.random.default_rng(n)
        a = rng.normal(size=lead + (n, 1))
        b = rng.normal(size=lead + (324, 1))
        a.flat[::3] = -0.0
        a.flat[1::7] = 0.0
        b.flat[::5] = -0.0
        b.flat[1::11] = np.inf
        b.flat[2::13] = np.nan
        with np.errstate(invalid="ignore"):
            got, want = _rank1_matmul(a, b), a @ _t_of(b)
            assert np.signbit(want).sum() < np.signbit(a * _t_of(b)).sum()
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("act", ["relu", "leaky_relu"])
    @pytest.mark.parametrize("batch_norm", [False, True])
    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("models", [None, 2, 21])
    @pytest.mark.parametrize("widths", [(9, 7), (1, 1)], ids=["9x7", "1x1"])
    def test_gradients_and_adam_steps_bit_identical(self, act, batch_norm, dropout, models,
                                                     widths):
        # a width-1 layer sums its bias gradient pairwise, a 1-row batch has one row
        cfg = tiny_config(input_dim=5, hidden=tuple((w, act) for w in widths),
                          dropout_rate=dropout, use_batch_norm=batch_norm, seed=61)
        for n in (1, 5, 256):
            rng = np.random.default_rng(n)
            state = init(cfg, models=models)
            for p in state.parameters():  # every stacked model different
                p += rng.normal(scale=0.5, size=p.shape)
            X = rng.normal(size=(n, 5))
            masks = [rng.random((n, w)) >= dropout for w in cfg.widths] if dropout else None
            probs, cache = forward(state, X, mode="train", dropout_masks=masks)
            dprobs = rng.normal(size=probs.shape)
            dprobs[..., ::4] = -0.0  # signed zeros through every layer
            dprobs[..., 1::4] = 0.0
            grads = backward(state, cache, dprobs)
            assert_same_bytes(state.split(grads), reference_backward(state, cache, dprobs))

            twin = state.copy()
            adam, twin_adam = init_adam(state, lr=0.01), init_adam(twin, lr=0.01)
            for step in range(5):
                step_grads = grads * (step + 1)
                adam_step(state, adam, step_grads)
                reference_adam_step(twin, twin_adam, step_grads)
                assert_same_bytes(state.parameters(), twin.parameters())
                assert_same_bytes([adam.m, adam.v], [twin_adam.m, twin_adam.v])


@st.composite
def kernel_inputs(draw, infinities=(np.inf,)):
    """A ([M,] n, width) array and a ([M,] width) vector, with ±0.0, inf and NaN entries.

    ``infinities`` lists the signs of inf that may appear; with one sign every
    NaN in the array has the same bits.
    """
    models = draw(st.sampled_from([None, 1, 2, 21]))
    n, width = draw(st.integers(1, 300)), draw(st.integers(1, 400))
    lead = () if models is None else (models,)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=lead + (n, width))
    b = rng.normal(size=lead + (width,))
    specials = np.array([0.0, -0.0, np.nan, *infinities])
    for arr in (a, b):
        spots = rng.choice(arr.size, size=draw(st.integers(0, min(arr.size, 40))), replace=False)
        arr.flat[spots] = rng.choice(specials, size=spots.size)
    if draw(st.booleans()):  # a column of -0.0 only: its sum is +0.0
        a[..., rng.integers(width)] = -0.0
    return a, b


class TestBackwardKernels:
    """The einsum kernels of backward against the numpy calls they replace, by bytes."""

    @staticmethod
    def row_sum_into_slot(a):
        """_row_sum written into a strided slot of a larger buffer, as backward does."""
        buf = np.full(a.shape[:-2] + (a.shape[-1] + 5,), 7.0)
        out = buf[..., 3 : 3 + a.shape[-1]]
        with np.errstate(invalid="ignore"):
            got = _row_sum(a, out)
        assert got is out and np.all(buf[..., :3] == 7.0) and np.all(buf[..., -2:] == 7.0)
        return np.ascontiguousarray(out)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(kernel_inputs(infinities=(np.inf,)) | kernel_inputs(infinities=(-np.inf,)))
    def test_row_sum_is_sum_byte_for_byte(self, arrays):
        a, _ = arrays
        with np.errstate(invalid="ignore"):
            want = a.sum(axis=-2)
        assert self.row_sum_into_slot(a).tobytes() == want.tobytes()

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(kernel_inputs(infinities=(np.inf, -np.inf)))
    def test_row_sum_with_both_infinities_differs_only_in_nan_signs(self, arrays):
        # inf + -inf makes a NaN of the other sign than np.nan's; when two such
        # NaNs meet, x86 keeps the first operand's, and the two kernels add in
        # opposite operand order.  Only which NaN comes out can differ.
        a, _ = arrays
        with np.errstate(invalid="ignore"):
            want = a.sum(axis=-2)
        got = self.row_sum_into_slot(a)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        finite = ~np.isnan(want)
        assert got[finite].tobytes() == want[finite].tobytes()

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(kernel_inputs(infinities=(np.inf, -np.inf)))
    def test_outer_product_is_the_broadcast_multiply_byte_for_byte(self, arrays):
        a, b = arrays
        dz, w = a[..., :, :1], b[..., :, None]  # (..., n, 1) and (..., width, 1)
        with np.errstate(invalid="ignore"):
            want = np.multiply(dz, _t_of(w))
            want += 0.0  # the matmul's +0.0 start
            got = _rank1_matmul(dz, w)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestFlatBuffers:
    """A state's arrays are views into two flat buffers; backward fills a third."""

    CFG = tiny_config(input_dim=4, hidden=((6, "relu"), (5, "leaky_relu")),
                      use_batch_norm=True, dropout_rate=0.25, seed=43)

    @pytest.mark.parametrize("batch_norm", [False, True])
    @pytest.mark.parametrize("models", [None, 1, 3])
    def test_arrays_tile_the_buffers_in_order(self, batch_norm, models):
        cfg = tiny_config(input_dim=4, hidden=((6, "relu"), (5, "relu")),
                          use_batch_norm=batch_norm, seed=43)
        state = init(cfg, models=models)
        lead = () if models is None else (models,)
        for buf, arrays in ((state.params, state.parameters()),
                            (state.stats, [a for pair in zip(state.bn_mean, state.bn_var)
                                           for a in pair])):
            assert buf.flags.c_contiguous
            assert all(np.shares_memory(a, buf) for a in arrays)
            flat = [a.reshape(lead + (-1,)) for a in arrays]
            tiled = np.concatenate(flat, axis=-1) if flat else np.empty(lead + (0,))
            assert tiled.tobytes() == buf.tobytes()
        assert tuple(p.shape[len(lead):] for p in state.parameters()) == cfg.param_shapes
        assert state.stats.shape == lead + ((22,) if batch_norm else (0,))

    def test_writes_through_any_view_reach_the_buffer(self):
        state = init(self.CFG, models=3)
        state.weights[1][2] = 5.0
        state.bn_var[0][1] = 9.0
        assert np.count_nonzero(state.params == 5.0) == 6 * 5
        assert np.count_nonzero(state.stats[1] == 9.0) == 6
        single = state[2]
        single.biases[0][...] = -3.0
        assert np.all(state.biases[0][2] == -3.0)
        assert np.shares_memory(single.params, state.params)

    def test_selection_and_copy_own_their_buffers(self):
        state = init(self.CFG, models=3)
        for other in (state[[0, 2]], state[1].copy(), state.copy()):
            assert not np.shares_memory(other.params, state.params)
            assert not np.shares_memory(other.stats, state.stats)
            assert other.params.flags.c_contiguous
        np.testing.assert_array_equal(state[[0, 2]].params, state.params[[0, 2]])

    def test_backward_returns_one_fresh_buffer(self):
        state = init(self.CFG, models=3)
        X = np.random.default_rng(3).normal(size=(8, 4))
        _, cache = forward(state, X, mode="train", rng=np.random.default_rng(4))
        grads = backward(state, cache, np.ones((3, 8)))
        assert grads.shape == state.params.shape and grads.flags.c_contiguous
        assert not np.shares_memory(grads, state.params)
        assert np.all(np.isfinite(grads))

    def test_adam_selection_keeps_the_layout(self):
        state = init(self.CFG, models=3)
        adam = init_adam(state, lr=0.01)
        adam.m[...] = np.arange(3)[:, None]
        sub = adam[[0, 2]]
        assert sub.m.shape == sub.v.shape == (2, state.params.shape[1])
        np.testing.assert_array_equal(sub.m[:, 0], [0.0, 2.0])
        assert all(s.shape == sub.m.shape for s in sub.scratch)
        assert (sub.t, sub.lr) == (adam.t, adam.lr)


def _total_loss(state, X, masks, term_sets, labels, groups, mode):
    """Sum over the stacked models of the combined loss, through a train-mode forward."""
    probs, cache = forward(state, X, mode="train", dropout_masks=masks)
    terms = term_sets if state.models is not None else term_sets[0]
    totals, dprobs = combined_loss_and_gradient(terms, probs, labels, groups, mode)
    return sum(np.atleast_1d(totals).tolist()), cache, dprobs


@st.composite
def loss_problems(draw):
    """A random network, stack size, term sets and denominator mode."""
    layers = draw(st.lists(st.tuples(st.integers(1, 6), st.sampled_from(["relu", "leaky_relu"])),
                           min_size=1, max_size=3))
    cfg = NetworkConfig(input_dim=draw(st.integers(1, 4)), hidden=tuple(layers),
                        dropout_rate=draw(st.sampled_from([0.0, 0.3])),
                        use_batch_norm=draw(st.booleans()), seed=draw(st.integers(0, 99)))
    models = draw(st.sampled_from([None, 1, 2, 3, 4]))
    columns = draw(st.lists(st.tuples(st.sampled_from(list(MeasureKind)),
                                      st.sampled_from([SoftVariant.continuous(),
                                                       SoftVariant.sigmoided(),
                                                       SoftVariant.sigmoided(4.0)])),
                            max_size=3))
    term_sets = [
        tuple(FairnessTerm(kind, variant, alpha=draw(st.floats(0.0, 2.0)),
                           power=draw(st.integers(1, 4)))
              for kind, variant in columns)
        for _ in range(models or 1)
    ]
    mode = draw(st.sampled_from(list(DenominatorMode)))
    return cfg, models, term_sets, mode, draw(st.integers(0, 2**16))


class TestLossGradientThroughBackward:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(loss_problems())
    def test_matches_central_differences(self, problem):
        cfg, models, term_sets, mode, seed = problem
        rng = np.random.default_rng(seed)
        n = 12
        state = init(cfg, models=models)
        for p in state.parameters():
            p += rng.normal(scale=0.3, size=p.shape)
        X = rng.normal(size=(n, cfg.input_dim))
        # every (group, label) cell holds rows, so every term can train
        labels = np.array([0, 1] * (n // 2))
        groups = np.repeat([0, 1, 0, 1], n // 4)
        masks = None
        if cfg.dropout_rate:
            masks = [rng.random((n, w)) >= cfg.dropout_rate for w in cfg.widths]
        args = (X, masks, term_sets, labels, groups, mode)

        total, cache, dprobs = _total_loss(state, *args)
        analytic = state.split(backward(state, cache, dprobs))
        h, checked = 1e-6, 0
        for k, p in enumerate(state.parameters()):
            for idx in map(tuple, rng.integers(0, p.shape, size=(3, p.ndim))):
                orig = p[idx]
                p[idx] = orig + h
                up = _total_loss(state, *args)[0]
                p[idx] = orig - h
                down = _total_loss(state, *args)[0]
                p[idx] = orig
                # a ReLU or min/max ratio kink inside [-h, h] makes the one-sided
                # slopes disagree; the derivative is not defined there
                if abs((up - total) - (total - down)) > 1e-3 * (abs(up - down) + 1e-7):
                    continue
                numeric = (up - down) / (2 * h)
                assert analytic[k][idx] == pytest.approx(numeric, rel=1e-4, abs=1e-6)
                checked += 1
        assert checked


class TestAdam:
    def test_first_step_magnitude(self):
        state = init(tiny_config(seed=2))
        adam = init_adam(state, lr=0.001)
        before = [p.copy() for p in state.parameters()]
        grads = np.ones_like(state.params)
        adam_step(state, adam, grads)
        assert adam.t == 1
        for b, p in zip(before, state.parameters()):
            delta = p - b
            assert np.all(np.abs(delta + 0.001) < 1e-6)

    def test_zero_grads_keep_parameters(self):
        state = init(tiny_config(seed=2))
        adam = init_adam(state)
        before = [p.copy() for p in state.parameters()]
        adam_step(state, adam, np.zeros_like(state.params))
        assert adam.t == 1
        for b, p in zip(before, state.parameters()):
            np.testing.assert_array_equal(b, p)

    def test_quadratic_bowl_descends(self):
        state = init(tiny_config(seed=6))
        adam = init_adam(state, lr=0.05)
        targets = np.full_like(state.params, 0.7)

        def objective():
            return sum(float(((p - t) ** 2).sum())
                       for p, t in zip(state.parameters(), state.split(targets)))

        values = [objective()]
        for _ in range(100):
            grads = 2.0 * (state.params - targets)
            adam_step(state, adam, grads)
            values.append(objective())
        assert all(a > b for a, b in zip(values[5:], values[6:]))
        assert values[-1] < values[0] * 0.01

    def test_shape_mismatch_rejected(self):
        state = init(tiny_config(seed=2))
        adam = init_adam(state)
        bad = [np.zeros_like(p) for p in state.parameters()]  # per-array, not one buffer
        with pytest.raises(StateError):
            adam_step(state, adam, bad)
        with pytest.raises(StateError):
            adam_step(state, adam, np.zeros(state.params.size + 1))
        with pytest.raises(StateError):
            adam_step(state, adam, np.zeros((1, state.params.size)))


class TestSerialization:
    def test_round_trip_bit_exact(self):
        cfg = tiny_config(input_dim=4, hidden=((6, "relu"), (3, "leaky_relu")),
                          use_batch_norm=True, dropout_rate=0.1, seed=13)
        state = init(cfg)
        # perturb running stats so the round trip covers them
        X = np.random.default_rng(8).normal(size=(10, 4))
        forward(state, X, mode="train", rng=np.random.default_rng(0))
        blob = serialize(state, {"columns": ["a", "b"], "note": "fixture"})
        restored, meta = deserialize(blob)
        assert meta == {"columns": ["a", "b"], "note": "fixture"}
        assert restored.config == cfg
        eval_x = np.random.default_rng(9).normal(size=(7, 4))
        p1, _ = forward(state, eval_x, mode="eval")
        p2, _ = forward(restored, eval_x, mode="eval")
        np.testing.assert_array_equal(p1, p2)
        assert serialize(restored, meta) == blob

    def test_architecture_config_echo(self):
        cfg = NetworkConfig(input_dim=20, hidden=((108, "relu"), (108, "relu")),
                            dropout_rate=0.1, use_batch_norm=True, seed=0)
        state = init(cfg)
        restored, _ = deserialize(serialize(state))
        assert restored.config.widths == (108, 108)

    def test_truncated_artifact(self):
        state = init(tiny_config(seed=1))
        blob = serialize(state)
        for cut in (4, 10, len(blob) // 2, len(blob) - 3):
            with pytest.raises(FormatError):
                deserialize(blob[:cut])

    def test_trailing_bytes_rejected(self):
        state = init(tiny_config(seed=1))
        with pytest.raises(FormatError):
            deserialize(serialize(state) + b"xx")

    def test_bad_magic_and_version(self):
        state = init(tiny_config(seed=1))
        blob = bytearray(serialize(state))
        with pytest.raises(FormatError):
            deserialize(b"NOTMAGIC" + bytes(blob[8:]))
        blob[8] = 99  # version field
        with pytest.raises(FormatError):
            deserialize(bytes(blob))


def _artifact():
    """A trained-looking small artifact: its blob and its parsed header."""
    cfg = tiny_config(input_dim=3, hidden=((4, "relu"), (2, "leaky_relu")),
                      use_batch_norm=True, dropout_rate=0.1, seed=5)
    state = init(cfg)
    rng = np.random.default_rng(6)
    for p in state.parameters():
        p += rng.normal(size=p.shape)
    forward(state, rng.normal(size=(8, 3)), mode="train", rng=rng)
    blob = serialize(state, {"columns": ["a", "b"]})
    header_len = struct.unpack_from("<I", blob, 12)[0]
    return blob, json.loads(blob[16:16 + header_len])


def _with_header(blob, header):
    """``blob`` with its header replaced by ``header``'s JSON."""
    old_len = struct.unpack_from("<I", blob, 12)[0]
    text = json.dumps(header).encode("utf-8")
    return blob[:12] + struct.pack("<I", len(text)) + text + blob[16 + old_len:]


def _paths(node, prefix=()):
    """Every position in a JSON document, as key/index paths."""
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**12, 10**12) | st.floats() | st.text(max_size=4),
    _json_containers,
    max_leaves=6,
)


@st.composite
def network_configs(draw):
    widths = draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
    return NetworkConfig(
        input_dim=draw(st.integers(1, 6)),
        hidden=tuple((w, draw(st.sampled_from(["relu", "leaky_relu"]))) for w in widths),
        dropout_rate=draw(st.floats(0.0, 1.0, exclude_max=True)),
        use_batch_norm=draw(st.booleans()),
        seed=draw(st.integers(0, 2**64)),
    )


NAMES = st.text(max_size=5)


@st.composite
def schemas(draw):
    label, sensitive, *features = draw(st.lists(NAMES, min_size=3, max_size=6, unique=True))
    cut = draw(st.integers(0, len(features)))
    return DatasetSchema(
        label=label, positive_label=draw(NAMES), negative_label=draw(NAMES), sensitive=sensitive,
        sensitive_map=draw(st.dictionaries(NAMES, st.integers(0, 1), max_size=3)),
        categorical=features[:cut], continuous=features[cut:],
        ignore=draw(st.lists(NAMES, max_size=2)),
        label_aliases=draw(st.dictionaries(NAMES, NAMES, max_size=2)),
        missing_token=draw(NAMES),
    )


@st.composite
def encoders(draw):
    columns = draw(st.lists(NAMES, max_size=3, unique=True))
    stats = st.floats(allow_nan=False, allow_infinity=False)
    return EncoderState(
        vocabularies={c: tuple(draw(st.lists(NAMES, max_size=3))) for c in columns},
        means={c: draw(stats) for c in columns}, stds={c: draw(stats) for c in columns},
        constant_columns=tuple(draw(st.lists(st.sampled_from(columns), max_size=2)))
        if columns else (),
    )


def _swap_entries(manifest, a, b):
    """Exchange the manifest entries named ``a`` and ``b``."""
    i, j = ([entry["name"] for entry in manifest].index(name) for name in (a, b))
    manifest[i], manifest[j] = manifest[j], manifest[i]


# ---- oracle: the name-keyed manifest codec that the one header rule replaced ----

def _oracle_is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _oracle_state_arrays(state):
    """All state arrays (parameters plus running stats) with stable names."""
    arrays = []
    n_hidden = len(state.config.hidden)
    for l in range(n_hidden):
        arrays.append((f"W{l}", state.weights[l]))
        arrays.append((f"b{l}", state.biases[l]))
        if state.config.use_batch_norm:
            arrays.append((f"bn_scale{l}", state.bn_scale[l]))
            arrays.append((f"bn_shift{l}", state.bn_shift[l]))
            arrays.append((f"bn_mean{l}", state.bn_mean[l]))
            arrays.append((f"bn_var{l}", state.bn_var[l]))
    arrays.append((f"W{n_hidden}", state.weights[n_hidden]))
    arrays.append((f"b{n_hidden}", state.biases[n_hidden]))
    return arrays


def _oracle_manifest_sizes(manifest):
    """Element count of each manifest entry; FormatError unless it is a list of {name, shape}."""
    if not isinstance(manifest, list):
        raise FormatError(f"artifact manifest must be a list, got {manifest!r}")
    sizes = []
    for entry in manifest:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and all(_oracle_is_int(d) and d >= 0 for d in entry["shape"])):
            raise FormatError(f"bad artifact manifest entry {entry!r}")
        sizes.append(math.prod(entry["shape"]))
    return sizes


def oracle_deserialize(blob):
    """The artifact reader with a config rule and a separate name-keyed manifest codec."""
    magic = b"BPSFMODL"
    if len(blob) < len(magic) + 8:
        raise FormatError("artifact too short for header")
    if blob[: len(magic)] != magic:
        raise FormatError("bad magic: not a model artifact")
    version, header_len = struct.unpack_from("<II", blob, len(magic))
    if version != 1:
        raise FormatError(f"unsupported artifact version {version} (expected 1)")
    offset = len(magic) + 8
    if len(blob) < offset + header_len:
        raise FormatError("artifact truncated inside header")
    try:
        header = json.loads(blob[offset : offset + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"corrupt artifact header: {exc}")
    offset += header_len
    if not (isinstance(header, dict) and isinstance(header.get("config"), dict)
            and isinstance(header.get("metadata"), dict) and "arrays" in header):
        raise FormatError("artifact header needs config and metadata mappings and arrays")
    try:
        config = NetworkConfig.from_dict(header["config"])
    except ConfigError as exc:
        raise FormatError(f"artifact config invalid: {exc}") from None
    if json.dumps(config.to_dict(), sort_keys=True) != json.dumps(header["config"], sort_keys=True):
        raise FormatError(f"artifact config is not as serialize writes it: {header['config']!r}")
    manifest, metadata = header["arrays"], header["metadata"]

    sizes = _oracle_manifest_sizes(manifest)
    total, payload = sum(sizes), len(blob) - offset
    if 8 * total != payload:
        raise FormatError(f"the manifest needs {8 * total} payload bytes, the artifact "
                          f"holds {payload}: truncated or trailing bytes")
    needed = sum(map(math.prod, config.param_shapes + config.stat_shapes))
    if total != needed:
        raise FormatError(f"artifact holds {total} values, its architecture needs {needed}")

    values = {}
    for entry, size in zip(manifest, sizes):
        values[entry["name"]] = (
            np.frombuffer(blob, dtype="<f8", count=size, offset=offset)
            .reshape(entry["shape"])
            .copy()
        )
        offset += 8 * size
    state = init(config)
    for name, arr in _oracle_state_arrays(state):
        if name not in values:
            raise FormatError(f"artifact missing array {name!r}")
        if values[name].shape != arr.shape:
            raise FormatError(f"artifact array {name!r} has shape {values[name].shape}, "
                              f"expected {arr.shape}")
        arr[...] = values[name]
    return state, metadata


@st.composite
def mutated_artifacts(draw):
    blob, header = _artifact()
    kind = draw(st.sampled_from(["value", "delete", "shape", "permute", "truncate", "append",
                                 "flip"]))
    if kind in ("value", "delete", "shape", "permute"):
        if kind == "permute":
            header["arrays"] = draw(st.permutations(header["arrays"]))
        elif kind == "shape":
            entry = draw(st.sampled_from(header["arrays"]))
            entry["shape"] = draw(st.lists(st.integers(-3, 10**10), max_size=3) | JSON_VALUES)
        else:
            path = draw(st.sampled_from(list(_paths(header))[1:]))
            parent = header
            for key in path[:-1]:
                parent = parent[key]
            if kind == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = draw(JSON_VALUES)
        return _with_header(blob, header)
    if kind == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    if kind == "append":
        return blob + draw(st.binary(min_size=1, max_size=24))
    position = draw(st.integers(0, len(blob) - 1))
    return blob[:position] + bytes([blob[position] ^ draw(st.integers(1, 255))]) + blob[position + 1:]


class TestArtifactManifest:
    @pytest.mark.parametrize("mutate", [
        lambda h: h.update(arrays=5),
        lambda h: h["arrays"][0].update(shape=[-3, -4]),
        lambda h: h["arrays"][0].update(shape="3,4"),
        lambda h: h["arrays"][0].update(shape=[3.0, 4]),
        lambda h: h["arrays"][0].pop("name"),
        lambda h: h["arrays"].append({"name": "extra", "shape": [1]}),
        lambda h: h["config"]["hidden"].append([10**9, "relu"]),
        lambda h: h["config"].update(input_dim=3.0),
        lambda h: h["config"].update(hidden=[[4]]),
        lambda h: h["config"].update(seed=-1),
        lambda h: h.update(metadata=[]),
        lambda h: h.pop("config"),
        lambda h: h["config"].update(width=4),
        lambda h: h["config"].update(input_dim="3"),
        lambda h: h["config"].update(use_batch_norm=1),
        lambda h: h["config"].update(dropout_rate="0.1"),
        lambda h: _swap_entries(h["arrays"], "bn_mean0", "bn_var0"),
        lambda h: h.update(note=1),
    ], ids=["arrays-int", "negative-shape", "string-shape", "float-shape", "no-name",
            "extra-array", "huge-layer", "float-input-dim", "short-hidden-spec",
            "negative-seed", "metadata-list", "no-config", "unknown-config-key",
            "string-input-dim", "int-batch-norm", "string-dropout", "swapped-manifest",
            "extra-header-key"])
    def test_malformed_header_is_format_error(self, mutate):
        blob, header = _artifact()
        mutate(header)
        with pytest.raises(FormatError):
            deserialize(_with_header(blob, header))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(mutated_artifacts())
    def test_only_format_error_escapes(self, blob):
        try:
            state, metadata = deserialize(blob)
        except FormatError:
            return
        # a mutation that kept the artifact well formed gives a state that round-trips
        again = serialize(state, metadata)
        assert serialize(*deserialize(again)) == again

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(mutated_artifacts())
    def test_accepts_only_what_the_oracle_accepts(self, blob):
        try:
            state, metadata = deserialize(blob)
        except FormatError:
            return
        want, want_metadata = oracle_deserialize(blob)
        assert state.config == want.config
        assert_same_bytes([state.params, state.stats], [want.params, want.stats])
        # as JSON text, so a NaN read twice compares equal
        assert json.dumps(metadata, sort_keys=True) == json.dumps(want_metadata, sort_keys=True)

    def test_payload_size_is_checked_before_allocation(self, monkeypatch):
        blob, header = _artifact()
        cfg = NetworkConfig.from_dict(header["config"])
        huge = replace(cfg, hidden=((10**9, "relu"),) + cfg.hidden[1:])
        # config and manifest agree on a 10**9-wide layer; the payload is the small one's
        header["config"] = huge.to_dict()
        header["arrays"] = [{"name": name, "shape": list(shape)} for name, shape in huge.layout]

        def refuse(*args, **kwargs):
            raise AssertionError("init ran before the payload size was checked")

        monkeypatch.setattr(network, "init", refuse)
        with pytest.raises(FormatError, match="payload bytes"):
            deserialize(_with_header(blob, header))

    def test_round_trip_of_the_fuzzed_artifact_is_bit_exact(self):
        blob, _ = _artifact()
        state, metadata = deserialize(blob)
        assert serialize(state, metadata) == blob

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(cfg=network_configs(), schema=schemas(), encoder=encoders())
    def test_serialize_deserialize_serialize_is_byte_exact(self, cfg, schema, encoder):
        state = init(cfg)
        for p in state.parameters():
            p += np.random.default_rng(cfg.seed).normal(size=p.shape)
        blob = serialize(state, {"schema": schema.to_dict(), "encoder": encoder.to_dict()})
        again, metadata = deserialize(blob)
        assert again.config == cfg
        assert serialize(again, metadata) == blob
        assert DatasetSchema.from_dict(metadata["schema"]) == schema
        assert EncoderState.from_dict(metadata["encoder"]) == encoder


class TestReproducibility:
    def test_train_forward_reproducible_with_seeded_rng(self):
        cfg = tiny_config(dropout_rate=0.3, use_batch_norm=True, seed=17)
        X = np.random.default_rng(10).normal(size=(12, 2))
        out = []
        for _ in range(2):
            state = init(cfg)
            probs, _ = forward(state, X, mode="train", rng=np.random.default_rng(99))
            out.append(probs)
        np.testing.assert_array_equal(out[0], out[1])


class TestModelStack:
    CFG = tiny_config(input_dim=4, hidden=((6, "relu"), (5, "leaky_relu")),
                      use_batch_norm=True, dropout_rate=0.25, seed=41)

    def step(self, state, X, dprobs, adam=None):
        """One train-mode forward, backward and Adam step; returns (probs, adam)."""
        adam = adam or init_adam(state, lr=0.01)
        probs, cache = forward(state, X, mode="train", rng=np.random.default_rng(7))
        adam_step(state, adam, backward(state, cache, dprobs))
        return probs, adam

    def test_init_stacks_identical_models(self):
        single, stack = init(self.CFG), init(self.CFG, models=3)
        assert single.models is None and stack.models == 3
        for i in range(3):
            assert serialize(stack[i]) == serialize(single)
        with pytest.raises(StateError):
            serialize(stack)

    def test_nan_slice_leaves_neighbours_bit_identical(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(10, 4))
        dprobs = rng.normal(size=10)
        stack = init(self.CFG, models=3)
        for w in stack.weights:
            w[2] *= 1.5  # slices 0 and 2 differ
            w[1] = np.nan
        singles = [stack[i].copy() for i in (0, 2)]

        probs, adam = self.step(stack, X, np.stack([dprobs] * 3))
        assert np.isnan(probs[1]).all()
        for (i, single) in zip((0, 2), singles):
            single_probs, single_adam = self.step(single, X, dprobs)
            np.testing.assert_array_equal(probs[i], single_probs)
            assert serialize(stack[i]) == serialize(single)
            for m, single_m in zip([adam[i].m, adam[i].v], [single_adam.m, single_adam.v]):
                np.testing.assert_array_equal(m, single_m)

    def test_sub_stack_selection_copies(self):
        stack = init(self.CFG, models=3)
        sub = stack[[0, 2]]
        assert sub.models == 2
        sub.weights[0][:] = 0.0
        assert np.all(stack.weights[0] != 0.0)


class TestEvalBlocks:
    """Eval mode runs its rows in blocks of EVAL_BLOCK_ROWS."""

    CFG = tiny_config(input_dim=5, hidden=((7, "leaky_relu"), (6, "relu")),
                      use_batch_norm=True, dropout_rate=0.1, seed=17)

    def distinct_state(self, models, seed=3):
        """A (stacked) state whose models differ and whose running stats are not identity."""
        state = init(self.CFG, models=models)
        rng = np.random.default_rng(seed)
        for arrays in (state.weights, state.biases, state.bn_scale, state.bn_shift,
                       state.bn_mean):
            for a in arrays:
                a += rng.normal(scale=0.5, size=a.shape)
        for v in state.bn_var:
            v *= rng.uniform(0.5, 2.0, size=v.shape)
        return state

    @pytest.mark.parametrize("models", [None, 2, 21])
    @pytest.mark.parametrize("n", [0, 1, EVAL_BLOCK_ROWS - 1, EVAL_BLOCK_ROWS,
                                   EVAL_BLOCK_ROWS + 1, 3 * EVAL_BLOCK_ROWS + 7])
    def test_blocked_eval_equals_per_block_forwards(self, models, n):
        state = self.distinct_state(models)
        X = np.random.default_rng(n).normal(size=(n, 5))
        probs, cache = forward(state, X, mode="eval")
        assert cache is None
        assert probs.shape == ((n,) if models is None else (models, n))
        # a block-sized input is one block, so these are the forwards of the blocks
        blocks = [forward(state, X[s : s + EVAL_BLOCK_ROWS])[0]
                  for s in range(0, n, EVAL_BLOCK_ROWS)]
        expected = np.concatenate(blocks, axis=-1) if blocks else np.empty(probs.shape)
        np.testing.assert_array_equal(probs, expected)
        # rows= gathers the same rows a block at a time
        order = np.random.default_rng(1).permutation(n)
        np.testing.assert_array_equal(forward(state, X, rows=order)[0],
                                      forward(state, X[order])[0])

    @pytest.mark.parametrize("models", [2, 21])
    def test_stacked_validation_equals_per_model_validation(self, models):
        state = self.distinct_state(models, seed=9)
        rng = np.random.default_rng(2)
        X = rng.normal(size=(3 * EVAL_BLOCK_ROWS, 5))
        val = rng.permutation(X.shape[0])[: 2 * EVAL_BLOCK_ROWS + 5]
        stacked, _ = forward(state, X, rows=val)
        for m in range(models):
            np.testing.assert_array_equal(stacked[m], forward(state[m], X, rows=val)[0])
            np.testing.assert_array_equal(stacked[m], forward(state[m], X[val])[0])

    def test_rows_must_be_one_dimensional(self):
        state = self.distinct_state(None)
        with pytest.raises(InputShapeError):
            forward(state, np.zeros((4, 5)), rows=np.zeros((2, 2), dtype=np.int64))

    def test_eval_memory_does_not_grow_with_rows(self):
        # the arch2 shape of the Adult runs; one unblocked pass would hold
        # several (n, 324) float64 arrays at once
        n = 20_000
        cfg = NetworkConfig(input_dim=102, hidden=((108, "leaky_relu"), (324, "leaky_relu")),
                            dropout_rate=0.1, use_batch_norm=True, seed=0)
        state = init(cfg)
        X = np.random.default_rng(0).normal(size=(n, 102))
        tracemalloc.start()
        try:
            probs, _ = forward(state, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert probs.shape == (n,)
        assert peak < n * 324 * 8 / 4
