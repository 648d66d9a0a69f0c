"""Forward/backward correctness, Adam behavior, and artifact round trips."""

import numpy as np
import pytest

from bpsfair.errors import ConfigError, FormatError, InputShapeError, StateError
from bpsfair.network import (
    LEAKY_SLOPE,
    NetworkConfig,
    adam_step,
    backward,
    deserialize,
    forward,
    init,
    init_adam,
    serialize,
)


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
            a = np.maximum(cache.layers[0]["z"], 0.0)
            acc += a * cache.layers[0]["mask"] / (1.0 - cfg.dropout_rate)
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
        for g in grads:
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
        analytic = backward(state, cache, coeffs * probs * 0.0 + coeffs)  # dL/dprobs = coeffs
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
        grads = backward(state, cache, np.ones(6))
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


class TestAdam:
    def test_first_step_magnitude(self):
        state = init(tiny_config(seed=2))
        adam = init_adam(state, lr=0.001)
        before = [p.copy() for p in state.parameters()]
        grads = [np.ones_like(p) for p in state.parameters()]
        adam_step(state, adam, grads)
        assert adam.t == 1
        for b, p in zip(before, state.parameters()):
            delta = p - b
            assert np.all(np.abs(delta + 0.001) < 1e-6)

    def test_zero_grads_keep_parameters(self):
        state = init(tiny_config(seed=2))
        adam = init_adam(state)
        before = [p.copy() for p in state.parameters()]
        adam_step(state, adam, [np.zeros_like(p) for p in state.parameters()])
        assert adam.t == 1
        for b, p in zip(before, state.parameters()):
            np.testing.assert_array_equal(b, p)

    def test_quadratic_bowl_descends(self):
        state = init(tiny_config(seed=6))
        adam = init_adam(state, lr=0.05)
        targets = [np.full_like(p, 0.7) for p in state.parameters()]

        def objective():
            return sum(float(((p - t) ** 2).sum()) for p, t in zip(state.parameters(), targets))

        values = [objective()]
        for _ in range(100):
            grads = [2.0 * (p - t) for p, t in zip(state.parameters(), targets)]
            adam_step(state, adam, grads)
            values.append(objective())
        assert all(a > b for a, b in zip(values[5:], values[6:]))
        assert values[-1] < values[0] * 0.01

    def test_shape_mismatch_rejected(self):
        state = init(tiny_config(seed=2))
        adam = init_adam(state)
        bad = [np.zeros_like(p) for p in state.parameters()]
        bad[0] = np.zeros((1, 1))
        with pytest.raises(StateError):
            adam_step(state, adam, bad)


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
            for m, single_m in zip(adam[i].m + adam[i].v, single_adam.m + single_adam.v):
                np.testing.assert_array_equal(m, single_m)

    def test_sub_stack_selection_copies(self):
        stack = init(self.CFG, models=3)
        sub = stack[[0, 2]]
        assert sub.models == 2
        sub.weights[0][:] = 0.0
        assert np.all(stack.weights[0] != 0.0)
