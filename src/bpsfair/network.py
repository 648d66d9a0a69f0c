"""Feed-forward binary classifier with manual backprop and Adam updates.

Layer order inside each hidden block is linear -> activation -> dropout
(train only, inverted scaling) -> batch norm.  The output layer is a
single logistic unit.  All math is float64 numpy; gradients are exact,
which the test suite verifies against central finite differences.

Every state array may carry a leading model axis of length M.  Such a
stack holds M models of one architecture that train in lockstep: they
share the minibatch and the dropout masks, and every operation acts on
each model separately, so a stacked step is bit-identical to M single
steps.  ``state[i]`` is model i as a plain single-model state.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, FormatError, InputShapeError, StateError

__all__ = [
    "NetworkConfig",
    "NetworkState",
    "AdamState",
    "ForwardCache",
    "init",
    "forward",
    "backward",
    "init_adam",
    "adam_step",
    "serialize",
    "deserialize",
    "save_model",
    "load_model",
]

LEAKY_SLOPE = 0.01
BN_EPS = 1e-5
BN_MOMENTUM = 0.9  # running = momentum * running + (1 - momentum) * batch
MAGIC = b"BPSFMODL"
FORMAT_VERSION = 1
_ACTIVATIONS = ("relu", "leaky_relu")


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture description; ``hidden`` is a sequence of (width, activation)."""

    input_dim: int
    hidden: tuple
    dropout_rate: float = 0.0
    use_batch_norm: bool = False
    seed: int = 0

    def __post_init__(self):
        hidden = tuple(
            (spec, "relu") if isinstance(spec, int) else (int(spec[0]), str(spec[1]))
            for spec in self.hidden
        )
        object.__setattr__(self, "hidden", hidden)
        if self.input_dim <= 0:
            raise ConfigError(f"input_dim must be positive, got {self.input_dim}")
        if not hidden:
            raise ConfigError("at least one hidden layer is required")
        for width, act in hidden:
            if width <= 0:
                raise ConfigError(f"hidden width must be positive, got {width}")
            if act not in _ACTIVATIONS:
                raise ConfigError(f"unknown activation {act!r}, expected one of {_ACTIVATIONS}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    @property
    def widths(self):
        return tuple(w for w, _ in self.hidden)


@dataclass
class NetworkState:
    """Weights, biases, and per-layer batch-norm parameters and running stats.

    A stack of M models puts a leading axis of length M on every array.
    """

    config: NetworkConfig
    weights: list  # one ([M,] fan_in, fan_out) matrix per layer, output last
    biases: list
    bn_scale: list  # per hidden layer; empty lists when batch norm is off
    bn_shift: list
    bn_mean: list
    bn_var: list

    def parameters(self):
        """Trainable arrays in canonical order (running stats excluded)."""
        params = []
        n_hidden = len(self.config.hidden)
        for l in range(n_hidden):
            params += [self.weights[l], self.biases[l]]
            if self.config.use_batch_norm:
                params += [self.bn_scale[l], self.bn_shift[l]]
        params += [self.weights[n_hidden], self.biases[n_hidden]]
        return params

    def copy(self) -> "NetworkState":
        return NetworkState(
            config=self.config,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            bn_scale=[g.copy() for g in self.bn_scale],
            bn_shift=[d.copy() for d in self.bn_shift],
            bn_mean=[m.copy() for m in self.bn_mean],
            bn_var=[v.copy() for v in self.bn_var],
        )

    @property
    def models(self) -> int | None:
        """Number of stacked models M, or None for a single model."""
        w = self.weights[0]
        return w.shape[0] if w.ndim == 3 else None

    def __getitem__(self, index) -> "NetworkState":
        """Model ``index`` of a stack as a single-model state of views.

        An index array or slice selects a smaller stack instead.
        """
        if self.models is None:
            raise StateError("only a stack of models can be indexed")
        return NetworkState(
            config=self.config,
            weights=[w[index] for w in self.weights],
            biases=[b[index] for b in self.biases],
            bn_scale=[g[index] for g in self.bn_scale],
            bn_shift=[d[index] for d in self.bn_shift],
            bn_mean=[m[index] for m in self.bn_mean],
            bn_var=[v[index] for v in self.bn_var],
        )


@dataclass
class ForwardCache:
    """Train-mode intermediates for one minibatch, consumed by backward()."""

    x: np.ndarray
    layers: list = field(default_factory=list)  # per hidden layer dicts
    final_in: np.ndarray | None = None
    probs: np.ndarray | None = None


@dataclass
class AdamState:
    """First/second moment accumulators plus hyperparameters."""

    m: list
    v: list
    t: int = 0
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __getitem__(self, index) -> "AdamState":
        """The moments of the stacked models selected by ``index``."""
        return replace(self, m=[m[index] for m in self.m], v=[v[index] for v in self.v])


def init(config: NetworkConfig, models: int | None = None) -> NetworkState:
    """Fresh state: weights ~ N(0, 2/fan_in), zero biases, identity batch norm.

    With ``models`` set, returns a stack of that many identical copies.
    """
    if models is not None and models < 1:
        raise ConfigError(f"models must be positive, got {models}")
    lead = () if models is None else (models,)
    rng = np.random.default_rng(config.seed)
    dims = [config.input_dim, *config.widths, 1]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
        weights.append(np.broadcast_to(w, lead + w.shape).copy())
        biases.append(np.zeros(lead + (fan_out,)))
    bn_scale, bn_shift, bn_mean, bn_var = [], [], [], []
    if config.use_batch_norm:
        for width in config.widths:
            bn_scale.append(np.ones(lead + (width,)))
            bn_shift.append(np.zeros(lead + (width,)))
            bn_mean.append(np.zeros(lead + (width,)))
            bn_var.append(np.ones(lead + (width,)))
    return NetworkState(config, weights, biases, bn_scale, bn_shift, bn_mean, bn_var)


def _activate(z, act):
    if act == "relu":
        return np.maximum(z, 0.0)
    # equals where(z > 0, z, slope * z) bit for bit, including -0.0, inf and NaN
    return np.maximum(z, LEAKY_SLOPE * z)


def _activate_grad(z, act):
    if act == "relu":
        return (z > 0.0).astype(np.float64)
    return np.where(z > 0.0, 1.0, LEAKY_SLOPE)


def _logistic(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _rows(v):
    """Per-unit vector ([M,] width) as a row that broadcasts over the batch axis."""
    return v[..., None, :]


def _t(a):
    """Transpose of the last two axes."""
    return np.swapaxes(a, -1, -2)


def forward(state: NetworkState, X, mode: str = "eval", rng=None, dropout_masks=None):
    """Run the network; returns (probs, cache) in train mode, (probs, None) in eval.

    ``probs`` has shape (n,) for a single model and (M, n) for a stack,
    whose models all see the same input rows.  Train mode samples fresh
    dropout masks of shape (n, width) from ``rng`` (or reuses
    ``dropout_masks``, one boolean array per hidden layer, which gradient
    checks rely on), shared by every stacked model, and updates
    batch-norm running statistics in place.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != state.config.input_dim:
        raise InputShapeError(
            f"expected input of shape (n, {state.config.input_dim}), got {X.shape}"
        )
    cfg = state.config
    train = mode == "train"
    p_drop = cfg.dropout_rate
    if train and p_drop > 0.0 and rng is None and dropout_masks is None:
        raise ConfigError("train-mode forward with dropout needs an rng (or fixed masks)")

    cache = ForwardCache(x=X) if train else None
    h = X
    for l, (width, act) in enumerate(cfg.hidden):
        z = h @ state.weights[l] + _rows(state.biases[l])
        a = _activate(z, act)
        mask = None
        if train and p_drop > 0.0:
            if dropout_masks is not None:
                mask = dropout_masks[l]
            else:
                mask = rng.random(a.shape[-2:]) >= p_drop
            a_dropped = a * mask / (1.0 - p_drop)
        else:
            a_dropped = a
        if cfg.use_batch_norm:
            if train:
                mu = a_dropped.mean(axis=-2, keepdims=True)
                var = a_dropped.var(axis=-2, keepdims=True)
                inv_std = 1.0 / np.sqrt(var + BN_EPS)
                xhat = (a_dropped - mu) * inv_std
                # in place, so views of a stack (state[i]) see the update
                state.bn_mean[l][...] = (BN_MOMENTUM * state.bn_mean[l]
                                         + (1 - BN_MOMENTUM) * mu[..., 0, :])
                state.bn_var[l][...] = (BN_MOMENTUM * state.bn_var[l]
                                        + (1 - BN_MOMENTUM) * var[..., 0, :])
            else:
                inv_std = 1.0 / np.sqrt(_rows(state.bn_var[l]) + BN_EPS)
                xhat = (a_dropped - _rows(state.bn_mean[l])) * inv_std
            out = _rows(state.bn_scale[l]) * xhat + _rows(state.bn_shift[l])
        else:
            xhat, inv_std, out = None, None, a_dropped
        if train:
            cache.layers.append(
                {"h_in": h, "z": z, "mask": mask, "xhat": xhat, "inv_std": inv_std}
            )
        h = out
    z_out = (h @ state.weights[-1] + _rows(state.biases[-1]))[..., 0]
    probs = np.clip(_logistic(z_out), 1e-12, 1.0 - 1e-12)
    if train:
        cache.final_in = h
        cache.probs = probs
    return probs, cache


def backward(state: NetworkState, cache: ForwardCache, dloss_dprobs):
    """Gradients of a scalar loss wrt every trainable parameter.

    ``dloss_dprobs`` is d(loss)/d(output probability) per sample, shaped
    like the forward's ``probs``; the chain through the logistic, batch
    norm (batch statistics), dropout masks, and activations is applied
    here.  Returns arrays in the order of ``state.parameters()``.
    """
    cfg = state.config
    dprobs = np.asarray(dloss_dprobs, dtype=np.float64)
    if cache is None or cache.probs is None:
        raise StateError("backward needs the cache from a train-mode forward")
    if dprobs.shape != cache.probs.shape:
        raise StateError(f"gradient shape {dprobs.shape} != output shape {cache.probs.shape}")
    if len(cache.layers) != len(cfg.hidden) or cache.x.shape[1] != cfg.input_dim:
        raise StateError("cache does not match this network's architecture")

    n = cache.x.shape[0]
    probs = cache.probs
    dz = (dprobs * probs * (1.0 - probs))[..., None]  # through the logistic
    grads_w = [None] * len(state.weights)
    grads_b = [None] * len(state.biases)
    grads_scale = [None] * len(state.bn_scale)
    grads_shift = [None] * len(state.bn_shift)

    grads_w[-1] = _t(cache.final_in) @ dz
    grads_b[-1] = dz.sum(axis=-2)
    dh = dz @ _t(state.weights[-1])

    for l in range(len(cfg.hidden) - 1, -1, -1):
        layer = cache.layers[l]
        _, act = cfg.hidden[l]
        if cfg.use_batch_norm:
            xhat, inv_std = layer["xhat"], layer["inv_std"]
            grads_scale[l] = (dh * xhat).sum(axis=-2)
            grads_shift[l] = dh.sum(axis=-2)
            dxhat = dh * _rows(state.bn_scale[l])
            # batch-statistics backward: mean and variance both depend on the batch
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
        dz = da * _activate_grad(layer["z"], act)
        grads_w[l] = _t(layer["h_in"]) @ dz
        grads_b[l] = dz.sum(axis=-2)
        if l:
            dh = dz @ _t(state.weights[l])

    grads = []
    for l in range(len(cfg.hidden)):
        grads += [grads_w[l], grads_b[l]]
        if cfg.use_batch_norm:
            grads += [grads_scale[l], grads_shift[l]]
    grads += [grads_w[-1], grads_b[-1]]
    return grads


def init_adam(state: NetworkState, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8) -> AdamState:
    params = state.parameters()
    return AdamState(
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
        t=0,
        lr=lr,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
    )


def adam_step(state: NetworkState, adam: AdamState, grads):
    """One bias-corrected Adam update, in place; returns (state, adam).

    Elementwise, so a stack of models takes one step per model at once.
    """
    params = state.parameters()
    if len(grads) != len(params):
        raise StateError(f"expected {len(params)} gradient arrays, got {len(grads)}")
    for p, g in zip(params, grads):
        if p.shape != np.shape(g):
            raise StateError(f"gradient shape {np.shape(g)} != parameter shape {p.shape}")
    adam.t += 1
    bc1 = 1.0 - adam.beta1 ** adam.t
    bc2 = 1.0 - adam.beta2 ** adam.t
    for i, (p, g) in enumerate(zip(params, grads)):
        adam.m[i] *= adam.beta1
        adam.m[i] += (1.0 - adam.beta1) * g
        adam.v[i] *= adam.beta2
        adam.v[i] += (1.0 - adam.beta2) * (g * g)
        p -= adam.lr * (adam.m[i] / bc1) / (np.sqrt(adam.v[i] / bc2) + adam.eps)
    return state, adam


def _state_arrays(state: NetworkState):
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


def serialize(state: NetworkState, encoder_metadata=None) -> bytes:
    """Pack state into the self-describing artifact format.

    Layout: 8-byte magic, little-endian uint32 format version, uint32
    JSON-header length, the UTF-8 JSON header (config, metadata, array
    manifest), then each array as raw little-endian float64 in manifest
    order.  Round-trips are bit-exact.  A stack is serialized one model
    at a time (``state[i]``).
    """
    if state.models is not None:
        raise StateError("serialize one model of a stack at a time")
    arrays = _state_arrays(state)
    cfg = state.config
    header = {
        "config": {
            "input_dim": cfg.input_dim,
            "hidden": [[w, a] for w, a in cfg.hidden],
            "dropout_rate": cfg.dropout_rate,
            "use_batch_norm": cfg.use_batch_norm,
            "seed": cfg.seed,
        },
        "metadata": encoder_metadata if encoder_metadata is not None else {},
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in arrays],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    buf = io.BytesIO()
    buf.write(MAGIC)
    buf.write(struct.pack("<II", FORMAT_VERSION, len(header_bytes)))
    buf.write(header_bytes)
    for _, arr in arrays:
        buf.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return buf.getvalue()


def deserialize(blob: bytes):
    """Unpack an artifact; returns (NetworkState, metadata dict)."""
    if len(blob) < len(MAGIC) + 8:
        raise FormatError("artifact too short for header")
    if blob[: len(MAGIC)] != MAGIC:
        raise FormatError("bad magic: not a model artifact")
    version, header_len = struct.unpack_from("<II", blob, len(MAGIC))
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported artifact version {version} (expected {FORMAT_VERSION})")
    offset = len(MAGIC) + 8
    if len(blob) < offset + header_len:
        raise FormatError("artifact truncated inside header")
    try:
        header = json.loads(blob[offset : offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"corrupt artifact header: {exc}")
    offset += header_len

    try:
        cfg_d = header["config"]
        config = NetworkConfig(
            input_dim=cfg_d["input_dim"],
            hidden=tuple((w, a) for w, a in cfg_d["hidden"]),
            dropout_rate=cfg_d["dropout_rate"],
            use_batch_norm=cfg_d["use_batch_norm"],
            seed=cfg_d["seed"],
        )
        manifest = header["arrays"]
        metadata = header["metadata"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"artifact header missing fields: {exc}")

    values = {}
    for entry in manifest:
        shape = tuple(entry["shape"])
        nbytes = 8 * int(np.prod(shape)) if shape else 8
        if len(blob) < offset + nbytes:
            raise FormatError(f"artifact truncated in array {entry['name']!r}")
        values[entry["name"]] = (
            np.frombuffer(blob, dtype="<f8", count=int(np.prod(shape)), offset=offset)
            .reshape(shape)
            .copy()
        )
        offset += nbytes
    if offset != len(blob):
        raise FormatError(f"{len(blob) - offset} trailing bytes after parameter payload")

    state = init(config)
    try:
        for name, arr in _state_arrays(state):
            np.copyto(arr, values[name])
    except KeyError as exc:
        raise FormatError(f"artifact missing array {exc}")
    except ValueError as exc:
        raise FormatError(f"artifact array shape mismatch: {exc}")
    return state, metadata


def save_model(path, state: NetworkState, encoder_metadata=None):
    with open(path, "wb") as fh:
        fh.write(serialize(state, encoder_metadata))


def load_model(path):
    with open(path, "rb") as fh:
        return deserialize(fh.read())
