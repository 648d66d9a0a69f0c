"""Feed-forward binary classifier with manual backprop and Adam updates.

Layer order inside each hidden block is linear -> activation -> dropout
(train only, inverted scaling) -> batch norm.  The output layer is a
single logistic unit.  All math is float64 numpy; gradients are exact,
which the test suite verifies against central finite differences.

A state keeps its trainable parameters in one flat ``([M,] P)`` buffer,
in ``parameters()`` order, and its batch-norm running statistics in a
second; the per-layer arrays are views into them.  ``backward`` returns
one gradient array of the parameter buffer's layout and ``adam_step``
updates the whole buffer with a fixed number of elementwise passes, so
selecting, copying and stepping a state cost one array operation each
whatever its depth.

Every state array may carry a leading model axis of length M.  Such a
stack holds M models of one architecture that train in lockstep: they
share the minibatch and the dropout masks, and every operation acts on
each model separately, so a stacked step is bit-identical to M single
steps.  ``state[i]`` is model i as a plain single-model state.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError, FormatError, InputShapeError, StateError
from .fields import FRACTION, NON_NEGATIVE_INT, POSITIVE_INT, Range, Record, typed

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
# Rows per eval-mode block.  A stack of M models holds M blocks of
# activations at once, so the block is small.  Measured on a 2-core x86
# host with OpenBLAS: 45,222 arch2 rows take the same time in blocks of
# 256, 512 or 1,024 rows and ~2x as long in one block; a 21-model stack of
# 16-wide layers scores 600 rows in 1.2 ms in blocks of 256, 2.5 ms in 1,024.
EVAL_BLOCK_ROWS = 256
MAGIC = b"BPSFMODL"
FORMAT_VERSION = 1
_ACTIVATIONS = ("relu", "leaky_relu")
# the kind of a hidden layer's activation, in NetworkConfig and the [network] reader
ACTIVATION = Range(str, f"one of {list(_ACTIVATIONS)}", _ACTIVATIONS.__contains__)
_BN_STATS = ("bn_mean", "bn_var")  # running statistics, not trained


@dataclass(frozen=True)
class NetworkConfig(Record):
    """Architecture description; ``hidden`` is a sequence of (width, activation).

    A bare integer in ``hidden`` is a ReLU layer of that width.
    """

    KINDS = {"input_dim": POSITIVE_INT, "hidden": list, "dropout_rate": FRACTION,
             "use_batch_norm": bool, "seed": NON_NEGATIVE_INT}
    SECTION = "config"

    input_dim: int
    hidden: tuple
    dropout_rate: float = 0.0  # stored as a float, as serialize writes it
    use_batch_norm: bool = False
    seed: int = 0

    def __post_init__(self):
        super().__post_init__()
        hidden = tuple(map(_layer_spec, self.hidden))
        object.__setattr__(self, "hidden", hidden)
        if not hidden:
            raise ConfigError("at least one hidden layer is required")

    @property
    def widths(self):
        return tuple(w for w, _ in self.hidden)

    @cached_property
    def layout(self) -> tuple:
        """(name, shape) of each state array, in artifact payload order.

        Per hidden layer ``W``, ``b`` and, with batch norm, ``bn_scale``,
        ``bn_shift``, ``bn_mean``, ``bn_var``; then the output ``W``, ``b``.
        """
        dims = [self.input_dim, *self.widths, 1]
        arrays = []
        for l, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
            arrays += [(f"W{l}", (fan_in, fan_out)), (f"b{l}", (fan_out,))]
            if self.use_batch_norm and l < len(self.hidden):
                arrays += [(f"{kind}{l}", (fan_out,))
                           for kind in ("bn_scale", "bn_shift", *_BN_STATS)]
        return tuple(arrays)

    @cached_property
    def param_shapes(self) -> tuple:
        """Shape of each trainable array, in ``NetworkState.parameters()`` order."""
        return tuple(shape for name, shape in self.layout if not name.startswith(_BN_STATS))

    @cached_property
    def stat_shapes(self) -> tuple:
        """Shape of each running statistic: bn_mean, then bn_var, per hidden layer."""
        return tuple(shape for name, shape in self.layout if name.startswith(_BN_STATS))


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _layer_spec(spec) -> tuple:
    """A ``hidden`` entry as (width, activation); a bare width is a ReLU layer."""
    if _is_int(spec):
        spec = spec, "relu"
    if not (isinstance(spec, (tuple, list)) and len(spec) == 2 and _is_int(spec[0])
            and isinstance(spec[1], str)):
        raise ConfigError(f"a hidden layer is a width or a (width, activation) pair, got {spec!r}")
    return (typed(POSITIVE_INT, spec[0], "hidden width"),
            typed(ACTIVATION, spec[1], "hidden activation"))


def _split(buf, shapes):
    """Views of ``buf``: consecutive runs of its last axis, each shaped ``([M,] *shape)``."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buf[..., start : start + size].reshape(buf.shape[:-1] + shape))
        start += size
    return views


def _by_kind(params, use_batch_norm):
    """(weights, biases, bn_scale, bn_shift) lists of arrays in ``parameters()`` order."""
    if not use_batch_norm:
        return params[0::2], params[1::2], [], []
    # four arrays per hidden layer; the output layer has only W and b
    return params[0::4], params[1::4], params[2::4], params[3::4]


@dataclass
class NetworkState:
    """Weights, biases, and per-layer batch-norm parameters and running stats.

    ``params`` holds every trainable array in ``parameters()`` order and
    ``stats`` each hidden layer's running mean and variance; the lists
    below are views into the two buffers, so writing an array writes its
    buffer.  A stack of M models puts a leading axis of length M on both
    buffers, and so on every view.
    """

    config: NetworkConfig
    params: np.ndarray  # ([M,] P) float64, unit stride along P
    stats: np.ndarray  # ([M,] S); S is 0 when batch norm is off
    # one ([M,] fan_in, fan_out) view per layer, output last
    weights: list = field(init=False, repr=False)
    biases: list = field(init=False, repr=False)
    bn_scale: list = field(init=False, repr=False)  # per hidden layer; empty without batch norm
    bn_shift: list = field(init=False, repr=False)
    bn_mean: list = field(init=False, repr=False)
    bn_var: list = field(init=False, repr=False)

    def __post_init__(self):
        self._params = self.split(self.params)
        self.weights, self.biases, self.bn_scale, self.bn_shift = _by_kind(
            self._params, self.config.use_batch_norm)
        stats = _split(self.stats, self.config.stat_shapes)
        self.bn_mean, self.bn_var = stats[0::2], stats[1::2]

    def parameters(self):
        """Trainable arrays in canonical order (running stats excluded)."""
        return list(self._params)

    def split(self, buf):
        """Views of a ``([M,] P)`` buffer laid out like ``params``, in ``parameters()`` order.

        ``state.split(backward(...))`` gives the gradient of each parameter array.
        """
        return _split(buf, self.config.param_shapes)

    def copy(self) -> "NetworkState":
        return NetworkState(self.config, self.params.copy(), self.stats.copy())

    @property
    def models(self) -> int | None:
        """Number of stacked models M, or None for a single model."""
        return self.params.shape[0] if self.params.ndim == 2 else None

    def __getitem__(self, index) -> "NetworkState":
        """Model ``index`` of a stack as a single-model state of views.

        An index array or slice selects a smaller stack instead.
        """
        if self.models is None:
            raise StateError("only a stack of models can be indexed")
        return NetworkState(self.config, self.params[index], self.stats[index])


@dataclass
class ForwardCache:
    """Train-mode intermediates for one minibatch, consumed by backward()."""

    x: np.ndarray
    layers: list = field(default_factory=list)  # per hidden layer dicts
    final_in: np.ndarray | None = None
    probs: np.ndarray | None = None


@dataclass
class AdamState:
    """First/second moments, laid out like ``NetworkState.params``, plus hyperparameters."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    # two buffers shaped like m that every step reuses
    scratch: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

    def __getitem__(self, index) -> "AdamState":
        """The moments of the stacked models selected by ``index``."""
        return replace(self, m=self.m[index], v=self.v[index])


def init(config: NetworkConfig, models: int | None = None) -> NetworkState:
    """Fresh state: weights ~ N(0, 2/fan_in), zero biases, identity batch norm.

    With ``models`` set, returns a stack of that many identical copies.
    """
    lead = () if models is None else (typed(POSITIVE_INT, models, "models"),)
    sizes = [sum(map(math.prod, shapes))
             for shapes in (config.param_shapes, config.stat_shapes)]
    state = NetworkState(config, np.zeros(lead + (sizes[0],)), np.zeros(lead + (sizes[1],)))
    rng = np.random.default_rng(config.seed)
    for w in state.weights:
        fan_in, fan_out = w.shape[-2:]
        w[...] = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out))
    for ones in state.bn_scale + state.bn_var:
        ones[...] = 1.0
    return state


def _activate(z, act, scratch=None):
    """The activation of z, written into z; a leaky ReLU may use ``scratch``, shaped as z."""
    if act == "relu":
        return np.maximum(z, 0.0, out=z)
    # equals where(z > 0, z, slope * z) bit for bit, including -0.0, inf and NaN
    return np.maximum(z, np.multiply(z, LEAKY_SLOPE, out=scratch), out=z)


def _activate_grad(dh, positive, act, scratch=None):
    """dh times the activation's derivative, in place, from the positive pre-activation mask.

    A leaky ReLU builds its slopes in ``scratch``, shaped as dh, if given.
    """
    if act == "relu":
        dh *= positive  # the bool mask multiplies as exactly 0.0 / 1.0
        return dh
    # exactly {1.0, LEAKY_SLOPE}, without where()'s select on a random mask
    slope = np.multiply(positive, 1.0 - LEAKY_SLOPE, out=scratch)
    slope += LEAKY_SLOPE
    dh *= slope
    return dh


def _logistic(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _rows(v):
    """Per-unit vector ([M,] width) as a row that broadcasts over the batch axis."""
    return v[..., None, :]


def _t(a):
    """Transpose of the last two axes."""
    return np.swapaxes(a, -1, -2)


def _rank1_matmul(a, b):
    """``a @ b^T`` for ``a`` (..., n, 1) and ``b`` (..., k, 1), as an outer product.

    The matmul adds each product to 0.0, which turns -0.0 into +0.0, and
    einsum accumulates each product into a zeroed output, which does the
    same, so the result is the matmul's bit for bit.
    """
    return np.einsum("...i,...j->...ij", a[..., 0], b[..., 0])


def _row_sum(a, out):
    """``a.sum(axis=-2)``, bit for bit, written into ``out``.

    einsum adds the rows in sum()'s order, one row at a time, at a fraction
    of the reduction's cost at small widths.  Over a width-1 column sum()
    is pairwise instead, so that case stays a sum.
    """
    if a.shape[-1] == 1:
        return np.sum(a, axis=-2, out=out)
    return np.einsum("...ij->...j", a, out=out)


def forward(state: NetworkState, X, mode: str = "eval", rng=None, dropout_masks=None, rows=None):
    """Run the network; returns (probs, cache) in train mode, (probs, None) in eval.

    ``probs`` has shape (n,) for a single model and (M, n) for a stack,
    whose models all see the same input rows.  ``rows``, if given, are
    the indices of the rows of X to run, in order (X[rows] without the
    copy).  Train mode samples fresh dropout masks of shape (n, width)
    from ``rng`` (or reuses ``dropout_masks``, one boolean array per
    hidden layer, which gradient checks rely on), shared by every stacked
    model, and updates batch-norm running statistics in place.

    Eval mode runs the rows in blocks of EVAL_BLOCK_ROWS, gathering each
    block's rows as it goes, so its memory does not grow with n beyond
    the ([M,] n) output.  A row's probability depends on its block only
    through BLAS, whose products can differ in the last bit between
    matrices of different heights.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be 'train' or 'eval', got {mode!r}")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != state.config.input_dim:
        raise InputShapeError(
            f"expected input of shape (n, {state.config.input_dim}), got {X.shape}"
        )
    if rows is not None:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 1:
            raise InputShapeError(f"rows must be a 1-D index array, got shape {rows.shape}")
    if mode == "train":
        if state.config.dropout_rate > 0.0 and rng is None and dropout_masks is None:
            raise ConfigError("train-mode forward with dropout needs an rng (or fixed masks)")
        return _forward_rows(state, X if rows is None else X[rows], True, rng, dropout_masks)

    n = X.shape[0] if rows is None else rows.size
    lead = () if state.models is None else (state.models,)
    probs = np.empty(lead + (n,))
    for start in range(0, n, EVAL_BLOCK_ROWS):
        block = slice(start, start + EVAL_BLOCK_ROWS)
        x = X[block] if rows is None else X[rows[block]]
        probs[..., block] = _forward_rows(state, x, False, None, None)[0]
    return probs, None


def _forward_rows(state: NetworkState, X, train: bool, rng, dropout_masks):
    """forward() on all of X at once, after its checks."""
    cfg = state.config
    p_drop = cfg.dropout_rate
    cache = ForwardCache(x=X) if train else None
    h = X
    for l, (width, act) in enumerate(cfg.hidden):
        # a is one fresh array that every elementwise step below updates in place;
        # in a train step the temporaries go to one scratch array shaped as a
        a = h @ state.weights[l]
        a += _rows(state.biases[l])
        positive = a > 0.0 if train else None
        scratch = None
        if train and (act != "relu" or p_drop > 0.0 or cfg.use_batch_norm):
            scratch = np.empty_like(a)
        _activate(a, act, scratch)
        mask = None
        if train and p_drop > 0.0:
            if dropout_masks is not None:
                mask = dropout_masks[l]
            else:  # the (n, width) draw, into the first rows of scratch
                mask = rng.random(out=scratch.reshape(-1, width)[:a.shape[-2]]) >= p_drop
            a *= mask
            a /= 1.0 - p_drop
        xhat, inv_std = None, None
        if cfg.use_batch_norm:
            if train:
                mu = a.mean(axis=-2, keepdims=True)
                a -= mu
                # np.var's own steps, sharing a - mu with xhat
                var = np.multiply(a, a, out=scratch).sum(axis=-2, keepdims=True) / a.shape[-2]
                inv_std = 1.0 / np.sqrt(var + BN_EPS)
                a *= inv_std
                xhat = a
                a = np.multiply(xhat, _rows(state.bn_scale[l]), out=scratch)
                # in place, so views of a stack (state[i]) see the update
                state.bn_mean[l][...] = (BN_MOMENTUM * state.bn_mean[l]
                                         + (1 - BN_MOMENTUM) * mu[..., 0, :])
                state.bn_var[l][...] = (BN_MOMENTUM * state.bn_var[l]
                                        + (1 - BN_MOMENTUM) * var[..., 0, :])
            else:
                a -= _rows(state.bn_mean[l])
                a *= 1.0 / np.sqrt(_rows(state.bn_var[l]) + BN_EPS)
                a *= _rows(state.bn_scale[l])
            a += _rows(state.bn_shift[l])
        if train:
            cache.layers.append(
                {"h_in": h, "positive": positive, "mask": mask, "xhat": xhat, "inv_std": inv_std}
            )
        h = a
    z_out = (h @ state.weights[-1] + _rows(state.biases[-1]))[..., 0]
    probs = np.clip(_logistic(z_out), 1e-12, 1.0 - 1e-12)
    if train:
        cache.final_in = h
        cache.probs = probs
    return probs, cache


def backward(state: NetworkState, cache: ForwardCache, dloss_dprobs):
    """Gradient of a scalar loss wrt every trainable parameter.

    ``dloss_dprobs`` is d(loss)/d(output probability) per sample, shaped
    like the forward's ``probs``; the chain through the logistic, batch
    norm (batch statistics), dropout masks, and activations is applied
    here.  Returns one fresh ``([M,] P)`` array laid out like
    ``state.params``; ``state.split`` gives its per-parameter views.
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
    grads = np.empty(state.params.shape)
    # each gradient is written straight into its slot of grads
    grads_w, grads_b, grads_scale, grads_shift = _by_kind(state.split(grads),
                                                          cfg.use_batch_norm)

    np.matmul(_t(cache.final_in), dz, out=grads_w[-1])
    _row_sum(dz, grads_b[-1])
    dh = _rank1_matmul(dz, state.weights[-1])

    for l in range(len(cfg.hidden) - 1, -1, -1):
        # dh is a fresh array that every elementwise step below updates in
        # place, in the operation order of the allocating chain, so the bits hold
        layer = cache.layers[l]
        _, act = cfg.hidden[l]
        scratch = None
        if cfg.use_batch_norm:
            xhat, inv_std = layer["xhat"], layer["inv_std"]
            scratch = dh * xhat
            _row_sum(scratch, grads_scale[l])
            _row_sum(dh, grads_shift[l])
            dh *= _rows(state.bn_scale[l])  # dxhat
            # batch-statistics backward: mean and variance both depend on the batch,
            # du = (inv_std / n) * (n * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat))
            sum_dxhat = dh.sum(axis=-2, keepdims=True)
            sum_dxhat_xhat = np.multiply(dh, xhat, out=scratch).sum(axis=-2, keepdims=True)
            dh *= n
            dh -= sum_dxhat
            dh -= np.multiply(xhat, sum_dxhat_xhat, out=scratch)
            dh *= inv_std / n
        if layer["mask"] is not None:
            dh *= layer["mask"]
            dh /= 1.0 - cfg.dropout_rate
        _activate_grad(dh, layer["positive"], act, scratch)
        np.matmul(_t(layer["h_in"]), dh, out=grads_w[l])
        _row_sum(dh, grads_b[l])
        if l:
            dh = dh @ _t(state.weights[l])
    return grads


def init_adam(state: NetworkState, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8) -> AdamState:
    return AdamState(m=np.zeros(state.params.shape), v=np.zeros(state.params.shape),
                     t=0, lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(state: NetworkState, adam: AdamState, grads):
    """One bias-corrected Adam update, in place; returns (state, adam).

    ``grads`` is ``backward``'s ``([M,] P)`` array.  The update is 14
    elementwise passes over the whole stack, through the two scratch
    buffers, in the operation order of ``m = b1*m + (1-b1)*g;
    v = b2*v + (1-b2)*(g*g); p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)``, so
    each model's step is bit-identical to its step alone.
    """
    params = state.params
    if not isinstance(grads, np.ndarray) or grads.shape != params.shape:
        raise StateError(f"expected one gradient array of shape {params.shape}, "
                         f"got {getattr(grads, 'shape', type(grads).__name__)}")
    adam.t += 1
    bc1 = 1.0 - adam.beta1 ** adam.t
    bc2 = 1.0 - adam.beta2 ** adam.t
    m, v, (a, b) = adam.m, adam.v, adam.scratch
    m *= adam.beta1
    m += np.multiply(grads, 1.0 - adam.beta1, out=a)
    v *= adam.beta2
    np.multiply(grads, grads, out=a)
    a *= 1.0 - adam.beta2
    v += a
    np.divide(v, bc2, out=a)
    np.sqrt(a, out=a)
    a += adam.eps
    np.divide(m, bc1, out=b)
    b *= adam.lr
    b /= a
    params -= b
    return state, adam


def _layout_arrays(state: NetworkState):
    """The state's arrays in ``config.layout`` order."""
    params, stats = iter(state.parameters()), iter(_split(state.stats, state.config.stat_shapes))
    return [next(stats if name.startswith(_BN_STATS) else params)
            for name, _ in state.config.layout]


def _header(config: NetworkConfig, metadata) -> str:
    """The JSON header ``serialize`` writes: config, metadata and the layout as manifest."""
    manifest = [{"name": name, "shape": list(shape)} for name, shape in config.layout]
    return json.dumps({"config": config.to_dict(), "metadata": metadata, "arrays": manifest},
                      sort_keys=True)


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
    header = _header(state.config, encoder_metadata if encoder_metadata is not None else {})
    header_bytes = header.encode("utf-8")
    return b"".join([MAGIC, struct.pack("<II", FORMAT_VERSION, len(header_bytes)), header_bytes,
                     *(np.ascontiguousarray(arr, dtype="<f8").tobytes()
                       for arr in _layout_arrays(state))])


def deserialize(blob: bytes):
    """Unpack an artifact; returns (NetworkState, metadata dict).

    One rule: the header, dumped again with ``json.dumps(..., sort_keys=True)``,
    is the header ``serialize`` writes for its config and metadata, and the
    payload is the config's layout as float64s, exactly.  The payload size
    is checked before any state is allocated.  Any other artifact raises
    FormatError.
    """
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
    except (ValueError, RecursionError) as exc:  # a decode error is a ValueError
        raise FormatError(f"corrupt artifact header: {exc}")
    offset += header_len
    if not (isinstance(header, dict) and isinstance(header.get("metadata"), dict)):
        raise FormatError("artifact header needs a metadata mapping")
    try:
        config = NetworkConfig.from_dict(header.get("config"))
    except ConfigError as exc:
        raise FormatError(f"artifact config invalid: {exc}") from None
    metadata = header["metadata"]
    if json.dumps(header, sort_keys=True) != _header(config, metadata):
        raise FormatError("artifact header is not as serialize writes it: a key, value or "
                          "manifest entry differs from the header of its config")
    sizes = [math.prod(shape) for _, shape in config.layout]
    needed, payload = 8 * sum(sizes), len(blob) - offset
    if payload != needed:  # so init below allocates no more than the payload holds
        raise FormatError(f"the architecture needs {needed} payload bytes, the artifact "
                          f"holds {payload}: truncated or trailing bytes")
    state = init(config)
    for arr, size in zip(_layout_arrays(state), sizes):
        arr[...] = np.frombuffer(blob, dtype="<f8", count=size, offset=offset).reshape(arr.shape)
        offset += 8 * size
    return state, metadata


def save_model(path, state: NetworkState, encoder_metadata=None):
    with open(path, "wb") as fh:
        fh.write(serialize(state, encoder_metadata))


def load_model(path):
    with open(path, "rb") as fh:
        return deserialize(fh.read())
