"""Minimal CNN engine: forward, backward, RMSProp, and the 13x26 emotion model.

Tensors are numpy arrays in NHWC layout.  A pass computes in the dtype of the
parameters, so a CNN runs in the dtype it was trained in: `train()` runs in,
and leaves the parameters in, `TrainConfig.dtype` (float32 by default; float64
is the API-only oracle), and `load_cnn` gives a checkpoint's float32 values.
The softmax and the loss always run in float64, and dropout draws float64
uniforms, so both dtypes see the same masks.

The layer set is fixed: 3x3 convolutions (same or valid padding), 2x2 max
pooling, inverted dropout, flatten, dense, with ReLU hidden activations and a
softmax head trained by categorical cross-entropy.  Each layer type is defined
in one spec class (its output shape, parameter shapes, forward and backward
step, checkpoint name and fields); shape inference, parameter counts, init,
the passes and checkpoints loop over the specs.

The reference 13x26 model:

    Conv2D(32, same) -> Conv2D(32, valid) -> MaxPool -> Dropout(0.25)
    -> Conv2D(64, same) -> Conv2D(64, valid) -> MaxPool -> Dropout(0.25)
    -> Flatten -> Dense(512) -> Dropout(0.5) -> Dense(8, softmax)

which on a (13, 26, 1) input produces 233,448 trainable parameters.

Rows: a pass computes only the conv output rows that a later layer reads.
Max pooling drops an odd last row, as Keras' valid pooling does (11 -> 5
after conv2, 3 -> 1 after conv4), so those rows, and the conv1 and conv3
rows that feed only them, would be computed, activated and back-propagated
for nothing: their gradient is exact zeros.  `row_plan` walks the specs back
from the output, asking each which rows of its input it reads, and gives
conv1-conv4 12 of 13, 10 of 11, 4 of 5 and 2 of 3 rows on the reference
model.  A dropout layer reads every row, since its mask's shape fixes how
many uniforms it draws.  Declared shapes, parameters and checkpoints do not
change; a conv's output and cache are shorter than its declared shape.

Memory: ReLU works in place and backward reads its mask off the output; the
first layer with parameters computes no input gradient.  Max pooling
compares strided views in place of copying windows.  `predict_proba` runs
blocks of 16 windows, so inference of any length holds one block's
activations at a time.

Determinism: weight init, shuffling and dropout all draw from seeded PCG64
generators in a fixed single-threaded order, so identical seeds reproduce
identical training histories bit for bit, in either dtype.  A pass is in
train mode exactly when given a generator, so two seeded alike give bit-equal
passes (`gradient_check` seeds one per loss evaluation).  The block size of
`predict_proba` is a GEMM row count, and a BLAS may round the last bit
differently for another row count, so it is a constant: predictions are
reproducible bit for bit, and agree to the dtype's rounding with a pass over
any other number of windows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .container import ByType, read_model, write_model
from .dataset import N_CLASSES
from .errors import ConfigError, DataError, FormatError, NumericalError
from .features import PIPELINE_RECORD

CNN_MAGIC = b"EMOCNN\x00\x00"
CNN_VERSION = 1

PROB_FLOOR = 1e-12
PREDICT_BLOCK = 16   # windows per predict_proba pass (see Determinism)
KERNEL = 3   # every convolution is KERNEL x KERNEL

# RMSProp: lr_t = lr / (1 + DECAY * t), accumulator decay RHO, and EPSILON
# added to the root of the accumulator
DECAY = 1e-6
RHO = 0.9
EPSILON = 1e-7


# ---------------------------------------------------------------------------
# Layer specs
# ---------------------------------------------------------------------------
#
# Each spec class is the one place that knows its layer type: `kind` (its
# name in checkpoints and the audit table), `out_shape`, `param_shapes`
# ({} for parameterless layers), `rows_read` (the input rows it reads, for
# `row_plan`), and one `forward` / `backward` step.  The steps call the
# primitive ops below by module-global name at call time; `forward` takes
# the pass's dropout generator, None in infer mode, and its row count.

class _Layer:
    """Defaults for a layer that has no parameters, keeps its input shape and
    reads every row of its input.

    `header` is the schema of its fields in a checkpoint (see `container`).
    `forward(x, p, rng, rows)` computes the first `rows` rows of the
    output (None: all), which only a convolution can do with fewer rows.
    `backward(d, cache, need_dx)` returns (input gradient, parameter
    gradients); need_dx is False only for the first layer with parameters,
    whose input gradient nothing reads.
    """

    header = {}

    def out_shape(self, shape):
        return shape

    def param_shapes(self, shape):
        return {}

    def rows_read(self, rows, shape):
        """Rows of an input shaped `shape` that the layer reads when later
        layers read the first `rows` rows of its output (None: all)."""
        return None


# A ReLU is applied in place: the pre-activation output and the incoming
# gradient belong to the layer and nothing reads them afterwards.

@dataclass(frozen=True)
class Conv2D(_Layer):
    """KERNEL x KERNEL convolution followed by a ReLU."""

    filters: int
    padding: str = "same"        # "same" | "valid"

    kind = "conv2d"
    header = {"filters": int, "padding": {"same", "valid"}}

    def out_shape(self, shape):
        h, w, _ = shape
        if self.padding == "valid":
            h, w = h - KERNEL + 1, w - KERNEL + 1
        if h < 1 or w < 1:
            raise ConfigError(f"conv output collapsed to {h}x{w}")
        return (h, w, self.filters)

    def param_shapes(self, shape):
        return {"W": (KERNEL, KERNEL, shape[-1], self.filters),
                "b": (self.filters,)}

    def rows_read(self, rows, shape):
        if rows is None:
            return None
        if self.padding == "valid":
            return rows + KERNEL - 1
        return min(shape[0], rows + (KERNEL - 1) // 2)

    def forward(self, x, p, rng, rows):
        x, cache = conv2d_forward(x, p["W"], p["b"], self.padding, rows=rows)
        x, relu_out = relu_forward(x, out=x)
        return x, (cache, relu_out)

    def backward(self, d, cache, need_dx):
        conv_cache, relu_out = cache
        d, dW, db = conv2d_backward(relu_backward(d, relu_out, out=d),
                                    conv_cache, need_dx=need_dx)
        return d, {"W": dW, "b": db}


@dataclass(frozen=True)
class MaxPool2D(_Layer):
    size: int = 2

    kind = "max_pooling2d"
    header = {"size": int}

    def out_shape(self, shape):
        h, w, c = shape
        if not 0 < self.size <= min(h, w):
            raise ConfigError(f"{h}x{w} too small for {self.size}x{self.size} pool")
        return (h // self.size, w // self.size, c)

    def rows_read(self, rows, shape):
        # never the rows past the last whole window
        return self.size * (shape[0] // self.size if rows is None else rows)

    def forward(self, x, p, rng, rows):
        return maxpool2d_forward(x, self.size)

    def backward(self, d, cache, need_dx):
        return maxpool2d_backward(d, cache), None


@dataclass(frozen=True)
class DropoutSpec(_Layer):
    """Reads every row: the mask's shape fixes how many uniforms it draws,
    so a shorter input would shift every later mask."""

    rate: float

    kind = "dropout"
    header = {"rate": float}

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ConfigError(f"dropout rate {self.rate} outside [0, 1)")

    def forward(self, x, p, rng, rows):
        return dropout_forward(x, self.rate, rng)

    def backward(self, d, mask, need_dx):
        return dropout_backward(d, mask, self.rate), None


@dataclass(frozen=True)
class FlattenSpec(_Layer):
    kind = "flatten"

    def out_shape(self, shape):
        return (int(np.prod(shape)),)

    def forward(self, x, p, rng, rows):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, d, x_shape, need_dx):
        return d.reshape(x_shape), None


@dataclass(frozen=True)
class Dense(_Layer):
    units: int
    activation: str = "relu"     # "relu" | "softmax"

    kind = "dense"
    header = {"units": int, "activation": {"relu", "softmax"}}

    def __post_init__(self):   # what load_cnn would refuse is not built
        if self.activation not in self.header["activation"]:
            raise ConfigError(f"dense activation must be relu or softmax, "
                              f"got {self.activation!r}")

    def out_shape(self, shape):
        if len(shape) != 1:
            raise ConfigError("dense layer needs flattened input")
        return (self.units,)

    def param_shapes(self, shape):
        return {"W": (shape[0], self.units), "b": (self.units,)}

    def forward(self, x, p, rng, rows):
        x, cache = dense_forward(x, p["W"], p["b"])
        x, relu_out = (relu_forward(x, out=x) if self.activation == "relu"
                       else (x, None))
        return x, (cache, relu_out)

    def backward(self, d, cache, need_dx):
        dense_cache, relu_out = cache
        if relu_out is not None:
            d = relu_backward(d, relu_out, out=d)
        d, dW, db = dense_backward(d, dense_cache, need_dx=need_dx)
        return d, {"W": dW, "b": db}


_LAYER_TYPES = {cls.kind: cls for cls in (Conv2D, MaxPool2D, DropoutSpec,
                                          FlattenSpec, Dense)}


# ---------------------------------------------------------------------------
# Primitive ops
# ---------------------------------------------------------------------------
#
# Each output takes the dtype of the tensor it is computed from, so one code
# path serves float32 and float64.

def conv2d_forward(x, W, b, padding="same", rows=None):
    """Cross-correlation plus bias.  x: (N,H,W,Cin), W: (k,k,Cin,Cout).

    same-padding pads symmetrically with zeros (odd kernels only); valid
    shrinks each spatial dim by k-1.  With `rows`, only the first `rows`
    output rows are computed, from the padded input's first rows + k - 1.
    """
    k = W.shape[0]
    n, h, w, cin = x.shape
    if W.shape[2] != cin:
        raise ValueError(f"channel mismatch: input {cin}, kernel {W.shape[2]}")
    if padding == "same":
        p = (k - 1) // 2
        xp = np.empty((n, h + 2 * p, w + 2 * p, cin), x.dtype)
        xp[:, :p] = 0.0
        xp[:, p + h:] = 0.0
        xp[:, :, :p] = 0.0
        xp[:, :, p + w:] = 0.0
        xp[:, p:p + h, p:p + w] = x
    elif padding == "valid":
        xp = x
    else:
        raise ValueError(f"unknown padding {padding!r}")
    ho, wo = xp.shape[1] - k + 1, xp.shape[2] - k + 1
    if ho < 1 or wo < 1:
        raise ValueError(f"input {x.shape[1:3]} too small for {k}x{k} valid conv")
    if rows is not None:
        if not 0 < rows <= ho:
            raise ValueError(f"cannot compute {rows} of {ho} output rows")
        ho = rows
    s0, s1, s2, s3 = xp.strides   # each output pixel's k x k x cin patch
    win = as_strided(xp, (n, ho, wo, k, k, cin), (s0, s1, s2, s1, s2, s3))
    cols = np.empty((n * ho * wo, k * k * cin), x.dtype)
    np.copyto(cols.reshape(n, ho, wo, k, k, cin), win)
    out = np.empty((n, ho, wo, W.shape[3]), x.dtype)
    np.matmul(cols, W.reshape(k * k * cin, -1), out=out.reshape(n * ho * wo, -1))
    out += b
    cache = (cols, x.shape, xp.shape, W, padding)
    return out, cache


def conv2d_backward(dout, cache, need_dx=True):
    """(dx, dW, db); dx is None when need_dx is False.

    dx accumulates one (N*ho*wo, Cout) @ W[di, dj]^T GEMM per kernel tap into
    the padded gradient, taps in row-major order.
    """
    cols, x_shape, xp_shape, W, padding = cache
    k = W.shape[0]
    n, ho, wo, cout = dout.shape
    cin = W.shape[2]
    dflat = dout.reshape(n * ho * wo, cout)
    dW = (dflat.T @ cols).T.reshape(W.shape)
    db = dflat.sum(axis=0)
    if not need_dx:
        return None, dW, db
    dxp = np.zeros(xp_shape, dout.dtype)
    tap = np.empty((n * ho * wo, cin), dout.dtype)
    for di in range(k):
        for dj in range(k):
            np.matmul(dflat, W[di, dj].T, out=tap)
            dxp[:, di:di + ho, dj:dj + wo, :] += tap.reshape(n, ho, wo, cin)
    if padding == "same":
        p = (k - 1) // 2
        dx = dxp[:, p:p + x_shape[1], p:p + x_shape[2], :]
    else:
        dx = dxp
    return dx, dW, db


def _pool_views(a, size, ho, wo):
    """The size*size strided views a[:, di::size, dj::size] cut to ho x wo,
    listed by window position k = di*size + dj (row-major)."""
    return [a[:, di:ho * size:size, dj:wo * size:size]
            for di in range(size) for dj in range(size)]


def maxpool2d_forward(x, size=2):
    """Non-overlapping size x size max; trailing odd rows/cols are dropped.

    Compare-and-select over the window positions: view k replaces the running
    max where it is larger, and sets the index to k where it is strictly
    larger.  Positions come in increasing k, so idx is the row-major position
    of the first maximum in each window, as np.argmax over the window gives.
    """
    n, h, w, c = x.shape
    if h < size or w < size:
        raise ValueError(f"input {x.shape[1:3]} too small for {size}x{size} pooling")
    ho, wo = h // size, w // size
    shape = (n, ho, wo, c)
    out = np.empty(shape, x.dtype)
    idx = np.zeros(shape, np.min_scalar_type(size * size - 1))
    greater = np.empty(shape, bool)
    k_where = np.empty(shape, idx.dtype)
    first, *rest = _pool_views(x, size, ho, wo)
    np.copyto(out, first)
    for k, view in enumerate(rest, start=1):
        np.greater(view, out, out=greater)
        np.maximum(out, view, out=out)
        # k exceeds every index set so far, so the max keeps idx where
        # greater is False and sets k where it is True
        np.multiply(greater, idx.dtype.type(k), out=k_where)
        np.maximum(idx, k_where, out=idx)
    return out, (idx, x.shape, size)


def maxpool2d_backward(dout, cache):
    """Route each window's gradient to its argmax; other inputs get 0."""
    idx, x_shape, size = cache
    n, h, w, c = x_shape
    ho, wo = h // size, w // size
    dx = np.empty(x_shape, dout.dtype)
    dx[:, ho * size:] = 0.0
    dx[:, :, wo * size:] = 0.0
    hit = np.empty(idx.shape, bool)
    for k, view in enumerate(_pool_views(dx, size, ho, wo)):
        np.equal(idx, k, out=hit)
        np.multiply(dout, hit, out=view)
    return dx


def dense_forward(x, W, b):
    if x.shape[1] != W.shape[0]:
        raise ValueError(f"dense input dim {x.shape[1]} != weight rows {W.shape[0]}")
    out = x @ W
    out += b
    return out, (x, W)


def dense_backward(dout, cache, need_dx=True):
    """(dx, dW, db); dx is None when need_dx is False."""
    x, W = cache
    dx = dout @ W.T if need_dx else None
    return dx, x.T @ dout, dout.sum(axis=0)


def relu_forward(x, out=None):
    """max(0, x) and its cache, the output itself; out=x works in place."""
    y = np.maximum(0.0, x, out=out)
    return y, y


def relu_backward(dout, y, out=None):
    return np.multiply(dout, y > 0, out=out)


def dropout_forward(x, rate, rng=None):
    """Inverted dropout: zero with prob rate, scale survivors by 1/(1-rate).

    Returns (output, mask).  Without a generator (infer mode) this is the
    identity and the mask is None.  The mask is drawn from rng as float64
    uniforms whatever x's dtype, so a generator in a given state gives the
    same mask in float32 and float64.
    """
    if rng is None or rate == 0.0:
        return x, None
    mask = rng.random(x.shape) >= rate
    out = x * mask
    out /= 1.0 - rate
    return out, mask


def dropout_backward(dout, mask, rate):
    if mask is None:
        return dout
    d = dout * mask
    d /= 1.0 - rate
    return d


def softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_loss(probs, labels):
    """Mean over the batch of -ln p_true, with p clamped to >= 1e-12.

    labels: integer class indices into probs' columns, shape (N,).
    """
    probs = np.asarray(probs)
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) == 0:
        raise DataError("cross-entropy of zero windows")
    n_classes = probs.shape[1]
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"label outside 0..{n_classes - 1}")
    p = probs[np.arange(len(labels)), labels]
    return float(-np.log(np.maximum(p, PROB_FLOOR)).mean())


def softmax_cross_entropy(logits, labels):
    """Combined softmax + cross-entropy: loss, d(loss)/d(logits), probs."""
    probs = softmax(logits)
    loss = cross_entropy_loss(probs, labels)
    onehot = np.zeros_like(probs)
    onehot[np.arange(len(labels)), labels] = 1.0
    dlogits = (probs - onehot) / len(labels)
    return loss, dlogits, probs


# ---------------------------------------------------------------------------
# Model
# ---------------------------------------------------------------------------

@dataclass
class CnnModel:
    specs: tuple
    input_shape: tuple            # (H, W, C)
    params: list                  # per layer: {"W","b"} or None
    seed: int
    pipeline_config: dict | None = None

    @property
    def n_classes(self) -> int:
        return self.specs[-1].units

    @property
    def dtype(self) -> np.dtype:
        """The dtype a pass computes in: that of the parameters."""
        return next((p["W"].dtype for p in self.params if p is not None),
                    np.dtype(np.float64))

    @property
    def window_size(self) -> int:
        """Feature values per input window (n_mfcc * n_frames)."""
        return math.prod(self.input_shape)

    def scores(self, windows) -> np.ndarray:
        """Softmax probabilities for windows shaped (N, n_mfcc, n_frames)."""
        return predict_proba(self, np.asarray(windows)[..., None])

    def probabilities(self, windows) -> np.ndarray:
        """The scores, which for the CNN already are probabilities."""
        return self.scores(windows)


def layer_shapes(specs, input_shape):
    """Output shape after each layer; raises on impossible geometry."""
    shape = tuple(input_shape)
    out = []
    for spec in specs:
        shape = spec.out_shape(shape)
        out.append(shape)
    return out


@functools.lru_cache(maxsize=32)
def row_plan(specs, input_shape):
    """Output rows each layer computes, None for all of them.

    Walks back from the output: each layer is asked which rows of its input
    it reads, given the rows that later layers read of its output (see
    Rows in the module docstring).
    """
    shapes = [tuple(input_shape)] + layer_shapes(specs, input_shape)
    plan = []
    rows = None
    for i in range(len(specs) - 1, -1, -1):
        if rows is not None and rows >= shapes[i + 1][0]:
            rows = None
        plan.append(rows)
        rows = specs[i].rows_read(rows, shapes[i])
    return tuple(reversed(plan))


def _param_shapes(specs, input_shape):
    """Parameter shapes of each layer ({} for parameterless layers)."""
    inputs = [tuple(input_shape)] + layer_shapes(specs, input_shape)[:-1]
    return [spec.param_shapes(shape) for spec, shape in zip(specs, inputs)]


def parameter_counts(specs, input_shape):
    """Trainable parameter count per layer (0 for parameterless layers)."""
    return [sum(math.prod(s) for s in shapes.values())
            for shapes in _param_shapes(specs, input_shape)]


def _glorot(rng, shape):
    """Uniform Glorot init; fans are read off the weight shape
    (kernel area x input / output channels)."""
    receptive = math.prod(shape[:-2])
    fan_in, fan_out = receptive * shape[-2], receptive * shape[-1]
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


def init_params(specs, input_shape, seed):
    rng = np.random.default_rng(seed)
    return [{"W": _glorot(rng, shapes["W"]), "b": np.zeros(shapes["b"])}
            if shapes else None
            for shapes in _param_shapes(specs, input_shape)]


def build_model(specs, input_shape, seed=0) -> CnnModel:
    layer_shapes(specs, input_shape)  # validate geometry up front
    return CnnModel(specs=tuple(specs), input_shape=tuple(input_shape),
                    params=init_params(specs, input_shape, seed), seed=seed)


def build_emotion_cnn(n_mfcc=13, n_frames=26, seed=0,
                      conv_filters=(32, 32, 64, 64), dense_units=512) -> CnnModel:
    """The reference two-block CNN over an (n_mfcc, n_frames, 1) window."""
    f1, f2, f3, f4 = conv_filters
    specs = (
        Conv2D(f1, padding="same"),
        Conv2D(f2, padding="valid"),
        MaxPool2D(2),
        DropoutSpec(0.25),
        Conv2D(f3, padding="same"),
        Conv2D(f4, padding="valid"),
        MaxPool2D(2),
        DropoutSpec(0.25),
        FlattenSpec(),
        Dense(dense_units, activation="relu"),
        DropoutSpec(0.5),
        Dense(N_CLASSES, activation="softmax"),
    )
    return build_model(specs, (n_mfcc, n_frames, 1), seed=seed)


def audit_params(model: CnnModel) -> str:
    """Human-readable per-layer table ending with the total parameter count."""
    shapes = layer_shapes(model.specs, model.input_shape)
    counts = parameter_counts(model.specs, model.input_shape)
    lines = [f"{'layer':<16}{'output shape':<20}{'params':>8}"]
    for spec, shape, count in zip(model.specs, shapes, counts):
        lines.append(f"{spec.kind:<16}{str(shape):<20}{count:>8}")
    lines.append(f"Total params: {sum(counts)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def forward(model: CnnModel, x, rng=None):
    """Run the network up to the output logits; returns (logits, caches).

    The pass is in train mode exactly when it is given a generator: dropout
    draws its masks from rng, layer by layer, and keeps each as its layer's
    cache.  Without one every dropout layer is the identity.  x is cast to
    the parameters' dtype.  Each layer
    computes the rows `row_plan` gives it, so a convolution's output and
    cache may hold fewer rows than its declared shape.
    """
    x = np.asarray(x, dtype=model.dtype)
    plan = row_plan(model.specs, x.shape[1:])
    caches = []
    for spec, p, rows in zip(model.specs, model.params, plan):
        x, cache = spec.forward(x, p, rng, rows)
        caches.append(cache)
    return x, caches


def backward(model: CnnModel, dlogits, caches):
    """Gradients of the loss w.r.t. every parameter tensor.

    Layers before the first one with parameters are not visited, and that
    layer computes no input gradient.
    """
    grads = [None] * len(model.specs)
    first = next((i for i, p in enumerate(model.params) if p is not None),
                 len(model.specs))
    d = dlogits
    for i in range(len(model.specs) - 1, first - 1, -1):
        d, grads[i] = model.specs[i].backward(d, caches[i], need_dx=i > first)
    return grads


def loss_and_grads(model: CnnModel, x, labels, rng=None):
    """(loss, grads, probs) of one pass, in train mode when given rng."""
    logits, caches = forward(model, x, rng=rng)
    loss, dlogits, probs = softmax_cross_entropy(
        logits.astype(np.float64, copy=False), labels)
    grads = backward(model, dlogits.astype(logits.dtype, copy=False), caches)
    return loss, grads, probs


def predict_proba(model: CnnModel, x) -> np.ndarray:
    """Softmax probabilities in infer mode (dropout off).

    x must be shaped (N,) + model.input_shape; other shapes raise DataError
    before any layer runs.  Windows run in blocks of PREDICT_BLOCK; at 16
    windows the largest array (conv2's im2col columns) is ~9 MB.  The layers
    run in the parameters' dtype, the softmax in float64.
    """
    x = np.asarray(x, dtype=model.dtype)
    if x.shape[1:] != model.input_shape:
        raise DataError(f"windows shaped {x.shape[1:]} do not fit the model's "
                        f"input_shape {model.input_shape}")
    probs = np.empty((len(x), model.n_classes))
    for start in range(0, len(x), PREDICT_BLOCK):
        logits, _ = forward(model, x[start:start + PREDICT_BLOCK])
        probs[start:start + len(logits)] = softmax(
            logits.astype(np.float64, copy=False))
    return probs


# ---------------------------------------------------------------------------
# RMSProp + training
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    dtype: str = "float32"       # "float32" | "float64", the oracle

    def __post_init__(self):
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be float32 or float64, "
                              f"got {self.dtype!r}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        for name in ("batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, "
                                  f"got {getattr(self, name)}")


def rmsprop_step(params, grads, acc, cfg: TrainConfig, t: int):
    """In-place RMSProp update with iteration-decayed learning rate.

    lr_t = lr / (1 + DECAY*t); acc <- RHO*acc + (1-RHO)*g^2;
    p <- p - lr_t * g / (sqrt(acc) + EPSILON).  Each operation is the one the
    formula names, in its order, so the bits match the out-of-place form;
    the parameter and accumulator arrays are updated where they are.
    """
    lr_t = cfg.lr / (1.0 + DECAY * t)
    for p, g, a in zip(params, grads, acc):
        if p is None:
            continue
        for key in p:
            step = np.square(g[key])
            step *= 1.0 - RHO
            a[key] *= RHO
            a[key] += step
            np.multiply(g[key], lr_t, out=step)
            denom = np.sqrt(a[key])
            denom += EPSILON
            step /= denom
            p[key] -= step


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float | None = None
    val_acc: float | None = None


def _check_labels(x, labels):
    if len(labels) != len(x):
        raise DataError(f"{len(labels)} labels for {len(x)} windows")


def evaluate(model: CnnModel, x, labels):
    """(mean cross-entropy, accuracy) in infer mode; no windows: DataError."""
    if len(x) == 0:
        raise DataError("no windows to evaluate")
    _check_labels(x, labels)
    probs = predict_proba(model, x)
    loss = cross_entropy_loss(probs, labels)
    acc = float((probs.argmax(axis=1) == np.asarray(labels)).mean())
    return loss, acc


def train(model: CnnModel, x, labels, cfg: TrainConfig,
          x_val=None, labels_val=None, verbose=False):
    """Seeded mini-batch RMSProp training; returns per-epoch history.

    Train loss/accuracy are running means over the epoch's batches (dropout
    active, measured before each update), matching the usual epoch-log
    convention; validation metrics are clean infer-mode numbers.

    The loop runs in cfg.dtype: the parameters, the RMSProp accumulators
    (zeros at the start of every call) and every pass, validation included,
    are in it, and the parameters stay in it: a float32 run leaves exactly
    the arrays `save_cnn` then `load_cnn` would give.
    """
    dtype = np.dtype(cfg.dtype)
    x = np.asarray(x, dtype=dtype)
    labels = np.asarray(labels, dtype=np.int64)
    if len(x) == 0:
        raise ConfigError("empty training split")
    _check_labels(x, labels)
    if x_val is not None:
        _check_labels(x_val, labels_val)
    model.params = [None if p is None else {k: v.astype(dtype, copy=False)
                                            for k, v in p.items()}
                    for p in model.params]
    acc = [None if p is None else {k: np.zeros_like(v) for k, v in p.items()}
           for p in model.params]
    rng = np.random.default_rng(cfg.seed)
    history = []
    t = 0
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(x))
        losses, hits, seen = [], 0, 0
        for start in range(0, len(order), cfg.batch_size):
            sel = order[start:start + cfg.batch_size]
            xb, yb = x[sel], labels[sel]
            loss, grads, probs = loss_and_grads(model, xb, yb, rng=rng)
            rmsprop_step(model.params, grads, acc, cfg, t)
            t += 1
            losses.append(loss * len(sel))
            hits += int((probs.argmax(axis=1) == yb).sum())
            seen += len(sel)
        train_loss = float(np.sum(losses) / seen)
        train_acc = hits / seen
        if not math.isfinite(train_loss):
            raise NumericalError(f"non-finite training loss at epoch {epoch}")
        val_loss = val_acc = None
        if x_val is not None and len(x_val):
            val_loss, val_acc = evaluate(model, x_val, labels_val)
        history.append(EpochStats(epoch, train_loss, train_acc, val_loss, val_acc))
        if verbose:
            msg = f"epoch {epoch}: loss {train_loss:.4f} acc {train_acc:.4f}"
            if val_loss is not None:
                msg += f" val_loss {val_loss:.4f} val_acc {val_acc:.4f}"
            print(msg)
    return history


def history_to_csv(history) -> str:
    lines = ["epoch,train_loss,train_acc,val_loss,val_acc"]
    for row in history:
        val_loss = "" if row.val_loss is None else repr(row.val_loss)
        val_acc = "" if row.val_acc is None else repr(row.val_acc)
        lines.append(f"{row.epoch},{row.train_loss!r},{row.train_acc!r},"
                     f"{val_loss},{val_acc}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Gradient check
# ---------------------------------------------------------------------------

def gradient_check(model: CnnModel, x, labels, seed=0):
    """Central finite differences against backprop on every parameter.

    Every evaluation runs in train mode with a fresh generator seeded with
    seed, so each draws the same dropout masks and the loss is a
    deterministic function of the parameters.  Returns the max relative
    error and a per-tensor breakdown.

    The loss is piecewise smooth: a perturbation that flips a max-pool
    argmax or a ReLU gate invalidates the finite-difference model, so
    fixtures must keep activations away from those ties.
    """
    h = 1e-5   # central-difference step
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    _, grads, _ = loss_and_grads(model, x, labels,
                                 rng=np.random.default_rng(seed))

    def loss_at():
        logits, _ = forward(model, x, rng=np.random.default_rng(seed))
        loss, _, _ = softmax_cross_entropy(logits, labels)
        return loss

    worst = 0.0
    per_tensor = {}
    for i, p in enumerate(model.params):
        if p is None:
            continue
        for key, tensor in p.items():
            g_an = grads[i][key]
            g_fd = np.zeros_like(tensor)
            for idx in np.ndindex(*tensor.shape):
                orig = tensor[idx]
                tensor[idx] = orig + h
                lp = loss_at()
                tensor[idx] = orig - h
                lm = loss_at()
                tensor[idx] = orig
                g_fd[idx] = (lp - lm) / (2.0 * h)
            denom = np.maximum(np.maximum(np.abs(g_an), np.abs(g_fd)), 1e-6)
            rel = float((np.abs(g_an - g_fd) / denom).max())
            per_tensor[f"layer{i}.{key}"] = rel
            worst = max(worst, rel)
    return worst, per_tensor


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_cnn(path, model: CnnModel) -> None:
    """Versioned binary checkpoint; parameters stored as little-endian float32."""
    tensors = [t for p in model.params if p is not None for t in p.values()]
    meta = {
        "specs": [{"type": s.kind, **s.__dict__} for s in model.specs],
        "input_shape": list(model.input_shape),
        "seed": model.seed,
        "shapes": [list(t.shape) for t in tensors],
        "pipeline_config": model.pipeline_config,
    }
    write_model(path, CNN_MAGIC, CNN_VERSION, meta, tensors, "<f4")


_HEADER = {
    "specs": [ByType({cls.kind: cls.header for cls in _LAYER_TYPES.values()})],
    "input_shape": [int], "seed": int, "shapes": [[int]],
    "pipeline_config": PIPELINE_RECORD,
}


def load_cnn(path) -> CnnModel:
    """Read a checkpoint; its parameters come back as the float32 arrays it
    stores, so a pass over the loaded model runs in float32."""
    meta, r = read_model(path, CNN_MAGIC, CNN_VERSION, "CNN checkpoint", _HEADER)
    input_shape = tuple(meta["input_shape"])
    try:   # values a layer refuses, or an input shape it cannot take
        specs = tuple(_LAYER_TYPES[d.pop("type")](**d) for d in meta["specs"])
        layers = _param_shapes(specs, input_shape)
    except (ConfigError, ValueError) as exc:
        raise FormatError(f"CNN checkpoint layers: {exc}") from exc
    if not specs or specs[-1].kind != "dense":   # its units are the classes
        raise FormatError("CNN checkpoint needs a dense last layer")
    if [list(s) for shapes in layers for s in shapes.values()] != meta["shapes"]:
        raise FormatError("CNN checkpoint tensor shapes do not match its layers")
    params = []
    for i, shapes in enumerate(layers):
        p = {key: r.array("<f4", shape, f"layer {i} {key}").astype(np.float32)
             for key, shape in shapes.items()}
        params.append(p or None)
    r.expect_end()
    return CnnModel(specs=specs, input_shape=input_shape, params=params,
                    seed=meta["seed"], pipeline_config=meta["pipeline_config"])
