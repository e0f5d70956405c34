"""Minimal CNN engine: forward, backward, RMSProp, and the 13x26 emotion model.

Tensors are numpy arrays in NHWC layout; training math runs in float64,
checkpoints store float32.  The layer set is fixed: 3x3 convolutions (same or
valid padding), 2x2 max pooling, inverted dropout, flatten, dense, with ReLU
hidden activations and a softmax head trained by categorical cross-entropy.
Each layer type is defined in one spec class (its output shape, parameter
shapes, forward and backward step, and checkpoint name); shape inference,
parameter counts, init, the passes and checkpoints loop over the specs.

The reference 13x26 model:

    Conv2D(32, same) -> Conv2D(32, valid) -> MaxPool -> Dropout(0.25)
    -> Conv2D(64, same) -> Conv2D(64, valid) -> MaxPool -> Dropout(0.25)
    -> Flatten -> Dense(512) -> Dropout(0.5) -> Dense(8, softmax)

which on a (13, 26, 1) input produces 233,448 trainable parameters.

Determinism: weight init, shuffling and dropout all draw from seeded PCG64
generators in a fixed single-threaded order, so identical seeds reproduce
identical training histories bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .container import read_model, write_model
from .errors import ConfigError, FormatError, NumericalError

CNN_MAGIC = b"EMOCNN\x00\x00"
CNN_VERSION = 1

PROB_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# Layer specs
# ---------------------------------------------------------------------------
#
# Each spec class is the one place that knows its layer type: `kind` (its
# name in checkpoints and the audit table), `out_shape`, `param_shapes`
# ({} for parameterless layers), and one `forward` / `backward` step.  The
# steps call the primitive ops below by module-global name at call time.

@dataclass
class _Pass:
    """State of one forward pass that dropout layers read and record."""
    train: bool
    rng: object                   # dropout draws; unused when replaying
    replay: object                # iterator over masks to replay, or None
    masks: list                   # masks applied, in layer order


def _activate(x, activation):
    if activation == "relu":
        return relu_forward(x)
    return x, None


def _deactivate(d, relu_mask):
    return d if relu_mask is None else relu_backward(d, relu_mask)


class _Layer:
    """Defaults for a layer that has no parameters and keeps its input shape."""

    def out_shape(self, shape):
        return shape

    def param_shapes(self, shape):
        return {}


@dataclass(frozen=True)
class Conv2D(_Layer):
    filters: int
    kernel: int = 3
    padding: str = "same"        # "same" | "valid"
    activation: str = "relu"     # "relu" | "none"

    kind = "conv2d"

    def out_shape(self, shape):
        h, w, _ = shape
        if self.padding == "valid":
            h, w = h - self.kernel + 1, w - self.kernel + 1
        if h < 1 or w < 1:
            raise ConfigError(f"conv output collapsed to {h}x{w}")
        return (h, w, self.filters)

    def param_shapes(self, shape):
        k = self.kernel
        return {"W": (k, k, shape[-1], self.filters), "b": (self.filters,)}

    def forward(self, x, p, run):
        x, cache = conv2d_forward(x, p["W"], p["b"], self.padding)
        x, relu_mask = _activate(x, self.activation)
        return x, (cache, relu_mask)

    def backward(self, d, cache):
        conv_cache, relu_mask = cache
        d, dW, db = conv2d_backward(_deactivate(d, relu_mask), conv_cache)
        return d, {"W": dW, "b": db}


@dataclass(frozen=True)
class MaxPool2D(_Layer):
    size: int = 2

    kind = "max_pooling2d"

    def out_shape(self, shape):
        h, w, c = shape
        if h < self.size or w < self.size:
            raise ConfigError(f"{h}x{w} too small for {self.size}x{self.size} pool")
        return (h // self.size, w // self.size, c)

    def forward(self, x, p, run):
        return maxpool2d_forward(x, self.size)

    def backward(self, d, cache):
        return maxpool2d_backward(d, cache), None


@dataclass(frozen=True)
class DropoutSpec(_Layer):
    rate: float

    kind = "dropout"

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ConfigError(f"dropout rate {self.rate} outside [0, 1)")

    def forward(self, x, p, run):
        mask = next(run.replay) if run.replay is not None else None
        x, mask = dropout_forward(x, self.rate, run.train, rng=run.rng, mask=mask)
        run.masks.append(mask)
        return x, mask

    def backward(self, d, mask):
        return dropout_backward(d, mask, self.rate), None


@dataclass(frozen=True)
class FlattenSpec(_Layer):
    kind = "flatten"

    def out_shape(self, shape):
        return (int(np.prod(shape)),)

    def forward(self, x, p, run):
        return x.reshape(x.shape[0], -1), x.shape

    def backward(self, d, x_shape):
        return d.reshape(x_shape), None


@dataclass(frozen=True)
class Dense(_Layer):
    units: int
    activation: str = "relu"     # "relu" | "softmax" | "none"

    kind = "dense"

    def out_shape(self, shape):
        if len(shape) != 1:
            raise ConfigError("dense layer needs flattened input")
        return (self.units,)

    def param_shapes(self, shape):
        return {"W": (shape[0], self.units), "b": (self.units,)}

    def forward(self, x, p, run):
        x, cache = dense_forward(x, p["W"], p["b"])
        x, relu_mask = _activate(x, self.activation)
        return x, (cache, relu_mask)

    def backward(self, d, cache):
        dense_cache, relu_mask = cache
        d, dW, db = dense_backward(_deactivate(d, relu_mask), dense_cache)
        return d, {"W": dW, "b": db}


_LAYER_TYPES = {cls.kind: cls for cls in (Conv2D, MaxPool2D, DropoutSpec,
                                          FlattenSpec, Dense)}


# ---------------------------------------------------------------------------
# Primitive ops
# ---------------------------------------------------------------------------

def conv2d_forward(x, W, b, padding="same"):
    """Cross-correlation plus bias.  x: (N,H,W,Cin), W: (k,k,Cin,Cout).

    same-padding pads symmetrically with zeros (odd kernels only); valid
    shrinks each spatial dim by k-1.
    """
    k = W.shape[0]
    if W.shape[2] != x.shape[3]:
        raise ValueError(f"channel mismatch: input {x.shape[3]}, kernel {W.shape[2]}")
    if padding == "same":
        p = (k - 1) // 2
        xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    elif padding == "valid":
        xp = x
    else:
        raise ValueError(f"unknown padding {padding!r}")
    n, hp, wp, cin = xp.shape
    ho, wo = hp - k + 1, wp - k + 1
    if ho < 1 or wo < 1:
        raise ValueError(f"input {x.shape[1:3]} too small for {k}x{k} valid conv")
    win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(1, 2))
    cols = win.transpose(0, 1, 2, 4, 5, 3).reshape(n * ho * wo, k * k * cin)
    out = cols @ W.reshape(k * k * cin, -1) + b
    out = out.reshape(n, ho, wo, -1)
    cache = (cols, x.shape, xp.shape, W, padding)
    return out, cache


def conv2d_backward(dout, cache):
    cols, x_shape, xp_shape, W, padding = cache
    k = W.shape[0]
    n, ho, wo, cout = dout.shape
    cin = W.shape[2]
    dflat = dout.reshape(n * ho * wo, cout)
    dW = (cols.T @ dflat).reshape(W.shape)
    db = dflat.sum(axis=0)
    dcols = (dflat @ W.reshape(k * k * cin, cout).T)
    dcols = dcols.reshape(n, ho, wo, k, k, cin)
    dxp = np.zeros(xp_shape)
    for di in range(k):
        for dj in range(k):
            dxp[:, di:di + ho, dj:dj + wo, :] += dcols[:, :, :, di, dj, :]
    if padding == "same":
        p = (k - 1) // 2
        dx = dxp[:, p:p + x_shape[1], p:p + x_shape[2], :]
    else:
        dx = dxp
    return dx, dW, db


def maxpool2d_forward(x, size=2):
    """Non-overlapping size x size max; trailing odd rows/cols are dropped."""
    n, h, w, c = x.shape
    if h < size or w < size:
        raise ValueError(f"input {x.shape[1:3]} too small for {size}x{size} pooling")
    ho, wo = h // size, w // size
    v = x[:, :ho * size, :wo * size, :]
    v = v.reshape(n, ho, size, wo, size, c).transpose(0, 1, 3, 5, 2, 4)
    windows = v.reshape(n, ho, wo, c, size * size)
    idx = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    return out, (idx, x.shape, size)


def maxpool2d_backward(dout, cache):
    idx, x_shape, size = cache
    n, h, w, c = x_shape
    ho, wo = h // size, w // size
    dwin = np.zeros((n, ho, wo, c, size * size))
    np.put_along_axis(dwin, idx[..., None], dout[..., None], axis=-1)
    dwin = dwin.reshape(n, ho, wo, c, size, size).transpose(0, 1, 4, 2, 5, 3)
    dx = np.zeros(x_shape)
    dx[:, :ho * size, :wo * size, :] = dwin.reshape(n, ho * size, wo * size, c)
    return dx


def dense_forward(x, W, b):
    if x.shape[1] != W.shape[0]:
        raise ValueError(f"dense input dim {x.shape[1]} != weight rows {W.shape[0]}")
    return x @ W + b, (x, W)


def dense_backward(dout, cache):
    x, W = cache
    return dout @ W.T, x.T @ dout, dout.sum(axis=0)


def relu_forward(x):
    return np.maximum(0.0, x), x > 0


def relu_backward(dout, mask):
    return dout * mask


def dropout_forward(x, rate, train, rng=None, mask=None):
    """Inverted dropout: zero with prob rate, scale survivors by 1/(1-rate).

    In infer mode (train=False) this is the identity.  A precomputed mask can
    be supplied to replay a forward pass (finite-difference checks).
    """
    if not train or rate == 0.0:
        return x, None
    if mask is None:
        mask = rng.random(x.shape) >= rate
    return x * mask / (1.0 - rate), mask


def dropout_backward(dout, mask, rate):
    if mask is None:
        return dout
    return dout * mask / (1.0 - rate)


def softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy_loss(probs, labels, n_classes=None):
    """Mean over the batch of -ln p_true, with p clamped to >= 1e-12.

    labels: integer class indices, shape (N,).
    """
    probs = np.asarray(probs)
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = probs.shape[1] if n_classes is None else n_classes
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
    rms_state: list | None = None
    pipeline_config: dict | None = None

    @property
    def n_classes(self) -> int:
        return self.specs[-1].units

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


def build_emotion_cnn(n_mfcc=13, n_frames=26, n_classes=8, seed=0,
                      conv_filters=(32, 32, 64, 64), dense_units=512,
                      dropout_rates=(0.25, 0.25, 0.5)) -> CnnModel:
    """The reference two-block CNN over an (n_mfcc, n_frames, 1) window."""
    f1, f2, f3, f4 = conv_filters
    specs = (
        Conv2D(f1, padding="same"),
        Conv2D(f2, padding="valid"),
        MaxPool2D(2),
        DropoutSpec(dropout_rates[0]),
        Conv2D(f3, padding="same"),
        Conv2D(f4, padding="valid"),
        MaxPool2D(2),
        DropoutSpec(dropout_rates[1]),
        FlattenSpec(),
        Dense(dense_units, activation="relu"),
        DropoutSpec(dropout_rates[2]),
        Dense(n_classes, activation="softmax"),
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

def forward(model: CnnModel, x, train=False, rng=None, masks=None,
            check_finite=False):
    """Run the network up to the output logits.

    Returns (logits, caches, used_masks).  masks replays a previous forward's
    dropout decisions; otherwise train-mode dropout draws from rng.
    """
    x = np.asarray(x, dtype=np.float64)
    run = _Pass(train=train, rng=rng,
                replay=iter(masks) if masks is not None else None, masks=[])
    caches = []
    for spec, p in zip(model.specs, model.params):
        x, cache = spec.forward(x, p, run)
        caches.append(cache)
        if check_finite and not np.all(np.isfinite(x)):
            raise NumericalError(f"non-finite activation after {spec}")
    return x, caches, run.masks


def backward(model: CnnModel, dlogits, caches):
    """Gradients of the loss w.r.t. every parameter tensor (and the input)."""
    grads = [None] * len(model.specs)
    d = dlogits
    for i in range(len(model.specs) - 1, -1, -1):
        d, grads[i] = model.specs[i].backward(d, caches[i])
    return grads, d


def loss_and_grads(model: CnnModel, x, labels, rng=None, masks=None,
                   train=True):
    logits, caches, used_masks = forward(model, x, train=train, rng=rng,
                                         masks=masks)
    loss, dlogits, probs = softmax_cross_entropy(logits, labels)
    grads, _ = backward(model, dlogits, caches)
    return loss, grads, probs, used_masks


def predict_proba(model: CnnModel, x, batch_size=256) -> np.ndarray:
    """Softmax probabilities in infer mode (dropout off)."""
    x = np.asarray(x, dtype=np.float64)
    outs = []
    for start in range(0, len(x), batch_size):
        logits, _, _ = forward(model, x[start:start + batch_size], train=False)
        outs.append(softmax(logits))
    return np.concatenate(outs, axis=0)


# ---------------------------------------------------------------------------
# RMSProp + training
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    lr: float = 1e-4
    decay: float = 1e-6
    rho: float = 0.9
    epsilon: float = 1e-7
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.rho < 1.0:
            raise ConfigError(f"rho {self.rho} outside [0, 1)")


def rmsprop_step(params, grads, acc, cfg: TrainConfig, t: int):
    """In-place RMSProp update with iteration-decayed learning rate.

    lr_t = lr / (1 + decay*t); acc <- rho*acc + (1-rho)*g^2;
    p <- p - lr_t * g / (sqrt(acc) + epsilon).
    """
    lr_t = cfg.lr / (1.0 + cfg.decay * t)
    for p, g, a in zip(params, grads, acc):
        if p is None:
            continue
        for key in p:
            a[key] = cfg.rho * a[key] + (1.0 - cfg.rho) * g[key] ** 2
            p[key] = p[key] - lr_t * g[key] / (np.sqrt(a[key]) + cfg.epsilon)


def _fresh_rms_state(params):
    return [None if p is None else {k: np.zeros_like(v) for k, v in p.items()}
            for p in params]


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    train_acc: float
    val_loss: float | None = None
    val_acc: float | None = None


def evaluate(model: CnnModel, x, labels):
    """(mean cross-entropy, accuracy) in infer mode."""
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
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(x) == 0:
        raise ConfigError("empty training split")
    if model.rms_state is None:
        model.rms_state = _fresh_rms_state(model.params)
    rng = np.random.default_rng(cfg.seed)
    history = []
    t = 0
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(x))
        losses, hits, seen = [], 0, 0
        for start in range(0, len(order), cfg.batch_size):
            sel = order[start:start + cfg.batch_size]
            xb, yb = x[sel], labels[sel]
            loss, grads, probs, _ = loss_and_grads(model, xb, yb, rng=rng)
            rmsprop_step(model.params, grads, model.rms_state, cfg, t)
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

def gradient_check(model: CnnModel, x, labels, h=1e-5, seed=0):
    """Central finite differences against backprop on every parameter.

    Dropout masks are drawn once and replayed for every evaluation so the
    loss is a deterministic function of the parameters.  Returns the max
    relative error and a per-tensor breakdown.

    The loss is piecewise smooth: a perturbation that flips a max-pool
    argmax or a ReLU gate invalidates the finite-difference model, so
    fixtures must keep activations away from those ties.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(seed)
    _, _, masks = forward(model, x, train=True, rng=rng)

    loss_analytic, grads, _, _ = loss_and_grads(model, x, labels, masks=masks)

    def loss_at():
        logits, _, _ = forward(model, x, train=True, masks=masks)
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

def _spec_to_dict(spec):
    d = {"type": spec.kind}
    d.update(spec.__dict__)
    return d


def _spec_from_dict(d):
    d = dict(d)
    kind = d.pop("type")
    if kind not in _LAYER_TYPES:
        raise FormatError(f"unknown layer type {kind!r} in CNN checkpoint")
    return _LAYER_TYPES[kind](**d)


def save_cnn(path, model: CnnModel) -> None:
    """Versioned binary checkpoint; parameters stored as little-endian float32."""
    tensors = [t for p in model.params if p is not None for t in p.values()]
    meta = {
        "specs": [_spec_to_dict(s) for s in model.specs],
        "input_shape": list(model.input_shape),
        "seed": model.seed,
        "shapes": [list(t.shape) for t in tensors],
        "pipeline_config": model.pipeline_config,
    }
    write_model(path, CNN_MAGIC, CNN_VERSION, meta, tensors, "<f4")


def load_cnn(path) -> CnnModel:
    meta, r = read_model(path, CNN_MAGIC, CNN_VERSION, "CNN checkpoint")
    if meta.get("rms_shapes"):
        raise FormatError("CNN checkpoint carries optimizer state, which is "
                          "not part of the format")

    specs = tuple(_spec_from_dict(d) for d in meta["specs"])
    input_shape = tuple(meta["input_shape"])
    layers = _param_shapes(specs, input_shape)
    if [list(s) for shapes in layers for s in shapes.values()] != meta["shapes"]:
        raise FormatError("CNN checkpoint tensor shapes do not match its layers")
    params = []
    for i, shapes in enumerate(layers):
        p = {key: r.array("<f4", shape, f"layer {i} {key}")
             for key, shape in shapes.items()}
        params.append(p or None)
    r.expect_end()
    return CnnModel(specs=specs, input_shape=input_shape, params=params,
                    seed=meta["seed"],
                    pipeline_config=meta.get("pipeline_config"))
