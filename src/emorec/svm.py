"""Soft-margin kernel SVM trained by SMO with second-order working-set
selection (WSS2: Fan, Chen & Lin, "Working Set Selection Using Second Order
Information", JMLR 2005, the rule LIBSVM uses).

Solves, per binary subproblem,

    max  sum(alpha) - 1/2 sum_ij alpha_i alpha_j y_i y_j K(x_i, x_j)
    s.t. 0 <= alpha_i <= C,  sum_i alpha_i y_i = 0

Each iteration pairs the maximal violator i with the partner j of largest
second-order gain b^2/a and takes the clipped two-variable step, updating the
gradient from rows i and j of the kernel matrix; nothing is random.  Training
stops when the gap m(alpha) - M(alpha) drops below tol (default 1e-3), which
bounds every KKT violation by tol under the returned bias, or after
max_passes iterations.  `kkt_violation` records the largest violation left.

Multiclass is one-vs-rest: one binary per class against the rest, sharing
one kernel matrix; the prediction is the argmax of the decision values, ties
to the lower class code.

Defaults follow the training setup used throughout: C = 10, gamma = "scale"
meaning 1 / (n_features * population variance of all entries of X).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .container import read_model, write_model
from .errors import DataError, FormatError
from .nn import softmax

SUPPORT_THRESHOLD = 1e-8
TAU = 1e-12   # floor on the curvature a of a working-set pair

SVM_MAGIC = b"EMOSVM\x00\x00"
SVM_VERSION = 1


@dataclass(frozen=True)
class KernelSpec:
    kind: str = "rbf"                 # "rbf" | "linear"
    C: float = 10.0
    gamma_mode: str = "scale"         # "scale" | "fixed"
    gamma_value: float | None = None  # used when gamma_mode == "fixed"

    def __post_init__(self):
        if self.kind not in ("rbf", "linear"):
            raise ValueError(f"unknown kernel {self.kind!r}")
        if self.C <= 0:
            raise ValueError(f"C must be positive, got {self.C}")
        if self.gamma_mode not in ("scale", "fixed"):
            raise ValueError(f"unknown gamma mode {self.gamma_mode!r}")
        if self.gamma_mode == "fixed" and (self.gamma_value is None or self.gamma_value <= 0):
            raise ValueError("fixed gamma requires a positive gamma_value")


def resolve_gamma(X: np.ndarray, spec: KernelSpec) -> float:
    """gamma for the RBF kernel: 1 / (n_features * var(X)) in "scale" mode.

    var is the population variance over all entries of X.
    """
    if spec.gamma_mode == "fixed":
        return float(spec.gamma_value)
    X = np.asarray(X, dtype=np.float64)
    if X.size == 0:
        raise ValueError("cannot resolve gamma on empty data")
    var = X.var()
    if var <= 0:
        raise ValueError("zero variance data; gamma='scale' undefined")
    return 1.0 / (X.shape[1] * var)


def kernel_eval(x: np.ndarray, z: np.ndarray, spec: KernelSpec,
                gamma: float | None = None) -> float:
    """Single kernel value: <x, z> (linear) or exp(-gamma ||x-z||^2) (rbf)."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if x.shape != z.shape:
        raise ValueError(f"dimension mismatch {x.shape} vs {z.shape}")
    if spec.kind == "linear":
        return float(x @ z)
    d = x - z
    return float(np.exp(-gamma * (d @ d)))


def kernel_matrix(A: np.ndarray, B: np.ndarray, spec: KernelSpec,
                  gamma: float | None = None) -> np.ndarray:
    """Pairwise kernel values, shape (len(A), len(B))."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch {A.shape[1]} vs {B.shape[1]}")
    lin = A @ B.T
    if spec.kind == "linear":
        return lin
    sq = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * lin
    np.maximum(sq, 0.0, out=sq)
    return np.exp(-gamma * sq)


# ---------------------------------------------------------------------------
# Binary solver
# ---------------------------------------------------------------------------

@dataclass
class BinarySvm:
    support_vectors: np.ndarray   # n_sv x d
    dual_coef: np.ndarray         # alpha_i * y_i per support vector
    bias: float
    objective: float
    n_passes: int                 # working-set iterations
    converged: bool
    kkt_violation: float = math.nan   # max KKT violation under the bias


def _kkt_violation(alpha, y, E, C, eps=SUPPORT_THRESHOLD):
    # violation of: alpha=0 -> yE >= 0 ; 0<alpha<C -> yE = 0 ; alpha=C -> yE <= 0
    r = y * E
    return np.where(alpha > C - eps, np.maximum(0.0, r),
                    np.where(alpha < eps, np.maximum(0.0, -r), np.abs(r)))


def train_binary(X, y, spec: KernelSpec, tol: float = 1e-3,
                 max_passes: int = 10_000_000,
                 K: np.ndarray | None = None,
                 gamma: float | None = None) -> BinarySvm:
    """Fit one soft-margin binary SVM with labels y in {-1, +1}.

    A precomputed kernel matrix K (against X itself) can be shared across
    one-vs-rest subproblems.  max_passes caps working-set iterations.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    if n < 2:
        raise DataError(f"need at least 2 samples, got {n}")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise DataError("labels must be -1/+1")
    if len(set(y)) < 2:
        raise DataError("both classes must be present")
    if not np.all(np.isfinite(X)):
        raise DataError("non-finite feature values")

    if gamma is None and spec.kind == "rbf":
        gamma = resolve_gamma(X, spec)
    if K is None:
        K = kernel_matrix(X, X, spec, gamma)
    C = spec.C
    diag = np.diag(K)
    pos = (y > 0).tolist()
    signs = y.tolist()
    alpha = [0.0] * n
    # E_t = sum_s alpha_s y_s K_ts - y_t, the decision value minus the label
    # without bias (LIBSVM's y_t G_t).  Penalties hide the indices outside
    # I_up (alpha_t cannot move along y_t) and I_low (cannot move along -y_t).
    E = -y
    up_pen = np.where(y > 0, 0.0, np.inf)
    low_pen = np.where(y > 0, -np.inf, 0.0)

    n_iter = 0
    while True:
        i = int((E + up_pen).argmin())
        b = E + low_pen
        b -= E[i]          # b_t = E_t - E_i: gain of the pair (i, t) per unit step
        gap = b.max()      # m(alpha) - M(alpha)
        if gap < tol or n_iter >= max_passes:
            break
        # second-order partner: largest guaranteed decrease b^2 / a
        a = np.maximum(diag[i] + diag - 2.0 * K[i], TAU)
        np.maximum(b, 0.0, out=b)
        j = int((b * b / a).argmax())
        # step t along alpha_i += y_i t, alpha_j -= y_j t, clipped to the box
        ai, aj = alpha[i], alpha[j]
        ti = C - ai if pos[i] else ai
        tj = aj if pos[j] else C - aj
        t = min(b[j] / a[j], ti, tj)
        alpha[i] = (C if pos[i] else 0.0) if t == ti else ai + signs[i] * t
        alpha[j] = (0.0 if pos[j] else C) if t == tj else aj - signs[j] * t
        E += ((alpha[i] - ai) * signs[i]) * K[i]
        E += ((alpha[j] - aj) * signs[j]) * K[j]
        for k in (i, j):
            ak = alpha[k]
            up_pen[k] = 0.0 if (ak < C if pos[k] else ak > 0.0) else np.inf
            low_pen[k] = 0.0 if (ak > 0.0 if pos[k] else ak < C) else -np.inf
        n_iter += 1

    # any bias between M and m, -max_low E and -min_up E, bounds every
    # violation by the gap: the mean over free vectors, else the midpoint
    alpha = np.array(alpha)
    free = (alpha > 0.0) & (alpha < C)
    if free.any():
        bias = -float(E[free].mean())
    else:
        bias = -float(E[i]) - 0.5 * float(gap)
    kkt = float(_kkt_violation(alpha, y, E + bias, C).max())
    sv = alpha > SUPPORT_THRESHOLD
    return BinarySvm(support_vectors=X[sv].copy(),
                     dual_coef=(alpha * y)[sv].copy(),
                     bias=bias, objective=dual_objective(alpha, y, K),
                     n_passes=n_iter, converged=kkt < tol,
                     kkt_violation=kkt)


def dual_objective(alpha, y, K) -> float:
    """W(alpha) = sum(alpha) - 1/2 (alpha*y)' K (alpha*y); shared with tests."""
    ay = np.asarray(alpha) * np.asarray(y)
    return float(np.sum(alpha) - 0.5 * ay @ np.asarray(K) @ ay)


# ---------------------------------------------------------------------------
# Multiclass
# ---------------------------------------------------------------------------

@dataclass
class SvmModel:
    kernel: KernelSpec
    gamma: float | None
    classes: list[int]
    binaries: list = field(default_factory=list)   # one per class, in order
    n_features: int = 0
    pipeline_config: dict | None = None

    @property
    def window_size(self) -> int:
        """Feature values per input window (n_mfcc * n_frames)."""
        return self.n_features

    def scores(self, windows) -> np.ndarray:
        """Raw decision values for windows shaped (N, n_mfcc, n_frames);
        unscaled, fine for argmax/top-k ranking."""
        windows = np.asarray(windows)
        return decision_values(self, windows.reshape(len(windows), -1))

    def probabilities(self, windows) -> np.ndarray:
        """Softmax of the decision values: a display squash, not calibrated."""
        return softmax(self.scores(windows))

    def summary(self) -> str:
        lines = [f"kernel={self.kernel.kind} C={self.kernel.C:g} "
                 f"gamma={'none' if self.gamma is None else format(self.gamma, 'g')}"]
        for c, bin_ in zip(self.classes, self.binaries):
            lines.append(f"  class {c}: {len(bin_.dual_coef)} support vectors, "
                         f"objective {bin_.objective:.6g}, "
                         f"{'converged' if bin_.converged else 'NOT converged'} "
                         f"in {bin_.n_passes} iterations, "
                         f"max KKT violation {bin_.kkt_violation:.3g}")
        return "\n".join(lines) + "\n"


def train_multiclass(X, labels, spec: KernelSpec, tol: float = 1e-3,
                     max_passes: int = 10_000_000) -> SvmModel:
    """Train a one-vs-rest multiclass SVM over integer labels."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    classes = sorted(int(c) for c in set(labels.tolist()))
    if len(classes) < 2:
        raise DataError("need at least 2 classes")

    gamma = resolve_gamma(X, spec) if spec.kind == "rbf" else None
    model = SvmModel(kernel=spec, gamma=gamma, classes=classes,
                     n_features=X.shape[1])
    K = kernel_matrix(X, X, spec, gamma)   # shared across subproblems
    for c in classes:
        y = np.where(labels == c, 1.0, -1.0)
        model.binaries.append(train_binary(
            X, y, spec, tol=tol, max_passes=max_passes, K=K, gamma=gamma))
    return model


def decision_values(model: SvmModel, X) -> np.ndarray:
    """Raw per-class decision values, shape (n, n_classes); argmax is the
    prediction."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.n_features:
        raise DataError(f"feature dim {X.shape[1]} != trained {model.n_features}")
    scores = np.zeros((X.shape[0], len(model.classes)))
    for k, bin_ in enumerate(model.binaries):
        Kx = kernel_matrix(X, bin_.support_vectors, model.kernel, model.gamma)
        scores[:, k] = Kx @ bin_.dual_coef + bin_.bias
    return scores


def predict(model: SvmModel, X) -> np.ndarray:
    """Predicted class codes; ties go to the lower code (argmax convention)."""
    scores = decision_values(model, X)
    idx = np.argmax(scores, axis=1)
    return np.asarray(model.classes, dtype=np.int64)[idx]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_svm(path, model: SvmModel) -> None:
    """Versioned binary container: JSON header + float64 LE tensors."""
    meta = {
        "kernel": {"kind": model.kernel.kind, "C": model.kernel.C,
                   "gamma_mode": model.kernel.gamma_mode,
                   "gamma_value": model.kernel.gamma_value},
        "gamma": model.gamma,
        "classes": model.classes,
        "n_features": model.n_features,
        "binaries": [{"n_sv": len(b.dual_coef), "bias": b.bias,
                      "objective": b.objective, "n_passes": b.n_passes,
                      "converged": b.converged,
                      "kkt_violation": b.kkt_violation}
                     for b in model.binaries],
        "pipeline_config": model.pipeline_config,
    }
    tensors = [t for b in model.binaries for t in (b.support_vectors, b.dual_coef)]
    write_model(path, SVM_MAGIC, SVM_VERSION, meta, tensors, "<f8")


def load_svm(path) -> SvmModel:
    meta, r = read_model(path, SVM_MAGIC, SVM_VERSION, "SVM container")
    # containers from before one-vs-one was dropped record "strategy": "ovr"
    strategy = meta.get("strategy", "ovr")
    if strategy != "ovr":
        raise FormatError(f"SVM container uses multiclass strategy {strategy!r}; "
                          f"only one-vs-rest is supported")
    spec = KernelSpec(**meta["kernel"])
    model = SvmModel(kernel=spec, gamma=meta["gamma"], classes=meta["classes"],
                     n_features=meta["n_features"],
                     pipeline_config=meta.get("pipeline_config"))
    d = meta["n_features"]
    for k, info in enumerate(meta["binaries"]):
        n_sv = info["n_sv"]
        model.binaries.append(BinarySvm(
            support_vectors=r.array("<f8", (n_sv, d), f"binary {k} support vectors"),
            dual_coef=r.array("<f8", (n_sv,), f"binary {k} dual coefficients"),
            bias=info["bias"], objective=info["objective"],
            n_passes=info["n_passes"], converged=info["converged"],
            # containers written before it was recorded lack the field
            kkt_violation=info.get("kkt_violation", math.nan)))
    r.expect_end()
    return model
