"""Soft-margin kernel SVM trained by sequential pairwise (SMO-style) dual
optimization.

Solves, per binary subproblem,

    max  sum(alpha) - 1/2 sum_ij alpha_i alpha_j y_i y_j K(x_i, x_j)
    s.t. 0 <= alpha_i <= C,  sum_i alpha_i y_i = 0

Pair selection follows the classic two-loop heuristic: sweep candidates for a
KKT violator, pick the partner maximizing |E_i - E_j|, and fall back to a
seeded random partner when that makes no progress.  Training stops when the
largest KKT violation drops below tol (default 1e-3) or after max_passes
sweeps.  Pair updates preserve sum(alpha*y) = 0 exactly, so converged models
satisfy dual feasibility by construction.

Multiclass is one-vs-rest: one binary per class against the rest, sharing
one kernel matrix; the prediction is the argmax of the decision values, ties
to the lower class code.

Defaults follow the training setup used throughout: C = 10, gamma = "scale"
meaning 1 / (n_features * population variance of all entries of X).
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, FormatError
from .nn import softmax

SUPPORT_THRESHOLD = 1e-8

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
    n_passes: int
    converged: bool


def _kkt_violation(alpha, y, E, C, eps=SUPPORT_THRESHOLD):
    # violation of: alpha=0 -> yE >= 0 ; 0<alpha<C -> yE = 0 ; alpha=C -> yE <= 0
    r = y * E
    viol = np.zeros_like(alpha)
    lower = alpha < eps
    upper = alpha > C - eps
    interior = ~lower & ~upper
    viol[lower] = np.maximum(0.0, -r[lower])
    viol[upper] = np.maximum(0.0, r[upper])
    viol[interior] = np.abs(r[interior])
    return viol


def train_binary(X, y, spec: KernelSpec, tol: float = 1e-3,
                 max_passes: int = 10_000, seed: int = 0,
                 K: np.ndarray | None = None,
                 gamma: float | None = None) -> BinarySvm:
    """Fit one soft-margin binary SVM with labels y in {-1, +1}.

    A precomputed kernel matrix K (against X itself) can be shared across
    one-vs-rest subproblems.
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

    rng = np.random.default_rng(seed)
    alpha = np.zeros(n)
    b = 0.0
    # E_i = f(x_i) - y_i, maintained incrementally
    E = -y.copy()

    def take_step(i, j):
        nonlocal b, E
        if i == j:
            return False
        yi, yj = y[i], y[j]
        ai_old, aj_old = alpha[i], alpha[j]
        if yi != yj:
            L, H = max(0.0, aj_old - ai_old), min(C, C + aj_old - ai_old)
        else:
            L, H = max(0.0, ai_old + aj_old - C), min(C, ai_old + aj_old)
        if H - L < 1e-12:
            return False
        eta = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if eta <= 1e-12:
            return False  # degenerate direction; skip (next sweep picks another pair)
        aj = aj_old + yj * (E[i] - E[j]) / eta
        aj = min(H, max(L, aj))
        if abs(aj - aj_old) < 1e-12 * (aj + aj_old + 1e-12):
            return False
        ai = ai_old + yi * yj * (aj_old - aj)
        # bias: Platt's update, averaging when both ends are at the bounds
        b1 = b - E[i] - yi * (ai - ai_old) * K[i, i] - yj * (aj - aj_old) * K[i, j]
        b2 = b - E[j] - yi * (ai - ai_old) * K[i, j] - yj * (aj - aj_old) * K[j, j]
        if 0.0 < ai < C:
            new_b = b1
        elif 0.0 < aj < C:
            new_b = b2
        else:
            new_b = 0.5 * (b1 + b2)
        delta_b = new_b - b
        b = new_b
        E += yi * (ai - ai_old) * K[i] + yj * (aj - aj_old) * K[j] + delta_b
        alpha[i], alpha[j] = ai, aj
        return True

    n_passes = 0
    converged = False
    while n_passes < max_passes:
        n_changed = 0
        viol = _kkt_violation(alpha, y, E, C)
        if viol.max() < tol:
            converged = True
            break
        # sweep violators in decreasing severity; deterministic order
        for i in np.argsort(-viol):
            if viol[i] < tol:
                break
            j = int(np.argmax(np.abs(E - E[i])))
            if take_step(i, j):
                n_changed += 1
                continue
            # fall back to a seeded random partner, then a linear scan
            for j in rng.permutation(n):
                if take_step(i, int(j)):
                    n_changed += 1
                    break
        n_passes += 1
        if n_changed == 0:
            # no movable pair left; treat current iterate as converged
            converged = _kkt_violation(alpha, y, E, C).max() < tol
            break

    obj = float(alpha.sum() - 0.5 * (alpha * y) @ K @ (alpha * y))
    sv = alpha > SUPPORT_THRESHOLD
    return BinarySvm(support_vectors=X[sv].copy(),
                     dual_coef=(alpha * y)[sv].copy(),
                     bias=float(b), objective=obj,
                     n_passes=n_passes, converged=converged)


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
                         f"in {bin_.n_passes} passes")
        return "\n".join(lines) + "\n"


def train_multiclass(X, labels, spec: KernelSpec, tol: float = 1e-3,
                     max_passes: int = 10_000, seed: int = 0) -> SvmModel:
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
            X, y, spec, tol=tol, max_passes=max_passes, seed=seed,
            K=K, gamma=gamma))
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
                      "converged": b.converged} for b in model.binaries],
        "pipeline_config": model.pipeline_config,
    }
    blob = json.dumps(meta).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(SVM_MAGIC)
        fh.write(struct.pack("<II", SVM_VERSION, len(blob)))
        fh.write(blob)
        for b in model.binaries:
            fh.write(np.ascontiguousarray(b.support_vectors, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b.dual_coef, dtype="<f8").tobytes())


def load_svm(path) -> SvmModel:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != SVM_MAGIC:
        raise FormatError(f"bad SVM container magic {data[:8]!r}")
    version, blob_len = struct.unpack_from("<II", data, 8)
    if version != SVM_VERSION:
        raise FormatError(f"SVM container version {version}, expected {SVM_VERSION}")
    meta = json.loads(data[16 : 16 + blob_len].decode("utf-8"))
    pos = 16 + blob_len
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
    for info in meta["binaries"]:
        n_sv = info["n_sv"]
        sv = np.frombuffer(data[pos : pos + n_sv * d * 8], dtype="<f8")
        sv = sv.reshape(n_sv, d).copy()
        pos += n_sv * d * 8
        dual = np.frombuffer(data[pos : pos + n_sv * 8], dtype="<f8").copy()
        pos += n_sv * 8
        model.binaries.append(BinarySvm(
            support_vectors=sv, dual_coef=dual, bias=info["bias"],
            objective=info["objective"], n_passes=info["n_passes"],
            converged=info["converged"]))
    return model
