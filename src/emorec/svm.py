"""Soft-margin kernel SVM trained by SMO with second-order working-set
selection (WSS2: Fan, Chen & Lin, "Working Set Selection Using Second Order
Information", JMLR 2005, the rule LIBSVM uses).

Solves, per binary subproblem,

    max  sum(alpha) - 1/2 sum_ij alpha_i alpha_j y_i y_j K(x_i, x_j)
    s.t. 0 <= alpha_i <= C,  sum_i alpha_i y_i = 0

Each iteration pairs the maximal violator i with the partner j of largest
second-order gain b^2/a and takes the clipped two-variable step, updating the
gradient from rows i and j of the kernel matrix; nothing is random.  Training
stops when the gap m(alpha) - M(alpha) drops below tol (TOL, 1e-3), which
bounds every KKT violation by tol under the returned bias, or after MAX_ITER
iterations; `n_passes` counts the iterations from SMO's start and
`kkt_violation` records the largest violation left.

Multiclass is one-vs-rest: one binary per class against the rest, sharing
one kernel matrix; the prediction is the argmax of the decision values, ties
to the lower class code.  Linear fits on at most START_MAX_N samples start SMO
from `interior_start`, all the duals solved together by dense primal-dual
Newton steps; larger sets and RBF, where cold SMO is faster, start at alpha = 0.

Defaults follow the training setup used throughout: C = 10, gamma = "scale"
meaning 1 / (n_features * population variance of all entries of X).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .container import read_model, write_model
from .dataset import N_CLASSES
from .errors import DataError, FormatError
from .features import PIPELINE_RECORD
from .nn import softmax

SUPPORT_THRESHOLD = 1e-8
TAU = 1e-12   # floor on the curvature a of a working-set pair
START_MAX_N = 256   # started linear fits win 1.3-4x up to n = 256, lose at 432
TOL = 1e-3   # SMO's gap test, LIBSVM's default
MAX_ITER = 10_000_000   # SMO's iteration cap

SVM_MAGIC = b"EMOSVM\x00\x00"
SVM_VERSION = 1


@dataclass(frozen=True)
class KernelSpec:
    kind: str = "rbf"                 # "rbf" | "linear"
    C: float = 10.0

    def __post_init__(self):
        if self.kind not in ("rbf", "linear"):
            raise ValueError(f"unknown kernel {self.kind!r}")
        if self.C <= 0:
            raise ValueError(f"C must be positive, got {self.C}")


def resolve_gamma(X: np.ndarray) -> float:
    """The "scale" gamma for the RBF kernel: 1 / (n_features * var(X)).

    var is the population variance over all entries of X.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.size == 0:
        raise ValueError("cannot resolve gamma on empty data")
    var = X.var()
    if var <= 0:
        raise ValueError("zero variance data; gamma='scale' undefined")
    return 1.0 / (X.shape[1] * var)


def _fit_kernel(X, spec: KernelSpec, gamma=None):
    """(gamma, K(X, X)) for a fit, gamma resolved unless given; a DataError in
    place of numpy's overflow warnings if K is not finite (SMO would spin)."""
    with np.errstate(over="ignore", invalid="ignore"):
        if gamma is None and spec.kind == "rbf":
            gamma = resolve_gamma(X)
        K = kernel_matrix(X, X, spec, gamma)
    if not np.isfinite(K).all():
        raise DataError("non-finite kernel values: features non-finite or too large")
    return gamma, K


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
    n_passes: int                 # working-set iterations from the start
    converged: bool
    kkt_violation: float          # max KKT violation under the bias


def _kkt_violation(alpha, y, E, C, eps=SUPPORT_THRESHOLD):
    # violation of: alpha=0 -> yE >= 0 ; 0<alpha<C -> yE = 0 ; alpha=C -> yE <= 0
    r = y * E
    return np.where(alpha > C - eps, np.maximum(0.0, r),
                    np.where(alpha < eps, np.maximum(0.0, -r), np.abs(r)))


def train_binary(X, y, spec: KernelSpec, tol: float = TOL,
                 K: np.ndarray | None = None,
                 gamma: float | None = None,
                 alpha0: np.ndarray | None = None) -> BinarySvm:
    """Fit one soft-margin binary SVM with labels y in {-1, +1}.

    A precomputed kernel matrix K (against X itself) can be shared across
    one-vs-rest subproblems.  SMO starts from `feasible_start(alpha0)`, else
    alpha = 0; the gap test alone decides convergence.  MAX_ITER caps, and
    n_passes counts, working-set iterations from the start.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise DataError("labels must be -1/+1")
    if len(set(y)) < 2:
        raise DataError("both classes must be present")

    if K is None:
        _, K = _fit_kernel(X, spec, gamma)
    C = spec.C
    diag = np.diag(K)
    curv = np.maximum(diag[:, None] + diag[None, :] - 2.0 * K, TAU)
    pos = (y > 0).tolist()
    signs = y.tolist()
    start = None if alpha0 is None else feasible_start(alpha0, y, C)
    alpha = np.zeros(n) if start is None else start
    # E_t = sum_s alpha_s y_s K_ts - y_t, the decision value minus the label
    # without bias (LIBSVM's y_t G_t).  Penalties hide the indices outside
    # I_up (alpha_t cannot move along y_t) and I_low (cannot move along -y_t).
    E = K @ (alpha * y) - y
    up_pen = np.where(np.where(y > 0, alpha < C, alpha > 0.0), 0.0, np.inf)
    low_pen = np.where(np.where(y > 0, alpha > 0.0, alpha < C), 0.0, -np.inf)
    alpha = alpha.tolist()

    n_iter = 0
    while True:
        i = int((E + up_pen).argmin())
        b = E + low_pen
        b -= E[i]          # b_t = E_t - E_i: gain of the pair (i, t) per unit step
        gap = b.max()      # m(alpha) - M(alpha)
        if gap < tol or n_iter >= MAX_ITER:
            break
        # second-order partner: largest guaranteed decrease b^2 / a
        a = curv[i]
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


def feasible_start(alpha0, y, C: float) -> np.ndarray | None:
    """alpha0 with values within 1e-6 C of a bound put on it and y'alpha
    moved onto the most interior value; None if it is NaN or leaves the box."""
    alpha = np.array(alpha0, dtype=np.float64)
    eps = 1e-6 * C
    if alpha.shape != y.shape or not -eps <= alpha.min() <= alpha.max() <= C + eps:
        return None
    alpha[alpha < eps] = 0.0
    alpha[alpha > C - eps] = C
    k = int(np.minimum(alpha, C - alpha).argmax())
    alpha[k] -= y[k] * float(y @ alpha)
    return alpha if 0.0 <= alpha[k] <= C else None


def interior_start(K, Y, C: float) -> np.ndarray:
    """Duals of all one-vs-rest binaries (labels Y, a row each) by primal-
    dual path following (Fine & Scheinberg, JMLR 2001), NaN if a solve fails.

    Per step, one batched solve of (K + D) w = [Y r, 1] gives each running
    binary's Newton step da = Y (w_0 - db w_1) on (Y K Y + D) da + y db = r,
    centred at 0.1 mu and cut to 0.99 of the way to the box.  A binary stops
    when its residuals and mu are below 1e-6, or after 50 steps."""
    m, n = Y.shape
    # per binary: alpha, C - alpha, and the multipliers of their bounds at 0
    x = np.concatenate([np.full((m, 2, n), 0.5 * C), np.ones((m, 2, n))], axis=1)
    b = np.zeros(m)
    running = np.ones(m, dtype=bool)
    for _ in range(50):
        alpha, z = x[:, 0], x[:, 2:]
        r = 1.0 - Y * ((Y * alpha) @ K) - b[:, None] * Y   # -gradient, less z
        r_p = -(Y * alpha).sum(axis=1)
        mu = (x[:, :2] * z).sum(axis=(1, 2)) / (2 * n)
        running &= np.maximum(np.abs(r + z[:, 0] - z[:, 1]).max(axis=1),
                              np.maximum(np.abs(r_p), mu)) >= 1e-6
        if not running.any():
            break
        a = np.flatnonzero(running)
        v, z, Ya, smu = x[a, :2], x[a, 2:], Y[a], 0.1 * mu[a, None, None]
        M = np.repeat(K[None], len(a), axis=0)
        M[:, range(n), range(n)] += (z / v).sum(axis=1)
        c = smu / v
        try:
            w = np.linalg.solve(M, np.stack([Ya * (r[a] + c[:, 0] - c[:, 1]),
                                             np.ones_like(Ya)], axis=-1))
        except np.linalg.LinAlgError:
            return np.full((m, n), np.nan)
        db = (w[..., 0].sum(axis=1) - r_p[a]) / w[..., 1].sum(axis=1)
        dv = Ya * (w[..., 0] - db[:, None] * w[..., 1])
        dv = np.stack([dv, -dv], axis=1)
        dx = np.concatenate([dv, (smu - z * (v + dv)) / v], axis=1)
        with np.errstate(divide="ignore"):
            t = np.where(dx < 0, -x[a] / dx, np.inf).min(axis=(1, 2))
        t = np.minimum(1.0, 0.99 * t)
        x[a] += t[:, None, None] * dx
        b[a] += t * db
    return x[:, 0]


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
        """Raw decision values for windows shaped (N, n_mfcc, n_frames) or
        (N, n_features), one column per class code, -inf for a class absent
        from training; unscaled, fine for argmax/top-k ranking."""
        X = np.asarray(windows, dtype=np.float64).reshape(len(windows), -1)
        if X.shape[1] != self.n_features:
            raise DataError(f"feature dim {X.shape[1]} != trained {self.n_features}")
        out = np.full((len(X), N_CLASSES), -np.inf)
        for c, bin_ in zip(self.classes, self.binaries):
            Kx = kernel_matrix(X, bin_.support_vectors, self.kernel, self.gamma)
            out[:, c] = Kx @ bin_.dual_coef + bin_.bias
        return out

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


def train_multiclass(X, labels, spec: KernelSpec) -> SvmModel:
    """Train a one-vs-rest multiclass SVM over integer labels."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    classes = sorted(int(c) for c in set(labels.tolist()))
    if len(classes) < 2:
        raise DataError("need at least 2 classes")
    if classes[0] < 0 or classes[-1] >= N_CLASSES:
        raise DataError(f"labels outside the class codes 0..{N_CLASSES - 1}")

    gamma, K = _fit_kernel(X, spec)   # K is shared across subproblems
    model = SvmModel(kernel=spec, gamma=gamma, classes=classes,
                     n_features=X.shape[1])
    Y = np.where(labels == np.array(classes)[:, None], 1.0, -1.0)
    starts = (interior_start(K, Y, spec.C) if spec.kind == "linear"
              and len(X) <= START_MAX_N else [None] * len(Y))
    for y, alpha0 in zip(Y, starts):
        model.binaries.append(train_binary(
            X, y, spec, K=K, gamma=gamma, alpha0=alpha0))
    return model


def predict(model: SvmModel, X) -> np.ndarray:
    """Predicted class codes, the scores' argmax: the columns are the codes
    and untrained ones -inf, and ties go to the lower code."""
    return model.scores(X).argmax(axis=1)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_svm(path, model: SvmModel) -> None:
    """Versioned binary container: JSON header + float64 LE tensors."""
    meta = {
        "kernel": asdict(model.kernel),
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


_HEADER = {
    "kernel": {"kind": str, "C": float},
    "gamma": (float, None), "classes": [int], "n_features": int,
    "binaries": [{"n_sv": int, "bias": float, "objective": float,
                  "n_passes": int, "converged": bool,
                  "kkt_violation": float}],
    "pipeline_config": PIPELINE_RECORD,
}


def load_svm(path) -> SvmModel:
    meta, r = read_model(path, SVM_MAGIC, SVM_VERSION, "SVM container", _HEADER)
    try:
        spec = KernelSpec(**meta["kernel"])
    except ValueError as exc:
        raise FormatError(f"SVM container kernel: {exc}") from exc
    classes, d = meta["classes"], meta["n_features"]
    if (len(meta["binaries"]) != len(classes) or classes != sorted(set(classes))
            or not all(0 <= c < N_CLASSES for c in classes)
            or (spec.kind, meta["gamma"]) == ("rbf", None)):
        raise FormatError("SVM container header needs distinct ascending classes in "
                          f"0..{N_CLASSES - 1}, one binary per class, and a gamma "
                          "for an rbf kernel")
    model = SvmModel(kernel=spec, gamma=meta["gamma"], classes=classes,
                     n_features=d, pipeline_config=meta["pipeline_config"])
    for k, info in enumerate(meta["binaries"]):
        n_sv = info.pop("n_sv")
        model.binaries.append(BinarySvm(
            support_vectors=r.array("<f8", (n_sv, d), f"binary {k} support vectors"),
            dual_coef=r.array("<f8", (n_sv,), f"binary {k} dual coefficients"),
            **info))
    r.expect_end()
    return model
