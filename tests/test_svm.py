import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emorec import svm, sweep
from emorec.cli import main
from emorec.errors import DataError, FormatError
from conftest import rewrite_header
from emorec.features import PipelineConfig
from emorec.svm import KernelSpec, resolve_gamma, train_binary
from oracles import kernel_eval

XOR_POINTS = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
XOR_SIGNS = np.array([-1.0, -1.0, 1.0, 1.0])

# Documented toy-problem grid for the dual oracle: 4 points with integer
# coordinates in [0,2]^2, two classes, C=10.  Covers separable, non-separable,
# collinear and one-vs-three geometries under both kernels.
TOY_PROBLEMS = [
    ([(0, 0), (1, 1), (1, 0), (0, 1)], [-1, -1, 1, 1], "rbf", 0.5),
    ([(0, 0), (1, 1), (1, 0), (0, 1)], [-1, -1, 1, 1], "rbf", 2.0),
    ([(0, 0), (0, 1), (2, 1), (2, 2)], [1, 1, -1, -1], "linear", None),
    ([(0, 0), (1, 1), (2, 2), (0, 2)], [1, 1, -1, -1], "linear", None),
    ([(0, 0), (1, 2), (2, 0), (2, 2)], [1, -1, -1, -1], "rbf", 1.0),
    ([(0, 1), (1, 0), (1, 2), (2, 1)], [1, -1, 1, -1], "rbf", 0.5),
    ([(0, 0), (2, 0), (0, 2), (2, 2)], [1, 1, -1, -1], "linear", None),
    ([(0, 0), (1, 0), (1, 1), (2, 1)], [1, -1, 1, -1], "linear", None),
    ([(0, 2), (1, 1), (2, 0), (2, 2)], [1, 1, 1, -1], "rbf", 1.0),
    ([(0, 0), (0, 2), (1, 1), (2, 0)], [-1, 1, -1, 1], "rbf", 0.25),
]


def dual_grid_search(K, y, C, pivot=3):
    """Exhaustive grid search over the 4-point dual.

    Three coordinates are free; the pivot follows from the equality
    constraint.  A coarse pass over the full box is refined twice around the
    running argmax (sound because the dual objective is concave over the
    convex feasible set).
    """
    y = np.asarray(y, dtype=np.float64)
    Q = (y[:, None] * y[None, :]) * K
    free = [i for i in range(4) if i != pivot]

    def search(centers, half, step):
        axes = [np.arange(max(0.0, c - half), min(C, c + half) + step / 2, step)
                for c in centers]
        G = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        a_pivot = -(G * y[free]).sum(axis=1) * y[pivot]
        ok = (a_pivot >= -1e-9) & (a_pivot <= C + 1e-9)
        G, a_pivot = G[ok], np.clip(a_pivot[ok], 0, C)
        A = np.zeros((len(G), 4))
        A[:, free] = G
        A[:, pivot] = a_pivot
        W = A.sum(axis=1) - 0.5 * np.einsum("mi,ij,mj->m", A, Q, A)
        k = int(np.argmax(W))
        return A[k], float(W[k])

    A, W = search([C / 2] * 3, C / 2, 0.25)
    A, W = search(A[free], 0.5, 0.0125)
    A, W = search(A[free], 0.025, 0.000625)
    return A, W


class TestResolveGamma:
    def test_unit_variance(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 338))
        X = (X - X.mean()) / X.std()
        assert abs(resolve_gamma(X) - 1 / 338) < 1e-12

    def test_scaling_by_two_quarters_gamma(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(20, 7))
        g1 = resolve_gamma(X)
        g2 = resolve_gamma(2 * X)
        assert abs(g2 - g1 / 4) < 1e-12 * g1

    def test_matches_two_pass_variance(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-3, 5, size=(10, 5))
        mu = sum(float(v) for v in X.reshape(-1)) / X.size
        var = sum((float(v) - mu) ** 2 for v in X.reshape(-1)) / X.size
        assert abs(resolve_gamma(X) - 1 / (5 * var)) < 1e-12

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            resolve_gamma(np.full((4, 3), 2.5))


class TestKernelEval:
    """kernel_matrix's values, and its agreement with the scalar oracle."""

    def test_rbf_self_is_one(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 10))
        K = svm.kernel_matrix(x, x, KernelSpec(), gamma=0.3)
        assert abs(K[0, 0] - 1.0) < 1e-12

    def test_linear_dot(self):
        K = svm.kernel_matrix([[1.0, 2.0]], [[3.0, 4.0]], KernelSpec(kind="linear"))
        assert K[0, 0] == 11.0

    def test_rbf_known_value(self):
        K = svm.kernel_matrix([[0.0, 0.0]], [[1.0, 0.0]], KernelSpec(), gamma=0.5)
        assert abs(K[0, 0] - np.exp(-0.5)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            svm.kernel_matrix([[1.0]], [[1.0, 2.0]], KernelSpec(kind="linear"))

    def test_matrix_agrees_with_scalar(self):
        rng = np.random.default_rng(4)
        A, B = rng.normal(size=(3, 5)), rng.normal(size=(4, 5))
        spec = KernelSpec()
        K = svm.kernel_matrix(A, B, spec, gamma=0.2)
        for i in range(3):
            for j in range(4):
                assert abs(K[i, j] - kernel_eval(A[i], B[j], spec, 0.2)) < 1e-12


class TestTrainBinary:
    def test_two_point_separable(self):
        X = np.array([[0.0, 0.0], [2.0, 0.0]])
        y = np.array([-1.0, 1.0])
        model = train_binary(X, y, KernelSpec(kind="linear", C=10.0))
        assert len(model.dual_coef) == 2  # both are support vectors
        K = svm.kernel_matrix(X, model.support_vectors,
                              KernelSpec(kind="linear"), None)
        decisions = K @ model.dual_coef + model.bias
        assert np.all(np.sign(decisions) == y)

    def test_xor_rbf_trains_to_100(self):
        spec = KernelSpec(kind="rbf", C=10.0)
        model = train_binary(XOR_POINTS, XOR_SIGNS, spec)
        gamma = resolve_gamma(XOR_POINTS)
        K = svm.kernel_matrix(XOR_POINTS, model.support_vectors, spec, gamma)
        decisions = K @ model.dual_coef + model.bias
        assert np.all(np.sign(decisions) == XOR_SIGNS)

    def test_dual_feasibility(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(40, 4))
        y = np.sign(X[:, 0] + 0.3 * rng.normal(size=40))
        y[y == 0] = 1.0
        spec = KernelSpec(kind="rbf", C=10.0)
        model = train_binary(X, y, spec)
        assert model.converged
        alpha = np.abs(model.dual_coef)
        assert np.all(alpha >= 0) and np.all(alpha <= 10.0 + 1e-9)
        assert abs(model.dual_coef.sum()) < 1e-6

    def test_single_class_rejected(self):
        X = np.zeros((3, 2))
        with pytest.raises(DataError, match="both classes"):
            train_binary(X, np.ones(3), KernelSpec())

    def test_non_finite_rejected(self):
        X = np.array([[0.0, np.inf], [1.0, 2.0]])
        with pytest.raises(DataError, match="non-finite"):
            train_binary(X, np.array([1.0, -1.0]), KernelSpec(kind="linear"))

    @pytest.mark.parametrize("kind", ["linear", "rbf"])
    def test_overflowing_kernel_rejected(self, kind):
        # every entry is finite, but X X' overflows: without the check each
        # one-vs-rest binary ran to its iteration cap (10M by default)
        X = np.random.default_rng(0).normal(size=(20, 5))
        X[3, 2] = 1e300
        labels = np.arange(20) % 4
        # and the check stands in for numpy's overflow warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="non-finite kernel"):
                svm.train_multiclass(X, labels, KernelSpec(kind=kind))
            with pytest.raises(DataError, match="non-finite kernel"):
                train_binary(X, np.where(labels == 0, 1.0, -1.0),
                             KernelSpec(kind=kind))

    @pytest.mark.parametrize("n_labels", [11, 13])
    def test_label_count_mismatch_rejected(self, n_labels):
        X = np.random.default_rng(1).normal(size=(12, 3))
        with pytest.raises(DataError, match=f"{n_labels} labels for 12 windows"):
            svm.train_multiclass(X, np.arange(n_labels) % 2,
                                 KernelSpec(kind="linear"))

    def test_duplicated_points_per_class(self):
        # classes made of duplicated points train to 100% with rbf, C=10
        X = np.repeat(np.array([[0.0, 0.0], [1.0, 1.0]]), 10, axis=0)
        y = np.repeat([1.0, -1.0], 10)
        spec = KernelSpec(kind="rbf", C=10.0)
        model = train_binary(X, y, spec)
        gamma = resolve_gamma(X)
        K = svm.kernel_matrix(X, model.support_vectors, spec, gamma)
        assert np.all(np.sign(K @ model.dual_coef + model.bias) == y)

    def test_random_label_linear_matches_tight_fit(self):
        # random labels on 200 x 50 Gaussian features: no separating
        # hyperplane, so many alphas end at C.  (At C=10 the same problem
        # needs ~2.4e5 iterations, and the tol=1e-9 reference twice that.)
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 50))
        y = np.where(rng.random(200) < 0.5, -1.0, 1.0)
        spec = KernelSpec(kind="linear", C=1.0)
        model = train_binary(X, y, spec)
        assert model.converged
        tight = train_binary(X, y, spec, tol=1e-9)
        assert abs(model.objective - tight.objective) < 1e-5 * abs(tight.objective)
        # KKT recomputed from the returned model, under its own bias
        rows = [int(np.flatnonzero((X == sv).all(axis=1))[0])
                for sv in model.support_vectors]
        alpha = np.zeros(len(y))
        alpha[rows] = np.abs(model.dual_coef)
        E = (svm.kernel_matrix(X, model.support_vectors, spec)
             @ model.dual_coef + model.bias - y)
        viol = svm._kkt_violation(alpha, y, E, spec.C).max()
        assert viol < 1e-3
        assert abs(viol - model.kkt_violation) < 1e-9


class TestDualOracle:
    @pytest.mark.parametrize("points,labels,kind,gamma", TOY_PROBLEMS)
    def test_objective_matches_grid_search(self, points, labels, kind, gamma):
        X = np.array(points, dtype=np.float64)
        y = np.array(labels, dtype=np.float64)
        spec = KernelSpec(kind=kind, C=10.0)
        K = svm.kernel_matrix(X, X, spec, gamma)
        _, w_oracle = dual_grid_search(K, y, spec.C)
        model = train_binary(X, y, spec, gamma=gamma)
        assert model.converged
        assert abs(model.objective - w_oracle) < 1e-2


class TestMulticlass:
    def test_three_blobs_linear(self):
        rng = np.random.default_rng(6)
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        X = np.concatenate([rng.normal(c, 0.5, size=(30, 2)) for c in centers])
        labels = np.repeat([0, 1, 2], 30)
        model = svm.train_multiclass(X, labels, KernelSpec(kind="linear", C=10.0))
        acc = float((svm.predict(model, X) == labels).mean())
        assert acc >= 0.99
        # sanity oracle: classes this separated agree with nearest centroid
        centroid_pred = np.argmin(
            ((X[:, None, :] - centers[None]) ** 2).sum(-1), axis=1)
        assert float((centroid_pred == labels).mean()) == 1.0

    def test_one_sample_per_class_rbf(self):
        X = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]])
        labels = np.arange(4)
        model = svm.train_multiclass(X, labels, KernelSpec(kind="rbf", C=10.0))
        np.testing.assert_array_equal(svm.predict(model, X), labels)

    def test_xor_multiclass_wrapper(self):
        labels = np.array([0, 0, 1, 1])
        model = svm.train_multiclass(XOR_POINTS, labels,
                                     KernelSpec(kind="rbf", C=10.0))
        np.testing.assert_array_equal(svm.predict(model, XOR_POINTS), labels)

    def test_tie_breaks_to_lower_code(self):
        model = svm.SvmModel(kernel=KernelSpec(kind="linear"), gamma=None,
                             classes=[0, 1, 2], n_features=2)
        zero = svm.BinarySvm(support_vectors=np.zeros((1, 2)),
                             dual_coef=np.zeros(1), bias=0.0, objective=0.0,
                             n_passes=0, converged=True, kkt_violation=0.0)
        model.binaries = [zero, zero, zero]
        assert svm.predict(model, np.array([[1.0, 1.0]]))[0] == 0

    def test_argmax_invariant_under_constant_shift(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 3))
        labels = (X[:, 0] > 0).astype(int) + (X[:, 1] > 0).astype(int)
        model = svm.train_multiclass(X, labels, KernelSpec(kind="rbf", C=10.0))
        scores = model.scores(X)
        base = scores.argmax(axis=1)
        shifted = (scores + 3.21).argmax(axis=1)
        np.testing.assert_array_equal(base, shifted)

    def test_decision_invariant_to_sv_order(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(20, 3))
        labels = (X[:, 0] > 0).astype(int)
        model = svm.train_multiclass(X, labels, KernelSpec(kind="rbf", C=10.0))
        before = model.scores(X)
        for b in model.binaries:
            perm = rng.permutation(len(b.dual_coef))
            b.support_vectors = b.support_vectors[perm]
            b.dual_coef = b.dual_coef[perm]
        after = model.scores(X)
        np.testing.assert_allclose(before, after, atol=1e-9)

    def test_prediction_deterministic(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(25, 4))
        labels = (X[:, 0] > 0).astype(int)
        model = svm.train_multiclass(X, labels, KernelSpec(kind="rbf", C=10.0))
        p1 = svm.predict(model, X)
        p2 = svm.predict(model, X)
        np.testing.assert_array_equal(p1, p2)

    def test_feature_dim_mismatch(self):
        model = svm.train_multiclass(XOR_POINTS, [0, 0, 1, 1],
                                     KernelSpec(kind="rbf", C=10.0))
        with pytest.raises(DataError, match="feature dim"):
            svm.predict(model, np.zeros((1, 5)))


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 6))
        labels = (X[:, 0] > 0).astype(int) * 2
        model = svm.train_multiclass(X, labels, KernelSpec(kind="rbf", C=10.0))
        path = tmp_path / "model.bin"
        record = {"pipeline": PipelineConfig(n_mfcc=13, target_length=4200,
                                             frame_length=512).to_dict(),
                  "sample_rate": 4000}
        model.pipeline_config = record
        svm.save_svm(path, model)
        back = svm.load_svm(path)
        assert back.pipeline_config == record
        assert back.classes == model.classes
        np.testing.assert_allclose(back.scores(X), model.scores(X), rtol=1e-12)

    def test_container_from_before_ovo_removal_rejected(self, tmp_path):
        model = svm.train_multiclass(XOR_POINTS, [0, 0, 1, 1],
                                     KernelSpec(kind="rbf", C=10.0))
        path = tmp_path / "model.bin"
        svm.save_svm(path, model)
        rewrite_header(path, strategy="ovr", pairs=[])
        with pytest.raises(FormatError, match="unknown field strategy"):
            svm.load_svm(path)

    def test_ovo_container_rejected(self, tmp_path, capsys):
        model = svm.train_multiclass(XOR_POINTS, [0, 0, 1, 1],
                                     KernelSpec(kind="rbf", C=10.0))
        path = tmp_path / "model.bin"
        svm.save_svm(path, model)
        rewrite_header(path, strategy="ovo", pairs=[[0, 1]])
        with pytest.raises(FormatError, match="unknown field strategy"):
            svm.load_svm(path)
        # the model is read before the (missing) cache and manifest
        assert main(["eval", "--model", str(path),
                     "--features", str(tmp_path / "no_features.bin"),
                     "--manifest", str(tmp_path / "no_manifest.csv"),
                     "--out-dir", str(tmp_path / "r")]) == 2
        assert "unknown field strategy" in capsys.readouterr().err

    def test_summary_mentions_counts(self):
        model = svm.train_multiclass(XOR_POINTS, [0, 0, 1, 1],
                                     KernelSpec(kind="rbf", C=10.0))
        text = model.summary()
        assert "support vectors" in text
        assert "objective" in text
        assert "iterations, max KKT violation" in text
        assert "passes" not in text

    def test_kkt_violation_roundtrip(self, tmp_path):
        model = svm.train_multiclass(XOR_POINTS, [0, 0, 1, 1],
                                     KernelSpec(kind="rbf", C=10.0))
        path = tmp_path / "model.bin"
        svm.save_svm(path, model)
        back = svm.load_svm(path)
        assert [b.kkt_violation for b in back.binaries] == \
            [b.kkt_violation for b in model.binaries]
        assert all(0 <= b.kkt_violation < 1e-3 for b in back.binaries)

    def test_container_without_kkt_violation_rejected(self, tmp_path):
        model = svm.train_multiclass(XOR_POINTS, [0, 0, 1, 1],
                                     KernelSpec(kind="rbf", C=10.0))
        path = tmp_path / "model.bin"
        svm.save_svm(path, model)
        rewrite_header(path, binaries=[
            {"n_sv": len(b.dual_coef), "bias": b.bias, "objective": b.objective,
             "n_passes": b.n_passes, "converged": b.converged}
            for b in model.binaries])
        with pytest.raises(FormatError,
                           match=r"needs field binaries\[0\]\.kkt_violation"):
            svm.load_svm(path)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_kkt_holds_for_random_problems(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 25))
    X = rng.normal(size=(n, 3))
    y = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    if len(set(y)) < 2:
        y[0] = -y[0]
    spec = KernelSpec(kind="rbf", C=10.0)
    model = train_binary(X, y, spec)
    alpha = np.abs(model.dual_coef)
    assert np.all(alpha <= 10.0 + 1e-9)
    assert abs(model.dual_coef.sum()) < 1e-6
    if model.converged:
        gamma = resolve_gamma(X)
        K = svm.kernel_matrix(X, model.support_vectors, spec, gamma)
        decisions = K @ model.dual_coef + model.bias
        margins = y * decisions
        # support vectors strictly inside (0, C) must sit on the margin
        for sv_dc, sv in zip(model.dual_coef, model.support_vectors):
            a = abs(sv_dc)
            if 1e-6 < a < 10.0 - 1e-6:
                i = np.where((X == sv).all(axis=1))[0][0]
                assert abs(margins[i] - 1.0) < 2e-3


def sweep_shaped(seed, n_mfcc, per_class=5, rank=30):
    """8 classes x per_class flattened n_mfcc x 26 windows, the shape of the
    benchmark's svm_sweep training split.  Like MFCC windows they span few
    directions and their classes overlap: cold SMO at C = 10 takes ~600-900
    iterations over the 8 binaries and the largest alphas reach 2-10."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(8), per_class)
    latent = (0.5 * rng.normal(size=(8, rank))[labels]
              + rng.normal(size=(len(labels), rank)))
    d = n_mfcc * 26
    X = (latent @ rng.normal(size=(rank, d)) / np.sqrt(rank)
         + 0.1 * rng.normal(size=(len(labels), d)))
    return 0.05 * X, labels


def one_vs_rest(labels):
    return np.where(labels == np.unique(labels)[:, None], 1.0, -1.0)


def cold_fit(X, labels, spec):
    """The one-vs-rest fit with every binary's SMO started at alpha = 0."""
    K = svm.kernel_matrix(X, X, spec, resolve_gamma(X)
                          if spec.kind == "rbf" else None)
    return [train_binary(X, y, spec, K=K) for y in one_vs_rest(labels)]


def assert_same_binaries(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.bias == b.bias and a.objective == b.objective
        assert a.n_passes == b.n_passes
        np.testing.assert_array_equal(a.dual_coef, b.dual_coef)
        np.testing.assert_array_equal(a.support_vectors, b.support_vectors)


class TestInteriorPointStart:
    @pytest.mark.parametrize("n_mfcc", [13, 40])
    def test_starts_lie_in_the_box(self, n_mfcc):
        X, labels = sweep_shaped(0, n_mfcc)
        spec = KernelSpec(kind="linear", C=10.0)
        Y = one_vs_rest(labels)
        starts = svm.interior_start(svm.kernel_matrix(X, X, spec), Y, spec.C)
        for alpha0, y in zip(starts, Y):
            alpha = svm.feasible_start(alpha0, y, spec.C)
            assert alpha is not None
            assert alpha.min() >= 0.0 and alpha.max() <= spec.C
            assert abs(float(y @ alpha)) <= 1e-12 * spec.C * len(y)

    def test_feasible_start_snaps_and_rejects(self):
        y = np.array([1.0, 1.0, -1.0, -1.0])
        # y'alpha = -0.5 after the snap, moved onto alpha_2, the most interior
        alpha = svm.feasible_start([1e-7, 10.0 - 1e-7, 4.0, 6.5], y, 10.0)
        np.testing.assert_array_equal(alpha, [0.0, 10.0, 3.5, 6.5])
        for bad in ([np.nan, 1.0, 1.0, 0.0], [-1e-3, 1.0, 1.0, 0.0],
                    [10.001, 1.0, 1.0, 10.0], [1.0, 1.0]):
            assert svm.feasible_start(bad, y, 10.0) is None

    @pytest.mark.parametrize("n_mfcc", [13, 40])
    def test_started_objective_matches_cold(self, n_mfcc):
        X, labels = sweep_shaped(1, n_mfcc)
        spec = KernelSpec(kind="linear", C=10.0)
        model = svm.train_multiclass(X, labels, spec)
        for started, cold in zip(model.binaries, cold_fit(X, labels, spec)):
            assert started.converged and cold.converged
            assert (abs(started.objective - cold.objective)
                    <= 1e-6 * abs(cold.objective))

    def test_random_label_problem_finishes_from_start(self):
        # cold, SMO needs ~2.2e5 iterations on this binary at C=10
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 50))
        y = np.where(rng.random(200) < 0.5, -1.0, 1.0)
        spec = KernelSpec(kind="linear", C=10.0)
        K = svm.kernel_matrix(X, X, spec)
        [alpha0] = svm.interior_start(K, y[None], spec.C)
        started = train_binary(X, y, spec, K=K, alpha0=alpha0)
        cold = train_binary(X, y, spec, K=K)
        assert started.converged and started.n_passes < 1000
        assert abs(started.objective - cold.objective) <= 1e-6 * abs(cold.objective)

    def test_failed_start_gives_the_cold_model(self, monkeypatch):
        X, labels = sweep_shaped(2, 13)
        spec = KernelSpec(kind="linear", C=10.0)
        monkeypatch.setattr(svm, "interior_start",
                            lambda K, Y, C: np.full(Y.shape, np.nan))
        model = svm.train_multiclass(X, labels, spec)
        assert_same_binaries(model.binaries, cold_fit(X, labels, spec))

    @pytest.mark.parametrize("kind,gate", [("linear", 39), ("rbf", 10_000)])
    def test_no_start_above_gate_or_for_rbf(self, monkeypatch, kind, gate):
        X, labels = sweep_shaped(3, 13)     # 40 samples
        spec = KernelSpec(kind=kind, C=10.0)
        calls = []
        monkeypatch.setattr(svm, "interior_start",
                            lambda *args: calls.append(args))
        monkeypatch.setattr(svm, "START_MAX_N", gate)
        model = svm.train_multiclass(X, labels, spec)
        assert calls == []
        assert_same_binaries(model.binaries, cold_fit(X, labels, spec))

    def test_start_used_at_or_below_gate(self, monkeypatch):
        X, labels = sweep_shaped(3, 13)
        calls = []
        start = svm.interior_start
        monkeypatch.setattr(svm, "interior_start",
                            lambda *args: calls.append(args) or start(*args))
        monkeypatch.setattr(svm, "START_MAX_N", len(X))
        svm.train_multiclass(X, labels, KernelSpec(kind="linear", C=10.0))
        assert len(calls) == 1

    @pytest.mark.parametrize("points,labels,kind,gamma", TOY_PROBLEMS)
    def test_dual_oracle_through_multiclass(self, points, labels, kind, gamma):
        # train_multiclass resolves the "scale" gamma; the toy's own gamma is
        # train_binary's (TestDualOracle)
        X = np.array(points, dtype=np.float64)
        spec = KernelSpec(kind=kind, C=10.0)
        K = svm.kernel_matrix(X, X, spec,
                              resolve_gamma(X) if kind == "rbf" else None)
        _, w_oracle = dual_grid_search(K, labels, spec.C)
        # classes 0 and 1: the two binaries are the problem and its mirror
        model = svm.train_multiclass(X, (np.array(labels) > 0).astype(int), spec)
        for binary in model.binaries:
            assert binary.converged
            assert abs(binary.objective - w_oracle) < 1e-2


class TestScoresByClassCode:
    """An SVM's score columns are class codes, as a CNN's are; a class absent
    from training (TESS has no calm) scores -inf."""

    @staticmethod
    def fit(codes):
        rng = np.random.default_rng(4)
        centers = rng.normal(size=(8, 13, 26))
        labels = np.repeat(codes, 4)
        windows = centers[labels] + 0.05 * rng.normal(size=(len(labels), 13, 26))
        model = svm.train_multiclass(windows.reshape(len(labels), -1), labels,
                                     KernelSpec(kind="linear"))
        return model, windows, labels

    def test_model_without_calm(self):
        codes = [c for c in range(8) if c != 1]
        model, windows, labels = self.fit(codes)
        X = windows.reshape(len(windows), -1)
        scores = model.scores(windows)
        assert scores.shape == (len(windows), 8)
        assert np.all(scores[:, 1] == -np.inf)
        for c, b in zip(codes, model.binaries):   # each binary's decision value
            Kx = svm.kernel_matrix(X, b.support_vectors, model.kernel, model.gamma)
            np.testing.assert_array_equal(scores[:, c], Kx @ b.dual_coef + b.bias)
        preds = svm.predict(model, X)
        np.testing.assert_array_equal(preds, labels)
        np.testing.assert_array_equal(model.probabilities(windows).argmax(axis=1),
                                      preds)
        assert np.all(model.probabilities(windows)[:, 1] == 0.0)
        report = sweep.evaluate_model(model, windows, labels, with_roc=True)
        assert report.accuracy == 1.0 and report.support[1] == 0
        assert np.isnan(report.roc_auc[1])

    def test_all_classes_score_as_decision_values(self):
        model, windows, _ = self.fit(list(range(8)))
        scores = model.scores(windows)
        assert np.isfinite(scores).all()
        assert np.array_equal(scores, model.scores(windows.reshape(len(windows), -1)))

    def test_labels_outside_class_codes_rejected(self):
        X = np.random.default_rng(0).normal(size=(4, 3))
        with pytest.raises(DataError, match="class codes"):
            svm.train_multiclass(X, [0, 0, 8, 8], KernelSpec())
