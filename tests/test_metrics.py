import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emorec import metrics
from emorec.errors import DataError
import oracles


class TestConfusionMatrix:
    def test_perfect_diagonal(self):
        labels = np.repeat(np.arange(8), 2)
        cm = metrics.confusion_matrix(labels, labels)
        np.testing.assert_array_equal(cm, np.eye(8, dtype=int) * 2)

    def test_all_predicted_class_zero(self):
        labels = np.arange(8)
        cm = metrics.confusion_matrix(labels, np.zeros(8, dtype=int))
        assert cm[:, 0].sum() == 8
        assert cm[:, 1:].sum() == 0

    def test_explicit_pairs(self):
        cm = metrics.confusion_matrix([0, 0, 1], [0, 1, 1], n_classes=2)
        np.testing.assert_array_equal(cm, [[1, 1], [0, 1]])

    def test_length_mismatch(self):
        with pytest.raises(DataError, match="length mismatch"):
            metrics.confusion_matrix([0, 1], [0])

    def test_out_of_range(self):
        with pytest.raises(DataError):
            metrics.confusion_matrix([0, 9], [0, 0])


class TestPrecisionRecallF1:
    def test_diagonal_is_perfect(self):
        cm = np.eye(8, dtype=int) * 3
        p, r, f1 = metrics.precision_recall_f1(cm)
        np.testing.assert_allclose(p, 1.0)
        np.testing.assert_allclose(r, 1.0)
        np.testing.assert_allclose(f1, 1.0)

    def test_hand_example(self):
        cm = np.array([[8, 2], [4, 6]])
        p, r, f1 = metrics.precision_recall_f1(cm)
        assert abs(p[0] - 8 / 12) < 1e-3
        assert abs(r[0] - 0.8) < 1e-3
        assert abs(f1[0] - 0.727) < 1e-3
        assert abs(p[1] - 6 / 8) < 1e-3
        assert abs(r[1] - 0.6) < 1e-3

    def test_empty_column_gives_zero(self):
        cm = np.array([[0, 5], [0, 5]])
        p, r, f1 = metrics.precision_recall_f1(cm)
        assert p[0] == 0.0
        assert r[0] == 0.0
        assert f1[0] == 0.0


class TestTopK:
    def test_k_equals_n_classes(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(8), size=20)
        labels = rng.integers(0, 8, 20)
        assert metrics.top_k_accuracy(probs, labels, 8) == 1.0

    def test_k1_is_plain_accuracy(self):
        rng = np.random.default_rng(1)
        probs = rng.dirichlet(np.ones(8), size=50)
        labels = rng.integers(0, 8, 50)
        acc = float((probs.argmax(axis=1) == labels).mean())
        assert metrics.top_k_accuracy(probs, labels, 1) == acc

    def test_true_in_top2(self):
        probs = np.array([[0.4, 0.3, 0.2, 0.1, 0, 0, 0, 0]])
        assert metrics.top_k_accuracy(probs, [1], 2) == 1.0
        assert metrics.top_k_accuracy(probs, [2], 2) == 0.0

    def test_tie_breaks_to_lower_code(self):
        probs = np.array([[0.5, 0.5, 0.0]])
        assert metrics.top_k_accuracy(probs, [0], 1) == 1.0
        assert metrics.top_k_accuracy(probs, [1], 1) == 0.0

    @given(st.integers(0, 10_000), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_nondecreasing_in_k(self, seed, k):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(8), size=30)
        labels = rng.integers(0, 8, 30)
        accs = [metrics.top_k_accuracy(probs, labels, kk)
                for kk in range(1, 9)]
        assert all(a <= b + 1e-12 for a, b in zip(accs, accs[1:]))


class TestRocAuc:
    def test_separable_scores_give_one(self):
        scores = np.zeros((6, 2))
        scores[:3, 0] = [3.0, 2.0, 1.0]
        scores[3:, 0] = [-1.0, -2.0, -3.0]
        scores[:, 1] = -scores[:, 0]
        labels = np.array([0, 0, 0, 1, 1, 1])
        aucs = metrics.roc_auc_ovr(scores, labels, n_classes=2)
        np.testing.assert_allclose(aucs, [1.0, 1.0])

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=(4000, 2))
        labels = rng.integers(0, 2, 4000)
        aucs = metrics.roc_auc_ovr(scores, labels, n_classes=2)
        assert abs(aucs[0] - 0.5) < 0.05

    def test_absent_class_is_nan(self):
        scores = np.ones((4, 3))
        labels = np.array([0, 0, 1, 1])
        aucs = metrics.roc_auc_ovr(scores, labels, n_classes=3)
        assert np.isnan(aucs[2])

    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_to_loop_on_ties(self, seed):
        # few distinct values, so most scores tie; the SVM scores a class
        # absent from training -inf, a column that is one tie group
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 300))
        scores = rng.integers(0, 1 + seed * 3, size=(n, 8)) / 4.0
        scores[:, 1] = -np.inf
        scores[rng.random((n, 8)) < 0.2] = -np.inf
        labels = rng.integers(0, 8, n)
        got = metrics.roc_auc_ovr(scores, labels)
        want = oracles.roc_auc_ovr(scores, labels, metrics.N_CLASSES)
        assert got.tobytes() == want.tobytes()


class TestReport:
    def test_identities(self):
        rng = np.random.default_rng(3)
        scores = rng.dirichlet(np.ones(8), size=200)
        labels = rng.integers(0, 8, 200)
        report = metrics.metrics_report(labels, scores)
        # trace/N is top-1 accuracy
        assert report.accuracy == np.trace(report.confusion) / 200
        assert report.accuracy == report.top_k[1]
        # micro recall equals accuracy
        micro_recall = (np.diag(report.confusion).sum()
                        / report.confusion.sum())
        assert micro_recall == report.accuracy
        assert report.confusion.sum() == 200

    def test_csv_outputs(self):
        scores = np.eye(8)[np.arange(8)]
        report = metrics.metrics_report(np.arange(8), scores)
        per_class = report.per_class_csv()
        assert per_class.startswith("class,precision,recall,f1,support")
        assert "neutral" in per_class
        confusion = report.confusion_csv()
        assert confusion.count("\n") == 9  # header + 8 rows

    def test_text_report(self):
        scores = np.eye(8)[np.arange(8)]
        text = metrics.metrics_report(np.arange(8), scores).to_text()
        assert "accuracy: 1.0000" in text
        assert "surprised" in text
