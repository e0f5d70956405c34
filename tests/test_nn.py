import math

import numpy as np
import pytest

from emorec import nn
from emorec.errors import ConfigError, FormatError
from conftest import overfit_windows, rewrite_header

TABLE_SHAPES = [(13, 26, 32), (11, 24, 32), (5, 12, 32), (5, 12, 32),
                (5, 12, 64), (3, 10, 64), (1, 5, 64), (1, 5, 64),
                (320,), (512,), (512,), (8,)]
TABLE_COUNTS = [320, 9248, 0, 0, 18496, 36928, 0, 0, 0, 164352, 0, 4104]


def naive_conv2d(x, W, b, padding):
    """Six nested loops, straight from the definition."""
    k = W.shape[0]
    if padding == "same":
        p = (k - 1) // 2
        x = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    n, h, w, cin = x.shape
    cout = W.shape[3]
    ho, wo = h - k + 1, w - k + 1
    out = np.zeros((n, ho, wo, cout))
    for s in range(n):
        for i in range(ho):
            for j in range(wo):
                for co in range(cout):
                    acc = b[co]
                    for di in range(k):
                        for dj in range(k):
                            for ci in range(cin):
                                acc += x[s, i + di, j + dj, ci] * W[di, dj, ci, co]
                    out[s, i, j, co] = acc
    return out


class TestArchitecture:
    def test_table_shapes(self):
        model = nn.build_emotion_cnn()
        assert nn.layer_shapes(model.specs, model.input_shape) == TABLE_SHAPES

    def test_table_param_counts(self):
        model = nn.build_emotion_cnn()
        assert nn.parameter_counts(model.specs, model.input_shape) == TABLE_COUNTS
        assert sum(TABLE_COUNTS) == 233448

    def test_audit_text(self):
        text = nn.audit_params(nn.build_emotion_cnn())
        assert text.rstrip().endswith("Total params: 233448")

    def test_pooling_chain_guard(self):
        with pytest.raises(ConfigError):
            nn.build_emotion_cnn(n_mfcc=3, n_frames=4)

    def test_dense_param_example(self):
        # Dense(512) on 320 inputs
        assert 320 * 512 + 512 == 164352


class TestConv:
    def test_identity_center_kernel(self):
        x = np.array([[[[2.0]]]])  # 1x1x1x1
        W = np.zeros((3, 3, 1, 1))
        W[1, 1, 0, 0] = 1.0
        b = np.array([0.25])
        out, _ = nn.conv2d_forward(x, W, b, "same")
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 2.25

    def test_all_ones_valid(self):
        x = np.ones((1, 3, 3, 1))
        W = np.ones((3, 3, 1, 1))
        out, _ = nn.conv2d_forward(x, W, np.zeros(1), "valid")
        assert out.shape == (1, 1, 1, 1)
        assert out[0, 0, 0, 0] == 9.0

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 5, 6, 2))
        W = rng.normal(size=(3, 3, 2, 4))
        b = rng.normal(size=4)
        for padding in ("same", "valid"):
            got, _ = nn.conv2d_forward(x, W, b, padding)
            want = naive_conv2d(x, W, b, padding)
            assert np.abs(got - want).max() < 1e-12 * max(1, np.abs(want).max())

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            nn.conv2d_forward(np.zeros((1, 4, 4, 3)), np.zeros((3, 3, 2, 1)),
                              np.zeros(1), "same")


class TestMaxPool:
    def test_table_transitions(self):
        out, _ = nn.maxpool2d_forward(np.zeros((1, 11, 24, 32)))
        assert out.shape == (1, 5, 12, 32)
        out, _ = nn.maxpool2d_forward(np.zeros((1, 3, 10, 64)))
        assert out.shape == (1, 1, 5, 64)

    def test_simple_window(self):
        x = np.array([[[[1.0], [2.0]], [[3.0], [4.0]]]])
        out, (idx, _, _) = nn.maxpool2d_forward(x)
        assert out[0, 0, 0, 0] == 4.0
        assert idx[0, 0, 0, 0] == 3  # bottom-right of the 2x2 window

    def test_output_bounded_by_window_max(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 6, 8, 3))
        out, _ = nn.maxpool2d_forward(x)
        assert out.max() <= x.max()
        assert np.all(out >= x.min())

    def test_backward_routes_to_argmax(self):
        x = np.array([[[[1.0], [5.0]], [[3.0], [4.0]]]])
        out, cache = nn.maxpool2d_forward(x)
        dx = nn.maxpool2d_backward(np.ones_like(out), cache)
        expected = np.zeros_like(x)
        expected[0, 0, 1, 0] = 1.0
        np.testing.assert_array_equal(dx, expected)


class TestActivations:
    def test_softmax_uniform(self):
        probs = nn.softmax(np.zeros((1, 8)))
        np.testing.assert_allclose(probs, 1 / 8)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        probs = nn.softmax(rng.normal(scale=30, size=(40, 8)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(probs >= 0)

    def test_relu_nonnegative(self):
        rng = np.random.default_rng(3)
        out, _ = nn.relu_forward(rng.normal(size=(10, 10)))
        assert np.all(out >= 0)


class TestDropout:
    def test_rate_zero_identity(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 5))
        for train in (True, False):
            out, mask = nn.dropout_forward(x, 0.0, train, rng=rng)
            np.testing.assert_array_equal(out, x)
            assert mask is None

    def test_infer_identity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(5, 5))
        out, mask = nn.dropout_forward(x, 0.9, train=False)
        np.testing.assert_array_equal(out, x)
        assert mask is None

    def test_monte_carlo_expectation(self):
        rng = np.random.default_rng(6)
        x = np.full(10 ** 6, 2.0)
        out, mask = nn.dropout_forward(x, 0.5, train=True, rng=rng)
        survivors = mask.mean()
        assert abs(survivors - 0.5) < 0.002
        assert abs(out.mean() - x.mean()) / x.mean() < 0.005


class TestLoss:
    def test_uniform_probs(self):
        probs = np.full((4, 8), 1 / 8)
        labels = np.array([0, 3, 5, 7])
        assert abs(nn.cross_entropy_loss(probs, labels) - math.log(8)) < 1e-12

    def test_perfect_prediction(self):
        probs = np.zeros((2, 8))
        probs[0, 1] = 1.0
        probs[1, 4] = 1.0
        assert nn.cross_entropy_loss(probs, [1, 4]) <= 1e-12

    def test_half_quarter(self):
        probs = np.zeros((2, 4))
        probs[0] = [0.5, 0.5, 0, 0]
        probs[1] = [0.25, 0.25, 0.25, 0.25]
        loss = nn.cross_entropy_loss(probs, [0, 2])
        assert abs(loss - (math.log(2) + math.log(4)) / 2) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            nn.cross_entropy_loss(np.full((1, 8), 1 / 8), [9])

    def test_combined_gradient_identity(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(6, 8))
        labels = rng.integers(0, 8, 6)
        loss, dlogits, probs = nn.softmax_cross_entropy(logits, labels)
        onehot = np.zeros_like(probs)
        onehot[np.arange(6), labels] = 1
        np.testing.assert_allclose(dlogits, (probs - onehot) / 6, atol=1e-12)


class TestRmsprop:
    def test_zero_gradient_no_move(self):
        params = [{"W": np.ones((2, 2))}]
        grads = [{"W": np.zeros((2, 2))}]
        acc = [{"W": np.zeros((2, 2))}]
        nn.rmsprop_step(params, grads, acc, nn.TrainConfig(), t=0)
        np.testing.assert_array_equal(params[0]["W"], np.ones((2, 2)))

    def test_single_scalar_step(self):
        params = [{"W": np.array([0.0])}]
        grads = [{"W": np.array([1.0])}]
        acc = [{"W": np.array([0.0])}]
        cfg = nn.TrainConfig(lr=1e-4, rho=0.9, epsilon=1e-7)
        nn.rmsprop_step(params, grads, acc, cfg, t=0)
        expected = -1e-4 / (math.sqrt(0.1) + 1e-7)
        assert abs(params[0]["W"][0] - expected) < 1e-12
        assert abs(expected + 3.1623e-4) < 1e-7

    def test_lr_decay_halves_at_million(self):
        cfg = nn.TrainConfig(lr=1e-4, decay=1e-6)
        lr_t = cfg.lr / (1.0 + cfg.decay * 10 ** 6)
        assert abs(lr_t - cfg.lr / 2) < 1e-18


class TestGradientCheck:
    def test_dense_relu_softmax(self):
        specs = (nn.FlattenSpec(), nn.Dense(8, activation="relu"),
                 nn.Dense(4, activation="softmax"))
        model = nn.build_model(specs, (2, 3, 1), seed=0)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 2, 3, 1))
        worst, _ = nn.gradient_check(model, x, np.array([0, 1, 3]))
        assert worst < 1e-4

    def test_conv_pool(self):
        specs = (nn.Conv2D(3, padding="same"), nn.Conv2D(2, padding="valid"),
                 nn.MaxPool2D(2), nn.FlattenSpec(),
                 nn.Dense(4, activation="softmax"))
        model = nn.build_model(specs, (6, 7, 1), seed=1)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(2, 6, 7, 1))
        worst, _ = nn.gradient_check(model, x, np.array([0, 2]))
        assert worst < 1e-4

    def test_dropout_with_frozen_mask(self):
        specs = (nn.FlattenSpec(), nn.Dense(10, activation="relu"),
                 nn.DropoutSpec(0.5), nn.Dense(4, activation="softmax"))
        model = nn.build_model(specs, (3, 3, 1), seed=2)
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 3, 3, 1))
        worst, _ = nn.gradient_check(model, x, np.array([1, 2]))
        assert worst < 1e-4

    def test_reduced_width_full_stack(self):
        # fixture seeds keep activations away from pooling ties and relu
        # kinks, where a finite difference would straddle a non-smooth point
        model = nn.build_emotion_cnn(conv_filters=(8, 8, 8, 8),
                                     dense_units=16, seed=0)
        rng = np.random.default_rng(100)
        x = rng.normal(size=(2, 13, 26, 1))
        worst, per_tensor = nn.gradient_check(model, x, np.array([1, 5]))
        assert worst < 1e-4
        assert len(per_tensor) == 12  # W and b for 4 convs + 2 dense

    def test_bias_gradient_zero_weight_model(self):
        # with all weights zero, logits are 0 -> probs uniform; the output
        # bias gradient is probs - onehot averaged over the batch
        specs = (nn.FlattenSpec(), nn.Dense(4, activation="softmax"))
        model = nn.build_model(specs, (1, 2, 1), seed=0)
        model.params[1]["W"][:] = 0.0
        x = np.array([[[[0.3], [-0.2]]], [[[0.1], [0.9]]]])
        labels = np.array([0, 2])
        loss, grads, probs, _ = nn.loss_and_grads(model, x, labels, train=False)
        np.testing.assert_allclose(probs, 0.25)
        expected = np.full(4, 0.25) - np.array([0.5, 0.0, 0.5, 0.0])
        np.testing.assert_allclose(grads[1]["b"], expected, atol=1e-12)
        assert abs(loss - math.log(4)) < 1e-12


class TestTraining:
    def test_overfit_eight_windows(self):
        x, labels = overfit_windows()
        model = nn.build_emotion_cnn(seed=0)
        cfg = nn.TrainConfig(epochs=200, batch_size=8, seed=0)
        history = nn.train(model, x, labels, cfg)
        assert abs(history[0].train_loss - math.log(8)) < 0.05
        _, acc = nn.evaluate(model, x, labels)
        assert acc == 1.0

    def test_loss_descends_early(self):
        x, labels = overfit_windows()
        model = nn.build_emotion_cnn(seed=0)
        cfg = nn.TrainConfig(epochs=10, batch_size=8, seed=0)
        history = nn.train(model, x, labels, cfg, x_val=x, labels_val=labels)
        # clean end-of-epoch loss on the training windows descends; at most
        # two upticks beyond 1e-3 tolerated
        clean = [h.val_loss for h in history]
        violations = sum(1 for a, b in zip(clean, clean[1:]) if b > a + 1e-3)
        assert violations <= 2

    def test_deterministic_history(self):
        x, labels = overfit_windows()
        runs = []
        for _ in range(2):
            model = nn.build_emotion_cnn(seed=4)
            history = nn.train(model, x, labels,
                               nn.TrainConfig(epochs=4, batch_size=2, seed=9))
            runs.append([(h.train_loss, h.train_acc) for h in history])
        assert runs[0] == runs[1]

    def test_empty_split_rejected(self):
        model = nn.build_emotion_cnn()
        with pytest.raises(ConfigError, match="empty"):
            nn.train(model, np.zeros((0, 13, 26, 1)), np.zeros(0),
                     nn.TrainConfig(epochs=1))

    def test_history_csv(self):
        rows = [nn.EpochStats(1, 2.0, 0.125, 1.9, 0.2),
                nn.EpochStats(2, 1.5, 0.5, None, None)]
        text = nn.history_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert lines[1].startswith("1,2.0,0.125,1.9,0.2")
        assert lines[2] == "2,1.5,0.5,,"


class TestCheckpoint:
    def test_roundtrip_predictions(self, tmp_path):
        x, labels = overfit_windows()
        model = nn.build_emotion_cnn(seed=5)
        model.pipeline_config = {"pipeline": {"n_mfcc": 13}}
        nn.train(model, x, labels, nn.TrainConfig(epochs=2, batch_size=4))
        path = tmp_path / "model.bin"
        nn.save_cnn(path, model)
        back = nn.load_cnn(path)
        assert back.pipeline_config == {"pipeline": {"n_mfcc": 13}}
        assert back.specs == model.specs
        p1 = nn.predict_proba(model, x)
        p2 = nn.predict_proba(back, x)
        # storage is float32: predictions match to that precision
        np.testing.assert_allclose(p1, p2, atol=1e-5)

    def test_container_with_empty_rms_section_loads(self, tmp_path):
        # containers written while the optional optimizer-state section
        # existed list it as empty
        model = nn.build_emotion_cnn(seed=6)
        path = tmp_path / "model.bin"
        nn.save_cnn(path, model)
        rewrite_header(path, rms_shapes=[])
        back = nn.load_cnn(path)
        x, _ = overfit_windows()
        np.testing.assert_allclose(nn.predict_proba(back, x),
                                   nn.predict_proba(model, x), atol=1e-5)

    def test_container_listing_rms_tensors_rejected(self, tmp_path):
        model = nn.build_emotion_cnn(seed=6)
        path = tmp_path / "model.bin"
        nn.save_cnn(path, model)
        rewrite_header(path, rms_shapes=[[3, 3, 1, 32], [32]])
        with pytest.raises(FormatError, match="optimizer state"):
            nn.load_cnn(path)
