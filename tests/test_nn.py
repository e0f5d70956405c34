import math

import numpy as np
import pytest

from emorec import container, nn
from emorec.errors import ConfigError, DataError, FormatError
from emorec.features import PipelineConfig
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


def naive_conv2d_backward(x, W, dout, padding):
    """dx, dW, db of naive_conv2d, accumulated output by output."""
    k = W.shape[0]
    p = (k - 1) // 2 if padding == "same" else 0
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    n, ho, wo, cout = dout.shape
    cin = W.shape[2]
    dxp = np.zeros_like(xp)
    dW = np.zeros_like(W)
    for s in range(n):
        for i in range(ho):
            for j in range(wo):
                for co in range(cout):
                    g = dout[s, i, j, co]
                    for di in range(k):
                        for dj in range(k):
                            for ci in range(cin):
                                dW[di, dj, ci, co] += xp[s, i + di, j + dj, ci] * g
                                dxp[s, i + di, j + dj, ci] += W[di, dj, ci, co] * g
    dx = dxp[:, p:p + x.shape[1], p:p + x.shape[2], :]
    return dx, dW, dout.sum(axis=(0, 1, 2))


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

    @pytest.mark.parametrize("activation", ["none", "linear", "", None])
    def test_dense_activation_the_loader_refuses(self, activation):
        # a layer load_cnn would refuse to read back is not built at all
        with pytest.raises(ConfigError, match="dense activation must be "
                                              "relu or softmax"):
            nn.Dense(2, activation=activation)
        for ok in ("relu", "softmax"):
            assert nn.Dense(2, activation=ok).activation == ok


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

    def test_backward_matches_naive_loops(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 5, 6, 2))
        W = rng.normal(size=(3, 3, 2, 4))
        b = rng.normal(size=4)
        for padding in ("same", "valid"):
            out, cache = nn.conv2d_forward(x, W, b, padding)
            dout = rng.normal(size=out.shape)
            got = nn.conv2d_backward(dout, cache)
            want = naive_conv2d_backward(x, W, dout, padding)
            for g, w in zip(got, want):
                assert g.shape == w.shape
                assert np.abs(g - w).max() < 1e-12 * max(1, np.abs(w).max())
            dx, dW, db = nn.conv2d_backward(dout, cache, need_dx=False)
            assert dx is None
            np.testing.assert_array_equal(dW, got[1])
            np.testing.assert_array_equal(db, got[2])

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            nn.conv2d_forward(np.zeros((1, 4, 4, 3)), np.zeros((3, 3, 2, 1)),
                              np.zeros(1), "same")

    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_rows_computes_leading_output_rows(self, padding):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 7, 6, 2))
        W = rng.normal(size=(3, 3, 2, 4))
        b = rng.normal(size=4)
        full, _ = nn.conv2d_forward(x, W, b, padding)
        for rows in range(1, full.shape[1] + 1):
            out, cache = nn.conv2d_forward(x, W, b, padding, rows=rows)
            assert out.shape == (2, rows) + full.shape[2:]
            np.testing.assert_allclose(out, full[:, :rows], rtol=1e-12,
                                       atol=1e-12)
            # the input gradient keeps the input's shape; rows that no
            # computed output reads get exact zeros
            dx, _, _ = nn.conv2d_backward(rng.normal(size=out.shape), cache)
            assert dx.shape == x.shape
            read = rows + 2 if padding == "valid" else rows + 1
            assert not dx[:, read:].any()
        for rows in (0, full.shape[1] + 1):
            with pytest.raises(ValueError, match="output rows"):
                nn.conv2d_forward(x, W, b, padding, rows=rows)


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


def argmax_pool(x, size):
    """Explicit windows, np.argmax over each: the pooling oracle."""
    n, h, w, c = x.shape
    ho, wo = h // size, w // size
    out = np.empty((n, ho, wo, c))
    idx = np.empty((n, ho, wo, c), dtype=np.intp)
    for i in range(ho):
        for j in range(wo):
            win = x[:, i * size:(i + 1) * size, j * size:(j + 1) * size, :]
            win = win.reshape(n, size * size, c)
            idx[:, i, j] = np.argmax(win, axis=1)
            out[:, i, j] = np.take_along_axis(win, idx[:, i, j][:, None], 1)[:, 0]
    return out, idx


def argmax_pool_backward(dout, idx, x_shape, size):
    dx = np.zeros(x_shape)
    n, ho, wo, c = idx.shape
    for s, i, j, ch in np.ndindex(n, ho, wo, c):
        di, dj = divmod(int(idx[s, i, j, ch]), size)
        dx[s, i * size + di, j * size + dj, ch] = dout[s, i, j, ch]
    return dx


class TestMaxPoolOracle:
    @pytest.mark.parametrize("shape,size", [
        ((32, 11, 24, 8), 2),     # conv2's output, odd trailing row
        ((1, 3, 10, 4), 2),       # conv4's output at batch 1
        ((32, 5, 7, 3), 2),       # odd trailing row and column
        ((1, 11, 24, 5), 3),      # size 3, trailing row and column
        ((32, 9, 9, 2), 3),
    ])
    def test_matches_argmax_reference(self, shape, size):
        rng = np.random.default_rng(sum(shape) + size)
        # ReLU output rounded to few levels: all-zero windows and equal
        # maxima at every window position
        x = np.maximum(0.0, np.round(rng.normal(size=shape), 0))
        x[:, :size, :size] = 0.0
        x[0, -size:, -size:] = 1.0
        out, (idx, x_shape, cache_size) = nn.maxpool2d_forward(x, size)
        ref_out, ref_idx = argmax_pool(x, size)
        assert (x_shape, cache_size) == (shape, size)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(idx, ref_idx)
        dout = rng.normal(size=out.shape)
        dx = nn.maxpool2d_backward(dout, (idx, x_shape, size))
        assert np.array_equal(dx, argmax_pool_backward(dout, ref_idx,
                                                       shape, size))


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


class TestReluWithoutMask:
    def test_backward_reads_mask_off_output(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 5, 4, 3))
        x[0, 0, 0] = [0.0, -0.0, 1e-300]
        d = rng.normal(size=x.shape)
        y, cache = nn.relu_forward(x.copy())
        assert cache is y
        assert np.array_equal(nn.relu_backward(d, cache), d * (x > 0))

    def test_predict_never_calls_relu_backward(self, monkeypatch):
        calls = []
        relu_backward = nn.relu_backward
        monkeypatch.setattr(
            nn, "relu_backward",
            lambda *a, **k: calls.append(1) or relu_backward(*a, **k))
        model = nn.build_emotion_cnn(seed=0)
        x = np.random.default_rng(5).normal(size=(3,) + model.input_shape)
        nn.predict_proba(model, x)
        assert calls == []
        nn.loss_and_grads(model, x, np.arange(3))   # the spy does see a pass
        assert calls


class TestDropout:
    def test_rate_zero_identity(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 5))
        for gen in (rng, None):
            out, mask = nn.dropout_forward(x, 0.0, gen)
            np.testing.assert_array_equal(out, x)
            assert mask is None

    def test_infer_identity(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(5, 5))
        out, mask = nn.dropout_forward(x, 0.9)
        np.testing.assert_array_equal(out, x)
        assert mask is None

    def test_monte_carlo_expectation(self):
        rng = np.random.default_rng(6)
        x = np.full(10 ** 6, 2.0)
        out, mask = nn.dropout_forward(x, 0.5, rng=rng)
        survivors = mask.mean()
        assert abs(survivors - 0.5) < 0.002
        assert abs(out.mean() - x.mean()) / x.mean() < 0.005

    @staticmethod
    def model_and_windows():
        model = nn.build_emotion_cnn(seed=4)
        x = np.random.default_rng(9).normal(size=(3,) + model.input_shape)
        dropped = [i for i, s in enumerate(model.specs) if s.kind == "dropout"]
        return model, x, dropped

    def test_generators_seeded_alike_give_equal_passes(self):
        model, x, dropped = self.model_and_windows()
        (a, caches_a), (b, caches_b) = (
            nn.forward(model, x, rng=np.random.default_rng(17)) for _ in range(2))
        assert np.array_equal(a, b)
        for i in dropped:   # each dropout layer's cache is its mask
            assert caches_a[i].dtype == bool and not caches_a[i].all()
            assert np.array_equal(caches_a[i], caches_b[i])

    def test_no_generator_is_infer_mode(self):
        # every dropout layer is the identity: the net without them gives
        # the same logits, and predict_proba their softmax
        model, x, dropped = self.model_and_windows()
        logits, caches = nn.forward(model, x)
        assert all(caches[i] is None for i in dropped)
        keep = [i for i in range(len(model.specs)) if i not in dropped]
        plain = nn.CnnModel(specs=tuple(model.specs[i] for i in keep),
                            input_shape=model.input_shape,
                            params=[model.params[i] for i in keep], seed=4)
        assert np.array_equal(nn.forward(plain, x)[0], logits)
        assert np.array_equal(nn.predict_proba(model, x), nn.softmax(logits))


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
        cfg = nn.TrainConfig(lr=1e-4)
        nn.rmsprop_step(params, grads, acc, cfg, t=0)
        expected = -1e-4 / (math.sqrt(0.1) + 1e-7)
        assert abs(params[0]["W"][0] - expected) < 1e-12
        assert abs(expected + 3.1623e-4) < 1e-7

    def test_lr_decay_halves_at_million(self):
        cfg = nn.TrainConfig(lr=1e-4)
        lr_t = cfg.lr / (1.0 + nn.DECAY * 10 ** 6)
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
        loss, grads, probs = nn.loss_and_grads(model, x, labels)
        np.testing.assert_allclose(probs, 0.25)
        expected = np.full(4, 0.25) - np.array([0.5, 0.0, 0.5, 0.0])
        np.testing.assert_allclose(grads[1]["b"], expected, atol=1e-12)
        assert abs(loss - math.log(4)) < 1e-12


def cast_params(params, dtype):
    return [None if p is None else {k: v.astype(dtype) for k, v in p.items()}
            for p in params]


def train_matches_plain_loop(n, dtype):
    """`train()` against a plain loop of `loss_and_grads` and `rmsprop_step`,
    run in `dtype` on inputs and parameters cast to it: equal losses, and
    equal parameters once cast back to float64."""
    specs = (nn.Conv2D(3, padding="same"), nn.Conv2D(3, padding="same"),
             nn.MaxPool2D(2), nn.DropoutSpec(0.3), nn.FlattenSpec(),
             nn.Dense(9, activation="relu"), nn.DropoutSpec(0.3),
             nn.Dense(4, activation="softmax"))
    rng = np.random.default_rng(21)
    x = rng.normal(size=(n, 6, 8, 1))
    labels = np.arange(n) % 4
    cfg = nn.TrainConfig(lr=1e-2, epochs=2, batch_size=4, seed=5, dtype=dtype)

    model = nn.build_model(specs, (6, 8, 1), seed=1)
    history = nn.train(model, x, labels, cfg)

    plain = nn.build_model(specs, (6, 8, 1), seed=1)
    plain.params = cast_params(plain.params, dtype)
    xs = x.astype(dtype)
    acc = [None if p is None else {k: np.zeros_like(v) for k, v in p.items()}
           for p in plain.params]
    loop_rng = np.random.default_rng(cfg.seed)
    t = 0
    for epoch in range(cfg.epochs):
        order = loop_rng.permutation(n)
        losses = []
        for start in range(0, n, cfg.batch_size):
            sel = order[start:start + cfg.batch_size]
            loss, grads, _ = nn.loss_and_grads(plain, xs[sel], labels[sel],
                                               rng=loop_rng)
            nn.rmsprop_step(plain.params, grads, acc, cfg, t)
            t += 1
            losses.append(loss * len(sel))
        assert history[epoch].train_loss == float(np.sum(losses) / n)
    plain.params = cast_params(plain.params, np.float64)

    for p, q in zip(model.params, plain.params):
        if p is not None:
            for key in p:
                assert p[key].dtype == np.float64
                assert np.array_equal(p[key], q[key])
    assert np.array_equal(nn.predict_proba(model, x),
                          nn.predict_proba(plain, x))


class TestTraining:
    @pytest.mark.parametrize("split", ["train", "val"])
    @pytest.mark.parametrize("n_labels", [6, 10])
    def test_label_count_mismatch_rejected_before_a_step(self, split,
                                                         n_labels,
                                                         monkeypatch):
        steps = []
        monkeypatch.setattr(nn, "rmsprop_step", lambda *a: steps.append(a))
        x, labels = overfit_windows()   # 8 windows
        wrong = np.arange(n_labels) % 8
        model = nn.build_emotion_cnn(seed=0)
        with pytest.raises(DataError, match=f"{n_labels} labels for 8 windows"):
            nn.train(model, x, wrong if split == "train" else labels,
                     nn.TrainConfig(epochs=1, batch_size=4), x_val=x,
                     labels_val=wrong if split == "val" else labels)
        assert steps == []

    @pytest.mark.parametrize("n_labels", [6, 10])
    def test_evaluate_label_count_mismatch_rejected(self, n_labels):
        x, _ = overfit_windows()
        with pytest.raises(DataError, match=f"{n_labels} labels for 8 windows"):
            nn.evaluate(nn.build_emotion_cnn(seed=0), x, np.arange(n_labels) % 8)

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
        # the default float32 path: same seed, same history and parameters
        x, labels = overfit_windows()
        runs = []
        for _ in range(2):
            model = nn.build_emotion_cnn(seed=4)
            history = nn.train(model, x, labels,
                               nn.TrainConfig(epochs=4, batch_size=2, seed=9))
            runs.append(([(h.train_loss, h.train_acc) for h in history],
                         model.params))
        (hist_a, params_a), (hist_b, params_b) = runs
        assert hist_a == hist_b
        for p, q in zip(params_a, params_b):
            if p is not None:
                for key in p:
                    assert np.array_equal(p[key], q[key])

    @pytest.mark.parametrize("n", [12, 10])  # 10: a short last batch
    def test_train_matches_plain_loop(self, n):
        train_matches_plain_loop(n, "float64")

    @pytest.mark.parametrize("n", [12, 10])
    def test_train_matches_plain_loop_float32(self, n):
        train_matches_plain_loop(n, "float32")

    def test_predict_blocks_match_single_pass_and_per_window(self):
        # 37 windows leave a short last block; the 512x8 head GEMM may change
        # its last bit with the row count, so this is a tolerance check
        model = nn.build_emotion_cnn(seed=3)
        x = np.random.default_rng(8).normal(size=(37, 13, 26, 1))
        probs = nn.predict_proba(model, x)
        single = nn.softmax(nn.forward(model, x)[0])
        per_window = np.concatenate(
            [nn.softmax(nn.forward(model, x[i:i + 1])[0]) for i in range(len(x))])
        for ref in (single, per_window):
            np.testing.assert_allclose(probs, ref, rtol=0, atol=1e-15)
            assert np.array_equal(probs.argmax(axis=1), ref.argmax(axis=1))

    @pytest.mark.parametrize("height", [12, 14, 20])
    def test_predict_rejects_other_window_shapes(self, height):
        # pooling drops an odd row, so 12-row windows would reach the dense
        # layer with the right width
        model = nn.build_emotion_cnn(seed=0)
        with pytest.raises(DataError, match=r"\(13, 26, 1\)") as exc:
            nn.predict_proba(model, np.zeros((2, height, 26, 1)))
        assert f"({height}, 26, 1)" in str(exc.value)

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


class TestTrainingDtype:
    """The float32 training path against the float64 oracle."""

    @pytest.mark.parametrize("dtype", ["float16", "f4", "int32"])
    def test_other_dtypes_rejected(self, dtype):
        with pytest.raises(ConfigError, match="dtype"):
            nn.TrainConfig(dtype=dtype)

    def test_dropout_masks_match_and_loss_stays_float64(self, monkeypatch):
        model = nn.build_emotion_cnn(seed=2)
        x, labels = overfit_windows()
        masks = []   # (output, mask) of each dropout layer, both passes
        drop = nn.dropout_forward
        monkeypatch.setattr(nn, "dropout_forward",
                            lambda *a, **k: masks.append(drop(*a, **k)) or masks[-1])
        for dtype in (np.float64, np.float32):
            model.params = cast_params(model.params, dtype)
            loss, grads, probs = nn.loss_and_grads(
                model, x, labels, rng=np.random.default_rng(13))
            assert isinstance(loss, float) and probs.dtype == np.float64
            assert all(g.dtype == dtype for p in grads if p is not None
                       for g in p.values())
        assert len(masks) == 6
        for (_, a), (_, b) in zip(masks[:3], masks[3:]):
            assert a.dtype == bool and np.array_equal(a, b)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_buffers_and_tensors_in_training_dtype(self, dtype, monkeypatch):
        # a float64 activation, cache array or gradient in float32 training
        # would be a silent upcast (matmul(out=) casts without a word); bool
        # and integer masks keep their types
        seen, accs = set(), []

        def check(where, arrays):
            for a in arrays:
                if isinstance(a, tuple):
                    check(where, a)
                elif isinstance(a, np.ndarray) and a.dtype.kind == "f":
                    assert a.dtype == dtype, where
                    seen.add(where)

        def spy(cls, name):
            step = getattr(cls, name)

            def checked(spec, d, *args, **kwargs):
                out, extra = step(spec, d, *args, **kwargs)
                if name == "backward":   # extra: the parameter gradients
                    mode, arrays = "backward", tuple((extra or {}).values())
                else:                    # args: p, rng, rows; extra: the cache
                    mode = "train" if args[1] is not None else "val"
                    arrays = extra
                check((mode, cls.kind), (d, out, arrays))
                return out, extra
            monkeypatch.setattr(cls, name, checked)

        def checked_step(params, grads, acc, cfg, t):
            accs.append(acc)
            for tensors in (params, grads, acc):
                for p in tensors:
                    for v in (p or {}).values():
                        assert v.dtype == dtype
            return step(params, grads, acc, cfg, t)

        for cls in nn._LAYER_TYPES.values():
            spy(cls, "forward")
            spy(cls, "backward")
        step = nn.rmsprop_step
        monkeypatch.setattr(nn, "rmsprop_step", checked_step)
        x, labels = overfit_windows()
        model = nn.build_emotion_cnn(conv_filters=(4, 4, 4, 4), dense_units=8)
        nn.train(model, x, labels,
                 nn.TrainConfig(epochs=1, batch_size=4, dtype=dtype),
                 x_val=x, labels_val=labels)
        assert seen == {(mode, kind) for mode in ("train", "val", "backward")
                        for kind in nn._LAYER_TYPES}
        assert all(t.dtype == np.float64 for p in model.params if p is not None
                   for t in p.values())
        assert all(t.dtype == dtype for a in accs[-1] if a is not None
                   for t in a.values())

    def test_float32_tracks_float64_per_epoch(self):
        # same seeds, so the same shuffles and dropout masks; the trajectories
        # part only by rounding.  On the benchmark's cnn_train input (864
        # train / 288 val windows, 6 epochs) the two stayed within 9.2e-4
        # relative in loss and 2.5 points of validation accuracy; this
        # fixture reads 1.9e-4 and one window of 256
        rng = np.random.default_rng(2)
        templates = rng.normal(size=(8, 13, 26))
        labels = np.repeat(np.arange(8), 44)
        x = templates[labels] + rng.normal(size=(len(labels), 13, 26))
        x -= x.mean(axis=(1, 2), keepdims=True)
        x /= x.std(axis=(1, 2), keepdims=True)
        x = x[..., None]
        train = np.arange(len(x)) % 44 < 12          # 96 train, 256 val
        runs = {}
        for dtype in ("float64", "float32"):
            model = nn.build_emotion_cnn(seed=0)
            runs[dtype] = nn.train(
                model, x[train], labels[train],
                nn.TrainConfig(epochs=6, batch_size=8, seed=0, dtype=dtype),
                x_val=x[~train], labels_val=labels[~train])
        for a, b in zip(runs["float64"], runs["float32"]):
            assert abs(b.train_loss - a.train_loss) <= 2e-3 * a.train_loss
            assert abs(b.val_loss - a.val_loss) <= 2e-3 * a.val_loss
            assert abs(b.val_acc - a.val_acc) <= 8 / 256 + 1e-12


# Small stacks beside the reference model: odd and even heights, same and
# valid convolutions, pools of 2 and 3, dropout between layers; each with the
# output rows row_plan gives its convolutions (None: all)
CROP_STACKS = [
    ((13, 9, 2), (nn.Conv2D(4, padding="valid"), nn.Conv2D(3, padding="same"),
                  nn.MaxPool2D(3), nn.DropoutSpec(0.3), nn.FlattenSpec(),
                  nn.Dense(6), nn.DropoutSpec(0.5),
                  nn.Dense(5, activation="softmax")),
     (10, 9)),
    ((14, 12, 1), (nn.Conv2D(3, padding="same"), nn.MaxPool2D(3),
                   nn.Conv2D(4, padding="valid"), nn.DropoutSpec(0.2),
                   nn.MaxPool2D(2), nn.FlattenSpec(),
                   nn.Dense(5, activation="softmax")),
     (12, None)),
    ((17, 14, 1), (nn.Conv2D(3, padding="valid"), nn.DropoutSpec(0.25),
                   nn.Conv2D(4, padding="same"), nn.MaxPool2D(2),
                   nn.Conv2D(5, padding="valid"), nn.MaxPool2D(3),
                   nn.FlattenSpec(), nn.Dense(5, activation="softmax")),
     (None, 10, 3)),
    ((10, 8, 1), (nn.Conv2D(3, padding="same"), nn.Conv2D(3, padding="valid"),
                  nn.MaxPool2D(2), nn.DropoutSpec(0.4), nn.FlattenSpec(),
                  nn.Dense(5, activation="softmax")),
     (None, None)),
]


def crop_models():
    """(model, conv rows) for the reference 13x26 and a 40x26 model, with
    narrow layers, and for each of CROP_STACKS."""
    narrow = dict(conv_filters=(4, 4, 6, 6), dense_units=12)
    yield nn.build_emotion_cnn(seed=2, **narrow), (12, 10, 4, 2)
    yield nn.build_emotion_cnn(n_mfcc=40, seed=2, **narrow), (None, None, 18, 16)
    for k, (shape, specs, rows) in enumerate(CROP_STACKS):
        yield nn.build_model(specs, shape, seed=k), rows


def full_row_forward(model, x, rng=None):
    """`nn.forward` with every layer computing all its rows, the primitives'
    default: the oracle for the cropped pass."""
    caches = []
    for spec, p in zip(model.specs, model.params):
        x, cache = spec.forward(x, p, rng, None)
        caches.append(cache)
    return x, caches


def rel_err(a, b):
    return np.abs(a - b).max() / max(np.abs(b).max(), 1e-300)


class TestRowPlan:
    """Each convolution computes only the output rows a later layer reads."""

    def conv_rows(self, model):
        plan = nn.row_plan(model.specs, model.input_shape)
        return tuple(rows for spec, rows in zip(model.specs, plan)
                     if spec.kind == "conv2d")

    def test_reference_model_plans(self):
        assert self.conv_rows(nn.build_emotion_cnn()) == (12, 10, 4, 2)
        # 40 rows: conv1-conv2 are full, conv3 18 of 19, conv4 16 of 17
        assert self.conv_rows(nn.build_emotion_cnn(n_mfcc=40)) == (
            None, None, 18, 16)
        assert self.conv_rows(nn.build_emotion_cnn(n_mfcc=26)) == (None,) * 4
        # only convolutions crop
        plan = nn.row_plan(nn.build_emotion_cnn().specs, (13, 26, 1))
        assert plan == (12, 10) + (None,) * 2 + (4, 2) + (None,) * 6

    def pass_and_grads(self, model, forward, x, labels, rng):
        logits, caches = forward(model, x, rng=rng)
        loss, dlogits, _ = nn.softmax_cross_entropy(logits, labels)
        return logits, loss, nn.backward(model, dlogits, caches)

    def test_cropped_pass_matches_full_row_oracle(self):
        for model, rows in crop_models():
            assert self.conv_rows(model) == rows
            data = np.random.default_rng(len(model.specs))
            x = data.normal(size=(5,) + model.input_shape)
            labels = data.integers(0, model.n_classes, size=5)
            rng_crop, rng_full = (np.random.default_rng(31) for _ in range(2))
            (logits, loss, grads), (want_logits, want_loss, want_grads) = (
                self.pass_and_grads(model, forward, x, labels, rng)
                for forward, rng in ((nn.forward, rng_crop),
                                     (full_row_forward, rng_full)))
            # no dropout draw changed: both generators end in one state
            assert (rng_crop.bit_generator.state
                    == rng_full.bit_generator.state)
            assert rel_err(logits, want_logits) <= 1e-12
            assert abs(loss - want_loss) <= 1e-12 * want_loss
            for g, want in zip(grads, want_grads):
                for key in (want or {}):
                    assert g[key].shape == want[key].shape
                    assert rel_err(g[key], want[key]) <= 1e-12
            # each conv computed the rows planned: its ReLU cache is its output
            _, caches = nn.forward(model, x)
            shapes = nn.layer_shapes(model.specs, model.input_shape)
            conv = [i for i, spec in enumerate(model.specs)
                    if spec.kind == "conv2d"]
            assert [caches[i][1].shape[1] for i in conv] == [
                planned or shapes[i][0] for i, planned in zip(conv, rows)]

    def test_predict_matches_full_row_oracle(self):
        model = nn.build_emotion_cnn(seed=3)
        x = np.random.default_rng(4).normal(size=(12,) + model.input_shape)
        probs = nn.predict_proba(model, x)
        want = nn.softmax(full_row_forward(model, x)[0])
        np.testing.assert_allclose(probs, want, rtol=0, atol=1e-15)
        assert np.array_equal(probs.argmax(axis=1), want.argmax(axis=1))


class TestCheckpoint:
    def test_roundtrip_predictions(self, tmp_path):
        x, labels = overfit_windows()
        model = nn.build_emotion_cnn(seed=5)
        record = {"pipeline": PipelineConfig(n_mfcc=13, target_length=4200,
                                             frame_length=512).to_dict(),
                  "sample_rate": 4000}
        model.pipeline_config = record
        nn.train(model, x, labels, nn.TrainConfig(epochs=2, batch_size=4))
        path = tmp_path / "model.bin"
        nn.save_cnn(path, model)
        back = nn.load_cnn(path)
        assert back.pipeline_config == record
        assert back.specs == model.specs
        # float32 training leaves float64 parameters holding float32 values,
        # which is what the checkpoint stores: the round trip is exact
        for p, q in zip(model.params, back.params):
            if p is not None:
                for key in p:
                    assert p[key].dtype == q[key].dtype == np.float64
                    assert np.array_equal(p[key], q[key])
        assert np.array_equal(nn.predict_proba(model, x),
                              nn.predict_proba(back, x))

    def test_loaded_params_are_float64_and_save_back_unchanged(self, tmp_path):
        model = nn.build_emotion_cnn(seed=5)
        path = tmp_path / "model.bin"
        nn.save_cnn(path, model)
        back = nn.load_cnn(path)
        assert all(t.dtype == np.float64 for p in back.params if p is not None
                   for t in p.values())
        again = tmp_path / "again.bin"
        nn.save_cnn(again, back)
        assert again.read_bytes() == path.read_bytes()

    def test_container_with_empty_rms_section_rejected(self, tmp_path):
        # containers written while the optional optimizer-state section
        # existed list it, even when empty
        model = nn.build_emotion_cnn(seed=6)
        path = tmp_path / "model.bin"
        nn.save_cnn(path, model)
        rewrite_header(path, rms_shapes=[])
        with pytest.raises(FormatError, match="unknown field rms_shapes"):
            nn.load_cnn(path)

    def test_container_without_dense_head_rejected(self, tmp_path):
        # a consistent file, but no last layer whose units are the classes
        path = tmp_path / "model.bin"
        container.write_model(path, nn.CNN_MAGIC, nn.CNN_VERSION, {
            "specs": [{"type": "flatten"}], "input_shape": [2, 3, 1],
            "seed": 0, "shapes": [], "pipeline_config": None}, [], "<f4")
        with pytest.raises(FormatError, match="dense last layer"):
            nn.load_cnn(path)

    def test_container_listing_rms_tensors_rejected(self, tmp_path):
        model = nn.build_emotion_cnn(seed=6)
        path = tmp_path / "model.bin"
        nn.save_cnn(path, model)
        rewrite_header(path, rms_shapes=[[3, 3, 1, 32], [32]])
        with pytest.raises(FormatError, match="unknown field rms_shapes"):
            nn.load_cnn(path)
