import numpy as np
import pytest

from emorec import features, nn, svm, sweep
from emorec.errors import ConfigError
from conftest import class_tone_clip, overfit_windows


@pytest.fixture(scope="module")
def tone_dataset():
    """Four classes x 14 clips, class encoded in tone frequency."""
    clips, labels = [], []
    for label in range(4):
        for k in range(14):
            clips.append(class_tone_clip(label, seed=label * 31 + k,
                                         noise=0.05))
            labels.append(label)
    return clips, labels


class TestEvaluateModel:
    def test_cnn_overfit_identity_confusion(self):
        x, labels = overfit_windows()
        model = nn.build_emotion_cnn(seed=0)
        nn.train(model, x, labels, nn.TrainConfig(epochs=200, batch_size=8,
                                                  seed=0))
        report = sweep.evaluate_model(model, x[..., 0], labels)
        assert report.accuracy == 1.0
        np.testing.assert_array_equal(report.confusion, np.eye(8, dtype=int))

    def test_svm_model_accepted(self, pipeline_cfg):
        clips = [class_tone_clip(c, seed=c * 7 + k) for c in range(2)
                 for k in range(6)]
        labels = np.repeat([0, 1], 6)
        windows = np.stack([features.extract_window(c, pipeline_cfg).matrix
                            for c in clips])
        model = svm.train_multiclass(windows.reshape(len(windows), -1), labels,
                                     svm.KernelSpec(C=10.0))
        report = sweep.evaluate_model(model, windows, labels)
        assert report.accuracy == 1.0

    def test_empty_split_rejected(self):
        model = nn.build_emotion_cnn()
        with pytest.raises(ConfigError, match="empty"):
            sweep.evaluate_model(model, [], [])


class TestSweep:
    def test_cardinality_and_mean(self, tone_dataset):
        clips, labels = tone_dataset
        cfg = features.PipelineConfig(n_mfcc=10, target_length=4200,
                                      frame_length=512, n_mels=26)
        result = sweep.run_svm_sweep(clips, labels, cfg,
                                     kernels=("rbf", "linear"),
                                     points=(10, 20), runs=2, base_seed=0)
        assert len(result.rows) == 8  # 2 kernels x 2 points x 2 runs
        means = result.mean()
        for (kernel, n_mfcc), mean_acc in means.items():
            runs = [r.accuracy for r in result.rows
                    if r.kernel == kernel and r.n_mfcc == n_mfcc]
            assert mean_acc == pytest.approx(np.mean(runs))

    def test_deterministic(self, tone_dataset):
        clips, labels = tone_dataset
        cfg = features.PipelineConfig(n_mfcc=10, target_length=4200,
                                      frame_length=512, n_mels=26)
        r1 = sweep.run_svm_sweep(clips, labels, cfg, kernels=("rbf",),
                                 points=(10,), runs=2, base_seed=5)
        r2 = sweep.run_svm_sweep(clips, labels, cfg, kernels=("rbf",),
                                 points=(10,), runs=2, base_seed=5)
        assert r1.raw_csv() == r2.raw_csv()
        assert r1.mean_csv() == r2.mean_csv()

    def test_accuracy_nondecreasing_up_to_noise(self, tone_dataset):
        clips, labels = tone_dataset
        cfg = features.PipelineConfig(n_mfcc=4, target_length=4200,
                                      frame_length=512, n_mels=26)
        result = sweep.run_svm_sweep(clips, labels, cfg, kernels=("rbf",),
                                     points=(4, 8, 13, 20), runs=3,
                                     base_seed=1)
        means = result.mean()
        accs = [means[("rbf", p)] for p in (4, 8, 13, 20)]
        for a, b in zip(accs, accs[1:]):
            assert b >= a - 0.05

    def test_one_split_per_run_seed(self, tone_dataset, monkeypatch):
        clips, labels = tone_dataset
        cfg = features.PipelineConfig(n_mfcc=10, target_length=4200,
                                      frame_length=512, n_mels=26)
        seeds = []
        split = sweep.stratified_split
        monkeypatch.setattr(sweep, "stratified_split", lambda records, seed:
                            seeds.append(seed) or split(records, seed=seed))
        result = sweep.run_svm_sweep(clips, labels, cfg, kernels=("rbf", "linear"),
                                     points=(10, 20), runs=3, base_seed=4)
        assert seeds == [4, 5, 6]
        assert [r.seed for r in result.rows] == [4, 5, 6] * 4

    def test_default_points(self):
        assert sweep.SWEEP_DEFAULT_POINTS == (
            10, 13, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120)

    def test_one_shot_generator_matches_list(self, tone_dataset):
        clips, labels = tone_dataset
        cfg = features.PipelineConfig(n_mfcc=10, target_length=4200,
                                      frame_length=512, n_mels=26)
        kw = dict(kernels=("rbf", "linear"), points=(10, 40), runs=2,
                  base_seed=3)
        from_list = sweep.run_svm_sweep(clips, labels, cfg, **kw)
        from_gen = sweep.run_svm_sweep((c for c in clips), labels, cfg, **kw)
        assert len(from_gen.rows) == 8
        assert from_gen.raw_csv() == from_list.raw_csv()

    def test_bad_point_names_offender(self, tone_dataset):
        clips, labels = tone_dataset
        cfg = features.PipelineConfig(n_mfcc=10, target_length=4200,
                                      frame_length=512, n_mels=26)
        with pytest.raises(ConfigError, match="n_mfcc=600"):
            sweep.run_svm_sweep(clips, labels, cfg, kernels=("rbf",),
                                points=(600,), runs=1)

    def test_csv_headers(self, tone_dataset):
        clips, labels = tone_dataset
        cfg = features.PipelineConfig(n_mfcc=10, target_length=4200,
                                      frame_length=512, n_mels=26)
        result = sweep.run_svm_sweep(clips, labels, cfg, kernels=("linear",),
                                     points=(10,), runs=1)
        assert result.raw_csv().splitlines()[0] == "kernel,n_mfcc,run,seed,accuracy"
        assert result.mean_csv().splitlines()[0] == "kernel,n_mfcc,mean_accuracy"
