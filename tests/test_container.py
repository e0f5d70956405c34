"""Containers fail closed and are written atomically.

Every container (SVM model, CNN checkpoint, feature cache) is read through
one bounds-checked reader: a file cut anywhere, or with bytes appended,
is a format error and `emorec eval` exits 2.  Writers replace the target
only once the whole file is written.
"""

import contextlib
import copy
import io
import os
import re

import numpy as np
import pytest

from emorec import container, features, nn, svm
from emorec.cli import main
from emorec.errors import FormatError
from conftest import edit_header


def save_tiny_svm(path):
    model = svm.train_multiclass(np.array([[0.0], [1.0]]), [0, 1],
                                 svm.KernelSpec(kind="linear"))
    svm.save_svm(path, model)


def save_tiny_cnn(path):
    specs = (nn.FlattenSpec(), nn.Dense(2, activation="softmax"))
    nn.save_cnn(path, nn.build_model(specs, (2, 3, 1)))


def save_tiny_cache(path):
    features.save_feature_cache(path, [("a01", 3, np.ones((2, 26))),
                                       ("b2", 5, np.zeros((2, 26)))])


SAVERS = {"svm": save_tiny_svm, "cnn": save_tiny_cnn, "cache": save_tiny_cache}


def eval_run(model_path, out_dir):
    """(exit code, stderr) of `emorec eval` on a model, given a feature cache
    and a manifest that do not exist; the model is read first."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["eval", "--model", str(model_path),
                     "--features", str(out_dir / "no_features.bin"),
                     "--manifest", str(out_dir / "no_manifest.csv"),
                     "--out-dir", str(out_dir)])
    return code, err.getvalue()


@pytest.mark.parametrize("kind", ["svm", "cnn"])
class TestModelContainersFailClosed:
    def test_intact_container_gets_past_loading(self, tmp_path, kind):
        # control: with the model loaded, eval stops at the missing feature
        # cache, so an exit 2 below that does not name it is the container
        path = tmp_path / "model.bin"
        SAVERS[kind](path)
        code, err = eval_run(path, tmp_path / "r")
        assert code == 2 and "no_features.bin" in err

    def test_cut_at_every_offset(self, tmp_path, kind):
        path = tmp_path / "model.bin"
        SAVERS[kind](path)
        data = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            code, err = eval_run(cut, tmp_path / "r")
            assert code == 2 and "no_features.bin" not in err, f"cut at {n}"

    def test_trailing_bytes(self, tmp_path, kind):
        path = tmp_path / "model.bin"
        SAVERS[kind](path)
        path.write_bytes(path.read_bytes() + bytes(16))
        loader = svm.load_svm if kind == "svm" else nn.load_cnn
        with pytest.raises(FormatError, match="16 trailing bytes"):
            loader(path)
        code, err = eval_run(path, tmp_path / "r")
        assert code == 2 and "16 trailing bytes" in err


RECORD = {"pipeline": features.PipelineConfig(target_length=4200,
                                              frame_length=512).to_dict(),
          "sample_rate": 4000}
LOADERS = {"svm": svm.load_svm, "cnn": nn.load_cnn,
           "cache": features.load_feature_cache}


def drop_target_length(meta):
    meta["pipeline_config"] = copy.deepcopy(RECORD)
    del meta["pipeline_config"]["pipeline"]["target_length"]


@pytest.mark.parametrize("kind,edit,message", [
    ("svm", lambda meta: meta["kernel"].update(gamma_mode="scale"),
     "unknown field kernel.gamma_mode"),
    ("svm", lambda meta: meta["kernel"].update(gamma_value=None),
     "unknown field kernel.gamma_value"),
    ("cnn", lambda meta: meta["specs"][0].update(kernel=3),
     r"unknown field specs\[0\]\.kernel"),
    ("cnn", lambda meta: meta["specs"][0].update(activation="relu"),
     r"unknown field specs\[0\]\.activation"),
    *[(kind, drop_target_length,
       "needs field pipeline_config.pipeline.target_length")
      for kind in ("svm", "cnn", "cache")]])
def test_removed_field_refused(tmp_path, kind, edit, message):
    # the fields older writers still wrote: the SVM's fixed-gamma settings,
    # a convolution's kernel size and activation, and a partial record
    path = tmp_path / "old.bin"
    SAVERS[kind](path)
    edit_header(path, edit)
    with pytest.raises(FormatError, match=message):
        LOADERS[kind](path)
    if kind != "cache":
        code, err = eval_run(path, tmp_path / "r")
        assert code == 2 and re.search(message, err)


def test_truncation_names_offset_and_size(tmp_path):
    path = tmp_path / "model.bin"
    save_tiny_svm(path)
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(FormatError, match=r"SVM container truncated at byte "
                                          r"\d+: binary 1 dual coefficients "
                                          r"needs \d+ bytes, \d+ left"):
        svm.load_svm(path)


@pytest.mark.parametrize("shape", [(-1, 1), (2, -1), (-2, -3), (0, 2**62)])
def test_tensor_shape_numpy_cannot_hold_rejected(tmp_path, shape):
    # a negative dimension must not move the cursor back over read bytes
    path = tmp_path / "c.bin"
    path.write_bytes(b"MAGIC123" + bytes(64))
    r = container.Reader(path, "test container", b"MAGIC123")
    with pytest.raises(FormatError, match="test container tensor"):
        r.array("<f8", shape, "tensor")


class _FailingFile:
    """File whose second write raises, as a full disk would."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError("no space left on device")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("kind", sorted(SAVERS))
def test_interrupted_write_leaves_target_untouched(tmp_path, monkeypatch, kind):
    path = tmp_path / "target.bin"
    SAVERS[kind](path)
    before = path.read_bytes()
    monkeypatch.setattr(container, "open",
                        lambda p, mode: _FailingFile(open(p, mode)),
                        raising=False)
    with pytest.raises(OSError, match="no space"):
        SAVERS[kind](path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["target.bin"]   # no temp file left


@pytest.mark.parametrize("kind", sorted(SAVERS))
def test_write_replaces_existing_file(tmp_path, kind):
    path = tmp_path / "target.bin"
    path.write_bytes(b"stale")
    SAVERS[kind](path)
    assert path.read_bytes() != b"stale"
    assert os.listdir(tmp_path) == ["target.bin"]
