"""Containers fail closed and are written atomically.

Every container (SVM model, CNN checkpoint, feature cache) is read through
one bounds-checked reader: a file cut anywhere, or with bytes appended,
is a format error and `emorec eval` exits 2.  Writers replace the target
only once the whole file is written.
"""

import contextlib
import io
import os

import numpy as np
import pytest

from emorec import container, features, nn, svm
from emorec.cli import main
from emorec.errors import FormatError


def save_tiny_svm(path):
    model = svm.train_multiclass(np.array([[0.0], [1.0]]), [0, 1],
                                 svm.KernelSpec(kind="linear"))
    svm.save_svm(path, model)


def save_tiny_cnn(path):
    specs = (nn.FlattenSpec(), nn.Dense(2, activation="softmax"))
    nn.save_cnn(path, nn.build_model(specs, (2, 3, 1)))


def save_tiny_cache(path):
    features.save_feature_cache(path, [("a01", 3, np.ones((2, 3))),
                                       ("b2", 5, np.zeros((1, 2)))])


SAVERS = {"svm": save_tiny_svm, "cnn": save_tiny_cnn, "cache": save_tiny_cache}


def eval_exit_code(model_path, out_dir):
    with contextlib.redirect_stderr(io.StringIO()):
        return main(["eval", "--model", str(model_path), "--out-dir", str(out_dir)])


@pytest.mark.parametrize("kind", ["svm", "cnn"])
class TestModelContainersFailClosed:
    def test_intact_container_gets_past_loading(self, tmp_path, kind):
        # control: with the model loaded, eval stops at the missing
        # --features (usage error, exit 1), so exit 2 below is the container
        path = tmp_path / "model.bin"
        SAVERS[kind](path)
        assert eval_exit_code(path, tmp_path / "r") == 1

    def test_cut_at_every_offset(self, tmp_path, kind):
        path = tmp_path / "model.bin"
        SAVERS[kind](path)
        data = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            assert eval_exit_code(cut, tmp_path / "r") == 2, f"cut at {n}"

    def test_trailing_bytes(self, tmp_path, kind):
        path = tmp_path / "model.bin"
        SAVERS[kind](path)
        path.write_bytes(path.read_bytes() + bytes(16))
        loader = svm.load_svm if kind == "svm" else nn.load_cnn
        with pytest.raises(FormatError, match="16 trailing bytes"):
            loader(path)
        assert eval_exit_code(path, tmp_path / "r") == 2


def test_truncation_names_offset_and_size(tmp_path):
    path = tmp_path / "model.bin"
    save_tiny_svm(path)
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(FormatError, match=r"SVM container truncated at byte "
                                          r"\d+: binary 1 dual coefficients "
                                          r"needs \d+ bytes, \d+ left"):
        svm.load_svm(path)


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
