"""Fuzzing every container: a damaged WAV, feature cache, SVM model or CNN
checkpoint either loads as a container that passes every check, or raises
FormatError; nothing else escapes a loader.

The damage: a cut at every offset, random byte flips, inflated header-length
and chunk-length fields, and every header field deleted, retyped or joined
by an extra one.  A container that still loads must hold finite tensors and
write back to the header and tensors it was read from: the loader took
what the container says, no more and no less.
"""

import copy
import json
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emorec import audio_io, features, nn, svm
from emorec.errors import FormatError

# derandomized and bounded: the suite stays deterministic and quick
FUZZ = settings(derandomize=True, max_examples=60, deadline=None, database=None)

RECORD = {"pipeline": features.PipelineConfig(target_length=4200,
                                              frame_length=512).to_dict(),
          "sample_rate": 4000}


def chunk(chunk_id, body):
    pad = b"\0" if len(body) % 2 else b""
    return chunk_id + struct.pack("<I", len(body)) + body + pad


def wav_bytes(pcm):
    """A WAV with an odd-sized unknown chunk before its data: PCM 16-bit
    mono, or IEEE float 32-bit stereo, whose payload a flip can make NaN."""
    samples = np.linspace(-0.9, 0.9, 24)
    if pcm:
        fmt, payload = (1, 1, 8000, 16000, 2, 16), (samples * 32767).astype("<i2")
    else:
        fmt, payload = (3, 2, 8000, 64000, 8, 32), samples.astype("<f4")
    body = (chunk(b"fmt ", struct.pack("<HHIIHH", *fmt)) + chunk(b"LIST", b"abc")
            + chunk(b"data", payload.tobytes()))
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def svm_model():
    X = np.array([[0.0, 0.1], [0.2, 0.0], [1.0, 1.1], [1.2, 0.9],
                  [2.0, 0.1], [2.1, 0.3]])
    model = svm.train_multiclass(X, [0, 0, 3, 3, 5, 5], svm.KernelSpec(kind="rbf"))
    model.pipeline_config = RECORD
    return model


def cnn_model():
    # every layer type, small enough that a cut at every offset stays cheap
    model = nn.build_emotion_cnn(conv_filters=(2, 2, 2, 2), dense_units=4,
                                 seed=3)
    model.pipeline_config = RECORD
    return model


SAVE = {"cache": features.save_feature_cache, "svm": svm.save_svm,
        "cnn": nn.save_cnn}
LOAD = {"cache": features.load_feature_cache, "svm": svm.load_svm,
        "cnn": nn.load_cnn}


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(5)
    made = {"wav": wav_bytes(pcm=True), "wav_f32": wav_bytes(pcm=False)}
    for kind, obj in (("cache", [(f"id{k}", k, rng.normal(size=(2, 26)))
                                 for k in range(3)]),
                      ("svm", svm_model()), ("cnn", cnn_model())):
        if kind == "cache":
            features.save_feature_cache(d / kind, obj, RECORD)
        else:
            SAVE[kind](d / kind, obj)
        made[kind] = (d / kind).read_bytes()
    return SimpleNamespace(bytes=made, dir=d)


def loads(kind, data, d) -> bool:
    """Whether data loads as a container of kind that passes every check;
    False on FormatError.  Any other exception fails the test."""
    path = d / "damaged"
    path.write_bytes(data)
    try:
        if kind.startswith("wav"):
            n = audio_io.max_length([SimpleNamespace(path=path)])
            clip = audio_io.decode_wav(data)
        else:
            obj = LOAD[kind](path)
            saved = [obj, features.cache_pipeline(path)] if kind == "cache" else [obj]
    except FormatError:
        return False
    if kind.startswith("wav"):
        assert n == len(clip) and clip.sample_rate > 0
        assert np.isfinite(clip.samples).all()
        return True
    tensors = ([m for _, _, m in obj] if kind == "cache" else
               [t for b in obj.binaries for t in (b.support_vectors, b.dual_coef)]
               if kind == "svm" else
               [t for p in obj.params if p is not None for t in p.values()])
    assert all(np.isfinite(t).all() for t in tensors)
    if kind != "cache":   # the model scores a window without failing
        window = np.zeros((1, *obj.input_shape[:2]) if kind == "cnn"
                          else (1, obj.n_features))
        with np.errstate(all="ignore"):
            assert len(obj.scores(window)) == 1
    SAVE[kind](d / "again", *saved)
    again = (d / "again").read_bytes()
    assert header_of(again) == header_of(data)
    assert tensor_bytes(again) == tensor_bytes(data)
    return True


@pytest.mark.parametrize("kind", ["wav", "wav_f32", "cache", "svm", "cnn"])
class TestFuzz:
    def test_intact_loads(self, originals, kind):
        assert loads(kind, originals.bytes[kind], originals.dir)

    def test_cut_at_every_offset_refused(self, originals, kind):
        data = originals.bytes[kind]
        for n in range(len(data)):
            assert not loads(kind, data[:n], originals.dir), f"cut at {n}"

    @FUZZ
    @given(flips=st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                                    st.integers(1, 255)), min_size=1, max_size=4))
    def test_byte_flips(self, originals, kind, flips):
        data = bytearray(originals.bytes[kind])
        for where, xor in flips:
            data[int(where * len(data))] ^= xor
        loads(kind, bytes(data), originals.dir)

    @FUZZ
    @given(field=st.integers(0, 3), grow=st.integers(1, 2**32 - 1))
    def test_inflated_length_fields(self, originals, kind, grow, field):
        # a container's header length, which no container survives; a WAV's
        # RIFF, fmt, LIST or data size (a longer fmt chunk can still parse)
        wav = kind.startswith("wav")
        offset = (4, 16, 40, 52)[field] if wav else 12
        data = bytearray(originals.bytes[kind])
        size = struct.unpack_from("<I", data, offset)[0]
        struct.pack_into("<I", data, offset, min(size + grow, 2**32 - 1))
        assert not loads(kind, bytes(data), originals.dir) or wav


def header_paths(node, path=()):
    """Every key or index path into a JSON value, parents first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from header_paths(child, path + (key,))


def with_header(data, meta):
    blob_len = struct.unpack_from("<I", data, 12)[0]
    blob = json.dumps(meta).encode("utf-8")
    return data[:12] + struct.pack("<I", len(blob)) + blob + data[16 + blob_len:]


def header_of(data):
    blob_len = struct.unpack_from("<I", data, 12)[0]
    return json.loads(data[16 : 16 + blob_len])


def tensor_bytes(data):
    return data[16 + struct.unpack_from("<I", data, 12)[0]:]


# one value of each JSON kind, and the integers and floats at the edges of
# what a size, a rate or a count may be
OTHER_VALUES = [None, True, False, 0, -1, 1, 7, 2**40, 1.5, float("nan"),
                float("inf"), "x", "conv2d", [], [1], {}, {"extra": 0}]


def header_edits(meta):
    """Every header with one field deleted, one value replaced by another,
    or one object given an extra key."""
    for path in header_paths(meta):
        edited = copy.deepcopy(meta)
        parent = edited
        for key in path[:-1]:
            parent = parent[key]
        old = parent[path[-1]]
        del parent[path[-1]]
        yield path, "deleted", copy.deepcopy(edited)
        if isinstance(parent, list):
            parent.insert(path[-1], old)
        for value in OTHER_VALUES:
            if json.dumps(value) != json.dumps(old):
                parent[path[-1]] = value
                yield path, value, copy.deepcopy(edited)
        if isinstance(old, dict):
            parent[path[-1]] = dict(old, extra=0)
            yield path, "extra", edited


@pytest.mark.parametrize("kind", ["cache", "svm", "cnn"])
class TestHeaderFields:
    def test_each_field_deleted_retyped_or_extra(self, originals, kind):
        raw = originals.bytes[kind]
        for path, edit, meta in header_edits(header_of(raw)):
            try:
                loads(kind, with_header(raw, meta), originals.dir)
            except Exception as exc:
                raise AssertionError(f"{kind} header {path} {edit!r}") from exc

    def test_each_top_level_field_required_and_no_other(self, originals, kind):
        raw = originals.bytes[kind]
        meta = header_of(raw)
        for key in meta:
            cut = {k: v for k, v in meta.items() if k != key}
            with pytest.raises(FormatError, match=f"needs field {key}$"):
                LOAD[kind](write(originals.dir, with_header(raw, cut)))
        with pytest.raises(FormatError, match="unknown field extra$"):
            LOAD[kind](write(originals.dir, with_header(raw, dict(meta, extra=0))))


def write(d, data):
    path = d / "edited"
    path.write_bytes(data)
    return path


@FUZZ
@given(field=st.integers(0, 5), value=st.integers(0, 2**16 - 1))
def test_wav_fmt_fields(originals, field, value):
    # format tag, channels, sample rate, byte rate, block align, bit depth
    data = bytearray(originals.bytes["wav"])
    offset = 20 + (0, 2, 4, 8, 12, 14)[field]
    width = 4 if field in (2, 3) else 2
    data[offset : offset + width] = value.to_bytes(width, "little")
    loads("wav", bytes(data), originals.dir)


@pytest.mark.parametrize("kind", ["cache", "svm", "cnn"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_tensor_value_refused(originals, kind, value):
    dtype = "<f8" if kind == "svm" else "<f4"
    width = np.dtype(dtype).itemsize
    data = originals.bytes[kind]
    first = len(data) - len(tensor_bytes(data))
    for start in (first, len(data) - width):   # the first and the last value
        bad = data[:start] + np.array([value], dtype).tobytes() + data[start + width:]
        with pytest.raises(FormatError, match="NaN or infinity"):
            LOAD[kind](write(originals.dir, bad))
