import json
import struct

import numpy as np
import pytest

from emorec import audio_io, dataset, features


def class_tone_clip(label: int, seed: int, sample_rate=4000, duration=1.0,
                    noise=0.02) -> audio_io.AudioClip:
    """Synthetic clip whose class is encoded in its tone frequency."""
    freq = 250.0 + 150.0 * label
    clip = audio_io.synth_tone(freq, duration, sample_rate, amplitude=0.6)
    rng = np.random.default_rng(seed)
    samples = clip.samples + noise * rng.standard_normal(len(clip))
    return audio_io.AudioClip(samples, sample_rate, source_id=f"c{label}s{seed}")


@pytest.fixture(scope="session")
def pipeline_cfg():
    # 4 kHz fixtures, ~1 s clips
    return features.PipelineConfig(n_mfcc=13, target_length=4200,
                                   frame_length=512, n_mels=26)


@pytest.fixture(scope="session")
def tiny_corpus_dir(tmp_path_factory):
    """RAVDESS-style tree: 8 emotions x 6 actors of tone clips at 4 kHz."""
    root = tmp_path_factory.mktemp("ravdess_tiny")
    for emotion in range(1, 9):
        for actor in range(1, 7):
            clip = class_tone_clip(emotion - 1, seed=emotion * 100 + actor,
                                   duration=1.0 + 0.01 * actor)
            name = f"03-01-{emotion:02d}-01-01-01-{actor:02d}.wav"
            data, _ = audio_io.encode_wav(clip)
            (root / name).write_bytes(data)
    return root


@pytest.fixture(scope="session")
def tiny_records(tiny_corpus_dir):
    return dataset.scan_corpus(str(tiny_corpus_dir), "ravdess")


def overfit_windows():
    """8 class-distinguishable 13x26 windows, one per class, z-scored."""
    wins = []
    for c in range(8):
        m = np.zeros((13, 26))
        m[:, c * 3 : c * 3 + 3] = 1.0
        m[c % 13, :] += 0.5
        m = (m - m.mean()) / m.std()
        wins.append(m)
    return np.stack(wins)[..., None], np.arange(8)


def rewrite_header(path, **fields):
    """Set `fields` in a model container's JSON header, keeping its tensors.

    Containers are: 8-byte magic, u32 version, u32 header length, JSON
    header, tensors.
    """
    data = open(path, "rb").read()
    version, blob_len = struct.unpack_from("<II", data, 8)
    meta = json.loads(data[16 : 16 + blob_len])
    meta.update(fields)
    blob = json.dumps(meta).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data[:8] + struct.pack("<II", version, len(blob)) + blob
                 + data[16 + blob_len:])
