import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emorec import dataset
from emorec.dataset import (EmotionLabel, SampleRecord, parse_ravdess_filename,
                            parse_tess_filename, stratified_split,
                            validate_manifest)
from emorec.errors import DataError


def make_records(per_class, classes=tuple(EmotionLabel)):
    records = []
    for label in classes:
        for k in range(per_class):
            records.append(SampleRecord(id=f"{label.name}-{k:04d}", path="",
                                        label=label, corpus="synthetic",
                                        actor=f"{k % 12:02d}"))
    return records


class TestLabels:
    def test_exactly_eight_in_order(self):
        assert [l.name for l in EmotionLabel] == [
            "neutral", "calm", "happy", "sad", "angry", "fearful",
            "disgust", "surprised"]
        assert [int(l) for l in EmotionLabel] == list(range(8))


class TestParseRavdess:
    def test_neutral_actor01(self):
        r = parse_ravdess_filename("03-01-01-01-01-01-01.wav")
        assert r.label is EmotionLabel.neutral
        assert r.actor == "01"
        assert r.corpus == "ravdess"

    def test_angry_actor12(self):
        r = parse_ravdess_filename("03-01-05-02-02-02-12.wav")
        assert r.label is EmotionLabel.angry
        assert r.actor == "12"

    def test_all_eight_codes(self):
        for code, label in zip(range(1, 9), EmotionLabel):
            r = parse_ravdess_filename(f"03-01-{code:02d}-01-01-01-02.wav")
            assert r.label is label

    def test_emotion_out_of_range(self):
        with pytest.raises(DataError, match="emotion field 09"):
            parse_ravdess_filename("03-01-09-01-01-01-01.wav")

    def test_wrong_field_count(self):
        with pytest.raises(DataError, match="7 dash-separated fields"):
            parse_ravdess_filename("03-01-01-01-01-01.wav")

    def test_video_modality_rejected(self):
        with pytest.raises(DataError, match="modality"):
            parse_ravdess_filename("01-01-03-01-01-01-01.wav")

    def test_song_channel_rejected(self):
        with pytest.raises(DataError, match="vocal channel"):
            parse_ravdess_filename("03-02-03-01-01-01-01.wav")


class TestParseTess:
    def test_basic(self):
        r = parse_tess_filename("OAF_back_angry.wav")
        assert r.label is EmotionLabel.angry
        assert r.actor == "OAF"
        assert r.corpus == "tess"

    def test_pleasant_surprise_maps_to_surprised(self):
        assert parse_tess_filename("YAF_dog_ps.wav").label is EmotionLabel.surprised

    def test_fear_maps_to_fearful(self):
        assert parse_tess_filename("OAF_young_fear.wav").label is EmotionLabel.fearful

    def test_unknown_token(self):
        with pytest.raises(DataError, match="unknown emotion token"):
            parse_tess_filename("OAF_young_bored.wav")


class TestValidate:
    def test_full_ravdess_distribution_passes(self):
        records = []
        for label in EmotionLabel:
            n = 96 if label is EmotionLabel.neutral else 192
            records += [SampleRecord(id=f"{label.name}{k}", path="",
                                     label=label, corpus="ravdess")
                        for k in range(n)]
        report = validate_manifest(records, "ravdess")
        assert report.passed
        assert sum(report.counts.values()) == 1440
        assert report.counts[EmotionLabel.neutral] == 96

    def test_full_tess_distribution_passes(self):
        records = []
        for label in EmotionLabel:
            if label is EmotionLabel.calm:
                continue
            records += [SampleRecord(id=f"{label.name}{k}", path="",
                                     label=label, corpus="tess")
                        for k in range(400)]
        report = validate_manifest(records, "tess")
        assert report.passed
        assert sum(report.counts.values()) == 2800
        assert report.counts[EmotionLabel.calm] == 0
        assert any("pleasant surprise" in n for n in report.notes)

    def test_empty_manifest_fails_with_deficits(self):
        report = validate_manifest([], "ravdess")
        assert not report.passed
        assert all(v == 0 for v in report.counts.values())
        text = report.to_text()
        assert "FAIL" in text and "MISMATCH" in text

    def test_augmented_records_not_counted(self):
        base = [SampleRecord(id=f"b{k}", path="", label=EmotionLabel.happy,
                             corpus="ravdess") for k in range(3)]
        aug = [SampleRecord(id="b0_rev", path="", label=EmotionLabel.happy,
                            corpus="ravdess", augmented_from="b0")]
        report = validate_manifest(base + aug, "ravdess")
        assert report.counts[EmotionLabel.happy] == 3


class TestStratifiedSplit:
    def test_192_class_cut(self):
        records = make_records(192, [EmotionLabel.happy])
        split = stratified_split(records, seed=0)
        sizes = {name: len(split.ids(name)) for name in ("train", "val", "test")}
        assert sizes == {"train": 115, "val": 38, "test": 39}

    def test_deterministic(self, tiny_records):
        a = stratified_split(tiny_records, seed=42)
        b = stratified_split(tiny_records, seed=42)
        assert a.assignment == b.assignment
        c = stratified_split(tiny_records, seed=43)
        assert a.assignment != c.assignment

    def test_order_invariant(self, tiny_records):
        a = stratified_split(tiny_records, seed=7)
        b = stratified_split(list(reversed(tiny_records)), seed=7)
        assert a.assignment == b.assignment

    def test_partition_and_stratification(self):
        rng = np.random.default_rng(0)
        records = []
        for label in EmotionLabel:
            n = int(rng.integers(10, 60))
            records += [SampleRecord(id=f"{label.name}{k}", path="",
                                     label=label, corpus="synthetic")
                        for k in range(n)]
        split = stratified_split(records, seed=3)
        assert set(split.assignment) == {r.id for r in records}
        for label in EmotionLabel:
            ids = [r.id for r in records if r.label is label]
            n = len(ids)
            n_train = sum(1 for i in ids if split.assignment[i] == "train")
            assert abs(n_train / n - 0.6) <= 1.0 / n + 1e-12

    def test_augmented_follows_source(self):
        records = make_records(10, [EmotionLabel.sad, EmotionLabel.angry])
        aug = [SampleRecord(id=r.id + "_rev", path="", label=r.label,
                            corpus="synthetic", augmented_from=r.id)
               for r in records]
        split = stratified_split(records + aug, seed=1)
        for r in aug:
            assert split.assignment[r.id] == split.assignment[r.augmented_from]

    def test_orphan_augmented_rejected(self):
        records = make_records(10, [EmotionLabel.sad, EmotionLabel.angry])
        orphan = SampleRecord(id="ghost_rev", path="", label=EmotionLabel.sad,
                              corpus="synthetic", augmented_from="ghost")
        with pytest.raises(DataError, match="unknown source"):
            stratified_split(records + [orphan], seed=1)

    def test_small_class_rejected(self):
        records = make_records(4, [EmotionLabel.sad, EmotionLabel.angry])
        with pytest.raises(DataError, match="below the minimum"):
            stratified_split(records, seed=0)

    def test_duplicate_ids_rejected(self):
        records = make_records(6, [EmotionLabel.sad])
        with pytest.raises(DataError, match="duplicate ids"):
            stratified_split(records + [records[0]], seed=0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_no_leakage_any_seed(self, seed):
        records = make_records(8, [EmotionLabel.happy, EmotionLabel.sad])
        split = stratified_split(records, seed=seed)
        names = set(split.assignment.values())
        assert names <= {"train", "val", "test"}
        assert len(split.assignment) == len(records)


class TestApportion:
    def test_tie_goes_to_test(self):
        assert dataset._apportion(192) == [115, 38, 39]

    def test_small_class(self):
        counts = dataset._apportion(9)
        assert sum(counts) == 9
        assert counts == [5, 2, 2]

    @given(st.integers(5, 2000))
    @settings(max_examples=60, deadline=None)
    def test_within_one_of_quota(self, n):
        counts = dataset._apportion(n)
        assert sum(counts) == n
        for got, ratio in zip(counts, (0.6, 0.2, 0.2)):
            assert abs(got - n * ratio) < 1.0


class TestManifestIO:
    def test_roundtrip(self, tmp_path, tiny_records):
        split = stratified_split(tiny_records, seed=0)
        dataset.apply_split(tiny_records, split)
        path = tmp_path / "manifest.csv"
        dataset.write_manifest(path, tiny_records)
        back = dataset.read_manifest(path)
        assert len(back) == len(tiny_records)
        for a, b in zip(tiny_records, back):
            assert (a.id, a.path, a.label, a.corpus, a.actor, a.split) == \
                   (b.id, b.path, b.label, b.corpus, b.actor, b.split)

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,path\nx,y\n")
        with pytest.raises(DataError, match="missing columns"):
            dataset.read_manifest(path)

    def test_scan_corpus(self, tiny_corpus_dir, tiny_records):
        assert len(tiny_records) == 48
        assert all(r.corpus == "ravdess" for r in tiny_records)
        counts = {}
        for r in tiny_records:
            counts[r.label] = counts.get(r.label, 0) + 1
        assert all(v == 6 for v in counts.values())


class TestScanCorpusRoot:
    """A root that is missing, or holds no clip of the corpus, is a DataError
    naming it, not an empty corpus."""

    @pytest.mark.parametrize("corpus", ["ravdess", "tess"])
    def test_missing_root(self, tmp_path, corpus):
        root = str(tmp_path / "missing")
        with pytest.raises(DataError, match="not a directory") as exc:
            dataset.scan_corpus(root, corpus)
        assert root in str(exc.value)

    def test_file_as_root(self, tmp_path):
        root = tmp_path / "03-01-01-01-01-01-01.wav"
        root.write_bytes(b"")
        with pytest.raises(DataError, match="not a directory"):
            dataset.scan_corpus(str(root), "ravdess")

    @pytest.mark.parametrize("names", [
        [],                                        # empty
        ["notes.txt"],                             # no .wav at all
        ["02-01-01-01-01-01-01.wav",               # RAVDESS video-only and
         "03-02-01-01-01-01-01.wav"],              # song files are skipped
    ])
    def test_root_without_clips(self, tmp_path, names):
        for name in names:
            (tmp_path / name).write_bytes(b"")
        with pytest.raises(DataError, match="holds no ravdess clip") as exc:
            dataset.scan_corpus(str(tmp_path), "ravdess")
        assert str(tmp_path) in str(exc.value)
