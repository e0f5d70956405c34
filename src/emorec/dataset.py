"""Corpus manifests, label-distribution validation, and seeded splits.

Eight emotion classes with stable integer codes; the order also fixes the
confusion-matrix axes:

    0 neutral, 1 calm, 2 happy, 3 sad, 4 angry, 5 fearful, 6 disgust, 7 surprised

RAVDESS audio-speech filenames are seven dash-separated two-digit fields
(modality-channel-emotion-intensity-statement-repetition-actor).  TESS files
look like ``OAF_word_emotion.wav``; TESS has no "calm" and its "pleasant
surprise" (``ps``) is mapped onto ``surprised`` (flagged in validation
reports, since the equivalence is a judgment call).

Splits are stratified by label with largest-remainder apportionment, ties
broken toward test then val.  Shuffling uses numpy's seeded PCG64 generator
on records sorted by id, so assignments are reproducible and independent of
manifest ordering.  Augmented records never enter the draw; they inherit the
split of their source sample.
"""

from __future__ import annotations

import csv
import enum
import io
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError


class EmotionLabel(enum.IntEnum):
    neutral = 0
    calm = 1
    happy = 2
    sad = 3
    angry = 4
    fearful = 5
    disgust = 6
    surprised = 7


N_CLASSES = len(EmotionLabel)

RAVDESS_EXPECTED = {label: 96 if label is EmotionLabel.neutral else 192
                    for label in EmotionLabel}
TESS_EXPECTED = {label: 0 if label is EmotionLabel.calm else 400
                 for label in EmotionLabel}

_TESS_ALIASES = {
    "angry": EmotionLabel.angry,
    "disgust": EmotionLabel.disgust,
    "fear": EmotionLabel.fearful,
    "happy": EmotionLabel.happy,
    "neutral": EmotionLabel.neutral,
    "sad": EmotionLabel.sad,
    "ps": EmotionLabel.surprised,
    "pleasant_surprise": EmotionLabel.surprised,
    "pleasant_surprised": EmotionLabel.surprised,
    "surprise": EmotionLabel.surprised,
}


@dataclass
class SampleRecord:
    id: str
    path: str
    label: EmotionLabel
    corpus: str                      # "ravdess" | "tess" | "synthetic"
    actor: str = ""
    augmented_from: str | None = None
    augmentation: str | None = None
    split: str | None = None


def parse_ravdess_filename(name: str, path: str = "") -> SampleRecord:
    """Parse a RAVDESS audio-speech filename into a SampleRecord.

    Validates: 7 two-digit fields, modality 03 (audio-only), channel 01
    (speech), emotion code in 01..08.  Errors name the offending field.
    """
    base = os.path.basename(name)
    stem, _, ext = base.partition(".")
    if ext.lower() != "wav":
        raise DataError(f"{base}: not a .wav filename")
    parts = stem.split("-")
    if len(parts) != 7:
        raise DataError(f"{base}: expected 7 dash-separated fields, got {len(parts)}")
    for i, p in enumerate(parts, start=1):
        if len(p) != 2 or not p.isdigit():
            raise DataError(f"{base}: field {i} ({p!r}) is not a two-digit code")
    modality, channel, emotion, _intensity, _stmt, _rep, actor = parts
    if modality != "03":
        raise DataError(f"{base}: modality field {modality} is not audio-only (03)")
    if channel != "01":
        raise DataError(f"{base}: vocal channel field {channel} is not speech (01)")
    code = int(emotion)
    if not 1 <= code <= 8:
        raise DataError(f"{base}: emotion field {emotion} out of range 01..08")
    return SampleRecord(id=stem, path=path or name,
                        label=EmotionLabel(code - 1), corpus="ravdess",
                        actor=actor)


def parse_tess_filename(name: str, path: str = "") -> SampleRecord:
    """Parse a TESS filename (``OAF_word_emotion.wav``) into a SampleRecord."""
    base = os.path.basename(name)
    stem, _, ext = base.partition(".")
    if ext.lower() != "wav":
        raise DataError(f"{base}: not a .wav filename")
    parts = stem.split("_")
    if len(parts) < 3:
        raise DataError(f"{base}: expected actor_word_emotion, got {len(parts)} fields")
    actor = parts[0]
    token = parts[-1].lower()
    if token not in _TESS_ALIASES:
        raise DataError(f"{base}: unknown emotion token {token!r}")
    return SampleRecord(id=stem, path=path or name,
                        label=_TESS_ALIASES[token], corpus="tess", actor=actor)


def scan_corpus(root: str, corpus: str) -> list[SampleRecord]:
    """Walk a directory tree and parse every .wav per the corpus convention.

    RAVDESS trees may contain non-speech modalities; those files are skipped
    rather than rejected, since the corpora ship them side by side.  A root
    that is not a directory, or that holds no clip of the corpus, is a
    DataError naming it, not an empty corpus.
    """
    parser = {"ravdess": parse_ravdess_filename,
              "tess": parse_tess_filename}.get(corpus)
    if parser is None:
        raise DataError(f"unknown corpus {corpus!r}")
    if not os.path.isdir(root):
        raise DataError(f"{corpus} root {root!r} is not a directory")
    records = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for fn in sorted(filenames):
            if not fn.lower().endswith(".wav"):
                continue
            full = os.path.join(dirpath, fn)
            try:
                records.append(parser(fn, path=full))
            except DataError:
                if corpus == "ravdess":
                    continue
                raise
    if not records:
        raise DataError(f"{corpus} root {root!r} holds no {corpus} clip")
    records.sort(key=lambda r: r.id)
    return records


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    corpus: str
    counts: dict
    expected: dict
    passed: bool
    notes: list = field(default_factory=list)

    def to_text(self) -> str:
        lines = [f"corpus: {self.corpus}",
                 f"total: {sum(self.counts.values())} "
                 f"(expected {sum(self.expected.values())})"]
        for label in EmotionLabel:
            got, want = self.counts[label], self.expected[label]
            mark = "ok" if got == want else f"MISMATCH (expected {want})"
            lines.append(f"  {label.name:<10} {got:>5}  {mark}")
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        lines.extend(f"note: {n}" for n in self.notes)
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        return csv_text(["class", "count", "expected", "ok"],
                        ([label.name, self.counts[label], self.expected[label],
                          int(self.counts[label] == self.expected[label])]
                         for label in EmotionLabel))


def validate_manifest(records, corpus: str) -> ValidationReport:
    """Compare per-class counts against the published corpus distribution."""
    expected = {"ravdess": RAVDESS_EXPECTED, "tess": TESS_EXPECTED}.get(corpus)
    if expected is None:
        raise DataError(f"unknown corpus {corpus!r}")
    counts = {label: 0 for label in EmotionLabel}
    for r in records:
        if r.augmented_from is None:
            counts[EmotionLabel(r.label)] += 1
    passed = counts == expected
    notes = []
    if corpus == "tess":
        notes.append('TESS "pleasant surprise" counted as surprised')
    return ValidationReport(corpus, counts, expected, passed, notes)


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

SPLIT_NAMES = ("train", "val", "test")
SPLIT_RATIOS = (0.6, 0.2, 0.2)
MIN_PER_CLASS = 5   # a stratified split refuses a class with fewer samples


@dataclass
class SplitAssignment:
    assignment: dict            # id -> "train" | "val" | "test"
    seed: int

    def ids(self, split: str) -> list[str]:
        return sorted(i for i, s in self.assignment.items() if s == split)


def _apportion(n: int) -> list[int]:
    # largest-remainder; ties go to test, then val, then train
    quotas = [n * r for r in SPLIT_RATIOS]
    counts = [int(q) for q in quotas]
    remainders = [q - c for q, c in zip(quotas, counts)]
    short = n - sum(counts)
    order = sorted(range(len(SPLIT_RATIOS)),
                   key=lambda k: (-remainders[k], -k))  # higher index = test first
    for k in order[:short]:
        counts[k] += 1
    return counts


def stratified_split(records, seed: int = 0) -> SplitAssignment:
    """Per-class seeded shuffle, then a 60/20/20 largest-remainder cut.

    Augmented records are excluded from the draw and take their source's
    split afterward, so no augmented view of a sample leaks across splits.
    """
    base = sorted((r for r in records if r.augmented_from is None),
                  key=lambda r: r.id)
    ids = [r.id for r in base]
    if len(set(ids)) != len(ids):
        raise DataError("duplicate ids in manifest")

    by_class: dict = {}
    for r in base:
        by_class.setdefault(EmotionLabel(r.label), []).append(r.id)
    rng = np.random.default_rng(seed)
    assignment = {}
    for label in EmotionLabel:
        members = by_class.get(label)
        if members is None:
            continue
        if len(members) < MIN_PER_CLASS:
            raise DataError(
                f"class {label.name} has {len(members)} samples, "
                f"below the minimum {MIN_PER_CLASS}")
        perm = rng.permutation(len(members))
        shuffled = [members[i] for i in perm]
        n_train, n_val, _ = _apportion(len(members))
        for k, sample_id in enumerate(shuffled):
            if k < n_train:
                assignment[sample_id] = "train"
            elif k < n_train + n_val:
                assignment[sample_id] = "val"
            else:
                assignment[sample_id] = "test"
    for r in records:
        if r.augmented_from is not None:
            src = assignment.get(r.augmented_from)
            if src is None:
                raise DataError(
                    f"augmented record {r.id} points at unknown source {r.augmented_from}")
            assignment[r.id] = src
    return SplitAssignment(assignment, seed)


# ---------------------------------------------------------------------------
# Manifest CSV
# ---------------------------------------------------------------------------

_MANIFEST_FIELDS = ["id", "path", "corpus", "label", "actor", "split",
                    "augmented_from", "augmentation"]


def csv_text(header, rows) -> str:
    """A header and rows as CSV text, each line ending in a bare LF."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def write_manifest(path, records) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=_MANIFEST_FIELDS)
        w.writeheader()
        for r in records:
            w.writerow({
                "id": r.id, "path": r.path, "corpus": r.corpus,
                "label": EmotionLabel(r.label).name, "actor": r.actor,
                "split": r.split or "", "augmented_from": r.augmented_from or "",
                "augmentation": r.augmentation or "",
            })


def read_manifest(path) -> list[SampleRecord]:
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = {"id", "path", "corpus", "label"} - set(reader.fieldnames or ())
        if missing:
            raise DataError(f"manifest missing columns {sorted(missing)}")
        for row in reader:
            try:
                label = EmotionLabel[row["label"]]
            except KeyError:
                raise DataError(f"manifest row {row['id']}: unknown label {row['label']!r}")
            records.append(SampleRecord(
                id=row["id"], path=row["path"], label=label,
                corpus=row["corpus"], actor=row.get("actor", ""),
                split=row.get("split") or None,
                augmented_from=row.get("augmented_from") or None,
                augmentation=row.get("augmentation") or None,
            ))
    return records


def apply_split(records, split: SplitAssignment) -> None:
    for r in records:
        r.split = split.assignment.get(r.id, r.split)
