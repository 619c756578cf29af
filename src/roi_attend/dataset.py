"""Corpus handling: filename metadata, LOSO fold planning, synthetic clips.

Corpus files follow the ACTOR_SENTENCE_EMOTION_LEVEL.wav convention. The
synthetic generator produces six separable classes (distinct carrier tone +
AM rate) where all class evidence sits in one short burst at a random offset,
so a correct attention model has a ground-truth salient region to find.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .dsp import AudioClip, write_wav_file
from .numerics import SeededRng, check_seed

LEVELS = ("LO", "MD", "HI", "XX")


class FilenameParseError(ValueError):
    pass


class DuplicatePathError(ValueError):
    pass


class EmptyCorpusError(ValueError):
    pass


class CannotSplitError(ValueError):
    pass


class EmotionLabel(IntEnum):
    """Six emotion classes; the int value is the class index used everywhere."""

    ANGER = 0
    DISGUST = 1
    FEAR = 2
    HAPPY = 3
    NEUTRAL = 4
    SAD = 5

    @property
    def code(self) -> str:
        return _CODES[self.value]

    @property
    def label(self) -> str:
        return _NAMES[self.value]

    @classmethod
    def from_code(cls, code: str) -> "EmotionLabel":
        try:
            return cls(_CODES.index(code))
        except ValueError:
            raise FilenameParseError(f"unknown emotion code '{code}'") from None


_CODES = ("ANG", "DIS", "FEA", "HAP", "NEU", "SAD")
_NAMES = ("Anger", "Disgust", "Fear", "Happy", "Neutral", "Sad")


@dataclass
class UtteranceMeta:
    actor_id: str
    sentence_code: str
    emotion: EmotionLabel
    level: str
    path: str

    def __post_init__(self):
        if not self.actor_id:
            raise ValueError("actor_id must be non-empty")
        if self.level not in LEVELS:
            raise ValueError(f"level must be one of {LEVELS}, got '{self.level}'")


def parse_filename(name: str) -> UtteranceMeta:
    """Split ACTOR_SENTENCE_EMOTION_LEVEL.wav into validated metadata."""
    base = os.path.basename(name)
    if not base.endswith(".wav"):
        raise FilenameParseError(f"'{base}' does not end in .wav")
    parts = base[:-4].split("_")
    if len(parts) != 4:
        raise FilenameParseError(
            f"'{base}' has {len(parts)} underscore-separated fields, expected 4 "
            "(ACTOR_SENTENCE_EMOTION_LEVEL)"
        )
    actor, sentence, emo_code, level = parts
    if not actor:
        raise FilenameParseError(f"empty actor field in '{base}'")
    if "\n" in actor:  # subjects are listed one per line
        raise FilenameParseError(f"actor field in {base!r} holds a line break")
    if not sentence:
        raise FilenameParseError(f"empty sentence field in '{base}'")
    emotion = EmotionLabel.from_code(emo_code)
    if level not in LEVELS:
        raise FilenameParseError(f"unknown level code '{level}'")
    return UtteranceMeta(actor, sentence, emotion, level, path=name)


def build_manifest(names) -> tuple[list[UtteranceMeta], list[str]]:
    """Parse a listing of wav paths; unparseable names are skipped, not fatal.

    Returns (entries, skipped_names), entries in listing order. Duplicated
    paths and a fully empty corpus are errors.
    """
    entries: list[UtteranceMeta] = []
    skipped: list[str] = []
    seen: set[str] = set()
    for name in names:
        if name in seen:
            raise DuplicatePathError(f"path listed twice: '{name}'")
        seen.add(name)
        try:
            entries.append(parse_filename(name))
        except FilenameParseError:
            skipped.append(name)
    if not entries:
        raise EmptyCorpusError("no parseable .wav names in listing")
    return entries, skipped


def scan_corpus(root) -> tuple[list[UtteranceMeta], list[str]]:
    """build_manifest over the sorted *.wav files directly under a directory."""
    names = sorted(
        os.path.join(root, n) for n in os.listdir(root) if n.endswith(".wav")
    )
    return build_manifest(names)


def _csv_field(text: str) -> str:
    """One CSV field: quoted, inner quotes doubled, when it holds a comma, a
    quote or a line break. csv.writer with a "\\n" terminator would leave a
    "\\r" unquoted, and csv.reader ends a record there."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def manifest_csv(entries: list[UtteranceMeta]) -> str:
    return "path,actor_id,sentence,emotion,level\n" + "".join(
        ",".join(map(_csv_field, (e.path, e.actor_id, e.sentence_code, e.emotion.code, e.level))) + "\n"
        for e in entries
    )


@dataclass
class LosoFold:
    held_out_subject: str
    train_indices: list[int]
    test_indices: list[int]


def loso_folds(entries: list[UtteranceMeta]) -> list[LosoFold]:
    """One fold per subject, ordered by ascending actor_id."""
    subjects = sorted({e.actor_id for e in entries})
    if len(subjects) < 2:
        raise CannotSplitError(f"need at least 2 subjects for LOSO, got {len(subjects)}")
    folds = []
    for subject in subjects:
        test = [i for i, e in enumerate(entries) if e.actor_id == subject]
        train = [i for i, e in enumerate(entries) if e.actor_id != subject]
        folds.append(LosoFold(subject, train, test))
    return folds


# -- synthetic corpus ----------------------------------------------------------


# (carrier Hz, AM Hz) of each class's burst, in EmotionLabel order: six
# carriers spread over 300-3000 Hz with six distinct AM rates.
CLASS_TONES = tuple(zip(np.linspace(300.0, 3000.0, 6).tolist(), np.linspace(2.0, 12.0, 6).tolist()))
BURST_AMPLITUDE = 0.5


@dataclass
class SyntheticSpec:
    n_clips_per_class: int = 10
    sample_rate: int = 16000
    clip_len: int = 8000
    burst_len: int = 1600
    noise_amplitude: float = 0.01
    seed: int = 0
    n_actors: int = 5
    actor_base: int = 9001
    # Per-clip lengths are drawn from [min_clip_len, clip_len] so a padded
    # corpus actually contains padding; None means every clip is clip_len.
    min_clip_len: int | None = None

    def __post_init__(self):
        for name in ("n_clips_per_class", "sample_rate", "burst_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.burst_len >= self.clip_len:
            raise ValueError("burst_len must be smaller than clip_len")
        if self.min_clip_len is not None and not self.burst_len <= self.min_clip_len <= self.clip_len:
            raise ValueError("min_clip_len must lie in [burst_len, clip_len]")
        if self.n_actors < 1:
            raise ValueError("need at least one pseudo-actor")
        if not math.isfinite(self.noise_amplitude):
            raise ValueError(f"noise_amplitude must be finite, got {self.noise_amplitude}")
        check_seed(self.seed)


@dataclass
class SyntheticClip:
    clip: AudioClip
    label: EmotionLabel
    actor_id: str
    burst_start: int
    burst_end: int


def generate_synthetic(spec: SyntheticSpec) -> Iterator[SyntheticClip]:
    """Low-amplitude noise plus one class-signature burst per clip, yielded
    one clip at a time so a corpus never has to fit in memory.

    Deterministic under spec.seed. Clips are assigned round-robin to
    spec.n_actors pseudo-actors by generation order.
    """
    rng = SeededRng(spec.seed)
    actors = [f"{spec.actor_base + i:04d}" for i in range(spec.n_actors)]
    t = np.arange(spec.burst_len) / spec.sample_rate
    envelope = 0.5 * (1.0 - np.cos(2.0 * np.pi * np.arange(spec.burst_len) / spec.burst_len))
    serial = 0
    for label, (carrier_hz, am_hz) in zip(EmotionLabel, CLASS_TONES):
        # only the phase varies by clip: the burst is amplitude * envelope * am *
        # sin(2*pi*carrier_hz*t + phase) evaluated left to right, so these
        # class-wide leading products give the same bits
        am = 1.0 + 0.5 * np.sin(2.0 * np.pi * am_hz * t)
        gain = BURST_AMPLITUDE * envelope * am
        carrier_phase = 2.0 * np.pi * carrier_hz * t
        for _ in range(spec.n_clips_per_class):
            if spec.min_clip_len is None:
                length = spec.clip_len
            else:
                length = int(rng.integers(spec.min_clip_len, spec.clip_len + 1))
            samples = spec.noise_amplitude * rng.normal(size=length)
            start = int(rng.integers(0, length - spec.burst_len + 1))
            phase = float(rng.uniform(0.0, 2.0 * np.pi))
            samples[start : start + spec.burst_len] += gain * np.sin(carrier_phase + phase)
            actor = actors[serial % spec.n_actors]
            name = f"{actor}_S{serial:03d}_{label.code}_XX.wav"
            clip = AudioClip(samples, spec.sample_rate, source_id=name)
            yield SyntheticClip(clip, label, actor, start, start + spec.burst_len)
            serial += 1


def write_synthetic_corpus(clips: Iterable[SyntheticClip], root) -> list[str]:
    """Write WAVs (named by the corpus convention) plus regions.csv under root,
    each clip as it arrives."""
    os.makedirs(root, exist_ok=True)
    paths = []
    rows = []
    for sc in clips:
        path = os.path.join(root, sc.clip.source_id)
        write_wav_file(path, sc.clip.samples, sc.clip.sample_rate)
        paths.append(path)
        rows.append((path, sc.burst_start, sc.burst_end))
    with open(os.path.join(root, "regions.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write("path,burst_start,burst_end\n")
        fh.writelines(f"{_csv_field(path)},{start},{end}\n" for path, start, end in rows)
    return paths
