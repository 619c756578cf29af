"""Fold evaluation and leave-one-subject-out aggregation.

Two aggregation modes, kept separate on purpose:
  sum_then_normalize: add raw confusion counts over folds, then row-normalize.
  mean_of_normalized: row-normalize each fold first, then average each class
    row over the folds where that class actually has test samples.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .dataset import EmotionLabel, _csv_field
from .model import _forward_batch
from .training import Checkpoint, apply_standardizer

N_CLASSES = 6
CODES = [lab.code for lab in EmotionLabel]
FOLD_CSV_HEADER = ["path", "true", "pred"] + [f"p_{c}" for c in CODES]

AGGREGATION_MODES = ("sum_then_normalize", "mean_of_normalized")

# Sequences predict_batch stacks, standardizes and scores per forward pass.
PREDICT_BATCH = 256

# Recall percentages reported for the original corpus experiments, keyed by
# (emotion label, model number). Shown beside our numbers for orientation;
# never used as a pass/fail target.
REFERENCE_RECALL = {
    ("Anger", 2): 75.6,
    ("Anger", 1): 63.25,
    ("Disgust", 2): 48.46,
    ("Disgust", 3): 36.18,
    ("Fear", 2): 48.62,
    ("Fear", 3): 6.89,
    ("Happy", 1): 62.7,
    ("Happy", 2): 55.62,
    ("Happy", 3): 43.71,
    ("Neutral", 1): 63.10,
    ("Neutral", 3): 52.48,
    ("Sad", 2): 70.57,
    ("Sad", 3): 68.67,
    ("Sad", 4): 63.25,
}


class ConfigMismatchError(ValueError):
    """Features do not fit the checkpoint's expected input layout."""


class EmptyReportError(ValueError):
    """Aggregation over zero predictions."""


class FoldCsvError(ValueError):
    """Fold CSV text is not a header plus rows as fold_csv writes them."""


@dataclass
class ConfusionMatrix:
    """Row = true class, column = predicted class, raw counts."""

    counts: np.ndarray = field(default_factory=lambda: np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64))

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape != (N_CLASSES, N_CLASSES):
            raise ValueError(f"confusion matrix must be {N_CLASSES}x{N_CLASSES}, got {self.counts.shape}")
        if (self.counts < 0).any():
            raise ValueError("confusion counts must be non-negative")

    @classmethod
    def from_labels(cls, true, pred) -> "ConfusionMatrix":
        """Counts of the (true, predicted) label pairs."""
        cm = cls()
        np.add.at(cm.counts, (np.asarray(true, dtype=np.int64), np.asarray(pred, dtype=np.int64)), 1)
        return cm

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def support(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def accuracy(self) -> float:
        tot = self.total
        return float(np.trace(self.counts)) / tot if tot else 0.0

    def normalized(self) -> np.ndarray:
        """Row-normalized rates; rows with no samples stay all-zero."""
        sup = self.support().astype(np.float64)
        out = np.zeros((N_CLASSES, N_CLASSES))
        nz = sup > 0
        out[nz] = self.counts[nz] / sup[nz, None]
        return out


@dataclass
class AggregateReport:
    mode: str
    rates: np.ndarray  # 6x6, rows sum to 1 except flagged zero-support rows
    accuracy: float  # pooled over all test samples
    mean_recall: float  # unweighted mean of per-class recall over supported rows
    n_folds: int
    n_samples: int
    zero_support: list  # emotion labels with no test samples anywhere


def predict_batch(ckpt: Checkpoint, feature_seqs) -> np.ndarray:
    """Posterior rows for a list of FeatureSequence, applying the checkpoint's
    stored feature standardization. Sequences must share one padded length.
    Each batch of PREDICT_BATCH sequences is stacked and standardized on its
    own, so no array of the whole list's frames is made."""
    if not feature_seqs:
        return np.zeros((0, N_CLASSES))
    d = feature_seqs[0].n_mfcc
    if d != ckpt.model_cfg.input_dim:
        raise ConfigMismatchError(
            f"features have {d} coefficients but the checkpoint expects {ckpt.model_cfg.input_dim}"
        )
    shapes = {f.frames.shape for f in feature_seqs}
    if len(shapes) != 1:
        raise ConfigMismatchError(f"feature sequences disagree in shape: {sorted(shapes)}")
    rows = []
    for start in range(0, len(feature_seqs), PREDICT_BATCH):
        batch = feature_seqs[start : start + PREDICT_BATCH]
        X = np.stack([f.frames for f in batch])
        pad = np.stack([f.pad_mask for f in batch])
        apply_standardizer(X, ckpt.feature_stats, out=X)
        probs, _, _ = _forward_batch(X, pad, ckpt.params, ckpt.model_cfg)
        rows.append(probs)
    return np.concatenate(rows, axis=0)


def evaluate_fold(ckpt: Checkpoint, paths, test_set, subject: str) -> str:
    """Score one held-out subject's (FeatureSequence, label) pairs, the clips
    at paths, and return the fold's CSV text. Ties in the posterior go to the
    lowest class index (np.argmax convention)."""
    if not test_set:
        raise ValueError(f"fold '{subject}' has an empty test set")
    probs = predict_batch(ckpt, [features for features, _ in test_set])
    return fold_csv(paths, [label for _, label in test_set], np.argmax(probs, axis=1), probs)


def aggregate(matrices, mode: str) -> AggregateReport:
    """Pool per-fold ConfusionMatrix objects under one of AGGREGATION_MODES."""
    if mode not in AGGREGATION_MODES:
        raise ValueError(f"unknown aggregation mode '{mode}' (expected one of {AGGREGATION_MODES})")
    matrices = list(matrices)
    if not matrices:
        raise EmptyReportError("no folds to aggregate")
    totals = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    for cm in matrices:
        totals += cm.counts
    pooled = ConfusionMatrix(totals)
    if pooled.total == 0:
        raise EmptyReportError("aggregate over zero predictions")
    support = pooled.support()
    zero_support = [EmotionLabel(i).label for i in range(N_CLASSES) if support[i] == 0]

    if mode == "sum_then_normalize":
        rates = pooled.normalized()
    else:
        rates = np.zeros((N_CLASSES, N_CLASSES))
        for i in range(N_CLASSES):
            rows = [cm.normalized()[i] for cm in matrices if cm.support()[i] > 0]
            if rows:
                rates[i] = np.mean(rows, axis=0)

    recalls = np.diag(rates)
    supported = support > 0
    mean_recall = float(recalls[supported].mean()) if supported.any() else 0.0
    return AggregateReport(
        mode=mode,
        rates=rates,
        accuracy=pooled.accuracy(),
        mean_recall=mean_recall,
        n_folds=len(matrices),
        n_samples=pooled.total,
        zero_support=zero_support,
    )


# -- text artifacts --------------------------------------------------------------


def fold_csv(paths, true, pred, probs) -> str:
    lines = [",".join(FOLD_CSV_HEADER)]
    for path, t, p, row in zip(paths, true, pred, probs, strict=True):
        lines.append(f"{_csv_field(path)},{CODES[t]},{CODES[p]}," + ",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def parse_fold_csv(text: str):
    """Rebuild (paths, true, pred, probs) from fold_csv output. Text read
    from a file must keep its line breaks (open it with newline=""), since a
    quoted path may hold any of them. Malformed text, and text other than
    what fold_csv writes for the rows it holds, raises FoldCsvError."""
    try:
        rows = [row for row in csv.reader(io.StringIO(text, newline="")) if row]
    except csv.Error as exc:
        raise FoldCsvError(f"malformed fold csv: {exc}") from None
    if not rows or rows[0] != FOLD_CSV_HEADER:
        raise FoldCsvError(f"unexpected fold csv header: {rows[0] if rows else '<empty>'!r}")
    paths, true, pred, probs = [], [], [], []
    for row in rows[1:]:
        if len(row) != len(FOLD_CSV_HEADER):
            raise FoldCsvError(f"bad fold csv row: {row!r}")
        try:
            true.append(CODES.index(row[1]))
            pred.append(CODES.index(row[2]))
            probs.append([float(v) for v in row[3:]])
        except ValueError:
            raise FoldCsvError(f"bad fold csv row: {row!r}") from None
        paths.append(row[0])
    if fold_csv(paths, true, pred, probs) != text:
        raise FoldCsvError("fold csv is not in canonical form")
    return paths, np.asarray(true, dtype=np.int64), np.asarray(pred, dtype=np.int64), np.asarray(probs)


def matrix_csv(rates: np.ndarray) -> str:
    lines = ["," + ",".join(CODES)]
    for i, code in enumerate(CODES):
        lines.append(code + "," + ",".join(repr(float(v)) for v in rates[i]))
    return "\n".join(lines) + "\n"


def summary_text(report: AggregateReport) -> str:
    lines = [
        f"mode: {report.mode}",
        f"folds: {report.n_folds}",
        f"samples: {report.n_samples}",
        f"accuracy: {report.accuracy:.4f}",
        f"mean_recall: {report.mean_recall:.4f}",
    ]
    for i, lab in enumerate(EmotionLabel):
        lines.append(f"recall[{lab.code}]: {report.rates[i, i]:.4f}")
    if report.zero_support:
        lines.append("zero_support: " + ",".join(report.zero_support))
    return "\n".join(lines) + "\n"


def per_emotion_report(report: AggregateReport, model_number: int) -> str:
    """Per-emotion recall table with previously reported numbers, where any
    exist for this model variant, shown for orientation."""
    lines = [f"{'emotion':<10}{'recall%':>10}{'reported%':>12}"]
    for i, lab in enumerate(EmotionLabel):
        ours = report.rates[i, i] * 100.0
        ref = REFERENCE_RECALL.get((lab.label, model_number))
        ref_txt = f"{ref:11.2f}" if ref is not None else "          -"
        lines.append(f"{lab.label:<10}{ours:10.2f} {ref_txt}")
    return "\n".join(lines) + "\n"
