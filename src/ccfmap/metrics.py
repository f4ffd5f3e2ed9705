"""Evaluation of predicted masks: confusion tallies, accuracy, IoU.

Conventions: truth pixels labeled 255 are skipped entirely; a prediction
of 255 against a labeled truth pixel is a distinguished "abstain" miss
(it counts against accuracy and the truth class's IoU but belongs to no
predicted class). All tallies are exact integers. Since 255 marks an
unlabeled pixel, confusion and evaluate take at most 254 classes; their
label arrays may be of any dtype whose values pass pipeline.check_mask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, is_int
from .pipeline import UNLABELED, check_mask

_TALLY_SLICE = 1 << 18  # most pixels one bincount of confusion tallies


@dataclass(frozen=True)
class ConfusionMatrix:
    """k x k counts (rows truth, cols predicted) plus the abstain column
    and the skipped-pixel tally."""

    counts: np.ndarray  # (k, k) int64
    abstain: np.ndarray  # (k,) int64: truth labeled, prediction 255
    skipped: int  # truth 255

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        a = np.asarray(self.abstain, dtype=np.int64)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise DataError(f"counts must be square, got shape {c.shape}")
        if a.shape != (c.shape[0],):
            raise DataError(
                f"abstain must have one entry per class, got shape {a.shape}"
            )
        if (c < 0).any() or (a < 0).any() or self.skipped < 0:
            raise DataError("negative tallies")
        c = c.copy()
        c.setflags(write=False)
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "counts", c)
        object.__setattr__(self, "abstain", a)
        object.__setattr__(self, "skipped", int(self.skipped))

    @property
    def n_classes(self) -> int:
        return self.counts.shape[0]

    @property
    def total(self) -> int:
        """Evaluated pixels: every labeled-truth pixel, abstentions included."""
        return int(self.counts.sum() + self.abstain.sum())


def confusion(pred, truth, n_classes: int = 2) -> ConfusionMatrix:
    """Tally predictions against ground truth over any same-shaped arrays."""
    p = np.asarray(pred)
    t = np.asarray(truth)
    if p.shape != t.shape:
        raise DataError(f"shape mismatch: pred {p.shape} vs truth {t.shape}")
    if not is_int(n_classes) or not 2 <= n_classes < UNLABELED:
        raise DataError(f"n_classes must be in [2, {UNLABELED}), got {n_classes!r}")
    k = int(n_classes)
    check_mask(p, k, "pred")
    check_mask(t, k, "truth")

    t, p = t.ravel(), p.ravel()
    table = 0  # summed over slices: the codes and their intp cast cost one slice
    for i in range(0, t.size or 1, _TALLY_SLICE):
        s = slice(i, i + _TALLY_SLICE)
        codes = t[s].astype(np.uint16) << 8 | p[s].astype(np.uint16)  # one per (truth, pred)
        table = table + np.bincount(codes, minlength=1 << 16)
    table = table.reshape(256, 256)
    return ConfusionMatrix(table[:k, :k], table[:k, UNLABELED], table[UNLABELED].sum())


def pixel_accuracy(c: ConfusionMatrix) -> float:
    """Fraction of evaluated pixels predicted correctly: trace / total."""
    total = c.total
    if total == 0:
        raise DataError("undefined metric: no evaluated pixels")
    return float(np.trace(c.counts)) / total


def mean_iou(c: ConfusionMatrix):
    """Per-class IoU = TP/(TP+FP+FN) and their unweighted mean.

    A class absent from both prediction and truth has zero union; it is
    undefined (None) and excluded from the mean. A positive total gives
    some truth class a union, so the mean is always defined.
    """
    if c.total == 0:
        raise DataError("undefined metric: no evaluated pixels")
    ious = []
    for i in range(c.n_classes):
        tp = int(c.counts[i, i])
        fp = int(c.counts[:, i].sum()) - tp
        fn = int(c.counts[i, :].sum() + c.abstain[i]) - tp
        union = tp + fp + fn
        ious.append(None if union == 0 else tp / union)
    defined = [v for v in ious if v is not None]
    return tuple(ious), sum(defined) / len(defined)


@dataclass(frozen=True)
class EvalReport:
    confusion: ConfusionMatrix
    pixel_accuracy: float
    iou_per_class: tuple
    mean_iou: float
    evaluated_pixels: int
    skipped_pixels: int


def evaluate(pred, truth, n_classes: int = 2) -> EvalReport:
    """confusion + both headline metrics in one report."""
    return evaluate_windows([(pred, truth)], n_classes)


def evaluate_windows(windows, n_classes: int = 2) -> EvalReport:
    """evaluate over the (pred, truth) window pairs of two larger masks:
    their confusion tallies, whole numbers, summed; so the report equals
    evaluate's on the whole masks."""
    counts = abstain = skipped = 0
    for pred, truth in windows:
        c = confusion(pred, truth, n_classes)
        counts, abstain, skipped = counts + c.counts, abstain + c.abstain, skipped + c.skipped
    c = ConfusionMatrix(counts, abstain, skipped)
    ious, miou = mean_iou(c)
    return EvalReport(
        confusion=c,
        pixel_accuracy=pixel_accuracy(c),
        iou_per_class=ious,
        mean_iou=miou,
        evaluated_pixels=c.total,
        skipped_pixels=c.skipped,
    )
