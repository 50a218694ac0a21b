"""Classification accuracy metrics: ROC curves, AUC, precision/recall/F1.

The metrics run on a float64 score array and a 0/1 label array
(``checked_arrays``); ``roc_curve`` and ``f1_at_threshold`` take
``Prediction`` objects instead. The ROC is one stable descending sort, read at
the last row of each run of tied scores (Fawcett 2006). Sums add in the order
of a running ``+=`` (``running_sum``), so the last bits do not move.

AUC is computed two independent ways (trapezoidal integration of the ROC
curve, and the Mann-Whitney rank statistic) so each serves as an oracle for
the other. Tied scores advance the ROC as a single diagonal step, which makes
the trapezoid area agree with the half-credit rank statistic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import MetricError
from .grouping import GroupTag

__all__ = [
    "Prediction",
    "RocCurve",
    "ConfusionCounts",
    "F1Result",
    "checked_arrays",
    "roc_from_arrays",
    "f1_from_arrays",
    "roc_curve",
    "auc_trapezoid",
    "auc_rank",
    "f1_at_threshold",
]


@dataclass(frozen=True)
class Prediction:
    """One scored instance; ``group`` is required only for fairness audits."""

    instance_id: str
    score: float
    label: int
    group: GroupTag | None = None

    def __post_init__(self):
        if not (0.0 <= self.score <= 1.0):  # also rejects NaN
            raise MetricError(
                f"score must be a finite value in [0, 1], got {self.score!r}"
            )
        if self.label not in (0, 1):
            raise MetricError(f"label must be 0 or 1, got {self.label!r}")


class RocCurve:
    """A ROC curve as read-only ``fpr`` and ``tpr`` arrays, running from
    (0, 0) to (1, 1); ``points`` gives it as (fpr, tpr) float pairs. Built
    from its points, as pairs or as an (n, 2) array. Immutable; two curves
    are equal when their points and class counts are."""

    __slots__ = ("fpr", "tpr", "positives", "negatives")

    def __init__(self, points, positives: int, negatives: int):
        fpr, tpr = np.array(points, dtype=np.float64).reshape(-1, 2).T.copy()
        if positives < 1 or negatives < 1:
            raise MetricError("ROC curve requires both classes present")
        if len(fpr) < 2:
            raise MetricError("ROC curve needs at least two points")
        if (fpr[0], tpr[0]) != (0.0, 0.0) or (fpr[-1], tpr[-1]) != (1.0, 1.0):
            raise MetricError("ROC curve must run from (0,0) to (1,1)")
        if np.any(fpr[1:] < fpr[:-1]) or np.any(tpr[1:] < tpr[:-1]):
            raise MetricError("ROC coordinates must be non-decreasing")
        if not np.all((fpr >= 0.0) & (fpr <= 1.0) & (tpr >= 0.0) & (tpr <= 1.0)):
            raise MetricError("ROC coordinates must lie in [0, 1]")
        fpr.flags.writeable = tpr.flags.writeable = False
        for name, value in zip(self.__slots__, (fpr, tpr, positives, negatives)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"RocCurve is immutable; cannot set {name!r}")

    def _key(self):
        return self.points, self.positives, self.negatives

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, RocCurve) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"RocCurve{self._key()!r}"

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.fpr.tolist(), self.tpr.tolist()))


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise MetricError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class F1Result:
    precision: float
    recall: float
    f1: float
    counts: ConfusionCounts


def checked_arrays(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    """Scores as float64 and labels as int64; the first row that
    ``Prediction`` would reject fails with its error."""
    scores, labels = np.asarray(scores, dtype=np.float64), np.asarray(labels)
    bad = ~((scores >= 0.0) & (scores <= 1.0)) | ((labels != 0) & (labels != 1))
    if bad.any():
        i = int(np.argmax(bad))
        Prediction("", scores[i].item(), labels[i : i + 1].tolist()[0])
    return scores, labels.astype(np.int64)


def running_sum(terms: np.ndarray) -> float:
    """``total = 0.0`` then ``total += t`` for each term in order, bit for
    bit: ``np.cumsum`` adds in that order, where ``np.sum`` adds pairwise."""
    return float(np.cumsum(np.concatenate(([0.0], terms)))[-1])


def prediction_arrays(preds: Iterable[Prediction]) -> tuple[np.ndarray, np.ndarray]:
    """The scores and labels of ``Prediction`` objects."""
    preds = list(preds)
    scores = np.array([p.score for p in preds], dtype=np.float64)
    return scores, np.array([p.label for p in preds], dtype=np.int64)


def roc_from_arrays(scores: np.ndarray, labels: np.ndarray) -> RocCurve:
    """Sweep the decision threshold across distinct scores, high to low.

    Tied scores are consumed as one step, producing a diagonal segment.
    """
    pos = int(np.count_nonzero(labels))
    neg = len(labels) - pos
    if pos == 0 or neg == 0:
        raise MetricError("ROC undefined: input contains a single class")
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    last = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    tp = np.cumsum(labels[order])[last]
    fp = last + 1 - tp
    points = np.zeros((len(last) + 1, 2))
    points[1:, 0], points[1:, 1] = fp / neg, tp / pos
    return RocCurve(points, pos, neg)


def roc_curve(preds: Iterable[Prediction]) -> RocCurve:
    """``roc_from_arrays`` over ``Prediction`` objects."""
    return roc_from_arrays(*prediction_arrays(preds))


def auc_trapezoid(curve: RocCurve) -> float:
    """Trapezoidal area under the piecewise-linear ROC curve."""
    x, y = curve.fpr, curve.tpr
    return running_sum((x[1:] - x[:-1]) * (y[:-1] + y[1:]) / 2.0)


def auc_rank(preds: Iterable[Prediction]) -> float:
    """Rank-statistic AUC: (concordant + half the ties) / (P * N).

    Implemented with average ranks, so it never builds the ROC curve and
    stays an independent check on the geometric computation.
    """
    preds = list(preds)
    n = len(preds)
    pos = sum(1 for p in preds if p.label == 1)
    neg = n - pos
    if pos == 0 or neg == 0:
        raise MetricError("ROC undefined: input contains a single class")
    order = sorted(range(n), key=lambda i: preds[i].score)
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j < n and preds[order[j]].score == preds[order[i]].score:
            j += 1
        avg = (i + j + 1) / 2.0  # mean of one-based ranks i+1 .. j
        for k in range(i, j):
            ranks[order[k]] = avg
        i = j
    rank_sum = sum(ranks[k] for k in range(n) if preds[k].label == 1)
    u = rank_sum - pos * (pos + 1) / 2.0
    return u / (pos * neg)


def f1_from_arrays(scores: np.ndarray, labels: np.ndarray, threshold: float = 0.5) -> F1Result:
    """Precision, recall and F1 at a hard threshold; predicted positive iff
    score >= threshold, and any 0/0 is 0 by convention."""
    predicted = scores >= threshold
    actual = labels == 1
    tp = int(np.count_nonzero(predicted & actual))
    fp = int(np.count_nonzero(predicted)) - tp
    fn = int(np.count_nonzero(actual)) - tp
    counts = ConfusionCounts(tp=tp, fp=fp, tn=len(labels) - tp - fp - fn, fn=fn)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall > 0.0
        else 0.0
    )
    return F1Result(precision=precision, recall=recall, f1=f1, counts=counts)


def f1_at_threshold(preds: Iterable[Prediction], threshold: float = 0.5) -> F1Result:
    """``f1_from_arrays`` over ``Prediction`` objects."""
    return f1_from_arrays(*prediction_arrays(preds), threshold)
