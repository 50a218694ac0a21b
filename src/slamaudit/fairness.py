"""Between-group ROC area (ABROCA) and per-pair fairness reports.

ABROCA (Gardner, Brooks & Baker 2019) is the definite integral over FPR in
[0,1] of the absolute TPR difference between two groups' ROC curves. Both
curves are piecewise linear, so the integral is computed in closed form: the
FPR axis is cut at every breakpoint of either curve plus every point where
the two segments cross, and each piece contributes a trapezoid of
|difference|. No quadrature grid is involved, which keeps symmetry and
identity exact. The intervals are cut for the whole axis at once on arrays.

``audit_groups`` audits score, label and group-code arrays; ``group_audit``
takes ``Prediction`` objects that carry group tags.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import AuditError
from .grouping import Dimension, code_groups, group_value
from .grouping import slice_predictions  # noqa: F401  (a name stage timers wrap)
from .metrics import Prediction, RocCurve, auc_trapezoid, prediction_arrays, roc_from_arrays
from .metrics import running_sum
from .metrics import roc_curve  # noqa: F401  (a name stage timers wrap)
from .slam_format import Track

REPORT_SCHEMA_VERSION = 1

DEFAULT_MIN_GROUP_SIZE = 50


@dataclass(frozen=True)
class AbrocaResult:
    group_a: str
    group_b: str
    abroca: float
    auc_a: float
    auc_b: float
    n_a: int
    n_b: int
    curve_a: RocCurve
    curve_b: RocCurve

    def __post_init__(self):
        if not (0.0 <= self.abroca <= 1.0):
            raise AuditError(f"abroca out of range: {self.abroca!r}")
        if self.abroca < abs(self.auc_a - self.auc_b) - 1e-9:
            raise AuditError("abroca below the AUC-difference lower bound")
        if self.n_a < 1 or self.n_b < 1:
            raise AuditError("group sample counts must be positive")


@dataclass(frozen=True)
class AbrocaReport:
    track: Track
    dimension: Dimension
    model: str
    results: tuple[AbrocaResult, ...]
    skipped: tuple[tuple[str, str], ...]  # (group name, reason)
    config_hashes: tuple[tuple[str, str], ...]


def _ends(curve: RocCurve, u0: np.ndarray, u1: np.ndarray):
    """The curve at both ends of each interval [u0, u1], on the first
    non-vertical segment ending right of u0; a segment end's value is exact."""
    x, y = curve.fpr, curve.tpr
    starts = np.flatnonzero(x[1:] > x[:-1])  # non-vertical segments cover [0, 1]
    k = starts[np.searchsorted(x[starts + 1], u0, side="right")]
    x0, y0, x1, y1 = x[k], y[k], x[k + 1], y[k + 1]
    u = np.stack([u0, u1])
    inside = y0 + (y1 - y0) * (u - x0) / (x1 - x0)
    return np.where(u == x0, y0, np.where(u == x1, y1, inside))


def difference_intervals(curve_a: RocCurve, curve_b: RocCurve) -> np.ndarray:
    """Cut [0,1] where either curve bends or the curves cross.

    Returns one row (x0, x1, ya0, ya1, yb0, yb1) per interval; inside each
    interval both curves are linear and their difference does not change
    sign, so the region between them is a simple quad. Shared by the
    integral below and by plot shading.
    """
    xs = np.sort(np.concatenate([curve_a.fpr, curve_b.fpr]))  # np.union1d loads numpy.ma
    xs = xs[np.concatenate([[True], xs[1:] != xs[:-1]])]
    u0, u1 = xs[:-1], xs[1:]
    ya0, ya1 = _ends(curve_a, u0, u1)
    yb0, yb1 = _ends(curve_b, u0, u1)
    d0, d1 = ya0 - yb0, ya1 - yb1
    cross = ((d0 > 0.0) & (d1 < 0.0)) | ((d0 < 0.0) & (d1 > 0.0))
    rows = np.column_stack([u0, u1, ya0, ya1, yb0, yb1])
    out = np.repeat(rows, cross + 1, axis=0)
    if cross.any():  # split each crossing interval in two at the crossing
        u0, u1, ya0, ya1, yb0, yb1 = rows[cross].T
        t = d0[cross] / (d0[cross] - d1[cross])
        cut = np.column_stack([u0 + t * (u1 - u0), ya0 + t * (ya1 - ya0), yb0 + t * (yb1 - yb0)])
        left = (np.cumsum(cross + 1) - 2)[cross]
        out[left, 1::2] = cut
        out[left + 1, 0::2] = cut
    return out


def abroca(curve_a: RocCurve, curve_b: RocCurve) -> float:
    """Exact integral of |TPR_a - TPR_b| over FPR in [0, 1]."""
    x0, x1, ya0, ya1, yb0, yb1 = difference_intervals(curve_a, curve_b).T
    return running_sum((np.abs(ya0 - yb0) + np.abs(ya1 - yb1)) / 2.0 * (x1 - x0))


def audit_groups(
    scores: np.ndarray,
    labels: np.ndarray,
    codes: np.ndarray,
    names: Sequence[str],
    *,
    track: Track,
    dimension: Dimension,
    model: str,
    min_group_size: int = DEFAULT_MIN_GROUP_SIZE,
    config_hashes: Mapping[str, str] | None = None,
) -> AbrocaReport:
    """Pairwise ABROCA across all valid groups along one dimension.

    Row i has score ``scores[i]`` and label ``labels[i]``, and belongs to
    group ``names[codes[i]]``, or to none when its code is -1. Groups smaller
    than ``min_group_size`` or containing a single class are skipped with a
    reason rather than audited; fewer than two surviving groups is an error.
    Pairs are ordered by group name so reports are deterministic.
    """
    if len(scores) == 0:
        raise AuditError("no predictions to audit")
    curves: dict[str, RocCurve] = {}
    skipped: list[tuple[str, str]] = []
    for code, name in sorted(enumerate(names), key=lambda item: item[1]):
        member = codes == code
        n = int(np.count_nonzero(member))
        positives = int(np.count_nonzero(labels[member]))
        if n < min_group_size:
            skipped.append((name, f"{n} predictions, below the minimum of {min_group_size}"))
        elif positives in (0, n):
            skipped.append((name, "single class, ROC undefined"))
        else:
            curves[name] = roc_from_arrays(scores[member], labels[member])

    if len(curves) < 2:
        raise AuditError(
            f"fewer than two valid groups along {dimension.value} "
            f"(valid: {sorted(curves) or 'none'})"
        )

    results = []
    for a, b in combinations(sorted(curves), 2):
        ca, cb = curves[a], curves[b]
        results.append(
            AbrocaResult(
                group_a=a,
                group_b=b,
                abroca=abroca(ca, cb),
                auc_a=auc_trapezoid(ca),
                auc_b=auc_trapezoid(cb),
                n_a=ca.positives + ca.negatives,
                n_b=cb.positives + cb.negatives,
                curve_a=ca,
                curve_b=cb,
            )
        )
    return AbrocaReport(
        track=track,
        dimension=dimension,
        model=model,
        results=tuple(results),
        skipped=tuple(skipped),
        config_hashes=tuple(sorted((config_hashes or {}).items())),
    )


def group_audit(
    preds: Iterable[Prediction],
    dimension: Dimension,
    *,
    model: str,
    min_group_size: int = DEFAULT_MIN_GROUP_SIZE,
    config_hashes: Mapping[str, str] | None = None,
) -> AbrocaReport:
    """``audit_groups`` over ``Prediction`` objects that carry group tags of
    one track."""
    preds = list(preds)
    if not preds:
        raise AuditError("no predictions to audit")
    for p in preds:
        if p.group is None:
            raise AuditError(f"prediction {p.instance_id!r} carries no group tag")
    tracks = {p.group.track for p in preds}
    if len(tracks) != 1:
        names = ", ".join(sorted(t.value for t in tracks))
        raise AuditError(f"predictions span multiple tracks: {names}")
    (track,) = tracks

    codes, names = code_groups([group_value(p.group, dimension) for p in preds])
    return audit_groups(
        *prediction_arrays(preds), codes, names, track=track, dimension=dimension,
        model=model, min_group_size=min_group_size, config_hashes=config_hashes,
    )


def _curve_payload(curve: RocCurve) -> dict:
    return {
        "points": np.column_stack([curve.fpr, curve.tpr]).tolist(),
        "positives": curve.positives,
        "negatives": curve.negatives,
    }


def report_to_dict(report: AbrocaReport) -> dict:
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "track": report.track.value,
        "dimension": report.dimension.value,
        "model": report.model,
        "config_hashes": dict(report.config_hashes),
        "results": [
            {
                "group_a": r.group_a,
                "group_b": r.group_b,
                "abroca": r.abroca,
                "auc_a": r.auc_a,
                "auc_b": r.auc_b,
                "n_a": r.n_a,
                "n_b": r.n_b,
                "curve_a": _curve_payload(r.curve_a),
                "curve_b": _curve_payload(r.curve_b),
            }
            for r in report.results
        ],
        "skipped": [
            {"group": name, "reason": reason} for name, reason in report.skipped
        ],
    }


def report_to_csv(report: AbrocaReport) -> str:
    """One row per group pair, flat layout for spreadsheet import."""
    lines = ["group_1,group_2,track,model,abroca"]
    for r in report.results:
        lines.append(
            f"{r.group_a},{r.group_b},{report.track.value},{report.model},{r.abroca!r}"
        )
    return "\n".join(lines) + "\n"
