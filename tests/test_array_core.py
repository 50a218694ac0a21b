"""The array metrics and ABROCA against the loops they replaced.

``oracles.py`` keeps the object-by-object versions: the sorted ROC sweep,
the left-to-right trapezoid and ABROCA sums, the interval walk and the
confusion loop. The array versions must equal them bit for bit. Scores are
drawn from a small set, so ties (and so diagonal steps, vertical jumps and
shared breakpoints between two groups' curves) are common.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import slamaudit.fairness as fairness
from slamaudit.errors import AuditError, MetricError
from slamaudit.fairness import abroca, audit_groups, difference_intervals, group_audit
from slamaudit.grouping import Development, Dimension, GroupTag
from slamaudit.metrics import (
    Prediction,
    RocCurve,
    auc_trapezoid,
    checked_arrays,
    f1_from_arrays,
    roc_from_arrays,
)
from slamaudit.slam_format import Client, Track

from oracles import (
    loop_abroca,
    loop_auc_trapezoid,
    loop_confusion,
    loop_difference_intervals,
    loop_roc_points,
    oracle_roc_points,
)

EXACT = settings(max_examples=200, deadline=None, derandomize=True)
SCORES = st.sampled_from([0.0, 0.1, 0.125, 0.2, 1 / 3, 0.5, 0.7, 0.9, 1.0])


@st.composite
def scored(draw, min_size=2, max_size=40):
    """Scores and labels, with both classes present from two rows on."""
    n = draw(st.integers(min_size, max_size))
    scores = draw(st.lists(SCORES, min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if n >= 2:
        labels[0], labels[-1] = 0, 1
    return scores, labels


def curve_of(scores, labels):
    return roc_from_arrays(np.array(scores, dtype=np.float64), np.array(labels))


class TestRoc:
    @EXACT
    @given(scored())
    def test_points_equal_both_oracles(self, case):
        scores, labels = case
        points = list(curve_of(scores, labels).points)
        assert points == oracle_roc_points(scores, labels)
        assert points == loop_roc_points(scores, labels)

    @EXACT
    @given(scored())
    def test_trapezoid_auc_bit_for_bit(self, case):
        curve = curve_of(*case)
        assert auc_trapezoid(curve) == loop_auc_trapezoid(curve.points)

    def test_single_class_message(self):
        with pytest.raises(MetricError, match="ROC undefined: input contains a single class"):
            roc_from_arrays(np.array([0.2, 0.4]), np.array([1, 1]))

    def test_arrays_read_only(self):
        curve = curve_of([0.9, 0.1], [1, 0])
        with pytest.raises(ValueError):
            curve.fpr[0] = 0.5
        with pytest.raises(AttributeError):
            curve.positives = 2

    def test_curves_compare_and_hash_by_value(self):
        a, b = curve_of([0.9, 0.1], [1, 0]), RocCurve([(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)], 1, 1)
        assert a == b and hash(a) == hash(b) and a is not b
        assert a != RocCurve(a.points, 1, 2)
        assert a != curve_of([0.1, 0.9], [1, 0])


class TestAbroca:
    @EXACT
    @given(scored(), scored())
    def test_intervals_and_area_bit_for_bit(self, a, b):
        ca, cb = curve_of(*a), curve_of(*b)
        intervals = difference_intervals(ca, cb)
        assert [tuple(row) for row in intervals.tolist()] == loop_difference_intervals(
            ca.points, cb.points
        )
        assert abroca(ca, cb) == loop_abroca(ca.points, cb.points)

    @EXACT
    @given(scored())
    def test_identical_curves_exactly_zero(self, case):
        curve = curve_of(*case)
        copy = curve_of(*case)
        assert abroca(curve, curve) == 0.0
        assert abroca(curve, copy) == 0.0

    @pytest.mark.parametrize(
        "points_a, points_b",
        [
            # the curves cross on a breakpoint, so no interval is split
            (((0.0, 0.0), (0.2, 0.8), (0.6, 0.9), (1.0, 1.0)),
             ((0.0, 0.0), (0.5, 0.4), (0.8, 0.95), (1.0, 1.0))),
            # shared breakpoints and a crossing inside an interval
            (((0.0, 0.0), (0.25, 0.5), (0.5, 0.5), (1.0, 1.0)),
             ((0.0, 0.0), (0.25, 0.25), (0.5, 0.75), (1.0, 1.0))),
            # vertical jumps at 0 and mid-axis against the diagonal
            (((0.0, 0.0), (0.0, 0.6), (0.4, 0.6), (0.4, 0.9), (1.0, 1.0)),
             ((0.0, 0.0), (1.0, 1.0))),
            # a crossing inside an interval, no breakpoint shared
            (((0.0, 0.0), (0.3, 0.6), (0.7, 0.65), (1.0, 1.0)),
             ((0.0, 0.0), (0.1, 0.1), (0.5, 0.9), (1.0, 1.0))),
        ],
    )
    def test_hand_built_pairs(self, points_a, points_b):
        ca, cb = RocCurve(points_a, 1, 1), RocCurve(points_b, 1, 1)
        assert [tuple(r) for r in difference_intervals(ca, cb).tolist()] == (
            loop_difference_intervals(points_a, points_b)
        )
        assert abroca(ca, cb) == loop_abroca(points_a, points_b)
        assert abroca(ca, cb) == abroca(cb, ca)


class TestF1:
    @EXACT
    @given(scored(min_size=0), SCORES)
    def test_counts_equal_the_confusion_loop(self, case, threshold):
        scores, labels = case
        result = f1_from_arrays(np.array(scores, dtype=np.float64), np.array(labels), threshold)
        c = result.counts
        assert (c.tp, c.fp, c.tn, c.fn) == loop_confusion(scores, labels, threshold)


class TestCheckedArrays:
    BAD_SCORES = st.sampled_from([-0.5, 1.5, float("nan"), float("inf"), -float("inf")])
    BAD_LABELS = st.sampled_from([2, -1, 7])

    @EXACT
    @given(scored(min_size=1), st.data())
    def test_first_bad_row_fails_as_prediction_does(self, case, data):
        scores, labels = case
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, len(scores) - 1))
            if data.draw(st.booleans()):
                scores[i] = data.draw(self.BAD_SCORES)
            else:
                labels[i] = data.draw(self.BAD_LABELS)
        with pytest.raises(MetricError) as want:
            for s, y in zip(scores, labels):
                Prediction("x", s, y)
        with pytest.raises(MetricError) as got:
            checked_arrays(np.array(scores, dtype=np.float64), np.array(labels))
        assert str(got.value) == str(want.value)

    def test_unlabeled_row_message(self):
        with pytest.raises(MetricError, match=r"^label must be 0 or 1, got None$"):
            checked_arrays(np.array([0.5, 0.5]), [1, None])

    def test_good_arrays_pass_through(self):
        scores, labels = checked_arrays([0.0, 1.0], [True, 0])
        assert scores.dtype == np.float64 and labels.tolist() == [1, 0]


class TestGroupAudit:
    @EXACT
    @given(
        st.lists(st.tuples(SCORES, st.integers(0, 1), st.sampled_from(list(Development))),
                 min_size=1, max_size=80),
        st.integers(1, 12),
    )
    def test_adapter_equals_the_per_group_loops(self, rows, min_group_size):
        """``group_audit`` over tagged objects against loops over its groups."""
        preds = [
            Prediction(f"p{i}", s, y, GroupTag(Client.WEB, dev, Track.EN_ES))
            for i, (s, y, dev) in enumerate(rows)
        ]
        groups = {}
        for s, y, dev in rows:
            if dev is not Development.UNKNOWN:
                groups.setdefault(dev.value, []).append((s, y))
        valid = {
            g: m for g, m in groups.items()
            if len(m) >= min_group_size and len({y for _, y in m}) == 2
        }
        if len(valid) < 2:
            with pytest.raises(AuditError, match="fewer than two valid groups"):
                group_audit(preds, Dimension.DEVELOPMENT, model="m", min_group_size=min_group_size)
            return
        report = group_audit(preds, Dimension.DEVELOPMENT, model="m",
                             min_group_size=min_group_size)
        (r,) = report.results
        pa = loop_roc_points(*zip(*valid["developed"]))
        pb = loop_roc_points(*zip(*valid["developing"]))
        assert (r.n_a, r.n_b) == (len(valid["developed"]), len(valid["developing"]))
        assert (r.auc_a, r.auc_b) == (loop_auc_trapezoid(pa), loop_auc_trapezoid(pb))
        assert r.abroca == loop_abroca(pa, pb)
        assert report.skipped == ()
        assert report == group_audit(preds, Dimension.DEVELOPMENT, model="m",
                                     min_group_size=min_group_size)

    def test_no_rows_and_rows_in_no_group(self):
        empty = np.array([], dtype=np.float64)
        with pytest.raises(AuditError, match="no predictions to audit"):
            audit_groups(empty, empty, empty, (), track=Track.EN_ES,
                         dimension=Dimension.DEVELOPMENT, model="m")
        none_valid = r"fewer than two valid groups along development \(valid: none\)"
        with pytest.raises(AuditError, match=none_valid):
            audit_groups(np.array([0.5]), np.array([1]), np.array([-1]), (), track=Track.EN_ES,
                         dimension=Dimension.DEVELOPMENT, model="m")


class TestGroupRecords:
    @EXACT
    @given(
        st.lists(st.tuples(SCORES, st.integers(0, 1), st.integers(-1, 3)), min_size=24,
                 max_size=120),
        st.integers(1, 10),
        st.floats(0.0, 1.0),
        st.permutations(["web", "android", "ios", "unknown"]),
    )
    def test_each_audited_group_is_computed_once_as_the_loops_do(
        self, rows, min_group_size, threshold, names
    ):
        """``report.groups`` holds one record per audited group, in name
        order: its size, ROC curve, AUC and F1 equal the loops over its rows,
        each group's AUC is computed once, and every pair takes its sizes,
        AUCs and curves from the records."""
        scores, labels, codes = (np.array(column) for column in zip(*rows))
        members = {name: [(s, y) for s, y, c in rows if c == code]
                   for code, name in enumerate(names)}
        valid = sorted(name for name, m in members.items()
                       if len(m) >= min_group_size and len({y for _, y in m}) == 2)
        aucs = []

        def counted(curve):
            aucs.append(curve)
            return auc_trapezoid(curve)

        def audit():
            return audit_groups(scores, labels, codes, names, track=Track.EN_ES,
                                dimension=Dimension.CLIENT, model="m",
                                min_group_size=min_group_size, threshold=threshold)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fairness, "auc_trapezoid", counted)
            if len(valid) < 2:
                with pytest.raises(AuditError, match="fewer than two valid groups"):
                    audit()
                return
            report = audit()
        assert [g.name for g in report.groups] == valid
        assert len(aucs) == len(valid)
        assert [name for name, _ in report.skipped] == sorted(set(names) - set(valid))
        for g in report.groups:
            s, y = zip(*members[g.name])
            points = loop_roc_points(s, y)
            assert g.n == len(s)
            assert g.curve.points == tuple(points)
            assert g.auc == loop_auc_trapezoid(points)
            tp, fp, tn, fn = loop_confusion(s, y, threshold)
            counts = g.f1.counts
            assert (counts.tp, counts.fp, counts.tn, counts.fn) == (tp, fp, tn, fn)
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
            assert (g.f1.precision, g.f1.recall, g.f1.f1) == (precision, recall, f1)
        assert [(r.group_a, r.group_b) for r in report.results] == list(combinations(valid, 2))
        by_name = {g.name: g for g in report.groups}
        for r in report.results:
            a, b = by_name[r.group_a], by_name[r.group_b]
            assert (r.n_a, r.auc_a, r.curve_a) == (a.n, a.auc, a.curve)
            assert (r.n_b, r.auc_b, r.curve_b) == (b.n, b.auc, b.curve)
