import random

import pytest

from slamaudit.errors import MetricError
from slamaudit.metrics import (
    ConfusionCounts,
    Prediction,
    RocCurve,
    auc_rank,
    auc_trapezoid,
    f1_at_threshold,
    roc_curve,
)

from oracles import confusion_counts, curve_to_csv, oracle_auc_pairs, oracle_roc_points


def preds(scores, labels):
    return [
        Prediction(instance_id=f"p{i:04d}", score=s, label=y)
        for i, (s, y) in enumerate(zip(scores, labels))
    ]


def random_case(rng, n_max=30, grid=64):
    """Random scores on a coarse binary-fraction grid (exact float arithmetic)."""
    n = rng.randint(2, n_max)
    scores = [rng.randrange(grid + 1) / grid for _ in range(n)]
    labels = [rng.randint(0, 1) for _ in range(n)]
    # force both classes
    labels[0], labels[-1] = 1, 0
    return scores, labels


class TestPrediction:
    def test_score_out_of_range_rejected(self):
        with pytest.raises(MetricError, match=r"\[0, 1\]"):
            Prediction(instance_id="a", score=1.5, label=0)

    def test_nan_score_rejected(self):
        with pytest.raises(MetricError):
            Prediction(instance_id="a", score=float("nan"), label=0)

    def test_bad_label_rejected(self):
        with pytest.raises(MetricError, match="label"):
            Prediction(instance_id="a", score=0.5, label=2)


class TestRocCurve:
    def test_perfect_separation(self):
        curve = roc_curve(preds([0.9, 0.1], [1, 0]))
        assert curve.points == ((0.0, 0.0), (0.0, 1.0), (1.0, 1.0))

    def test_all_scores_tied_single_diagonal_step(self):
        curve = roc_curve(preds([0.5, 0.5], [1, 0]))
        assert curve.points == ((0.0, 0.0), (1.0, 1.0))

    def test_single_class_rejected(self):
        with pytest.raises(MetricError, match="single class"):
            roc_curve(preds([0.2, 0.7], [1, 1]))

    def test_counts_recorded(self):
        curve = roc_curve(preds([0.9, 0.4, 0.1], [1, 0, 0]))
        assert (curve.positives, curve.negatives) == (1, 2)

    def test_matches_exhaustive_threshold_oracle(self):
        rng = random.Random(1001)
        for _ in range(1000):
            scores, labels = random_case(rng, n_max=12)
            curve = roc_curve(preds(scores, labels))
            assert list(curve.points) == oracle_roc_points(scores, labels)

    def test_invariants_enforced_by_type(self):
        with pytest.raises(MetricError, match=r"\(0,0\) to \(1,1\)"):
            RocCurve(points=((0.0, 0.1), (1.0, 1.0)), positives=1, negatives=1)
        with pytest.raises(MetricError, match="non-decreasing"):
            RocCurve(
                points=((0.0, 0.0), (0.5, 0.8), (0.4, 0.9), (1.0, 1.0)),
                positives=1,
                negatives=1,
            )


class TestAuc:
    def test_perfect_auc(self):
        p = preds([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert auc_trapezoid(roc_curve(p)) == 1.0
        assert auc_rank(p) == 1.0

    def test_all_tied_auc_half(self):
        p = preds([0.3, 0.3, 0.3], [1, 0, 1])
        assert auc_trapezoid(roc_curve(p)) == 0.5
        assert auc_rank(p) == 0.5

    def test_four_instance_example_three_quarters(self):
        p = preds([0.9, 0.2, 0.8, 0.3], [1, 0, 0, 1])
        assert auc_trapezoid(roc_curve(p)) == 0.75
        assert auc_rank(p) == 0.75

    def test_rank_matches_pair_counting_oracle(self):
        rng = random.Random(1002)
        for _ in range(500):
            scores, labels = random_case(rng, n_max=40)
            assert auc_rank(preds(scores, labels)) == pytest.approx(
                oracle_auc_pairs(scores, labels), abs=1e-12
            )

    def test_trapezoid_agrees_with_rank(self):
        rng = random.Random(1003)
        for _ in range(500):
            scores, labels = random_case(rng, n_max=80)
            p = preds(scores, labels)
            assert abs(auc_trapezoid(roc_curve(p)) - auc_rank(p)) < 1e-9

    def test_single_class_rejected(self):
        with pytest.raises(MetricError, match="single class"):
            auc_rank(preds([0.2, 0.7], [0, 0]))


class TestMonotoneInvariance:
    def test_affine_and_square_transforms_preserve_curve_and_auc(self):
        rng = random.Random(1004)
        transforms = [lambda s: 0.25 + 0.5 * s, lambda s: s * s]
        for _ in range(200):
            scores, labels = random_case(rng)
            base = roc_curve(preds(scores, labels))
            base_auc = auc_rank(preds(scores, labels))
            for f in transforms:
                moved = [f(s) for s in scores]
                assert roc_curve(preds(moved, labels)).points == base.points
                assert auc_rank(preds(moved, labels)) == base_auc

    def test_transform_preserves_confusion_count_set(self):
        rng = random.Random(1005)
        for _ in range(100):
            scores, labels = random_case(rng)
            f = lambda s: s * s
            base = {
                confusion_counts(preds(scores, labels), t)
                for t in set(scores) | {0.0, 2.0}
            }
            moved = {
                confusion_counts(preds([f(s) for s in scores], labels), f(t))
                for t in set(scores)
            } | {
                confusion_counts(preds([f(s) for s in scores], labels), t)
                for t in (0.0, 2.0)
            }
            assert moved == base


class TestComplement:
    def test_label_flip_complements_auc(self):
        rng = random.Random(1006)
        for _ in range(200):
            scores, labels = random_case(rng)
            a = auc_rank(preds(scores, labels))
            b = auc_rank(preds(scores, [1 - y for y in labels]))
            assert a + b == pytest.approx(1.0, abs=1e-12)

    def test_label_flip_plus_score_reversal_preserves_auc(self):
        rng = random.Random(1007)
        for _ in range(200):
            scores, labels = random_case(rng)
            a = auc_rank(preds(scores, labels))
            b = auc_rank(
                preds([1.0 - s for s in scores], [1 - y for y in labels])
            )
            assert a == pytest.approx(b, abs=1e-12)


class TestF1:
    def test_all_correct_is_one(self):
        result = f1_at_threshold(preds([0.9, 0.8, 0.1], [1, 1, 0]), 0.5)
        assert result.f1 == 1.0

    def test_worked_example(self):
        result = f1_at_threshold(preds([0.9, 0.9, 0.1, 0.9], [1, 0, 0, 1]), 0.5)
        assert result.counts == ConfusionCounts(tp=2, fp=1, tn=1, fn=0)
        assert result.precision == pytest.approx(2 / 3, abs=1e-15)
        assert result.recall == 1.0
        assert result.f1 == pytest.approx(0.8, abs=1e-12)

    def test_no_predicted_positives_is_zero(self):
        result = f1_at_threshold(preds([0.1, 0.2], [1, 0]), 0.5)
        assert result.precision == 0.0
        assert result.recall == 0.0
        assert result.f1 == 0.0

    def test_threshold_is_inclusive(self):
        result = f1_at_threshold(preds([0.5, 0.4], [1, 0]), 0.5)
        assert result.counts.tp == 1
        assert result.counts.fp == 0

    def test_default_threshold_is_half(self):
        p = preds([0.6, 0.4], [1, 0])
        assert f1_at_threshold(p) == f1_at_threshold(p, 0.5)

    def test_counts_sum_to_total(self):
        rng = random.Random(1008)
        for _ in range(100):
            scores, labels = random_case(rng)
            counts = confusion_counts(preds(scores, labels), rng.random())
            assert counts.total == len(scores)


class TestCsvExport:
    def test_round_trip_floats(self):
        curve = roc_curve(preds([0.9, 0.7, 0.7, 0.1], [1, 1, 0, 0]))
        text = curve_to_csv(curve)
        lines = text.strip().splitlines()
        assert lines[0] == "fpr,tpr"
        parsed = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        assert tuple(parsed) == curve.points
