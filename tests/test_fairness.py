import json
import random

import pytest

from slamaudit.errors import AuditError, MetricError
from slamaudit.fairness import (
    AbrocaResult,
    abroca,
    difference_intervals,
    group_audit,
    report_to_csv,
    report_to_dict,
)
from slamaudit.grouping import Development, Dimension, GroupTag
from slamaudit.metrics import Prediction, RocCurve, auc_trapezoid, roc_curve
from slamaudit.slam_format import Client, Track

from oracles import interpolate_tpr, oracle_curve_area_between, oracle_interp, report_to_json


def preds(scores, labels, group=None):
    return [
        Prediction(instance_id=f"p{i:04d}", score=s, label=y, group=group)
        for i, (s, y) in enumerate(zip(scores, labels))
    ]


def random_curve(rng, n_max=40, grid=32):
    n = rng.randint(2, n_max)
    scores = [rng.randrange(grid + 1) / grid for _ in range(n)]
    labels = [rng.randint(0, 1) for _ in range(n)]
    labels[0], labels[-1] = 1, 0
    return roc_curve(preds(scores, labels))


PERFECT = RocCurve(points=((0.0, 0.0), (0.0, 1.0), (1.0, 1.0)), positives=1, negatives=1)
DIAGONAL = RocCurve(points=((0.0, 0.0), (1.0, 1.0)), positives=1, negatives=1)


def tag(client, dev=Development.DEVELOPED, track=Track.EN_ES):
    return GroupTag(client=client, development=dev, track=track)


class TestInterpolateTpr:
    def test_diagonal(self):
        assert interpolate_tpr(DIAGONAL, [0.0, 0.5, 1.0]) == [0.0, 0.5, 1.0]

    def test_perfect_curve_interior(self):
        assert interpolate_tpr(PERFECT, [0.25]) == [1.0]

    def test_supremum_at_jump(self):
        # vertical jump at fpr=0; the top of the jump wins
        assert interpolate_tpr(PERFECT, [0.0]) == [1.0]

    def test_matches_segment_scan_oracle(self):
        rng = random.Random(2001)
        for _ in range(50):
            curve = random_curve(rng)
            grid = sorted(rng.random() for _ in range(200))
            grid = [0.0] + grid + [1.0]
            got = interpolate_tpr(curve, grid)
            want = [oracle_interp(curve.points, x) for x in grid]
            assert max(abs(g - w) for g, w in zip(got, want)) < 1e-9

    def test_unsorted_grid_rejected(self):
        with pytest.raises(MetricError, match="ascending"):
            interpolate_tpr(DIAGONAL, [0.5, 0.2])

    def test_out_of_range_grid_rejected(self):
        with pytest.raises(MetricError, match=r"\[0, 1\]"):
            interpolate_tpr(DIAGONAL, [1.5])


class TestAbroca:
    def test_identical_curves_exactly_zero(self):
        rng = random.Random(2002)
        for _ in range(20):
            curve = random_curve(rng)
            assert abroca(curve, curve) == 0.0

    def test_perfect_vs_diagonal_half(self):
        assert abs(abroca(PERFECT, DIAGONAL) - 0.5) < 1e-12

    def test_symmetry_is_bitwise(self):
        rng = random.Random(2003)
        for _ in range(50):
            a, b = random_curve(rng), random_curve(rng)
            assert abroca(a, b) == abroca(b, a)

    def test_lower_bound_and_range(self):
        rng = random.Random(2004)
        for _ in range(100):
            a, b = random_curve(rng), random_curve(rng)
            value = abroca(a, b)
            assert 0.0 <= value <= 1.0
            assert value >= abs(auc_trapezoid(a) - auc_trapezoid(b)) - 1e-9

    def test_crossing_three_segment_curves_vs_dense_grid(self):
        # two curves built to cross mid-plot
        a = RocCurve(
            points=((0.0, 0.0), (0.2, 0.8), (0.6, 0.9), (1.0, 1.0)),
            positives=10,
            negatives=10,
        )
        b = RocCurve(
            points=((0.0, 0.0), (0.5, 0.4), (0.8, 0.95), (1.0, 1.0)),
            positives=10,
            negatives=10,
        )
        exact = abroca(a, b)
        grid = oracle_curve_area_between(a.points, b.points, step=1e-6)
        assert abs(exact - grid) < 1e-6

    def test_random_pairs_match_dense_grid(self):
        rng = random.Random(2005)
        for _ in range(30):
            a, b = random_curve(rng), random_curve(rng)
            exact = abroca(a, b)
            grid = oracle_curve_area_between(a.points, b.points, step=1e-6)
            assert abs(exact - grid) < 1e-6

    def test_intervals_partition_unit_range(self):
        rng = random.Random(2006)
        for _ in range(20):
            a, b = random_curve(rng), random_curve(rng)
            intervals = difference_intervals(a, b)
            assert intervals[0][0] == 0.0
            assert intervals[-1][1] == 1.0
            for left, right in zip(intervals, intervals[1:]):
                assert left[1] == right[0]


class TestAbrocaResultInvariants:
    def test_out_of_range_rejected(self):
        with pytest.raises(AuditError, match="out of range"):
            AbrocaResult(
                group_a="a", group_b="b", abroca=1.5, auc_a=0.5, auc_b=0.5,
                n_a=10, n_b=10, curve_a=DIAGONAL, curve_b=DIAGONAL,
            )

    def test_lower_bound_enforced(self):
        with pytest.raises(AuditError, match="lower bound"):
            AbrocaResult(
                group_a="a", group_b="b", abroca=0.1, auc_a=1.0, auc_b=0.5,
                n_a=10, n_b=10, curve_a=PERFECT, curve_b=DIAGONAL,
            )


def client_predictions(rng, sizes, track=Track.EN_ES, skew=None):
    """Synthetic tagged predictions; ``skew`` shifts one client's score-label link."""
    out = []
    for client, n in sizes.items():
        g = tag(client, track=track)
        for i in range(n):
            y = rng.randint(0, 1)
            noise = (skew or {}).get(client, 0.3)
            s = min(1.0, max(0.0, y * (1 - noise) + rng.random() * noise))
            out.append(
                Prediction(
                    instance_id=f"{client.value}{i:05d}", score=s, label=y, group=g
                )
            )
    return out


class TestGroupAudit:
    def test_three_clients_three_sorted_pairs(self):
        rng = random.Random(2007)
        report = group_audit(
            client_predictions(
                rng, {Client.ANDROID: 80, Client.IOS: 80, Client.WEB: 80}
            ),
            Dimension.CLIENT,
            model="gbdt",
        )
        pairs = [(r.group_a, r.group_b) for r in report.results]
        assert pairs == [("android", "ios"), ("android", "web"), ("ios", "web")]
        assert report.skipped == ()

    def test_identical_group_multisets_zero_abroca(self):
        rng = random.Random(2008)
        base = [(rng.randrange(33) / 32, rng.randint(0, 1)) for _ in range(60)]
        base[0] = (base[0][0], 1)
        base[1] = (base[1][0], 0)
        out = []
        for client in (Client.IOS, Client.WEB):
            for i, (s, y) in enumerate(base):
                out.append(
                    Prediction(
                        instance_id=f"{client.value}{i}", score=s, label=y,
                        group=tag(client),
                    )
                )
        report = group_audit(out, Dimension.CLIENT, model="gbdt")
        assert report.results[0].abroca == 0.0

    def test_small_group_skipped_with_reason(self):
        rng = random.Random(2009)
        p = client_predictions(rng, {Client.ANDROID: 80, Client.IOS: 80, Client.WEB: 10})
        report = group_audit(p, Dimension.CLIENT, model="gbdt")
        assert [(r.group_a, r.group_b) for r in report.results] == [("android", "ios")]
        assert report.skipped == (("web", "10 predictions, below the minimum of 50"),)

    def test_single_class_group_skipped(self):
        rng = random.Random(2010)
        p = client_predictions(rng, {Client.ANDROID: 80, Client.IOS: 80})
        p += [
            Prediction(instance_id=f"w{i}", score=0.5, label=1, group=tag(Client.WEB))
            for i in range(60)
        ]
        report = group_audit(p, Dimension.CLIENT, model="gbdt")
        assert ("web", "single class, ROC undefined") in report.skipped

    def test_fewer_than_two_valid_groups_error(self):
        rng = random.Random(2011)
        p = client_predictions(rng, {Client.ANDROID: 80, Client.IOS: 10})
        with pytest.raises(AuditError, match="fewer than two valid groups"):
            group_audit(p, Dimension.CLIENT, model="gbdt")

    def test_untagged_prediction_rejected(self):
        p = preds([0.5, 0.6], [1, 0])
        with pytest.raises(AuditError, match="no group tag"):
            group_audit(p, Dimension.CLIENT, model="gbdt")

    def test_mixed_tracks_rejected(self):
        rng = random.Random(2012)
        p = client_predictions(rng, {Client.ANDROID: 60}, track=Track.EN_ES)
        p += client_predictions(rng, {Client.IOS: 60}, track=Track.FR_EN)
        with pytest.raises(AuditError, match="multiple tracks"):
            group_audit(p, Dimension.CLIENT, model="gbdt")

    def test_unknown_development_excluded(self):
        rng = random.Random(2013)
        out = []
        for dev, n in [
            (Development.DEVELOPED, 70),
            (Development.DEVELOPING, 70),
            (Development.UNKNOWN, 70),
        ]:
            for i in range(n):
                y = rng.randint(0, 1)
                s = min(1.0, max(0.0, y * 0.7 + rng.random() * 0.3))
                out.append(
                    Prediction(
                        instance_id=f"{dev.value}{i}", score=s, label=y,
                        group=tag(Client.WEB, dev=dev),
                    )
                )
        # force both classes in the audited groups
        report = group_audit(out, Dimension.DEVELOPMENT, model="multitask")
        assert [(r.group_a, r.group_b) for r in report.results] == [
            ("developed", "developing")
        ]

    def test_min_group_size_configurable(self):
        rng = random.Random(2014)
        p = client_predictions(rng, {Client.ANDROID: 30, Client.IOS: 30})
        report = group_audit(p, Dimension.CLIENT, model="gbdt", min_group_size=20)
        assert len(report.results) == 1


class TestReportExport:
    def make_report(self):
        rng = random.Random(2015)
        return group_audit(
            client_predictions(
                rng, {Client.ANDROID: 80, Client.IOS: 80, Client.WEB: 80}
            ),
            Dimension.CLIENT,
            model="gbdt",
            config_hashes={"model_config": "abc123", "country_mapping": "def456"},
        )

    def test_json_is_deterministic_and_versioned(self):
        a, b = self.make_report(), self.make_report()
        ja, jb = report_to_json(a), report_to_json(b)
        assert ja == jb
        payload = json.loads(ja)
        assert payload["schema_version"] == 1
        assert payload["config_hashes"]["model_config"] == "abc123"
        assert len(payload["results"]) == 3

    def test_json_round_trips_floats(self):
        report = self.make_report()
        payload = json.loads(report_to_json(report))
        for row, result in zip(payload["results"], report.results):
            assert row["abroca"] == result.abroca
            assert row["auc_a"] == result.auc_a

    def test_csv_layout(self):
        report = self.make_report()
        lines = report_to_csv(report).strip().splitlines()
        assert lines[0] == "group_1,group_2,track,model,abroca"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[:4] == ["android", "ios", "en_es", "gbdt"]
        assert float(first[4]) == report.results[0].abroca

    def test_report_dict_lists_skipped(self):
        rng = random.Random(2016)
        p = client_predictions(rng, {Client.ANDROID: 80, Client.IOS: 80, Client.WEB: 5})
        d = report_to_dict(group_audit(p, Dimension.CLIENT, model="gbdt"))
        assert d["skipped"] == [
            {"group": "web", "reason": "5 predictions, below the minimum of 50"}
        ]
