import json
import math
import random

import numpy as np
import pytest

import slamaudit.gbdt as gbdt_mod
from slamaudit.errors import DataError, TrainingError
from slamaudit.features import (
    NAMESPACES,
    NUMERIC_FEATURES,
    build_vocab,
    encode,
    labels_array,
    to_dense,
)
from slamaudit.gbdt import (
    GbdtConfig,
    GbdtModel,
    SplitCandidate,
    Tree,
    best_split,
    load_model,
    predict_gbdt,
    predict_scores,
    save_model,
    train_gbdt,
)
from slamaudit.numerics import log_loss_from_raw, sigmoid
from slamaudit.slam_format import (
    Client,
    Dataset,
    ExerciseFormat,
    ExerciseMeta,
    Session,
    Split,
    TokenInstance,
    Track,
    read_dataset,
)

from gen_slam import random_dataset
from oracles import oracle_best_split, oracle_split_candidates, oracle_train_raw


def make_dataset(rows, track=Track.EN_ES):
    """rows: list of (token, label); all other fields held constant."""
    meta = ExerciseMeta(
        user_id="u1",
        countries=("US",),
        days=1.0,
        client=Client.WEB,
        session=Session.LESSON,
        format=ExerciseFormat.REVERSE_TRANSLATE,
        time=5,
        prompt=None,
        extras=(),
    )
    instances = tuple(
        TokenInstance(
            instance_id=f"ex{i:06d}01",
            token=token,
            part_of_speech="NOUN",
            morph_features=("Number=Sing",),
            dep_label="nsubj",
            dep_head=0,
            label=label,
            meta=meta,
            track=track,
        )
        for i, (token, label) in enumerate(rows)
    )
    return Dataset(track=track, instances=instances, split=Split.TRAIN)


def separable_dataset(rng, n=200):
    """Label fully determined by which token group the instance uses."""
    rows = []
    for _ in range(n):
        if rng.random() < 0.5:
            rows.append((rng.choice(["alpha", "beta"]), 1))
        else:
            rows.append((rng.choice(["gamma", "delta"]), 0))
    return make_dataset(rows)


class TestConfig:
    def test_defaults(self):
        cfg = GbdtConfig()
        assert (cfg.n_trees, cfg.max_depth, cfg.learning_rate) == (100, 6, 0.1)
        assert (cfg.min_samples_leaf, cfg.l2_leaf_reg) == (20, 1.0)

    def test_zero_trees_rejected(self):
        with pytest.raises(TrainingError, match="n_trees"):
            GbdtConfig(n_trees=0)

    def test_bad_depth_rejected(self):
        with pytest.raises(TrainingError, match="max_depth"):
            GbdtConfig(max_depth=0)

    def test_learning_rate_bounds(self):
        GbdtConfig(learning_rate=0.0)  # allowed: no-op updates
        GbdtConfig(learning_rate=1.0)
        with pytest.raises(TrainingError, match="learning_rate"):
            GbdtConfig(learning_rate=1.5)


class TestBestSplit:
    def test_hand_computed_gain_of_four(self):
        # gradients split cleanly, unit hessians, no regularization:
        # GL^2/HL + GR^2/HR - G^2/H = 4/2 + 4/2 - 0/4 = 4
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        g = np.array([-1.0, -1.0, 1.0, 1.0])
        h = np.ones(4)
        cand = best_split(
            X, 0, g, h, GbdtConfig(min_samples_leaf=1, l2_leaf_reg=0.0)
        )
        assert cand == SplitCandidate(feature=0, threshold=0.5, gain=4.0)

    def test_constant_feature_no_split(self):
        X = np.full((6, 1), 3.25)
        g = np.array([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
        h = np.ones(6)
        assert best_split(X, 0, g, h, GbdtConfig(min_samples_leaf=1)) is None

    def test_min_samples_leaf_blocks_split(self):
        X = np.array([[0.0], [0.0], [0.0], [1.0]])
        g = np.array([-1.0, -1.0, -1.0, 1.0])
        h = np.ones(4)
        assert best_split(X, 0, g, h, GbdtConfig(min_samples_leaf=2)) is None

    def test_no_positive_gain_no_split(self):
        # identical gradient mix on both sides: gain exactly 0
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        g = np.array([-1.0, 1.0, -1.0, 1.0])
        h = np.ones(4)
        assert best_split(X, 0, g, h, GbdtConfig(min_samples_leaf=1)) is None


class TestNewtonFixture:
    """4 instances, one separating binary feature, lambda=1, depth 1.

    Hand computation: base = log(2/2) = 0, p = 1/2, g = p-y = (-.5,-.5,.5,.5),
    h = 1/4. The token indicator splits labels perfectly; each side has
    |G| = 1, H = 1/2, so leaf values are -G/(H+1) = +-2/3 and a positive
    instance scores sigmoid(lr * 2/3).
    """

    def fixture(self, lr=0.1):
        ds = make_dataset([("aa", 1), ("aa", 1), ("bb", 0), ("bb", 0)])
        vocab = build_vocab(ds)
        cfg = GbdtConfig(
            n_trees=1, max_depth=1, learning_rate=lr, min_samples_leaf=1,
            l2_leaf_reg=1.0,
        )
        return ds, vocab, train_gbdt(ds, vocab, cfg)

    def test_round_one_leaf_values(self):
        _, _, model = self.fixture()
        tree = model.trees[0]
        assert tree.depth() == 1
        leaves = sorted(
            tree.value[i] for i in range(len(tree.feature)) if tree.feature[i] < 0
        )
        assert leaves == pytest.approx([-2 / 3, 2 / 3], abs=1e-15)

    def test_prediction_matches_hand_newton_step(self):
        ds, _, model = self.fixture(lr=0.1)
        p_pos = predict_gbdt(model, ds.instances[0])
        p_neg = predict_gbdt(model, ds.instances[2])
        assert p_pos == pytest.approx(float(sigmoid(0.1 * 2 / 3)), abs=1e-15)
        assert p_neg == pytest.approx(float(sigmoid(-0.1 * 2 / 3)), abs=1e-15)

    def test_base_score_is_train_log_odds(self):
        ds = make_dataset([("aa", 1), ("aa", 1), ("aa", 1), ("bb", 0)])
        vocab = build_vocab(ds)
        model = train_gbdt(
            ds, vocab, GbdtConfig(n_trees=1, max_depth=1, min_samples_leaf=1)
        )
        assert model.base_score == pytest.approx(math.log(3.0), abs=1e-15)


class TestTraining:
    def test_single_class_rejected(self):
        ds = make_dataset([("aa", 1), ("bb", 1), ("cc", 1)])
        vocab = build_vocab(ds)
        with pytest.raises(TrainingError, match="both classes"):
            train_gbdt(ds, vocab, GbdtConfig())

    def test_loss_strictly_decreases_on_separable_data(self):
        rng = random.Random(3001)
        ds = separable_dataset(rng, n=200)
        vocab = build_vocab(ds)
        cfg = GbdtConfig(n_trees=50, max_depth=3, min_samples_leaf=5)
        model = train_gbdt(ds, vocab, cfg)
        losses = model.train_losses
        assert len(losses) == 51  # base loss + one per round
        for a, b in zip(losses[:10], losses[1:11]):
            assert b < a
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-12

    def test_zero_learning_rate_keeps_base_prediction(self):
        rng = random.Random(3002)
        ds = separable_dataset(rng, n=60)
        vocab = build_vocab(ds)
        model = train_gbdt(
            ds, vocab, GbdtConfig(n_trees=5, max_depth=2, learning_rate=0.0,
                                  min_samples_leaf=5)
        )
        scores = predict_scores(model, ds)
        assert np.all(scores == float(sigmoid(model.base_score)))

    def test_deterministic_same_seed_byte_identical(self, tmp_path):
        rng1, rng2 = random.Random(3003), random.Random(3003)
        cfg = GbdtConfig(n_trees=10, max_depth=3, min_samples_leaf=5, seed=7)
        paths = []
        for tag, rng in (("a", rng1), ("b", rng2)):
            ds = separable_dataset(rng, n=120)
            model = train_gbdt(ds, build_vocab(ds), cfg)
            path = tmp_path / f"model_{tag}.json"
            save_model(model, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_predictions_strictly_inside_unit_interval(self):
        rng = random.Random(3004)
        ds = separable_dataset(rng, n=100)
        vocab = build_vocab(ds)
        model = train_gbdt(
            ds, vocab, GbdtConfig(n_trees=20, max_depth=3, min_samples_leaf=2)
        )
        scores = predict_scores(model, ds)
        assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_depth_limit_respected(self):
        rng = random.Random(3005)
        ds = separable_dataset(rng, n=150)
        vocab = build_vocab(ds)
        for depth in (1, 2, 4):
            model = train_gbdt(
                ds, vocab,
                GbdtConfig(n_trees=5, max_depth=depth, min_samples_leaf=2),
            )
            assert max(t.depth() for t in model.trees) <= depth

    def test_recorded_losses_match_recomputation(self):
        rng = random.Random(3006)
        ds = separable_dataset(rng, n=80)
        vocab = build_vocab(ds)
        cfg = GbdtConfig(n_trees=8, max_depth=3, min_samples_leaf=5)
        model = train_gbdt(ds, vocab, cfg)
        X = to_dense((encode(i, vocab) for i in ds.instances), vocab)
        y = labels_array(ds)
        raw = np.full(len(y), model.base_score)
        assert model.train_losses[0] == log_loss_from_raw(raw, y)
        for t, tree in enumerate(model.trees, start=1):
            raw = raw + cfg.learning_rate * tree.predict_batch(X)
            assert model.train_losses[t] == pytest.approx(
                log_loss_from_raw(raw, y), abs=1e-15
            )


class TestTreeType:
    def test_invalid_child_rejected(self):
        with pytest.raises(TrainingError, match="invalid child"):
            Tree(feature=(0,), threshold=(0.5,), left=(0,), right=(1,), value=(0.0,))

    def test_non_finite_leaf_rejected(self):
        with pytest.raises(TrainingError, match="non-finite"):
            Tree(
                feature=(-1,), threshold=(0.0,), left=(-1,), right=(-1,),
                value=(float("nan"),),
            )

    def test_model_tree_count_enforced(self):
        ds = make_dataset([("aa", 1), ("bb", 0)])
        vocab = build_vocab(ds)
        leaf = Tree(feature=(-1,), threshold=(0.0,), left=(-1,), right=(-1,), value=(0.0,))
        with pytest.raises(TrainingError, match="trees"):
            GbdtModel(
                config=GbdtConfig(n_trees=3), base_score=0.0, trees=(leaf,),
                vocab=vocab, train_losses=(),
            )


class TestSerialization:
    def test_exact_round_trip(self, tmp_path):
        rng = random.Random(3007)
        ds = separable_dataset(rng, n=100)
        vocab = build_vocab(ds)
        model = train_gbdt(
            ds, vocab, GbdtConfig(n_trees=12, max_depth=4, min_samples_leaf=3)
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        assert restored == model
        scores_a = predict_scores(model, ds)
        scores_b = predict_scores(restored, ds)
        assert np.array_equal(scores_a, scores_b)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "other", "format_version": 1}))
        with pytest.raises(Exception, match="not a gbdt model"):
            load_model(path)

    def test_unreadable_file_rejected(self, tmp_path):
        with pytest.raises(Exception, match="cannot read"):
            load_model(tmp_path / "missing.json")

    @staticmethod
    def saved_payload(tmp_path):
        ds = make_dataset([("aa", 1), ("aa", 1), ("bb", 0), ("bb", 0)])
        model = train_gbdt(
            ds, build_vocab(ds), GbdtConfig(n_trees=2, max_depth=1, min_samples_leaf=1)
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize(
        "key", ["trees", "config", "base_score", "vocab", "train_losses"]
    )
    def test_missing_key_rejected(self, tmp_path, key):
        path, payload = self.saved_payload(tmp_path)
        del payload[key]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=key):
            load_model(path)

    def test_unknown_config_key_named(self, tmp_path):
        path, payload = self.saved_payload(tmp_path)
        payload["config"]["n_tree"] = 5
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="'n_tree' in the config in model file"):
            load_model(path)

    @pytest.mark.parametrize("text", ["[1, 2]", "3", "null"])
    def test_non_object_file_rejected(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(DataError, match="must hold a JSON object"):
            load_model(path)

    def test_feature_beyond_vocabulary_rejected(self, tmp_path):
        path, payload = self.saved_payload(tmp_path)
        tree = payload["trees"][1]
        assert tree["feature"][0] >= 0  # the root splits
        tree["feature"][0] = load_model(path).vocab.total_dims
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="beyond the vocabulary"):
            load_model(path)


    def tree_payload(self, tmp_path):
        path, payload = self.saved_payload(tmp_path)
        tree = payload["trees"][0]
        assert tree["feature"][0] >= 0 and len(tree["feature"]) == 3
        return path, payload, tree

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda t: t.pop("value"), "lacks value"),
            (lambda t: t.update(feature=["3", -1, -1]), "feature must be a list of integers"),
            (lambda t: t.update(left=[1.5, -1, -1]), "left must be a list of integers"),
            (lambda t: t.update(right=[True, -1, -1]), "right must be a list of integers"),
            (lambda t: t.update(threshold="0.5"), "threshold must be a list of numbers"),
            (lambda t: t.update(value=[0.0, [1.0], 0.0]), "value must be a number"),
            (lambda t: t.update(value=[0.0, 10**400, 0.0]), "value is out of range"),
            (lambda t: t["value"].pop(), "equal length"),
            (lambda t: [t[k].clear() for k in list(t)], "at least one node"),
            (lambda t: t.update(feature=[3, -1, -10**6]), "invalid feature -1000000"),
            (lambda t: t.update(left=[0, -1, -1]), "invalid child 0"),
            (lambda t: t.update(right=[3, -1, -1]), "invalid child 3"),
            (lambda t: t.update(threshold=[float("inf"), 0.0, 0.0]), "non-finite threshold"),
            (lambda t: t.update(value=[0.0, float("nan"), 0.0]), "non-finite value"),
        ],
    )
    def test_damaged_tree_rejected(self, tmp_path, damage, message):
        path, payload, tree = self.tree_payload(tmp_path)
        damage(tree)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=message):
            load_model(path)

    @pytest.mark.parametrize("trees", [{}, "x", [[]], [None]])
    def test_ill_typed_trees_rejected(self, tmp_path, trees):
        path, payload = self.saved_payload(tmp_path)
        payload["trees"] = trees
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="trees must be a list|tree 0 must be a JSON object"):
            load_model(path)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("base_score", "0.1", "base_score must be a number"),
            ("train_losses", 3, "train_losses must be a list"),
            ("train_losses", [0.5, None], "train_losses must be a number"),
        ],
    )
    def test_ill_typed_fields_rejected(self, tmp_path, key, value, message):
        path, payload = self.saved_payload(tmp_path)
        payload[key] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=message):
            load_model(path)


def dense_scores(model, dataset):
    """Reference scores over the full dense (n, total_dims) encoding."""
    X = to_dense((encode(i, model.vocab) for i in dataset.instances), model.vocab)
    return model.predict_proba(X)


def random_tree(rng, vocab, max_depth):
    """A tree over binary ids anywhere in the vocabulary (OOV slots among
    them), and over the numeric dims at cuts inside their ranges."""
    n_binary = vocab.total_dims - len(NUMERIC_FEATURES)
    arrays = {k: [] for k in ("feature", "threshold", "left", "right", "value")}

    def grow(depth):
        i = len(arrays["feature"])
        for key, default in (("feature", -1), ("threshold", 0.0), ("left", -1),
                             ("right", -1), ("value", rng.uniform(-1.0, 1.0))):
            arrays[key].append(default)
        if depth == max_depth or rng.random() < 0.2:
            return i
        kind = rng.random()
        if kind < 0.35:
            name = rng.choice(NUMERIC_FEATURES)
            feature = vocab.numeric_index(name)
            threshold = {"days": rng.uniform(0.0, 1.2), "time": rng.uniform(0.0, 1.0),
                         "time_present": 0.5}[name]
        elif kind < 0.55:
            feature, threshold = vocab.oov_index(rng.choice(NAMESPACES)), 0.5
        else:
            feature, threshold = rng.randrange(n_binary), 0.5
        arrays["feature"][i], arrays["threshold"][i] = feature, threshold
        arrays["left"][i] = grow(depth + 1)
        arrays["right"][i] = grow(depth + 1)
        return i

    grow(0)
    return Tree(**{k: tuple(v) for k, v in arrays.items()})


class TestPredictScores:
    @pytest.mark.parametrize("track", [Track.EN_ES, Track.ES_EN, Track.FR_EN])
    def test_bitwise_equal_to_dense_on_fixture_dev(self, mini_dir, track):
        train = read_dataset(mini_dir / f"{track.value}.train.slam", track, Split.TRAIN)
        dev = read_dataset(mini_dir / f"{track.value}.dev.slam", track, Split.DEV)
        model = train_gbdt(train, build_vocab(train), GbdtConfig(n_trees=20))
        assert predict_scores(model, dev).tobytes() == dense_scores(model, dev).tobytes()

    def test_bitwise_equal_to_dense_on_random_models(self):
        rng = random.Random(3101)
        numeric_splits = oov_splits = 0
        for draw in range(30):
            vocab = build_vocab(random_dataset(rng, n_exercises=rng.randint(2, 6)))
            trees = tuple(random_tree(rng, vocab, rng.randint(1, 4)) for _ in range(4))
            model = GbdtModel(
                config=GbdtConfig(n_trees=len(trees), learning_rate=rng.uniform(0.05, 1.0)),
                base_score=rng.uniform(-1.0, 1.0), trees=trees, vocab=vocab,
                train_losses=(),
            )
            oov = {vocab.oov_index(ns) for ns in NAMESPACES}
            used = [f for t in trees for f in t.feature]
            numeric_splits += sum(f >= vocab.total_dims - len(NUMERIC_FEATURES) for f in used)
            oov_splits += sum(f in oov for f in used)
            scored = random_dataset(rng, n_exercises=rng.randint(1, 8))
            assert predict_scores(model, scored).tobytes() == dense_scores(model, scored).tobytes()
        assert numeric_splits > 20 and oov_splits > 20

    def test_leaf_only_model_and_empty_data(self):
        ds = make_dataset([("aa", 1), ("bb", 0)])
        vocab = build_vocab(ds)
        leaf = Tree(feature=(-1,), threshold=(0.0,), left=(-1,), right=(-1,), value=(0.3,))
        model = GbdtModel(
            config=GbdtConfig(n_trees=1), base_score=0.1, trees=(leaf,), vocab=vocab,
            train_losses=(),
        )
        assert predict_scores(model, ds).tobytes() == dense_scores(model, ds).tobytes()
        empty = Dataset(track=Track.EN_ES, instances=(), split=Split.DEV)
        assert predict_scores(model, empty).shape == (0,)


class TestSparseSplitFinder:
    """The sparse trainer against the brute-force exact scan in oracles.py."""

    @staticmethod
    def node_problems(rng, n_cases=300):
        for _ in range(n_cases):
            k = rng.randint(2, 40)
            n_binary = rng.randint(1, 6)
            n_numeric = rng.randint(1, 3)
            X = np.zeros((k, n_binary + n_numeric))
            for f in range(n_binary):
                density = rng.choice([0.1, 0.5, 0.9])
                X[:, f] = [float(rng.random() < density) for _ in range(k)]
            for f in range(n_binary, n_binary + n_numeric):
                X[:, f] = [rng.randrange(8) / 2.0 for _ in range(k)]
            lam = rng.choice([0.0, 0.5, 1.0])
            if lam > 0.0 and rng.random() < 0.1:
                # equal g and h on every row: each cut has negative gain, so
                # no split may be returned (lam = 0 would make every gain 0)
                g = np.full(k, rng.uniform(-1, 1))
                h = np.full(k, rng.uniform(0.01, 1))
            else:
                g = np.array([rng.uniform(-1, 1) for _ in range(k)])
                h = np.array([rng.uniform(0.01, 1) for _ in range(k)])
            yield X, n_binary, g, h, lam, rng.randint(1, 5)

    def test_best_gain_matches_oracle_on_random_nodes(self):
        rng = random.Random(3008)
        splits = 0
        for X, n_binary, g, h, lam, msl in self.node_problems(rng):
            entry_rows, entry_feats = np.nonzero(X[:, :n_binary])
            node = gbdt_mod._Node.root(entry_rows, entry_feats, X[:, n_binary:])
            found = gbdt_mod._find_split(node, g, h, n_binary, lam, msl)
            candidates = oracle_split_candidates(X, g, h, lam, msl)
            best = oracle_best_split(candidates)
            if best is None:
                assert found is None
                continue
            splits += 1
            assert found.gain == pytest.approx(best[2], rel=1e-12, abs=0.0)
            at_choice = {(f, t): gain for f, t, gain in candidates}
            assert at_choice[(found.feature, found.threshold)] == pytest.approx(
                best[2], rel=1e-12, abs=0.0
            )
        assert splits >= 200  # most problems must exercise a real split

    @pytest.mark.parametrize("track", [Track.EN_ES, Track.ES_EN, Track.FR_EN])
    def test_fixture_train_scores_match_oracle_trainer(self, mini_dir, track):
        train = read_dataset(mini_dir / f"{track.value}.train.slam", track, Split.TRAIN)
        vocab = build_vocab(train)
        cfg = GbdtConfig()
        model = train_gbdt(train, vocab, cfg)
        X = to_dense((encode(i, vocab) for i in train.instances), vocab)
        raw = oracle_train_raw(
            X, labels_array(train), n_trees=cfg.n_trees, max_depth=cfg.max_depth,
            learning_rate=cfg.learning_rate, min_samples_leaf=cfg.min_samples_leaf,
            l2_leaf_reg=cfg.l2_leaf_reg,
        )
        assert np.abs(model.predict_proba(X) - sigmoid(raw)).max() <= 1e-12
