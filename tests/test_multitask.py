import json
import math
import random

import numpy as np
import pytest

from slamaudit.errors import DataError, TrainingError
from slamaudit.features import FeatureVector, build_vocab, encode
from slamaudit.multitask import (
    MtConfig,
    MtModel,
    forward,
    grad,
    init_model,
    instance_loss,
    load_mt_model,
    predict_mt_scores,
    save_mt_model,
    train_multitask,
)
from slamaudit.multitask import _batch_grad, _pack
from slamaudit.numerics import sigmoid
from slamaudit.slam_format import Split, Track, read_dataset

from gen_slam import random_dataset
from oracles import oracle_mt_summed_grad, oracle_pack, oracle_train_multitask
from test_gbdt import make_dataset, separable_dataset

TRACKS = (Track.EN_ES, Track.FR_EN)


def tiny_vocab():
    return build_vocab(make_dataset([("aa", 1), ("bb", 0)]))


def small_config(**kw):
    defaults = dict(embed_dim=3, hidden_dim=2, epochs=2, batch_size=4,
                    learning_rate=0.1, l2=1e-3, seed=11)
    defaults.update(kw)
    return MtConfig(**defaults)


class TestConfig:
    def test_bad_dims_rejected(self):
        with pytest.raises(TrainingError, match="embed_dim"):
            MtConfig(embed_dim=0)

    def test_bad_epochs_rejected(self):
        with pytest.raises(TrainingError, match="epochs"):
            MtConfig(epochs=0)

    def test_negative_l2_rejected(self):
        with pytest.raises(TrainingError, match="l2"):
            MtConfig(l2=-0.1)

    @pytest.mark.parametrize("rate", [-5.0, float("nan"), float("inf")])
    def test_bad_learning_rate_rejected(self, rate):
        with pytest.raises(TrainingError, match="learning_rate"):
            MtConfig(learning_rate=rate)


class TestInitModel:
    def test_memory_error_names_the_shape(self, monkeypatch):
        """An allocation refused with MemoryError ends in one TrainingError;
        the refusal is stubbed, so nothing large is allocated (a shape numpy
        refuses before allocating is tested through the command line)."""

        class Refusing:
            def uniform(self, low, high, size):
                raise MemoryError(f"Unable to allocate an array with shape {size}")

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Refusing())
        vocab = tiny_vocab()
        with pytest.raises(TrainingError) as info:
            init_model(vocab, TRACKS, small_config())
        assert str(info.value) == (
            f"cannot allocate multitask parameters of shape {(vocab.total_dims, 3)}; "
            "lower embed_dim or hidden_dim"
        )


class TestForward:
    def test_all_zero_parameters_give_half(self):
        vocab = tiny_vocab()
        model = init_model(vocab, TRACKS, small_config())
        model.embedding[:] = 0.0
        model.hidden_weight[:] = 0.0
        model.hidden_bias[:] = 0.0
        for t in TRACKS:
            model.heads[t] = (np.zeros_like(model.heads[t][0]), 0.0)
        fv = FeatureVector(indices=(0, 1, 5), numeric=((vocab.total_dims - 3, 0.7),))
        assert forward(model, Track.EN_ES, fv) == 0.5

    def test_hand_evaluated_forward_pass(self):
        vocab = tiny_vocab()
        model = init_model(vocab, TRACKS, small_config(embed_dim=2, hidden_dim=2))
        model.embedding[:] = 0.0
        model.embedding[0] = [1.0, 0.0]
        model.embedding[1] = [0.0, 1.0]
        model.embedding[16] = [1.0, 1.0]
        model.hidden_weight = np.array([[1.0, 0.0], [0.0, 2.0]])
        model.hidden_bias = np.array([0.1, -0.1])
        model.heads[Track.EN_ES] = (np.array([1.0, -1.0]), 0.2)
        # e = mean(E0, E1) + 0.5*E16 = [1.0, 1.0]; zero-valued numerics drop out
        fv = FeatureVector(indices=(0, 1), numeric=((16, 0.5), (17, 0.0)))
        expected = 1.0 / (1.0 + math.exp(-(math.tanh(1.1) - math.tanh(1.9) + 0.2)))
        assert forward(model, Track.EN_ES, fv) == pytest.approx(expected, abs=1e-15)

    def test_output_strictly_inside_unit_interval(self):
        rng = random.Random(4001)
        vocab = tiny_vocab()
        model = init_model(vocab, TRACKS, small_config())
        for _ in range(50):
            n_idx = rng.randint(1, 5)
            idx = tuple(sorted(rng.sample(range(vocab.total_dims - 3), n_idx)))
            fv = FeatureVector(indices=idx, numeric=((vocab.total_dims - 2, rng.random()),))
            p = forward(model, Track.FR_EN, fv)
            assert 0.0 < p < 1.0

    def test_unknown_track_rejected(self):
        vocab = tiny_vocab()
        model = init_model(vocab, [Track.EN_ES], small_config())
        fv = FeatureVector(indices=(0,), numeric=())
        with pytest.raises(DataError, match="no head for track 'es_en'"):
            forward(model, Track.ES_EN, fv)


def random_fv(rng, vocab):
    n_idx = rng.randint(1, 6)
    idx = tuple(sorted(rng.sample(range(vocab.total_dims - 3), n_idx)))
    numeric = tuple(
        (vocab.total_dims - 3 + j, round(rng.random(), 3)) for j in range(3)
    )
    return FeatureVector(indices=idx, numeric=numeric)


def numeric_gradients(model, track, fv, label, eps=1e-5):
    """Central finite differences over every parameter."""

    def loss():
        return instance_loss(model, track, fv, label)

    def fd_array(arr):
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + eps
            lp = loss()
            flat[i] = old - eps
            lm = loss()
            flat[i] = old
            gflat[i] = (lp - lm) / (2 * eps)
        return g

    out = {
        "embedding": fd_array(model.embedding),
        "hidden_weight": fd_array(model.hidden_weight),
        "hidden_bias": fd_array(model.hidden_bias),
        "heads": {},
    }
    for t, (w, b) in list(model.heads.items()):
        gw = fd_array(w)
        model.heads[t] = (w, b + eps)
        lp = loss()
        model.heads[t] = (w, b - eps)
        lm = loss()
        model.heads[t] = (w, b)
        out["heads"][t] = (gw, (lp - lm) / (2 * eps))
    return out


def max_rel_error(analytic, numeric):
    worst = 0.0

    def upd(a, n):
        nonlocal worst
        a = np.asarray(a, dtype=np.float64)
        n = np.asarray(n, dtype=np.float64)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float((np.abs(a - n) / denom).max()))

    upd(analytic.embedding, numeric["embedding"])
    upd(analytic.hidden_weight, numeric["hidden_weight"])
    upd(analytic.hidden_bias, numeric["hidden_bias"])
    for t, (gw, gb) in analytic.heads.items():
        nw, nb = numeric["heads"][t]
        upd(gw, nw)
        upd(gb, nb)
    return worst


class TestGradients:
    def test_matches_central_differences(self):
        rng = random.Random(4002)
        vocab = tiny_vocab()
        for draw in range(30):
            cfg = small_config(seed=draw, l2=rng.choice([0.0, 1e-3, 1e-2]))
            model = init_model(vocab, TRACKS, cfg)
            track = rng.choice(TRACKS)
            fv = random_fv(rng, vocab)
            label = rng.randint(0, 1)
            analytic = grad(model, track, fv, label)
            numeric = numeric_gradients(model, track, fv, label)
            assert max_rel_error(analytic, numeric) < 1e-4

    def test_inactive_embedding_rows_get_zero_gradient(self):
        rng = random.Random(4003)
        vocab = tiny_vocab()
        model = init_model(vocab, TRACKS, small_config())
        fv = FeatureVector(indices=(0, 2), numeric=((16, 0.5), (17, 0.0)))
        g = grad(model, Track.EN_ES, fv, 1)
        touched = {0, 2, 16}
        for row in range(vocab.total_dims):
            if row not in touched:
                assert np.all(g.embedding[row] == 0.0)

    def test_other_tracks_head_gradient_is_zero(self):
        vocab = tiny_vocab()
        model = init_model(vocab, TRACKS, small_config())
        fv = FeatureVector(indices=(0, 1), numeric=())
        g = grad(model, Track.EN_ES, fv, 0)
        gw, gb = g.heads[Track.FR_EN]
        assert np.all(gw == 0.0) and gb == 0.0

    def test_head_bias_gradient_is_residual(self):
        # the loss part of every gradient carries the factor (p - y)
        vocab = tiny_vocab()
        model = init_model(vocab, TRACKS, small_config(l2=0.0))
        fv = FeatureVector(indices=(0, 1), numeric=())
        p = forward(model, Track.EN_ES, fv)
        g = grad(model, Track.EN_ES, fv, 1)
        assert g.heads[Track.EN_ES][1] == p - 1


def two_track_datasets(rng, n_major=80, n_minor=40):
    major = separable_dataset(rng, n=n_major)
    minor_rows = []
    for _ in range(n_minor):
        if rng.random() < 0.5:
            minor_rows.append((rng.choice(["alpha", "beta"]), 1))
        else:
            minor_rows.append((rng.choice(["gamma", "delta"]), 0))
    minor = make_dataset(minor_rows, track=Track.FR_EN)
    return major, minor


class TestTraining:
    def test_deterministic_given_seed(self):
        rng1, rng2 = random.Random(4004), random.Random(4004)
        cfg = small_config(epochs=3)
        models = []
        for rng in (rng1, rng2):
            major, minor = two_track_datasets(rng)
            vocab = build_vocab([major, minor])
            models.append(train_multitask([major, minor], vocab, cfg))
        a, b = models
        assert np.array_equal(a.embedding, b.embedding)
        assert np.array_equal(a.hidden_weight, b.hidden_weight)
        for t in a.heads:
            assert np.array_equal(a.heads[t][0], b.heads[t][0])
            assert a.heads[t][1] == b.heads[t][1]

    def test_zero_learning_rate_keeps_initialization(self):
        rng = random.Random(4005)
        major, minor = two_track_datasets(rng)
        vocab = build_vocab([major, minor])
        cfg = small_config(epochs=1, learning_rate=0.0)
        trained = train_multitask([major, minor], vocab, cfg)
        fresh = init_model(vocab, [Track.EN_ES, Track.FR_EN], cfg)
        assert np.array_equal(trained.embedding, fresh.embedding)
        assert np.array_equal(trained.hidden_weight, fresh.hidden_weight)
        assert np.array_equal(trained.hidden_bias, fresh.hidden_bias)
        for t in fresh.heads:
            assert np.array_equal(trained.heads[t][0], fresh.heads[t][0])
            assert trained.heads[t][1] == fresh.heads[t][1]

    def test_single_track_creates_single_head(self):
        rng = random.Random(4006)
        ds = separable_dataset(rng, n=60)
        vocab = build_vocab(ds)
        model = train_multitask([ds], vocab, small_config())
        assert set(model.heads) == {Track.EN_ES}

    def test_single_class_track_rejected(self):
        ds = make_dataset([("aa", 1), ("bb", 1), ("cc", 1)])
        vocab = build_vocab(ds)
        with pytest.raises(TrainingError, match="single class"):
            train_multitask([ds], vocab, small_config())

    def test_duplicate_track_rejected(self):
        rng = random.Random(4007)
        a = separable_dataset(rng, n=30)
        b = separable_dataset(rng, n=30)
        vocab = build_vocab([a, b])
        with pytest.raises(TrainingError, match="duplicate dataset"):
            train_multitask([a, b], vocab, small_config())

    def test_training_reduces_loss_on_separable_data(self):
        rng = random.Random(4008)
        ds = separable_dataset(rng, n=120)
        vocab = build_vocab(ds)
        cfg = small_config(embed_dim=8, hidden_dim=8, epochs=10, learning_rate=0.5,
                           l2=0.0)
        model = train_multitask([ds], vocab, cfg)
        fresh = init_model(vocab, [Track.EN_ES], cfg)
        init_losses = [
            instance_loss(fresh, Track.EN_ES, encode(i, vocab), i.label)
            for i in ds.instances
        ]
        assert model.train_losses[Track.EN_ES] < float(np.mean(init_losses))

    def test_final_loss_recorded_per_track(self):
        rng = random.Random(4009)
        major, minor = two_track_datasets(rng)
        vocab = build_vocab([major, minor])
        model = train_multitask([major, minor], vocab, small_config())
        assert set(model.train_losses) == {Track.EN_ES, Track.FR_EN}
        for v in model.train_losses.values():
            assert math.isfinite(v) and v > 0


class TestSerialization:
    def test_exact_round_trip(self, tmp_path):
        rng = random.Random(4010)
        major, minor = two_track_datasets(rng)
        vocab = build_vocab([major, minor])
        model = train_multitask([major, minor], vocab, small_config(epochs=1))
        path = tmp_path / "mt.json"
        assert save_mt_model(model, path) == path.read_text(encoding="utf-8")
        restored = load_mt_model(path)
        assert np.array_equal(restored.embedding, model.embedding)
        assert np.array_equal(restored.hidden_weight, model.hidden_weight)
        assert np.array_equal(restored.hidden_bias, model.hidden_bias)
        for t in model.heads:
            assert np.array_equal(restored.heads[t][0], model.heads[t][0])
            assert restored.heads[t][1] == model.heads[t][1]
        assert restored.train_losses == model.train_losses
        assert np.array_equal(
            predict_mt_scores(restored, minor), predict_mt_scores(model, minor)
        )

    def test_save_is_byte_deterministic(self, tmp_path):
        rng = random.Random(4011)
        ds = separable_dataset(rng, n=40)
        vocab = build_vocab(ds)
        model = train_multitask([ds], vocab, small_config(epochs=1))
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_mt_model(model, p1)
        save_mt_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "gbdt", "format_version": 1}')
        with pytest.raises(DataError, match="not a multitask model"):
            load_mt_model(path)


def batch_fv(rng, vocab):
    """Like random_fv, but each numeric value is zero a third of the time."""
    fv = random_fv(rng, vocab)
    numeric = tuple((dim, 0.0 if rng.random() < 1 / 3 else v) for dim, v in fv.numeric)
    return FeatureVector(indices=fv.indices, numeric=numeric)


def assert_params_close(got, want, tol):
    assert np.max(np.abs(got.embedding - want.embedding)) <= tol
    assert np.max(np.abs(got.hidden_weight - want.hidden_weight)) <= tol
    assert np.max(np.abs(got.hidden_bias - want.hidden_bias)) <= tol
    assert set(got.heads) == set(want.heads)
    for t, (w, b) in want.heads.items():
        assert np.max(np.abs(got.heads[t][0] - w)) <= tol
        assert abs(got.heads[t][1] - b) <= tol


class TestBatchedStep:
    def test_matches_summed_instance_gradients(self):
        # a 20-dim vocabulary, so the instances of a batch share most rows
        rng = random.Random(4012)
        vocab = tiny_vocab()
        seen_m = set()
        for draw in range(80):
            cfg = small_config(seed=draw, l2=(0.0, 1e-3)[draw % 2])
            model = init_model(vocab, TRACKS, cfg)
            track = rng.choice(TRACKS)
            n = rng.randint(1, 12)
            fvs = [batch_fv(rng, vocab) for _ in range(n)]
            labels = [rng.randint(0, 1) for _ in range(n)]
            m = 1 if draw % 4 < 2 else rng.randint(1, n)
            rows = np.array(rng.sample(range(n), m))
            seen_m.add(min(m, 2))
            u, d_emb_u, d_hw, d_hb, d_w, d_b = _batch_grad(
                model, track, oracle_pack(fvs, labels), rows
            )
            want = oracle_mt_summed_grad(
                model, track, [fvs[i] for i in rows], [labels[i] for i in rows]
            )
            d_emb = np.zeros_like(model.embedding)
            d_emb[u] = d_emb_u
            for got, ref in zip((d_emb, d_hw, d_hb, d_w, d_b), want):
                assert np.max(np.abs(np.asarray(got) - ref)) <= 1e-12
        assert seen_m == {1, 2}


def mixing_matrix(packed, total_dims):
    """The (n, total_dims) mixing matrix a packing implies: weight
    ``vals[i, s]`` at ``(i, cols[i, s])`` for every nonzero weight. Fails if
    two entries of a row share a dimension."""
    rows, slots = np.nonzero(packed.vals)
    mix = np.zeros((packed.n, total_dims))
    mix[rows, packed.cols[rows, slots]] = packed.vals[rows, slots]
    assert np.count_nonzero(mix) == len(rows), "a (row, dim) entry repeats"
    return mix


def assert_packed_equal(got, want, total_dims):
    assert got.n == want.n
    assert mixing_matrix(got, total_dims).tobytes() == mixing_matrix(want, total_dims).tobytes()
    assert (got.labels is None) == (want.labels is None)
    if got.labels is not None:
        assert got.labels.dtype == want.labels.dtype
        assert got.labels.tobytes() == want.labels.tobytes()


class TestPacking:
    @pytest.mark.parametrize("track", list(Track))
    def test_equals_per_instance_oracle_on_fixture(self, mini_dir, track):
        train = read_dataset(mini_dir / f"{track.value}.train.slam", track, Split.TRAIN)
        dev = read_dataset(mini_dir / f"{track.value}.dev.slam", track, Split.DEV)
        vocab = build_vocab(train)
        labels = [i.label for i in train.instances]
        assert_packed_equal(
            _pack(train, vocab, labels),
            oracle_pack([encode(i, vocab) for i in train.instances], labels),
            vocab.total_dims,
        )
        assert_packed_equal(
            _pack(dev, vocab),
            oracle_pack([encode(i, vocab) for i in dev.instances]),
            vocab.total_dims,
        )

    def test_equals_per_instance_oracle_on_random_draws(self):
        # gen_slam leaves time out a tenth of the time, so zero numerics occur
        rng = random.Random(4013)
        for _ in range(30):
            vocab = build_vocab(random_dataset(rng, n_exercises=3))
            ds = random_dataset(rng, n_exercises=rng.randint(0, 6))
            fvs = [encode(i, vocab) for i in ds.instances]
            assert_packed_equal(_pack(ds, vocab), oracle_pack(fvs), vocab.total_dims)


@pytest.fixture(scope="module")
def joint_tracks(mini_dir):
    return [
        read_dataset(mini_dir / f"{t.value}.train.slam", t, Split.TRAIN)
        for t in (Track.ES_EN, Track.FR_EN)
    ]


@pytest.fixture(scope="module")
def joint_model(joint_tracks):
    return train_multitask(joint_tracks, build_vocab(joint_tracks), MtConfig())


class TestBatchedTraining:
    def test_fixture_model_matches_reference_trainer(self, joint_tracks, joint_model):
        want = oracle_train_multitask(joint_tracks, joint_model.vocab, MtConfig())
        assert_params_close(joint_model, want, 1e-12)
        assert set(joint_model.train_losses) == set(want.train_losses)
        for t, loss in want.train_losses.items():
            assert abs(joint_model.train_losses[t] - loss) <= 1e-12

    @pytest.mark.parametrize("l2", [0.0, 1e-3])
    def test_train_losses_are_mean_instance_loss(self, l2):
        major, minor = two_track_datasets(random.Random(4013))
        vocab = build_vocab([major, minor])
        model = train_multitask([major, minor], vocab, small_config(l2=l2))
        for ds in (major, minor):
            losses = [
                instance_loss(model, ds.track, encode(i, vocab), i.label)
                for i in ds.instances
            ]
            assert abs(model.train_losses[ds.track] - np.mean(losses)) <= 1e-12

    def test_fixture_train_losses_are_mean_instance_loss(self, joint_tracks, joint_model):
        # more rows than one forward chunk holds
        for ds in joint_tracks:
            losses = [
                instance_loss(joint_model, ds.track, encode(i, joint_model.vocab), i.label)
                for i in ds.instances
            ]
            assert abs(joint_model.train_losses[ds.track] - np.mean(losses)) <= 1e-12

    @pytest.mark.parametrize("track", [Track.ES_EN, Track.FR_EN])
    def test_predict_matches_instance_forward(self, mini_dir, joint_model, track):
        dev = read_dataset(mini_dir / f"{track.value}.dev.slam", track, Split.DEV)
        want = [forward(joint_model, track, encode(i, joint_model.vocab)) for i in dev.instances]
        got = predict_mt_scores(joint_model, dev)
        assert got.shape == (len(dev.instances),)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_predict_unknown_track_rejected(self, mini_dir, joint_model):
        dev = read_dataset(mini_dir / "en_es.dev.slam", Track.EN_ES, Split.DEV)
        with pytest.raises(DataError, match="no head for track 'en_es'"):
            predict_mt_scores(joint_model, dev)


class TestLoadValidation:
    @staticmethod
    def saved(tmp_path):
        rng = random.Random(4014)
        major, minor = two_track_datasets(rng)
        vocab = build_vocab([major, minor])
        model = train_multitask([major, minor], vocab, small_config(epochs=1))
        path = tmp_path / "mt.json"
        save_mt_model(model, path)
        return path, json.loads(path.read_text()), minor

    @pytest.mark.parametrize(
        "key",
        ["config", "vocab", "embedding", "hidden_weight", "hidden_bias", "heads",
         "train_losses"],
    )
    def test_missing_key_rejected(self, tmp_path, key):
        path, payload, _ = self.saved(tmp_path)
        del payload[key]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=key):
            load_mt_model(path)

    @pytest.mark.parametrize(
        "damage, field",
        [
            (lambda p: p["embedding"].pop(), "embedding"),
            (lambda p: p["embedding"].append(p["embedding"][0]), "embedding"),
            (lambda p: p["embedding"][3].pop(), "embedding"),
            (lambda p: p["hidden_weight"].pop(), "hidden_weight"),
            (lambda p: p["hidden_weight"][0].append(0.5), "hidden_weight"),
            (lambda p: p["hidden_bias"].pop(), "hidden_bias"),
            (lambda p: p["heads"]["fr_en"]["weight"].pop(), "head 'fr_en' weight"),
            (lambda p: p["heads"]["en_es"].update(weight=[[0.1, 0.2]]), "head 'en_es' weight"),
            (lambda p: p["heads"]["en_es"].update(weight="abc"), "head 'en_es' weight"),
            (lambda p: p["heads"]["en_es"].update(bias="0.5"), "head 'en_es' bias"),
            (lambda p: p["heads"]["en_es"].pop("bias"), "head 'en_es' lacks bias"),
            (lambda p: p["heads"].update(xx_yy=p["heads"]["en_es"]), "heads"),
            (lambda p: p.update(heads={}), "no heads"),
            (lambda p: p["train_losses"].update(en_es=None), "train_losses"),
        ],
    )
    def test_bad_field_named(self, tmp_path, damage, field):
        path, payload, _ = self.saved(tmp_path)
        damage(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=field):
            load_mt_model(path)

    def test_unknown_config_key_named(self, tmp_path):
        path, payload, _ = self.saved(tmp_path)
        payload["config"]["n_tree"] = 5
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="'n_tree' in the config in model file"):
            load_mt_model(path)

    @pytest.mark.parametrize("text", ["[1, 2]", "3", '"multitask"', "null"])
    def test_non_object_file_rejected(self, tmp_path, text):
        path = tmp_path / "mt.json"
        path.write_text(text)
        with pytest.raises(DataError, match="must hold a JSON object"):
            load_mt_model(path)

    def test_overflowing_parameters_give_no_scores(self, tmp_path):
        path, payload, minor = self.saved(tmp_path)
        # every product overflows, with alternating signs: inf - inf = nan
        payload["embedding"] = [[1e308] * len(row) for row in payload["embedding"]]
        payload["hidden_weight"] = [
            [(-1) ** i * 1e308] * len(row) for i, row in enumerate(payload["hidden_weight"])
        ]
        path.write_text(json.dumps(payload))
        model = load_mt_model(path)
        with pytest.raises(DataError, match="non-finite scores"):
            predict_mt_scores(model, minor)
