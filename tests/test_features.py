import dataclasses
import json
import random

import numpy as np
import pytest

from slamaudit.errors import DataError
from slamaudit.features import (
    EXERCISE_NAMESPACES,
    KEY_NAMESPACES,
    NAMESPACES,
    NUMERIC_FEATURES,
    FeatureVector,
    Vocabulary,
    build_vocab,
    encode,
    labels_array,
    to_dense,
    token_features,
)
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
from oracles import encode_dataset, oracle_build_vocab


def make_instance(
    instance_id="abcd123401",
    token="Yo",
    pos="PRON",
    morph=("Person=1",),
    dep="nsubj",
    user="userA",
    days=1.5,
    time=9,
    client=Client.WEB,
    label=0,
):
    meta = ExerciseMeta(
        user_id=user,
        countries=("US",),
        days=days,
        client=client,
        session=Session.LESSON,
        format=ExerciseFormat.REVERSE_TRANSLATE,
        time=time,
        prompt=None,
        extras=(),
    )
    return TokenInstance(
        instance_id=instance_id,
        token=token,
        part_of_speech=pos,
        morph_features=morph,
        dep_label=dep,
        dep_head=2,
        label=label,
        meta=meta,
        track=Track.EN_ES,
    )


def single_instance_dataset():
    return Dataset.from_instances(
        track=Track.EN_ES, instances=(make_instance(),), split=Split.TRAIN
    )


class TestBuildVocab:
    def test_single_instance_every_namespace_has_entry_and_oov(self):
        vocab = build_vocab(single_instance_dataset())
        for ns in NAMESPACES:
            assert vocab.sizes[ns] >= 2  # at least one real entry plus OOV
            assert len(vocab.maps[ns]) >= 1

    def test_rebuild_is_identical(self):
        rng = random.Random(41)
        ds = random_dataset(rng, n_exercises=20)
        a = build_vocab(ds)
        b = build_vocab(ds)
        assert a == b
        assert a.sha256() == b.sha256()

    def test_token_lowercased(self):
        vocab = build_vocab(single_instance_dataset())
        assert "yo" in vocab.maps["token"]
        assert "Yo" not in vocab.maps["token"]

    def test_empty_dataset_rejected(self):
        empty = Dataset.from_instances(track=Track.EN_ES, instances=(), split=Split.TRAIN)
        with pytest.raises(DataError, match="empty"):
            build_vocab(empty)

    def test_multiple_datasets_pool_counts(self):
        # strings are pooled across datasets and indexed by first occurrence
        # in dataset order; a string seen again keeps its first index
        a = Dataset.from_instances(
            track=Track.EN_ES, instances=(make_instance(),), split=Split.TRAIN
        )
        b = Dataset.from_instances(
            track=Track.EN_ES,
            instances=(
                make_instance(instance_id="efgh567801", token="Tu", user="userB"),
                make_instance(instance_id="efgh567802", token="yo"),
            ),
            split=Split.TRAIN,
        )
        ab, ba = build_vocab([a, b]), build_vocab([b, a])
        assert ab.maps["token"] == {"yo": 0, "tu": 1}
        assert ab.maps["user"] == {"userA": 0, "userB": 1}
        assert ba.maps["token"] == {"tu": 0, "yo": 1}
        assert ba.maps["user"] == {"userB": 0, "userA": 1}

    @pytest.mark.parametrize("track", list(Track))
    def test_equals_oracle_on_fixture_tracks(self, mini_dir, track):
        train = read_dataset(mini_dir / f"{track.value}.train.slam", track, Split.TRAIN)
        assert build_vocab(train).to_dict() == oracle_build_vocab([train])

    def test_equals_oracle_on_joint_tracks(self, mini_dir):
        joint = [
            read_dataset(mini_dir / f"{t.value}.train.slam", t, Split.TRAIN)
            for t in (Track.ES_EN, Track.FR_EN)
        ]
        assert build_vocab(joint).to_dict() == oracle_build_vocab(joint)

    def test_equals_oracle_on_every_fixture_file(self, mini_dir):
        files = [
            read_dataset(mini_dir / f"{t.value}.{split.value}.slam", t, split)
            for t in Track
            for split in (Split.TRAIN, Split.DEV)
        ]
        assert build_vocab(files).to_dict() == oracle_build_vocab(files)

    def test_equals_oracle_on_random_draws(self):
        rng = random.Random(4802)
        for _ in range(40):
            draws = []
            for _ in range(rng.randint(1, 3)):
                ds = random_dataset(rng, n_exercises=rng.randint(1, 6))
                # interleave exercises, and repeat tokens in another case
                # under metadata objects that already occurred
                instances = list(ds.instances)
                instances += [
                    dataclasses.replace(
                        inst, instance_id=f"{inst.instance_id}x", token=inst.token.swapcase()
                    )
                    for inst in rng.sample(instances, rng.randint(0, len(instances)))
                ]
                rng.shuffle(instances)
                draws.append(
                    Dataset.from_instances(track=ds.track, instances=instances, split=ds.split)
                )
            assert build_vocab(draws).to_dict() == oracle_build_vocab(draws)

    def test_sides_partition_the_namespaces(self):
        assert sorted(EXERCISE_NAMESPACES + KEY_NAMESPACES) == sorted(NAMESPACES)
        assert [ns for ns in NAMESPACES if ns in EXERCISE_NAMESPACES] == list(
            EXERCISE_NAMESPACES
        )

    def test_namespace_ranges_disjoint_and_cover_binary_block(self):
        rng = random.Random(42)
        vocab = build_vocab(random_dataset(rng, n_exercises=10))
        spans = sorted(
            (vocab.offsets[ns], vocab.offsets[ns] + vocab.sizes[ns]) for ns in NAMESPACES
        )
        assert spans[0][0] == 0
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end == start
        assert spans[-1][1] == vocab.total_dims - len(NUMERIC_FEATURES) == vocab.n_binary


class TestEncode:
    def test_unseen_token_maps_to_oov(self):
        vocab = build_vocab(single_instance_dataset())
        unseen = make_instance(instance_id="abcd123402", token="zebra")
        fv = encode(unseen, vocab)
        assert vocab.oov_index("token") in fv.indices

    def test_one_index_per_single_valued_namespace(self):
        ds = single_instance_dataset()
        vocab = build_vocab(ds)
        fv = encode(ds.instances[0], vocab)
        # 7 single-valued namespaces + 1 morph feature
        assert len(fv.indices) == 8

    def test_morph_features_each_active_and_deduped(self):
        inst = make_instance(morph=("Person=1", "Number=Sing", "Person=1"))
        ds = Dataset.from_instances(track=Track.EN_ES, instances=(inst,), split=Split.TRAIN)
        vocab = build_vocab(ds)
        fv = encode(inst, vocab)
        morph_hits = [
            i
            for i in fv.indices
            if vocab.offsets["morph"] <= i < vocab.offsets["morph"] + vocab.sizes["morph"]
        ]
        assert len(morph_hits) == 2

    def test_days_zero_encodes_to_zero(self):
        inst = make_instance(days=0.0)
        ds = Dataset.from_instances(track=Track.EN_ES, instances=(inst,), split=Split.TRAIN)
        vocab = build_vocab(ds)
        fv = encode(inst, vocab)
        assert dict(fv.numeric)[vocab.numeric_index("days")] == 0.0

    def test_time_clamped_to_sixty_seconds(self):
        inst = make_instance(time=600)
        ds = Dataset.from_instances(track=Track.EN_ES, instances=(inst,), split=Split.TRAIN)
        vocab = build_vocab(ds)
        fv = encode(inst, vocab)
        numeric = dict(fv.numeric)
        assert numeric[vocab.numeric_index("time")] == 1.0
        assert numeric[vocab.numeric_index("time_present")] == 1.0

    def test_missing_time_sets_presence_indicator_only(self):
        inst = make_instance(time=None)
        ds = Dataset.from_instances(track=Track.EN_ES, instances=(inst,), split=Split.TRAIN)
        vocab = build_vocab(ds)
        numeric = dict(encode(inst, vocab).numeric)
        assert numeric[vocab.numeric_index("time")] == 0.0
        assert numeric[vocab.numeric_index("time_present")] == 0.0

    def test_identical_instances_encode_identically(self):
        a = make_instance(instance_id="abcd123401")
        b = make_instance(instance_id="abcd123402")
        ds = Dataset.from_instances(track=Track.EN_ES, instances=(a, b), split=Split.TRAIN)
        vocab = build_vocab(ds)
        assert encode(a, vocab) == encode(b, vocab)

    def test_encode_is_pure(self):
        ds = single_instance_dataset()
        vocab = build_vocab(ds)
        first = encode(ds.instances[0], vocab)
        second = encode(ds.instances[0], vocab)
        assert first == second

    def test_indices_strictly_increasing_on_random_data(self):
        rng = random.Random(43)
        ds = random_dataset(rng, n_exercises=30)
        vocab = build_vocab(ds)
        for fv in encode_dataset(ds, vocab):
            assert all(b > a for a, b in zip(fv.indices, fv.indices[1:]))
            assert fv.indices[-1] < vocab.total_dims

    def test_feature_vector_rejects_unsorted_indices(self):
        with pytest.raises(DataError, match="strictly increasing"):
            FeatureVector(indices=(3, 3), numeric=())


class TestSerialization:
    def test_round_trip_preserves_vocabulary(self):
        rng = random.Random(44)
        vocab = build_vocab(random_dataset(rng, n_exercises=15))
        restored = Vocabulary.from_dict(json.loads(json.dumps(vocab.to_dict())))
        assert restored == vocab
        assert restored.sha256() == vocab.sha256()

    def test_unknown_format_version_rejected(self):
        vocab = build_vocab(single_instance_dataset())
        payload = vocab.to_dict()
        payload["format_version"] = 99
        with pytest.raises(DataError, match="format version"):
            Vocabulary.from_dict(payload)


class TestDense:
    def test_dense_matrix_matches_sparse(self):
        rng = random.Random(45)
        ds = random_dataset(rng, n_exercises=10)
        vocab = build_vocab(ds)
        fvs = encode_dataset(ds, vocab)
        X = to_dense(fvs, vocab)
        assert X.shape == (len(ds), vocab.total_dims)
        for row, fv in zip(X, fvs):
            numeric_dims = {dim for dim, _ in fv.numeric}
            for j, value in enumerate(row):
                if j in numeric_dims:
                    assert value == dict(fv.numeric)[j]
                elif j in fv.indices:
                    assert value == 1.0
                else:
                    assert value == 0.0

    def test_labels_array(self):
        rng = random.Random(46)
        ds = random_dataset(rng, n_exercises=5)
        y = labels_array(ds)
        assert y.dtype == np.float64
        assert set(np.unique(y)) <= {0.0, 1.0}

    def test_labels_array_rejects_unlabeled(self):
        rng = random.Random(47)
        ds = random_dataset(rng, n_exercises=3, labeled=False)
        with pytest.raises(DataError, match="unlabeled"):
            labels_array(ds)


def assert_rows_equal_encode(ds, vocab):
    """token_features must give, row for row, exactly what encode gives: the
    row's binary entries but its padding, sorted, are encode's indices (so
    none repeats), and its numerics are encode's values."""
    binary, numeric = token_features(ds, vocab)
    instances = ds.instances
    assert binary.shape[0] == len(instances)
    assert numeric.shape == (len(instances), len(NUMERIC_FEATURES))
    for i, inst in enumerate(instances):
        fv = encode(inst, vocab)
        active = binary[i][binary[i] != vocab.n_binary]
        assert tuple(sorted(active.tolist())) == fv.indices
        assert tuple(numeric[i].tolist()) == tuple(value for _dim, value in fv.numeric)
        assert [dim for dim, _ in fv.numeric] == [
            vocab.numeric_index(name) for name in NUMERIC_FEATURES
        ]


class TestEncodeRows:
    @pytest.mark.parametrize("track", list(Track))
    def test_equals_encode_on_fixture_tracks(self, mini_dir, track):
        train = read_dataset(mini_dir / f"{track.value}.train.slam", track, Split.TRAIN)
        dev = read_dataset(mini_dir / f"{track.value}.dev.slam", track, Split.DEV)
        vocab = build_vocab(train)
        assert_rows_equal_encode(train, vocab)
        assert_rows_equal_encode(dev, vocab)  # holds unseen strings

    def test_equals_encode_on_random_draws(self):
        rng = random.Random(4801)
        for _ in range(40):
            train = random_dataset(rng, n_exercises=rng.randint(1, 6))
            vocab = build_vocab(train)
            assert_rows_equal_encode(train, vocab)
            # a second draw: its users, tokens and morph sets are mostly OOV
            assert_rows_equal_encode(random_dataset(rng, n_exercises=4), vocab)

    def test_edge_instances(self):
        base = make_instance()
        vocab = build_vocab(
            Dataset.from_instances(track=Track.EN_ES, instances=(base,), split=Split.TRAIN)
        )
        variants = [
            dict(token="zzz", part_of_speech="XX", dep_label="yy"),  # OOV strings
            dict(morph_features=()),
            dict(morph_features=("Person=1", "Person=1")),
            dict(morph_features=("Case=Nom", "Mood=Ind", "Person=1")),  # two OOV
            dict(meta=dataclasses.replace(base.meta, time=None)),
            dict(meta=dataclasses.replace(base.meta, time=-4)),
            dict(meta=dataclasses.replace(base.meta, time=600)),
            dict(meta=dataclasses.replace(base.meta, time=60, user_id="unseen")),
            dict(token="YO"),  # lowercases onto the seen token
        ]
        edge = [
            dataclasses.replace(base, instance_id=f"e{k}", **change)
            for k, change in enumerate(variants)
        ]
        # a dataset's ids are distinct, so the reversed copies are renamed
        mirror = [
            dataclasses.replace(inst, instance_id=f"r{k}") for k, inst in enumerate(edge[::-1])
        ]
        # metadata objects alternate, so no run of shared metadata is reused
        assert_rows_equal_encode(
            Dataset.from_instances(Track.EN_ES, edge + [base] + mirror, Split.TRAIN), vocab
        )

    def test_empty_input(self):
        vocab = build_vocab(single_instance_dataset())
        empty = Dataset.from_instances(Track.EN_ES, (), Split.TRAIN)
        binary, numeric = token_features(empty, vocab)
        assert binary.shape[0] == 0 and binary.size == 0
        assert numeric.shape == (0, len(NUMERIC_FEATURES))
