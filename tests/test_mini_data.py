"""Checks on the bundled synthetic fixture under data/mini/."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from slamaudit.features import build_vocab, labels_array
from slamaudit.gbdt import GbdtConfig, train_gbdt, predict_scores
from slamaudit.metrics import Prediction, auc_trapezoid, roc_curve
from slamaudit.multitask import MtConfig, predict_mt_scores, train_multitask
from slamaudit.slam_format import (
    Client,
    Dataset,
    Split,
    Track,
    join_labels,
    read_dataset,
    read_label_key,
    serialize_dataset,
)

MINI = Path(__file__).resolve().parent.parent / "data" / "mini"

ALL_TRACKS = (Track.EN_ES, Track.ES_EN, Track.FR_EN)


def load_train(track):
    return read_dataset(MINI / f"{track.value}.train.slam", track, Split.TRAIN)


def load_dev(track):
    dev = read_dataset(MINI / f"{track.value}.dev.slam", track, Split.DEV)
    return join_labels(dev, read_label_key(MINI / f"{track.value}.dev.key"))


@pytest.mark.parametrize("track", ALL_TRACKS)
def test_files_parse_and_round_trip(track):
    for split, loader in ((Split.TRAIN, load_train),):
        ds = loader(track)
        assert len(ds) > 1000
        path = MINI / f"{track.value}.{split.value}.slam"
        assert serialize_dataset(ds) == path.read_text(encoding="utf-8")
    raw_dev = read_dataset(MINI / f"{track.value}.dev.slam", track, Split.DEV)
    path = MINI / f"{track.value}.dev.slam"
    assert serialize_dataset(raw_dev) == path.read_text(encoding="utf-8")
    assert all(inst.label is None for inst in raw_dev.instances)


def test_generator_writes_fixture_from_columns(tmp_path, monkeypatch):
    """The generator reproduces data/mini/ byte for byte, and neither its
    ``generate_track`` nor ``write_dataset`` builds a dataset's instances."""

    def refuse(dataset):
        raise AssertionError("the generator built the dataset's TokenInstance objects")

    monkeypatch.setattr(Dataset, "instances", property(refuse))
    path = MINI.parent.parent / "scripts" / "generate_mini_dataset.py"
    spec = importlib.util.spec_from_file_location("generate_mini_dataset", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    assert gen.main(["--out", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in MINI.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (MINI / name).read_bytes(), name


@pytest.mark.parametrize("track", ALL_TRACKS)
def test_dev_key_covers_every_instance(track):
    dev = load_dev(track)
    assert all(inst.label in (0, 1) for inst in dev.instances)
    rate = sum(inst.label for inst in dev.instances) / len(dev)
    assert 0.15 < rate < 0.55


@pytest.mark.parametrize("track", ALL_TRACKS)
def test_every_client_group_clears_audit_floor(track):
    dev = load_dev(track)
    counts = {c: 0 for c in Client}
    labels = {c: set() for c in Client}
    for inst in dev.instances:
        counts[inst.meta.client] += 1
        labels[inst.meta.client].add(inst.label)
    for client in Client:
        assert counts[client] >= 50, (track, client, counts)
        assert labels[client] == {0, 1}


def test_track_sizes_roughly_two_thousand():
    for track in ALL_TRACKS:
        total = len(load_train(track)) + len(load_dev(track))
        assert 1800 <= total <= 2300


def test_gbdt_defaults_reach_dev_auc_on_primary_track():
    train = load_train(Track.EN_ES)
    dev = load_dev(Track.EN_ES)
    vocab = build_vocab(train)
    model = train_gbdt(train, vocab, GbdtConfig())
    preds = [
        Prediction(inst.instance_id, float(s), inst.label)
        for inst, s in zip(dev.instances, predict_scores(model, dev))
    ]
    assert auc_trapezoid(roc_curve(preds)) >= 0.75


def test_joint_training_beats_solo_on_minority_slice():
    # es_en and fr_en share a cognate token pool; training the 200-instance
    # fr_en slice jointly with the full es_en track must transfer.
    es_train = load_train(Track.ES_EN)
    fr_train = load_train(Track.FR_EN)
    fr_dev = load_dev(Track.FR_EN)
    fr200 = Dataset.from_instances(
        track=Track.FR_EN, instances=fr_train.instances[:200], split=Split.TRAIN
    )
    vocab = build_vocab([es_train, fr200])
    config = MtConfig(
        embed_dim=12,
        hidden_dim=12,
        epochs=25,
        batch_size=32,
        learning_rate=0.3,
        l2=1e-4,
        seed=0,
    )
    y = labels_array(fr_dev)

    def dev_loss(model):
        s = np.clip(predict_mt_scores(model, fr_dev), 1e-12, 1.0 - 1e-12)
        return float(-(y * np.log(s) + (1.0 - y) * np.log(1.0 - s)).mean())

    solo = dev_loss(train_multitask([fr200], vocab, config))
    joint = dev_loss(train_multitask([es_train, fr200], vocab, config))
    assert joint < solo
