"""A split's file order moves no score and no audit (ROADMAP item 4).

The dev exercise blocks and the label key's lines of each ``data/mini``
track are shuffled with a fixed seed. Every per-id score of a default GBDT
stays byte-equal, and so do the ``fairness.csv`` and ``accuracy.csv`` of
both audit dimensions for a default GBDT and for the default joint
multitask model. The multitask model's per-id scores are byte-equal on
es_en only; see ``_CHUNK_ROUNDING``.
"""

import random

import numpy as np
import pytest

from slamaudit.cli import main
from slamaudit.features import build_vocab
from slamaudit.gbdt import GbdtConfig, predict_scores, save_model, train_gbdt
from slamaudit.multitask import MtConfig, predict_mt_scores, save_mt_model, train_multitask
from slamaudit.slam_format import Split, Track, read_dataset

TRACKS = (Track.EN_ES, Track.ES_EN, Track.FR_EN)
SEED = 11


@pytest.fixture(scope="module")
def models(tmp_path_factory, mini_dir):
    """``(kind, track) -> (model, model file)``: a default GBDT per track,
    and the default joint multitask model of all three under each track."""
    out = tmp_path_factory.mktemp("models")
    trains = [read_dataset(mini_dir / f"{t.value}.train.slam", t, Split.TRAIN) for t in TRACKS]
    joint = train_multitask(trains, build_vocab(trains), MtConfig())
    save_mt_model(joint, out / "multitask.json")
    models = {}
    for track, train in zip(TRACKS, trains):
        gbdt = train_gbdt(train, build_vocab(train), GbdtConfig())
        save_model(gbdt, out / f"gbdt_{track.value}.json")
        models["gbdt", track] = gbdt, out / f"gbdt_{track.value}.json"
        models["multitask", track] = joint, out / "multitask.json"
    return models


def shuffled_split(mini_dir, track, out):
    """The track's dev file and label key written under ``out`` with the
    exercise blocks and the key lines in a seeded random order."""
    rng = random.Random(SEED)
    blocks = (mini_dir / f"{track.value}.dev.slam").read_text().rstrip("\n").split("\n\n")
    lines = (mini_dir / f"{track.value}.dev.key").read_text().splitlines()
    shuffled = rng.sample(blocks, len(blocks)), rng.sample(lines, len(lines))
    assert shuffled != (blocks, lines)
    data, key = out / "dev.slam", out / "dev.key"
    data.write_text("\n\n".join(shuffled[0]) + "\n")
    key.write_text("\n".join(shuffled[1]) + "\n")
    return data, key


def both_orders(mini_dir, track, tmp_path):
    """``(name, dev file, key file)`` in file order and shuffled."""
    dev, key = mini_dir / f"{track.value}.dev.slam", mini_dir / f"{track.value}.dev.key"
    return [("file", dev, key), ("shuffled", *shuffled_split(mini_dir, track, tmp_path))]


# The multitask logit ``a @ w`` is one matrix-vector product per 256-row
# scoring chunk, and a row's rounding depends on the chunk it falls in: with
# this shuffle one en_es and one fr_en dev row move by one ulp (5.6e-17).
_CHUNK_ROUNDING = pytest.mark.xfail(strict=True, reason="multitask logits round by chunk")


@pytest.mark.parametrize("kind, track", [
    pytest.param(kind, track, id=f"{kind}-{track.value}",
                 marks=[_CHUNK_ROUNDING] if kind == "multitask" and track != Track.ES_EN else [])
    for kind in ("gbdt", "multitask") for track in TRACKS
])
def test_dev_file_order_moves_no_score(tmp_path, mini_dir, models, kind, track):
    model, _path = models[kind, track]
    predict = predict_scores if kind == "gbdt" else predict_mt_scores
    by_id = []
    for _name, data, _key in both_orders(mini_dir, track, tmp_path):
        dev = read_dataset(data, track, Split.DEV)
        order = np.argsort(dev.ids)
        by_id.append((np.array(dev.ids)[order].tolist(), predict(model, dev)[order].tobytes()))
    assert by_id[0] == by_id[1]


@pytest.mark.parametrize("kind", ["gbdt", "multitask"])
@pytest.mark.parametrize("track", TRACKS, ids=[t.value for t in TRACKS])
def test_dev_file_order_moves_no_audit(tmp_path, mini_dir, models, kind, track):
    _model, path = models[kind, track]
    for name, data, key in both_orders(mini_dir, track, tmp_path):
        for dimension in ("client", "development"):
            argv = ["audit", "--model", str(path), "--data", str(data), "--track", track.value,
                    "--labels", str(key), "--dimension", dimension,
                    "--out", str(tmp_path / name / dimension)]
            assert main(argv) == 0
    for dimension in ("client", "development"):
        for csv in ("fairness.csv", "accuracy.csv"):
            want = (tmp_path / "file" / dimension / csv).read_bytes()
            assert (tmp_path / "shuffled" / dimension / csv).read_bytes() == want, csv
