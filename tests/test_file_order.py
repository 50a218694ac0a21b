"""A split's file order, and the rows scored alongside a row, move no score
and no audit (ROADMAP item 4).

The dev exercise blocks and the label key's lines of each ``data/mini``
track are shuffled with a fixed seed. Every per-id score of a default GBDT
and of the default joint multitask model stays byte-equal, and so do the
``fairness.csv`` and ``accuracy.csv`` of both audit dimensions. A dev split
scored whole, one exercise at a time, or as a 257-row prefix gives each row
the same score bytes too.
"""

import random

import numpy as np
import pytest

from slamaudit.cli import main
from slamaudit.features import build_vocab
from slamaudit.gbdt import GbdtConfig, predict_scores, save_model, train_gbdt
from slamaudit.multitask import MtConfig, predict_mt_scores, save_mt_model, train_multitask
from slamaudit.slam_format import Dataset, Split, Track, read_dataset

TRACKS = (Track.EN_ES, Track.ES_EN, Track.FR_EN)
SEED = 11
MODELS = [pytest.param(kind, track, id=f"{kind}-{track.value}")
          for kind in ("gbdt", "multitask") for track in TRACKS]


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


@pytest.mark.parametrize("kind, track", MODELS)
def test_dev_file_order_moves_no_score(tmp_path, mini_dir, models, kind, track):
    model, _path = models[kind, track]
    predict = predict_scores if kind == "gbdt" else predict_mt_scores
    by_id = []
    for _name, data, _key in both_orders(mini_dir, track, tmp_path):
        dev = read_dataset(data, track, Split.DEV)
        order = np.argsort(dev.ids)
        by_id.append((np.array(dev.ids)[order].tolist(), predict(model, dev)[order].tobytes()))
    assert by_id[0] == by_id[1]


def scores_by_id(predict, model, datasets):
    """``id -> score bytes`` over the rows of ``datasets``, each dataset
    scored in one call."""
    return {
        id_: score.tobytes()
        for ds in datasets for id_, score in zip(ds.ids, predict(model, ds))
    }


@pytest.mark.parametrize("kind, track", MODELS)
def test_score_depends_only_on_its_row(mini_dir, models, kind, track):
    """Scored whole, one exercise at a time, and as a 257-row prefix (whose
    last multitask chunk is one row), every row keeps its score bytes."""
    model, _path = models[kind, track]
    predict = predict_scores if kind == "gbdt" else predict_mt_scores
    dev = read_dataset(mini_dir / f"{track.value}.dev.slam", track, Split.DEV)
    instances = dev.instances
    assert len(instances) > 257
    by_exercise = {}
    for e, inst in zip(dev.exercise, instances):
        by_exercise.setdefault(e, []).append(inst)
    exercises = [Dataset.from_instances(track, insts, Split.DEV)
                 for insts in by_exercise.values()]
    prefix = Dataset.from_instances(track, instances[:257], Split.DEV)
    whole = scores_by_id(predict, model, [dev])
    assert scores_by_id(predict, model, exercises) == whole
    assert scores_by_id(predict, model, [prefix]) == {id_: whole[id_] for id_ in prefix.ids}


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
