"""The names and shapes the benchmark reads from the package.

``bench/tracing.py`` times a traced pass by wrapping the names in its
``WRAPS`` table, and reads absent whenever one of them disappears;
``bench/run.py`` calls ``Prediction`` and ``auc_rank`` directly and writes
every counter through ``json.dumps``. These tests read that table and its
observers as they are, and fail on the package side when a refactor breaks
one of those names or a result shape an observer reads.
"""

import importlib
import importlib.util
import json
from collections import defaultdict

import pytest

from slamaudit import metrics
from slamaudit.fairness import group_audit
from slamaudit.features import build_vocab
from slamaudit.gbdt import GbdtConfig, load_model, predict_scores, save_model, train_gbdt
from slamaudit.grouping import Dimension, load_country_mapping, tag_instance
from slamaudit.multitask import MtConfig, load_mt_model, save_mt_model, train_multitask
from slamaudit.slam_format import Split, Track, join_labels, read_dataset, read_label_key

from conftest import REPO_ROOT


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", REPO_ROOT / "bench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = load_bench_module("tracing")
WRAPS = TRACING.WRAPS


@pytest.mark.parametrize(
    "module_name, attr", sorted({(m, a) for m, a, *_ in WRAPS}), ids=lambda v: v
)
def test_every_wrapped_name_resolves_to_a_callable(module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_total_dims_is_a_python_int(mini_dir):
    vocab = build_vocab(read_dataset(mini_dir / "en_es.train.slam", Track.EN_ES, Split.TRAIN))
    assert type(vocab.total_dims) is int
    json.dumps({"features.total_dims": vocab.total_dims})


def test_prediction_and_auc_rank_take_the_benchmark_arguments():
    preds = [
        metrics.Prediction("a01", 0.9, 1),
        metrics.Prediction("a02", 0.2, 0),
        metrics.Prediction("a03", 0.4, 1),
        metrics.Prediction("a04", 0.4, 0),
    ]
    assert metrics.auc_rank(preds) == pytest.approx(0.875)


def test_observers_read_real_results(mini_dir, tmp_path):
    """The traced pass's observers must fit what the package returns: a
    wrapper whose observer raises marks its counts absent, and a change to
    one of these result shapes has ended the benchmark without a result."""
    train = read_dataset(mini_dir / "en_es.train.slam", Track.EN_ES, Split.TRAIN)
    dev = join_labels(
        read_dataset(mini_dir / "en_es.dev.slam", Track.EN_ES, Split.DEV),
        read_label_key(mini_dir / "en_es.dev.key"),
    )
    vocab = build_vocab(train)
    model = train_gbdt(train, vocab, GbdtConfig(n_trees=2, max_depth=2))
    classification = load_country_mapping()
    preds = [
        metrics.Prediction(inst.instance_id, s, inst.label, tag_instance(inst, classification))
        for inst, s in zip(dev.instances, predict_scores(model, dev).tolist())
    ]
    report = group_audit(preds, Dimension.CLIENT, model="gbdt")
    counters = defaultdict(float)
    for observe, result in [
        (TRACING._rows, dev),
        (TRACING._vocab_dims, vocab),
        (TRACING._report, report),
        (TRACING._roc_points, metrics.roc_curve(preds)),
    ]:
        observe(counters, (), {}, result)
    assert counters["slam_format.rows"] == len(dev)
    assert counters["features.total_dims"] == vocab.total_dims
    assert counters["fairness.pairs"] == len(report.results) > 0
    assert counters["metrics.roc_points"] > 0
    json.dumps(counters)

    # the learner and model-file observers, given the arguments as cli passes them
    gbdt_config = GbdtConfig(n_trees=2, max_depth=2)
    mt_config = MtConfig(embed_dim=2, hidden_dim=2, epochs=1)
    mt_model = train_multitask([train], vocab, mt_config)
    gbdt_path, mt_path = tmp_path / "gbdt.json", tmp_path / "mt.json"
    saved = [save_model(model, gbdt_path), save_mt_model(mt_model, mt_path)]
    gbdt_payload, mt_payload = (json.loads(text) for text in saved)
    for observe, args, result, keys in [
        (TRACING._trees, (train, vocab, gbdt_config), model, ("gbdt.trees", "gbdt.nodes")),
        (TRACING._epochs, ([train], vocab, mt_config), mt_model, ("multitask.epochs",)),
        (TRACING._file_kb("gbdt.model_kb"), (model, gbdt_path), saved[0], ("gbdt.model_kb",)),
        (TRACING._file_kb("multitask.model_kb"), (mt_model, mt_path), saved[1],
         ("multitask.model_kb",)),
        (TRACING._loaded_kb("gbdt.model_kb"), (gbdt_path, gbdt_payload),
         load_model(gbdt_path, gbdt_payload), ("gbdt.model_kb",)),
        (TRACING._loaded_kb("multitask.model_kb"), (mt_path, mt_payload),
         load_mt_model(mt_path, mt_payload), ("multitask.model_kb",)),
    ]:
        counters = defaultdict(float)
        observe(counters, args, {}, result)
        assert sorted(counters) == sorted(keys)
        assert all(counters[key] > 0 for key in keys), counters
