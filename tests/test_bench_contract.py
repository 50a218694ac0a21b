"""The names and shapes the benchmark reads from the package.

``bench/tracing.py`` times a traced pass by wrapping the names in its
``WRAPS`` table, and reads absent whenever one of them disappears;
``bench/run.py`` calls ``Prediction`` and ``auc_rank`` directly and writes
every counter through ``json.dumps``. These tests read that table as it is
and fail on the package side when a refactor breaks one of those names.
"""

import importlib
import importlib.util
import json

import pytest

from slamaudit import metrics
from slamaudit.features import build_vocab
from slamaudit.slam_format import Split, Track, read_dataset

from conftest import REPO_ROOT


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", REPO_ROOT / "bench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPS = load_bench_module("tracing").WRAPS


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
