"""Fuzz `slamaudit predict` with damaged multitask and GBDT model files.

Each case deletes a key, replaces a value or truncates a list somewhere in a
valid model file. The command must either succeed or exit 1 with exactly one
`error:` line on stderr: never a traceback.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from slamaudit.cli import main

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def model_payload(workdir, mini_dir):
    config = workdir / "config.json"
    config.write_text(json.dumps({"embed_dim": 2, "hidden_dim": 2, "epochs": 1}))
    out = workdir / "mt.json"
    code = main(
        [
            "train",
            "--data", str(mini_dir / "es_en.train.slam"), str(mini_dir / "fr_en.train.slam"),
            "--track", "es_en", "fr_en",
            "--model", "multitask",
            "--config", str(config),
            "--out", str(out),
        ]
    )
    assert code == 0
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def gbdt_payload(workdir, mini_dir):
    config = workdir / "gbdt_config.json"
    config.write_text(json.dumps({"n_trees": 3, "max_depth": 3}))
    out = workdir / "gbdt.json"
    code = main(
        [
            "train",
            "--data", str(mini_dir / "es_en.train.slam"),
            "--track", "es_en",
            "--model", "gbdt",
            "--config", str(config),
            "--out", str(out),
        ]
    )
    assert code == 0
    return json.loads(out.read_text())


def damage(data, payload, top_keys=None):
    """Copy ``payload`` and damage one node below its top level, starting
    from a key drawn from ``top_keys`` (default: every key, uniformly)."""
    doc = copy.deepcopy(payload)
    key = data.draw(st.sampled_from(top_keys or sorted(doc)))
    parent, node = doc, doc[key]
    while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
        if isinstance(node, dict):
            key = data.draw(st.sampled_from(sorted(node)))
        else:
            key = data.draw(st.integers(0, len(node) - 1))
        parent, node = node, node[key]
    actions = ["delete", "replace"] + (["truncate"] if isinstance(node, list) and node else [])
    action = data.draw(st.sampled_from(actions))
    if action == "delete":
        del parent[key]
    elif action == "replace":
        parent[key] = data.draw(JSON_VALUES)
    else:
        parent[key] = node[: data.draw(st.integers(0, len(node) - 1))]
    return doc


def assert_predict_succeeds_or_fails_cleanly(doc, workdir, mini_dir):
    model = workdir / "damaged.json"
    model.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(
            [
                "predict",
                "--model", str(model),
                "--data", str(mini_dir / "es_en.dev.slam"),
                "--track", "es_en",
                "--out", str(workdir / "scores.csv"),
            ]
        )
    lines = err.getvalue().splitlines()
    assert code == 0 or (code == 1 and len(lines) == 1 and lines[0].startswith("error:")), (
        code,
        lines,
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_damaged_model_succeeds_or_fails_cleanly(data, model_payload, workdir, mini_dir):
    assert_predict_succeeds_or_fails_cleanly(damage(data, model_payload), workdir, mini_dir)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_damaged_gbdt_model_succeeds_or_fails_cleanly(data, gbdt_payload, workdir, mini_dir):
    # half of the draws start in the trees, where the nested arrays are
    top_keys = ["trees"] * (len(gbdt_payload) - 1) + sorted(set(gbdt_payload) - {"trees"})
    doc = damage(data, gbdt_payload, top_keys)
    assert_predict_succeeds_or_fails_cleanly(doc, workdir, mini_dir)
