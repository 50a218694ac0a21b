"""End-to-end command tests against the bundled fixture."""

import argparse
import hashlib
import json
import os
import re
import shlex
import stat
import threading
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from slamaudit.cli import build_parser, main
from slamaudit.errors import DataError
from slamaudit.gbdt import load_model, predict_scores
from slamaudit.grouping import (
    Development,
    Dimension,
    group_codes,
    load_country_mapping,
    parse_country_mapping,
    tag_instance,
)
from slamaudit.manifest import read_manifest
from slamaudit.multitask import load_mt_model
from slamaudit.metrics import Prediction, auc_rank, f1_at_threshold
from slamaudit.slam_format import (
    Dataset,
    Split,
    Track,
    join_labels,
    read_dataset,
    read_label_key,
)
from slamaudit.validation import json_text

from conftest import REPO_ROOT

EN_TRAIN = "data/mini/en_es.train.slam"
EN_DEV = "data/mini/en_es.dev.slam"
EN_KEY = "data/mini/en_es.dev.key"


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def gbdt_model(tmp_path_factory, mini_dir):
    out = tmp_path_factory.mktemp("model") / "gbdt_en_es.json"
    code = run(
        [
            "train",
            "--data", str(mini_dir / "en_es.train.slam"),
            "--track", "en_es",
            "--model", "gbdt",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def fast_mt_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "mt.json"
    path.write_text(json.dumps({"embed_dim": 4, "hidden_dim": 4, "epochs": 1}))
    return path


@pytest.fixture(scope="module")
def mt_model(tmp_path_factory, mini_dir, fast_mt_config):
    out = tmp_path_factory.mktemp("model") / "mt_es_fr.json"
    code = run(
        [
            "train",
            "--data",
            str(mini_dir / "es_en.train.slam"),
            str(mini_dir / "fr_en.train.slam"),
            "--track", "es_en", "fr_en",
            "--model", "multitask",
            "--config", str(fast_mt_config),
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def predict_error_lines(model, data, track, out, capsys):
    """Run predict; return (exit code, stderr lines)."""
    code = run(
        ["predict", "--model", str(model), "--data", str(data), "--track", track,
         "--out", str(out)]
    )
    return code, capsys.readouterr().err.splitlines()


class TestTrain:
    def test_writes_model_and_manifest(self, gbdt_model):
        assert gbdt_model.exists()
        sidecar = Path(str(gbdt_model) + ".manifest.json")
        manifest = json.loads(sidecar.read_text())
        assert manifest["track"] == "en_es"
        assert manifest["model_kind"] == "gbdt"
        assert manifest["split"] == "train"
        assert set(manifest["config_hashes"]) == {"model", "model_config", "vocab"}
        assert manifest["config_hashes"]["model"] == hashlib.sha256(
            gbdt_model.read_bytes()
        ).hexdigest()
        assert len(manifest["dataset_hashes"]) == 1

    def test_same_seed_is_byte_identical(self, tmp_path, mini_dir, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert run(
                [
                    "train",
                    "--data", str(mini_dir / "fr_en.train.slam"),
                    "--track", "fr_en",
                    "--model", "gbdt",
                    "--config", str(self._small_config(tmp_path)),
                    "--out", str(out),
                ]
            ) == 0
            outs.append(out)
        assert outs[0].read_bytes() == outs[1].read_bytes()
        a = Path(str(outs[0]) + ".manifest.json").read_bytes()
        b = Path(str(outs[1]) + ".manifest.json").read_bytes()
        assert a == b

    @staticmethod
    def _small_config(tmp_path):
        path = tmp_path / "small_gbdt.json"
        if not path.exists():
            path.write_text(json.dumps({"n_trees": 5, "max_depth": 3}))
        return path

    def test_multitask_joint_model_has_two_heads(
        self, tmp_path, mini_dir, fast_mt_config
    ):
        out = tmp_path / "mt.json"
        code = run(
            [
                "train",
                "--data",
                str(mini_dir / "es_en.train.slam"),
                str(mini_dir / "fr_en.train.slam"),
                "--track", "es_en", "fr_en",
                "--model", "multitask",
                "--config", str(fast_mt_config),
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "multitask"
        assert sorted(payload["heads"]) == ["es_en", "fr_en"]
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["track"] == "es_en,fr_en"

    def test_missing_data_file_names_path(self, tmp_path, capsys):
        code = run(
            [
                "train",
                "--data", "data/mini/no_such_track.train.slam",
                "--track", "en_es",
                "--model", "gbdt",
                "--out", str(tmp_path / "x.json"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "no_such_track.train.slam" in err

    def test_mismatched_data_track_counts(self, tmp_path, mini_dir, capsys):
        code = run(
            [
                "train",
                "--data", str(mini_dir / "en_es.train.slam"),
                "--track", "en_es", "fr_en",
                "--model", "multitask",
                "--out", str(tmp_path / "x.json"),
            ]
        )
        assert code == 1
        assert "counts must match" in capsys.readouterr().err

    @pytest.mark.parametrize("days", ["nan", "inf", "-inf"])
    def test_non_finite_days_rejected(self, tmp_path, mini_dir, capsys, days):
        data = tmp_path / "train.slam"
        text = (mini_dir / "en_es.train.slam").read_text()
        data.write_text(text.replace("days:1.645 ", f"days:{days} ", 1))
        code = run(
            [
                "train",
                "--data", str(data),
                "--track", "en_es",
                "--model", "gbdt",
                "--out", str(tmp_path / "x.json"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "non-finite days" in err[0]

    @pytest.mark.parametrize(
        "model, payload, key",
        [
            ("gbdt", {"n_tree": 5}, "n_tree"),
            ("gbdt", {"n_trees": "5"}, "n_trees"),
            ("gbdt", {"learning_rate": True}, "learning_rate"),
            ("multitask", {"epoch": 1}, "epoch"),
            ("multitask", {"embed_dim": 4.0}, "embed_dim"),
        ],
    )
    def test_bad_config_key_named(self, tmp_path, mini_dir, capsys, model, payload, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(payload))
        code = run(
            [
                "train",
                "--data", str(mini_dir / "en_es.train.slam"),
                "--track", "en_es",
                "--model", model,
                "--config", str(config),
                "--out", str(tmp_path / "x.json"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert repr(key) in err[0]
        assert not (tmp_path / "x.json").exists()


    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    @pytest.mark.parametrize("model, key", [("gbdt", "l2_leaf_reg"), ("multitask", "l2")])
    def test_non_finite_l2_rejected(self, tmp_path, mini_dir, capsys, model, key, value):
        config = tmp_path / "config.json"
        config.write_text(f'{{"{key}": {value}}}')
        argv = ["train", "--data", str(mini_dir / "en_es.train.slam"), "--track", "en_es",
                "--model", model, "--config", str(config), "--out", str(tmp_path / "x.json")]
        assert error_lines(argv, capsys) == [f"error: {key} must be finite and >= 0"]
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("config, seed", [(None, "-1"), ('{"seed": -3}', None)],
                             ids=["flag", "config"])
    @pytest.mark.parametrize("model", ["gbdt", "multitask"])
    def test_negative_seed_rejected(self, tmp_path, mini_dir, capsys, model, config, seed):
        argv = ["train", "--data", str(mini_dir / "en_es.train.slam"), "--track", "en_es",
                "--model", model, "--out", str(tmp_path / "x.json")]
        if config is not None:
            (tmp_path / "config.json").write_text(config)
            argv += ["--config", str(tmp_path / "config.json")]
        if seed is not None:
            argv += ["--seed", seed]
        assert error_lines(argv, capsys) == ["error: seed must be >= 0"]
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("key", ["embed_dim", "hidden_dim"])
    def test_unallocatable_multitask_config(self, tmp_path, mini_dir, capsys, key):
        """numpy refuses a 2**62-wide parameter array before allocating any of it."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: 2**62}))
        argv = ["train", "--data", str(mini_dir / "en_es.train.slam"), "--track", "en_es",
                "--model", "multitask", "--config", str(config),
                "--out", str(tmp_path / "x.json")]
        shape = (127, 2**62) if key == "embed_dim" else (16, 2**62)
        assert error_lines(argv, capsys) == [
            f"error: cannot allocate multitask parameters of shape {shape}; "
            "lower embed_dim or hidden_dim"
        ]
        assert not (tmp_path / "x.json").exists()
        assert not (tmp_path / "x.json.manifest.json").exists()


class TestPredict:
    def test_scores_csv(self, tmp_path, gbdt_model, mini_dir):
        out = tmp_path / "scores.csv"
        code = run(
            [
                "predict",
                "--model", str(gbdt_model),
                "--data", str(mini_dir / "en_es.dev.slam"),
                "--track", "en_es",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "instance_id,score"
        assert len(lines) == 515
        for line in lines[1:]:
            _, score = line.split(",")
            assert 0.0 < float(score) < 1.0


    @pytest.mark.parametrize("epoch", ["abc", "1.5", "99999999999999999999"])
    def test_unusable_source_date_epoch_rejected(
        self, tmp_path, gbdt_model, mini_dir, capsys, monkeypatch, epoch
    ):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        code = run(
            [
                "predict",
                "--model", str(gbdt_model),
                "--data", str(mini_dir / "en_es.dev.slam"),
                "--track", "en_es",
                "--out", str(tmp_path / "scores.csv"),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert "SOURCE_DATE_EPOCH" in err[0]

    @pytest.mark.parametrize("kind", ["gbdt", "multitask"])
    def test_unknown_model_config_key_named(
        self, tmp_path, gbdt_model, mt_model, mini_dir, capsys, kind
    ):
        source = gbdt_model if kind == "gbdt" else mt_model
        payload = json.loads(source.read_text())
        payload["config"]["n_tree"] = 5
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        code, err = predict_error_lines(
            model, mini_dir / "es_en.dev.slam", "es_en", tmp_path / "s.csv", capsys
        )
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:")
        assert "'n_tree'" in err[0]

    @pytest.mark.parametrize("version", [2, "1", None], ids=["2", "'1'", "missing"])
    @pytest.mark.parametrize("kind", ["gbdt", "multitask"])
    def test_unsupported_model_format_version(self, tmp_path, gbdt_model, mt_model, kind,
                                              version):
        source, load = (gbdt_model, load_model) if kind == "gbdt" else (mt_model, load_mt_model)
        payload = json.loads(source.read_text())
        if version is None:
            del payload["format_version"]
        else:
            payload["format_version"] = version
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="^unsupported model format version"):
            load(model)

    @pytest.mark.parametrize("version", [True, 1.0, "1", 2, None],
                             ids=["true", "1.0", "'1'", "2", "missing"])
    @pytest.mark.parametrize("where", ["gbdt", "multitask", "vocabulary", "manifest"])
    def test_format_version_must_be_the_int_1(self, tmp_path, gbdt_model, mt_model, mini_dir,
                                              capsys, where, version):
        """A model file, its vocabulary and a manifest sidecar each hold
        ``format_version`` 1, an int: a bool, float or string equal to it is
        refused like another version or a missing one."""

        def set_version(payload):
            if version is None:
                del payload["format_version"]
            else:
                payload["format_version"] = version

        source, track = (mt_model, "es_en") if where == "multitask" else (gbdt_model, "en_es")
        model = tmp_path / "model.json"
        payload = json.loads(source.read_text())
        if where in ("gbdt", "multitask"):
            set_version(payload)
        elif where == "vocabulary":
            set_version(payload["vocab"])
        model.write_text(json.dumps(payload))
        if where == "manifest":
            manifest = json.loads(Path(str(source) + ".manifest.json").read_text())
            set_version(manifest)
            Path(str(model) + ".manifest.json").write_text(json.dumps(manifest))
        code, err = predict_error_lines(
            model, mini_dir / f"{track}.dev.slam", track, tmp_path / "s.csv", capsys
        )
        what = where if where in ("vocabulary", "manifest") else "model"
        assert code == 1
        assert err == [f"error: unsupported {what} format version {version!r}"]
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("numeric", [["x"], ["time_present", "time", "days"], None],
                             ids=["x", "reordered", "missing"])
    @pytest.mark.parametrize("kind", ["gbdt", "multitask"])
    def test_vocabulary_numeric_features_must_be_the_three(
        self, tmp_path, gbdt_model, mt_model, mini_dir, capsys, kind, numeric
    ):
        """A vocabulary's ``numeric_features`` names the numeric columns the
        model was trained on: any other list, or none, is refused."""
        source, track = (gbdt_model, "en_es") if kind == "gbdt" else (mt_model, "es_en")
        payload = json.loads(source.read_text())
        if numeric is None:
            del payload["vocab"]["numeric_features"]
        else:
            payload["vocab"]["numeric_features"] = numeric
        model = tmp_path / "model.json"  # no sidecar, so no model hash to check
        model.write_text(json.dumps(payload))
        code, err = predict_error_lines(
            model, mini_dir / f"{track}.dev.slam", track, tmp_path / "s.csv", capsys
        )
        assert code == 1
        assert err == ["error: vocabulary lacks numeric_features" if numeric is None else
                       "error: vocabulary numeric_features must be "
                       f"['days', 'time', 'time_present'], got {numeric!r}"]
        assert not (tmp_path / "s.csv").exists()

    def test_model_file_not_an_object(self, tmp_path, mini_dir, capsys):
        model = tmp_path / "model.json"
        model.write_text("[1, 2]")
        code, err = predict_error_lines(
            model, mini_dir / "es_en.dev.slam", "es_en", tmp_path / "s.csv", capsys
        )
        assert code == 1
        assert err == [f"error: model file {model} must hold a JSON object"]

    def test_gbdt_tree_with_a_shared_node_rejected(self, tmp_path, gbdt_model, mini_dir,
                                                   capsys):
        payload = json.loads(gbdt_model.read_text())
        tree = payload["trees"][0]
        tree["right"][0] = child = tree["left"][0]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        code, err = predict_error_lines(
            model, mini_dir / "es_en.dev.slam", "es_en", tmp_path / "s.csv", capsys
        )
        assert code == 1
        assert err == [f"error: model file {model}: tree 0: node {child} is the child of "
                       "2 nodes, not of one"]
        assert not (tmp_path / "s.csv").exists()

    def test_manifest_sidecar_not_an_object(self, tmp_path, mt_model, mini_dir, capsys):
        model = tmp_path / "model.json"
        model.write_bytes(mt_model.read_bytes())
        Path(str(model) + ".manifest.json").write_text("[1, 2]")
        code, err = predict_error_lines(
            model, mini_dir / "es_en.dev.slam", "es_en", tmp_path / "s.csv", capsys
        )
        assert code == 1
        assert len(err) == 1 and "manifest file" in err[0]

    def test_multitask_scores_byte_identical_across_runs(self, tmp_path, mt_model, mini_dir):
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            assert run(
                ["predict", "--model", str(mt_model), "--data",
                 str(mini_dir / "fr_en.dev.slam"), "--track", "fr_en", "--out", str(out)]
            ) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestEvaluate:
    def test_report_fields(self, tmp_path, gbdt_model, mini_dir, capsys):
        out = tmp_path / "eval.json"
        code = run(
            [
                "evaluate",
                "--model", str(gbdt_model),
                "--data", str(mini_dir / "en_es.dev.slam"),
                "--track", "en_es",
                "--labels", str(mini_dir / "en_es.dev.key"),
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 514
        assert payload["auc"] > 0.75
        assert 0.0 <= payload["f1"] <= 1.0
        assert payload["manifest"]["model_kind"] == "gbdt"
        assert sorted(payload["manifest"]["dataset_hashes"]) == [
            str(mini_dir / "en_es.dev.key"),
            str(mini_dir / "en_es.dev.slam"),
        ]
        assert "auc=" in capsys.readouterr().out

    def test_unlabeled_data_without_key_fails(self, tmp_path, gbdt_model, mini_dir, capsys):
        code = run(
            [
                "evaluate",
                "--model", str(gbdt_model),
                "--data", str(mini_dir / "en_es.dev.slam"),
                "--track", "en_es",
                "--out", str(tmp_path / "never.json"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "never.json").exists()

    def test_readme_example_prints_documented_line(self, gbdt_model, capsys, monkeypatch):
        # the README's evaluate example, run from the repository root on a
        # model trained as its train example does
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        command, expected = re.search(
            r"^(slamaudit evaluate [^`]*?)\n# (n=[^\n]*)$", readme, re.M
        ).groups()
        argv = shlex.split(command.replace("\\\n", " "))[1:]
        argv[argv.index("--model") + 1] = str(gbdt_model)
        monkeypatch.chdir(REPO_ROOT)
        assert run(argv) == 0
        assert capsys.readouterr().out.splitlines() == [expected]


@pytest.mark.parametrize("command", ["evaluate", "audit"])
def test_unlabeled_error_names_the_first_row_and_the_key_option(
    tmp_path, gbdt_model, mini_dir, capsys, command
):
    data = mini_dir / "en_es.dev.slam"
    first = next(line.split()[0] for line in data.read_text().splitlines() if line[:1] not in "#")
    extra = ["--dimension", "client"] if command == "audit" else []
    argv = [command, "--model", str(gbdt_model), "--data", str(data), "--track", "en_es"]
    assert run([*argv, *extra, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: unlabeled instance {first!r} (and possibly more); "
        "give the split's label key with --labels"
    ]


def error_lines(argv, capsys):
    """Run a command that must fail; return its stderr lines."""
    code = run(argv)
    lines = capsys.readouterr().err.splitlines()
    assert code == 1, lines
    assert sum(line.startswith("error:") for line in lines) == 1, lines
    assert lines[-1].startswith("error:"), lines
    return lines


@pytest.mark.parametrize(
    "role, what",
    [("data", "SLAM file"), ("labels", "label key"), ("mapping", "country mapping")],
)
def test_bad_utf8_is_one_error_line_naming_the_file(
    tmp_path, gbdt_model, mini_dir, capsys, role, what
):
    """A byte that is not UTF-8, halfway into a SLAM file, a label key or a
    country mapping, fails the command that reads it without a traceback."""
    source = {
        "data": mini_dir / "en_es.train.slam",
        "labels": mini_dir / "en_es.dev.key",
        "mapping": REPO_ROOT / "src" / "slamaudit" / "data" / "country_mapping.txt",
    }[role]
    raw = source.read_bytes()
    cut = raw.index(b"\n", len(raw) // 2) + 1
    bad = tmp_path / source.name
    bad.write_bytes(raw[:cut] + b"\xff" + raw[cut:])
    dev = ["--model", str(gbdt_model), "--data", str(mini_dir / "en_es.dev.slam"),
           "--track", "en_es"]
    argv = {
        "data": ["train", "--data", str(bad), "--track", "en_es", "--model", "gbdt",
                 "--out", str(tmp_path / "never.json")],
        "labels": ["evaluate", *dev, "--labels", str(bad)],
        "mapping": ["audit", *dev, "--labels", str(mini_dir / "en_es.dev.key"),
                    "--dimension", "development", "--country-mapping", str(bad),
                    "--out", str(tmp_path / "never")],
    }[role]
    assert error_lines(argv, capsys) == [
        f"error: cannot read {what} {bad}: not UTF-8 text (invalid start byte)"
    ]
    assert not any(p.name.startswith("never") for p in tmp_path.iterdir())


@pytest.mark.parametrize("role, what", [
    ("model", "model file"), ("config", "config file"), ("sidecar", "manifest file"),
])
def test_deeply_nested_json_is_one_error_line_naming_the_file(
    tmp_path, gbdt_model, mini_dir, capsys, role, what
):
    """A model file, a config file or a manifest sidecar nested deeper than
    the JSON parser's recursion limit fails the command that reads it with
    one error line naming the file, and the command writes nothing."""
    nested = "[" * 100_000 + "]" * 100_000
    model = tmp_path / "model.json"
    model.write_bytes(gbdt_model.read_bytes())
    bad = {"model": model, "config": tmp_path / "config.json",
           "sidecar": tmp_path / "model.json.manifest.json"}[role]
    bad.write_text(nested)
    if role == "config":
        argv = ["train", "--data", str(mini_dir / "en_es.train.slam"), "--track", "en_es",
                "--model", "gbdt", "--config", str(bad), "--out", str(tmp_path / "never.json")]
    else:
        argv = ["predict", "--model", str(model), "--data", str(mini_dir / "en_es.dev.slam"),
                "--track", "en_es", "--out", str(tmp_path / "never.csv")]
    before = sorted(tmp_path.iterdir())
    [line] = error_lines(argv, capsys)
    assert line.startswith(f"error: cannot read {what} {bad}: maximum recursion depth exceeded")
    assert sorted(tmp_path.iterdir()) == before


class TestOptionChecks:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.01", "1.5"])
    @pytest.mark.parametrize("command", ["evaluate", "audit"])
    def test_bad_threshold_rejected(self, tmp_path, gbdt_model, mini_dir, capsys, command, value):
        argv = [
            command,
            "--model", str(gbdt_model),
            "--data", str(mini_dir / "en_es.dev.slam"),
            "--track", "en_es",
            "--labels", str(mini_dir / "en_es.dev.key"),
            f"--threshold={value}",
            "--out", str(tmp_path / "never"),
        ]
        if command == "audit":
            argv += ["--dimension", "client"]
        assert error_lines(argv, capsys) == [
            f"error: --threshold must be a finite number in [0, 1], got {float(value)!r}"
        ]
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_bad_min_group_size_rejected(self, tmp_path, gbdt_model, mini_dir, capsys, value):
        lines = error_lines(
            [
                "audit",
                "--model", str(gbdt_model),
                "--data", str(mini_dir / "en_es.dev.slam"),
                "--track", "en_es",
                "--labels", str(mini_dir / "en_es.dev.key"),
                "--dimension", "client",
                "--min-group-size", value,
                "--out", str(tmp_path / "never"),
            ],
            capsys,
        )
        assert lines == [f"error: --min-group-size must be at least 1, got {value}"]

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"--bogus": ""}, "unrecognized arguments: --bogus"),
            (
                {"--dimension": "country"},
                "argument --dimension: invalid choice: 'country' "
                "(choose from 'client', 'development')",
            ),
            ({"--dimension": None}, "the following arguments are required: --dimension"),
            ({"--threshold": "abc"}, "argument --threshold: invalid float value: 'abc'"),
            ({"--threshold": "-inf"}, "argument --threshold: expected one argument"),
        ],
        ids=["unknown-option", "bad-choice", "missing-required", "threshold-abc",
             "threshold-minus-inf"],
    )
    def test_rejected_command_line_is_one_error_line(
        self, tmp_path, gbdt_model, mini_dir, capsys, change, message
    ):
        options = {
            "--model": str(gbdt_model),
            "--data": str(mini_dir / "en_es.dev.slam"),
            "--track": "en_es",
            "--labels": str(mini_dir / "en_es.dev.key"),
            "--dimension": "client",
            "--out": str(tmp_path / "never"),
            **change,
        }
        argv = ["audit"]
        for option, value in options.items():
            if value is not None:
                argv += [option, value] if value else [option]
        assert error_lines(argv, capsys) == [f"error: {message}"]
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "never").exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["audit", "-h"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: slamaudit audit")

    @pytest.mark.parametrize("value", ["0", "1"])
    def test_threshold_bounds_accepted(self, gbdt_model, mini_dir, value):
        assert run(
            [
                "evaluate",
                "--model", str(gbdt_model),
                "--data", str(mini_dir / "en_es.dev.slam"),
                "--track", "en_es",
                "--labels", str(mini_dir / "en_es.dev.key"),
                "--threshold", value,
            ]
        ) == 0


@pytest.fixture
def key_with_extra_entry(tmp_path, mini_dir):
    key = tmp_path / "en_es.dev.key"
    key.write_text((mini_dir / "en_es.dev.key").read_text() + "zzzzzzzz0001 1\n")
    return key


class TestWarnings:
    WARNING = "warning: label key has 1 entries not present in the dataset"

    def test_success_prints_warning_lines_only(
        self, gbdt_model, mini_dir, capsys, key_with_extra_entry
    ):
        argv = [
            "evaluate",
            "--model", str(gbdt_model),
            "--data", str(mini_dir / "en_es.dev.slam"),
            "--track", "en_es",
            "--labels", str(key_with_extra_entry),
        ]
        for _ in range(2):  # a second main() in one process prints it once too
            assert run(argv) == 0
            assert capsys.readouterr().err.splitlines() == [self.WARNING]

    def test_failure_ends_with_the_only_error_line(
        self, tmp_path, gbdt_model, mini_dir, capsys, key_with_extra_entry
    ):
        lines = error_lines(
            [
                "audit",
                "--model", str(gbdt_model),
                "--data", str(mini_dir / "en_es.dev.slam"),
                "--track", "en_es",
                "--labels", str(key_with_extra_entry),
                "--dimension", "client",
                "--min-group-size", "100000",
                "--out", str(tmp_path / "never"),
            ],
            capsys,
        )
        assert lines[0] == self.WARNING
        assert lines[1].startswith("error: fewer than two valid groups")
        assert len(lines) == 2


@pytest.fixture(scope="module")
def audit_dir(tmp_path_factory, gbdt_model, mini_dir):
    out = tmp_path_factory.mktemp("audit") / "client"
    code = run(
        [
            "audit",
            "--model", str(gbdt_model),
            "--data", str(mini_dir / "en_es.dev.slam"),
            "--track", "en_es",
            "--labels", str(mini_dir / "en_es.dev.key"),
            "--dimension", "client",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


class TestAudit:
    @pytest.mark.parametrize("track", list(Track))
    def test_group_tags_equal_per_token_tags(self, mini_dir, track):
        """The audit's per-exercise group codes put every token, train and
        dev, in the group its own ``tag_instance`` names."""
        for split in (Split.TRAIN, Split.DEV):
            ds = read_dataset(mini_dir / f"{track.value}.{split.value}.slam", track, split)
            for mapping in (load_country_mapping(), parse_country_mapping("US developed\n", "x")):
                tags = [tag_instance(inst, mapping) for inst in ds.instances]
                for dimension in Dimension:
                    values = [
                        (t.client if dimension is Dimension.CLIENT else t.development).value
                        for t in tags
                    ]
                    codes, names = group_codes(ds, mapping, dimension)
                    assert list(names) == sorted(set(values) - {Development.UNKNOWN.value})
                    assert [names[c] if c >= 0 else "unknown" for c in codes.tolist()] == values

    def test_exactly_three_pairs_and_plots(self, audit_dir):
        fairness = (audit_dir / "fairness.csv").read_text().splitlines()
        assert fairness[0] == "group_1,group_2,track,model,abroca"
        pairs = [tuple(line.split(",")[:2]) for line in fairness[1:]]
        assert pairs == [("android", "ios"), ("android", "web"), ("ios", "web")]
        svgs = sorted(p.name for p in audit_dir.glob("*.svg"))
        assert svgs == [
            "roc_client_android_vs_ios.svg",
            "roc_client_android_vs_web.svg",
            "roc_client_ios_vs_web.svg",
        ]

    def test_svgs_are_well_formed(self, audit_dir):
        for path in audit_dir.glob("*.svg"):
            root = ET.fromstring(path.read_text())
            assert root.tag.endswith("svg")

    def test_report_embeds_manifest_and_accuracy(self, audit_dir):
        payload = json.loads((audit_dir / "report.json").read_text())
        assert payload["manifest"]["model_kind"] == "gbdt"
        assert payload["fairness"]["dimension"] == "client"
        assert len(payload["fairness"]["results"]) == 3
        groups = [row["group"] for row in payload["accuracy"]["groups"]]
        assert groups == ["android", "ios", "web"]
        acc_lines = (audit_dir / "accuracy.csv").read_text().splitlines()
        assert acc_lines[0] == "group,track,model,n,auc,f1"
        assert len(acc_lines) == 4

    def test_accuracy_rows_match_per_group_recomputation(
        self, audit_dir, gbdt_model, mini_dir, tmp_path
    ):
        # n, AUC (by the rank route) and F1 of each audited client group,
        # recomputed from the model's scores without going through the audit:
        # at the defaults, and at threshold 0.3 with a minimum group size of
        # 100, which skips web (73 tokens)
        dropped = tmp_path / "min100"
        assert run(["audit", "--model", str(gbdt_model),
                    "--data", str(mini_dir / "en_es.dev.slam"), "--track", "en_es",
                    "--labels", str(mini_dir / "en_es.dev.key"), "--dimension", "client",
                    "--threshold", "0.3", "--min-group-size", "100", "--out", str(dropped)]) == 0
        dev = join_labels(
            read_dataset(mini_dir / "en_es.dev.slam", Track.EN_ES, Split.DEV),
            read_label_key(mini_dir / "en_es.dev.key"),
        )
        scores = predict_scores(load_model(gbdt_model), dev).tolist()
        groups = {}
        for inst, score in zip(dev.instances, scores):
            groups.setdefault(inst.meta.client.value, []).append(
                Prediction(inst.instance_id, score, inst.label)
            )
        assert len(groups["web"]) == 73
        for out, threshold, audited in ((audit_dir, 0.5, ["android", "ios", "web"]),
                                        (dropped, 0.3, ["android", "ios"])):
            payload = json.loads((out / "report.json").read_text())
            assert payload["accuracy"]["threshold"] == threshold
            rows = payload["accuracy"]["groups"]
            assert [row["group"] for row in rows] == audited
            for row in rows:
                preds = groups[row["group"]]
                assert row["n"] == len(preds)
                assert row["auc"] == pytest.approx(auc_rank(preds), abs=1e-12)
                assert row["f1"] == f1_at_threshold(preds, threshold).f1

    def test_web_skew_ordering(self, audit_dir):
        payload = json.loads((audit_dir / "report.json").read_text())
        ab = {
            (r["group_a"], r["group_b"]): r["abroca"]
            for r in payload["fairness"]["results"]
        }
        assert ab[("ios", "web")] > ab[("android", "ios")]

    def test_byte_determinism(self, tmp_path, gbdt_model, mini_dir, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run(
                [
                    "audit",
                    "--model", str(gbdt_model),
                    "--data", str(mini_dir / "en_es.dev.slam"),
                    "--track", "en_es",
                    "--labels", str(mini_dir / "en_es.dev.key"),
                    "--dimension", "client",
                    "--out", str(out),
                ]
            ) == 0
            outs.append(out)
        files = sorted(p.name for p in outs[0].iterdir())
        assert files == sorted(p.name for p in outs[1].iterdir())
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_development_dimension_single_pair(self, tmp_path, gbdt_model, mini_dir):
        out = tmp_path / "dev_audit"
        code = run(
            [
                "audit",
                "--model", str(gbdt_model),
                "--data", str(mini_dir / "en_es.dev.slam"),
                "--track", "en_es",
                "--labels", str(mini_dir / "en_es.dev.key"),
                "--dimension", "development",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads((out / "report.json").read_text())
        assert len(payload["fairness"]["results"]) == 1
        assert len(list(out.glob("*.svg"))) == 1

    def test_min_group_size_floor_can_exclude_all(
        self, tmp_path, gbdt_model, mini_dir, capsys
    ):
        code = run(
            [
                "audit",
                "--model", str(gbdt_model),
                "--data", str(mini_dir / "en_es.dev.slam"),
                "--track", "en_es",
                "--labels", str(mini_dir / "en_es.dev.key"),
                "--dimension", "client",
                "--min-group-size", "100000",
                "--out", str(tmp_path / "never"),
            ]
        )
        assert code == 1
        assert "fewer than two valid groups" in capsys.readouterr().err

    def test_vocab_mismatch_against_tampered_manifest(
        self, tmp_path, gbdt_model, mini_dir, capsys
    ):
        model_copy = tmp_path / "model.json"
        model_copy.write_bytes(gbdt_model.read_bytes())
        sidecar = json.loads(
            Path(str(gbdt_model) + ".manifest.json").read_text()
        )
        sidecar["config_hashes"]["vocab"] = "0" * 64
        Path(str(model_copy) + ".manifest.json").write_text(
            json.dumps(sidecar, sort_keys=True, indent=2) + "\n"
        )
        code = run(
            [
                "audit",
                "--model", str(model_copy),
                "--data", str(mini_dir / "en_es.dev.slam"),
                "--track", "en_es",
                "--labels", str(mini_dir / "en_es.dev.key"),
                "--dimension", "client",
                "--out", str(tmp_path / "never"),
            ]
        )
        assert code == 1
        assert "vocab mismatch" in capsys.readouterr().err

    def test_unlabeled_data_without_key_fails(self, tmp_path, gbdt_model, mini_dir, capsys):
        code = run(
            [
                "audit",
                "--model", str(gbdt_model),
                "--data", str(mini_dir / "en_es.dev.slam"),
                "--track", "en_es",
                "--dimension", "client",
                "--out", str(tmp_path / "never"),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


def test_commands_never_build_instance_objects(tmp_path, mini_dir, fast_mt_config, monkeypatch):
    """Every command reads, scores and audits from the dataset's columns."""

    def refuse(dataset):
        raise AssertionError("a command built the dataset's TokenInstance objects")

    monkeypatch.setattr(Dataset, "instances", property(refuse))
    gbdt_config = tmp_path / "gbdt.json"
    gbdt_config.write_text(json.dumps({"n_trees": 3}))
    models = {
        "gbdt": (["en_es"], gbdt_config),
        "multitask": (["es_en", "fr_en"], fast_mt_config),
    }
    for kind, (tracks, config) in models.items():
        model = str(tmp_path / f"{kind}.json")
        assert run(
            ["train", "--data", *(str(mini_dir / f"{t}.train.slam") for t in tracks),
             "--track", *tracks, "--model", kind, "--config", str(config), "--out", model]
        ) == 0
        common = ["--model", model, "--data", str(mini_dir / f"{tracks[0]}.dev.slam"),
                  "--track", tracks[0]]
        labels = ["--labels", str(mini_dir / f"{tracks[0]}.dev.key")]
        assert run(["predict", *common, "--out", str(tmp_path / f"{kind}.csv")]) == 0
        assert run(["evaluate", *common, *labels]) == 0
        for dim in ("client", "development"):
            out = str(tmp_path / f"{kind}.{dim}")
            assert run(["audit", *common, *labels, "--dimension", dim, "--out", out]) == 0


class TestReadManifest:
    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("[1, 2]")
        with pytest.raises(DataError, match="must hold a JSON object"):
            read_manifest(path)

    @pytest.mark.parametrize("key", ["track", "config_hashes", "tool_version"])
    def test_missing_key_named(self, tmp_path, gbdt_model, key):
        payload = json.loads(Path(str(gbdt_model) + ".manifest.json").read_text())
        del payload[key]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=key):
            read_manifest(path)

    def test_non_object_hashes_rejected(self, tmp_path, gbdt_model):
        payload = json.loads(Path(str(gbdt_model) + ".manifest.json").read_text())
        payload["config_hashes"] = ["vocab"]
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="config_hashes"):
            read_manifest(path)


POINTS = st.lists(
    st.lists(st.floats(0.0, 1.0) | st.floats(), min_size=2, max_size=2), max_size=5
)
# flat number lists longer than the recursive lists below, all floats, all
# ints, or ints mixed with bools (which json writes as true and false)
NUMBERS = st.one_of(
    [st.lists(numbers, min_size=5, max_size=40)
     for numbers in (st.floats(), st.integers(), st.integers() | st.booleans())]
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | POINTS | NUMBERS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(JSON_VALUES)
def test_json_writer_equals_json_dumps(value):
    """Non-ASCII strings, empty lists and dicts, ints, bools, None, NaN and
    infinities, point lists and flat number lists at any depth, keys
    sorted."""
    assert json_text(value) == json.dumps(value, sort_keys=True, indent=2)


def test_report_json_is_what_json_dumps_writes(audit_dir):
    text = (audit_dir / "report.json").read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("written", ["gbdt model", "multitask model", "train manifest",
                                     "predict manifest", "evaluate report"])
def test_every_json_file_is_what_json_dumps_writes(
    tmp_path, gbdt_model, mt_model, mini_dir, written
):
    """Model files, manifests and reports share the audit report's layout."""
    paths = {"gbdt model": gbdt_model, "multitask model": mt_model,
             "train manifest": Path(str(gbdt_model) + ".manifest.json"),
             "predict manifest": tmp_path / "predict.out.manifest.json",
             "evaluate report": tmp_path / "evaluate.out"}
    command = written.split()[0]
    if command in ("predict", "evaluate"):
        argv = scoring_argv(command, gbdt_model, mini_dir / "en_es.dev.slam", "en_es",
                            tmp_path, mini_dir / "en_es.dev.key")
        if command == "evaluate":
            argv += ["--out", str(paths[written])]
        assert run(argv) == 0
    text = paths[written].read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("learning_rate", [1e308, 1e200, 1e30])
def test_overflowing_multitask_training_is_one_error_line(
    tmp_path, mini_dir, capsys, learning_rate
):
    """Training that overflows ends with the finiteness error alone: no
    numpy warning reaches stderr first."""
    config = tmp_path / "mt.json"
    config.write_text(json.dumps({"learning_rate": learning_rate, "epochs": 1}))
    argv = ["train", "--data", str(mini_dir / "es_en.train.slam"), "--track", "es_en",
            "--model", "multitask", "--config", str(config),
            "--out", str(tmp_path / "never.json")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lines = error_lines(argv, capsys)
    assert [str(w.message) for w in caught] == []
    assert lines == ["error: model contains non-finite parameters"]


def test_a_multitask_batch_beyond_the_data_trains(tmp_path, mini_dir, capsys):
    """A ``batch_size`` of 10**12, far beyond either track, trains each
    track as one batch of all its rows."""
    config = tmp_path / "mt.json"
    config.write_text(json.dumps({"batch_size": 10**12, "epochs": 1}))
    out = tmp_path / "mt_model.json"
    argv = ["train", "--data", str(mini_dir / "es_en.train.slam"),
            str(mini_dir / "fr_en.train.slam"), "--track", "es_en", "fr_en",
            "--model", "multitask", "--config", str(config), "--out", str(out)]
    assert run(argv) == 0, capsys.readouterr().err
    assert json.loads(out.read_text())["config"]["batch_size"] == 10**12


def scoring_argv(command, model, data, track, tmp_path, labels=None):
    argv = [command, "--model", str(model), "--data", str(data), "--track", track]
    if command != "predict" and labels is not None:
        argv += ["--labels", str(labels)]
    if command == "audit":
        argv += ["--dimension", "client"]
    if command != "evaluate":
        argv += ["--out", str(tmp_path / f"{command}.out")]
    return argv


class TestTrackCheck:
    COMMANDS = ["predict", "evaluate", "audit"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_gbdt_model_refuses_another_track(
        self, tmp_path, gbdt_model, mini_dir, capsys, command
    ):
        argv = scoring_argv(command, gbdt_model, mini_dir / "es_en.dev.slam", "es_en",
                            tmp_path, mini_dir / "es_en.dev.key")
        assert error_lines(argv, capsys) == [
            f"error: track mismatch: model file {gbdt_model} was trained on en_es, "
            "not on --track es_en"
        ]
        assert not (tmp_path / f"{command}.out").exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_joint_model_refuses_a_track_it_lacks(
        self, tmp_path, mt_model, mini_dir, capsys, command
    ):
        argv = scoring_argv(command, mt_model, mini_dir / "en_es.dev.slam", "en_es",
                            tmp_path, mini_dir / "en_es.dev.key")
        assert error_lines(argv, capsys) == [
            f"error: track mismatch: model file {mt_model} was trained on es_en,fr_en, "
            "not on --track en_es"
        ]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_joint_model_scores_each_of_its_tracks(
        self, tmp_path, mt_model, mini_dir, command
    ):
        for track in ("es_en", "fr_en"):
            argv = scoring_argv(command, mt_model, mini_dir / f"{track}.dev.slam", track,
                                tmp_path, mini_dir / f"{track}.dev.key")
            assert run(argv) == 0

    def test_model_without_sidecar_is_not_checked(self, tmp_path, gbdt_model, mini_dir):
        bare = tmp_path / "bare.json"
        bare.write_bytes(gbdt_model.read_bytes())
        argv = scoring_argv("evaluate", bare, mini_dir / "es_en.dev.slam", "es_en",
                            tmp_path, mini_dir / "es_en.dev.key")
        assert run(argv) == 0


class TestModelHashCheck:
    """A model file edited after training no longer has the sha256 that its
    train manifest records, and scoring refuses it."""

    @staticmethod
    def edited_copy(tmp_path, gbdt_model, drop_hash=False):
        """A copy of the model with 0.5 added to its base score, next to a
        copy of its sidecar (without the model hash if ``drop_hash``)."""
        payload = json.loads(gbdt_model.read_text())
        payload["base_score"] += 0.5
        model = tmp_path / "edited.json"
        model.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        sidecar = json.loads(Path(str(gbdt_model) + ".manifest.json").read_text())
        if drop_hash:
            del sidecar["config_hashes"]["model"]
        Path(str(model) + ".manifest.json").write_text(json.dumps(sidecar))
        return model

    @pytest.mark.parametrize("command", TestTrackCheck.COMMANDS)
    def test_edited_model_refused(self, tmp_path, gbdt_model, mini_dir, capsys, command):
        model = self.edited_copy(tmp_path, gbdt_model)
        argv = scoring_argv(command, model, mini_dir / "en_es.dev.slam", "en_es",
                            tmp_path, mini_dir / "en_es.dev.key")
        assert error_lines(argv, capsys) == [
            f"error: model mismatch: model file {model} does not match its manifest "
            f"{model}.manifest.json"
        ]
        assert not (tmp_path / f"{command}.out").exists()

    def test_unedited_copy_passes(self, tmp_path, gbdt_model, mini_dir):
        model = tmp_path / "copy.json"
        model.write_bytes(gbdt_model.read_bytes())
        Path(str(model) + ".manifest.json").write_bytes(
            Path(str(gbdt_model) + ".manifest.json").read_bytes()
        )
        argv = scoring_argv("evaluate", model, mini_dir / "en_es.dev.slam", "en_es",
                            tmp_path, mini_dir / "en_es.dev.key")
        assert run(argv) == 0

    def test_sidecar_without_model_hash_passes(self, tmp_path, gbdt_model, mini_dir):
        model = self.edited_copy(tmp_path, gbdt_model, drop_hash=True)
        argv = scoring_argv("evaluate", model, mini_dir / "en_es.dev.slam", "en_es",
                            tmp_path, mini_dir / "en_es.dev.key")
        assert run(argv) == 0


class TestEmptySplit:
    """Scoring a split without tokens, with the GBDT model."""

    @pytest.fixture
    def scorer(self, gbdt_model):
        return gbdt_model, "en_es"

    @pytest.fixture
    def empty(self, tmp_path):
        data, key = tmp_path / "empty.slam", tmp_path / "empty.key"
        data.write_text("")
        key.write_text("")
        return data, key

    def test_predict_writes_header_only(self, tmp_path, scorer, empty):
        model, track = scorer
        data, _ = empty
        assert run(scoring_argv("predict", model, data, track, tmp_path)) == 0
        assert (tmp_path / "predict.out").read_text() == "instance_id,score\n"

    @pytest.mark.parametrize("command", ["evaluate", "audit"])
    def test_evaluate_and_audit_name_the_empty_file(
        self, tmp_path, scorer, empty, capsys, command
    ):
        model, track = scorer
        data, key = empty
        argv = scoring_argv(command, model, data, track, tmp_path, key)
        assert error_lines(argv, capsys) == [f"error: data file {data} holds no tokens"]
        assert not (tmp_path / f"{command}.out").exists()

    def test_metadata_only_file_holds_no_tokens(self, tmp_path, scorer, mini_dir, capsys):
        model, track = scorer
        blocks = (mini_dir / f"{track}.dev.slam").read_text().split("\n\n")
        meta_only = tmp_path / "meta.slam"
        meta_only.write_text(
            "\n\n".join("\n".join(l for l in b.splitlines() if l.startswith("#"))
                        for b in blocks[:3]) + "\n"
        )
        argv = scoring_argv("audit", model, meta_only, track, tmp_path,
                            mini_dir / f"{track}.dev.key")
        assert error_lines(argv, capsys) == [f"error: data file {meta_only} holds no tokens"]


class TestEmptySplitMultitask(TestEmptySplit):
    """The same with the joint multitask model, which packs zero rows over
    zero keys."""

    @pytest.fixture
    def scorer(self, mt_model):
        return mt_model, "es_en"


@pytest.mark.parametrize("command", ["predict", "evaluate", "audit"])
@pytest.mark.parametrize("kind", ["gbdt", "multitask"])
def test_scoring_reads_the_model_file_once(
    tmp_path, gbdt_model, mt_model, mini_dir, monkeypatch, command, kind
):
    model, track = (gbdt_model, "en_es") if kind == "gbdt" else (mt_model, "es_en")
    reads = []
    read_text = Path.read_text

    def counting(self, *args, **kwargs):
        if self == model:
            reads.append(self)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting)
    argv = scoring_argv(command, model, mini_dir / f"{track}.dev.slam", track, tmp_path,
                        mini_dir / f"{track}.dev.key")
    assert run(argv) == 0
    assert len(reads) == 1


@pytest.mark.parametrize("command", ["predict", "evaluate", "audit"])
def test_scoring_manifests_name_the_model(tmp_path, gbdt_model, mini_dir, command):
    """Two models that share a vocabulary write different scoring manifests:
    each records the sha256 of its model file's text as ``model``."""
    other = tmp_path / "other.json"
    payload = json.loads(gbdt_model.read_text(encoding="utf-8"))
    payload["base_score"] = payload["base_score"] + 1e-9
    other.write_text(json.dumps(payload), encoding="utf-8")
    recorded = []
    for model in (gbdt_model, other):
        out = tmp_path / model.stem
        argv = scoring_argv(command, model, mini_dir / "en_es.dev.slam", "en_es", out,
                            mini_dir / "en_es.dev.key")
        if command == "evaluate":
            argv += ["--out", str(out / "evaluate.json")]
        out.mkdir()
        assert run(argv) == 0
        written = {"predict": "predict.out.manifest.json", "evaluate": "evaluate.json",
                   "audit": "audit.out/report.json"}[command]
        manifest = json.loads((out / written).read_text(encoding="utf-8"))
        manifest = manifest.get("manifest", manifest)
        text = model.read_text(encoding="utf-8")
        assert manifest["config_hashes"]["model"] == hashlib.sha256(text.encode()).hexdigest()
        recorded.append(manifest["config_hashes"])
    assert recorded[0]["vocab"] == recorded[1]["vocab"]
    assert recorded[0]["model"] != recorded[1]["model"]


EPOCH_ERROR = "error: SOURCE_DATE_EPOCH must be an integer number of seconds, got 'abc'"


@pytest.mark.parametrize("command", ["train", "predict", "evaluate", "audit"])
def test_malformed_source_date_epoch_writes_nothing(
    tmp_path, gbdt_model, mini_dir, capsys, monkeypatch, command
):
    """A bad SOURCE_DATE_EPOCH fails before a command reads or writes
    anything: no model, scores, report or directory without its manifest."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "abc")
    if command == "train":
        argv = ["train", "--data", str(mini_dir / "en_es.train.slam"), "--track", "en_es",
                "--model", "gbdt", "--out", str(tmp_path / "train.out")]
    else:
        argv = scoring_argv(command, gbdt_model, mini_dir / "en_es.dev.slam", "en_es",
                            tmp_path, mini_dir / "en_es.dev.key")
    if command == "evaluate":
        argv += ["--out", str(tmp_path / "evaluate.out")]
    assert error_lines(argv, capsys) == [EPOCH_ERROR]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, blocked", [
    ("train", "train.out.manifest.json"),
    ("predict", "predict.out.manifest.json"),
    ("audit", "audit.out/fairness.csv"),
])
def test_failed_command_leaves_no_outputs(
    tmp_path, gbdt_model, mini_dir, capsys, command, blocked
):
    """A command whose last output cannot be written (a directory stands at
    its path) ends in one error line naming that path and leaves nothing it
    wrote: no output under its final name and no temporary file."""
    if command == "train":
        argv = ["train", "--data", str(mini_dir / "en_es.train.slam"), "--track", "en_es",
                "--model", "gbdt", "--config", str(tmp_path / "config.json"),
                "--out", str(tmp_path / "train.out")]
        (tmp_path / "config.json").write_text(json.dumps({"n_trees": 2}))
    else:
        argv = scoring_argv(command, gbdt_model, mini_dir / "en_es.dev.slam", "en_es",
                            tmp_path, mini_dir / "en_es.dev.key")
    (tmp_path / blocked).mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    assert error_lines(argv, capsys) == [f"error: Is a directory: {tmp_path / blocked}"]
    assert sorted(tmp_path.rglob("*")) == before


def test_failed_audit_removes_the_directories_it_made(
    tmp_path, gbdt_model, mini_dir, capsys, monkeypatch
):
    """An audit that fails while writing its outputs removes the output
    directory it made, parents included, with the files written so far."""
    def fail(*args):
        raise DataError("no plot")

    monkeypatch.setattr("slamaudit.cli.render_roc_plot", fail, raising=False)
    argv = scoring_argv("audit", gbdt_model, mini_dir / "en_es.dev.slam", "en_es",
                        tmp_path / "made" / "here", mini_dir / "en_es.dev.key")
    assert error_lines(argv, capsys) == ["error: no plot"]
    assert list(tmp_path.iterdir()) == []


def test_predict_writes_through_a_symlink(tmp_path, gbdt_model, mini_dir):
    """A scores path that is a symbolic link stays a link: the scores replace
    the file it leads to, and no temporary file is left beside either."""
    argv = scoring_argv("predict", gbdt_model, mini_dir / "en_es.dev.slam", "en_es", tmp_path)
    assert run(argv) == 0
    (tmp_path / "target.csv").write_text("old\n")
    (tmp_path / "link.csv").symlink_to("target.csv")
    assert run([*argv[:-1], str(tmp_path / "link.csv")]) == 0
    assert (tmp_path / "link.csv").is_symlink()
    assert os.readlink(tmp_path / "link.csv") == "target.csv"
    assert (tmp_path / "target.csv").read_bytes() == (tmp_path / "predict.out").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "link.csv", "link.csv.manifest.json", "predict.out", "predict.out.manifest.json",
        "target.csv",
    ]


def test_predict_writes_into_a_fifo(tmp_path, gbdt_model, mini_dir):
    """A scores path that is a FIFO is written in place: its reader gets the
    scores, and the FIFO stays."""
    argv = scoring_argv("predict", gbdt_model, mini_dir / "en_es.dev.slam", "en_es", tmp_path)
    assert run(argv) == 0
    fifo = tmp_path / "ff"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert run([*argv[:-1], str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [(tmp_path / "predict.out").read_bytes()]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


def test_audit_removes_plots_it_did_not_draw(tmp_path, gbdt_model, mini_dir, monkeypatch):
    """An audit into a directory an earlier audit wrote leaves it as a fresh
    directory would be: the plots of pairs this run skipped go. A failed
    audit removes none of them."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    argv = scoring_argv("audit", gbdt_model, mini_dir / "en_es.dev.slam", "en_es",
                        tmp_path, mini_dir / "en_es.dev.key")[:-2]
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert run([*argv, "--out", str(reused)]) == 0
    first = sorted(p.name for p in reused.iterdir())
    assert len([name for name in first if name.endswith("_vs_web.svg")]) == 2

    def fail(*args):
        raise DataError("no plot")

    with monkeypatch.context() as patch:
        patch.setattr("slamaudit.cli.render_roc_plot", fail, raising=False)
        assert run([*argv, "--min-group-size", "100", "--out", str(reused)]) == 1
    assert sorted(p.name for p in reused.iterdir()) == first
    for out in (reused, fresh):
        assert run([*argv, "--min-group-size", "100", "--out", str(out)]) == 0
    names = sorted(p.name for p in fresh.iterdir())
    assert not [name for name in names if "web" in name]
    assert sorted(p.name for p in reused.iterdir()) == names
    for name in names:
        assert (reused / name).read_bytes() == (fresh / name).read_bytes()


@pytest.fixture(scope="module")
def overflowing_gbdt_model(tmp_path_factory, gbdt_model):
    """The fixture GBDT with every leaf at 1.7e308 and learning rate 1.0, no
    sidecar: its raw scores overflow to infinity."""
    payload = json.loads(gbdt_model.read_text(encoding="utf-8"))
    payload["config"]["learning_rate"] = 1.0
    for tree in payload["trees"]:
        tree["value"] = [1.7e308 if f == -1 else v
                         for f, v in zip(tree["feature"], tree["value"])]
    path = tmp_path_factory.mktemp("overflow") / "gbdt.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["predict", "evaluate", "audit"])
def test_overflowing_gbdt_scores_are_one_error_line(
    tmp_path, overflowing_gbdt_model, mini_dir, capsys, command
):
    argv = scoring_argv(command, overflowing_gbdt_model, mini_dir / "en_es.dev.slam",
                        "en_es", tmp_path, mini_dir / "en_es.dev.key")
    if command == "evaluate":
        argv += ["--out", str(tmp_path / "evaluate.out")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        lines = error_lines(argv, capsys)
    assert [str(w.message) for w in caught] == []
    assert lines == ["error: model gives non-finite scores: its leaf values overflow"]
    assert list(tmp_path.iterdir()) == []


# Every subcommand's options: option -> (required, default, choices).
TRACKS, SPLITS = ["en_es", "es_en", "fr_en"], ["train", "dev", "test"]
SCORING = {
    "--model": (True, None, None),
    "--data": (True, None, None),
    "--track": (True, None, TRACKS),
    "--split": (False, "dev", SPLITS),
}
LABELED = {"--labels": (False, None, None), "--threshold": (False, 0.5, None)}
COMMAND_LINE = {
    "train": {
        "--data": (True, None, None),
        "--track": (True, None, TRACKS),
        "--model": (True, None, ["gbdt", "multitask"]),
        "--config": (False, None, None),
        "--seed": (False, None, None),
        "--split": (False, "train", SPLITS),
        "--out": (True, None, None),
    },
    "predict": {**SCORING, "--out": (True, None, None)},
    "evaluate": {**SCORING, **LABELED, "--out": (False, None, None)},
    "audit": {
        **SCORING,
        **LABELED,
        "--dimension": (True, None, ["client", "development"]),
        "--country-mapping": (False, None, None),
        "--min-group-size": (False, 50, None),
        "--out": (True, None, None),
    },
}


def test_command_line_surface():
    """Each subcommand's flags, which are required, their defaults and
    choices; a new or changed option shows up here."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: {
            ", ".join(a.option_strings): (a.required, a.default, a.choices)
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, parser in sub.choices.items()
    }
    assert surface == COMMAND_LINE
    assert sum(len(options) for options in surface.values()) == 29
