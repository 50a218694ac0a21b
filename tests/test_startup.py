"""Each command imports only the modules it runs.

A command is one short process, so the modules it imports are a large share
of its time. ``slamaudit.cli`` imports the modules every command needs and
loads the learner, audit and plot modules on first use; these tests run each
command as ``python -m slamaudit.cli`` would and read ``sys.modules`` after
``main``. No command may load ``numpy.ma``, which numpy imports on the first
plain ``np.unique`` or ``np.union1d`` call.
"""

import json
import os
import subprocess
import sys

import pytest

from slamaudit import cli, fairness, grouping

from conftest import REPO_ROOT

EVERY_COMMAND = {"slamaudit", "slamaudit.errors", "slamaudit.features",
                 "slamaudit.manifest", "slamaudit.slam_format", "slamaudit.validation"}
LEARNER = {"gbdt": {"slamaudit.gbdt", "slamaudit.numerics"},
           "multitask": {"slamaudit.multitask", "slamaudit.numerics"}}
COMMAND = {
    "train": set(),
    "predict": set(),
    "evaluate": {"slamaudit.metrics"},
    "audit": {"slamaudit.metrics", "slamaudit.grouping", "slamaudit.fairness",
              "slamaudit.svgplot", "slamaudit.data"},  # data: the bundled country mapping
}
TRACK = {"gbdt": "en_es", "multitask": "es_en"}
CONFIG = {"gbdt": {"n_trees": 3, "max_depth": 2},
          "multitask": {"embed_dim": 4, "hidden_dim": 4, "epochs": 1}}

# runs the command line in argv[1] (JSON) as ``python -m slamaudit.cli`` does,
# then prints its exit code and every loaded module as the last stdout line
PROBE = """
import json, runpy, sys
sys.argv[1:] = json.loads(sys.argv[1])
try:
    runpy.run_module("slamaudit.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def loaded(argv):
    out = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(argv)], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["code"] == 0, out.stderr
    return set(result["modules"])


@pytest.fixture(scope="module")
def runs(tmp_path_factory, mini_dir):
    """The modules each (command, model kind) loaded, trained model first."""
    out = tmp_path_factory.mktemp("startup")
    modules = {}
    for kind, track in TRACK.items():
        config = out / f"{kind}.config.json"
        config.write_text(json.dumps(CONFIG[kind]), encoding="utf-8")
        model = out / f"{kind}.json"
        modules["train", kind] = loaded(
            ["train", "--data", str(mini_dir / f"{track}.train.slam"), "--track", track,
             "--model", kind, "--config", str(config), "--out", str(model)]
        )
        scoring = ["--model", str(model), "--data", str(mini_dir / f"{track}.dev.slam"),
                   "--track", track]
        labels = ["--labels", str(mini_dir / f"{track}.dev.key")]
        modules["predict", kind] = loaded(
            ["predict", *scoring, "--out", str(out / f"{kind}.csv")]
        )
        modules["evaluate", kind] = loaded(["evaluate", *scoring, *labels])
        modules["audit", kind] = loaded(
            ["audit", *scoring, *labels, "--dimension", "client",
             "--out", str(out / f"{kind}.audit")]
        )
    return modules


@pytest.mark.parametrize("kind", sorted(TRACK))
@pytest.mark.parametrize("command", sorted(COMMAND))
def test_command_loads_only_what_it_runs(runs, command, kind):
    package = {m for m in runs[command, kind] if m.split(".")[0] == "slamaudit"}
    assert package == EVERY_COMMAND | LEARNER[kind] | COMMAND[command]


@pytest.mark.parametrize("kind", sorted(TRACK))
@pytest.mark.parametrize("command", sorted(COMMAND))
def test_no_command_loads_numpy_ma(runs, command, kind):
    assert "numpy.ma" not in runs[command, kind]


def test_parser_constants_match_the_modules_that_define_them():
    """The parser spells these itself, so that building it loads neither module."""
    assert cli.DIMENSION_CHOICES == [d.value for d in grouping.Dimension]
    args = cli.build_parser().parse_args(
        ["audit", "--model", "m", "--data", "d", "--track", "en_es", "--dimension", "client",
         "--out", "o"]
    )
    assert args.min_group_size == fairness.DEFAULT_MIN_GROUP_SIZE


def test_a_replaced_deferred_name_is_the_one_a_command_calls(tmp_path, mini_dir, monkeypatch):
    """A stage timer replaces a deferred name on ``slamaudit.cli`` before a
    command first loads its module; the command must call the replacement."""
    calls = []

    def timer(name):
        real = getattr(cli, name)

        def timed(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return timed

    for name in ("train_gbdt", "predict_scores", "render_roc_plot"):
        monkeypatch.setattr(cli, name, timer(name))
    config = tmp_path / "gbdt.json"
    config.write_text(json.dumps(CONFIG["gbdt"]), encoding="utf-8")
    model = tmp_path / "model.json"
    assert cli.main(["train", "--data", str(mini_dir / "en_es.train.slam"), "--track", "en_es",
                     "--model", "gbdt", "--config", str(config), "--out", str(model)]) == 0
    assert cli.main(["audit", "--model", str(model), "--data", str(mini_dir / "en_es.dev.slam"),
                     "--track", "en_es", "--labels", str(mini_dir / "en_es.dev.key"),
                     "--dimension", "client", "--out", str(tmp_path / "audit")]) == 0
    assert calls == ["train_gbdt", "predict_scores"] + ["render_roc_plot"] * 3
