"""Fuzz the SLAM and label-key parsers, and `train`/`audit`, on damaged input.

Each case takes a slice of the bundled fixture and damages one to three of
its lines: a line is deleted, duplicated, moved, cut short, has one field
replaced, or gets a byte that is not UTF-8 (``BAD_BYTE``, which ``write``
turns into the byte 0xff). The parsers must either return or raise the
package's own error, and the column parser must return or raise exactly
what the per-token reference parser in ``oracles.py`` does. A command must
either succeed or exit 1 with exactly one `error:` line, the last on stderr
(library warnings may come before it): never a traceback.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from slamaudit.cli import main
from slamaudit.errors import SlamAuditError
from slamaudit.slam_format import Split, Track, parse_dataset, parse_label_key

from test_slam_format import assert_parses_like_oracle

FIELD = st.sampled_from(
    ["", "nan", "inf", "-1", "1e309", "0", "2", "#", "x:y", "a|b=c"]
) | st.text(alphabet="abcXYZ019:|=._-# \té", max_size=8)
FUZZ = settings(max_examples=100, deadline=None, derandomize=True)
BAD_BYTE = "\udcff"  # written as 0xff through the surrogateescape error handler


def damaged(data, lines):
    """A copy of ``lines`` with one to three lines damaged."""
    lines = list(lines)
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        action = data.draw(
            st.sampled_from(["delete", "duplicate", "move", "cut", "field", "byte"])
        )
        if action == "delete" and len(lines) > 1:
            del lines[i]
        elif action == "duplicate":
            lines.insert(i, lines[i])
        elif action == "move":
            lines.insert(data.draw(st.integers(0, len(lines) - 1)), lines.pop(i))
        elif action == "cut":
            lines[i] = lines[i][: data.draw(st.integers(0, len(lines[i])))]
        elif action == "byte":
            j = data.draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:j] + BAD_BYTE + lines[i][j:]
        else:
            fields = lines[i].split(" ")
            fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(FIELD)
            lines[i] = " ".join(fields)
    return lines


def head(path, n):
    return path.read_text(encoding="utf-8").splitlines()[:n]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("parser_fuzz")


@pytest.fixture(scope="module")
def slices(mini_dir):
    dev = head(mini_dir / "en_es.dev.slam", 240)
    dev_ids = {line.split(" ")[0] for line in dev if line and not line.startswith("#")}
    key = [line for line in (mini_dir / "en_es.dev.key").read_text().splitlines()
           if line.split(" ")[0] in dev_ids]
    return {"train": head(mini_dir / "en_es.train.slam", 120), "dev": dev, "key": key}


@pytest.fixture(scope="module")
def gbdt_config(workdir):
    path = workdir / "gbdt.json"
    path.write_text(json.dumps({"n_trees": 2, "max_depth": 2, "min_samples_leaf": 2}))
    return path


@pytest.fixture(scope="module")
def model(workdir, mini_dir, gbdt_config):
    out = workdir / "model.json"
    assert main(
        ["train", "--data", str(mini_dir / "en_es.train.slam"), "--track", "en_es",
         "--model", "gbdt", "--config", str(gbdt_config), "--out", str(out)]
    ) == 0
    return out


def write(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
    return str(path)


def assert_succeeds_or_fails_cleanly(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    lines = err.getvalue().splitlines()
    errors = [line for line in lines if line.startswith("error:")]
    clean_failure = code == 1 and len(errors) == 1 and lines[-1] == errors[0]
    assert (code == 0 and not errors) or clean_failure, (code, lines)
    assert all(line.startswith(("warning:", "error:")) for line in lines), lines


@FUZZ
@given(data=st.data())
def test_exercise_stream_parses_or_raises_package_error(data, slices):
    lines = damaged(data, slices[data.draw(st.sampled_from(["train", "dev"]))])
    try:
        parse_dataset(lines, Track.EN_ES, Split.TRAIN)
    except SlamAuditError:
        pass


@FUZZ
@given(data=st.data())
def test_column_parser_equals_per_token_oracle(data, slices):
    assert_parses_like_oracle(damaged(data, slices[data.draw(st.sampled_from(["train", "dev"]))]))


@FUZZ
@given(data=st.data())
def test_label_key_parses_or_raises_package_error(data, slices):
    try:
        parse_label_key(damaged(data, slices["key"]))
    except SlamAuditError:
        pass


@FUZZ
@given(data=st.data())
def test_train_succeeds_or_fails_cleanly(data, slices, workdir, gbdt_config):
    train = write(workdir / "train.slam", damaged(data, slices["train"]))
    assert_succeeds_or_fails_cleanly(
        ["train", "--data", train, "--track", "en_es", "--model", "gbdt",
         "--config", str(gbdt_config), "--out", str(workdir / "trained.json")]
    )


@FUZZ
@given(data=st.data())
def test_audit_succeeds_or_fails_cleanly(data, slices, workdir, model):
    dev, key = slices["dev"], slices["key"]
    if data.draw(st.booleans()):
        dev = damaged(data, dev)
    else:
        key = damaged(data, key)
    assert_succeeds_or_fails_cleanly(
        ["audit", "--model", str(model), "--data", write(workdir / "dev.slam", dev),
         "--track", "en_es", "--labels", write(workdir / "dev.key", key),
         "--dimension", data.draw(st.sampled_from(["client", "development"])),
         "--min-group-size", "5", "--out", str(workdir / "audit")]
    )
