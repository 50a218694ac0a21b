"""Every file the command line writes on data/mini, pinned to its sha256.

``scripts/golden.py`` runs the commands and writes ``tests/golden.sha256``;
this test reruns them and compares every hash. A refactor that keeps the
program's results keeps every hash.
"""

import importlib.util

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location("golden", REPO_ROOT / "scripts" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_every_output_matches_its_pinned_hash(tmp_path, monkeypatch):
    want_env, want = golden.parse(golden.GOLDEN.read_text(encoding="utf-8"))
    have_env = golden.environment()
    for name in golden.FIELDS:
        assert have_env[name] == want_env.get(name), (
            f"{golden.GOLDEN.name} was made under {name} {want_env.get(name)!r}, "
            f"this host has {have_env[name]!r}; regenerate it with scripts/golden.py"
        )
    monkeypatch.setenv("SOURCE_DATE_EPOCH", golden.EPOCH)
    got = golden.run_all(tmp_path)
    assert sorted(got) == sorted(want)
    changed = [path for path in sorted(want) if got[path] != want[path]]
    assert not changed, f"outputs differ from their pinned hashes: {changed}"
