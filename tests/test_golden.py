"""Every file the command line writes on data/mini, and every input file of
the benchmark's seed-0 corpora, pinned to its sha256.

``scripts/golden.py`` runs the commands and the corpus generator and writes
``tests/golden.sha256``; these tests rerun them and compare every hash. A
refactor that keeps the program's results keeps every hash.
"""

import importlib.util

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location("golden", REPO_ROOT / "scripts" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def pinned(prefix):
    """The pinned environment, and the pinned hashes of paths under ``prefix``."""
    env, hashes = golden.parse(golden.GOLDEN.read_text(encoding="utf-8"))
    return env, {path: digest for path, digest in hashes.items() if path.startswith(prefix)}


def test_every_output_matches_its_pinned_hash(tmp_path, monkeypatch):
    want_env, want = pinned("out/")
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


def test_every_benchmark_corpus_matches_its_pinned_hash(tmp_path):
    _env, want = pinned("corpus/")
    got = golden.corpus_hashes(tmp_path)
    assert sorted(got) == sorted(want)
    changed = [path for path in sorted(want) if got[path] != want[path]]
    assert not changed, f"benchmark corpora differ from their pinned hashes: {changed}"
