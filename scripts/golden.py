#!/usr/bin/env python3
"""Pin the bytes of every file the command line writes on data/mini.

In a working directory that holds a copy of data/mini at ``data/mini`` (so
manifests record only relative paths), with SOURCE_DATE_EPOCH pinned, this
runs ``slamaudit.cli.main`` in process:

- a default GBDT model per track;
- one joint multitask model over all three tracks (``--seed 0``);
- for each of the six (model, track) pairs: ``predict``, ``evaluate --out``
  and ``audit`` on both dimensions.

Every file written is hashed with sha256, under ``out/``. So is every input
file of each benchmark workload's seed-0 corpus, generated through
``bench/corpus.py`` as ``bench/run.py`` generates it, under
``corpus/<workload>/``. ``tests/golden.sha256`` holds the hashes, after a
header naming the Python, numpy and BLAS versions and the machine they were
made under; ``tests/test_golden.py`` reruns the commands and the generator
and compares. Floating-point sums may round otherwise under another numpy,
BLAS or machine, so a header that differs from the host fails that test by
name rather than as a hash mismatch.

Regenerate (only when an output is meant to change):

    PYTHONPATH=src python scripts/golden.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH = REPO_ROOT / "bench"
GOLDEN = REPO_ROOT / "tests" / "golden.sha256"
EPOCH = "1700000000"
TRACKS = ("en_es", "es_en", "fr_en")
DIMENSIONS = ("client", "development")
FIELDS = ("python", "numpy", "blas", "machine")


def environment() -> dict[str, str]:
    """The versions and machine a set of hashes is valid under."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.25 does not report its BLAS
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def commands() -> list[list[str]]:
    """Every command line, in run order, relative to the working directory."""
    data = {t: f"data/mini/{t}" for t in TRACKS}
    argvs = [
        ["train", "--data", f"{data[t]}.train.slam", "--track", t, "--model", "gbdt",
         "--out", f"out/gbdt_{t}.json"]
        for t in TRACKS
    ]
    argvs.append(
        ["train", "--data", *(f"{data[t]}.train.slam" for t in TRACKS), "--track", *TRACKS,
         "--model", "multitask", "--seed", "0", "--out", "out/multitask.json"]
    )
    for model in ("gbdt", "multitask"):
        for t in TRACKS:
            path = f"out/{model}.json" if model == "multitask" else f"out/gbdt_{t}.json"
            scoring = ["--model", path, "--data", f"{data[t]}.dev.slam", "--track", t]
            labels = ["--labels", f"{data[t]}.dev.key"]
            stem = f"out/{model}_{t}"
            argvs.append(["predict", *scoring, "--out", f"{stem}.predict.csv"])
            argvs.append(["evaluate", *scoring, *labels, "--out", f"{stem}.evaluate.json"])
            argvs.extend(
                ["audit", *scoring, *labels, "--dimension", d, "--out", f"{stem}.audit_{d}"]
                for d in DIMENSIONS
            )
    return argvs


def run_all(workdir: Path) -> dict[str, str]:
    """Run ``commands()`` in ``workdir`` and return the sha256 of every file
    they wrote, keyed by its path relative to ``workdir``. The caller sets
    SOURCE_DATE_EPOCH; the working directory is restored afterwards."""
    from slamaudit.cli import main

    shutil.copytree(REPO_ROOT / "data" / "mini", workdir / "data" / "mini")
    (workdir / "out").mkdir()
    here = Path.cwd()
    os.chdir(workdir)
    try:
        for argv in commands():
            if main(argv) != 0:
                raise RuntimeError(f"command failed: slamaudit {' '.join(argv)}")
    finally:
        os.chdir(here)
    return {
        path.relative_to(workdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((workdir / "out").rglob("*"))
        if path.is_file()
    }


def _bench_module(name: str):
    """``bench/<name>.py`` as module ``bench_<name>``, loaded with ``bench/``
    importable (its dataclasses need the module in ``sys.modules``)."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(BENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


def corpus_hashes(workdir: Path) -> dict[str, str]:
    """Generate each benchmark workload's seed-0 corpus in ``workdir`` and
    return the sha256 of its input files, keyed ``corpus/<workload>/<file>``."""
    run = _bench_module("run")
    corpus = run.corpus
    gen = corpus.load_generator(REPO_ROOT)
    hashes = {}
    for name, workload in run.WORKLOADS.items():
        out = workdir / name
        corpus.generate(gen, workload.corpus, corpus.FIXTURE_SEED, out)  # as --seed 0 does
        files = corpus.sha256_files(out, corpus.input_files(workload.corpus))
        hashes.update((f"corpus/{name}/{file}", digest) for file, digest in files.items())
    return hashes


def render(env: dict[str, str], hashes: dict[str, str]) -> str:
    lines = [f"# {name}: {env[name]}" for name in FIELDS]
    lines.extend(f"{digest}  {path}" for path, digest in sorted(hashes.items()))
    return "\n".join(lines) + "\n"


def parse(text: str) -> tuple[dict[str, str], dict[str, str]]:
    """``(environment, hashes)`` of a file ``render`` wrote."""
    env, hashes = {}, {}
    for line in text.splitlines():
        if line.startswith("# "):
            name, _, value = line[2:].partition(": ")
            env[name] = value
        else:
            digest, _, path = line.partition("  ")
            hashes[path] = digest
    return env, hashes


def main() -> int:
    os.environ["SOURCE_DATE_EPOCH"] = EPOCH
    with tempfile.TemporaryDirectory() as tmp:
        hashes = run_all(Path(tmp) / "commands")
        hashes.update(corpus_hashes(Path(tmp) / "corpora"))
    GOLDEN.write_text(render(environment(), hashes), encoding="utf-8")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
