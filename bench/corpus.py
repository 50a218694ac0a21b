"""Scaled, seeded SLAM corpora for the benchmark.

Reuses the fixture generator's process (``scripts/generate_mini_dataset.py``:
users, lexicons, the anti-correlated web client, the cognate pool, the dev
client rotation) without editing it. The generator reads its sizes from
module globals, so a corpus of another size is made by setting those globals
for the duration of one call. Lexicons are always drawn in the generator's
order (en, cognate, es, fr) so that generating a subset of tracks gives the
same bytes for those tracks as generating all three.

Size 1 with seed 20180601 reproduces ``data/mini/`` byte for byte; see
``self_check``.
"""

from __future__ import annotations

import contextlib
import filecmp
import hashlib
import importlib.util
import random
from dataclasses import dataclass
from pathlib import Path

FIXTURE_SEED = 20180601
ALL_TRACKS = ("en_es", "es_en", "fr_en")


@dataclass(frozen=True)
class CorpusSpec:
    """What to generate: tracks plus multipliers on the fixture's sizes."""

    tracks: tuple[str, ...]
    users: int = 1  # multiplies N_USERS
    tokens: int = 1  # multiplies N_TOKENS and N_COGNATES
    train: int = 1  # multiplies TRAIN_EXERCISES
    dev: int = 1  # multiplies DEV_EXERCISES


def load_generator(root: Path):
    """Import the fixture generator script as a module."""
    path = root / "scripts" / "generate_mini_dataset.py"
    spec = importlib.util.spec_from_file_location("generate_mini_dataset", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def _sizes(gen, spec: CorpusSpec):
    names = ("N_USERS", "N_TOKENS", "N_COGNATES", "TRAIN_EXERCISES", "DEV_EXERCISES")
    saved = {name: getattr(gen, name) for name in names}
    gen.N_USERS = saved["N_USERS"] * spec.users
    gen.N_TOKENS = saved["N_TOKENS"] * spec.tokens
    gen.N_COGNATES = saved["N_COGNATES"] * spec.tokens
    gen.TRAIN_EXERCISES = saved["TRAIN_EXERCISES"] * spec.train
    gen.DEV_EXERCISES = saved["DEV_EXERCISES"] * spec.dev
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(gen, name, value)


def generate(gen, spec: CorpusSpec, seed: int, out_dir: Path) -> dict[str, dict]:
    """Write ``<track>.{train.slam,dev.slam,dev.key}`` for each track of the
    spec into ``out_dir``; returns the generator's per-track stats."""
    out_dir.mkdir(parents=True, exist_ok=True)
    Track = gen.Track

    def child(offset: int) -> random.Random:
        return random.Random(seed + offset)

    stats = {}
    with _sizes(gen, spec):
        seen: set[str] = set()
        offsets = gen.LEXICON_SEED_OFFSET
        lex_en = gen.build_lexicon(child(offsets["en"]), "en", gen.N_TOKENS, seen)
        cognates = gen.build_lexicon(
            child(offsets["cognate"]), "cognate", gen.N_COGNATES, seen
        )
        n_private = gen.N_TOKENS - gen.N_COGNATES
        lexicons = {
            Track.EN_ES: lex_en,
            Track.ES_EN: cognates
            + gen.build_lexicon(child(offsets["es"]), "es", n_private, seen),
            Track.FR_EN: cognates
            + gen.build_lexicon(child(offsets["fr"]), "fr", n_private, seen),
        }
        for name in spec.tracks:
            track = Track(name)
            stats[name] = gen.generate_track(
                child(gen.TRACK_SEED_OFFSET[track]), track, lexicons[track], out_dir
            )
    return stats


def input_files(spec: CorpusSpec) -> list[str]:
    return [
        f"{track}.{suffix}"
        for track in spec.tracks
        for suffix in ("train.slam", "dev.slam", "dev.key")
    ]


def sha256_files(out_dir: Path, names: list[str]) -> dict[str, str]:
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in names
    }


def self_check(gen, root: Path, out_dir: Path) -> list[str]:
    """Regenerate the fixture at size 1 and compare with ``data/mini/``.

    Returns the names of files that differ (empty when byte-identical)."""
    spec = CorpusSpec(tracks=ALL_TRACKS)
    generate(gen, spec, FIXTURE_SEED, out_dir)
    mini = root / "data" / "mini"
    return [
        name
        for name in input_files(spec)
        if not filecmp.cmp(out_dir / name, mini / name, shallow=False)
    ]
