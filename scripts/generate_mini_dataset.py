#!/usr/bin/env python3
"""Generate the bundled synthetic mini-dataset (seed 20180601).

Three tracks, roughly 2,000 token instances each, split into a labeled
train file and an unlabeled dev file with a separate label key. The data is
synthetic but structurally faithful to the exercise-block format: per-user
metadata, language-flavored pseudo-word tokens, universal POS tags, morph
features, dependency annotations.

Generating process, in brief. Every instance's mistake probability is
sigmoid of a sum of effects: a per-token difficulty, shared part-of-speech /
morphology / exercise-format / session effects (identical tables across
tracks), a per-user skill, a small practice effect from days-in-course,
and Gaussian noise.

Tokens live in the language being learned: English-flavored pseudo-words
for en_es, Spanish- and French-flavored ones for es_en and fr_en. The two
Romance lexicons share a pool of identically spelled cognate tokens that
carry one common difficulty table (word difficulty is a property of the
word). That shared pool is what the multi-task transfer demonstration
leans on: a model trained jointly on es_en and a small fr_en slice learns
cognate difficulties from the bigger track and applies them to the
smaller one.

Every section draws from its own child RNG (lexicon pools and each track),
so tuning one track's constants never changes another track's bytes.

Deliberate group skew: exercises answered on the web client draw their
token difficulty from a second table built to anti-correlate with the
main one, and web is the rare client (~16% of exercises). Pooled
per-token estimates are therefore dominated by the ios/android table and
actively mis-rank web instances, while the default leaf-size floor blocks
any token-within-client refinement (only a handful of web rows per
token). ios and android are generated identically, so their curves differ
only by sampling noise. Net effect: abroca(ios, web) clearly exceeds
abroca(ios, android), which the audit fixture relies on.

Dev exercises rotate through clients in a fixed 3:3:1 pattern instead of
sampling, so every client group comfortably clears the audit's default
group-size floor regardless of the seed.

Regenerate with:  python3 scripts/generate_mini_dataset.py
The committed files under data/mini/ were produced by exactly this script;
rerunning must reproduce them byte for byte.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from slamaudit.slam_format import (  # noqa: E402
    Client,
    Dataset,
    ExerciseFormat,
    ExerciseMeta,
    Session,
    Split,
    TokenInstance,
    Track,
    write_dataset,
)

SEED = 20180601

# one child RNG per section, so a section can re-roll without touching the rest
LEXICON_SEED_OFFSET = {"en": 111, "cognate": 102, "es": 103, "fr": 104}
TRACK_SEED_OFFSET = {Track.EN_ES: 11, Track.ES_EN: 2, Track.FR_EN: 3}

N_USERS = 45
N_TOKENS = 32
N_COGNATES = 24  # tokens shared between the es_en and fr_en lexicons
TRAIN_EXERCISES = 300
DEV_EXERCISES = 105

BASE_LOGIT = -1.1
TOKEN_SD = 1.5
SKILL_SD = 1.2
NOISE_SD = 0.3
DAYS_EFFECT = -0.015

# web kept rare on purpose, see module docstring
CLIENT_WEIGHTS = {Client.IOS: 85, Client.ANDROID: 85, Client.WEB: 30}
# web difficulty = WEB_MIX[0] * main + WEB_MIX[1] * fresh draw (unit total variance)
WEB_MIX = (-0.6, 0.8)

POS_EFFECT = {
    "NOUN": -0.21, "VERB": 0.63, "ADJ": 0.14, "ADV": 0.35, "PRON": 0.07,
    "DET": -0.70, "ADP": -0.49, "NUM": -0.14, "CONJ": -0.63, "PROPN": -0.07,
    "AUX": 0.28, "PART": 0.00,
}
POS_WEIGHTS = {
    "NOUN": 22, "VERB": 18, "DET": 12, "ADP": 10, "PRON": 9, "ADJ": 8,
    "ADV": 6, "AUX": 5, "CONJ": 4, "NUM": 3, "PROPN": 2, "PART": 1,
}
MORPH_EFFECT = {
    "Number=Plur": 0.29, "Tense=Past": 0.46, "Person=2": 0.13, "Person=3": 0.20,
    "Definite=Ind": 0.13, "Gender=Fem": 0.07,
}
FORMAT_EFFECT = {
    ExerciseFormat.REVERSE_TRANSLATE: 0.35,
    ExerciseFormat.REVERSE_TAP: -0.28,
    ExerciseFormat.LISTEN: 0.70,
}
SESSION_EFFECT = {Session.LESSON: 0.0, Session.PRACTICE: -0.14, Session.TEST: 0.35}

DEVELOPED = ["US", "GB", "DE", "FR", "JP", "KR", "AU", "CA", "ES", "IT"]
DEVELOPING = ["MX", "BR", "CO", "IN", "CN", "RU", "TR", "AR", "PE", "VN"]

DEP_LABELS = ["nsubj", "obj", "det", "amod", "advmod", "obl", "nmod", "case", "mark", "cop"]

# language being learned, which is the language the tokens are in
L2_OF = {Track.EN_ES: "en", Track.ES_EN: "es", Track.FR_EN: "fr"}

SYLLABLES = {
    "en": (["b", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "w"],
           ["a", "e", "i", "o", "u"],
           ["", "n", "t", "s", "r", "ll", "ck"]),
    "es": (["b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t", "v"],
           ["a", "e", "i", "o", "u"],
           ["", "o", "a", "ar", "er", "os", "as"]),
    "fr": (["b", "c", "d", "f", "g", "j", "l", "m", "n", "p", "r", "s", "t", "v"],
           ["a", "e", "i", "o", "u", "ou", "ai"],
           ["", "e", "er", "eau", "ier", "age", "on"]),
    # cognate pool shared by the two Romance lexicons
    "cognate": (["b", "c", "d", "f", "g", "l", "m", "n", "p", "r", "s", "t", "v"],
                ["a", "e", "i", "o", "u"],
                ["", "a", "o", "e", "al", "on", "ar"]),
}


def make_word(rng: random.Random, lang: str) -> str:
    onsets, vowels, endings = SYLLABLES[lang]
    n_syll = rng.choice([1, 2, 2, 3])
    word = "".join(rng.choice(onsets) + rng.choice(vowels) for _ in range(n_syll))
    return word + rng.choice(endings)


def build_lexicon(
    rng: random.Random, lang: str, count: int, seen: set[str]
) -> list[dict]:
    """Draw `count` fresh lexicon entries; `seen` guards against collisions
    across pools so a surface form never carries two difficulty values."""
    pos_names = list(POS_WEIGHTS)
    pos_w = list(POS_WEIGHTS.values())
    lexicon: list[dict] = []
    while len(lexicon) < count:
        word = make_word(rng, lang)
        if word in seen:
            continue
        seen.add(word)
        difficulty = rng.gauss(0.0, TOKEN_SD)
        lexicon.append(
            {
                "word": word,
                "pos": rng.choices(pos_names, weights=pos_w)[0],
                "difficulty": difficulty,
                "difficulty_web": WEB_MIX[0] * difficulty
                + WEB_MIX[1] * rng.gauss(0.0, TOKEN_SD),
            }
        )
    return lexicon


def morph_for(rng: random.Random, pos: str, gendered: bool) -> tuple[str, ...]:
    feats = []
    if pos in ("NOUN", "PROPN"):
        feats.append("Number=" + rng.choice(["Sing", "Sing", "Plur"]))
        if gendered:
            feats.append("Gender=" + rng.choice(["Masc", "Fem"]))
    elif pos in ("VERB", "AUX"):
        feats.append("Person=" + rng.choice(["1", "2", "3"]))
        feats.append("Tense=" + rng.choice(["Pres", "Pres", "Past"]))
        feats.append("Number=" + rng.choice(["Sing", "Plur"]))
    elif pos == "ADJ" and gendered:
        feats.append("Gender=" + rng.choice(["Masc", "Fem"]))
        feats.append("Number=" + rng.choice(["Sing", "Plur"]))
    elif pos == "PRON":
        feats.append("Person=" + rng.choice(["1", "2", "3"]))
        feats.append("Number=" + rng.choice(["Sing", "Plur"]))
    elif pos == "DET":
        feats.append("Definite=" + rng.choice(["Def", "Def", "Ind"]))
        if gendered:
            feats.append("Gender=" + rng.choice(["Masc", "Fem"]))
    return tuple(feats)


class TrackWorld:
    """Per-track random state: users and the (possibly shared) lexicon."""

    def __init__(self, rng: random.Random, track: Track, lexicon: list[dict]):
        self.track = track
        self.lexicon = lexicon
        self.users = []
        for u in range(N_USERS):
            developed = rng.random() < 0.6
            pool = DEVELOPED if developed else DEVELOPING
            countries = [rng.choice(pool)]
            if rng.random() < 0.15:
                second = rng.choice(pool)
                if second != countries[0]:
                    countries.append(second)
            self.users.append(
                {
                    "id": f"u{track.value[:2]}{u:03d}",
                    "skill": rng.gauss(0.0, SKILL_SD),
                    "countries": tuple(countries),
                    "days": 0.0,
                }
            )
        self.used_exercise_ids: set[str] = set()

    def next_exercise_id(self, rng: random.Random) -> str:
        while True:
            exid = f"{rng.getrandbits(32):08x}"
            if exid not in self.used_exercise_ids:
                self.used_exercise_ids.add(exid)
                return exid


def generate_exercise(rng: random.Random, world: TrackWorld, client: Client | None = None):
    """One exercise block; returns labeled TokenInstances."""
    user = rng.choice(world.users)
    user["days"] = round(user["days"] + rng.uniform(0.1, 2.5), 3)
    if client is None:
        client = rng.choices(list(CLIENT_WEIGHTS), weights=list(CLIENT_WEIGHTS.values()))[0]
    session = rng.choices(
        list(SESSION_EFFECT), weights=[80, 15, 5]
    )[0]
    fmt = rng.choices(list(FORMAT_EFFECT), weights=[55, 30, 15])[0]
    time: int | None = None
    if rng.random() > 0.05:
        time = max(1, min(60, int(math.exp(rng.gauss(1.8, 0.6)))))
    prompt = None
    if fmt is ExerciseFormat.LISTEN and rng.random() < 0.5:
        prompt = " ".join(
            rng.choice(world.lexicon)["word"] for _ in range(rng.randint(2, 5))
        )
    meta = ExerciseMeta(
        user_id=user["id"],
        countries=user["countries"],
        days=user["days"],
        client=client,
        session=session,
        format=fmt,
        time=time,
        prompt=prompt,
        extras=(),
    )
    exid = world.next_exercise_id(rng)
    length = rng.randint(3, 7)
    root_pos = rng.randint(1, length)
    instances = []
    for ti in range(1, length + 1):
        entry = rng.choice(world.lexicon)
        morph = morph_for(rng, entry["pos"], gendered=L2_OF[world.track] != "en")
        if ti == root_pos:
            dep_label, dep_head = "root", 0
        else:
            dep_label = rng.choice(DEP_LABELS)
            dep_head = rng.choice([i for i in range(1, length + 1) if i != ti])
        difficulty = (
            entry["difficulty_web"] if client is Client.WEB else entry["difficulty"]
        )
        logit = (
            BASE_LOGIT
            + difficulty
            + POS_EFFECT[entry["pos"]]
            + sum(MORPH_EFFECT.get(m, 0.0) for m in morph)
            + FORMAT_EFFECT[fmt]
            + SESSION_EFFECT[session]
            + user["skill"]
            + DAYS_EFFECT * user["days"]
            + rng.gauss(0.0, NOISE_SD)
        )
        p = 1.0 / (1.0 + math.exp(-logit))
        label = 1 if rng.random() < p else 0
        instances.append(
            TokenInstance(
                instance_id=f"{exid}{ti:02d}",
                token=entry["word"],
                part_of_speech=entry["pos"],
                morph_features=morph,
                dep_label=dep_label,
                dep_head=dep_head,
                label=label,
                meta=meta,
                track=world.track,
            )
        )
    return instances


def strip_labels(instances):
    return [
        TokenInstance(
            instance_id=i.instance_id,
            token=i.token,
            part_of_speech=i.part_of_speech,
            morph_features=i.morph_features,
            dep_label=i.dep_label,
            dep_head=i.dep_head,
            label=None,
            meta=i.meta,
            track=i.track,
        )
        for i in instances
    ]


def generate_track(
    rng: random.Random, track: Track, lexicon: list[dict], out_dir: Path
) -> dict:
    world = TrackWorld(rng, track, lexicon)
    train: list[TokenInstance] = []
    for _ in range(TRAIN_EXERCISES):
        train.extend(generate_exercise(rng, world))
    dev_rotation = [
        Client.IOS, Client.ANDROID, Client.IOS,
        Client.ANDROID, Client.IOS, Client.ANDROID, Client.WEB,
    ]
    dev: list[TokenInstance] = []
    for i in range(DEV_EXERCISES):
        dev.extend(generate_exercise(rng, world, client=dev_rotation[i % len(dev_rotation)]))

    write_dataset(
        Dataset.from_instances(track=track, instances=tuple(train), split=Split.TRAIN),
        out_dir / f"{track.value}.train.slam",
    )
    write_dataset(
        Dataset.from_instances(track=track, instances=tuple(strip_labels(dev)), split=Split.DEV),
        out_dir / f"{track.value}.dev.slam",
    )
    key_lines = "".join(f"{i.instance_id} {i.label}\n" for i in dev)
    (out_dir / f"{track.value}.dev.key").write_text(key_lines, encoding="utf-8")

    dev_clients = {c.value: 0 for c in Client}
    for i in dev:
        dev_clients[i.meta.client.value] += 1
    return {
        "track": track.value,
        "train_n": len(train),
        "dev_n": len(dev),
        "train_pos_rate": sum(i.label for i in train) / len(train),
        "dev_pos_rate": sum(i.label for i in dev) / len(dev),
        "dev_clients": dev_clients,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="data/mini", type=Path)
    parser.add_argument("--seed", default=SEED, type=int)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)

    def child(offset: int) -> random.Random:
        return random.Random(args.seed + offset)

    seen: set[str] = set()
    lex_en = build_lexicon(child(LEXICON_SEED_OFFSET["en"]), "en", N_TOKENS, seen)
    cognates = build_lexicon(child(LEXICON_SEED_OFFSET["cognate"]), "cognate", N_COGNATES, seen)
    n_private = N_TOKENS - N_COGNATES
    lexicons = {
        Track.EN_ES: lex_en,
        Track.ES_EN: cognates + build_lexicon(child(LEXICON_SEED_OFFSET["es"]), "es", n_private, seen),
        Track.FR_EN: cognates + build_lexicon(child(LEXICON_SEED_OFFSET["fr"]), "fr", n_private, seen),
    }
    for track in (Track.EN_ES, Track.ES_EN, Track.FR_EN):
        stats = generate_track(child(TRACK_SEED_OFFSET[track]), track, lexicons[track], args.out)
        print(stats)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
