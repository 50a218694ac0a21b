"""Seeded random SLAM dataset generator for round-trip and property tests."""

import random
import string

from slamaudit.slam_format import (
    Client,
    Dataset,
    ExerciseFormat,
    ExerciseMeta,
    Session,
    Split,
    TokenInstance,
    Track,
)

_ID_CHARS = string.ascii_letters + string.digits + "+/="
_WORD_CHARS = string.ascii_letters + "áéíñüç'-"
_COUNTRIES = ["US", "GB", "MX", "BR", "IN", "CO", "FR", "DE", "JP", "KR", "VN", "ZZ"]
_POS = ["NOUN", "VERB", "PRON", "DET", "ADJ", "ADV", "ADP", "CONJ", "NUM", "PART"]
_DEP = ["nsubj", "ROOT", "det", "dobj", "amod", "advmod", "case", "cop", "nmod"]
_MORPH_KEYS = ["Person", "Number", "Tense", "Gender", "Case", "Mood", "Definite"]
_MORPH_VALS = ["1", "2", "3", "Sing", "Plur", "Pres", "Past", "Masc", "Fem", "Nom"]


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(_WORD_CHARS) for _ in range(rng.randint(1, 9)))


def random_meta(rng: random.Random) -> ExerciseMeta:
    extras = ()
    if rng.random() < 0.25:
        extras = tuple(
            (f"x{rng.randint(0, 9)}{k}", _word(rng)) for k in range(rng.randint(1, 2))
        )
    fmt = rng.choice(list(ExerciseFormat))
    prompt = None
    if fmt is not ExerciseFormat.LISTEN and rng.random() < 0.8:
        prompt = " ".join(_word(rng) for _ in range(rng.randint(1, 6))) + "."
    return ExerciseMeta(
        user_id="".join(rng.choice(_ID_CHARS) for _ in range(8)),
        countries=tuple(rng.sample(_COUNTRIES, rng.randint(1, 3))),
        days=round(rng.uniform(0, 120), 3),
        client=rng.choice(list(Client)),
        session=rng.choice(list(Session)),
        format=fmt,
        time=rng.randint(0, 600) if rng.random() < 0.9 else None,
        prompt=prompt,
        extras=extras,
    )


def random_dataset(
    rng: random.Random,
    track: Track = Track.EN_ES,
    split: Split = Split.TRAIN,
    n_exercises: int = 5,
    labeled: bool = True,
) -> Dataset:
    instances = []
    for e in range(n_exercises):
        meta = random_meta(rng)
        exercise_id = f"{rng.getrandbits(32):08x}"
        for t in range(rng.randint(1, 8)):
            morph = tuple(
                sorted(
                    {
                        f"{rng.choice(_MORPH_KEYS)}={rng.choice(_MORPH_VALS)}"
                        for _ in range(rng.randint(0, 3))
                    }
                )
            )
            instances.append(
                TokenInstance(
                    instance_id=f"{exercise_id}{t + 1:02d}",
                    token=_word(rng),
                    part_of_speech=rng.choice(_POS),
                    morph_features=morph,
                    dep_label=rng.choice(_DEP),
                    dep_head=rng.randint(0, 9),
                    label=rng.choice([0, 1]) if labeled else None,
                    meta=meta,
                    track=track,
                )
            )
    return Dataset.from_instances(track=track, instances=tuple(instances), split=split)
