"""SLAM exercise-format ingestion.

Exercises arrive as blank-line-separated blocks: one or more ``#`` metadata
lines followed by whitespace-separated token lines
(id, token, POS, morph, dependency label, dependency head, optional 0/1 label).
Labeled splits carry the label inline; dev/test labels live in separate
two-column key files.

A parsed split is one record, a ``Dataset``: its track, its split and the
join of two tables, one ``ExerciseMeta`` per exercise and one (token, POS,
morph field, dep) tuple per distinct token key, which the parser interns as
it reads. Each token keeps its id, head and label and two int codes, its
exercise index and its key index. Within one parse each distinct countries
field is split and checked once, and client, session and format values map
through dicts. The label join fills the label column by one key lookup per
id, and serialization writes one block per exercise from the two tables.
``TokenInstance`` objects are built only when asked for
(``Dataset.instances``), for tests and single-token use.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

from .errors import DataError, ParseError
from .validation import open_text

log = logging.getLogger(__name__)

# a countries field: two-letter codes joined by "|"
_COUNTRIES_RE = re.compile(r"[A-Z]{2}(?:\|[A-Z]{2})*")

# Metadata keys handled explicitly; anything else is preserved as an extra.
_KNOWN_META_KEYS = ("user", "countries", "days", "client", "session", "format", "time")


class Track(str, Enum):
    EN_ES = "en_es"
    ES_EN = "es_en"
    FR_EN = "fr_en"


class Client(str, Enum):
    IOS = "ios"
    ANDROID = "android"
    WEB = "web"


class Session(str, Enum):
    LESSON = "lesson"
    PRACTICE = "practice"
    TEST = "test"


class ExerciseFormat(str, Enum):
    REVERSE_TRANSLATE = "reverse_translate"
    REVERSE_TAP = "reverse_tap"
    LISTEN = "listen"


class Split(str, Enum):
    TRAIN = "train"
    DEV = "dev"
    TEST = "test"


@dataclass(frozen=True)
class ExerciseMeta:
    """Per-exercise metadata shared by all token instances of the exercise."""

    user_id: str
    countries: tuple[str, ...]
    days: float
    client: Client
    session: Session
    format: ExerciseFormat
    time: int | None = None
    prompt: str | None = None
    extras: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class TokenInstance:
    """One labeled token within an exercise."""

    instance_id: str
    token: str
    part_of_speech: str
    morph_features: tuple[str, ...]
    dep_label: str
    dep_head: int
    label: int | None
    meta: ExerciseMeta
    track: Track


def morph_features(field: str) -> tuple[str, ...]:
    """The morph features of a raw SLAM morph field (``_`` means none)."""
    return () if field == "_" else tuple(field.split("|"))


def _morph_field(features: tuple[str, ...]) -> str:
    return "|".join(features) if features else "_"


def _check_unique(ids: Sequence[str]) -> None:
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        for instance_id in ids:
            if instance_id in seen:
                raise DataError(f"duplicate instance id {instance_id!r}")
            seen.add(instance_id)


@dataclass(frozen=True)
class Dataset:
    """The tokens of a single track and split, in file order, held as the
    join of two tables: one metadata object per exercise and one (token,
    POS, morph field, dep) tuple per distinct token key.

    Row i is one token: ``ids[i]``, ``heads[i]``, ``labels[i]`` (None when
    unlabeled), ``exercise[i]``, the index of its metadata in ``metas``, and
    ``key[i]``, the index of its key in ``keys``. A key's morph field is the
    raw SLAM field (see ``morph_features``). Exercise indices never decrease
    along the rows, every entry of ``metas`` has at least one row, ``keys``
    holds each key once, in order of first occurrence, and no id repeats.

    Two datasets are equal when all their fields are, so the exercise
    boundaries count as well as the tokens.
    """

    track: Track
    split: Split
    ids: list[str]
    key: list[int]
    keys: list[tuple[str, str, str, str]]
    heads: list[int]
    labels: list[int | None]
    exercise: list[int]
    metas: list[ExerciseMeta]

    def __post_init__(self):
        _check_unique(self.ids)

    @classmethod
    def from_instances(
        cls, track: Track, instances: Iterable[TokenInstance], split: Split
    ) -> "Dataset":
        """A dataset of instance objects; an exercise starts wherever the
        metadata object changes. Morph features are joined as
        ``serialize_dataset`` writes them."""
        instances = tuple(instances)
        ids = [inst.instance_id for inst in instances]
        metas: list[ExerciseMeta] = []
        exercise: list[int] = []
        key_ids: dict[tuple[str, str, str, str], int] = {}
        key: list[int] = []
        for k, inst in enumerate(instances):
            if inst.track is not track:
                _check_unique(ids[: k + 1])  # an earlier duplicate is reported first
                raise DataError(
                    f"instance {inst.instance_id!r} has track {inst.track.value}, "
                    f"dataset is {track.value}"
                )
            if not metas or inst.meta is not metas[-1]:
                metas.append(inst.meta)
            exercise.append(len(metas) - 1)
            token_key = (inst.token, inst.part_of_speech, _morph_field(inst.morph_features),
                         inst.dep_label)
            key.append(key_ids.setdefault(token_key, len(key_ids)))
        return cls(track, split, ids, key, list(key_ids),
                   [i.dep_head for i in instances], [i.label for i in instances],
                   exercise, metas)

    @property
    def instances(self) -> tuple[TokenInstance, ...]:
        """One ``TokenInstance`` per row, built afresh on every access."""
        return tuple(map(self._instance, range(len(self))))

    def _instance(self, i: int) -> TokenInstance:
        token, pos, morph, dep = self.keys[self.key[i]]
        return TokenInstance(
            instance_id=self.ids[i],
            token=token,
            part_of_speech=pos,
            morph_features=morph_features(morph),
            dep_label=dep,
            dep_head=self.heads[i],
            label=self.labels[i],
            meta=self.metas[self.exercise[i]],
            track=self.track,
        )

    def __len__(self) -> int:
        return len(self.ids)


def _parse_meta_pairs(body: str, lineno: int) -> list[tuple[str, str]]:
    pairs = []
    for chunk in body.split():
        key, sep, value = chunk.partition(":")
        if not sep or not key:
            raise ParseError(f"malformed metadata entry {chunk!r}", lineno)
        pairs.append((key, value))
    return pairs


def _members(enum_cls) -> dict[str, Enum]:
    return {member.value: member for member in enum_cls}


_CLIENTS, _SESSIONS, _FORMATS = _members(Client), _members(Session), _members(ExerciseFormat)


def _enum_value(members: dict[str, Enum], key: str, value: str, lineno: int):
    member = members.get(value)
    if member is None:
        raise ParseError(f"unknown {key} value {value!r}", lineno)
    return member


def _build_meta(meta: dict[str, str], prompt: str | None,
                extras: Iterable[tuple[str, str]], lineno: int,
                countries_of: dict[str, tuple[str, ...]] | None = None) -> ExerciseMeta:
    """The metadata of one exercise block. ``countries_of`` maps each
    countries field already checked in this parse to its tuple, so a repeated
    field is split and checked once."""
    missing = [k for k in _KNOWN_META_KEYS[:-1] if k not in meta]  # time optional
    if missing:
        raise ParseError(f"exercise metadata missing {', '.join(missing)}", lineno)

    field = meta["countries"]
    countries = None if countries_of is None else countries_of.get(field)
    if countries is None:
        if not _COUNTRIES_RE.fullmatch(field):
            raise ParseError(f"bad countries value {field!r}", lineno)
        countries = tuple(field.split("|"))
        if countries_of is not None:
            countries_of[field] = countries

    try:
        days = float(meta["days"])
    except ValueError:
        raise ParseError(f"bad days value {meta['days']!r}", lineno) from None
    if not math.isfinite(days):
        raise ParseError(f"non-finite days value {meta['days']!r}", lineno)
    if days < 0:
        raise ParseError(f"negative days value {meta['days']!r}", lineno)

    time: int | None = None
    if "time" in meta and meta["time"] != "null":
        try:
            time = int(meta["time"])
        except ValueError:
            raise ParseError(f"bad time value {meta['time']!r}", lineno) from None
        if time < 0:
            raise ParseError(f"negative time value {meta['time']!r}", lineno)

    return ExerciseMeta(
        user_id=meta["user"],
        countries=countries,
        days=days,
        client=_enum_value(_CLIENTS, "client", meta["client"], lineno),
        session=_enum_value(_SESSIONS, "session", meta["session"], lineno),
        format=_enum_value(_FORMATS, "format", meta["format"], lineno),
        time=time,
        prompt=prompt,
        extras=tuple(extras),
    )


def _dep_head(field: str, lineno: int) -> int:
    try:
        head = int(field)
    except ValueError:
        raise ParseError(f"bad dependency head {field!r}", lineno) from None
    if head < 0:
        raise ParseError(f"negative dependency head {field!r}", lineno)
    return head


_LABELS = {"0": 0, "1": 1}


def _parse_columns(lines: Iterable[str]) -> tuple:
    """Parse SLAM text into the ``Dataset`` fields after ``split``, in file
    order, interning each token key as it is read. A block without tokens
    adds no exercise, but its metadata is still checked.

    Every non-blank line is consumed exactly once; malformed input raises
    :class:`ParseError` with the line number.
    """
    ids, key, heads, labels, exercise = [], [], [], [], []
    key_ids: dict[tuple[str, str, str, str], int] = {}
    heads_of: dict[str, int] = {}  # int() runs once per distinct head field
    countries_of: dict[str, tuple[str, ...]] = {}
    metas: list[ExerciseMeta] = []
    meta_fields: dict[str, str] = {}
    extras: dict[str, str] = {}  # unknown keys, in file order
    prompt: str | None = None
    meta: ExerciseMeta | None = None
    meta_line = 0

    def flush():
        nonlocal meta_fields, extras, prompt, meta
        if meta is None and meta_fields:  # no tokens: check the metadata, add no exercise
            _build_meta(meta_fields, prompt, extras.items(), meta_line, countries_of)
        meta_fields, extras, prompt, meta = {}, {}, None, None

    for lineno, raw in enumerate(lines, 1):
        cols = raw.split()
        if not cols:
            flush()
            continue
        if raw[0] == "#":
            line = raw.rstrip("\n").rstrip("\r")
            if meta is not None:
                raise ParseError("metadata line after token lines in the same block", lineno)
            body = line[1:].strip()
            if body.startswith("prompt:"):
                if prompt is not None:
                    raise ParseError("duplicate prompt line", lineno)
                prompt = line[line.index("prompt:") + len("prompt:"):]
                continue
            for name, value in _parse_meta_pairs(body, lineno):
                if name in meta_fields or name in extras:
                    raise ParseError(f"duplicate metadata key {name!r}", lineno)
                if name in _KNOWN_META_KEYS:
                    meta_fields[name] = value
                else:
                    extras[name] = value
            meta_line = lineno
            continue
        if meta is None:
            if not meta_fields:
                raise ParseError("token line outside an exercise block", lineno)
            meta = _build_meta(meta_fields, prompt, extras.items(), meta_line, countries_of)
            metas.append(meta)
            e = len(metas) - 1
        n = len(cols)
        if n == 7:
            label = _LABELS.get(cols[6])
            if label is None:
                raise ParseError(f"bad label value {cols[6]!r}", lineno)
        elif n == 6:
            label = None
        else:
            raise ParseError(f"token line has {n} columns, expected 6 or 7", lineno)
        head = heads_of.get(cols[5])
        if head is None:
            head = heads_of[cols[5]] = _dep_head(cols[5], lineno)
        ids.append(cols[0])
        key.append(key_ids.setdefault((cols[1], cols[2], cols[3], cols[4]), len(key_ids)))
        heads.append(head)
        labels.append(label)
        exercise.append(e)
    flush()
    return ids, key, list(key_ids), heads, labels, exercise, metas


def parse_dataset(lines: Iterable[str], track: Track, split: Split) -> Dataset:
    """Parse a whole SLAM stream into a Dataset, preserving file order."""
    return Dataset(track, split, *_parse_columns(lines))


def read_dataset(path: str | Path, track: Track, split: Split) -> Dataset:
    with open_text(path, "SLAM file") as fh:
        return parse_dataset(fh, track, split)


def parse_label_key(lines: Iterable[str]) -> dict[str, int]:
    """Parse a two-column ``instance_id label`` key file into a map."""
    labels: dict[str, int] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line:
            continue
        cols = line.split()
        if len(cols) != 2:
            raise ParseError(f"label line has {len(cols)} columns, expected 2", lineno)
        instance_id, value = cols
        if value not in ("0", "1"):
            raise ParseError(f"bad label value {value!r}", lineno)
        if instance_id in labels:
            raise ParseError(f"duplicate instance id {instance_id!r}", lineno)
        labels[instance_id] = int(value)
    return labels


def read_label_key(path: str | Path) -> dict[str, int]:
    with open_text(path, "label key") as fh:
        return parse_label_key(fh)


def join_labels(dataset: Dataset, key: dict[str, int]) -> Dataset:
    """Return a copy of ``dataset`` with labels filled in from ``key``.

    Every instance id must appear in the key; ids in the key that are not in
    the dataset are logged as a warning and ignored.
    """
    ids = dataset.ids
    try:
        labels = list(map(key.__getitem__, ids))
    except KeyError:
        missing = next(i for i in ids if i not in key)
        raise DataError(f"no label for instance id {missing!r}") from None
    extra = len(key) - len(ids)
    if extra > 0:
        log.warning("label key has %d entries not present in the dataset", extra)
    return replace(dataset, labels=labels)


def _format_meta(meta: ExerciseMeta) -> list[str]:
    lines = []
    if meta.prompt is not None:
        lines.append(f"# prompt:{meta.prompt}")
    parts = [
        f"user:{meta.user_id}",
        f"countries:{'|'.join(meta.countries)}",
        f"days:{meta.days!r}",
        f"client:{meta.client.value}",
        f"session:{meta.session.value}",
        f"format:{meta.format.value}",
    ]
    if meta.time is not None:
        parts.append(f"time:{meta.time}")
    parts.extend(f"{k}:{v}" for k, v in meta.extras)
    lines.append("# " + " ".join(parts))
    return lines


def serialize_dataset(dataset: Dataset) -> str:
    """Render a dataset back to SLAM text, one block per exercise, from its
    two tables; re-parsing reproduces it exactly."""
    blocks = [_format_meta(meta) for meta in dataset.metas]
    rows = zip(dataset.exercise, dataset.ids, dataset.key, dataset.heads, dataset.labels)
    for e, instance_id, k, head, label in rows:
        token, pos, morph, dep = dataset.keys[k]
        line = f"{instance_id} {token} {pos} {morph} {dep} {head}"
        blocks[e].append(line if label is None else f"{line} {label}")
    if not blocks:
        return ""
    return "\n\n".join("\n".join(block) for block in blocks) + "\n"


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    Path(path).write_text(serialize_dataset(dataset), encoding="utf-8")
