"""SLAM exercise-format ingestion.

Exercises arrive as blank-line-separated blocks: one or more ``#`` metadata
lines followed by whitespace-separated token lines
(id, token, POS, morph, dependency label, dependency head, optional 0/1 label).
Labeled splits carry the label inline; dev/test labels live in separate
two-column key files.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

from .errors import DataError, ParseError

log = logging.getLogger(__name__)

_COUNTRY_RE = re.compile(r"^[A-Z]{2}$")

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


@dataclass(frozen=True)
class Dataset:
    """Ordered token instances of a single track and split."""

    track: Track
    instances: tuple[TokenInstance, ...]
    split: Split

    def __post_init__(self):
        seen: set[str] = set()
        for inst in self.instances:
            if inst.instance_id in seen:
                raise DataError(f"duplicate instance id {inst.instance_id!r}")
            seen.add(inst.instance_id)
            if inst.track is not self.track:
                raise DataError(
                    f"instance {inst.instance_id!r} has track {inst.track.value}, "
                    f"dataset is {self.track.value}"
                )

    def __len__(self) -> int:
        return len(self.instances)


def _parse_meta_pairs(body: str, lineno: int) -> list[tuple[str, str]]:
    pairs = []
    for chunk in body.split():
        key, sep, value = chunk.partition(":")
        if not sep or not key:
            raise ParseError(f"malformed metadata entry {chunk!r}", lineno)
        pairs.append((key, value))
    return pairs


def _enum_value(enum_cls, key: str, value: str, lineno: int):
    try:
        return enum_cls(value)
    except ValueError:
        raise ParseError(f"unknown {key} value {value!r}", lineno) from None


def _build_meta(meta: dict[str, str], prompt: str | None,
                extras: list[tuple[str, str]], lineno: int) -> ExerciseMeta:
    missing = [k for k in _KNOWN_META_KEYS[:-1] if k not in meta]  # time optional
    if missing:
        raise ParseError(f"exercise metadata missing {', '.join(missing)}", lineno)

    countries = tuple(meta["countries"].split("|"))
    if not countries or any(not _COUNTRY_RE.match(c) for c in countries):
        raise ParseError(f"bad countries value {meta['countries']!r}", lineno)

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
        client=_enum_value(Client, "client", meta["client"], lineno),
        session=_enum_value(Session, "session", meta["session"], lineno),
        format=_enum_value(ExerciseFormat, "format", meta["format"], lineno),
        time=time,
        prompt=prompt,
        extras=tuple(extras),
    )


def _parse_token_line(line: str, lineno: int, meta: ExerciseMeta,
                      track: Track) -> TokenInstance:
    cols = line.split()
    if len(cols) not in (6, 7):
        raise ParseError(f"token line has {len(cols)} columns, expected 6 or 7", lineno)
    label: int | None = None
    if len(cols) == 7:
        if cols[6] not in ("0", "1"):
            raise ParseError(f"bad label value {cols[6]!r}", lineno)
        label = int(cols[6])
    try:
        dep_head = int(cols[5])
    except ValueError:
        raise ParseError(f"bad dependency head {cols[5]!r}", lineno) from None
    if dep_head < 0:
        raise ParseError(f"negative dependency head {cols[5]!r}", lineno)
    morph = () if cols[3] == "_" else tuple(cols[3].split("|"))
    return TokenInstance(
        instance_id=cols[0],
        token=cols[1],
        part_of_speech=cols[2],
        morph_features=morph,
        dep_label=cols[4],
        dep_head=dep_head,
        label=label,
        meta=meta,
        track=track,
    )


def parse_exercise_stream(
    lines: Iterable[str], track: Track
) -> Iterator[tuple[ExerciseMeta, list[TokenInstance]]]:
    """Stream (meta, tokens) pairs from SLAM text, one exercise block at a time.

    Memory stays constant per block; every non-blank line is consumed exactly
    once. Malformed input raises :class:`ParseError` with the line number.
    """
    meta_fields: dict[str, str] = {}
    extras: list[tuple[str, str]] = []
    prompt: str | None = None
    meta: ExerciseMeta | None = None
    tokens: list[TokenInstance] = []
    meta_line = 0

    def flush():
        nonlocal meta_fields, extras, prompt, meta, tokens
        if meta is None and meta_fields:
            meta = _build_meta(meta_fields, prompt, extras, meta_line)
        if meta is not None:
            yield meta, tokens
        meta_fields, extras, prompt, meta, tokens = {}, [], None, None, []

    for lineno, raw in enumerate(lines, 1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip():
            yield from flush()
            continue
        if line.startswith("#"):
            if tokens:
                raise ParseError("metadata line after token lines in the same block", lineno)
            body = line[1:].strip()
            if body.startswith("prompt:"):
                if prompt is not None:
                    raise ParseError("duplicate prompt line", lineno)
                prompt = line[line.index("prompt:") + len("prompt:"):]
                continue
            for key, value in _parse_meta_pairs(body, lineno):
                if key in meta_fields or any(k == key for k, _ in extras):
                    raise ParseError(f"duplicate metadata key {key!r}", lineno)
                if key in _KNOWN_META_KEYS:
                    meta_fields[key] = value
                else:
                    extras.append((key, value))
            meta_line = lineno
        else:
            if meta is None:
                if not meta_fields:
                    raise ParseError("token line outside an exercise block", lineno)
                meta = _build_meta(meta_fields, prompt, extras, meta_line)
            tokens.append(_parse_token_line(line, lineno, meta, track))
    yield from flush()


def parse_dataset(lines: Iterable[str], track: Track, split: Split) -> Dataset:
    """Parse a whole SLAM stream into a Dataset, preserving file order."""
    instances: list[TokenInstance] = []
    for _, tokens in parse_exercise_stream(lines, track):
        instances.extend(tokens)
    return Dataset(track=track, instances=tuple(instances), split=split)


def read_dataset(path: str | Path, track: Track, split: Split) -> Dataset:
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
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
    with Path(path).open("r", encoding="utf-8") as fh:
        return parse_label_key(fh)


def join_labels(dataset: Dataset, key: dict[str, int]) -> Dataset:
    """Return a copy of ``dataset`` with labels filled in from ``key``.

    Every instance id must appear in the key; ids in the key that are not in
    the dataset are logged as a warning and ignored.
    """
    for inst in dataset.instances:
        if inst.instance_id not in key:
            raise DataError(f"no label for instance id {inst.instance_id!r}")
    extra = len(key) - len(dataset.instances)
    if extra > 0:
        log.warning("label key has %d entries not present in the dataset", extra)
    joined = tuple(
        replace(inst, label=key[inst.instance_id]) for inst in dataset.instances
    )
    return Dataset(track=dataset.track, instances=joined, split=dataset.split)


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
    """Render a dataset back to SLAM text; re-parsing reproduces it exactly."""
    blocks: list[str] = []
    block: list[str] = []
    current_meta: ExerciseMeta | None = None
    for inst in dataset.instances:
        if inst.meta is not current_meta:
            if block:
                blocks.append("\n".join(block))
            block = _format_meta(inst.meta)
            current_meta = inst.meta
        cols = [
            inst.instance_id,
            inst.token,
            inst.part_of_speech,
            "|".join(inst.morph_features) if inst.morph_features else "_",
            inst.dep_label,
            str(inst.dep_head),
        ]
        if inst.label is not None:
            cols.append(str(inst.label))
        block.append(" ".join(cols))
    if block:
        blocks.append("\n".join(block))
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    Path(path).write_text(serialize_dataset(dataset), encoding="utf-8")
