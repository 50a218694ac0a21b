"""SLAM exercise-format ingestion.

Exercises arrive as blank-line-separated blocks: one or more ``#`` metadata
lines followed by whitespace-separated token lines
(id, token, POS, morph, dependency label, dependency head, optional 0/1 label).
Labeled splits carry the label inline; dev/test labels live in separate
two-column key files.

A parsed split is one record, a ``Dataset``: its track, its split and the
join of two tables, one ``ExerciseMeta`` per exercise and one (token, POS,
morph field, dep) tuple per distinct token key, which the parser interns as
it reads. The token rows are columns: read-only int32 arrays of each token's
exercise index, key index and dependency head, a read-only int8 array of
its label (-1 for none), and ``Ids``, every id in one string with int32 end
offsets. No Python object is held per token, and within one parse each
distinct key field and metadata string is one ``str`` object. Each distinct
countries field is split and checked once, and client, session and format
values map through dicts. The label join fills the label column by one key
lookup per id, and serialization writes one block per exercise from the two
tables. ``TokenInstance`` objects are built only when asked for
(``Dataset.instances``), for tests and single-token use.
"""

from __future__ import annotations

import logging
import math
import operator
import re
from array import array
from dataclasses import dataclass, fields, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, ParseError
from .validation import open_text

log = logging.getLogger(__name__)

# a countries field: two-letter codes joined by "|"
_COUNTRIES_RE = re.compile(r"[A-Z]{2}(?:\|[A-Z]{2})*")

# Metadata keys handled explicitly; anything else is preserved as an extra.
_KNOWN_META_KEYS = ("user", "countries", "days", "client", "session", "format", "time")
_KNOWN_META_SET = frozenset(_KNOWN_META_KEYS)

_INT32_MAX = 2**31 - 1
_ITER_ROWS = 4096  # id offsets read per step when iterating ``Ids``


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


@dataclass(frozen=True, slots=True)
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


def _column(values, dtype) -> np.ndarray:
    """``values`` as a read-only array; an ``array.array`` of the same item
    size is used in place, not copied."""
    column = np.asarray(values, dtype=dtype)
    column.flags.writeable = False
    return column


@dataclass(frozen=True, eq=False)
class Ids(Sequence[str]):
    """A column of instance ids held as one string: id i is
    ``text[ends[i - 1]:ends[i]]`` (from 0 for the first), and ``ends`` is a
    read-only int32 array. It reads as a sequence of ``str``; an id is sliced
    out when it is read, so no object is kept per id."""

    text: str
    ends: np.ndarray

    @classmethod
    def of(cls, ids: Sequence[str]) -> "Ids":
        ends = np.cumsum(np.fromiter(map(len, ids), dtype=np.int64, count=len(ids)))
        if len(ends) and ends[-1] > _INT32_MAX:
            raise DataError(f"the instance ids of one split exceed {_INT32_MAX} characters")
        return cls("".join(ids), _column(ends, np.int32))

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, i) -> str:
        i = operator.index(i)
        end = int(self.ends[i])  # raises IndexError out of range
        if i < 0:
            i += len(self.ends)
        return self.text[int(self.ends[i - 1]) if i else 0:end]

    def __iter__(self):
        text, start = self.text, 0
        for lo in range(0, len(self.ends), _ITER_ROWS):
            for end in self.ends[lo:lo + _ITER_ROWS].tolist():
                yield text[start:end]
                start = end

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ids):
            return NotImplemented
        return self.text == other.text and np.array_equal(self.ends, other.ends)


# a label as the label column stores it
_LABEL_CODES = {None: -1, 0: 0, 1: 1}


@dataclass(frozen=True, eq=False)
class Dataset:
    """The tokens of a single track and split, in file order, held as the
    join of two tables: one metadata object per exercise and one (token,
    POS, morph field, dep) tuple per distinct token key.

    Row i is one token: ``ids[i]``, ``heads[i]``, ``labels[i]`` (0 or 1, -1
    when unlabeled), ``exercise[i]``, the index of its metadata in ``metas``,
    and ``key[i]``, the index of its key in ``keys``. ``ids`` is an ``Ids``;
    ``key``, ``heads`` and ``exercise`` are read-only int32 arrays and
    ``labels`` a read-only int8 array. A key's morph field is the raw SLAM
    field (see ``morph_features``). Exercise indices never decrease along the
    rows, every entry of ``metas`` has at least one row, ``keys`` holds each
    key once, in order of first occurrence, and no id repeats: the parser and
    ``from_instances`` check that as they read the ids.

    Two datasets are equal when all their fields are, so the exercise
    boundaries count as well as the tokens.
    """

    track: Track
    split: Split
    ids: Ids
    key: np.ndarray
    keys: list[tuple[str, str, str, str]]
    heads: np.ndarray
    labels: np.ndarray
    exercise: np.ndarray
    metas: list[ExerciseMeta]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(mine, theirs) if isinstance(mine, np.ndarray)
                    else mine == theirs):
                return False
        return True

    @classmethod
    def from_instances(
        cls, track: Track, instances: Iterable[TokenInstance], split: Split
    ) -> "Dataset":
        """A dataset of instance objects; an exercise starts wherever the
        metadata object changes. Morph features are joined as
        ``serialize_dataset`` writes them. A label must be 0, 1 or None, and
        a dependency head must fit in int32."""
        instances = tuple(instances)
        ids = [inst.instance_id for inst in instances]
        metas: list[ExerciseMeta] = []
        exercise = array("i")
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
        _check_unique(ids)
        labels = [_LABEL_CODES.get(inst.label) for inst in instances]
        if None in labels:
            inst = instances[labels.index(None)]
            raise DataError(f"instance {inst.instance_id!r} has label {inst.label!r}, "
                            "expected 0, 1 or None")
        try:
            heads = _column(array("i", [inst.dep_head for inst in instances]), np.int32)
        except OverflowError:
            inst = next(i for i in instances if not -_INT32_MAX - 1 <= i.dep_head <= _INT32_MAX)
            raise DataError(f"instance {inst.instance_id!r} has dependency head "
                            f"{inst.dep_head}, outside int32") from None
        key_ids: dict[tuple[str, str, str, str], int] = {}
        key = [
            key_ids.setdefault((inst.token, inst.part_of_speech,
                                _morph_field(inst.morph_features), inst.dep_label), len(key_ids))
            for inst in instances
        ]
        return cls(track, split, Ids.of(ids), _column(key, np.int32), list(key_ids), heads,
                   _column(labels, np.int8), _column(exercise, np.int32), metas)

    @property
    def instances(self) -> tuple[TokenInstance, ...]:
        """One ``TokenInstance`` per row, built afresh on every access."""
        keys, metas, track = self.keys, self.metas, self.track
        rows = zip(self.ids, self.key.tolist(), self.heads.tolist(), self.labels.tolist(),
                   self.exercise.tolist())
        return tuple(
            TokenInstance(
                instance_id=instance_id,
                token=keys[k][0],
                part_of_speech=keys[k][1],
                morph_features=morph_features(keys[k][2]),
                dep_label=keys[k][3],
                dep_head=head,
                label=None if label < 0 else label,
                meta=metas[e],
                track=track,
            )
            for instance_id, k, head, label, e in rows
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


def _build_meta(meta: dict[str, str], prompt: str | None,
                extras: Iterable[tuple[str, str]], lineno: int,
                countries_of: dict[str, tuple[str, ...]] | None = None,
                strings: dict[str, str] | None = None) -> ExerciseMeta:
    """The metadata of one exercise block. ``countries_of`` maps each
    countries field already checked in this parse to its tuple, so a repeated
    field is split and checked once, and ``strings`` maps each string already
    kept in this parse to the one object that is kept."""
    try:
        user, field, days_field = meta["user"], meta["countries"], meta["days"]
        client, session, fmt = meta["client"], meta["session"], meta["format"]
    except KeyError:
        missing = [k for k in _KNOWN_META_KEYS[:-1] if k not in meta]  # time optional
        raise ParseError(f"exercise metadata missing {', '.join(missing)}", lineno) from None

    countries = None if countries_of is None else countries_of.get(field)
    if countries is None:
        if not _COUNTRIES_RE.fullmatch(field):
            raise ParseError(f"bad countries value {field!r}", lineno)
        countries = tuple(field.split("|"))
        if strings is not None:
            countries = tuple([strings.setdefault(c, c) for c in countries])
        if countries_of is not None:
            countries_of[field] = countries

    try:
        days = float(days_field)
    except ValueError:
        raise ParseError(f"bad days value {days_field!r}", lineno) from None
    if not 0.0 <= days < math.inf:
        kind = "negative" if math.isfinite(days) else "non-finite"
        raise ParseError(f"{kind} days value {days_field!r}", lineno)

    time: int | None = None
    time_field = meta.get("time", "null")
    if time_field != "null":
        try:
            time = int(time_field)
        except ValueError:
            raise ParseError(f"bad time value {time_field!r}", lineno) from None
        if time < 0:
            raise ParseError(f"negative time value {time_field!r}", lineno)

    client, session, fmt = _CLIENTS.get(client), _SESSIONS.get(session), _FORMATS.get(fmt)
    if client is None or session is None or fmt is None:
        for name, members in (("client", _CLIENTS), ("session", _SESSIONS), ("format", _FORMATS)):
            if meta[name] not in members:
                raise ParseError(f"unknown {name} value {meta[name]!r}", lineno)
    if strings is not None:
        user = strings.setdefault(user, user)
        if prompt is not None:
            prompt = strings.setdefault(prompt, prompt)
        if extras:
            extras = [(strings.setdefault(k, k), strings.setdefault(v, v)) for k, v in extras]
    return ExerciseMeta(user, countries, days, client, session, fmt, time, prompt,
                        tuple(extras) if extras else ())


def _dep_head(field: str, lineno: int) -> int:
    try:
        head = int(field)
    except ValueError:
        raise ParseError(f"bad dependency head {field!r}", lineno) from None
    if head < 0:
        raise ParseError(f"negative dependency head {field!r}", lineno)
    if head > _INT32_MAX:
        raise ParseError(f"dependency head {field!r} above {_INT32_MAX}", lineno)
    return head


_LABELS = {"0": 0, "1": 1}


def _meta_fields(chunks: list[str]) -> dict[str, str] | None:
    """One metadata line's ``key:value`` chunks as a dict, built in one
    pass, or None when the line needs the checked route: a chunk without a
    ``:``, or a key that repeats or is not one of ``_KNOWN_META_KEYS``."""
    try:
        pairs = dict(chunk.split(":", 1) for chunk in chunks)
    except ValueError:
        return None
    if len(pairs) != len(chunks) or not pairs.keys() <= _KNOWN_META_SET:
        return None
    return pairs


def _parse_columns(lines: Iterable[str]) -> tuple:
    """Parse SLAM text into the ``Dataset`` fields after ``split``, in file
    order, interning each token key, key field and metadata string as it is
    read. A block without tokens adds no exercise, but its metadata is still
    checked. Duplicate ids are checked once the whole stream is read.

    Every non-blank line is consumed exactly once; malformed input raises
    :class:`ParseError` with the line number.
    """
    ids: list[str] = []
    key, heads, labels = array("i"), array("i"), array("b")
    starts: list[int] = []  # each exercise's first row
    key_ids: dict[tuple[str, str, str, str], int] = {}
    strings: dict[str, str] = {}  # one object per distinct key field and metadata string
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
            _build_meta(meta_fields, prompt, extras.items(), meta_line, countries_of, strings)
        meta_fields, extras, prompt, meta = {}, {}, None, None

    for lineno, raw in enumerate(lines, 1):
        cols = raw.split()
        if not cols:
            flush()
            continue
        if raw[0] == "#":
            if meta is not None:
                raise ParseError("metadata line after token lines in the same block", lineno)
            chunks = cols[1:] if cols[0] == "#" else [cols[0][1:], *cols[1:]]  # after the "#"
            if chunks and chunks[0].startswith("prompt:"):
                if prompt is not None:
                    raise ParseError("duplicate prompt line", lineno)
                line = raw.rstrip("\n").rstrip("\r")
                prompt = line[line.index("prompt:") + len("prompt:"):]
                continue
            line_fields = None if meta_fields or extras else _meta_fields(chunks)
            if line_fields is not None:
                meta_fields = line_fields
            else:
                for name, value in _parse_meta_pairs(raw[1:], lineno):
                    if name in meta_fields or name in extras:
                        raise ParseError(f"duplicate metadata key {name!r}", lineno)
                    if name in _KNOWN_META_SET:
                        meta_fields[name] = value
                    else:
                        extras[name] = value
            meta_line = lineno
            continue
        if meta is None:
            if not meta_fields:
                raise ParseError("token line outside an exercise block", lineno)
            meta = _build_meta(meta_fields, prompt, extras.items(), meta_line, countries_of,
                               strings)
            metas.append(meta)
            starts.append(len(ids))
        n = len(cols)
        if n == 7:
            label = _LABELS.get(cols[6])
            if label is None:
                raise ParseError(f"bad label value {cols[6]!r}", lineno)
        elif n == 6:
            label = -1
        else:
            raise ParseError(f"token line has {n} columns, expected 6 or 7", lineno)
        head = heads_of.get(cols[5])
        if head is None:
            head = heads_of[cols[5]] = _dep_head(cols[5], lineno)
        token_key = (cols[1], cols[2], cols[3], cols[4])
        k = key_ids.get(token_key)
        if k is None:
            k = key_ids[tuple([strings.setdefault(f, f) for f in token_key])] = len(key_ids)
        ids.append(cols[0])
        key.append(k)
        heads.append(head)
        labels.append(label)
    flush()
    _check_unique(ids)
    starts.append(len(ids))
    exercise = np.repeat(np.arange(len(metas), dtype=np.int32),
                         np.diff(np.array(starts, dtype=np.intp)))
    return (Ids.of(ids), _column(key, np.int32), list(key_ids), _column(heads, np.int32),
            _column(labels, np.int8), _column(exercise, np.int32), metas)


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
        labels = np.fromiter(map(key.__getitem__, ids), dtype=np.int8, count=len(ids))
    except KeyError:
        missing = next(i for i in ids if i not in key)
        raise DataError(f"no label for instance id {missing!r}") from None
    extra = len(key) - len(ids)
    if extra > 0:
        log.warning("label key has %d entries not present in the dataset", extra)
    return replace(dataset, labels=_column(labels, np.int8))


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
    rows = zip(dataset.exercise.tolist(), dataset.ids, dataset.key.tolist(),
               dataset.heads.tolist(), dataset.labels.tolist())
    for e, instance_id, k, head, label in rows:
        token, pos, morph, dep = dataset.keys[k]
        line = f"{instance_id} {token} {pos} {morph} {dep} {head}"
        blocks[e].append(line if label < 0 else f"{line} {label}")
    if not blocks:
        return ""
    return "\n\n".join("\n".join(block) for block in blocks) + "\n"


def write_dataset(dataset: Dataset, path: str | Path) -> None:
    Path(path).write_text(serialize_dataset(dataset), encoding="utf-8")
