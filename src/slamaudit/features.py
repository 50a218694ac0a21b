"""Sparse feature encoding shared by both learners.

Categorical namespaces (user, lowercased token, POS, each morph key=value,
dependency label, exercise format, session, client) map to disjoint index
ranges, each with a trailing OOV slot; these binary dimensions come first,
``0..n_binary-1``. Three numeric dimensions follow: days/100, time clamped
to [0, 60] and divided by 60, and a time-present indicator. Stateless
scaling keeps encoding a pure function of (instance, vocabulary).

Every feature lives on one side of a split's join (``EXERCISE_NAMESPACES``
plus the numerics, or ``KEY_NAMESPACES``). ``build_vocab`` interns from a
dataset's two tables, the exercise metadata and the distinct (token, POS,
morph field, dep) keys. ``exercise_features`` and ``key_rows`` look each
side up once per exercise and once per key, and split each distinct raw
morph field once; a key's row is padded to a fixed width with
``n_binary``, which is no binary feature. GBDT scoring reads the two sides
as they are. ``token_features`` joins them into one padded row of binary
features and one row of numerics per token, which both learners train from
(and multitask scores from). ``encode`` is the per-instance reference that
``token_features`` equals row for row; ``FeatureVector`` and ``to_dense``
remain for tests and single-instance use.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError
from .manifest import sha256_config
from .slam_format import Dataset, ExerciseMeta, TokenInstance, morph_features
from .validation import check_format_version, require_keys

NAMESPACES = ("user", "token", "pos", "morph", "dep", "format", "session", "client")
NUMERIC_FEATURES = ("days", "time", "time_present")
# The two sides of a split's join, each feature on exactly one: the exercise
# side is read from an exercise's metadata (with NUMERIC_FEATURES), the key
# side from a (token, POS, morph field, dep) key.
EXERCISE_NAMESPACES = ("user", "format", "session", "client")
KEY_NAMESPACES = ("token", "pos", "morph", "dep")

VOCAB_FORMAT_VERSION = 1

_DAYS_SCALE = 100.0
_TIME_CLAMP = 60.0


def _namespace_strings(inst: TokenInstance) -> dict[str, list[str]]:
    return {
        "user": [inst.meta.user_id],
        "token": [inst.token.lower()],
        "pos": [inst.part_of_speech],
        "morph": list(inst.morph_features),
        "dep": [inst.dep_label],
        "format": [inst.meta.format.value],
        "session": [inst.meta.session.value],
        "client": [inst.meta.client.value],
    }


@dataclass(frozen=True)
class Vocabulary:
    """Frozen string-to-index maps with disjoint per-namespace ranges."""

    maps: dict[str, dict[str, int]]  # namespace -> string -> local index
    offsets: dict[str, int]  # namespace -> first global index
    sizes: dict[str, int]  # namespace size including the OOV slot
    total_dims: int

    def global_index(self, namespace: str, value: str) -> int:
        local = self.maps[namespace].get(value)
        if local is None:
            local = self.sizes[namespace] - 1  # OOV slot
        return self.offsets[namespace] + local

    def oov_index(self, namespace: str) -> int:
        return self.offsets[namespace] + self.sizes[namespace] - 1

    @property
    def n_binary(self) -> int:
        """The binary dimensions are 0..n_binary-1; the numeric ones follow."""
        return self.total_dims - len(NUMERIC_FEATURES)

    def numeric_index(self, name: str) -> int:
        return self.n_binary + NUMERIC_FEATURES.index(name)

    def to_dict(self) -> dict:
        return {
            "format_version": VOCAB_FORMAT_VERSION,
            "namespaces": {ns: self.maps[ns] for ns in NAMESPACES},
            "numeric_features": list(NUMERIC_FEATURES),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Vocabulary":
        if not isinstance(payload, dict):
            raise DataError("vocabulary must be a JSON object")
        check_format_version(payload, VOCAB_FORMAT_VERSION, "vocabulary")
        require_keys(payload, ("numeric_features",), "vocabulary")
        if payload["numeric_features"] != list(NUMERIC_FEATURES):
            raise DataError(
                f"vocabulary numeric_features must be {list(NUMERIC_FEATURES)}, "
                f"got {payload['numeric_features']!r}"
            )
        namespaces = payload.get("namespaces")
        if not isinstance(namespaces, dict):
            raise DataError("vocabulary lacks a namespaces object")
        maps = {}
        for ns in NAMESPACES:
            local = namespaces.get(ns)
            # local indices must be exactly 0..n-1, or encoded dimensions
            # would collide across namespaces or run past total_dims
            if not (
                isinstance(local, dict)
                and all(type(i) is int for i in local.values())
                and sorted(local.values()) == list(range(len(local)))
            ):
                raise DataError(
                    f"vocabulary namespace {ns!r} must map strings to the indices 0..n-1"
                )
            maps[ns] = dict(local)
        return _assemble(maps)

    def sha256(self) -> str:
        return sha256_config(self.to_dict())


@dataclass(frozen=True)
class FeatureVector:
    """Active binary dimensions plus (dimension, value) numeric features."""

    indices: tuple[int, ...]
    numeric: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise DataError("feature indices must be strictly increasing")


def _assemble(maps: dict[str, dict[str, int]]) -> Vocabulary:
    offsets: dict[str, int] = {}
    sizes: dict[str, int] = {}
    cursor = 0
    for ns in NAMESPACES:
        offsets[ns] = cursor
        sizes[ns] = len(maps[ns]) + 1  # +1 for OOV
        cursor += sizes[ns]
    return Vocabulary(
        maps=maps,
        offsets=offsets,
        sizes=sizes,
        total_dims=cursor + len(NUMERIC_FEATURES),
    )


def build_vocab(train: Dataset | Sequence[Dataset]) -> Vocabulary:
    """Build a vocabulary from one or more training datasets.

    Index assignment follows first occurrence in input order, so rebuilding
    from the same data yields an identical vocabulary. Each namespace is fed
    by one side alone (``EXERCISE_NAMESPACES`` or ``KEY_NAMESPACES``), so
    interning from the metadata in exercise order and from the datasets'
    key tables, chained and deduplicated, keeps that order.
    """
    datasets = [train] if isinstance(train, Dataset) else list(train)
    if not any(len(ds) for ds in datasets):
        raise DataError("cannot build a vocabulary from an empty dataset")
    metas = [m for ds in datasets for m in ds.metas]
    keys = dict.fromkeys(chain.from_iterable(ds.keys for ds in datasets))
    strings = {
        "user": (m.user_id for m in metas),
        "token": (token.lower() for token, _, _, _ in keys),
        "pos": (pos for _, pos, _, _ in keys),
        # a raw morph field that repeats adds nothing new, so each is split once
        "morph": chain.from_iterable(
            map(morph_features, dict.fromkeys(morph for _, _, morph, _ in keys))
        ),
        "dep": (dep for _, _, _, dep in keys),
        "format": (m.format.value for m in metas),
        "session": (m.session.value for m in metas),
        "client": (m.client.value for m in metas),
    }
    return _assemble(
        {ns: {s: i for i, s in enumerate(dict.fromkeys(strings[ns]))} for ns in NAMESPACES}
    )


def encode(inst: TokenInstance, vocab: Vocabulary) -> FeatureVector:
    """Encode one instance; unseen strings land on their namespace OOV index."""
    indices = set()
    for ns, values in _namespace_strings(inst).items():
        for value in values:
            indices.add(vocab.global_index(ns, value))
    days_value = inst.meta.days / _DAYS_SCALE
    if inst.meta.time is None:
        time_value, present = 0.0, 0.0
    else:
        time_value = min(max(float(inst.meta.time), 0.0), _TIME_CLAMP) / _TIME_CLAMP
        present = 1.0
    numeric = (
        (vocab.numeric_index("days"), days_value),
        (vocab.numeric_index("time"), time_value),
        (vocab.numeric_index("time_present"), present),
    )
    return FeatureVector(indices=tuple(sorted(indices)), numeric=numeric)


def _indexer(vocab: Vocabulary):
    """``vocab.global_index`` as a closure over the vocabulary's maps."""
    maps, offsets, sizes = vocab.maps, vocab.offsets, vocab.sizes

    def index(ns: str, value: str) -> int:
        return offsets[ns] + maps[ns].get(value, sizes[ns] - 1)

    return index


def _index_once(index, ns: str, values: list) -> np.ndarray:
    """``index(ns, value)`` of each of ``values``, looked up once per distinct
    value; an enum member is looked up by its ``value``."""
    codes = {v: index(ns, v.value if isinstance(v, Enum) else v) for v in dict.fromkeys(values)}
    return np.fromiter(map(codes.__getitem__, values), dtype=np.intp, count=len(values))


def exercise_features(metas: Sequence[ExerciseMeta], vocab: Vocabulary
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The exercise side of a split: an ``(E, 4)`` array of each exercise's
    indices in ``EXERCISE_NAMESPACES`` order, each distinct value looked up
    once, and an ``(E, 3)`` array of its numeric values: days/100, time
    clamped to [0, 60] and divided by 60 (0 without a time), and 1 where a
    time is present."""
    index = _indexer(vocab)
    indices = np.column_stack([
        _index_once(index, "user", [m.user_id for m in metas]),
        _index_once(index, "format", [m.format for m in metas]),
        _index_once(index, "session", [m.session for m in metas]),
        _index_once(index, "client", [m.client for m in metas]),
    ])
    n = len(metas)
    times = [m.time for m in metas]
    days = np.fromiter((m.days for m in metas), dtype=np.float64, count=n)
    time = np.fromiter((0 if t is None else t for t in times), dtype=np.float64, count=n)
    present = np.fromiter((t is not None for t in times), dtype=np.float64, count=n)
    numeric = np.column_stack(
        [days / _DAYS_SCALE, np.clip(time, 0.0, _TIME_CLAMP) / _TIME_CLAMP, present]
    )
    return indices, numeric


def key_rows(keys: Sequence[tuple[str, str, str, str]], vocab: Vocabulary) -> np.ndarray:
    """The key side of a split: row j holds key j's binary features, its
    token, POS, sorted morph features (split from the raw field) and dep in
    ``KEY_NAMESPACES`` order, padded to the longest key with
    ``vocab.n_binary``."""
    index = _indexer(vocab)
    morph_ids = {
        field: sorted({index("morph", m) for m in morph_features(field)})
        for field in {morph for _, _, morph, _ in keys}
    }
    parts = [
        (index("token", token.lower()), index("pos", pos), *morph_ids[morph], index("dep", dep))
        for token, pos, morph, dep in keys
    ]
    lengths = np.fromiter(map(len, parts), dtype=np.intp, count=len(parts))
    rows = np.full((len(parts), lengths.max(initial=0)), vocab.n_binary, dtype=np.intp)
    rows[np.arange(rows.shape[1]) < lengths[:, None]] = np.fromiter(
        chain.from_iterable(parts), dtype=np.intp, count=int(lengths.sum())
    )
    return rows


def token_features(dataset: Dataset, vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """Every token of the dataset's features: ``(binary, numeric)``. Row i of
    ``binary`` holds token i's exercise's four ``exercise_features``, then
    its key's ``key_rows`` row (padding included); row i of ``numeric`` its
    days, time and time-present values. The binary entries other than
    ``vocab.n_binary`` are, as a set, ``encode(token i).indices``."""
    ex_idx, ex_num = exercise_features(dataset.metas, vocab)
    exercise = dataset.exercise
    binary = np.concatenate([ex_idx[exercise], key_rows(dataset.keys, vocab)[dataset.key]],
                            axis=1)
    return binary, ex_num[exercise]


def to_dense(fvs: Iterable[FeatureVector], vocab: Vocabulary) -> np.ndarray:
    """Stack feature vectors into a dense (n, total_dims) float64 matrix."""
    fvs = list(fvs)
    X = np.zeros((len(fvs), vocab.total_dims), dtype=np.float64)
    for i, fv in enumerate(fvs):
        X[i, list(fv.indices)] = 1.0
        for dim, value in fv.numeric:
            X[i, dim] = value
    return X


def labels_array(dataset: Dataset, hint: str = "") -> np.ndarray:
    """Labels as float64; the first unlabeled instance fails, named, and
    ``hint`` ends the message."""
    labels = dataset.labels
    if len(labels) and labels.min() < 0:
        missing = dataset.ids[int(labels.argmin())]  # the first -1
        raise DataError(f"unlabeled instance {missing!r} (and possibly more){hint}")
    return labels.astype(np.float64)
