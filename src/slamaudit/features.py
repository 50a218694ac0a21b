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
side up once per exercise and once per key, so a raw morph field is split
once per distinct key; a key's row is padded to a fixed width with
``n_binary``, which is no binary feature. GBDT scoring reads the two sides
as they are. ``token_features`` joins them into one padded row of binary
features and one row of numerics per token, which both learners train from
(and multitask scores from). ``encode`` is the per-instance reference that
``token_features`` equals row for row; ``FeatureVector`` and ``to_dense``
remain for tests and single-instance use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError
from .manifest import sha256_config
from .slam_format import Dataset, ExerciseMeta, TokenInstance, morph_features
from .validation import check_format_version

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
    if not any(ds.ids for ds in datasets):
        raise DataError("cannot build a vocabulary from an empty dataset")
    metas = [m for ds in datasets for m in ds.metas]
    keys = dict.fromkeys(chain.from_iterable(ds.keys for ds in datasets))
    strings = {
        "user": (m.user_id for m in metas),
        "token": (token.lower() for token, _, _, _ in keys),
        "pos": (pos for _, pos, _, _ in keys),
        "morph": chain.from_iterable(morph_features(morph) for _, _, morph, _ in keys),
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


def _numeric_values(meta) -> tuple[float, float, float]:
    """days, time and time-present values of one exercise's metadata."""
    days_value = meta.days / _DAYS_SCALE
    if meta.time is None:
        return days_value, 0.0, 0.0
    return days_value, min(max(float(meta.time), 0.0), _TIME_CLAMP) / _TIME_CLAMP, 1.0


def _indexer(vocab: Vocabulary):
    """``vocab.global_index`` as a closure over the vocabulary's maps."""
    maps, offsets, sizes = vocab.maps, vocab.offsets, vocab.sizes

    def index(ns: str, value: str) -> int:
        return offsets[ns] + maps[ns].get(value, sizes[ns] - 1)

    return index


def exercise_features(metas: Sequence[ExerciseMeta], vocab: Vocabulary
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The exercise side of a split: an ``(E, 4)`` array of each exercise's
    indices in ``EXERCISE_NAMESPACES`` order, and an ``(E, 3)`` array of its
    numeric values."""
    index = _indexer(vocab)
    rows = [
        (
            index("user", m.user_id),
            index("format", m.format.value),
            index("session", m.session.value),
            index("client", m.client.value),
        )
        for m in metas
    ]
    numeric = [_numeric_values(m) for m in metas]
    return (
        np.array(rows, dtype=np.intp).reshape(-1, len(EXERCISE_NAMESPACES)),
        np.array(numeric, dtype=np.float64).reshape(-1, len(NUMERIC_FEATURES)),
    )


def key_rows(keys: Sequence[tuple[str, str, str, str]], vocab: Vocabulary) -> np.ndarray:
    """The key side of a split: row j holds key j's binary features, its
    token, POS, sorted morph features (split from the raw field) and dep in
    ``KEY_NAMESPACES`` order, padded to the longest key with
    ``vocab.n_binary``."""
    index = _indexer(vocab)
    parts = [
        (
            index("token", token.lower()),
            index("pos", pos),
            *sorted({index("morph", m) for m in morph_features(morph)}),
            index("dep", dep),
        )
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
    exercise = np.asarray(dataset.exercise, dtype=np.intp)
    key = np.asarray(dataset.key, dtype=np.intp)
    binary = np.concatenate([ex_idx[exercise], key_rows(dataset.keys, vocab)[key]], axis=1)
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
    if None in labels:
        missing = dataset.ids[labels.index(None)]
        raise DataError(f"unlabeled instance {missing!r} (and possibly more){hint}")
    return np.array(labels, dtype=np.float64)
