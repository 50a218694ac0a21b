"""Sparse feature encoding shared by both learners.

Categorical namespaces (user, lowercased token, POS, each morph key=value,
dependency label, exercise format, session, client) map to disjoint index
ranges, each with a trailing OOV slot. Three numeric dimensions follow:
days/100, time clamped to [0, 60] and divided by 60, and a time-present
indicator. Stateless scaling keeps encoding a pure function of (instance,
vocabulary).

``encode_rows`` encodes a whole sequence of instances at once into CSR
arrays plus the ``(n, 3)`` numeric block; both learners train and score from
it. It looks up each exercise's metadata once and each distinct
(token, POS, morph, dep) combination once. ``encode`` is the per-instance
reference that it equals row for row; ``FeatureVector``, ``encode_dataset``
and ``to_dense`` remain for tests and single-instance use.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError
from .slam_format import Dataset, TokenInstance

NAMESPACES = ("user", "token", "pos", "morph", "dep", "format", "session", "client")
NUMERIC_FEATURES = ("days", "time", "time_present")

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

    def numeric_index(self, name: str) -> int:
        base = self.total_dims - len(NUMERIC_FEATURES)
        return base + NUMERIC_FEATURES.index(name)

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
        if payload.get("format_version") != VOCAB_FORMAT_VERSION:
            raise DataError(
                f"unsupported vocabulary format version {payload.get('format_version')!r}"
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
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


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


def build_vocab(
    train: Dataset | Sequence[Dataset], min_count: int = 1
) -> Vocabulary:
    """Build a vocabulary from one or more training datasets.

    Strings below ``min_count`` fall into the per-namespace OOV slot. Index
    assignment follows first occurrence in input order, so rebuilding from the
    same data yields an identical vocabulary.
    """
    datasets = [train] if isinstance(train, Dataset) else list(train)
    if min_count < 1:
        raise DataError("min_count must be >= 1")
    instances = [inst for ds in datasets for inst in ds.instances]
    if not instances:
        raise DataError("cannot build a vocabulary from an empty dataset")

    counts: dict[str, Counter] = {ns: Counter() for ns in NAMESPACES}
    for inst in instances:
        for ns, values in _namespace_strings(inst).items():
            counts[ns].update(values)

    maps: dict[str, dict[str, int]] = {ns: {} for ns in NAMESPACES}
    for inst in instances:
        for ns, values in _namespace_strings(inst).items():
            for value in values:
                if counts[ns][value] >= min_count and value not in maps[ns]:
                    maps[ns][value] = len(maps[ns])
    return _assemble(maps)


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


def encode_rows(
    instances: Sequence[TokenInstance], vocab: Vocabulary
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encode instances as CSR rows: ``(indptr, indices, numeric)``.

    Row i's active binary dimensions are ``indices[indptr[i]:indptr[i+1]]``,
    strictly increasing, and ``numeric[i]`` holds its days, time and
    time-present values; together they equal ``encode(instances[i], vocab)``.
    Tokens of one exercise share one metadata object, so user, format,
    session, client and the numerics are looked up once per run of tokens
    with the same metadata object; token, POS, dep and the morph set once
    per distinct combination. Namespaces occupy increasing index ranges, so a row laid out
    in ``NAMESPACES`` order is sorted without a per-row sort.
    """
    maps, offsets, sizes = vocab.maps, vocab.offsets, vocab.sizes

    def index(ns: str, value: str) -> int:
        return offsets[ns] + maps[ns].get(value, sizes[ns] - 1)

    meta_rows: list[tuple[int, ...]] = []  # user, format, session, client
    numeric_rows: list[tuple[float, float, float]] = []
    meta_ids: list[int] = []
    token_ids: list[int] = []
    token_keys: dict[tuple, int] = {}
    token_parts: list[tuple[int, ...]] = []  # token, POS, sorted morph, dep
    last_meta = None
    for inst in instances:
        meta = inst.meta
        if meta is not last_meta:
            last_meta = meta
            meta_rows.append(
                (
                    index("user", meta.user_id),
                    index("format", meta.format.value),
                    index("session", meta.session.value),
                    index("client", meta.client.value),
                )
            )
            numeric_rows.append(_numeric_values(meta))
        meta_ids.append(len(meta_rows) - 1)
        key = (inst.token, inst.part_of_speech, inst.morph_features, inst.dep_label)
        tid = token_keys.get(key)
        if tid is None:
            tid = token_keys[key] = len(token_parts)
            morph = sorted({index("morph", m) for m in inst.morph_features})
            token_parts.append(
                (
                    index("token", inst.token.lower()),
                    index("pos", inst.part_of_speech),
                    *morph,
                    index("dep", inst.dep_label),
                )
            )
        token_ids.append(tid)

    n = len(meta_ids)
    meta_id = np.array(meta_ids, dtype=np.intp)
    token_id = np.array(token_ids, dtype=np.intp)
    part_len = np.array([len(p) for p in token_parts], dtype=np.intp)
    part_start = np.zeros(len(token_parts) + 1, dtype=np.intp)
    np.cumsum(part_len, out=part_start[1:])
    part_flat = np.fromiter(
        chain.from_iterable(token_parts), dtype=np.intp, count=int(part_start[-1])
    )
    counts = part_len[token_id]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts + 4, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.intp)
    meta_idx = np.array(meta_rows, dtype=np.intp).reshape(-1, 4)[meta_id]
    starts, ends = indptr[:-1], indptr[1:]
    indices[starts] = meta_idx[:, 0]  # user comes first
    for j in range(1, 4):  # format, session, client come last
        indices[ends - 4 + j] = meta_idx[:, j]
    # every row's token part, copied in one gather: slot t of row i reads
    # part_flat[part_start[token_id[i]] + t] and lands at indptr[i] + 1 + t
    within = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
    src = np.repeat(part_start[:-1][token_id], counts) + within
    dst = np.repeat(starts + 1, counts) + within
    indices[dst] = part_flat[src]
    numeric = np.array(numeric_rows, dtype=np.float64).reshape(-1, len(NUMERIC_FEATURES))
    return indptr, indices, numeric[meta_id]


def encode_dataset(dataset: Dataset, vocab: Vocabulary) -> list[FeatureVector]:
    return [encode(inst, vocab) for inst in dataset.instances]


def to_dense(fvs: Iterable[FeatureVector], vocab: Vocabulary) -> np.ndarray:
    """Stack feature vectors into a dense (n, total_dims) float64 matrix."""
    fvs = list(fvs)
    X = np.zeros((len(fvs), vocab.total_dims), dtype=np.float64)
    for i, fv in enumerate(fvs):
        X[i, list(fv.indices)] = 1.0
        for dim, value in fv.numeric:
            X[i, dim] = value
    return X


def labels_array(dataset: Dataset) -> np.ndarray:
    """Labels as float64; raises if any instance is unlabeled."""
    missing = [i.instance_id for i in dataset.instances if i.label is None]
    if missing:
        raise DataError(f"unlabeled instance {missing[0]!r} (and possibly more)")
    return np.array([i.label for i in dataset.instances], dtype=np.float64)
