"""Shared-representation multi-task classifier.

One embedding table over all feature dimensions feeds a single hidden tanh
layer shared by every track; each track owns a scalar output head. An
instance embeds as the mean of its active binary dimensions' embedding rows
plus value-weighted rows for the numeric dimensions. Joint training
interleaves single-track mini-batches round-robin, so shared parameters see
every track while heads see only their own.

The L2 penalty applies to weights only (active embedding rows, the hidden
map, the active head), never to biases, and per instance only to rows that
instance actually touched; embedding rows of inactive features therefore
get exactly zero gradient.

Training packs each track once, from the padded token rows of
``features.token_features``, into fixed-width rows of (dimension, mixing
weight) pairs: 1/k on each of an instance's k active binary dimensions, the
value on each numeric one, and weight 0 on the padding. A mini-batch gathers
the nonzero pairs of its rows into a small dense matrix M over the u
distinct dimensions it touches, so the batch embeds as
``M @ embedding[u]``; one vectorized forward and backward pass gives the
batch's summed gradient, and only the rows u of the embedding are updated.
The final loss pass and ``predict_mt_scores`` run the same forward pass over
bounded row chunks. The per-instance ``forward``, ``instance_loss`` and
``grad`` are the reference: the finite-difference checks test ``grad``, and
the batched step is tested against the sum of ``grad`` over a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, TrainingError
from .features import (  # noqa: F401 (encode)
    NUMERIC_FEATURES,
    FeatureVector,
    Vocabulary,
    encode,  # unused here, but bench/tracing.py wraps slamaudit.multitask.encode
    labels_array,
    token_features,
)
from .numerics import sigmoid
from .slam_format import Dataset, Track
from .validation import number, read_model_file, require_keys, write_model_file

MT_FORMAT_VERSION = 1
_MT_MODEL_KEYS = (
    "config",
    "vocab",
    "embedding",
    "hidden_weight",
    "hidden_bias",
    "heads",
    "train_losses",
)
# rows per forward chunk when scoring a whole track; bounds the dense
# (rows x distinct dims) mixing matrix to a few MB
_CHUNK_ROWS = 256

__all__ = [
    "MtConfig",
    "MtModel",
    "MtGradients",
    "init_model",
    "forward",
    "instance_loss",
    "grad",
    "train_multitask",
    "save_mt_model",
    "load_mt_model",
]


@dataclass(frozen=True)
class MtConfig:
    embed_dim: int = 16
    hidden_dim: int = 16
    epochs: int = 5
    batch_size: int = 32
    learning_rate: float = 0.1
    l2: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        if self.embed_dim < 1 or self.hidden_dim < 1:
            raise TrainingError("embed_dim and hidden_dim must be >= 1")
        if self.epochs < 1:
            raise TrainingError("epochs must be >= 1")
        if self.batch_size < 1:
            raise TrainingError("batch_size must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise TrainingError("learning_rate must be finite and >= 0")
        if not (math.isfinite(self.l2) and self.l2 >= 0.0):
            raise TrainingError("l2 must be finite and >= 0")
        if self.seed < 0:
            raise TrainingError("seed must be >= 0")


@dataclass(eq=False)
class MtModel:
    """Parameters are treated as immutable once training returns."""

    config: MtConfig
    vocab: Vocabulary
    embedding: np.ndarray  # (total_dims, embed_dim)
    hidden_weight: np.ndarray  # (embed_dim, hidden_dim)
    hidden_bias: np.ndarray  # (hidden_dim,)
    heads: dict[Track, tuple[np.ndarray, float]]  # track -> (weights, bias)
    train_losses: dict[Track, float] = field(default_factory=dict)

    def validate_finite(self) -> None:
        arrays = [self.embedding, self.hidden_weight, self.hidden_bias]
        arrays += [w for w, _ in self.heads.values()]
        if not all(np.isfinite(a).all() for a in arrays):
            raise TrainingError("model contains non-finite parameters")
        if not all(math.isfinite(b) for _, b in self.heads.values()):
            raise TrainingError("model contains non-finite head bias")


@dataclass(eq=False)
class MtGradients:
    """Same shapes as the parameters; inactive entries are exactly zero."""

    embedding: np.ndarray
    hidden_weight: np.ndarray
    hidden_bias: np.ndarray
    heads: dict[Track, tuple[np.ndarray, float]]


def _uniform(rng: np.random.Generator, bound: float, shape: tuple[int, ...]) -> np.ndarray:
    """Parameters of ``shape`` drawn uniform in [-bound, bound]; a shape numpy
    cannot allocate ends in a TrainingError naming it."""
    try:
        return rng.uniform(-bound, bound, size=shape)
    except (MemoryError, ValueError):  # ValueError: more elements than an array holds
        raise TrainingError(
            f"cannot allocate multitask parameters of shape {shape}; "
            "lower embed_dim or hidden_dim"
        ) from None


def init_model(
    vocab: Vocabulary, tracks: Iterable[Track], config: MtConfig
) -> MtModel:
    """Seeded initialization: weights uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)],
    biases zero. Heads are created in sorted track order so the draw sequence
    is reproducible."""
    rng = np.random.default_rng(config.seed)
    d, hdim = config.embed_dim, config.hidden_dim
    bound_e = 1.0 / math.sqrt(d)
    embedding = _uniform(rng, bound_e, (vocab.total_dims, d))
    hidden_weight = _uniform(rng, bound_e, (d, hdim))
    hidden_bias = np.zeros(hdim)
    bound_h = 1.0 / math.sqrt(hdim)
    heads: dict[Track, tuple[np.ndarray, float]] = {}
    for track in sorted(set(tracks), key=lambda t: t.value):
        heads[track] = (_uniform(rng, bound_h, (hdim,)), 0.0)
    if not heads:
        raise TrainingError("at least one track is required")
    return MtModel(
        config=config,
        vocab=vocab,
        embedding=embedding,
        hidden_weight=hidden_weight,
        hidden_bias=hidden_bias,
        heads=heads,
    )


def _embed(model: MtModel, fv: FeatureVector) -> np.ndarray:
    active = np.fromiter(fv.indices, dtype=np.int64, count=len(fv.indices))
    e = model.embedding[active].mean(axis=0)
    for dim, value in fv.numeric:
        if value != 0.0:
            e = e + value * model.embedding[dim]
    return e


def _forward_parts(model: MtModel, track: Track, fv: FeatureVector):
    if track not in model.heads:
        raise DataError(f"model has no head for track {track.value!r}")
    e = _embed(model, fv)
    z = model.hidden_weight.T @ e + model.hidden_bias
    a = np.tanh(z)
    w, b = model.heads[track]
    logit = float(w @ a + b)
    return e, a, w, b, logit


def forward(model: MtModel, track: Track, fv: FeatureVector) -> float:
    """Mistake probability, strictly inside (0, 1)."""
    *_, logit = _forward_parts(model, track, fv)
    return float(sigmoid(logit))


def _penalty_rows(fv: FeatureVector) -> list[int]:
    rows = list(fv.indices)
    rows.extend(dim for dim, value in fv.numeric if value != 0.0)
    return rows


def instance_loss(model: MtModel, track: Track, fv: FeatureVector, label: int) -> float:
    """Logistic loss plus the L2 penalty on the weights this instance touches."""
    *_, logit = _forward_parts(model, track, fv)
    # softplus(logit) - y*logit, stable at both tails
    loss = max(logit, 0.0) + math.log1p(math.exp(-abs(logit))) - label * logit
    l2 = model.config.l2
    if l2 > 0.0:
        rows = _penalty_rows(fv)
        w, _ = model.heads[track]
        loss += 0.5 * l2 * float((model.embedding[rows] ** 2).sum())
        loss += 0.5 * l2 * float((model.hidden_weight**2).sum())
        loss += 0.5 * l2 * float((w**2).sum())
    return loss


def grad(model: MtModel, track: Track, fv: FeatureVector, label: int) -> MtGradients:
    """Analytic gradient of instance_loss w.r.t. every parameter."""
    e, a, w, _b, logit = _forward_parts(model, track, fv)
    p = float(sigmoid(logit))
    dlogit = p - label
    l2 = model.config.l2

    d_head_w = dlogit * a + l2 * w
    d_head_b = dlogit
    dz = (dlogit * w) * (1.0 - a * a)
    d_hidden_w = np.outer(e, dz) + l2 * model.hidden_weight
    d_hidden_b = dz
    de = model.hidden_weight @ dz

    d_embedding = np.zeros_like(model.embedding)
    active = list(fv.indices)
    d_embedding[active] = de / len(active)
    for dim, value in fv.numeric:
        if value != 0.0:
            d_embedding[dim] += value * de
    if l2 > 0.0:
        rows = _penalty_rows(fv)
        d_embedding[rows] += l2 * model.embedding[rows]

    heads = {}
    for t, (tw, _tb) in model.heads.items():
        if t == track:
            heads[t] = (d_head_w, d_head_b)
        else:
            heads[t] = (np.zeros_like(tw), 0.0)
    return MtGradients(
        embedding=d_embedding,
        hidden_weight=d_hidden_w,
        hidden_bias=d_hidden_b,
        heads=heads,
    )


@dataclass(frozen=True, eq=False)
class _PackedRows:
    """Instances as rows of mixing weights: row i of the implied
    (n, total_dims) matrix M holds ``vals[i, s]`` at ``cols[i, s]`` for
    every slot s with a nonzero weight, which is 1/k on each of its k active
    binary dimensions and the value of each nonzero numeric dimension, so
    ``M @ embedding`` is every instance's ``_embed``. Slots of weight 0
    (padding, zero numerics) are not entries. No (row, dim) entry repeats:
    binary indices are a set and numeric dims are disjoint from them. The
    entries of a row are exactly the embedding rows that instance touches,
    which is also its L2 penalty set."""

    cols: np.ndarray  # (n, width) intp
    vals: np.ndarray  # (n, width) float64
    labels: np.ndarray | None  # (n,) float64

    @property
    def n(self) -> int:
        return len(self.cols)


def _pack(dataset: Dataset, vocab: Vocabulary, labels=None) -> _PackedRows:
    """Pack the dataset's token rows from their ``token_features``: each
    row's binary slots, weight 1/k on its k features and 0 on the
    ``vocab.n_binary`` padding, then its numeric dims weighted by their
    values."""
    binary, numeric = token_features(dataset, vocab)
    active = binary != vocab.n_binary
    k = active.sum(axis=1, keepdims=True)
    numeric_dims = np.broadcast_to(vocab.n_binary + np.arange(len(NUMERIC_FEATURES)),
                                   numeric.shape)
    return _PackedRows(
        cols=np.concatenate([binary, numeric_dims], axis=1),
        vals=np.concatenate([np.where(active, 1.0 / k, 0.0), numeric], axis=1),
        labels=None if labels is None else np.array(labels, dtype=np.float64),
    )


def _gather(packed: _PackedRows, rows: np.ndarray):
    """Dense (len(rows), u) mixing matrix of the given rows over the sorted
    distinct dims ``u`` they touch, and each entry's position in ``u``."""
    vals = packed.vals[rows]
    owner, slot = np.nonzero(vals)
    u, inv = np.unique(packed.cols[rows[owner], slot], return_inverse=True)
    mix = np.zeros((len(rows), len(u)))
    mix[owner, inv] = vals[owner, slot]
    return mix, u, inv


def _batch_forward(model: MtModel, track: Track, mix: np.ndarray, u: np.ndarray):
    """Embeddings, hidden activations and logits of a gathered batch."""
    e = mix @ model.embedding[u]
    a = np.tanh(e @ model.hidden_weight + model.hidden_bias)
    w, b = model.heads[track]
    return e, a, a @ w + b


def _chunked(model: MtModel, track: Track, packed: _PackedRows, per_chunk) -> np.ndarray:
    """One value per row from ``per_chunk(rows, mix, u, logits)``, run over
    bounded row chunks so the dense mixing matrix stays small."""
    out = np.empty(packed.n)
    for lo in range(0, packed.n, _CHUNK_ROWS):
        rows = np.arange(lo, min(lo + _CHUNK_ROWS, packed.n))
        mix, u, _inv = _gather(packed, rows)
        *_, logits = _batch_forward(model, track, mix, u)
        out[rows] = per_chunk(rows, mix, u, logits)
    return out


def _prepare_tracks(
    datasets: Sequence[Dataset], vocab: Vocabulary
) -> dict[Track, _PackedRows]:
    by_track: dict[Track, _PackedRows] = {}
    for ds in datasets:
        if ds.track in by_track:
            raise TrainingError(f"duplicate dataset for track {ds.track.value!r}")
        labels = labels_array(ds)
        if not (len(labels) and labels.min() < labels.max()):  # np.unique loads numpy.ma
            raise TrainingError(
                f"track {ds.track.value!r} contains a single class"
            )
        by_track[ds.track] = _pack(ds, vocab, labels)
    if not by_track:
        raise TrainingError("no datasets given")
    return by_track


def train_multitask(
    datasets: Sequence[Dataset], vocab: Vocabulary, config: MtConfig
) -> MtModel:
    """Joint mini-batch gradient descent with round-robin track interleaving.

    Each batch holds instances of a single track; epoch order interleaves
    batch 0 of every track (tracks sorted by name), then batch 1, and so on.
    Per-epoch shuffles come from the same seeded generator as initialization,
    so the whole run is deterministic.
    """
    by_track = _prepare_tracks(datasets, vocab)
    model = init_model(vocab, by_track.keys(), config)
    rng = np.random.default_rng(config.seed + 1)  # separate stream from init
    tracks = sorted(by_track, key=lambda t: t.value)
    lr = config.learning_rate

    # a run that overflows ends in non-finite parameters, which
    # validate_finite reports as one error, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for _epoch in range(config.epochs):
            batches: dict[Track, list[np.ndarray]] = {}
            for t in tracks:
                perm = rng.permutation(by_track[t].n)
                batches[t] = [
                    perm[i : i + config.batch_size]
                    for i in range(0, len(perm), config.batch_size)
                ]
            rounds = max(len(b) for b in batches.values())
            for r in range(rounds):
                for t in tracks:
                    if r >= len(batches[t]):
                        continue
                    _apply_batch(model, t, by_track[t], batches[t][r], lr)

        for t in tracks:
            model.train_losses[t] = float(np.mean(_track_losses(model, t, by_track[t])))
    model.validate_finite()
    return model


def _batch_grad(model: MtModel, track: Track, packed: _PackedRows, rows: np.ndarray):
    """Gradient of the summed ``instance_loss`` over a batch, equal up to
    summation order to the sum of per-instance ``grad`` results. The
    embedding part covers only the touched rows ``u``; every other row's
    gradient is exactly zero. Returns (u, d_emb_u, d_hidden_w, d_hidden_b,
    d_head_w, d_head_b)."""
    mix, u, inv = _gather(packed, rows)
    m, l2 = len(rows), model.config.l2
    emb_u = model.embedding[u]
    e, a, logits = _batch_forward(model, track, mix, u)
    dlogit = sigmoid(logits) - packed.labels[rows]
    w, _b = model.heads[track]
    d_head_w = a.T @ dlogit + m * l2 * w
    d_head_b = float(dlogit.sum())
    dz = np.outer(dlogit, w) * (1.0 - a * a)
    d_hidden_w = e.T @ dz + m * l2 * model.hidden_weight
    d_hidden_b = dz.sum(axis=0)
    # each touched row takes its mixing-weighted share of dL/de, plus the L2
    # pull once per instance that touched it
    d_emb_u = mix.T @ (dz @ model.hidden_weight.T)
    d_emb_u += l2 * np.bincount(inv)[:, None] * emb_u
    return u, d_emb_u, d_hidden_w, d_hidden_b, d_head_w, d_head_b


def _apply_batch(model: MtModel, track: Track, packed: _PackedRows, rows, lr: float):
    u, d_emb_u, d_hidden_w, d_hidden_b, d_head_w, d_head_b = _batch_grad(
        model, track, packed, rows
    )
    scale = lr / len(rows)
    model.embedding[u] -= scale * d_emb_u
    model.hidden_weight -= scale * d_hidden_w
    model.hidden_bias -= scale * d_hidden_b
    w, b = model.heads[track]
    model.heads[track] = (w - scale * d_head_w, b - scale * d_head_b)


def _track_losses(model: MtModel, track: Track, packed: _PackedRows) -> np.ndarray:
    """``instance_loss`` of every row, computed batch-wise."""
    l2 = model.config.l2
    w, _b = model.heads[track]
    shared = 0.5 * l2 * float((model.hidden_weight**2).sum())
    head = 0.5 * l2 * float((w**2).sum())

    def losses(rows, mix, u, logits):
        y = packed.labels[rows]
        loss = np.maximum(logits, 0.0) + np.log1p(np.exp(-np.abs(logits))) - y * logits
        if l2 > 0.0:
            touched = (mix != 0.0) @ (model.embedding[u] ** 2).sum(axis=1)
            loss += 0.5 * l2 * touched
            loss += shared
            loss += head
        return loss

    return _chunked(model, track, packed, losses)


def predict_mt_scores(model: MtModel, dataset: Dataset) -> np.ndarray:
    """Probabilities for every instance; the dataset's track must have a head."""
    track = dataset.track
    if track not in model.heads:
        raise DataError(f"model has no head for track {track.value!r}")
    packed = _pack(dataset, model.vocab)
    with np.errstate(over="ignore", invalid="ignore"):
        scores = _chunked(model, track, packed, lambda rows, mix, u, logits: sigmoid(logits))
    if not np.isfinite(scores).all():
        raise DataError("model gives non-finite scores: its parameters overflow")
    return scores


def save_mt_model(model: MtModel, path: str | Path) -> str:
    """Write a multitask model file and return its text (the writer sorts
    every object's keys, so heads and losses come in track-name order)."""
    return write_model_file(path, "multitask", MT_FORMAT_VERSION, model.config, model.vocab, {
        "embedding": model.embedding.tolist(),
        "hidden_weight": model.hidden_weight.tolist(),
        "hidden_bias": model.hidden_bias.tolist(),
        "heads": {t.value: {"weight": w.tolist(), "bias": b} for t, (w, b) in model.heads.items()},
        "train_losses": {t.value: loss for t, loss in model.train_losses.items()},
    })


def _float_array(value, shape: tuple, source: str) -> np.ndarray:
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise DataError(f"{source} must be an array of numbers")
    if arr.shape != shape:
        raise DataError(f"{source} has shape {arr.shape}, expected {shape}")
    return arr.astype(np.float64)


def _track_map(value, source: str) -> dict[Track, object]:
    if not isinstance(value, dict):
        raise DataError(f"{source} must be a JSON object")
    try:
        return {Track(name): v for name, v in value.items()}
    except ValueError as exc:
        raise DataError(f"{source}: {exc}") from None


def load_mt_model(path: str | Path, payload: dict | None = None) -> MtModel:
    """Read a multitask model file, checking every key, type and shape, so a
    bad file ends in one DataError and never loads half-valid. ``payload``,
    when given, is the file's JSON object as the caller already parsed it,
    and the file is not read again."""
    payload, config = read_model_file(
        path, payload, "multitask", MT_FORMAT_VERSION, _MT_MODEL_KEYS, MtConfig
    )
    where = f"model file {path}"
    vocab = Vocabulary.from_dict(payload["vocab"])
    d, hdim = config.embed_dim, config.hidden_dim
    heads = {}
    for track, head in _track_map(payload["heads"], f"{where}: heads").items():
        name = f"{where}: head {track.value!r}"
        if not isinstance(head, dict):
            raise DataError(f"{name} must be a JSON object")
        require_keys(head, ("weight", "bias"), name)
        heads[track] = (
            _float_array(head["weight"], (hdim,), f"{name} weight"),
            number(head["bias"], f"{name} bias"),
        )
    if not heads:
        raise DataError(f"{where} has no heads")
    losses = _track_map(payload["train_losses"], f"{where}: train_losses")
    model = MtModel(
        config=config,
        vocab=vocab,
        embedding=_float_array(
            payload["embedding"], (vocab.total_dims, d), f"{where}: embedding"
        ),
        hidden_weight=_float_array(
            payload["hidden_weight"], (d, hdim), f"{where}: hidden_weight"
        ),
        hidden_bias=_float_array(payload["hidden_bias"], (hdim,), f"{where}: hidden_bias"),
        heads=heads,
        train_losses={
            t: number(v, f"{where}: train_losses {t.value!r}") for t, v in losses.items()
        },
    )
    model.validate_finite()
    return model
