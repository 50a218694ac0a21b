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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, TrainingError
from .features import FeatureVector, Vocabulary, encode
from .numerics import sigmoid
from .slam_format import Dataset, Track

MT_FORMAT_VERSION = 1

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
        if self.l2 < 0.0:
            raise TrainingError("l2 must be >= 0")

    def to_dict(self) -> dict:
        return {
            "embed_dim": self.embed_dim,
            "hidden_dim": self.hidden_dim,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "l2": self.l2,
            "seed": self.seed,
        }


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


def init_model(
    vocab: Vocabulary, tracks: Iterable[Track], config: MtConfig
) -> MtModel:
    """Seeded initialization: weights uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)],
    biases zero. Heads are created in sorted track order so the draw sequence
    is reproducible."""
    rng = np.random.default_rng(config.seed)
    d, hdim = config.embed_dim, config.hidden_dim
    bound_e = 1.0 / math.sqrt(d)
    embedding = rng.uniform(-bound_e, bound_e, size=(vocab.total_dims, d))
    hidden_weight = rng.uniform(-bound_e, bound_e, size=(d, hdim))
    hidden_bias = np.zeros(hdim)
    bound_h = 1.0 / math.sqrt(hdim)
    heads: dict[Track, tuple[np.ndarray, float]] = {}
    for track in sorted(set(tracks), key=lambda t: t.value):
        heads[track] = (rng.uniform(-bound_h, bound_h, size=hdim), 0.0)
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


def _prepare_tracks(
    datasets: Sequence[Dataset], vocab: Vocabulary
) -> dict[Track, tuple[list[FeatureVector], list[int]]]:
    by_track: dict[Track, tuple[list[FeatureVector], list[int]]] = {}
    for ds in datasets:
        if ds.track in by_track:
            raise TrainingError(f"duplicate dataset for track {ds.track.value!r}")
        fvs, labels = [], []
        for inst in ds.instances:
            if inst.label is None:
                raise DataError(f"unlabeled instance {inst.instance_id!r}")
            fvs.append(encode(inst, vocab))
            labels.append(inst.label)
        if len(set(labels)) < 2:
            raise TrainingError(
                f"track {ds.track.value!r} contains a single class"
            )
        by_track[ds.track] = (fvs, labels)
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

    for _epoch in range(config.epochs):
        batches: dict[Track, list[list[int]]] = {}
        for t in tracks:
            n = len(by_track[t][0])
            perm = rng.permutation(n)
            batches[t] = [
                list(perm[i : i + config.batch_size])
                for i in range(0, n, config.batch_size)
            ]
        rounds = max(len(b) for b in batches.values())
        for r in range(rounds):
            for t in tracks:
                if r >= len(batches[t]):
                    continue
                _apply_batch(model, t, by_track[t], batches[t][r], lr)

    for t in tracks:
        fvs, labels = by_track[t]
        losses = [
            instance_loss(model, t, fv, y) for fv, y in zip(fvs, labels)
        ]
        model.train_losses[t] = float(np.mean(losses))
    model.validate_finite()
    return model


def _apply_batch(model, track, data, batch, lr):
    fvs, labels = data
    scale = lr / len(batch)
    acc_emb = np.zeros_like(model.embedding)
    acc_hw = np.zeros_like(model.hidden_weight)
    acc_hb = np.zeros_like(model.hidden_bias)
    acc_w = np.zeros_like(model.heads[track][0])
    acc_b = 0.0
    for i in batch:
        g = grad(model, track, fvs[i], labels[i])
        acc_emb += g.embedding
        acc_hw += g.hidden_weight
        acc_hb += g.hidden_bias
        gw, gb = g.heads[track]
        acc_w += gw
        acc_b += gb
    model.embedding -= scale * acc_emb
    model.hidden_weight -= scale * acc_hw
    model.hidden_bias -= scale * acc_hb
    w, b = model.heads[track]
    model.heads[track] = (w - scale * acc_w, b - scale * acc_b)


def predict_mt_scores(model: MtModel, dataset: Dataset) -> np.ndarray:
    """Probabilities for every instance; the dataset's track must have a head."""
    return np.array(
        [
            forward(model, dataset.track, encode(inst, model.vocab))
            for inst in dataset.instances
        ]
    )


def save_mt_model(model: MtModel, path: str | Path) -> None:
    payload = {
        "format_version": MT_FORMAT_VERSION,
        "kind": "multitask",
        "config": model.config.to_dict(),
        "vocab": model.vocab.to_dict(),
        "embedding": model.embedding.tolist(),
        "hidden_weight": model.hidden_weight.tolist(),
        "hidden_bias": model.hidden_bias.tolist(),
        "heads": {
            t.value: {"weight": w.tolist(), "bias": b}
            for t, (w, b) in sorted(model.heads.items(), key=lambda kv: kv[0].value)
        },
        "train_losses": {
            t.value: loss
            for t, loss in sorted(model.train_losses.items(), key=lambda kv: kv[0].value)
        },
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_mt_model(path: str | Path) -> MtModel:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    if payload.get("kind") != "multitask":
        raise DataError(f"not a multitask model file: {path}")
    if payload.get("format_version") != MT_FORMAT_VERSION:
        raise DataError(
            f"unsupported model format version {payload.get('format_version')!r}"
        )
    model = MtModel(
        config=MtConfig(**payload["config"]),
        vocab=Vocabulary.from_dict(payload["vocab"]),
        embedding=np.array(payload["embedding"], dtype=np.float64),
        hidden_weight=np.array(payload["hidden_weight"], dtype=np.float64),
        hidden_bias=np.array(payload["hidden_bias"], dtype=np.float64),
        heads={
            Track(name): (np.array(d["weight"], dtype=np.float64), float(d["bias"]))
            for name, d in payload["heads"].items()
        },
        train_losses={
            Track(name): float(v) for name, v in payload["train_losses"].items()
        },
    )
    model.validate_finite()
    return model
