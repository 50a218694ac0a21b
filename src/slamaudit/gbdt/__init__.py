"""Gradient-boosted decision trees with logistic loss.

Second-order (Newton) boosting: each round fits a regression tree to the
gradients g = p - y and hessians h = p(1 - p) of the logistic loss, with
L2-regularized leaf values -G/(H + lambda) and the standard split gain
GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l). Splits are exact greedy: every cut
of every feature is scored. Training reads the sparse encoding. Every
feature but the three numeric ones is a one-hot binary, so one bincount per
node over the node's active (row, feature) entries gives the value-1 side
of all binary features at once, and the value-0 side is the node total
minus that (sparsity-aware split finding, Chen & Guestrin 2016, Alg. 3).
The numeric features are scanned over their sorted values. Training is
fully deterministic, so two runs with the same data and config produce
byte-identical models.

Training and ``predict_scores`` read the batch encoding of
``features.encode_rows``. Scoring lays out only the binary features some
tree splits on, plus the numeric block, as a small dense ``(n, k + 3)``
matrix and walks the trees over it, so its memory does not grow with the
vocabulary. ``predict_gbdt`` scores one instance through the per-instance
``encode`` and ``to_dense``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import DataError, TrainingError
from ..features import (
    NUMERIC_FEATURES,
    Vocabulary,
    encode,
    encode_rows,
    labels_array,
    to_dense,
)
from ..numerics import log_loss_from_raw, sigmoid
from ..slam_format import Dataset, TokenInstance
from ..validation import config_from, number, read_json_object, require_keys
from ._scan_python import scan_splits

MODEL_FORMAT_VERSION = 1
_MODEL_KEYS = ("trees", "config", "base_score", "vocab", "train_losses")
_TREE_INT_KEYS = ("feature", "left", "right")
_TREE_FLOAT_KEYS = ("threshold", "value")

__all__ = [
    "GbdtConfig",
    "SplitCandidate",
    "Tree",
    "GbdtModel",
    "best_split",
    "train_gbdt",
    "predict_gbdt",
    "predict_scores",
    "save_model",
    "load_model",
]


@dataclass(frozen=True)
class GbdtConfig:
    n_trees: int = 100
    max_depth: int = 6
    learning_rate: float = 0.1
    min_samples_leaf: int = 20
    l2_leaf_reg: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise TrainingError("n_trees must be >= 1")
        if self.max_depth < 1:
            raise TrainingError("max_depth must be >= 1")
        # learning_rate 0 is allowed: it must leave predictions at the base rate
        if not (0.0 <= self.learning_rate <= 1.0):
            raise TrainingError("learning_rate must be in [0, 1]")
        if self.min_samples_leaf < 1:
            raise TrainingError("min_samples_leaf must be >= 1")
        if self.l2_leaf_reg < 0.0:
            raise TrainingError("l2_leaf_reg must be >= 0")

    def to_dict(self) -> dict:
        return {
            "n_trees": self.n_trees,
            "max_depth": self.max_depth,
            "learning_rate": self.learning_rate,
            "min_samples_leaf": self.min_samples_leaf,
            "l2_leaf_reg": self.l2_leaf_reg,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class SplitCandidate:
    feature: int
    threshold: float
    gain: float


@dataclass(frozen=True)
class Tree:
    """Binary tree as parallel arrays; node 0 is the root.

    Internal nodes carry (feature, threshold, left, right); leaves carry a
    value and have feature == -1. Decision rule: go right iff value > threshold.
    """

    feature: tuple[int, ...]
    threshold: tuple[float, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    value: tuple[float, ...]

    def __post_init__(self):
        n = len(self.feature)
        if not (len(self.threshold) == len(self.left) == len(self.right) == len(self.value) == n):
            raise TrainingError("tree arrays must have equal length")
        if n < 1:
            raise TrainingError("tree must have at least one node")
        for i in range(n):
            if self.feature[i] < -1:
                raise TrainingError(f"node {i} has invalid feature {self.feature[i]}")
            if self.feature[i] == -1:
                if not math.isfinite(self.value[i]):
                    raise TrainingError(f"leaf {i} has non-finite value")
            else:
                if not math.isfinite(self.threshold[i]):
                    raise TrainingError(f"node {i} has non-finite threshold")
                for child in (self.left[i], self.right[i]):
                    if not (i < child < n):
                        raise TrainingError(f"node {i} has invalid child {child}")

    @property
    def n_leaves(self) -> int:
        return sum(1 for f in self.feature if f < 0)

    def depth(self) -> int:
        def walk(i: int) -> int:
            if self.feature[i] < 0:
                return 0
            return 1 + max(walk(self.left[i]), walk(self.right[i]))

        return walk(0)

    def predict_batch(self, X: np.ndarray, column: np.ndarray | None = None) -> np.ndarray:
        """Leaf value for every row of X.

        Feature f is read from column f of X, or from column ``column[f]``
        when a column map is given.
        """
        feature = np.asarray(self.feature, dtype=np.int64)
        if column is not None:
            feature = np.where(feature >= 0, column[feature], -1)
        threshold = np.asarray(self.threshold, dtype=np.float64)
        left = np.asarray(self.left, dtype=np.int64)
        right = np.asarray(self.right, dtype=np.int64)
        value = np.asarray(self.value, dtype=np.float64)
        idx = np.zeros(len(X), dtype=np.int64)
        while True:
            f = feature[idx]
            pending = np.nonzero(f >= 0)[0]
            if pending.size == 0:
                break
            node = idx[pending]
            go_right = X[pending, f[pending]] > threshold[node]
            idx[pending] = np.where(go_right, right[node], left[node])
        return value[idx]

    def to_dict(self) -> dict:
        return {
            "feature": list(self.feature),
            "threshold": list(self.threshold),
            "left": list(self.left),
            "right": list(self.right),
            "value": list(self.value),
        }

    @classmethod
    def from_dict(cls, d, source: str = "tree") -> "Tree":
        """Read a tree from its model-file form.

        Raises DataError unless every array is a list, ids are integers and
        thresholds and values numbers, and the tree passes the checks of
        ``__post_init__``.
        """
        if not isinstance(d, dict):
            raise DataError(f"{source} must be a JSON object")
        require_keys(d, _TREE_INT_KEYS + _TREE_FLOAT_KEYS, source)
        for key in _TREE_INT_KEYS:
            if not (isinstance(d[key], list) and all(type(v) is int for v in d[key])):
                raise DataError(f"{source}: {key} must be a list of integers")
        for key in _TREE_FLOAT_KEYS:
            if not isinstance(d[key], list):
                raise DataError(f"{source}: {key} must be a list of numbers")
        try:
            return cls(
                feature=tuple(d["feature"]),
                threshold=tuple(number(v, f"{source}: threshold") for v in d["threshold"]),
                left=tuple(d["left"]),
                right=tuple(d["right"]),
                value=tuple(number(v, f"{source}: value") for v in d["value"]),
            )
        except TrainingError as exc:
            raise DataError(f"{source}: {exc}") from None


@dataclass(frozen=True)
class GbdtModel:
    config: GbdtConfig
    base_score: float
    trees: tuple[Tree, ...]
    vocab: Vocabulary
    train_losses: tuple[float, ...]

    def __post_init__(self):
        if len(self.trees) != self.config.n_trees:
            raise TrainingError(
                f"model has {len(self.trees)} trees, config says {self.config.n_trees}"
            )
        if not math.isfinite(self.base_score):
            raise TrainingError("base_score must be finite")

    def predict_raw(self, X: np.ndarray, column: np.ndarray | None = None) -> np.ndarray:
        raw = np.full(len(X), self.base_score, dtype=np.float64)
        for tree in self.trees:
            raw += self.config.learning_rate * tree.predict_batch(X, column)
        return raw

    def predict_proba(self, X: np.ndarray, column: np.ndarray | None = None) -> np.ndarray:
        return sigmoid(self.predict_raw(X, column))


def best_split(
    X: np.ndarray,
    feature: int,
    gradients: np.ndarray,
    hessians: np.ndarray,
    config: GbdtConfig,
) -> SplitCandidate | None:
    """Best threshold for one feature, or None without a positive-gain split.

    Denominators must stay positive: either l2_leaf_reg > 0 or strictly
    positive hessians (the trainer guarantees the latter).
    """
    column = np.ascontiguousarray(X[:, feature], dtype=np.float64)
    if column.size == 0:
        raise TrainingError("cannot split an empty sample set")
    order = np.argsort(column, kind="stable")
    vals = column[order][None, :]
    g = np.ascontiguousarray(gradients, dtype=np.float64)[order][None, :]
    h = np.ascontiguousarray(hessians, dtype=np.float64)[order][None, :]
    f, pos, gain = scan_splits(
        np.ascontiguousarray(vals), np.ascontiguousarray(g), np.ascontiguousarray(h),
        config.l2_leaf_reg, config.min_samples_leaf,
    )
    if f < 0:
        return None
    return SplitCandidate(
        feature=feature, threshold=_cut_threshold(vals[0], pos), gain=gain
    )


def _cut_threshold(sorted_vals: np.ndarray, pos: int) -> float:
    lo = float(sorted_vals[pos])
    hi = float(sorted_vals[pos + 1])
    thr = (lo + hi) / 2.0
    if thr >= hi:  # adjacent floats: keep the cut between pos and pos+1 exact
        thr = lo
    return thr


@dataclass(frozen=True)
class _Node:
    """The training rows that reach one tree node.

    `rows` lists the member row ids in ascending order; `entry_rows` and
    `entry_feats` are their active (row, binary feature) pairs in row-major
    order. Row j of `num_rows` lists the member rows sorted by numeric column
    j (stable, so equal values keep row order) and row j of `num_vals` holds
    the values in that order. Children take filtered copies, so each numeric
    column is sorted once per training run.
    """

    rows: np.ndarray
    entry_rows: np.ndarray
    entry_feats: np.ndarray
    num_rows: np.ndarray
    num_vals: np.ndarray

    @classmethod
    def root(cls, entry_rows, entry_feats, numeric) -> "_Node":
        num_rows = np.ascontiguousarray(np.argsort(numeric, axis=0, kind="stable").T)
        num_vals = np.ascontiguousarray(np.take_along_axis(numeric.T, num_rows, axis=1))
        return cls(np.arange(len(numeric)), entry_rows, entry_feats, num_rows, num_vals)

    def right_rows(self, split: SplitCandidate, n_binary: int) -> np.ndarray:
        """Member rows with value > split.threshold on split.feature."""
        if split.feature < n_binary:
            return self.entry_rows[self.entry_feats == split.feature]
        j = split.feature - n_binary
        return self.num_rows[j][self.num_vals[j] > split.threshold]

    def partition(self, go_right: np.ndarray) -> tuple["_Node", "_Node"]:
        """(left, right) children; go_right is a mask over all training rows."""
        m = len(self.num_rows)

        def child(sel, entry_sel, num_sel) -> _Node:
            size = int(sel.sum())
            return _Node(
                self.rows[sel],
                self.entry_rows[entry_sel],
                self.entry_feats[entry_sel],
                self.num_rows[num_sel].reshape(m, size),
                self.num_vals[num_sel].reshape(m, size),
            )

        in_right = go_right[self.rows]
        entry_right = go_right[self.entry_rows]
        num_right = go_right[self.num_rows]
        left = child(~in_right, ~entry_right, ~num_right)
        return left, child(in_right, entry_right, num_right)


def _find_split(
    node: _Node, g: np.ndarray, h: np.ndarray, n_binary: int, lam: float, min_leaf: int
) -> SplitCandidate | None:
    """Best split of a node, or None without a positive-gain split.

    Binary features 0..n_binary-1 split at 0.5. One bincount each over the
    node's active entries gives count, G and H of every feature's value-1
    side; the value-0 side is the node total minus that. The numeric
    features n_binary.. take the exact scan over their sorted values. Ties
    go to the lowest feature id, then the lowest cut.
    """
    k = len(node.rows)
    big_g = g[node.rows].sum()
    big_h = h[node.rows].sum()
    best = None
    count1 = np.bincount(node.entry_feats, minlength=n_binary)
    valid = np.flatnonzero((count1 >= min_leaf) & (k - count1 >= min_leaf))
    if valid.size:
        feats, rows = node.entry_feats, node.entry_rows
        g1 = np.bincount(feats, weights=g[rows], minlength=n_binary)[valid]
        h1 = np.bincount(feats, weights=h[rows], minlength=n_binary)[valid]
        g0 = big_g - g1
        h0 = big_h - h1
        gain = g0 * g0 / (h0 + lam) + g1 * g1 / (h1 + lam) - big_g * big_g / (big_h + lam)
        i = int(np.argmax(gain))  # first occurrence: lowest feature id
        if gain[i] > 0.0:
            best = SplitCandidate(feature=int(valid[i]), threshold=0.5, gain=float(gain[i]))
    j, pos, num_gain = scan_splits(
        node.num_vals,
        np.ascontiguousarray(g[node.num_rows]),
        np.ascontiguousarray(h[node.num_rows]),
        lam,
        min_leaf,
    )
    if j >= 0 and (best is None or num_gain > best.gain):
        best = SplitCandidate(
            feature=n_binary + int(j),
            threshold=_cut_threshold(node.num_vals[j], pos),
            gain=num_gain,
        )
    return best


class _TreeBuilder:
    """Grows one tree on fixed gradients/hessians over the sparse rows."""

    def __init__(self, n_binary, g, h, config):
        self.n_binary = n_binary
        self.g = g
        self.h = h
        self.config = config
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.contrib = np.zeros(len(g), dtype=np.float64)

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _leaf(self, index: int, rows: np.ndarray):
        lam = self.config.l2_leaf_reg
        value = -self.g[rows].sum() / (self.h[rows].sum() + lam)
        self.value[index] = value
        self.contrib[rows] = value

    def build(self, node: _Node, depth: int) -> int:
        index = self._new_node()
        cfg = self.config
        split = None
        if depth < cfg.max_depth and len(node.rows) >= 2 * cfg.min_samples_leaf:
            split = _find_split(
                node, self.g, self.h, self.n_binary, cfg.l2_leaf_reg, cfg.min_samples_leaf
            )
        if split is None:
            self._leaf(index, node.rows)
            return index
        go_right = np.zeros(len(self.g), dtype=bool)
        go_right[node.right_rows(split, self.n_binary)] = True
        left, right = node.partition(go_right)
        self.feature[index] = split.feature
        self.threshold[index] = split.threshold
        self.left[index] = self.build(left, depth + 1)
        self.right[index] = self.build(right, depth + 1)
        return index

    def tree(self) -> Tree:
        return Tree(
            feature=tuple(self.feature),
            threshold=tuple(self.threshold),
            left=tuple(self.left),
            right=tuple(self.right),
            value=tuple(self.value),
        )


def train_gbdt(train: Dataset, vocab: Vocabulary, config: GbdtConfig) -> GbdtModel:
    """Fit the boosted ensemble; raises if training loss ever increases.

    Training is deterministic: exact greedy splits involve no sampling, and
    the recorded seed only documents the run.
    """
    y = labels_array(train)
    n = len(y)
    positives = float(y.sum())
    if n < 2 or positives == 0.0 or positives == float(n):
        raise TrainingError("training data must contain both classes")
    base = math.log(positives / (n - positives))

    indptr, entry_feats, numeric = encode_rows(train.instances, vocab)
    n_binary = vocab.total_dims - len(NUMERIC_FEATURES)
    entry_rows = np.repeat(np.arange(n), np.diff(indptr))
    root = _Node.root(entry_rows, entry_feats, numeric)

    raw = np.full(n, base, dtype=np.float64)
    losses = [log_loss_from_raw(raw, y)]
    trees = []
    for _round in range(config.n_trees):
        p = sigmoid(raw)
        g = p - y
        h = p * (1.0 - p)
        builder = _TreeBuilder(n_binary, g, h, config)
        builder.build(root, 0)
        trees.append(builder.tree())
        raw = raw + config.learning_rate * builder.contrib
        loss = log_loss_from_raw(raw, y)
        if loss > losses[-1] + 1e-12:
            raise TrainingError(
                f"training loss increased at round {len(trees)}: "
                f"{losses[-1]!r} -> {loss!r}"
            )
        losses.append(loss)
    return GbdtModel(
        config=config,
        base_score=base,
        trees=tuple(trees),
        vocab=vocab,
        train_losses=tuple(losses),
    )


def predict_gbdt(model: GbdtModel, instance: TokenInstance) -> float:
    """Mistake probability for one token instance, strictly inside (0, 1)."""
    fv = encode(instance, model.vocab)
    X = to_dense([fv], model.vocab)
    return float(model.predict_proba(X)[0])


def predict_scores(model: GbdtModel, dataset: Dataset) -> np.ndarray:
    """Vectorized probabilities for every instance in the dataset.

    Equal bit for bit to ``model.predict_proba`` over the dense encoding,
    but the matrix holds only the k binary features the trees split on
    (in ascending id order) and then the numeric block: ``(n, k + 3)``.
    """
    vocab = model.vocab
    indptr, indices, numeric = encode_rows(dataset.instances, vocab)
    n_binary = vocab.total_dims - len(NUMERIC_FEATURES)
    split_on = np.unique(
        np.fromiter(
            (f for tree in model.trees for f in tree.feature if 0 <= f < n_binary),
            dtype=np.intp,
        )
    )
    k = len(split_on)
    column = np.full(vocab.total_dims, -1, dtype=np.intp)
    column[split_on] = np.arange(k)
    column[n_binary:] = k + np.arange(len(NUMERIC_FEATURES))
    X = np.zeros((len(numeric), k + len(NUMERIC_FEATURES)), dtype=np.float64)
    entry_rows = np.repeat(np.arange(len(numeric)), np.diff(indptr))
    entry_cols = column[indices]
    kept = entry_cols >= 0
    X[entry_rows[kept], entry_cols[kept]] = 1.0
    X[:, k:] = numeric
    return model.predict_proba(X, column)


def save_model(model: GbdtModel, path: str | Path) -> None:
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": "gbdt",
        "config": model.config.to_dict(),
        "base_score": model.base_score,
        "train_losses": list(model.train_losses),
        "vocab": model.vocab.to_dict(),
        "trees": [t.to_dict() for t in model.trees],
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def load_model(path: str | Path) -> GbdtModel:
    payload = read_json_object(path, "model file")
    if payload.get("kind") != "gbdt":
        raise DataError(f"not a gbdt model file: {path}")
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise DataError(
            f"unsupported model format version {payload.get('format_version')!r}"
        )
    require_keys(payload, _MODEL_KEYS, f"model file {path}")
    where = f"model file {path}"
    trees, losses = payload["trees"], payload["train_losses"]
    if not isinstance(trees, list):
        raise DataError(f"{where}: trees must be a list")
    if not isinstance(losses, list):
        raise DataError(f"{where}: train_losses must be a list")
    model = GbdtModel(
        config=config_from(GbdtConfig, payload["config"], f"the config in {where}"),
        base_score=number(payload["base_score"], f"{where}: base_score"),
        trees=tuple(Tree.from_dict(d, f"{where}: tree {i}") for i, d in enumerate(trees)),
        vocab=Vocabulary.from_dict(payload["vocab"]),
        train_losses=tuple(number(v, f"{where}: train_losses") for v in losses),
    )
    for i, tree in enumerate(model.trees):
        if max(tree.feature) >= model.vocab.total_dims:
            raise DataError(
                f"model file {path}: tree {i} splits on feature {max(tree.feature)}, "
                f"beyond the vocabulary's {model.vocab.total_dims} dimensions"
            )
    return model
