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
The numeric features are scanned over their sorted values
(``scan_splits``), which scores only the cuts that can be taken. Only a
node that may split holds its entries and sorted columns: a child past the
depth limit or too small to split keeps its row ids alone. Each sum keeps
one order (bincounts over ascending rows, cumsums left to right, pairwise
sums over a node's ascending rows), so training is fully deterministic and
two runs with the same data and config produce byte-identical models.

Training takes those entries from the padded token rows of
``features.token_features``, dropping the padding. Scoring
(``predict_scores``) reads the split's exercise and key tables instead: each
internal node's test is settled once per exercise or once per key and packed
into bit words, and each token only ORs its two sides' words and walks the
trees on them, all trees at once over chunks of tokens. It builds no
per-token feature matrix, so its memory does not grow with the vocabulary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, TrainingError
from .features import (
    NUMERIC_FEATURES,
    Vocabulary,
    exercise_features,
    key_rows,
    labels_array,
    token_features,
)
from .features import encode, to_dense  # noqa: F401  (not called; stage timers wrap them)
from .numerics import log_loss_from_raw, sigmoid
from .slam_format import Dataset
from .validation import number, read_model_file, require_keys, write_model_file

MODEL_FORMAT_VERSION = 1
_MODEL_KEYS = ("trees", "config", "base_score", "vocab", "train_losses")
_TREE_INT_KEYS = ("feature", "left", "right")
_TREE_FLOAT_KEYS = ("threshold", "value")

__all__ = [
    "GbdtConfig",
    "SplitCandidate",
    "Tree",
    "GbdtModel",
    "train_gbdt",
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
        if not (math.isfinite(self.l2_leaf_reg) and self.l2_leaf_reg >= 0.0):
            raise TrainingError("l2_leaf_reg must be finite and >= 0")
        if self.seed < 0:
            raise TrainingError("seed must be >= 0")


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

    def depth(self) -> int:
        def walk(i: int) -> int:
            if self.feature[i] < 0:
                return 0
            return 1 + max(walk(self.left[i]), walk(self.right[i]))

        return walk(0)

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


def scan_splits(vals, g, h, lam, min_leaf):
    """Exact best split over pre-sorted per-feature arrays, in numpy.

    vals, g, h: (F, k) float64 arrays, row f sorted ascending by value with
    g/h aligned to that order. Returns (feature, position, gain) where the
    cut is between sorted positions `position` and `position + 1`, or
    (-1, -1, 0.0) when no candidate has positive gain. Only the candidates
    are scored: cuts that leave at least min_leaf rows on each side, where
    the sorted value changes. Prefix sums come from cumsum, which accumulates
    left to right, and totals from the last cumsum column rather than a
    separate reduction. Ties go to the first candidate in (feature, position)
    order.
    """
    k = vals.shape[1]
    lo, hi = min_leaf - 1, k - min_leaf
    if hi <= lo:
        return (-1, -1, 0.0)
    flat = np.flatnonzero(vals[:, lo:hi] < vals[:, lo + 1 : hi + 1])
    if not flat.size:
        return (-1, -1, 0.0)
    feature, position = np.divmod(flat, hi - lo)
    position += lo
    cg = np.cumsum(g, axis=1)
    ch = np.cumsum(h, axis=1)
    gt, ht = cg[feature, -1], ch[feature, -1]
    gl, hl = cg[feature, position], ch[feature, position]
    gr, hr = gt - gl, ht - hl
    gain = gl * gl / (hl + lam) + gr * gr / (hr + lam) - gt * gt / (ht + lam)
    i = int(np.argmax(gain))  # first occurrence of the max
    best = float(gain[i])
    if not best > 0.0:
        return (-1, -1, 0.0)
    return (int(feature[i]), int(position[i]), best)


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

    `rows` lists the member row ids in ascending order. A node that may split
    also holds its active (row, binary feature) pairs in row-major order,
    `entry_rows` and `entry_feats`, and `counts`, the bincount of
    `entry_feats`. Row j of `num_rows` lists the member rows sorted by numeric
    column j (stable, so equal values keep row order) and row j of `num_vals`
    holds the values in that order. Each numeric column is sorted once per
    training run: children take filtered copies. A node that will be a leaf
    holds only `rows`; its other fields are None.
    """

    rows: np.ndarray
    entry_rows: np.ndarray | None = None
    entry_feats: np.ndarray | None = None
    counts: np.ndarray | None = None
    num_rows: np.ndarray | None = None
    num_vals: np.ndarray | None = None

    @classmethod
    def root(cls, entry_rows, entry_feats, numeric) -> "_Node":
        num_rows = np.ascontiguousarray(np.argsort(numeric, axis=0, kind="stable").T)
        num_vals = np.ascontiguousarray(np.take_along_axis(numeric.T, num_rows, axis=1))
        return cls(np.arange(len(numeric)), entry_rows, entry_feats, np.bincount(entry_feats),
                   num_rows, num_vals)

    def right_rows(self, split: SplitCandidate, n_binary: int) -> np.ndarray:
        """Member rows with value > split.threshold on split.feature."""
        if split.feature < n_binary:
            return self.entry_rows[self.entry_feats == split.feature]
        j = split.feature - n_binary
        return self.num_rows[j][np.searchsorted(self.num_vals[j], split.threshold, "right"):]

    def partition(self, go_right: np.ndarray, may_split) -> tuple["_Node", "_Node"]:
        """(left, right) children; go_right is a mask over all training rows.
        A child gets more than its rows only if ``may_split(its size)``. The
        smaller child's counts are a bincount, the larger's the parent's minus
        those (integers, so exact)."""
        in_right = go_right[self.rows]
        rows = (self.rows[~in_right], self.rows[in_right])
        full = [may_split(len(r)) for r in rows]
        if not any(full):
            return _Node(rows[0]), _Node(rows[1])
        entry_right = go_right[self.entry_rows]
        num_right = go_right[self.num_rows]
        entry_sel, num_sel = (~entry_right, entry_right), (~num_right, num_right)
        small = int(len(rows[1]) < len(rows[0]))
        small_counts = np.bincount(self.entry_feats[entry_sel[small]], minlength=len(self.counts))
        counts = {small: small_counts, 1 - small: self.counts - small_counts}
        m = len(self.num_rows)
        return tuple(
            _Node(rows[s], self.entry_rows[entry_sel[s]], self.entry_feats[entry_sel[s]],
                  counts[s], self.num_rows[num_sel[s]].reshape(m, len(rows[s])),
                  self.num_vals[num_sel[s]].reshape(m, len(rows[s])))
            if full[s] else _Node(rows[s])
            for s in (0, 1)
        )


def _find_split(
    node: _Node, g: np.ndarray, h: np.ndarray, n_binary: int, lam: float, min_leaf: int
) -> SplitCandidate | None:
    """Best split of a node, or None without a positive-gain split.

    Binary features 0..n_binary-1 split at 0.5. The node's counts and one
    bincount each over its active entries give count, G and H of every
    feature's value-1 side; the value-0 side is the node total minus that.
    The numeric features n_binary.. take the exact scan over their sorted
    values. Ties go to the lowest feature id, then the lowest cut.
    """
    k = len(node.rows)
    big_g = g[node.rows].sum()
    big_h = h[node.rows].sum()
    best = None
    count1 = node.counts
    valid = np.flatnonzero((count1 >= min_leaf) & (k - count1 >= min_leaf))
    if valid.size:  # a valid feature has entries, so the bincounts reach it
        feats, rows = node.entry_feats, node.entry_rows
        g1 = np.bincount(feats, weights=g[rows])[valid]
        h1 = np.bincount(feats, weights=h[rows])[valid]
        g0 = big_g - g1
        h0 = big_h - h1
        gain = g0 * g0 / (h0 + lam) + g1 * g1 / (h1 + lam) - big_g * big_g / (big_h + lam)
        i = int(np.argmax(gain))  # first occurrence: lowest feature id
        if gain[i] > 0.0:
            best = SplitCandidate(feature=int(valid[i]), threshold=0.5, gain=float(gain[i]))
    j, pos, num_gain = scan_splits(
        node.num_vals, g[node.num_rows], h[node.num_rows], lam, min_leaf
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
        self.nodes: list[tuple] = []  # (feature, threshold, left, right, value) per node
        self.contrib = np.zeros(len(g), dtype=np.float64)

    def _may_split(self, size: int, depth: int) -> bool:
        return depth < self.config.max_depth and size >= 2 * self.config.min_samples_leaf

    def build(self, node: _Node, depth: int) -> int:
        index = len(self.nodes)
        self.nodes.append(())  # set below, once the children are numbered
        cfg = self.config
        split = None
        if self._may_split(len(node.rows), depth):
            split = _find_split(
                node, self.g, self.h, self.n_binary, cfg.l2_leaf_reg, cfg.min_samples_leaf
            )
        if split is None:
            value = -self.g[node.rows].sum() / (self.h[node.rows].sum() + cfg.l2_leaf_reg)
            self.nodes[index] = (-1, 0.0, -1, -1, value)
            self.contrib[node.rows] = value
            return index
        go_right = np.zeros(len(self.g), dtype=bool)
        go_right[node.right_rows(split, self.n_binary)] = True
        left, right = node.partition(go_right, lambda size: self._may_split(size, depth + 1))
        left_index = self.build(left, depth + 1)
        self.nodes[index] = (split.feature, split.threshold, left_index,
                             self.build(right, depth + 1), 0.0)
        return index

    def tree(self) -> Tree:
        return Tree(*zip(*self.nodes))


def _root(train: Dataset, vocab: Vocabulary) -> _Node:
    """The root node over every training row, its entries read from the rows
    of ``token_features`` without their padding. The padded rows are freed
    on return; the nodes hold all that training reads."""
    binary, numeric = token_features(train, vocab)
    entry_rows, slot = np.nonzero(binary != vocab.n_binary)  # row-major
    return _Node.root(entry_rows, binary[entry_rows, slot], numeric)


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

    root = _root(train, vocab)

    raw = np.full(n, base, dtype=np.float64)
    losses = [log_loss_from_raw(raw, y)]
    trees = []
    for _round in range(config.n_trees):
        p = sigmoid(raw)
        g = p - y
        h = p * (1.0 - p)
        builder = _TreeBuilder(vocab.n_binary, g, h, config)
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


# Scoring takes the trees in blocks and the tokens in chunks, so its tables
# (per feature, threshold, exercise and key: one word per tree of a block)
# and its (tokens, trees) walk arrays stay small whatever the model and split.
_SCORE_TREES = 16
_SCORE_CELLS = 1 << 14


@dataclass(frozen=True)
class _Forest:
    """A model's trees as one table of nodes, numbered in tree order. A
    token's walk state at node g is 2g, and ``step[2g + bit]`` is its next
    state on the test outcome ``bit`` (a leaf leads to itself). Tree t owns
    ``n_words`` uint64 words of a token's bit words, from word
    ``t * n_words``; its internal node of rank r (in node order) owns bit
    ``r % 64`` of the tree's word ``r // 64``. Per state 2g that is
    ``word`` and ``shift``; per internal node (with ``feature`` and
    ``threshold``), ``column`` and ``onebit`` in the words of all trees."""

    n_trees: int
    n_words: int
    depth: int
    roots: np.ndarray
    step: np.ndarray
    word: np.ndarray
    shift: np.ndarray
    value: np.ndarray  # the leaf value of each state
    feature: np.ndarray
    threshold: np.ndarray
    column: np.ndarray
    onebit: np.ndarray

    @classmethod
    def of(cls, trees: tuple[Tree, ...]) -> "_Forest":
        sizes = np.array([len(t.feature) for t in trees])
        first = np.cumsum(sizes) - sizes

        def flat(name: str, dtype) -> np.ndarray:
            return np.fromiter((v for t in trees for v in getattr(t, name)), dtype)

        feature = flat("feature", np.int64)
        tree_of = np.repeat(np.arange(len(trees)), sizes)
        internal = np.flatnonzero(feature >= 0)
        counts = np.bincount(tree_of[internal], minlength=len(trees))
        rank = np.arange(len(internal)) - (np.cumsum(counts) - counts)[tree_of[internal]]
        n_words = max(1, -(-int(counts.max()) // 64))
        child = np.repeat(np.arange(len(feature)), 2)  # a leaf leads to itself
        child[2 * internal] = first[tree_of[internal]] + flat("left", np.int64)[internal]
        child[2 * internal + 1] = first[tree_of[internal]] + flat("right", np.int64)[internal]
        word = np.zeros(len(child), dtype=np.int64)
        word[2 * internal] = rank // 64
        shift = np.zeros(len(child), dtype=np.uint64)
        shift[2 * internal] = rank % 64
        depth, level = 0, internal[np.isin(internal, first)]  # the internal roots
        while level.size:  # one level down per pass, from every root at once
            depth += 1
            below = np.zeros(len(feature), dtype=bool)  # a mark: np.unique loads numpy.ma
            below[child[np.concatenate([2 * level, 2 * level + 1])]] = True
            level = np.flatnonzero(below & (feature >= 0))
        return cls(
            n_trees=len(trees),
            n_words=n_words,
            depth=depth,
            roots=2 * first,
            step=2 * child,
            word=word,
            shift=shift,
            value=np.repeat(flat("value", np.float64), 2),
            feature=feature[internal],
            threshold=flat("threshold", np.float64)[internal],
            column=tree_of[internal] * n_words + rank // 64,
            onebit=np.uint64(1) << (rank % 64).astype(np.uint64),
        )

    def outcome_words(self, sides: "_Sides") -> tuple[np.ndarray, np.ndarray]:
        """``(exercise_words, key_words)``: one row of bit words per exercise
        and per key, holding the outcome of ``value > threshold`` at every
        internal node whose feature is on that row's side, and 0 at the rest.
        A binary feature's value is 1.0 where a row holds the feature and 0.0
        elsewhere, so its test is always true (threshold below 0), always
        false (at or above 1) or "holds the feature", whose bits are ORed in
        from a per-feature mask. A numeric test passes where its threshold is
        below the exercise's value, so its bits are a prefix OR over the
        feature's thresholds in ascending order."""
        width = self.n_trees * self.n_words
        f, t, column, onebit = self.feature, self.threshold, self.column, self.onebit
        binary = f < sides.n_binary
        holds = binary & (0.0 <= t) & (t < 1.0)
        mask = np.zeros((sides.n_used + 1, width), dtype=np.uint64)  # the last row: no test
        np.bitwise_or.at(mask.reshape(-1), sides.column[f[holds]] * width + column[holds],
                         onebit[holds])
        true = binary & (t < 0.0)
        always = np.zeros(width, dtype=np.uint64)
        np.bitwise_or.at(always, column[true], onebit[true])
        exercise_words = np.tile(always, (len(sides.ex_num), 1))
        for j in range(len(NUMERIC_FEATURES)):
            on = np.flatnonzero(f == sides.n_binary + j)
            on = on[np.argsort(t[on])]
            prefix = np.zeros((len(on) + 1, width), dtype=np.uint64)
            prefix[np.arange(1, len(on) + 1), column[on]] = onebit[on]
            prefix = np.bitwise_or.accumulate(prefix, axis=0)
            exercise_words |= prefix[np.searchsorted(t[on], sides.ex_num[:, j], side="left")]
        for features in sides.ex_col.T:
            exercise_words |= mask[features]
        key_words = np.zeros((len(sides.key_col), width), dtype=np.uint64)
        for features in sides.key_col.T:
            key_words |= mask[features]
        return exercise_words, key_words

    def raw_scores(self, words: np.ndarray, base: np.ndarray, learning_rate: float
                   ) -> np.ndarray:
        """Raw scores of token rows from their ``(rows, n_trees * n_words)``
        bit words: every row walks every tree level by level on its bits,
        and each tree's leaf value times the learning rate is added to the
        row's ``base`` in tree order."""
        rows = len(words)
        words = words.reshape(rows, self.n_trees, self.n_words)
        state = np.tile(self.roots, (rows, 1))
        for _level in range(self.depth):
            if self.n_words == 1:
                w = words[:, :, 0]
            else:
                w = np.take_along_axis(words, self.word[state][:, :, None], axis=2)[:, :, 0]
            state = self.step[state + ((w >> self.shift[state]) & 1).view(np.int64)]
        terms = np.empty((rows, self.n_trees + 1))
        terms[:, 0] = base
        np.multiply(learning_rate, self.value[state], out=terms[:, 1:])
        return np.add.accumulate(terms, axis=1)[:, -1]  # left to right, one tree at a time


@dataclass(frozen=True)
class _Sides:
    """A split's exercise and key tables as scoring reads them. ``column``
    numbers the binary features some tree splits on 0..n_used-1 and maps
    every other, and the key rows' padding n_binary, to n_used. Exercise e
    holds the binary features ``ex_col[e]`` (four, in that numbering) and
    the numeric values ``ex_num[e]``; key j holds ``key_col[j]``, padded
    with n_used."""

    n_binary: int
    n_used: int
    column: np.ndarray
    ex_col: np.ndarray
    ex_num: np.ndarray
    key_col: np.ndarray

    @classmethod
    def of(cls, model: GbdtModel, dataset: Dataset) -> "_Sides":
        vocab = model.vocab
        n_binary = vocab.n_binary
        split_on = np.zeros(n_binary, dtype=bool)  # a mark: np.unique loads numpy.ma
        split_on[np.fromiter(
            (f for t in model.trees for f in t.feature if 0 <= f < n_binary), np.intp
        )] = True
        used = np.flatnonzero(split_on)
        column = np.full(n_binary + 1, len(used), dtype=np.intp)
        column[used] = np.arange(len(used))
        ex_idx, ex_num = exercise_features(dataset.metas, vocab)
        key_col = column[key_rows(dataset.keys, vocab)]
        return cls(n_binary, len(used), column, column[ex_idx], ex_num, key_col)


def predict_scores(model: GbdtModel, dataset: Dataset) -> np.ndarray:
    """Probabilities for every token of the dataset, scored over its exercise
    and key tables; no per-token feature matrix is built.

    Every feature lives on one side of the split (``EXERCISE_NAMESPACES``
    with the numerics, or ``KEY_NAMESPACES``, in ``features``), so each
    internal node's test is settled once per exercise or once per key and
    packed into bit words, one set per side (``_Forest.outcome_words``). A
    token ORs its exercise's words with its key's and walks a block of trees
    level by level on those bits. Leaf values are added in tree order, so
    the scores equal the dense per-token walk bit for bit.
    """
    sides = _Sides.of(model, dataset)
    exercise = np.asarray(dataset.exercise, dtype=np.intp)
    key = np.asarray(dataset.key, dtype=np.intp)
    raw = np.full(len(exercise), model.base_score, dtype=np.float64)
    for first in range(0, len(model.trees), _SCORE_TREES):
        forest = _Forest.of(model.trees[first : first + _SCORE_TREES])
        exercise_words, key_words = forest.outcome_words(sides)
        chunk = max(1, _SCORE_CELLS // exercise_words.shape[1])
        for lo in range(0, len(raw), chunk):
            rows = slice(lo, lo + chunk)
            words = exercise_words[exercise[rows]] | key_words[key[rows]]
            raw[rows] = forest.raw_scores(words, raw[rows], model.config.learning_rate)
    return sigmoid(raw)


def save_model(model: GbdtModel, path: str | Path) -> str:
    """Write a GBDT model file and return its text."""
    return write_model_file(path, "gbdt", MODEL_FORMAT_VERSION, model.config, model.vocab, {
        "base_score": model.base_score,
        "train_losses": list(model.train_losses),
        "trees": [t.to_dict() for t in model.trees],
    })


def load_model(path: str | Path, payload: dict | None = None) -> GbdtModel:
    """Read a GBDT model file; ``payload``, when given, is the file's JSON
    object as the caller already parsed it, and the file is not read again."""
    payload, config = read_model_file(
        path, payload, "gbdt", MODEL_FORMAT_VERSION, _MODEL_KEYS, GbdtConfig
    )
    where = f"model file {path}"
    trees, losses = payload["trees"], payload["train_losses"]
    if not isinstance(trees, list):
        raise DataError(f"{where}: trees must be a list")
    if not isinstance(losses, list):
        raise DataError(f"{where}: train_losses must be a list")
    model = GbdtModel(
        config=config,
        base_score=number(payload["base_score"], f"{where}: base_score"),
        trees=tuple(Tree.from_dict(d, f"{where}: tree {i}") for i, d in enumerate(trees)),
        vocab=Vocabulary.from_dict(payload["vocab"]),
        train_losses=tuple(number(v, f"{where}: train_losses") for v in losses),
    )
    for i, tree in enumerate(model.trees):
        if max(tree.feature) >= model.vocab.total_dims:
            raise DataError(
                f"{where}: tree {i} splits on feature {max(tree.feature)}, "
                f"beyond the vocabulary's {model.vocab.total_dims} dimensions"
            )
    return model
