"""Gradient-boosted decision trees with logistic loss.

Second-order (Newton) boosting: each round fits a regression tree to the
gradients g = p - y and hessians h = p(1 - p) of the logistic loss, with
L2-regularized leaf values -G/(H + lambda) and the standard split gain
GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l). Splits are exact greedy: every cut
of every feature is scored. Training reads the padded token rows of
``features.token_features``, kept for the run: every feature but the three
numeric ones is a one-hot binary, and a node is its ascending row ids, so
three bincounts over the node's padded feature rows (counts, and g and h
repeated per slot) give the value-1 side of all binary features at once,
and the value-0 side is the node total minus that (sparsity-aware split
finding, Chen & Guestrin 2016, Alg. 3). The numeric features are scanned
over their sorted values (``scan_splits``), which scores only the cuts that
can be taken; each column is sorted once per run, and a child that may
split takes its parent's sorted columns filtered to its rows. A tree grows
from a stack of nodes (``_grow_tree``), not by recursion, so its depth is
bounded by ``max_depth`` and the data alone. Each sum keeps
one order (bincounts over ascending rows, cumsums left to right, pairwise
sums over a node's ascending rows), so training is fully deterministic and
two runs with the same data and config produce byte-identical models.

Scoring (``predict_scores``) reads the split's exercise and key tables
instead, through exit-leaf masks (QuickScorer, Lucchese et al., SIGIR 2015):
each internal node's test is settled once per exercise or once per key, and
a token ANDs its two sides' mask words and exits each tree at the lowest set
bit, whatever the trees' depth, all trees at once over chunks of tokens. It
builds no per-token feature matrix, so its memory per token does not grow
with the vocabulary; each block of trees holds one table of ``n_binary + 1``
rows of mask words, one per binary feature id and all ones for the padding.
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
    Every node but the root is the child of exactly one internal node.
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
        parents = [0] * n
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
                    parents[child] += 1
        for i in range(1, n):
            if parents[i] != 1:
                raise TrainingError(f"node {i} is the child of {parents[i]} nodes, not of one")

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


def _sort_columns(numeric: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(num_rows, num_vals)``: row j of ``num_rows`` lists the row ids
    sorted by column j of ``numeric`` (stable, so equal values keep row
    order), and row j of ``num_vals`` the values in that order."""
    num_rows = np.ascontiguousarray(np.argsort(numeric, axis=0, kind="stable").T)
    return num_rows, np.ascontiguousarray(np.take_along_axis(numeric.T, num_rows, axis=1))


def _find_split(
    feats: np.ndarray, rows: np.ndarray, num_rows: np.ndarray, num_vals: np.ndarray,
    g: np.ndarray, h: np.ndarray, n_binary: int, lam: float, min_leaf: int,
) -> SplitCandidate | None:
    """Best split of the node over ``rows`` (ascending row ids), or None
    without a positive-gain split.

    Row i of ``feats`` holds the binary feature ids of ``rows[i]``, padded
    with ``n_binary``; ``num_rows`` and ``num_vals`` are the node's numeric
    columns as ``_sort_columns`` gives them. Binary features 0..n_binary-1
    split at 0.5: three bincounts over ``feats``, unweighted and weighted by
    each row's g and h, give count, G and H of every feature's value-1 side
    (the padding's bin is dropped), and the value-0 side is the node total
    minus that. The numeric features n_binary.. take the exact scan over
    their sorted values. Ties go to the lowest feature id, then the lowest
    cut.
    """
    k = len(rows)
    g_rows, h_rows = g[rows], h[rows]
    big_g = g_rows.sum()
    big_h = h_rows.sum()
    best = None
    flat = feats.ravel()  # row-major: each feature's entries in ascending row order
    count1 = np.bincount(flat, minlength=n_binary + 1)[:n_binary]
    valid = np.flatnonzero((count1 >= min_leaf) & (k - count1 >= min_leaf))
    if valid.size:  # a valid feature is held by some row, so the bincounts reach it
        width = feats.shape[1]
        g1 = np.bincount(flat, weights=np.repeat(g_rows, width))[valid]
        h1 = np.bincount(flat, weights=np.repeat(h_rows, width))[valid]
        g0 = big_g - g1
        h0 = big_h - h1
        gain = g0 * g0 / (h0 + lam) + g1 * g1 / (h1 + lam) - big_g * big_g / (big_h + lam)
        i = int(np.argmax(gain))  # first occurrence: lowest feature id
        if gain[i] > 0.0:
            best = SplitCandidate(feature=int(valid[i]), threshold=0.5, gain=float(gain[i]))
    j, pos, num_gain = scan_splits(num_vals, g[num_rows], h[num_rows], lam, min_leaf)
    if j >= 0 and (best is None or num_gain > best.gain):
        best = SplitCandidate(
            feature=n_binary + int(j),
            threshold=_cut_threshold(num_vals[j], pos),
            gain=num_gain,
        )
    return best


def _grow_tree(binary, n_binary, g, h, num_rows, num_vals, config) -> tuple[Tree, np.ndarray]:
    """One tree grown on fixed gradients/hessians, and each training row's
    leaf value. Row i of ``binary`` holds training row i's binary feature ids
    as ``features.token_features`` gives them, padded with ``n_binary``, and
    ``num_rows``/``num_vals`` are every row's sorted numeric columns.

    A node is its ascending row ids and, while it may split, its sorted
    numeric columns (None where it may not). Nodes come off a stack, the left
    child above the right, so they are numbered depth first, left subtree
    first, whatever the depth: a popped node takes the next index, writes it
    into its parent's ``left`` or ``right`` slot, and becomes a leaf or
    splits. A split frees the node's feature rows before its children are
    pushed, and each child gets its parent's sorted columns filtered to its
    rows only if it may split."""
    nodes: list[list] = []  # [feature, threshold, left, right, value] per node
    contrib = np.zeros(len(g), dtype=np.float64)
    # the root always takes the columns: in fewer than 2 * min_samples_leaf
    # rows, _find_split finds no split and the root becomes a leaf
    stack = [(None, np.arange(len(g)), 0, num_rows, num_vals)]
    while stack:
        link, rows, depth, num_rows, num_vals = stack.pop()
        if link is not None:  # (parent node, slot)
            link[0][link[1]] = len(nodes)
        split = None
        if num_rows is not None:
            feats = binary[rows]
            split = _find_split(feats, rows, num_rows, num_vals, g, h, n_binary,
                                config.l2_leaf_reg, config.min_samples_leaf)
        if split is None:
            value = -g[rows].sum() / (h[rows].sum() + config.l2_leaf_reg)
            nodes.append([-1, 0.0, -1, -1, value])
            contrib[rows] = value
            continue
        node = [split.feature, split.threshold, -1, -1, 0.0]
        nodes.append(node)
        go_right = np.zeros(len(g), dtype=bool)  # over all training rows
        if split.feature < n_binary:  # the rows holding the feature
            go_right[rows[np.flatnonzero(feats.ravel() == split.feature) // feats.shape[1]]] = True
        else:
            j = split.feature - n_binary
            go_right[num_rows[j][np.searchsorted(num_vals[j], split.threshold, "right"):]] = True
        del feats
        for slot, member in ((3, go_right), (2, ~go_right)):  # the left child comes off first
            child = rows[member[rows]]
            cols = (None, None)
            if depth + 1 < config.max_depth and len(child) >= 2 * config.min_samples_leaf:
                keep = member[num_rows]
                shape = (len(num_rows), len(child))
                cols = num_rows[keep].reshape(shape), num_vals[keep].reshape(shape)
            stack.append(((node, slot), child, depth + 1, *cols))
    return Tree(*zip(*nodes)), contrib


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

    binary, numeric = token_features(train, vocab)
    num_rows, num_vals = _sort_columns(numeric)  # once per run: nodes filter it

    raw = np.full(n, base, dtype=np.float64)
    losses = [log_loss_from_raw(raw, y)]
    trees = []
    for _round in range(config.n_trees):
        p = sigmoid(raw)
        g = p - y
        h = p * (1.0 - p)
        tree, contrib = _grow_tree(binary, vocab.n_binary, g, h, num_rows, num_vals, config)
        trees.append(tree)
        raw = raw + config.learning_rate * contrib
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
# (per feature, threshold, exercise and key: the mask words of a block's
# trees) and its (tokens, trees) arrays stay small whatever the model and split.
_SCORE_TREES = 16
_SCORE_CELLS = 1 << 14
_LOW_BITS = np.array([(1 << k) - 1 for k in range(65)], dtype=np.uint64)  # k low bits set
_ONES = _LOW_BITS[64]


@dataclass(frozen=True)
class _Forest:
    """A block of trees as exit-leaf masks. Each tree's leaves are ranked
    left to right, and tree t owns ``n_words`` uint64 words of a token's
    words, from word ``t * n_words``: leaf rank r is bit ``r % 64`` of the
    tree's word ``r // 64``. An internal node's mask clears its left
    subtree's leaves. A token exits a tree at the lowest set bit of the AND
    of the masks of the nodes it goes right at: they clear every leaf left of
    its exit leaf, and no such node has the exit leaf on its left. ``value``
    holds each tree's leaf values by rank; per internal node, ``feature``,
    ``threshold``, and per word of its tree, ``column`` and ``clear``."""

    n_words: int
    value: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    column: np.ndarray
    clear: np.ndarray

    @classmethod
    def of(cls, trees: tuple[Tree, ...]) -> "_Forest":
        sizes = np.array([len(t.feature) for t in trees])
        first = np.cumsum(sizes) - sizes

        def flat(name: str, dtype) -> np.ndarray:
            return np.fromiter((v for t in trees for v in getattr(t, name)), dtype)

        feature = flat("feature", np.int64)
        tree_of = np.repeat(np.arange(len(trees)), sizes)
        internal = np.flatnonzero(feature >= 0)
        left = (first[tree_of] + flat("left", np.int64))[internal]
        right = (first[tree_of] + flat("right", np.int64))[internal]
        # One depth-first walk over all trees, left subtree first: a node's
        # start is the number of leaves, of all trees, ranked before it.
        children = dict(zip(internal.tolist(), zip(right.tolist(), left.tolist())))
        start, stack, leaves = [0] * len(feature), first[::-1].tolist(), 0
        while stack:
            i = stack.pop()
            start[i] = leaves
            if i in children:
                stack.extend(children[i])  # the left child comes off first
            else:
                leaves += 1
        start = np.array(start)
        start -= start[first][tree_of]  # rank within the tree
        is_leaf = feature < 0
        n_words = max(1, -(-int(np.bincount(tree_of[is_leaf]).max()) // 64))
        value = np.zeros((len(trees), 64 * n_words))
        value[tree_of[is_leaf], start[is_leaf]] = flat("value", np.float64)[is_leaf]
        # the left subtree's leaves are start[internal]..start[right] - 1
        edge = 64 * np.arange(n_words)
        lo = np.clip(start[internal, None] - edge, 0, 64)
        hi = np.clip(start[right, None] - edge, 0, 64)
        return cls(
            n_words=n_words,
            value=value,
            feature=feature[internal],
            threshold=flat("threshold", np.float64)[internal],
            column=(tree_of[internal] * n_words)[:, None] + np.arange(n_words),
            clear=~(_LOW_BITS[hi] ^ _LOW_BITS[lo]),
        )

    def outcome_words(self, n_binary: int, ex_idx: np.ndarray, ex_num: np.ndarray,
                      key_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(exercise_words, key_words)``: one row of words per exercise and
        per key, the AND of the masks of the internal nodes whose feature is
        on that row's side and whose test ``value > threshold`` passes there.
        The sides are as ``features.exercise_features`` and
        ``features.key_rows`` give them: exercise e holds the binary ids
        ``ex_idx[e]`` and the numeric values ``ex_num[e]``, key j the binary
        ids ``key_idx[j]``, padded with ``n_binary``. A binary feature's value
        is 1.0 where a row holds the feature and 0.0 elsewhere, so its test
        always passes (threshold below 0), never (at or above 1) or where the
        row holds the feature, whose masks are ANDed in from a table with one
        row per binary id and an all-ones row ``n_binary`` for the padding. A
        numeric test passes where its threshold is below the exercise's value,
        so its masks are a prefix AND over the feature's thresholds in
        ascending order, one row per node."""
        width = len(self.value) * self.n_words
        f, t, column, clear = self.feature, self.threshold, self.column, self.clear
        binary = f < n_binary
        holds = binary & (0.0 <= t) & (t < 1.0)
        mask = np.full((n_binary + 1, width), _ONES)
        np.bitwise_and.at(mask.reshape(-1), f[holds, None] * width + column[holds], clear[holds])
        true = binary & (t < 0.0)
        always = np.full(width, _ONES)
        np.bitwise_and.at(always, column[true], clear[true])
        exercise_words = np.tile(always, (len(ex_num), 1))
        for j in range(len(NUMERIC_FEATURES)):
            on = np.flatnonzero(f == n_binary + j)
            on = on[np.argsort(t[on])]
            prefix = np.full((len(on) + 1, width), _ONES)
            prefix[np.arange(1, len(on) + 1)[:, None], column[on]] = clear[on]
            prefix = np.bitwise_and.accumulate(prefix, axis=0)
            exercise_words &= prefix[np.searchsorted(t[on], ex_num[:, j], side="left")]
        for features in ex_idx.T:
            exercise_words &= mask[features]
        key_words = np.full((len(key_idx), width), _ONES)
        for features in key_idx.T:
            key_words &= mask[features]
        return exercise_words, key_words

    def raw_scores(self, words: np.ndarray, base: np.ndarray, learning_rate: float
                   ) -> np.ndarray:
        """Raw scores of token rows from their ``(rows, n_trees * n_words)``
        words: a row exits each tree at the lowest set bit of the tree's
        first nonzero word, and each tree's leaf value times the learning
        rate is added to the row's ``base`` in tree order."""
        rows, n_trees = len(words), len(self.value)
        words = words.reshape(rows, n_trees, self.n_words)
        if self.n_words == 1:
            word, w = 0, words[:, :, 0]
        else:
            word = np.argmax(words != 0, axis=2)
            w = np.take_along_axis(words, word[:, :, None], axis=2)[:, :, 0]
        _, exponent = np.frexp(w & (~w + np.uint64(1)))  # the lowest set bit, 2**(exponent - 1)
        terms = np.empty((rows, n_trees + 1))
        terms[:, 0] = base
        leaf = 64 * word + exponent - 1
        np.multiply(learning_rate, self.value[np.arange(n_trees), leaf], out=terms[:, 1:])
        return np.add.accumulate(terms, axis=1)[:, -1]  # left to right, one tree at a time


def _blocks(trees: tuple[Tree, ...]):
    """``trees`` in order, in blocks of at most ``_SCORE_TREES`` trees. A
    block pads each tree to its widest tree's words, so it also ends before a
    tree that would make it wider than ``2 * _SCORE_TREES`` words."""
    block, widest = (), 0
    for tree in trees:
        words = max(1, -(-tree.feature.count(-1) // 64))
        widest = max(widest, words)
        if block and (len(block) == _SCORE_TREES or (len(block) + 1) * widest > 2 * _SCORE_TREES):
            yield block
            block, widest = (), words
        block += (tree,)
    if block:
        yield block


def predict_scores(model: GbdtModel, dataset: Dataset) -> np.ndarray:
    """Probabilities for every token of the dataset, scored over its exercise
    and key tables; no per-token feature matrix is built.

    Every feature lives on one side of the split (``EXERCISE_NAMESPACES``
    with the numerics, or ``KEY_NAMESPACES``, in ``features``), so each
    internal node's test is settled once per exercise or once per key
    (``_Forest.outcome_words``). The exercise and key tables are read once,
    as ``exercise_features`` and ``key_rows`` give them, and each block of
    trees indexes its per-feature mask table by vocabulary id. A token ANDs
    its exercise's words with its key's and exits each tree at the lowest
    set bit. Leaf values are added in tree order, so the scores equal the
    dense per-token walk bit for bit.
    """
    n_binary = model.vocab.n_binary
    ex_idx, ex_num = exercise_features(dataset.metas, model.vocab)
    key_idx = key_rows(dataset.keys, model.vocab)
    exercise, key = dataset.exercise, dataset.key
    raw = np.full(len(exercise), model.base_score, dtype=np.float64)
    for block in _blocks(model.trees):
        forest = _Forest.of(block)
        exercise_words, key_words = forest.outcome_words(n_binary, ex_idx, ex_num, key_idx)
        chunk = max(1, _SCORE_CELLS // exercise_words.shape[1])
        for lo in range(0, len(raw), chunk):
            rows = slice(lo, lo + chunk)
            words = exercise_words[exercise[rows]] & key_words[key[rows]]
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                raw[rows] = forest.raw_scores(words, raw[rows], model.config.learning_rate)
    if not np.isfinite(raw).all():
        raise DataError("model gives non-finite scores: its leaf values overflow")
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
