"""Brute-force reference implementations used to cross-check the library.

Everything here favours obviousness over speed: exhaustive threshold sweeps,
quadratic pair counting, dense-grid quadrature, per-instance gradient sums.
Keep these independent of the library internals so agreement means
something.
"""

from __future__ import annotations

import json
from bisect import bisect_right

import numpy as np

from slamaudit.errors import MetricError, ParseError, TrainingError
from slamaudit.features import (
    NAMESPACES,
    NUMERIC_FEATURES,
    VOCAB_FORMAT_VERSION,
    encode,
    to_dense,
)
from slamaudit.fairness import report_to_dict
from slamaudit.gbdt import SplitCandidate, _cut_threshold, scan_splits
from slamaudit.metrics import f1_at_threshold
from slamaudit.multitask import _PackedRows, grad, init_model, instance_loss
from slamaudit.numerics import sigmoid
from slamaudit.slam_format import (
    _KNOWN_META_KEYS,
    Dataset,
    TokenInstance,
    _build_meta,
    _parse_meta_pairs,
)


def oracle_roc_points(scores, labels):
    """ROC by exhaustively evaluating every distinct threshold.

    Predicted positive iff score >= threshold; one point per distinct score,
    swept high to low, prefixed with (0, 0).
    """
    pos = sum(1 for y in labels if y == 1)
    neg = len(labels) - pos
    assert pos > 0 and neg > 0
    points = [(0.0, 0.0)]
    for t in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 0)
        points.append((fp / neg, tp / pos))
    return points


def oracle_auc_pairs(scores, labels):
    """AUC by quadratic positive/negative pair counting with half-credit ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    assert pos and neg
    credit = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                credit += 1.0
            elif p == q:
                credit += 0.5
    return credit / (len(pos) * len(neg))


def oracle_interp(points, x):
    """Evaluate a piecewise-linear ROC at one FPR by scanning segments.

    At an FPR where the curve jumps vertically, returns the supremum (the
    highest TPR recorded at that FPR).
    """
    hits = [py for px, py in points if px == x]
    if hits:
        return max(hits)
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if x0 < x < x1:
            return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    raise AssertionError(f"{x} not covered by curve")


def oracle_curve_area_between(points_a, points_b, step=1e-5):
    """Midpoint-rule estimate of the area between two piecewise-linear curves.

    Midpoints of a uniform grid never coincide with curve breakpoints in
    practice, so plain linear interpolation (numpy) is well defined; jumps
    contribute nothing to the integral.
    """
    n = int(round(1.0 / step))
    mid = (np.arange(n, dtype=np.float64) + 0.5) * step
    xa = np.array([p[0] for p in points_a])
    ya = np.array([p[1] for p in points_a])
    xb = np.array([p[0] for p in points_b])
    yb = np.array([p[1] for p in points_b])
    diff = np.abs(np.interp(mid, xa, ya) - np.interp(mid, xb, yb))
    return float(diff.sum() * step)


def loop_roc_points(scores, labels):
    """ROC by one sort and a loop over runs of tied scores, high to low; a
    run is one step, so ties give a diagonal segment."""
    pos = sum(1 for y in labels if y == 1)
    neg = len(labels) - pos
    if pos == 0 or neg == 0:
        raise MetricError("ROC undefined: input contains a single class")
    ranked = sorted(zip(scores, labels), key=lambda sy: sy[0], reverse=True)
    points = [(0.0, 0.0)]
    tp = fp = 0
    i, n = 0, len(ranked)
    while i < n:
        j = i
        while j < n and ranked[j][0] == ranked[i][0]:
            if ranked[j][1] == 1:
                tp += 1
            else:
                fp += 1
            j += 1
        points.append((fp / neg, tp / pos))
        i = j
    return points


def loop_auc_trapezoid(points):
    """Trapezoid area under a ROC given as points, summed left to right."""
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def loop_confusion(scores, labels, threshold):
    """(tp, fp, tn, fn), predicted positive iff score >= threshold."""
    tp = fp = tn = fn = 0
    for s, y in zip(scores, labels):
        predicted = s >= threshold
        if y == 1:
            if predicted:
                tp += 1
            else:
                fn += 1
        elif predicted:
            fp += 1
        else:
            tn += 1
    return tp, fp, tn, fn


def _segments(points):
    """Non-vertical segments; together they cover all of [0, 1]."""
    return [
        (x0, y0, x1, y1)
        for (x0, y0), (x1, y1) in zip(points, points[1:])
        if x1 > x0
    ]


def _value_at(seg, x):
    x0, y0, x1, y1 = seg
    if x == x0:
        return y0
    if x == x1:
        return y1
    return y0 + (y1 - y0) * (x - x0) / (x1 - x0)


def loop_difference_intervals(points_a, points_b):
    """(x0, x1, ya0, ya1, yb0, yb1) tuples cutting [0, 1] at every breakpoint
    of either curve and at every crossing, one interval at a time."""
    segs_a = _segments(points_a)
    segs_b = _segments(points_b)
    xs = sorted({x for x, _ in points_a} | {x for x, _ in points_b})
    ia = ib = 0
    out = []
    for u0, u1 in zip(xs, xs[1:]):
        while segs_a[ia][2] <= u0:
            ia += 1
        while segs_b[ib][2] <= u0:
            ib += 1
        ya0, ya1 = _value_at(segs_a[ia], u0), _value_at(segs_a[ia], u1)
        yb0, yb1 = _value_at(segs_b[ib], u0), _value_at(segs_b[ib], u1)
        d0, d1 = ya0 - yb0, ya1 - yb1
        if (d0 > 0.0 and d1 < 0.0) or (d0 < 0.0 and d1 > 0.0):
            t = d0 / (d0 - d1)
            xc = u0 + t * (u1 - u0)
            yca = ya0 + t * (ya1 - ya0)
            ycb = yb0 + t * (yb1 - yb0)
            out.append((u0, xc, ya0, yca, yb0, ycb))
            out.append((xc, u1, yca, ya1, ycb, yb1))
        else:
            out.append((u0, u1, ya0, ya1, yb0, yb1))
    return out


def loop_abroca(points_a, points_b):
    """Closed-form ABROCA summed interval by interval, left to right."""
    total = 0.0
    for x0, x1, ya0, ya1, yb0, yb1 in loop_difference_intervals(points_a, points_b):
        total += (abs(ya0 - yb0) + abs(ya1 - yb1)) / 2.0 * (x1 - x0)
    return total


def confusion_counts(preds, threshold):
    """Counts at a hard threshold; predicted positive iff score >= threshold."""
    return f1_at_threshold(preds, threshold).counts


def report_to_json(report):
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"


def interpolate_tpr(curve, fpr_grid):
    """TPR at each grid FPR; at a vertical jump, the supremum TPR applies."""
    prev = None
    for x in fpr_grid:
        if not (0.0 <= x <= 1.0):
            raise MetricError(f"grid value {x!r} outside [0, 1]")
        if prev is not None and x < prev:
            raise MetricError("grid must be sorted ascending")
        prev = x
    xs = [p[0] for p in curve.points]
    ys = [p[1] for p in curve.points]
    out = []
    for x in fpr_grid:
        j = bisect_right(xs, x)
        i = j - 1  # last point with xs[i] <= x; xs[0] = 0 <= x guarantees i >= 0
        if xs[i] == x:
            out.append(ys[i])  # last point at x = top of any jump
        else:
            x0, y0, x1, y1 = xs[i], ys[i], xs[j], ys[j]
            out.append(y0 + (y1 - y0) * (x - x0) / (x1 - x0))
    return out


def curve_to_csv(curve):
    """Flat CSV (fpr, tpr rows) for external plotting; floats via repr."""
    lines = ["fpr,tpr"]
    lines.extend(f"{x!r},{y!r}" for x, y in curve.points)
    return "\n".join(lines) + "\n"


def encode_dataset(dataset, vocab):
    """Each instance's ``encode`` feature vector, in order."""
    return [encode(inst, vocab) for inst in dataset.instances]


def oracle_exercise_features(metas, vocab):
    """Per-exercise reference for ``exercise_features``: each exercise's
    four namespace indices by ``vocab.global_index``, and its days/100,
    clamped time/60 and time-present values, one exercise at a time."""
    rows, numeric = [], []
    for m in metas:
        rows.append([vocab.global_index("user", m.user_id),
                     vocab.global_index("format", m.format.value),
                     vocab.global_index("session", m.session.value),
                     vocab.global_index("client", m.client.value)])
        if m.time is None:
            numeric.append([m.days / 100.0, 0.0, 0.0])
        else:
            numeric.append([m.days / 100.0, min(max(float(m.time), 0.0), 60.0) / 60.0, 1.0])
    return (np.array(rows, dtype=np.intp).reshape(-1, 4),
            np.array(numeric, dtype=np.float64).reshape(-1, 3))


def tree_depth(tree):
    """Internal nodes on the longest path from the root to a leaf, in one
    sweep from the last node back: a child always follows its parent."""
    below = [0] * len(tree.feature)
    for i in range(len(below) - 1, -1, -1):
        if tree.feature[i] >= 0:
            below[i] = 1 + max(below[tree.left[i]], below[tree.right[i]])
    return below[0]


def tree_predict_batch(tree, X):
    """Leaf value for every row of the dense matrix X (column f holds feature
    f), walking all rows down the tree one level at a time."""
    feature = np.asarray(tree.feature, dtype=np.int64)
    threshold = np.asarray(tree.threshold, dtype=np.float64)
    left = np.asarray(tree.left, dtype=np.int64)
    right = np.asarray(tree.right, dtype=np.int64)
    value = np.asarray(tree.value, dtype=np.float64)
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


def gbdt_predict_proba(model, X):
    """The dense scoring route: probability for every row of the dense
    ``(n, total_dims)`` matrix X, adding each tree's leaf values in tree
    order."""
    raw = np.full(len(X), model.base_score, dtype=np.float64)
    for tree in model.trees:
        raw += model.config.learning_rate * tree_predict_batch(tree, X)
    return sigmoid(raw)


def predict_gbdt(model, instance):
    """Mistake probability for one token instance through the per-instance
    ``encode`` and ``to_dense``."""
    X = to_dense([encode(instance, model.vocab)], model.vocab)
    return float(gbdt_predict_proba(model, X)[0])


def best_split(X, feature, gradients, hessians, config):
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


def dense_scan_splits(vals, g, h, lam, min_leaf):
    """``slamaudit.gbdt.scan_splits`` as it was before it scored only the
    candidate cuts: every cut of every row is scored and the inadmissible
    ones masked to -inf before one C-order argmax. The library's scan must
    return the same (feature, position, gain), gain bit for bit.
    """
    F, k = vals.shape
    if k < 2:
        return (-1, -1, 0.0)
    cg = np.cumsum(g, axis=1)
    ch = np.cumsum(h, axis=1)
    gt = cg[:, -1:]
    ht = ch[:, -1:]
    gl = cg[:, :-1]
    hl = ch[:, :-1]
    gr = gt - gl
    hr = ht - hl
    gain = gl * gl / (hl + lam) + gr * gr / (hr + lam) - gt * gt / (ht + lam)
    left_count = np.arange(1, k)
    valid = (
        (vals[:, :-1] < vals[:, 1:])
        & (left_count >= min_leaf)
        & (k - left_count >= min_leaf)
    )
    gain = np.where(valid, gain, -np.inf)
    flat = int(np.argmax(gain))  # first occurrence of the max, C order
    best = float(gain.ravel()[flat])
    if not best > 0.0:
        return (-1, -1, 0.0)
    return (flat // (k - 1), flat % (k - 1), best)


def oracle_split_candidates(X, g, h, lam, min_leaf):
    """Every admissible cut of every column of X, scored by brute force.

    The loop of the original compiled split scan: per column, rows stably
    sorted by value, the total and the left-side sums accumulated left to
    right, and a cut between sorted positions i and i + 1 admissible when
    the two values differ and each side keeps at least min_leaf rows.
    Returns (feature, threshold, gain) triples in column-major scan order;
    the threshold is the midpoint of the two values.
    """
    X = np.asarray(X, dtype=np.float64)
    k, n_features = X.shape
    candidates = []
    for f in range(n_features):
        column = [float(v) for v in X[:, f]]
        order = sorted(range(k), key=column.__getitem__)
        vals = [column[r] for r in order]
        gs = [float(g[r]) for r in order]
        hs = [float(h[r]) for r in order]
        gt = 0.0
        ht = 0.0
        for i in range(k):
            gt = gt + gs[i]
            ht = ht + hs[i]
        gl = 0.0
        hl = 0.0
        for i in range(k - 1):
            gl = gl + gs[i]
            hl = hl + hs[i]
            if i + 1 < min_leaf or k - i - 1 < min_leaf:
                continue
            if not vals[i] < vals[i + 1]:
                continue
            gr = gt - gl
            hr = ht - hl
            gain = gl * gl / (hl + lam) + gr * gr / (hr + lam) - gt * gt / (ht + lam)
            threshold = (vals[i] + vals[i + 1]) / 2.0
            if threshold >= vals[i + 1]:
                threshold = vals[i]
            candidates.append((f, threshold, gain))
    return candidates


def oracle_best_split(candidates):
    """First maximum-gain candidate, or None when no gain is positive."""
    best = None
    for cand in candidates:
        if best is None or cand[2] > best[2]:
            best = cand
    if best is None or not best[2] > 0.0:
        return None
    return best


def oracle_train_raw(X, y, *, n_trees, max_depth, learning_rate, min_samples_leaf,
                     l2_leaf_reg):
    """Train-set raw scores of a dense exact-greedy Newton GBDT.

    Each node sorts every column of its rows afresh and scores every cut
    from prefix sums; numpy's cumsum accumulates left to right, as the loop
    in oracle_split_candidates does, and the first maximum in column-major
    order wins. Vectorized only because the loop is too slow for a fixture
    track of 100 trees.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    positives = y.sum()
    raw = np.full(n, np.log(positives / (n - positives)))
    for _ in range(n_trees):
        p = 1.0 / (1.0 + np.exp(-raw))
        g = p - y
        h = p * (1.0 - p)
        step = np.zeros(n)
        stack = [(np.arange(n), 0)]
        while stack:
            rows, depth = stack.pop()
            cut = None
            if depth < max_depth and len(rows) >= 2 * min_samples_leaf:
                cut = _oracle_node_cut(X[rows], g[rows], h[rows], l2_leaf_reg,
                                       min_samples_leaf)
            if cut is None:
                step[rows] = -g[rows].sum() / (h[rows].sum() + l2_leaf_reg)
                continue
            feature, threshold = cut
            right = X[rows, feature] > threshold
            stack.append((rows[~right], depth + 1))
            stack.append((rows[right], depth + 1))
        raw = raw + learning_rate * step
    return raw


def _oracle_node_cut(X, g, h, lam, min_leaf):
    k = len(g)
    live = np.flatnonzero(X.min(axis=0) < X.max(axis=0))  # others have no cut
    if live.size == 0:
        return None
    cols = np.ascontiguousarray(X[:, live].T)
    order = np.argsort(cols, axis=1, kind="stable")
    vals = np.take_along_axis(cols, order, axis=1)
    cg = np.cumsum(g[order], axis=1)
    ch = np.cumsum(h[order], axis=1)
    gt, ht = cg[:, -1:], ch[:, -1:]
    gl, hl = cg[:, :-1], ch[:, :-1]
    gr, hr = gt - gl, ht - hl
    gain = gl * gl / (hl + lam) + gr * gr / (hr + lam) - gt * gt / (ht + lam)
    left_count = np.arange(1, k)
    admissible = (
        (vals[:, :-1] < vals[:, 1:]) & (left_count >= min_leaf) & (k - left_count >= min_leaf)
    )
    gain = np.where(admissible, gain, -np.inf)
    flat = int(np.argmax(gain))  # first maximum in column-major scan order
    j, i = divmod(flat, k - 1)
    if not gain[j, i] > 0.0:
        return None
    lo, hi = vals[j, i], vals[j, i + 1]
    threshold = (lo + hi) / 2.0
    if threshold >= hi:
        threshold = lo
    return int(live[j]), threshold


def oracle_sigmoid(z):
    """The two-branch logistic function: ``1 / (1 + exp(-z))`` where
    ``z >= 0``, ``exp(z) / (1 + exp(z))`` elsewhere, each branch on its own
    elements."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def oracle_train_multitask(datasets, vocab, config):
    """Per-instance reference for ``train_multitask``: the same seeded
    initialization, shuffles and round-robin batch order, with each batch's
    step the sum of per-instance ``grad`` results and the final losses the
    mean of per-instance ``instance_loss``."""
    data = {
        ds.track: ([encode(i, vocab) for i in ds.instances], [i.label for i in ds.instances])
        for ds in datasets
    }
    model = init_model(vocab, data, config)
    rng = np.random.default_rng(config.seed + 1)
    tracks = sorted(data, key=lambda t: t.value)
    size = config.batch_size
    for _epoch in range(config.epochs):
        batches = {}
        for t in tracks:
            perm = rng.permutation(len(data[t][0]))
            batches[t] = [perm[i : i + size] for i in range(0, len(perm), size)]
        for r in range(max(len(b) for b in batches.values())):
            for t in tracks:
                if r < len(batches[t]):
                    oracle_mt_step(model, t, data[t], batches[t][r], config.learning_rate)
    for t in tracks:
        fvs, labels = data[t]
        losses = [instance_loss(model, t, fv, y) for fv, y in zip(fvs, labels)]
        model.train_losses[t] = float(np.mean(losses))
    return model


def oracle_mt_summed_grad(model, track, fvs, labels):
    """Sum of per-instance ``grad`` results as dense arrays: (embedding,
    hidden_weight, hidden_bias, head weight, head bias)."""
    acc_emb = np.zeros_like(model.embedding)
    acc_hw = np.zeros_like(model.hidden_weight)
    acc_hb = np.zeros_like(model.hidden_bias)
    acc_w = np.zeros_like(model.heads[track][0])
    acc_b = 0.0
    for fv, y in zip(fvs, labels):
        g = grad(model, track, fv, y)
        acc_emb += g.embedding
        acc_hw += g.hidden_weight
        acc_hb += g.hidden_bias
        gw, gb = g.heads[track]
        acc_w += gw
        acc_b += gb
    return acc_emb, acc_hw, acc_hb, acc_w, acc_b


def oracle_mt_step(model, track, data, batch, lr):
    fvs, labels = data
    acc_emb, acc_hw, acc_hb, acc_w, acc_b = oracle_mt_summed_grad(
        model, track, [fvs[i] for i in batch], [labels[i] for i in batch]
    )
    scale = lr / len(batch)
    model.embedding -= scale * acc_emb
    model.hidden_weight -= scale * acc_hw
    model.hidden_bias -= scale * acc_hb
    w, b = model.heads[track]
    model.heads[track] = (w - scale * acc_w, b - scale * acc_b)


def oracle_gather(packed, rows, l2):
    """One batch of ``multitask._batches`` built on its own, as
    ``(rows, mix, u, pull, labels)``: ``np.unique`` over the dimensions of
    the batch's nonzero (row, slot) pairs gives the sorted ``u`` and each
    pair's column in the dense mixing matrix, and ``pull`` is ``l2`` times
    each column's pair count."""
    vals = packed.vals[rows]
    owner, slot = np.nonzero(vals)
    u, inv = np.unique(packed.cols[rows[owner], slot], return_inverse=True)
    mix = np.zeros((len(rows), len(u)))
    mix[owner, inv] = vals[owner, slot]
    pull = l2 * np.bincount(inv, minlength=len(u))
    labels = None if packed.labels is None else packed.labels[rows]
    return rows, mix, u, pull, labels


def oracle_pack(fvs, labels=None):
    """Per-instance packing of ``FeatureVector``s into the multitask model's
    fixed-width mixing rows: 1/k on each of k active binary dimensions, then
    each nonzero numeric value, then weight-0 padding up to the widest row."""
    rows = []
    for fv in fvs:
        row = [(dim, 1.0 / len(fv.indices)) for dim in fv.indices]
        row.extend((dim, value) for dim, value in fv.numeric if value != 0.0)
        rows.append(row)
    width = max(map(len, rows), default=0)
    cols = np.zeros((len(rows), width), dtype=np.intp)
    vals = np.zeros((len(rows), width), dtype=np.float64)
    for i, row in enumerate(rows):
        for s, (dim, value) in enumerate(row):
            cols[i, s] = dim
            vals[i, s] = value
    return _PackedRows(
        cols=cols,
        vals=vals,
        labels=None if labels is None else np.array(labels, dtype=np.float64),
    )


def oracle_build_vocab(datasets):
    """``Vocabulary.to_dict()`` of the datasets, interned token by token: each
    instance's strings in ``NAMESPACES`` order, each new string taking its
    namespace's next index."""
    maps = {ns: {} for ns in NAMESPACES}
    for ds in datasets:
        for inst in ds.instances:
            strings = {
                "user": [inst.meta.user_id],
                "token": [inst.token.lower()],
                "pos": [inst.part_of_speech],
                "morph": list(inst.morph_features),
                "dep": [inst.dep_label],
                "format": [inst.meta.format.value],
                "session": [inst.meta.session.value],
                "client": [inst.meta.client.value],
            }
            for ns in NAMESPACES:
                for value in strings[ns]:
                    maps[ns].setdefault(value, len(maps[ns]))
    return {
        "format_version": VOCAB_FORMAT_VERSION,
        "namespaces": maps,
        "numeric_features": list(NUMERIC_FEATURES),
    }


def _oracle_parse_token_line(line, lineno, meta, track):
    cols = line.split()
    if len(cols) not in (6, 7):
        raise ParseError(f"token line has {len(cols)} columns, expected 6 or 7", lineno)
    label = None
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


def oracle_parse_exercise_stream(lines, track):
    """The per-token SLAM parser: (meta, tokens) per exercise block, one
    ``TokenInstance`` built per token line as the line is read."""
    meta_fields, extras, prompt, meta, tokens = {}, [], None, None, []
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
            tokens.append(_oracle_parse_token_line(line, lineno, meta, track))
    yield from flush()


def oracle_parse_dataset(lines, track, split):
    """A Dataset from the per-token parser's instances, in file order."""
    instances = []
    for _, tokens in oracle_parse_exercise_stream(lines, track):
        instances.extend(tokens)
    return Dataset.from_instances(track=track, instances=tuple(instances), split=split)
