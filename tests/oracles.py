"""Brute-force reference implementations used to cross-check the library.

Everything here favours obviousness over speed: exhaustive threshold sweeps,
quadratic pair counting, dense-grid quadrature, per-instance gradient sums.
Keep these independent of the library internals so agreement means
something.
"""

from __future__ import annotations

from array import array
from itertools import repeat

import numpy as np

from slamaudit.features import encode
from slamaudit.multitask import _PackedRows, grad, init_model, instance_loss


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


def oracle_pack(fvs, labels=None):
    """Per-instance packing of ``FeatureVector``s into the multitask model's
    CSR mixing rows: 1/k on each of k active binary dimensions, then each
    nonzero numeric value."""
    indptr, cols, vals = array("q", [0]), array("q"), array("d")
    for fv in fvs:
        cols.extend(fv.indices)
        vals.extend(repeat(1.0 / len(fv.indices), len(fv.indices)))
        for dim, value in fv.numeric:
            if value != 0.0:
                cols.append(dim)
                vals.append(value)
        indptr.append(len(cols))
    return _PackedRows(
        indptr=np.frombuffer(indptr, dtype=np.int64),
        cols=np.frombuffer(cols, dtype=np.int64),
        vals=np.frombuffer(vals, dtype=np.float64),
        labels=None if labels is None else np.array(labels, dtype=np.float64),
    )
