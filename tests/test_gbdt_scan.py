"""The numeric split scan against the dense scan it replaced, bit for bit.

``scan_splits`` scores only the candidate cuts; ``oracles.dense_scan_splits``
scores every cut and masks the rest. Both read the same cumsums, so they
must agree exactly: the same feature, the same position and the same gain
bits, ties included.
"""

import numpy as np
import pytest

from slamaudit.gbdt import scan_splits

from oracles import dense_scan_splits

CASES = 2400


def scan_problems(rng, n_cases):
    """Random (vals, g, h, lam, min_leaf) problems: rows sorted ascending,
    values from few levels (heavy ties), many levels or one (a constant
    row), sizes on both sides of 2 * min_leaf, and duplicated rows so that
    two features tie exactly."""
    for case in range(n_cases):
        F = int(rng.integers(1, 4))
        min_leaf = int(rng.integers(1, 6))
        k = int(rng.integers(0, 4 * min_leaf + 8)) if case % 4 else 2 * min_leaf
        levels = int(rng.choice([1, 2, 3, 8, 1000]))
        vals = np.sort(rng.integers(0, levels, size=(F, k)) / 2.0, axis=1)
        g = rng.uniform(-1.0, 1.0, size=(F, k))
        h = rng.uniform(0.01, 0.25, size=(F, k))
        if F > 1 and rng.random() < 0.25:
            vals[-1], g[-1], h[-1] = vals[0], g[0], h[0]
        lam = float(rng.choice([0.0, 1.0]))
        yield vals, g, h, lam, min_leaf


def test_equal_to_the_dense_scan_on_random_sorted_inputs():
    rng = np.random.default_rng(20240601)
    outcomes = {"split": 0, "none": 0, "tie": 0}
    for vals, g, h, lam, min_leaf in scan_problems(rng, CASES):
        want = dense_scan_splits(vals, g, h, lam, min_leaf)
        assert scan_splits(vals, g, h, lam, min_leaf) == want, (vals, g, h, lam, min_leaf)
        outcomes["split" if want[0] >= 0 else "none"] += 1
        outcomes["tie"] += len(vals) > 1 and want[0] == 0 and np.array_equal(vals[0], vals[-1])
    # every kind of outcome is exercised
    assert min(outcomes.values()) >= 100, outcomes


@pytest.mark.parametrize("k, min_leaf", [(0, 1), (1, 1), (3, 2), (4, 2), (9, 5), (10, 5)])
def test_no_cut_leaves_fewer_than_min_leaf_rows(k, min_leaf):
    vals = np.arange(k, dtype=np.float64)[None, :]
    g = np.linspace(-1.0, 1.0, k)[None, :]
    h = np.full((1, k), 0.25)
    got = scan_splits(vals, g, h, 1.0, min_leaf)
    assert got == dense_scan_splits(vals, g, h, 1.0, min_leaf)
    if k < 2 * min_leaf:
        assert got == (-1, -1, 0.0)
    else:
        assert min_leaf - 1 <= got[1] <= k - min_leaf - 1
