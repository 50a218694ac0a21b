"""Exact split scan over pre-sorted feature values, in numpy.

The GBDT trainer runs it on the numeric features. Prefix sums come from
cumsum, which accumulates left to right, and totals from the last cumsum
column rather than a separate reduction. Ties resolve by a C-order argmax:
lowest feature row, then lowest split position.
"""

from __future__ import annotations

import numpy as np


def scan_splits(vals, g, h, lam, min_leaf):
    """Best split over pre-sorted per-feature arrays.

    vals, g, h: (F, k) float64 arrays, row f sorted ascending by value with
    g/h aligned to that order. Returns (feature, position, gain) where the
    cut is between sorted positions `position` and `position + 1`, or
    (-1, -1, 0.0) when no candidate has positive gain.
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
