"""Shared numeric helpers for the two learners."""

from __future__ import annotations

import numpy as np


def sigmoid(z):
    """Numerically stable logistic function; never returns exactly 0 or 1
    for finite input of reasonable magnitude. ``1 / (1 + exp(-z))`` for
    ``z >= 0`` and ``exp(z) / (1 + exp(z))`` below, both from one
    ``exp(-|z|)``; a 0-d input gives a 0-d array."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e)
    out /= 1.0 + e
    return out


def log_loss_from_raw(raw, y) -> float:
    """Mean logistic loss from raw (pre-sigmoid) scores.

    softplus(raw) - y*raw, with softplus evaluated stably, so no probability
    clipping is ever needed.
    """
    raw = np.asarray(raw, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    softplus = np.maximum(raw, 0.0) + np.log1p(np.exp(-np.abs(raw)))
    return float(np.mean(softplus - y * raw))
