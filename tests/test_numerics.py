"""``numerics.sigmoid`` against the two-branch form in ``oracles.py``: one
``exp(-|z|)`` for both branches must give the same bits everywhere."""

import numpy as np
import pytest

from slamaudit.numerics import sigmoid

from oracles import oracle_sigmoid

# zero, the smallest subnormal, where exp(-|z|) leaves 1 + e at 1, where
# exp(z) nears the largest double, and where exp(-|z|) underflows to 0
EDGES = [0.0, 5e-324, 36.7, 709.7, 745.0, 800.0, np.inf]


def assert_same_bits(z):
    got, want = sigmoid(z), oracle_sigmoid(z)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_edges_and_their_negatives():
    z = np.array(EDGES + [-v for v in EDGES])
    assert np.signbit(z[len(EDGES)])  # -0.0 is in
    assert_same_bits(z)


def test_seeded_normals_at_many_scales():
    rng = np.random.default_rng(2011)
    normals = rng.standard_normal(200_000)
    for scale in np.linspace(0.05, 40.0, 40):
        assert_same_bits(normals * scale)


def test_nan_gives_nan():
    out = sigmoid(np.array([np.nan, -np.nan, 1.0]))
    assert np.isnan(out[:2]).all()  # the payload may differ from the oracle's
    assert out[2] == oracle_sigmoid(1.0)


@pytest.mark.parametrize("z", [0.25, -3.0, np.float64(2.0), np.array(-0.0)])
def test_zero_d_input_gives_zero_d_array(z):
    out = sigmoid(z)
    assert isinstance(out, np.ndarray) and out.shape == ()
    assert_same_bits(z)
