"""Gaussian kernel: hand values, symmetry, pair function against the per-pair scalar."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import creanet as cn

from conftest import visual_similarity

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


def pair_weight(f_i, f_j, sigma):
    """Kernel weight of one pair of feature vectors."""
    return float(cn.pair_weights(f_i, f_j, sigma))


def test_identical_vectors_weigh_one():
    v = np.array([1.0, -2.0, 3.0])
    assert pair_weight(v, v, sigma=0.7) == 1.0


def test_hand_value():
    # squared distance 8, sigma 2 -> exp(-8 / 8) = exp(-1)
    a = np.array([0.0, 0.0])
    b = np.array([2.0, 2.0])
    assert pair_weight(a, b, sigma=2.0) == float(np.exp(-1.0))
    assert pair_weight(a, b, sigma=2.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


def test_weight_in_unit_interval_and_decreasing():
    a = np.zeros(3)
    w = [pair_weight(a, np.full(3, d), 1.0) for d in (0.5, 1.0, 2.0, 4.0)]
    assert all(0.0 <= x <= 1.0 for x in w)
    assert w == sorted(w, reverse=True)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="matching dimension"):
        pair_weight(np.zeros(2), np.zeros(3), 1.0)


def test_kernel_block_dimension_mismatch():
    with pytest.raises(ValueError, match="matching dimension"):
        cn.pair_weights(np.zeros((2, 3)), np.zeros((2, 4)), 1.0)


@pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_sigma_rejected(sigma):
    with pytest.raises(ValueError):
        pair_weight(np.zeros(2), np.ones(2), sigma)
    with pytest.raises(ValueError, match="sigma"):
        cn.pair_weights(np.zeros((1, 2)), np.ones((1, 2)), sigma)


@settings(max_examples=50, deadline=None)
@given(st.lists(finite_floats, min_size=1, max_size=6), st.floats(0.1, 10.0))
def test_symmetry_exact(values, sigma):
    rng = np.random.default_rng(abs(hash(tuple(values))) % (2**32))
    a = np.array(values)
    b = a + rng.normal(size=a.shape)
    assert pair_weight(a, b, sigma) == pair_weight(b, a, sigma)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100), st.floats(0.25, 4.0))
def test_scale_invariance(seed, factor):
    # scaling features and sigma together leaves the weight unchanged
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, 4))
    w1 = pair_weight(a, b, 1.3)
    w2 = pair_weight(factor * a, factor * b, factor * 1.3)
    assert w2 == pytest.approx(w1, rel=1e-12)


def test_pair_weights_match_scalar():
    # every pair of a broadcast block weighs bit for bit what the pair alone weighs
    rng = np.random.default_rng(2)
    rows = rng.normal(size=(5, 4))
    cols = rng.normal(size=(7, 4))
    block = cn.pair_weights(rows[:, None], cols[None], sigma=1.1)
    assert block.shape == (5, 7)
    for i in range(5):
        for j in range(7):
            assert block[i, j] == visual_similarity(rows[i], cols[j], 1.1)
            assert pair_weight(rows[i], cols[j], 1.1) == block[i, j]


def test_identical_rows_far_from_origin_weigh_one():
    # a distance expanded as |x|^2 + |y|^2 - 2 x.y loses these to rounding; the pair sum does not
    v = np.full((3, 6), 1e3)
    block = cn.pair_weights(v[:, None], v[None], sigma=0.01)
    assert np.all(block == 1.0)
