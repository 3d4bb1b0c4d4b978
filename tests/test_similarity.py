"""Gaussian kernel: hand values, symmetry, the gathered kernel against the per-pair scalar."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creanet.similarity import pair_weights

from conftest import visual_similarity

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


def pair_weight(f_i, f_j, sigma):
    """Kernel weight of one pair of feature vectors, as columns 0 and 1 of a two-artifact layout."""
    return float(pair_weights(np.array([f_i, f_j], dtype=np.float64).T, 0, 1, sigma))


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


@pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_sigma_rejected(sigma):
    with pytest.raises(ValueError):
        pair_weight(np.zeros(2), np.ones(2), sigma)
    with pytest.raises(ValueError, match="sigma"):
        pair_weights(np.zeros((2, 3)), [0, 1], 2, sigma)


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
    feats = np.random.default_rng(2).normal(size=(12, 4))
    rows, cols = np.arange(5), np.arange(5, 12)
    block = pair_weights(feats.T, rows[:, None], cols[None], sigma=1.1)
    assert block.shape == (5, 7)
    for i in range(5):
        for j in range(7):
            assert block[i, j] == visual_similarity(feats[rows[i]], feats[cols[j]], 1.1)
            assert pair_weight(feats[rows[i]], feats[cols[j]], 1.1) == block[i, j]


def test_range_against_one_artifact():
    # a run of positions against one scalar index, as the graph update weighs
    # an artifact's entrants; the dimension is high enough for the summation
    # order to show in the last bits
    feats = np.random.default_rng(3).normal(size=(30, 300))
    columns = np.ascontiguousarray(feats.T)
    got = pair_weights(columns, np.arange(4, 25), 27, sigma=9.0)
    assert got.shape == (21,)
    assert got.tolist() == [visual_similarity(feats[i], feats[27], 9.0) for i in range(4, 25)]
    assert np.shape(pair_weights(columns, 3, 27, sigma=9.0)) == ()


def test_identical_rows_far_from_origin_weigh_one():
    # a distance expanded as |x|^2 + |y|^2 - 2 x.y loses these to rounding; the pair sum does not
    columns = np.full((6, 3), 1e3)
    block = pair_weights(columns, np.arange(3)[:, None], np.arange(3)[None], sigma=0.01)
    assert np.all(block == 1.0)
