"""Gaussian similarity kernel over feature vectors.

The weight between two artifacts is ``exp(-||f_i - f_j||^2 / (2 sigma^2))``,
a value in (0, 1] that decays with feature distance. A weight is computed
from its own pair of rows alone, with a fixed order of float64 operations, so
it does not depend on which other pairs are weighed with it.
"""

from __future__ import annotations

import numpy as np


def check_sigma(sigma: float) -> None:
    """Reject a kernel bandwidth that is not a positive finite number."""
    if isinstance(sigma, bool) or not (np.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"sigma must be a positive finite number, got {sigma!r}")


def distance_weights(d2: np.ndarray, sigma: float) -> np.ndarray:
    """Kernel weights ``exp(d2 / (-2 sigma^2))`` of squared distances.

    Each step is monotone, so a lower bound on a squared distance maps to an
    upper bound on its weight.
    """
    check_sigma(sigma)
    return np.exp(np.asarray(d2, dtype=np.float64) / (-2.0 * sigma * sigma))


def pair_weights(columns: np.ndarray, a, b, sigma: float) -> np.ndarray:
    """Kernel weights between the artifacts at indices `a` and `b`, paired by broadcasting.

    `columns` holds the float64 features one row per dimension, an artifact
    to a column, and every index must lie in [0, n). The squared distance of
    a pair is summed over the dimensions in order, with one rounding per
    subtraction, square and addition, so a weight depends on its pair alone.
    Each dimension's values are gathered in turn, so the scratch spans the
    pairs, not the pairs times the dimension.
    """
    a_i, b_i = np.empty(np.shape(a)), np.empty(np.shape(b))
    d2 = np.zeros(np.broadcast_shapes(a_i.shape, b_i.shape))
    diff = np.empty_like(d2)
    for row in columns:
        np.take(row, a, out=a_i, mode="clip")  # indices are in range; "clip" spares take a buffer
        np.take(row, b, out=b_i, mode="clip")
        np.subtract(a_i, b_i, out=diff)
        diff *= diff
        d2 += diff
    return distance_weights(d2, sigma)
