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


def pair_weights(a: np.ndarray, b: np.ndarray, sigma: float) -> np.ndarray:
    """Kernel weights between feature rows of `a` and `b`, paired by broadcasting.

    Each row runs along the last axis. The squared distance of a pair is
    summed over the dimensions left to right in float64, with one rounding
    per subtraction, square and addition, so a weight depends on its pair
    alone.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim == 0 or b.ndim == 0 or a.shape[-1] != b.shape[-1]:
        raise ValueError("feature rows must have matching dimension")
    d2 = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    diff = np.empty_like(d2)
    for i in range(a.shape[-1]):
        np.subtract(a[..., i], b[..., i], out=diff)
        diff *= diff
        d2 += diff
    return distance_weights(d2, sigma)
