"""Gaussian similarity kernel over feature vectors.

The weight between two artifacts is ``exp(-||f_i - f_j||^2 / (2 sigma^2))``,
a value in (0, 1] that decays with feature distance. Block helpers compute
rectangular kernel slabs without materializing the full pairwise matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SimilarityParams:
    """Kernel bandwidth for one feature aspect."""

    sigma: float

    def __post_init__(self):
        if isinstance(self.sigma, bool) or not (np.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be a positive finite number, got {self.sigma!r}")


def squared_distance_block(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between every row of `rows` and of `cols`.

    Uses the expansion ||x - y||^2 = ||x||^2 + ||y||^2 - 2 x.y so the bulk of
    the work is a single matrix product. Rounding can push tiny values below
    zero; those are clamped.
    """
    rows = np.asarray(rows, dtype=np.float64)
    cols = np.asarray(cols, dtype=np.float64)
    if rows.ndim != 2 or cols.ndim != 2 or rows.shape[1] != cols.shape[1]:
        raise ValueError("row and column blocks must be 2-D with matching dimension")
    rr = np.einsum("ij,ij->i", rows, rows)
    cc = np.einsum("ij,ij->i", cols, cols)
    d2 = rr[:, None] + cc[None, :] - 2.0 * (rows @ cols.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def kernel_block(rows: np.ndarray, cols: np.ndarray, sigma: float) -> np.ndarray:
    """Kernel weights between every row of `rows` and of `cols`."""
    SimilarityParams(sigma)
    d2 = squared_distance_block(rows, cols)
    d2 /= -2.0 * sigma * sigma
    return np.exp(d2, out=d2)
