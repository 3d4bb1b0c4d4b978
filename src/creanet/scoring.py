"""Column-stochastic normalization and the creativity score solvers.

Scores satisfy C = (1-alpha)/n + alpha * M C where M's column j spreads node
j's score over the sources of its incoming implication edges. Split scoring
weighs prior-labeled edges by beta and subsequent-labeled ones by 1 - beta.
Whatever weight a column's edges do not carry is its dangling weight, spread
uniformly over all n nodes (the rank-one dangling-node term of Langville &
Meyer, "Deeper Inside PageRank", 2004), so M is exactly column-stochastic and
every iterate stays on the probability simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse

from .implication import ImplicationNetwork

# Largest n for which the dense closed-form solve is permitted.
CLOSED_FORM_MAX_N = 5000

COLUMN_SUM_TOL = 1e-12
SIMPLEX_SUM_TOL = 1e-9


@dataclass(frozen=True)
class StochasticOperator:
    """Column-stochastic operator: entry (i, j) moves score from j to i.

    `matrix` holds the edge-backed entries; `dangling[j]` in [0, 1] is the
    share of column j spread as 1/n over every node when the operator is
    applied. Each column's entries plus its dangling weight sum to 1.
    """

    n: int
    matrix: sparse.spmatrix
    dangling: np.ndarray

    def __post_init__(self):
        if self.matrix.shape != (self.n, self.n):
            raise ValueError(f"matrix must be {self.n}x{self.n}, got {self.matrix.shape}")
        dangling = np.ascontiguousarray(self.dangling, dtype=np.float64)
        if dangling.shape != (self.n,):
            raise ValueError(f"dangling must have shape ({self.n},)")
        if not np.all((dangling >= 0.0) & (dangling <= 1.0)):
            raise ValueError("dangling weights must lie in [0, 1]")
        dangling.setflags(write=False)
        object.__setattr__(self, "dangling", dangling)
        data = self.matrix.data
        if data.size and not (np.all(np.isfinite(data)) and data.min() >= 0.0 and data.max() <= 1.0):
            raise ValueError("operator entries must lie in [0, 1]")
        col_sums = np.asarray(self.matrix.sum(axis=0)).ravel() + dangling
        if np.any(np.abs(col_sums - 1.0) > COLUMN_SUM_TOL):
            raise ValueError("every column's entries plus its dangling weight must sum to 1")

    def apply(self, c: np.ndarray) -> np.ndarray:
        """M @ c with each column's dangling weight spread uniformly."""
        out = self.matrix @ c
        support = np.flatnonzero(self.dangling)
        lost = float((self.dangling[support] * c[support]).sum())
        if lost:
            out += lost / self.n
        return out

    def dense(self) -> np.ndarray:
        """Full matrix with the dangling weights filled in; for small-n solves only."""
        m = self.matrix.toarray()
        m += self.dangling / self.n
        return m


@dataclass(frozen=True)
class ScoreVector:
    """Scores on the probability simplex plus solver diagnostics."""

    scores: np.ndarray
    solver: str
    iterations: int
    residual: float
    converged: bool

    def __post_init__(self):
        scores = np.ascontiguousarray(self.scores, dtype=np.float64)
        if scores.ndim != 1 or scores.size == 0:
            raise ValueError("scores must be a non-empty 1-D vector")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite")
        if scores.min() < 0.0:
            raise ValueError("scores must be non-negative")
        if abs(float(scores.sum()) - 1.0) > SIMPLEX_SUM_TOL:
            raise ValueError(f"scores must sum to 1, got {float(scores.sum())!r}")
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)


def normalize(cin: ImplicationNetwork, beta: float | None = None) -> StochasticOperator:
    """The scoring operator of a CIN: combined when `beta` is None, else the beta split.

    Combined scoring divides each edge by its column's incoming weight. Split
    scoring gives beta * M_prior + (1 - beta) * M_subseq, each label's edges
    divided by that label's column sum. At beta = 1 or 0 the edges of the label
    with zero weight are left out rather than stored as zeros, so each limit
    scores bit for bit like an operator built from one label's edges alone.
    Otherwise the matrix takes the CIN's `indptr` and shares its `src`.
    """
    n = cin.n
    weight = cin.weight
    in_degree = np.diff(cin.indptr)
    # Column sums come from a sparse product with the CIN's rows as
    # destinations, which adds each destination's edges in edge order.
    if beta is None:
        sums = sparse.csr_matrix((weight, cin.src, cin.indptr), shape=(n, n)) @ np.ones(n)
        values = np.repeat(sums, in_degree)
        np.divide(weight, values, out=values)
        dangling = (sums == 0.0).astype(np.float64)
    else:
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {beta!r}")
        label = cin.prior.astype(np.int32)  # column of `sums`: 0 subsequent, 1 prior
        scale = np.array([1.0 - beta, beta])
        # the other label's edges each add an exact +0.0
        sums = sparse.csr_matrix((weight, label, cin.indptr), shape=(n, 2)) @ np.eye(2)
        dangling = scale[1] * (sums[:, 1] == 0.0) + scale[0] * (sums[:, 0] == 0.0)
        values = np.where(cin.prior, np.repeat(sums[:, 1], in_degree),
                          np.repeat(sums[:, 0], in_degree))
        np.divide(weight, values, out=values)
        values *= scale[label]
    limit = beta in (0.0, 1.0)
    matrix = sparse.csc_matrix((values, cin.src, cin.indptr), shape=(n, n), copy=limit)
    if limit:
        matrix.eliminate_zeros()  # the other label's edges, each scaled by 0
    return StochasticOperator(n=n, matrix=matrix, dangling=dangling)


def solve_power(op: StochasticOperator, alpha: float, tol: float = 1e-10,
                max_iters: int = 1000,
                on_iteration: Callable[[np.ndarray], None] | None = None) -> ScoreVector:
    """Iterate C <- (1-alpha)/n + alpha * M C from uniform until the L1 step < tol.

    A run that exhausts max_iters still returns its scores, flagged
    converged=False with the final residual.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha!r}")
    if tol <= 0.0 or max_iters < 1:
        raise ValueError("tol must be positive and max_iters at least 1")
    n = op.n
    teleport = (1.0 - alpha) / n
    c = np.full(n, 1.0 / n)
    residual = float("inf")
    iterations = 0
    for iterations in range(1, max_iters + 1):
        nxt = teleport + alpha * op.apply(c)
        residual = float(np.abs(nxt - c).sum())
        if on_iteration is not None:
            on_iteration(nxt)
        c = nxt
        if residual < tol:
            break
    if alpha == 1.0:
        # Pure eigenvector mode has no teleport mass pinning the total;
        # renormalize the limit onto the simplex.
        c = c / c.sum()
    return ScoreVector(scores=c, solver="power", iterations=iterations,
                       residual=residual, converged=residual < tol)


def solve_closed_form(op: StochasticOperator, alpha: float) -> ScoreVector:
    """Direct dense solve of (I - alpha M) C = (1-alpha)/n; the power-iteration oracle."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"closed form requires alpha in [0, 1), got {alpha!r}")
    if op.n > CLOSED_FORM_MAX_N:
        raise ValueError(f"closed form limited to n <= {CLOSED_FORM_MAX_N}, got {op.n}")
    a = np.eye(op.n) - alpha * op.dense()
    b = np.full(op.n, (1.0 - alpha) / op.n)
    scores = np.linalg.solve(a, b)
    return ScoreVector(scores=scores, solver="closed_form", iterations=0,
                       residual=0.0, converged=True)
