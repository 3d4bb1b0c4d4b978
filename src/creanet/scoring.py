"""Column-stochastic normalization and the power-iteration solve of creativity scores.

Scores satisfy C = (1-alpha)/n + alpha * M C where M's column j spreads node
j's score over the sources of its incoming implication edges: M scales the
network's K + R^T term by term. Split scoring weighs prior-labeled edges (R)
by beta and subsequent-labeled ones (K) by 1 - beta. Whatever weight a
column's edges do not carry is its dangling weight, spread uniformly over all
n nodes (the rank-one dangling-node term of Langville & Meyer, "Deeper Inside
PageRank", 2004), so M is exactly column-stochastic and every iterate stays on
the probability simplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse

from .config import RunConfig
from .implication import ImplicationNetwork

COLUMN_SUM_TOL = 1e-12
SIMPLEX_SUM_TOL = 1e-9


@dataclass(frozen=True)
class StochasticOperator:
    """Column-stochastic operator: entry (i, j) moves score from j to i.

    The sparse `terms` add up to the edge-backed entries; `dangling[j]` in
    [0, 1] is the share of column j spread as 1/n over every node when the
    operator is applied. Each column's entries plus its dangling weight sum to 1.
    """

    n: int
    terms: tuple[sparse.spmatrix, ...]
    dangling: np.ndarray

    def __post_init__(self):
        dangling = np.ascontiguousarray(self.dangling, dtype=np.float64)
        if dangling.shape != (self.n,):
            raise ValueError(f"dangling must have shape ({self.n},)")
        if not np.all((dangling >= 0.0) & (dangling <= 1.0)):
            raise ValueError("dangling weights must lie in [0, 1]")
        col_sums = dangling.copy()
        for term in self.terms:
            if term.shape != (self.n, self.n):
                raise ValueError(f"matrix must be {self.n}x{self.n}, got {term.shape}")
            data = term.data
            if data.size and not (np.all(np.isfinite(data)) and data.min() >= 0.0 and data.max() <= 1.0):
                raise ValueError("operator entries must lie in [0, 1]")
            col_sums += term.T @ np.ones(self.n)  # a transpose is a view: no copy
        if np.any(np.abs(col_sums - 1.0) > COLUMN_SUM_TOL):
            raise ValueError("every column's entries plus its dangling weight must sum to 1")
        dangling.setflags(write=False)  # only once every check has passed
        object.__setattr__(self, "dangling", dangling)

    def apply(self, c: np.ndarray) -> np.ndarray:
        """M @ c with each column's dangling weight spread uniformly."""
        out = np.zeros(self.n)
        for term in self.terms:
            out += term @ c
        support = np.flatnonzero(self.dangling)
        lost = float((self.dangling[support] * c[support]).sum())
        if lost:
            out += lost / self.n
        return out


@dataclass(frozen=True)
class ScoreVector:
    """Scores on the probability simplex plus the power solve's diagnostics.

    `scores` is the caller's array itself when it is already a contiguous
    float64 vector, and construction makes it read-only: the caller's array
    is frozen, not copied.
    """

    scores: np.ndarray
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


def normalize(cin: ImplicationNetwork, config: RunConfig) -> StochasticOperator:
    """The scoring operator of a CIN: combined, or the split at `config.beta`, by `config.scoring`.

    Its terms are the network's K and R^T, scaled, on the stores' `indptr`
    and `src` (R^T is a transposed view of R, not a copy). Combined scoring
    divides each edge by its column's total, K's column sum plus R's source
    sum. Split scoring gives beta * M_prior + (1 - beta) * M_subseq: K divided
    by its own column sums, R by its own source sums. At beta = 1 or 0 the
    store with zero weight is left out, so each limit scores bit for bit like
    an operator built from that one store.
    """
    kept, rev = cin.kept, cin.reversed
    n = kept.n
    # Sparse products add each node's edges in edge order: K's column sums read
    # its columns as rows, R's source sums read R as it is stored.
    subsequent = sparse.csr_matrix((kept.weight, kept.src, kept.indptr), shape=(n, n)) @ np.ones(n)
    prior = sparse.csc_matrix((rev.weight, rev.src, rev.indptr), shape=(n, n)) @ np.ones(n)
    if config.scoring == "combined":
        total = subsequent + prior
        scaled = ((kept, total, 1.0, False), (rev, total, 1.0, True))
        dangling = (total == 0.0).astype(np.float64)
    else:
        beta = config.beta
        scaled = ((kept, subsequent, 1.0 - beta, False), (rev, prior, beta, True))
        dangling = beta * (prior == 0.0) + (1.0 - beta) * (subsequent == 0.0)
    terms = []
    for store, sums, scale, transpose in scaled:
        if scale == 0.0:
            continue
        values = sums[store.src] if transpose else np.repeat(sums, np.diff(store.indptr))
        np.divide(store.weight, values, out=values)
        if scale != 1.0:
            values *= scale
        matrix = sparse.csc_matrix((values, store.src, store.indptr), shape=(n, n))
        terms.append(matrix.T if transpose else matrix)
    return StochasticOperator(n=n, terms=tuple(terms), dangling=dangling)


def solve_power(op: StochasticOperator, config: RunConfig,
                on_iteration: Callable[[np.ndarray], None] | None = None) -> ScoreVector:
    """Iterate C <- (1-alpha)/n + alpha * M C from uniform until the L1 step < tol.

    alpha, tol and max_iters are `config`'s. A run that exhausts max_iters
    still returns its scores, flagged converged=False with the final residual.
    `on_iteration`, when given, is called with each new iterate.
    """
    alpha, tol = config.alpha, config.tol
    n = op.n
    teleport = (1.0 - alpha) / n
    c = np.full(n, 1.0 / n)
    residual = float("inf")
    iterations = 0
    for iterations in range(1, config.max_iters + 1):
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
    return ScoreVector(scores=c, iterations=iterations, residual=residual, converged=residual < tol)
