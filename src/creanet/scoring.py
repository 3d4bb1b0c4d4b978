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

from dataclasses import InitVar, dataclass, field
from typing import Callable

import numpy as np

from ._kernels import index_arrays, sparsetools
from .config import RunConfig
from .graph import _edge_chunks
from .implication import ImplicationNetwork

COLUMN_SUM_TOL = 1e-12
SIMPLEX_SUM_TOL = 1e-9


def _product(by_row: bool, indptr: np.ndarray, indices: np.ndarray, data: np.ndarray,
             x: np.ndarray) -> np.ndarray:
    """`A @ x` in a fresh vector, as scipy's own product, for the n x n matrix A on these arrays.

    The arrays hold A by row (CSR) when `by_row`, else by column (CSC); read
    the other way, they hold A's transpose. scipy's product fills
    `np.zeros(n)` through the same kernel, so the bits are scipy's.
    """
    n = x.size
    out = np.zeros(n)
    kernel = sparsetools.csr_matvec if by_row else sparsetools.csc_matvec
    kernel(n, n, indptr, indices, data, x, out)
    return out


@dataclass(frozen=True)
class StochasticOperator:
    """Column-stochastic operator of an implication network: entry (i, j) moves score from j to i.

    Its edge-backed entries are the network's K + R^T, K's edges valued
    `kept_values` and R's `reversed_values`: each a float64 vector as long
    as its store, or None to leave that store out. `dangling[j]` in [0, 1]
    is the share of column j spread as 1/n over every node when the operator
    is applied. Each column's entries plus its dangling weight sum to 1.
    The operator keeps the arrays it reads, not the `network`; K's are read
    by column and R's by row, as R^T.
    """

    network: InitVar[ImplicationNetwork]
    kept_values: np.ndarray | None
    reversed_values: np.ndarray | None
    dangling: np.ndarray
    n: int = field(init=False)
    _terms: tuple = field(init=False, repr=False, compare=False)
    _support: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, network: ImplicationNetwork):
        n = network.kept.n
        dangling = np.ascontiguousarray(self.dangling, dtype=np.float64)
        if dangling.shape != (n,):
            raise ValueError(f"dangling must have shape ({n},)")
        if not np.all((dangling >= 0.0) & (dangling <= 1.0)):
            raise ValueError("dangling weights must lie in [0, 1]")
        col_sums = dangling.copy()
        ones = np.ones(n)
        terms = []
        for by_row, store, values in ((False, network.kept, self.kept_values),
                                      (True, network.reversed, self.reversed_values)):
            if values is None:
                continue
            # the store's own structure was checked when it was built
            if not (isinstance(values, np.ndarray) and values.dtype == np.float64
                    and values.shape == (store.n_edges,)):
                raise ValueError(f"operator values must be a float64 vector of their store's {store.n_edges} edges")
            if values.size and not (values.min() >= 0.0 and values.max() <= 1.0):  # NaN fails both
                raise ValueError("operator entries must lie in [0, 1]")
            indptr, src = index_arrays(store, store.n_edges)
            col_sums += _product(not by_row, indptr, src, values, ones)
            terms.append((by_row, indptr, src, values))
        if np.any(np.abs(col_sums - 1.0) > COLUMN_SUM_TOL):
            raise ValueError("every column's entries plus its dangling weight must sum to 1")
        dangling.setflags(write=False)  # only once every check has passed
        object.__setattr__(self, "dangling", dangling)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", tuple(terms))
        object.__setattr__(self, "_support", np.flatnonzero(dangling))

    def apply(self, c: np.ndarray) -> np.ndarray:
        """M @ c with each column's dangling weight spread uniformly."""
        if c.shape != (self.n,):  # the kernels would read past a shorter vector
            raise ValueError(f"c must have shape ({self.n},), got {c.shape}")
        out = np.zeros(self.n)
        for term in self._terms:
            out += _product(*term, c)
        support = self._support
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

    It reads the network's stores as K and R^T, with the scaled values in
    fresh arrays: `cin` is left as it is. Combined scoring divides each edge
    by its column's total, K's column sum plus R's source sum. Split scoring
    gives beta * M_prior + (1 - beta) * M_subseq: K divided by its own column
    sums, R by its own source sums. At beta = 1 or 0 the store with zero
    weight is left out, so each limit scores bit for bit like an operator
    built from that one store.
    """
    return _scale(cin, config, np.empty(cin.kept.n_edges), np.empty(cin.reversed.n_edges))


def _scale(cin: ImplicationNetwork, config: RunConfig, kept_values: np.ndarray,
           reversed_values: np.ndarray) -> StochasticOperator:
    """`normalize`, writing K's and R's scaled values to `kept_values` and `reversed_values`.

    Each is a writable float64 array as long as its store; it may be the
    store's own `weight`, which is then divided in place, as every divisor
    is summed before the first edge is scaled. Divisors are taken a chunk of
    edges at a time (see `graph._edge_chunks`), so no per-edge temporary
    spans a store.
    """
    kept, rev = cin.kept, cin.reversed
    # Each sum adds a node's edges in edge order: K's column sums read K's
    # arrays by row, as K^T; R's source sums read R's by column, as R.
    ones = np.ones(kept.n)
    subsequent = _product(True, *index_arrays(kept, kept.n_edges), kept.weight, ones)
    prior = _product(False, *index_arrays(rev, rev.n_edges), rev.weight, ones)
    if config.scoring == "combined":
        total = subsequent + prior
        scaled = ((kept, total, 1.0, False, kept_values), (rev, total, 1.0, True, reversed_values))
        dangling = (total == 0.0).astype(np.float64)
    else:
        beta = config.beta
        scaled = ((kept, subsequent, 1.0 - beta, False, kept_values),
                  (rev, prior, beta, True, reversed_values))
        dangling = beta * (prior == 0.0) + (1.0 - beta) * (subsequent == 0.0)
    picked = []
    for store, sums, scale, transpose, values in scaled:
        if scale == 0.0:
            picked.append(None)
            continue
        for e0, e1, j0, bounds in _edge_chunks(store.indptr):
            divisors = (sums[store.src[e0:e1]] if transpose
                        else np.repeat(sums[j0:j0 + bounds.size - 1], np.diff(bounds)))
            np.divide(store.weight[e0:e1], divisors, out=values[e0:e1])
        if scale != 1.0:
            values *= scale
        picked.append(values)
    return StochasticOperator(cin, *picked, dangling=dangling)


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
