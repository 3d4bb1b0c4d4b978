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

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ._kernels import sparsetools
from .config import RunConfig
from .graph import _edge_chunks
from .implication import ImplicationNetwork

COLUMN_SUM_TOL = 1e-12
SIMPLEX_SUM_TOL = 1e-9
_FLIPPED = {"csr": "csc", "csc": "csr"}


@dataclass(frozen=True)
class Compressed:
    """An n x n sparse matrix in `format` "csr" or "csc", on the arrays scipy's matrices keep.

    A scipy `csr_matrix` or `csc_matrix` has the same four attributes and
    may stand in for it. Read by the other format, the same arrays are the
    transpose.
    """

    format: str
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


def _compressed(kind: str, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray) -> Compressed:
    """The matrix of format `kind` on these arrays themselves, `indptr` in the index type of `indices`.

    The index type is int32, int64 only past 2**31 - 1 entries; `indices`
    is copied only when its type must change.
    """
    index = np.int32 if int(indptr[-1]) < 2 ** 31 else np.int64
    return Compressed(kind, indptr.astype(index), indices.astype(index, copy=False), data)


def _product(term, x: np.ndarray, flip: bool = False) -> np.ndarray:
    """`term @ x`, or its transpose's when `flip`, in a fresh vector, as scipy's own product.

    scipy's product fills `np.zeros(n)` through the same kernel, so the bits
    are scipy's.
    """
    n = x.size
    out = np.zeros(n)
    kind = _FLIPPED[term.format] if flip else term.format
    getattr(sparsetools, f"{kind}_matvec")(n, n, term.indptr, term.indices, term.data, x, out)
    return out


def _check_term(term, n: int) -> None:
    """Raise ValueError unless `term` is an n x n CSR or CSC matrix the kernels can read safely."""
    kind = getattr(term, "format", None)
    if kind not in _FLIPPED:
        raise ValueError(f"operator terms must be csr or csc, got {kind!r}")
    indptr, indices, data = term.indptr, term.indices, term.data
    if not (indptr.dtype == indices.dtype and indptr.dtype in (np.int32, np.int64)):
        raise ValueError(f"indptr and indices must share one index type, int32 or int64; "
                         f"got {indptr.dtype} and {indices.dtype}")
    if indptr.shape != (n + 1,):
        raise ValueError(f"matrix must be {n}x{n}: indptr needs {n + 1} entries, got {indptr.shape}")
    if data.ndim != 1 or indices.shape != data.shape:
        raise ValueError("indices and data must be 1-D and of one length")
    if indptr[0] != 0 or indptr[-1] != data.size or np.any(indptr[1:] < indptr[:-1]):
        raise ValueError(f"indptr must rise from 0 to the {data.size} entries")
    unsigned = np.uint32 if indices.dtype == np.int32 else np.uint64
    if indices.size and indices.view(unsigned).max() >= n:  # read unsigned, a negative is huge
        raise ValueError(f"indices must lie in [0, {n})")


@dataclass(frozen=True)
class StochasticOperator:
    """Column-stochastic operator: entry (i, j) moves score from j to i.

    The sparse `terms`, each a `Compressed` matrix or a scipy `csr_matrix`
    or `csc_matrix`, add up to the edge-backed entries; `dangling[j]` in
    [0, 1] is the share of column j spread as 1/n over every node when the
    operator is applied. Each column's entries plus its dangling weight sum to 1.
    """

    n: int
    terms: tuple[Compressed, ...]
    dangling: np.ndarray
    _support: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dangling = np.ascontiguousarray(self.dangling, dtype=np.float64)
        if dangling.shape != (self.n,):
            raise ValueError(f"dangling must have shape ({self.n},)")
        if not np.all((dangling >= 0.0) & (dangling <= 1.0)):
            raise ValueError("dangling weights must lie in [0, 1]")
        col_sums = dangling.copy()
        ones = np.ones(self.n)
        for term in self.terms:
            _check_term(term, self.n)  # before a kernel reads it
            data = term.data
            if data.size and not (data.min() >= 0.0 and data.max() <= 1.0):  # NaN fails both
                raise ValueError("operator entries must lie in [0, 1]")
            col_sums += _product(term, ones, flip=True)
        if np.any(np.abs(col_sums - 1.0) > COLUMN_SUM_TOL):
            raise ValueError("every column's entries plus its dangling weight must sum to 1")
        dangling.setflags(write=False)  # only once every check has passed
        object.__setattr__(self, "dangling", dangling)
        object.__setattr__(self, "_support", np.flatnonzero(dangling))

    def apply(self, c: np.ndarray) -> np.ndarray:
        """M @ c with each column's dangling weight spread uniformly."""
        if c.shape != (self.n,):  # the kernels would read past a shorter vector
            raise ValueError(f"c must have shape ({self.n},), got {c.shape}")
        out = np.zeros(self.n)
        for term in self.terms:
            out += _product(term, c)
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

    Its terms are the network's K and R^T, scaled, on the stores' `indptr`
    and `src` (R^T is R's arrays read by row, not a copy), with the scaled
    values in fresh arrays: `cin` is left as it is. Combined scoring
    divides each edge by its column's total, K's column sum plus R's source
    sum. Split scoring gives beta * M_prior + (1 - beta) * M_subseq: K divided
    by its own column sums, R by its own source sums. At beta = 1 or 0 the
    store with zero weight is left out, so each limit scores bit for bit like
    an operator built from that one store.
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
    n = kept.n
    # K's columns are its destinations; R^T is R's arrays read by row
    kept_term = _compressed("csc", kept.weight, kept.src, kept.indptr)
    flipped_term = _compressed("csr", rev.weight, rev.src, rev.indptr)
    # The flipped products add each node's edges in edge order: K's column
    # sums read its columns as rows, R's source sums read R as it is stored.
    ones = np.ones(n)
    subsequent = _product(kept_term, ones, flip=True)
    prior = _product(flipped_term, ones, flip=True)
    if config.scoring == "combined":
        total = subsequent + prior
        scaled = ((kept, kept_term, total, 1.0, False, kept_values),
                  (rev, flipped_term, total, 1.0, True, reversed_values))
        dangling = (total == 0.0).astype(np.float64)
    else:
        beta = config.beta
        scaled = ((kept, kept_term, subsequent, 1.0 - beta, False, kept_values),
                  (rev, flipped_term, prior, beta, True, reversed_values))
        dangling = beta * (prior == 0.0) + (1.0 - beta) * (subsequent == 0.0)
    terms = []
    for store, term, sums, scale, transpose, values in scaled:
        if scale == 0.0:
            continue
        for e0, e1, j0, bounds in _edge_chunks(store.indptr):
            divisors = (sums[store.src[e0:e1]] if transpose
                        else np.repeat(sums[j0:j0 + bounds.size - 1], np.diff(bounds)))
            np.divide(store.weight[e0:e1], divisors, out=values[e0:e1])
        if scale != 1.0:
            values *= scale
        terms.append(replace(term, data=values))
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
