"""Temporally-directed similarity graph with top-K pruned incoming edges.

Edges point strictly from earlier to later artifacts; artifacts sharing a year
are never connected, so the graph is a DAG and antisymmetric by construction.
Each node keeps at most the K largest-weight incoming edges, weight ties broken
by the smaller source index so rebuilds are bit-identical.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Corpus
from .similarity import SimilarityParams, distance_weights, pair_weights

# Destinations are ranked in slabs of this many consecutive rows in year order,
# bounding the slab and its partition at roughly 2 * 256 * n * 8 bytes.
_DST_CHUNK = 256

# The CSV edge writers format this many rows per write, bounding the Python
# strings alive at once.
_CSV_CHUNK = 1 << 16

TEMPORAL_PRIORS = ("none", "window")


@dataclass(frozen=True)
class GraphParams:
    """Graph construction knobs: pruning K, kernel bandwidth, temporal prior."""

    k: int
    sigma: float
    temporal_prior: str = "none"
    temporal_window_k: int = 500

    def __post_init__(self):
        if not (isinstance(self.k, int) and self.k >= 1):
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        SimilarityParams(self.sigma)
        if self.temporal_prior not in TEMPORAL_PRIORS:
            raise ValueError(f"temporal_prior must be one of {TEMPORAL_PRIORS}, got {self.temporal_prior!r}")
        if not (isinstance(self.temporal_window_k, int) and self.temporal_window_k >= 1):
            raise ValueError(f"temporal_window_k must be a positive integer, got {self.temporal_window_k!r}")


def _freeze_edges(edges, **per_edge: type) -> None:
    """Coerce, check and freeze the edge store `PaintingGraph` and `ImplicationNetwork` share.

    Destination j's edges sit at [indptr[j], indptr[j + 1]) with their sources
    strictly increasing, which is canonical (dst, src) order. `per_edge` names
    the further per-edge fields of `edges` and their dtypes.
    """
    n = edges.n
    if not 1 <= n < 2 ** 31:
        raise ValueError(f"n must be in [1, 2**31), got {n!r}")
    indptr = np.ascontiguousarray(edges.indptr, dtype=np.int64)
    src = np.asarray(edges.src)
    if indptr.shape != (n + 1,) or src.ndim != 1:
        raise ValueError("indptr must have n + 1 entries and src must be 1-D")
    if indptr[0] != 0 or indptr[-1] != src.size or np.any(indptr[1:] < indptr[:-1]):
        raise ValueError("indptr must rise from 0 to the edge count")
    if src.size and (src.min() < 0 or src.max() >= n):
        raise ValueError("edge endpoints out of range")
    fields = {"indptr": indptr, "src": np.ascontiguousarray(src, dtype=np.int32)}
    for name, dtype in {"weight": np.float64, **per_edge}.items():
        fields[name] = np.ascontiguousarray(getattr(edges, name), dtype=dtype)
        if fields[name].shape != src.shape:
            raise ValueError(f"{name} must be 1-D and as long as src")
    for name, arr in fields.items():
        arr.setflags(write=False)
        object.__setattr__(edges, name, arr)
    if src.size:
        src, weight = fields["src"], fields["weight"]
        if np.any(src == np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))):
            raise ValueError("self edges are not allowed")
        if not (np.all(np.isfinite(weight)) and weight.min() > 0.0):
            raise ValueError("edge weights must be positive and finite")
        falling = src[1:] <= src[:-1]
        starts = indptr[1:-1]
        falling[starts[(starts > 0) & (starts < src.size)] - 1] = False  # a new column may restart
        if np.any(falling):
            raise ValueError("edges must be strictly sorted by (dst, src)")


@dataclass(frozen=True)
class PaintingGraph:
    """Edges (src -> dst, weight) stored by destination: dst j owns [indptr[j], indptr[j + 1]).

    Invariants: no self edges, every weight > 0, at most one edge per ordered
    pair, sources strictly increasing within each destination, so the edges
    are in canonical (dst, src) order. `src` is int32, which caps n below 2**31.
    """

    n: int
    indptr: np.ndarray
    src: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        _freeze_edges(self)

    @property
    def n_edges(self) -> int:
        return int(self.src.size)


def _year_groups(years: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable year-ascending int32 order plus [start, end) bounds of each year group."""
    order = np.argsort(years, kind="stable").astype(np.int32)
    sorted_years = years[order]
    change = np.flatnonzero(np.diff(sorted_years)) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [years.size]))
    return order, starts, ends


def _candidate_ranges(starts: np.ndarray, ends: np.ndarray,
                      window: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each year group's candidates as year-order positions [a_lo, a_hi) and [b_lo, start).

    A group's candidates are its strictly prior artifacts, or the `window`
    latest of them: ranked by year descending and, within a year, earlier
    manifest rows first. Stable year sort makes each group slice
    manifest-ascending, so the group the window's cut falls in contributes its
    slice prefix [a_lo, a_hi) and every later prior group its whole slice,
    [b_lo, start). A group the window does not cut has a_lo = a_hi = b_lo = 0.
    """
    cut = np.maximum(starts - window, 0)
    p = np.searchsorted(starts, cut, side="right") - 1  # the group holding position `cut`
    whole = cut == 0
    a_lo = np.where(whole, 0, starts[p])
    a_hi = np.where(whole, 0, starts[p] + ends[p] - cut)
    b_lo = np.where(whole, 0, ends[p])
    return a_lo, a_hi, b_lo


def _select_top_k(weights: np.ndarray, sources: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k largest weights; ties at the cut favor the smaller source index."""
    if weights.size <= k:
        return np.arange(weights.size)
    kth = np.partition(weights, weights.size - k)[weights.size - k]
    above = np.flatnonzero(weights > kth)
    need = k - above.size
    if need == 0:
        return above
    ties = np.flatnonzero(weights == kth)
    ties = ties[np.argsort(sources[ties])][:need]
    return np.concatenate((above, ties))


def _rows_at(cols: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Feature rows at year-order `positions`, as a view each of whose dimensions is contiguous."""
    return np.moveaxis(np.take(cols[:-1], positions, axis=1), 0, -1)


def _slab_top_k(block: np.ndarray, p0: int, c0: int, n_cand: np.ndarray, cols: np.ndarray,
                order: np.ndarray, position: np.ndarray, k: int,
                sigma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Top-K picks of every row of one ranking slab, each row's picks sorted by source.

    Row i is the destination x at year-order position p0 + i, with n_cand[i]
    candidates; `cols` holds the year-ordered features, one row per
    dimension, and the squared norms in its last row, and `position` maps an
    artifact to its year-order position. block[i, c] is d^2 - |x|^2 between x
    and the artifact at position c0 + c, or +inf where that artifact is not
    one of x's candidates. One `argpartition` takes each row's k smallest
    values, and only those picks are weighed. Returns (row, count, src,
    weight): the slab rows that have picks, how many each has, and the picks
    of those rows one after another.
    """
    # Certifying a row's picks. block holds v = fl([-2x, 1] . [y, s_y]) with
    # s_y = fl(|y|^2) and m = dim + 1 terms. In any summation order, with or
    # without FMA, |v - (s_y - 2 x.y)| <= g_m (2 |x| |y| + s_y), where
    # g_m = m u / (1 - m u) and u = 2^-53 (Higham, "Accuracy and Stability of
    # Numerical Algorithms", 2002, section 3.1); |s_y - |y|^2| <= g_dim s_y, and
    # likewise for sx. With R^2 the largest s_y of the slab's columns (so
    # |y| <= R up to a factor 1 + O(dim u)), the exact d^2 = |x|^2 - 2 x.y +
    # |y|^2 is at least sx + v - 2 g_m (|x| + R)^2. `pair_weights` rounds each
    # of its non-negative terms at most dim + 2 times, so its d2 >= d^2 (1 -
    # g_(dim+2)), and d^2 <= (|x| + R)^2. So every candidate valued v or more has
    #     d2 >= sx + v - slack,   slack = 4 (dim + 3) u (|x| + R)^2,
    # which leaves over (dim + 8) u (|x| + R)^2 for the O(u) factors above and
    # for rounding the bound itself.
    # Division by -2 sigma^2 and exp are monotone, so `distance_weights` of
    # that bound caps the weight of each such candidate. A row whose k picks
    # all outweigh the cap at its (k+1)-th smallest v holds exactly the k
    # heaviest candidates, with no tie across the cut and no underflow.
    r, c = block.shape
    dim = cols.shape[0] - 1
    sx = cols[dim, p0:p0 + r]
    r2 = cols[dim, c0:c0 + c].max()
    slack = 4.0 * (dim + 3) * 2.0 ** -53 * (np.sqrt(sx) + np.sqrt(r2)) ** 2
    floor = np.zeros(r)  # a candidate lighter than its row's floor is never picked
    fast = np.zeros(r, dtype=bool)
    rows, counts, src_parts, w_parts = [], [], [], []
    big = np.flatnonzero(n_cand > k)
    if big.size:
        part = np.argpartition(block if big.size == r else block[big], k, axis=1)
        top = np.sort(order[part[:, :k] + c0], axis=1)
        after = block[big, part[:, k]]  # each row's (k+1)-th smallest value
        del part  # as large as the block; free it before the picks are gathered
        w = pair_weights(_rows_at(cols, p0 + big[:, None]), _rows_at(cols, position[top]), sigma)
        floor[big] = w.min(axis=1)
        with np.errstate(over="ignore"):
            cap = distance_weights(sx[big] + after - slack[big], sigma)
        ok = floor[big] > cap
        fast[big[ok]] = True
        rows.append(big[ok])
        counts.append(np.full(int(ok.sum()), k, dtype=np.int64))
        src_parts.append(top[ok].ravel())
        w_parts.append(w[ok].ravel())
    # Every other row (a tie near the cut, an underflowed pick, at most k
    # candidates) is cut exactly: its top k weigh at least its floor (0 for
    # a row with at most k candidates) and more than 0, so only candidates whose
    # cap reaches both are weighed; the heaviest k survive, ties at the cut
    # going to the smaller source, and underflowed weights are dropped.
    slow = np.flatnonzero(~fast)
    if slow.size:
        with np.errstate(over="ignore"):
            cap = distance_weights(sx[slow, None] + block[slow] - slack[slow, None], sigma)
        band_row, band_col = np.nonzero((cap >= floor[slow, None]) & (cap > 0.0))
        band_w = pair_weights(_rows_at(cols, p0 + slow[band_row]),
                              _rows_at(cols, band_col + c0), sigma)
        band_src = order[band_col + c0]
        band_size = np.bincount(band_row, minlength=slow.size)
        band_end = np.cumsum(band_size)
        for i, lo, hi in zip(slow, band_end - band_size, band_end):
            keep = band_w[lo:hi] > 0.0
            wk, sk = band_w[lo:hi][keep], band_src[lo:hi][keep]
            sel = _select_top_k(wk, sk, k)
            sel = sel[np.argsort(sk[sel])]
            rows.append(np.array([i]))
            counts.append(np.array([sel.size]))
            src_parts.append(sk[sel])
            w_parts.append(wk[sel])
    return (np.concatenate(rows), np.concatenate(counts),
            np.concatenate(src_parts), np.concatenate(w_parts))


def build_graph(corpus: Corpus, aspect: str, params: GraphParams) -> PaintingGraph:
    """Connect every artifact to its strictly earlier candidates, keep top-K incoming.

    Candidate sources for artifact j are all artifacts dated strictly before j
    (optionally restricted to the `temporal_window_k` latest ones). The K
    candidates of largest kernel weight are kept; weights that underflow to
    zero are dropped. Destinations are ranked in slabs of consecutive rows in
    year order, which may span year groups, with one matrix product against
    a year-ordered copy of the features each; only the kept pairs are weighed,
    by `pair_weights`, so a weight depends on its pair alone. Each slab's picks
    are written straight to their destination's place in canonical (dst, src)
    order, inside room reserved up front.
    """
    if aspect not in corpus.features:
        raise ValueError(f"aspect '{aspect}' not found; corpus has {list(corpus.aspects)}")
    feats = np.asarray(corpus.features[aspect].vectors, dtype=np.float64)
    n, dim = feats.shape

    order, starts, ends = _year_groups(corpus.years)
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    window = params.temporal_window_k if params.temporal_prior == "window" else n
    a_lo, a_hi, b_lo = _candidate_ranges(starts, ends, window)
    n_cand = a_hi - a_lo + starts - b_lo
    group = np.repeat(np.arange(starts.size), ends - starts)  # year group of each position
    # The year-ordered features one row per dimension, then their squared
    # norms: column c is [y, |y|^2] for the artifact at position c.
    cols = np.empty((dim + 1, n))
    np.take(feats.T, order, axis=1, out=cols[:dim])
    cols[dim] = np.einsum("ij,ij->j", cols[:dim], cols[:dim])
    # Destination j gets room for min(k, its candidate count) edges from room[j]
    # on; weights that underflow leave some of it empty.
    sizes = np.empty(n, dtype=np.int64)
    sizes[order] = np.minimum(n_cand, params.k)[group]
    room = np.concatenate(([0], np.cumsum(sizes)))
    count = np.zeros(n, dtype=np.int64)
    src = np.empty(room[-1], dtype=np.int32)
    weight = np.empty(room[-1], dtype=np.float64)

    # A slab's rows are ranked against the positions [c0, c1) their
    # candidates span. Every slab's block lives in one buffer, so its pages
    # are mapped once.
    first = np.arange(ends[0], n, _DST_CHUNK)  # the earliest year group has no candidates
    last = np.minimum(first + _DST_CHUNK, n)
    lo, hi = a_lo[group[first]], starts[group[last - 1]]
    buffer = np.empty(int(((last - first) * (hi - lo)).max(initial=0)))
    for p0, p1, c0, c1 in zip(first.tolist(), last.tolist(), lo.tolist(), hi.tolist()):
        slab_groups = range(group[p0], group[p1 - 1] + 1)
        x = cols[:, p0:p1].T.copy()
        x[:, :dim] *= -2.0
        x[:, dim] = 1.0
        block = buffer[:(p1 - p0) * (c1 - c0)].reshape(p1 - p0, c1 - c0)
        np.matmul(x, cols[:, c0:c1], out=block)  # [-2x, 1] . [y, |y|^2] = d^2 - |x|^2
        for h in slab_groups:  # mask each row's non-candidates
            r0, r1 = max(starts[h], p0) - p0, min(ends[h], p1) - p0
            block[r0:r1, :a_lo[h] - c0] = np.inf
            block[r0:r1, a_hi[h] - c0:b_lo[h] - c0] = np.inf
            block[r0:r1, starts[h] - c0:] = np.inf
        r, picks, s, w = _slab_top_k(block, p0, c0, n_cand[group[p0:p1]], cols, order,
                                     position, params.k, params.sigma)
        dst = order[p0:p1][r]
        pos = np.repeat(room[dst] - (np.cumsum(picks) - picks), picks) + np.arange(s.size)
        src[pos] = s
        weight[pos] = w
        count[dst] = picks

    # Destination j's edges occupy [indptr[j], indptr[j + 1]), already source-sorted.
    indptr = np.concatenate(([0], np.cumsum(count)))
    if indptr[-1] < room[-1]:
        filled = np.arange(room[-1]) < np.repeat(room[:-1] + count, sizes)
        src, weight = src[filled], weight[filled]
    return PaintingGraph(n=n, indptr=indptr, src=src, weight=weight)


def _csv_fields(values: Sequence[str]) -> np.ndarray:
    """Each value as `csv.writer` writes it inside a row (quoted where needed)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    fields = np.empty(len(values), dtype=object)
    for i, value in enumerate(values):
        buf.seek(0)
        buf.truncate()
        writer.writerow((value, ""))
        fields[i] = buf.getvalue()[:-len(",\r\n")]
    return fields


def _write_edge_rows(path: str | Path, header: Sequence[str], ids: Sequence[str], edges,
                     label: tuple[Sequence[str], np.ndarray] | None = None) -> None:
    """Rows `src_id,dst_id,weight[,label]` of a graph or network, one `csv.writer` row per edge.

    Ids are formatted once, weights with `repr`, and rows a chunk at a time,
    each chunk's destinations read off `indptr`. `label` pairs label names
    with each edge's index into them.
    """
    id_fields = _csv_fields(ids)
    if label is not None:
        names = np.asarray(label[0], dtype=object)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, edges.n_edges, _CSV_CHUNK):
            hi = min(lo + _CSV_CHUNK, edges.n_edges)
            dst = np.searchsorted(edges.indptr, np.arange(lo, hi), side="right") - 1
            columns = [id_fields[edges.src[lo:hi]].tolist(), id_fields[dst].tolist(),
                       map(repr, edges.weight[lo:hi].tolist())]
            if label is not None:
                columns.append(names[label[1][lo:hi].astype(np.intp)].tolist())
            fh.write("\r\n".join(map(",".join, zip(*columns))))
            fh.write("\r\n")


def write_graph_csv(graph: PaintingGraph, ids: Sequence[str], path: str | Path) -> None:
    """Edge dump `src_id,dst_id,weight` in canonical (dst, src) order."""
    _write_edge_rows(path, ("src_id", "dst_id", "weight"), ids, graph)
