"""Balancing transform: similarity graph -> Creativity Implication Network.

Each similarity edge is judged against a per-node threshold m: the balanced
value b = w - m decides whether the edge survives as-is (b > 0), disappears
(b = 0), or reverses with weight -b (b < 0). A similarity graph's edges all run
from an earlier to a later artifact, so a kept edge is labeled `subsequent`
and a reversed one `prior`. Both stay in the graph's orientation, as the
stores K and R of the network K + R^T. Edge direction in the network encodes
score flow, not time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ._kernels import index_arrays, sparsetools
from .config import RunConfig
from .graph import (PaintingGraph, _chunk_size, _edge_chunks, _release, _reverse_in_chunks,
                    _write_edge_rows)


@dataclass(frozen=True)
class ImplicationNetwork:
    """The balanced graph's edges, split by the sign of b and kept in the graph's orientation.

    `kept` (K) holds the edges with b > 0, weighted b: each is the network
    edge src -> dst, earlier to later, labeled subsequent. `reversed` (R)
    holds those with b < 0, weighted -b: each is the network edge dst -> src,
    labeled prior. The network's matrix is K + R^T (entry (i, j) for i -> j).
    """

    kept: PaintingGraph
    reversed: PaintingGraph
    dropped_count: int

    def __post_init__(self):
        if self.kept.n != self.reversed.n:
            raise ValueError("kept and reversed edges must be over the same nodes")
        if self.dropped_count < 0:
            raise ValueError("the dropped count must be non-negative")

    @property
    def kept_count(self) -> int:
        return self.kept.n_edges

    @property
    def reversed_count(self) -> int:
        return self.reversed.n_edges

    @property
    def n_edges(self) -> int:
        return self.kept.n_edges + self.reversed.n_edges


def _nearest_rank_percentile(values: np.ndarray, p: float) -> float:
    """The ceil(p/100 * n)-th smallest of n >= 1 values, none NaN, p in (0, 100]: no interpolation.

    No copy spans the values. A sorted sample of every stride-th value, at
    most `_chunk_size()` of them, brackets the rank between two of its values
    lo <= hi, and one pass a chunk at a time counts the values below, at and
    above lo and hi, and gathers those strictly between them, about 8 sqrt(n
    stride) values; `np.partition` picks the rank among those. A bracket that
    misses the rank is widened on the missing side, up to -inf or inf; ties at
    lo or hi are counted, never gathered. When the sample is every value, it
    gives the rank itself.
    """
    n, step = values.size, _chunk_size()
    rank = math.ceil(p / 100.0 * n)
    stride = -(-n // step)
    sample = np.sort(values[::stride])
    if stride == 1:
        return float(sample[rank - 1])
    size = sample.size
    guess = (rank - 1) * size // n  # where the rank falls in the sample
    margin = 4 * math.isqrt(size) + 1
    lo_at, hi_at = guess - margin, guess + margin  # out of the sample: -inf, inf
    while True:
        lo = sample[lo_at] if lo_at >= 0 else -np.inf
        hi = sample[hi_at] if hi_at < size else np.inf
        below = through_lo = below_hi = through_hi = 0
        inside = []
        for i0 in range(0, n, step):
            v = values[i0:i0 + step]
            at_most_lo, under_hi = v <= lo, v < hi
            below += np.count_nonzero(v < lo)
            through_lo += np.count_nonzero(at_most_lo)
            below_hi += np.count_nonzero(under_hi)
            through_hi += np.count_nonzero(v <= hi)
            inside.append(v[under_hi > at_most_lo])  # lo < v < hi
        margin *= 2
        if rank <= below:
            lo_at, hi_at = lo_at - margin, lo_at
        elif rank > through_hi:
            lo_at, hi_at = hi_at, hi_at + margin
        elif rank <= through_lo:
            return float(lo)
        elif rank > below_hi:
            return float(hi)
        else:
            between = np.concatenate(inside)
            between.partition(rank - through_lo - 1)  # in place, not a second copy
            return float(between[rank - through_lo - 1])


def compute_thresholds(graph: PaintingGraph, years: np.ndarray, config: RunConfig) -> np.ndarray:
    """Per-node balancing threshold m(i), by `config`'s balancing mode and percentile.

    Global mode gives every node the same percentile of all edge weights. Local
    mode restricts the sample to edges whose both endpoints lie within
    ±local_window_years of the node's year, falling back to the global value
    when fewer than min_local_sample edges qualify.
    """
    if graph.n_edges == 0:
        raise ValueError("graph has no edges; balancing threshold is undefined")
    years = np.asarray(years, dtype=np.int64)
    if years.shape != (graph.n,):
        raise ValueError(f"expected {graph.n} years, got shape {years.shape}")
    global_m = _nearest_rank_percentile(graph.weight, config.percentile_p)
    if config.balancing_mode == "global":
        return np.full(graph.n, global_m, dtype=np.float64)
    return _local_thresholds(graph, years, config, global_m)


def _ranked_window_ranges(graph: PaintingGraph, year_of: np.ndarray, distinct: np.ndarray,
                          w: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(weight, first, stop) of the edges in some year's window, ascending by weight.

    Edge e is in window for year y iff max(endpoint years) - w <= y <= min(endpoint
    years) + w, which over the distinct years is the index range [first, stop).
    Year indices take the dtype of `year_of`, which the caller keeps to the
    smallest that holds the distinct-year count, so the per-edge arrays stay small.
    """
    ys, yd = year_of[graph.src], np.repeat(year_of, np.diff(graph.indptr))
    first = np.searchsorted(distinct, distinct - w, side="left").astype(year_of.dtype)
    first = first[np.maximum(ys, yd)]
    stop = np.searchsorted(distinct, distinct + w, side="right").astype(year_of.dtype)
    stop = stop[np.minimum(ys, yd)]
    live = first < stop
    weight = graph.weight[live]
    first = first[live]
    stop = stop[live]
    order = np.argsort(weight)
    return weight[order], first[order], stop[order]


def _local_thresholds(graph: PaintingGraph, years: np.ndarray, config: RunConfig,
                      global_m: float) -> np.ndarray:
    """Local-mode m of every artifact, from one sweep over the edges' weight ranks.

    The edges in some year's window are ranked by weight once and the ranks cut
    into blocks of about sqrt(E). Per-block in-window counts of every year
    locate the block holding each year's nearest-rank edge, and one scan of
    that block picks it. The pick is the ceil(p/100 * count)-th smallest
    in-window weight, the value `_nearest_rank_percentile` reads off the same
    sample, so every threshold is exact. Cost: O(E log E + years * sqrt(E)) time
    and O(E + years * sqrt(E)) memory.
    """
    distinct, year_of = np.unique(years, return_inverse=True)
    q = distinct.size
    year_of = year_of.astype(np.min_scalar_type(q))
    weight, first, stop = _ranked_window_ranges(graph, year_of, distinct, config.local_window_years)
    m = np.full(q, global_m, dtype=np.float64)
    e = weight.size
    if e == 0:
        return m[year_of]

    # Blocks of `size` ranks; padding edges get the empty range [q, q).
    size = math.isqrt(e - 1) + 1
    blocks = -(-e // size)
    pad = np.full(blocks * size - e, q, dtype=first.dtype)
    first = np.concatenate((first, pad)).reshape(blocks, size)
    stop = np.concatenate((stop, pad)).reshape(blocks, size)
    row = (np.arange(blocks) * (q + 1))[:, None]
    tally = np.bincount((first + row).ravel(), minlength=blocks * (q + 1))
    tally -= np.bincount((stop + row).ravel(), minlength=blocks * (q + 1))
    tally = tally.reshape(blocks, q + 1)
    np.cumsum(tally, axis=1, out=tally)
    np.cumsum(tally, axis=0, out=tally)  # tally[b, y]: in-window edges of y in blocks 0..b
    local = np.flatnonzero(tally[-1, :q] >= config.min_local_sample)
    rank = np.ceil(config.percentile_p / 100.0 * tally[-1, local]).astype(np.int64)
    block = np.count_nonzero(tally[:, local] < rank, axis=0)
    before = np.where(block > 0, tally[block - 1, local], 0)
    del tally  # the scan sets the peak memory; it needs none of the counts

    y = local[:, None]
    inside = (first[block] <= y) & (y < stop[block])
    seen = np.cumsum(inside, axis=1, dtype=np.min_scalar_type(size))
    pos = np.argmax(seen >= (rank - before)[:, None], axis=1)
    m[local] = weight[block * size + pos]
    return m[year_of]


def build_implication_network(graph: PaintingGraph, m: np.ndarray, years: np.ndarray,
                              config: RunConfig) -> ImplicationNetwork:
    """Apply b = w - m(anchor node) to every edge; keep, drop, or reverse.

    `config.balance_anchor` picks whose threshold judges edge (i -> j): the
    receiving node j (destination, default) or the emitting node i (source).
    Every edge must run from an earlier to a later year, as a built similarity
    graph's edges do, so that the sign of b alone labels each surviving edge.
    Edges are judged a chunk at a time (see `graph._edge_chunks`), in one pass
    that checks their direction, counts each destination's kept and reversed
    edges and copies them into K and R. K and R share one fresh store as long
    as the graph, which is left as it is; no other per-edge array spans the
    graph.
    """
    return _balance(graph, m, years, config, kept_into=None)


def _balance(graph: PaintingGraph, m: np.ndarray, years: np.ndarray, config: RunConfig,
             kept_into: tuple[np.ndarray, np.ndarray] | None) -> ImplicationNetwork:
    """`build_implication_network`, writing K's sources and weights to the front of `kept_into`.

    `kept_into` is a writable (src, weight) pair at least as long as the
    graph, or None for the front of R's store. It may be the graph's own
    `src` and `weight`: each kept edge lands at or before its own place, and
    a chunk is read before its K is written. Once a chunk's R and K are
    written, `kept_into` holds nothing from K's end up to the chunk's end
    that is read before K writes it, so the memory wholly inside that span
    goes back to the system then (`graph._release`), after the last chunk down
    to the page, as does R's store before R; the graph's values past K's end
    may read as zeros after. The graph is no longer a graph after.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (graph.n,):
        raise ValueError(f"expected {graph.n} thresholds, got shape {m.shape}")
    years = np.asarray(years, dtype=np.int64)
    if years.shape != (graph.n,):
        raise ValueError(f"expected {graph.n} years, got shape {years.shape}")
    # years as ranks in the smallest integer type that holds them, to keep the per-edge arrays small
    distinct, year_of = np.unique(years, return_inverse=True)
    year_of = year_of.astype(np.min_scalar_type(distinct.size))
    indptr, src, weight = graph.indptr, graph.src, graph.weight

    def balanced(e0: int, e1: int, j0: int, bounds: np.ndarray) -> np.ndarray:
        """b = w - m(anchor) of the edges [e0, e1), owned as `_edge_chunks` gives them."""
        if config.balance_anchor == "source":
            at = m[src[e0:e1]]
        else:
            at = np.repeat(m[j0:j0 + bounds.size - 1], np.diff(bounds))
        return np.subtract(weight[e0:e1], at, out=at)

    # R fills a store as long as the graph from the back, last edge first,
    # then is turned around; K fills `kept_into`, or that store, from the
    # front. The pages the dropped edges would take are never written, so
    # never resident.
    store_src = np.empty(graph.n_edges, dtype=np.int32)
    store_weight = np.empty(graph.n_edges, dtype=np.float64)
    kept_src, kept_weight = (store_src, store_weight) if kept_into is None else kept_into
    counts = np.zeros((2, graph.n), dtype=np.int64)  # kept and reversed edges of each destination
    kept_end, reversed_start = 0, graph.n_edges
    for e0, e1, j0, bounds in _edge_chunks(indptr):
        owners = slice(j0, j0 + bounds.size - 1)
        backward = np.flatnonzero(year_of[src[e0:e1]]
                                  >= np.repeat(year_of[owners], np.diff(bounds)))
        if backward.size:
            e = e0 + int(backward[0])
            s, d = int(src[e]), int(np.searchsorted(indptr, e, side="right") - 1)
            raise ValueError(f"edge {s} -> {d} runs from year {years[s]} to year {years[d]}; "
                             f"every similarity edge must run from an earlier to a later year")
        b = balanced(e0, e1, j0, bounds)
        up, down = np.flatnonzero(b > 0.0), np.flatnonzero(b < 0.0)  # kept, reversed
        counts[0, owners] += np.diff(np.searchsorted(up, bounds))
        counts[1, owners] += np.diff(np.searchsorted(down, bounds))
        at_up = slice(kept_end, kept_end + up.size)
        at_down = slice(reversed_start - down.size, reversed_start)
        kept_end, reversed_start = at_up.stop, at_down.start
        # R before K, which may overwrite this chunk's sources; gathers by
        # position beat boolean indexing twofold; "clip" spares take a buffer
        for picked, at, to_src, to_weight in ((down[::-1], at_down, store_src, store_weight),
                                              (up, at_up, kept_src, kept_weight)):
            np.take(src[e0:e1], picked, out=to_src[at], mode="clip")
            np.take(b, picked, out=to_weight[at], mode="clip")
        np.negative(store_weight[at_down], out=store_weight[at_down])  # m - w, -(w - m) to the bit
        if kept_into is not None:  # after the last chunk, nothing writes past K's end
            _release(kept_src, kept_end, e1, final=e1 == graph.n_edges)
            _release(kept_weight, kept_end, e1, final=e1 == graph.n_edges)
    _reverse_in_chunks(store_src[reversed_start:])
    _reverse_in_chunks(store_weight[reversed_start:])
    if kept_into is not None:  # the store's front before R, in a page R's first write faulted in
        _release(store_src, 0, reversed_start, final=True)
        _release(store_weight, 0, reversed_start, final=True)
    indptrs = np.zeros((2, graph.n + 1), dtype=np.int64)
    np.cumsum(counts, axis=1, out=indptrs[:, 1:])
    kept = PaintingGraph(n=graph.n, indptr=indptrs[0], src=kept_src[:kept_end],
                         weight=kept_weight[:kept_end])
    reversed_ = PaintingGraph(n=graph.n, indptr=indptrs[1], src=store_src[reversed_start:],
                              weight=store_weight[reversed_start:])
    return ImplicationNetwork(kept=kept, reversed=reversed_,
                              dropped_count=graph.n_edges - kept.n_edges - reversed_.n_edges)


def write_cin_csv(net: ImplicationNetwork, ids: Sequence[str], path: str | Path) -> None:
    """Edge dump `src_id,dst_id,weight,label` of the network K + R^T in canonical (dst, src) order.

    R^T enters negated, so each entry's sign in the canonical sum gives its label.
    """
    _write_edge_rows(path, ("src_id", "dst_id", "weight", "label"), ids, *_merged(net),
                     labels=("subsequent", "prior"))


def _merged(net: ImplicationNetwork) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(indptr, indices, data) of K - R^T in CSC: the kernel calls of scipy's `csc_matrix` sum.

    R^T in CSC is R read as CSR and transposed by `csr_tocsc`, as R's
    `tocsc()` does, and `csr_plus_csr` adds the two CSC matrices with the
    dimensions swapped, as their `+` does; both read the stores' own arrays.
    """
    n, kept, rev = net.kept.n, net.kept, net.reversed
    most = net.n_edges
    kept_ptr, kept_src = index_arrays(kept, most)
    flip_ptr, flip_src = np.empty_like(kept_ptr), np.empty(rev.n_edges, dtype=kept_ptr.dtype)
    flip_weight = np.empty(rev.n_edges)
    sparsetools.csr_tocsc(n, n, *index_arrays(rev, most), rev.weight, flip_ptr, flip_src, flip_weight)
    np.negative(flip_weight, out=flip_weight)  # -(m - w) to the bit, as negating before
    indptr = np.empty_like(kept_ptr)
    indices = np.empty(most, dtype=kept_ptr.dtype)
    data = np.empty(most)
    sparsetools.csr_plus_csr(n, n, kept_ptr, kept_src, kept.weight, flip_ptr, flip_src, flip_weight,
                             indptr, indices, data)
    end = int(indptr[-1])
    return indptr, indices[:end], data[:end]
