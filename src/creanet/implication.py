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
from scipy import sparse

from .config import RunConfig
from .graph import PaintingGraph, _edge_chunks, _reverse_in_chunks, _write_edge_rows


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
    """The ceil(p/100 * n)-th smallest of n >= 1 values, p in (0, 100]: no interpolation."""
    rank = math.ceil(p / 100.0 * values.size)
    return float(np.partition(values, rank - 1)[rank - 1])


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
    edges and copies them into K and R. K and R share one store as long as
    the graph, and no other per-edge array spans the graph.
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
    indptr, src = graph.indptr, graph.src

    def balanced(e0: int, e1: int, j0: int, bounds: np.ndarray) -> np.ndarray:
        """b = w - m(anchor) of the edges [e0, e1), owned as `_edge_chunks` gives them."""
        if config.balance_anchor == "source":
            at = m[src[e0:e1]]
        else:
            at = np.repeat(m[j0:j0 + bounds.size - 1], np.diff(bounds))
        return np.subtract(graph.weight[e0:e1], at, out=at)

    # K fills one store as long as the graph from the front and R from the
    # back, last edge first, then R is turned around; the pages the dropped
    # edges would take are never written, so never resident.
    store_src = np.empty(graph.n_edges, dtype=np.int32)
    store_weight = np.empty(graph.n_edges, dtype=np.float64)
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
        # gathers by position beat boolean indexing twofold; "clip" spares take a buffer
        for picked, at in ((up, at_up), (down[::-1], at_down)):
            np.take(src[e0:e1], picked, out=store_src[at], mode="clip")
            np.take(b, picked, out=store_weight[at], mode="clip")
        np.negative(store_weight[at_down], out=store_weight[at_down])  # m - w, -(w - m) to the bit
    _reverse_in_chunks(store_src[reversed_start:])
    _reverse_in_chunks(store_weight[reversed_start:])
    kept, reversed_ = (PaintingGraph(n=graph.n, indptr=np.concatenate(([0], np.cumsum(counts[row]))),
                                     src=store_src[at], weight=store_weight[at])
                       for row, at in enumerate((slice(0, kept_end), slice(reversed_start, None))))
    return ImplicationNetwork(kept=kept, reversed=reversed_,
                              dropped_count=graph.n_edges - kept.n_edges - reversed_.n_edges)


def write_cin_csv(net: ImplicationNetwork, ids: Sequence[str], path: str | Path) -> None:
    """Edge dump `src_id,dst_id,weight,label` of the network K + R^T in canonical (dst, src) order.

    R^T enters negated, so each entry's sign in scipy's canonical sum gives its label.
    """
    n, kept, rev = net.kept.n, net.kept, net.reversed
    cin = (sparse.csc_matrix((kept.weight, kept.src, kept.indptr), shape=(n, n))
           + sparse.csr_matrix((-rev.weight, rev.src, rev.indptr), shape=(n, n)).tocsc())
    _write_edge_rows(path, ("src_id", "dst_id", "weight", "label"), ids, cin.indptr, cin.indices,
                     cin.data, labels=("subsequent", "prior"))
