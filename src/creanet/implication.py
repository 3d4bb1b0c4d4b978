"""Balancing transform: similarity graph -> Creativity Implication Network.

Each similarity edge is judged against a per-node threshold m: the balanced
value b = w - m decides whether the edge survives as-is (b > 0), disappears
(b = 0), or reverses with weight -b (b < 0). Surviving edges carry a temporal
label: `prior` when the edge points back in time, `subsequent` when it points
forward. Edge direction in the result encodes score flow, not time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import sparse

from .graph import PaintingGraph, _freeze_edges, _write_edge_rows

LABEL_PRIOR = "prior"
LABEL_SUBSEQUENT = "subsequent"

BALANCING_MODES = ("global", "local")
BALANCE_ANCHORS = ("destination", "source")


@dataclass(frozen=True)
class BalanceSpec:
    """Threshold policy: which percentile, computed globally or local-in-time.

    The range checks here are the only ones; their messages name the config keys.
    """

    mode: str = "global"
    percentile_p: float = 50.0
    local_window_years: int = 50
    min_local_sample: int = 20

    def __post_init__(self):
        if self.mode not in BALANCING_MODES:
            raise ValueError(f"balancing_mode must be one of {BALANCING_MODES}, got {self.mode!r}")
        if not 0.0 < self.percentile_p <= 100.0:
            raise ValueError(f"percentile_p must be in (0, 100], got {self.percentile_p!r}")
        if not (isinstance(self.local_window_years, int) and self.local_window_years >= 1):
            raise ValueError(f"local_window_years must be a positive integer, got {self.local_window_years!r}")
        if not (isinstance(self.min_local_sample, int) and self.min_local_sample >= 1):
            raise ValueError(f"min_local_sample must be a positive integer, got {self.min_local_sample!r}")


@dataclass(frozen=True)
class ImplicationNetwork:
    """Non-negative digraph after balancing, stored by destination like `PaintingGraph`.

    `prior[e]` is True iff edge e points from a later to an earlier artifact.
    kept/reversed/dropped counts partition the originating graph's edges.
    """

    n: int
    indptr: np.ndarray
    src: np.ndarray
    weight: np.ndarray
    prior: np.ndarray
    kept_count: int
    reversed_count: int
    dropped_count: int

    def __post_init__(self):
        _freeze_edges(self, prior=bool)
        if min(self.kept_count, self.reversed_count, self.dropped_count) < 0:
            raise ValueError("kept, reversed and dropped counts must be non-negative")
        if self.kept_count + self.reversed_count != self.n_edges:
            raise ValueError("kept + reversed must equal the emitted edge count")

    @property
    def n_edges(self) -> int:
        return int(self.src.size)


def nearest_rank_percentile(values: np.ndarray, p: float) -> float:
    """Nearest-rank percentile (no interpolation): the ceil(p/100 * n)-th smallest."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p!r}")
    rank = math.ceil(p / 100.0 * values.size)
    return float(np.partition(values, rank - 1)[rank - 1])


def compute_thresholds(graph: PaintingGraph, years: np.ndarray, spec: BalanceSpec) -> np.ndarray:
    """Per-node balancing threshold m(i).

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
    global_m = nearest_rank_percentile(graph.weight, spec.percentile_p)
    if spec.mode == "global":
        return np.full(graph.n, global_m, dtype=np.float64)
    return _local_thresholds(graph, years, spec, global_m)


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


def _local_thresholds(graph: PaintingGraph, years: np.ndarray, spec: BalanceSpec,
                      global_m: float) -> np.ndarray:
    """Local-mode m of every artifact, from one sweep over the edges' weight ranks.

    The edges in some year's window are ranked by weight once and the ranks cut
    into blocks of about sqrt(E). Per-block in-window counts of every year
    locate the block holding each year's nearest-rank edge, and one scan of
    that block picks it. The pick is the ceil(p/100 * count)-th smallest
    in-window weight, the value `nearest_rank_percentile` reads off the same
    sample, so every threshold is exact. Cost: O(E log E + years * sqrt(E)) time
    and O(E + years * sqrt(E)) memory.
    """
    distinct, year_of = np.unique(years, return_inverse=True)
    q = distinct.size
    year_of = year_of.astype(np.min_scalar_type(q))
    weight, first, stop = _ranked_window_ranges(graph, year_of, distinct, spec.local_window_years)
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
    local = np.flatnonzero(tally[-1, :q] >= spec.min_local_sample)
    rank = np.ceil(spec.percentile_p / 100.0 * tally[-1, local]).astype(np.int64)
    block = np.count_nonzero(tally[:, local] < rank, axis=0)
    before = np.where(block > 0, tally[block - 1, local], 0)
    del tally  # the scan sets the peak memory; it needs none of the counts

    y = local[:, None]
    inside = (first[block] <= y) & (y < stop[block])
    seen = np.cumsum(inside, axis=1, dtype=np.min_scalar_type(size))
    pos = np.argmax(seen >= (rank - before)[:, None], axis=1)
    m[local] = weight[block * size + pos]
    return m[year_of]


def _edge_subset(graph: PaintingGraph, values: np.ndarray, mask: np.ndarray) -> sparse.csc_matrix:
    """The masked edges of `graph`, holding `values`, as a canonical CSC matrix."""
    indptr = np.concatenate(([0], np.cumsum(mask)))[graph.indptr]
    return sparse.csc_matrix((values[mask], graph.src[mask], indptr), shape=(graph.n, graph.n))


def build_implication_network(graph: PaintingGraph, m: np.ndarray, years: np.ndarray,
                              anchor: str = "destination") -> ImplicationNetwork:
    """Apply b = w - m(anchor node) to every edge; keep, drop, or reverse.

    The anchor picks whose threshold judges edge (i -> j): the receiving node j
    (destination, default) or the emitting node i (source). With the graph as
    a sparse matrix G (entry (i, j) for edge i -> j), the network is
    keep(G) + flip(G)^T: the transpose puts each reversed edge in its new
    column, and scipy's sum of two canonical matrices is canonical.
    """
    if anchor not in BALANCE_ANCHORS:
        raise ValueError(f"anchor must be one of {BALANCE_ANCHORS}, got {anchor!r}")
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (graph.n,):
        raise ValueError(f"expected {graph.n} thresholds, got shape {m.shape}")
    years = np.asarray(years, dtype=np.int64)
    if years.shape != (graph.n,):
        raise ValueError(f"expected {graph.n} years, got shape {years.shape}")

    b = graph.weight - (np.repeat(m, np.diff(graph.indptr)) if anchor == "destination"
                        else m[graph.src])
    flip = _edge_subset(graph, b, b < 0.0)
    np.negative(flip.data, out=flip.data)
    keep = _edge_subset(graph, b, b > 0.0)
    del b
    kept, reversed_ = keep.nnz, flip.nnz
    cin = keep + flip.T.tocsc()
    del keep, flip
    if cin.nnz != kept + reversed_:
        # an opposed pair i -> j, j -> i with one edge kept and one reversed
        raise ValueError("edges must be strictly sorted by (dst, src): one CIN edge made twice")
    return ImplicationNetwork(
        n=graph.n,
        indptr=cin.indptr,
        src=cin.indices,
        weight=cin.data,
        prior=np.repeat(years, np.diff(cin.indptr)) < years[cin.indices],
        kept_count=kept,
        reversed_count=reversed_,
        dropped_count=graph.n_edges - cin.nnz,
    )


def empty_network(n: int) -> ImplicationNetwork:
    """Edgeless network for corpora whose similarity graph has no edges."""
    return ImplicationNetwork(n=n, indptr=np.zeros(n + 1, dtype=np.int64),
                              src=np.empty(0, dtype=np.int32), weight=np.empty(0),
                              prior=np.empty(0, dtype=bool),
                              kept_count=0, reversed_count=0, dropped_count=0)


def write_cin_csv(net: ImplicationNetwork, ids: Sequence[str], path: str | Path) -> None:
    """Edge dump `src_id,dst_id,weight,label` in canonical (dst, src) order."""
    _write_edge_rows(path, ("src_id", "dst_id", "weight", "label"), ids, net,
                     label=((LABEL_SUBSEQUENT, LABEL_PRIOR), net.prior))
