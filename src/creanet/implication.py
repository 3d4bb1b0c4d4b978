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

from .config import BALANCE_ANCHORS, BALANCING_MODES
from .graph import PaintingGraph, _write_edge_rows

LABEL_PRIOR = "prior"
LABEL_SUBSEQUENT = "subsequent"


@dataclass(frozen=True)
class BalanceSpec:
    """Threshold policy: which percentile, computed globally or local-in-time."""

    mode: str = "global"
    percentile_p: float = 50.0
    local_window_years: int = 50
    min_local_sample: int = 20

    def __post_init__(self):
        if self.mode not in BALANCING_MODES:
            raise ValueError(f"mode must be one of {BALANCING_MODES}, got {self.mode!r}")
        if not 0.0 < self.percentile_p <= 100.0:
            raise ValueError(f"percentile_p must be in (0, 100], got {self.percentile_p!r}")
        if not (isinstance(self.local_window_years, int) and self.local_window_years >= 1):
            raise ValueError(f"local_window_years must be a positive integer, got {self.local_window_years!r}")
        if not (isinstance(self.min_local_sample, int) and self.min_local_sample >= 1):
            raise ValueError(f"min_local_sample must be a positive integer, got {self.min_local_sample!r}")


@dataclass(frozen=True)
class ImplicationNetwork:
    """Non-negative digraph after balancing, edges in canonical (dst, src) order.

    `prior[e]` is True iff edge e points from a later to an earlier artifact.
    kept/reversed/dropped counts partition the originating graph's edges.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    prior: np.ndarray
    kept_count: int
    reversed_count: int
    dropped_count: int

    def __post_init__(self):
        src = np.ascontiguousarray(self.src, dtype=np.int64)
        dst = np.ascontiguousarray(self.dst, dtype=np.int64)
        weight = np.ascontiguousarray(self.weight, dtype=np.float64)
        prior = np.ascontiguousarray(self.prior, dtype=bool)
        for name, arr in (("src", src), ("dst", dst), ("weight", weight), ("prior", prior)):
            if arr.ndim != 1 or arr.shape[0] != src.shape[0]:
                raise ValueError(f"{name} must be 1-D and equal-length")
            arr.setflags(write=False)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "prior", prior)
        if src.size:
            if np.any(src == dst):
                raise ValueError("self edges are not allowed")
            if not (np.all(np.isfinite(weight)) and weight.min() > 0.0):
                raise ValueError("edge weights must be positive and finite")
            key = dst * np.int64(self.n) + src
            if np.any(np.diff(key) <= 0):
                raise ValueError("edges must be strictly sorted by (dst, src)")
        if self.kept_count + self.reversed_count != src.size:
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
    ys, yd = year_of[graph.src], year_of[graph.dst]
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


def _counting_order(keys: np.ndarray, n: int) -> np.ndarray:
    """Stable argsort of integer keys in [0, n), by an O(len + n) counting sort.

    scipy's CSR -> CSC conversion buckets a one-row matrix's entries by column
    in their original order, which is exactly a stable counting sort.
    """
    row = sparse.csr_matrix((np.arange(keys.size), keys, [0, keys.size]), shape=(1, n))
    return row.tocsc().data


def _balanced_runs(graph: PaintingGraph, m: np.ndarray,
                   anchor: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Surviving edges as (src, dst, weight, kept count): kept edges, then reversed ones.

    Kept edges keep the graph's canonical order. Reversed edges arrive sorted
    by their new source; a stable counting sort by new destination makes them
    canonical too.
    """
    b = graph.weight - m[graph.dst if anchor == "destination" else graph.src]
    keep = b > 0.0
    flip = np.flatnonzero(b < 0.0)
    flip = flip[_counting_order(graph.src[flip], graph.n)]
    src = np.concatenate((graph.src[keep], graph.dst[flip]))
    dst = np.concatenate((graph.dst[keep], graph.src[flip]))
    weight = np.concatenate((b[keep], -b[flip]))
    return src, dst, weight, int(keep.sum())


def build_implication_network(graph: PaintingGraph, m: np.ndarray, years: np.ndarray,
                              anchor: str = "destination") -> ImplicationNetwork:
    """Apply b = w - m(anchor node) to every edge; keep, drop, or reverse.

    The anchor picks whose threshold judges edge (i -> j): the receiving node j
    (destination, default) or the emitting node i (source).
    """
    if anchor not in BALANCE_ANCHORS:
        raise ValueError(f"anchor must be one of {BALANCE_ANCHORS}, got {anchor!r}")
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (graph.n,):
        raise ValueError(f"expected {graph.n} thresholds, got shape {m.shape}")
    years = np.asarray(years, dtype=np.int64)
    if years.shape != (graph.n,):
        raise ValueError(f"expected {graph.n} years, got shape {years.shape}")

    src, dst, weight, kept = _balanced_runs(graph, m, anchor)
    # Both runs are in canonical order. numpy's stable sort is a timsort, which
    # finds the two runs and merges them in one linear pass.
    order = np.argsort(dst * np.int64(graph.n) + src, kind="stable")
    src = src[order]
    dst = dst[order]
    weight = weight[order]
    return ImplicationNetwork(
        n=graph.n,
        src=src,
        dst=dst,
        weight=weight,
        prior=years[dst] < years[src],
        kept_count=kept,
        reversed_count=src.size - kept,
        dropped_count=graph.n_edges - src.size,
    )


def empty_network(n: int) -> ImplicationNetwork:
    """Edgeless network for corpora whose similarity graph has no edges."""
    empty_i = np.empty(0, dtype=np.int64)
    return ImplicationNetwork(n=n, src=empty_i, dst=empty_i.copy(),
                              weight=np.empty(0, dtype=np.float64),
                              prior=np.empty(0, dtype=bool),
                              kept_count=0, reversed_count=0, dropped_count=0)


def write_cin_csv(net: ImplicationNetwork, ids: Sequence[str], path: str | Path) -> None:
    """Edge dump `src_id,dst_id,weight,label` in canonical (dst, src) order."""
    _write_edge_rows(path, ("src_id", "dst_id", "weight", "label"), ids, net.src, net.dst,
                     net.weight, label=((LABEL_SUBSEQUENT, LABEL_PRIOR), net.prior))
