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

from .config import TEMPORAL_PRIORS
from .corpus import Corpus
from .similarity import SimilarityParams, kernel_block

# Destination rows are scored against their candidate set in slabs of this many
# rows to bound peak memory at roughly 256 * n * 8 bytes.
_DST_CHUNK = 256

# The CSV edge writers format this many rows per write, bounding the Python
# strings alive at once.
_CSV_CHUNK = 1 << 16


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


@dataclass(frozen=True)
class PaintingGraph:
    """Edge list (src -> dst, weight) in canonical (dst, src) order.

    Invariants: no self edges, every weight > 0, at most one edge per ordered
    pair. By-destination traversal is the contiguous canonical order; by-source
    traversal via argsort on `src`.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        src = np.ascontiguousarray(self.src, dtype=np.int64)
        dst = np.ascontiguousarray(self.dst, dtype=np.int64)
        weight = np.ascontiguousarray(self.weight, dtype=np.float64)
        for name, arr in (("src", src), ("dst", dst), ("weight", weight)):
            if arr.ndim != 1 or arr.shape[0] != src.shape[0]:
                raise ValueError(f"{name} must be 1-D and equal-length")
            arr.setflags(write=False)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "weight", weight)
        if self.n < 1:
            raise ValueError("graph needs at least one node")
        if src.size:
            if src.min() < 0 or src.max() >= self.n or dst.min() < 0 or dst.max() >= self.n:
                raise ValueError("edge endpoints out of range")
            if np.any(src == dst):
                raise ValueError("self edges are not allowed")
            if not (np.all(np.isfinite(weight)) and weight.min() > 0.0):
                raise ValueError("edge weights must be positive and finite")
            key = dst * np.int64(self.n) + src
            if np.any(np.diff(key) <= 0):
                raise ValueError("edges must be strictly sorted by (dst, src)")

    @property
    def n_edges(self) -> int:
        return int(self.src.size)


def _year_groups(years: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable year-ascending order plus [start, end) bounds of each year group."""
    order = np.argsort(years, kind="stable")
    sorted_years = years[order]
    change = np.flatnonzero(np.diff(sorted_years)) + 1
    starts = np.concatenate(([0], change))
    ends = np.concatenate((change, [years.size]))
    return order, starts, ends


def _window_candidates(order: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                       group: int, budget: int) -> np.ndarray:
    """The `budget` latest strictly-prior artifacts of year-group `group`.

    Prior artifacts ranked by year descending; within a year, earlier manifest
    rows are admitted first. Stable year sort makes each group slice
    manifest-ascending, so the group the cut falls in contributes its slice
    prefix and every later prior group its whole slice.
    """
    gs = int(starts[group])
    if budget >= gs:
        return order[:gs]
    cut = gs - budget
    p = int(np.searchsorted(starts, cut, side="right")) - 1
    return np.concatenate((order[starts[p]:starts[p] + ends[p] - cut], order[ends[p]:gs]))


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


def _slab_top_k(block: np.ndarray, cand: np.ndarray, column: np.ndarray,
                k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Top-K picks of every row of one kernel slab, each row's picks sorted by source.

    One `argpartition` selects the k largest weights of every row at once. A
    row keeps that selection when exactly k of its weights reach its k-th
    weight: then no tie straddles the cut, and since there are more than k
    non-negative weights, the k-th one is positive. The other rows (ties at
    the cut, underflowed zeros) go through `_select_top_k` one by one.
    `column` maps an artifact index to its column in `block`. Returns (row,
    count, src, weight): the slab rows that have picks, how many each has,
    and the picks of those rows one after another.
    """
    r, c = block.shape
    if c > k:
        top = np.argpartition(block, c - k, axis=1)[:, c - k:]
        kth = block[np.arange(r), top[:, 0]]
        fast = np.count_nonzero(block >= kth[:, None], axis=1) == k
    else:
        top = np.broadcast_to(np.arange(c), (r, c))
        fast = block.min(axis=1) > 0.0
    fast_rows = np.flatnonzero(fast)
    fast_src = np.sort(cand[top[fast_rows]], axis=1)
    rows = [fast_rows]
    counts = [np.full(fast_rows.size, top.shape[1], dtype=np.int64)]
    src_parts = [fast_src.ravel()]
    w_parts = [block[fast_rows[:, None], column[fast_src]].ravel()]
    for i in np.flatnonzero(~fast):
        w = block[i]
        keep = w > 0.0
        wk = w[keep]
        ck = cand[keep]
        sel = _select_top_k(wk, ck, k)
        sel = sel[np.argsort(ck[sel])]
        rows.append(np.array([i]))
        counts.append(np.array([sel.size]))
        src_parts.append(ck[sel])
        w_parts.append(wk[sel])
    return (np.concatenate(rows), np.concatenate(counts),
            np.concatenate(src_parts), np.concatenate(w_parts))


def build_graph(corpus: Corpus, aspect: str, params: GraphParams) -> PaintingGraph:
    """Connect every artifact to its strictly earlier candidates, keep top-K incoming.

    Candidate sources for artifact j are all artifacts dated strictly before j
    (optionally restricted to the `temporal_window_k` latest ones). The kernel
    weight is computed for every candidate and the K largest are kept; weights
    that underflow to zero are dropped. Each slab's picks are written straight
    to their destination's place in canonical (dst, src) order.
    """
    if aspect not in corpus.features:
        raise ValueError(f"aspect '{aspect}' not found; corpus has {list(corpus.aspects)}")
    feats = corpus.features[aspect].vectors
    years = corpus.years
    n = corpus.n

    order, starts, ends = _year_groups(years)
    column = np.empty(n, dtype=np.int64)
    slabs: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    for g in range(starts.size):
        gs, ge = int(starts[g]), int(ends[g])
        if gs == 0:
            continue  # earliest year group: no prior candidates
        if params.temporal_prior == "window" and gs > params.temporal_window_k:
            cand = _window_candidates(order, starts, ends, g, params.temporal_window_k)
        else:
            cand = order[:gs]
        column[cand] = np.arange(cand.size)
        for cs in range(gs, ge, _DST_CHUNK):
            rows = order[cs:min(cs + _DST_CHUNK, ge)]
            block = kernel_block(feats[rows], feats[cand], params.sigma)
            r, count, src, w = _slab_top_k(block, cand, column, params.k)
            slabs.append((rows[r], count, src, w))

    # Destination j's edges occupy [indptr[j], indptr[j + 1]), already source-sorted.
    in_degree = np.zeros(n, dtype=np.int64)
    for dst, count, _, _ in slabs:
        in_degree[dst] = count
    indptr = np.concatenate(([0], np.cumsum(in_degree)))
    src = np.empty(indptr[-1], dtype=np.int64)
    weight = np.empty(indptr[-1], dtype=np.float64)
    for dst, count, s, w in slabs:
        first = np.cumsum(count) - count
        pos = np.repeat(indptr[dst] - first, count) + np.arange(s.size)
        src[pos] = s
        weight[pos] = w
    dst = np.repeat(np.arange(n, dtype=np.int64), in_degree)
    return PaintingGraph(n=n, src=src, dst=dst, weight=weight)


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


def _write_edge_rows(path: str | Path, header: Sequence[str], ids: Sequence[str],
                     src: np.ndarray, dst: np.ndarray, weight: np.ndarray,
                     label: tuple[Sequence[str], np.ndarray] | None = None) -> None:
    """Rows `src_id,dst_id,weight[,label]`, the bytes one `csv.writer` row per edge gives.

    Ids are formatted once, weights with `repr`, and rows a chunk of columns
    at a time. `label` pairs label names with each edge's index into them.
    """
    id_fields = _csv_fields(ids)
    if label is not None:
        names = np.asarray(label[0], dtype=object)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, src.size, _CSV_CHUNK):
            hi = lo + _CSV_CHUNK
            columns = [id_fields[src[lo:hi]].tolist(), id_fields[dst[lo:hi]].tolist(),
                       map(repr, weight[lo:hi].tolist())]
            if label is not None:
                columns.append(names[label[1][lo:hi].astype(np.intp)].tolist())
            fh.write("\r\n".join(map(",".join, zip(*columns))))
            fh.write("\r\n")


def write_graph_csv(graph: PaintingGraph, ids: Sequence[str], path: str | Path) -> None:
    """Edge dump `src_id,dst_id,weight` in canonical (dst, src) order."""
    _write_edge_rows(path, ("src_id", "dst_id", "weight"), ids, graph.src, graph.dst, graph.weight)
