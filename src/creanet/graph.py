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
    to their destination's place in canonical (dst, src) order, inside room
    reserved up front, so no list of slabs is kept.
    """
    if aspect not in corpus.features:
        raise ValueError(f"aspect '{aspect}' not found; corpus has {list(corpus.aspects)}")
    feats = corpus.features[aspect].vectors
    years = corpus.years
    n = corpus.n

    order, starts, ends = _year_groups(years)
    column = np.empty(n, dtype=np.int64)
    window = params.temporal_window_k if params.temporal_prior == "window" else n
    # Destination j gets room for min(k, its candidate count) edges from room[j]
    # on; weights that underflow leave some of it empty.
    sizes = np.empty(n, dtype=np.int64)
    sizes[order] = np.repeat(np.minimum(starts, min(params.k, window)), ends - starts)
    room = np.concatenate(([0], np.cumsum(sizes)))
    count = np.zeros(n, dtype=np.int64)
    src = np.empty(room[-1], dtype=np.int32)
    weight = np.empty(room[-1], dtype=np.float64)

    for g in range(1, starts.size):  # the earliest year group has no prior candidates
        gs, ge = int(starts[g]), int(ends[g])
        cand = _window_candidates(order, starts, ends, g, window) if gs > window else order[:gs]
        column[cand] = np.arange(cand.size)
        for cs in range(gs, ge, _DST_CHUNK):
            rows = order[cs:min(cs + _DST_CHUNK, ge)]
            block = kernel_block(feats[rows], feats[cand], params.sigma)
            r, picks, s, w = _slab_top_k(block, cand, column, params.k)
            dst = rows[r]
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
