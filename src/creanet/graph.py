"""Temporally-directed similarity graph with top-K pruned incoming edges.

Edges point strictly from earlier to later artifacts; artifacts sharing a year
are never connected, so the graph is a DAG and antisymmetric by construction.
Each node keeps at most the K largest-weight incoming edges, weight ties broken
by the smaller source index so rebuilds are bit-identical.
"""

from __future__ import annotations

import csv
import io
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .config import RunConfig
from .corpus import Corpus
from .similarity import check_sigma, distance_weights, gathered_pair_weights, pair_weights

# Every stage sizes its scratch in bytes, not rows, so that no temporary grows
# with the corpus. A ranking slab takes as many consecutive destinations as
# keep its block of candidate values, and so its partition, under
# `_SLAB_BYTES`: at least one, whatever its width.
_SLAB_BYTES = 1 << 21

# A slab's ranking product is taken in panels of this many block entries, as
# many columns as fit beside its rows. At dim 16, OpenBLAS runs a product this
# small on the calling thread, so its own thread pool, which spins between
# calls, never wakes during a build.
_GEMM_ENTRIES = 1 << 14

# The CSV edge writers format rows in batches of `_CSV_BYTES`, a row holding
# about `_CSV_ROW_BYTES` of Python strings and lists while its batch is alive.
_CSV_BYTES = 1 << 21
_CSV_ROW_BYTES = 256

# Per-edge checks and balancing work on chunks of edges whose float64
# temporaries stay under `_EDGE_BYTES`.
_EDGE_BYTES = 1 << 19


def _edge_chunks(indptr: np.ndarray):
    """(e0, e1, j0, bounds) for each chunk of edges [e0, e1) of the store with this `indptr`.

    A chunk holds `_EDGE_BYTES // 8` edges, the last one fewer. The
    destinations j0, j0 + 1, ... own it: j0 + i owns its edges
    [e0 + bounds[i], e0 + bounds[i + 1]).
    """
    n_edges, size = int(indptr[-1]), max(1, _EDGE_BYTES // 8)
    for e0 in range(0, n_edges, size):
        e1 = min(e0 + size, n_edges)
        j0 = int(np.searchsorted(indptr, e0, side="right")) - 1
        j1 = int(np.searchsorted(indptr, e1, side="left"))
        yield e0, e1, j0, np.clip(indptr[j0:j1 + 1], e0, e1) - e0


def _reverse_in_chunks(values: np.ndarray) -> None:
    """Reverse the 1-D `values` in place, a chunk of `_edge_chunks`' size from each end at a time."""
    size, step = values.size, max(1, _EDGE_BYTES // 8)
    for i0 in range(0, size // 2, step):
        i1 = min(i0 + step, size // 2)
        head = values[i0:i1].copy()
        values[i0:i1] = values[size - i1:size - i0][::-1]
        values[size - i1:size - i0] = head[::-1]


@dataclass(frozen=True)
class PaintingGraph:
    """Edges (src -> dst, weight) stored by destination: dst j owns [indptr[j], indptr[j + 1]).

    Invariants: no self edges, every weight > 0, at most one edge per ordered
    pair, sources strictly increasing within each destination, so the edges
    are in canonical (dst, src) order. `src` is int32, which caps n below 2**31.

    An array that is already contiguous in its field's dtype (int64 `indptr`,
    int32 `src`, float64 `weight`) is held as it is, not copied, and made
    read-only once every check has passed: building a graph freezes the
    caller's arrays, and a rejected input leaves them as they were.
    """

    n: int
    indptr: np.ndarray
    src: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        n = self.n
        if not 1 <= n < 2 ** 31:
            raise ValueError(f"n must be in [1, 2**31), got {n!r}")
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        src = np.asarray(self.src)
        if indptr.shape != (n + 1,) or src.ndim != 1:
            raise ValueError("indptr must have n + 1 entries and src must be 1-D")
        if indptr[0] != 0 or indptr[-1] != src.size or np.any(indptr[1:] < indptr[:-1]):
            raise ValueError("indptr must rise from 0 to the edge count")
        if src.size and (src.min() < 0 or src.max() >= n):
            raise ValueError("edge endpoints out of range")
        src = np.ascontiguousarray(src, dtype=np.int32)
        weight = np.ascontiguousarray(self.weight, dtype=np.float64)
        if weight.shape != src.shape:
            raise ValueError("weight must be 1-D and as long as src")
        # Each check reads the edges a chunk at a time, so no temporary spans them; the
        # checks run one after another, so the first that fails names the fault.
        for e0, e1, j0, bounds in _edge_chunks(indptr):
            dst = np.repeat(np.arange(j0, j0 + bounds.size - 1, dtype=np.int32), np.diff(bounds))
            if np.any(src[e0:e1] == dst):
                raise ValueError("self edges are not allowed")
        if src.size and not (weight.min() > 0.0 and weight.max() < np.inf):  # NaN fails both
            raise ValueError("edge weights must be positive and finite")
        for e0, e1, j0, bounds in _edge_chunks(indptr):
            lo = max(e0, 1)
            falling = src[lo:e1] <= src[lo - 1:e1 - 1]  # the pairs (e - 1, e) for e in [lo, e1)
            starts = indptr[j0:j0 + bounds.size - 1]
            falling[starts[starts >= lo] - lo] = False  # a new column may restart
            if np.any(falling):
                raise ValueError("edges must be strictly sorted by (dst, src)")
        for name, arr in (("indptr", indptr), ("src", src), ("weight", weight)):
            arr.setflags(write=False)  # only once every check has passed
            object.__setattr__(self, name, arr)

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


def _slab_top_k(block: np.ndarray, dest: np.ndarray, c0: int, n_cand: np.ndarray, cols: np.ndarray,
                order: np.ndarray, position: np.ndarray, k: int,
                sigma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Top-K picks of every row of one ranking slab, each row's picks sorted by source.

    Row i is the destination x at year-order position dest[i], with n_cand[i]
    candidates; `cols` holds the year-ordered features, one row per
    dimension, and the squared norms in its last row, and `position` maps an
    artifact to its year-order position. block[i, c] is d^2 - |x|^2 between x
    and the artifact at position c0 + c, or +inf where that artifact is not
    one of x's candidates. One `argpartition` takes each row's k smallest
    values, and only those picks are weighed, a feature dimension at a time,
    so that no temporary outgrows the block. Returns (row, count, src,
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
    sx = cols[dim, dest]
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
        del part  # as large as the block; free it before the picks are weighed
        w = gathered_pair_weights(cols[:dim], dest[big, None], position[top], sigma)
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
        bound = block[slow]
        bound += sx[slow, None]
        bound -= slack[slow, None]
        with np.errstate(over="ignore"):
            cap = distance_weights(bound, sigma)
        del bound
        band_row, band_col = np.nonzero((cap >= floor[slow, None]) & (cap > 0.0))
        del cap
        band_w = gathered_pair_weights(cols[:dim], dest[slow[band_row]], band_col + c0, sigma)
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


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges [starts[i], starts[i] + lengths[i]) one after another."""
    ends = np.cumsum(lengths)
    return np.repeat(starts - ends + lengths, lengths) + np.arange(lengths.sum())


def _on_two_workers(work: Callable[[Callable[[], int | None]], None], n_tasks: int) -> None:
    """Run `work(claim)` here and, given two tasks and two CPUs, in one helper thread too.

    `claim()` hands out the task numbers 0 .. n_tasks - 1, each once, to
    whichever worker asks first, and None when none are left or a worker has
    failed. The helper is joined before this returns, on every path, so no
    thread outlives the call. An exception of the helper is raised here with
    its own type after this thread's share is done; an exception of this
    thread wins over it.
    """
    lock = threading.Lock()
    tasks = iter(range(n_tasks))
    stop = threading.Event()
    errors: list[BaseException] = []

    def claim() -> int | None:
        with lock:
            return None if stop.is_set() else next(tasks, None)

    def helper() -> None:
        try:
            work(claim)
        except BaseException as exc:  # raised in the calling thread
            errors.append(exc)
            stop.set()

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    thread = None
    if n_tasks >= 2 and cpus >= 2:
        thread = threading.Thread(target=helper, name="creanet-slabs")
        thread.start()
    try:
        work(claim)
    except BaseException:
        stop.set()  # the helper finishes the task it holds and takes no other
        raise
    finally:
        if thread is not None:
            thread.join()
    if errors:
        raise errors[0]


def _plan_slabs(lo: np.ndarray, hi: np.ndarray) -> list[tuple[int, int, int, int]]:
    """Ranking slabs (i0, i1, c0, c1) over rows whose candidates span [lo[i], hi[i]).

    `lo` and `hi` ascend, so a slab of the rows [i0, i1) spans the columns
    [lo[i0], hi[i1 - 1]). Each slab takes as many rows as keep its float64
    block under `_SLAB_BYTES`, and at least one.
    """
    cells = _SLAB_BYTES // 8
    slabs, i0 = [], 0
    while i0 < lo.size:
        c0 = int(lo[i0])
        most = min(lo.size, i0 + max(1, cells // int(hi[i0] - c0)))
        fits = np.arange(1, most - i0 + 1) * (hi[i0:most] - c0) <= cells  # falls once, never rises
        i1 = i0 + max(1, int(np.count_nonzero(fits)))
        slabs.append((i0, i1, c0, int(hi[i1 - 1])))
        i0 = i1
    return slabs


def _top_k(feats: np.ndarray, years: np.ndarray, config: RunConfig, sigma: float,
           listed: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-K incoming edges of the artifacts `listed` marks (all when None); the others get none.

    K and the temporal prior come from `config`, the kernel bandwidth is
    `sigma`. Returns (indptr, src, weight): artifact j owns [indptr[j],
    indptr[j + 1]), its sources ascending. Destinations are ranked in year
    order in slabs that `_plan_slabs` sizes to `_SLAB_BYTES`, which may span
    year groups, with one matrix product against a year-ordered copy of the
    features each, taken in panels of `_GEMM_ENTRIES` entries; only the kept
    pairs are weighed, as `pair_weights` would, so a weight depends on its
    pair alone and a row's edges do not depend on which rows share its slab.
    Two workers, this thread and one helper thread (see `_on_two_workers`),
    take slabs as they come, each into its own block buffer, and write each
    slab's picks straight to their rows' places, inside room reserved up
    front; a row belongs to one slab, so no place is written twice. numpy releases the interpreter lock in the
    products, partitions, gathers and ufuncs that take the time.
    """
    check_sigma(sigma)
    n, dim = feats.shape
    order, starts, ends = _year_groups(years)
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    window = config.temporal_window_k if config.temporal_prior == "window" else n
    a_lo, a_hi, b_lo = _candidate_ranges(starts, ends, window)
    n_cand = a_hi - a_lo + starts - b_lo
    group = np.repeat(np.arange(starts.size), ends - starts)  # year group of each position
    # The year-ordered features one row per dimension, then their squared
    # norms: column c is [y, |y|^2] for the artifact at position c.
    cols = np.empty((dim + 1, n))
    np.take(feats.T, order, axis=1, out=cols[:dim], mode="clip")  # "clip": no output buffer
    cols[dim] = np.einsum("ij,ij->j", cols[:dim], cols[:dim])
    # A listed artifact j gets room for min(k, its candidate count) edges from
    # room[j] on; weights that underflow leave some of it empty.
    listed = np.ones(n, dtype=bool) if listed is None else listed
    sizes = np.empty(n, dtype=np.int64)
    sizes[order] = np.where(listed[order], np.minimum(n_cand, config.k)[group], 0)
    room = np.concatenate(([0], np.cumsum(sizes)))
    count = np.zeros(n, dtype=np.int64)
    src = np.empty(room[-1], dtype=np.int32)
    weight = np.empty(room[-1], dtype=np.float64)

    # Slab t holds the rows dest[i0:i1], ranked against the positions [c0, c1)
    # their candidates span.
    dest = np.flatnonzero(listed[order])
    dest = dest[dest >= ends[0]]  # the earliest year group has no candidates
    slabs = _plan_slabs(a_lo[group[dest]], starts[group[dest]])
    buffer_size = max(((i1 - i0) * (c1 - c0) for i0, i1, c0, c1 in slabs), default=0)

    def work(claim: Callable[[], int | None]) -> None:
        buffer = np.empty(buffer_size)  # every block of this worker, so its pages are mapped once
        for t in iter(claim, None):
            i0, i1, c0, c1 = slabs[t]
            p = dest[i0:i1]
            x = cols[:, p].T.copy()
            x[:, :dim] *= -2.0
            x[:, dim] = 1.0
            block = buffer[:p.size * (c1 - c0)].reshape(p.size, c1 - c0)
            panel = max(1, _GEMM_ENTRIES // p.size)
            for b0 in range(c0, c1, panel):
                b1 = min(b0 + panel, c1)
                # [-2x, 1] . [y, |y|^2] = d^2 - |x|^2
                np.matmul(x, cols[:, b0:b1], out=block[:, b0 - c0:b1 - c0])
            g = group[p]
            cut = np.flatnonzero(np.diff(g)) + 1
            for h, r0, r1 in zip(g[np.r_[0, cut]], np.r_[0, cut], np.r_[cut, p.size]):
                # mask the non-candidates of the rows of year group h
                block[r0:r1, :a_lo[h] - c0] = np.inf
                block[r0:r1, a_hi[h] - c0:b_lo[h] - c0] = np.inf
                block[r0:r1, starts[h] - c0:] = np.inf
            r, picks, s, w = _slab_top_k(block, p, c0, n_cand[g], cols, order, position,
                                         config.k, sigma)
            dst = order[p[r]]
            pos = _ranges(room[dst], picks)
            src[pos] = s
            weight[pos] = w
            count[dst] = picks

    _on_two_workers(work, len(slabs))
    indptr = np.concatenate(([0], np.cumsum(count)))
    if indptr[-1] < room[-1]:
        filled = np.arange(room[-1]) < np.repeat(room[:-1] + count, sizes)
        src, weight = src[filled], weight[filled]
    return indptr, src, weight


def build_graph(corpus: Corpus, aspect: str, config: RunConfig, sigma: float) -> PaintingGraph:
    """Connect every artifact to its strictly earlier candidates, keep top-K incoming.

    Candidate sources for artifact j are all artifacts dated strictly before j
    (restricted to the `temporal_window_k` latest ones under `config`'s
    window prior). The `config.k` candidates of largest kernel weight at
    bandwidth `sigma` are kept; weights that underflow to zero are dropped.
    """
    if aspect not in corpus.features:
        raise ValueError(f"aspect '{aspect}' not found; corpus has {list(corpus.aspects)}")
    feats = np.asarray(corpus.features[aspect].vectors, dtype=np.float64)
    indptr, src, weight = _top_k(feats, corpus.years, config, sigma)
    return PaintingGraph(n=corpus.n, indptr=indptr, src=src, weight=weight)


def edge_ranks(graph: PaintingGraph) -> np.ndarray:
    """Each destination's edges from heaviest to lightest, ties to the smaller source.

    Entry indptr[j] + r is the offset in destination j's run of its r-th
    edge in that order, the order `update_graph` cuts rows by, in the
    smallest unsigned integer type that holds every offset.
    Destinations are ranked a slab at a time, each as one row of a sort
    padded to the longest run, as many rows as keep a slab's sort keys under
    `_SLAB_BYTES`; rows with equal weights are sorted again stably, which
    puts the smaller source first, as sources ascend in a run.
    """
    count = np.diff(graph.indptr)
    width = int(count.max(initial=0))
    ranks = np.empty(graph.n_edges, dtype=np.min_scalar_type(max(width - 1, 0)))
    step = max(1, _SLAB_BYTES // (8 * max(width, 1)))
    for j0 in range(0, graph.n, step):
        j1 = min(j0 + step, graph.n)
        e0, e1 = graph.indptr[j0], graph.indptr[j1]
        row = np.repeat(np.arange(j1 - j0), count[j0:j1])
        col = np.arange(e1 - e0) - (graph.indptr[j0:j1] - e0)[row]
        key = np.full((j1 - j0, width), np.inf)
        key[row, col] = -graph.weight[e0:e1]
        order = np.argsort(key, axis=1)
        ranked = np.take_along_axis(key, order, axis=1)
        tied = ((ranked[:, 1:] == ranked[:, :-1]) & (ranked[:, 1:] < np.inf)).any(axis=1)
        order[tied] = np.argsort(key[tied], axis=1, kind="stable")
        ranks[e0:e1] = order[row, col]
    return ranks


def _count_below(values: np.ndarray, lo: np.ndarray, hi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """How many of each ascending run values[lo[i]:hi[i]] are below x[i], by bisection."""
    start = lo
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        below = (lo < hi) & (values[np.minimum(mid, values.size - 1)] < x)
        lo, hi = np.where(below, mid + 1, lo), np.where(below | (lo == hi), hi, mid)
    return lo - start


def update_graph(graph: PaintingGraph, ranks: np.ndarray, corpus: Corpus, aspect: str,
                 config: RunConfig, sigma: float, years: np.ndarray) -> PaintingGraph:
    """`build_graph` of `corpus` re-dated to `years`, derived from its build on `corpus`.

    `graph` is `build_graph(corpus, aspect, config, sigma)` and `ranks` its
    `edge_ranks`. Let M be the artifacts whose year changes. A row keeps its
    edges unless a source of one of them leaves its candidate set, so:

    - M's rows, and each row with an edge from an artifact of M no longer
      earlier than it, are rebuilt on `years` through the slab path;
    - every other row takes the heaviest K (ties to the smaller source) of
      its edges and the artifacts of M that enter its candidate set, those
      whose new year is before its year and whose old year is not; weights
      that underflow are dropped.

    Under the window prior, candidate sets depend on rank in year order, so
    every row is rebuilt.
    """
    feats = np.asarray(corpus.features[aspect].vectors, dtype=np.float64)
    n, k = corpus.n, config.k
    old = corpus.years
    years = np.asarray(years, dtype=np.int64)
    if years.shape != old.shape:
        raise ValueError(f"expected {n} years, got shape {years.shape}")
    if config.temporal_prior != "none":
        indptr, src, weight = _top_k(feats, years, config, sigma)
        return PaintingGraph(n=n, indptr=indptr, src=src, weight=weight)
    moved = np.flatnonzero(years != old)
    count = np.diff(graph.indptr)
    rebuild = np.zeros(n, dtype=bool)
    later = moved[years[moved] > old[moved]]  # only these can leave a candidate set
    if later.size:
        rebuild[later] = True
        out = np.flatnonzero(rebuild[graph.src])  # edges from an artifact moved later
        out_dst = np.searchsorted(graph.indptr, out, side="right") - 1
        rebuild[out_dst[years[graph.src[out]] >= years[out_dst]]] = True
    rebuild[moved] = True

    # An artifact moved earlier enters the candidate sets of the rows dated
    # after its new year and up to its old year, a range in year order. It
    # can only enter a full row if it weighs at least the row's lightest edge.
    lightest = np.zeros(n)
    full = np.flatnonzero(count == k)
    lightest[full] = graph.weight[graph.indptr[full] + ranks[graph.indptr[full + 1] - 1]]
    year_order = np.argsort(old, kind="stable")
    sorted_years = old[year_order]
    sorted_feats = feats[year_order]
    e_row, e_src, e_w = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for m in moved[years[moved] < old[moved]].tolist():
        lo, hi = np.searchsorted(sorted_years, [years[m], old[m]], side="right")
        rows = year_order[lo:hi]
        w = pair_weights(sorted_feats[lo:hi], feats[m], sigma)
        keep = (w > 0.0) & (w >= lightest[rows]) & ~rebuild[rows]
        e_row.append(rows[keep])
        e_src.append(np.full(int(keep.sum()), m))
        e_w.append(w[keep])
    e_row, e_src, e_w = np.concatenate(e_row), np.concatenate(e_src), np.concatenate(e_w)

    # A row with c edges and e entrants keeps its c - t heaviest edges,
    # t = min(c, e): when there are any, t = e, so fewer than c - t + e = c <= k
    # others outrank each. Its t lightest edges and the entrants contest the
    # k - (c - t) places left, heaviest first, ties to the smaller source.
    rows_in, n_in = np.unique(e_row, return_counts=True)
    t = np.minimum(count[rows_in], n_in)
    tail = graph.indptr[np.repeat(rows_in, t)] + ranks[_ranges(graph.indptr[rows_in + 1] - t, t)]
    c_row = np.concatenate((np.repeat(rows_in, t), e_row))
    c_src = np.concatenate((graph.src[tail], e_src))
    c_w = np.concatenate((graph.weight[tail], e_w))
    c_edge = np.concatenate((tail, np.full(e_row.size, -1)))  # the old edge, or -1 if entering
    c = np.lexsort((c_src, -c_w, c_row))
    places = np.repeat(k - count[rows_in] + t, t + n_in)
    won = np.arange(c.size) - np.repeat(np.cumsum(t + n_in) - t - n_in, t + n_in) < places
    c_row, c_src, c_w, c_edge = c_row[c], c_src[c], c_w[c], c_edge[c]
    lost = ~won & (c_edge >= 0)
    entered = won & (c_edge < 0)

    r_indptr, r_src, r_w = _top_k(feats, years, config, sigma, rebuild)
    new_count = (count - np.bincount(c_row[lost], minlength=n)
                 + np.bincount(c_row[entered], minlength=n))
    new_count[rebuild] = np.diff(r_indptr)[rebuild]
    indptr = np.concatenate(([0], np.cumsum(new_count)))

    # Splice: the staying old edges keep their order, and an added edge goes
    # to its row's start plus the added and staying edges of its row with
    # smaller sources.
    a_row = np.concatenate((np.repeat(np.arange(n), np.diff(r_indptr)), c_row[entered]))
    a_src = np.concatenate((r_src, c_src[entered]))
    a_w = np.concatenate((r_w, c_w[entered]))
    a = np.lexsort((a_src, a_row))
    a_row, a_src, a_w = a_row[a], a_src[a], a_w[a]
    pos = indptr[a_row] + np.arange(a.size) - np.searchsorted(a_row, a_row)
    merged = ~rebuild[a_row]
    m_row, m_src = a_row[merged], a_src[merged]
    dropped_key = np.sort(c_row[lost] * n + c_src[lost])
    pos[merged] += (_count_below(graph.src, graph.indptr[m_row], graph.indptr[m_row + 1], m_src)
                    - np.searchsorted(dropped_key, m_row * n + m_src)
                    + np.searchsorted(dropped_key, m_row * n))
    stay = np.repeat(~rebuild, count)
    stay[c_edge[lost]] = False
    added = np.zeros(indptr[-1], dtype=bool)
    added[pos] = True
    src = np.empty(indptr[-1], dtype=np.int32)
    weight = np.empty(indptr[-1])
    src[pos], src[~added] = a_src, graph.src[stay]
    weight[pos], weight[~added] = a_w, graph.weight[stay]
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


def _write_edge_rows(path: str | Path, header: Sequence[str], ids: Sequence[str], indptr, src,
                     weight, labels: tuple[str, str] | None = None) -> None:
    """Rows `src_id,dst_id,weight[,label]` of an edge store, one `csv.writer` row per edge.

    Ids are formatted once, weights with `repr`, and rows a batch of about
    `_CSV_BYTES` at a time, each batch's destinations read off `indptr`. With
    `labels`, a weight's sign picks its label (labels[1] when negative) and
    its magnitude is written.
    """
    id_fields = _csv_fields(ids)
    names = np.asarray(labels or (), dtype=object)
    step = max(1, _CSV_BYTES // _CSV_ROW_BYTES)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        for lo in range(0, src.size, step):
            hi = min(lo + step, src.size)
            dst = np.searchsorted(indptr, np.arange(lo, hi), side="right") - 1
            w = weight[lo:hi]
            columns = [id_fields[src[lo:hi]].tolist(), id_fields[dst].tolist(),
                       map(repr, np.abs(w).tolist())]
            if labels is not None:
                columns.append(names[(w < 0.0).astype(np.intp)].tolist())
            fh.write("\r\n".join(map(",".join, zip(*columns))))
            fh.write("\r\n")


def write_graph_csv(graph: PaintingGraph, ids: Sequence[str], path: str | Path) -> None:
    """Edge dump `src_id,dst_id,weight` in canonical (dst, src) order."""
    _write_edge_rows(path, ("src_id", "dst_id", "weight"), ids, graph.indptr, graph.src, graph.weight)
