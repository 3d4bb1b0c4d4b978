"""Temporally-directed similarity graph with top-K pruned incoming edges.

Edges point strictly from earlier to later artifacts; artifacts sharing a year
are never connected, so the graph is a DAG and antisymmetric by construction.
Each node keeps at most the K largest-weight incoming edges, weight ties broken
by the smaller source index so rebuilds are bit-identical.
"""

from __future__ import annotations

import csv
import ctypes
import io
import mmap
import os
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from ._floatrepr import PAD, repr_bytes
from .config import RunConfig
from .corpus import Corpus
from .similarity import check_sigma, distance_weights, pair_weights

# Every stage sizes its scratch in bytes, not rows, so that no temporary grows
# with the corpus. A ranking slab takes as many consecutive destinations as
# keep its block of candidate values, and so its partition, under
# `_SLAB_BYTES`: at least one, whatever its width.
_SLAB_BYTES = 1 << 21

# A slab weighs its picks, and cuts its rows that need an exact cut, in
# groups of rows whose scratch stays under `_SLAB_BYTES`, at about
# `_PICK_BYTES` a pick or a candidate cut exactly: the pick's weight, the
# index gathers and float64 temporaries of `pair_weights`, and the bound,
# cap and band arrays of the exact cut.
_PICK_BYTES = 80

# A slab's ranking product is taken in panels of this many block entries, as
# many columns as fit beside its rows. At dim 16, OpenBLAS runs a product this
# small on the calling thread, so its own thread pool, which spins between
# calls, never wakes during a build.
_GEMM_ENTRIES = 1 << 14

# The CSV edge writers lay rows out as numpy bytes in batches of `_CSV_BYTES`.
# While its batch is alive, a row with ids of a few characters takes about
# `_CSV_ROW_BYTES`: its padded bytes, their mask, the bytes kept and the
# weight formatter's scratch. Longer ids widen every row.
_CSV_BYTES = 1 << 21
_CSV_ROW_BYTES = 320

# Per-edge checks and balancing work on chunks of edges whose float64
# temporaries stay under `_EDGE_BYTES`.
_EDGE_BYTES = 1 << 19

# Spent memory goes back to the system in aligned blocks of `_RELEASE_BYTES`:
# a multiple of every Linux page size, and the size of a transparent huge page
# on x86-64. A huge page is then dropped whole, never split, and a later write
# into the block faults in one huge page, not 512 small ones.
_RELEASE_BYTES = 1 << 21


def _chunk_size() -> int:
    """Edges, or per-edge values, in one chunk: `_EDGE_BYTES // 8`, and at least one."""
    return max(1, _EDGE_BYTES // 8)


def _edge_chunks(indptr: np.ndarray, size: int | None = None):
    """(e0, e1, j0, bounds) for each chunk of edges [e0, e1) of the store with this `indptr`.

    A chunk holds `size` edges, by default `_chunk_size()`, the last one fewer. The
    destinations j0, j0 + 1, ... own it: j0 + i owns its edges
    [e0 + bounds[i], e0 + bounds[i + 1]).
    """
    n_edges, size = int(indptr[-1]), size or _chunk_size()
    for e0 in range(0, n_edges, size):
        e1 = min(e0 + size, n_edges)
        j0 = int(np.searchsorted(indptr, e0, side="right")) - 1
        j1 = int(np.searchsorted(indptr, e1, side="left"))
        yield e0, e1, j0, np.clip(indptr[j0:j1 + 1], e0, e1) - e0


def _libc_madvise() -> Callable[[int, int, int], int] | None:
    """libc's `madvise(address, length, advice)` on Linux, or None where it cannot be called.

    Only Linux is used: there a page that `MADV_DONTNEED` drops reads back as
    zeros, or as its file's contents for a map of a file.
    """
    if not sys.platform.startswith("linux"):
        return None
    try:
        madvise = ctypes.CDLL(None, use_errno=True).madvise
    except (OSError, AttributeError):
        return None
    madvise.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
    madvise.restype = ctypes.c_int
    return madvise


_MADVISE = _libc_madvise()


def _release(values: np.ndarray, start: int, stop: int) -> None:
    """Hand the memory that lies wholly inside `values[start:stop]` back to the system.

    For a caller whose values there are spent. The memory goes back in
    aligned `_RELEASE_BYTES` blocks: none is resident until it is written
    again, and a read before that gets zeros. The partial blocks at both
    ends, which may hold values outside the span, are kept. It is a hint:
    where `madvise` cannot be called, or fails, nothing changes.
    """
    span = values[start:stop]
    if _MADVISE is None or not span.flags.c_contiguous:
        return
    at, block = span.ctypes.data, _RELEASE_BYTES
    first, last = -(-at // block) * block, (at + span.nbytes) // block * block
    if first < last:
        _MADVISE(first, last - first, mmap.MADV_DONTNEED)  # -1 on failure: the memory stays


def _reverse_in_chunks(values: np.ndarray) -> None:
    """Reverse the 1-D `values` in place, a chunk of `_edge_chunks`' size from each end at a time."""
    size, step = values.size, _chunk_size()
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


class _YearLayout(NamedTuple):
    """The artifacts in stable year order, as the build and the update read them.

    `order` (int32) lists the artifacts by year, manifest order within a
    year; year group g holds the positions [starts[g], ends[g]), and
    `position` (int64) maps an artifact to its position. `cols` holds the
    features in that order one row per dimension, then their squared norms:
    column c is [y, |y|^2] for the artifact at position c.
    """

    order: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    position: np.ndarray
    cols: np.ndarray


def _year_layout(feats: np.ndarray, years: np.ndarray) -> _YearLayout:
    """The `_YearLayout` of the artifacts with these feature rows and years."""
    n, dim = feats.shape
    order = np.argsort(years, kind="stable").astype(np.int32)
    change = np.flatnonzero(np.diff(years[order])) + 1
    starts, ends = np.concatenate(([0], change)), np.concatenate((change, [n]))
    position = np.empty(n, dtype=np.int64)
    position[order] = np.arange(n)
    cols = np.empty((dim + 1, n))
    step = max(1, _SLAB_BYTES // (8 * dim))  # rows gathered at a time, so no copy spans the features
    for c0 in range(0, n, step):
        cols[:dim, c0:c0 + step] = feats[order[c0:c0 + step]].T
    cols[dim] = np.einsum("ij,ij->j", cols[:dim], cols[:dim])
    return _YearLayout(order, starts, ends, position, cols)


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
    ties = np.flatnonzero(weights == kth)
    ties = ties[np.argsort(sources[ties])][:need]
    return np.concatenate((above, ties))


def _slab_top_k(block: np.ndarray, dest: np.ndarray, c0: int, n_cand: np.ndarray, cols: np.ndarray,
                order: np.ndarray, position: np.ndarray, k: int,
                sigma: float) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Top-K picks of every row of one ranking slab, a group of rows at a time.

    Row i is the destination x at year-order position dest[i], with n_cand[i]
    candidates; dest, and so n_cand, ascend. `cols` holds the year-ordered
    features, one row per dimension, and the squared norms in its last row,
    and `position` maps an artifact to its year-order position. block[i, c] is d^2 - |x|^2 between x
    and the artifact at position c0 + c, or +inf where that artifact is not
    one of x's candidates. One `argpartition` takes each row's k smallest
    values, and only those picks are weighed. Yields (row, count, src,
    weight) for each group of rows: the rows that have picks, how many each
    has, and their picks one after another, each row's sorted by source.
    Rows are weighed in groups of about `_SLAB_BYTES // _PICK_BYTES` picks,
    or candidates of rows cut exactly, so that beside the block and its
    partition a slab holds one group's scratch, whatever k and its height.
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
    group = max(1, _SLAB_BYTES // _PICK_BYTES)  # picks, or candidates cut exactly, of one group
    big = np.arange(np.searchsorted(n_cand, k, side="right"), r)  # n_cand ascends
    if big.size:
        part = np.argpartition(block[big[0]:], k, axis=1)
        picked = part[:, :k]
        picked += c0
        top = order[picked]
        top.sort(axis=1)
        after = block[big, part[:, k]]  # each row's (k+1)-th smallest value
        del part, picked  # as large as the block; free them before the picks are weighed
        step = max(1, group // k)
        for g0 in range(0, big.size, step):
            rows, picks = big[g0:g0 + step], top[g0:g0 + step]
            w = pair_weights(cols[:dim], dest[rows, None], position[picks], sigma)
            floor[rows] = w.min(axis=1)
            with np.errstate(over="ignore"):
                cap = distance_weights(sx[rows] + after[g0:g0 + step] - slack[rows], sigma)
            ok = floor[rows] > cap
            fast[rows[ok]] = True
            yield rows[ok], np.full(int(ok.sum()), k, dtype=np.int64), picks[ok].ravel(), w[ok].ravel()
        del top  # the exact cuts read none of it
    # Every other row (a tie near the cut, an underflowed pick, at most k
    # candidates) is cut exactly: its top k weigh at least its floor (0 for
    # a row with at most k candidates) and more than 0, so only candidates whose
    # cap reaches both are weighed; the heaviest k survive, ties at the cut
    # going to the smaller source, and underflowed weights are dropped.
    slow = np.flatnonzero(~fast)
    step = max(1, group // c)
    for g0 in range(0, slow.size, step):
        rows = slow[g0:g0 + step]
        bound = block[rows]
        bound += sx[rows, None]
        bound -= slack[rows, None]
        with np.errstate(over="ignore"):
            cap = distance_weights(bound, sigma)
        del bound
        band_row, band_col = np.nonzero((cap >= floor[rows, None]) & (cap > 0.0))
        del cap
        band_col += c0
        band_w = pair_weights(cols[:dim], dest[rows[band_row]], band_col, sigma)
        band_src = order[band_col]
        band_size = np.bincount(band_row, minlength=rows.size)
        band_end = np.cumsum(band_size)
        counts, src_parts, w_parts = [], [], []
        for lo, hi in zip(band_end - band_size, band_end):
            keep = band_w[lo:hi] > 0.0
            wk, sk = band_w[lo:hi][keep], band_src[lo:hi][keep]
            sel = _select_top_k(wk, sk, k)
            sel = sel[np.argsort(sk[sel])]
            counts.append(sel.size)
            src_parts.append(sk[sel])
            w_parts.append(wk[sel])
        yield rows, np.array(counts, dtype=np.int64), np.concatenate(src_parts), np.concatenate(w_parts)


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


def _plan_slabs(lo: np.ndarray, hi: np.ndarray, width: int) -> list[tuple[int, int, int, int]]:
    """Ranking slabs (i0, i1, c0, c1) over rows whose candidates span [lo[i], hi[i]).

    `lo` and `hi` ascend, so a slab of the rows [i0, i1) spans the columns
    [lo[i0], hi[i1 - 1]). Each slab takes as many rows as keep its float64
    block, and its rows' copy of `width` float64 values each, under
    `_SLAB_BYTES`, and at least one.
    """
    cells = _SLAB_BYTES // 8
    tallest = max(1, cells // width)
    slabs, i0 = [], 0
    while i0 < lo.size:
        c0 = int(lo[i0])
        most = min(lo.size, i0 + max(1, cells // int(hi[i0] - c0)), i0 + tallest)
        fits = np.arange(1, most - i0 + 1) * (hi[i0:most] - c0) <= cells  # falls once, never rises
        i1 = i0 + max(1, int(np.count_nonzero(fits)))
        slabs.append((i0, i1, c0, int(hi[i1 - 1])))
        i0 = i1
    return slabs


def _top_k(layout: _YearLayout, config: RunConfig, sigma: float,
           listed: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-K incoming edges of the artifacts `listed` marks (all when None); the others get none.

    The artifacts, their years and features are those of `layout`; K and the
    temporal prior come from `config`, the kernel bandwidth is `sigma`.
    Returns (indptr, src, weight): artifact j owns [indptr[j], indptr[j +
    1]), its sources ascending. Destinations are ranked in year order in
    slabs that `_plan_slabs` sizes to `_SLAB_BYTES`, block and copied
    destination features alike, which may span year groups, with one matrix
    product against the layout's `cols` each, taken in panels of
    `_GEMM_ENTRIES` entries; only the kept pairs are weighed,
    with `pair_weights`, so a weight depends on its pair alone and a row's
    edges do not depend on which rows share its slab.
    Two workers, this thread and one helper thread (see `_on_two_workers`),
    take slabs as they come, each into its own block buffer, and write each
    slab's picks straight to their rows' places, inside room reserved up
    front; a row belongs to one slab, so no place is written twice. numpy releases the interpreter lock in the
    products, partitions, gathers and ufuncs that take the time.
    """
    check_sigma(sigma)
    order, starts, ends, position, cols = layout
    dim, n = cols.shape[0] - 1, cols.shape[1]
    window = config.temporal_window_k if config.temporal_prior == "window" else n
    a_lo, a_hi, b_lo = _candidate_ranges(starts, ends, window)
    n_cand = a_hi - a_lo + starts - b_lo
    group = np.repeat(np.arange(starts.size), ends - starts)  # year group of each position
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
    slabs = _plan_slabs(a_lo[group[dest]], starts[group[dest]], dim + 1)
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
            for r, picks, s, w in _slab_top_k(block, p, c0, n_cand[g], cols, order, position,
                                              config.k, sigma):
                dst = order[p[r]]
                pos = _ranges(room[dst], picks)
                src[pos] = s
                weight[pos] = w
                count[dst] = picks

    _on_two_workers(work, len(slabs))
    indptr = np.concatenate(([0], np.cumsum(count)))
    edges = int(indptr[-1])
    if edges < room[-1]:
        # Close the empty room in place, a chunk of edges at a time: edge e of
        # row j moves from e + room[j] - indptr[j] down to e, and the shift
        # never falls from row to row, so no chunk reads a place an earlier
        # chunk wrote.
        shift = room[:-1] - indptr[:-1]
        for e0, e1, j0, bounds in _edge_chunks(indptr):
            at = np.repeat(shift[j0:j0 + bounds.size - 1], np.diff(bounds))
            at += np.arange(e0, e1)
            src[e0:e1] = src[at]
            weight[e0:e1] = weight[at]
        _release(src, edges, src.size)
        _release(weight, edges, weight.size)
        src, weight = src[:edges], weight[:edges]
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
    layout = _year_layout(corpus.features[aspect].vectors, corpus.years)
    indptr, src, weight = _top_k(layout, config, sigma)
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
    every row is rebuilt. Both the rebuild and the entrants' weights read one
    `_YearLayout` of `years`.
    """
    n, k = corpus.n, config.k
    old = corpus.years
    years = np.asarray(years, dtype=np.int64)
    if years.shape != old.shape:
        raise ValueError(f"expected {n} years, got shape {years.shape}")
    layout = _year_layout(corpus.features[aspect].vectors, years)
    if config.temporal_prior != "none":
        indptr, src, weight = _top_k(layout, config, sigma)
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

    # An artifact moved earlier enters the candidate sets of the unmoved rows
    # dated after its new year and up to its old year. An unmoved row's year
    # is the same in `years`, so those rows lie in one range of layout
    # positions (the moved rows there are rebuilt). It can only enter a full
    # row if it weighs at least the row's lightest edge.
    lightest = np.zeros(n)
    full = np.flatnonzero(count == k)
    lightest[full] = graph.weight[graph.indptr[full] + ranks[graph.indptr[full + 1] - 1]]
    # The (artifact, row) pairs are weighed in chunks of `_edge_chunks`' size:
    # earlier[i] enters the rows at layout positions lo[i] + [0, span[i]),
    # its pairs [pairs[i], pairs[i + 1]) of all.
    sorted_years = years[layout.order]
    earlier = moved[years[moved] < old[moved]]
    lo = np.searchsorted(sorted_years, years[earlier], side="right")
    span = np.searchsorted(sorted_years, old[earlier], side="right") - lo
    pairs = np.concatenate(([0], np.cumsum(span)))
    e_row, e_src, e_w = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for e0, e1, i0, bounds in _edge_chunks(pairs):
        arts = np.repeat(np.arange(i0, i0 + bounds.size - 1), np.diff(bounds))
        at = np.arange(e0, e1) - pairs[arts] + lo[arts]  # the layout position of each pair's row
        rows = layout.order[at].astype(np.int64)  # int64, so that `c_row * n` below cannot wrap
        w = pair_weights(layout.cols[:-1], at, layout.position[earlier[arts]], sigma)
        keep = (w > 0.0) & (w >= lightest[rows]) & ~rebuild[rows]
        e_row.append(rows[keep])
        e_src.append(earlier[arts[keep]])
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

    r_indptr, r_src, r_w = _top_k(layout, config, sigma, rebuild)
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


def _csv_fields(values: Sequence[str]) -> list[bytes]:
    """Each value as `csv.writer` writes it inside a row (quoted where needed), in UTF-8."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    fields = []
    for value in values:
        buf.seek(0)
        buf.truncate()
        writer.writerow((value, ""))
        fields.append(buf.getvalue()[:-len(",\r\n")].encode("utf-8"))
    return fields


def _padded(fields: Sequence[bytes]) -> np.ndarray:
    """A table whose row i holds fields[i], then `PAD` bytes to the longest field's length."""
    lengths = np.fromiter(map(len, fields), dtype=np.intp, count=len(fields))
    table = np.full((len(fields), int(lengths.max(initial=0))), PAD, dtype=np.uint8)
    table[np.arange(table.shape[1]) < lengths[:, None]] = np.frombuffer(b"".join(fields), dtype=np.uint8)
    return table


def _write_edge_rows(path: str | Path, header: Sequence[str], ids: Sequence[str], indptr, src,
                     weight, labels: tuple[str, str] | None = None) -> None:
    """Rows `src_id,dst_id,weight[,label]` of an edge store, as `csv.writer` writes them.

    A batch of rows is one byte matrix: each id's field and comma from a
    padded table, the weight's `repr` bytes from `repr_bytes`, then the
    row's end. With `labels`, a weight's sign picks its label (labels[1]
    when negative) and its magnitude is written. Dropping the `PAD` bytes
    leaves the batch's rows; its destinations are read off `indptr`.
    """
    id_fields = _padded([field + b"," for field in _csv_fields(ids)])
    # Without labels both of a row's possible ends are the bare b"\r\n".
    names = [b"," + field for field in _csv_fields(labels)] if labels else [b"", b""]
    ends = _padded([name + b"\r\n" for name in names])
    with open(path, "wb") as fh:
        fh.write(b",".join(_csv_fields(header)) + b"\r\n")
        for e0, e1, j0, bounds in _edge_chunks(indptr, max(1, _CSV_BYTES // _CSV_ROW_BYTES)):
            w = weight[e0:e1]
            dst = np.repeat(np.arange(j0, j0 + bounds.size - 1), np.diff(bounds))
            rows = np.concatenate((id_fields[src[e0:e1]], id_fields[dst], repr_bytes(np.abs(w)),
                                   ends[(w < 0.0).astype(np.intp)]), axis=1)
            fh.write(rows[rows != PAD])


def write_graph_csv(graph: PaintingGraph, ids: Sequence[str], path: str | Path) -> None:
    """Edge dump `src_id,dst_id,weight` in canonical (dst, src) order."""
    _write_edge_rows(path, ("src_id", "dst_id", "weight"), ids, graph.indptr, graph.src, graph.weight)
