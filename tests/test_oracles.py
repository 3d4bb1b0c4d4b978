"""The simple graph build, CIN assembly, percentiles, CSV writers and operator, kept as oracles.

The library ranks each slab of destinations with one matrix product and one
partial selection and weighs only the pairs it keeps, writes the picks
straight into destination order, keeps the implication network as the graph's
own kept and reversed edges (K and R, the network being K + R^T) instead of
merging them into one sorted store, counts and then fills K and R a chunk of
edges at a time instead of gathering them at full-length position arrays,
reads percentiles with a partition, finds
local thresholds in one sweep over weight ranks, cuts window candidates as two
position ranges per year group, writes edge dumps a chunk at a time as
numpy bytes (`repr` itself is the oracle of their weights' bytes), takes
operator column sums from a sparse product, scores the beta split with one
operator whose dangling columns carry fractional weights, scores straight from
K and R^T instead of the merged network, updates the time machine's
baseline graph per run instead of rebuilding it, calls scipy's compiled
sparse kernels on the stores' arrays instead of through scipy's matrices,
takes sigma's all-pairs distances in numpy instead of with `pdist`, and
parses CSV features a block of lines at a time with numpy's C reader instead
of a Python float per value. The implementations they replaced live here, and every test asserts that both give the same bits,
except where the sums run in another order: the split at fractional beta, and
combined scoring from K and R^T, agree with the merged-network operator to the
last few bits. The graph oracle weighs every candidate pair on its own with
the scalar kernel of `conftest`. The corpora force every path: weight ties
straddling the k-th cut, near-ties from duplicate and grid features,
underflowed weights, candidate sets no larger than k, the window prior,
single-year groups, slabs that span year groups with different candidate
counts, slabs that mix certified and exactly cut rows, both anchors, global
and local balancing, edges not forward in time, local samples below the
fallback floor, edges never in any window, and p = 100. The graph update is
checked against `build_graph` on the re-dated corpus for back, forward and
wander moves, ties at the cut, underflow, targets moved onto their own or the
earliest year, one-artifact years, every artifact moved, rebuilt rows over
several slabs, and the window prior. The build's slab loop, run by two
workers, must give the bits of the serial loop (one available CPU) and of the
oracle for 1, 2, 3 and many slabs, several slab sizes, the window prior, the
update's listed rows and a thread switch every microsecond; the picks weighed
in groups of one row or a few, and the update's entrants weighed in chunks of
one pair or a few, must give the same bits. The CSV feature reader must give
the oracle's array bits, or its exception and message, on a table of odd
inputs, on random files and with a fault in a later block of lines.
"""

import contextlib
import csv
import dataclasses
import inspect
import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.spatial.distance import pdist

import creanet as cn
from creanet import _floatrepr as floatrepr_module
from creanet import _kernels
from creanet import corpus as corpus_module
from creanet import graph as graph_module
from creanet import implication as implication_module
from creanet import scoring as scoring_module
from creanet import timemachine as timemachine_module

from conftest import (COMBINED, balance, cin_edges, count_thread_starts, dense_matrix, edge_dst,
                      from_edges, make_corpus, random_corpus, random_network, solve_closed_form,
                      planned_slabs, split, use_cpus, use_edge_chunk, use_slab_rows,
                      visual_similarity)


# ---------------------------------------------------------------------------
# Oracles: the implementations the library replaced.

def reference_select_top_k(weights, sources, k):
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


def reference_window_candidates(order, starts, ends, group, budget):
    """The `budget` latest strictly-prior artifacts, walking back one year group at a time."""
    pieces = []
    for g in range(group - 1, -1, -1):
        size = int(ends[g] - starts[g])
        if budget >= size:
            pieces.append(order[starts[g]:ends[g]])
            budget -= size
            if budget == 0:
                break
        else:
            pieces.append(order[starts[g]:starts[g] + budget])
            break
    return np.concatenate(pieces[::-1]) if pieces else np.empty(0, dtype=np.int64)


def year_groups(years):
    """The library's stable year order of `years` and the [start, end) bounds of each year group."""
    layout = graph_module._year_layout(np.zeros((len(years), 1)), np.asarray(years))
    return layout.order, layout.starts, layout.ends


def reference_build_graph(corpus, aspect, config, sigma):
    """Weigh every candidate pair on its own, select each row's top K, then one lexsort."""
    feats = corpus.features[aspect].vectors
    order, starts, ends = year_groups(corpus.years)
    src_parts, dst_parts, w_parts = [], [], []
    for g in range(starts.size):
        gs, ge = int(starts[g]), int(ends[g])
        if gs == 0:
            continue
        if config.temporal_prior == "window" and gs > config.temporal_window_k:
            cand = reference_window_candidates(order, starts, ends, g, config.temporal_window_k)
        else:
            cand = order[:gs]
        for j in order[gs:ge]:
            w = np.array([visual_similarity(feats[j], feats[i], sigma) for i in cand])
            keep = w > 0.0
            wk = w[keep]
            ck = cand[keep]
            sel = reference_select_top_k(wk, ck, config.k)
            src_parts.append(ck[sel])
            dst_parts.append(np.full(sel.size, j, dtype=np.int64))
            w_parts.append(wk[sel])
    if src_parts:
        src = np.concatenate(src_parts)
        dst = np.concatenate(dst_parts)
        weight = np.concatenate(w_parts)
        edge_order = np.lexsort((src, dst))
        src, dst, weight = src[edge_order], dst[edge_order], weight[edge_order]
    else:
        src = np.empty(0, dtype=np.int64)
        dst = np.empty(0, dtype=np.int64)
        weight = np.empty(0, dtype=np.float64)
    return from_edges(cn.PaintingGraph, corpus.n, src, dst, weight)


def reference_edge_ranks(graph):
    """Each destination's edge offsets by (weight desc, src asc), one lexsort per destination."""
    ranks = []
    for j in range(graph.n):
        lo, hi = graph.indptr[j], graph.indptr[j + 1]
        ranks.append(np.lexsort((graph.src[lo:hi], -graph.weight[lo:hi])))
    return np.concatenate(ranks)


def reference_run_time_machine(corpus, config, spec, aspect=None):
    """The whole pipeline, graph build included, once per run on the perturbed corpus."""
    if aspect is None:
        aspect = corpus.aspects[0]
    pool = timemachine_module._resolve_targets(corpus, spec.group)
    sigma = cn.resolve_sigma(corpus, aspect, config)
    base_result = cn.run_pipeline(corpus, aspect, config, sigma=sigma)
    baseline = base_result.score.scores
    converged = base_result.score.converged
    lo = spec.min_year if spec.min_year is not None else int(corpus.years.min())
    hi = spec.max_year if spec.max_year is not None else int(corpus.years.max())
    seed = spec.seed if spec.seed is not None else config.seed
    runs = []
    for r in range(spec.n_runs):
        rng = np.random.default_rng([seed, r])
        targets = np.sort(rng.choice(pool, size=spec.n_test, replace=False))
        drawn = np.rint(rng.normal(spec.mean, spec.move_std, size=spec.n_test))
        new_years = np.clip(drawn, lo, hi).astype(np.int64)
        perturbed_years = np.array(corpus.years)
        perturbed_years[targets] = new_years
        rescored_result = cn.run_pipeline(corpus.with_years(perturbed_years), aspect, config,
                                          sigma=sigma)
        converged = converged and rescored_result.score.converged
        base = baseline[targets]
        new = rescored_result.score.scores[targets]
        gains = (new - base) / base * 100.0
        runs.append(cn.TimeMachineRun(
            run=r, targets=targets, old_years=corpus.years[targets], new_years=new_years,
            base_scores=base, new_scores=new, gains_pct=gains, mean_gain=float(gains.mean()),
            pct_increase=float((gains > 0.0).mean() * 100.0)))
    mean_gains = [run.mean_gain for run in runs]
    pct_increases = [run.pct_increase for run in runs]
    spread = (lambda v: float(np.std(np.array(v), ddof=1)) if len(v) > 1 else 0.0)
    return cn.TimeMachineReport(
        spec=spec, aspect=aspect, sigma=float(sigma), runs=tuple(runs),
        mean_gain=float(np.mean(mean_gains)), std_gain=spread(mean_gains),
        pct_increase=float(np.mean(pct_increases)), std_pct=spread(pct_increases),
        converged=converged)


@dataclasses.dataclass(frozen=True)
class ReferenceNetwork:
    """The implication network merged into one store: every edge in (dst, src) order, labeled."""

    n: int
    indptr: np.ndarray
    src: np.ndarray
    weight: np.ndarray
    prior: np.ndarray
    kept_count: int
    reversed_count: int
    dropped_count: int

    def __post_init__(self):
        cn.PaintingGraph(n=self.n, indptr=self.indptr, src=self.src, weight=self.weight)


def merged(net):
    """The library's network as one merged store, by one lexsort of K and the flipped R."""
    src, dst, weight, prior = cin_edges(net)
    return from_edges(ReferenceNetwork, net.kept.n, src, dst, weight, prior=prior,
                      kept_count=net.kept_count, reversed_count=net.reversed_count,
                      dropped_count=net.dropped_count)


def reference_merged_network(graph, m, years, anchor="destination"):
    """Keep, drop or reverse every edge, then lexsort the survivors; labels from the years."""
    m = np.asarray(m, dtype=np.float64)
    years = np.asarray(years, dtype=np.int64)
    graph_dst = edge_dst(graph)
    b = graph.weight - m[graph_dst if anchor == "destination" else graph.src]
    keep = b > 0.0
    flip = b < 0.0
    src = np.concatenate((graph.src[keep], graph_dst[flip]))
    dst = np.concatenate((graph_dst[keep], graph.src[flip]))
    weight = np.concatenate((b[keep], -b[flip]))
    prior = years[dst] < years[src]
    edge_order = np.lexsort((src, dst))
    return from_edges(
        ReferenceNetwork, graph.n, src[edge_order], dst[edge_order], weight[edge_order],
        prior=prior[edge_order], kept_count=int(keep.sum()), reversed_count=int(flip.sum()),
        dropped_count=int(graph.n_edges - keep.sum() - flip.sum()))


def reference_percentile(values, p):
    """Nearest-rank percentile read off a stable full sort."""
    values = np.asarray(values, dtype=np.float64)
    rank = math.ceil(p / 100.0 * values.size)
    return float(np.sort(values, kind="stable")[rank - 1])


def reference_local_thresholds(graph, years, config):
    """Local-mode m: mask the in-window edges and take their percentile, once per distinct year."""
    years = np.asarray(years, dtype=np.int64)
    global_m = reference_percentile(graph.weight, config.percentile_p)
    w = config.local_window_years
    ys, yd = years[graph.src], years[edge_dst(graph)]
    lo = np.maximum(ys, yd) - w
    hi = np.minimum(ys, yd) + w
    m = np.empty(graph.n, dtype=np.float64)
    cache = {}
    for i in range(graph.n):
        y = int(years[i])
        if y not in cache:
            mask = (lo <= y) & (y <= hi)
            if int(mask.sum()) < config.min_local_sample:
                cache[y] = global_m
            else:
                cache[y] = reference_percentile(graph.weight[mask], config.percentile_p)
        m[i] = cache[y]
    return m


def reference_write_graph_csv(graph, ids, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src_id", "dst_id", "weight"])
        for s, d, w in zip(graph.src, edge_dst(graph), graph.weight):
            writer.writerow([ids[s], ids[d], repr(float(w))])


def reference_write_cin_csv(net, ids, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["src_id", "dst_id", "weight", "label"])
        for s, d, w, p in zip(net.src, edge_dst(net), net.weight, net.prior):
            writer.writerow([ids[s], ids[d], repr(float(w)), "prior" if p else "subsequent"])


class ReferenceOperator:
    """Column-stochastic operator whose dangling columns are a boolean mask, completed as 1/n."""

    def __init__(self, n, matrix, dangling):
        self.n = n
        self.matrix = matrix
        self.dangling = dangling

    def apply(self, c):
        out = self.matrix @ c
        lost = float(c[self.dangling].sum())
        if lost:
            out += lost / self.n
        return out

    def dense(self):
        m = self.matrix.toarray()
        m[:, self.dangling] = 1.0 / self.n
        return m


def reference_normalize(net, label):
    """One label's operator from that label's store alone: K's edges, or R's edges flipped."""
    store = net.reversed if label == "prior" else net.kept
    src, dst = store.src, edge_dst(store)
    if label == "prior":
        src, dst = dst, src
    n = store.n
    col_sums = np.bincount(dst, weights=store.weight, minlength=n)
    values = store.weight / col_sums[dst]
    matrix = sparse.coo_matrix((values, (src, dst)), shape=(n, n)).tocsr()
    return ReferenceOperator(n, matrix, col_sums == 0.0)


def reference_operator(cin, beta=None):
    """The operator with column sums from `np.bincount` over an int64 destination per edge."""
    n = cin.n
    weight = cin.weight
    dst = np.repeat(np.arange(n), np.diff(cin.indptr))
    if beta is None:
        sums = np.bincount(dst, weights=weight, minlength=n)
        values = weight / sums[dst]
        dangling = (sums == 0.0).astype(np.float64)
    else:
        label = cin.prior.astype(np.intp)
        scale = np.array([1.0 - beta, beta])
        sums = np.bincount(dst + n * label, weights=weight, minlength=2 * n).reshape(2, n)
        dangling = scale[1] * (sums[1] == 0.0) + scale[0] * (sums[0] == 0.0)
        values = weight / sums[label, dst] * scale[label]
    matrix = sparse.csc_matrix((values, cin.src, cin.indptr), shape=(n, n), copy=True)
    matrix.eliminate_zeros()
    return matrix, dangling


class MergedNetworkOperator:
    """The scoring operator of a merged network: its one CSC matrix and its dangling weights.

    `apply` takes scipy's product and spreads the dangling share as the
    library's operator does, so both give the same bits on the same entries.
    """

    def __init__(self, cin, beta=None):
        self.n = cin.n
        self.matrix, self.dangling = reference_operator(cin, beta)
        sums = np.asarray(self.matrix.sum(axis=0)).ravel() + self.dangling
        assert np.all(np.abs(sums - 1.0) <= scoring_module.COLUMN_SUM_TOL)

    def apply(self, c):
        out = self.matrix @ c
        support = np.flatnonzero(self.dangling)
        lost = float((self.dangling[support] * c[support]).sum())
        if lost:
            out += lost / self.n
        return out


def reference_solve_split(op_prior, op_subseq, alpha, beta, tol=1e-10, max_iters=1000):
    """Power iteration applying the two label operators separately and blending the results."""
    n = op_prior.n
    teleport = (1.0 - alpha) / n
    c = np.full(n, 1.0 / n)
    residual = float("inf")
    iterations = 0
    for iterations in range(1, max_iters + 1):
        nxt = teleport + alpha * (beta * op_prior.apply(c) + (1.0 - beta) * op_subseq.apply(c))
        residual = float(np.abs(nxt - c).sum())
        c = nxt
        if residual < tol:
            break
    if alpha == 1.0:
        c = c / c.sum()
    return cn.ScoreVector(scores=c, iterations=iterations, residual=residual, converged=residual < tol)


REFERENCE_EDGE_CHUNK = 1 << 18


def reference_at_anchor(indptr, src, values, anchor, e0, e1):
    """values[anchor node] of each edge in [e0, e1) of the edge store (indptr, src)."""
    if anchor == "source":
        return values[src[e0:e1]]
    j0 = int(np.searchsorted(indptr, e0, side="right")) - 1
    j1 = int(np.searchsorted(indptr, e1, side="left"))
    return np.repeat(values[j0:j1], np.diff(np.clip(indptr[j0:j1 + 1], e0, e1)))


def reference_edge_subset(graph, picked, m, anchor, reverse):
    """The edges of `graph` at positions `picked`, weighted w - m(anchor), or m - w with `reverse`."""
    indptr = np.searchsorted(picked, graph.indptr.astype(picked.dtype))
    src = graph.src[picked]
    weight = graph.weight[picked]
    for e0 in range(0, src.size, REFERENCE_EDGE_CHUNK):
        e1 = min(e0 + REFERENCE_EDGE_CHUNK, src.size)
        w, at = weight[e0:e1], reference_at_anchor(indptr, src, m, anchor, e0, e1)
        if reverse:
            np.subtract(at, w, out=w)
        else:
            w -= at
    return cn.PaintingGraph(n=graph.n, indptr=indptr, src=src, weight=weight)


def reference_build_implication_network(graph, m, years, config):
    """K and R from full-length arrays of the kept and the reversed edges' positions."""
    m = np.asarray(m, dtype=np.float64)
    years = np.asarray(years, dtype=np.int64)
    distinct, year_of = np.unique(years, return_inverse=True)
    year_of = year_of.astype(np.min_scalar_type(distinct.size))
    indptr, src, anchor = graph.indptr, graph.src, config.balance_anchor
    position = np.int32 if graph.n_edges < 2 ** 31 else np.int64
    kept_at, reversed_at = [np.empty(0, dtype=position)], [np.empty(0, dtype=position)]
    for e0 in range(0, graph.n_edges, REFERENCE_EDGE_CHUNK):
        e1 = min(e0 + REFERENCE_EDGE_CHUNK, graph.n_edges)
        backward = np.flatnonzero(year_of[src[e0:e1]]
                                  >= reference_at_anchor(indptr, src, year_of, "destination", e0, e1))
        if backward.size:
            e = e0 + int(backward[0])
            s, d = int(src[e]), int(np.searchsorted(indptr, e, side="right") - 1)
            raise ValueError(f"edge {s} -> {d} runs from year {years[s]} to year {years[d]}; "
                             f"every similarity edge must run from an earlier to a later year")
        b = reference_at_anchor(indptr, src, m, anchor, e0, e1)
        np.subtract(graph.weight[e0:e1], b, out=b)
        kept_at.append((np.flatnonzero(b > 0.0) + e0).astype(position))
        reversed_at.append((np.flatnonzero(b < 0.0) + e0).astype(position))
    kept_at, reversed_at = np.concatenate(kept_at), np.concatenate(reversed_at)
    kept = reference_edge_subset(graph, kept_at, m, anchor, reverse=False)
    reversed_ = reference_edge_subset(graph, reversed_at, m, anchor, reverse=True)
    return cn.ImplicationNetwork(kept=kept, reversed=reversed_,
                                 dropped_count=graph.n_edges - kept.n_edges - reversed_.n_edges)


def reference_solve_split_closed_form(op_prior, op_subseq, alpha, beta):
    """Dense solve with M = beta*M_prior + (1-beta)*M_subseq."""
    n = op_prior.n
    m = beta * op_prior.dense() + (1.0 - beta) * op_subseq.dense()
    scores = np.linalg.solve(np.eye(n) - alpha * m, np.full(n, (1.0 - alpha) / n))
    return cn.ScoreVector(scores=scores, iterations=0, residual=0.0, converged=True)


def reference_read_features(path, aspect):
    """`corpus.read_features` of a CSV file, read a row at a time with every value a Python float."""
    rows, dim = [], None
    where = f"feature file '{path}' (aspect '{aspect}')"
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            for row_no, row in enumerate(csv.reader(fh), start=1):
                if not row or all(not cell.strip() for cell in row):
                    continue
                try:
                    values = [float(cell) for cell in row]
                except ValueError:
                    raise cn.IngestError(f"{where} row {row_no}: non-numeric value") from None
                if dim is None:
                    dim = len(values)
                elif len(values) != dim:
                    raise cn.IngestError(f"{where} row {row_no}: expected {dim} values, "
                                         f"got {len(values)}")
                if not all(math.isfinite(v) for v in values):
                    raise cn.IngestError(f"{where} row {row_no}: non-finite value")
                rows.append(values)
    except UnicodeDecodeError:
        raise cn.IngestError(f"{where}: neither CSV text nor CRFT binary") from None
    if not rows:
        raise cn.IngestError(f"{where} contains no rows")
    return np.asarray(rows, dtype=np.float64)


# ---------------------------------------------------------------------------
# Helpers.

def assert_same_graph(got, want):
    assert got.n == want.n
    assert got.indptr.tobytes() == want.indptr.tobytes()
    assert got.src.dtype == want.src.dtype == np.int32
    assert got.src.tobytes() == want.src.tobytes()
    assert got.weight.tobytes() == want.weight.tobytes()


def assert_same_network(got, want):
    """The library's network, merged, against a `ReferenceNetwork`."""
    got = merged(got)
    assert_same_graph(cn.PaintingGraph(got.n, got.indptr, got.src, got.weight),
                      cn.PaintingGraph(want.n, want.indptr, want.src, want.weight))
    assert np.array_equal(got.prior, want.prior)
    assert (got.kept_count, got.reversed_count, got.dropped_count) == \
        (want.kept_count, want.reversed_count, want.dropped_count)


def assert_same_report(got, want):
    """Every field of a time-machine report and of each of its runs, bit for bit."""
    for name in ("spec", "aspect", "converged"):
        assert getattr(got, name) == getattr(want, name)
    for name in ("sigma", "mean_gain", "std_gain", "pct_increase", "std_pct"):
        assert np.float64(getattr(got, name)).tobytes() == np.float64(getattr(want, name)).tobytes()
    assert len(got.runs) == len(want.runs)
    for run, ref in zip(got.runs, want.runs):
        for field in dataclasses.fields(cn.TimeMachineRun):
            a, b = np.asarray(getattr(run, field.name)), np.asarray(getattr(ref, field.name))
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert a.tobytes() == b.tobytes(), field.name


def count_fallback_rows(corpus, config, sigma):
    """Build the graph and count the rows that went through the per-row selection."""
    with mock.patch.object(graph_module, "_select_top_k",
                           wraps=graph_module._select_top_k) as spy:
        graph = cn.build_graph(corpus, "visual", config, sigma)
    return graph, spy.call_count


def quantised_corpus(seed, n, dim, levels, year_lo, year_hi):
    """Integer-grid features: many pairs share a distance, hence a weight."""
    rng = np.random.default_rng(seed)
    years = rng.integers(year_lo, year_hi + 1, size=n)
    return make_corpus(years, rng.integers(0, levels + 1, size=(n, dim)).astype(np.float64))


@st.composite
def corpora(draw):
    n = draw(st.integers(1, 60))
    n_years = draw(st.integers(1, 15))
    years = 1500 + np.array(draw(st.lists(st.integers(0, n_years - 1), min_size=n, max_size=n)))
    dim = draw(st.integers(1, 3))
    levels = draw(st.sampled_from([0, 1, 2, 3]))  # 0: continuous features, else an integer grid
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if levels:
        feats = rng.integers(0, levels + 1, size=(n, dim)).astype(np.float64)
    else:
        feats = rng.normal(size=(n, dim))
    return make_corpus(years, feats)


graph_configs = st.builds(
    lambda k, window: cn.RunConfig(
        k=k, temporal_prior="none" if window is None else "window",
        temporal_window_k=window or 500),
    k=st.integers(1, 10),
    window=st.one_of(st.none(), st.integers(1, 12)),
)
# 0.01 underflows every weight but identical features; 0.3 and 1.0 keep grid ties
kernel_sigmas = st.sampled_from([0.01, 0.3, 1.0, 4.0])


# ---------------------------------------------------------------------------
# Graph build.

class TestGraphAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(corpora(), graph_configs, kernel_sigmas)
    def test_random_corpora(self, corpus, config, sigma):
        assert_same_graph(cn.build_graph(corpus, "visual", config, sigma),
                          reference_build_graph(corpus, "visual", config, sigma))

    def test_slab_mixes_fast_and_fallback_rows(self):
        # one destination slab of 200 rows against 60 grid-valued candidates: some
        # rows see a weight tie across the k-th cut, the rest have a clean cut
        rng = np.random.default_rng(3)
        feats = rng.integers(0, 4, size=(260, 2)).astype(np.float64)
        feats[60:] += rng.normal(scale=0.2, size=(200, 2)) * (rng.random((200, 1)) < 0.5)
        corpus = make_corpus([1500] * 60 + [1600] * 200, feats)
        config, sigma = cn.RunConfig(k=3), 1.0
        graph, fallback_rows = count_fallback_rows(corpus, config, sigma)
        assert 0 < fallback_rows < 200
        assert_same_graph(graph, reference_build_graph(corpus, "visual", config, sigma))

    def test_underflowed_rows_fall_back(self):
        # sigma far below the grid spacing: only identical features keep a weight
        corpus = quantised_corpus(seed=4, n=150, dim=2, levels=2, year_lo=1500, year_hi=1510)
        config, sigma = cn.RunConfig(k=4), 0.01
        graph, fallback_rows = count_fallback_rows(corpus, config, sigma)
        assert fallback_rows > 0
        assert graph.n_edges > 0
        assert_same_graph(graph, reference_build_graph(corpus, "visual", config, sigma))

    def test_candidate_sets_no_larger_than_k(self):
        corpus = random_corpus(seed=5, n=120, dim=3, year_lo=1500, year_hi=1530)
        for k in (40, 119, 500):
            config, sigma = cn.RunConfig(k=k), 1.0
            assert_same_graph(cn.build_graph(corpus, "visual", config, sigma),
                              reference_build_graph(corpus, "visual", config, sigma))

    def test_several_slabs_per_year_group(self):
        # 700 destinations in one year: three slabs share one candidate set
        rng = np.random.default_rng(6)
        years = np.array([1500] * 300 + [1600] * 700)
        corpus = make_corpus(years, rng.normal(size=(1000, 4)))
        for prior, window in (("none", 500), ("window", 120)):
            config = cn.RunConfig(k=25, temporal_prior=prior, temporal_window_k=window)
            sigma = 1.5
            assert_same_graph(cn.build_graph(corpus, "visual", config, sigma),
                              reference_build_graph(corpus, "visual", config, sigma))

    def test_window_prior_with_ties(self):
        corpus = quantised_corpus(seed=7, n=400, dim=2, levels=3, year_lo=1500, year_hi=1540)
        for window in (1, 9, 60):
            config = cn.RunConfig(k=5, temporal_prior="window", temporal_window_k=window)
            sigma = 0.8
            assert_same_graph(cn.build_graph(corpus, "visual", config, sigma),
                              reference_build_graph(corpus, "visual", config, sigma))

    def test_single_artifact_year_groups(self):
        rng = np.random.default_rng(8)
        corpus = make_corpus(1500 + rng.permutation(90), rng.normal(size=(90, 3)))
        for k in (1, 7):
            config, sigma = cn.RunConfig(k=k), 1.0
            assert_same_graph(cn.build_graph(corpus, "visual", config, sigma),
                              reference_build_graph(corpus, "visual", config, sigma))

    def test_slabs_span_groups_with_different_candidate_counts(self):
        # 600 artifacts over 40 years of uneven size: a slab of 256 rows spans
        # many groups, and k = 30 lies between their candidate counts
        rng = np.random.default_rng(13)
        corpus = make_corpus(1500 + np.sort(rng.integers(0, 40, size=600) ** 2 // 40),
                             rng.normal(size=(600, 3)))
        counts = np.searchsorted(np.sort(corpus.years), corpus.years)
        assert (counts > 0).any() and (counts <= 30).any() and (counts > 30).any()
        for prior, window in (("none", 500), ("window", 45)):
            config = cn.RunConfig(k=30, temporal_prior=prior, temporal_window_k=window)
            sigma = 1.2
            assert_same_graph(cn.build_graph(corpus, "visual", config, sigma),
                              reference_build_graph(corpus, "visual", config, sigma))

    def test_near_ties_from_duplicate_and_grid_features(self):
        # duplicated rows tie exactly, with each other and across years; grid
        # features tie at many distances; some rows repeat their destination
        rng = np.random.default_rng(14)
        base = rng.integers(0, 3, size=(40, 3)).astype(np.float64)
        base[20:] += rng.normal(scale=1e-9, size=(20, 3))
        feats = base[rng.integers(0, 40, size=300)]
        corpus = make_corpus(rng.integers(1500, 1530, size=300), feats)
        for k, sigma in ((1, 0.5), (4, 1.0), (12, 3.0)):
            config = cn.RunConfig(k=k)
            graph, fallback_rows = count_fallback_rows(corpus, config, sigma)
            assert fallback_rows > 0
            assert_same_graph(graph, reference_build_graph(corpus, "visual", config, sigma))


@pytest.mark.parametrize("prior, window", [("none", 500), ("window", 40)])
def test_weights_do_not_depend_on_slab_size(monkeypatch, prior, window):
    corpus = quantised_corpus(seed=15, n=700, dim=3, levels=4, year_lo=1500, year_hi=1560)
    config, sigma = cn.RunConfig(k=9, temporal_prior=prior, temporal_window_k=window), 1.7
    graphs = []
    for rows in (0, 7, 256):  # one destination per slab, then slabs of at least 7 and 256
        use_slab_rows(monkeypatch, rows, corpus.n)
        graphs.append(cn.build_graph(corpus, "visual", config, sigma))
    for graph in graphs[1:]:
        assert_same_graph(graph, graphs[0])
    assert_same_graph(graphs[0], reference_build_graph(corpus, "visual", config, sigma))


@pytest.mark.parametrize("pick_bytes", [1 << 21, 1 << 11])
def test_weights_do_not_depend_on_pick_groups(monkeypatch, pick_bytes):
    # groups of one row, then of a few rows cut exactly and hundreds of rows
    # with a clean cut; duplicated and grid features tie across the cut
    rng = np.random.default_rng(14)
    base = rng.integers(0, 3, size=(40, 3)).astype(np.float64)
    base[20:] += rng.normal(scale=1e-9, size=(20, 3))
    corpus = make_corpus(rng.integers(1500, 1530, size=300), base[rng.integers(0, 40, size=300)])
    for k, sigma in ((1, 0.5), (4, 1.0), (12, 3.0), (200, 0.05)):
        config = cn.RunConfig(k=k)
        whole = cn.build_graph(corpus, "visual", config, sigma)
        monkeypatch.setattr(graph_module, "_PICK_BYTES", pick_bytes)
        grouped, fallback_rows = count_fallback_rows(corpus, config, sigma)
        monkeypatch.undo()
        assert fallback_rows > 0
        assert_same_graph(grouped, whole)
        assert_same_graph(grouped, reference_build_graph(corpus, "visual", config, sigma))


def builds_on_one_and_two_cpus(monkeypatch, build):
    """`build()` with one available CPU and with two; the second must start the helper."""
    starts = count_thread_starts(monkeypatch)
    use_cpus(monkeypatch, 1)
    serial = build()
    assert not starts
    use_cpus(monkeypatch, 2)
    both = build()
    return serial, both, len(starts)


TOP_K_SIGNATURE = inspect.signature(graph_module._top_k)


def listed_rows(spy) -> list:
    """The `listed` argument of each call a `_top_k` spy saw, however passed; None if left out."""
    return [TOP_K_SIGNATURE.bind(*c.args, **c.kwargs).arguments.get("listed")
            for c in spy.call_args_list]


class TestTwoWorkerBuild:
    """The slab loop on two workers gives the serial loop's bits and the oracle's."""

    @pytest.mark.parametrize("n, slabs", [(100, 1), (200, 2), (330, 3), (700, 6)])
    @pytest.mark.parametrize("prior, window", [("none", 500), ("window", 60)])
    def test_slab_counts_and_chunks(self, monkeypatch, n, slabs, prior, window):
        rng = np.random.default_rng(40 + n)
        years = np.concatenate(([1500], rng.integers(1501, 1560, size=n - 1)))  # one earliest
        corpus = make_corpus(years, rng.normal(size=(n, 3)))
        config, sigma = cn.RunConfig(k=7, temporal_prior=prior, temporal_window_k=window), 1.3
        want = reference_build_graph(corpus, "visual", config, sigma)
        plans = planned_slabs(monkeypatch)
        for rows in (0, 7, 128):  # a slab per destination, then budgets of 7 and 128 whole rows
            use_slab_rows(monkeypatch, rows, n)
            serial, both, helpers = builds_on_one_and_two_cpus(
                monkeypatch, lambda: cn.build_graph(corpus, "visual", config, sigma))
            assert plans[-1] == plans[-2]
            assert helpers == (1 if len(plans[-1]) >= 2 else 0)
            assert_same_graph(serial, want)
            assert_same_graph(both, want)
        # every artifact but the earliest is a destination; narrow early rows pack more densely
        assert len(plans[0]) == n - 1
        assert len(plans[-1]) <= slabs

    def test_ties_and_fallback_rows(self, monkeypatch):
        corpus = quantised_corpus(seed=41, n=500, dim=2, levels=3, year_lo=1500, year_hi=1540)
        config, sigma = cn.RunConfig(k=5), 0.8
        use_slab_rows(monkeypatch, 16, corpus.n)
        serial, both, helpers = builds_on_one_and_two_cpus(
            monkeypatch, lambda: count_fallback_rows(corpus, config, sigma))
        assert helpers == 1 and serial[1] > 0
        assert_same_graph(serial[0], both[0])
        assert_same_graph(both[0], reference_build_graph(corpus, "visual", config, sigma))

    @pytest.mark.parametrize("move", ["back", "forward", "wander"])
    def test_update_rebuilds_listed_rows(self, monkeypatch, move):
        use_slab_rows(monkeypatch, 7, 600)
        corpus = random_corpus(seed=42, n=600, dim=3, year_lo=1500, year_hi=1560)
        config, sigma = cn.RunConfig(k=8), 1.0
        years = redate(corpus, np.random.default_rng(43), 0.1, move)
        graph = cn.build_graph(corpus, "visual", config, sigma)
        ranks = graph_module.edge_ranks(graph)
        with mock.patch.object(graph_module, "_top_k", wraps=graph_module._top_k) as spy:
            serial, both, helpers = builds_on_one_and_two_cpus(
                monkeypatch, lambda: graph_module.update_graph(graph, ranks, corpus, "visual",
                                                               config, sigma, years))
        listed = listed_rows(spy)
        assert len(listed) == 2 and listed[0].sum() > 2 * 7 and helpers == 1
        assert_same_graph(serial, both)
        assert_same_graph(both, reference_build_graph(corpus.with_years(years), "visual",
                                                      config, sigma))

    def test_short_switch_interval(self, monkeypatch):
        # the interpreter switches threads every microsecond, so the two
        # workers interleave between nearly every pair of bytecodes
        use_slab_rows(monkeypatch, 3, 300)
        corpus = random_corpus(seed=44, n=300, dim=2, year_lo=1500, year_hi=1530)
        config, sigma = cn.RunConfig(k=4), 1.0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            serial, both, helpers = builds_on_one_and_two_cpus(
                monkeypatch, lambda: cn.build_graph(corpus, "visual", config, sigma))
        finally:
            sys.setswitchinterval(interval)
        assert helpers == 1
        assert_same_graph(serial, both)
        assert_same_graph(both, reference_build_graph(corpus, "visual", config, sigma))


# ---------------------------------------------------------------------------
# Incremental time machine.

def assert_update_like_rebuild(corpus, config, sigma, years):
    """`update_graph` from the baseline equals `build_graph` on the re-dated corpus; returns it."""
    graph = cn.build_graph(corpus, "visual", config, sigma)
    ranks = graph_module.edge_ranks(graph)
    assert np.array_equal(ranks, reference_edge_ranks(graph))
    got = graph_module.update_graph(graph, ranks, corpus, "visual", config, sigma, years)
    assert_same_graph(got, cn.build_graph(corpus.with_years(years), "visual", config, sigma))
    return got


def redate(corpus, rng, fraction, move):
    """Years with a random `fraction` of the artifacts moved back, forward or anywhere.

    A target may draw its own year, and a year up to 2 outside the corpus's range.
    """
    lo, hi = int(corpus.years.min()) - 2, int(corpus.years.max()) + 2
    years = np.array(corpus.years)
    targets = rng.choice(corpus.n, size=max(1, int(fraction * corpus.n)), replace=False)
    for t in targets.tolist():
        a, b = {"back": (lo, years[t]), "forward": (years[t], hi), "wander": (lo, hi)}[move]
        years[t] = rng.integers(a, b + 1)
    return years


class TestGraphUpdateAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(corpora(), graph_configs, kernel_sigmas, st.integers(0, 2**32 - 1),
           st.sampled_from([0.01, 0.1, 0.4]), st.sampled_from(["back", "forward", "wander"]))
    def test_random_moves(self, corpus, config, sigma, seed, fraction, move):
        years = redate(corpus, np.random.default_rng(seed), fraction, move)
        assert_update_like_rebuild(corpus, config, sigma, years)

    @pytest.mark.parametrize("move", ["back", "forward", "wander"])
    def test_ties_at_the_cut(self, move):
        # duplicated rows tie exactly, grid features at many distances
        rng = np.random.default_rng(21)
        base = rng.integers(0, 3, size=(40, 3)).astype(np.float64)
        dup = make_corpus(rng.integers(1500, 1530, size=300), base[rng.integers(0, 40, size=300)])
        grid = quantised_corpus(seed=22, n=400, dim=2, levels=3, year_lo=1500, year_hi=1540)
        for corpus in (dup, grid):
            for k, sigma in ((1, 0.5), (4, 1.0), (12, 3.0)):
                config = cn.RunConfig(k=k)
                for fraction in (0.01, 0.1):
                    years = redate(corpus, rng, fraction, move)
                    assert_update_like_rebuild(corpus, config, sigma, years)

    def test_underflow_and_k_above_candidates(self):
        rng = np.random.default_rng(23)
        grid = quantised_corpus(seed=24, n=150, dim=2, levels=2, year_lo=1500, year_hi=1510)
        wide = random_corpus(seed=25, n=120, dim=3, year_lo=1500, year_hi=1530)
        for corpus, config, sigma in ((grid, cn.RunConfig(k=4), 0.01),
                                      (wide, cn.RunConfig(k=40), 1.0),
                                      (wide, cn.RunConfig(k=500), 1.0)):
            for move in ("back", "forward", "wander"):
                assert_update_like_rebuild(corpus, config, sigma, redate(corpus, rng, 0.05, move))

    def test_own_year_and_earliest_year(self):
        corpus = random_corpus(seed=26, n=200, dim=3, year_lo=1500, year_hi=1540)
        config, sigma = cn.RunConfig(k=6), 1.0
        first = int(corpus.years.min())
        late = np.flatnonzero(corpus.years > first + 20)[:5]
        years = np.array(corpus.years)
        years[late[:3]] = first  # no candidates left
        graph = assert_update_like_rebuild(corpus, config, sigma, years)
        assert np.all(np.diff(graph.indptr)[late[:3]] == 0)
        assert_update_like_rebuild(corpus, config, sigma, np.array(corpus.years))  # drawn onto own years
        years = np.array(corpus.years)
        years[late[3:]] = first - 1  # a new earliest year of its own
        assert_update_like_rebuild(corpus, config, sigma, years)

    def test_one_artifact_years(self):
        rng = np.random.default_rng(27)
        years = np.concatenate((np.repeat(np.arange(1500, 1510), 12), [1520, 1530, 1540]))
        corpus = make_corpus(years, rng.normal(size=(years.size, 3)))
        config, sigma = cn.RunConfig(k=5), 1.0
        for row, year in ((120, 1505), (121, 1499), (121, 1545), (0, 1525), (13, 1541), (122, 1520)):
            moved = np.array(corpus.years)
            moved[row] = year  # out of, or into, a year holding one artifact
            assert_update_like_rebuild(corpus, config, sigma, moved)

    def test_every_artifact_moved(self):
        corpus = random_corpus(seed=28, n=300, dim=4, year_lo=1500, year_hi=1560)
        years = 3200 - corpus.years  # 1640-1700, the order of the years reversed
        assert_update_like_rebuild(corpus, cn.RunConfig(k=9), 1.2, years)

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_entrants_weighed_in_chunks(self, monkeypatch, chunk):
        # the (moved artifact, entered row) pairs are weighed a chunk at a
        # time; a chunk may start and end inside one artifact's rows
        corpus = random_corpus(seed=29, n=300, dim=3, year_lo=1500, year_hi=1540)
        rng = np.random.default_rng(30)
        use_edge_chunk(monkeypatch, chunk)
        for move in ("back", "wander"):
            assert_update_like_rebuild(corpus, cn.RunConfig(k=6), 1.0,
                                       redate(corpus, rng, 0.05, move))

    @pytest.mark.parametrize("prior, window", [("none", 500), ("window", 40)])
    def test_rebuilt_rows_span_several_slabs(self, monkeypatch, prior, window):
        use_slab_rows(monkeypatch, 16, 800)
        corpus = random_corpus(seed=30, n=800, dim=3, year_lo=1500, year_hi=1600)
        config, sigma = cn.RunConfig(k=10, temporal_prior=prior, temporal_window_k=window), 1.0
        rng = np.random.default_rng(31)
        plans = planned_slabs(monkeypatch)
        for move in ("back", "forward", "wander"):
            years = redate(corpus, rng, 0.05, move)
            first = len(plans)
            with mock.patch.object(graph_module, "_top_k", wraps=graph_module._top_k) as spy:
                assert_update_like_rebuild(corpus, config, sigma, years)
            rebuilt = [rows for rows in listed_rows(spy) if rows is not None]
            if prior == "none":
                # the baseline build, the update's rebuild of its listed rows, the full rebuild
                _, update, _ = plans[first:]
                assert len(rebuilt) == 1 and len(update) >= 2
            else:
                assert not rebuilt  # the window prior rebuilds every row as a full build


PLANTED_CONFIG = cn.RunConfig(k=30)


@pytest.mark.filterwarnings("ignore:n_test", "ignore:time machine with a temporal prior")
class TestTimeMachineAgainstOracle:
    @pytest.mark.parametrize("group, move", [("style=innovator", "back"),
                                             ("style=archetype", "forward"),
                                             ("style=wander", "wander")])
    @pytest.mark.parametrize("config", [
        PLANTED_CONFIG,
        dataclasses.replace(PLANTED_CONFIG, scoring="split", beta=0.3, alpha=0.85),
        dataclasses.replace(PLANTED_CONFIG, balancing_mode="local", local_window_years=40,
                            balance_anchor="source"),
        # k = 500: every earlier artifact of the 500 is a candidate
        dataclasses.replace(PLANTED_CONFIG, k=500),
    ], ids=["combined", "split", "local", "closed_form_k500"])
    def test_planted_experiments(self, planted, group, move, config):
        spec = cn.TimeMachineSpec(group=group, move=move, n_test=10, n_runs=3)
        assert_same_report(cn.run_time_machine(planted, config, spec),
                           reference_run_time_machine(planted, config, spec))

    @pytest.mark.parametrize("n_runs", [1, 2, 3])
    def test_every_split_of_the_runs(self, planted, n_runs):
        # a forked child takes the odd runs: with one run its half is empty,
        # with three the halves differ in size
        config = dataclasses.replace(PLANTED_CONFIG, scoring="split", beta=0.3)
        spec = cn.TimeMachineSpec(group="style=innovator", move="back", n_test=10,
                                  n_runs=n_runs, seed=8)
        report = cn.run_time_machine(planted, config, spec)
        assert [run.run for run in report.runs] == list(range(n_runs))
        assert_same_report(report, reference_run_time_machine(planted, config, spec))

    def test_window_prior_and_grid_ties(self):
        corpus = quantised_corpus(seed=32, n=300, dim=2, levels=3, year_lo=1500, year_hi=1560)
        spec = cn.TimeMachineSpec(group="ids=" + ",".join(corpus.ids[:40]), move="wander",
                                  move_mean=1530, move_std=20.0, n_test=3, n_runs=3, seed=5)
        for config in (cn.RunConfig(k=7), cn.RunConfig(k=7, temporal_prior="window",
                                                       temporal_window_k=30)):
            assert_same_report(cn.run_time_machine(corpus, config, spec),
                               reference_run_time_machine(corpus, config, spec))


def window_candidates(order, starts, ends, group, budget):
    """The candidates of one year group, read off the library's two position ranges."""
    a_lo, a_hi, b_lo = graph_module._candidate_ranges(starts, ends, budget)
    return np.concatenate((order[a_lo[group]:a_hi[group]], order[b_lo[group]:starts[group]]))


class TestWindowCandidatesAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 11), min_size=1, max_size=40))
    def test_every_group_and_budget(self, years):
        order, starts, ends = year_groups(years)
        for g in range(starts.size):
            for budget in range(1, len(years) + 2):
                got = window_candidates(order, starts, ends, g, budget)
                want = reference_window_candidates(order, starts, ends, g, budget)
                assert np.array_equal(got, want)

    def test_cut_inside_and_at_group_edges(self):
        # groups of 3, 1 and 4 artifacts, manifest order mixed across years
        years = np.array([1502, 1500, 1501, 1500, 1502, 1503, 1500, 1502, 1502])
        order, starts, ends = year_groups(years)
        assert [list(order[a:b]) for a, b in zip(starts, ends)] == \
            [[1, 3, 6], [2], [0, 4, 7, 8], [5]]
        for budget, want in ((1, [0]), (4, [0, 4, 7, 8]), (5, [2, 0, 4, 7, 8]),
                             (6, [1, 2, 0, 4, 7, 8]), (8, [1, 3, 6, 2, 0, 4, 7, 8]),
                             (20, [1, 3, 6, 2, 0, 4, 7, 8])):
            assert list(window_candidates(order, starts, ends, 3, budget)) == want


# ---------------------------------------------------------------------------
# Percentile, thresholds and CIN assembly.

class TestPercentileAgainstOracle:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([0.1, 0.25, 0.5, 0.75, 1.0]) | st.floats(1e-300, 1.0),
                    min_size=1, max_size=50),
           st.sampled_from([0.5, 1.0, 33.3, 50.0, 99.9, 100.0]) | st.floats(0.01, 100.0))
    def test_random_samples(self, values, p):
        values = np.array(values)
        got = implication_module._nearest_rank_percentile(values, p)
        assert got == reference_percentile(values, p)

    def test_graph_weights_every_p(self):
        corpus = random_corpus(seed=9, n=300, dim=4)
        graph = cn.build_graph(corpus, "visual", cn.RunConfig(k=12), 1.5)
        for p in (0.1, 25.0, 50.0, 75.0, 100.0):
            assert implication_module._nearest_rank_percentile(graph.weight, p) == \
                reference_percentile(graph.weight, p)


def thresholds_both_ways(graph, years, config):
    got = cn.compute_thresholds(graph, years, config)
    with mock.patch.object(implication_module, "_nearest_rank_percentile", reference_percentile):
        want = cn.compute_thresholds(graph, years, config)
    assert got.tobytes() == want.tobytes()
    if config.balancing_mode == "local":
        assert got.tobytes() == reference_local_thresholds(graph, years, config).tobytes()
    return got


balance_configs = st.builds(
    cn.RunConfig,
    balancing_mode=st.sampled_from(["global", "local"]),
    percentile_p=st.sampled_from([10.0, 50.0, 90.0, 100.0]),
    local_window_years=st.integers(1, 6),
    min_local_sample=st.integers(1, 30),
    balance_anchor=st.sampled_from(["destination", "source"]),
)


class TestNetworkAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(corpora(), graph_configs, kernel_sigmas, balance_configs)
    def test_random_corpora(self, corpus, config, sigma, balancing):
        graph = cn.build_graph(corpus, "visual", config, sigma)
        if graph.n_edges == 0:
            return
        m = thresholds_both_ways(graph, corpus.years, balancing)
        assert_same_network(cn.build_implication_network(graph, m, corpus.years, balancing),
                            reference_merged_network(graph, m, corpus.years,
                                                                balancing.balance_anchor))

    @pytest.mark.parametrize("anchor", ["destination", "source"])
    @pytest.mark.parametrize("mode", ["global", "local"])
    @pytest.mark.parametrize("p", [30.0, 50.0, 100.0])
    def test_larger_corpus(self, anchor, mode, p):
        corpus = random_corpus(seed=10, n=700, dim=4)
        graph = cn.build_graph(corpus, "visual", cn.RunConfig(k=20), 1.2)
        config = cn.RunConfig(balancing_mode=mode, percentile_p=p, local_window_years=30,
                              balance_anchor=anchor)
        m = thresholds_both_ways(graph, corpus.years, config)
        net = cn.build_implication_network(graph, m, corpus.years, config)
        assert net.reversed_count > 0
        assert_same_network(net, reference_merged_network(graph, m, corpus.years, anchor))

    def test_runs_to_merge_are_each_canonical(self):
        # `write_cin_csv` relies on scipy's sum of K and R^T being canonical,
        # which holds only if both terms are
        corpus = random_corpus(seed=10, n=700, dim=4)
        graph = cn.build_graph(corpus, "visual", cn.RunConfig(k=20), 1.2)
        m = cn.compute_thresholds(graph, corpus.years, cn.RunConfig())
        for anchor in ("destination", "source"):
            net = cn.build_implication_network(graph, m, corpus.years,
                                               cn.RunConfig(balance_anchor=anchor))
            kept, rev = net.kept, net.reversed
            keep = sparse.csc_matrix((kept.weight, kept.src, kept.indptr), shape=(graph.n, graph.n))
            flip = sparse.csr_matrix((rev.weight, rev.src, rev.indptr),
                                     shape=(graph.n, graph.n)).tocsc()
            assert keep.nnz > 0 and flip.nnz > 0
            for run in (keep, flip):
                column = np.repeat(np.arange(graph.n), np.diff(run.indptr))
                assert np.all(np.diff(column * graph.n + run.indices) > 0)

    def test_arbitrary_thresholds_with_exact_drops(self):
        corpus = quantised_corpus(seed=11, n=200, dim=2, levels=3, year_lo=1500, year_hi=1560)
        graph = cn.build_graph(corpus, "visual", cn.RunConfig(k=6), 1.0)
        rng = np.random.default_rng(11)
        m = rng.choice(np.unique(graph.weight), size=corpus.n)  # b = 0 drops edges
        for anchor in ("destination", "source"):
            net = cn.build_implication_network(graph, m, corpus.years,
                                               cn.RunConfig(balance_anchor=anchor))
            assert net.dropped_count > 0
            assert_same_network(net, reference_merged_network(graph, m, corpus.years, anchor))

    def test_opposed_pair_rejected_like_the_oracle(self):
        # a hand-made graph holding both 0 -> 1 and 1 -> 0: keeping one and reversing
        # the other yields the same CIN edge twice, which the oracle's store rejects;
        # the library rejects the backward edge 1 -> 0 before balancing
        graph = from_edges(cn.PaintingGraph, 2, [1, 0], [0, 1], [0.9, 0.1])
        m = np.array([0.5, 0.5])
        years = np.array([1500, 1600])
        with pytest.raises(ValueError, match="edge 1 -> 0 runs from year 1600 to year 1500"):
            cn.build_implication_network(graph, m, years, cn.RunConfig())
        with pytest.raises(ValueError, match="strictly sorted"):
            reference_merged_network(graph, m, years)


@contextlib.contextmanager
def edge_chunk(size):
    """`PaintingGraph`'s checks and the CIN's balancing `size` edges at a time, None for the default."""
    with mock.patch.object(graph_module, "_EDGE_BYTES", 8 * size if size else graph_module._EDGE_BYTES):
        yield


def assert_same_stores(got, want):
    """K, R and the dropped count of two networks, bit for bit."""
    for name in ("kept", "reversed"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.n == b.n
        for field in ("indptr", "src", "weight"):
            x, y = getattr(a, field), getattr(b, field)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (name, field)
    assert got.dropped_count == want.dropped_count


def networks_both_ways(graph, m, years, config, chunk):
    with edge_chunk(chunk):
        got = cn.build_implication_network(graph, m, years, config)
    assert_same_stores(got, reference_build_implication_network(graph, m, years, config))
    return got


def error_both_ways(graph, m, years, config, chunk):
    """The message of the library's and of the oracle's ValueError, which must agree; None if neither raises."""
    messages = []
    for build in (cn.build_implication_network, reference_build_implication_network):
        try:
            with edge_chunk(chunk if build is cn.build_implication_network else None):
                build(graph, m, years, config)
        except ValueError as exc:
            messages.append(str(exc))
        else:
            messages.append(None)
    assert messages[0] == messages[1]
    return messages[0]


EDGE_CHUNKS = [1, 7, None]
ANCHORS = [cn.RunConfig(balance_anchor="destination"), cn.RunConfig(balance_anchor="source")]


class TestChunkedNetworkAgainstPositionArrays:
    """K and R counted, then filled, a chunk at a time equal the position-array build bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(corpora(), graph_configs, kernel_sigmas, balance_configs, st.sampled_from(EDGE_CHUNKS))
    def test_random_corpora(self, corpus, config, sigma, balancing, chunk):
        graph = cn.build_graph(corpus, "visual", config, sigma)
        if graph.n_edges:
            m = cn.compute_thresholds(graph, corpus.years, balancing)
            networks_both_ways(graph, m, corpus.years, balancing, chunk)

    @pytest.mark.parametrize("chunk", EDGE_CHUNKS)
    @pytest.mark.parametrize("anchor", ["destination", "source"])
    @pytest.mark.parametrize("mode", ["global", "local"])
    def test_both_anchors_and_modes(self, chunk, anchor, mode):
        corpus = random_corpus(seed=10, n=150, dim=4)
        graph = cn.build_graph(corpus, "visual", cn.RunConfig(k=8), 1.2)
        config = cn.RunConfig(balancing_mode=mode, local_window_years=30, balance_anchor=anchor)
        m = cn.compute_thresholds(graph, corpus.years, config)
        net = networks_both_ways(graph, m, corpus.years, config, chunk)
        assert net.kept_count > 0 and net.reversed_count > 0

    @pytest.mark.parametrize("chunk", EDGE_CHUNKS)
    @pytest.mark.parametrize("config", ANCHORS, ids=["destination", "source"])
    def test_exact_zero_balance(self, chunk, config):
        corpus = quantised_corpus(seed=11, n=150, dim=2, levels=3, year_lo=1500, year_hi=1560)
        graph = cn.build_graph(corpus, "visual", cn.RunConfig(k=6), 1.0)
        m = np.random.default_rng(11).choice(np.unique(graph.weight), size=corpus.n)
        net = networks_both_ways(graph, m, corpus.years, config, chunk)
        assert net.dropped_count > 0

    @pytest.mark.parametrize("chunk", EDGE_CHUNKS)
    @pytest.mark.parametrize("config", ANCHORS, ids=["destination", "source"])
    @pytest.mark.parametrize("m, empty", [(0.0, "reversed"), (2.0, "kept")],
                             ids=["all_kept", "all_reversed"])
    def test_one_store_empty(self, chunk, config, m, empty):
        # every weight lies in (0, 1]
        corpus = random_corpus(seed=12, n=60, dim=3)
        graph = cn.build_graph(corpus, "visual", cn.RunConfig(k=5), 1.0)
        net = networks_both_ways(graph, np.full(graph.n, m), corpus.years, config, chunk)
        assert getattr(net, empty).n_edges == 0
        assert net.n_edges == graph.n_edges > 0

    @pytest.mark.parametrize("chunk", EDGE_CHUNKS)
    def test_every_edge_dropped(self, chunk):
        # one edge into each destination, judged by a threshold equal to its weight
        weight = np.linspace(0.1, 0.9, 29)
        graph = from_edges(cn.PaintingGraph, 30, np.arange(29), np.arange(1, 30), weight)
        net = networks_both_ways(graph, np.r_[0.5, weight], 1500 + np.arange(30), ANCHORS[0], chunk)
        assert net.n_edges == 0 and net.dropped_count == 29

    @pytest.mark.parametrize("chunk", EDGE_CHUNKS)
    def test_graph_without_edges(self, chunk):
        graph = cn.PaintingGraph(n=4, indptr=np.zeros(5, dtype=np.int64), src=[], weight=[])
        net = networks_both_ways(graph, np.full(4, 0.5), np.arange(4), ANCHORS[0], chunk)
        assert net.n_edges == net.dropped_count == 0

    @pytest.mark.parametrize("chunk", EDGE_CHUNKS)
    @pytest.mark.parametrize("seed", range(6))
    def test_backward_edge_named_like_the_oracle(self, chunk, seed):
        # a built graph whose years are then disturbed: some edges no longer run forward
        corpus = random_corpus(seed=13, n=120, dim=3, year_lo=1500, year_hi=1540)
        graph = cn.build_graph(corpus, "visual", cn.RunConfig(k=6), 1.0)
        rng = np.random.default_rng(seed)
        years = np.array(corpus.years)
        moved = rng.choice(corpus.n, size=1 + seed, replace=False)
        years[moved] = rng.integers(1500, 1541, size=moved.size)
        m = cn.compute_thresholds(graph, years, cn.RunConfig())
        message = error_both_ways(graph, m, years, ANCHORS[seed % 2], chunk)
        assert message is None or "every similarity edge must run" in message

    @pytest.mark.parametrize("chunk", EDGE_CHUNKS)
    def test_backward_edges_everywhere(self, chunk):
        graph, years = hand_made_graph(seed=14, n=40, n_edges=300, n_years=5)
        message = error_both_ways(graph, np.full(40, 0.5), years, ANCHORS[0], chunk)
        assert message.startswith("edge ")

    @pytest.mark.parametrize("chunk", EDGE_CHUNKS)
    def test_only_the_last_edge_backward(self, chunk):
        # destination j takes the sources j - 4 .. j - 1; moving artifact 48 to artifact
        # 49's year turns the last edge, 48 -> 49, and no other, backward
        dst = np.repeat(np.arange(50), np.minimum(np.arange(50), 4))
        src = dst - np.concatenate([np.arange(min(j, 4), 0, -1) for j in range(50)])
        graph = from_edges(cn.PaintingGraph, 50, src, dst, np.full(src.size, 0.5))
        years = 1500 + np.arange(50)
        years[48] = years[49]
        message = error_both_ways(graph, np.full(50, 0.25), years, ANCHORS[0], chunk)
        assert message.startswith("edge 48 -> 49 runs from year 1549 to year 1549")


def hand_made_graph(seed, n, n_edges, n_years, levels=0):
    """Random distinct ordered pairs in canonical order, sources as often later as earlier.

    `levels` > 0 quantises the weights onto that many values, so ties span ranks.
    """
    rng = np.random.default_rng(seed)
    years = 1500 + rng.integers(0, n_years, size=n)
    key = np.sort(rng.choice(n * (n - 1), size=min(n_edges, n * (n - 1)), replace=False))
    dst, src = np.divmod(key, n - 1)
    src += src >= dst  # skip the self pair
    if levels:
        weight = rng.integers(1, levels + 1, size=src.size) / levels
    else:
        weight = rng.random(src.size) + 1e-3
    return from_edges(cn.PaintingGraph, n, src, dst, weight), years


def window_sample_sizes(graph, years, w):
    """Per artifact: how many edges have both endpoint years within ±w of its year."""
    dst = edge_dst(graph)
    lo = np.maximum(years[graph.src], years[dst]) - w
    hi = np.minimum(years[graph.src], years[dst]) + w
    return np.array([int(((lo <= y) & (y <= hi)).sum()) for y in years])


def local_config(p=50.0, w=3, floor=1):
    return cn.RunConfig(balancing_mode="local", percentile_p=p, local_window_years=w,
                        min_local_sample=floor)


class TestLocalThresholdsAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 300),
           st.integers(1, 20), st.sampled_from([0, 1, 3, 8]),
           st.sampled_from([0.1, 10.0, 50.0, 99.9, 100.0]) | st.floats(0.01, 100.0),
           st.integers(1, 12), st.integers(1, 40))
    def test_hand_made_graphs(self, seed, n, n_edges, n_years, levels, p, w, floor):
        graph, years = hand_made_graph(seed, n, n_edges, n_years, levels)
        if graph.n_edges:
            thresholds_both_ways(graph, years, local_config(p, w, floor))

    def test_edges_never_in_window(self):
        graph, years = hand_made_graph(seed=20, n=60, n_edges=900, n_years=40)
        w = 3
        span = np.abs(years[graph.src] - years[edge_dst(graph)])
        assert np.any(span > 2 * w) and np.any(span <= 2 * w)
        thresholds_both_ways(graph, years, local_config(w=w))

    def test_no_edge_ever_in_window(self):
        # every edge spans more than 2w years: all samples are empty, all years fall back
        graph = from_edges(cn.PaintingGraph, 3, [1, 0, 0], [0, 1, 2], [0.2, 0.7, 0.4])
        years = np.array([1500, 1510, 1520])
        m = thresholds_both_ways(graph, years, local_config(w=4))
        assert np.all(m == reference_percentile(graph.weight, 50.0))

    def test_fallback_for_some_years_only(self):
        graph, years = hand_made_graph(seed=21, n=80, n_edges=1500, n_years=30)
        for floor in (20, 40, 60):
            config = local_config(w=2, floor=floor)
            sizes = window_sample_sizes(graph, years, config.local_window_years)
            assert np.any(sizes < floor) and np.any(sizes >= floor)
            thresholds_both_ways(graph, years, config)

    @pytest.mark.parametrize("p", [0.1, 100.0])
    def test_extreme_percentiles(self, p):
        graph, years = hand_made_graph(seed=22, n=70, n_edges=1200, n_years=25)
        m = thresholds_both_ways(graph, years, local_config(p=p, w=4))
        assert np.unique(m).size > 1

    def test_single_distinct_year(self):
        graph, years = hand_made_graph(seed=23, n=30, n_edges=200, n_years=1)
        assert np.unique(years).size == 1
        for p in (0.1, 50.0, 100.0):
            m = thresholds_both_ways(graph, years, local_config(p=p, w=1))
            assert m[0] == reference_percentile(graph.weight, p)

    def test_quantised_weights_tie_across_ranks(self):
        graph, years = hand_made_graph(seed=24, n=70, n_edges=1500, n_years=20, levels=4)
        assert np.unique(graph.weight).size == 4
        for p in (10.0, 25.0, 50.0, 75.0, 100.0):
            thresholds_both_ways(graph, years, local_config(p=p, w=3))

    def test_window_wider_than_year_span(self):
        graph, years = hand_made_graph(seed=25, n=50, n_edges=600, n_years=15)
        m = thresholds_both_ways(graph, years, local_config(w=100))
        assert np.all(m == reference_percentile(graph.weight, 50.0))

    def test_sources_later_than_destinations(self):
        # every edge points back in time, unlike any graph `build_graph` makes
        graph = from_edges(cn.PaintingGraph, 4, [1, 2, 3, 2, 3, 3], [0, 0, 0, 1, 1, 2],
                           [0.9, 0.3, 0.5, 0.6, 0.2, 0.8])
        years = np.array([1500, 1502, 1504, 1509])
        for w in (1, 2, 3, 5):
            thresholds_both_ways(graph, years, local_config(w=w))

    @pytest.mark.parametrize("n_edges", [1, 2, 3, 4, 8, 9, 10, 17, 120, 1000])
    def test_one_block_and_several(self, n_edges):
        # every edge spans at most 3 years, so all are in window; ranks are cut into
        # blocks of ceil(sqrt(E)): one block for E <= 2, then several, with a short
        # last block unless E is a square
        graph, years = hand_made_graph(seed=26 + n_edges, n=60, n_edges=n_edges, n_years=4)
        assert graph.n_edges == n_edges
        for p in (0.1, 50.0, 100.0):
            thresholds_both_ways(graph, years, local_config(p=p, w=3))


# ---------------------------------------------------------------------------
# The edge dumps' weights: `repr_bytes` against `repr`.

def assert_reprs(values):
    """Each value's row of `repr_bytes`, PAD bytes dropped, is `repr(float(value))`."""
    values = np.asarray(values, dtype=np.float64)
    chars = floatrepr_module.repr_bytes(values)
    kept = chars != floatrepr_module.PAD
    want = [repr(v).encode() for v in values.tolist()]
    if chars[kept].tobytes() != b"".join(want) or kept.sum(axis=1).tolist() != list(map(len, want)):
        got = [row[row != floatrepr_module.PAD].tobytes() for row in chars]
        wrong = [(w, g) for w, g in zip(want, got) if w != g]
        pytest.fail(f"{len(wrong)} of {len(want)} differ from repr, first {wrong[:5]}")


def bit_patterns(rng, n, lo, hi):
    """n doubles of random sign and mantissa, biased exponents uniform in [lo, hi)."""
    exponent = rng.integers(lo, hi, n, dtype=np.uint64) | (rng.integers(0, 2, n, dtype=np.uint64) << 11)
    return ((exponent << np.uint64(52)) | rng.integers(0, 1 << 52, n, dtype=np.uint64)).view(np.float64)


def neighbours(values, steps):
    """`values` and the `steps` doubles on either side of each."""
    out = [np.asarray(values, dtype=np.float64)]
    for direction in (-np.inf, np.inf):
        near = out[0]
        for _ in range(steps):
            near = np.nextafter(near, direction)
            out.append(near)
    return np.concatenate(out)


class TestReprBytesAgainstRepr:
    """The vector path covers [1e-7, 1); `repr` formats the rest and the doubtful cases."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(40)
        # every binade (exponent 0 holds the subnormals, 2047 inf and NaN), then the vector path's
        assert_reprs(bit_patterns(rng, 250_000, 0, 2048))
        assert_reprs(bit_patterns(rng, 250_000, 1023 - 25, 1023 + 1))

    def test_weight_like_draws(self):
        rng = np.random.default_rng(41)
        assert_reprs(rng.random(150_000))
        assert_reprs(10.0 ** rng.uniform(-8, 1, 150_000))
        assert_reprs(np.exp(-rng.uniform(0, 40, 150_000)))

    def test_short_decimals(self):
        rng = np.random.default_rng(42)
        x = rng.random(50_000) * 10.0 ** -rng.integers(0, 8, 50_000)
        rounded = [round(v, d) for v, d in zip(x.tolist(), rng.integers(1, 17, x.size).tolist())]
        assert_reprs(neighbours(rounded, 1))
        numerators = [rng.integers(1, 10 ** int(d)) for d in rng.integers(1, 18, 50_000)]
        assert_reprs(np.array(numerators, dtype=np.float64) / 10.0 ** rng.integers(1, 23, 50_000))

    def test_edge_cases(self):
        rng = np.random.default_rng(43)
        powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
        specials = [0.0, -0.0, 5e-324, 1.7976931348623157e308, np.inf, -np.inf, np.nan, 1.0, 0.1, 0.2,
                    0.3, -0.5, 2.0 ** -20, 1.5e-5, 9.999999999999999e-05]
        powers_of_ten = neighbours([10.0 ** e for e in range(-8, 1)] + [1e16], 50)
        # 16-digit candidates of 2**53 or more: the top tenth of each decade
        top = np.concatenate([10.0 ** -k * rng.uniform(0.9007199254740992, 1.0, 10_000)
                              for k in range(8)])
        # 17-digit candidates that round up to a power of ten: the doubles just below one
        below = np.concatenate([neighbours([10.0 ** -k], 200)[1:201] for k in range(8)])
        # odd multiples of 2**-j: exact decimals, ties at 16 or 17 digits among them
        j = rng.integers(4, 31, 20_000)
        dyadic = np.ldexp(2.0 * np.floor(rng.random(j.size) * 2.0 ** (j - 1)) + 1, -j)
        for values in (powers_of_two, specials, powers_of_ten, top, below, dyadic):
            assert_reprs(values)

    def test_weights_rarely_fall_back(self, monkeypatch):
        # a vector path silently off would send every value to `repr` and still match it
        taken = []
        fill = floatrepr_module._fill_with_repr
        monkeypatch.setattr(floatrepr_module, "_fill_with_repr",
                            lambda x, rows, chars: (taken.append(rows.size), fill(x, rows, chars)))
        weights = np.exp(-np.random.default_rng(44).uniform(0, 14, 200_000))
        assert_reprs(weights)
        assert sum(taken) < 0.01 * weights.size


# ---------------------------------------------------------------------------
# CSV edge writers.

AWKWARD_IDS = ["plain", "with,comma", 'with"quote', "with space", ' "both", ', "line\nbreak",
               "tab\there", "ünïcode", "x" * 40, "nul\x00inside", "four-byte \U0001F600"]

# Weights for both of `repr_bytes`' paths in one batch.
MIXED_WEIGHTS = [1.0, 5e-324, 1e-300, 2.0 ** -20, 1.5e-5, 9.999999999999999e-05, 0.5]


@pytest.fixture(params=[None, 3, 5], ids=["one_chunk", "chunk_3", "chunk_5"])
def csv_chunk(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(graph_module, "_CSV_BYTES", request.param * graph_module._CSV_ROW_BYTES)


class TestCsvWritersAgainstOracle:
    def build(self):
        rng = np.random.default_rng(12)
        n = len(AWKWARD_IDS)
        corpus = make_corpus(1500 + rng.permutation(n), rng.normal(size=(n, 2)), ids=AWKWARD_IDS)
        graph = cn.build_graph(corpus, "visual", cn.RunConfig(k=4), 1.0)
        return corpus, graph, balance(graph, corpus.years)

    def test_graph_csv_bytes(self, tmp_path, csv_chunk):
        corpus, graph, _ = self.build()
        cn.write_graph_csv(graph, corpus.ids, tmp_path / "got.csv")
        reference_write_graph_csv(graph, corpus.ids, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_cin_csv_bytes(self, tmp_path, csv_chunk):
        corpus, graph, net = self.build()
        assert net.kept_count and net.reversed_count
        m = cn.compute_thresholds(graph, corpus.years, cn.RunConfig())
        cn.write_cin_csv(net, corpus.ids, tmp_path / "got.csv")
        reference_write_cin_csv(reference_merged_network(graph, m, corpus.years),
                                corpus.ids, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def mixed(self, seed):
        """A graph and a network over AWKWARD_IDS with every pair's edge, weights from both paths.

        Destination j's run holds j edges, so small batches end inside runs.
        K's edges run forward and R's flipped ones backward, so no entry of
        K + R^T sums two edges.
        """
        rng = np.random.default_rng(seed)
        n = len(AWKWARD_IDS)
        dst, src = np.nonzero(np.tri(n, k=-1, dtype=bool))
        weight = rng.choice(MIXED_WEIGHTS + np.exp(-rng.uniform(0, 14, 8)).tolist(), src.size)
        graph = from_edges(cn.PaintingGraph, n, src, dst, weight)
        kept = rng.random(src.size) < 0.5
        flipped = rng.permutation(weight)
        net = cn.ImplicationNetwork(kept=from_edges(cn.PaintingGraph, n, src[kept], dst[kept], weight[kept]),
                                    reversed=from_edges(cn.PaintingGraph, n, src[~kept], dst[~kept],
                                                        flipped[~kept]),
                                    dropped_count=0)
        return graph, net

    def test_weights_of_both_paths(self, tmp_path, csv_chunk):
        graph, net = self.mixed(13)
        for write, reference, store in ((cn.write_graph_csv, reference_write_graph_csv, graph),
                                        (cn.write_cin_csv, reference_write_cin_csv, net)):
            write(store, AWKWARD_IDS, tmp_path / "got.csv")
            reference(store if store is graph else merged(store), AWKWARD_IDS, tmp_path / "want.csv")
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_quoted_ids_read_back(self, tmp_path):
        corpus, graph, _ = self.build()
        cn.write_graph_csv(graph, corpus.ids, tmp_path / "graph.csv")
        with open(tmp_path / "graph.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [(r[0], r[1]) for r in rows] == \
            [(corpus.ids[s], corpus.ids[d]) for s, d in zip(graph.src, edge_dst(graph))]

    def test_empty_edge_lists(self, tmp_path):
        corpus = make_corpus([1500, 1500], np.eye(2), ids=["a,b", "c"])
        graph = cn.build_graph(corpus, "visual", cn.RunConfig(k=1), 1.0)
        net = cn.build_network(corpus, "visual", cn.RunConfig(k=1), 1.0, graph)[2]
        empty = from_edges(ReferenceNetwork, corpus.n, [], [], [], prior=[], kept_count=0,
                           reversed_count=0, dropped_count=0)
        for write, reference, got, want in (
                (cn.write_graph_csv, reference_write_graph_csv, graph, graph),
                (cn.write_cin_csv, reference_write_cin_csv, net, empty)):
            write(got, corpus.ids, tmp_path / "got.csv")
            reference(want, corpus.ids, tmp_path / "want.csv")
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# ---------------------------------------------------------------------------
# Scoring operator.

networks = st.builds(random_network, seed=st.integers(0, 2**32 - 1), n=st.integers(10, 80),
                     k=st.integers(1, 10), p=st.sampled_from([25.0, 50.0, 75.0, 100.0]))
alphas = st.sampled_from([0.15, 0.5, 0.85])


def scoring(beta):
    """The scoring settings of the merged-network oracles' `beta`: combined when it is None."""
    return COMBINED if beta is None else split(beta)


class TestOperatorAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(networks, st.sampled_from([None, 0.0, 1.0]) | st.floats(0.01, 0.99))
    def test_operator_bits(self, net, beta):
        # split scoring divides each store as the merged operator divided each
        # label, so every entry keeps its bits; a combined column total adds
        # K's sum and R's in another order
        op = cn.normalize(net, scoring(beta))
        want = MergedNetworkOperator(merged(net), beta)
        assert op.dangling.tobytes() == want.dangling.tobytes()
        if beta is None:
            assert np.max(np.abs(dense_matrix(op) - dense_matrix(want))) <= 1e-15
        else:
            assert dense_matrix(op).tobytes() == dense_matrix(want).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(corpora(), graph_configs, kernel_sigmas, balance_configs,
           st.none() | st.floats(0.01, 0.99), alphas)
    def test_against_the_merged_network(self, corpus, config, sigma, balancing, beta, alpha):
        graph = cn.build_graph(corpus, "visual", config, sigma)
        if graph.n_edges == 0:
            return
        m = cn.compute_thresholds(graph, corpus.years, balancing)
        op = cn.normalize(cn.build_implication_network(graph, m, corpus.years, balancing),
                          scoring(beta))
        want = MergedNetworkOperator(reference_merged_network(
            graph, m, corpus.years, balancing.balance_anchor), beta)
        assert np.max(np.abs(dense_matrix(op) - dense_matrix(want))) <= 1e-15
        solving = cn.RunConfig(alpha=alpha)
        got, ref = cn.solve_power(op, solving), cn.solve_power(want, solving)
        assert np.max(np.abs(got.scores - ref.scores) / ref.scores) <= 1e-13

    @settings(max_examples=60, deadline=None)
    @given(networks, alphas)
    def test_beta_limits_bitwise(self, net, alpha):
        ref_prior = reference_normalize(net, "prior")
        ref_subseq = reference_normalize(net, "subsequent")
        for beta in (0.0, 1.0):
            power = reference_solve_split(ref_prior, ref_subseq, alpha, beta)
            closed = reference_solve_split_closed_form(ref_prior, ref_subseq, alpha, beta)
            op = cn.normalize(net, split(beta))
            got = cn.solve_power(op, cn.RunConfig(alpha=alpha))
            assert np.array_equal(got.scores, power.scores)
            assert got.iterations == power.iterations
            assert np.array_equal(solve_closed_form(op, alpha).scores, closed.scores)

    @settings(max_examples=60, deadline=None)
    @given(networks, alphas, st.floats(0.01, 0.99))
    def test_fractional_beta(self, net, alpha, beta):
        ref_prior = reference_normalize(net, "prior")
        ref_subseq = reference_normalize(net, "subsequent")
        op = cn.normalize(net, split(beta))
        got = cn.solve_power(op, cn.RunConfig(alpha=alpha))
        want = reference_solve_split(ref_prior, ref_subseq, alpha, beta)
        assert got.iterations == want.iterations
        assert np.max(np.abs(got.scores - want.scores) / want.scores) <= 1e-13
        blend = beta * ref_prior.dense() + (1.0 - beta) * ref_subseq.dense()
        assert np.max(np.abs(dense_matrix(op) - blend)) <= 1e-15


class TestKernelsAgainstScipyMatrices:
    """The kernel calls give the bits of the scipy matrix operations they replaced."""

    @settings(max_examples=40, deadline=None)
    @given(networks, st.sampled_from([None, 0.0, 1.0, 0.3]))
    def test_operator_products(self, net, beta):
        op = cn.normalize(net, scoring(beta))
        n = op.n
        c = np.random.default_rng(n).dirichlet(np.ones(n))
        ones = np.ones(n)
        want = np.zeros(n)
        # K's arrays read by column, R's by row as R^T
        for store, values, by_row in ((net.kept, op.kept_values, False),
                                      (net.reversed, op.reversed_values, True)):
            if values is None:
                continue
            indptr, src = _kernels.index_arrays(store, store.n_edges)
            kind = sparse.csr_matrix if by_row else sparse.csc_matrix
            matrix = kind((values, src, indptr), shape=(n, n))
            product = matrix @ c
            want += product
            assert scoring_module._product(by_row, indptr, src, values, c).tobytes() == product.tobytes()
            assert scoring_module._product(not by_row, indptr, src, values, ones).tobytes() == \
                (matrix.T @ ones).tobytes()
        got = op.apply(c)
        support = np.flatnonzero(op.dangling)
        lost = float((op.dangling[support] * c[support]).sum())
        if lost:
            want += lost / n
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(networks)
    def test_merged_network(self, net):
        n, kept, rev = net.kept.n, net.kept, net.reversed
        want = (sparse.csc_matrix((kept.weight, kept.src, kept.indptr), shape=(n, n))
                + sparse.csr_matrix((-rev.weight, rev.src, rev.indptr), shape=(n, n)).tocsc())
        indptr, indices, data = implication_module._merged(net)
        assert indptr.tolist() == want.indptr.tolist()
        assert indices.tolist() == want.indices.tolist()
        assert data.tobytes() == want.data.tobytes()


class TestSigmaAgainstPdist:
    @pytest.mark.parametrize("dim", range(1, 129))
    def test_every_pair_distance_bits(self, dim):
        # up to 141 artifacts every pair is measured; the median of the same
        # distances is the same sigma
        rng = np.random.default_rng(dim)
        for n, scale in ((2, 1.0), (int(rng.integers(3, 142)), 1e-3), (141, 1e6)):
            x = rng.normal(size=(n, dim)) * scale
            x[-1] = x[0]  # a zero distance too
            want = float(np.median(pdist(x, "euclidean")))
            if want > 0.0:
                assert cn.estimate_sigma(cn.FeatureSet("visual", x), seed=0) == want

    def test_median_bits(self):
        # sigma is the median of the distances without `np.median`, which imports `numpy.ma`
        rng = np.random.default_rng(4)
        for size in (*range(1, 40), 9870, 10_000):
            for values in (rng.random(size), rng.integers(0, 3, size).astype(np.float64),
                           rng.random(size) * 1e300):
                assert corpus_module._median(values) == float(np.median(values))

    def test_float32_features(self):
        x = np.random.default_rng(3).normal(size=(90, 7)).astype(np.float32)
        want = float(np.median(pdist(x, "euclidean")))
        assert cn.estimate_sigma(cn.FeatureSet("visual", x), seed=0) == want


# ---------------------------------------------------------------------------
# The CSV feature reader parses blocks of lines with numpy's C reader and
# hands every block that reader rejects, or may read otherwise, to the row
# parser; a row at a time with Python floats is the oracle.

def read_outcome(read, path):
    """The array `read(path, "visual")` returns, or the type and message of what it raises.

    A warning is raised as an error, so a reader that warns differs from the oracle.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return read(path, "visual")
    except Exception as exc:  # compared with the oracle's
        return type(exc), str(exc)


def assert_reads_like_oracle(path):
    got, want = read_outcome(cn.read_features, path), read_outcome(reference_read_features, path)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray), got
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


CSV_INPUTS = {
    "plain": "1.5,-2.25\n3,4\n",
    "bom": "\ufeff1.5,2\n3,4\n",
    "crlf": "1,2\r\n3,4\r\n",
    "cr_only": "1,2\r3,4\r",
    "no_final_newline": "1,2\n3,4",
    "blank_lines": "\n1,2\n\n\r\n3,4\n\n",
    "whitespace_only_line": "1,2\n  \t\n3,4\n",
    "comma_only_line": "1,2\n,\n3,4\n,,\n",
    "quoted_cells": '"1",2\n3," 4 "\n',
    "quoted_newline": '"1\n",2\n3,4\n',
    "quoted_newline_then_fault": '1,2\n"3\n",4\n5,x\n',
    "quoted_text": '1,2\n"a,b",3\n',
    "underscore": "1_5,2\n3,4\n",
    "signs_and_points": "+1.5,.5\n5.,-0.0\n-.5e3,+5E-1\n",
    "subnormals": "4.9e-324,2.2250738585072014e-308\n1e-400,2.5e-320\n",
    "long_digits": "0.1000000000000000055511151231257827,3.14159265358979323846264338327950288\n",
    "nan": "1,2\nnan,0\n",
    "minus_infinity": "1,2\n3,-Infinity\n",
    "overflow": "1,2\n1e400,0\n",
    "ragged_short": "1,2\n3\n",
    "ragged_long": "1,2\n3,4,5\n",
    "text_cell": "1,2\n3,abc\n",
    "trailing_commas": "1,2,\n3,4,\n",
    "hash_line": "#x,y\n1,2\n",
    "hash_cell": "1,#2\n",
    "hex": "0x1p3,2\n",
    "empty": "",
    "only_blank_lines": "\n\r\n\n",
    "only_whitespace": "  \n\t\n",
    "spaces_around_cells": " 1 ,\t2 \n\x0b3\x0c,4\n",
    "ascii_separators": "\x1c1,2\n",
    "unit_separator_after": "1,2\x1f\n",
    "non_ascii_space": "\xa01,2\n",
    "non_ascii_digits": "\u0661,2\n",
    "one_column": "1\n2\n\n3\n",
    "nul": "1,2\x00\n",
    "inner_space": "1 2,3\n",
}


class TestCsvFeaturesAgainstRowParser:
    @pytest.mark.parametrize("block", [None, 8, 40])
    @pytest.mark.parametrize("name", sorted(CSV_INPUTS))
    def test_table(self, tmp_path, monkeypatch, name, block):
        if block is not None:  # about block / 4 characters of lines a block
            monkeypatch.setattr(corpus_module, "_CHUNK_BYTES", block)
        path = tmp_path / "f.csv"
        path.write_bytes(CSV_INPUTS[name].encode("utf-8"))
        assert_reads_like_oracle(path)

    @pytest.mark.parametrize("fault", ["text", "ragged", "nan", "quote", "comma", "whitespace",
                                       "underscore", "none"])
    @pytest.mark.parametrize("block", [64, 1000, None])
    def test_fault_in_a_later_block(self, tmp_path, monkeypatch, fault, block):
        # 40 rows of repr'd values, then a row that the C reader rejects, then more rows
        if block is not None:
            monkeypatch.setattr(corpus_module, "_CHUNK_BYTES", block)
        rng = np.random.default_rng(5)
        rows = [",".join(map(repr, row)) for row in rng.normal(size=(60, 3)).tolist()]
        rows[40] = {"text": "1,x,3", "ragged": "1,2", "nan": "1,nan,3", "quote": '"1",2,3',
                    "comma": ",,", "whitespace": "  ", "underscore": "1_0,2,3",
                    "none": rows[40]}[fault]
        path = tmp_path / "f.csv"
        path.write_text("\r\n".join(rows) + "\r\n", encoding="utf-8", newline="")
        assert_reads_like_oracle(path)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_files(self, tmp_path, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        numbers = ["1", "-2.5", "+1.5", ".5", "5.", "1e3", "4.9e-324", "1e-400", " 7 ", "\t8",
                   "0.1", "-0"]
        odd = ["1_5", "nan", "-Infinity", "1e400", "0x1p3", "", " ", "abc", '"4"', '"5\n"',
               "#", "\x1c1", "\xa02", "\u0661", "1 2"]
        lines = []
        for _ in range(int(rng.integers(0, 30))):
            if rng.random() < 0.1:
                lines.append(str(rng.choice(["", " ", ",", ",,,"])))
                continue
            width = 3 if rng.random() < 0.95 else int(rng.integers(1, 5))
            cells = [str(rng.choice(odd if rng.random() < 0.03 else numbers)) for _ in range(width)]
            lines.append(",".join(cells))
        ends = [str(rng.choice(["\n", "\r\n", "\r"])) for _ in lines]
        text = "".join(line + end for line, end in zip(lines, ends))
        if rng.random() < 0.2:
            text = "\ufeff" + text
        path = tmp_path / "f.csv"
        path.write_bytes(text.encode("utf-8"))
        for block in (None, int(rng.integers(1, 200))):
            if block is not None:
                monkeypatch.setattr(corpus_module, "_CHUNK_BYTES", block)
            assert_reads_like_oracle(path)

    def test_binary_file(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(bytes(range(256)) * 4)
        got = read_outcome(cn.read_features, path)
        assert got == read_outcome(reference_read_features, path)
        assert got[1].endswith("neither CSV text nor CRFT binary")
