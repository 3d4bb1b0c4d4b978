"""Graph construction against a brute-force all-pairs oracle."""

import mmap
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import creanet as cn
from creanet import graph as graph_module

from conftest import (chain_graph, edge_dst, from_edges, make_corpus, random_corpus, traced_peak,
                      use_cpus, use_edge_chunk, use_slab_rows, visual_similarity)
from test_oracles import assert_same_graph, reference_build_graph


def brute_force_edges(corpus, aspect, k, sigma, window_k=None):
    """All-pairs reference builder: plain loops, scalar kernel, explicit sorting."""
    feats = corpus.features[aspect].vectors
    years = corpus.years
    n = corpus.n
    edges = set()
    weights = {}
    for j in range(n):
        prior = [i for i in range(n) if years[i] < years[j]]
        if window_k is not None:
            # k latest strictly-prior artifacts: year descending, manifest order ascending
            prior.sort(key=lambda i: (-years[i], i))
            prior = prior[:window_k]
        candidates = []
        for i in prior:
            w = visual_similarity(feats[i], feats[j], sigma)
            if w > 0.0:
                candidates.append((i, w))
        # top-K by weight, ties favor the smaller source index
        candidates.sort(key=lambda t: (-t[1], t[0]))
        for i, w in candidates[:k]:
            edges.add((i, j))
            weights[(i, j)] = w
    return edges, weights


def graph_edge_set(graph):
    return set(zip(graph.src.tolist(), edge_dst(graph).tolist()))


class TestBuildGraph:
    def test_brute_force_oracle_random_corpus(self):
        corpus = random_corpus(seed=10, n=50, dim=4)
        sigma = cn.estimate_sigma(corpus.features["visual"], seed=0)
        for k in (1, 3, 10):
            graph = cn.build_graph(corpus, "visual", cn.RunConfig(k=k), sigma)
            expected, weights = brute_force_edges(corpus, "visual", k, sigma)
            assert graph_edge_set(graph) == expected
            for s, d, w in zip(graph.src, edge_dst(graph), graph.weight):
                assert w == pytest.approx(weights[(s, d)], rel=1e-12)

    def test_brute_force_oracle_with_window_prior(self):
        corpus = random_corpus(seed=11, n=60, dim=3, year_lo=1500, year_hi=1520)
        sigma = cn.estimate_sigma(corpus.features["visual"], seed=0)
        for window in (1, 5, 17):
            config = cn.RunConfig(k=4, temporal_prior="window", temporal_window_k=window)
            graph = cn.build_graph(corpus, "visual", config, sigma)
            expected, _ = brute_force_edges(corpus, "visual", 4, sigma, window_k=window)
            assert graph_edge_set(graph) == expected

    def test_same_year_pairs_never_connected(self):
        corpus = make_corpus([1500, 1600, 1600], np.zeros((3, 2)))
        graph = cn.build_graph(corpus, "visual", cn.RunConfig(k=5), 1.0)
        assert graph_edge_set(graph) == {(0, 1), (0, 2)}

    def test_top_k_keeps_largest_weight(self):
        # three same-year priors at distances giving weights 0.2, 0.9, 0.4;
        # K = 1 keeps only the 0.9 edge into the later node
        d = [np.sqrt(-2.0 * np.log(w)) for w in (0.2, 0.9, 0.4)]
        feats = np.array([[d[0]], [d[1]], [d[2]], [0.0]])
        corpus = make_corpus([1500, 1500, 1500, 1600], feats)
        graph = cn.build_graph(corpus, "visual", cn.RunConfig(k=1), 1.0)
        assert graph_edge_set(graph) == {(1, 3)}
        assert graph.weight[0] == pytest.approx(0.9, rel=1e-12)

    def test_weight_tie_prefers_smaller_source_index(self):
        # same-year sources 1 and 2 are identical, hence equal weight; K = 1 must pick index 1
        feats = np.array([[5.0], [1.0], [1.0], [0.0]])
        corpus = make_corpus([1500, 1500, 1500, 1600], feats)
        graph = cn.build_graph(corpus, "visual", cn.RunConfig(k=1), 1.0)
        assert graph_edge_set(graph) == {(1, 3)}

    def test_window_tie_prefers_earlier_manifest_row(self):
        # both candidates share year 1500; a window of 1 admits the earlier row only
        feats = np.array([[0.0], [1.0], [0.5]])
        corpus = make_corpus([1500, 1500, 1600], feats)
        config = cn.RunConfig(k=5, temporal_prior="window", temporal_window_k=1)
        graph = cn.build_graph(corpus, "visual", config, 1.0)
        assert graph_edge_set(graph) == {(0, 2)}

    def test_underflowed_weights_dropped(self):
        feats = np.array([[0.0], [1e6], [0.0]])
        corpus = make_corpus([1500, 1501, 1600], feats)
        graph = cn.build_graph(corpus, "visual", cn.RunConfig(k=5), 1.0)
        # the distance-1e6 candidate underflows to weight 0 and is dropped
        assert graph_edge_set(graph) == {(0, 2)}
        assert graph.weight.min() > 0.0

    def test_unknown_aspect(self):
        corpus = make_corpus([1500, 1600], np.eye(2))
        with pytest.raises(ValueError, match="aspect 'other'"):
            cn.build_graph(corpus, "other", cn.RunConfig(k=1), 1.0)

    def test_single_artifact_and_single_year(self):
        one = make_corpus([1500], np.ones((1, 2)))
        assert cn.build_graph(one, "visual", cn.RunConfig(k=1), 1.0).n_edges == 0
        flat = make_corpus([1500] * 4, np.eye(4))
        assert cn.build_graph(flat, "visual", cn.RunConfig(k=2), 1.0).n_edges == 0

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan")])
    def test_bad_sigma_rejected_when_nothing_is_weighed(self, sigma):
        flat = make_corpus([1500] * 4, np.eye(4))  # one year: no slab is ranked
        with pytest.raises(ValueError, match="sigma"):
            cn.build_graph(flat, "visual", cn.RunConfig(k=2), sigma)


@pytest.fixture(scope="module")
def built():
    corpus = random_corpus(seed=12, n=80, dim=4)
    sigma = cn.estimate_sigma(corpus.features["visual"], seed=0)
    return corpus, cn.build_graph(corpus, "visual", cn.RunConfig(k=6), sigma)


class TestGraphInvariants:
    def test_incoming_degree_capped(self, built):
        corpus, graph = built
        counts = np.diff(graph.indptr)
        assert counts.max() <= 6
        assert graph.n_edges <= corpus.n * 6

    def test_edges_point_strictly_forward_in_time(self, built):
        corpus, graph = built
        assert np.all(corpus.years[graph.src] < corpus.years[edge_dst(graph)])

    def test_antisymmetry(self, built):
        _, graph = built
        pairs = graph_edge_set(graph)
        assert all((d, s) not in pairs for s, d in pairs)

    def test_earliest_no_incoming_latest_no_outgoing(self, built):
        corpus, graph = built
        earliest = corpus.years == corpus.years.min()
        latest = corpus.years == corpus.years.max()
        assert not np.any(earliest[edge_dst(graph)])
        assert not np.any(latest[graph.src])

    def test_acyclic_by_kahn_elimination(self, built):
        # independent cycle check that never consults the year column
        corpus, graph = built
        indegree = np.bincount(edge_dst(graph), minlength=corpus.n)
        outgoing = {}
        for s, d in zip(graph.src.tolist(), edge_dst(graph).tolist()):
            outgoing.setdefault(s, []).append(d)
        queue = [i for i in range(corpus.n) if indegree[i] == 0]
        removed = 0
        while queue:
            node = queue.pop()
            removed += 1
            for d in outgoing.get(node, []):
                indegree[d] -= 1
                if indegree[d] == 0:
                    queue.append(d)
        assert removed == corpus.n

    def test_canonical_edge_order(self, built):
        _, graph = built
        key = edge_dst(graph) * graph.n + graph.src
        assert np.all(np.diff(key) > 0)

    def test_sources_stored_as_int32(self, built):
        _, graph = built
        assert graph.src.dtype == np.int32 and graph.indptr.dtype == np.int64


class TestPaintingGraphValidation:
    def test_holds_and_freezes_the_callers_arrays(self):
        # arrays already in their fields' dtypes are kept, not copied, and made read-only
        indptr = np.array([0, 0, 1], dtype=np.int64)
        src = np.array([0], dtype=np.int32)
        w = np.array([0.5])
        graph = cn.PaintingGraph(n=2, indptr=indptr, src=src, weight=w)
        assert graph.weight is w and graph.src is src and graph.indptr is indptr
        assert not w.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 0.7

    @pytest.mark.parametrize("src, weight, message", [
        ([1], [0.5], "self edges"),
        ([0], [0.0], "positive and finite"),
        ([0, 0], [0.5, 0.5], "sorted"),
    ], ids=["self", "weight", "sort"])
    def test_a_rejected_input_leaves_the_callers_arrays_writeable(self, src, weight, message):
        # the arrays are held as they are, so they are frozen only once every check has passed
        indptr = np.array([0, 0, len(src)], dtype=np.int64)
        src, weight = np.array(src, dtype=np.int32), np.array(weight)
        with pytest.raises(ValueError, match=message):
            cn.PaintingGraph(n=2, indptr=indptr, src=src, weight=weight)
        assert indptr.flags.writeable and src.flags.writeable and weight.flags.writeable

    def test_rejects_self_edge(self):
        with pytest.raises(ValueError, match="self edges"):
            from_edges(cn.PaintingGraph, 2, [1], [1], [0.5])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="positive"):
            from_edges(cn.PaintingGraph, 2, [0], [1], [0.0])

    def test_rejects_unsorted_edges(self):
        # sources decreasing within destination 2's column
        with pytest.raises(ValueError, match="sorted"):
            cn.PaintingGraph(n=3, indptr=[0, 0, 0, 2], src=[1, 0], weight=[0.5, 0.5])

    def test_rejects_duplicate_ordered_pair(self):
        # source 0 repeated within destination 1's column
        with pytest.raises(ValueError, match="sorted"):
            cn.PaintingGraph(n=2, indptr=[0, 0, 2], src=[0, 0], weight=[0.5, 0.5])

    def test_new_column_may_restart_sources(self):
        graph = cn.PaintingGraph(n=4, indptr=[0, 0, 1, 1, 3], src=[3, 0, 1], weight=[0.5] * 3)
        assert graph_edge_set(graph) == {(3, 1), (0, 3), (1, 3)}

    def test_rejects_decreasing_indptr(self):
        with pytest.raises(ValueError, match="indptr"):
            cn.PaintingGraph(n=3, indptr=[0, 2, 1, 2], src=[0, 2], weight=[0.5, 0.5])

    @pytest.mark.parametrize("indptr", [[1, 1, 2], [0, 0, 1], [0, 0, 3]], ids=["start", "end", "past_end"])
    def test_rejects_indptr_with_wrong_ends(self, indptr):
        with pytest.raises(ValueError, match="indptr"):
            cn.PaintingGraph(n=2, indptr=indptr, src=[0, 1], weight=[0.5, 0.5])

    @pytest.mark.parametrize("indptr", [[0, 2], [0, 0, 0, 2]], ids=["short", "long"])
    def test_rejects_indptr_of_wrong_length(self, indptr):
        with pytest.raises(ValueError, match="indptr"):
            cn.PaintingGraph(n=2, indptr=indptr, src=[0, 1], weight=[0.5, 0.5])

    def test_rejects_out_of_range_endpoint(self):
        for src in (2, -1, 2 ** 32):  # 2**32 would wrap to 0 as int32
            with pytest.raises(ValueError, match="out of range"):
                from_edges(cn.PaintingGraph, 2, [src], [1], [0.5])

    def test_rejects_no_nodes(self):
        with pytest.raises(ValueError, match="n must be"):
            cn.PaintingGraph(n=0, indptr=[0], src=[], weight=[])

    def test_rejects_weight_length_mismatch(self):
        with pytest.raises(ValueError, match="weight"):
            cn.PaintingGraph(n=2, indptr=[0, 0, 1], src=[0], weight=[0.5, 0.5])

    @pytest.mark.parametrize("n", [-1, 2 ** 31])
    def test_rejects_node_count_out_of_range(self, n):
        with pytest.raises(ValueError, match=r"n must be in \[1, 2\*\*31\)"):
            cn.PaintingGraph(n=n, indptr=[0], src=[], weight=[])

    def test_rejects_two_dimensional_src(self):
        with pytest.raises(ValueError, match="src must be 1-D"):
            cn.PaintingGraph(n=2, indptr=[0, 0, 0], src=np.zeros((1, 0)), weight=[])


RING_N = 8


def ring_edges():
    """A valid store of 24 edges: destination j takes the sources (j + 1 .. j + 3) mod 8, sorted.

    Destination 0 owns edges 0-2, destination 1 owns 3-5 and destination 7 owns
    21-23, so with 2 or 4 edges per span destination 1's edges straddle a span
    boundary.
    """
    src = [sorted((j + d) % RING_N for d in (1, 2, 3)) for j in range(RING_N)]
    return ([s for row in src for s in row], [j for j in range(RING_N) for _ in range(3)],
            [0.5] * (3 * RING_N))


def ring_graph(src, dst, weight):
    return from_edges(cn.PaintingGraph, RING_N, src, dst, weight)


def with_self_edge(src, j, at):
    """Destination j's sources replaced by j - at, j - at + 1, j - at + 2: ascending, j at offset `at`."""
    return src[:3 * j] + [j - at + i for i in range(3)] + src[3 * j + 3:]


# Which message wins when an input breaks several checks: the checks run in this order.
MESSAGES = {
    "range": "out of range",
    "weight length": "weight must be 1-D",
    "self": "self edges are not allowed",
    "weight": "positive and finite",
    "sort": r"strictly sorted by \(dst, src\)",
}


class TestPaintingGraphChecks:
    """The per-edge checks, with the fault in the first, the last and a straddling destination."""

    @pytest.fixture(autouse=True, params=[1, 2, 4, None], ids=["chunk1", "chunk2", "chunk4", "default"])
    def chunk(self, request, monkeypatch):
        if request.param is not None:
            use_edge_chunk(monkeypatch, request.param)

    def test_valid_store_accepted(self):
        # most destinations restart their sources below the previous destination's last one
        src, dst, weight = ring_edges()
        assert sum(src[3 * j] < src[3 * j - 1] for j in range(1, RING_N)) >= 2
        assert ring_graph(src, dst, weight).n_edges == 24

    @pytest.mark.parametrize("edge", [0, 4, 23])
    @pytest.mark.parametrize("value", [-1, RING_N, 2 ** 32])
    def test_endpoint_range(self, edge, value):
        src, dst, weight = ring_edges()
        src[edge] = value
        with pytest.raises(ValueError, match="edge endpoints out of range"):
            ring_graph(src, dst, weight)

    @pytest.mark.parametrize("j, at", [(0, 0), (1, 0), (1, 1), (7, 2)],
                             ids=["first", "before_boundary", "after_boundary", "last"])
    def test_self_edge(self, j, at):
        src, dst, weight = ring_edges()
        with pytest.raises(ValueError, match=MESSAGES["self"]):
            ring_graph(with_self_edge(src, j, at), dst, weight)

    @pytest.mark.parametrize("edge", [0, 3, 4, 5, 23])
    @pytest.mark.parametrize("value", [0.0, -0.5, np.nan, np.inf, -np.inf])
    def test_weight_positive_and_finite(self, edge, value):
        src, dst, weight = ring_edges()
        weight[edge] = value
        with pytest.raises(ValueError, match="edge weights must be positive and finite"):
            ring_graph(src, dst, weight)

    @pytest.mark.parametrize("edge", [1, 4, 5, 22, 23], ids=["first", "straddling", "after_boundary",
                                                              "last_front", "last_back"])
    @pytest.mark.parametrize("fault", ["duplicate", "falling"])
    def test_sort_order(self, edge, fault):
        src, dst, weight = ring_edges()
        # pair (edge - 1, edge) within one destination; edges 3 and 4 sit across a boundary
        if fault == "duplicate":
            src[edge] = src[edge - 1]
        else:
            src[edge - 1], src[edge] = src[edge], src[edge - 1]
        with pytest.raises(ValueError, match=MESSAGES["sort"]):
            ring_graph(src, dst, weight)

    @pytest.mark.parametrize("faults, wins", [
        (("self", "weight"), "self"),
        (("self", "sort"), "self"),
        (("weight", "sort"), "weight"),
        (("self", "weight", "sort"), "self"),
        (("range", "self"), "range"),
        (("range", "weight length"), "range"),
    ])
    @pytest.mark.parametrize("late", ["self", "weight", "sort", "range"])
    def test_the_earlier_check_wins(self, faults, wins, late):
        # the fault of kind `late` goes into the last destination, every other into the
        # first, so a check that stopped at the first faulty span would name the wrong one
        src, dst, weight = ring_edges()
        n_weight = 24
        for fault in faults:
            j = RING_N - 1 if fault == late else 0
            if fault == "self":
                src[3 * j + 1] = j
            elif fault == "weight":
                weight[3 * j + 1] = np.nan
            elif fault == "sort":
                src[3 * j + 2] = src[3 * j + 1]
            elif fault == "range":
                src[3 * j] = -1
            else:
                n_weight = 23
        with pytest.raises(ValueError, match=MESSAGES[wins]):
            cn.PaintingGraph(n=RING_N, indptr=np.arange(0, 25, 3), src=src, weight=weight[:n_weight])


def test_checks_hold_no_full_length_temporary(monkeypatch):
    # two million edges, checked 4,096 at a time: a temporary over every edge,
    # even one byte per edge, would outgrow the bound
    use_edge_chunk(monkeypatch, 4096)
    graph, _ = chain_graph(n=10_200, per_node=200)
    assert graph.n_edges == 2_000_000
    arrays = (np.array(graph.indptr), np.array(graph.src), np.array(graph.weight))
    peak = traced_peak(lambda: cn.PaintingGraph(graph.n, *arrays))
    assert peak <= 8 * 4096 * 8 + 8 * graph.n * 8


def test_write_graph_csv(tmp_path):
    corpus = make_corpus([1500, 1600], np.array([[0.0], [1.0]]), ids=["early", "late"])
    graph = cn.build_graph(corpus, "visual", cn.RunConfig(k=1), 1.0)
    out = tmp_path / "graph.csv"
    cn.write_graph_csv(graph, corpus.ids, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "src_id,dst_id,weight"
    src_id, dst_id, w = lines[1].split(",")
    assert (src_id, dst_id) == ("early", "late")
    assert float(w) == pytest.approx(np.exp(-0.5), rel=1e-15)


class SlabError(Exception):
    """Raised by a patched slab ranking."""


class TestTwoWorkers:
    """The build's helper thread: joined on every path, its exception raised in the caller."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        use_slab_rows(monkeypatch, 8, 200)
        use_cpus(monkeypatch, 2)

    @pytest.fixture()
    def corpus(self):
        return random_corpus(seed=60, n=200, dim=3, year_lo=1500, year_hi=1520)

    def rank_slabs_failing_in(self, monkeypatch, failing):
        """Patch `_slab_top_k` to raise SlabError in the `failing` worker ("helper" or "caller").

        The other worker waits until the failing one has claimed its slab, so
        both take part whatever the scheduling.
        """
        real = graph_module._slab_top_k
        failed = threading.Event()

        def slab_top_k(*args):
            helper = threading.current_thread() is not threading.main_thread()
            if helper == (failing == "helper"):
                failed.set()
                raise SlabError(f"{failing} slab")
            assert failed.wait(timeout=30)
            return real(*args)

        monkeypatch.setattr(graph_module, "_slab_top_k", slab_top_k)

    def test_no_thread_outlives_the_build(self, corpus):
        before = threading.active_count()
        graph = cn.build_graph(corpus, "visual", cn.RunConfig(k=5), 1.0)
        assert graph.n_edges > 0
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_a_worker_exception_reaches_the_caller(self, monkeypatch, corpus, failing):
        self.rank_slabs_failing_in(monkeypatch, failing)
        before = threading.active_count()
        with pytest.raises(SlabError, match=f"{failing} slab"):
            cn.build_graph(corpus, "visual", cn.RunConfig(k=5), 1.0)
        assert threading.active_count() == before  # the helper was joined

    def test_each_task_claimed_once(self):
        # many small tasks, a thread switch every microsecond: a task handed
        # out twice or lost would show in the claimed lists
        claimed = {}

        def work(claim):
            mine = claimed.setdefault(threading.current_thread().name, [])
            for task in iter(claim, None):
                mine.append(task)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            graph_module._on_two_workers(work, 20_000)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(sum(claimed.values(), [])) == list(range(20_000))
        assert len(claimed) == 2

    @pytest.mark.parametrize("tasks, cpus", [(1, 2), (5, 1)])
    def test_no_helper_for_one_task_or_one_cpu(self, monkeypatch, tasks, cpus):
        use_cpus(monkeypatch, cpus)
        names = set()

        def work(claim):
            for _ in iter(claim, None):
                names.add(threading.current_thread().name)

        graph_module._on_two_workers(work, tasks)
        assert names == {threading.main_thread().name}


class TestByteBudgets:
    """Slabs, their feature copies, partitions and pick gathers stay under `_SLAB_BYTES` but for the one-row floor."""

    @pytest.mark.parametrize("seed", range(6))
    def test_plan_is_maximal_and_under_budget(self, monkeypatch, seed):
        # a slab's rows are charged the wider of their block row and their feature row
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 400))
        lo = np.sort(rng.integers(0, 300, size=size))
        hi = np.maximum(np.sort(rng.integers(1, 600, size=size)), lo + 1)
        hi = np.maximum.accumulate(hi)
        for cells in (1, 7, 250, 4_000, 10 ** 6):
            monkeypatch.setattr(graph_module, "_SLAB_BYTES", 8 * cells)
            for width in (1, 17, 2_660):
                slabs = graph_module._plan_slabs(lo, hi, width)
                assert [s[0] for s in slabs] == [0] + [s[1] for s in slabs[:-1]]
                assert slabs[-1][1] == size
                for i0, i1, c0, c1 in slabs:
                    assert (c0, c1) == (lo[i0], hi[i1 - 1])
                    assert (i1 - i0) * max(c1 - c0, width) <= cells or i1 - i0 == 1
                    if i1 < size:  # one more row would not have fit
                        assert (i1 + 1 - i0) * max(hi[i1] - c0, width) > cells

    @pytest.mark.parametrize("rows, dim", [(4, 5), (0.5, 5), (4, 300)],
                             ids=["four_rows", "half_a_row", "four_rows_dim_300"])
    def test_blocks_partitions_and_gathers_stay_under_budget(self, monkeypatch, rows, dim):
        # a slab's feature copy (the left operand of its products), its block, its
        # partition and each per-dimension pick gather, in the order the serial
        # build makes them; only a one-row slab may pass the budget. At dim 300
        # a feature row outweighs most block rows.
        corpus = random_corpus(seed=61, n=400, dim=dim, year_lo=1500, year_hi=1540)
        sigma = 0.8 * np.sqrt(dim / 5)
        budget = int(8 * rows * corpus.n)
        monkeypatch.setattr(graph_module, "_SLAB_BYTES", budget)
        use_cpus(monkeypatch, 1)
        events = []
        real_slab, real_gather, real_partition, real_matmul = (
            graph_module._slab_top_k, graph_module.pair_weights, np.argpartition, np.matmul)

        def matmul(x, *args, **kwargs):
            events.append(("copy", x.shape[0], x.nbytes))
            return real_matmul(x, *args, **kwargs)

        def slab_top_k(block, *args):
            events.append(("slab", block.shape[0], block.nbytes))
            return real_slab(block, *args)

        def gathered(columns, a, b, sigma):
            events.append(("gather", None, 8 * int(np.prod(np.broadcast_shapes(a.shape, b.shape)))))
            return real_gather(columns, a, b, sigma)

        def argpartition(*args, **kwargs):
            part = real_partition(*args, **kwargs)
            events.append(("partition", None, part.nbytes))
            return part

        monkeypatch.setattr(graph_module, "_slab_top_k", slab_top_k)
        monkeypatch.setattr(graph_module, "pair_weights", gathered)
        monkeypatch.setattr(np, "argpartition", argpartition)
        monkeypatch.setattr(np, "matmul", matmul)
        graph = cn.build_graph(corpus, "visual", cn.RunConfig(k=30), sigma)
        monkeypatch.undo()
        assert_same_graph(graph, cn.build_graph(corpus, "visual", cn.RunConfig(k=30), sigma))
        assert_same_graph(graph, reference_build_graph(corpus, "visual", cn.RunConfig(k=30), sigma))
        kinds = {kind for kind, _, _ in events}
        assert kinds == {"copy", "slab", "gather", "partition"}
        floor = 0
        for kind, slab_rows, nbytes in events:
            if kind == "copy":
                assert nbytes <= budget or slab_rows == 1
            else:
                if kind == "slab":
                    one_row, block_bytes = slab_rows == 1, nbytes
                assert nbytes <= budget or (one_row and nbytes <= block_bytes)
            floor += nbytes > budget
        assert (floor > 0) == (rows < 1)  # half a row: the widest rows rank alone, over budget

    def test_slab_scratch_stays_near_budget(self, monkeypatch):
        # The first slab's rows mostly have at most k candidates, so they are
        # cut exactly, and later slabs hold about k picks a row. Beside its
        # block, a slab holds its partition (at most a block) and the sorted
        # picks, then one group's weights, or bound, cap and band, under the
        # budget: twice the budget in all, whatever k.
        corpus = random_corpus(seed=65, n=1500, dim=16, year_lo=1400, year_hi=1900)
        config, budget = cn.RunConfig(k=300), 1 << 18
        monkeypatch.setattr(graph_module, "_SLAB_BYTES", budget)
        use_cpus(monkeypatch, 1)
        real = graph_module._slab_top_k
        slabs = []

        def slab_top_k(block, dest, c0, n_cand, *args):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            yield from real(block, dest, c0, n_cand, *args)
            slabs.append((block.shape, int(np.count_nonzero(n_cand <= config.k)),
                          tracemalloc.get_traced_memory()[1] - before))

        monkeypatch.setattr(graph_module, "_slab_top_k", slab_top_k)
        tracemalloc.start()
        try:
            graph = cn.build_graph(corpus, "visual", config, 4.0)
        finally:
            tracemalloc.stop()
        monkeypatch.undo()
        assert_same_graph(graph, cn.build_graph(corpus, "visual", config, 4.0))
        (rows, _), exact, _ = slabs[0]
        assert exact > 0.9 * rows and len(slabs) > 10
        assert max(scratch for _, _, scratch in slabs) <= 2 * budget

    def test_edge_ranks_under_budget(self, monkeypatch):
        corpus = random_corpus(seed=62, n=300, dim=3, year_lo=1500, year_hi=1530)
        graph = cn.build_graph(corpus, "visual", cn.RunConfig(k=12), 1.0)
        want = graph_module.edge_ranks(graph)
        for cells in (1, 12 * 5, 12 * 64):
            monkeypatch.setattr(graph_module, "_SLAB_BYTES", 8 * cells)
            assert np.array_equal(graph_module.edge_ranks(graph), want)

    def test_underflowed_room_closes_in_place(self, monkeypatch):
        # at sigma 0.15 about 6% of the picks underflow and leave their room
        # empty; closing it costs no more memory than a build where none does
        corpus = random_corpus(seed=62, n=4000, dim=16)
        config = cn.RunConfig(k=500)
        built = []
        peaks = [traced_peak(lambda: built.append(cn.build_graph(corpus, "visual", config, sigma)))
                 for sigma in (4.0, 0.15)]
        full, closed = built
        assert closed.n_edges < 0.95 * full.n_edges
        assert peaks[1] - peaks[0] < 0.25 * (full.src.nbytes + full.weight.nbytes)
        use_edge_chunk(monkeypatch, 4096)  # closed 4,096 edges at a time, not 65,536
        assert_same_graph(cn.build_graph(corpus, "visual", config, 0.15), closed)
        # closed 64 edges at a time where the oracle can weigh every pair
        small = random_corpus(seed=63, n=300, dim=16)
        use_edge_chunk(monkeypatch, 64)
        graph = cn.build_graph(small, "visual", cn.RunConfig(k=20), 0.12)
        assert graph.n_edges < 0.8 * cn.build_graph(small, "visual", cn.RunConfig(k=20), 4.0).n_edges
        assert_same_graph(graph, reference_build_graph(small, "visual", cn.RunConfig(k=20), 0.12))


def vm_rss_bytes() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmRSS:"))


def aligned_up(values: np.ndarray, i: int, align: int) -> int:
    """The first index at or after i whose value starts on an `align`-byte boundary."""
    at = values.ctypes.data + values.itemsize * i
    return i + (-at % align) // values.itemsize


@pytest.mark.skipif(graph_module._MADVISE is None or not os.path.exists("/proc/self/status"),
                    reason="needs libc's madvise and /proc/self/status")
class TestRelease:
    """`graph._release` hands back the aligned blocks (pages, for a final span) wholly inside a span,
    and touches nothing else."""

    def test_whole_blocks_go_back_and_the_rest_stays(self):
        values = np.arange(1 << 21, dtype=np.float64)  # 16 MiB, every page touched
        start, stop = 100_001, 1_900_001  # on no page boundary
        block = graph_module._RELEASE_BYTES // 8
        first, last = aligned_up(values, start, 8 * block), aligned_up(values, stop, 8 * block) - block
        assert start < first < last < stop  # partial blocks at both ends
        before = vm_rss_bytes()
        graph_module._release(values, start, stop)
        assert before - vm_rss_bytes() > 0.8 * 8 * (last - first)
        assert not values[first:last].any()  # read back as zeros
        kept = np.r_[0:first, last:values.size]
        assert np.array_equal(values[kept], kept.astype(np.float64))

    def test_a_final_span_goes_back_but_for_its_end_pages(self):
        # a span never written again loses its partial blocks too, down to the pages at its ends
        values = np.arange(1 << 21, dtype=np.float64)
        start, stop = 100_001, 1_900_001
        page = mmap.PAGESIZE // 8
        first, last = aligned_up(values, start, 8 * page), aligned_up(values, stop, 8 * page) - page
        assert start < first < last < stop
        before = vm_rss_bytes()
        graph_module._release(values, start, stop, final=True)
        assert before - vm_rss_bytes() > 0.8 * 8 * (last - first)
        assert not values[first:last].any()
        kept = np.r_[0:first, last:values.size]
        assert np.array_equal(values[kept], kept.astype(np.float64))

    @pytest.mark.parametrize("span", ["empty", "reversed", "under_a_page", "under_a_block"])
    def test_a_span_holding_no_whole_block_changes_nothing(self, monkeypatch, span):
        values = np.arange(1 << 20, dtype=np.float64)
        page, block = mmap.PAGESIZE // 8, graph_module._RELEASE_BYTES // 8
        crossing = {"under_a_page": page, "under_a_block": block}  # one value short, across a boundary
        if span in crossing:
            boundary = aligned_up(values, 200, 8 * crossing[span])
            lo, hi = boundary - 100, boundary - 101 + crossing[span]
        else:
            lo, hi = (5000, 5000) if span == "empty" else (5000, 4000)
        calls = []
        monkeypatch.setattr(graph_module, "_MADVISE", lambda *args: calls.append(args) or 0)
        graph_module._release(values, lo, hi)
        monkeypatch.undo()
        graph_module._release(values, lo, hi)
        assert calls == []
        assert np.array_equal(values, np.arange(values.size, dtype=np.float64))

    def test_a_failed_call_is_not_an_error(self, monkeypatch):
        values = np.arange(1 << 20, dtype=np.float64)
        calls = []
        monkeypatch.setattr(graph_module, "_MADVISE", lambda *args: calls.append(args) or -1)
        graph_module._release(values, 0, values.size)
        assert len(calls) == 1
        assert np.array_equal(values, np.arange(values.size, dtype=np.float64))


class TestUpdateGraph:
    def test_years_of_another_length_rejected(self):
        corpus = random_corpus(seed=63, n=20, dim=3)
        config, sigma = cn.RunConfig(k=4), 1.0
        graph = cn.build_graph(corpus, "visual", config, sigma)
        with pytest.raises(ValueError, match="expected 20 years"):
            graph_module.update_graph(graph, graph_module.edge_ranks(graph), corpus, "visual",
                                      config, sigma, corpus.years[:-1])

    def test_holds_one_year_ordered_copy_of_the_features(self):
        # features dominate memory here: the update's peak leaves room for its
        # one year-ordered layout of them, and not for a second copy
        corpus = random_corpus(seed=64, n=600, dim=4096, year_lo=1500, year_hi=1560)
        config, sigma = cn.RunConfig(k=8), 90.0
        graph = cn.build_graph(corpus, "visual", config, sigma)
        ranks = graph_module.edge_ranks(graph)
        years = np.array(corpus.years)
        years[::100] -= 30  # six artifacts moved back
        got = []
        peak = traced_peak(lambda: got.append(graph_module.update_graph(
            graph, ranks, corpus, "visual", config, sigma, years)))
        assert peak < 1.5 * corpus.features["visual"].vectors.nbytes
        assert_same_graph(got[0], cn.build_graph(corpus.with_years(years), "visual", config, sigma))

    def test_scratch_stays_under_half_the_graph(self):
        # the new graph is written a chunk of old edges at a time: beside it,
        # the update holds no array as long as the graph
        corpus = random_corpus(seed=65, n=4000, dim=4)
        config, sigma = cn.RunConfig(k=500), 1.0
        graph = cn.build_graph(corpus, "visual", config, sigma)
        ranks = graph_module.edge_ranks(graph)
        rng = np.random.default_rng(66)
        years = np.array(corpus.years)
        for t in rng.choice(corpus.n, size=40, replace=False).tolist():
            years[t] = rng.integers(1400, years[t] + 1)  # moved back
        got = []
        peak = traced_peak(lambda: got.append(graph_module.update_graph(
            graph, ranks, corpus, "visual", config, sigma, years)))
        nbytes = sum(a.nbytes for a in (got[0].indptr, got[0].src, got[0].weight))
        assert peak - nbytes < 0.5 * nbytes
        assert_same_graph(got[0], cn.build_graph(corpus.with_years(years), "visual", config, sigma))
