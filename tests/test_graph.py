"""Graph construction against a brute-force all-pairs oracle."""

import sys
import threading

import numpy as np
import pytest

import creanet as cn
from creanet import graph as graph_module

from conftest import (edge_dst, from_edges, make_corpus, random_corpus, use_cpus,
                      visual_similarity)


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
        monkeypatch.setattr(graph_module, "_DST_CHUNK", 8)
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
