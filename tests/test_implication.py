"""Balancing transform: percentile thresholds, keep/drop/reverse, labels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import creanet as cn
from creanet.implication import _nearest_rank_percentile

from conftest import (COMBINED, balance, chain_graph, cin_edges, edge_dst, from_edges,
                      make_corpus, make_network, random_corpus, solve_closed_form, traced_peak,
                      use_edge_chunk)
from test_oracles import reference_percentile


def build(seed=20, n=100, k=8, **balance_kwargs):
    corpus = random_corpus(seed=seed, n=n, dim=4)
    sigma = cn.estimate_sigma(corpus.features["visual"], seed=0)
    config = cn.RunConfig(k=k, **balance_kwargs)
    graph = cn.build_graph(corpus, "visual", config, sigma)
    return corpus, graph, balance(graph, corpus.years, config)


class TestNearestRankPercentile:
    def test_median_of_three(self):
        assert _nearest_rank_percentile(np.array([0.2, 0.5, 0.8]), 50.0) == 0.5

    def test_p100_is_max(self):
        assert _nearest_rank_percentile(np.array([0.2, 0.5, 0.8]), 100.0) == 0.8

    def test_small_p_is_min(self):
        assert _nearest_rank_percentile(np.array([0.2, 0.5, 0.8]), 1.0) == 0.2

    def test_no_interpolation(self):
        # nearest-rank of four values at p=50 is the 2nd smallest, not an average
        assert _nearest_rank_percentile(np.array([1.0, 2.0, 3.0, 4.0]), 50.0) == 2.0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=40),
           st.floats(0.1, 100.0))
    def test_definition_holds(self, values, p):
        result = _nearest_rank_percentile(np.array(values), p)
        ordered = sorted(values)
        assert result == ordered[math.ceil(p / 100.0 * len(values)) - 1]
        # rank property: at least ceil(p% n) of the sample is <= the result
        assert sum(v <= result for v in values) >= math.ceil(p / 100.0 * len(values))


def percentile_sample(case: str, chunk: int) -> np.ndarray:
    """Values for the copy-free percentile's oracle, by `case`; some read the sampling stride."""
    rng = np.random.default_rng(len(case) + chunk)
    n = 5_000
    stride = -(-n // chunk)  # every stride-th value is sampled
    if case == "random":
        return rng.random(n)
    if case == "ties_at_rank":
        values = rng.random(n)
        values[rng.random(n) < 0.4] = 0.5  # 40% tie at the median, which falls among them
        return values
    if case == "all_equal":
        return np.full(n, 0.3)
    if case == "one_value":
        return np.array([0.7])
    if case == "subnormal":  # whole-number multiples of the smallest subnormal, and normal values
        return np.concatenate((rng.integers(1, 50, size=n // 2) * 5e-324, rng.random(n // 2)))
    if case == "few_levels":  # ties at the bracket's ends and inside it
        return rng.integers(1, 4, size=n).astype(np.float64)
    if case == "misleading_sample":  # the sampled values are all far below the rest
        values = 1_000.0 + rng.random(n)
        values[::stride] = np.arange(values[::stride].size, dtype=np.float64)
        return values
    if case == "misleading_sample_above":
        values = rng.random(n)
        values[::stride] = 1_000.0 + np.arange(values[::stride].size)
        return values
    raise AssertionError(case)


class TestCopyFreePercentile:
    """`_nearest_rank_percentile` against `np.partition` at the nearest rank, bit for bit."""

    @pytest.mark.parametrize("chunk", [4, 64, 1 << 16], ids=["chunk_4", "chunk_64", "one_chunk"])
    @pytest.mark.parametrize("case", ["random", "ties_at_rank", "all_equal", "one_value", "subnormal",
                                      "few_levels", "misleading_sample", "misleading_sample_above"])
    def test_equals_partition_at_the_nearest_rank(self, monkeypatch, chunk, case):
        use_edge_chunk(monkeypatch, chunk)
        values = percentile_sample(case, chunk)
        before = values.tobytes()
        for p in (1e-9, 0.5, 10.0, 25.0, 50.0, 90.0, 99.99, 100.0):
            rank = math.ceil(p / 100.0 * values.size)
            want = np.partition(values, rank - 1)[rank - 1]
            got = _nearest_rank_percentile(values, p)
            assert np.float64(got).tobytes() == want.tobytes(), (case, p)
        assert values.tobytes() == before

    def test_global_threshold_holds_no_copy_of_the_weights(self):
        # a sample of at most one chunk and a bracket of about 8 sqrt(n stride)
        # weights, not all 2 * 10^6 of them
        graph, years = chain_graph(n=10_000, per_node=200, seed=5)
        config = cn.RunConfig(percentile_p=37.5)
        got = []
        peak = traced_peak(lambda: got.append(cn.compute_thresholds(graph, years, config)))
        assert peak < 0.15 * graph.weight.nbytes
        assert np.all(got[0] == reference_percentile(graph.weight, 37.5))


class TestComputeThresholds:
    def test_global_mode_constant(self):
        corpus, graph, _ = build()
        m = cn.compute_thresholds(graph, corpus.years, cn.RunConfig(percentile_p=50.0))
        expected = reference_percentile(graph.weight, 50.0)
        assert np.all(m == expected)

    def test_years_of_another_length_rejected(self):
        corpus, graph, _ = build()
        with pytest.raises(ValueError, match="expected 100 years"):
            cn.compute_thresholds(graph, corpus.years[:-1], cn.RunConfig())

    def test_zero_edge_graph_rejected(self):
        corpus = make_corpus([1500, 1500], np.eye(2))
        graph = cn.build_graph(corpus, "visual", cn.RunConfig(k=1), 1.0)
        with pytest.raises(ValueError, match="no edges"):
            cn.compute_thresholds(graph, corpus.years, cn.RunConfig())

    def test_local_mode_separated_clusters(self):
        # two eras far apart; weights within each era come from distinct ranges,
        # so each era's nodes must get their own era's median
        rng = np.random.default_rng(3)
        early = rng.normal(scale=0.1, size=(20, 3))          # tight: high weights
        late = rng.normal(scale=40.0, size=(20, 3))          # spread: low weights
        feats = np.vstack([early, late])
        years = np.array([1500 + i for i in range(20)] + [1900 + i for i in range(20)])
        corpus = make_corpus(years, feats)
        graph = cn.build_graph(corpus, "visual", cn.RunConfig(k=6), 10.0)
        config = cn.RunConfig(balancing_mode="local", percentile_p=50.0,
                              local_window_years=30, min_local_sample=5)
        m = cn.compute_thresholds(graph, corpus.years, config)

        ys, yd = years[graph.src], years[edge_dst(graph)]
        for node in (0, 5, 25, 39):
            y = years[node]
            mask = (np.abs(ys - y) <= 30) & (np.abs(yd - y) <= 30)
            assert mask.sum() >= 5
            assert m[node] == reference_percentile(graph.weight[mask], 50.0)
        assert m[0] != m[39]  # eras get genuinely different thresholds

    def test_local_mode_falls_back_to_global(self):
        corpus, graph, _ = build(n=60, k=4)
        config = cn.RunConfig(balancing_mode="local", percentile_p=50.0,
                              local_window_years=1, min_local_sample=10**6)
        m = cn.compute_thresholds(graph, corpus.years, config)
        assert np.all(m == reference_percentile(graph.weight, 50.0))

    def test_percentile_100_drops_or_reverses_everything(self):
        corpus, graph, net = build(percentile_p=100.0)
        assert net.kept_count == 0
        assert net.reversed_count + net.dropped_count == graph.n_edges


class TestBuildImplicationNetwork:
    @pytest.mark.parametrize("cut, message", [("m", "expected 100 thresholds"),
                                              ("years", "expected 100 years")])
    def test_inputs_of_another_length_rejected(self, cut, message):
        corpus, graph, _ = build()
        config = cn.RunConfig()
        m = cn.compute_thresholds(graph, corpus.years, config)
        years = corpus.years
        if cut == "m":
            m = m[:-1]
        else:
            years = years[:-1]
        with pytest.raises(ValueError, match=message):
            cn.build_implication_network(graph, m, years, config)

    def test_kept_edge(self):
        graph = from_edges(cn.PaintingGraph, 2, [0], [1], [0.8])
        net = cn.build_implication_network(graph, np.array([0.5, 0.5]),
                                           np.array([1500, 1600]), cn.RunConfig())
        src, dst, weight, prior = cin_edges(net)
        assert (src[0], dst[0]) == (0, 1)
        assert weight[0] == pytest.approx(0.3, abs=1e-15)
        assert not prior[0]  # points forward in time: subsequent
        assert (net.kept_count, net.reversed_count, net.dropped_count) == (1, 0, 0)

    def test_reversed_edge(self):
        graph = from_edges(cn.PaintingGraph, 2, [0], [1], [0.2])
        net = cn.build_implication_network(graph, np.array([0.5, 0.5]),
                                           np.array([1500, 1600]), cn.RunConfig())
        src, dst, weight, prior = cin_edges(net)
        assert (src[0], dst[0]) == (1, 0)
        assert weight[0] == pytest.approx(0.3, abs=1e-15)
        assert prior[0]  # points back in time: prior
        assert (net.kept_count, net.reversed_count, net.dropped_count) == (0, 1, 0)

    def test_exact_zero_balance_drops(self):
        graph = from_edges(cn.PaintingGraph, 2, [0], [1], [0.5])
        net = cn.build_implication_network(graph, np.array([0.5, 0.5]),
                                           np.array([1500, 1600]), cn.RunConfig())
        assert net.n_edges == 0
        assert (net.kept_count, net.reversed_count, net.dropped_count) == (0, 0, 1)

    def test_anchor_destination_vs_source(self):
        graph = from_edges(cn.PaintingGraph, 2, [0], [1], [0.4])
        m = np.array([0.6, 0.3])
        years = np.array([1500, 1600])
        by_dst = cn.build_implication_network(graph, m, years,
                                              cn.RunConfig(balance_anchor="destination"))
        assert by_dst.kept_count == 1  # judged by m[1] = 0.3
        by_src = cn.build_implication_network(graph, m, years,
                                              cn.RunConfig(balance_anchor="source"))
        assert by_src.reversed_count == 1  # judged by m[0] = 0.6

    @pytest.mark.parametrize("years", [[1500, 1600, 1600], [1500, 1700, 1600]],
                             ids=["same_year", "backward"])
    def test_rejects_edge_not_forward_in_time(self, years):
        # the edge 1 -> 2 joins two artifacts of one year, or runs back in time
        graph = from_edges(cn.PaintingGraph, 3, [0, 0, 1], [1, 2, 2], [0.8, 0.6, 0.4])
        with pytest.raises(ValueError, match=f"edge 1 -> 2 runs from year {years[1]} to year 1600"):
            cn.build_implication_network(graph, np.full(3, 0.5), np.array(years), cn.RunConfig())

    def test_conservation_and_labels_random_graphs(self):
        for seed in (21, 22, 23):
            corpus, graph, net = build(seed=seed, percentile_p=50.0)
            # brute-force recount: apply the balance rule edge by edge
            m = cn.compute_thresholds(graph, corpus.years, cn.RunConfig(percentile_p=50.0))
            kept = reversed_ = dropped = 0
            for s, d, w in zip(graph.src, edge_dst(graph), graph.weight):
                b = w - m[d]
                if b > 0:
                    kept += 1
                elif b < 0:
                    reversed_ += 1
                else:
                    dropped += 1
            assert (net.kept_count, net.reversed_count, net.dropped_count) == (kept, reversed_, dropped)
            assert net.kept_count + net.reversed_count + net.dropped_count == graph.n_edges
            src, dst, weight, prior = cin_edges(net)
            assert net.n_edges == 0 or weight.min() > 0.0
            # labels agree with node years on every edge
            np.testing.assert_array_equal(prior, corpus.years[dst] < corpus.years[src])

    def test_median_reversal_fraction_near_half(self):
        _, graph, net = build(seed=24, n=120, percentile_p=50.0)
        frac = net.reversed_count / graph.n_edges
        assert 0.35 <= frac <= 0.55  # nearest-rank median: reversal fraction just under half

    def test_prior_subsequent_partition(self):
        _, _, net = build(seed=25)
        src, dst, _, prior = cin_edges(net)
        prior_set = set(zip(src[prior].tolist(), dst[prior].tolist()))
        subseq_set = set(zip(src[~prior].tolist(), dst[~prior].tolist()))
        assert prior_set.isdisjoint(subseq_set)
        assert len(prior_set) + len(subseq_set) == net.n_edges

    def test_no_edge_without_preimage(self):
        corpus, graph, net = build(seed=26)
        original = set(zip(graph.src.tolist(), edge_dst(graph).tolist()))
        src, dst, _, _ = cin_edges(net)
        for s, d in zip(src.tolist(), dst.tolist()):
            assert (s, d) in original or (d, s) in original


def test_semantics_increasing_edge_weight_never_hurts_source():
    # 3-node fixture (years 1500, 1600, 1700): strengthen CIN edge (0 -> 1) and
    # watch C(0) - C(1); the graph edge 1 -> 2 is reversed into CIN edge 2 -> 1
    gaps = []
    for w in (0.1, 0.3, 0.6, 1.0, 2.0):
        net = make_network(3, kept=([0], [1], [w]), reversed_=([1], [2], [0.4]))
        scores = solve_closed_form(cn.normalize(net, COMBINED), alpha=0.85).scores
        gaps.append(scores[0] - scores[1])
    assert all(b >= a - 1e-12 for a, b in zip(gaps, gaps[1:]))


@pytest.mark.parametrize("anchor", ["destination", "source"])
def test_balancing_holds_no_full_length_temporary(monkeypatch, anchor):
    # two million edges judged 4,096 at a time: beyond K and R themselves, the
    # build may hold a few chunks and a few words per node, not an array over the edges
    use_edge_chunk(monkeypatch, 4096)
    graph, years = chain_graph(n=10_200, per_node=200)
    m = np.random.default_rng(1).uniform(0.3, 0.7, size=graph.n)
    config = cn.RunConfig(balance_anchor=anchor)
    nets = []
    peak = traced_peak(lambda: nets.append(cn.build_implication_network(graph, m, years, config)))
    net, = nets
    assert net.kept_count > 0 and net.reversed_count > 0
    stores = sum(a.nbytes for store in (net.kept, net.reversed)
                 for a in (store.indptr, store.src, store.weight))
    assert peak <= stores + 8 * 4096 * 8 + 8 * graph.n * 8


class TestImplicationNetworkValidation:
    def make(self, n=2, src=(0,), dst=(1,), dropped=0):
        return make_network(n, kept=(list(src), list(dst), [0.5] * len(src)), dropped=dropped)

    def test_accepts_valid_edge(self):
        assert self.make().n_edges == 1

    @pytest.mark.parametrize("src", [5, 2, -1])
    def test_rejects_source_out_of_range(self, src):
        with pytest.raises(ValueError, match="out of range"):
            self.make(src=(src,))

    def test_rejects_destination_out_of_range(self):
        # a destination past n - 1 leaves its edge outside every column
        with pytest.raises(ValueError, match="indptr"):
            self.make(dst=(2,))

    def test_rejects_empty_network_of_no_nodes(self):
        with pytest.raises(ValueError, match="n must be"):
            self.make(n=0, src=(), dst=())

    def test_rejects_too_many_nodes_for_int32_sources(self):
        with pytest.raises(ValueError, match="n must be"):
            cn.PaintingGraph(n=2 ** 31, indptr=np.zeros(1, dtype=np.int64), src=[], weight=[])

    def test_rejects_negative_dropped_count(self):
        with pytest.raises(ValueError, match="non-negative"):
            self.make(dropped=-1)

    def test_rejects_stores_over_different_nodes(self):
        with pytest.raises(ValueError, match="same nodes"):
            cn.ImplicationNetwork(kept=self.make(n=2).kept, reversed=self.make(n=3).kept,
                                  dropped_count=0)


class TestBalanceSpecValidation:
    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            cn.RunConfig(balancing_mode="temporal")

    @pytest.mark.parametrize("p", [0.0, -5.0, 100.0001])
    def test_rejects_bad_percentile(self, p):
        with pytest.raises(ValueError):
            cn.RunConfig(percentile_p=p)

    def test_accepts_p100(self):
        assert cn.RunConfig(percentile_p=100.0).percentile_p == 100.0

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            cn.RunConfig(local_window_years=0)


def test_write_cin_csv(tmp_path):
    net = make_network(2, reversed_=([0], [1], [0.25]))  # CIN edge b -> a
    out = tmp_path / "cin.csv"
    cn.write_cin_csv(net, ("a", "b"), out)
    lines = out.read_text().splitlines()
    assert lines[0] == "src_id,dst_id,weight,label"
    assert lines[1] == "b,a,0.25,prior"
