"""Balancing transform: percentile thresholds, keep/drop/reverse, labels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import creanet as cn

from conftest import (balance, cin_edges, edge_dst, from_edges, make_corpus, make_network,
                      random_corpus, solve_closed_form)


def build(seed=20, n=100, k=8, **spec_kwargs):
    corpus = random_corpus(seed=seed, n=n, dim=4)
    sigma = cn.estimate_sigma(corpus.features["visual"], seed=0)
    graph = cn.build_graph(corpus, "visual", cn.GraphParams(k=k, sigma=sigma))
    spec = cn.BalanceSpec(**spec_kwargs)
    return corpus, graph, balance(graph, corpus.years, spec)


class TestNearestRankPercentile:
    def test_median_of_three(self):
        assert cn.nearest_rank_percentile(np.array([0.2, 0.5, 0.8]), 50.0) == 0.5

    def test_p100_is_max(self):
        assert cn.nearest_rank_percentile(np.array([0.2, 0.5, 0.8]), 100.0) == 0.8

    def test_small_p_is_min(self):
        assert cn.nearest_rank_percentile(np.array([0.2, 0.5, 0.8]), 1.0) == 0.2

    def test_no_interpolation(self):
        # nearest-rank of four values at p=50 is the 2nd smallest, not an average
        assert cn.nearest_rank_percentile(np.array([1.0, 2.0, 3.0, 4.0]), 50.0) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            cn.nearest_rank_percentile(np.array([]), 50.0)

    @pytest.mark.parametrize("p", [0.0, -1.0, 100.5])
    def test_out_of_range_p_rejected(self, p):
        with pytest.raises(ValueError):
            cn.nearest_rank_percentile(np.array([1.0]), p)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=40),
           st.floats(0.1, 100.0))
    def test_definition_holds(self, values, p):
        result = cn.nearest_rank_percentile(np.array(values), p)
        ordered = sorted(values)
        assert result == ordered[math.ceil(p / 100.0 * len(values)) - 1]
        # rank property: at least ceil(p% n) of the sample is <= the result
        assert sum(v <= result for v in values) >= math.ceil(p / 100.0 * len(values))


class TestComputeThresholds:
    def test_global_mode_constant(self):
        corpus, graph, _ = build()
        m = cn.compute_thresholds(graph, corpus.years, cn.BalanceSpec(percentile_p=50.0))
        expected = cn.nearest_rank_percentile(graph.weight, 50.0)
        assert np.all(m == expected)

    def test_zero_edge_graph_rejected(self):
        corpus = make_corpus([1500, 1500], np.eye(2))
        graph = cn.build_graph(corpus, "visual", cn.GraphParams(k=1, sigma=1.0))
        with pytest.raises(ValueError, match="no edges"):
            cn.compute_thresholds(graph, corpus.years, cn.BalanceSpec())

    def test_local_mode_separated_clusters(self):
        # two eras far apart; weights within each era come from distinct ranges,
        # so each era's nodes must get their own era's median
        rng = np.random.default_rng(3)
        early = rng.normal(scale=0.1, size=(20, 3))          # tight: high weights
        late = rng.normal(scale=40.0, size=(20, 3))          # spread: low weights
        feats = np.vstack([early, late])
        years = np.array([1500 + i for i in range(20)] + [1900 + i for i in range(20)])
        corpus = make_corpus(years, feats)
        graph = cn.build_graph(corpus, "visual", cn.GraphParams(k=6, sigma=10.0))
        spec = cn.BalanceSpec(mode="local", percentile_p=50.0,
                              local_window_years=30, min_local_sample=5)
        m = cn.compute_thresholds(graph, corpus.years, spec)

        ys, yd = years[graph.src], years[edge_dst(graph)]
        for node in (0, 5, 25, 39):
            y = years[node]
            mask = (np.abs(ys - y) <= 30) & (np.abs(yd - y) <= 30)
            assert mask.sum() >= 5
            assert m[node] == cn.nearest_rank_percentile(graph.weight[mask], 50.0)
        assert m[0] != m[39]  # eras get genuinely different thresholds

    def test_local_mode_falls_back_to_global(self):
        corpus, graph, _ = build(n=60, k=4)
        spec = cn.BalanceSpec(mode="local", percentile_p=50.0,
                              local_window_years=1, min_local_sample=10**6)
        m = cn.compute_thresholds(graph, corpus.years, spec)
        assert np.all(m == cn.nearest_rank_percentile(graph.weight, 50.0))

    def test_percentile_100_drops_or_reverses_everything(self):
        corpus, graph, net = build(percentile_p=100.0)
        assert net.kept_count == 0
        assert net.reversed_count + net.dropped_count == graph.n_edges


class TestBuildImplicationNetwork:
    def test_kept_edge(self):
        graph = from_edges(cn.PaintingGraph, 2, [0], [1], [0.8])
        net = cn.build_implication_network(graph, np.array([0.5, 0.5]),
                                           np.array([1500, 1600]))
        src, dst, weight, prior = cin_edges(net)
        assert (src[0], dst[0]) == (0, 1)
        assert weight[0] == pytest.approx(0.3, abs=1e-15)
        assert not prior[0]  # points forward in time: subsequent
        assert (net.kept_count, net.reversed_count, net.dropped_count) == (1, 0, 0)

    def test_reversed_edge(self):
        graph = from_edges(cn.PaintingGraph, 2, [0], [1], [0.2])
        net = cn.build_implication_network(graph, np.array([0.5, 0.5]),
                                           np.array([1500, 1600]))
        src, dst, weight, prior = cin_edges(net)
        assert (src[0], dst[0]) == (1, 0)
        assert weight[0] == pytest.approx(0.3, abs=1e-15)
        assert prior[0]  # points back in time: prior
        assert (net.kept_count, net.reversed_count, net.dropped_count) == (0, 1, 0)

    def test_exact_zero_balance_drops(self):
        graph = from_edges(cn.PaintingGraph, 2, [0], [1], [0.5])
        net = cn.build_implication_network(graph, np.array([0.5, 0.5]),
                                           np.array([1500, 1600]))
        assert net.n_edges == 0
        assert (net.kept_count, net.reversed_count, net.dropped_count) == (0, 0, 1)

    def test_anchor_destination_vs_source(self):
        graph = from_edges(cn.PaintingGraph, 2, [0], [1], [0.4])
        m = np.array([0.6, 0.3])
        years = np.array([1500, 1600])
        by_dst = cn.build_implication_network(graph, m, years, anchor="destination")
        assert by_dst.kept_count == 1  # judged by m[1] = 0.3
        by_src = cn.build_implication_network(graph, m, years, anchor="source")
        assert by_src.reversed_count == 1  # judged by m[0] = 0.6

    @pytest.mark.parametrize("years", [[1500, 1600, 1600], [1500, 1700, 1600]],
                             ids=["same_year", "backward"])
    def test_rejects_edge_not_forward_in_time(self, years):
        # the edge 1 -> 2 joins two artifacts of one year, or runs back in time
        graph = from_edges(cn.PaintingGraph, 3, [0, 0, 1], [1, 2, 2], [0.8, 0.6, 0.4])
        with pytest.raises(ValueError, match=f"edge 1 -> 2 runs from year {years[1]} to year 1600"):
            cn.build_implication_network(graph, np.full(3, 0.5), np.array(years))

    def test_conservation_and_labels_random_graphs(self):
        for seed in (21, 22, 23):
            corpus, graph, net = build(seed=seed, percentile_p=50.0)
            # brute-force recount: apply the balance rule edge by edge
            m = cn.compute_thresholds(graph, corpus.years, cn.BalanceSpec(percentile_p=50.0))
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
        scores = solve_closed_form(cn.normalize(net), alpha=0.85).scores
        gaps.append(scores[0] - scores[1])
    assert all(b >= a - 1e-12 for a, b in zip(gaps, gaps[1:]))


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
            cn.BalanceSpec(mode="temporal")

    @pytest.mark.parametrize("p", [0.0, -5.0, 100.0001])
    def test_rejects_bad_percentile(self, p):
        with pytest.raises(ValueError):
            cn.BalanceSpec(percentile_p=p)

    def test_accepts_p100(self):
        assert cn.BalanceSpec(percentile_p=100.0).percentile_p == 100.0

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            cn.BalanceSpec(local_window_years=0)


def test_write_cin_csv(tmp_path):
    net = make_network(2, reversed_=([0], [1], [0.25]))  # CIN edge b -> a
    out = tmp_path / "cin.csv"
    cn.write_cin_csv(net, ("a", "b"), out)
    lines = out.read_text().splitlines()
    assert lines[0] == "src_id,dst_id,weight,label"
    assert lines[1] == "b,a,0.25,prior"
