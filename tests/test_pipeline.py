"""End-to-end pipeline: sigma resolution, stage stats, multi-aspect runs, outputs."""

import dataclasses
import hashlib
import io
import itertools
import json
import os
import signal
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import creanet as cn
from creanet import corpus as corpus_module
from creanet import graph as graph_module
from creanet.cli import main
from creanet.pipeline import _fork_pair

from conftest import (cin_edges, count_thread_starts, make_corpus, random_corpus, solve_closed_form,
                      traced_peak, use_cpus, use_edge_chunk, use_slab_rows, write_corpus_files,
                      write_features_binary)
from test_oracles import quantised_corpus, reference_percentile


@pytest.fixture(scope="module")
def corpus():
    return random_corpus(seed=50, n=60, dim=6)


@pytest.fixture(scope="module")
def config():
    return cn.RunConfig(k=8, seed=3)


def stages_of(corpus, config, result):
    """The graph, thresholds and network that `run_pipeline` scored for `result`, built again."""
    return cn.build_network(corpus, result.aspect, config, result.sigma)


class TestResolveSigma:
    def test_numeric_sigma_passes_through(self, corpus):
        assert cn.resolve_sigma(corpus, "visual", cn.RunConfig(sigma=1.5)) == 1.5

    def test_override_beats_base(self, corpus):
        config = cn.RunConfig(sigma=1.5, sigma_overrides={"visual": 0.25})
        assert cn.resolve_sigma(corpus, "visual", config) == 0.25

    def test_auto_matches_estimator(self, corpus, config):
        expected = cn.estimate_sigma(corpus.features["visual"], seed=config.seed)
        assert cn.resolve_sigma(corpus, "visual", config) == expected


class TestRunPipeline:
    def test_unknown_aspect(self, corpus, config):
        with pytest.raises(ValueError, match="aspect 'audio'"):
            cn.run_pipeline(corpus, "audio", config)

    def test_stage_stats_are_consistent(self, corpus, config):
        result = cn.run_pipeline(corpus, "visual", config)
        graph, _, net = stages_of(corpus, config, result)
        assert (result.graph_edges, result.kept_count, result.reversed_count,
                result.dropped_count) == (graph.n_edges, net.kept_count, net.reversed_count,
                                          net.dropped_count)
        assert net.kept_count + net.reversed_count + net.dropped_count == result.graph_edges
        has_incoming = np.zeros(corpus.n, dtype=bool)
        has_incoming[cin_edges(net)[1]] = True
        assert result.dangling_count == int((~has_incoming).sum())
        assert result.score.converged

    def test_pinned_sigma_skips_estimation(self, corpus, config):
        result = cn.run_pipeline(corpus, "visual", config, sigma=0.75)
        assert result.sigma == 0.75

    def test_power_and_closed_form_agree(self, corpus):
        config = cn.RunConfig(k=8, seed=3, tol=1e-13)
        a = cn.run_pipeline(corpus, "visual", config)
        b = solve_closed_form(cn.normalize(stages_of(corpus, config, a)[2], config), config.alpha)
        assert np.abs(a.score.scores - b.scores).max() < 1e-8

    def test_split_scoring_paths(self, corpus):
        config = cn.RunConfig(k=8, seed=3, scoring="split", beta=0.3, tol=1e-13)
        a = cn.run_pipeline(corpus, "visual", config)
        net = stages_of(corpus, config, a)[2]
        b = solve_closed_form(cn.normalize(net, config), config.alpha)
        assert np.abs(a.score.scores - b.scores).max() < 1e-8
        # split dangling = no incoming edge of either label
        has_incoming = np.zeros(corpus.n, dtype=bool)
        has_incoming[cin_edges(net)[1]] = True
        assert a.dangling_count == int((~has_incoming).sum())

    def test_rerun_is_bitwise_identical(self, corpus, config):
        a = cn.run_pipeline(corpus, "visual", config)
        b = cn.run_pipeline(corpus, "visual", config)
        assert np.array_equal(a.score.scores, b.score.scores)
        assert a.sigma == b.sigma

    def test_single_year_corpus_scores_uniform(self):
        corpus = make_corpus([1700] * 5, np.arange(10.0).reshape(5, 2))
        result = cn.run_pipeline(corpus, "visual", cn.RunConfig(), sigma=1.0)
        assert result.graph_edges == 0
        assert result.kept_count == result.reversed_count == result.dropped_count == 0
        assert result.dangling_count == 5
        np.testing.assert_allclose(result.score.scores, 0.2, atol=1e-15)


class TestStagesReuseMemory:
    """`run_pipeline` keeps facts, not arrays, and each stage writes into the memory of the one before."""

    def test_result_holds_no_per_edge_array(self, corpus, config):
        result = cn.run_pipeline(corpus, "visual", config)
        assert result.graph_edges > corpus.n
        for field in dataclasses.fields(result):
            value = getattr(result, field.name)
            assert not isinstance(value, (np.ndarray, cn.PaintingGraph, cn.ImplicationNetwork))
        arrays = [value for value in vars(result.score).values() if isinstance(value, np.ndarray)]
        assert [a.size for a in arrays] == [corpus.n]
        assert set(map(type, result.threshold_stats.values())) == {float}

    @pytest.mark.parametrize("given", [False, True], ids=["built", "made_by_caller"])
    def test_k_and_the_operator_live_in_the_graphs_buffers(self, monkeypatch, corpus, config, given):
        import creanet.pipeline as pipeline_module
        seen = {}
        real_scale, real_solve = pipeline_module._scale, pipeline_module.solve_power
        sigma = cn.resolve_sigma(corpus, "visual", config)

        def build_graph(*args):
            graph = cn.build_graph(*args)
            seen["graph"], seen["buffers"] = weakref.ref(graph), (graph.src, graph.weight)
            return graph

        def scale(network, *args):
            seen["network"] = weakref.ref(network)
            seen["stores"] = (network.kept.src, network.kept.weight, network.reversed.weight)
            op = real_scale(network, *args)
            seen["values"] = [op.kept_values, op.reversed_values]
            return op

        def solve_power(*args, **kwargs):
            seen["alive"] = (seen["graph"]() is not None, seen["network"]() is not None)
            return real_solve(*args, **kwargs)

        if not given:
            monkeypatch.setattr(pipeline_module, "build_graph", build_graph)
        monkeypatch.setattr(pipeline_module, "_scale", scale)
        monkeypatch.setattr(pipeline_module, "solve_power", solve_power)
        made = (lambda: build_graph(corpus, "visual", config, sigma)) if given else None
        result = cn.run_pipeline(corpus, "visual", config, sigma=sigma, graph=made)
        assert seen["alive"] == (False, False)  # the objects go; their buffers are reused
        src, weight = seen["buffers"]
        kept_src, kept_weight, reversed_weight = seen["stores"]
        assert np.shares_memory(kept_src, src) and np.shares_memory(kept_weight, weight)
        assert not np.shares_memory(reversed_weight, weight)
        kept_values, reversed_values = seen["values"]
        assert np.shares_memory(kept_values, weight)
        assert np.shares_memory(reversed_values, reversed_weight)
        network = stages_of(corpus, config, result)[2]
        assert result.score.scores.tobytes() == \
            cn.solve_power(cn.normalize(network, config), config).scores.tobytes()

    def test_scoring_allocates_one_store_beyond_the_graph(self, monkeypatch):
        # balancing's R store is as long as the graph; the percentile, K and the
        # operator's values take no more per-edge memory
        corpus = random_corpus(seed=53, n=1000, dim=4)
        config = cn.RunConfig(k=300, seed=3)
        sigma = cn.resolve_sigma(corpus, "visual", config)
        graphs = [cn.build_graph(corpus, "visual", config, sigma)]
        edge_bytes = graphs[0].src.nbytes + graphs[0].weight.nbytes
        use_edge_chunk(monkeypatch, 512)
        peak = traced_peak(lambda: cn.run_pipeline(corpus, "visual", config, sigma=sigma,
                                                   graph=graphs.pop))
        assert edge_bytes <= peak < 1.1 * edge_bytes


def test_owner_scores_a_graph_in_read_only_memory(corpus, config):
    # memory that cannot be made writable, such as a read-only map, is read, not written
    sigma = cn.resolve_sigma(corpus, "visual", config)
    graph = cn.build_graph(corpus, "visual", config, sigma)
    src, weight = (np.frombuffer(a.tobytes(), dtype=a.dtype) for a in (graph.src, graph.weight))
    before = (src.tobytes(), weight.tobytes())
    result = cn.run_pipeline(corpus, "visual", config, sigma=sigma,
                             graph=lambda: cn.PaintingGraph(graph.n, graph.indptr, src, weight))
    assert (src.tobytes(), weight.tobytes()) == before
    assert result.score.scores.tobytes() == \
        cn.run_pipeline(corpus, "visual", config, sigma=sigma).score.scores.tobytes()


def test_owner_scores_a_graph_in_writable_memory_of_another_kind():
    # bytearray-backed arrays are written in place like numpy's own, and the
    # spent memory past K goes back to the system, reading as zeros after
    corpus = random_corpus(seed=56, n=4000, dim=16)
    config = cn.RunConfig(k=500, seed=3)
    sigma = cn.resolve_sigma(corpus, "visual", config)
    graph = cn.build_graph(corpus, "visual", config, sigma)
    src, weight = (np.frombuffer(bytearray(a.tobytes()), dtype=a.dtype) for a in (graph.src, graph.weight))
    result = cn.run_pipeline(corpus, "visual", config, sigma=sigma,
                             graph=lambda: cn.PaintingGraph(graph.n, graph.indptr, src, weight))
    assert result.score.scores.tobytes() == \
        cn.run_pipeline(corpus, "visual", config, sigma=sigma).score.scores.tobytes()
    past_k, block = weight[result.kept_count:], graph_module._RELEASE_BYTES // 8
    assert past_k.size > 3 * block
    if graph_module._MADVISE is not None:  # all but the partial blocks at both ends
        assert np.count_nonzero(past_k == 0.0) > past_k.size - 2 * block


SCORE_HANDED_OVER_GRAPH = """
import sys
import hashlib
import numpy as np
import creanet as cn

def status(key):
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith(key + ":"))

folder, sigma = sys.argv[1], float(sys.argv[2])
load = lambda name: np.load(f"{folder}/{name}.npy")
years, features = load("years"), load("features")
corpus = cn.Corpus(artifacts=[cn.Artifact(id=f"p{i}", year=int(y)) for i, y in enumerate(years)],
                   features={"visual": cn.FeatureSet("visual", features)})
after_graph = []

def graph():
    handed_over = cn.PaintingGraph(corpus.n, load("indptr"), load("src"), load("weight"))
    after_graph.append(status("VmRSS"))
    return handed_over

result = cn.run_pipeline(corpus, "visual", cn.RunConfig(k=500, seed=3), sigma=sigma, graph=graph)
print(status("VmHWM") - after_graph[0], hashlib.sha256(result.score.scores.tobytes()).hexdigest())
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmRSS and VmHWM")
def test_owner_scores_in_about_one_graph_of_memory(tmp_path):
    # Scoring a graph it owns takes little memory beyond the graph: K is written
    # over the graph's front, and the memory past K goes back as balancing runs,
    # so R's store is the only new per-edge memory. The graph is built here and
    # loaded in a fresh interpreter, whose peak then holds no build scratch. The
    # partial blocks left at both ends of a released span, and the huge pages
    # K's and R's stores grow into, take a few MiB at any size, so the corpus
    # is large enough for them to stay well under a quarter of the graph.
    corpus = random_corpus(seed=62, n=12_000, dim=16)
    config = cn.RunConfig(k=500, seed=3)
    sigma = cn.resolve_sigma(corpus, "visual", config)
    graph = cn.build_graph(corpus, "visual", config, sigma)
    for name, values in (("years", corpus.years), ("features", corpus.features["visual"].vectors),
                         ("indptr", graph.indptr), ("src", graph.src), ("weight", graph.weight)):
        np.save(tmp_path / f"{name}.npy", values)
    env = dict(os.environ, PYTHONPATH=str(Path(cn.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", SCORE_HANDED_OVER_GRAPH, str(tmp_path), repr(sigma)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rise, digest = proc.stdout.split()
    want = cn.run_pipeline(corpus, "visual", config, sigma=sigma, graph=lambda: graph)
    assert digest == hashlib.sha256(want.score.scores.tobytes()).hexdigest()
    if graph_module._MADVISE is not None:  # elsewhere R's touched pages stay on top
        assert int(rise) < 0.25 * (graph.src.nbytes + graph.weight.nbytes)


def owner_cases():
    """(corpus, config) pairs over balancing modes, anchors and scorings, edgeless and all-dropped graphs."""
    corpora = {"random": random_corpus(seed=54, n=150, dim=4),
               "ties": quantised_corpus(seed=55, n=150, dim=2, levels=3, year_lo=1500, year_hi=1540)}
    for (name, corpus), mode, anchor, (scoring, beta) in itertools.product(
            corpora.items(), ("global", "local"), ("destination", "source"),
            (("combined", 0.5), ("split", 0.0), ("split", 0.5), ("split", 1.0))):
        config = cn.RunConfig(k=10, seed=3, sigma=1.0, balancing_mode=mode, local_window_years=15,
                              min_local_sample=5, balance_anchor=anchor, scoring=scoring, beta=beta)
        yield pytest.param(corpus, config, id=f"{name}-{mode}-{anchor}-{scoring}-{beta}")
    yield pytest.param(make_corpus([1700] * 5, np.arange(10.0).reshape(5, 2)), cn.RunConfig(sigma=1.0),
                       id="edgeless")
    yield pytest.param(make_corpus(np.arange(1500, 1520), np.ones((20, 3))), cn.RunConfig(sigma=1.0),
                       id="all_dropped")


@pytest.mark.parametrize("corpus, config", owner_cases())
def test_owner_scores_like_the_stages_that_keep_their_inputs(monkeypatch, corpus, config):
    use_edge_chunk(monkeypatch, 64)
    result = cn.run_pipeline(corpus, "visual", config)
    graph = cn.build_graph(corpus, "visual", config, result.sigma)
    before = (graph.src.tobytes(), graph.weight.tobytes())
    _, thresholds, network = cn.build_network(corpus, "visual", config, result.sigma, graph)
    op = cn.normalize(network, config)
    score = cn.solve_power(op, config)
    assert (graph.src.tobytes(), graph.weight.tobytes()) == before  # left as it was
    assert result.score.scores.tobytes() == score.scores.tobytes()
    assert (result.score.iterations, result.score.residual) == (score.iterations, score.residual)
    assert (result.graph_edges, result.kept_count, result.reversed_count, result.dropped_count) == \
        (graph.n_edges, network.kept_count, network.reversed_count, network.dropped_count)
    if config.balancing_mode == "global":
        assert result.threshold_stats["threshold"] == (None if thresholds is None else thresholds[0])
    if corpus.n == 20:
        assert result.dropped_count == result.graph_edges > 0


class TestMultiAspect:
    def test_matches_single_runs_bitwise(self, corpus, config):
        results = cn.run_multi_aspect(corpus, config)
        single = cn.run_pipeline(corpus, "visual", config)
        assert list(results) == ["visual"]
        assert np.array_equal(results["visual"].score.scores, single.score.scores)

    def test_identical_features_identical_scores(self, config):
        rng = np.random.default_rng(51)
        feats = rng.normal(size=(40, 5))
        years = list(rng.integers(1400, 1900, size=40))
        corpus = cn.Corpus(
            artifacts=make_corpus(years, feats).artifacts,
            features={"a": cn.FeatureSet("a", feats), "b": cn.FeatureSet("b", feats.copy())},
        )
        results = cn.run_multi_aspect(corpus, config)
        assert list(results) == ["a", "b"]
        assert np.array_equal(results["a"].score.scores, results["b"].score.scores)

    def test_dimension_permutation_invariance(self, config):
        rng = np.random.default_rng(52)
        feats = rng.normal(size=(45, 6))
        years = list(rng.integers(1400, 1900, size=45))
        corpus = cn.Corpus(
            artifacts=make_corpus(years, feats).artifacts,
            features={"a": cn.FeatureSet("a", feats),
                      "b": cn.FeatureSet("b", feats[:, ::-1].copy())},
        )
        results = cn.run_multi_aspect(corpus, cn.RunConfig(k=8, seed=3, sigma=1.0))
        np.testing.assert_allclose(results["a"].score.scores,
                                   results["b"].score.scores, atol=1e-10)


class TestRanks:
    def test_rank_one_is_highest(self):
        ranks = cn.score_ranks(np.array([0.1, 0.7, 0.2]), ("x", "y", "z"))
        assert ranks.tolist() == [3, 1, 2]

    def test_ties_break_by_id(self):
        ranks = cn.score_ranks(np.array([0.25, 0.25, 0.5]), ("b", "a", "c"))
        assert ranks.tolist() == [3, 2, 1]

    def test_ids_differing_by_a_trailing_nul_do_not_tie(self):
        ranks = cn.score_ranks(np.array([0.5, 0.5, 0.5]), ("a\0", "a", "b"))
        assert ranks.tolist() == [2, 1, 3]

    def test_like_a_sort_by_score_then_id(self):
        rng = np.random.default_rng(52)
        scores = rng.integers(0, 40, size=2000) / 40.0  # many ties
        ids = tuple(f"p{i}" for i in rng.permutation(2000))  # "p10" sorts before "p9"
        order = sorted(range(2000), key=lambda i: (-scores[i], ids[i]))
        want = np.empty(2000, dtype=np.int64)
        want[order] = np.arange(1, 2001)
        assert np.array_equal(cn.score_ranks(scores, ids), want)


@pytest.fixture(scope="module")
def results(corpus, config):
    return cn.run_multi_aspect(corpus, config)


class TestScoreOutputs:
    def test_scores_csv_shape_and_roundtrip(self, results, corpus, config, tmp_path):
        path = tmp_path / "scores.csv"
        cn.write_scores_csv(results, corpus, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "id,year,aspect,score,rank"
        assert len(lines) == 1 + corpus.n
        ranks = cn.score_ranks(results["visual"].score.scores, corpus.ids)
        for i, line in enumerate(lines[1:]):
            ident, year, aspect, score, rank = line.split(",")
            assert ident == corpus.ids[i]
            assert int(year) == int(corpus.years[i])
            assert aspect == "visual"
            assert float(score) == results["visual"].score.scores[i]  # repr round-trip
            assert int(rank) == ranks[i]

    def test_scores_csv_blocks_per_aspect(self, config, tmp_path):
        rng = np.random.default_rng(53)
        feats = rng.normal(size=(10, 3))
        years = list(rng.integers(1500, 1800, size=10))
        corpus = cn.Corpus(
            artifacts=make_corpus(years, feats).artifacts,
            features={"a": cn.FeatureSet("a", feats), "b": cn.FeatureSet("b", feats.copy())},
        )
        path = tmp_path / "scores.csv"
        cn.write_scores_csv(cn.run_multi_aspect(corpus, config), corpus, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 1 + 2 * corpus.n
        assert all(line.split(",")[2] == "a" for line in lines[1:11])
        assert all(line.split(",")[2] == "b" for line in lines[11:])

    def test_run_meta_contents(self, results, corpus, config, tmp_path):
        path = tmp_path / "run_meta.json"
        cn.write_run_meta(results, corpus, config, path)
        meta = json.loads(path.read_text(encoding="utf-8"))
        assert meta["n_artifacts"] == corpus.n
        assert meta["config"] == json.loads(json.dumps(config.as_dict()))
        stats = meta["aspects"]["visual"]
        graph, thresholds, net = stages_of(corpus, config, results["visual"])
        assert stats["graph_edges"] == graph.n_edges == results["visual"].graph_edges
        assert stats["cin_edges"] == net.n_edges
        assert stats["kept"] == net.kept_count
        assert stats["reversed"] == net.reversed_count
        assert stats["dropped"] == net.dropped_count
        assert stats["reversed_fraction"] == net.reversed_count / graph.n_edges
        assert stats["dangling_count"] == results["visual"].dangling_count
        assert stats["solver"]["name"] == "power"
        assert stats["solver"]["converged"] is True
        assert stats["threshold"] == reference_percentile(graph.weight, config.percentile_p)
        assert np.all(thresholds == stats["threshold"])
        assert not {"threshold_min", "threshold_median", "threshold_max"} & set(stats)
        assert stats["sigma_auto"] is True
        assert stats["sigma"] == results["visual"].sigma
        configured = cn.RunConfig(k=8, seed=3, sigma_overrides={"visual": 1.5})
        cn.write_run_meta(cn.run_multi_aspect(corpus, configured), corpus, configured, path)
        stats = json.loads(path.read_text(encoding="utf-8"))["aspects"]["visual"]
        assert stats["sigma_auto"] is False
        assert stats["sigma"] == 1.5

    def test_run_meta_local_thresholds(self, corpus, tmp_path):
        config = cn.RunConfig(k=8, seed=3, balancing_mode="local", local_window_years=40)
        results = cn.run_multi_aspect(corpus, config)
        path = tmp_path / "run_meta.json"
        cn.write_run_meta(results, corpus, config, path)
        stats = json.loads(path.read_text(encoding="utf-8"))["aspects"]["visual"]
        m = stages_of(corpus, config, results["visual"])[1]
        assert np.unique(m).size > 1
        assert stats["threshold_min"] == m.min()
        assert stats["threshold_max"] == m.max()
        assert stats["threshold_median"] == np.sort(m)[(m.size + 1) // 2 - 1]  # nearest rank
        assert "threshold" not in stats

    def test_run_meta_threshold_without_edges(self, tmp_path):
        corpus = make_corpus([1500, 1500, 1500], np.eye(3))
        for mode, keys in (("global", ["threshold"]),
                           ("local", ["threshold_min", "threshold_median", "threshold_max"])):
            config = cn.RunConfig(k=2, sigma=1.0, balancing_mode=mode)
            path = tmp_path / f"{mode}.json"
            cn.write_run_meta(cn.run_multi_aspect(corpus, config), corpus, config, path)
            stats = json.loads(path.read_text(encoding="utf-8"))["aspects"]["visual"]
            assert [stats[key] for key in keys] == [None] * len(keys)

    def test_output_files_deterministic(self, results, corpus, config, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        first.mkdir()
        second.mkdir()
        for out in (first, second):
            cn.write_scores_csv(results, corpus, out / "scores.csv")
            cn.write_run_meta(results, corpus, config, out / "run_meta.json")
        assert (first / "scores.csv").read_bytes() == (second / "scores.csv").read_bytes()
        assert (first / "run_meta.json").read_bytes() == (second / "run_meta.json").read_bytes()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkPair:
    """`_fork_pair` runs its first callable in a forked child, its second here."""

    @pytest.fixture(autouse=True)
    def deadline(self):
        """Fail a test whose pipe read or wait hangs, rather than hang the suite."""
        def expire(signum, frame):
            raise TimeoutError("_fork_pair did not return within 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_results_in_order(self):
        first, second = _fork_pair(lambda: ("first", os.getpid()),
                                   lambda: ("second", os.getpid()))
        assert first[0] == "first" and first[1] != os.getpid()  # ran in the child
        assert second == ("second", os.getpid())
        assert_no_child_left()

    def test_result_larger_than_the_pipe_buffer(self):
        big = np.arange(1 << 20, dtype=np.float64)  # 8 MiB, far over a pipe's 64 KiB
        got, mine = _fork_pair(lambda: big * 2.0, lambda: big.sum())
        assert np.array_equal(got, big * 2.0) and mine == big.sum()
        assert_no_child_left()

    @pytest.mark.parametrize("error", [FileNotFoundError(2, "No such file", "x/graph.csv"),
                                       ValueError("row 7: bad year"),
                                       cn.ConfigError("k must be a positive integer")])
    def test_child_exception_keeps_type_and_message(self, error):
        def fail():
            raise error

        with pytest.raises(type(error)) as got:
            _fork_pair(fail, lambda: None)
        assert type(got.value) is type(error) and str(got.value) == str(error)
        assert_no_child_left()

    def test_unpicklable_child_exception_keeps_its_name_and_message(self):
        class LocalError(Exception):  # a local class cannot be pickled
            pass

        def fail():
            raise LocalError("lost in transit")

        with pytest.raises(RuntimeError, match="LocalError: lost in transit"):
            _fork_pair(fail, lambda: None)
        assert_no_child_left()

    def test_child_killed_by_a_signal(self):
        with pytest.raises(OSError, match="signal 9"):
            _fork_pair(lambda: os.kill(os.getpid(), signal.SIGKILL), lambda: "parent")
        assert_no_child_left()

    def test_parent_exception_wins_and_child_is_reaped(self, tmp_path):
        marker = tmp_path / "child.done"

        def fail():
            raise ValueError("parent half failed")

        with pytest.raises(ValueError, match="parent half failed"):
            _fork_pair(lambda: marker.write_text("done"), fail)
        assert marker.read_text() == "done"  # the child ran to its end before the raise
        assert_no_child_left()

    def test_without_fork_both_run_here(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert _fork_pair(os.getpid, os.getpid) == (os.getpid(), os.getpid())

    def test_buffered_output_from_before_the_fork_appears_once(self, capfd, monkeypatch):
        buffered = io.TextIOWrapper(io.BufferedWriter(io.FileIO(os.dup(1), "w"), 1 << 16))
        monkeypatch.setattr(sys, "stdout", buffered)
        print("before the fork")  # still in this process's buffer when it forks
        assert _fork_pair(lambda: 1, lambda: 2) == (1, 2)
        buffered.flush()
        monkeypatch.undo()
        buffered.close()
        assert capfd.readouterr().out == "before the fork\n"
        assert_no_child_left()

    @pytest.mark.filterwarnings("ignore:n_test")
    @pytest.mark.parametrize("command", ["dump-graph", "timemachine"])
    def test_commands_leave_no_child_or_thread(self, tmp_path, monkeypatch, command):
        # the graph build starts a helper thread (two CPUs, several slabs) and
        # joins it before the command forks; nothing is left when it returns
        use_slab_rows(monkeypatch, 16, 120)
        use_cpus(monkeypatch, 2)
        starts = count_thread_starts(monkeypatch)
        rng = np.random.default_rng(51)
        years = rng.integers(1500, 1600, size=120)
        corpus = make_corpus(years, rng.normal(size=(120, 4)),
                             styles=["late" if y >= 1580 else "early" for y in years])
        manifest, features = write_corpus_files(corpus, tmp_path / "corpus")
        argv = [command, "--manifest", str(manifest), "--features", f"visual={features['visual']}",
                "--set", "k=6", "--out", str(tmp_path / "out")]
        if command == "timemachine":
            argv += ["--set", "timemachine.group=style=late", "--set", "timemachine.move=back",
                     "--set", "timemachine.n_test=3", "--set", "timemachine.n_runs=3"]
        before = threading.active_count()
        assert main(argv) == 0
        assert starts  # the build ran on two workers
        assert threading.active_count() == before
        assert_no_child_left()


class TestTinyBudgets:
    """Every stage's scratch budget cut to one row, edge or pair: the output files keep their bytes."""

    COMMANDS = {
        "score": ["--plot", "--set", "k=9", "--set", "alpha=0.5"],
        "dump-graph": ["--set", "k=9", "--set", "balancing_mode=local", "--set", "temporal_prior=window",
                       "--set", "temporal_window_k=60"],
        "timemachine": ["--set", "k=9", "--set", "scoring=split", "--set", "timemachine.group=style=late",
                        "--set", "timemachine.move=back", "--set", "timemachine.n_test=4",
                        "--set", "timemachine.n_runs=3"],
    }

    @pytest.mark.filterwarnings("ignore:n_test")
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_outputs_equal_the_default_budgets(self, tmp_path, monkeypatch, command):
        rng = np.random.default_rng(70)
        years = rng.integers(1500, 1600, size=160)
        corpus = make_corpus(years, rng.normal(size=(160, 6)),
                             styles=["late" if y >= 1580 else "early" for y in years])
        manifest, _ = write_corpus_files(corpus, tmp_path / "corpus")
        features = tmp_path / "corpus" / "visual.crft"
        write_features_binary(features, corpus.features["visual"].vectors)
        argv = [command, "--manifest", str(manifest), "--features", f"visual={features}",
                *self.COMMANDS[command]]

        def outputs(out):
            assert main([*argv, "--out", str(out)]) == 0
            return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in sorted(out.iterdir())}

        default = outputs(tmp_path / "default")
        use_cpus(monkeypatch, 2)
        for module, name in ((graph_module, "_SLAB_BYTES"), (graph_module, "_EDGE_BYTES"),
                             (graph_module, "_CSV_BYTES"), (corpus_module, "_CHUNK_BYTES")):
            monkeypatch.setattr(module, name, 1)  # the one-row, one-edge, one-pair floors
        tiny = outputs(tmp_path / "tiny")
        assert tiny == default
        assert set(default) >= {"score": {"scores.csv", "run_meta.json", "plot.svg"},
                                "dump-graph": {"graph.csv", "cin.csv"},
                                "timemachine": {"report.csv", "runs.csv"}}[command]
