"""End-to-end pipeline: sigma resolution, stage stats, multi-aspect runs, outputs."""

import io
import json
import os
import signal
import sys

import numpy as np
import pytest

import creanet as cn
from creanet.pipeline import _fork_pair

from conftest import cin_edges, make_corpus, random_corpus, solve_closed_form


@pytest.fixture(scope="module")
def corpus():
    return random_corpus(seed=50, n=60, dim=6)


@pytest.fixture(scope="module")
def config():
    return cn.RunConfig(k=8, seed=3)


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
        net = result.network
        assert net.kept_count + net.reversed_count == net.n_edges
        assert net.kept_count + net.reversed_count + net.dropped_count == result.graph.n_edges
        has_incoming = np.zeros(corpus.n, dtype=bool)
        has_incoming[cin_edges(net)[1]] = True
        assert result.dangling_count == int((~has_incoming).sum())
        assert result.score.converged
        assert result.score.solver == "power"

    def test_pinned_sigma_skips_estimation(self, corpus, config):
        result = cn.run_pipeline(corpus, "visual", config, sigma=0.75)
        assert result.sigma == 0.75

    def test_power_and_closed_form_agree(self, corpus):
        config = cn.RunConfig(k=8, seed=3, tol=1e-13)
        a = cn.run_pipeline(corpus, "visual", config)
        b = solve_closed_form(cn.normalize(a.network), config.alpha)
        assert np.abs(a.score.scores - b.scores).max() < 1e-8

    def test_split_scoring_paths(self, corpus):
        config = cn.RunConfig(k=8, seed=3, scoring="split", beta=0.3, tol=1e-13)
        a = cn.run_pipeline(corpus, "visual", config)
        b = solve_closed_form(cn.normalize(a.network, config.beta), config.alpha)
        assert np.abs(a.score.scores - b.scores).max() < 1e-8
        # split dangling = no incoming edge of either label
        has_incoming = np.zeros(corpus.n, dtype=bool)
        has_incoming[cin_edges(a.network)[1]] = True
        assert a.dangling_count == int((~has_incoming).sum())

    def test_rerun_is_bitwise_identical(self, corpus, config):
        a = cn.run_pipeline(corpus, "visual", config)
        b = cn.run_pipeline(corpus, "visual", config)
        assert np.array_equal(a.score.scores, b.score.scores)
        assert a.sigma == b.sigma

    def test_single_year_corpus_scores_uniform(self):
        corpus = make_corpus([1700] * 5, np.arange(10.0).reshape(5, 2))
        result = cn.run_pipeline(corpus, "visual", cn.RunConfig(), sigma=1.0)
        assert result.graph.n_edges == 0
        assert result.network.n_edges == 0
        assert result.dangling_count == 5
        np.testing.assert_allclose(result.score.scores, 0.2, atol=1e-15)


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
        net = results["visual"].network
        assert stats["graph_edges"] == results["visual"].graph.n_edges
        assert stats["cin_edges"] == net.n_edges
        assert stats["kept"] == net.kept_count
        assert stats["reversed"] == net.reversed_count
        assert stats["dropped"] == net.dropped_count
        assert stats["reversed_fraction"] == net.reversed_count / results["visual"].graph.n_edges
        assert stats["dangling_count"] == results["visual"].dangling_count
        assert stats["solver"]["name"] == "power"
        assert stats["solver"]["converged"] is True
        graph = results["visual"].graph
        assert stats["threshold"] == cn.nearest_rank_percentile(graph.weight, config.percentile_p)
        assert np.all(results["visual"].thresholds == stats["threshold"])
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
        m = cn.compute_thresholds(results["visual"].graph, corpus.years, config)
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
