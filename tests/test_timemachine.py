"""Time-machine experiments: spec parsing, target selection, runs, reports."""

import dataclasses

import numpy as np
import pytest

import creanet as cn

from conftest import make_corpus

PLANTED_CONFIG = cn.RunConfig(k=30)


class TestSpec:
    def test_defaults(self):
        spec = cn.TimeMachineSpec(group="style=innovator", move="back")
        assert spec.move_std == 50.0 and spec.n_test == 10 and spec.n_runs == 10
        assert spec.seed is None and spec.min_year is None and spec.max_year is None

    @pytest.mark.parametrize("move,mean", [("back", 1600), ("forward", 1900), ("wander", 1600)])
    def test_default_move_mean(self, move, mean):
        assert cn.TimeMachineSpec(group="ids=a", move=move).mean == mean

    def test_explicit_move_mean_wins(self):
        spec = cn.TimeMachineSpec(group="ids=a", move="back", move_mean=1750)
        assert spec.mean == 1750

    @pytest.mark.parametrize("kwargs,fragment", [
        ({"group": "ids=a", "move": "sideways"}, "move"),
        ({"group": "innovators", "move": "back"}, "group"),
        ({"group": "ids=a", "move": "back", "move_std": 0.0}, "move_std"),
        ({"group": "ids=a", "move": "back", "n_test": 0}, "n_test"),
        ({"group": "ids=a", "move": "back", "n_runs": 0}, "n_runs"),
        ({"group": "ids=a", "move": "back", "min_year": 1800, "max_year": 1700}, "min_year"),
        ({"group": "ids=a", "move": "back", "seed": -1}, "timemachine.seed"),
        ({"group": "ids=a", "move": "back", "seed": 2 ** 64}, "timemachine.seed"),
        ({"group": "ids=a", "move": "back", "seed": 1.5}, "timemachine.seed"),
    ])
    def test_validation(self, kwargs, fragment):
        with pytest.raises(cn.ConfigError, match=fragment):
            cn.TimeMachineSpec(**kwargs)


class TestSpecFromMapping:
    def test_parses_prefixed_keys_only(self):
        spec = cn.spec_from_mapping({
            "timemachine.group": "style=innovator",
            "timemachine.move": "back",
            "timemachine.move_std": "25.5",
            "timemachine.n_runs": "3",
            "timemachine.seed": "9",
            "alpha": "0.5",
        })
        assert spec.group == "style=innovator" and spec.move == "back"
        assert spec.move_std == 25.5 and spec.n_runs == 3 and spec.seed == 9
        assert spec.n_test == 10

    @pytest.mark.parametrize("missing", ["group", "move"])
    def test_missing_required_key(self, missing):
        mapping = {"timemachine.group": "ids=a", "timemachine.move": "back"}
        del mapping[f"timemachine.{missing}"]
        with pytest.raises(cn.ConfigError, match=f"timemachine.{missing}"):
            cn.spec_from_mapping(mapping)

    def test_unknown_prefixed_key(self):
        with pytest.raises(cn.ConfigError, match="timemachine.velocity"):
            cn.spec_from_mapping({"timemachine.group": "ids=a", "timemachine.move": "back",
                                  "timemachine.velocity": "3"})

    def test_bad_value_reports_key_and_type(self):
        with pytest.raises(cn.ConfigError, match="timemachine.n_test.*int"):
            cn.spec_from_mapping({"timemachine.group": "ids=a", "timemachine.move": "back",
                                  "timemachine.n_test": "many"})


class TestResolveTargets:
    def test_style_selector_manifest_order(self, planted):
        targets = cn.resolve_targets(planted, "style=innovator")
        assert targets.tolist() == list(range(95, 110))

    def test_ids_selector_sorted_unique(self, planted):
        targets = cn.resolve_targets(planted, "ids=p0003,p0001, p0002,p0001")
        assert targets.tolist() == [1, 2, 3]

    def test_unknown_style(self, planted):
        with pytest.raises(cn.ConfigError, match="no artifacts with style 'cubist'"):
            cn.resolve_targets(planted, "style=cubist")

    def test_unknown_id(self, planted):
        with pytest.raises(cn.ConfigError, match="unknown artifact id 'p9999'"):
            cn.resolve_targets(planted, "ids=p0001,p9999")

    def test_bad_selector_shape(self, planted):
        with pytest.raises(cn.ConfigError, match="group must look like"):
            cn.resolve_targets(planted, "everything")


@pytest.mark.filterwarnings("ignore:n_test")
class TestRunTimeMachine:
    def test_errors_when_n_test_too_large_for_corpus(self):
        corpus = make_corpus([1500, 1600, 1700], np.eye(3))
        spec = cn.TimeMachineSpec(group="ids=p0000", move="back", n_test=10)
        with pytest.raises(cn.ConfigError, match="smaller than the corpus"):
            cn.run_time_machine(corpus, cn.RunConfig(), spec)

    def test_errors_when_pool_smaller_than_n_test(self, planted):
        spec = cn.TimeMachineSpec(group="style=innovator", move="back", n_test=20)
        with pytest.raises(cn.ConfigError, match="fewer than n_test"):
            cn.run_time_machine(planted, PLANTED_CONFIG, spec)

    def test_small_test_fraction_notice(self, planted):
        spec = cn.TimeMachineSpec(group="style=innovator", move="back", n_runs=1)
        with pytest.warns(UserWarning, match="1%"):
            cn.run_time_machine(planted, PLANTED_CONFIG, spec)

    def test_temporal_prior_warning(self, planted):
        spec = cn.TimeMachineSpec(group="style=innovator", move="back",
                                  n_test=2, n_runs=1)
        config = dataclasses.replace(PLANTED_CONFIG, temporal_prior="window")
        with pytest.warns(UserWarning, match="temporal prior"):
            cn.run_time_machine(planted, config, spec)

    def test_report_structure_and_recomputation(self, planted):
        spec = cn.TimeMachineSpec(group="style=innovator", move="back", n_runs=3)
        report = cn.run_time_machine(planted, PLANTED_CONFIG, spec)
        assert report.aspect == "visual"
        assert report.sigma == cn.resolve_sigma(planted, "visual", PLANTED_CONFIG)
        assert len(report.runs) == 3
        pool = set(cn.resolve_targets(planted, spec.group).tolist())
        for r, run in enumerate(report.runs):
            assert run.run == r
            assert np.all(np.diff(run.targets) > 0)
            assert set(run.targets.tolist()) <= pool
            np.testing.assert_array_equal(run.old_years, planted.years[run.targets])
            expected = (run.new_scores - run.base_scores) / run.base_scores * 100.0
            np.testing.assert_array_equal(run.gains_pct, expected)
            assert run.mean_gain == float(run.gains_pct.mean())
            assert run.pct_increase == float((run.gains_pct > 0.0).mean() * 100.0)
        means = [run.mean_gain for run in report.runs]
        pcts = [run.pct_increase for run in report.runs]
        assert report.mean_gain == float(np.mean(means))
        assert report.std_gain == float(np.std(np.array(means), ddof=1))
        assert report.pct_increase == float(np.mean(pcts))
        assert report.std_pct == float(np.std(np.array(pcts), ddof=1))
        assert report.converged

    def test_single_run_has_zero_std(self, planted):
        spec = cn.TimeMachineSpec(group="style=innovator", move="back", n_runs=1)
        report = cn.run_time_machine(planted, PLANTED_CONFIG, spec)
        assert report.std_gain == 0.0 and report.std_pct == 0.0

    def test_deterministic_across_calls(self, planted):
        spec = cn.TimeMachineSpec(group="style=innovator", move="back", n_runs=2)
        a = cn.run_time_machine(planted, PLANTED_CONFIG, spec)
        b = cn.run_time_machine(planted, PLANTED_CONFIG, spec)
        assert (a.mean_gain, a.std_gain, a.pct_increase, a.std_pct) == \
               (b.mean_gain, b.std_gain, b.pct_increase, b.std_pct)
        for ra, rb in zip(a.runs, b.runs):
            np.testing.assert_array_equal(ra.targets, rb.targets)
            np.testing.assert_array_equal(ra.new_years, rb.new_years)
            np.testing.assert_array_equal(ra.new_scores, rb.new_scores)

    def test_spec_seed_overrides_config_seed(self, planted):
        base = cn.TimeMachineSpec(group="style=innovator", move="back", n_runs=1)
        other_config = dataclasses.replace(PLANTED_CONFIG, seed=123)
        with_fallback = cn.run_time_machine(planted, PLANTED_CONFIG, base)
        pinned = cn.run_time_machine(planted, other_config,
                                     dataclasses.replace(base, seed=PLANTED_CONFIG.seed))
        np.testing.assert_array_equal(with_fallback.runs[0].targets, pinned.runs[0].targets)
        np.testing.assert_array_equal(with_fallback.runs[0].new_years, pinned.runs[0].new_years)
        reseeded = cn.run_time_machine(planted, PLANTED_CONFIG,
                                       dataclasses.replace(base, seed=99))
        assert not np.array_equal(with_fallback.runs[0].new_years, reseeded.runs[0].new_years)

    def test_sigma_resolved_once_baseline_once(self, planted, monkeypatch):
        import creanet.graph as graph_module
        import creanet.pipeline as pipeline_module
        import creanet.timemachine as tm
        sigma_calls, pipeline_calls, build_calls = [], [], []
        real_sigma, real_pipeline, real_build = tm.resolve_sigma, tm.run_pipeline, tm.build_graph

        def counting_sigma(*args, **kwargs):
            sigma_calls.append(1)
            return real_sigma(*args, **kwargs)

        def counting_pipeline(*args, **kwargs):
            pipeline_calls.append(kwargs.get("sigma"))
            return real_pipeline(*args, **kwargs)

        def counting_build(*args, **kwargs):
            build_calls.append(1)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(tm, "resolve_sigma", counting_sigma)
        monkeypatch.setattr(tm, "run_pipeline", counting_pipeline)
        for module in (tm, graph_module, pipeline_module):
            monkeypatch.setattr(module, "build_graph", counting_build)
        spec = cn.TimeMachineSpec(group="style=innovator", move="back", n_runs=3)
        report = cn.run_time_machine(planted, PLANTED_CONFIG, spec)
        assert len(sigma_calls) == 1
        assert len(pipeline_calls) == 1 + 3  # baseline + one per run
        assert all(s == report.sigma for s in pipeline_calls)
        assert len(build_calls) == 1  # the baseline's; each run updates its graph

    def test_new_years_clamped_to_corpus_range(self, planted):
        spec = cn.TimeMachineSpec(group="style=innovator", move="forward",
                                  move_mean=5000, move_std=1.0, n_runs=1)
        report = cn.run_time_machine(planted, PLANTED_CONFIG, spec)
        assert np.all(report.runs[0].new_years == 1900)
        spec = cn.TimeMachineSpec(group="style=archetype", move="back",
                                  move_mean=-2000, move_std=1.0, n_runs=1)
        report = cn.run_time_machine(planted, PLANTED_CONFIG, spec)
        assert np.all(report.runs[0].new_years == 1400)

    @pytest.mark.parametrize("bounds", [{"min_year": 1950}, {"max_year": 1350}])
    def test_year_range_crossing_the_corpus_rejected(self, planted, bounds):
        # planted spans 1400-1900; the unset bound comes from the corpus
        spec = cn.TimeMachineSpec(group="style=innovator", move="back", n_runs=1, **bounds)
        with pytest.raises(cn.ConfigError, match="timemachine.min_year.*timemachine.max_year"):
            cn.run_time_machine(planted, PLANTED_CONFIG, spec)

    def test_explicit_year_bounds_override_corpus(self, planted):
        spec = cn.TimeMachineSpec(group="style=innovator", move="back",
                                  move_mean=1000, move_std=1.0, n_runs=1,
                                  min_year=1535, max_year=1890)
        report = cn.run_time_machine(planted, PLANTED_CONFIG, spec)
        assert np.all(report.runs[0].new_years == 1535)

    def test_original_corpus_not_mutated(self, planted):
        before = planted.years.copy()
        spec = cn.TimeMachineSpec(group="style=innovator", move="back", n_runs=1)
        cn.run_time_machine(planted, PLANTED_CONFIG, spec)
        np.testing.assert_array_equal(planted.years, before)

    def test_non_convergence_propagates(self, planted):
        config = dataclasses.replace(PLANTED_CONFIG, tol=1e-30, max_iters=1)
        spec = cn.TimeMachineSpec(group="style=innovator", move="back", n_runs=1)
        report = cn.run_time_machine(planted, config, spec)
        assert not report.converged

    def test_explicit_aspect_selection(self):
        rng = np.random.default_rng(54)
        feats = rng.normal(size=(30, 4))
        years = list(rng.integers(1500, 1800, size=30))
        base = make_corpus(years, feats)
        corpus = cn.Corpus(artifacts=base.artifacts,
                           features={"a": cn.FeatureSet("a", feats),
                                     "b": cn.FeatureSet("b", rng.normal(size=(30, 4)))})
        spec = cn.TimeMachineSpec(group="ids=" + ",".join(corpus.ids[:3]),
                                  move="back", n_test=2, n_runs=1)
        report = cn.run_time_machine(corpus, cn.RunConfig(k=5), spec, aspect="b")
        assert report.aspect == "b"


@pytest.mark.filterwarnings("ignore:n_test")
class TestDirectionSmoke:
    """Direction signs at reduced run counts; the full protocol runs in acceptance."""

    def test_innovators_gain_when_moved_back(self, planted):
        spec = cn.TimeMachineSpec(group="style=innovator", move="back", n_runs=2)
        report = cn.run_time_machine(planted, PLANTED_CONFIG, spec)
        assert all(run.mean_gain > 0.0 for run in report.runs)

    def test_archetypes_lose_when_moved_forward(self, planted):
        spec = cn.TimeMachineSpec(group="style=archetype", move="forward", n_runs=2)
        report = cn.run_time_machine(planted, PLANTED_CONFIG, spec)
        assert all(run.mean_gain < 0.0 for run in report.runs)


@pytest.fixture(scope="module")
def report(planted):
    spec = cn.TimeMachineSpec(group="style=innovator", move="back", n_test=4, n_runs=2)
    return cn.run_time_machine(planted, PLANTED_CONFIG, spec)


@pytest.mark.filterwarnings("ignore:n_test")
class TestReportFiles:
    def test_report_csv(self, report, tmp_path):
        path = tmp_path / "report.csv"
        cn.write_report_csv(report, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "group,move,mean_gain,std_gain,pct_increase,std_pct"
        assert len(lines) == 2
        group, move, mean_gain, std_gain, pct_increase, std_pct = lines[1].split(",")
        assert group == "style=innovator" and move == "back"
        assert float(mean_gain) == report.mean_gain
        assert float(std_gain) == report.std_gain
        assert float(pct_increase) == report.pct_increase
        assert float(std_pct) == report.std_pct

    def test_runs_csv(self, report, planted, tmp_path):
        path = tmp_path / "runs.csv"
        cn.write_runs_csv(report, planted, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "run,id,old_year,new_year,base_score,new_score,gain_pct"
        assert len(lines) == 1 + 2 * 4
        run = report.runs[0]
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[1] == planted.ids[run.targets[0]]
        assert int(first[2]) == run.old_years[0]
        assert int(first[3]) == run.new_years[0]
        assert float(first[6]) == run.gains_pct[0]
