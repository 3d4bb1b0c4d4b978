"""Command-line interface: exit codes, output files, overrides, determinism."""

import json
import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import creanet as cn
from creanet import cli as cli_module
from creanet.cli import EXIT_INVALID, EXIT_IO, EXIT_NUMERICAL, EXIT_OK, main

from conftest import build_stages, make_corpus, write_corpus_files, write_features_binary


@pytest.fixture()
def tiny(tmp_path):
    """The documentation example: 3 artifacts, one 4-dim aspect."""
    corpus = make_corpus([1500, 1600, 1700],
                         np.array([[1.0, 0.0, 0.0, 0.0],
                                   [0.8, 0.1, 0.0, 0.0],
                                   [0.0, 0.0, 1.0, 0.5]]),
                         ids=["a", "b", "c"])
    manifest, features = write_corpus_files(corpus, tmp_path / "corpus")
    return manifest, features["visual"]


def tiny_args(tiny):
    manifest, features = tiny
    return ["--manifest", str(manifest), "--features", f"visual={features}"]


@pytest.fixture()
def styled(tmp_path):
    """A 40-artifact corpus with style labels for timemachine runs."""
    rng = np.random.default_rng(55)
    n = 40
    years = [1450 + 10 * i for i in range(n)]
    styles = ["early" if y < 1600 else "late" for y in years]
    feats = rng.normal(size=(n, 5))
    corpus = make_corpus(years, feats, styles=styles)
    manifest, features = write_corpus_files(corpus, tmp_path / "styled")
    return manifest, features["visual"]


def read_scores(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "id,year,aspect,score,rank"
    rows = [line.split(",") for line in lines[1:]]
    return {r[0]: (int(r[1]), r[2], float(r[3]), int(r[4])) for r in rows}


class TestValidate:
    def test_reports_shape(self, tiny, capsys):
        assert main(["validate"] + tiny_args(tiny)) == EXIT_OK
        assert capsys.readouterr().out == "3 artifacts, 1 aspect, dim 4\n"

    def test_multi_aspect_report(self, tiny, tmp_path, capsys):
        manifest, features = tiny
        other = tmp_path / "other.csv"
        other.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n", encoding="utf-8")
        code = main(["validate", "--manifest", str(manifest),
                     "--features", f"visual={features}", "--features", f"color={other}"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == "3 artifacts, 2 aspects, dims visual=4, color=2\n"

    def test_binary_feature_file(self, tiny, tmp_path, capsys):
        manifest, _ = tiny
        rng = np.random.default_rng(0)
        binary = tmp_path / "feat.bin"
        write_features_binary(binary, rng.normal(size=(3, 4)).astype(np.float32))
        assert main(["validate", "--manifest", str(manifest),
                     "--features", f"visual={binary}"]) == EXIT_OK
        assert capsys.readouterr().out == "3 artifacts, 1 aspect, dim 4\n"

    def test_duplicate_id_exits_invalid(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("id,year\nx,1500\nx,1600\n", encoding="utf-8")
        features = tmp_path / "f.csv"
        features.write_text("1.0\n2.0\n", encoding="utf-8")
        code = main(["validate", "--manifest", str(manifest), "--features", f"visual={features}"])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'x'" in err

    def test_missing_feature_file_exits_io(self, tiny, capsys):
        manifest, _ = tiny
        code = main(["validate", "--manifest", str(manifest),
                     "--features", "visual=/nonexistent/f.csv"])
        assert code == EXIT_IO
        assert "error:" in capsys.readouterr().err

    def test_no_manifest_exits_invalid(self, tiny, capsys):
        _, features = tiny
        assert main(["validate", "--features", f"visual={features}"]) == EXIT_INVALID
        assert "manifest" in capsys.readouterr().err

    def test_no_features_exits_invalid(self, tiny, capsys):
        manifest, _ = tiny
        assert main(["validate", "--manifest", str(manifest)]) == EXIT_INVALID
        assert "feature" in capsys.readouterr().err

    @pytest.mark.parametrize("pair, key", [("alpha=5", "alpha"), ("k=abc", "k")])
    def test_bad_config_value_exits_invalid(self, tiny, capsys, pair, key):
        # validate rejects every value that score rejects
        assert main(["validate"] + tiny_args(tiny) + ["--set", pair]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {key}") and not captured.out

    def test_malformed_features_flag(self, tiny, capsys):
        manifest, _ = tiny
        assert main(["validate", "--manifest", str(manifest),
                     "--features", "just-a-path.csv"]) == EXIT_INVALID
        assert "ASPECT=PATH" in capsys.readouterr().err

    @pytest.mark.parametrize("pair", ["=features.csv", "visual="], ids=["no_aspect", "no_path"])
    def test_features_flag_without_aspect_or_path(self, tiny, capsys, pair):
        manifest, _ = tiny
        assert main(["validate", "--manifest", str(manifest), "--features", pair]) == EXIT_INVALID
        assert "ASPECT=PATH" in capsys.readouterr().err



def crft_file(path, transform):
    """A valid 3 x 4 CRFT file of ones, its bytes passed through `transform`."""
    write_features_binary(path, np.ones((3, 4)))
    path.write_bytes(transform(path.read_bytes()))
    return path


ROW_2 = 16 + 4 * 4  # the byte offset of a 3 x 4 CRFT file's second row

# Each fault: the bytes of a valid CRFT file made bad, and the row the message names.
FEATURE_FAULTS = {
    "crft_truncated_header": (lambda raw: raw[:10], None),
    "crft_bad_magic": (lambda raw: b"CRFX" + raw[4:], None),  # read as text, which it is not
    "crft_dim_zero": (lambda raw: raw[:8] + bytes(8), None),
    "crft_non_finite": (lambda raw: raw[:ROW_2] + np.float32(np.inf).tobytes() + raw[ROW_2 + 4:],
                        2),
    "csv_no_rows": (lambda raw: b"\n \n", None),
}


class TestValidateRejectsBadInput:
    """Bad input exits 2 with a message that names the file and, where there is one, the row."""

    @pytest.mark.parametrize("fault", sorted(FEATURE_FAULTS))
    def test_bad_feature_file(self, tiny, tmp_path, capsys, fault):
        manifest, _ = tiny
        transform, row = FEATURE_FAULTS[fault]
        bad = crft_file(tmp_path / "bad.bin", transform)
        code = main(["validate", "--manifest", str(manifest), "--features", f"visual={bad}"])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{bad}'" in err
        if row is not None:
            assert f"row {row}:" in err

    @pytest.mark.parametrize("text", ["id,year\na,1500\nb,\nc,1700\n",
                                      "id,year\na,1500\n,1600\nc,1700\n"],
                             ids=["empty_year", "empty_id"])
    def test_bad_manifest_row(self, tiny, tmp_path, capsys, text):
        _, features = tiny
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(text, encoding="utf-8")
        code = main(["validate", "--manifest", str(manifest), "--features", f"visual={features}"])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: manifest row 2: ")


class TestScore:
    def test_writes_scores_and_meta(self, tiny, tmp_path):
        out = tmp_path / "out"
        assert main(["score"] + tiny_args(tiny) + ["--out", str(out)]) == EXIT_OK
        scores = read_scores(out / "scores.csv")
        assert set(scores) == {"a", "b", "c"}
        assert scores["a"][0] == 1500 and scores["a"][1] == "visual"
        assert sorted(s[3] for s in scores.values()) == [1, 2, 3]
        meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
        assert meta["n_artifacts"] == 3
        assert meta["aspects"]["visual"]["solver"]["converged"] is True

    def test_alpha_zero_uniform(self, tiny, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["score"] + tiny_args(tiny) + ["--set", "alpha=0", "--out", str(out)])
        assert code == EXIT_OK
        scores = read_scores(out / "scores.csv")
        assert all(s[2] == 1.0 / 3.0 for s in scores.values())
        # tied scores rank by id ascending
        assert scores["a"][3] == 1 and scores["b"][3] == 2 and scores["c"][3] == 3

    def test_rerun_byte_identical(self, tiny, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = ["score"] + tiny_args(tiny) + ["--plot"]
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        for name in ("scores.csv", "run_meta.json", "plot.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_solver_key_exits_invalid(self, tiny, tmp_path, capsys):
        # power iteration is the only solver; the dense solve is a test oracle
        code = main(["score"] + tiny_args(tiny) +
                    ["--set", "solver=closed_form", "--out", str(tmp_path / "out")])
        assert code == EXIT_INVALID
        assert "unknown config key 'solver'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_plot_structure(self, styled, tmp_path):
        manifest, features = styled
        out = tmp_path / "out"
        code = main(["score", "--manifest", str(manifest), "--features", f"visual={features}",
                     "--set", "k=8", "--plot", "--out", str(out)])
        assert code == EXIT_OK
        svg = (out / "plot.svg").read_text(encoding="utf-8")
        assert svg.count("<circle") == 40
        assert 'data-role="x-min">1450<' in svg
        assert 'data-role="x-max">1840<' in svg
        assert 'data-role="y-min">0<' in svg
        assert 'data-role="y-max">1<' in svg

    def test_plot_names_by_aspect(self, tiny, tmp_path):
        manifest, features = tiny
        other = tmp_path / "other.csv"
        other.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["score", "--manifest", str(manifest),
                     "--features", f"visual={features}", "--features", f"color={other}",
                     "--plot", "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "plot.svg").exists() and (out / "plot_color.svg").exists()

    def test_non_convergence_exits_numerical_but_writes(self, tiny, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["score"] + tiny_args(tiny) +
                    ["--set", "tol=1e-30", "--set", "max_iters=1", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert "did not converge" in capsys.readouterr().err
        assert (out / "scores.csv").exists()
        meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
        assert meta["aspects"]["visual"]["solver"]["converged"] is False

    def test_unknown_set_key_exits_invalid(self, tiny, tmp_path, capsys):
        code = main(["score"] + tiny_args(tiny) +
                    ["--set", "alpa=0.5", "--out", str(tmp_path / "out")])
        assert code == EXIT_INVALID
        assert "unknown config key 'alpa'" in capsys.readouterr().err

    def test_plot_title_escaped(self, tiny, tmp_path):
        from xml.dom import minidom
        manifest, features = tiny
        out = tmp_path / "out"
        code = main(["score", "--manifest", str(manifest), "--features", f"a<b&c={features}",
                     "--plot", "--out", str(out)])
        assert code == EXIT_OK
        title = minidom.parse(str(out / "plot.svg")).getElementsByTagName("title")[0]
        assert title.firstChild.data == "creativity scores: a<b&c"

    def test_bad_config_value_exits_invalid(self, tiny, tmp_path, capsys):
        code = main(["score"] + tiny_args(tiny) +
                    ["--set", "alpha=2", "--out", str(tmp_path / "out")])
        assert code == EXIT_INVALID
        assert "alpha" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tiny, tmp_path):
        out = tmp_path / "out"
        code = main(["score"] + tiny_args(tiny) +
                    ["--set", "seed=4", "--seed", "11", "--out", str(out)])
        assert code == EXIT_OK
        meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
        assert meta["config"]["seed"] == 11


class TestKeyNames:
    @pytest.mark.parametrize("command", ["score", "dump-graph", "validate"])
    def test_unknown_time_machine_key_exits_invalid(self, tiny, tmp_path, capsys, command):
        out = [] if command == "validate" else ["--out", str(tmp_path / "out")]
        code = main([command] + tiny_args(tiny) + ["--set", "timemachine.bogus=1"] + out)
        assert code == EXIT_INVALID
        assert "unknown config key 'timemachine.bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["score", "dump-graph", "validate"])
    def test_sigma_override_of_absent_aspect_exits_invalid(self, tiny, tmp_path, capsys, command):
        out = [] if command == "validate" else ["--out", str(tmp_path / "out")]
        code = main([command] + tiny_args(tiny) + ["--set", "sigma.visaul=0.5"] + out)
        assert code == EXIT_INVALID
        assert "'sigma.visaul'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["score", "dump-graph", "validate"])
    def test_malformed_time_machine_value_exits_invalid(self, tiny, tmp_path, capsys, command):
        out = [] if command == "validate" else ["--out", str(tmp_path / "out")]
        code = main([command] + tiny_args(tiny) + ["--set", "timemachine.n_runs=abc"] + out)
        assert code == EXIT_INVALID
        assert "timemachine.n_runs: expected an integer, got 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_time_machine_key_allowed_on_score(self, tiny, tmp_path):
        code = main(["score"] + tiny_args(tiny) +
                    ["--set", "timemachine.n_runs=3", "--out", str(tmp_path / "out")])
        assert code == EXIT_OK


class TestConfigFile:
    def test_relative_paths_resolve_against_config_dir(self, tiny, tmp_path, monkeypatch):
        manifest, features = tiny
        config_dir = manifest.parent
        (config_dir / "run.cfg").write_text(
            "manifest = manifest.csv\nfeature.visual = visual.csv\nalpha = 0.3\n",
            encoding="utf-8")
        out = tmp_path / "out"
        monkeypatch.chdir(tmp_path)  # anywhere but the config dir
        code = main(["score", "--config", str(config_dir / "run.cfg"), "--out", str(out)])
        assert code == EXIT_OK
        meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
        assert meta["config"]["alpha"] == 0.3

    def test_set_overrides_config_file(self, tiny, tmp_path):
        manifest, features = tiny
        config = tmp_path / "run.cfg"
        config.write_text("alpha = 0.5\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["score"] + tiny_args(tiny) +
                    ["--config", str(config), "--set", "alpha=0", "--out", str(out)])
        assert code == EXIT_OK
        scores = read_scores(out / "scores.csv")
        assert all(s[2] == 1.0 / 3.0 for s in scores.values())

    def test_flags_override_config_inputs(self, tiny, tmp_path, capsys):
        manifest, features = tiny
        config = tmp_path / "run.cfg"
        config.write_text("manifest = /nonexistent/m.csv\nfeature.visual = /nonexistent/f.csv\n",
                          encoding="utf-8")
        code = main(["validate", "--config", str(config)] + tiny_args(tiny))
        assert code == EXIT_OK
        assert capsys.readouterr().out == "3 artifacts, 1 aspect, dim 4\n"

    def test_solver_key_exits_invalid(self, tiny, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("solver = power\n", encoding="utf-8")
        code = main(["score", "--config", str(config)] + tiny_args(tiny) +
                    ["--out", str(tmp_path / "out")])
        assert code == EXIT_INVALID
        assert "unknown config key 'solver'" in capsys.readouterr().err

    def test_missing_config_file_exits_io(self, tiny, tmp_path, capsys):
        code = main(["validate", "--config", str(tmp_path / "none.cfg")] + tiny_args(tiny))
        assert code == EXIT_IO


@pytest.mark.filterwarnings("ignore:n_test")
class TestTimeMachine:
    def test_report_and_runs_written(self, styled, tmp_path):
        manifest, features = styled
        out = tmp_path / "out"
        code = main(["timemachine", "--manifest", str(manifest),
                     "--features", f"visual={features}",
                     "--set", "k=8",
                     "--set", "timemachine.group=style=late",
                     "--set", "timemachine.move=back",
                     "--set", "timemachine.n_test=2",
                     "--set", "timemachine.n_runs=2",
                     "--out", str(out)])
        assert code == EXIT_OK
        report_lines = (out / "report.csv").read_text(encoding="utf-8").splitlines()
        assert report_lines[0] == "group,move,mean_gain,std_gain,pct_increase,std_pct"
        assert report_lines[1].startswith("style=late,back,")
        runs_lines = (out / "runs.csv").read_text(encoding="utf-8").splitlines()
        assert runs_lines[0] == "run,id,old_year,new_year,base_score,new_score,gain_pct"
        assert len(runs_lines) == 1 + 2 * 2

    def test_same_seed_identical_runs(self, styled, tmp_path):
        manifest, features = styled
        args = ["timemachine", "--manifest", str(manifest),
                "--features", f"visual={features}",
                "--set", "k=8",
                "--set", "timemachine.group=style=early",
                "--set", "timemachine.move=forward",
                "--set", "timemachine.n_test=2",
                "--set", "timemachine.n_runs=2",
                "--seed", "42"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert (out1 / "runs.csv").read_bytes() == (out2 / "runs.csv").read_bytes()
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()

    def test_invalid_selector_exits_invalid(self, styled, tmp_path, capsys):
        manifest, features = styled
        code = main(["timemachine", "--manifest", str(manifest),
                     "--features", f"visual={features}",
                     "--set", "timemachine.group=style=baroque",
                     "--set", "timemachine.move=back",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_INVALID
        assert "baroque" in capsys.readouterr().err

    def test_missing_experiment_keys_exit_invalid(self, styled, tmp_path, capsys):
        manifest, features = styled
        code = main(["timemachine", "--manifest", str(manifest),
                     "--features", f"visual={features}", "--out", str(tmp_path / "out")])
        assert code == EXIT_INVALID
        assert "timemachine.group" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", ["timemachine.min_year=2000", "timemachine.max_year=1400"])
    def test_year_range_outside_corpus_exits_invalid(self, styled, tmp_path, capsys, bound):
        # the corpus spans 1450-1840, so the other bound, taken from it, is crossed
        manifest, features = styled
        out = tmp_path / "out"
        code = main(["timemachine", "--manifest", str(manifest),
                     "--features", f"visual={features}", "--set", "k=8",
                     "--set", "timemachine.group=style=late", "--set", "timemachine.move=back",
                     "--set", "timemachine.n_test=2", "--set", "timemachine.n_runs=1",
                     "--set", bound, "--out", str(out)])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "timemachine.min_year" in err and "timemachine.max_year" in err
        assert not (out / "runs.csv").exists()

    def test_non_convergence_exits_numerical_but_writes(self, styled, tmp_path, capsys):
        manifest, features = styled
        out = tmp_path / "out"
        code = main(["timemachine", "--manifest", str(manifest),
                     "--features", f"visual={features}", "--set", "k=8",
                     "--set", "timemachine.group=style=late", "--set", "timemachine.move=back",
                     "--set", "timemachine.n_test=2", "--set", "timemachine.n_runs=2",
                     "--set", "max_iters=1", "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert "did not converge" in capsys.readouterr().err
        assert len((out / "report.csv").read_text(encoding="utf-8").splitlines()) == 2
        assert len((out / "runs.csv").read_text(encoding="utf-8").splitlines()) == 1 + 2 * 2

    def test_negative_seed_exits_invalid(self, styled, tmp_path, capsys):
        manifest, features = styled
        code = main(["timemachine", "--manifest", str(manifest),
                     "--features", f"visual={features}",
                     "--set", "timemachine.group=style=late", "--set", "timemachine.move=back",
                     "--set", "timemachine.seed=-1", "--out", str(tmp_path / "out")])
        assert code == EXIT_INVALID
        assert "timemachine.seed" in capsys.readouterr().err


def two_aspect_dump(tmp_path):
    """A `dump-graph` argv over two aspects, less `--out`, and the manifest, features and settings it reads."""
    rng = np.random.default_rng(56)
    n = 120
    years = rng.integers(1400, 1901, size=n)
    corpus = make_corpus(years, rng.normal(size=(n, 6)))
    corpus = cn.Corpus(corpus.artifacts, {
        "visual": corpus.features["visual"],
        "color": cn.FeatureSet("color", rng.normal(size=(n, 3)))})
    manifest, paths = write_corpus_files(corpus, tmp_path / "corpus")
    settings = {"k": "9", "balancing_mode": "local", "local_window_years": "60",
                "min_local_sample": "5", "sigma.color": "0.8"}
    argv = ["dump-graph", "--manifest", str(manifest)]
    for aspect, path in paths.items():
        argv += ["--features", f"{aspect}={path}"]
    for key, value in settings.items():
        argv += ["--set", f"{key}={value}"]
    return argv, manifest, paths, settings


class TestDumpGraph:
    def test_writes_graph_and_cin(self, tiny, tmp_path):
        out = tmp_path / "out"
        assert main(["dump-graph"] + tiny_args(tiny) + ["--out", str(out)]) == EXIT_OK
        graph_lines = (out / "graph.csv").read_text(encoding="utf-8").splitlines()
        assert graph_lines[0] == "src_id,dst_id,weight"
        assert len(graph_lines) == 1 + 3  # all forward pairs of 3 dated nodes
        years = {"a": 1500, "b": 1600, "c": 1700}
        for line in graph_lines[1:]:
            src, dst, weight = line.split(",")
            assert years[src] < years[dst]
            assert float(weight) > 0.0
        cin_lines = (out / "cin.csv").read_text(encoding="utf-8").splitlines()
        assert cin_lines[0] == "src_id,dst_id,weight,label"
        assert all(line.split(",")[3] in ("prior", "subsequent") for line in cin_lines[1:])

    def test_multi_aspect_file_names(self, tiny, tmp_path):
        manifest, features = tiny
        other = tmp_path / "other.csv"
        other.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["dump-graph", "--manifest", str(manifest),
                     "--features", f"visual={features}", "--features", f"color={other}",
                     "--out", str(out)])
        assert code == EXIT_OK
        for name in ("graph.csv", "cin.csv", "graph_color.csv", "cin_color.csv"):
            assert (out / name).exists()

    def test_rerun_byte_identical(self, styled, tmp_path):
        manifest, features = styled
        args = ["dump-graph", "--manifest", str(manifest),
                "--features", f"visual={features}", "--set", "k=8"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert (out1 / "graph.csv").read_bytes() == (out2 / "graph.csv").read_bytes()
        assert (out1 / "cin.csv").read_bytes() == (out2 / "cin.csv").read_bytes()

    def test_same_network_as_score(self, styled, tmp_path):
        # dump-graph must write the graph and CIN that scoring runs on, under
        # settings away from every default that shapes them
        manifest, features = styled
        settings = {"k": "8", "balancing_mode": "local", "local_window_years": "100",
                    "min_local_sample": "5", "temporal_prior": "window",
                    "temporal_window_k": "12", "balance_anchor": "source",
                    "sigma.visual": "1.5"}
        out = tmp_path / "out"
        argv = ["dump-graph", "--manifest", str(manifest), "--features", f"visual={features}",
                "--out", str(out)]
        for key, value in settings.items():
            argv += ["--set", f"{key}={value}"]
        assert main(argv) == EXIT_OK

        corpus = cn.ingest_corpus(manifest, {"visual": features})
        config = cn.config_from_mapping(settings)
        result = cn.run_pipeline(corpus, "visual", config)
        graph, thresholds, network = build_stages(corpus, "visual", config, result.sigma)
        assert np.unique(thresholds).size > 1
        assert (result.graph_edges, result.kept_count, result.reversed_count,
                result.dropped_count) == (graph.n_edges, network.kept_count,
                                          network.reversed_count, network.dropped_count)
        cn.write_graph_csv(graph, corpus.ids, tmp_path / "graph.csv")
        cn.write_cin_csv(network, corpus.ids, tmp_path / "cin.csv")
        assert (out / "graph.csv").read_bytes() == (tmp_path / "graph.csv").read_bytes()
        assert (out / "cin.csv").read_bytes() == (tmp_path / "cin.csv").read_bytes()

    def test_two_aspects_equal_in_process_writers(self, tmp_path):
        # each aspect's two files come from two processes; their bytes must be
        # the sequential writers' own, aspect by aspect
        argv, manifest, paths, settings = two_aspect_dump(tmp_path)
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_OK

        corpus = cn.ingest_corpus(manifest, paths)
        expected = tmp_path / "expected"
        expected.mkdir()
        for aspect, suffix in (("visual", ""), ("color", "_color")):
            config = cn.config_from_mapping(settings)
            graph, _, network = build_stages(corpus, aspect, config,
                                             cn.resolve_sigma(corpus, aspect, config))
            cn.write_graph_csv(graph, corpus.ids, expected / f"graph{suffix}.csv")
            cn.write_cin_csv(network, corpus.ids, expected / f"cin{suffix}.csv")
        names = sorted(p.name for p in expected.iterdir())
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (expected / name).read_bytes(), name

    def test_two_aspects_without_fork_equal_the_forked_run(self, tmp_path, monkeypatch):
        # with no fork, graph.csv is written before balancing consumes the graph
        argv = two_aspect_dump(tmp_path)[0]
        forked, serial = tmp_path / "forked", tmp_path / "serial"
        assert main([*argv, "--out", str(forked)]) == EXIT_OK
        monkeypatch.delattr(os, "fork")
        assert main([*argv, "--out", str(serial)]) == EXIT_OK
        names = sorted(p.name for p in forked.iterdir())
        assert names == ["cin.csv", "cin_color.csv", "graph.csv", "graph_color.csv"]
        assert sorted(p.name for p in serial.iterdir()) == names
        for name in names:
            assert (serial / name).read_bytes() == (forked / name).read_bytes(), name

    @pytest.mark.parametrize("fork", [True, False], ids=["forked", "serial"])
    def test_each_graph_is_freed_before_the_next_build(self, tmp_path, monkeypatch, fork):
        # balancing consumes each aspect's graph; a spent graph, or its arrays
        # that hold K, must not stay alive through the next aspect's build
        built = []
        build = cli_module.build_graph

        def watched_build(*args):
            alive = [ref for ref in built if ref() is not None]
            assert not alive, f"{len(alive)} objects of an earlier aspect's graph are alive"
            graph = build(*args)
            built.extend(weakref.ref(obj) for obj in (graph, graph.src, graph.weight))
            return graph

        monkeypatch.setattr(cli_module, "build_graph", watched_build)
        if not fork:
            monkeypatch.delattr(os, "fork")
        assert main([*two_aspect_dump(tmp_path)[0], "--out", str(tmp_path / "out")]) == EXIT_OK
        assert len(built) == 6 and all(ref() is None for ref in built)

    @pytest.mark.parametrize("blocked", ["graph.csv", "cin.csv"])
    def test_directory_in_place_of_an_output_exits_io(self, styled, tmp_path, capsys, blocked):
        # graph.csv is written by a forked child and cin.csv by the command's
        # own process; a failure in either exits 1 and names its file
        manifest, features = styled
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        code = main(["dump-graph", "--manifest", str(manifest),
                     "--features", f"visual={features}", "--set", "k=8", "--out", str(out)])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and blocked in err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestInstalledScript:
    """The `creanet` command declared in pyproject.toml, run as its own process."""

    TINY_REPORT = "3 artifacts, 1 aspect, dim 4\n"

    def test_console_entry_point(self, tiny):
        # Run the [project.scripts] declaration with the body pip puts in the
        # generated wrapper, so a broken declaration fails without an install.
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        spec = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["creanet"]
        module, attr = spec.split(":")
        wrapper = (f"import sys\nfrom {module} import {attr}\n"
                   f"sys.argv[0] = 'creanet'\nsys.exit({attr}())\n")
        env = dict(os.environ, PYTHONPATH=str(Path(cn.__file__).resolve().parents[1]))
        manifest, features = tiny
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "validate", "--manifest", str(manifest),
             "--features", f"visual={features}"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == self.TINY_REPORT

    @pytest.mark.skipif(shutil.which("creanet") is None,
                        reason="no installed creanet executable on PATH")
    def test_installed_executable(self, tiny):
        manifest, features = tiny
        proc = subprocess.run(
            ["creanet", "validate", "--manifest", str(manifest),
             "--features", f"visual={features}"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == self.TINY_REPORT
