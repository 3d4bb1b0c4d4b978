"""Config parsing, validation, and key handling."""

import dataclasses
import re
from pathlib import Path

import pytest

from creanet import config as config_module
from creanet.config import (ConfigError, RunConfig, TimeMachineSpec, check_known_keys,
                            config_from_mapping, load_config_file, parse_config_text,
                            spec_from_mapping)

README = Path(__file__).resolve().parent.parent / "README.md"


class TestRunConfigValidation:
    def test_defaults_are_valid(self):
        config = RunConfig()
        assert config.k == 500 and config.alpha == 0.15
        assert not hasattr(config, "solver")

    @pytest.mark.parametrize("kwargs,fragment", [
        ({"k": 0}, "k"),
        ({"k": 2.5}, "k"),
        ({"alpha": 1.5}, "alpha"),
        ({"alpha": -0.1}, "alpha"),
        ({"beta": 1.01}, "beta"),
        ({"scoring": "both"}, "scoring"),
        ({"percentile_p": 0.0}, "percentile_p"),
        ({"percentile_p": 100.5}, "percentile_p"),
        ({"sigma": -1.0}, "sigma"),
        ({"sigma": "median"}, "sigma"),
        ({"sigma_overrides": {"visual": 0.0}}, "sigma.visual"),
        ({"balancing_mode": "windowed"}, "balancing_mode"),
        ({"local_window_years": 0}, "local_window_years"),
        ({"min_local_sample": 0}, "min_local_sample"),
        ({"balance_anchor": "edge"}, "balance_anchor"),
        ({"temporal_prior": "always"}, "temporal_prior"),
        ({"temporal_window_k": 0}, "temporal_window_k"),
        ({"beta": -0.01}, "beta"),
        ({"tol": 0.0}, "tol"),
        ({"max_iters": 0}, "max_iters"),
        ({"seed": -1}, "seed"),
        ({"seed": 2 ** 64}, "seed"),
        ({"sigma": float("inf")}, "sigma"),
        ({"sigma_overrides": {"visual": float("inf")}}, "sigma.visual"),
        ({"alpha": "0.5"}, "alpha"),
        ({"tol": "x"}, "tol"),
        ({"k": True}, "k"),
        # the stages compare counts with numpy's int64 arrays, where 2**63 overflows
        ({"k": 2 ** 63}, "k"),
        ({"temporal_window_k": 2 ** 63}, "temporal_window_k"),
        ({"local_window_years": 2 ** 63}, "local_window_years"),
        ({"min_local_sample": 2 ** 63}, "min_local_sample"),
        ({"max_iters": 2 ** 63}, "max_iters"),
    ])
    def test_rejects_out_of_range(self, kwargs, fragment):
        with pytest.raises(ConfigError, match=fragment):
            RunConfig(**kwargs)

    def test_boundary_values_accepted(self):
        RunConfig(alpha=0.0)
        RunConfig(alpha=1.0)
        RunConfig(beta=0.0)
        RunConfig(beta=1.0)
        RunConfig(percentile_p=100.0)
        RunConfig(seed=2 ** 64 - 1)
        RunConfig(k=2 ** 63 - 1, temporal_window_k=2 ** 63 - 1, local_window_years=2 ** 63 - 1,
                  min_local_sample=2 ** 63 - 1, max_iters=2 ** 63 - 1)
        RunConfig(sigma=3)  # ints are fine, bools are not

    def test_bool_sigma_rejected(self):
        with pytest.raises(ConfigError, match="sigma"):
            RunConfig(sigma=True)

    @pytest.mark.parametrize("kwargs,message", [
        ({"k": 0}, "k must be a positive integer, got 0"),
        ({"temporal_prior": "always"},
         "temporal_prior must be one of ('none', 'window'), got 'always'"),
        ({"temporal_window_k": 0}, "temporal_window_k must be a positive integer, got 0"),
        ({"k": 2 ** 63}, "k must be below 2**63, got 9223372036854775808"),
    ], ids=["k", "temporal_prior", "temporal_window_k", "k_beyond_int64"])
    def test_graph_key_messages(self, kwargs, message):
        with pytest.raises(ConfigError) as got:
            RunConfig(**kwargs)
        assert str(got.value) == message

    def test_frozen(self):
        config = RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.k = 0
        assert config.k == 500

    def test_sigma_overrides_frozen_and_hashable(self):
        overrides = {"visual": 1.0, "color": 2.0}
        config = RunConfig(sigma_overrides=overrides)
        overrides["visual"] = -1.0  # the caller's mapping is not the config's
        assert config.sigma_overrides == (("color", 2.0), ("visual", 1.0))
        with pytest.raises(TypeError):
            config.sigma_overrides["visual"] = -1.0
        assert config.sigma_for("visual") == 1.0
        assert hash(config) == hash(RunConfig(sigma_overrides={"color": 2.0, "visual": 1.0}))
        assert config == dataclasses.replace(config)
        assert hash(RunConfig()) == hash(RunConfig())

    def test_sigma_for_prefers_override(self):
        config = RunConfig(sigma=2.0, sigma_overrides={"color": 0.5})
        assert config.sigma_for("color") == 0.5
        assert config.sigma_for("shape") == 2.0

    def test_as_dict_is_json_plain(self):
        import json
        echo = RunConfig(sigma_overrides={"b": 2.0, "a": 1.0}).as_dict()
        assert json.loads(json.dumps(echo)) == echo
        assert list(echo["sigma_overrides"]) == ["a", "b"]


class TestTimeMachineYearBounds:
    @pytest.mark.parametrize("key", ["min_year", "max_year"])
    @pytest.mark.parametrize("value", [2 ** 63, 10 ** 20, -2 ** 63 - 1])
    def test_year_beyond_int64_names_key(self, key, value):
        # drawn years are cast to int64, where these would wrap
        with pytest.raises(ConfigError) as got:
            TimeMachineSpec(group="ids=a", move="back", **{key: value})
        assert str(got.value) == f"timemachine.{key} must be a 64-bit integer, got {value}"
        with pytest.raises(ConfigError, match=f"timemachine.{key} must be a 64-bit integer"):
            spec_from_mapping({"timemachine.group": "ids=a", "timemachine.move": "back",
                               f"timemachine.{key}": str(value)})

    def test_int64_extremes_accepted(self):
        spec = TimeMachineSpec(group="ids=a", move="back", min_year=-2 ** 63, max_year=2 ** 63 - 1)
        assert spec.year_range(1500, 1900) == (-2 ** 63, 2 ** 63 - 1)


class TestParseConfigText:
    def test_basic_lines(self):
        text = "# comment\n\nalpha = 0.5\n  k=10  \nscoring = split\n"
        assert parse_config_text(text) == {"alpha": "0.5", "k": "10", "scoring": "split"}

    def test_value_may_contain_equals(self):
        assert parse_config_text("note = a=b") == {"note": "a=b"}

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 3.*duplicate key 'k'"):
            parse_config_text("k = 1\nalpha = 0.2\nk = 2\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("k = 1\njust words\n")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_config_text("= 5\n")

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("alpha = 0.3\n", encoding="utf-8")
        assert load_config_file(path) == {"alpha": "0.3"}

    def test_byte_order_mark_ignored(self, tmp_path):
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text("k = 5\nalpha = 0.3\n", encoding="utf-8")
        marked.write_text("\ufeffk = 5\nalpha = 0.3\n", encoding="utf-8")
        assert load_config_file(marked) == load_config_file(plain) == {"k": "5", "alpha": "0.3"}

    def test_file_errors_name_the_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("oops\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="run.cfg"):
            load_config_file(path)


class TestKnownKeys:
    def test_accepts_schema_and_prefixes(self):
        check_known_keys({
            "k": "5", "alpha": "0.2", "manifest": "m.csv",
            "feature.visual": "v.csv", "sigma.visual": "1.5",
            "timemachine.move": "back",
        })

    def test_rejects_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key 'kmax'"):
            check_known_keys({"kmax": "5"})

    def test_rejects_unknown_time_machine_key(self):
        with pytest.raises(ConfigError, match="unknown config key 'timemachine.velocity'"):
            check_known_keys({"timemachine.move": "back", "timemachine.velocity": "3"})

    def test_rejects_solver_key(self):
        with pytest.raises(ConfigError, match="unknown config key 'solver'"):
            check_known_keys({"solver": "power"})

    def test_sigma_override_needs_its_aspect(self):
        # a misspelled aspect would otherwise be ignored and sigma estimated
        check_known_keys({"feature.visual": "v.csv", "sigma.visual": "0.5"})
        with pytest.raises(ConfigError, match="'sigma.visaul'.*'feature.visaul'"):
            check_known_keys({"feature.visual": "v.csv", "sigma.visaul": "0.5"})
        with pytest.raises(ConfigError, match="'sigma.visual'"):
            check_known_keys({"sigma.visual": "0.5"})

    def test_rejects_bare_prefix(self):
        with pytest.raises(ConfigError, match="feature."):
            check_known_keys({"feature.": "x.csv"})


class TestConfigFromMapping:
    def test_full_mapping(self):
        config = config_from_mapping({
            "k": "25", "alpha": "0.5", "beta": "0.9", "scoring": "split",
            "percentile_p": "75", "sigma": "1.25", "sigma.color": "0.5",
            "balancing_mode": "local", "local_window_years": "30",
            "min_local_sample": "10", "balance_anchor": "source",
            "temporal_prior": "window", "temporal_window_k": "40",
            "tol": "1e-9", "max_iters": "200",
            "seed": "7",
        })
        assert config.k == 25 and config.alpha == 0.5 and config.beta == 0.9
        assert config.scoring == "split" and config.percentile_p == 75.0
        assert config.sigma == 1.25 and config.sigma_overrides == (("color", 0.5),)
        assert config.balancing_mode == "local" and config.local_window_years == 30
        assert config.min_local_sample == 10 and config.balance_anchor == "source"
        assert config.temporal_prior == "window" and config.temporal_window_k == 40
        assert config.tol == 1e-9
        assert config.max_iters == 200 and config.seed == 7

    def test_absent_keys_take_defaults(self):
        config = config_from_mapping({"alpha": "0.3"})
        assert config.alpha == 0.3 and config.k == 500 and config.sigma == "auto"

    def test_sigma_auto_literal(self):
        assert config_from_mapping({"sigma": "auto"}).sigma == "auto"

    @pytest.mark.parametrize("mapping,fragment", [
        ({"k": "ten"}, "k.*integer"),
        ({"k": "2.5"}, "k.*integer"),
        ({"alpha": "lots"}, "alpha.*number"),
        ({"sigma": "wide"}, "sigma.*number"),
        ({"max_iters": "1e3"}, "max_iters.*integer"),
        ({"alpha": "2"}, "alpha"),
    ])
    def test_bad_values_report_key(self, mapping, fragment):
        with pytest.raises(ConfigError, match=fragment):
            config_from_mapping(mapping)


class TestDocsListEveryKey:
    """The key tables name exactly the keys the parser derives from the dataclass fields."""

    run_keys = set(config_module._key_parsers(RunConfig)) | {"sigma.<aspect>"}

    def test_readme_config_table(self):
        section = README.read_text(encoding="utf-8").split("### Config keys")[1].split("\n#")[0]
        assert set(re.findall(r"^\| `([^`]+)` \|", section, re.M)) == self.run_keys

    def test_module_docstring_table(self):
        table = config_module.__doc__.split("Recognized keys::\n\n")[1].split("\n\n")[0]
        assert {line.split()[0] for line in table.splitlines()} == self.run_keys

    def test_readme_time_machine_paragraph(self):
        text = README.read_text(encoding="utf-8")
        paragraph = text[text.index("Time-machine experiments"):].split("\n\n")[0]
        assert set(re.findall(r"`timemachine\.(\w+)`", paragraph)) == \
            set(config_module._key_parsers(TimeMachineSpec))
