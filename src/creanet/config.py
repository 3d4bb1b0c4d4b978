"""Run configuration: defaults, validation, and the flat key=value config file.

Config files are UTF-8 text, one ``key = value`` per line, ``#`` comments.
Every key has a default except input paths (``manifest`` and ``feature.<aspect>``).

Recognized keys::

    k                    int > 0      max incoming edges per node (default 500)
    alpha                [0, 1]       propagation fraction (default 0.15)
    beta                 [0, 1]       originality weight in split scoring (default 0.5)
    scoring              combined | split            (default combined)
    percentile_p         (0, 100]     balancing percentile (default 50)
    sigma                auto | float > 0            kernel bandwidth (default auto)
    sigma.<aspect>       float > 0    per-aspect override
    balancing_mode       global | local              (default global)
    local_window_years   int > 0      half-width for local balancing (default 50)
    min_local_sample     int > 0      local sample floor before global fallback (default 20)
    balance_anchor       destination | source        whose threshold an edge is judged by
    temporal_prior       none | window               (default none)
    temporal_window_k    int > 0      temporal neighbors admitted by the window (default 500)
    solver               power | closed_form         (default power)
    tol                  float > 0    L1 convergence threshold (default 1e-10)
    max_iters            int > 0      iteration cap (default 1000)
    seed                 u64          RNG seed (default 0)

Input-path keys (no defaults): ``manifest``, ``feature.<aspect>``. Time-machine
keys live under the ``timemachine.`` prefix (see :mod:`creanet.timemachine`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from .graph import GraphParams
from .implication import BALANCE_ANCHORS, BalanceSpec
from .similarity import SimilarityParams


class ConfigError(ValueError):
    """A config key is unknown, malformed, or out of range."""


SCORING_MODES = ("combined", "split")
SOLVERS = ("power", "closed_form")

RUN_KEYS = {
    "k", "alpha", "beta", "scoring", "percentile_p", "sigma",
    "balancing_mode", "local_window_years", "min_local_sample", "balance_anchor",
    "temporal_prior", "temporal_window_k", "solver", "tol", "max_iters", "seed",
}
INPUT_KEYS = {"manifest"}
INPUT_PREFIXES = ("feature.",)
OTHER_PREFIXES = ("sigma.", "timemachine.")


@dataclass
class RunConfig:
    """All tunable parameters of a scoring run."""

    k: int = 500
    alpha: float = 0.15
    beta: float = 0.5
    scoring: str = "combined"
    percentile_p: float = 50.0
    sigma: float | str = "auto"
    sigma_overrides: dict[str, float] = field(default_factory=dict)
    balancing_mode: str = "global"
    local_window_years: int = 50
    min_local_sample: int = 20
    balance_anchor: str = "destination"
    temporal_prior: str = "none"
    temporal_window_k: int = 500
    solver: str = "power"
    tol: float = 1e-10
    max_iters: int = 1000
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        def check(ok: bool, msg: str) -> None:
            if not ok:
                raise ConfigError(msg)

        try:
            self.graph_params(1.0)  # any valid bandwidth; the sigma keys are checked below
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        check(0.0 <= self.alpha <= 1.0, f"alpha must be in [0, 1], got {self.alpha!r}")
        check(0.0 <= self.beta <= 1.0, f"beta must be in [0, 1], got {self.beta!r}")
        check(self.scoring in SCORING_MODES, f"scoring must be one of {SCORING_MODES}, got {self.scoring!r}")
        sigmas = {f"sigma.{aspect}": value for aspect, value in self.sigma_overrides.items()}
        if self.sigma != "auto":
            sigmas["sigma"] = self.sigma
        for key, value in sigmas.items():
            try:
                SimilarityParams(value)
            except (TypeError, ValueError):
                raise ConfigError(f"{key} must be a positive finite number, got {value!r}") from None
        try:
            self.balance_spec()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        check(self.balance_anchor in BALANCE_ANCHORS,
              f"balance_anchor must be one of {BALANCE_ANCHORS}, got {self.balance_anchor!r}")
        check(self.solver in SOLVERS, f"solver must be one of {SOLVERS}, got {self.solver!r}")
        check(self.tol > 0.0, f"tol must be positive, got {self.tol!r}")
        check(isinstance(self.max_iters, int) and self.max_iters >= 1,
              f"max_iters must be a positive integer, got {self.max_iters!r}")
        check(isinstance(self.seed, int) and 0 <= self.seed < 2 ** 64,
              f"seed must be an unsigned 64-bit integer, got {self.seed!r}")

    def graph_params(self, sigma: float) -> GraphParams:
        """The `GraphParams` these settings describe at bandwidth `sigma`.

        Its checks are the range checks of `k` and the temporal prior.
        """
        return GraphParams(k=self.k, sigma=sigma, temporal_prior=self.temporal_prior,
                           temporal_window_k=self.temporal_window_k)

    def balance_spec(self) -> BalanceSpec:
        """The `BalanceSpec` these settings describe; its checks are the balancing range checks."""
        return BalanceSpec(mode=self.balancing_mode, percentile_p=self.percentile_p,
                           local_window_years=self.local_window_years,
                           min_local_sample=self.min_local_sample)

    def sigma_for(self, aspect: str) -> float | str:
        """Configured bandwidth for one aspect ('auto' or a positive float)."""
        return self.sigma_overrides.get(aspect, self.sigma)

    def as_dict(self) -> dict:
        """Plain-type echo of the config, suitable for JSON metadata."""
        out = dataclasses.asdict(self)
        out["sigma_overrides"] = dict(sorted(self.sigma_overrides.items()))
        return out


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse flat ``key = value`` lines into a string mapping."""
    mapping: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source} line {line_no}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source} line {line_no}: empty key")
        if key in mapping:
            raise ConfigError(f"{source} line {line_no}: duplicate key '{key}'")
        mapping[key] = value
    return mapping


def load_config_file(path: str | Path) -> dict[str, str]:
    path = Path(path)
    return parse_config_text(path.read_text(encoding="utf-8"), source=str(path))


def check_known_keys(mapping: dict[str, str]) -> None:
    """Reject keys outside the documented schema."""
    for key in mapping:
        if key in RUN_KEYS or key in INPUT_KEYS:
            continue
        if any(key.startswith(prefix) and len(key) > len(prefix)
               for prefix in INPUT_PREFIXES + OTHER_PREFIXES):
            continue
        raise ConfigError(f"unknown config key '{key}'")


def config_from_mapping(mapping: dict[str, str]) -> RunConfig:
    """Build a RunConfig from a parsed mapping, applying defaults for absent keys."""
    kwargs: dict = {}
    if "k" in mapping:
        kwargs["k"] = _parse_int("k", mapping["k"])
    for key in ("alpha", "beta", "percentile_p", "tol"):
        if key in mapping:
            kwargs[key] = _parse_float(key, mapping[key])
    for key in ("scoring", "balancing_mode", "balance_anchor", "temporal_prior", "solver"):
        if key in mapping:
            kwargs[key] = mapping[key]
    for key in ("local_window_years", "min_local_sample", "temporal_window_k", "max_iters", "seed"):
        if key in mapping:
            kwargs[key] = _parse_int(key, mapping[key])
    if "sigma" in mapping:
        raw = mapping["sigma"]
        kwargs["sigma"] = "auto" if raw == "auto" else _parse_float("sigma", raw)
    overrides = {}
    for key, raw in mapping.items():
        if key.startswith("sigma.") and len(key) > len("sigma."):
            overrides[key[len("sigma."):]] = _parse_float(key, raw)
    if overrides:
        kwargs["sigma_overrides"] = overrides
    return RunConfig(**kwargs)
