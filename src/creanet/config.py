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
    sigma.<aspect>       float > 0    per-aspect override; needs feature.<aspect>
    balancing_mode       global | local              (default global)
    local_window_years   int > 0      half-width for local balancing (default 50)
    min_local_sample     int > 0      local sample floor before global fallback (default 20)
    balance_anchor       destination | source        whose threshold an edge is judged by
    temporal_prior       none | window               (default none)
    temporal_window_k    int > 0      temporal neighbors admitted by the window (default 500)
    tol                  float > 0    L1 convergence threshold (default 1e-10)
    max_iters            int > 0      iteration cap (default 1000)
    seed                 u64          RNG seed (default 0)

An ``int > 0`` key must also be below 2**63. Input-path keys (no defaults):
``manifest``, ``feature.<aspect>``. The time-machine keys are the
`TimeMachineSpec` fields under the ``timemachine.`` prefix, defined here beside
`RunConfig`. Each key of either dataclass is parsed by its field's annotation,
and any other key is rejected.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .similarity import check_sigma


class ConfigError(ValueError):
    """A config key is unknown, malformed, or out of range."""


SCORING_MODES = ("combined", "split")
TEMPORAL_PRIORS = ("none", "window")
BALANCING_MODES = ("global", "local")
BALANCE_ANCHORS = ("destination", "source")

MOVES = ("back", "forward", "wander")

# Paper-convention default destinations: backward and wander experiments
# center on 1600, forward experiments on 1900.
DEFAULT_MOVE_MEAN = {"back": 1600, "forward": 1900, "wander": 1600}


@dataclass(frozen=True)
class RunConfig:
    """All tunable parameters of a scoring run, read by every pipeline stage.

    Every value is checked on construction, and no field can be reassigned.
    `sigma_overrides` may be given as a mapping of aspect to bandwidth; it is
    held as (aspect, bandwidth) pairs sorted by aspect, so a config cannot be
    changed after its checks and can be hashed.
    """

    k: int = 500
    alpha: float = 0.15
    beta: float = 0.5
    scoring: str = "combined"
    percentile_p: float = 50.0
    sigma: float | str = "auto"
    sigma_overrides: tuple[tuple[str, float], ...] = ()
    balancing_mode: str = "global"
    local_window_years: int = 50
    min_local_sample: int = 20
    balance_anchor: str = "destination"
    temporal_prior: str = "none"
    temporal_window_k: int = 500
    tol: float = 1e-10
    max_iters: int = 1000
    seed: int = 0

    def __post_init__(self):
        def check(ok: bool, msg: str) -> None:
            if not ok:
                raise ConfigError(msg)

        overrides = tuple(sorted(dict(self.sigma_overrides).items()))
        object.__setattr__(self, "sigma_overrides", overrides)
        _check_types(self)
        _check_count("k", self.k)
        check(self.temporal_prior in TEMPORAL_PRIORS,
              f"temporal_prior must be one of {TEMPORAL_PRIORS}, got {self.temporal_prior!r}")
        _check_count("temporal_window_k", self.temporal_window_k)
        check(0.0 <= self.alpha <= 1.0, f"alpha must be in [0, 1], got {self.alpha!r}")
        check(0.0 <= self.beta <= 1.0, f"beta must be in [0, 1], got {self.beta!r}")
        check(self.scoring in SCORING_MODES, f"scoring must be one of {SCORING_MODES}, got {self.scoring!r}")
        sigmas = {f"sigma.{aspect}": value for aspect, value in overrides}
        if self.sigma != "auto":
            sigmas["sigma"] = self.sigma
        for key, value in sigmas.items():
            try:
                check_sigma(value)
            except (TypeError, ValueError):
                raise ConfigError(f"{key} must be a positive finite number, got {value!r}") from None
        check(self.balancing_mode in BALANCING_MODES,
              f"balancing_mode must be one of {BALANCING_MODES}, got {self.balancing_mode!r}")
        check(0.0 < self.percentile_p <= 100.0,
              f"percentile_p must be in (0, 100], got {self.percentile_p!r}")
        _check_count("local_window_years", self.local_window_years)
        _check_count("min_local_sample", self.min_local_sample)
        check(self.balance_anchor in BALANCE_ANCHORS,
              f"balance_anchor must be one of {BALANCE_ANCHORS}, got {self.balance_anchor!r}")
        check(self.tol > 0.0, f"tol must be positive, got {self.tol!r}")
        _check_count("max_iters", self.max_iters)
        _check_seed("seed", self.seed)

    def sigma_for(self, aspect: str) -> float | str:
        """Configured bandwidth for one aspect ('auto' or a positive float)."""
        return dict(self.sigma_overrides).get(aspect, self.sigma)

    def as_dict(self) -> dict:
        """Plain-type echo of the config, suitable for JSON metadata."""
        out = dataclasses.asdict(self)
        out["sigma_overrides"] = dict(self.sigma_overrides)
        return out


@dataclass(frozen=True)
class TimeMachineSpec:
    """One experiment: which group to re-date, where to, and how many times.

    `group` selects targets: ``style=NAME`` matches the manifest style column,
    ``ids=ID1,ID2,...`` lists artifacts explicitly. `move` labels the direction
    relative to the group's true era; the mechanics depend only on move_mean
    and move_std.
    """

    group: str
    move: str
    move_mean: int | None = None
    move_std: float = 50.0
    n_test: int = 10
    n_runs: int = 10
    min_year: int | None = None
    max_year: int | None = None
    seed: int | None = None

    def __post_init__(self):
        _check_types(self, "timemachine.")
        if self.move not in MOVES:
            raise ConfigError(f"timemachine.move must be one of {MOVES}, got {self.move!r}")
        if not self.group.startswith(("style=", "ids=")):
            raise ConfigError(f"timemachine.group must look like style=NAME or ids=ID1,ID2,..., "
                              f"got {self.group!r}")
        if not self.move_std > 0.0:
            raise ConfigError(f"timemachine.move_std must be positive, got {self.move_std!r}")
        _check_count("timemachine.n_test", self.n_test)
        _check_count("timemachine.n_runs", self.n_runs)
        for key, value in (("min_year", self.min_year), ("max_year", self.max_year)):
            if not -2 ** 63 <= (value or 0) < 2 ** 63:  # drawn years are cast to int64
                raise ConfigError(f"timemachine.{key} must be a 64-bit integer, got {value!r}")
        if self.min_year is not None and self.max_year is not None:
            self.year_range(self.min_year, self.max_year)  # checks the set bounds' order
        if self.seed is not None:
            _check_seed("timemachine.seed", self.seed)

    @property
    def mean(self) -> int:
        return self.move_mean if self.move_mean is not None else DEFAULT_MOVE_MEAN[self.move]

    def year_range(self, first: int, last: int) -> tuple[int, int]:
        """Bounds for the drawn years; an unset bound is the corpus's `first` or `last` year."""
        lo = self.min_year if self.min_year is not None else first
        hi = self.max_year if self.max_year is not None else last
        if lo > hi:
            raise ConfigError(f"timemachine.min_year {lo} exceeds timemachine.max_year {hi} "
                              f"(an unset bound is the corpus's first or last year)")
        return lo, hi


def _check_count(key: str, value: int) -> None:
    """Reject a count below 1, or one at 2**63 or above, which numpy's int64 cannot hold."""
    if not 1 <= value < 2 ** 63:
        bound = "a positive integer" if value < 1 else "below 2**63"
        raise ConfigError(f"{key} must be {bound}, got {value!r}")


def _check_seed(key: str, value) -> None:
    """Reject a seed outside the unsigned 64-bit range numpy's generators take."""
    if not (isinstance(value, int) and 0 <= value < 2 ** 64):
        raise ConfigError(f"{key} must be an unsigned 64-bit integer, got {value!r}")


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


# By field annotation: the key's parser, taking (key, raw), and its value's types.
_KINDS = {"int": (_parse_int, int), "int | None": (_parse_int, (int, type(None))),
          "float": (_parse_float, (int, float)), "str": (lambda key, raw: raw, str),
          "float | str": (lambda key, raw: raw if raw == "auto" else _parse_float(key, raw),
                          (int, float, str))}


def _check_types(obj, prefix: str = "") -> None:
    """Reject a field whose value is a bool or not of its annotated type, naming its key."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.type in _KINDS and (isinstance(value, bool) or not isinstance(value, _KINDS[f.type][1])):
            raise ConfigError(f"{prefix}{f.name} must be of type {f.type}, got {value!r}")


def _key_parsers(cls) -> dict:
    """Each config key of dataclass `cls` with its parser; `sigma.<aspect>` sets `sigma_overrides`."""
    return {f.name: _KINDS[f.type][0] for f in dataclasses.fields(cls) if f.name != "sigma_overrides"}


def _parse_fields(cls, mapping: dict[str, str], prefix: str = "") -> dict:
    """Keyword arguments for `cls` from the ``prefix + field`` keys present in `mapping`."""
    return {name: parse(prefix + name, mapping[prefix + name])
            for name, parse in _key_parsers(cls).items() if prefix + name in mapping}


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
    return parse_config_text(path.read_text(encoding="utf-8-sig"), source=str(path))


def check_known_keys(mapping: dict[str, str]) -> None:
    """Reject keys outside the documented schema; ``sigma.<x>`` needs a ``feature.<x>`` key."""
    for key in mapping:
        prefix, _, name = key.partition(".")
        if prefix == "sigma" and name and f"feature.{name}" not in mapping:
            raise ConfigError(f"config key '{key}' names no aspect: there is no 'feature.{name}' key")
        if not (key == "manifest" or key in _key_parsers(RunConfig)
                or prefix in ("feature", "sigma") and name
                or prefix == "timemachine" and name in _key_parsers(TimeMachineSpec)):
            raise ConfigError(f"unknown config key '{key}'")


def config_from_mapping(mapping: dict[str, str]) -> RunConfig:
    """Build a RunConfig from a parsed mapping, applying defaults for absent keys.

    The `timemachine.*` values present are parsed too, so every command rejects
    one that is malformed; `spec_from_mapping` builds and checks the spec.
    """
    kwargs = _parse_fields(RunConfig, mapping)
    overrides = {key[len("sigma."):]: _parse_float(key, raw) for key, raw in mapping.items()
                 if key.startswith("sigma.") and len(key) > len("sigma.")}
    config = RunConfig(sigma_overrides=overrides, **kwargs)
    _parse_fields(TimeMachineSpec, mapping, "timemachine.")
    return config


def spec_from_mapping(mapping: dict[str, str]) -> TimeMachineSpec:
    """Build a spec from `timemachine.*` config keys; every key of `mapping` must be known."""
    check_known_keys(mapping)
    kwargs = _parse_fields(TimeMachineSpec, mapping, "timemachine.")
    for f in dataclasses.fields(TimeMachineSpec):
        if f.default is dataclasses.MISSING and f.name not in kwargs:
            raise ConfigError(f"missing config key 'timemachine.{f.name}'")
    return TimeMachineSpec(**kwargs)
