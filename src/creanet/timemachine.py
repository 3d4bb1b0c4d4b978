"""Time-machine validation: re-date artifacts and measure the score response.

Each run samples test artifacts from a target group, draws each a new year
from round(Normal(move_mean, move_std^2)) clamped to the corpus year range,
rescores the perturbed corpus, and records the percent score change per
artifact against a baseline computed once. Moving truly influential work
forward should lose score; moving late outliers back into a region they
anticipated should gain.

The baseline's similarity graph is built once. Each run updates it to the
perturbed corpus with `update_graph`, which rebuilds only the moved rows and
the rows that lost a source, merges entering artifacts into the others, and
equals a full rebuild bit for bit. Balancing, the implication network,
normalization and the solve then run in full, as balancing's thresholds
depend on every edge.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, _check_seed, _parse_float, _parse_int
from .corpus import Corpus
from .graph import build_graph, edge_ranks, update_graph
from .pipeline import resolve_sigma, run_pipeline

MOVES = ("back", "forward", "wander")

# Paper-convention default destinations: backward and wander experiments
# center on 1600, forward experiments on 1900.
DEFAULT_MOVE_MEAN = {"back": 1600, "forward": 1900, "wander": 1600}


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
        if self.move not in MOVES:
            raise ConfigError(f"move must be one of {MOVES}, got {self.move!r}")
        if not self.group.startswith(("style=", "ids=")):
            raise ConfigError(f"group must look like style=NAME or ids=ID1,ID2,..., got {self.group!r}")
        if not self.move_std > 0.0:
            raise ConfigError(f"move_std must be positive, got {self.move_std!r}")
        if self.n_test < 1 or self.n_runs < 1:
            raise ConfigError("n_test and n_runs must be positive")
        if self.min_year is not None and self.max_year is not None:
            _check_year_range(self.min_year, self.max_year)
        if self.seed is not None:
            _check_seed("timemachine.seed", self.seed)

    @property
    def mean(self) -> int:
        return self.move_mean if self.move_mean is not None else DEFAULT_MOVE_MEAN[self.move]


def _check_year_range(lo: int, hi: int) -> None:
    if lo > hi:
        raise ConfigError(f"timemachine.min_year {lo} exceeds timemachine.max_year {hi} "
                          f"(an unset bound is the corpus's first or last year)")


# Each key's parser takes (key, raw); text keys are kept as written.
_SPEC_KEYS = {
    "group": None, "move": None, "move_mean": _parse_int, "move_std": _parse_float,
    "n_test": _parse_int, "n_runs": _parse_int, "min_year": _parse_int, "max_year": _parse_int,
    "seed": _parse_int,
}


def spec_from_mapping(mapping: dict[str, str]) -> TimeMachineSpec:
    """Build a spec from `timemachine.*` config keys."""
    kwargs: dict = {}
    for key, raw in mapping.items():
        if not key.startswith("timemachine."):
            continue
        name = key[len("timemachine."):]
        if name not in _SPEC_KEYS:
            raise ConfigError(f"unknown config key '{key}'")
        parse = _SPEC_KEYS[name]
        kwargs[name] = raw if parse is None else parse(key, raw)
    for required in ("group", "move"):
        if required not in kwargs:
            raise ConfigError(f"missing config key 'timemachine.{required}'")
    return TimeMachineSpec(**kwargs)


def resolve_targets(corpus: Corpus, group: str) -> np.ndarray:
    """Corpus row indices matched by a selector, in manifest order."""
    if group.startswith("style="):
        label = group[len("style="):]
        rows = [i for i, a in enumerate(corpus.artifacts) if a.style == label]
        if not rows:
            raise ConfigError(f"no artifacts with style '{label}'")
        return np.array(rows, dtype=np.int64)
    if group.startswith("ids="):
        rows = []
        for artifact_id in group[len("ids="):].split(","):
            artifact_id = artifact_id.strip()
            try:
                rows.append(corpus.index_of(artifact_id))
            except KeyError:
                raise ConfigError(f"unknown artifact id '{artifact_id}'") from None
        return np.array(sorted(set(rows)), dtype=np.int64)
    raise ConfigError(f"group must look like style=NAME or ids=ID1,ID2,..., got {group!r}")


@dataclass(frozen=True)
class TimeMachineRun:
    """Per-run detail: which artifacts moved where, and how their scores moved."""

    run: int
    targets: np.ndarray
    old_years: np.ndarray
    new_years: np.ndarray
    base_scores: np.ndarray
    new_scores: np.ndarray
    gains_pct: np.ndarray
    mean_gain: float
    pct_increase: float


@dataclass(frozen=True)
class TimeMachineReport:
    """Aggregate over runs: mean of per-run means, std across runs (ddof=1)."""

    spec: TimeMachineSpec
    aspect: str
    sigma: float
    runs: tuple[TimeMachineRun, ...]
    mean_gain: float
    std_gain: float
    pct_increase: float
    std_pct: float
    converged: bool


def _std_across(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(np.array(values, dtype=np.float64), ddof=1))


def run_time_machine(corpus: Corpus, config: RunConfig, spec: TimeMachineSpec,
                     aspect: str | None = None) -> TimeMachineReport:
    """Run the experiment: baseline once, then n_runs seeded perturb-and-rescore passes.

    The kernel bandwidth is resolved on the true corpus and held fixed for
    every perturbed pass (dates do not change feature distances). Each pass
    scores the graph `build_graph` would make of the perturbed corpus,
    derived from the baseline's. Results are fully determined by (corpus,
    config, spec).
    """
    if aspect is None:
        aspect = corpus.aspects[0]
    if config.temporal_prior != "none":
        warnings.warn("time machine with a temporal prior departs from the "
                      "validation protocol; results are not comparable to the "
                      "no-prior baseline", stacklevel=2)
    if spec.n_test >= corpus.n:
        raise ConfigError(f"n_test {spec.n_test} must be smaller than the corpus ({corpus.n})")
    if spec.n_test > 0.01 * corpus.n:
        warnings.warn(f"n_test {spec.n_test} exceeds 1% of the corpus "
                      f"({corpus.n}); the protocol assumes a small test fraction", stacklevel=2)
    pool = resolve_targets(corpus, spec.group)
    if pool.size < spec.n_test:
        raise ConfigError(f"selector '{spec.group}' matches {pool.size} artifacts, "
                          f"fewer than n_test {spec.n_test}")

    lo = spec.min_year if spec.min_year is not None else int(corpus.years.min())
    hi = spec.max_year if spec.max_year is not None else int(corpus.years.max())
    _check_year_range(lo, hi)
    seed = spec.seed if spec.seed is not None else config.seed

    sigma = resolve_sigma(corpus, aspect, config)
    params = config.graph_params(sigma)
    graph = build_graph(corpus, aspect, params)
    ranks = edge_ranks(graph)
    # Of the baseline pass only the graph and the scores are used again; its
    # network is freed here rather than held through every run.
    base_score = run_pipeline(corpus, aspect, config, sigma=sigma, graph=graph).score
    baseline = base_score.scores
    converged = base_score.converged

    runs = []
    for r in range(spec.n_runs):
        rng = np.random.default_rng([seed, r])
        targets = np.sort(rng.choice(pool, size=spec.n_test, replace=False))
        drawn = np.rint(rng.normal(spec.mean, spec.move_std, size=spec.n_test))
        new_years = np.clip(drawn, lo, hi).astype(np.int64)
        perturbed_years = np.array(corpus.years)
        perturbed_years[targets] = new_years
        perturbed = corpus.with_years(perturbed_years)
        rescored_result = run_pipeline(
            perturbed, aspect, config, sigma=sigma,
            graph=update_graph(graph, ranks, corpus, aspect, params, perturbed_years))
        converged = converged and rescored_result.score.converged
        rescored = rescored_result.score.scores
        base = baseline[targets]
        new = rescored[targets]
        gains = (new - base) / base * 100.0
        runs.append(TimeMachineRun(
            run=r, targets=targets, old_years=corpus.years[targets], new_years=new_years,
            base_scores=base, new_scores=new, gains_pct=gains,
            mean_gain=float(gains.mean()),
            pct_increase=float((gains > 0.0).mean() * 100.0),
        ))

    mean_gains = [run.mean_gain for run in runs]
    pct_increases = [run.pct_increase for run in runs]
    return TimeMachineReport(
        spec=spec, aspect=aspect, sigma=float(sigma), runs=tuple(runs),
        mean_gain=float(np.mean(mean_gains)), std_gain=_std_across(mean_gains),
        pct_increase=float(np.mean(pct_increases)), std_pct=_std_across(pct_increases),
        converged=converged,
    )


def write_report_csv(report: TimeMachineReport, path: str | Path) -> None:
    """Aggregate table, one row per experiment."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "move", "mean_gain", "std_gain", "pct_increase", "std_pct"])
        writer.writerow([report.spec.group, report.spec.move,
                         repr(float(report.mean_gain)), repr(float(report.std_gain)),
                         repr(float(report.pct_increase)), repr(float(report.std_pct))])


def write_runs_csv(report: TimeMachineReport, corpus: Corpus, path: str | Path) -> None:
    """Per-run detail, one row per moved artifact."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run", "id", "old_year", "new_year", "base_score", "new_score", "gain_pct"])
        for run in report.runs:
            for t, oy, ny, bs, ns, g in zip(run.targets, run.old_years, run.new_years,
                                            run.base_scores, run.new_scores, run.gains_pct):
                writer.writerow([run.run, corpus.ids[t], int(oy), int(ny),
                                 repr(float(bs)), repr(float(ns)), repr(float(g))])
