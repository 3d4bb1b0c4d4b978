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
equals a full rebuild bit for bit. Balancing into the kept and reversed
stores K and R, normalization of K + R^T and the solve then run in full, as
balancing's thresholds depend on every edge.

The baseline graph, its edge ranks and the baseline scores are computed
once, before the runs, and every run reads only them and its own seed. So
the runs are split over two processes: a forked child takes runs 1, 3, 5,
... and this process takes runs 0, 2, 4, ...; the report holds them in run
order, with the bytes of running them one after the other.

The experiment's settings, `TimeMachineSpec` and its ``timemachine.*`` keys,
live in :mod:`creanet.config` beside the scoring keys; this module resolves
the targets, runs the passes and writes the reports.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, TimeMachineSpec
from .corpus import Corpus
from .graph import build_graph, edge_ranks, update_graph
from .pipeline import _fork_pair, resolve_sigma, run_pipeline


def _resolve_targets(corpus: Corpus, group: str) -> np.ndarray:
    """Corpus row indices matched by a `TimeMachineSpec.group` selector, in manifest order."""
    kind, _, selected = group.partition("=")
    if kind == "style":
        rows = [i for i, a in enumerate(corpus.artifacts) if a.style == selected]
        if not rows:
            raise ConfigError(f"no artifacts with style '{selected}'")
        return np.array(rows, dtype=np.int64)
    rows = []
    for artifact_id in selected.split(","):
        artifact_id = artifact_id.strip()
        try:
            rows.append(corpus.index_of(artifact_id))
        except KeyError:
            raise ConfigError(f"unknown artifact id '{artifact_id}'") from None
    return np.array(sorted(set(rows)), dtype=np.int64)


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
    pool = _resolve_targets(corpus, spec.group)
    if pool.size < spec.n_test:
        raise ConfigError(f"selector '{spec.group}' matches {pool.size} artifacts, "
                          f"fewer than n_test {spec.n_test}")

    lo, hi = spec.year_range(int(corpus.years.min()), int(corpus.years.max()))
    seed = spec.seed if spec.seed is not None else config.seed

    sigma = resolve_sigma(corpus, aspect, config)
    graph = build_graph(corpus, aspect, config, sigma)
    ranks = edge_ranks(graph)
    # `run_pipeline` writes over the graph it is handed, and every run reads
    # the baseline graph, so the baseline pass takes a copy of it.
    base_score = run_pipeline(corpus, aspect, config, sigma=sigma,
                              graph=lambda: replace(graph, src=graph.src.copy(),
                                                    weight=graph.weight.copy())).score
    baseline = base_score.scores
    converged = base_score.converged

    def one_run(r: int) -> tuple[TimeMachineRun, bool]:
        """Run r, and whether its solve converged; only its scores outlive the call."""
        rng = np.random.default_rng([seed, r])
        targets = np.sort(rng.choice(pool, size=spec.n_test, replace=False))
        drawn = np.rint(rng.normal(spec.mean, spec.move_std, size=spec.n_test))
        new_years = np.clip(drawn, lo, hi).astype(np.int64)
        perturbed_years = np.array(corpus.years)
        perturbed_years[targets] = new_years
        perturbed = corpus.with_years(perturbed_years)
        # The run's graph is made inside `run_pipeline`, which holds the only
        # reference to it and balances and scales in its memory.
        score = run_pipeline(
            perturbed, aspect, config, sigma=sigma,
            graph=lambda: update_graph(graph, ranks, corpus, aspect, config, sigma,
                                       perturbed_years)).score
        base = baseline[targets]
        new = score.scores[targets]
        gains = (new - base) / base * 100.0
        return TimeMachineRun(
            run=r, targets=targets, old_years=corpus.years[targets], new_years=new_years,
            base_scores=base, new_scores=new, gains_pct=gains,
            mean_gain=float(gains.mean()),
            pct_increase=float((gains > 0.0).mean() * 100.0),
        ), score.converged

    # Each run reads only the baseline and its own seed, so a forked child
    # takes the odd runs while this process takes the even ones.
    odd, even = _fork_pair(lambda: [one_run(r) for r in range(1, spec.n_runs, 2)],
                           lambda: [one_run(r) for r in range(0, spec.n_runs, 2)])
    done = sorted(odd + even, key=lambda pair: pair[0].run)
    runs = [run for run, _ in done]
    converged = converged and all(ok for _, ok in done)

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
