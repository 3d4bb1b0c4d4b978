"""End-to-end scoring pipeline and its file outputs.

One aspect flows: features -> similarity graph -> implication network ->
stochastic operator -> score vector; the operator scales the network's
K + R^T term by term, from the graph's own kept and reversed edges. Aspects
never mix; the multi-aspect driver just runs the pipeline once per aspect.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import RunConfig
from .corpus import Corpus, estimate_sigma
from .graph import PaintingGraph, build_graph
from .implication import (ImplicationNetwork, build_implication_network, compute_thresholds,
                          nearest_rank_percentile)
from .scoring import ScoreVector, normalize, solve_power


@dataclass(frozen=True)
class PipelineResult:
    """Scores for one aspect plus the stats of every intermediate stage.

    `thresholds` holds the balancing threshold m of every artifact, or None
    when the graph has no edges and balancing had nothing to judge.
    """

    aspect: str
    sigma: float
    graph: PaintingGraph
    thresholds: np.ndarray | None
    network: ImplicationNetwork
    dangling_count: int
    score: ScoreVector


def resolve_sigma(corpus: Corpus, aspect: str, config: RunConfig) -> float:
    """Configured bandwidth, or the seeded median-distance estimate when 'auto'."""
    configured = config.sigma_for(aspect)
    if configured == "auto":
        return estimate_sigma(corpus.features[aspect], seed=config.seed)
    return float(configured)


def build_network(corpus: Corpus, aspect: str, config: RunConfig, sigma: float,
                  graph: PaintingGraph | None = None
                  ) -> tuple[PaintingGraph, np.ndarray | None, ImplicationNetwork]:
    """Similarity graph, balancing thresholds and implication network of one aspect.

    `graph`, when given, is the similarity graph already built for these
    settings. The thresholds are None when the graph has no edges and
    balancing had nothing to judge.
    """
    if graph is None:
        graph = build_graph(corpus, aspect, config.graph_params(sigma))
    if graph.n_edges == 0:
        return graph, None, ImplicationNetwork(kept=graph, reversed=graph, dropped_count=0)
    thresholds = compute_thresholds(graph, corpus.years, config.balance_spec())
    network = build_implication_network(graph, thresholds, corpus.years,
                                        anchor=config.balance_anchor)
    return graph, thresholds, network


def run_pipeline(corpus: Corpus, aspect: str, config: RunConfig, sigma: float | None = None,
                 graph: PaintingGraph | None = None) -> PipelineResult:
    """Score one aspect. Passing `sigma` pins the bandwidth (skips resolution).

    Passing `graph` skips the graph build: it must be the similarity graph of
    `corpus` at this bandwidth and these settings.
    """
    if aspect not in corpus.features:
        raise ValueError(f"aspect '{aspect}' not found; corpus has {list(corpus.aspects)}")
    if sigma is None:
        sigma = resolve_sigma(corpus, aspect, config)

    graph, thresholds, network = build_network(corpus, aspect, config, sigma, graph)
    op = normalize(network, None if config.scoring == "combined" else config.beta)
    score = solve_power(op, config.alpha, tol=config.tol, max_iters=config.max_iters)
    in_degree = np.diff(network.kept.indptr) + np.bincount(network.reversed.src, minlength=corpus.n)
    dangling_count = int(np.count_nonzero(in_degree == 0))

    return PipelineResult(aspect=aspect, sigma=float(sigma), graph=graph, thresholds=thresholds,
                          network=network, dangling_count=dangling_count, score=score)


def run_multi_aspect(corpus: Corpus, config: RunConfig) -> dict[str, PipelineResult]:
    """Run the pipeline independently per aspect, in declared order."""
    return {aspect: run_pipeline(corpus, aspect, config) for aspect in corpus.aspects}


def score_ranks(scores: np.ndarray, ids: tuple[str, ...]) -> np.ndarray:
    """Rank 1 = highest score; score ties broken by id ascending."""
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    ranks = np.empty(len(ids), dtype=np.int64)
    for pos, i in enumerate(order):
        ranks[i] = pos + 1
    return ranks


def write_scores_csv(results: dict[str, PipelineResult], corpus: Corpus,
                     path: str | Path) -> None:
    """Score table `id,year,aspect,score,rank`, one block per aspect in run order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "year", "aspect", "score", "rank"])
        for aspect, result in results.items():
            ranks = score_ranks(result.score.scores, corpus.ids)
            for i, artifact in enumerate(corpus.artifacts):
                writer.writerow([artifact.id, artifact.year, aspect,
                                 repr(float(result.score.scores[i])), int(ranks[i])])


def _threshold_stats(thresholds: np.ndarray | None, mode: str) -> dict:
    """The balancing threshold of a run: the global m, or min/median/max of local m.

    The median is nearest-rank, so it is a threshold some artifact was judged
    by. Values are None when the graph had no edges.
    """
    if mode == "global":
        return {"threshold": None if thresholds is None else float(thresholds[0])}
    if thresholds is None:
        return dict.fromkeys(("threshold_min", "threshold_median", "threshold_max"))
    return {"threshold_min": float(thresholds.min()),
            "threshold_median": nearest_rank_percentile(thresholds, 50.0),
            "threshold_max": float(thresholds.max())}


def run_metadata(results: dict[str, PipelineResult], corpus: Corpus,
                 config: RunConfig) -> dict:
    """Config echo plus graph and solver stats, JSON-ready (plain types only)."""
    aspects = {}
    for aspect, r in results.items():
        edges = r.graph.n_edges
        aspects[aspect] = {
            "sigma": r.sigma,
            "sigma_auto": config.sigma_for(aspect) == "auto",
            "graph_edges": edges,
            "cin_edges": r.network.n_edges,
            "kept": r.network.kept_count,
            "reversed": r.network.reversed_count,
            "dropped": r.network.dropped_count,
            "reversed_fraction": (r.network.reversed_count / edges) if edges else 0.0,
            "dangling_count": r.dangling_count,
            **_threshold_stats(r.thresholds, config.balancing_mode),
            "solver": {
                "name": r.score.solver,
                "iterations": r.score.iterations,
                "residual": float(r.score.residual),
                "converged": r.score.converged,
            },
        }
    return {"n_artifacts": corpus.n, "config": config.as_dict(), "aspects": aspects}


def write_run_meta(results: dict[str, PipelineResult], corpus: Corpus,
                   config: RunConfig, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(run_metadata(results, corpus, config), fh, indent=2, sort_keys=True)
        fh.write("\n")
