"""End-to-end scoring pipeline and its file outputs.

One aspect flows: features -> similarity graph -> implication network ->
stochastic operator -> score vector; the operator scales the network's
K + R^T term by term, from the graph's own kept and reversed edges. Aspects
never mix; the multi-aspect driver just runs the pipeline once per aspect.

`run_pipeline` owns its graph, so each stage writes into the memory of the
stage before it: balancing writes K over the graph's own arrays and, on
Linux, hands their pages past K back to the system as it goes, so that K and
R together hold about one graph's memory; normalization divides K's and R's
weights in place. A `PipelineResult`
keeps the counts and statistics `run_meta.json` records, not the arrays;
`build_network`, which leaves its graph as it is, gives those.
"""

from __future__ import annotations

import csv
import json
import os
import pickle
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .config import RunConfig
from .corpus import Corpus, estimate_sigma
from .graph import PaintingGraph, build_graph
from .implication import (ImplicationNetwork, _balance, _nearest_rank_percentile,
                          build_implication_network, compute_thresholds)
from .scoring import ScoreVector, _scale, solve_power


@dataclass(frozen=True)
class PipelineResult:
    """Scores for one aspect plus the facts `run_meta.json` records of every stage.

    It holds counts and statistics, not the stages' per-edge arrays, which
    `run_pipeline` writes over or frees as soon as no later stage reads
    them; `build_network` gives the graph, thresholds and network themselves.
    `threshold_stats` holds the balancing threshold(s): the global m, or the
    min, nearest-rank median and max of the local ones, each None when the
    graph has no edges and balancing had nothing to judge.
    """

    aspect: str
    sigma: float
    graph_edges: int
    kept_count: int
    reversed_count: int
    dropped_count: int
    threshold_stats: dict[str, float | None]
    dangling_count: int
    score: ScoreVector


def _fork_pair(first: Callable[[], Any], second: Callable[[], Any]) -> tuple[Any, Any]:
    """Run `first()` in a forked child while `second()` runs here; return both results.

    The child sends its result, or the exception it raised, back pickled over
    a pipe, and leaves by `os._exit` without flushing the stdio it inherited.
    A child exception is raised here with its own type and message, after
    `second()` has finished; an exception of `second()` wins. A child that
    dies without a result raises `OSError`. The child is reaped on every path.
    Where there is no `os.fork`, the two run one after the other.
    """
    if not hasattr(os, "fork"):
        return first(), second()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, first()), pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:  # sent back, raised by the parent
                try:
                    payload = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
                    pickle.loads(payload)
                except Exception:
                    payload = pickle.dumps((False, RuntimeError(f"{type(exc).__name__}: {exc}")))
            with open(write_fd, "wb") as pipe:
                pipe.write(payload)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        second_result = second()
    finally:
        with open(read_fd, "rb") as pipe:
            payload = pipe.read()  # to EOF before waiting: a large result cannot block the child
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if not payload:
        how = f"was killed by signal {-status}" if status < 0 else f"exited with status {status}"
        raise OSError(f"worker process {pid} {how} before sending its result")
    ok, value = pickle.loads(payload)
    if not ok:
        raise value
    return value, second_result


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
    settings; it is left as it is. The thresholds are None when the graph
    has no edges and balancing had nothing to judge.
    """
    if graph is None:
        graph = build_graph(corpus, aspect, config, sigma)
    return (graph, *_network(graph, corpus.years, config, kept_into=None))


def _network(graph: PaintingGraph, years: np.ndarray, config: RunConfig,
             kept_into: tuple[np.ndarray, np.ndarray] | None
             ) -> tuple[np.ndarray | None, ImplicationNetwork]:
    """Thresholds and implication network of `graph`, K written to `kept_into` (see `_balance`) if given."""
    if graph.n_edges == 0:
        return None, ImplicationNetwork(kept=graph, reversed=graph, dropped_count=0)
    thresholds = compute_thresholds(graph, years, config)
    if kept_into is None:
        return thresholds, build_implication_network(graph, thresholds, years, config)
    return thresholds, _balance(graph, thresholds, years, config, kept_into=kept_into)


def _handed_over(values: np.ndarray) -> np.ndarray:
    """`values` made writable, for the next stage to write into; a fresh array if its memory is read-only."""
    try:
        values.setflags(write=True)
    except ValueError:  # a view of memory that cannot be written, such as a read-only map
        return np.empty_like(values)
    return values


def run_pipeline(corpus: Corpus, aspect: str, config: RunConfig, sigma: float | None = None,
                 graph: Callable[[], PaintingGraph] | None = None) -> PipelineResult:
    """Score one aspect. Passing `sigma` pins the bandwidth (skips resolution).

    Passing `graph` skips the graph build: it is called once, with no
    arguments, for the similarity graph of `corpus` at this bandwidth and
    these settings, and hands that graph over. Its `src` and `weight` become
    the kept edges' store and, scaled in place, the operator's values, so the
    graph is no longer a graph once this returns: pass a copy of one you
    keep. Their pages past the kept edges are handed back to the system
    while balancing runs, and may read as zeros after. The reversed edges get
    a store of their own, scaled in place too, so scoring never holds a
    second copy of the graph's edges. A graph in memory that cannot be made
    writable is only read, and its pages stay.
    """
    if aspect not in corpus.features:
        raise ValueError(f"aspect '{aspect}' not found; corpus has {list(corpus.aspects)}")
    if sigma is None:
        sigma = resolve_sigma(corpus, aspect, config)

    made = build_graph(corpus, aspect, config, sigma) if graph is None else graph()
    graph_edges = made.n_edges
    kept_into = (_handed_over(made.src), _handed_over(made.weight))
    thresholds, network = _network(made, corpus.years, config, kept_into)
    threshold_stats = _threshold_stats(thresholds, config.balancing_mode)
    del made, thresholds  # the graph's arrays now hold K
    entered = np.diff(network.kept.indptr) > 0  # the nodes with an edge into them in K + R^T
    entered[network.reversed.src] = True
    dangling_count = corpus.n - int(np.count_nonzero(entered))
    kept, reversed_, dropped = network.kept_count, network.reversed_count, network.dropped_count
    op = _scale(network, config, _handed_over(network.kept.weight),
                _handed_over(network.reversed.weight))
    del network  # its weights are the operator's values now
    score = solve_power(op, config)
    return PipelineResult(aspect=aspect, sigma=float(sigma), graph_edges=graph_edges,
                          kept_count=kept, reversed_count=reversed_, dropped_count=dropped,
                          threshold_stats=threshold_stats, dangling_count=dangling_count,
                          score=score)


def run_multi_aspect(corpus: Corpus, config: RunConfig) -> dict[str, PipelineResult]:
    """Run the pipeline independently per aspect, in declared order."""
    return {aspect: run_pipeline(corpus, aspect, config) for aspect in corpus.aspects}


def score_ranks(scores: np.ndarray, ids: tuple[str, ...]) -> np.ndarray:
    """Rank 1 = highest score; score ties broken by id ascending.

    Ids are ranked by Python's string order before the one `np.lexsort`:
    numpy's strings drop trailing NUL characters, so "a" and "a\\0" would tie.
    """
    place = np.arange(1, len(ids) + 1)
    by_id = np.empty(len(ids), dtype=np.int64)
    by_id[sorted(range(len(ids)), key=ids.__getitem__)] = place
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[np.lexsort((by_id, -np.asarray(scores)))] = place
    return ranks


def write_scores_csv(results: dict[str, PipelineResult], corpus: Corpus,
                     path: str | Path) -> None:
    """Score table `id,year,aspect,score,rank`, one block per aspect in run order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "year", "aspect", "score", "rank"])
        years = corpus.years.tolist()
        for aspect, result in results.items():
            scores = result.score.scores
            writer.writerows(zip(corpus.ids, years, repeat(aspect), map(repr, scores.tolist()),
                                 score_ranks(scores, corpus.ids).tolist()))


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
            "threshold_median": _nearest_rank_percentile(thresholds, 50.0),
            "threshold_max": float(thresholds.max())}


def run_metadata(results: dict[str, PipelineResult], corpus: Corpus,
                 config: RunConfig) -> dict:
    """Config echo plus graph and solver stats, JSON-ready (plain types only)."""
    aspects = {}
    for aspect, r in results.items():
        edges = r.graph_edges
        aspects[aspect] = {
            "sigma": r.sigma,
            "sigma_auto": config.sigma_for(aspect) == "auto",
            "graph_edges": edges,
            "cin_edges": r.kept_count + r.reversed_count,
            "kept": r.kept_count,
            "reversed": r.reversed_count,
            "dropped": r.dropped_count,
            "reversed_fraction": (r.reversed_count / edges) if edges else 0.0,
            "dangling_count": r.dangling_count,
            **r.threshold_stats,
            "solver": {
                "name": "power",
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
