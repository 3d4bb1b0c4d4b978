"""Creativity scores for dated artifacts from feature-similarity graphs.

Pipeline: ingest a manifest plus per-aspect feature vectors, connect each
artifact to its most similar predecessors, rebalance the edges into a
creativity implication network, and solve a column-stochastic fixed point for
scores that reward both novelty and later influence. A time-machine harness
validates the scores by re-dating artifacts and checking the response.
"""

from .config import (ConfigError, RunConfig, TimeMachineSpec, config_from_mapping,
                     load_config_file, spec_from_mapping)
from .corpus import (Artifact, Corpus, FeatureSet, IngestError, estimate_sigma,
                     ingest_corpus, read_features, read_manifest)
from .graph import GraphParams, PaintingGraph, build_graph, write_graph_csv
from .implication import (BalanceSpec, ImplicationNetwork, build_implication_network,
                          compute_thresholds, nearest_rank_percentile, write_cin_csv)
from .pipeline import (PipelineResult, build_network, resolve_sigma, run_multi_aspect,
                       run_pipeline, score_ranks, write_run_meta, write_scores_csv)
from .scoring import ScoreVector, StochasticOperator, normalize, solve_power
from .similarity import SimilarityParams, pair_weights
from .svgplot import minmax_scale, scatter_svg, write_scatter_svg
from .timemachine import (TimeMachineReport, TimeMachineRun, resolve_targets,
                          run_time_machine, write_report_csv, write_runs_csv)

__version__ = "0.1.0"

__all__ = [
    "Artifact", "BalanceSpec", "ConfigError", "Corpus", "FeatureSet", "GraphParams",
    "ImplicationNetwork", "IngestError", "PaintingGraph", "PipelineResult", "RunConfig",
    "ScoreVector", "SimilarityParams", "StochasticOperator", "TimeMachineReport",
    "TimeMachineRun", "TimeMachineSpec", "__version__", "build_graph",
    "build_implication_network", "build_network", "compute_thresholds", "config_from_mapping",
    "estimate_sigma", "ingest_corpus", "load_config_file", "minmax_scale",
    "nearest_rank_percentile", "normalize", "pair_weights", "read_features",
    "read_manifest", "resolve_sigma", "resolve_targets", "run_multi_aspect",
    "run_pipeline", "run_time_machine", "scatter_svg", "score_ranks",
    "solve_power", "spec_from_mapping", "write_cin_csv", "write_graph_csv",
    "write_report_csv", "write_run_meta", "write_runs_csv", "write_scatter_svg",
    "write_scores_csv",
]
