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
from .graph import PaintingGraph, build_graph, write_graph_csv
from .implication import (ImplicationNetwork, build_implication_network, compute_thresholds,
                          write_cin_csv)
from .pipeline import (PipelineResult, resolve_sigma, run_multi_aspect, run_pipeline, score_ranks,
                       write_run_meta, write_scores_csv)
from .scoring import ScoreVector, StochasticOperator, normalize, solve_power
from .svgplot import write_scatter_svg
from .timemachine import (TimeMachineReport, TimeMachineRun, run_time_machine, write_report_csv,
                          write_runs_csv)

__version__ = "0.1.0"

__all__ = [
    "Artifact", "ConfigError", "Corpus", "FeatureSet", "ImplicationNetwork", "IngestError",
    "PaintingGraph", "PipelineResult", "RunConfig", "ScoreVector", "StochasticOperator",
    "TimeMachineReport", "TimeMachineRun", "TimeMachineSpec", "__version__", "build_graph",
    "build_implication_network", "compute_thresholds", "config_from_mapping", "estimate_sigma",
    "ingest_corpus", "load_config_file", "normalize", "read_features", "read_manifest",
    "resolve_sigma", "run_multi_aspect", "run_pipeline", "run_time_machine", "score_ranks",
    "solve_power", "spec_from_mapping", "write_cin_csv", "write_graph_csv", "write_report_csv",
    "write_run_meta", "write_runs_csv", "write_scatter_svg", "write_scores_csv",
]
