"""Spans around the public functions of each creanet layer, and the per-layer metrics they give.

`Tracer.install` wraps every public function defined in a layer module and
patches the wrapper into every creanet module namespace that holds the
function, so callers get it wherever they look it up (for example both
`creanet.pipeline.build_graph` and `creanet.cli.build_graph`). Nothing in the
program changes on disk. A function that a later version removes or renames
simply yields no span, or a span under its new name; the metrics below then
read 0 for the missing name rather than failing.

Spans stay in memory while the op runs; the child writes them out at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import statistics
import sys
import time

import numpy as np

from checks import work_counts

# The modules of src/creanet that get metrics; config does negligible work.
LAYERS = ("corpus", "similarity", "graph", "implication", "scoring", "pipeline",
          "timemachine", "svgplot", "cli")


# Spans that record the RSS high-water mark when they end.
RSS_SPANS = ("graph.build_graph", "implication.build_implication_network")


def peak_rss_mb() -> float:
    """This process's own RSS high-water mark in MiB.

    Linux seeds a child's ru_maxrss with the parent's peak at fork, so
    ru_maxrss of a small child reads the benchmark's own peak. VmHWM belongs
    to the memory map that exec created and has no such floor.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Probes read counts off a traced call's arguments and result. They are best
# effort: a signature change after a refactor records a probe error, not a crash.

def _probe_build_graph(args, result):
    corpus, aspect, params = args[:3]
    window = params.temporal_window_k if params.temporal_prior == "window" else None
    computed = work_counts(corpus.years, params.k, window, corpus.features[aspect].dim)
    return {"pairs": computed["pairs"], "gflop": computed["gflop"],
            "expected_edges": computed["edges"], "edges": result.n_edges}


def _probe_network(args, result):
    return {"kept": result.kept_count, "reversed": result.reversed_count,
            "dropped": result.dropped_count}


def _probe_thresholds(args, result):
    years, spec = args[1], args[2]
    return {"threshold_years": int(np.unique(years).size) if spec.mode == "local" else 1}


def _probe_normalize(args, result):
    return {"dangling": int(result.dangling.sum())}


def _probe_solve(args, result):
    nnz = sum(a.matrix.nnz for a in args if hasattr(a, "matrix"))
    return {"iterations": result.iterations, "residual": float(result.residual),
            "edge_visits": result.iterations * nnz}


def _probe_kernel(args, result):
    return {"kernel_pairs": int(result.size)}


_PROBES = {
    "graph.build_graph": _probe_build_graph,
    "implication.balance_graph": _probe_network,
    "implication.build_implication_network": _probe_network,
    "implication.compute_thresholds": _probe_thresholds,
    "scoring.normalize": _probe_normalize,
    "similarity.kernel_block": _probe_kernel,
}


def _probe_for(name: str):
    if name.startswith("scoring.solve"):
        return _probe_solve
    return _PROBES.get(name)


class Tracer:
    """Records one span per traced call: name, start, end, parent, and counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        probe = _probe_for(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1] if self._open else None,
                    "start": time.perf_counter()}
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                if name in RSS_SPANS:
                    span["rss_mb"] = peak_rss_mb()
                self._open.pop()
            if probe is not None:
                try:
                    span["counts"] = probe(args, result)
                except Exception as exc:  # counters must not change the op's outcome
                    span["probe_error"] = repr(exc)
            return result

        return traced

    def install(self) -> None:
        traced = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"creanet.{layer}")
            except ModuleNotFoundError:
                continue
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    traced[obj] = self.wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name == "creanet" or name.startswith("creanet."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in traced:
                        setattr(module, attr, traced[obj])


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def op_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced op, from its spans."""
    dur = [s["end"] - s["start"] for s in spans]
    own = list(dur)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            own[s["parent"]] -= d

    def parent_layer(s):
        return None if s["parent"] is None else _layer(spans[s["parent"]]["name"])

    # a layer's entry spans are those called from another layer; counts sum over them
    entry = [parent_layer(s) != _layer(s["name"]) for s in spans]

    def total(name):
        return sum(d for s, d in zip(spans, dur) if s["name"] == name)

    def count(key, layer, reduce=sum):
        values = [s["counts"][key] for s, e in zip(spans, entry)
                  if e and _layer(s["name"]) == layer and key in s.get("counts", {})]
        return reduce(values) if values else 0

    def rss_after(name):
        return max((s["rss_mb"] for s in spans if s["name"] == name), default=0.0)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for s, o in zip(spans, own):
        layer_self[_layer(s["name"])] += o

    def ancestors(i):
        while spans[i]["parent"] is not None:
            i = spans[i]["parent"]
            yield spans[i]["name"]

    tm_passes = [d for i, (s, d) in enumerate(zip(spans, dur))
                 if s["name"] == "pipeline.run_pipeline"
                 and "timemachine.run_time_machine" in ancestors(i)]

    pairs = count("pairs", "graph")
    edges = count("edges", "graph")
    m = {
        "corpus.ingest_s": total("corpus.ingest_corpus"),
        "corpus.sigma_s": total("corpus.estimate_sigma"),
        "similarity.kernel_s": sum(d for s, d, e in zip(spans, dur, entry)
                                   if e and _layer(s["name"]) == "similarity"),
        "similarity.kernel_calls": sum(1 for s, e in zip(spans, entry)
                                       if e and _layer(s["name"]) == "similarity"),
        "similarity.kernel_pairs": count("kernel_pairs", "similarity"),
        "similarity.pairs": pairs,
        "similarity.gflop": count("gflop", "graph"),
        "graph.build_s": total("graph.build_graph"),
        "graph.self_s": sum(o for s, o in zip(spans, own) if s["name"] == "graph.build_graph"),
        "graph.edges": edges,
        "graph.expected_edges": count("expected_edges", "graph"),
        "graph.keep_ratio": edges / pairs if pairs else 0.0,
        "graph.rss_mb": rss_after("graph.build_graph"),
        "graph.write_s": total("graph.write_graph_csv"),
        "implication.thresholds_s": total("implication.compute_thresholds"),
        "implication.threshold_years": sum(s["counts"]["threshold_years"] for s in spans
                                           if "threshold_years" in s.get("counts", {})),
        "implication.map_s": total("implication.build_implication_network"),
        "implication.kept": count("kept", "implication"),
        "implication.reversed": count("reversed", "implication"),
        "implication.dropped": count("dropped", "implication"),
        "implication.rss_mb": rss_after("implication.build_implication_network"),
        "implication.write_s": total("implication.write_cin_csv"),
        "scoring.normalize_s": total("scoring.normalize"),
        "scoring.solve_s": sum(d for s, d, e in zip(spans, dur, entry)
                               if e and s["name"].startswith("scoring.solve")),
        "scoring.iterations": count("iterations", "scoring"),
        "scoring.residual": count("residual", "scoring", max),
        "scoring.dangling": count("dangling", "scoring"),
        "scoring.edge_visits": count("edge_visits", "scoring"),
        "pipeline.run_s": total("pipeline.run_pipeline"),
        "pipeline.write_scores_s": total("pipeline.write_scores_csv"),
        "pipeline.write_meta_s": total("pipeline.write_run_meta"),
        "svgplot.write_s": total("svgplot.write_scatter_svg"),
        "timemachine.passes": len(tm_passes),
        "timemachine.baseline_s": tm_passes[0] if tm_passes else 0.0,
        "timemachine.pass_s": statistics.median(tm_passes[1:]) if len(tm_passes) > 1 else 0.0,
        "timemachine.self_s": layer_self["timemachine"],
        "cli.self_s": layer_self["cli"],
        "trace.command_s": sum(d for s, d in zip(spans, dur) if s["parent"] is None),
        "trace.probe_errors": sum(1 for s in spans if "probe_error" in s),
    }
    for layer in LAYERS:
        m[f"{layer}.total_self_s"] = layer_self[layer]
    return m
