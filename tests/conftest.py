"""Shared corpus builders, the dense closed-form solve oracle, CPU and thread patches for the
graph build, and the acceptance-criteria reporting hook."""

from __future__ import annotations

import csv
import os
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import creanet as cn
from creanet import graph as graph_module

_criterion_lines: list[str] = []


def record_criterion(line: str) -> None:
    _criterion_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.line(line)


def make_corpus(years, features, ids=None, styles=None, aspect="visual") -> cn.Corpus:
    """Corpus from bare arrays; ids default to p0000, p0001, ..."""
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if ids is None:
        ids = [f"p{i:04d}" for i in range(n)]
    if styles is None:
        styles = [None] * n
    artifacts = [cn.Artifact(id=ids[i], year=int(years[i]), style=styles[i]) for i in range(n)]
    return cn.Corpus(artifacts, {aspect: cn.FeatureSet(aspect, features)})


def use_cpus(monkeypatch, count: int) -> None:
    """Make the graph build see `count` available CPUs; with one it ranks its slabs serially."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def use_edge_chunk(monkeypatch, size: int) -> None:
    """Make `PaintingGraph`'s checks and the CIN's balancing work `size` edges at a time.

    The chunks are sized by their byte budget, `size` float64 values.
    """
    monkeypatch.setattr(graph_module, "_EDGE_BYTES", 8 * size)


def use_slab_rows(monkeypatch, rows: int, n: int) -> None:
    """Size the graph build's slab budget to `rows` destinations of `n` candidates each.

    A slab of narrower rows takes more of them; a budget of one float64 (rows
    = 0) gives every destination a slab of its own.
    """
    monkeypatch.setattr(graph_module, "_SLAB_BYTES", max(8, 8 * rows * n))


def planned_slabs(monkeypatch) -> list[list[tuple[int, int, int, int]]]:
    """A list that gets the slabs `graph._plan_slabs` plans from now on, one list per build."""
    plans = []
    real = graph_module._plan_slabs

    def plan(lo, hi, width):
        plans.append(real(lo, hi, width))
        return plans[-1]

    monkeypatch.setattr(graph_module, "_plan_slabs", plan)
    return plans


def chain_graph(n: int, per_node: int, seed: int = 0) -> tuple[cn.PaintingGraph, np.ndarray]:
    """A graph whose node j >= per_node takes the sources j - per_node .. j - 1, and its years.

    Years rise with the node index, so every edge runs forward in time; the
    weights are uniform in (0, 1].
    """
    counts = np.where(np.arange(n) >= per_node, per_node, 0)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    dst = np.repeat(np.arange(n, dtype=np.int32), counts)
    src = dst - np.int32(per_node) + np.tile(np.arange(per_node, dtype=np.int32), n - per_node)
    weight = 1.0 - np.random.default_rng(seed).random(src.size)
    return cn.PaintingGraph(n=n, indptr=indptr, src=src, weight=weight), 1000 + np.arange(n)


def traced_peak(call) -> int:
    """Bytes that `call()` allocated at its peak, above what was allocated before it, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def count_thread_starts(monkeypatch) -> list[str]:
    """A list that gets the name of every thread started from now on, such as the build's helper."""
    starts = []
    real_start = threading.Thread.start

    def start(thread):
        starts.append(thread.name)
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return starts


def random_corpus(seed: int, n: int, dim: int, year_lo: int = 1400, year_hi: int = 1900) -> cn.Corpus:
    rng = np.random.default_rng(seed)
    years = rng.integers(year_lo, year_hi + 1, size=n)
    return make_corpus(years, rng.normal(size=(n, dim)))


def visual_similarity(f_i, f_j, sigma: float) -> float:
    """Gaussian kernel weight of one pair of feature vectors; the per-pair reference weight.

    The squared distance is summed over the dimensions left to right in
    float64, then divided by -2 sigma^2 and passed through numpy's exp.
    """
    d2 = 0.0
    for x, y in zip(np.asarray(f_i, dtype=np.float64).tolist(),
                    np.asarray(f_j, dtype=np.float64).tolist()):
        d2 += (x - y) * (x - y)
    return float(np.exp(np.float64(d2) / (-2.0 * sigma * sigma)))


def write_features_binary(path, vectors) -> None:
    """Write a feature matrix as a CRFT file: magic, u32 LE rows, u32 LE dim, 4 zero bytes, f32 LE rows."""
    vectors = np.ascontiguousarray(vectors, dtype="<f4")
    assert vectors.ndim == 2
    n_rows, dim = vectors.shape
    header = b"CRFT" + n_rows.to_bytes(4, "little") + dim.to_bytes(4, "little") + bytes(4)
    Path(path).write_bytes(header + vectors.tobytes())


def from_edges(cls, n, src, dst, weight, **fields):
    """An edge store such as `PaintingGraph` holding (src, dst, weight) triples in (dst, src) order."""
    dst = np.asarray(dst, dtype=np.int64)
    assert np.all(np.diff(dst) >= 0), "triples must come grouped by destination"
    indptr = np.searchsorted(dst, np.arange(n + 1))
    return cls(n=n, indptr=indptr, src=src, weight=weight, **fields)


def edge_dst(edges) -> np.ndarray:
    """The destination of every edge of an edge store such as `PaintingGraph`."""
    return np.repeat(np.arange(edges.n), np.diff(edges.indptr))


def make_network(n, kept=((), (), ()), reversed_=((), (), ()), dropped=0) -> cn.ImplicationNetwork:
    """A network from the (src, dst, weight) triples of its kept and its reversed graph edges."""
    return cn.ImplicationNetwork(kept=from_edges(cn.PaintingGraph, n, *kept),
                                 reversed=from_edges(cn.PaintingGraph, n, *reversed_),
                                 dropped_count=dropped)


def cin_edges(net: cn.ImplicationNetwork):
    """(src, dst, weight, prior) of every network edge in (dst, src) order: K as stored, R flipped."""
    kept, rev = net.kept, net.reversed
    src = np.concatenate((kept.src, edge_dst(rev)))
    dst = np.concatenate((edge_dst(kept), rev.src))
    weight = np.concatenate((kept.weight, rev.weight))
    prior = np.concatenate((np.zeros(kept.n_edges, dtype=bool), np.ones(rev.n_edges, dtype=bool)))
    order = np.lexsort((src, dst))
    return src[order], dst[order], weight[order], prior[order]


def balance(graph: cn.PaintingGraph, years,
            config: cn.RunConfig | None = None) -> cn.ImplicationNetwork:
    """Thresholds and edge mapping in one step, as the pipeline runs them."""
    config = config or cn.RunConfig()
    m = cn.compute_thresholds(graph, years, config)
    return cn.build_implication_network(graph, m, years, config)


def build_stages(corpus: cn.Corpus, aspect: str, config: cn.RunConfig, sigma: float,
                 graph: cn.PaintingGraph | None = None):
    """(graph, thresholds, network) of one aspect, stage by stage; the graph is left as it is.

    `graph`, when given, is the similarity graph already built for these
    settings. The thresholds are None when the graph has no edges, and the
    network is then the graph's, as the pipeline scores it.
    """
    if graph is None:
        graph = cn.build_graph(corpus, aspect, config, sigma)
    if graph.n_edges == 0:
        return graph, None, cn.ImplicationNetwork(kept=graph, reversed=graph, dropped_count=0)
    m = cn.compute_thresholds(graph, corpus.years, config)
    return graph, m, cn.build_implication_network(graph, m, corpus.years, config)


def random_network(seed: int, n: int, k: int = 8, p: float = 50.0) -> cn.ImplicationNetwork:
    """Implication network of a random corpus, for solver-level tests."""
    corpus = random_corpus(seed, n, 6)
    sigma = cn.estimate_sigma(corpus.features["visual"], seed=seed)
    graph = cn.build_graph(corpus, "visual", cn.RunConfig(k=k), sigma)
    return balance(graph, corpus.years, cn.RunConfig(percentile_p=p))


COMBINED = cn.RunConfig()  # combined scoring, every setting at its default


def split(beta: float) -> cn.RunConfig:
    """Split scoring at `beta`, every other setting at its default."""
    return cn.RunConfig(scoring="split", beta=beta)


def dense_matrix(op: cn.StochasticOperator) -> np.ndarray:
    """Full matrix of a scoring operator with the dangling weights filled in, column j as M e_j; for small n only."""
    return np.column_stack([op.apply(e) for e in np.eye(op.n)])


def solve_closed_form(op: cn.StochasticOperator, alpha: float) -> cn.ScoreVector:
    """Direct dense solve of (I - alpha M) C = (1-alpha)/n; the power-iteration oracle."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"closed form requires alpha in [0, 1), got {alpha!r}")
    a = np.eye(op.n) - alpha * dense_matrix(op)
    b = np.full(op.n, (1.0 - alpha) / op.n)
    scores = np.linalg.solve(a, b)
    return cn.ScoreVector(scores=scores, iterations=0, residual=0.0, converged=True)


def planted_corpus(seed: int = 7) -> cn.Corpus:
    """500 artifacts with planted structure for the time-machine direction test.

    Motif A: 15 tight archetypes (1430-1470) imitated by 80 later artifacts.
    Motif B: 60 echoes (1650-1860) anticipating 15 tight innovators (1870-1900).
    Everything else is unstructured background over 1400-1900; the slice dated
    1550-1650 is labeled `wander` to serve as the near-neutral control group.
    """
    rng = np.random.default_rng(seed)
    dim = 8
    motif_a = np.zeros(dim)
    motif_a[0] = 6.0
    motif_b = np.zeros(dim)
    motif_b[1] = 6.0
    rows: list[tuple[int, str, np.ndarray]] = []
    for _ in range(15):
        rows.append((1430 + int(rng.integers(0, 41)), "archetype", motif_a + rng.normal(0, 0.05, dim)))
    for _ in range(80):
        rows.append((1500 + int(rng.integers(0, 351)), "imitator", motif_a + rng.normal(0, 0.15, dim)))
    for _ in range(15):
        rows.append((1870 + int(rng.integers(0, 31)), "innovator", motif_b + rng.normal(0, 0.05, dim)))
    for _ in range(60):
        rows.append((1650 + int(rng.integers(0, 211)), "echo", motif_b + rng.normal(0, 0.15, dim)))
    for _ in range(330):
        y = 1400 + int(rng.integers(0, 501))
        rows.append((y, "wander" if 1550 <= y <= 1650 else "background", rng.normal(0, 1.0, dim)))
    # pin the corpus year range so clamp bounds are independent of the draw
    rows[0] = (1400, "background", rows[0][2])
    rows[-1] = (1900, "background", rows[-1][2])
    artifacts = [cn.Artifact(id=f"p{i:04d}", year=y, style=s) for i, (y, s, _) in enumerate(rows)]
    features = np.stack([f for _, _, f in rows])
    return cn.Corpus(artifacts, {"visual": cn.FeatureSet("visual", features)})


@pytest.fixture(scope="session")
def planted():
    return planted_corpus()


PIONEER = 1  # row of the pioneer in pioneer_corpus


def pioneer_corpus() -> cn.Corpus:
    """Pioneer P, three later near-copies of P, and one earlier dissimilar precursor.

    With sigma pinned to 1 the precursor's edges all fall below the balancing
    median and reverse, so P also owns a strong novelty (prior-labeled) edge;
    P's edges to its copies stay kept (subsequent-labeled) influence edges.
    P should top the ranking whether the split emphasizes either channel.
    """
    feats = np.array([
        [2.5, 0.0],   # precursor 1400, far from the cluster that follows
        [0.0, 0.0],   # pioneer 1500
        [0.5, 0.0],   # copy 1600
        [-0.5, 0.0],  # copy 1650
        [0.0, 0.5],   # copy 1700
    ])
    years = [1400, 1500, 1600, 1650, 1700]
    ids = ["precursor", "pioneer", "copy1", "copy2", "copy3"]
    return make_corpus(years, feats, ids=ids)


def write_corpus_files(corpus: cn.Corpus, directory: Path) -> tuple[Path, dict[str, Path]]:
    """Write a corpus as manifest + per-aspect feature CSVs for CLI tests."""
    directory.mkdir(parents=True, exist_ok=True)
    manifest = directory / "manifest.csv"
    has_style = any(a.style is not None for a in corpus.artifacts)
    with open(manifest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "year", "style"] if has_style else ["id", "year"])
        for a in corpus.artifacts:
            row = [a.id, a.year] + ([a.style or ""] if has_style else [])
            writer.writerow(row)
    paths = {}
    for aspect in corpus.aspects:
        path = directory / f"{aspect}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in corpus.features[aspect].vectors:
                writer.writerow([repr(float(x)) for x in row])
        paths[aspect] = path
    return manifest, paths
