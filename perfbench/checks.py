"""Output checks for one op, and the work counts that follow from the inputs alone.

Every check runs outside the timed region. A check returns a list of failure
strings, each starting with the name of the check that failed; an empty list
means the op's outputs are correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import LATE_FROM, Workload, artifact_id

SAMPLED_ROWS = 8          # destinations of graph.csv recomputed by brute force
WEIGHT_RTOL = 1e-12


def candidate_counts(years: np.ndarray, window: int | None) -> np.ndarray:
    """c_j: artifacts dated strictly before j, capped at `window` under the window prior."""
    years = np.asarray(years)
    c = np.searchsorted(np.sort(years), years, side="left")
    return c if window is None else np.minimum(c, window)


def work_counts(years: np.ndarray, k: int, window: int | None, dim: int) -> dict[str, float]:
    """Kernel pairs, GFLOP of their distance products, and the edge count of the top-K graph."""
    c = candidate_counts(years, window)
    pairs = int(c.sum())
    return {"pairs": pairs, "gflop": 2.0 * pairs * dim / 1e9,
            "edges": int(np.minimum(c, k).sum())}


def output_digests(out: Path) -> dict[str, str]:
    """sha256 of every file the op wrote, by name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file()}


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_score(w: Workload, years: np.ndarray, out: Path) -> list[str]:
    n = years.size
    alpha = float(w.settings["alpha"])
    rows = _rows(out / "scores.csv")
    if rows[0] != ["id", "year", "aspect", "score", "rank"]:
        return [f"scores_header: got {rows[0]}"]
    body = rows[1:]
    if len(body) != n:
        return [f"scores_rows: {len(body)} rows for {n} artifacts"]
    failures = []
    if any(r[0] != artifact_id(i) or int(r[1]) != years[i] for i, r in enumerate(body)):
        failures.append("scores_ids: id or year differs from the manifest")
    scores = [float(r[3]) for r in body]
    total = math.fsum(scores)
    if abs(total - 1.0) > 1e-9:
        failures.append(f"scores_sum: {total!r}")
    floor = (1.0 - alpha) / n - 1e-12
    if min(scores) < floor:
        failures.append(f"scores_floor: min {min(scores)!r} < {floor!r}")
    if sorted(int(r[4]) for r in body) != list(range(1, n + 1)):
        failures.append("scores_ranks: ranks are not a permutation of 1..n")

    meta = json.loads((out / "run_meta.json").read_text(encoding="utf-8"))
    stats = meta["aspects"]["visual"]
    if not stats["solver"]["converged"]:
        failures.append(f"meta_converged: residual {stats['solver']['residual']!r}")
    edges = stats["graph_edges"]
    if stats["kept"] + stats["reversed"] + stats["dropped"] != edges:
        failures.append("meta_partition: kept + reversed + dropped != graph_edges")
    expected = work_counts(years, w.k, w.window, 1)["edges"]
    if edges != expected:
        failures.append(f"edge_count: graph_edges {edges} != sum min(k, c_j) = {expected}")
    if w.plot:
        circles = (out / "plot.svg").read_text(encoding="utf-8").count("<circle ")
        if circles != n:
            failures.append(f"plot_markers: {circles} markers for {n} artifacts")
    return failures


def _rows_into(text: str, dst_id: str) -> list[list[str]]:
    """Fields other than the destination of the edge-CSV rows whose destination is `dst_id`."""
    needle = f",{dst_id},"
    rows, pos = [], text.find(needle)
    while pos >= 0:
        start = text.rfind("\n", 0, pos) + 1
        end = text.find("\n", pos)
        rows.append([text[start:pos], *text[pos + len(needle):end].split(",")])
        pos = text.find(needle, end)
    return rows


def _candidates(years: np.ndarray, j: int, window: int | None) -> np.ndarray:
    """Strictly earlier artifacts of j; under the window, the `window` latest by year
    (earlier manifest rows first within a year)."""
    prior = np.flatnonzero(years < years[j])
    if window is not None and prior.size > window:
        prior = prior[np.lexsort((prior, -years[prior]))][:window]
    return prior


def check_dump(w: Workload, years: np.ndarray, features: np.ndarray, out: Path,
               seed: int) -> list[str]:
    """Row counts, labels and a brute-force recomputation of sampled destination rows."""
    failures = []
    graph_text = (out / "graph.csv").read_text(encoding="utf-8")
    cin_text = (out / "cin.csv").read_text(encoding="utf-8")
    expected = work_counts(years, w.k, w.window, 1)["edges"]
    graph_rows = graph_text.count("\n") - 1
    cin_rows = cin_text.count("\n") - 1
    if graph_rows != expected:
        failures.append(f"edge_count: graph.csv has {graph_rows} rows, "
                        f"sum min(k, c_j) = {expected}")
    if not 0 < cin_rows <= graph_rows:
        failures.append(f"cin_rows: {cin_rows} kept + reversed rows for {graph_rows} edges")

    c = candidate_counts(years, w.window)
    rng = np.random.default_rng([seed, 1])
    sampled = np.sort(rng.choice(np.flatnonzero(c > 0), size=SAMPLED_ROWS, replace=False))

    observed = {}
    for j in sampled.tolist():
        observed[j] = {int(s[1:]): float(wt) for s, wt in _rows_into(graph_text, artifact_id(j))}
        for s, wt, label in _rows_into(cin_text, artifact_id(j)):
            if not float(wt) > 0.0:
                failures.append(f"cin_weight: edge {s}->{artifact_id(j)} weight {wt}")
            want = "prior" if years[j] < years[int(s[1:])] else "subsequent"
            if label != want:
                failures.append(f"cin_label: edge {s}->{artifact_id(j)} labeled {label}, "
                                f"expected {want}")

    # sigma is not written by dump-graph; every sampled weight must agree with one value
    d2 = {j: ((features[list(obs)] - features[j]) ** 2).sum(axis=1)
          for j, obs in observed.items() if obs}
    ratios = [-d2[j][i] / (2.0 * math.log(wt)) for j, obs in observed.items() if obs
              for i, wt in enumerate(obs.values()) if wt < 1.0]
    if not ratios:
        return failures + ["brute_force: no sampled edges to recompute"]
    two_sigma2 = 2.0 * float(np.median(ratios))
    for j, obs in observed.items():
        cand = _candidates(years, j, w.window)
        dist = ((features[cand] - features[j]) ** 2).sum(axis=1)
        weight = np.exp(-dist / two_sigma2)
        top = np.lexsort((cand, -weight))[:w.k]
        if set(cand[top].tolist()) != set(obs):
            failures.append(f"brute_force_sources: row {artifact_id(j)} keeps {len(obs)} sources, "
                            f"brute force differs on {len(set(cand[top].tolist()) ^ set(obs))}")
            continue
        want = dict(zip(cand[top].tolist(), weight[top].tolist()))
        worst = max(abs(obs[i] - want[i]) / want[i] for i in obs)
        if worst > WEIGHT_RTOL:
            failures.append(f"brute_force_weights: row {artifact_id(j)} off by {worst:.3e} relative")
    return failures


def check_timemachine(w: Workload, years: np.ndarray, out: Path) -> list[str]:
    n_runs = int(w.settings["timemachine.n_runs"])
    n_test = int(w.settings["timemachine.n_test"])
    rows = _rows(out / "runs.csv")[1:]
    if len(rows) != n_runs * n_test:
        return [f"runs_rows: {len(rows)} rows, expected {n_runs} x {n_test}"]
    failures = []
    if sorted({int(r[0]) for r in rows}) != list(range(n_runs)):
        failures.append("runs_index: run numbers are not 0..n_runs-1")
    if not all(math.isfinite(float(v)) for r in rows for v in r[4:]):
        failures.append("runs_finite: a score or gain is not finite")
    if any(years[int(r[1][1:])] < LATE_FROM for r in rows):
        failures.append("runs_group: a moved artifact is not in style=late")
    report = _rows(out / "report.csv")[1:]
    if len(report) != 1 or not all(math.isfinite(float(v)) for v in report[0][2:]):
        failures.append("report_row: report.csv needs one row of finite aggregates")
    return failures


def check_op(w: Workload, years: np.ndarray, features: np.ndarray, out: Path,
             seed: int) -> list[str]:
    if w.command == "score":
        return check_score(w, years, out)
    if w.command == "dump-graph":
        return check_dump(w, years, features, out, seed)
    return check_timemachine(w, years, out)
