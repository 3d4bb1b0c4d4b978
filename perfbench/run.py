"""creanet benchmark: run a workload through the real CLI, check every output, print metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload score_global [--seed 62] [--seconds 30] [--trace 0]
    python3 perfbench/run.py --workload all          # every workload, one summary table

The load is a closed loop with one client: each op is one CLI command
(`creanet.cli.main`) in a fresh child interpreter, started only after the
previous op ended and its outputs were checked. Checks and output digests run
outside the timed region. BLAS keeps its default thread count, which is
recorded with the machine facts.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json. `--trace 1`
alternates untraced and traced ops and reports the per-layer metrics; the
difference between the two medians is `trace.overhead_s`.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. A detailed report (machine facts, every
op, predicted and measured shares) goes to `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from checks import check_op, output_digests
from spans import op_metrics
from workloads import WORKLOADS, generate, write_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 5    # setup_s is the median of this many input generations and child starts
# Ops cycle over this many corpora drawn from the seed, so that one run's medians
# span several inputs: peak RSS moves by up to 10% between corpora of one size
# with where the allocator happens to place large temporaries.
CORPORA = 3
MIN_OPS = CORPORA + 1  # ops per run however long they take, so that one corpus repeats
HARD_LIMIT_S = 150.0  # start no op past this, so that a run ends within 180 s
CHILD_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark itself cannot run (missing program, broken generator)."""


def run_child(work: Path, mode: str, cli_args: list[str], timeout: float):
    """Start child.py; return (exit code, its JSON result or None, monotonic spawn time)."""
    result_path = work / "child.json"
    result_path.unlink(missing_ok=True)
    spawn = time.monotonic()
    with (work / "child.log").open("wb") as log:
        proc = subprocess.run([sys.executable, str(CHILD), str(result_path), mode, str(SRC),
                               *cli_args], stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                              timeout=timeout)
    ok = proc.returncode == 0 and result_path.exists()
    return proc.returncode, json.loads(result_path.read_text()) if ok else None, spawn


def log_tail(work: Path) -> str:
    lines = (work / "child.log").read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def set_up(w, seed: int, work: Path):
    """Generate and write every corpus and start one child, SETUP_REPEATS times."""
    times, digests, threads = [], set(), None
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        corpora = [generate(w, seed, i) for i in range(CORPORA)]
        paths = [path for i, (years, features) in enumerate(corpora)
                 for path in write_inputs(w, years, features, work / f"inputs{i}")]
        written = time.monotonic()
        rc, result, spawn = run_child(work, "imports", [], timeout=60)
        if result is None:
            raise BenchError(f"child interpreter failed (exit {rc}): {log_tail(work)}")
        times.append(written - start + result["ready"] - spawn)
        threads = result["blas_threads"]
        digests.add(tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in paths))
    if len(digests) != 1:
        raise BenchError("the input generator wrote different bytes for one seed")
    return corpora, paths, times, threads


def run_op(w, seed, corpora, index: int, work: Path, kind: str, references: dict,
           timeout: float) -> dict:
    """Run one op on corpus `index`, check its outputs and compare their digests."""
    years, features = corpora[index]
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    spawn = time.monotonic()
    try:
        rc, result, spawn = run_child(work, kind, w.cli_args(work / f"inputs{index}", out),
                                      timeout)
    except subprocess.TimeoutExpired:
        return {"kind": kind, "wall_s": time.monotonic() - spawn,
                "failures": [f"timeout: no exit within {timeout:.0f} s"]}
    op = {"kind": kind, "wall_s": time.monotonic() - spawn}
    if result is None:
        op["failures"] = [f"child_exit: exit {rc}: {log_tail(work)}"]
        return op
    op.update(command_s=result["command_s"], peak_rss_mb=result["peak_rss_mb"],
              cpu_s=result["cpu_s"], startup_s=result["ready"] - spawn, spans=result["spans"])
    if result["rc"] != 0:
        op["failures"] = [f"exit_code: {result['rc']}: {log_tail(work)}"]
        return op
    try:
        failures = check_op(w, years, features, out, seed)
        digests = output_digests(out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        op["failures"] = [f"outputs_unreadable: {exc!r}"]
        return op
    reference = references.setdefault(index, digests)
    differ = sorted(name for name in set(digests) | set(reference)
                    if digests.get(name) != reference.get(name))
    if differ:
        failures.append(f"determinism: sha256 differs from the first op on corpus {index} "
                        f"for {differ}")
    op["failures"] = failures
    op["output_mb"] = {p.name: p.stat().st_size / 2**20 for p in out.iterdir()}
    return op


def measure(w, seed, seconds, trace, corpora, work, started) -> list[dict]:
    kinds = ("plain", "traced") if trace else ("plain",)
    ops, references = [], {}
    begin = time.monotonic()
    while True:
        index = len(ops) // len(kinds) % CORPORA
        for kind in kinds:
            timeout = max(CHILD_LIMIT_S - (time.monotonic() - started), 1.0)
            ops.append(run_op(w, seed, corpora, index, work, kind, references, timeout))
        if ops[-1]["failures"] and ops[-1]["failures"][0].startswith("timeout"):
            break
        elapsed = time.monotonic() - begin
        rounds = len(ops) // len(kinds)
        per_round = elapsed / rounds
        if time.monotonic() - started + per_round > HARD_LIMIT_S:
            break
        if len(ops) >= MIN_OPS and elapsed + per_round > seconds:
            break
    return ops


def tail_percentile(values: list[float]):
    """Highest of p90/p99/p99.9 with at least ten samples beyond it, as (p, value), or None."""
    ranked = sorted(values)
    for p in (99.9, 99.0, 90.0):
        if len(ranked) * (1 - p / 100) >= 10:
            return p, ranked[int(np.ceil(p / 100 * len(ranked))) - 1]
    return None


def per_layer(ops: list[dict], inputs_mb: float, units: dict[str, str]) -> dict[str, float]:
    """Times and sizes are medians over traced ops; counts come from the first one, on corpus 0."""
    traced = [op_metrics(op["spans"]) for op in ops if op.get("spans")]
    plain = [op for op in ops if op["kind"] == "plain" and "command_s" in op]
    if not traced or not plain:
        raise BenchError("no traced op finished; per-layer metrics need at least one")
    m = {key: statistics.median(t[key] for t in traced) if units.get(key) in ("s", "MiB")
         else traced[0][key] for key in traced[0]}
    outputs = next((op["output_mb"] for op in reversed(ops) if "output_mb" in op), {})
    m["corpus.input_mb"] = inputs_mb
    m["graph.csv_mb"] = outputs.get("graph.csv", 0.0)
    m["implication.csv_mb"] = outputs.get("cin.csv", 0.0)
    m["cli.cpu_s"] = statistics.median(op["cpu_s"] for op in plain)
    m["trace.overhead_s"] = (m["trace.command_s"]
                             - statistics.median(op["command_s"] for op in plain))
    return m


def shares(w, layer: dict[str, float]) -> dict[str, dict[str, float]]:
    """Predicted against measured share of the traced command time."""
    return {key: {"predicted": predicted,
                  "measured": sum(layer[k] for k in key.split("+")) / layer["trace.command_s"]}
            for key, predicted in w.predicted_shares.items()}


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            sizes[f"L{level}_{kind.lower()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def machine_facts(seed: int, blas_threads: int | None) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "ram_gib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "git_sha": _git_sha(),
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    started = time.monotonic()
    w = WORKLOADS[name]
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        corpora, inputs, setup_times, threads = set_up(w, seed, work)
        inputs_mb = sum(p.stat().st_size for p in inputs) / 2**20 / CORPORA
        ops = measure(w, seed, seconds, trace, corpora, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    finished = [op for op in ops if op["kind"] == "plain" and "command_s" in op]
    command = [op["command_s"] for op in finished] or [op["wall_s"] for op in ops]
    failed = [op for op in ops if op["failures"]]
    if trace:
        values = per_layer(ops, inputs_mb, {m["name"]: m["unit"] for m in spec["per_layer"]})
        names = spec["per_layer"]
    else:
        values = {"command_s": statistics.median(command),
                  "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in finished)
                  if finished else 0.0,
                  "setup_s": statistics.median(setup_times)}
        names = spec["end_to_end"]
    report = {
        "workload": name, "why": w.why, "seed": seed, "seconds": seconds, "trace": int(trace),
        "facts": machine_facts(seed, threads),
        "load": "closed loop, 1 client, one CLI command per fresh child process",
        "command_s": {"median": statistics.median(command), "samples": len(command),
                      "tail": tail_percentile(command)},
        "setup_s": setup_times,
        "failures": [f for op in failed for f in op["failures"]],
        "ops": [{k: v for k, v in op.items() if k != "spans"} for op in ops],
        "predicted_shares": w.predicted_shares,
        "shares": shares(w, values) if trace else None,
        "result": {"correct": not failed, "attempted": len(ops), "failed": len(failed),
                   "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                               for m in names}},
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}_seed{seed}_trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")
    return report


def print_summary(report: dict) -> None:
    r, c = report["result"], report["command_s"]
    facts = report["facts"]
    print(f"== {report['workload']} (seed {report['seed']}, trace {report['trace']}): "
          f"{report['load']}")
    print(f"   {facts['cpu_model']}, nproc {facts['nproc']}, {facts['blas']} "
          f"with {facts['blas_threads']} threads, python {facts['python']}, "
          f"numpy {facts['numpy']}, scipy {facts['scipy']}")
    tail = (f", p{c['tail'][0]:g} {c['tail'][1]:.4f} s" if c["tail"]
            else ", no percentile with 10 samples beyond it")
    print(f"   command_s: median {c['median']:.4f} s of {c['samples']} ops{tail}")
    print(f"   failed_ops: {r['failed']} of {r['attempted']}")
    for failure in report["failures"]:
        print(f"   FAILED {failure}")
    for name, m in r["metrics"].items():
        print(f"   {name:32s} {m['value']:14.6g} {m['unit']}")
    for key, s in (report["shares"] or {}).items():
        print(f"   share {key:40s} predicted {s['predicted']:.2f} measured {s['measured']:.2f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=62)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "creanet" / "cli.py").is_file():
        print(f"error: no creanet sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        reports = [run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
                   for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for report in reports:
        print_summary(report)
    if len(reports) == 1:
        result = reports[0]["result"]
    else:
        result = {"correct": all(r["result"]["correct"] for r in reports),
                  "attempted": sum(r["result"]["attempted"] for r in reports),
                  "failed": sum(r["result"]["failed"] for r in reports),
                  "metrics": {f"{r['workload']}.{k}": v for r in reports
                              for k, v in r["result"]["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
