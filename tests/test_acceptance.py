"""Acceptance gate: one test per shipping criterion, each reporting PASS/FAIL.

Each test prints (and records for the terminal summary) a single line
`PASS criterion N: ...` or `FAIL criterion N: ...` with the measured numbers.
Criteria 7 and 9 are the expensive ones; 9 runs a 62,000-artifact corpus and
is marked slow, but still runs by default.
"""

import functools
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import creanet as cn

from conftest import (PIONEER, balance, edge_dst, make_network, pioneer_corpus, random_corpus,
                      record_criterion, solve_closed_form, write_corpus_files)
from test_oracles import reference_normalize

ALPHAS = (0.15, 0.5, 0.85)


def _emit(num: int, passed: bool, detail: str) -> None:
    detail = " ".join(str(detail).split())
    if len(detail) > 220:
        detail = detail[:217] + "..."
    line = f"{'PASS' if passed else 'FAIL'} criterion {num}: {detail}"
    print(line)
    record_criterion(line)


def criterion(num: int):
    """Wrap a test so it always emits exactly one PASS/FAIL line."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                _emit(num, False, str(exc) or repr(exc))
                raise
            _emit(num, True, detail)

        return run

    return wrap


def _network(seed: int, n: int, dim: int, k: int = 8,
             spec: cn.BalanceSpec | None = None,
             anchor: str = "destination") -> cn.ImplicationNetwork:
    corpus = random_corpus(seed, n, dim)
    sigma = cn.estimate_sigma(corpus.features["visual"], seed=seed)
    graph = cn.build_graph(corpus, "visual", cn.GraphParams(k=k, sigma=sigma))
    return balance(graph, corpus.years, spec, anchor=anchor)


CORPUS_GRID = [(n, dim) for n in (50, 200) for dim in (4, 64)] * 5  # 20 corpora


@criterion(1)
def test_criterion_1_solver_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    pairs = 0
    for i, (n, dim) in enumerate(CORPUS_GRID):
        op = cn.normalize(_network(100 + i, n, dim))
        for alpha in ALPHAS:
            power = cn.solve_power(op, alpha, tol=1e-13)
            closed = solve_closed_form(op, alpha)
            worst = max(worst, float(np.abs(power.scores - closed.scores).max()))
            pairs += 1
    elapsed = time.monotonic() - start
    assert worst < 1e-8, f"worst solver disagreement {worst:.3e} >= 1e-8"
    assert elapsed < 30.0, f"took {elapsed:.1f}s >= 30s"
    return (f"power vs closed form agree to {worst:.2e} L-inf across {pairs} "
            f"solves on 20 corpora in {elapsed:.1f}s (< 30s)")


@criterion(2)
def test_criterion_2_simplex_invariants():
    runs = 0
    iterates = 0
    for i, (n, dim) in enumerate(CORPUS_GRID[:6]):
        op = cn.normalize(_network(120 + i, n, dim))
        for alpha in ALPHAS:
            floor = (1.0 - alpha) / op.n - 1e-12
            seen = []

            def check(c, floor=floor, seen=seen):
                assert abs(float(c.sum()) - 1.0) <= 1e-9, "iterate left the simplex"
                assert float(c.min()) >= floor, "iterate broke the teleport floor"
                seen.append(1)

            power = cn.solve_power(op, alpha, on_iteration=check)
            closed = solve_closed_form(op, alpha)
            for result in (power, closed):
                assert abs(float(result.scores.sum()) - 1.0) <= 1e-9
                assert float(result.scores.min()) >= floor
            runs += 2
            iterates += len(seen)
    return (f"sum C = 1 +/- 1e-9 and min C >= (1-alpha)/n - 1e-12 held for "
            f"{runs} solver runs and all {iterates} power iterates "
            f"(every ScoreVector in the suite re-checks the sum on construction)")


@criterion(3)
def test_criterion_3_cin_conservation():
    edges = 0
    networks = 0
    specs = [cn.BalanceSpec(percentile_p=25.0),
             cn.BalanceSpec(percentile_p=50.0),
             cn.BalanceSpec(percentile_p=75.0),
             cn.BalanceSpec(mode="local", local_window_years=40, min_local_sample=5)]
    for seed in range(10):
        corpus = random_corpus(140 + seed, 80, 6)
        sigma = cn.estimate_sigma(corpus.features["visual"], seed=seed)
        graph = cn.build_graph(corpus, "visual", cn.GraphParams(k=8, sigma=sigma))
        for spec in specs:
            for anchor in ("destination", "source"):
                net = balance(graph, corpus.years, spec, anchor=anchor)
                total = net.kept_count + net.reversed_count + net.dropped_count
                assert total == graph.n_edges, (
                    f"kept+reversed+dropped = {total} != {graph.n_edges} original edges")
                assert net.n_edges == net.kept_count + net.reversed_count
                # the operator reads K as subsequent edges src -> dst and R as prior
                # edges dst -> src: both stores must run earlier -> later
                for store in (net.kept, net.reversed):
                    if store.n_edges:
                        assert float(store.weight.min()) > 0.0, "non-positive CIN weight"
                    labels_ok = corpus.years[store.src] < corpus.years[edge_dst(store)]
                    assert bool(np.all(labels_ok)), "prior/subsequent label disagrees with years"
                edges += net.n_edges
                networks += 1
    return (f"kept+reversed+dropped == original, weights > 0, and year-consistent "
            f"labels on {networks} networks ({edges} CIN edges)")


@criterion(4)
def test_criterion_4_teleport_limit():
    corpora = 0
    for seed, n, dim in ((160, 50, 4), (161, 120, 16), (162, 200, 64)):
        op = cn.normalize(_network(seed, n, dim))
        uniform = np.full(op.n, 1.0 / op.n)
        assert np.array_equal(cn.solve_power(op, 0.0).scores, uniform), "power not exactly uniform"
        assert np.array_equal(solve_closed_form(op, 0.0).scores, uniform), \
            "closed form not exactly uniform"
        corpora += 1
    return f"alpha = 0 gives exactly uniform 1/n scores (both solvers, {corpora} corpora)"


@criterion(5)
def test_criterion_5_two_node_fixture():
    # dangling column a is completed uniformly; column b is all a's weight
    dense = np.array([[0.5, 1.0], [0.5, 0.0]])
    derived = np.linalg.solve(np.eye(2) - 0.85 * dense, np.full(2, 0.075))
    assert abs(derived[0] - 0.6491) < 1e-3 and abs(derived[1] - 0.3509) < 1e-3, \
        "re-derived dense solution does not match the quoted fixture values"

    net = make_network(2, kept=([0], [1], [0.3]))
    op = cn.normalize(net)
    power = cn.solve_power(op, 0.85, tol=1e-14).scores
    closed = solve_closed_form(op, 0.85).scores
    for scores in (power, closed):
        assert abs(scores[0] - 0.6491) < 1e-3, f"C(a) = {scores[0]!r}"
        assert abs(scores[1] - 0.3509) < 1e-3, f"C(b) = {scores[1]!r}"
        assert np.abs(scores - derived).max() < 1e-10
    return (f"C(a) = {power[0]:.6f}, C(b) = {power[1]:.6f} from both solvers "
            f"(quoted 0.6491 / 0.3509 +/- 1e-3, re-derived via dense solve)")


@criterion(6)
def test_criterion_6_beta_split_limits():
    for seed in (180, 181, 182):
        net = _network(seed, 100, 6)
        # the single-label operators come from the reference normalization, so
        # the limits are checked against code the beta blend does not share
        one = cn.solve_power(cn.normalize(net, beta=1.0), 0.5)
        zero = cn.solve_power(cn.normalize(net, beta=0.0), 0.5)
        prior_only = cn.solve_power(reference_normalize(net, "prior"), 0.5)
        subseq_only = cn.solve_power(reference_normalize(net, "subsequent"), 0.5)
        assert np.array_equal(one.scores, prior_only.scores), \
            "beta = 1 does not bitwise match the prior-only solve"
        assert np.array_equal(zero.scores, subseq_only.scores), \
            "beta = 0 does not bitwise match the subsequent-only solve"

    corpus = pioneer_corpus()
    ranks = {}
    for beta in (0.1, 0.9):
        config = cn.RunConfig(beta=beta, scoring="split")
        result = cn.run_pipeline(corpus, "visual", config, sigma=1.0)
        ranks[beta] = int(cn.score_ranks(result.score.scores, corpus.ids)[PIONEER])
    assert ranks[0.1] >= ranks[0.9], (
        f"pioneer rank under influence emphasis ({ranks[0.1]}) fell below its "
        f"rank under originality emphasis ({ranks[0.9]})")
    return (f"beta limits bitwise-equal single-operator solves on 3 networks; "
            f"pioneer rank {ranks[0.1]} (influence) >= {ranks[0.9]} (originality)")


@pytest.mark.filterwarnings("ignore:n_test")
@criterion(7)
def test_criterion_7_time_machine_directions(planted):
    start = time.monotonic()
    config = cn.RunConfig(k=30)

    def experiment(group, move):
        spec = cn.TimeMachineSpec(group=group, move=move, n_test=10, n_runs=10)
        return cn.run_time_machine(planted, config, spec)

    back = experiment("style=innovator", "back")
    forward = experiment("style=archetype", "forward")
    wander = experiment("style=wander", "wander")
    elapsed = time.monotonic() - start

    back_positive = sum(run.mean_gain > 0.0 for run in back.runs)
    forward_negative = sum(run.mean_gain < 0.0 for run in forward.runs)
    assert back_positive >= 9, f"back-moves positive in only {back_positive}/10 runs"
    assert forward_negative >= 9, f"forward-moves negative in only {forward_negative}/10 runs"
    assert abs(wander.mean_gain) < back.mean_gain, (
        f"|wander mean {wander.mean_gain:.2f}%| not below back mean {back.mean_gain:.2f}%")
    assert abs(wander.mean_gain) < abs(forward.mean_gain), (
        f"|wander mean {wander.mean_gain:.2f}%| not below |forward mean "
        f"{forward.mean_gain:.2f}%|")
    assert elapsed < 120.0, f"took {elapsed:.1f}s >= 120s"
    return (f"back {back_positive}/10 runs positive (mean {back.mean_gain:+.1f}%), "
            f"forward {forward_negative}/10 negative (mean {forward.mean_gain:+.1f}%), "
            f"wander {wander.mean_gain:+.2f}% smaller than both, in {elapsed:.1f}s (< 120s)")


@pytest.mark.filterwarnings("ignore:n_test")
@criterion(8)
def test_criterion_8_byte_identical_reruns(tmp_path, capsys):
    from creanet.cli import main

    rng = np.random.default_rng(56)
    n = 40
    years = [1450 + 10 * i for i in range(n)]
    styles = ["early" if y < 1600 else "late" for y in years]
    corpus = cn.Corpus(
        artifacts=[cn.Artifact(id=f"p{i:04d}", year=years[i], style=styles[i])
                   for i in range(n)],
        features={"visual": cn.FeatureSet("visual", rng.normal(size=(n, 5)))})
    manifest, features = write_corpus_files(corpus, tmp_path / "corpus")
    inputs = ["--manifest", str(manifest), "--features", f"visual={features['visual']}",
              "--set", "k=8", "--seed", "7"]
    tm = ["--set", "timemachine.group=style=late", "--set", "timemachine.move=back",
          "--set", "timemachine.n_test=2", "--set", "timemachine.n_runs=2"]

    produced = {
        "score": ["scores.csv", "run_meta.json", "plot.svg"],
        "timemachine": ["report.csv", "runs.csv"],
        "dump-graph": ["graph.csv", "cin.csv"],
    }
    outputs = {"first": {}, "second": {}}
    stdout = {}
    for attempt in outputs:
        out_root = tmp_path / attempt
        assert main(["validate"] + inputs) == 0
        stdout[attempt] = capsys.readouterr().out
        for command, names in produced.items():
            out = out_root / command
            argv = [command] + inputs + (tm if command == "timemachine" else []) + \
                   (["--plot"] if command == "score" else []) + ["--out", str(out)]
            assert main(argv) == 0, f"{command} failed"
            for name in names:
                outputs[attempt][f"{command}/{name}"] = (out / name).read_bytes()

    assert stdout["first"] == stdout["second"], "validate stdout changed between reruns"
    differing = [name for name in outputs["first"]
                 if outputs["first"][name] != outputs["second"][name]]
    assert not differing, f"reruns differ in: {differing}"

    # score and dump-graph again in a child interpreter with one BLAS thread,
    # on these inputs and on a corpus of 150-artifact year groups, whose matrix
    # products are large enough for BLAS to split across threads; timemachine
    # too on these inputs, the wide corpus having no style column to select by
    wide_rng = np.random.default_rng(57)
    wide_years = wide_rng.integers(1500, 1510, size=1500)
    wide = cn.Corpus(
        artifacts=[cn.Artifact(id=f"w{i:04d}", year=int(y)) for i, y in enumerate(wide_years)],
        features={"visual": cn.FeatureSet("visual", wide_rng.normal(size=(1500, 16)))})
    wide_manifest, wide_features = write_corpus_files(wide, tmp_path / "wide")
    wide_inputs = ["--manifest", str(wide_manifest), "--features",
                   f"visual={wide_features['visual']}", "--set", "k=100", "--seed", "7"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(cn.__file__).resolve().parents[1]))
    child = "import sys\nfrom creanet.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    compared = 0
    for label, args, commands in (("corpus", inputs, ("score", "dump-graph", "timemachine")),
                                  ("wide", wide_inputs, ("score", "dump-graph"))):
        for command in commands:
            flags = args + (["--plot"] if command == "score" else []) + \
                    (tm if command == "timemachine" else [])
            here, there = tmp_path / "here" / label / command, tmp_path / "one_thread" / label / command
            assert main([command] + flags + ["--out", str(here)]) == 0, f"{command} failed"
            proc = subprocess.run([sys.executable, "-c", child, command, *flags, "--out", str(there)],
                                  capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            for name in produced[command]:
                assert (there / name).read_bytes() == (here / name).read_bytes(), \
                    f"{label} {command}/{name} differs with one BLAS thread"
                compared += 1
    return (f"validate, score --plot, timemachine, and dump-graph reruns "
            f"byte-identical across {len(outputs['first'])} output files; "
            f"{compared} score, dump-graph and timemachine files identical with "
            f"OPENBLAS_NUM_THREADS=1")


def _peak_rss_mib() -> float:
    """Peak resident set of this process: `VmHWM` where /proc has it, else `ru_maxrss`."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource
    import sys
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # bytes on macOS, KiB elsewhere
    return peak / (1024.0 ** 2 if sys.platform == "darwin" else 1024.0)


@pytest.mark.slow
@criterion(9)
def test_criterion_9_scale_smoke():
    start = time.monotonic()
    rng = np.random.default_rng(62)
    n = 62_000
    years = rng.integers(1400, 1901, size=n)
    features = rng.normal(size=(n, 16))
    corpus = cn.Corpus(
        artifacts=[cn.Artifact(id=f"p{i:05d}", year=int(years[i])) for i in range(n)],
        features={"visual": cn.FeatureSet("visual", features)})
    built = time.monotonic()

    config = cn.RunConfig(k=500, alpha=0.15)
    sigma = cn.resolve_sigma(corpus, "visual", config)
    graph = cn.build_graph(corpus, "visual", cn.GraphParams(k=config.k, sigma=sigma))
    graph_done = time.monotonic()

    network = balance(graph, corpus.years)
    op = cn.normalize(network)
    score = cn.solve_power(op, config.alpha, tol=config.tol, max_iters=config.max_iters)
    elapsed = time.monotonic() - start

    assert score.converged, f"power iteration stalled at residual {score.residual:.3e}"
    assert abs(float(score.scores.sum()) - 1.0) <= 1e-9
    assert elapsed < 900.0, f"took {elapsed:.1f}s >= 900s"
    return (f"n = {n}, K = 500, alpha = 0.15: {graph.n_edges} edges in "
            f"{graph_done - built:.0f}s, power converged in {score.iterations} "
            f"iterations; total {elapsed:.0f}s (< 900s); peak RSS {_peak_rss_mib():.0f} MiB "
            f"(reported, not gated)")
