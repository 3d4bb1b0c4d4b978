"""Command-line front end: validate inputs, score corpora, run experiments.

Exit codes: 0 success, 1 I/O failure, 2 validation or config failure,
3 numerical failure (solver did not converge; outputs are still written).
All file output stays inside the --out directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import (ConfigError, check_known_keys, config_from_mapping,
                     load_config_file, parse_config_text, spec_from_mapping)
from .corpus import ingest_corpus
from .graph import build_graph, write_graph_csv
from .implication import write_cin_csv
from .pipeline import (_fork_pair, build_network, resolve_sigma, run_multi_aspect,
                       write_run_meta, write_scores_csv)
from .svgplot import write_scatter_svg
from .timemachine import run_time_machine, write_report_csv, write_runs_csv

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="creanet",
        description="Creativity scores for dated artifacts from feature similarity graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, out_required: bool) -> None:
        p.add_argument("--config", metavar="PATH", help="flat key=value config file")
        p.add_argument("--manifest", metavar="PATH", help="manifest CSV (id,year[,artist][,style][,genre])")
        p.add_argument("--features", metavar="ASPECT=PATH", action="append", default=[],
                       help="feature file for one aspect; repeatable")
        p.add_argument("--seed", type=int, metavar="U64", help="override the config seed")
        p.add_argument("--set", dest="overrides", metavar="KEY=VALUE", action="append",
                       default=[], help="override any config key; repeatable")
        if out_required:
            p.add_argument("--out", metavar="DIR", required=True, help="output directory")

    add_common(sub.add_parser("validate", help="ingest and report corpus diagnostics"),
               out_required=False)
    p_score = sub.add_parser("score", help="run the scoring pipeline, write scores.csv")
    add_common(p_score, out_required=True)
    p_score.add_argument("--plot", action="store_true",
                         help="also write an SVG scatter of year vs scaled score")
    add_common(sub.add_parser("timemachine", help="run the re-dating experiment"),
               out_required=True)
    add_common(sub.add_parser("dump-graph", help="write the similarity graph and "
                              "implication network as CSV"), out_required=True)
    return parser


def _build_mapping(args: argparse.Namespace) -> dict[str, str]:
    """Merge config file, --set overrides, and input flags into one mapping."""
    mapping: dict[str, str] = {}
    if args.config:
        config_path = Path(args.config)
        mapping = load_config_file(config_path)
        base = config_path.parent
        for key, value in mapping.items():
            if key == "manifest" or key.startswith("feature."):
                p = Path(value)
                if not p.is_absolute():
                    mapping[key] = str(base / p)
    for pair in args.overrides:
        extra = parse_config_text(pair, source="--set")
        mapping.update(extra)
    if args.manifest:
        mapping["manifest"] = args.manifest
    for pair in args.features:
        if "=" not in pair:
            raise ConfigError(f"--features expects ASPECT=PATH, got {pair!r}")
        aspect, _, path = pair.partition("=")
        if not aspect or not path:
            raise ConfigError(f"--features expects ASPECT=PATH, got {pair!r}")
        mapping[f"feature.{aspect}"] = path
    if args.seed is not None:
        mapping["seed"] = str(args.seed)
    check_known_keys(mapping)
    return mapping


def _ingest(mapping: dict[str, str]):
    manifest = mapping.get("manifest")
    if manifest is None:
        raise ConfigError("no manifest given (use --manifest or the 'manifest' config key)")
    features = {key[len("feature."):]: value for key, value in mapping.items()
                if key.startswith("feature.")}
    if not features:
        raise ConfigError("no feature files given (use --features ASPECT=PATH "
                          "or 'feature.<aspect>' config keys)")
    return ingest_corpus(manifest, features)


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _aspect_filename(stem: str, aspect: str, first: bool, suffix: str) -> str:
    return f"{stem}.{suffix}" if first else f"{stem}_{aspect}.{suffix}"


def _cmd_validate(args: argparse.Namespace) -> int:
    mapping = _build_mapping(args)
    config_from_mapping(mapping)  # reject every value that score would reject
    corpus = _ingest(mapping)
    aspects = corpus.aspects
    if len(aspects) == 1:
        dims = f"dim {corpus.features[aspects[0]].dim}"
    else:
        dims = "dims " + ", ".join(f"{a}={corpus.features[a].dim}" for a in aspects)
    noun = "aspect" if len(aspects) == 1 else "aspects"
    print(f"{corpus.n} artifacts, {len(aspects)} {noun}, {dims}")
    return EXIT_OK


def _cmd_score(args: argparse.Namespace) -> int:
    mapping = _build_mapping(args)
    config = config_from_mapping(mapping)
    corpus = _ingest(mapping)
    out = _out_dir(args)

    results = run_multi_aspect(corpus, config)
    write_scores_csv(results, corpus, out / "scores.csv")
    write_run_meta(results, corpus, config, out / "run_meta.json")
    if args.plot:
        for i, (aspect, result) in enumerate(results.items()):
            name = _aspect_filename("plot", aspect, first=(i == 0), suffix="svg")
            write_scatter_svg(corpus.years, result.score.scores, out / name,
                              title=f"creativity scores: {aspect}")
    stalled = [a for a, r in results.items() if not r.score.converged]
    if stalled:
        for aspect in stalled:
            r = results[aspect].score
            print(f"error: solver did not converge for aspect '{aspect}' "
                  f"(residual {r.residual:.3e} after {r.iterations} iterations)", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_timemachine(args: argparse.Namespace) -> int:
    mapping = _build_mapping(args)
    config = config_from_mapping(mapping)
    spec = spec_from_mapping(mapping)
    corpus = _ingest(mapping)
    out = _out_dir(args)

    report = run_time_machine(corpus, config, spec)
    write_report_csv(report, out / "report.csv")
    write_runs_csv(report, corpus, out / "runs.csv")
    if not report.converged:
        print("error: solver did not converge in at least one run", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _cmd_dump_graph(args: argparse.Namespace) -> int:
    mapping = _build_mapping(args)
    config = config_from_mapping(mapping)
    corpus = _ingest(mapping)
    out = _out_dir(args)

    for i, aspect in enumerate(corpus.aspects):
        sigma = resolve_sigma(corpus, aspect, config)
        graph = build_graph(corpus, aspect, config, sigma)
        graph_path = out / _aspect_filename("graph", aspect, i == 0, "csv")
        cin_path = out / _aspect_filename("cin", aspect, i == 0, "csv")

        def write_cin() -> None:
            nonlocal graph
            network = build_network(corpus, aspect, config, sigma, graph)[2]
            # The forked child writes graph.csv from its own copy, and the
            # network's stores are copies: free the graph before they are merged.
            graph = None
            write_cin_csv(network, corpus.ids, cin_path)

        _fork_pair(lambda: write_graph_csv(graph, corpus.ids, graph_path), write_cin)
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "score": _cmd_score,
    "timemachine": _cmd_timemachine,
    "dump-graph": _cmd_dump_graph,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
