"""The three benchmark workloads: generated inputs, the CLI command, and why each exists.

Inputs follow the criterion-9 generator of the acceptance tests: years uniform
over 1400-1900 and standard-normal features of dimension 16, both drawn from
one seeded generator. The program receives only the files written here.

Sizes are smaller than the 20k/10k/8k corpora first proposed for this
benchmark, so that one op takes a few seconds and a run of `run_seconds` holds
several ops (their median is the reported value). The predicted shares are the
ones measured at those larger sizes; `run.py --trace 1` prints the measured
shares next to them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DIM = 16
YEAR_LO, YEAR_HI = 1400, 1900
LATE_FROM = 1850  # style=late for year >= LATE_FROM, early before


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    feature_format: str          # "crft" (binary float32) or "csv" (float64 repr)
    command: str                 # creanet CLI subcommand
    settings: dict[str, str]     # passed as --set KEY=VALUE
    plot: bool = False
    styled: bool = False         # manifest carries a style column
    # predicted share of command_s per per-layer time metric ("a+b" sums two)
    predicted_shares: dict[str, float] = field(default_factory=dict)

    @property
    def k(self) -> int:
        return int(self.settings["k"])

    @property
    def window(self) -> int | None:
        """Candidate cap under the temporal window prior, else None."""
        if self.settings.get("temporal_prior") == "window":
            return int(self.settings["temporal_window_k"])
        return None

    def cli_args(self, inputs: Path, out: Path) -> list[str]:
        feature = inputs / ("features.crft" if self.feature_format == "crft" else "features.csv")
        args = [self.command, "--manifest", str(inputs / "manifest.csv"),
                "--features", f"visual={feature}", "--out", str(out)]
        for key, value in self.settings.items():
            args += ["--set", f"{key}={value}"]
        if self.plot:
            args.append("--plot")
        return args


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="score_global",
            why="the production scoring path: graph build and global balancing dominate, "
                "and peak RSS is set while balancing, so graph-build and memory changes show here",
            n=8000, feature_format="crft", command="score",
            settings={"k": "500", "alpha": "0.15"}, plot=True,
            predicted_shares={"graph.build_s": 0.62, "implication.map_s": 0.21,
                              "implication.thresholds_s": 0.09, "scoring.solve_s": 0.02}),
        Workload(
            name="dump_local",
            why="the capped candidate set makes graph build small; local thresholds and the "
                "two CSV edge writers dominate, so a graph-build gain should read no change",
            n=2500, feature_format="csv", command="dump-graph",
            settings={"k": "100", "balancing_mode": "local", "temporal_prior": "window",
                      "temporal_window_k": "1000"},
            predicted_shares={"graph.build_s": 0.06, "implication.thresholds_s": 0.60,
                              "graph.write_s+implication.write_s": 0.38}),
        Workload(
            name="timemachine_split",
            why="the only workload that repeats full pipeline rebuilds and the only one on "
                "beta-split scoring with two operators, so time-machine and operator changes show",
            n=2500, feature_format="crft", command="timemachine",
            settings={"k": "200", "alpha": "0.85", "scoring": "split",
                      "timemachine.group": "style=late", "timemachine.move": "back",
                      "timemachine.n_test": "25", "timemachine.n_runs": "6"},
            styled=True,
            predicted_shares={"pipeline.run_s": 0.97,
                              "scoring.normalize_s+scoring.solve_s": 0.10}),
    )
}


def generate(workload: Workload, seed: int, index: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Years and float64 features of corpus `index` for `seed`.

    Corpus 0 is the criterion-9 draw for `seed` itself; corpus i > 0 draws the
    same way from the seed sequence [seed, i].
    """
    rng = np.random.default_rng(seed if index == 0 else [seed, index])
    years = rng.integers(YEAR_LO, YEAR_HI + 1, size=workload.n)
    features = rng.normal(size=(workload.n, DIM))
    if workload.feature_format == "crft":
        features = features.astype("<f4").astype(np.float64)
    return years, features


def artifact_id(i: int) -> str:
    return f"p{i:05d}"


def write_inputs(workload: Workload, years: np.ndarray, features: np.ndarray,
                 inputs: Path) -> list[Path]:
    """Write the manifest and the feature file; return their paths."""
    inputs.mkdir(parents=True, exist_ok=True)
    manifest = inputs / "manifest.csv"
    with manifest.open("w", encoding="utf-8", newline="") as fh:
        if workload.styled:
            fh.write("id,year,style\n")
            fh.writelines(f"{artifact_id(i)},{y},{'late' if y >= LATE_FROM else 'early'}\n"
                          for i, y in enumerate(years.tolist()))
        else:
            fh.write("id,year\n")
            fh.writelines(f"{artifact_id(i)},{y}\n" for i, y in enumerate(years.tolist()))
    if workload.feature_format == "crft":
        feature_path = inputs / "features.crft"
        payload = np.ascontiguousarray(features, dtype="<f4")
        with feature_path.open("wb") as fh:
            fh.write(struct.pack("<4sII4s", b"CRFT", workload.n, DIM, b"\x00" * 4))
            fh.write(payload.tobytes())
    else:
        feature_path = inputs / "features.csv"
        with feature_path.open("w", encoding="utf-8", newline="") as fh:
            fh.writelines(",".join(map(repr, row)) + "\n" for row in features.tolist())
    return [manifest, feature_path]
