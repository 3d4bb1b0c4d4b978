"""Corpus ingestion: artifact manifests, per-aspect feature matrices, sigma estimation.

A corpus is an ordered collection of dated artifacts. The manifest (CSV) carries
identity, year and optional grouping labels; each visual aspect contributes one
feature matrix whose row order matches the manifest.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from dataclasses import dataclass, replace
from pathlib import Path
from itertools import chain, islice
from typing import Iterable, Iterator, Mapping

import numpy as np

FEATURE_MAGIC = b"CRFT"
MANIFEST_REQUIRED = ("id", "year")
MANIFEST_OPTIONAL = ("artist", "style", "genre")

# cap on sampled artifact pairs when estimating sigma
MAX_SIGMA_PAIRS = 10_000

# Sampled pairs' distances are taken, and a CRFT file's rows read, in chunks
# whose float64 rows stay under this many bytes.
_CHUNK_BYTES = 1 << 22


class IngestError(ValueError):
    """A manifest or feature file failed validation."""


@dataclass(frozen=True)
class Artifact:
    """One dated artifact; labels are opaque and never influence scoring."""

    id: str
    year: int
    artist: str | None = None
    style: str | None = None
    genre: str | None = None


@dataclass(frozen=True)
class FeatureSet:
    """Feature matrix for one visual aspect, one row per artifact in corpus order.

    `vectors` is held as it is, not copied, and made read-only: building a
    feature set freezes the caller's array.
    """

    aspect: str
    vectors: np.ndarray

    def __post_init__(self):
        v = self.vectors
        if v.ndim != 2 or v.shape[1] < 1:
            raise ValueError(f"feature matrix for aspect '{self.aspect}' must be 2-D with dim >= 1")
        if not np.isfinite(v).all():
            raise ValueError(f"feature matrix for aspect '{self.aspect}' contains non-finite values")
        v.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return self.vectors.shape[0]


class Corpus:
    """Immutable ordered collection of artifacts with per-aspect features.

    Artifact ``i`` in the manifest is row ``i`` of every feature matrix. Safe
    for concurrent reads after construction.
    """

    def __init__(self, artifacts: Iterable[Artifact], features: Mapping[str, FeatureSet]):
        self.artifacts: tuple[Artifact, ...] = tuple(artifacts)
        self.features: dict[str, FeatureSet] = dict(features)
        seen: dict[str, int] = {}
        for i, a in enumerate(self.artifacts):
            if not a.id:
                raise ValueError(f"artifact at row {i + 1} has an empty id")
            if a.id in seen:
                raise ValueError(f"duplicate artifact id '{a.id}' (rows {seen[a.id] + 1} and {i + 1})")
            seen[a.id] = i
        for aspect, fs in self.features.items():
            if len(fs) != len(self.artifacts):
                raise ValueError(
                    f"aspect '{aspect}' has {len(fs)} feature rows for {len(self.artifacts)} artifacts"
                )
        self._index = seen
        self.ids: tuple[str, ...] = tuple(a.id for a in self.artifacts)
        self.years = np.array([a.year for a in self.artifacts], dtype=np.int64)
        self.years.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.artifacts)

    @property
    def aspects(self) -> tuple[str, ...]:
        return tuple(self.features)

    def index_of(self, artifact_id: str) -> int:
        return self._index[artifact_id]

    def with_years(self, years: np.ndarray) -> "Corpus":
        """New corpus with the year column replaced; features are shared, not copied."""
        years = np.asarray(years)
        if years.shape != (self.n,):
            raise ValueError(f"expected {self.n} years, got shape {years.shape}")
        artifacts = tuple(
            a if a.year == y else replace(a, year=int(y)) for a, y in zip(self.artifacts, years)
        )
        return Corpus(artifacts, self.features)


def _parse_year(raw: str, where: str, row_no: int) -> int:
    text = (raw or "").strip()
    if not text:
        raise IngestError(f"{where} {row_no}: missing year")
    try:
        year = int(text)
    except ValueError:
        raise IngestError(f"{where} {row_no}: year '{text}' is not an integer") from None
    if not -2 ** 63 <= year < 2 ** 63:  # the corpus holds its years as int64
        raise IngestError(f"{where} {row_no}: year '{text}' is outside the 64-bit integer range")
    return year


def read_manifest(path: str | Path) -> list[Artifact]:
    """Parse a manifest CSV with header ``id,year[,artist][,style][,genre]``."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: manifest is empty") from None
        header = [h.strip() for h in header]
        for i, name in enumerate(header):
            if name in header[:i]:
                raise IngestError(f"{path}: manifest column '{name}' appears more than once")
        for col in MANIFEST_REQUIRED:
            if col not in header:
                raise IngestError(f"{path}: manifest header is missing required column '{col}'")
        known = set(MANIFEST_REQUIRED) | set(MANIFEST_OPTIONAL)
        unknown = [h for h in header if h not in known]
        if unknown:
            raise IngestError(f"{path}: unknown manifest column(s) {unknown}")
        col = {name: header.index(name) for name in header}
        id_col, year_col, width = col["id"], col["year"], len(header)
        labels = [col.get(name) for name in MANIFEST_OPTIONAL]

        def opt(row: list[str], at: int | None) -> str | None:
            return None if at is None else row[at].strip() or None

        artifacts: list[Artifact] = []
        seen: dict[str, int] = {}
        where = f"{path}: manifest row"
        for row_no, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != width:
                raise IngestError(f"{where} {row_no}: expected {width} columns, got {len(row)}")
            art_id = row[id_col].strip()
            if not art_id:
                raise IngestError(f"{where} {row_no}: empty id")
            if art_id in seen:
                raise IngestError(f"{path}: duplicate artifact id '{art_id}' "
                                  f"(manifest rows {seen[art_id]} and {row_no})")
            seen[art_id] = row_no
            year = _parse_year(row[year_col], where, row_no)
            artist, style, genre = (opt(row, at) for at in labels)
            artifacts.append(Artifact(id=art_id, year=year, artist=artist, style=style, genre=genre))
    if not artifacts:
        raise IngestError(f"{path}: manifest contains no artifacts")
    return artifacts


def _csv_rows(records: Iterable[list[str]], where: str, row_no: int,
              dim: int | None) -> Iterator[list[float]]:
    """The feature rows of the csv `records`, numbered from `row_no + 1`, as lists of floats.

    This alone defines what a CSV feature file may hold. A record with no
    cells, or only blank ones, is skipped; every other cell is read by
    `float`, and a row must have `dim` values (the first row's count when
    `dim` is None), all finite. A fault raises `IngestError` naming its row.
    """
    for row_no, row in enumerate(records, start=row_no + 1):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            values = [float(cell) for cell in row]
        except ValueError:
            raise IngestError(f"{where} row {row_no}: non-numeric value") from None
        if dim is None:
            dim = len(values)
        elif len(values) != dim:
            raise IngestError(f"{where} row {row_no}: expected {dim} values, got {len(values)}")
        if not all(math.isfinite(v) for v in values):
            raise IngestError(f"{where} row {row_no}: non-finite value")
        yield values


def _numeric_block(lines: list[str], dim: int | None) -> np.ndarray | None:
    """The rows of a block of lines as numpy's C reader parses them, or None where it may not.

    The reader gives `float`'s bits for every cell it accepts, but it takes
    the ASCII separators 0x1c-0x1f for whitespace, where `float` does not,
    so only ASCII text without them is handed to it; non-ASCII digits and
    spaces, which `float` reads, are left to the row parser. A block of
    blank lines, which the reader warns about, a width other than `dim`, a
    non-finite value or any cell it rejects (a quote, `1_5`, a blank or
    missing cell, a ragged row, text) gives None.
    """
    text = "".join(lines)
    if not text.isascii() or any(c in text for c in "\x1c\x1d\x1e\x1f"):
        return None
    if len(text) <= 2 * len(lines) and set(lines) <= {"\n", "\r", "\r\n"}:
        return None
    del text
    try:
        block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if (dim is not None and block.shape[1] != dim) or not np.isfinite(block).all():
        return None
    return block


def _read_features_csv(path: Path, aspect: str) -> np.ndarray:
    """A CSV file's feature rows as float64, read and parsed a block of lines at a time.

    A block is whole lines of about `_CHUNK_BYTES // 4` characters, parsed
    by numpy's C reader (`_numeric_block`) or, where that may not parse it,
    by `_csv_rows`, with the same result. A quoted cell may span lines, so
    from a rejected block that holds a quote on, `_csv_rows` reads the rest
    of the file. The matrix grows in place, to the row count the share of
    the file read so far predicts, and no second copy of it is made.
    """
    where = f"feature file '{path}' (aspect '{aspect}')"
    size = path.stat().st_size
    vectors = np.empty((0, 0))
    n = row_no = 0  # rows kept, and csv records read
    with path.open(newline="", encoding="utf-8-sig") as fh:

        def keep(rows: np.ndarray) -> None:
            nonlocal n
            want = n + rows.shape[0]
            if want > vectors.shape[0]:
                predicted = -(-want * size // fh.buffer.tell())  # rows in the file at this rate
                vectors.resize((max(want, predicted), rows.shape[1]), refcheck=False)
            vectors[n:want] = rows
            n = want

        for lines in iter(lambda: fh.readlines(max(1, _CHUNK_BYTES // 4)), []):
            dim = vectors.shape[1] if n else None
            block = _numeric_block(lines, dim)
            if block is not None:
                keep(block)
            else:
                quoted = any('"' in line for line in lines)
                rows = _csv_rows(csv.reader(chain(lines, fh) if quoted else lines), where, row_no, dim)
                step = 1  # rows of about 32 bytes a value, once the first row gives the width
                while batch := list(islice(rows, step)):
                    keep(np.array(batch))
                    step = max(1, _CHUNK_BYTES // (32 * vectors.shape[1]))
            row_no += len(lines)
    if not n:
        raise IngestError(f"{where} contains no rows")
    vectors.resize((n, vectors.shape[1]), refcheck=False)
    return vectors


def _read_features_binary(path: Path, aspect: str) -> np.ndarray:
    """A CRFT file's rows as float64, read and checked a chunk of rows at a time."""
    where = f"feature file '{path}' (aspect '{aspect}')"
    with path.open("rb") as fh:
        header = fh.read(16)
        if len(header) < 16:
            raise IngestError(f"{where}: truncated header")
        _, n_rows, dim, reserved = struct.unpack("<4sII4s", header)  # `read_features` read the magic
        if reserved != b"\x00" * 4:
            raise IngestError(f"{where}: reserved bytes not zero")
        if dim < 1:
            raise IngestError(f"{where}: dim must be >= 1")
        payload = os.fstat(fh.fileno()).st_size - 16
        if payload != 4 * n_rows * dim:
            raise IngestError(f"{where}: payload is {payload} bytes, "
                              f"expected {4 * n_rows * dim} for {n_rows}x{dim} float32")
        vectors = np.empty((n_rows, dim))
        step = max(1, _CHUNK_BYTES // (8 * dim))
        chunk = np.empty((min(step, n_rows), dim), dtype="<f4")
        for r0 in range(0, n_rows, step):
            rows = chunk[:min(step, n_rows - r0)]
            if fh.readinto(rows) != rows.nbytes:
                raise IngestError(f"{where}: payload ended before row {r0 + rows.shape[0]}")
            vectors[r0:r0 + rows.shape[0]] = rows
            bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
            if bad.size:
                raise IngestError(f"{where} row {r0 + bad[0] + 1}: non-finite value")
    return vectors


def read_features(path: str | Path, aspect: str) -> np.ndarray:
    """Load one aspect's feature matrix from CSV or the CRFT binary format."""
    path = Path(path)
    with path.open("rb") as fh:
        head = fh.read(4)
    if head == FEATURE_MAGIC:
        return _read_features_binary(path, aspect)
    try:
        return _read_features_csv(path, aspect)
    except UnicodeDecodeError:
        raise IngestError(
            f"feature file '{path}' (aspect '{aspect}'): neither CSV text nor CRFT binary"
        ) from None


def ingest_corpus(manifest: str | Path, features: Mapping[str, str | Path]) -> Corpus:
    """Load and validate a corpus from a manifest plus one feature file per aspect.

    Parameters
    ----------
    manifest:
        Path to the manifest CSV.
    features:
        Mapping of aspect name to feature file path; iteration order is kept.

    Raises
    ------
    IngestError
        On duplicate ids, missing or non-integer years, row-count mismatches, or
        non-finite feature values (each reported with its row number).
    """
    artifacts = read_manifest(manifest)
    feature_sets: dict[str, FeatureSet] = {}
    for aspect, fpath in features.items():
        vectors = read_features(fpath, aspect)
        if vectors.shape[0] != len(artifacts):
            raise IngestError(
                f"aspect '{aspect}': feature file has {vectors.shape[0]} rows "
                f"but manifest has {len(artifacts)} artifacts"
            )
        feature_sets[aspect] = FeatureSet(aspect=aspect, vectors=vectors)
    return Corpus(artifacts, feature_sets)


def _median(values: np.ndarray) -> float:
    """`np.median` of a non-empty float64 vector with no NaN, to the bit.

    `np.median` imports `numpy.ma` (12 ms) on its first call, to check for
    masked arrays.
    """
    half = values.size // 2
    if values.size % 2:
        return float(np.partition(values, half)[half])
    low, high = np.partition(values, (half - 1, half))[half - 1:half + 1]
    return float((low + high) / 2)  # np.mean of the middle two: their sum, halved


def estimate_sigma(features: FeatureSet, seed: int) -> float:
    """Median Euclidean distance over a seeded sample of distinct artifact pairs.

    Uses all pairs when there are at most ``MAX_SIGMA_PAIRS`` of them, with
    the distances `scipy.spatial.distance.pdist` gives, to the bit; otherwise
    a uniform sample of exactly ``MAX_SIGMA_PAIRS`` distinct pairs. Deterministic
    for a fixed seed.
    """
    n = len(features)
    if n < 2:
        raise ValueError("sigma estimation needs at least 2 artifacts")
    x = features.vectors
    total = n * (n - 1) // 2
    every_pair = total <= MAX_SIGMA_PAIRS
    if every_pair:
        x = x.astype(np.float64, copy=False)  # as `pdist` reads it
        lo, hi = np.triu_indices(n, 1)
    else:
        rng = np.random.default_rng(seed)
        keys = np.empty(0, dtype=np.int64)
        while True:
            batch = 2 * MAX_SIGMA_PAIRS
            i = rng.integers(0, n, size=batch, dtype=np.int64)
            j = rng.integers(0, n, size=batch, dtype=np.int64)
            ok = i != j
            lo = np.minimum(i[ok], j[ok])
            hi = np.maximum(i[ok], j[ok])
            keys = np.concatenate([keys, lo * n + hi])
            uniq, first = np.unique(keys, return_index=True)
            # keep first-draw order so the sampled set is seed-deterministic
            keys = uniq[np.argsort(first, kind="stable")]
            if keys.size >= MAX_SIGMA_PAIRS:
                keys = keys[:MAX_SIGMA_PAIRS]
                break
        lo = keys // n
        hi = keys % n
    # each pair's norm reduces its own row alone, so chunking keeps the bits
    step = max(1, _CHUNK_BYTES // (8 * x.shape[1]))
    chunks = []
    for i in range(0, lo.size, step):
        d = x[lo[i:i + step]] - x[hi[i:i + step]]
        # every pair's squares are added one dimension after another, as
        # `scipy.spatial.distance.pdist` adds them
        chunks.append(np.sqrt(np.cumsum(d * d, axis=1)[:, -1]) if every_pair
                      else np.linalg.norm(d, axis=1))
    distances = np.concatenate(chunks)
    sigma = _median(distances)
    if sigma <= 0.0:
        raise ValueError("degenerate feature set: median pairwise distance is zero")
    return sigma
