"""Ingestion: manifest parsing, feature files, corpus invariants, sigma estimate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

import creanet as cn
from creanet import corpus as corpus_module

from conftest import make_corpus, traced_peak, write_features_binary


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestManifest:
    def test_valid_with_optional_columns(self, tmp_path):
        p = write(tmp_path / "m.csv",
                  "id,year,artist,style,genre\n"
                  "a,1500,Vecellio,portrait-era,portrait\n"
                  "b,1600,,,\n")
        arts = cn.read_manifest(p)
        assert [a.id for a in arts] == ["a", "b"]
        assert arts[0].year == 1500 and arts[0].artist == "Vecellio"
        assert arts[1].artist is None and arts[1].style is None

    def test_columns_resolved_by_name_not_position(self, tmp_path):
        p = write(tmp_path / "m.csv", "year,style,id\n1500,x,a\n")
        arts = cn.read_manifest(p)
        assert arts[0].id == "a" and arts[0].year == 1500 and arts[0].style == "x"

    def test_missing_required_column(self, tmp_path):
        p = write(tmp_path / "m.csv", "id,artist\na,someone\n")
        with pytest.raises(cn.IngestError, match="required column 'year'"):
            cn.read_manifest(p)

    def test_unknown_column_rejected(self, tmp_path):
        p = write(tmp_path / "m.csv", "id,year,price\na,1500,3\n")
        with pytest.raises(cn.IngestError, match="unknown manifest column"):
            cn.read_manifest(p)

    @pytest.mark.parametrize("header", ["id,year,year", "id,year,style, style"])
    def test_repeated_column_rejected(self, tmp_path, header):
        # the first copy must not silently win
        name = header.rsplit(",", 1)[1].strip()
        p = write(tmp_path / "m.csv", header + "\n")
        with pytest.raises(cn.IngestError, match=f"manifest column '{name}' appears more than once"):
            cn.read_manifest(p)

    def test_duplicate_id_names_id_and_rows(self, tmp_path):
        p = write(tmp_path / "m.csv", "id,year\na,1500\nb,1501\na,1502\n")
        with pytest.raises(cn.IngestError, match=r"duplicate artifact id 'a' \(manifest rows 1 and 3\)"):
            cn.read_manifest(p)

    def test_non_integer_year_names_row(self, tmp_path):
        p = write(tmp_path / "m.csv", "id,year\na,1500\nb,circa1600\n")
        with pytest.raises(cn.IngestError, match="row 2.*not an integer"):
            cn.read_manifest(p)

    def test_blank_rows_skipped(self, tmp_path):
        p = write(tmp_path / "m.csv", "id,year\na,1500\n\nb,1600\n")
        assert len(cn.read_manifest(p)) == 2

    def test_empty_manifest_rejected(self, tmp_path):
        with pytest.raises(cn.IngestError, match="no artifacts"):
            cn.read_manifest(write(tmp_path / "m.csv", "id,year\n"))
        with pytest.raises(cn.IngestError, match="empty"):
            cn.read_manifest(write(tmp_path / "e.csv", ""))

    def test_ragged_row_rejected(self, tmp_path):
        p = write(tmp_path / "m.csv", "id,year\na,1500,extra\n")
        with pytest.raises(cn.IngestError, match="expected 2 columns"):
            cn.read_manifest(p)

    def test_byte_order_mark_ignored(self, tmp_path):
        text = "id,year,style\na,1500,x\nb,1600,\n"
        marked = cn.read_manifest(write(tmp_path / "bom.csv", "\ufeff" + text))
        assert marked == cn.read_manifest(write(tmp_path / "m.csv", text))

    def test_negative_year_accepted(self, tmp_path):
        arts = cn.read_manifest(write(tmp_path / "m.csv", "id,year\na,-350\n"))
        assert arts[0].year == -350


class TestFeatureFiles:
    def test_csv_read(self, tmp_path):
        p = write(tmp_path / "f.csv", "1.0,2.0\n3.5,-0.25\n")
        v = cn.read_features(p, "visual")
        assert v.shape == (2, 2) and v.dtype == np.float64
        assert v[1, 1] == -0.25

    def test_csv_byte_order_mark_ignored(self, tmp_path):
        text = "1.0,2.0\n3.5,-0.25\n"
        marked = cn.read_features(write(tmp_path / "bom.csv", "\ufeff" + text), "visual")
        assert np.array_equal(marked, cn.read_features(write(tmp_path / "f.csv", text), "visual"))

    def test_csv_non_numeric_names_row(self, tmp_path):
        p = write(tmp_path / "f.csv", "1.0,2.0\n1.0,oops\n")
        with pytest.raises(cn.IngestError, match="row 2"):
            cn.read_features(p, "visual")

    def test_csv_ragged_rejected(self, tmp_path):
        p = write(tmp_path / "f.csv", "1.0,2.0\n1.0\n")
        with pytest.raises(cn.IngestError, match="row 2"):
            cn.read_features(p, "visual")

    def test_csv_non_finite_rejected(self, tmp_path):
        p = write(tmp_path / "f.csv", "1.0,2.0\nnan,0.0\n")
        with pytest.raises(cn.IngestError, match="row 2"):
            cn.read_features(p, "visual")

    def test_csv_read_holds_one_copy_of_the_matrix(self, tmp_path):
        # 300 rows of the paper's 2,659 dimensions: blocks of lines are parsed
        # into one matrix that grows in place, so the read peaks under 1.5
        # times the matrix (a list of Python floats per row took over 5 times)
        x = np.random.default_rng(6).normal(size=(300, 2659))
        p = tmp_path / "f.csv"
        with p.open("w", encoding="utf-8") as fh:
            fh.writelines(",".join(map(repr, row)) + "\n" for row in x.tolist())
        got = []
        peak = traced_peak(lambda: got.append(cn.read_features(p, "visual")))
        assert got[0].tobytes() == x.tobytes()
        assert peak < 1.5 * x.nbytes

    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        vectors = rng.normal(size=(7, 5))
        p = tmp_path / "f.bin"
        write_features_binary(p, vectors)
        back = cn.read_features(p, "visual")
        assert back.shape == (7, 5) and back.dtype == np.float64
        np.testing.assert_array_equal(back, vectors.astype(np.float32).astype(np.float64))

    @pytest.mark.parametrize("rows_per_chunk", [1, 2, 3, 7])
    def test_binary_read_in_chunks(self, tmp_path, monkeypatch, rows_per_chunk):
        # rows are read a chunk at a time; the first non-finite row is named whatever the chunking
        rng = np.random.default_rng(4)
        vectors = rng.normal(size=(7, 5)).astype(np.float32)
        p = tmp_path / "f.bin"
        write_features_binary(p, vectors)
        monkeypatch.setattr(corpus_module, "_CHUNK_BYTES", 8 * 5 * rows_per_chunk)
        np.testing.assert_array_equal(cn.read_features(p, "visual"), vectors.astype(np.float64))
        vectors[5, 1], vectors[6, 0] = np.inf, np.nan
        write_features_binary(p, vectors)
        with pytest.raises(cn.IngestError, match=r"\(aspect 'visual'\) row 6: non-finite value"):
            cn.read_features(p, "visual")

    def test_binary_header_layout(self, tmp_path):
        # magic, u32 LE row count, u32 LE dim, four reserved zero bytes, then f32 LE rows
        header = b"CRFT" + (2).to_bytes(4, "little") + (3).to_bytes(4, "little") + b"\x00" * 4
        payload = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], dtype="<f4").tobytes()
        p = tmp_path / "f.bin"
        p.write_bytes(header + payload)
        back = cn.read_features(p, "visual")
        assert back.dtype == np.float64
        assert back.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]

    def test_binary_bad_magic(self, tmp_path):
        p = tmp_path / "f.bin"
        write_features_binary(p, np.ones((1, 2)))
        raw = bytearray(p.read_bytes())
        raw[:4] = b"XXXX"
        p.write_bytes(bytes(raw))
        # unrecognized magic falls through to the CSV reader, which rejects it
        with pytest.raises(cn.IngestError):
            cn.read_features(p, "visual")

    def test_binary_truncated_payload(self, tmp_path):
        p = tmp_path / "f.bin"
        write_features_binary(p, np.ones((2, 3)))
        raw = p.read_bytes()
        p.write_bytes(raw[:-4])
        with pytest.raises(cn.IngestError, match="payload"):
            cn.read_features(p, "visual")

    def test_binary_nonzero_reserved(self, tmp_path):
        p = tmp_path / "f.bin"
        write_features_binary(p, np.ones((1, 2)))
        raw = bytearray(p.read_bytes())
        raw[12] = 1
        p.write_bytes(bytes(raw))
        with pytest.raises(cn.IngestError, match="reserved"):
            cn.read_features(p, "visual")


class TestIngest:
    def test_ingest_attaches_features_in_manifest_order(self, tmp_path):
        m = write(tmp_path / "m.csv", "id,year\na,1500\nb,1600\nc,1700\n")
        f = write(tmp_path / "f.csv", "0.0\n1.0\n2.0\n")
        corpus = cn.ingest_corpus(m, {"visual": f})
        assert corpus.ids == ("a", "b", "c")
        np.testing.assert_array_equal(corpus.years, [1500, 1600, 1700])
        np.testing.assert_array_equal(corpus.features["visual"].vectors.ravel(), [0.0, 1.0, 2.0])

    def test_row_count_mismatch(self, tmp_path):
        m = write(tmp_path / "m.csv", "id,year\na,1500\nb,1600\n")
        f = write(tmp_path / "f.csv", "0.0\n")
        with pytest.raises(cn.IngestError, match="visual"):
            cn.ingest_corpus(m, {"visual": f})

    def test_with_years_shares_features(self):
        corpus = make_corpus([1500, 1600], np.eye(2))
        moved = corpus.with_years([1500, 1550])
        assert moved.features["visual"] is corpus.features["visual"]
        assert moved.years[1] == 1550 and corpus.years[1] == 1600
        assert moved.ids == corpus.ids

    def test_features_read_only(self):
        corpus = make_corpus([1500, 1600], np.eye(2))
        with pytest.raises(ValueError):
            corpus.features["visual"].vectors[0, 0] = 9.0
        with pytest.raises(ValueError):
            corpus.years[0] = 1234


class TestEstimateSigma:
    def test_small_set_is_exact_median(self):
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(40, 4))  # 780 pairs, under the sampling cap
        fs = cn.FeatureSet("visual", vectors)
        expected = float(np.median(pdist(vectors)))
        assert cn.estimate_sigma(fs, seed=0) == pytest.approx(expected, rel=0, abs=0)

    def test_sampled_path_deterministic_and_plausible(self):
        rng = np.random.default_rng(6)
        vectors = rng.normal(size=(200, 4))  # 19900 pairs, above the cap
        fs = cn.FeatureSet("visual", vectors)
        first = cn.estimate_sigma(fs, seed=1)
        assert first == cn.estimate_sigma(fs, seed=1)
        full = float(np.median(pdist(vectors)))
        assert abs(first - full) / full < 0.1

    def test_chunked_distances_equal_the_unchunked_form(self, monkeypatch):
        # each pair's norm reduces its own row of differences, so the chunking keeps the bits
        rng = np.random.default_rng(7)
        vectors = rng.normal(size=(200, 640))  # 19900 pairs, above the cap; 2.5 MiB per 512 pairs
        fs = cn.FeatureSet("visual", vectors)
        sigmas = []
        for budget in (1 << 40, None, 8 * 640 * 7, 8):  # one chunk, the default, 7 pairs, 1 pair
            if budget is not None:
                monkeypatch.setattr(corpus_module, "_CHUNK_BYTES", budget)
            sigmas.append(cn.estimate_sigma(fs, seed=3))
        assert len(set(sigmas)) == 1
        lo, hi = rng.integers(0, 200, size=(2, 3000))
        whole = np.linalg.norm(vectors[lo] - vectors[hi], axis=1)
        for step in (1, 7, 1024):
            parts = [np.linalg.norm(vectors[lo[i:i + step]] - vectors[hi[i:i + step]], axis=1)
                     for i in range(0, lo.size, step)]
            assert np.concatenate(parts).tobytes() == whole.tobytes()

    def test_degenerate_set_rejected(self):
        fs = cn.FeatureSet("visual", np.ones((5, 3)))
        with pytest.raises(ValueError, match="degenerate"):
            cn.estimate_sigma(fs, seed=0)

    def test_single_artifact_rejected(self):
        fs = cn.FeatureSet("visual", np.ones((1, 3)))
        with pytest.raises(ValueError):
            cn.estimate_sigma(fs, seed=0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 30), st.integers(1, 5), st.integers(0, 10))
    def test_positive_for_non_degenerate_sets(self, n, dim, seed):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(n, dim))
        assert cn.estimate_sigma(cn.FeatureSet("visual", vectors), seed=seed) > 0.0


class TestCorpusValidation:
    def test_duplicate_ids_rejected(self):
        arts = [cn.Artifact("a", 1500), cn.Artifact("a", 1600)]
        with pytest.raises(ValueError, match="duplicate"):
            cn.Corpus(arts, {})

    def test_feature_length_mismatch(self):
        arts = [cn.Artifact("a", 1500)]
        with pytest.raises(ValueError, match="2 feature rows for 1"):
            cn.Corpus(arts, {"visual": cn.FeatureSet("visual", np.ones((2, 2)))})

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError, match="row 2 has an empty id"):
            cn.Corpus([cn.Artifact("a", 1500), cn.Artifact("", 1600)], {})

    @pytest.mark.parametrize("vectors", [np.ones(3), np.ones((3, 0)), np.ones((1, 3, 2))],
                             ids=["one_dim", "no_columns", "three_dim"])
    def test_feature_matrix_must_be_2d_with_a_column(self, vectors):
        with pytest.raises(ValueError, match="must be 2-D with dim >= 1"):
            cn.FeatureSet("visual", vectors)

    def test_with_years_of_another_length_rejected(self):
        corpus = make_corpus([1500, 1600], np.eye(2))
        with pytest.raises(ValueError, match="expected 2 years"):
            corpus.with_years([1500])

    def test_non_finite_features_rejected(self):
        with pytest.raises(ValueError):
            cn.FeatureSet("visual", np.array([[np.inf, 0.0]]))

    def test_index_of(self):
        corpus = make_corpus([1500, 1600], np.eye(2), ids=["x", "y"])
        assert corpus.index_of("y") == 1
