"""Solvers: normalization, fixtures, oracle agreement, simplex invariants, the kernel loader."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import creanet as cn
from creanet import _kernels
from creanet import implication as implication_module
from creanet import scoring as scoring_module

from conftest import (COMBINED, PIONEER, balance, chain_graph, cin_edges, dense_matrix, edge_dst,
                      from_edges, make_network, pioneer_corpus, random_corpus, random_network,
                      solve_closed_form, split, traced_peak)
from test_oracles import reference_normalize

ALPHAS = (0.15, 0.5, 0.85)


def single_edge_network(w=0.3):
    return make_network(2, kept=([0], [1], [w]))


def nnz(op):
    return sum(values.size for values in (op.kept_values, op.reversed_values) if values is not None)


class TestNormalize:
    def test_single_edge(self):
        op = cn.normalize(single_edge_network(), COMBINED)
        dense = dense_matrix(op)
        # column b: all weight from a; column a dangling, completed uniformly
        assert dense[0, 1] == 1.0 and dense[1, 1] == 0.0
        assert np.all(dense[:, 0] == 0.5)
        assert op.dangling.tolist() == [1.0, 0.0]

    def test_proportional_split(self):
        net = make_network(3, kept=([0, 1], [2, 2], [0.1, 0.3]))
        dense = dense_matrix(cn.normalize(net, COMBINED))
        assert dense[0, 2] == pytest.approx(0.25, abs=1e-15)
        assert dense[1, 2] == pytest.approx(0.75, abs=1e-15)

    def test_column_sums_random_network(self):
        net = random_network(seed=30, n=90)
        for config in (COMBINED, split(1.0), split(0.0), split(0.3)):
            op = cn.normalize(net, config)
            dense = dense_matrix(op)
            sums = dense.sum(axis=0)
            np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_filters_partition_edges(self):
        # the beta limits keep only one label's edges; a fractional beta keeps all
        net = random_network(seed=31, n=70)
        total = nnz(cn.normalize(net, COMBINED))
        prior = nnz(cn.normalize(net, split(1.0)))
        subseq = nnz(cn.normalize(net, split(0.0)))
        assert prior + subseq == total == nnz(cn.normalize(net, split(0.5))) == net.n_edges
        assert cn.normalize(net, split(1.0)).kept_values is None
        assert cn.normalize(net, split(0.0)).reversed_values is None

    def test_split_dangling_weights(self):
        # no prior in-edge leaves beta of a column dangling, no subsequent in-edge 1 - beta
        net = random_network(seed=31, n=70)
        _, dst, _, prior = cin_edges(net)
        no_prior = np.bincount(dst[prior], minlength=70) == 0
        no_subseq = np.bincount(dst[~prior], minlength=70) == 0
        assert no_prior.any() and no_subseq.any()
        op = cn.normalize(net, split(0.3))
        np.testing.assert_allclose(op.dangling, 0.3 * no_prior + 0.7 * no_subseq, rtol=0, atol=1e-16)

    def test_operator_shares_the_cin_sources(self, monkeypatch):
        # no E-length copy of an index array, and no transposed copy of R: the
        # operator reads the stores' int32 src, K by column and R^T by row
        graph, years = chain_graph(2000, 200)
        net = balance(graph, years)
        index_bytes = 4 * min(net.kept_count, net.reversed_count)
        real = scoring_module._product
        for config in (COMBINED, split(0.5)):
            op = cn.normalize(net, config)
            assert traced_peak(lambda: cn.StochasticOperator(
                net, kept_values=op.kept_values, reversed_values=op.reversed_values,
                dangling=op.dangling)) < index_bytes / 2
            reads = []
            monkeypatch.setattr(scoring_module, "_product",
                                lambda *args: reads.append(args[:3]) or real(*args))
            op.apply(np.full(op.n, 1.0 / op.n))
            monkeypatch.undo()
            assert len(reads) == 2
            for (by_row, indptr, src), store, layout in zip(reads, (net.kept, net.reversed), (False, True)):
                assert by_row == layout and src is store.src and src.dtype == np.int32
                assert np.array_equal(indptr, store.indptr)

    def test_apply_matches_dense(self):
        net = random_network(seed=32, n=60)
        rng = np.random.default_rng(0)
        c = rng.random(60)
        c /= c.sum()
        for config in (COMBINED, split(0.3)):
            op = cn.normalize(net, config)
            np.testing.assert_allclose(op.apply(c), dense_matrix(op) @ c, atol=1e-14)


class TestScoreVectorValidation:
    @pytest.mark.parametrize("scores, message", [
        ([], "non-empty 1-D"),
        ([[0.5, 0.5]], "non-empty 1-D"),
        ([0.5, np.nan], "finite"),
        ([1.5, -0.5], "non-negative"),
        ([0.5, 0.25], "sum to 1"),
    ], ids=["empty", "two_dim", "nan", "negative", "sum"])
    def test_rejects(self, scores, message):
        with pytest.raises(ValueError, match=message):
            cn.ScoreVector(scores=scores, iterations=0, residual=0.0, converged=True)


def two_store_network():
    """K holds the edge 0 -> 1 and R the graph edge 0 -> 2, the network edge 2 -> 0; node 2 takes none."""
    return make_network(3, kept=([0], [1], [0.4]), reversed_=([0], [2], [0.2]))


def two_store_operator(kept_values=(1.0,), reversed_values=(1.0,), dangling=(0.0, 0.0, 1.0)):
    """The operator of `two_store_network` on these values; a tuple becomes a float64 array."""
    def array(values):
        return np.array(values, dtype=np.float64) if isinstance(values, tuple) else values

    return cn.StochasticOperator(two_store_network(), kept_values=array(kept_values),
                                 reversed_values=array(reversed_values), dangling=array(dangling))


class TestOperatorValidation:
    """An operator reads its network's stores, which `PaintingGraph` checked; it checks what it adds."""

    def test_the_stores_as_they_are_are_accepted(self):
        # column 0 takes R^T's entry from node 2, column 1 K's from node 0, column 2 dangles
        op = two_store_operator()
        assert op.n == 3
        assert dense_matrix(op).tolist() == [[0.0, 1.0, 1 / 3], [0.0, 0.0, 1 / 3], [1.0, 0.0, 1 / 3]]

    def test_a_store_left_out_is_not_read(self):
        op = two_store_operator(kept_values=None, dangling=(0.0, 1.0, 1.0))
        assert op.kept_values is None
        assert dense_matrix(op)[:, :2].tolist() == [[0.0, 1 / 3], [0.0, 1 / 3], [1.0, 1 / 3]]

    @pytest.mark.parametrize("values", [
        np.array([]), np.array([0.5, 0.5]), np.array([1], dtype=np.int64),
        np.array([1.0], dtype=np.float32), np.array([1.0], dtype=">f8"), np.array([[1.0]]), [1.0],
    ], ids=["short", "long", "int64", "float32", "big_endian", "two_dim", "list"])
    @pytest.mark.parametrize("store", ["kept_values", "reversed_values"])
    def test_rejects_values_not_a_float64_vector_as_long_as_the_store(self, store, values):
        # the kernels read as many values as the store has edges, as float64
        with pytest.raises(ValueError, match="operator values must be a float64 vector of their store's 1 edges"):
            two_store_operator(**{store: values})

    @pytest.mark.parametrize("value", [-0.5, 1.5, float("nan")])
    @pytest.mark.parametrize("store", ["kept_values", "reversed_values"])
    def test_rejects_entry_outside_unit_interval(self, store, value):
        with pytest.raises(ValueError, match="operator entries must lie in"):
            two_store_operator(**{store: (value,)})

    @pytest.mark.parametrize("store", ["kept_values", "reversed_values"])
    def test_rejects_bad_column_sum(self, store):
        with pytest.raises(ValueError, match="sum to 1"):
            two_store_operator(**{store: (0.7,)})

    def test_rejects_nonempty_dangling_column(self):
        with pytest.raises(ValueError, match="sum to 1"):
            two_store_operator(dangling=(0.0, 1.0, 1.0))

    @pytest.mark.parametrize("weight", [-0.5, 1.5, float("nan")])
    def test_rejects_dangling_weight_outside_unit_interval(self, weight):
        # with K's entry at 1.5 column 1 would sum to 1 at weight -0.5; the range check comes first
        with pytest.raises(ValueError, match="dangling weights must lie in"):
            two_store_operator(kept_values=(1.5,), dangling=(0.0, weight, 1.0))

    @pytest.mark.parametrize("dangling", [(0.0, 1.0), (0.0, 0.0, 1.0, 1.0)], ids=["short", "long"])
    def test_rejects_dangling_of_another_length(self, dangling):
        with pytest.raises(ValueError, match=r"dangling must have shape \(3,\)"):
            two_store_operator(dangling=dangling)

    @pytest.mark.parametrize("values, dangling, message", [
        ({"kept_values": (0.7,)}, (0.0, 0.0, 1.0), "sum to 1"),
        ({"kept_values": (2.0,)}, (0.0, 0.0, 1.0), "entries"),
        ({"reversed_values": np.array([1.0, 0.0])}, (0.0, 0.0, 1.0), "float64 vector"),
        ({}, (0.0, 0.0, 1.5), "dangling weights must lie in"),
    ], ids=["column_sum", "entry", "values_length", "dangling_range"])
    def test_a_rejected_operator_leaves_dangling_writeable(self, values, dangling, message):
        dangling = np.array(dangling)
        with pytest.raises(ValueError, match=message):
            two_store_operator(**values, dangling=dangling)
        assert dangling.flags.writeable

    def test_apply_rejects_a_vector_of_another_length(self):
        op = two_store_operator()
        for c in (np.ones(2), np.ones(4), np.ones((3, 1))):
            with pytest.raises(ValueError, match=r"c must have shape \(3,\)"):
                op.apply(c)

    def test_holds_and_freezes_the_callers_dangling(self):
        dangling = np.array([0.0, 0.0, 1.0])
        op = two_store_operator(dangling=dangling)
        assert op.dangling is dangling and not dangling.flags.writeable

    def test_keeps_the_values_not_the_network(self):
        kept_values, reversed_values = np.array([1.0]), np.array([1.0])
        op = two_store_operator(kept_values=kept_values, reversed_values=reversed_values)
        assert op.kept_values is kept_values and op.reversed_values is reversed_values
        assert not any(isinstance(value, (cn.ImplicationNetwork, cn.PaintingGraph))
                       for value in vars(op).values())


class TestIndexArrays:
    """The kernels' index type is int32 up to 2**31 - 1 entries, int64 past it."""

    def test_int32_reads_the_stores_own_sources(self):
        store = random_network(seed=31, n=70).kept
        for entries in (0, store.n_edges, 2 ** 31 - 1):
            indptr, src = _kernels.index_arrays(store, entries)
            assert indptr.dtype == src.dtype == np.int32
            assert src is store.src and indptr.tolist() == store.indptr.tolist()

    def test_int64_past_int32(self):
        store = random_network(seed=31, n=70).kept
        indptr, src = _kernels.index_arrays(store, 2 ** 31)
        assert indptr.dtype == src.dtype == np.int64
        assert not np.shares_memory(src, store.src) and not np.shares_memory(indptr, store.indptr)
        assert src.tolist() == store.src.tolist() and indptr.tolist() == store.indptr.tolist()


class TestTwoNodeFixture:
    """Single CIN edge (a -> b), alpha = 0.85, dangling column completed uniformly.

    Dense system: M = [[0.5, 1], [0.5, 0]], solve (I - 0.85 M) C = 0.075.
    det = 0.575 - 0.36125 = 0.21375, C(a) = 0.13875/0.21375, C(b) = 0.075/0.21375.
    """

    EXPECTED_A = 0.13875 / 0.21375
    EXPECTED_B = 0.075 / 0.21375

    def test_expected_values_rederived(self):
        m = np.array([[0.5, 1.0], [0.5, 0.0]])
        scores = np.linalg.solve(np.eye(2) - 0.85 * m, np.full(2, 0.075))
        assert scores[0] == pytest.approx(self.EXPECTED_A, rel=1e-14)
        assert scores[1] == pytest.approx(self.EXPECTED_B, rel=1e-14)

    @pytest.mark.parametrize("weight", [0.3, 1.0, 17.5])
    def test_power_solver(self, weight):
        op = cn.normalize(single_edge_network(weight), COMBINED)
        result = cn.solve_power(op, cn.RunConfig(alpha=0.85, tol=1e-14))
        assert result.converged
        assert result.scores[0] == pytest.approx(self.EXPECTED_A, abs=1e-12)
        assert result.scores[1] == pytest.approx(self.EXPECTED_B, abs=1e-12)

    def test_closed_form_solver(self):
        op = cn.normalize(single_edge_network(), COMBINED)
        result = solve_closed_form(op, alpha=0.85)
        assert result.scores[0] == pytest.approx(self.EXPECTED_A, abs=1e-14)
        assert result.scores[1] == pytest.approx(self.EXPECTED_B, abs=1e-14)


class TestSolvers:
    def test_alpha_zero_exactly_uniform(self):
        net = random_network(seed=33, n=50)
        op = cn.normalize(net, COMBINED)
        for result in (cn.solve_power(op, cn.RunConfig(alpha=0.0)), solve_closed_form(op, 0.0)):
            np.testing.assert_array_equal(result.scores, np.full(50, 1.0 / 50))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_cross_solver_agreement(self, alpha):
        net = random_network(seed=34, n=150)
        op = cn.normalize(net, COMBINED)
        power = cn.solve_power(op, cn.RunConfig(alpha=alpha, tol=1e-13))
        closed = solve_closed_form(op, alpha)
        assert power.converged
        assert np.abs(power.scores - closed.scores).max() < 1e-8

    def test_per_iteration_simplex(self):
        net = random_network(seed=35, n=80)
        op = cn.normalize(net, COMBINED)
        for alpha in ALPHAS:
            floor = (1.0 - alpha) / op.n - 1e-12
            seen = []

            def check(c):
                seen.append(True)
                assert abs(c.sum() - 1.0) <= 1e-9
                assert c.min() >= floor

            cn.solve_power(op, cn.RunConfig(alpha=alpha), on_iteration=check)
            assert seen

    def test_score_floor_is_teleport_mass(self):
        net = random_network(seed=36, n=40)
        op = cn.normalize(net, COMBINED)
        for alpha in ALPHAS:
            result = cn.solve_power(op, cn.RunConfig(alpha=alpha))
            assert result.scores.min() >= (1.0 - alpha) / op.n - 1e-12
            assert result.scores.min() > 0.0

    def test_non_convergence_flagged_but_scored(self):
        net = random_network(seed=37, n=60)
        op = cn.normalize(net, COMBINED)
        result = cn.solve_power(op, cn.RunConfig(alpha=0.85, tol=1e-30, max_iters=3))
        assert not result.converged
        assert result.iterations == 3
        assert result.residual > 1e-30
        assert abs(result.scores.sum() - 1.0) <= 1e-9

    def test_alpha_one_eigenvector_mode(self):
        net = random_network(seed=38, n=40)
        op = cn.normalize(net, COMBINED)
        result = cn.solve_power(op, cn.RunConfig(alpha=1.0, tol=1e-12, max_iters=5000))
        assert abs(result.scores.sum() - 1.0) <= 1e-9
        assert result.scores.min() >= -1e-12
        with pytest.raises(ValueError, match="alpha"):
            solve_closed_form(op, 1.0)

    def test_permutation_equivariance(self):
        net = random_network(seed=39, n=60)
        perm = np.random.default_rng(1).permutation(60)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(60)

        def relabel(store):
            src, dst = perm[store.src], perm[edge_dst(store)]
            order = np.lexsort((src, dst))
            return from_edges(cn.PaintingGraph, 60, src[order], dst[order], store.weight[order])

        permuted = cn.ImplicationNetwork(kept=relabel(net.kept), reversed=relabel(net.reversed),
                                         dropped_count=net.dropped_count)
        config = cn.RunConfig(alpha=0.5, tol=1e-13)
        base = cn.solve_power(cn.normalize(net, config), config).scores
        moved = cn.solve_power(cn.normalize(permuted, config), config).scores
        np.testing.assert_allclose(moved[perm], base, atol=1e-12)


@pytest.fixture(scope="module")
def net():
    return random_network(seed=40, n=100)


class TestSplit:
    def test_beta_one_bitwise_prior_only(self, net):
        config = cn.RunConfig(alpha=0.5, scoring="split", beta=1.0)
        blend = cn.solve_power(cn.normalize(net, config), config)
        single = cn.solve_power(reference_normalize(net, "prior"), config)
        assert np.array_equal(blend.scores, single.scores)
        assert blend.iterations == single.iterations

    def test_beta_zero_bitwise_subsequent_only(self, net):
        config = cn.RunConfig(alpha=0.5, scoring="split", beta=0.0)
        blend = cn.solve_power(cn.normalize(net, config), config)
        single = cn.solve_power(reference_normalize(net, "subsequent"), config)
        assert np.array_equal(blend.scores, single.scores)
        assert blend.iterations == single.iterations

    @pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_split_against_closed_form(self, net, beta):
        op = cn.normalize(net, split(beta))
        power = cn.solve_power(op, cn.RunConfig(alpha=0.5, tol=1e-13))
        closed = solve_closed_form(op, alpha=0.5)
        assert np.abs(power.scores - closed.scores).max() < 1e-8

    def test_split_simplex_per_iteration(self, net):
        op = cn.normalize(net, split(0.3))
        floor = (1.0 - 0.85) / op.n - 1e-12

        def check(c):
            assert abs(c.sum() - 1.0) <= 1e-9
            assert c.min() >= floor

        cn.solve_power(op, cn.RunConfig(alpha=0.85), on_iteration=check)

class TestPioneerFixture:
    def test_pipeline_scores_pioneer_above_copies(self):
        corpus = pioneer_corpus()
        result = cn.run_pipeline(corpus, "visual", cn.RunConfig(), sigma=1.0)
        scores = result.score.scores
        assert all(scores[PIONEER] > scores[i] for i in (2, 3, 4))

    def test_rank_under_influence_emphasis_at_least_originality(self):
        corpus = pioneer_corpus()
        ranks = {}
        for beta in (0.1, 0.9):
            config = cn.RunConfig(beta=beta, scoring="split")
            result = cn.run_pipeline(corpus, "visual", config, sigma=1.0)
            ranks[beta] = int(cn.score_ranks(result.score.scores, corpus.ids)[PIONEER])
        # beta = 0.1 leans on influence, beta = 0.9 on originality; the fixture
        # makes P first under both, so influence rank >= originality rank holds.
        assert ranks[0.1] == 1 and ranks[0.9] == 1
        assert ranks[0.1] >= ranks[0.9]


class TestKernelLoader:
    """scipy's kernels loaded directly, or through `scipy.sparse` when that fails, give one result."""

    @staticmethod
    def outputs(path: Path) -> tuple[bytes, ...]:
        """Scores, combined and split, and the `cin.csv` bytes of a small corpus."""
        corpus = random_corpus(seed=23, n=120, dim=5)
        net = balance(cn.build_graph(corpus, "visual", cn.RunConfig(k=12), 1.0), corpus.years)
        assert net.kept_count and net.reversed_count
        cn.write_cin_csv(net, corpus.ids, path)
        return (*(cn.solve_power(cn.normalize(net, config), config).scores.tobytes()
                  for config in (COMBINED, split(0.3))), path.read_bytes())

    def test_the_fallback_scores_and_dumps_alike(self, tmp_path, monkeypatch):
        direct = self.outputs(tmp_path / "direct.csv")

        def fail():
            raise ImportError("no direct load")

        monkeypatch.setattr(_kernels, "_load_direct", fail)
        fallback = _kernels.load()
        assert fallback is sys.modules["scipy.sparse._sparsetools"]
        assert fallback is not scoring_module.sparsetools
        for module in (scoring_module, implication_module):
            monkeypatch.setattr(module, "sparsetools", fallback)
        assert self.outputs(tmp_path / "fallback.csv") == direct
        monkeypatch.undo()
        # the directly loaded kernels, with `scipy.sparse` now imported here too
        assert "scipy.sparse" in sys.modules
        assert self.outputs(tmp_path / "again.csv") == direct

    def test_direct_load_after_scipy_sparse_was_imported(self):
        code = ("import json, scipy.sparse, numpy as np, creanet as cn\n"
                "net = cn.ImplicationNetwork(kept=cn.PaintingGraph(n=2, indptr=np.array([0, 0, 1]),\n"
                "    src=np.array([0], dtype=np.int32), weight=np.array([0.5])),\n"
                "    reversed=cn.PaintingGraph(n=2, indptr=np.array([0, 0, 0]),\n"
                "    src=np.array([], dtype=np.int32), weight=np.array([])), dropped_count=0)\n"
                "scores = cn.solve_power(cn.normalize(net, cn.RunConfig()), cn.RunConfig()).scores\n"
                "print(json.dumps([cn.scoring.sparsetools.__name__, scores.tolist()]))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(cn.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded, got = json.loads(proc.stdout)
        assert loaded == "_sparsetools"  # loaded directly, not `scipy.sparse._sparsetools`
        got = np.array(got)
        want = cn.solve_power(cn.normalize(make_network(2, kept=([0], [1], [0.5])), COMBINED),
                              COMBINED).scores
        assert got.tobytes() == want.tobytes()
