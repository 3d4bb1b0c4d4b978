"""Solvers: normalization, fixtures, oracle agreement, simplex invariants."""

import numpy as np
import pytest

import creanet as cn

from conftest import (COMBINED, PIONEER, cin_edges, dense_matrix, edge_dst, from_edges,
                      make_network, pioneer_corpus, random_network, solve_closed_form, split)
from test_oracles import reference_normalize

ALPHAS = (0.15, 0.5, 0.85)


def single_edge_network(w=0.3):
    return make_network(2, kept=([0], [1], [w]))


def nnz(op):
    return sum(term.nnz for term in op.terms)


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
        for limit in (1.0, 0.0):
            assert len(cn.normalize(net, split(limit)).terms) == 1

    def test_split_dangling_weights(self):
        # no prior in-edge leaves beta of a column dangling, no subsequent in-edge 1 - beta
        net = random_network(seed=31, n=70)
        _, dst, _, prior = cin_edges(net)
        no_prior = np.bincount(dst[prior], minlength=70) == 0
        no_subseq = np.bincount(dst[~prior], minlength=70) == 0
        assert no_prior.any() and no_subseq.any()
        op = cn.normalize(net, split(0.3))
        np.testing.assert_allclose(op.dangling, 0.3 * no_prior + 0.7 * no_subseq, rtol=0, atol=1e-16)

    def test_operator_shares_the_cin_sources(self):
        # no E-length copy of an index array, and no transposed copy of R: the
        # terms read the stores' int32 src, K by column and R^T by row
        net = random_network(seed=31, n=70)
        for config in (COMBINED, split(0.5)):
            kept, flipped = cn.normalize(net, config).terms
            for term, store, layout in ((kept, net.kept, "csc"), (flipped, net.reversed, "csr")):
                assert store.src.dtype == np.int32 and term.format == layout
                assert np.shares_memory(term.indices, store.src)
                assert np.array_equal(term.indptr, store.indptr)

    def test_apply_matches_dense(self):
        net = random_network(seed=32, n=60)
        rng = np.random.default_rng(0)
        c = rng.random(60)
        c /= c.sum()
        for config in (COMBINED, split(0.3)):
            op = cn.normalize(net, config)
            np.testing.assert_allclose(op.apply(c), dense_matrix(op) @ c, atol=1e-14)


class TestOperatorValidation:
    def test_rejects_bad_column_sum(self):
        from scipy import sparse
        bad = sparse.csr_matrix(np.array([[0.0, 0.7], [0.0, 0.7]]))
        with pytest.raises(ValueError, match="sum to 1"):
            cn.StochasticOperator(n=2, terms=(bad,), dangling=np.array([True, False]))

    def test_rejects_entry_outside_unit_interval(self):
        from scipy import sparse
        bad = sparse.csr_matrix(np.array([[0.0, 2.0], [0.0, -1.0]]))
        with pytest.raises(ValueError, match="entries"):
            cn.StochasticOperator(n=2, terms=(bad,), dangling=np.array([True, False]))

    def test_rejects_nonempty_dangling_column(self):
        from scipy import sparse
        m = sparse.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="dangling"):
            cn.StochasticOperator(n=2, terms=(m,), dangling=np.array([False, True]))

    @pytest.mark.parametrize("weight", [-0.5, 1.5, float("nan")])
    def test_rejects_dangling_weight_outside_unit_interval(self, weight):
        # column 1 sums to 1 with weight -0.5; only the range check can catch it
        from scipy import sparse
        m = sparse.csr_matrix(np.array([[0.0, 0.75], [0.0, 0.75]]))
        with pytest.raises(ValueError, match="dangling weights must lie in"):
            cn.StochasticOperator(n=2, terms=(m,), dangling=np.array([1.0, weight]))


    @pytest.mark.parametrize("entries, dangling, message", [
        ([[0.0, 0.7], [0.0, 0.7]], [1.0, 0.0], "sum to 1"),
        ([[0.0, 2.0], [0.0, -1.0]], [1.0, 0.0], "entries"),
        ([[0.0, 0.75], [0.0, 0.75]], [1.0, -0.5], "dangling weights must lie in"),
    ], ids=["column_sum", "entry", "dangling_range"])
    def test_a_rejected_operator_leaves_dangling_writeable(self, entries, dangling, message):
        from scipy import sparse
        dangling = np.array(dangling)
        with pytest.raises(ValueError, match=message):
            cn.StochasticOperator(n=2, terms=(sparse.csr_matrix(np.array(entries)),), dangling=dangling)
        assert dangling.flags.writeable

    def test_holds_and_freezes_the_callers_dangling(self):
        from scipy import sparse
        dangling = np.array([1.0, 0.0])
        op = cn.StochasticOperator(n=2, terms=(sparse.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]])),),
                                   dangling=dangling)
        assert op.dangling is dangling and not dangling.flags.writeable


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

    def test_mismatched_node_counts_rejected(self):
        from scipy import sparse
        m = sparse.csr_matrix((2, 2))
        with pytest.raises(ValueError, match="matrix must be 3x3"):
            cn.StochasticOperator(n=3, terms=(m,), dangling=np.ones(3))
        with pytest.raises(ValueError, match="dangling must have shape"):
            cn.StochasticOperator(n=2, terms=(m,), dangling=np.ones(3))


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
