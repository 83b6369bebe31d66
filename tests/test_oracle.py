import numpy as np
import pytest

from treeohm import (
    GuardError,
    ORACLE_GUARD,
    RngStream,
    SampledTree,
    TreeModel,
    WeightDistribution,
    build_dense_system,
    kirchhoff_solve,
    oracle_compare,
    oracle_gap_table,
    parse_offspring,
    resistance_of_tree,
    sample_tree_explicit,
    solve_flow,
)
from treeohm.oracle import _gauss_solve
from tests.conftest import build_tree, dense_gauss_solve, loop_dense_system


class TestDenseSolve:
    def test_three_edge_reference(self, three_edge_tree):
        flow = kirchhoff_solve(three_edge_tree)
        assert flow.resistance == pytest.approx(7.0 / 3.0, rel=1e-12)
        assert flow.theta[1] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert flow.theta[2] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_single_edge(self):
        tree = build_tree([-1], [1], [2.9], 2.0, "regular", 2)
        assert kirchhoff_solve(tree).resistance == pytest.approx(2.9, rel=1e-14)

    def test_unit_weights_symmetry(self, binary_unit_model):
        tree = sample_tree_explicit(binary_unit_model, 4, RngStream(0))
        assert kirchhoff_solve(tree).resistance == pytest.approx(4.0, rel=1e-12)

    def test_bushy_instance(self, bushy_tree):
        assert kirchhoff_solve(bushy_tree).resistance == pytest.approx(
            22.0 / 7.0, rel=1e-12
        )

    @pytest.mark.parametrize("weight", [1e-320])
    def test_refuses_edges_it_cannot_solve(self, weight):
        # the tree takes resistance 2e-320, but 1 / 2e-320 overflows and the
        # node-law matrix would carry inf, so the oracle refuses it
        tree = SampledTree(np.array([1, 2, 2]), np.array([1.0, weight, 1.0]), 2.0, "gw")
        with pytest.raises(GuardError, match="node 1 "):
            build_dense_system(tree)
        with pytest.raises(GuardError, match="node 1 "):
            oracle_compare(tree)

    def test_refuses_an_overflowed_conductance_sum(self):
        # each child edge has g = 1e308, finite, but node 0's diagonal sums
        # three of them and overflows
        tree = SampledTree(np.array([1, 2, 2, 2]), np.array([1.0, 1e-308, 1e-308, 1e-308]),
                           1.0, "gw")
        with pytest.raises(GuardError, match="node 0 sum to inf"):
            build_dense_system(tree)

    def test_nan_residual_fails(self, three_edge_tree, monkeypatch):
        monkeypatch.setattr("treeohm.oracle._gauss_solve",
                            lambda a, b: np.full(len(b), np.nan))
        with pytest.raises(RuntimeError, match="residual"):
            kirchhoff_solve(three_edge_tree)

    def test_size_guard(self):
        model = TreeModel.regular(2, WeightDistribution.constant(1.0))
        tree = sample_tree_explicit(model, 13, RngStream(0))  # 8191 nodes
        with pytest.raises(GuardError):
            kirchhoff_solve(tree)


class TestSystemShape:
    def test_symmetric_and_diagonally_dominant(self, binary_twopoint_model):
        for seed in range(5):
            tree = sample_tree_explicit(binary_twopoint_model, 6, RngStream(seed))
            system = build_dense_system(tree)
            a = system.matrix
            assert np.array_equal(a, a.T)
            diag = np.abs(np.diag(a))
            off = np.sum(np.abs(a), axis=1) - diag
            assert np.all(diag >= off - 1e-12 * diag)
            # rows touching the merged sink are strictly dominant
            assert np.any(diag > off + 1e-12 * diag)

    @pytest.mark.parametrize("model", [
        TreeModel.regular(2, WeightDistribution.uniform(0.5, 1.5)),
        TreeModel.regular(3, WeightDistribution.two_point(0.5, 1.5)),
        TreeModel.galton_watson(parse_offspring("1:0.3,2:0.4,3:0.3"),
                                WeightDistribution.uniform(0.5, 1.5)),
        TreeModel.galton_watson(parse_offspring("1:0.5,4:0.5"),
                                WeightDistribution.uniform(0.5, 1.5)),
    ], ids=["reg2", "reg3", "gw123", "gw14"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_per_edge_loop(self, model, n):
        for seed in range(4):
            tree = sample_tree_explicit(model, n, RngStream(31, seed))
            if tree.n_nodes > ORACLE_GUARD:
                with pytest.raises(GuardError):
                    build_dense_system(tree)
                continue
            system = build_dense_system(tree)
            want = loop_dense_system(tree)
            got = (system.matrix, system.rhs, system.unknown_of)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()

    def test_residual_small(self, binary_twopoint_model):
        for seed in range(5):
            tree = sample_tree_explicit(binary_twopoint_model, 7, RngStream(seed))
            system = build_dense_system(tree)
            x = _gauss_solve(system.matrix, system.rhs)
            res = np.max(np.abs(system.matrix @ x - system.rhs))
            assert res <= 1e-10 * np.max(np.abs(system.rhs))


class TestEliminationBits:
    """Eliminating on the nonzeros keeps the full dense update's bits."""

    @pytest.mark.parametrize("model, ns", [
        (TreeModel.regular(2, WeightDistribution.uniform(0.5, 1.5)), range(1, 10)),
        (TreeModel.regular(3, WeightDistribution.uniform(0.5, 1.5)), range(1, 8)),
        (TreeModel.galton_watson(parse_offspring("1:0.5,2:0.5"),
                                 WeightDistribution.uniform(0.5, 1.5)), range(1, 11)),
        (TreeModel.galton_watson(parse_offspring("1:0.3,2:0.4,3:0.3"),
                                 WeightDistribution.uniform(0.5, 1.5)), range(1, 8)),
    ], ids=["reg2", "reg3", "gw12", "gw123"])
    def test_matches_full_update(self, model, ns):
        for n in ns:
            for seed in range(6):
                tree = sample_tree_explicit(model, n, RngStream(18, seed))
                if tree.n_nodes > ORACLE_GUARD:
                    continue
                system = build_dense_system(tree)
                got = _gauss_solve(system.matrix, system.rhs)
                want = dense_gauss_solve(system.matrix, system.rhs)
                assert got.tobytes() == want.tobytes()

    def test_pivot_swap_matches_full_update(self):
        # a matrix that is no tree's: zeros on the diagonal force row swaps;
        # its zeros are +0, as _gauss_solve's contract asks
        rng = np.random.default_rng(5)
        x = rng.standard_normal((40, 40))
        a = np.where(rng.random((40, 40)) < 0.15, x, 0.0)
        a[np.arange(40), np.arange(40)[::-1]] += 3.0
        assert not np.any((a == 0.0) & np.signbit(a))
        b = rng.standard_normal(40)
        pivots = []
        want = dense_gauss_solve(a, b, pivots)
        assert _gauss_solve(a, b).tobytes() == want.tobytes()
        assert pivots != list(range(40))

    def test_generic_matrices_match_full_update(self):
        # no tree's matrices: random patterns of small integers, whose exact
        # cancellations leave +0 zeros and whose equal abs values make pivot
        # ties, on a permuted diagonal that moves pivots off the diagonal
        solved = swapped = 0
        for seed in range(6):
            rng = np.random.default_rng([19, seed])
            for m in range(1, 41):
                mask = rng.random((m, m)) < rng.uniform(0.05, 0.4)
                a = (rng.integers(-3, 4, (m, m)) * mask).astype(np.float64)
                a[rng.permutation(m), np.arange(m)] += rng.choice([-2.0, 1.0, 2.0], m)
                if np.linalg.matrix_rank(a) < m:
                    continue
                b = rng.integers(-3, 4, m).astype(np.float64)
                pivots = []
                want = dense_gauss_solve(a, b, pivots)
                assert _gauss_solve(a, b).tobytes() == want.tobytes()
                solved += 1
                swapped += pivots != list(range(m))
        assert solved >= 200 and swapped >= 100

    @pytest.mark.parametrize("a", [[[1.0, 2.0], [2.0, 4.0]], [[0.0, 1.0], [0.0, 3.0]]],
                             ids=["cancelled-pivot", "empty-column"])
    def test_singular_matrix_is_refused(self, a):
        a = np.array(a)
        with pytest.raises(RuntimeError, match="^singular node-law system"):
            dense_gauss_solve(a, np.ones(2))
        with pytest.raises(RuntimeError,
                           match=r"^singular node-law system \(internal failure\)$"):
            _gauss_solve(a, np.ones(2))


class TestAgreement:
    def test_three_edge_gaps(self, three_edge_tree):
        gaps = oracle_compare(three_edge_tree)
        assert gaps.resistance_rel_gap <= 1e-12
        assert gaps.max_theta_gap <= 1e-12
        assert gaps.max_voltage_gap <= 1e-12

    def test_constant_weight_gaps(self, binary_unit_model):
        tree = sample_tree_explicit(binary_unit_model, 6, RngStream(0))
        gaps = oracle_compare(tree)
        assert gaps.resistance_rel_gap <= 1e-12
        assert gaps.max_theta_gap <= 1e-12
        assert gaps.max_voltage_gap <= 1e-12

    def test_seeded_instances_agree(self):
        model = TreeModel.regular(2, WeightDistribution.uniform(0.5, 1.5))
        rows = oracle_gap_table(model, list(range(2, 8)), 60, 1)
        assert len(rows) == 60
        assert max(row[3] for row in rows) <= 1e-9

    def test_branching_instances_agree(self):
        model = TreeModel.galton_watson(
            [(1, 0.4), (2, 0.4), (3, 0.2)], WeightDistribution.uniform(0.5, 1.5)
        )
        for seed in range(8):
            tree = sample_tree_explicit(model, 5, RngStream(55, seed))
            gaps = oracle_compare(tree)
            assert gaps.resistance_rel_gap <= 1e-9
            assert gaps.max_theta_gap <= 1e-9
            assert gaps.max_voltage_gap <= 1e-9

    def test_flow_total_matches_fold_exactly(self, binary_twopoint_model):
        tree = sample_tree_explicit(binary_twopoint_model, 8, RngStream(12))
        assert solve_flow(tree).resistance == resistance_of_tree(tree)
