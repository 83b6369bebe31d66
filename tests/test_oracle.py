import numpy as np
import pytest

from treeohm import (
    GuardError,
    RngStream,
    TreeModel,
    WeightDistribution,
    build_dense_system,
    kirchhoff_solve,
    oracle_compare,
    oracle_gap_table,
    resistance_of_tree,
    sample_tree_explicit,
    solve_flow,
)
from tests.conftest import build_tree


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

    def test_residual_small(self, binary_twopoint_model):
        for seed in range(5):
            tree = sample_tree_explicit(binary_twopoint_model, 7, RngStream(seed))
            system = build_dense_system(tree)
            from treeohm.oracle import _gauss_solve

            x = _gauss_solve(system.matrix, system.rhs)
            res = np.max(np.abs(system.matrix @ x - system.rhs))
            assert res <= 1e-10 * np.max(np.abs(system.rhs))


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
