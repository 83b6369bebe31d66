import numpy as np
import pytest

from treeohm import (
    RngStream,
    TreeModel,
    ValidationError,
    WeightDistribution,
    concentration_diagnostics,
    flow_bound_report,
    flow_bound_sum,
    perturb_flow,
    random_perturbations,
    resistance_of_tree,
    sample_tree_explicit,
    solve_flow,
    tail_bound_constant,
)
from tests.conftest import assert_node_law, build_tree


def subtree_sums(tree):
    """Reference subtree resistances sub and child conductance sums csum
    (0.0 at leaves) from the parent array: children carry larger ids than
    their parent, so one sweep in decreasing id order completes each node
    before its parent reads it."""
    sub = tree.resistance.copy()
    csum = np.zeros(tree.n_nodes)
    for i in range(tree.n_nodes - 1, -1, -1):
        if csum[i] > 0.0:
            sub[i] += 1.0 / csum[i]
        if i > 0:
            csum[tree.parent[i]] += 1.0 / sub[i]
    return sub, csum


def assert_flow_invariants(flow, tree):
    """Node law, Ohm's law, unit flux, and energy = resistance."""
    scale = max(1.0, float(np.max(np.abs(flow.theta))))
    assert_node_law(flow.theta, tree, 1e-12 * scale)
    upper = np.where(np.arange(tree.n_nodes) == 0, flow.voltage_top,
                     flow.voltage[tree.parent])
    drop = flow.theta * tree.resistance
    vscale = max(1.0, abs(flow.voltage_top))
    assert np.all(np.abs(drop - (upper - flow.voltage)) <= 1e-12 * vscale)
    assert flow.theta[0] == 1.0
    leaf_flux = float(np.sum(flow.theta[tree.leaf_ids()]))
    assert leaf_flux == pytest.approx(1.0, abs=1e-12)
    assert flow.energy == pytest.approx(flow.resistance, rel=1e-9)


class TestSolveFlow:
    def test_three_edge_currents_and_voltages(self, three_edge_tree):
        flow = solve_flow(three_edge_tree)
        assert flow.theta == pytest.approx([1.0, 2.0 / 3.0, 1.0 / 3.0], rel=1e-12)
        assert flow.voltage[0] == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert flow.voltage_top == pytest.approx(7.0 / 3.0, rel=1e-12)
        assert_flow_invariants(flow, three_edge_tree)

    def test_unit_weights_halve_per_level(self, binary_unit_model):
        tree = sample_tree_explicit(binary_unit_model, 6, RngStream(0))
        flow = solve_flow(tree)
        expected = 2.0 ** (1.0 - tree.level)
        assert flow.theta == pytest.approx(expected, rel=1e-12)
        assert flow.energy == pytest.approx(6.0, rel=1e-12)

    def test_single_edge(self):
        tree = build_tree([-1], [1], [1.7], 2.0, "regular", 2)
        flow = solve_flow(tree)
        assert flow.theta[0] == 1.0
        assert flow.voltage_top == pytest.approx(1.7, rel=1e-15)

    @pytest.mark.parametrize("seed", [0, 5, 17])
    def test_invariants_random_instances(self, binary_twopoint_model, seed):
        tree = sample_tree_explicit(binary_twopoint_model, 8, RngStream(seed))
        flow = solve_flow(tree)
        assert_flow_invariants(flow, tree)
        # total agrees with the series-parallel fold bit for bit
        assert flow.resistance == resistance_of_tree(tree)

    def test_invariants_branching_instance(self, bushy_tree):
        flow = solve_flow(bushy_tree)
        assert_flow_invariants(flow, bushy_tree)

    def test_current_split_proportional_to_conductance(self, binary_twopoint_model):
        tree = sample_tree_explicit(binary_twopoint_model, 7, RngStream(2))
        flow = solve_flow(tree)
        sub, csum = subtree_sums(tree)
        kids = np.arange(1, tree.n_nodes)
        up = tree.parent[kids]
        want = flow.theta[up] * (1.0 / sub[kids]) / csum[up]
        assert flow.theta[kids] == pytest.approx(want, rel=1e-12)

    def test_energy_equals_resistance(self, binary_twopoint_model):
        tree = sample_tree_explicit(binary_twopoint_model, 9, RngStream(8))
        flow = solve_flow(tree)
        assert flow.energy == pytest.approx(
            resistance_of_tree(tree), rel=1e-9
        )


class TestPerturbations:
    def test_three_edge_shift(self, three_edge_tree):
        flow = solve_flow(three_edge_tree)
        # push 1/3 from the right branch (leaf 2) onto the left (leaf 1)
        moved = perturb_flow(flow, 2, 1, 1.0 / 3.0)
        assert moved.theta == pytest.approx([1.0, 1.0, 0.0], abs=1e-15)
        assert moved.energy == pytest.approx(3.0, rel=1e-12)
        assert moved.energy >= flow.energy

    def test_zero_shift_keeps_energy(self, three_edge_tree):
        flow = solve_flow(three_edge_tree)
        same = perturb_flow(flow, 1, 2, 0.0)
        assert same.energy == flow.energy

    def test_identical_leaf_rejected(self, three_edge_tree):
        flow = solve_flow(three_edge_tree)
        with pytest.raises(ValidationError):
            perturb_flow(flow, 1, 1, 0.01)

    def test_perturbed_stays_unit_flow(self, binary_twopoint_model):
        tree = sample_tree_explicit(binary_twopoint_model, 6, RngStream(4))
        flow = solve_flow(tree)
        leaves = tree.leaf_ids()
        moved = perturb_flow(flow, int(leaves[3]), int(leaves[17]), 0.01)
        assert_node_law(moved.theta, tree, 1e-12)
        assert moved.theta[0] == 1.0
        assert moved.voltage is None

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_optimality_under_random_perturbations(self, binary_twopoint_model, seed):
        tree = sample_tree_explicit(binary_twopoint_model, 8, RngStream(seed))
        flow = solve_flow(tree)
        best = random_perturbations(flow, 20, RngStream(1000, seed))
        assert best >= flow.resistance - 1e-12

    def test_quadratic_energy_growth(self, three_edge_tree):
        flow = solve_flow(three_edge_tree)
        for eps in (-1e-2, -1e-3, 1e-3, 1e-2):
            moved = perturb_flow(flow, 1, 2, eps)
            assert moved.energy >= flow.energy - 1e-12


class TestFlowBounds:
    def test_three_edge_bounds(self, three_edge_tree):
        flow = solve_flow(three_edge_tree)
        report = flow_bound_report(flow, 1.0, 2.0)
        assert report.bound == pytest.approx([2.0, 2.0, 2.0], rel=1e-15)
        assert report.min_margin == pytest.approx(1.0, rel=1e-12)

    def test_unit_weight_bounds_hold_algebraically(self, binary_unit_model):
        tree = sample_tree_explicit(binary_unit_model, 10, RngStream(0))
        report = flow_bound_report(solve_flow(tree), 1.0, 1.0)
        assert report.min_margin >= -1e-12

    def test_seeded_twopoint_margins_nonnegative(self, binary_twopoint_model):
        tree = sample_tree_explicit(binary_twopoint_model, 10, RngStream(3))
        report = flow_bound_report(solve_flow(tree), 0.5, 1.5)
        assert report.min_margin >= -1e-12

    def test_requires_binary_doubling(self):
        model = TreeModel.regular(3, WeightDistribution.constant(1.0))
        tree = sample_tree_explicit(model, 3, RngStream(0))
        with pytest.raises(ValidationError):
            flow_bound_report(solve_flow(tree), 1.0, 1.0)


class TestConcentrationDiagnostics:
    def test_unit_weight_closed_form(self, binary_unit_model):
        tree = sample_tree_explicit(binary_unit_model, 4, RngStream(0))
        report = concentration_diagnostics(solve_flow(tree), 1.0, 1.0)
        assert report.s4_scaled == pytest.approx(7.5, rel=1e-12)

    def test_three_edge_values(self, three_edge_tree):
        report = concentration_diagnostics(solve_flow(three_edge_tree), 1.0, 2.0)
        assert report.s4_scaled == pytest.approx(4.0 + 272.0 / 81.0, rel=1e-12)
        assert report.s4_plain == pytest.approx(
            1.0 + (2.0 / 3.0) ** 4 + (1.0 / 3.0) ** 4, rel=1e-12
        )

    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_scaled_sum_below_ceiling(self, binary_twopoint_model, seed):
        tree = sample_tree_explicit(binary_twopoint_model, 9, RngStream(seed))
        report = concentration_diagnostics(solve_flow(tree), 0.5, 1.5)
        assert report.s4_scaled <= report.b4 + 1e-12


class TestTailBoundConstant:
    def test_degenerate_zero(self):
        assert tail_bound_constant(1.0, 1.0) == 0.0

    def test_unit_double_value(self):
        # independent recomputation of the inner sup
        sums = []
        for n in range(1, 201):
            total = 0.0
            for i in range(1, n + 1):
                total += (n / (n + 1 - i)) ** 4 * 2.0 ** (-i)
            sums.append(total)
        want = (2.0**4 * 2.0**4 / 1.0) * max(sums)
        got = tail_bound_constant(1.0, 2.0)
        assert got == pytest.approx(want, rel=1e-12)
        assert 6.4e3 < got < 6.6e3
        assert max(sums) == pytest.approx(25.43, abs=0.01)

    def test_peak_sits_at_small_depth(self):
        sums = [flow_bound_sum(n) for n in range(1, 40)]
        assert sums.index(max(sums)) + 1 == 6

    def test_monotone_in_upper_bound(self):
        values = [tail_bound_constant(1.0, b) for b in (1.5, 2.0, 2.5, 3.0)]
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_invalid_bounds(self):
        with pytest.raises(ValidationError):
            tail_bound_constant(0.0, 1.0)
        with pytest.raises(ValidationError):
            tail_bound_constant(2.0, 1.0)
