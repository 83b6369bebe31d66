import math

import numpy as np
import pytest

from treeohm import (
    GuardError,
    RngStream,
    TreeModel,
    ValidationError,
    WeightDistribution,
    gw_w_estimate,
    kirchhoff_solve,
    level_scales,
    parse_distribution,
    parse_offspring,
    resistance_fast,
    resistance_of_tree,
    resistance_streaming,
    reweighted,
    sample_tree_explicit,
    shorted_resistance_of_tree,
)
from tests.conftest import scalar_gw_tree


class TestRegularEvaluation:
    def test_constant_weights_give_linear_resistance(self, binary_unit_model):
        for n in (1, 2, 5, 12, 20):
            r = resistance_streaming(binary_unit_model, n, RngStream(0)).resistance
            assert r == pytest.approx(n, abs=1e-12)

    def test_constant_scaled(self):
        model = TreeModel.regular(2, WeightDistribution.constant(0.7))
        sample = resistance_streaming(model, 9, RngStream(0))
        assert sample.resistance == pytest.approx(0.7 * 9, rel=1e-12)
        assert sample.conductance == 1.0 / sample.resistance

    def test_envelope(self, binary_twopoint_model):
        for seed in range(5):
            r = resistance_streaming(binary_twopoint_model, 12, RngStream(seed)).resistance
            assert 0.5 * 12 <= r <= 1.5 * 12

    def test_three_edge_instance(self, three_edge_tree):
        fold = resistance_of_tree(three_edge_tree)
        dense = kirchhoff_solve(three_edge_tree).resistance
        assert fold == pytest.approx(7.0 / 3.0, rel=1e-12)
        assert abs(fold - dense) <= 1e-12 * dense

    @pytest.mark.parametrize("beta", [2, 3])
    @pytest.mark.parametrize("literal_n", [(1,), (2,), (5,), (8,)])
    def test_three_routes_bit_identical(self, beta, literal_n):
        (n,) = literal_n
        dist = WeightDistribution.uniform(0.5, 1.5)
        model = TreeModel.regular(beta, dist)
        for seed in (0, 1, 9):
            streaming = resistance_streaming(model, n, RngStream(seed, 2)).resistance
            fast = resistance_fast(model, n, RngStream(seed, 2)).resistance
            tree = sample_tree_explicit(model, n, RngStream(seed, 2))
            fold = resistance_of_tree(tree)
            assert streaming == fast == fold

    def test_bit_identity_other_kinds(self, binary_twopoint_model):
        disc = TreeModel.regular(
            2, WeightDistribution.discrete([(0.5, 0.25), (1.0, 0.5), (1.5, 0.25)])
        )
        for model in (binary_twopoint_model, disc):
            for seed in (3, 4):
                s = resistance_streaming(model, 7, RngStream(seed)).resistance
                f = resistance_fast(model, 7, RngStream(seed)).resistance
                assert s == f

    def test_depth_guards(self, binary_unit_model):
        with pytest.raises(GuardError):
            resistance_streaming(binary_unit_model, 61, RngStream(0))
        with pytest.raises(ValidationError):
            resistance_streaming(binary_unit_model, 0, RngStream(0))

    def test_streaming_requires_regular(self):
        gw = TreeModel.galton_watson([(2, 1.0)], WeightDistribution.constant(1.0))
        with pytest.raises(ValidationError):
            resistance_streaming(gw, 3, RngStream(0))


class TestExplicitTrees:
    def test_small_shape(self, binary_twopoint_model):
        tree = sample_tree_explicit(binary_twopoint_model, 2, RngStream(1))
        assert tree.n_nodes == 3
        assert sorted(tree.level.tolist()) == [1, 2, 2]
        assert np.all((tree.weight >= 0.5) & (tree.weight <= 1.5))

    def test_resistance_scaling_per_level(self, binary_twopoint_model):
        tree = sample_tree_explicit(binary_twopoint_model, 6, RngStream(2))
        scale = 2.0 ** (tree.level - 1)
        assert np.array_equal(tree.resistance, tree.weight * scale)

    def test_gw_deterministic_offspring(self):
        model = TreeModel.galton_watson([(2, 1.0)], WeightDistribution.constant(1.0))
        tree = sample_tree_explicit(model, 3, RngStream(0))
        assert tree.level_counts().tolist() == [1, 2, 4, 8]

    def test_gw_single_level_one_edge(self, binary_twopoint_model):
        tree = sample_tree_explicit(binary_twopoint_model, 1, RngStream(5))
        assert tree.n_nodes == 1
        r = resistance_of_tree(tree)
        assert r == tree.resistance[0]

    def test_memory_guard(self):
        model = TreeModel.regular(2, WeightDistribution.constant(1.0))
        with pytest.raises(GuardError):
            sample_tree_explicit(model, 26, RngStream(0))

    def test_gw_smallest_tree_over_guard_draws_nothing(self):
        # every node has 3 children, so the tree has (3^17 - 1) / 2 nodes
        model = TreeModel.galton_watson([(3, 1.0)], WeightDistribution.constant(1.0))
        rng = RngStream(0)
        with pytest.raises(GuardError):
            sample_tree_explicit(model, 16, rng)
        assert rng.uniforms(1)[0] == RngStream(0).uniforms(1)[0]

    def test_preorder_parents(self, binary_twopoint_model):
        tree = sample_tree_explicit(binary_twopoint_model, 5, RngStream(3))
        assert tree.parent[0] == -1
        assert np.all(tree.parent[1:] < np.arange(1, tree.n_nodes))
        # one root edge, leaves exactly at the bottom level
        assert int(np.sum(tree.level == 1)) == 1
        n_kids = np.bincount(tree.parent[1:], minlength=tree.n_nodes)
        assert np.all(n_kids[tree.level < tree.n_levels] == 2)
        assert np.all(n_kids[tree.level == tree.n_levels] == 0)


class TestBlockSampler:
    # trees of tens to thousands of nodes, so each crosses many block refills
    @pytest.mark.parametrize("offspring, dist, lam, n", [
        ("1:0.5,2:0.5", "const:1", None, 14),
        ("1:0.5,2:0.5", "unif:0.5,1.5", None, 14),
        ("2:0.5,3:0.5", "twopoint:0.5,1.5", None, 8),
        ("1:0.3,2:0.4,3:0.3", "disc:0.5:0.25,1.0:0.5,1.5:0.25", 1.3, 10),
        ("0:0,1:0.7,3:0.3", "unif:0.5,1.5", None, 10),
    ], ids=["binary-const", "binary-unif", "two-three", "disc-lam", "zero-atom"])
    def test_matches_per_node_reference(self, offspring, dist, lam, n):
        model = TreeModel.galton_watson(parse_offspring(offspring), parse_distribution(dist), lam)
        for j in range(5):
            rng, ref_rng = RngStream(2024, j), RngStream(2024, j)
            tree = sample_tree_explicit(model, n, rng)
            ref = scalar_gw_tree(model, n, ref_rng)
            for name in ("parent", "level", "weight", "resistance"):
                assert getattr(tree, name).tobytes() == getattr(ref, name).tobytes(), name
            assert rng.uniforms(1)[0] == ref_rng.uniforms(1)[0]


class TestRayleighMonotonicity:
    def test_single_edge_increase_never_decreases_r(self, binary_twopoint_model):
        tree = sample_tree_explicit(binary_twopoint_model, 6, RngStream(11))
        base = resistance_of_tree(tree)
        rng = RngStream(404)
        for _ in range(25):
            node = int(rng.integers(0, tree.n_nodes))
            bumped = reweighted(tree, node, tree.weight[node] + 0.25)
            assert resistance_of_tree(bumped) >= base - 1e-12


def generations(offspring, n, rng):
    """Generation sizes (Z_0, ..., Z_n) of a unit-weight branching tree."""
    model = TreeModel.galton_watson(offspring, WeightDistribution.constant(1.0))
    return sample_tree_explicit(model, n, rng).level_counts()


class TestBranchingUtilities:
    def test_generations_deterministic(self):
        assert generations(((2, 1.0),), 3, RngStream(0)).tolist() == [1, 2, 4, 8]
        assert generations(((1, 1.0),), 5, RngStream(0)).tolist() == [1] * 6

    def test_generations_support(self):
        z = generations(((1, 0.5), (2, 0.5)), 2, RngStream(42))
        assert z[0] == 1
        assert z[1] in (1, 2)
        assert z[1] <= z[2] <= 2 * z[1]

    def test_shorted_formula(self):
        unit = WeightDistribution.constant(1.0)
        binary = TreeModel.galton_watson([(2, 1.0)], unit, lam=2.0)
        assert shorted_resistance_of_tree(sample_tree_explicit(binary, 3, RngStream(0))) == 4.0
        path = TreeModel.galton_watson([(1, 1.0)], unit, lam=1.0)
        assert shorted_resistance_of_tree(sample_tree_explicit(path, 5, RngStream(0))) == 6.0

    def test_bushy_instance_strictly_above_shorted(self, bushy_tree):
        exact = resistance_of_tree(bushy_tree)
        short = shorted_resistance_of_tree(bushy_tree)
        assert exact == pytest.approx(22.0 / 7.0, rel=1e-12)
        assert short == pytest.approx(3.0, rel=1e-12)
        assert short < exact

    def test_shorted_lower_bound_unit_weights(self):
        model = TreeModel.galton_watson(
            [(1, 0.3), (2, 0.4), (3, 0.3)], WeightDistribution.constant(1.0)
        )
        for seed in range(10):
            tree = sample_tree_explicit(model, 6, RngStream(77, seed))
            exact = resistance_of_tree(tree)
            short = shorted_resistance_of_tree(tree)
            assert short <= exact + 1e-12

    def test_weighted_shorting_any_weights(self):
        model = TreeModel.galton_watson(
            [(1, 0.5), (2, 0.5)], WeightDistribution.uniform(0.5, 1.5)
        )
        for seed in range(10):
            tree = sample_tree_explicit(model, 6, RngStream(88, seed))
            exact = resistance_of_tree(tree)
            short = shorted_resistance_of_tree(tree)
            assert short <= exact + 1e-12

    def test_weighted_shorted_equals_formula_for_unit_weights(self):
        model = TreeModel.galton_watson(
            [(1, 0.5), (3, 0.5)], WeightDistribution.constant(1.0)
        )
        tree = sample_tree_explicit(model, 5, RngStream(9, 2))
        z = tree.level_counts()
        scales = level_scales(tree.lam, len(z))
        assert shorted_resistance_of_tree(tree) == math.fsum(
            scales[i] / z[i] for i in range(len(z))
        )

    def test_w_estimate(self):
        assert gw_w_estimate(2**7, 2.0, 7) == 1.0
        assert gw_w_estimate(3**4, 3.0, 4) == 1.0
        for seed in range(5):
            z = generations(((1, 0.5), (2, 0.5)), 6, RngStream(31, seed))
            w = gw_w_estimate(int(z[-1]), 1.5, 6)
            assert (1 / 1.5) ** 6 <= w <= (2 / 1.5) ** 6

    def test_unit_weight_binary_gw_integer_exact(self):
        model = TreeModel.galton_watson([(2, 1.0)], WeightDistribution.constant(1.0))
        for n in range(1, 13):
            tree = sample_tree_explicit(model, n, RngStream(0))
            exact = resistance_of_tree(tree)
            assert exact == float(n + 1)
            assert shorted_resistance_of_tree(tree) == float(n + 1)
