import numpy as np
import pytest

from treeohm import SampledTree, TreeModel, WeightDistribution


def build_tree(parent, level, weight, lam, shape, beta=None):
    parent = np.asarray(parent, dtype=np.int64)
    level = np.asarray(level, dtype=np.int64)
    weight = np.asarray(weight, dtype=np.float64)
    scales = np.cumprod(np.concatenate(([1.0], np.full(level.max() - 1, float(lam)))))
    resistance = weight * scales[level - 1]
    return SampledTree(parent, level, weight, resistance,
                       int(level.max()), float(lam), shape, beta)


def assert_node_law(theta, tree, tol):
    """At every node with children, the current in equals the sum of the
    children's currents (summed in id order from the parent array)."""
    outflow = np.bincount(tree.parent[1:], weights=theta[1:], minlength=tree.n_nodes)
    has_kids = np.bincount(tree.parent[1:], minlength=tree.n_nodes) > 0
    assert np.all(np.abs(theta[has_kids] - outflow[has_kids]) <= tol)


@pytest.fixture
def three_edge_tree():
    """Root edge r=1 feeding two branch edges r=2 and r=4; R = 7/3."""
    return build_tree([-1, 0, 0], [1, 2, 2], [1.0, 1.0, 2.0], 2.0, "regular", 2)


@pytest.fixture
def bushy_tree():
    """Irregular branching instance: the root's node has two children, one
    with a single child and one with three, unit weights; R = 22/7."""
    return build_tree(
        [-1, 0, 1, 0, 3, 3, 3],
        [1, 2, 3, 2, 3, 3, 3],
        np.ones(7),
        2.0,
        "gw",
    )


@pytest.fixture
def twopoint_half():
    return WeightDistribution.two_point(0.5, 1.5)


@pytest.fixture
def binary_twopoint_model(twopoint_half):
    return TreeModel.regular(2, twopoint_half)


@pytest.fixture
def binary_unit_model():
    return TreeModel.regular(2, WeightDistribution.constant(1.0))
