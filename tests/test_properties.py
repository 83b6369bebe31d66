"""Property tests on generated trees: the paper's invariants, checked on small
regular and branching trees with random weight laws, scaling bases and seeds.

Hypothesis runs derandomized and without an example database, so every run
draws the same examples.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from treeohm import (
    RngStream,
    TreeModel,
    WeightDistribution,
    oracle_compare,
    resistance_fast,
    resistance_of_tree,
    resistance_streaming,
    reweighted,
    run_replicates,
    sample_tree_explicit,
    shorted_resistance_of_tree,
    solve_flow,
)
from tests.conftest import assert_node_law

PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)
TOL = 1e-9

_POSITIVE = st.floats(0.1, 3.0)
_WIDTH = st.one_of(st.just(0.0), st.floats(0.01, 3.0))


@st.composite
def weight_laws(draw):
    kind = draw(st.sampled_from(["uniform", "twopoint", "discrete", "constant"]))
    a = draw(_POSITIVE)
    if kind == "constant":
        return WeightDistribution.constant(a)
    b = a + draw(_WIDTH)
    if kind == "uniform":
        return WeightDistribution.uniform(a, b)
    if kind == "twopoint":
        return WeightDistribution.two_point(a, b, draw(st.floats(0.0, 1.0)))
    values = draw(st.lists(_POSITIVE, min_size=1, max_size=4, unique=True))
    masses = draw(st.lists(st.integers(1, 5), min_size=len(values), max_size=len(values)))
    return WeightDistribution.discrete(
        (v, m / sum(masses)) for v, m in zip(values, masses)
    )


_LAMS = st.one_of(st.just(None), st.floats(0.5, 2.5))  # None = the model's default


@st.composite
def regular_cases(draw):
    beta = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 6 if beta == 2 else 4))
    model = TreeModel.regular(beta, draw(weight_laws()), lam=draw(_LAMS))
    return model, n, draw(st.integers(0, 2**20))


@st.composite
def gw_cases(draw):
    counts = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True))
    masses = draw(st.lists(st.integers(1, 4), min_size=len(counts), max_size=len(counts)))
    offspring = [(k, m / sum(masses)) for k, m in zip(counts, masses)]
    n = draw(st.integers(1, 4))
    model = TreeModel.galton_watson(offspring, draw(weight_laws()), lam=draw(_LAMS))
    return model, n, draw(st.integers(0, 2**20))


def trees():
    return st.one_of(regular_cases(), gw_cases()).map(
        lambda case: sample_tree_explicit(case[0], case[1], RngStream(case[2], 1))
    )


@PROPERTY
@given(regular_cases())
def test_regular_routes_bit_identical(case):
    model, n, seed = case
    streaming = resistance_streaming(model, n, RngStream(seed, 1)).resistance
    fast = resistance_fast(model, n, RngStream(seed, 1)).resistance
    tree = sample_tree_explicit(model, n, RngStream(seed, 1))
    assert resistance_of_tree(tree) == streaming == fast
    # the block evaluator: replicate j of a batch is the tree on stream j
    batch = run_replicates(model, n, 3, seed).resistance
    assert batch.tolist() == [resistance_streaming(model, n, RngStream(seed, j)).resistance
                              for j in range(3)]


@PROPERTY
@given(st.one_of(regular_cases(), gw_cases()), st.integers(0, 5))
def test_explicit_tree_draw_contract(case, j):
    # one uniform per edge, then one offspring draw per internal gw node
    model, n, seed = case
    rng = RngStream(seed, j)
    tree = sample_tree_explicit(model, n, rng)
    k = tree.n_nodes
    if model.shape == "gw":
        k += int(np.sum(tree.level < tree.n_levels))
    assert rng.uniforms(1)[0] == RngStream(seed, j).uniforms(k + 1)[k]


@PROPERTY
@given(regular_cases())
def test_regular_envelope(case):
    # a*n <= R <= b*n whenever the depth scaling matches the arity
    model, n, seed = case
    model = TreeModel.regular(model.beta, model.weights)
    r = resistance_fast(model, n, RngStream(seed, 1)).resistance
    dist = model.weights
    assert dist.a * n * (1 - TOL) <= r <= dist.b * n * (1 + TOL)


@PROPERTY
@given(trees())
def test_flow_matches_fold_and_energy(tree):
    flow = solve_flow(tree)
    r = resistance_of_tree(tree)
    assert flow.resistance == r
    assert abs(flow.energy - r) <= TOL * r


@PROPERTY
@given(trees())
def test_node_law(tree):
    theta = solve_flow(tree).theta
    assert theta[0] == 1.0
    assert_node_law(theta, tree, 1e-12)
    assert abs(float(np.sum(theta[tree.leaf_ids()])) - 1.0) <= 1e-12


@PROPERTY
@given(trees())
def test_shorting_never_raises_resistance(tree):
    exact = resistance_of_tree(tree)
    assert shorted_resistance_of_tree(tree) <= exact * (1 + 1e-12)


@PROPERTY
@given(trees())
def test_dense_oracle_agrees(tree):
    gaps = oracle_compare(tree)
    assert gaps.resistance_rel_gap <= TOL
    assert gaps.max_theta_gap <= TOL
    assert gaps.max_voltage_gap <= TOL


@PROPERTY
@given(trees(), st.data())
def test_rayleigh_monotonicity(tree, data):
    node = data.draw(st.integers(0, tree.n_nodes - 1))
    factor = data.draw(st.sampled_from([0.5, 0.9, 1.0, 1.1, 2.0]))
    base = resistance_of_tree(tree)
    moved = resistance_of_tree(reweighted(tree, node, tree.weight[node] * factor))
    if factor >= 1.0:
        assert moved >= base * (1 - 1e-12)
    else:
        assert moved <= base * (1 + 1e-12)
