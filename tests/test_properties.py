"""Property tests on generated trees: the paper's invariants, checked on small
regular and branching trees with random weight laws, scaling bases and seeds.

Hypothesis runs derandomized and without an example database, so every run
draws the same examples.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from treeohm import (
    ORACLE_GUARD,
    GuardError,
    RngStream,
    TreeModel,
    WeightDistribution,
    build_dense_system,
    flow_bound_report,
    gw_experiment,
    level_scales,
    oracle_compare,
    parse_distribution,
    resistance_fast,
    resistance_of_tree,
    resistance_streaming,
    run_replicates,
    sample_tree_explicit,
    shorted_resistance_of_tree,
    solve_flow,
)
from treeohm.model import (
    STREAM_LIMIT,
    _inverse_cdf,
    _seed_words,
    _transform,
    stream_block,
    streams,
)
from treeohm.oracle import _gauss_solve
from tests.conftest import assert_node_law, dense_gauss_solve, reweighted, scalar_gw_tree

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
def regular_cases(draw, depths=((2, 1, 6), (3, 1, 4))):
    """A regular model, depth and seed; depths lists (beta, n_min, n_max)."""
    beta, n_min, n_max = draw(st.sampled_from(depths))
    n = draw(st.integers(n_min, n_max))
    model = TreeModel.regular(beta, draw(weight_laws()), lam=draw(_LAMS))
    return model, n, draw(st.integers(0, 2**20))


@st.composite
def gw_cases(draw, n_min=1, n_max=4):
    counts = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True))
    masses = draw(st.lists(st.integers(1, 4), min_size=len(counts), max_size=len(counts)))
    offspring = [(k, m / sum(masses)) for k, m in zip(counts, masses)]
    n = draw(st.integers(n_min, n_max))
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
@given(st.one_of(regular_cases(), gw_cases(1, 8)), st.integers(0, 5))
def test_explicit_tree_draw_contract(case, j):
    # one uniform per edge, then one offspring draw per internal gw node
    model, n, seed = case
    rng = RngStream(seed, j)
    tree = sample_tree_explicit(model, n, rng)
    k = tree.n_nodes
    if model.shape == "gw":
        k += int(np.sum(tree.level < tree.n_levels))
    assert rng.uniforms(1)[0] == RngStream(seed, j).uniforms(k + 1)[k]


@st.composite
def long_gw_cases(draw):
    """Branching laws with offspring counts up to 5, or with nearly all mass
    at one child (long chains, rare branching), at depths up to 8 where the
    mean tree stays under about a thousand leaves."""
    if draw(st.booleans()):
        counts = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4, unique=True))
        masses = draw(st.lists(st.integers(1, 6), min_size=len(counts), max_size=len(counts)))
        offspring = [(k, m / sum(masses)) for k, m in zip(counts, masses)]
    else:
        p_one = draw(st.floats(0.9, 0.999))
        offspring = [(1, p_one), (draw(st.integers(2, 5)), 1.0 - p_one)]
    model = TreeModel.galton_watson(offspring, draw(weight_laws()), lam=draw(_LAMS))
    mean = model.offspring_mean()
    deepest = 8 if mean < 1.9 else max(1, min(8, int(math.log(1000) / math.log(mean))))
    return model, draw(st.integers(1, deepest)), draw(st.integers(0, 2**20))


@PROPERTY
@given(long_gw_cases(), st.integers(0, 5), st.sampled_from([2, 7, 2**16]))
def test_branching_walk_matches_per_node_reference(case, j, budget):
    # a small read-ahead budget makes the walk peek many short blocks
    from treeohm import evaluate

    model, n, seed = case
    rng, ref_rng = RngStream(seed, j), RngStream(seed, j)
    with mock.patch.object(evaluate, "_BLOCK_UNIFORMS", budget):
        tree = sample_tree_explicit(model, n, rng)
    ref = scalar_gw_tree(model, n, ref_rng)
    for name in ("level", "weight", "resistance"):
        assert getattr(tree, name).tobytes() == getattr(ref, name).tobytes(), name
    assert rng.uniforms(1)[0] == ref_rng.uniforms(1)[0]


@PROPERTY
@given(gw_cases(3, 8), st.integers(10, 400))
def test_branching_guard_refuses_without_drawing(case, guard):
    # a tree over a (patched) node guard is refused, and only such a tree,
    # with its stream untouched
    from treeohm import evaluate

    model, n, seed = case
    nodes = sample_tree_explicit(model, n, RngStream(seed, 1)).n_nodes
    if model.min_nodes(n) > guard:
        return  # refused before the walk, by _check_nodes
    rng = RngStream(seed, 1)
    with mock.patch.object(evaluate, "MEMORY_GUARD", guard):
        try:
            tree = sample_tree_explicit(model, n, rng)
        except GuardError:
            assert nodes > guard
            assert rng.uniforms(1)[0] == RngStream(seed, 1).uniforms(1)[0]
        else:
            assert tree.n_nodes == nodes <= guard


@PROPERTY
@given(trees())
def test_parent_is_the_last_node_one_level_up(tree):
    level = tree.level.tolist()
    want = [-1] + [max(j for j in range(i) if level[j] == level[i] - 1)
                   for i in range(1, len(level))]
    assert tree.parent.tolist() == want


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
@given(weight_laws().filter(lambda dist: 1 <= len(dist.atoms) <= 2), st.integers(0, 2**20))
def test_atom_select_is_the_inverse_cdf(dist, seed):
    # the branch-free select of a law of at most two atoms, on draws and on
    # the uniforms at and just below the first atom's probability
    p = dist.atoms[0][1]
    edges = [u for u in (0.0, p, np.nextafter(p, 0.0)) if u < 1.0]
    u = np.concatenate((edges, RngStream(seed).uniforms(256)))
    want = _inverse_cdf(*dist._cdf, u)
    assert _transform(dist, u).tobytes() == want.tobytes()


@st.composite
def atom_table_cases(draw):
    """A two-point regular model on either side of its table height, with a
    block width of 1 to 4 trees."""
    beta = draw(st.sampled_from([2, 3, 4, 5]))
    n = draw(st.integers(1, {2: 9, 3: 6, 4: 5, 5: 4}[beta]))
    a = draw(_POSITIVE)
    dist = WeightDistribution.two_point(a, a + draw(_WIDTH), draw(st.floats(0.0, 1.0)))
    model = TreeModel.regular(beta, dist, lam=draw(_LAMS))
    return model, n, draw(st.integers(0, 2**20)), draw(st.integers(1, 4))


@PROPERTY
@given(atom_table_cases())
def test_atom_table_route_bit_identical(case):
    from treeohm import evaluate

    model, n, seed, cols = case
    want = [resistance_streaming(model, n, RngStream(seed, j)).resistance for j in range(2, 9)]
    assert resistance_fast(model, n, RngStream(seed, 2)).resistance == want[0]
    edges = (model.beta**n - 1) // (model.beta - 1)
    with mock.patch.object(evaluate, "_BLOCK_UNIFORMS", cols * edges):
        assert evaluate._regular_replicates(model, n, seed, 2, 9).tolist() == want


_RANGE_LAWS = {"twopoint": WeightDistribution.two_point(0.5, 1.5),
               "unif": WeightDistribution.uniform(0.5, 1.5),
               "disc3": WeightDistribution.discrete([(0.5, 0.2), (1.0, 0.5), (2.5, 0.3)])}


@st.composite
def range_cases(draw):
    """A replicate range of a regular model under a small _ACC_TREES and a
    small budget that fits d levels of the tree and not d + 1: the tree
    whole (no level above d) or in runs under one or two top levels, cut
    at the roots or lower, in one top block or several."""
    beta = draw(st.sampled_from([2, 3, 5]))
    top = draw(st.sampled_from([1, 2, 0]))
    deepest = {2: 9, 3: 6, 5: 4}[beta] - top
    d = deepest - draw(st.integers(0, deepest - 1))
    budget = draw(st.integers((beta**d - 1) // (beta - 1), (beta ** (d + 1) - 1) // (beta - 1) - 1))
    law = _RANGE_LAWS[draw(st.sampled_from(sorted(_RANGE_LAWS)))]
    model = TreeModel.regular(beta, law, lam=draw(_LAMS))
    acc_trees = draw(st.sampled_from([4, 3, 2, 1]))
    return (model, d + top, budget, acc_trees, draw(st.integers(0, 2**20)),
            draw(st.integers(0, 20)), draw(st.integers(1, 12)))


@PROPERTY
@given(range_cases())
# reg:2 n = 7 in runs of 6 levels under one top level, cut at run level 2:
# top blocks of 2 trees, the last of 5 trees partial
@example((TreeModel.regular(2, _RANGE_LAWS["twopoint"]), 7, 64, 2, 3, 4, 5))
def test_regular_ranges_match_streaming(case):
    from treeohm import evaluate

    model, n, budget, acc_trees, seed, j0, m = case
    want = [resistance_streaming(model, n, RngStream(seed, j)).resistance
            for j in range(j0, j0 + m)]
    with mock.patch.object(evaluate, "_BLOCK_UNIFORMS", budget), \
            mock.patch.object(evaluate, "_ACC_TREES", acc_trees):
        assert evaluate._regular_replicates(model, n, seed, j0, j0 + m).tolist() == want


@PROPERTY
@given(trees())
def test_flow_matches_fold_and_energy(tree):
    flow = solve_flow(tree)
    r = resistance_of_tree(tree)
    assert flow.resistance == r
    assert abs(flow.energy - r) <= TOL * r


@PROPERTY
@given(weight_laws(), st.integers(1, 9), st.integers(0, 2**20))
def test_flow_bound_report_holds(dist, n, seed):
    # the optimal flow under the per-edge bound, and the scaled fourth-power
    # sum under its ceiling; a constant law at n = 1 meets the bound exactly
    tree = sample_tree_explicit(TreeModel.regular(2, dist), n, RngStream(seed, 1))
    flow = solve_flow(tree)
    report = flow_bound_report(flow, dist)
    assert report.min_margin >= -TOL * report.bound.max()
    assert report.s4_scaled <= report.b4 * (1 + TOL)
    # taken per level and gathered, the bound and 4**d give the per-edge bytes
    d = tree.level.astype(np.float64)
    bound = (dist.b * n) / (dist.a * (n - d + 1.0) * 2.0 ** (d - 1.0))
    margin = bound - flow.theta
    t4 = flow.theta**4
    assert report.bound.tobytes() == bound.tobytes()
    assert report.margin.tobytes() == margin.tobytes()
    assert report.min_margin == float(margin.min())
    assert report.s4_scaled == float(np.sum(4.0**d * t4))
    assert report.s4_plain == float(np.sum(t4))


@st.composite
def wide_trees(draw):
    """Regular and branching trees with spread weights whose widest level
    holds 8 or more nodes (every node branches, so level 4 holds 8), past
    the 8-wide blocks of numpy's pairwise sum and, at the deepest, past its
    128-element split."""
    law, lam = draw(weight_laws().filter(lambda dist: dist.b > dist.a)), draw(_LAMS)
    if draw(st.booleans()):
        beta, n = draw(st.sampled_from([(2, 4), (2, 6), (2, 9), (3, 3), (3, 6)]))
        model = TreeModel.regular(beta, law, lam=lam)
    else:
        counts = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3, unique=True))
        masses = draw(st.lists(st.integers(1, 4), min_size=len(counts), max_size=len(counts)))
        offspring = [(k, m / sum(masses)) for k, m in zip(counts, masses)]
        model = TreeModel.galton_watson(offspring, law, lam=lam)
        n = draw(st.integers(4, 7))
    return sample_tree_explicit(model, n, RngStream(draw(st.integers(0, 2**20)), 1))


@PROPERTY
@given(wide_trees())
def test_shorted_resistance_is_the_per_level_sum(tree):
    # one reciprocal pass, then each level summed: the bits of the per-level form
    scales = level_scales(tree.lam, tree.n_levels)
    w, off = tree.weight[tree.order], tree.offsets
    assert max(np.diff(off)) >= 8
    per_level = math.fsum(scales[l] / float(np.sum(1.0 / w[off[l]:off[l + 1]]))
                          for l in range(tree.n_levels))
    assert shorted_resistance_of_tree(tree) == per_level


@PROPERTY
@given(st.sampled_from(["const:1", "twopoint:0.5,1.5", "unif:0.5,1.5"]),
       st.integers(1, 5), st.integers(1, 40), st.integers(0, 2**20))
def test_gw_summary_is_the_median_and_unique_form(law, n, trees, seed):
    # odd and even tree counts; constant and two-point weights give ties
    model = TreeModel.galton_watson([(1, 0.5), (2, 0.3), (3, 0.2)], parse_distribution(law))
    report = gw_experiment(model, n, trees, seed)
    cond = {int(v): float(np.mean(report.n_times_c[report.b1 == v]))
            for v in np.unique(report.b1)}
    assert list(report.cond_mean_nc.items()) == list(cond.items())
    median = float(np.median((report.resistance / n) * report.w_hat))
    assert report.median_scaled_product == median


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
@given(st.one_of(regular_cases(((3, 5, 7),)), gw_cases(5, 9)))
def test_dense_oracle_agrees_near_guard(case):
    """Trees up to the oracle's node guard: reg:3 at n = 5..7 and branching
    laws with offspring counts of at most 3 at n = 5..9."""
    model, n, seed = case
    tree = sample_tree_explicit(model, n, RngStream(seed, 1))
    if tree.n_nodes > ORACLE_GUARD:
        return
    gaps = oracle_compare(tree)
    assert gaps.resistance_rel_gap <= TOL
    assert gaps.max_theta_gap <= TOL
    assert gaps.max_voltage_gap <= TOL
    system = build_dense_system(tree)
    assert (_gauss_solve(system.matrix, system.rhs).tobytes()
            == dense_gauss_solve(system.matrix, system.rhs).tobytes())


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


# master seeds of one to six 32-bit words, and stream ranges at both ends of
# the one-word spawn keys
_MASTER_SEEDS = st.one_of(st.integers(0, 2**32), st.integers(0, 2**128 + 2**20),
                          st.integers(2**128 - 2**20, 2**192))
_RANGE_STARTS = st.one_of(st.integers(0, 40), st.integers(STREAM_LIMIT - 40, STREAM_LIMIT - 1))


@PROPERTY
@given(_MASTER_SEEDS, _RANGE_STARTS, st.integers(1, 12))
def test_range_seeds_match_seed_sequence(master_seed, j0, count):
    j1 = min(j0 + count, STREAM_LIMIT)
    words = _seed_words(master_seed, j0, j1)
    assert words.dtype == np.uint64 and words.shape == (j1 - j0, 4)
    for j, row in enumerate(words, j0):
        want = np.random.SeedSequence(master_seed, spawn_key=(j,)).generate_state(4, np.uint64)
        assert row.tolist() == want.tolist()
    for j, rng in enumerate(streams(master_seed, j0, j1), j0):
        assert (rng.master_seed, rng.stream_index) == (master_seed, j)
        assert rng.uniforms(5).tolist() == RngStream(master_seed, j).uniforms(5).tolist()


@PROPERTY
@given(_MASTER_SEEDS, _RANGE_STARTS, st.integers(1, 12),
       st.lists(st.integers(0, 9), min_size=1, max_size=4))
def test_lockstep_draws_match_lone_streams(master_seed, j0, count, sizes):
    # every warning fails a test, so the uint64 wraparound of the lockstep
    # arithmetic must pass silently
    j1 = min(j0 + count, STREAM_LIMIT)
    block = stream_block(master_seed, j0, j1)
    assert (block.master_seed, block.stream_index) == (master_seed, j0)
    got = np.concatenate([block.uniforms(k) for k in sizes])
    total = sum(sizes)
    assert got.dtype == np.float64 and got.shape == (total, j1 - j0)
    # draws split across calls are the draws of one call
    assert np.array_equal(got, stream_block(master_seed, j0, j1).uniforms(total))
    for j in range(j0, j1):
        assert got[:, j - j0].tolist() == RngStream(master_seed, j).uniforms(total).tolist()


@PROPERTY
@given(_MASTER_SEEDS, _RANGE_STARTS, st.booleans(),
       st.integers(0, 20), st.booleans(),
       st.lists(st.tuples(st.integers(0, 300), st.integers(0, 300)), min_size=1, max_size=4))
def test_peek_reads_ahead_without_consuming(master_seed, j, ranged, drawn, half, peeks):
    """peek(size, skip) is uniforms(skip + size)[skip:], on a lone stream and
    on one of streams(), part-way through, with or without a 32-bit half
    that integers() left buffered; the later draws do not move."""
    def stream():
        return next(streams(master_seed, j, j + 1)) if ranged else RngStream(master_seed, j)

    rng, ref, ahead = stream(), RngStream(master_seed, j), RngStream(master_seed, j)
    for s in (rng, ref, ahead):
        s.uniforms(drawn)
        if half:
            s.integers(0, 10)
    want = ahead.uniforms(600)
    for size, skip in peeks:
        assert rng.peek(size, skip).tolist() == want[skip:skip + size].tolist()
    assert rng.integers(0, 10, 5).tolist() == ref.integers(0, 10, 5).tolist()
    assert rng.uniforms(5).tolist() == ref.uniforms(5).tolist()
