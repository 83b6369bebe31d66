import inspect
import math

import numpy as np
import pytest

from treeohm import (
    MEMORY_GUARD,
    GuardError,
    RngStream,
    SampledTree,
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
    sample_tree_explicit,
    shorted_resistance_of_tree,
)
from tests.conftest import build_tree, reweighted, scalar_gw_tree, tiled_dfs_layout


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

    @pytest.mark.parametrize("beta, n", [(2, 1), (2, 2), (2, 9), (3, 5), (5, 4)])
    def test_regular_layout_is_the_level_sort(self, beta, n):
        from treeohm.evaluate import _level_major

        order, offsets = _level_major(tiled_dfs_layout(beta, n)[0], n)
        # the reference: level l holds beta**(l-1) nodes, and the children of
        # the pre-order node p at level l are p + 1 + i * size for i < beta,
        # where size is the node count of a subtree rooted at level l + 1
        want = np.concatenate(([0], np.cumsum(beta ** np.arange(n))))
        assert offsets.dtype == want.dtype and np.array_equal(offsets, want)
        assert order.dtype == np.int64 and order[0] == 0
        for l in range(1, n):
            size = (beta ** (n - l) - 1) // (beta - 1)
            kids = order[want[l - 1]:want[l], None] + 1 + size * np.arange(beta)
            assert np.array_equal(order[want[l]:want[l + 1]], kids.ravel())

    @pytest.mark.parametrize("beta, n", [(beta, n) for beta, h in ((2, 4), (3, 3), (4, 2),
                                                                   (5, 2), (14, 2))
                                         for n in range(1, h + 4)])
    def test_computed_layout_is_the_level_sort(self, beta, n, monkeypatch):
        from treeohm import evaluate

        budget = 64
        monkeypatch.setattr(evaluate, "_BLOCK_UNIFORMS", budget)
        h = evaluate._table_height(beta)
        # a tree of more edges than the budget is laid out as its run, the
        # subtree of its bottom d levels, the most that fit the budget
        d = min(n, evaluate._levels_within(beta, budget))
        edges = (beta**d - 1) // (beta - 1)
        assert edges <= budget and (d < n) == ((beta**n - 1) // (beta - 1) > budget)
        order, offsets = evaluate._level_major(tiled_dfs_layout(beta, d)[0], d)
        for dist, route in ((WeightDistribution.two_point(0.5, 1.5), d > h),
                            (WeightDistribution.uniform(0.5, 1.5), False)):
            model = TreeModel.regular(beta, dist)
            layout = evaluate._regular_layout(model, n)
            assert layout.edges == edges and (layout.table is not None) == route
            assert layout.scales.tobytes() == model.scales(n)[n - d:].tobytes()
            top = d - h if route else d
            assert layout.offsets.dtype == offsets.dtype
            assert np.array_equal(layout.offsets, offsets[:top + 1 + route])
            assert layout.order.dtype == order.dtype
            assert np.array_equal(layout.order, order[:offsets[top]])
            if not route:
                assert layout.byte is layout.shift is None
                continue
            roots = order[offsets[top]:offsets[top + 1]]
            assert np.array_equal(layout.byte, roots >> 3)
            assert layout.shift.dtype == np.uint8
            assert np.array_equal(layout.shift, roots & 7)

    @pytest.mark.parametrize("beta", [2, 3, 4])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_layout_levels_and_parents_are_the_tiled_ones(self, beta, n):
        from treeohm.evaluate import _explicit_layout

        model = TreeModel.regular(beta, WeightDistribution.uniform(0.5, 1.5))
        level = _explicit_layout(model, n).level
        parent = sample_tree_explicit(model, n, RngStream(0)).parent
        for got, want in zip((level, parent), tiled_dfs_layout(beta, n)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

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

    @pytest.mark.parametrize("evaluate, branching", [
        (resistance_streaming, False), (resistance_fast, False),
        (sample_tree_explicit, False), (sample_tree_explicit, True),
    ], ids=["streaming", "fast", "explicit-regular", "explicit-branching"])
    @pytest.mark.parametrize("too_deep", [False, True], ids=["n0", "61-levels"])
    def test_depth_refused_before_layout_or_draw(self, evaluate, branching, too_deep,
                                                 monkeypatch):
        import treeohm.evaluate

        def no_layout(*args):
            raise AssertionError("layout built before the depth check")

        monkeypatch.setattr(treeohm.evaluate, "_regular_order", no_layout)
        dist = WeightDistribution.uniform(0.5, 1.5)
        if branching:  # gw:2:1, whose depth n has n + 1 edge levels
            model, n = TreeModel.galton_watson([(2, 1.0)], dist), 60
        else:
            model, n = TreeModel.regular(2, dist), 61
        rng = RngStream(4, 1)
        with pytest.raises(GuardError if too_deep else ValidationError):
            evaluate(model, n if too_deep else 0, rng)
        assert rng.uniforms(1)[0] == RngStream(4, 1).uniforms(1)[0]


class TestAtomTable:
    """A law with one or two atoms reads a regular tree's bottom h levels
    from one table of subtree resistances per depth; every route must keep
    the scalar recursion's bits."""

    _LAWS = {
        **{f"twopoint-p{p}": WeightDistribution.two_point(0.5, 1.5, p)
           for p in (0.0, 0.3, 0.5, 0.9, 1.0)},
        "const": WeightDistribution.constant(0.7),
        "disc": WeightDistribution.discrete([(0.4, 0.35), (2.5, 0.65)]),
    }
    # laws on the float route
    _FLOAT_LAWS = {
        "unif": WeightDistribution.uniform(0.5, 1.5),
        "disc3": WeightDistribution.discrete([(0.5, 0.2), (1.0, 0.5), (2.5, 0.3)]),
    }
    # depths at and below the table height h, above it in lockstep and
    # above it from Generators
    _DEPTHS = {2: (3, 4, 5, 6, 7), 3: (2, 3, 4, 5), 4: (1, 2, 3, 4), 5: (1, 2, 3, 4)}

    @pytest.mark.parametrize("beta, h", [(2, 4), (3, 3), (4, 2), (14, 2), (15, 1)])
    def test_table_height(self, beta, h):
        from treeohm.evaluate import _TABLE_BITS, _table_height

        assert _table_height(beta) == h
        assert (beta**h - 1) // (beta - 1) <= _TABLE_BITS < (beta ** (h + 1) - 1) // (beta - 1)

    @pytest.mark.parametrize("beta, dist, lam, stride", [
        (2, WeightDistribution.two_point(0.5, 1.5, 0.5), 2.0, 1),
        (3, WeightDistribution.two_point(1.0, 3.0, 0.3), 0.8, 1),
        (4, WeightDistribution.discrete([(0.4, 0.35), (2.5, 0.65)]), 2.7, 1),
        (5, WeightDistribution.constant(0.7), 1.3, 1),
        (14, WeightDistribution.two_point(0.5, 1.5, 0.9), 1.3, 7),
    ], ids=["beta2", "beta3", "beta4", "beta5", "beta14"])
    def test_entries_are_the_resistance_of_their_tree(self, beta, dist, lam, stride):
        from treeohm.evaluate import _atom_table, _table_height

        h = _table_height(beta)
        level = tiled_dfs_layout(beta, h)[0]
        table = _atom_table(dist, beta, level_scales(lam, h))
        assert table.shape == (2 ** len(level),) and table.dtype == np.float64
        (lo, _), (hi, _) = dist.atoms[0], dist.atoms[-1]
        # bit j of an index set: the first atom at pre-order position j
        for code in range(0, len(table), stride):
            weight = np.where((code >> np.arange(len(level))) & 1, lo, hi)
            tree = SampledTree(level, weight, lam, "regular", beta)
            assert table[code] == resistance_of_tree(tree)

    @pytest.mark.parametrize("law", sorted(_LAWS))
    @pytest.mark.parametrize("beta", sorted(_DEPTHS))
    def test_split_blocks_match_streaming(self, beta, law, monkeypatch):
        from treeohm import evaluate

        h = evaluate._table_height(beta)
        depths = self._DEPTHS[beta]
        sizes = [(beta**n - 1) // (beta - 1) for n in depths]
        assert depths[0] <= h < depths[-1]
        assert any(n > h and e <= evaluate._LOCKSTEP_EDGES for n, e in zip(depths, sizes))
        assert sizes[-1] > evaluate._LOCKSTEP_EDGES
        dist = self._LAWS[law]
        for lam in (None, 0.8, 1.3, 2.7):
            model = TreeModel.regular(beta, dist, lam=lam)
            for n, edges in zip(depths, sizes):
                # blocks of 3 trees: replicates 5..11 fill two and a third
                monkeypatch.setattr(evaluate, "_BLOCK_UNIFORMS", 3 * edges)
                want = [resistance_streaming(model, n, RngStream(9, j)).resistance
                        for j in range(5, 12)]
                assert evaluate._regular_replicates(model, n, 9, 5, 12).tolist() == want
                assert resistance_fast(model, n, RngStream(9, 5)).resistance == want[0]

    @pytest.mark.parametrize("law", sorted(_LAWS) + sorted(_FLOAT_LAWS))
    @pytest.mark.parametrize("beta, n, budget", [(2, 7, 40), (3, 5, 32), (4, 4, 24),
                                                 (5, 4, 48)])
    def test_pieces_match_streaming(self, beta, n, budget, law, monkeypatch):
        """A tree of more edges than the budget is folded in pieces: the
        runs of its largest subtrees that fit, on either route, below top
        levels folded over blocks of trees."""
        from treeohm import evaluate

        # runs of fewer than _LOCKSTEP_EDGES edges, still one stream per tree
        monkeypatch.setattr(evaluate, "_BLOCK_UNIFORMS", budget)
        m = 11
        for lam in (None, 0.8, 2.7):
            model = TreeModel.regular(beta, {**self._LAWS, **self._FLOAT_LAWS}[law], lam=lam)
            layout = evaluate._regular_layout(model, n)
            top = n - len(layout.scales)
            assert top >= 1 and layout.edges <= budget
            # the range's top rows, a slot per top node and per run, fill
            # more than one block of the budget
            assert m > budget // ((beta ** (top + 1) - 1) // (beta - 1))
            want = [resistance_streaming(model, n, RngStream(9, j)).resistance
                    for j in range(5, 5 + m)]
            assert evaluate._regular_replicates(model, n, 9, 5, 5 + m).tolist() == want
            assert resistance_fast(model, n, RngStream(9, 5)).resistance == want[0]

    def test_deep_tree_memory_is_bounded_by_the_block_budget(self):
        import tracemalloc

        from treeohm.evaluate import _regular_replicates

        # reg:2 n = 18 has 262143 edges and n = 22 4194303, 2 and 32 MiB of
        # uniforms, folded in runs of 65535 edges on the table and the
        # float route
        for dist, n, m in ((WeightDistribution.two_point(0.5, 1.5), 18, 3),
                           (WeightDistribution.uniform(0.5, 1.5), 22, 2)):
            model = TreeModel.regular(2, dist)
            _regular_replicates(model, 14, 1, 0, 1)  # the first range loads numpy.random
            tracemalloc.start()
            try:
                _regular_replicates(model, n, 1, 0, m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3 * 2**20

    def test_generator_block_memory_is_bounded(self):
        import tracemalloc

        from treeohm.evaluate import _regular_replicates

        # reg:2 n = 15 draws blocks of 2 trees of 32767 edges: 512 KiB of
        # uniforms, the 256 KiB atom table and the 128 KiB accumulator of
        # narrow top levels.  Building the table in one piece took 1.80 MiB
        model = TreeModel.regular(2, WeightDistribution.two_point(0.5, 1.5))
        _regular_replicates(model, 15, 1, 0, 1)  # the first range loads numpy.random
        tracemalloc.start()
        try:
            _regular_replicates(model, 15, 1, 0, 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20

    @pytest.mark.parametrize("beta, law, n, route", [
        (2, "twopoint-p0.5", 5, True), (2, "twopoint-p0.5", 6, True),
        (2, "twopoint-p0.5", 7, True), (2, "twopoint-p0.5", 14, True),
        (3, "const", 4, True), (4, "disc", 3, True),
        (2, "twopoint-p0.5", 1, False), (2, "twopoint-p0.5", 4, False),
        (2, "unif", 5, False), (2, "disc3", 5, False), (15, "twopoint-p0.5", 2, False),
    ])
    def test_route_runs_where_it_applies(self, beta, law, n, route, monkeypatch):
        from treeohm import evaluate

        model = TreeModel.regular(beta, {**self._LAWS, **self._FLOAT_LAWS}[law])
        layout = evaluate._regular_layout(model, n)
        h = evaluate._table_height(beta)
        assert layout.edges == (beta**n - 1) // (beta - 1)
        assert (layout.table is not None) == route
        top = n - h if route else n
        assert len(layout.offsets) == top + 1 + route
        assert len(layout.order) == layout.offsets[top] == (beta**top - 1) // (beta - 1)
        # the replicate loop takes the layout that says so and reads its
        # table; a lone tree cannot pay for a table and keeps the float path
        seen, reads = [], []
        layout_of, codes_of = evaluate._regular_layout, evaluate._table_codes

        def layout_spy(model, n, table=True):
            layout = layout_of(model, n, table)
            seen.append(layout.table is not None)
            return layout

        def codes_spy(layout, bits):
            reads.append(len(seen))
            return codes_of(layout, bits)

        monkeypatch.setattr(evaluate, "_regular_layout", layout_spy)
        monkeypatch.setattr(evaluate, "_table_codes", codes_spy)
        got = evaluate._regular_replicates(model, n, 3, 0, 2)
        fast = resistance_fast(model, n, RngStream(3)).resistance
        assert seen == [route, False]
        assert bool(reads) == route and set(reads) <= {1}
        assert got[0] == fast == resistance_streaming(model, n, RngStream(3)).resistance

    @pytest.mark.parametrize("dist, n, m, route, acc_trees, flushes", [
        (WeightDistribution.two_point(0.5, 1.5), 14, 8, True, None, 1),
        (WeightDistribution.uniform(0.5, 1.5), 7, 600, False, None, 0),
        (WeightDistribution.two_point(0.5, 1.5), 15, 20, True, 8, 3),
        (WeightDistribution.two_point(0.5, 1.5), 14, 3, True, None, 0),
    ], ids=["table-route", "float-route", "table-route-flushes", "table-route-one-block"])
    def test_block_maps_its_rows_in_one_call(self, dist, n, m, route, acc_trees, flushes,
                                             monkeypatch):
        from treeohm import evaluate

        # blocks of 4 trees at n = 14, which one accumulator flush folds
        # together, and of 516 at n = 7, too wide for one: two blocks each;
        # at n = 15, ten blocks of 2 trees, which fill an accumulator of 8
        # trees twice and end in a partial flush of 4; 3 trees at n = 14 are
        # one block, which needs no accumulator
        if acc_trees is not None:
            monkeypatch.setattr(evaluate, "_ACC_TREES", acc_trees)
        model = TreeModel.regular(2, dist)
        layout = evaluate._regular_layout(model, n)
        assert (layout.table is not None) == route
        cols = evaluate._BLOCK_UNIFORMS // layout.edges
        blocks = -(-m // cols)
        shapes, folds = [], []
        transform, scale_fold = evaluate._transform, evaluate._scale_fold

        def spy(dist, u):
            shapes.append(u.shape)
            return transform(dist, u)

        def fold_spy(g, *args):
            folds.append(g.shape)
            return scale_fold(g, *args)

        monkeypatch.setattr(evaluate, "_transform", spy)
        monkeypatch.setattr(evaluate, "_scale_fold", fold_spy)
        got = evaluate._regular_replicates(model, n, 3, 0, m)
        # one call per block, over every row the block gathers, and none
        # for an accumulator flush, whose rows are mapped already
        assert [rows for rows, _ in shapes] == [len(layout.order)] * blocks
        assert sum(cols for _, cols in shapes) == m
        assert len(folds) == blocks + flushes
        for j in (0, m - 1):
            assert got[j] == resistance_streaming(model, n, RngStream(3, j)).resistance


class TestDrawSource:
    """A block drawn in lockstep and one drawn from a Generator per stream
    run the same kernel, so _LOCKSTEP_EDGES moves no bit."""

    @pytest.mark.parametrize("law", ["twopoint", "unif"])
    @pytest.mark.parametrize("beta, n", [(2, n) for n in range(4, 9)]
                             + [(3, n) for n in range(3, 6)])
    def test_draw_source_never_moves_bits(self, beta, n, law, monkeypatch):
        from treeohm import evaluate

        dist = {"twopoint": WeightDistribution.two_point(0.5, 1.5),
                "unif": WeightDistribution.uniform(0.5, 1.5)}[law]
        model = TreeModel.regular(beta, dist)
        cols = evaluate._BLOCK_UNIFORMS // ((beta**n - 1) // (beta - 1))
        # one partial block, and a full block and 7 trees more
        for m in (9, cols + 7):
            got = []
            for lockstep_edges in (0, 2047):
                monkeypatch.setattr(evaluate, "_LOCKSTEP_EDGES", lockstep_edges)
                got.append(evaluate._regular_replicates(model, n, 5, 3, 3 + m).tobytes())
            assert got[0] == got[1]

    @pytest.mark.parametrize("law", ["twopoint", "unif"])
    def test_runs_of_lockstep_size_draw_from_generators(self, law):
        from treeohm import evaluate

        # at beta 2**16 a depth-2 tree of 65537 edges is folded in runs of
        # one edge, fewer than _LOCKSTEP_EDGES, still one stream per tree
        dist = {"twopoint": WeightDistribution.two_point(0.5, 1.5),
                "unif": WeightDistribution.uniform(0.5, 1.5)}[law]
        model = TreeModel.regular(2**16, dist)
        layout = evaluate._regular_layout(model, 2)
        assert layout.edges == 1 <= evaluate._LOCKSTEP_EDGES
        want = [resistance_streaming(model, 2, RngStream(5, j)).resistance for j in (3, 4)]
        assert evaluate._regular_replicates(model, 2, 5, 3, 5).tolist() == want


class TestAccumulator:
    """In a range of more than one block of fewer than _ACC_TREES trees, a
    block folds its levels up to the cut and leaves the top levels of _ACC_TREES trees to one
    accumulator, flushed when the next block does not fit and when the
    range ends.  Ranges that miss, fill and overflow it keep the scalar
    recursion's bits, wherever the cut falls."""

    _LAWS = {"twopoint": WeightDistribution.two_point(0.5, 1.5),
             "unif": WeightDistribution.uniform(0.5, 1.5)}

    # (beta, law, n, budget, W, where): a small budget and accumulator put
    # the cut (_acc_levels) above, at or below the table level, on the
    # float route, in a tree folded in runs or both; "within" trees have no
    # more levels than the cut and fold whole, in lockstep or in blocks of
    # W or more trees
    _CASES = [
        (2, "twopoint", 9, 512, 4, "above"), (2, "twopoint", 8, 512, 4, "at"),
        (2, "twopoint", 9, 2040, 4, "below"), (2, "unif", 9, 512, 4, "float"),
        (2, "twopoint", 9, 128, 4, "above-runs"), (2, "twopoint", 9, 496, 2, "at-runs"),
        (2, "unif", 9, 128, 4, "float-runs"),
        (2, "unif", 7, 2040, 4, "within"), (2, "twopoint", 5, 512, 4, "within"),
        (3, "twopoint", 6, 400, 4, "above"), (3, "twopoint", 6, 640, 4, "at"),
        (3, "unif", 5, 400, 4, "float"), (3, "twopoint", 6, 160, 4, "above-runs"),
        (3, "unif", 6, 160, 4, "float-runs"),
        (3, "twopoint", 3, 400, 4, "within"),
        (5, "twopoint", 4, 200, 4, "above"), (5, "twopoint", 4, 496, 4, "at"),
        (5, "unif", 4, 200, 4, "float"), (5, "twopoint", 5, 200, 2, "above-runs"),
        (5, "unif", 2, 200, 4, "within"),
    ]

    @pytest.mark.parametrize("beta, law, n, budget, trees, where", _CASES,
                             ids=[f"beta{c[0]}-{c[1]}-n{c[2]}-{c[5]}" for c in _CASES])
    def test_ranges_around_the_accumulator_match_streaming(self, beta, law, n, budget,
                                                           trees, where, monkeypatch):
        from treeohm import evaluate

        monkeypatch.setattr(evaluate, "_BLOCK_UNIFORMS", budget)
        monkeypatch.setattr(evaluate, "_ACC_TREES", trees)
        cut = evaluate._acc_levels(beta)
        for lam in (None, 1.3):
            model = TreeModel.regular(beta, self._LAWS[law], lam=lam)
            layout = evaluate._regular_layout(model, n)
            levels = len(layout.offsets) - 1
            if where == "within":
                assert n <= cut
            else:
                assert layout.edges > evaluate._LOCKSTEP_EDGES
                assert budget // layout.edges < trees and cut >= 2
                # a run's layout, of d < n levels, fits the budget
                assert (len(layout.scales) < n) == where.endswith("-runs")
                assert layout.edges <= budget
                assert (layout.table is None) == where.startswith("float")
                relation = {"above": cut < levels, "at": cut == levels,
                            "below": cut > levels, "float": cut < levels}
                assert relation[where.split("-")[0]]
            want = [resistance_streaming(model, n, RngStream(9, j)).resistance
                    for j in range(7, 7 + 2 * trees + 3)]
            for m in (trees - 1, trees, trees + 1, 2 * trees + 3):
                assert evaluate._regular_replicates(model, n, 9, 7, 7 + m).tolist() == want[:m]

    def test_accumulator_fits_a_quarter_of_the_budget(self):
        from treeohm.evaluate import _ACC_TREES, _BLOCK_UNIFORMS, _acc_levels

        assert [_acc_levels(beta) for beta in (2, 3, 4, 14)] == [9, 6, 5, 3]
        for beta in (2, 3, 4, 5, 14, 40):
            t = _acc_levels(beta)
            assert _ACC_TREES * (beta**t - 1) // (beta - 1) <= _BLOCK_UNIFORMS // 4


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

    @pytest.mark.parametrize("model", [
        TreeModel.regular(2, WeightDistribution.uniform(0.5, 1.5)),
        TreeModel.regular(3, parse_distribution("disc:0.5:0.25,1.0:0.5,1.5:0.25"), lam=1.3),
        TreeModel.galton_watson(parse_offspring("1:0.3,2:0.4,3:0.3"),
                                WeightDistribution.uniform(0.5, 1.5)),
        TreeModel.galton_watson(parse_offspring("1:0.5,4:0.5"),
                                WeightDistribution.two_point(0.5, 1.5), lam=0.7),
    ], ids=["reg2", "reg3-lam", "gw123", "gw14-lam"])
    def test_derived_depth_and_resistances(self, model):
        for n in (1, 3, 5):
            for j in range(3):
                tree = sample_tree_explicit(model, n, RngStream(9, j))
                assert tree.n_levels == int(tree.level.max())
                assert tree.n_levels == (n if model.shape == "regular" else n + 1)
                want = tree.weight * level_scales(model.lam, tree.n_levels)[tree.level - 1]
                assert tree.resistance.tobytes() == want.tobytes()
                node = tree.n_nodes // 2
                bumped = reweighted(tree, node, 2.5)
                changed = np.flatnonzero(bumped.resistance != tree.resistance)
                assert changed.tolist() == [node]
                assert bumped.resistance[node] == 2.5 * level_scales(
                    model.lam, tree.n_levels)[tree.level[node] - 1]
                assert bumped.n_levels == tree.n_levels
                assert tree.weight[node] != 2.5  # the source tree is untouched

    @pytest.mark.parametrize("model, ns", [
        (TreeModel.regular(2, WeightDistribution.uniform(0.5, 1.5)), range(1, 11)),
        (TreeModel.regular(3, WeightDistribution.two_point(0.5, 1.5), lam=1.3), range(1, 7)),
        (TreeModel.galton_watson(parse_offspring("1:0.5,2:0.5"),
                                 WeightDistribution.uniform(0.5, 1.5)), range(1, 13)),
        (TreeModel.galton_watson([(2, 1.0)], WeightDistribution.constant(1.0)), range(1, 9)),
    ], ids=["reg2", "reg3-lam", "gw12", "gw2-deterministic"])
    def test_builder_route_is_the_checked_route(self, model, ns):
        from treeohm import stats

        def same(j, tree):
            checked = SampledTree(tree.level.copy(), tree.weight.copy(), tree.lam, tree.shape,
                                  tree.beta)
            assert (tree.n_levels, tree.lam, tree.shape, tree.beta) == (
                checked.n_levels, checked.lam, checked.shape, checked.beta)
            for name in ("level", "weight", "resistance", "parent", "order", "offsets",
                         "slot"):
                got, want = getattr(tree, name), getattr(checked, name)
                assert got.dtype == want.dtype and got.shape == want.shape, name
                assert got.tobytes() == want.tobytes(), name
                assert not got.flags.writeable and not want.flags.writeable, name
            return j

        ns = list(ns)
        for n in ns:  # a lone tree builds its own layout
            same(n, sample_tree_explicit(model, n, RngStream(6, n)))
        # trees of one chunk share their depth's layout
        assert stats.map_trees(same, model, ns, 3 * len(ns), 6) == list(range(3 * len(ns)))

    def test_constructor_takes_what_is_not_derived(self):
        params = list(inspect.signature(SampledTree).parameters)
        assert params == ["level", "weight", "lam", "shape", "beta"]

    @pytest.mark.parametrize("level", [[1, 2, 2, 3], [1, 1], [1, 3], [2], [1, 2, 3, 2]],
                             ids=["leaf-above-bottom", "second-root", "skipped-level",
                                  "no-root", "last-node-above-bottom"])
    def test_levels_of_no_tree_are_refused(self, level):
        with pytest.raises(ValidationError, match="^level: "):
            SampledTree(np.array(level, dtype=np.int64), np.ones(len(level)), 2.0, "gw")

    @pytest.mark.parametrize("count", [1, 2, 4], ids=["broadcast", "short", "long"])
    def test_weights_not_one_per_node_are_refused(self, count):
        with pytest.raises(ValidationError, match="^weight: "):
            SampledTree(np.array([1, 2, 2]), np.ones(count), 2.0, "gw")

    @pytest.mark.parametrize("w", [0.0, math.nan, -1.0, math.inf])
    def test_weights_out_of_range_are_refused(self, w):
        with pytest.raises(ValidationError, match="^weight: .*finite and > 0; node 1 "):
            SampledTree(np.array([1, 2, 2]), np.array([1.0, w, 1.0]), 2.0, "gw")

    @pytest.mark.parametrize("w, lam, r", [(1e308, 1e10, "inf"), (1e-300, 1e-30, "0.0")],
                             ids=["overflow", "underflow"])
    def test_resistances_out_of_range_are_refused(self, w, lam, r):
        with pytest.raises(GuardError, match=f"node 1 .* = {r}$"):
            SampledTree(np.array([1, 2, 2]), np.array([1.0, w, 1.0]), lam, "gw")

    @pytest.mark.parametrize("parent, level, r", [
        ([-1, 0, 1, 1], [1, 2, 3, 3], 5.0),
        ([-1, 0, 1, 0, 3], [1, 2, 3, 2, 3], 4.0),
    ], ids=["one-pair", "two-chains"])
    def test_levels_fix_the_parents(self, parent, level, r):
        # unit weights at lam = 2: levels 1, 2 and 3 carry r = 1, 2 and 4
        tree = build_tree(parent, level, np.ones(len(level)), 2.0, "gw")
        assert resistance_of_tree(tree) == r
        assert kirchhoff_solve(tree).resistance == pytest.approx(r, rel=1e-12)

    @pytest.mark.parametrize("x", [math.inf, math.nan, 0.0, -1.0])
    def test_reweighted_refuses_a_weight_out_of_range(self, binary_twopoint_model, x):
        tree = sample_tree_explicit(binary_twopoint_model, 3, RngStream(1))
        with pytest.raises(ValidationError, match="finite and > 0"):
            reweighted(tree, 3, x)

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

    @pytest.mark.parametrize("count", [MEMORY_GUARD + 1, 2**58, 2**63 - 1])
    def test_gw_pending_children_over_guard_draw_nothing(self, count):
        # a node with 2^25 + 1 children puts the tree past the node guard
        # while its children are still pending; refused before any draw.
        # Counts whose pushes would pass int64 are refused the same way
        model = TreeModel.galton_watson([(1, 0.5), (count, 0.5)],
                                        WeightDistribution.constant(1.0))
        refused = 0
        for j in range(6):
            rng = RngStream(0, j)
            try:
                tree = sample_tree_explicit(model, 2, rng)
            except GuardError as exc:
                assert str(exc).startswith("branching tree has at least")
                assert rng.uniforms(1)[0] == RngStream(0, j).uniforms(1)[0]
                refused += 1
            else:
                assert tree.level.tolist() == [1, 2, 3]
        assert 0 < refused < 6

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
    # trees of tens to thousands of nodes, so each walks many chains and
    # some read past their first peek
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
