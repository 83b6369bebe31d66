import math

import numpy as np
import pytest

from treeohm import stats
from treeohm import (
    ReplicateSet,
    RngStream,
    TreeModel,
    ValidationError,
    WeightDistribution,
    flow_bound_report,
    estimate_moments,
    fit_expectation,
    fit_variance_slope,
    gw_experiment,
    map_trees,
    dist_sample_block,
    rde_levels,
    resistance_of_tree,
    resistance_streaming,
    run_replicates,
    sample_tree_explicit,
    solve_flow,
    sweep,
    tail_profile,
    variance_bound_constants,
)


class TestRunReplicates:
    def test_constant_model(self):
        model = TreeModel.regular(2, WeightDistribution.constant(1.0))
        batch = run_replicates(model, 5, 3, 42)
        assert batch.resistance.tolist() == [5.0, 5.0, 5.0]
        assert batch.conductance.tolist() == [0.2, 0.2, 0.2]

    def test_deterministic_per_seed(self, binary_twopoint_model):
        a = run_replicates(binary_twopoint_model, 6, 50, 7)
        b = run_replicates(binary_twopoint_model, 6, 50, 7)
        assert np.array_equal(a.resistance, b.resistance)

    def test_workers_do_not_change_values(self, binary_twopoint_model):
        serial = run_replicates(binary_twopoint_model, 6, 40, 7, workers=1)
        parallel = run_replicates(binary_twopoint_model, 6, 40, 7, workers=2)
        assert np.array_equal(serial.resistance, parallel.resistance)

    def test_pool_never_outnumbers_its_chunks(self, binary_twopoint_model, monkeypatch):
        sizes = []

        class InProcessPool:  # records the pool size and starts no process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        serial = run_replicates(binary_twopoint_model, 3, 5, 7, workers=1)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
        pooled = run_replicates(binary_twopoint_model, 3, 5, 7, workers=64)
        assert sizes == [5]  # 5 replicates split into chunks of one
        assert pooled.resistance.tolist() == serial.resistance.tolist()

    def test_envelope_seed7(self, binary_twopoint_model):
        batch = run_replicates(binary_twopoint_model, 10, 10**4, 7)
        assert batch.resistance.min() >= 5.0
        assert batch.resistance.max() <= 15.0

    def test_replicate_streams_match_singletons(self, binary_twopoint_model):
        from treeohm import resistance_fast

        batch = run_replicates(binary_twopoint_model, 5, 8, 99)
        for j in range(8):
            one = resistance_fast(binary_twopoint_model, 5, RngStream(99, j))
            assert batch.resistance[j] == one.resistance

    def test_branching_model(self):
        model = TreeModel.galton_watson(
            [(1, 0.5), (2, 0.5)], WeightDistribution.constant(1.0)
        )
        batch = run_replicates(model, 4, 20, 3)
        assert np.all(batch.resistance > 0)

    def test_bad_m(self, binary_twopoint_model):
        with pytest.raises(ValidationError):
            run_replicates(binary_twopoint_model, 4, 0, 1)


_LAWS = {
    "const": WeightDistribution.constant(1.3),
    "unif": WeightDistribution.uniform(0.5, 2.0),
    "twopoint": WeightDistribution.two_point(1.0, 3.0, 0.3),
    "disc": WeightDistribution.discrete([(0.5, 0.2), (1.0, 0.5), (2.5, 0.3)]),
}


def _block_rows(beta, n):
    from treeohm.evaluate import _BLOCK_UNIFORMS

    return max(1, _BLOCK_UNIFORMS // ((beta**n - 1) // (beta - 1)))


def _streamed(model, n, seed, j0, j1):
    return [resistance_streaming(model, n, RngStream(seed, j)).resistance
            for j in range(j0, j1)]


def _cutoff_depths(beta):
    """The depths whose trees have the most edges that still draw in
    lockstep, one level less and one level more."""
    from treeohm.evaluate import _LOCKSTEP_EDGES

    n = 1
    while (beta ** (n + 1) - 1) // (beta - 1) <= _LOCKSTEP_EDGES:
        n += 1
    return [n - 1, n, n + 1]


class TestBlockEvaluation:
    """Regular replicates are folded in blocks of columns; every column must
    equal the scalar recursion on its own stream, whatever block it lands
    in and whichever draw path fills it."""

    @pytest.mark.parametrize("beta", [2, 3])
    @pytest.mark.parametrize("step", [0, 1, 2], ids=["below", "top", "above"])
    def test_columns_across_the_lockstep_cutoff(self, beta, step):
        from treeohm.evaluate import _LOCKSTEP_EDGES, _regular_replicates

        n = _cutoff_depths(beta)[step]
        edges = (beta**n - 1) // (beta - 1)
        assert (edges <= _LOCKSTEP_EDGES) == (step < 2)
        if beta == 2 and step == 1:  # a binary depth sits at the cutoff
            assert edges == _LOCKSTEP_EDGES
        model = TreeModel.regular(beta, _LAWS["twopoint"], lam=1.3)
        cols = _block_rows(beta, n)
        j0, j1 = 11, 11 + cols + 7  # a full block, then 7 columns
        chunk = _regular_replicates(model, n, 2**70 + 3, j0, j1)
        assert chunk.tolist() == _streamed(model, n, 2**70 + 3, j0, j1)

    @pytest.mark.parametrize("law", sorted(_LAWS))
    @pytest.mark.parametrize("beta", [2, 3])
    # None derives lam from the arity; the ids keep the cases' established names
    @pytest.mark.parametrize("lam", [None, 1.3], ids=["0.0", "1.3"])
    @pytest.mark.parametrize("n", [2, 4])
    def test_many_rows_match_streaming(self, law, beta, lam, n):
        model = TreeModel.regular(beta, _LAWS[law], lam=lam)
        assert _block_rows(beta, n) > 1000
        batch = run_replicates(model, n, 30, 5)
        assert batch.resistance.tolist() == _streamed(model, n, 5, 0, 30)

    @pytest.mark.parametrize("beta", [2, 3])
    def test_partial_last_block_from_offset_chunk(self, beta):
        from treeohm.evaluate import _regular_replicates

        model = TreeModel.regular(beta, _LAWS["unif"], lam=1.3)
        rows = _block_rows(beta, 4)
        j0, j1 = 7, 7 + 2 * rows + 5  # two full blocks, then 5 rows
        chunk = _regular_replicates(model, 4, 21, j0, j1)
        assert chunk.tolist() == _streamed(model, 4, 21, j0, j1)
        # blocks of a run from 0 start elsewhere; the values do not move
        whole = run_replicates(model, 4, j1, 21).resistance
        assert np.array_equal(whole[j0:], chunk)

    @pytest.mark.parametrize("law", ["unif", "disc", "twopoint"])
    @pytest.mark.parametrize("beta, n", [(2, 14), (3, 10)])
    def test_few_rows_match_streaming(self, law, beta, n):
        model = TreeModel.regular(beta, _LAWS[law])
        rows = _block_rows(beta, n)
        assert 1 < rows < 10
        m = 2 * rows + 1
        batch = run_replicates(model, n, m, 9)
        assert batch.resistance.tolist() == _streamed(model, n, 9, 0, m)

    @pytest.mark.parametrize("law, beta, n", [("twopoint", 2, 17), ("const", 3, 11)])
    def test_one_row_blocks_match_streaming(self, law, beta, n):
        model = TreeModel.regular(beta, _LAWS[law], lam=1.3)
        assert _block_rows(beta, n) == 1
        batch = run_replicates(model, n, 2, 13)
        assert batch.resistance.tolist() == _streamed(model, n, 13, 0, 2)

    # the two-point select at p = 0 and p = 1 takes one atom everywhere
    _EDGE_LAWS = {
        "twopoint-p0": WeightDistribution.two_point(0.5, 1.5, 0.0),
        "twopoint-p1": WeightDistribution.two_point(0.5, 1.5, 1.0),
        "const": WeightDistribution.constant(0.7),
    }

    @pytest.mark.parametrize("law", sorted(_EDGE_LAWS))
    @pytest.mark.parametrize("beta, lam, n", [(2, None, 3), (4, None, 3), (4, 0.7, 4),
                                              (2, 0.7, 6)])
    def test_edge_laws_match_streaming(self, law, beta, lam, n):
        model = TreeModel.regular(beta, self._EDGE_LAWS[law], lam=lam)
        batch = run_replicates(model, n, 25, 17)
        assert batch.resistance.tolist() == _streamed(model, n, 17, 0, 25)

    @pytest.mark.parametrize("law", sorted(_LAWS))
    def test_partial_block_reads_no_stale_rows(self, law):
        from treeohm.evaluate import _regular_replicates

        # the last block fills only the first 3 rows of buffers that the
        # full block before it left holding other trees
        model = TreeModel.regular(4, _LAWS[law], lam=0.7)
        rows = _block_rows(4, 3)
        chunk = _regular_replicates(model, 3, 8, 2, 2 + rows + 3)
        assert chunk.tolist() == _streamed(model, 3, 8, 2, 2 + rows + 3)

    def test_chunk_at_the_top_of_the_stream_range(self):
        from treeohm.evaluate import _regular_replicates
        from treeohm.model import STREAM_LIMIT

        # one seed derivation spans the chunk's blocks up to the last index
        model = TreeModel.regular(2, _LAWS["unif"], lam=1.3)
        j0 = STREAM_LIMIT - _block_rows(2, 4) - 3
        chunk = _regular_replicates(model, 4, 2**70 + 5, j0, STREAM_LIMIT)
        assert chunk.tolist() == _streamed(model, 4, 2**70 + 5, j0, STREAM_LIMIT)

    @pytest.mark.parametrize("law", sorted(_LAWS))
    def test_single_edge_trees_match_streaming(self, law):
        # at n = 1 the whole block is one level of width 1
        model = TreeModel.regular(3, _LAWS[law])
        batch = run_replicates(model, 1, 40, 6)
        assert batch.resistance.tolist() == _streamed(model, 1, 6, 0, 40)
        assert len(set(batch.resistance.tolist())) == len(_LAWS[law].atoms or range(40))


class TestMoments:
    def test_tiny_sample(self):
        rep = estimate_moments(ReplicateSet.from_values(1, np.array([1.0, 2.0, 3.0])))
        assert rep.r.mean == 2.0
        assert rep.r.variance == 1.0

    def test_constant_samples(self):
        rep = estimate_moments(ReplicateSet.from_values(5, np.full(10, 5.0)))
        assert rep.r.variance == 0.0
        assert rep.r.m4 == 0.0

    def test_constant_model_scaled(self):
        model = TreeModel.regular(2, WeightDistribution.constant(0.7))
        for n in (3, 8):
            rep = estimate_moments(run_replicates(model, n, 5, 0))
            assert rep.r.mean == pytest.approx(0.7 * n, rel=1e-12)
            assert rep.r.variance == 0.0

    def test_fourth_moment_dominates_variance_squared(self):
        x = RngStream(5).uniforms(500) * 3.0 + 1.0
        rep = estimate_moments(ReplicateSet.from_values(1, x))
        assert rep.r.m4 >= rep.r.m2**2
        assert rep.c.m4 >= rep.c.m2**2

    def test_jackknife_se_tracks_simulation_spread(self):
        # the delete-1 jackknife SE for the variance should match the
        # spread of independent variance estimates to within a factor
        seeds = range(30)
        model = TreeModel.regular(2, WeightDistribution.two_point(0.5, 1.5))
        variances = []
        ses = []
        for s in seeds:
            rep = estimate_moments(run_replicates(model, 4, 400, 1000 + s))
            variances.append(rep.r.variance)
            ses.append(rep.r.se_variance)
        spread = np.std(variances, ddof=1)
        assert np.mean(ses) == pytest.approx(spread, rel=0.5)

    def test_needs_two(self):
        with pytest.raises(ValidationError):
            estimate_moments(ReplicateSet.from_values(1, np.array([1.0])))


class TestTailProfile:
    def test_degenerate_all_equal(self):
        batch = ReplicateSet.from_values(3, np.full(200, 3.0))
        rep = tail_profile(batch)
        assert np.all(rep.freq == 0.0)

    def test_zero_constant_bounds_every_deviation_but_none(self):
        # a == b makes the constant 0: R never deviates, so the bound is 2
        # at t = 0 (a deviation above 0 has probability 0 <= 2) and 0 beyond
        rep = tail_profile(ReplicateSet.from_values(3, np.full(100, 3.0)),
                           t_grid=np.array([0.0, 0.5, 2.0]), tail_constant=0.0)
        assert rep.bound.tolist() == [2.0, 0.0, 0.0]

    def test_zero_threshold_counts_everything_off_mean(self):
        x = np.concatenate([np.full(100, 1.0), np.full(100, 2.0)])
        rep = tail_profile(ReplicateSet.from_values(1, x), t_grid=np.array([0.0]))
        assert rep.freq[0] == 1.0

    def test_counts_match_the_per_point_loop(self):
        # t = 0, t at every sample deviation (ties), t past the largest one,
        # and a grid in no order
        x = np.tile([1.0, 2.0, 2.0, 3.0, 5.0, 1.5], 40)
        dev = np.abs(x - float(np.mean(x)))
        t = np.concatenate(([0.0], np.unique(dev), [dev.max() * 2.0],
                            np.linspace(3.0, 0.0, 31)))
        rep = tail_profile(ReplicateSet.from_values(1, x), t_grid=t)
        assert rep.count.tolist() == [int(np.sum(dev > tt)) for tt in t]

    def test_monotone_and_bounded(self, binary_twopoint_model):
        batch = run_replicates(binary_twopoint_model, 8, 2000, 11)
        rep = tail_profile(batch, tail_constant=100.0)
        assert np.all(np.diff(rep.freq) <= 0)
        assert np.all((rep.wilson_lo >= 0) & (rep.wilson_hi <= 1))
        assert np.all(rep.wilson_lo <= rep.freq) and np.all(rep.freq <= rep.wilson_hi)
        assert np.all(rep.bound == 2.0 * np.exp(-rep.t**2 / 400.0))

    def test_needs_hundred(self):
        with pytest.raises(ValidationError):
            tail_profile(ReplicateSet.from_values(1, np.ones(50)))


class TestVarianceBoundConstants:
    def test_chain_for_unit_double(self):
        vb = variance_bound_constants(WeightDistribution.two_point(1.0, 2.0), 4)
        assert vb.k0 == 2.0
        assert vb.k1 == 2.0
        assert vb.k == 32.0
        assert vb.bound == pytest.approx(32768.0 / 4**4, rel=1e-15)

    def test_degenerate(self):
        vb = variance_bound_constants(WeightDistribution.constant(1.0), 7)
        assert vb.k0 == 0.0 and vb.bound == 0.0

    def test_quartic_decay(self):
        law = WeightDistribution.two_point(0.5, 1.5)
        b1 = variance_bound_constants(law, 5).bound
        b2 = variance_bound_constants(law, 10).bound
        assert b2 / b1 == pytest.approx(1.0 / 16.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValidationError):
            variance_bound_constants(WeightDistribution.two_point(1.0, 2.0), 0)


class TestConductanceRecursion:
    def test_init_constant(self):
        pools = rde_levels(WeightDistribution.constant(1.0), 100, 1, RngStream(0))
        assert len(pools) == 1
        assert np.all(pools[0] == 1.0)

    def test_init_twopoint_support(self, twopoint_half):
        pool = rde_levels(twopoint_half, 1000, 1, RngStream(1))[0]
        assert set(np.unique(pool)) == {2.0, 2.0 / 3.0}

    def test_init_mean_near_recip_mean(self, twopoint_half):
        pool = rde_levels(twopoint_half, 10**5, 1, RngStream(2))[0]
        mom = twopoint_half.moments()
        se = pool.std(ddof=1) / math.sqrt(len(pool))
        assert abs(pool.mean() - mom.recip_mean) <= 4 * se

    def test_degenerate_step(self):
        pools = rde_levels(WeightDistribution.constant(0.5), 50, 2, RngStream(0))
        # all depth-1 entries are 1/0.5 = 2; the update gives 2 / (1 + 0.5*2) = 1
        assert len(pools) == 2
        assert np.all(pools[1] == 1.0)

    def test_unit_weights_exact_level2(self):
        pools = rde_levels(WeightDistribution.constant(1.0), 64, 2, RngStream(0))
        assert np.all(pools[1] == 0.5)

    def test_draw_order(self, twopoint_half):
        # depth-1 weights, then per step two index blocks and a weight block
        m = 300
        got = rde_levels(twopoint_half, m, 4, RngStream(21))
        rng = RngStream(21)
        want = [1.0 / dist_sample_block(twopoint_half, rng, m)]
        for _ in range(3):
            i, j = rng.integers(0, m, m), rng.integers(0, m, m)
            x = dist_sample_block(twopoint_half, rng, m)
            s = 0.5 * (want[-1][i] + want[-1][j])
            want.append(s / (1.0 + x * s))
        assert [p.tobytes() for p in got] == [p.tobytes() for p in want]

    def test_empty_pool_rejected(self, twopoint_half):
        with pytest.raises(ValidationError):
            rde_levels(twopoint_half, 0, 3, RngStream(0))

    def test_envelope_propagates(self, twopoint_half):
        pools = rde_levels(twopoint_half, 2000, 8, RngStream(13))
        assert len(pools) == 8
        for level, pool in enumerate(pools, 1):
            lo = 1.0 / (1.5 * level)
            hi = 1.0 / (0.5 * level)
            assert pool.min() >= lo - 1e-12
            assert pool.max() <= hi + 1e-12

    def test_deterministic(self, twopoint_half):
        a = rde_levels(twopoint_half, 500, 5, RngStream(13))[-1]
        b = rde_levels(twopoint_half, 500, 5, RngStream(13))[-1]
        assert np.array_equal(a, b)


class TestFits:
    def test_exact_recovery(self):
        ns = np.arange(2, 19, dtype=float)
        y = 1.0 * ns - 0.25 * np.log(ns) + 3.0
        rep = fit_expectation(ns, y, np.ones_like(ns), 1.0, 0.25)
        assert rep.alpha == pytest.approx(1.0, abs=1e-9)
        assert rep.beta == pytest.approx(-0.25, abs=1e-9)
        assert rep.gamma == pytest.approx(3.0, abs=1e-9)
        assert rep.constrained_range <= 1e-9

    def test_linear_data(self):
        ns = np.arange(2, 11, dtype=float)
        rep = fit_expectation(ns, ns.copy(), np.ones_like(ns), 1.0, 0.0)
        assert rep.alpha == pytest.approx(1.0, abs=1e-9)
        assert rep.beta == pytest.approx(0.0, abs=1e-9)
        assert rep.gamma == pytest.approx(0.0, abs=1e-9)

    def test_weighted_residuals_have_zero_weighted_mean(self):
        ns = np.arange(2, 12, dtype=float)
        rng = RngStream(5)
        y = ns - 0.3 * np.log(ns) + 1.0 + 0.01 * (rng.uniforms(10) - 0.5)
        ses = 0.5 + rng.uniforms(10)
        rep = fit_expectation(ns, y, ses, 1.0, 0.3)
        w = 1.0 / ses**2
        assert abs(np.sum(w * rep.residuals)) <= 1e-9 * np.sum(w * np.abs(y))

    def test_needs_six_points(self):
        ns = np.array([2.0, 3.0, 4.0, 5.0, 6.0])
        with pytest.raises(ValidationError):
            fit_expectation(ns, ns, np.ones_like(ns), 1.0, 0.0)

    def test_repeated_n_rejected(self):
        ns = np.array([2.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        with pytest.raises(ValidationError):
            fit_expectation(ns, ns, np.ones_like(ns), 1.0, 0.0)

    @pytest.mark.parametrize("ns, message", [
        ([math.nan, math.nan, 2.0, 3.0, 4.0, 5.0], "repeated n values"),
        ([0.0, -0.0, 2.0, 3.0, 4.0, 5.0], "repeated n values"),
        ([math.inf, 2.0, math.inf, 3.0, 4.0, 5.0], "repeated n values"),
        ([math.nan, 2.0, 3.0, 4.0, 5.0, 6.0], "must be integers"),
        ([6.0, 5.0, 4.0, 3.0, 2.0, 0.0], "must be integers"),
    ])
    def test_repeats_counted_as_np_unique_counts_them(self, ns, message):
        # NaNs are equal to each other, and 0.0 to -0.0; the repeat check
        # fires before the integer check
        ns = np.array(ns)
        assert (len(np.unique(ns)) != len(ns)) == (message == "repeated n values")
        with pytest.raises(ValidationError, match=message):
            fit_expectation(ns, np.ones_like(ns), np.ones_like(ns), 1.0, 0.0)

    def test_variance_slope_exact(self):
        ns = np.array([2.0, 4.0, 8.0, 16.0])
        slope, intercept = fit_variance_slope(ns, 7.0 / ns**4)
        assert slope == pytest.approx(-4.0, abs=1e-9)
        assert intercept == pytest.approx(math.log(7.0), abs=1e-9)
        slope, _ = fit_variance_slope(ns, 3.0 / ns**2)
        assert slope == pytest.approx(-2.0, abs=1e-9)

    def test_variance_slope_rejects_zero(self):
        with pytest.raises(ValidationError):
            fit_variance_slope(np.array([2.0, 3.0, 4.0]), np.array([1.0, 0.0, 1.0]))


class TestSweep:
    def test_reports_shape_and_determinism(self, binary_twopoint_model):
        ns = [2, 3, 4]
        reps = {2: 60, 3: 60, 4: 60}
        a = sweep(binary_twopoint_model, ns, reps, 5)
        b = sweep(binary_twopoint_model, ns, reps, 5)
        assert [r.n for r in a] == ns
        assert all(x.r.mean == y.r.mean for x, y in zip(a, b))

    def test_depths_use_decorrelated_seeds(self, binary_twopoint_model):
        reports = sweep(binary_twopoint_model, [4, 5], {4: 30, 5: 30}, 9)
        assert reports[0].r.mean != reports[1].r.mean

    def test_every_count_checked_before_sampling(self, binary_twopoint_model, monkeypatch):
        def fail(*args):
            raise AssertionError("sampled before the counts were checked")

        monkeypatch.setattr(stats, "run_replicates", fail)
        with pytest.raises(ValidationError, match="^reps: .*n=4"):
            sweep(binary_twopoint_model, [3, 4], {3: 5, 4: 1}, 0)


class TestBranchingExperiment:
    def test_deterministic_binary_records(self):
        model = TreeModel.galton_watson(((2, 1.0),), WeightDistribution.constant(1.0))
        report = gw_experiment(model, 6, 10, 0)
        assert np.all(report.resistance == 7.0)
        assert np.all(report.shorted == 7.0)
        assert np.all(report.w_hat == 1.0)
        assert np.all(report.b1 == 2)

    def test_shorted_below_exact(self):
        model = TreeModel.galton_watson(((1, 0.5), (2, 0.5)), WeightDistribution.constant(1.0))
        report = gw_experiment(model, 8, 100, 17)
        assert np.all(report.shorted <= report.resistance + 1e-12)

    def test_shorted_below_exact_at_non_unit_weights(self):
        model = TreeModel.galton_watson(((1, 0.5), (2, 0.5)), WeightDistribution.uniform(0.5, 0.6))
        report = gw_experiment(model, 6, 50, 3)
        assert np.all(report.shorted <= report.resistance * (1 + 1e-12))

    def test_conditional_means_split_by_root_degree(self):
        model = TreeModel.galton_watson(((1, 0.5), (2, 0.5)), WeightDistribution.constant(1.0))
        report = gw_experiment(model, 10, 400, 17)
        assert set(report.cond_mean_nc) == {1, 2}
        assert report.cond_mean_nc[2] > report.cond_mean_nc[1]


def _nodes_and_resistance(j, tree):
    return j, tree.n_nodes, resistance_of_tree(tree)


def _tree_arrays(j, tree):
    """Every array of the tree, as dtype, bytes and write flag."""
    return j, [(a.dtype.str, a.tobytes(), a.flags.writeable)
               for a in (tree.level, tree.weight, tree.resistance, tree.parent, tree.order,
                         tree.offsets, tree.slot)]


class TestMapTrees:
    def test_tree_j_from_stream_j_with_cycling_depths(self):
        model = TreeModel.galton_watson(((1, 0.5), (2, 0.5)), WeightDistribution.uniform(0.5, 1.5))
        ns = [2, 5, 3]
        records = map_trees(_nodes_and_resistance, model, ns, 7, 11)
        for j, (jj, nodes, r) in enumerate(records):
            tree = sample_tree_explicit(model, ns[j % 3], RngStream(11, j))
            assert (jj, nodes, r) == (j, tree.n_nodes, resistance_of_tree(tree))

    @pytest.mark.parametrize("shape", ["reg", "gw"])
    def test_workers_give_the_same_records(self, shape, twopoint_half):
        if shape == "reg":
            model = TreeModel.regular(3, twopoint_half)
        else:
            model = TreeModel.galton_watson(((1, 0.5), (3, 0.5)), twopoint_half)
        for record in (_nodes_and_resistance, _tree_arrays):
            serial = map_trees(record, model, [4, 2, 3], 9, 5, workers=1)
            pooled = map_trees(record, model, [4, 2, 3], 9, 5, workers=2)
            assert pooled == serial

    @pytest.mark.parametrize("shape", ["reg", "gw"])
    def test_one_sampler_call_per_tree(self, shape, twopoint_half, monkeypatch):
        # the benchmark counts branching-tree draws by rebinding this name
        if shape == "reg":
            model = TreeModel.regular(2, twopoint_half)
        else:
            model = TreeModel.galton_watson(((1, 0.5), (2, 0.5)), twopoint_half)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return sample_tree_explicit(*args, **kwargs)

        monkeypatch.setattr(stats, "sample_tree_explicit", counted)
        records = map_trees(_nodes_and_resistance, model, [3, 5], 7, 2)
        assert len(records) == 7 and calls == [3, 5, 3, 5, 3, 5, 3]

    def test_no_layout_outlives_the_call(self):
        import tracemalloc

        model = TreeModel.regular(2, WeightDistribution.uniform(0.5, 1.5))
        want = [resistance_of_tree(sample_tree_explicit(model, 14, RngStream(3, j)))
                for j in range(4)]
        map_trees(stats._resistance_record, model, [13], 4, 3)  # lazy set-up, another depth
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            got = map_trees(stats._resistance_record, model, [14], 4, 3)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        # the depth's layout (16383 nodes, several arrays of 128 KiB) was
        # built, and it is gone once the call returns
        assert peak - before > 2**19
        assert after - before < 4096

    def test_offset_chunk_draws_from_the_lone_streams(self, twopoint_half):
        model = TreeModel.galton_watson(((1, 0.5), (2, 0.5)), twopoint_half)
        got = stats._tree_chunk(_nodes_and_resistance, model, [3, 4], 2**40, 5, 9)
        want = [_nodes_and_resistance(j, sample_tree_explicit(model, [3, 4][j % 2],
                                                              RngStream(2**40, j)))
                for j in range(5, 9)]
        assert got == want


class TestEfronSteinDiagnostic:
    def test_variance_below_scaled_bound(self, binary_twopoint_model):
        # Var[R] <= (b-a)^2 * E[sum_e 2^(2d) theta_e^4], up to sampling error
        law = binary_twopoint_model.weights
        a, b = law.a, law.b

        def record(j, tree):
            flow = solve_flow(tree)
            return flow.resistance, flow_bound_report(flow, law).s4_scaled

        res, s4 = zip(*map_trees(record, binary_twopoint_model, [8], 300, 21))
        r = estimate_moments(ReplicateSet.from_values(8, res)).r
        assert r.variance <= (b - a) ** 2 * float(np.mean(s4)) + 3 * r.se_variance
