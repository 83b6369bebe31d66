import math

import numpy as np
import pytest

from treeohm import (
    GuardError,
    RngStream,
    TreeModel,
    ValidationError,
    WeightDistribution,
    derive_seed,
    dist_sample_block,
    level_scales,
    parse_distribution,
    parse_offspring,
)
from treeohm.model import (
    STREAM_LIMIT,
    _seed_row_type,
    _seed_words,
    _transform,
    stream_block,
    streams,
)


class TestDistributions:
    def test_constant_always_value(self):
        dist = WeightDistribution.constant(1.0)
        rng = RngStream(5)
        assert np.all(dist_sample_block(dist, rng, 50) == 1.0)

    def test_two_point_support_and_seeded_mean(self):
        dist = WeightDistribution.two_point(0.5, 1.5)
        draws = dist_sample_block(dist, RngStream(123), 10**6)
        assert set(np.unique(draws)) == {0.5, 1.5}
        # CLT band: sd = 0.5, so 3 standard errors at m = 1e6 is 3 * 0.5e-3
        assert abs(draws.mean() - 1.0) < 3 * (0.5 / 10**3)

    def test_uniform_support(self):
        dist = WeightDistribution.uniform(0.5, 1.5)
        draws = dist_sample_block(dist, RngStream(7), 10000)
        assert draws.min() >= 0.5 and draws.max() <= 1.5

    def test_discrete_support(self):
        dist = parse_distribution("disc:0.5:0.25,1.0:0.5,1.5:0.25")
        draws = dist_sample_block(dist, RngStream(11), 20000)
        assert set(np.unique(draws)) <= {0.5, 1.0, 1.5}

    @pytest.mark.parametrize(
        "literal",
        ["const:1.3", "unif:0.5,2", "twopoint:1,3,0.3", "twopoint:0.5,1.5,0",
         "twopoint:0.5,1.5,1", "disc:0.5:0.2,1:0.5,2.5:0.3", "disc:1.3:1",
         "disc:0.7:0.35,1.9:0.65"],
    )
    def test_block_weights_keep_their_formula(self, literal):
        # each law's out-of-place map, written out, against the in-place one
        dist = parse_distribution(literal)

        def expected(u):
            if not dist.atoms:
                return dist.a + (dist.b - dist.a) * u
            if len(dist.atoms) <= 2:
                (lo, p), (hi, _) = dist.atoms[0], dist.atoms[-1]
                return np.where(u < p, lo, hi)
            cum = np.cumsum([p for _, p in dist.atoms])
            vals = np.array([v for v, _ in dist.atoms])
            return vals[np.minimum(np.searchsorted(cum, u, side="right"), len(vals) - 1)]

        u = RngStream(4, 2).uniforms(6000)
        got = dist_sample_block(dist, RngStream(4, 2), 6000)
        assert got.tobytes() == expected(u).tobytes()
        # on a strided (k, 1) column of a block, as a one-column block maps its rows
        block = u.reshape(2000, 3).copy()
        want = expected(block[:, :1])
        _transform(dist, block[:, :1])
        assert block[:, :1].tobytes() == want.tobytes()
        assert block[:, 1:].tobytes() == u.reshape(2000, 3)[:, 1:].tobytes()

    @pytest.mark.parametrize(
        "literal",
        ["const:1.0", "unif:0.5,1.5", "twopoint:0.5,1.5", "twopoint:1,2,0.25",
         "disc:0.5:0.5,1.5:0.5"],
    )
    def test_empirical_moments_match_closed_form(self, literal):
        dist = parse_distribution(literal)
        mom = dist.moments()
        m = 10**6
        draws = dist_sample_block(dist, RngStream(99), m)
        d = draws - draws.mean()
        se_mean = draws.std(ddof=1) / math.sqrt(m)
        assert abs(draws.mean() - mom.mean) <= 4 * se_mean + 1e-12
        emp_var = float(np.sum(d * d)) / (m - 1)
        m4 = float(np.mean(d**4))
        se_var = math.sqrt(max(m4 - emp_var**2, 0.0) / m)
        assert abs(emp_var - mom.variance) <= 4 * se_var + 1e-12

    def test_closed_form_values(self):
        mom = WeightDistribution.uniform(0.5, 1.5).moments()
        assert mom.mean == pytest.approx(1.0, abs=1e-15)
        assert mom.variance == pytest.approx(1.0 / 12.0, abs=1e-15)
        mom = WeightDistribution.two_point(0.5, 1.5).moments()
        assert mom.mean == 1.0
        assert mom.variance == pytest.approx(0.25, abs=1e-15)
        mom = WeightDistribution.two_point(1.0, 2.0).moments()
        # reciprocals {1, 1/2} with mean 3/4
        assert mom.recip_mean == pytest.approx(0.75, abs=1e-15)
        assert mom.recip_variance == pytest.approx(1.0 / 16.0, abs=1e-15)

    def test_reciprocal_moments_uniform(self):
        mom = WeightDistribution.uniform(0.5, 1.5).moments()
        assert mom.recip_mean == pytest.approx(math.log(3.0), rel=1e-12)
        assert mom.recip_variance == pytest.approx(1 / 0.75 - math.log(3.0) ** 2, rel=1e-12)

    def test_atoms_fix_the_draws(self):
        # an atom inside a wider support draws only itself
        draws = dist_sample_block(WeightDistribution(0.5, 1.5, ((1.0, 1.0),)), RngStream(3), 1000)
        assert np.all(draws == 1.0)
        atoms = ((0.5, 0.2), (1.0, 0.5), (1.5, 0.3))
        draws = dist_sample_block(WeightDistribution(0.5, 1.5, atoms), RngStream(3), 1000)
        assert set(np.unique(draws)) == {0.5, 1.0, 1.5}

    def test_invalid_support_rejected(self):
        with pytest.raises(ValidationError):
            WeightDistribution.uniform(0.0, 1.0)
        with pytest.raises(ValidationError):
            WeightDistribution.uniform(2.0, 1.0)
        with pytest.raises(ValidationError):
            WeightDistribution.discrete([(1.0, 0.6), (2.0, 0.6)])


class TestEdgeResistance:
    # an edge at level l with weight x has resistance level_scales(lam, .)[l-1] * x

    def test_examples(self):
        assert level_scales(2.0, 3)[0] * 1.3 == 1.3
        assert level_scales(2.0, 3)[2] * 1.0 == 4.0
        assert level_scales(1.5, 2)[1] * 0.7 == pytest.approx(1.05, rel=1e-15)

    def test_multiplicative_across_levels(self):
        for lam in (1.5, 2.0, 3.0):
            scales = level_scales(lam, 40)
            for level in range(1, 40):
                assert scales[level] == lam * scales[level - 1]

    def test_guards(self):
        with pytest.raises(GuardError):
            level_scales(2.0, 61)
        with pytest.raises(ValidationError):
            level_scales(2.0, 0)

    def test_scales_table_matches_pow(self):
        scales = level_scales(2.0, 20)
        assert np.array_equal(scales, 2.0 ** np.arange(20))


class TestModelValidation:
    def test_regular_ok(self):
        m = TreeModel.regular(2, WeightDistribution.uniform(0.5, 1.5))
        assert m.lam == 2.0

    def test_gw_zero_offspring_rejected(self):
        with pytest.raises(ValidationError):
            TreeModel.galton_watson(
                [(0, 0.1), (2, 0.9)], WeightDistribution.constant(1.0)
            )

    def test_gw_defaults_to_mean_offspring(self):
        m = TreeModel.galton_watson(
            [(1, 0.5), (2, 0.5)], WeightDistribution.constant(1.0)
        )
        assert m.lam == 1.5

    def test_arity_too_small(self):
        with pytest.raises(ValidationError):
            TreeModel.regular(1, WeightDistribution.constant(1.0))

    def test_bad_lam(self):
        with pytest.raises(ValidationError):
            TreeModel.regular(2, WeightDistribution.constant(1.0), lam=-1.0)


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(42, 3).uniforms(100)
        b = RngStream(42, 3).uniforms(100)
        assert np.array_equal(a, b)

    def test_split_blocks_equal_one_block(self):
        block = RngStream(42, 3).uniforms(64)
        rng = RngStream(42, 3)
        split = np.concatenate([rng.uniforms(k) for k in (1, 10, 53)])
        assert np.array_equal(block, split)

    def test_streams_distinct(self):
        a = RngStream(42, 0).uniforms(32)
        b = RngStream(42, 1).uniforms(32)
        assert not np.array_equal(a, b)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            RngStream(-1, 0)

    def test_derive_seed_stable(self):
        assert derive_seed(7, 10) == derive_seed(7, 10)
        assert derive_seed(7, 10) != derive_seed(7, 11)

    def test_range_streams_are_the_lone_streams(self):
        got = list(streams(42, 3, 6))
        assert got == [RngStream(42, j) for j in range(3, 6)]
        assert [rng.uniforms(4).tolist() for rng in got] == \
            [RngStream(42, j).uniforms(4).tolist() for j in range(3, 6)]
        assert list(streams(42, 6, 6)) == []

    def test_range_streams_across_seed_pieces(self, monkeypatch):
        from treeohm import model

        # pieces of 3 streams: 5..7, 8..10, 11..12
        monkeypatch.setattr(model, "_SEED_PIECE", 3)
        got = [rng.uniforms(4).tolist() for rng in streams(42, 5, 13)]
        assert got == [RngStream(42, j).uniforms(4).tolist() for j in range(5, 13)]

    def test_range_reaches_the_last_one_word_index(self):
        words = _seed_words(9, STREAM_LIMIT - 2, STREAM_LIMIT)
        assert words.shape == (2, 4)
        want = np.random.SeedSequence(9, spawn_key=(STREAM_LIMIT - 1,)).generate_state(4, np.uint64)
        assert words[-1].tolist() == want.tolist()

    def test_range_past_the_last_index_guarded_before_allocating(self):
        # a range of 2**32 + 1 streams would take 128 GiB of seed words
        with pytest.raises(GuardError, match="2\\*\\*32 - 1"):
            _seed_words(9, 0, STREAM_LIMIT + 1)
        with pytest.raises(GuardError):
            streams(9, STREAM_LIMIT, STREAM_LIMIT + 1)

    @pytest.mark.parametrize("args", [(-1, 0, 1), (1, -1, 1), (1, 5, 4)])
    def test_bad_range_rejected(self, args):
        with pytest.raises(ValidationError):
            streams(*args)

    def test_peek_refused_on_a_block_stream_and_bad_sizes(self):
        with pytest.raises(ValidationError, match="block stream"):
            stream_block(1, 0, 3).peek(4)
        for size, skip in ((-1, 0), (2, -1)):
            with pytest.raises(ValidationError):
                RngStream(1).peek(size, skip)

    def test_seed_row_serves_only_pcg64(self):
        row = _seed_words(1, 0, 1)[0]
        seed_row = _seed_row_type()(row)
        assert seed_row.generate_state(4, np.uint64) is row
        with pytest.raises(ValueError):
            seed_row.generate_state(8, np.uint32)


class TestLiterals:
    @pytest.mark.parametrize(
        "literal, law",
        [("const:2", (2.0, 2.0, ((2.0, 1.0),))),
         ("unif:0.5,1.5", (0.5, 1.5, ())),
         ("twopoint:0.5,1.5", (0.5, 1.5, ((0.5, 0.5), (1.5, 0.5)))),
         ("twopoint:0.5,1.5,0.3", (0.5, 1.5, ((0.5, 0.3), (1.5, 0.7)))),
         ("disc:1:0.5,2:0.5", (1.0, 2.0, ((1.0, 0.5), (2.0, 0.5))))],
        ids=["const:2-constant", "unif:0.5,1.5-uniform", "twopoint:0.5,1.5-twopoint",
             "twopoint:0.5,1.5,0.3-twopoint", "disc:1:0.5,2:0.5-discrete"],
    )
    def test_parse_kinds(self, literal, law):
        dist = parse_distribution(literal)
        assert (dist.a, dist.b, dist.atoms) == law

    @pytest.mark.parametrize(
        "literal",
        ["", "unif", "unif:1", "unif:a,b", "twopoint:1", "disc:1,2", "gauss:0,1"],
    )
    def test_malformed_rejected(self, literal):
        with pytest.raises(ValidationError):
            parse_distribution(literal)

    def test_offspring_parse(self):
        assert parse_offspring("1:0.5,2:0.5") == ((1, 0.5), (2, 0.5))
        with pytest.raises(ValidationError):
            parse_offspring("1,2")
