"""Monte Carlo engine: replicate batches, moment and tail estimation, the
conductance distribution recursion, explicit variance/tail bound constants,
and asymptotic fits of the expected resistance.

Every entry point is a pure function of (model, master seed): replicate j
always consumes stream j, aggregation runs in replicate order, and worker
processes only change who computes which replicate, never the bytes of the
result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .evaluate import (
    _explicit_layout,
    _regular_replicates,
    gw_w_estimate,
    resistance_of_tree,
    sample_tree_explicit,
    shorted_resistance_of_tree,
)
from .model import (
    MEMORY_GUARD,
    STREAM_LIMIT,
    GuardError,
    RngStream,
    TreeModel,
    ValidationError,
    WeightDistribution,
    _bound_constant,
    derive_seed,
    dist_sample_block,
    streams,
)

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


# ---------------------------------------------------------------------------
# replicate generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplicateSet:
    """m independent evaluations of one model at one depth."""

    n: int
    m: int
    master_seed: int
    resistance: np.ndarray
    conductance: np.ndarray

    @staticmethod
    def from_values(n: int, resistance: np.ndarray, master_seed: int = 0) -> "ReplicateSet":
        r = np.asarray(resistance, dtype=np.float64)
        return ReplicateSet(n, len(r), master_seed, r, 1.0 / r)


def _chunked(task, args: tuple, count: int, workers: int) -> list:
    """Results of task(*args, j0, j1) over chunks of range(count), in stream
    order.  Chunks go to a process pool unless workers <= 1 or count < 4;
    the split never changes a value, since item j depends only on j."""
    if workers <= 1 or count < 4:
        return [task(*args, 0, count)]
    step = -(-count // (workers * 4))
    bounds = [(j, min(j + step, count)) for j in range(0, count, step)]
    # imported here: the pool brings in multiprocessing, which a serial
    # call should not pay for at startup
    from concurrent.futures import ProcessPoolExecutor

    # a forked pool starts all its processes at the first submit
    with ProcessPoolExecutor(max_workers=min(workers, len(bounds))) as pool:
        return list(pool.map(task, *zip(*(args + b for b in bounds))))


def _check_streams(what: str, count: int) -> None:
    """Refuse, before anything is allocated or drawn, a count whose last
    stream index would reach STREAM_LIMIT."""
    if count > STREAM_LIMIT:
        raise GuardError(f"{what}: {count} streams need indices up to "
                         f"{count - 1}, past the last stream index 2**32 - 1")


def _check_reps(m: int) -> None:
    """Refuse, before anything is allocated or drawn, a replicate count
    past the stream limit or too large for its result arrays."""
    _check_streams("reps", m)
    if m > MEMORY_GUARD:
        raise GuardError(f"reps: {m} replicates exceed the {MEMORY_GUARD}-replicate guard")


def _tree_chunk(record, model: TreeModel, ns: list[int], master_seed: int,
                j0: int, j1: int) -> list:
    """[record(j, tree j) for j in range(j0, j1)], each tree from
    sample_tree_explicit on the layout of its depth, built once here for
    every depth of the chunk before any tree is drawn, and dropped with
    the chunk."""
    depth = [ns[j % len(ns)] for j in range(j0, j1)]
    layouts = {n: _explicit_layout(model, n) for n in dict.fromkeys(depth)}
    return [
        record(j, sample_tree_explicit(model, n, rng, layout=layouts[n]))
        for j, n, rng in zip(range(j0, j1), depth, streams(master_seed, j0, j1))
    ]


def map_trees(record, model: TreeModel, ns: list[int], count: int, master_seed: int,
              workers: int = 1) -> list:
    """[record(j, tree j) for j in range(count)]: tree j has depth
    ns[j % len(ns)] and is drawn from stream j.  With workers > 1, record
    must pickle (a module-level function or a partial of one).  Every
    depth's resistance range, and the stream count, are checked before any
    tree is drawn."""
    _check_streams("trees", count)
    for n in ns:
        model.scales(n)
    chunks = _chunked(_tree_chunk, (record, model, ns, master_seed), count, workers)
    return [rec for chunk in chunks for rec in chunk]


def _resistance_record(j: int, tree) -> float:
    return resistance_of_tree(tree)


def run_replicates(
    model: TreeModel, n: int, m: int, master_seed: int, workers: int = 1
) -> ReplicateSet:
    """Evaluate m replicates; replicate j uses stream j.  The worker count
    splits the replicate range but cannot change any value."""
    if m < 1:
        raise ValidationError(f"reps: need at least one replicate, got m={m}")
    _check_reps(m)
    if model.shape == "regular":
        parts = _chunked(_regular_replicates, (model, n, master_seed), m, workers)
        resistance = np.concatenate(parts)
    else:
        resistance = np.array(map_trees(_resistance_record, model, [n], m, master_seed, workers))
    _check_envelope(model, n, resistance)
    return ReplicateSet(n, m, master_seed, resistance, 1.0 / resistance)


def _check_envelope(model: TreeModel, n: int, resistance: np.ndarray) -> None:
    # a*n <= R <= b*n holds samplewise when the depth scaling matches the arity
    if model.shape != "regular" or model.lam != float(model.beta):
        return
    a, b = model.weights.a, model.weights.b
    tol = 1e-12 * (1.0 + b * n)
    lo = float(resistance.min())
    hi = float(resistance.max())
    if lo < a * n - tol or hi > b * n + tol:
        raise RuntimeError(
            f"resistance envelope violated at n={n}: [{lo}, {hi}] vs [{a * n}, {b * n}]"
        )


# ---------------------------------------------------------------------------
# moments and tails
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VariableStats:
    mean: float
    variance: float  # unbiased, m-1 denominator
    m2: float        # central moments, 1/m denominator
    m4: float
    se_mean: float
    se_variance: float  # delete-1 jackknife


def _variable_stats(x: np.ndarray) -> VariableStats:
    m = len(x)
    mean = float(np.mean(x))
    d = x - mean
    s2 = float(np.sum(d * d))
    m2 = s2 / m
    m4 = float(np.sum(d**4)) / m
    var = s2 / (m - 1)
    se_mean = math.sqrt(var / m)
    if m >= 3:
        # leave-one-out unbiased variances in closed form
        loo = (s2 - m * d * d / (m - 1)) / (m - 2)
        se_var = math.sqrt((m - 1) / m * float(np.sum((loo - np.mean(loo)) ** 2)))
    else:
        se_var = float("nan")
    return VariableStats(mean, var, m2, m4, se_mean, se_var)


@dataclass(frozen=True)
class MomentReport:
    n: int
    m: int
    r: VariableStats
    c: VariableStats


def estimate_moments(samples: ReplicateSet) -> MomentReport:
    if samples.m < 2:
        raise ValidationError(f"reps: moment estimation needs m >= 2, got {samples.m}")
    return MomentReport(
        samples.n,
        samples.m,
        _variable_stats(samples.resistance),
        _variable_stats(samples.conductance),
    )


@dataclass(frozen=True)
class TailReport:
    t: np.ndarray
    count: np.ndarray
    freq: np.ndarray
    wilson_lo: np.ndarray
    wilson_hi: np.ndarray
    bound: np.ndarray
    sample_mean: float
    sample_sd: float


def default_t_grid() -> np.ndarray:
    return np.linspace(0.1, 3.0, 30)


def tail_profile(
    samples: ReplicateSet,
    t_grid: np.ndarray | None = None,
    tail_constant: float | None = None,
) -> TailReport:
    """Empirical deviation tail of R around its sample mean, with 95% Wilson
    intervals and, when a constant C is supplied, the reference curve
    2*exp(-t^2/(4C))."""
    if samples.m < 100:
        raise ValidationError(f"reps: tail estimation needs m >= 100, got {samples.m}")
    t = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=np.float64)
    x = samples.resistance
    m = samples.m
    mean = float(np.mean(x))
    sd = float(np.std(x, ddof=1))
    dev = np.abs(x - mean)
    # the deviations above t: all m less those at most t, in one sorted pass
    count = m - np.searchsorted(np.sort(dev), t, side="right")
    p = count / m
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / m
    center = p + z2 / (2.0 * m)
    half = _Z95 * np.sqrt(p * (1.0 - p) / m + z2 / (4.0 * m * m))
    # the interval brackets p by construction; clamp away rounding fuzz
    lo = np.minimum(np.maximum((center - half) / denom, 0.0), p)
    hi = np.maximum(np.minimum((center + half) / denom, 1.0), p)
    if tail_constant is None:
        bound = np.full_like(t, np.nan)
    elif tail_constant == 0.0:  # a constant law: R never deviates
        bound = np.where(t == 0.0, 2.0, 0.0)
    else:
        bound = 2.0 * np.exp(-(t * t) / (4.0 * tail_constant))
    return TailReport(t, count, p, lo, hi, bound, mean, sd)


# ---------------------------------------------------------------------------
# explicit variance-bound constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarianceBound:
    """Constant chain for the conductance variance ceiling 2^10 * K / n^4."""

    k0: float
    k1: float
    k: float
    bound: float


def variance_bound_constants(dist: WeightDistribution, n: int) -> VarianceBound:
    """K0 = (1/2)(b/a)^4 (1/b - 1/a)^2 from the single-resample step,
    K1 = max(K0, Var[1/X]) seeds the recursion, K = max(b^4, 1) * K1 carries
    the bound over to the resistance; the ceiling is 2^10 K / n^4.  The
    envelope [a, b] and Var[1/X] are the law's."""
    if n < 1:
        raise ValidationError(f"depth n={n} must be >= 1")
    a, b = dist.a, dist.b
    k0 = _bound_constant(a, b, lambda: 0.5 * (b / a) ** 4 * (1.0 / b - 1.0 / a) ** 2)
    k1 = max(k0, dist.moments().recip_variance)
    k = _bound_constant(a, b, lambda: max(b**4, 1.0) * k1)
    return VarianceBound(k0, k1, k, _bound_constant(a, b, lambda: 2.0**10 * k / float(n) ** 4))


# ---------------------------------------------------------------------------
# conductance distribution recursion (population dynamics)
# ---------------------------------------------------------------------------


def rde_levels(dist: WeightDistribution, m: int, max_level: int,
               rng: RngStream) -> list[np.ndarray]:
    """Pools of m samples of the conductance law at depths 1..max_level, from
    one stream.  Depth 1 is 1/X, one edge's conductance; each step maps
    C' = S / (1 + X*S), where S is the mean of two pool values resampled with
    replacement and X is a fresh weight.  Draw order: the depth-1 weights,
    then per step both index blocks and the weight block.  Pool values lie in
    (0, 1/a], so a law whose b/a (the largest X*S) or m/a**2 (the largest sum
    of squared deviations) overflows is refused before any draw, as are
    pools of more than MEMORY_GUARD values in all."""
    if m < 1:
        raise ValidationError(f"pool size must be >= 1, got {m}")
    if m * max_level > MEMORY_GUARD:
        raise GuardError(f"pool_size: {max_level} levels of {m} values exceed the "
                         f"{MEMORY_GUARD}-value guard")
    _bound_constant(dist.a, dist.b, lambda: dist.b / dist.a + m / dist.a / dist.a)
    pools = [1.0 / dist_sample_block(dist, rng, m)]
    for _ in range(1, max_level):
        i = rng.integers(0, m, m)
        j = rng.integers(0, m, m)
        x = dist_sample_block(dist, rng, m)
        s = 0.5 * (pools[-1][i] + pools[-1][j])
        pools.append(s / (1.0 + x * s))
    return pools


# ---------------------------------------------------------------------------
# asymptotic fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitReport:
    alpha: float
    beta: float
    gamma: float
    se_alpha: float
    se_beta: float
    se_gamma: float
    residuals: np.ndarray
    constrained_residuals: np.ndarray
    constrained_range: float


def fit_expectation(
    ns: np.ndarray,
    means: np.ndarray,
    ses: np.ndarray,
    mu: float,
    sigma2: float,
) -> FitReport:
    """Weighted least squares of mean resistance on (n, ln n, 1).

    The expected growth is mu*n - (sigma2/mu)*ln n + O(1); alongside the free
    fit, the first two coefficients are pinned to that target and the
    leftover series is reported, its spread standing in for the O(1) band.
    """
    ns = np.asarray(ns, dtype=np.float64)
    means = np.asarray(means, dtype=np.float64)
    ses = np.asarray(ses, dtype=np.float64)
    if len(ns) < 6:
        raise ValidationError(f"fit needs at least 6 grid points, got {len(ns)}")
    # sorted, equal neighbours are repeats (0.0 and -0.0 too), and so are two
    # NaNs, which sort last: np.unique's equal_nan rule without numpy.ma
    grid = np.sort(ns)
    if np.any((grid[1:] == grid[:-1]) | np.isnan(grid[:-1])):
        raise ValidationError("fit grid has repeated n values")
    if not np.all(np.isfinite(ns) & (ns >= 1.0) & (ns == np.round(ns))):
        raise ValidationError(f"fit depths must be integers >= 1, got {ns.tolist()}")
    if not (np.all(np.isfinite(means)) and np.all(np.isfinite(ses))):
        raise ValidationError("fit needs finite mean_R and se_R values")
    if np.any(ses <= 0.0):
        raise ValidationError("fit needs strictly positive standard errors")
    design = np.column_stack([ns, np.log(ns), np.ones_like(ns)])
    sw = 1.0 / ses
    xw = design * sw[:, None]
    yw = means * sw
    coef, _, rank, _ = np.linalg.lstsq(xw, yw, rcond=None)
    if rank < 3:
        raise ValidationError("degenerate fit design (collinear grid)")
    cov = np.linalg.inv(xw.T @ xw)
    se_coef = np.sqrt(np.diag(cov))
    residuals = means - design @ coef
    constrained = means - (mu * ns - (sigma2 / mu) * np.log(ns))
    return FitReport(
        float(coef[0]), float(coef[1]), float(coef[2]),
        float(se_coef[0]), float(se_coef[1]), float(se_coef[2]),
        residuals, constrained,
        float(constrained.max() - constrained.min()),
    )


def fit_variance_slope(ns: np.ndarray, variances: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and intercept of ln Var against ln n."""
    ns = np.asarray(ns, dtype=np.float64)
    variances = np.asarray(variances, dtype=np.float64)
    if len(ns) < 3:
        raise ValidationError(f"variance fit needs >= 3 points, got {len(ns)}")
    if np.any(variances <= 0.0):
        raise ValidationError(
            "variance fit needs positive variances (deterministic weights give zero)"
        )
    lx = np.log(ns)
    ly = np.log(variances)
    lx_c = lx - lx.mean()
    slope = float(np.sum(lx_c * (ly - ly.mean())) / np.sum(lx_c * lx_c))
    intercept = float(ly.mean() - slope * lx.mean())
    return slope, intercept


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def sweep(
    model: TreeModel,
    ns: list[int],
    reps_for: dict[int, int],
    master_seed: int,
    workers: int = 1,
) -> list[MomentReport]:
    """Moment reports over a depth grid; each depth gets its own derived
    master seed so the grids stay decorrelated.  Every depth's count and
    resistance range are checked before any depth is sampled."""
    for n in ns:
        if reps_for[n] < 2:
            raise ValidationError(
                f"reps: moment estimation needs m >= 2, got m={reps_for[n]} at n={n}")
        _check_reps(reps_for[n])
        model.scales(n)
    reports = []
    for n in ns:
        seed_n = derive_seed(master_seed, n)
        batch = run_replicates(model, n, reps_for[n], seed_n, workers)
        reports.append(estimate_moments(batch))
    return reports


def _pearson(x: np.ndarray, y: np.ndarray) -> float | None:
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt(np.sum(dx * dx)))
    sy = float(np.sqrt(np.sum(dy * dy)))
    if sx == 0.0 or sy == 0.0:
        return None  # degenerate samples have no defined correlation
    return float(np.sum(dx * dy)) / (sx * sy)


@dataclass(frozen=True)
class GwReport:
    """Per-tree branching records plus the root-degree conditioning summary."""

    b1: np.ndarray
    resistance: np.ndarray
    shorted: np.ndarray
    w_hat: np.ndarray
    n_times_c: np.ndarray
    cond_mean_nc: dict[int, float]
    corr_scaled_r_vs_inv_w: float | None
    median_scaled_product: float


def _gw_record(n: int, j: int, tree) -> tuple[int, float, float, float]:
    """(root offspring count, R, level-shorted R, Z_n / lam**n) of one tree:
    the root's children are the level-2 nodes."""
    counts = tree.level_counts().tolist()
    return (counts[1], resistance_of_tree(tree), shorted_resistance_of_tree(tree),
            gw_w_estimate(counts[-1], tree.lam, n))


def gw_experiment(
    model: TreeModel, n: int, trees: int, master_seed: int, workers: int = 1
) -> GwReport:
    """Sample branching trees and record, per tree, the exact resistance, the
    level-shorted resistance (a lower bound on it), the normalized depth-n
    population, the root offspring count, and n*C_n; then condition n*C_n on
    the root count."""
    records = map_trees(partial(_gw_record, n), model, [n], trees, master_seed, workers)
    b1, res, shorted, w_hat = (np.array(col) for col in zip(*records))
    n_times_c = n / res
    cond = {v: float(np.mean(n_times_c[b1 == v])) for v in sorted(set(b1.tolist()))}
    corr = _pearson(res / n, 1.0 / w_hat)
    # np.median's own arithmetic on NaN-free input (R and W are finite and
    # positive), without the numpy.ma import its NaN check costs
    prod = np.sort((res / n) * w_hat)
    m = len(prod)
    median_prod = float((prod[(m - 1) // 2] + prod[m // 2]) / 2.0)
    return GwReport(b1, res, shorted, w_hat, n_times_c, cond, corr, median_prod)
