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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .evaluate import (
    ResistanceSample,
    _regular_replicates,
    gw_shorted_resistance,
    gw_w_estimate,
    resistance_of_tree,
    sample_tree_explicit,
)
from .flows import concentration_diagnostics, solve_flow
from .model import (
    RngStream,
    TreeModel,
    ValidationError,
    WeightDistribution,
    derive_seed,
    dist_sample_block,
)

QUANTILES = (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99)

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

    def samples(self):
        for j in range(self.m):
            yield ResistanceSample(
                self.n, j, float(self.resistance[j]), float(self.conductance[j])
            )

    @staticmethod
    def from_values(n: int, resistance: np.ndarray, master_seed: int = 0) -> "ReplicateSet":
        r = np.asarray(resistance, dtype=np.float64)
        return ReplicateSet(n, len(r), master_seed, r, 1.0 / r)


def _replicate_chunk(model: TreeModel, n: int, master_seed: int, j0: int, j1: int) -> np.ndarray:
    if model.shape == "regular":
        return _regular_replicates(model, n, master_seed, j0, j1)
    out = np.empty(j1 - j0, dtype=np.float64)
    for j in range(j0, j1):
        tree = sample_tree_explicit(model, n, RngStream(master_seed, j))
        out[j - j0] = resistance_of_tree(tree).resistance
    return out


def run_replicates(
    model: TreeModel, n: int, m: int, master_seed: int, workers: int = 1
) -> ReplicateSet:
    """Evaluate m replicates; replicate j uses stream j.  The worker count
    splits the replicate range but cannot change any value."""
    if m < 1:
        raise ValidationError(f"need at least one replicate, got m={m}")
    if workers <= 1 or m < 4:
        resistance = _replicate_chunk(model, n, master_seed, 0, m)
    else:
        step = -(-m // (workers * 4))
        chunks = [(j, min(j + step, m)) for j in range(0, m, step)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(
                    _replicate_chunk,
                    *zip(*((model, n, master_seed, j0, j1) for j0, j1 in chunks)),
                )
            )
        resistance = np.concatenate(parts)
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
    m3: float
    m4: float
    se_mean: float
    se_variance: float  # delete-1 jackknife
    quantiles: tuple[float, ...]


def _variable_stats(x: np.ndarray) -> VariableStats:
    m = len(x)
    mean = float(np.mean(x))
    d = x - mean
    s2 = float(np.sum(d * d))
    m2 = s2 / m
    m3 = float(np.sum(d**3)) / m
    m4 = float(np.sum(d**4)) / m
    var = s2 / (m - 1)
    se_mean = math.sqrt(var / m)
    if m >= 3:
        # leave-one-out unbiased variances in closed form
        loo = (s2 - m * d * d / (m - 1)) / (m - 2)
        se_var = math.sqrt((m - 1) / m * float(np.sum((loo - np.mean(loo)) ** 2)))
    else:
        se_var = float("nan")
    qs = tuple(float(q) for q in np.quantile(x, QUANTILES))
    return VariableStats(mean, var, m2, m3, m4, se_mean, se_var, qs)


@dataclass(frozen=True)
class MomentReport:
    n: int
    m: int
    r: VariableStats
    c: VariableStats


def estimate_moments(samples: ReplicateSet) -> MomentReport:
    if samples.m < 2:
        raise ValidationError(f"moment estimation needs m >= 2, got {samples.m}")
    return MomentReport(
        samples.n,
        samples.m,
        _variable_stats(samples.resistance),
        _variable_stats(samples.conductance),
    )


@dataclass(frozen=True)
class TailReport:
    n: int
    m: int
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
        raise ValidationError(f"tail estimation needs m >= 100, got {samples.m}")
    t = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=np.float64)
    x = samples.resistance
    m = samples.m
    mean = float(np.mean(x))
    sd = float(np.std(x, ddof=1))
    dev = np.abs(x - mean)
    count = np.array([int(np.sum(dev > tt)) for tt in t], dtype=np.int64)
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
    else:
        bound = 2.0 * np.exp(-(t * t) / (4.0 * tail_constant))
    return TailReport(samples.n, m, t, count, p, lo, hi, bound, mean, sd)


# ---------------------------------------------------------------------------
# explicit variance-bound constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VarianceBound:
    """Constant chain for the conductance variance ceiling 2^10 * K / n^4."""

    k0: float
    k1: float
    k: float
    n: int
    bound: float


def variance_bound_constants(a: float, b: float, var_recip: float, n: int) -> VarianceBound:
    """K0 = (1/2)(b/a)^4 (1/b - 1/a)^2 from the single-resample step,
    K1 = max(K0, Var[1/X]) seeds the recursion, K = max(b^4, 1) * K1 carries
    the bound over to the resistance; the ceiling is 2^10 K / n^4."""
    if not (0.0 < a <= b):
        raise ValidationError(f"need 0 < a <= b, got a={a}, b={b}")
    if var_recip < 0.0:
        raise ValidationError(f"Var[1/X] must be >= 0, got {var_recip}")
    if n < 1:
        raise ValidationError(f"depth n={n} must be >= 1")
    k0 = 0.5 * (b / a) ** 4 * (1.0 / b - 1.0 / a) ** 2
    k1 = max(k0, var_recip)
    k = max(b**4, 1.0) * k1
    return VarianceBound(k0, k1, k, n, 2.0**10 * k / float(n) ** 4)


# ---------------------------------------------------------------------------
# conductance distribution recursion (population dynamics)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RDEPool:
    """Sample pool approximating the conductance law at one depth."""

    level: int
    values: np.ndarray
    dist: WeightDistribution


def rde_init(dist: WeightDistribution, m: int, rng: RngStream) -> RDEPool:
    """Depth-1 pool: the conductance of a single edge is 1/X."""
    if m < 1:
        raise ValidationError(f"pool size must be >= 1, got {m}")
    return RDEPool(1, 1.0 / dist_sample_block(dist, rng, m), dist)


def rde_step(pool: RDEPool, dist: WeightDistribution, rng: RngStream) -> RDEPool:
    """One depth step of the distributional recursion
    C' = S / (1 + X*S) with S the mean of two pool draws.

    Each output entry resamples two pool values with replacement and a fresh
    weight; the pool size stays fixed.  Draw order: both index blocks, then
    the weight block.
    """
    if len(pool.values) == 0:
        raise ValidationError("cannot step an empty pool")
    m = len(pool.values)
    i = rng.integers(0, m, m)
    j = rng.integers(0, m, m)
    x = dist_sample_block(dist, rng, m)
    s = 0.5 * (pool.values[i] + pool.values[j])
    return RDEPool(pool.level + 1, s / (1.0 + x * s), dist)


def rde_levels(
    dist: WeightDistribution, m: int, max_level: int, rng: RngStream
) -> list[RDEPool]:
    """Pools for depths 1..max_level from one stream."""
    pools = [rde_init(dist, m, rng)]
    for _ in range(1, max_level):
        pools.append(rde_step(pools[-1], dist, rng))
    return pools


# ---------------------------------------------------------------------------
# asymptotic fits
# ---------------------------------------------------------------------------


@dataclass
class FitReport:
    ns: np.ndarray
    means: np.ndarray
    ses: np.ndarray
    alpha: float
    beta: float
    gamma: float
    se_alpha: float
    se_beta: float
    se_gamma: float
    residuals: np.ndarray
    constrained_residuals: np.ndarray
    constrained_range: float
    var_slope: float | None = None
    var_intercept: float | None = None


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
    if len(np.unique(ns)) != len(ns):
        raise ValidationError("fit grid has repeated n values")
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
        ns, means, ses,
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
    master seed so the grids stay decorrelated."""
    reports = []
    for n in ns:
        seed_n = derive_seed(master_seed, n)
        batch = run_replicates(model, n, reps_for[n], seed_n, workers)
        reports.append(estimate_moments(batch))
    return reports


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt(np.sum(dx * dx)))
    sy = float(np.sqrt(np.sum(dy * dy)))
    if sx == 0.0 or sy == 0.0:
        return float("nan")  # degenerate samples have no defined correlation
    return float(np.sum(dx * dy)) / (sx * sy)


@dataclass(frozen=True)
class GwReport:
    """Per-tree branching records plus the root-degree conditioning summary."""

    n: int
    trees: int
    b1: np.ndarray
    resistance: np.ndarray
    shorted: np.ndarray
    w_hat: np.ndarray
    n_times_c: np.ndarray
    cond_mean_nc: dict[int, float]
    corr_scaled_r_vs_inv_w: float
    median_scaled_product: float


def gw_experiment(model: TreeModel, n: int, trees: int, master_seed: int) -> GwReport:
    """Sample branching trees and record, per tree, the exact resistance, the
    level-shorted series sum, the normalized depth-n population, the root
    offspring count, and n*C_n; then condition n*C_n on the root count."""
    lam = model.lam
    b1 = np.empty(trees, dtype=np.int64)
    res = np.empty(trees, dtype=np.float64)
    shorted = np.empty(trees, dtype=np.float64)
    w_hat = np.empty(trees, dtype=np.float64)
    for j in range(trees):
        tree = sample_tree_explicit(model, n, RngStream(master_seed, j))
        z = tree.level_counts()
        b1[j] = int(np.sum(tree.parent == 0))
        res[j] = resistance_of_tree(tree).resistance
        shorted[j] = gw_shorted_resistance(z, lam)
        w_hat[j] = gw_w_estimate(int(z[-1]), lam, n)
    n_times_c = n / res
    cond = {
        int(v): float(np.mean(n_times_c[b1 == v])) for v in np.unique(b1)
    }
    corr = _pearson(res / n, 1.0 / w_hat)
    median_prod = float(np.median((res / n) * w_hat))
    return GwReport(n, trees, b1, res, shorted, w_hat, n_times_c,
                    cond, corr, median_prod)


@dataclass(frozen=True)
class EfronSteinReport:
    """Sample variance of R against the resample-difference flow bound.

    bound_scaled uses the depth-scaled fourth-power sum (the form the tail
    argument needs); bound_plain_half is the unscaled variant sometimes
    quoted, reported for comparison only.
    """

    n: int
    m: int
    var_r: float
    se_var_r: float
    mean_s4_scaled: float
    mean_s4_plain: float
    bound_scaled: float
    bound_plain_half: float


def efron_stein_diagnostic(
    model: TreeModel, n: int, m: int, master_seed: int
) -> EfronSteinReport:
    a, b = model.weights.a, model.weights.b
    res = np.empty(m, dtype=np.float64)
    s4s = np.empty(m, dtype=np.float64)
    s4p = np.empty(m, dtype=np.float64)
    for j in range(m):
        tree = sample_tree_explicit(model, n, RngStream(master_seed, j))
        flow = solve_flow(tree)
        res[j] = flow.resistance
        report = concentration_diagnostics(flow, a, b)
        s4s[j] = report.s4_scaled
        s4p[j] = report.s4_plain
    stats = _variable_stats(res)
    spread = (b - a) ** 2
    return EfronSteinReport(
        n, m, stats.variance, stats.se_variance,
        float(np.mean(s4s)), float(np.mean(s4p)),
        spread * float(np.mean(s4s)), 0.5 * spread * float(np.mean(s4p)),
    )
