"""Edge-weight distributions, tree model descriptions, and seeded RNG streams.

Everything downstream (evaluators, flow solver, Monte Carlo engine) builds on
the three types defined here: WeightDistribution, TreeModel and RngStream.
Resistances follow the depth scaling r_e = lam**(level-1) * X_e, where the
level of an edge counts the edges on the root-to-edge path inclusive (the
root edge has level 1).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

# lam**(level-1) stays comfortably inside float64 range for lam <= 2
LEVEL_CAP = 60

# hard ceiling on explicitly materialized tree nodes
MEMORY_GUARD = 2**25

_PROB_TOL = 1e-12


class ValidationError(ValueError):
    """Invalid model, distribution, or argument (maps to CLI exit code 2)."""


class GuardError(RuntimeError):
    """A resource guard tripped: level cap, node count, or population size
    (maps to CLI exit code 3)."""


# ---------------------------------------------------------------------------
# weight distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Moments:
    """Closed-form moments of a weight law X and of its reciprocal 1/X."""

    mean: float
    variance: float
    second_moment: float
    recip_mean: float
    recip_variance: float


@dataclass(frozen=True)
class WeightDistribution:
    """Law of the i.i.d. edge weight X, supported on [a, b] with 0 < a <= b.

    kind is one of 'constant', 'uniform', 'twopoint', 'discrete'.  Atom-based
    kinds carry their (value, probability) pairs; 'uniform' has no atoms.
    """

    kind: str
    a: float
    b: float
    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "uniform", "twopoint", "discrete"):
            raise ValidationError(f"dist: unknown kind {self.kind!r}")
        if not (self.a > 0.0):
            raise ValidationError(
                f"dist: lower support bound a={self.a} must be > 0"
            )
        if self.a > self.b:
            raise ValidationError(
                f"dist: support bounds inverted (a={self.a} > b={self.b})"
            )
        if self.kind != "uniform":
            if not self.atoms:
                raise ValidationError(f"dist: kind {self.kind} needs atoms")
            total = math.fsum(p for _, p in self.atoms)
            if abs(total - 1.0) > _PROB_TOL:
                raise ValidationError(
                    f"dist: atom probabilities sum to {total!r}, not 1"
                )
            for v, p in self.atoms:
                if p < 0.0:
                    raise ValidationError(f"dist: negative probability {p}")
                if v < self.a or v > self.b:
                    raise ValidationError(
                        f"dist: atom {v} outside support [{self.a}, {self.b}]"
                    )

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value: float) -> "WeightDistribution":
        return WeightDistribution("constant", value, value, ((value, 1.0),))

    @staticmethod
    def uniform(a: float, b: float) -> "WeightDistribution":
        return WeightDistribution("uniform", a, b)

    @staticmethod
    def two_point(a: float, b: float, p: float = 0.5) -> "WeightDistribution":
        if not (0.0 <= p <= 1.0):
            raise ValidationError(f"dist: twopoint probability p={p} not in [0,1]")
        return WeightDistribution("twopoint", a, b, ((a, p), (b, 1.0 - p)))

    @staticmethod
    def discrete(atoms: Iterable[tuple[float, float]]) -> "WeightDistribution":
        pairs = tuple(sorted((float(v), float(p)) for v, p in atoms))
        if not pairs:
            raise ValidationError("dist: discrete law needs at least one atom")
        return WeightDistribution("discrete", pairs[0][0], pairs[-1][0], pairs)

    # -- moments ------------------------------------------------------------

    def moments(self) -> Moments:
        """Exact closed-form mean/variance of X, E[X^2], and reciprocal stats."""
        if self.kind == "uniform":
            a, b = self.a, self.b
            mean = 0.5 * (a + b)
            var = (b - a) ** 2 / 12.0
            m2 = var + mean * mean
            if a == b:
                rmean = 1.0 / a
                rvar = 0.0
            else:
                rmean = math.log(b / a) / (b - a)
                rvar = 1.0 / (a * b) - rmean * rmean
            return Moments(mean, var, m2, rmean, rvar)
        vals = np.array([v for v, _ in self.atoms])
        probs = np.array([p for _, p in self.atoms])
        mean = float(np.dot(probs, vals))
        m2 = float(np.dot(probs, vals * vals))
        var = max(m2 - mean * mean, 0.0)
        rmean = float(np.dot(probs, 1.0 / vals))
        rm2 = float(np.dot(probs, 1.0 / (vals * vals)))
        rvar = max(rm2 - rmean * rmean, 0.0)
        return Moments(mean, var, m2, rmean, rvar)

    @cached_property
    def _cdf(self) -> tuple[np.ndarray, list[float], np.ndarray]:
        """Cumulative atom probabilities (as an array and as a list for
        scalar bisection) and the atom values, built once per law."""
        cum = np.cumsum([p for _, p in self.atoms])
        return cum, cum.tolist(), np.array([v for v, _ in self.atoms])


def _transform(dist: WeightDistribution, u):
    """Map uniforms on [0,1) to weight draws.  Works elementwise on scalars
    and arrays with bit-identical results, so block draws match repeated
    single draws from the same stream."""
    if dist.kind == "constant":
        v = dist.atoms[0][0]
        return np.full_like(np.asarray(u, dtype=np.float64), v) if np.ndim(u) else v
    if dist.kind == "uniform":
        return dist.a + (dist.b - dist.a) * u
    if dist.kind == "twopoint":
        (lo, p), (hi, _) = dist.atoms
        return np.where(np.asarray(u) < p, lo, hi) if np.ndim(u) else (lo if u < p else hi)
    cum, cum_list, vals = dist._cdf
    # the len - 1 clamp guards the u ~ 1 edge under prob rounding
    if np.ndim(u):
        return vals[np.minimum(np.searchsorted(cum, u, side="right"), len(vals) - 1)]
    return float(vals[min(bisect_right(cum_list, u), len(vals) - 1)])


def dist_sample(dist: WeightDistribution, rng: "RngStream") -> float:
    """Draw one weight.  Consumes exactly one raw uniform for every kind."""
    return float(_transform(dist, rng.uniform()))


def dist_sample_block(dist: WeightDistribution, rng: "RngStream", size: int) -> np.ndarray:
    """Draw `size` weights in one block; bit-identical to `size` single draws."""
    return np.asarray(_transform(dist, rng.uniforms(size)), dtype=np.float64)


# ---------------------------------------------------------------------------
# tree models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TreeModel:
    """A tree shape plus the weight law and the depth-scaling base lam.

    shape 'regular': full beta-ary tree below a single root edge.
    shape 'gw': branching tree below a single root edge, offspring pmf with
    no mass at zero so every branch reaches the target depth.
    """

    shape: str
    weights: WeightDistribution
    beta: int | None = None
    offspring: tuple[tuple[int, float], ...] | None = None
    lam: float = 0.0  # 0 means "use the default": beta, or the offspring mean

    def __post_init__(self) -> None:
        if self.shape not in ("regular", "gw"):
            raise ValidationError(f"model: unknown shape {self.shape!r}")
        if self.shape == "regular":
            if self.beta is None or self.beta < 2:
                raise ValidationError(
                    f"model: regular shape needs arity beta >= 2, got {self.beta}"
                )
        else:
            if not self.offspring:
                raise ValidationError("model: gw shape needs an offspring pmf")
            total = math.fsum(p for _, p in self.offspring)
            if abs(total - 1.0) > _PROB_TOL:
                raise ValidationError(
                    f"model: offspring probabilities sum to {total!r}, not 1"
                )
            for k, p in self.offspring:
                if k == 0 and p > 0.0:
                    raise ValidationError(
                        "model: offspring law puts mass at zero children"
                    )
                if k < 0 or k != int(k):
                    raise ValidationError(f"model: bad offspring count {k}")
                if p < 0.0:
                    raise ValidationError(f"model: negative offspring probability {p}")
        if self.lam == 0.0:
            object.__setattr__(self, "lam", self.offspring_mean())
        if not (self.lam > 0.0) or not math.isfinite(self.lam):
            raise ValidationError(f"model: scaling base lam={self.lam} must be > 0")

    # -- offspring helpers --------------------------------------------------

    def offspring_mean(self) -> float:
        if self.shape == "regular":
            return float(self.beta)
        return float(math.fsum(k * p for k, p in self.offspring))

    def offspring_variance(self) -> float:
        if self.shape == "regular":
            return 0.0
        m = self.offspring_mean()
        m2 = math.fsum(k * k * p for k, p in self.offspring)
        return max(m2 - m * m, 0.0)

    @cached_property
    def _offspring_cdf(self) -> tuple[np.ndarray, list[float], np.ndarray]:
        """Cumulative offspring probabilities (array and list) and the
        offspring counts, built once per gw model."""
        cum = np.cumsum([p for _, p in self.offspring])
        return cum, cum.tolist(), np.array([k for k, _ in self.offspring], dtype=np.int64)

    @staticmethod
    def regular(beta: int, weights: WeightDistribution, lam: float = 0.0) -> "TreeModel":
        return TreeModel("regular", weights, beta=beta, lam=lam)

    @staticmethod
    def galton_watson(
        offspring: Iterable[tuple[int, float]],
        weights: WeightDistribution,
        lam: float = 0.0,
    ) -> "TreeModel":
        return TreeModel("gw", weights, offspring=tuple(offspring), lam=lam)


def sample_offspring(model: TreeModel, rng: "RngStream") -> int:
    """Draw one offspring count (one raw uniform)."""
    if model.shape == "regular":
        return int(model.beta)
    _, cum_list, _ = model._offspring_cdf
    idx = min(bisect_right(cum_list, rng.uniform()), len(cum_list) - 1)
    return int(model.offspring[idx][0])


def sample_offspring_block(model: TreeModel, rng: "RngStream", size: int) -> np.ndarray:
    if model.shape == "regular":
        return np.full(size, int(model.beta), dtype=np.int64)
    cum, _, vals = model._offspring_cdf
    idx = np.minimum(np.searchsorted(cum, rng.uniforms(size), side="right"), len(vals) - 1)
    return vals[idx]


# ---------------------------------------------------------------------------
# depth scaling
# ---------------------------------------------------------------------------


def edge_resistance(level: int, x: float, lam: float) -> float:
    """Resistance lam**(level-1) * x of an edge at the given level (root edge
    is level 1)."""
    if level < 1:
        raise ValidationError(f"edge level must be >= 1, got {level}")
    if level > LEVEL_CAP:
        raise GuardError(f"edge level {level} exceeds the level cap {LEVEL_CAP}")
    if not (x > 0.0):
        raise ValidationError(f"edge weight must be > 0, got {x}")
    if not (lam > 0.0):
        raise ValidationError(f"scaling base must be > 0, got {lam}")
    scale = lam ** (level - 1)
    if not math.isfinite(scale):
        raise GuardError(f"lam**{level - 1} overflows the working precision")
    return scale * x


def level_scales(lam: float, n_levels: int) -> np.ndarray:
    """Table [1, lam, lam^2, ...] built by cumulative multiplication.

    Both evaluators and the explicit-tree sampler read from this table so the
    same (level, weight) pair always maps to the same resistance bits.
    """
    if n_levels < 1:
        raise ValidationError(f"need at least one level, got {n_levels}")
    if n_levels > LEVEL_CAP:
        raise GuardError(f"{n_levels} levels exceed the level cap {LEVEL_CAP}")
    scales = np.cumprod(np.concatenate(([1.0], np.full(n_levels - 1, lam))))
    if not np.isfinite(scales[-1]):
        raise GuardError(f"lam**{n_levels - 1} overflows the working precision")
    return scales


# ---------------------------------------------------------------------------
# seeded streams
# ---------------------------------------------------------------------------


@dataclass
class RngStream:
    """One deterministic random stream, keyed by (master_seed, stream_index).

    Distinct stream indices give statistically independent streams (the pair
    is fed through SeedSequence spawn keys).  Block draws and repeated single
    draws produce the same underlying sequence, which the evaluators rely on.
    """

    master_seed: int
    stream_index: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.master_seed < 0 or self.stream_index < 0:
            raise ValidationError("seed and stream index must be non-negative")
        ss = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))
        object.__setattr__(self, "_gen", np.random.Generator(np.random.PCG64(ss)))

    def uniform(self) -> float:
        return float(self._gen.random())

    def uniforms(self, size: int, out: np.ndarray | None = None) -> np.ndarray:
        """The next `size` uniforms; with `out` (a float64 array of that
        length), they are written into it in place and it is returned."""
        return self._gen.random(size, out=out)

    def integers(self, low: int, high: int, size: int | None = None):
        """Uniform integers in [low, high)."""
        return self._gen.integers(low, high, size=size)


def derive_seed(master_seed: int, *keys: int) -> int:
    """Fold extra keys (e.g. a sweep's n) into a fresh 64-bit master seed."""
    ss = np.random.SeedSequence(master_seed, spawn_key=tuple(int(k) for k in keys))
    lo, hi = ss.generate_state(2)
    return int(lo) | (int(hi) << 32)


# ---------------------------------------------------------------------------
# literal syntax (shared by config files and CLI flags)
# ---------------------------------------------------------------------------


def parse_distribution(text: str) -> WeightDistribution:
    """Parse a distribution literal.

    Accepted forms: const:v | unif:a,b | twopoint:a,b[,p] | disc:v1:p1,v2:p2,...
    """
    head, sep, body = text.partition(":")
    if not sep:
        raise ValidationError(f"dist: missing ':' in literal {text!r}")
    try:
        if head == "const":
            return WeightDistribution.constant(float(body))
        if head == "unif":
            a, b = (float(s) for s in body.split(","))
            return WeightDistribution.uniform(a, b)
        if head == "twopoint":
            parts = [float(s) for s in body.split(",")]
            if len(parts) == 2:
                return WeightDistribution.two_point(parts[0], parts[1])
            if len(parts) == 3:
                return WeightDistribution.two_point(parts[0], parts[1], parts[2])
            raise ValidationError(f"dist: twopoint takes a,b[,p], got {body!r}")
        if head == "disc":
            atoms = []
            for item in body.split(","):
                v, _, p = item.partition(":")
                if not _:
                    raise ValidationError(f"dist: bad atom {item!r} (want value:prob)")
                atoms.append((float(v), float(p)))
            return WeightDistribution.discrete(atoms)
    except ValidationError:
        raise
    except ValueError as exc:
        raise ValidationError(f"dist: malformed literal {text!r}: {exc}") from exc
    raise ValidationError(f"dist: unknown kind {head!r} in literal {text!r}")


def parse_offspring(text: str) -> tuple[tuple[int, float], ...]:
    """Parse an offspring pmf literal 'k1:p1,k2:p2,...'."""
    atoms = []
    for item in text.split(","):
        k, sep, p = item.partition(":")
        if not sep:
            raise ValidationError(f"offspring: bad entry {item!r} (want count:prob)")
        try:
            atoms.append((int(k), float(p)))
        except ValueError as exc:
            raise ValidationError(f"offspring: malformed entry {item!r}: {exc}") from exc
    return tuple(atoms)
