"""Edge-weight distributions, tree model descriptions, and seeded RNG streams.

Everything downstream (evaluators, flow solver, Monte Carlo engine) builds on
the three types defined here: WeightDistribution, TreeModel and RngStream.
A range of streams comes from streams(), which derives their seeds in
vectorized passes over pieces of the range (_seed_words), and stream_block()
gives a range of streams as one RngStream whose PCG64 generators step in
lockstep as uint64 array ops (_Lockstep), one column per stream.  Both draw
exactly what the lone RngStream of each index draws.
Every draw maps a block of a stream's uniforms through array functions
(_transform, _inverse_cdf), so a uniform's draw does not depend on the block.
Resistances follow the depth scaling r_e = lam**(level-1) * X_e, where the
level of an edge counts the edges on the root-to-edge path inclusive (the
root edge has level 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Iterable, Iterator

import numpy as np

# lam**(level-1) stays comfortably inside float64 range for lam <= 2
LEVEL_CAP = 60

# hard ceiling on explicitly materialized tree nodes
MEMORY_GUARD = 2**25

# the least edge resistance a model may reach: no sum of at most MEMORY_GUARD
# conductances or reciprocal weights can then overflow
_CONDUCTANCE_FLOOR = MEMORY_GUARD / float(np.finfo(np.float64).max)

# streams() seeds from one-word spawn keys, so stream indices stay below this
STREAM_LIMIT = 2**32

# streams() derives seed words this many streams at a time, which bounds the
# memory a long range holds to a few hundred KiB
_SEED_PIECE = 4096

_PROB_TOL = 1e-12


class ValidationError(ValueError):
    """Invalid model, distribution, or argument (maps to CLI exit code 2)."""


class GuardError(RuntimeError):
    """A resource guard tripped: level cap, node count, population size, or
    the float range (maps to CLI exit code 3)."""


def _bound_constant(a: float, b: float, formula) -> float:
    """formula(), a constant of the weight envelope [a, b]; a GuardError that
    names a and b when it overflows, divides by zero or is not finite."""
    try:
        value = formula()
    except (OverflowError, ZeroDivisionError):
        value = math.nan
    if not math.isfinite(value):
        raise GuardError(f"a={a}, b={b}: a bound constant leaves the float range")
    return value


def _check_probability(what: str, p: float) -> None:
    if not (math.isfinite(p) and p >= 0.0):
        raise ValidationError(f"{what} probability {p} must be finite and >= 0")


def _check_total(what: str, total: float) -> None:
    # written so that a NaN total fails
    if not abs(total - 1.0) <= _PROB_TOL:
        raise ValidationError(f"{what} probabilities sum to {total!r}, not 1")


# ---------------------------------------------------------------------------
# weight distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Moments:
    """Closed-form moments of a weight law X and of its reciprocal 1/X."""

    mean: float
    variance: float
    recip_mean: float
    recip_variance: float


@dataclass(frozen=True)
class WeightDistribution:
    """Law of the i.i.d. edge weight X, supported on [a, b] with 0 < a <= b.

    A law with no atoms is uniform on [a, b]; otherwise X takes the value of
    each (value, probability) atom with its probability.
    """

    a: float
    b: float
    atoms: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not (self.a > 0.0 and math.isfinite(self.b)):
            raise ValidationError(
                f"dist: support bounds a={self.a}, b={self.b} must be finite with a > 0"
            )
        if self.a > self.b:
            raise ValidationError(
                f"dist: support bounds inverted (a={self.a} > b={self.b})"
            )
        for v, p in self.atoms:
            _check_probability("dist: atom", p)
            if not (self.a <= v <= self.b):
                raise ValidationError(
                    f"dist: atom {v} outside support [{self.a}, {self.b}]"
                )
        if self.atoms:
            _check_total("dist: atom", math.fsum(p for _, p in self.atoms))

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value: float) -> "WeightDistribution":
        return WeightDistribution(value, value, ((value, 1.0),))

    @staticmethod
    def uniform(a: float, b: float) -> "WeightDistribution":
        return WeightDistribution(a, b)

    @staticmethod
    def two_point(a: float, b: float, p: float = 0.5) -> "WeightDistribution":
        if not (0.0 <= p <= 1.0):
            raise ValidationError(f"dist: twopoint probability p={p} not in [0,1]")
        return WeightDistribution(a, b, ((a, p), (b, 1.0 - p)))

    @staticmethod
    def discrete(atoms: Iterable[tuple[float, float]]) -> "WeightDistribution":
        pairs = tuple(sorted((float(v), float(p)) for v, p in atoms))
        if not pairs:
            raise ValidationError("dist: discrete law needs at least one atom")
        return WeightDistribution(pairs[0][0], pairs[-1][0], pairs)

    # -- moments ------------------------------------------------------------

    def moments(self) -> Moments:
        """Exact closed-form mean/variance of X and of 1/X."""
        if not self.atoms:
            a, b = self.a, self.b
            mean = 0.5 * (a + b)
            var = (b - a) ** 2 / 12.0
            if a == b:
                rmean = 1.0 / a
                rvar = 0.0
            else:
                rmean = math.log(b / a) / (b - a)
                rvar = 1.0 / (a * b) - rmean * rmean
            return Moments(mean, var, rmean, rvar)
        vals = np.array([v for v, _ in self.atoms])
        probs = np.array([p for _, p in self.atoms])
        mean = float(np.dot(probs, vals))
        m2 = float(np.dot(probs, vals * vals))
        var = max(m2 - mean * mean, 0.0)
        rmean = float(np.dot(probs, 1.0 / vals))
        rm2 = float(np.dot(probs, 1.0 / (vals * vals)))
        rvar = max(rm2 - rmean * rmean, 0.0)
        return Moments(mean, var, rmean, rvar)

    @cached_property
    def _cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """Cumulative atom probabilities and the atom values, built once per law."""
        return np.cumsum([p for _, p in self.atoms]), np.array([v for v, _ in self.atoms])


# a law of more atoms than this maps uniforms by np.searchsorted, a law of
# at most this many by counting the thresholds each uniform reaches (at
# most 255, the uint8 count's range).  Per call, counting beat
# searchsorted at every atom count measured up to 64 on 8192 and 65536
# uniforms, 2.7-3.3x at 16 atoms; on the walk's first peeks, 1434 and 2286
# uniforms, it ties at about 5-8 atoms and is 2-3x slower at 16
_COUNT_ATOMS = 16


def _inverse_cdf(cum: np.ndarray, vals: np.ndarray, u: np.ndarray) -> np.ndarray:
    """vals[i] for the first cum[i] > u, and the last value where none is
    (u ~ 1 under rounding): vals indexed by min(searchsorted(cum, u,
    "right"), K - 1), which for a sorted cum is the count of the first
    K - 1 thresholds that u reaches."""
    if len(vals) > _COUNT_ATOMS:
        return vals[np.minimum(np.searchsorted(cum, u, side="right"), len(vals) - 1)]
    idx = np.zeros(u.shape, dtype=np.uint8)
    for c in cum[:-1].tolist():
        idx += u >= c
    return np.take(vals, idx)


def _transform(dist: WeightDistribution, u: np.ndarray) -> np.ndarray:
    """Map an array of uniforms on [0,1) in place to weight draws and return
    it.  The map is elementwise, so a uniform gives the same bits wherever a
    block split puts it.

    No atoms: affine onto [a, b].  One or two atoms: the inverse CDF's pick
    by a branch-free select; the mask u < p (p the first atom's probability)
    as int64 0/1, times bits(first) ^ bits(last), xor bits(last), is
    bits(first) where u < p and bits(last) elsewhere.
    """
    if not dist.atoms:
        np.multiply(u, dist.b - dist.a, out=u)
        np.add(u, dist.a, out=u)
    elif len(dist.atoms) <= 2:
        (lo, p), (hi, _) = dist.atoms[0], dist.atoms[-1]
        lo_bits, hi_bits = np.array([lo, hi]).view(np.int64).tolist()
        mask = u.view(np.int64)
        np.less(u, p, out=mask)
        np.multiply(mask, lo_bits ^ hi_bits, out=mask)
        np.bitwise_xor(mask, hi_bits, out=mask)
    else:
        u[...] = _inverse_cdf(*dist._cdf, u)
    return u


def dist_sample_block(dist: WeightDistribution, rng: "RngStream", size: int) -> np.ndarray:
    """Draw `size` weights in one block (one raw uniform each)."""
    return _transform(dist, rng.uniforms(size))


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
    lam: float | None = None  # None means "derive": beta, or the offspring mean

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
            for k, p in self.offspring:
                _check_probability("model: offspring", p)
                if k == 0 and p > 0.0:
                    raise ValidationError(
                        "model: offspring law puts mass at zero children"
                    )
                if k < 0 or k != int(k):
                    raise ValidationError(f"model: bad offspring count {k}")
            _check_total("model: offspring", math.fsum(p for _, p in self.offspring))
        if self.lam is None:
            object.__setattr__(self, "lam", self.offspring_mean())
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValidationError(f"lam: scaling base must be finite and > 0, got {self.lam}")

    # -- depth scaling ------------------------------------------------------

    def scales(self, n: int) -> np.ndarray:
        """level_scales of a depth-n tree (n edge levels for the regular
        shape, n + 1 for the branching one), the evaluators' one depth
        check, run before any layout or draw: it refuses n < 1, more than
        LEVEL_CAP levels, and an edge resistance X * lam**(l-1) that could
        leave the float range (b * sum(scales) must be finite, and
        a * min(scales) at least _CONDUCTANCE_FLOOR)."""
        if n < 1:
            raise ValidationError(f"depth n={n} must be >= 1")
        scales = level_scales(self.lam, n if self.shape == "regular" else n + 1)
        a, b = self.weights.a, self.weights.b
        try:
            top = b * math.fsum(scales.tolist())
        except OverflowError:  # fsum refuses an intermediate overflow
            top = math.inf
        if not math.isfinite(top):
            raise GuardError(f"lam={self.lam} with dist up to b={b}: a root-to-leaf "
                             f"resistance at depth {n} overflows the working precision")
        if a * float(scales.min()) < _CONDUCTANCE_FLOOR:
            raise GuardError(f"lam={self.lam} with dist down to a={a}: an edge resistance "
                             f"at depth {n} underflows the floor {_CONDUCTANCE_FLOOR:.3g}")
        return scales

    def min_nodes(self, n: int) -> int:
        """Node count of the smallest depth-n tree the model can give, the
        size guards' one count: the full beta-ary tree for the regular
        shape, and for the branching shape the tree whose every internal
        node has the least offspring count with positive mass."""
        if self.shape == "regular":
            beta = int(self.beta)
            return (beta**n - 1) // (beta - 1)
        kmin = min(k for k, p in self.offspring if p > 0.0)
        return sum(kmin**l for l in range(n + 1))

    # -- offspring helpers --------------------------------------------------

    def offspring_mean(self) -> float:
        if self.shape == "regular":
            return float(self.beta)
        return float(math.fsum(k * p for k, p in self.offspring))

    @cached_property
    def _offspring_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """Cumulative offspring probabilities and the counts, built once per model."""
        return (np.cumsum([p for _, p in self.offspring]),
                np.array([k for k, _ in self.offspring], dtype=np.int64))

    @staticmethod
    def regular(beta: int, weights: WeightDistribution, lam: float | None = None) -> "TreeModel":
        return TreeModel("regular", weights, beta=beta, lam=lam)

    @staticmethod
    def galton_watson(
        offspring: Iterable[tuple[int, float]],
        weights: WeightDistribution,
        lam: float | None = None,
    ) -> "TreeModel":
        return TreeModel("gw", weights, offspring=tuple(offspring), lam=lam)


# ---------------------------------------------------------------------------
# depth scaling
# ---------------------------------------------------------------------------


def level_scales(lam: float, n_levels: int) -> np.ndarray:
    """Table [1, lam, lam^2, ...] built by cumulative multiplication.

    Both evaluators and the explicit-tree sampler read from this table so the
    same (level, weight) pair always maps to the same resistance bits.
    """
    if n_levels < 1:
        raise ValidationError(f"need at least one level, got {n_levels}")
    if n_levels > LEVEL_CAP:
        raise GuardError(f"{n_levels} levels exceed the level cap {LEVEL_CAP}")
    with np.errstate(over="ignore"):  # an overflow is refused just below
        scales = np.cumprod(np.concatenate(([1.0], np.full(n_levels - 1, lam))))
    if not np.isfinite(scales[-1]):
        raise GuardError(f"lam={lam}: lam**{n_levels - 1} overflows the working precision")
    return scales


# ---------------------------------------------------------------------------
# seeded streams
# ---------------------------------------------------------------------------


@dataclass
class RngStream:
    """One deterministic random stream, keyed by (master_seed, stream_index).

    Distinct stream indices give statistically independent streams (the pair
    is fed through SeedSequence spawn keys).  A draw split into blocks anywhere
    yields the same uniforms as one block, and peek reads uniforms ahead
    without consuming them; the branching sampler relies on both.

    A lone RngStream(master_seed, j) seeds its PCG64 through numpy's
    SeedSequence.  For one stream that is the cheaper route, and it is the
    independent reference for streams(), which builds a range of streams
    from one vectorized seed derivation with the same draws.
    """

    master_seed: int
    stream_index: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.master_seed < 0 or self.stream_index < 0:
            raise ValidationError("seed and stream index must be non-negative")
        ss = np.random.SeedSequence(self.master_seed, spawn_key=(self.stream_index,))
        object.__setattr__(self, "_gen", np.random.Generator(np.random.PCG64(ss)))

    def uniforms(self, size: int, out: np.ndarray | None = None) -> np.ndarray:
        """The next `size` uniforms; with `out` (a float64 array of that
        length), they are written into it in place and it is returned.  A
        block stream (stream_block) of k streams returns them as a
        (size, k) array, and `out` has that shape."""
        return self._gen.random(size, out=out)

    def peek(self, size: int, skip: int = 0) -> np.ndarray:
        """The `size` uniforms that follow the next `skip`, what
        uniforms(skip + size)[skip:] would return, without consuming any:
        the generator's state is saved, advanced past `skip`, drawn from and
        restored, so every later draw, integers() included, is unchanged.
        A block stream (stream_block) refuses to peek."""
        gen = self._gen
        if not isinstance(gen, np.random.Generator):
            raise ValidationError("peek: a block stream (stream_block) cannot peek")
        if size < 0 or skip < 0:
            raise ValidationError(f"peek: size {size} and skip {skip} must be >= 0")
        bits = gen.bit_generator
        state = bits.state
        try:
            if skip:
                bits.advance(skip)
            return gen.random(size)
        finally:
            bits.state = state

    def integers(self, low: int, high: int, size: int | None = None):
        """Uniform integers in [low, high)."""
        return self._gen.integers(low, high, size=size)


# SeedSequence's hash constants (numpy.random.bit_generator) and pool size
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _hashmix(value, hash_const: int, mult: int = _MULT_A):
    """SeedSequence's hashmix (with _MULT_B, its output hash) of a 32-bit
    word, or of a uint64 array of them: the hashed value and the next hash
    constant, which never depends on the value.  Each product of two 32-bit
    values is masked back to 32 bits, so a uint64 array cannot overflow."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> 16, hash_const


def _mix(x: int, y):
    """SeedSequence's mix of a pool word x with a hashed word (or uint64
    array of them) y; a uint64 difference wraps modulo 2**64, which leaves
    its low 32 bits exact."""
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> 16


def _check_range(master_seed: int, j0: int, j1: int) -> None:
    if master_seed < 0 or not 0 <= j0 <= j1:
        raise ValidationError(f"need a seed >= 0 and 0 <= j0 <= j1, got "
                              f"{master_seed}, {j0}, {j1}")
    if j1 > STREAM_LIMIT:
        raise GuardError(f"stream index {j1 - 1} is past the last index "
                         f"2**32 - 1 of a range of streams")


def _seed_words(master_seed: int, j0: int, j1: int) -> np.ndarray:
    """A (j1 - j0, 4) uint64 array whose row j - j0 is
    SeedSequence(master_seed, spawn_key=(j,)).generate_state(4, np.uint64).

    SeedSequence hashes master_seed's 32-bit words, zero-padded to the pool
    size, then the spawn word j.  Every step before j depends on master_seed
    alone and runs once, in Python ints.  The four steps that mix j into the
    pool and the eight output words run as uint64 array ops on 32-bit values.
    """
    _check_range(master_seed, j0, j1)
    entropy = [master_seed & _MASK32]
    rest = master_seed >> 32
    while rest:
        entropy.append(rest & _MASK32)
        rest >>= 32
    entropy += [0] * (_POOL - len(entropy))
    hash_const = _INIT_A
    pool = []
    for word in entropy[:_POOL]:
        word, hash_const = _hashmix(word, hash_const)
        pool.append(word)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                word, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], word)
    # the last entropy word is the spawn word j, one array over the range
    for word in entropy[_POOL:] + [np.arange(j0, j1, dtype=np.uint64)]:
        for dst in range(_POOL):
            hashed, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], hashed)
    # generate_state: 32-bit output word i hashes pool word i % 4, and each
    # (low, high) pair of output words is one uint64
    out = np.empty((j1 - j0, _POOL), dtype=np.uint64)
    hash_const = _INIT_B
    for i in range(2 * _POOL):
        word, hash_const = _hashmix(pool[i % _POOL], hash_const, _MULT_B)
        if i % 2:
            out[:, i // 2] |= word << 32
        else:
            out[:, i // 2] = word
    return out


@cache
def _seed_row_type() -> type:
    """The ISeedSequence that hands PCG64 one precomputed row of _seed_words.
    It is defined on first use: naming numpy.random when this module is
    imported would load it on every import of the package."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedRow(ISeedSequence):
        def __init__(self, row: np.ndarray) -> None:
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _POOL or dtype is not np.uint64:
                raise ValueError("a seed row holds the 4 uint64 words PCG64 takes")
            return self.row

    return SeedRow


def _row_stream(master_seed: int, j: int, seed_row) -> RngStream:
    rng = object.__new__(RngStream)
    rng.master_seed, rng.stream_index = master_seed, j
    rng._gen = np.random.Generator(np.random.PCG64(seed_row))
    return rng


def streams(master_seed: int, j0: int, j1: int) -> Iterator[RngStream]:
    """RngStream j0..j1-1 of master_seed, in order, built lazily, with their
    seed words derived _SEED_PIECE streams at a time (one _seed_words pass
    per piece).  Stream j owns Generator(PCG64(its seed row)) and draws
    exactly what the lone RngStream(master_seed, j) draws, without a
    SeedSequence of its own.  A bad range is refused on this call."""
    _check_range(master_seed, j0, j1)
    seed_row = _seed_row_type()
    return (_row_stream(master_seed, j, seed_row(row))
            for p0 in range(j0, j1, _SEED_PIECE)
            for j, row in enumerate(_seed_words(master_seed, p0, min(p0 + _SEED_PIECE, j1)), p0))


# numpy's PCG64 multiplier (PCG_DEFAULT_MULTIPLIER_128), high and low words
_PCG_MUL_HI, _PCG_MUL_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


class _Lockstep:
    """The PCG64 generators of a range of streams, stepped together as
    uint64 array ops; stream i is column i.  random(size) gives what
    Generator.random(size) gives on each stream, as a (size, columns) array.

    Each stream's 128-bit state and increment are held as high and low
    uint64 words; array arithmetic wraps modulo 2**64 without a warning.
    The seed words (w0, w1, w2, w3) give the initial state w0:w1 and the
    increment (w2:w3 << 1) | 1, and seeding runs numpy's
    state = 0; step; state += w0:w1; step.  A draw steps
    state = state * multiplier + increment, outputs rotr64(hi ^ lo, hi >> 58)
    (PCG's XSL-RR) and maps it to (out >> 11) * 2**-53.
    """

    def __init__(self, words: np.ndarray) -> None:
        w = np.ascontiguousarray(words.T)
        self.inc_hi = (w[2] << 1) | (w[3] >> 63)
        self.inc_lo = (w[3] << 1) | 1
        self.hi = np.zeros(w.shape[1], dtype=np.uint64)
        self.lo = np.zeros_like(self.hi)
        self.scratch = [np.empty_like(self.hi) for _ in range(4)]
        self._step()
        self.lo += w[1]
        self.hi += w[0] + (self.lo < w[1])
        self._step()

    def _step(self) -> None:
        hi, lo = self.hi, self.lo
        a, b, t, p = self.scratch
        # the high word of lo * _PCG_MUL_LO from 32-bit limbs (Hacker's
        # Delight's mulhu); no partial sum passes 2**64
        np.bitwise_and(lo, _MASK32, out=a)
        np.right_shift(lo, 32, out=b)
        np.multiply(a, _PCG_MUL_LO & _MASK32, out=p)
        np.right_shift(p, 32, out=p)
        np.multiply(b, _PCG_MUL_LO & _MASK32, out=t)
        np.add(t, p, out=t)
        np.bitwise_and(t, _MASK32, out=p)
        np.multiply(a, _PCG_MUL_LO >> 32, out=a)
        np.add(p, a, out=p)
        np.right_shift(p, 32, out=p)
        np.right_shift(t, 32, out=t)
        np.add(p, t, out=p)
        np.multiply(b, _PCG_MUL_LO >> 32, out=b)
        np.add(p, b, out=p)
        # state * multiplier + increment, modulo 2**128
        np.multiply(hi, _PCG_MUL_LO, out=hi)
        np.add(hi, p, out=hi)
        np.multiply(lo, _PCG_MUL_HI, out=a)
        np.add(hi, a, out=hi)
        np.add(hi, self.inc_hi, out=hi)
        np.multiply(lo, _PCG_MUL_LO, out=lo)
        np.add(lo, self.inc_lo, out=lo)
        np.less(lo, self.inc_lo, out=a)  # the carry out of the low word
        np.add(hi, a, out=hi)

    def random(self, size: int, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty((size, self.hi.shape[0]))
        x, r, p, _ = self.scratch
        for row in out:
            self._step()
            np.bitwise_xor(self.hi, self.lo, out=x)
            np.right_shift(self.hi, 58, out=r)
            np.right_shift(x, r, out=p)
            np.subtract(64, r, out=r)
            np.bitwise_and(r, 63, out=r)
            np.left_shift(x, r, out=x)
            np.bitwise_or(p, x, out=p)
            np.right_shift(p, 11, out=p)
            np.multiply(p, 2.0**-53, out=row)
        return out


def stream_block(master_seed: int, j0: int, j1: int) -> RngStream:
    """Streams j0..j1-1 of master_seed as one block RngStream: its
    uniforms(size) returns a (size, j1 - j0) array whose column j - j0 is
    what RngStream(master_seed, j).uniforms(size) returns.  The streams
    are seeded by one _seed_words pass and step in lockstep (_Lockstep):
    no Generator is built per stream, but every draw costs a few dozen
    array ops, so a block pays off for short draws."""
    rng = object.__new__(RngStream)
    rng.master_seed, rng.stream_index = master_seed, j0
    rng._gen = _Lockstep(_seed_words(master_seed, j0, j1))
    return rng


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
