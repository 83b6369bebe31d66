"""Exact effective resistance of sampled trees via series-parallel reduction.

Three evaluation routes produce bit-identical resistances for the same
stream: a memory-light recursion (resistance_streaming), and one vectorized
level fold (_fold) reached from full regular trees (resistance_fast) and from
explicit trees of any shape (sample_tree_explicit + resistance_of_tree).  All
of them draw one uniform per edge in depth-first pre-order, in blocks, with
children visited left to right, and combine children in conductance space,
summed left to right, with a single reciprocal per node.
The fold runs in level-major order (_level_major): pre-order ids stably
sorted by level, so each level is one contiguous left-to-right block.

Regular replicates are evaluated in blocks of streams (_regular_rows): row i
of one draw matrix is filled from stream i, and the whole block is
transformed, gathered level-major and folded at once.  Each row takes the
same arithmetic as a lone tree, so resistance_fast, the one-row case, and
every row of a block give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .model import (
    GuardError,
    LEVEL_CAP,
    MEMORY_GUARD,
    RngStream,
    TreeModel,
    ValidationError,
    _inverse_cdf,
    _transform,
    dist_sample_block,
    level_scales,
)


@dataclass(frozen=True)
class ResistanceSample:
    """One evaluated tree: depth parameter, replicate id, R and C = 1/R."""

    n: int
    replicate: int
    resistance: float
    conductance: float


def _level_major(level: np.ndarray, n_levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Level-major order, the pre-order ids stably sorted by level (order[t]
    is the node in slot t), and the offsets: level l fills slots
    offsets[l-1]:offsets[l]."""
    order = np.argsort(level, kind="stable")
    counts = np.bincount(level, minlength=n_levels + 1)[1:]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    return order, offsets


@dataclass(frozen=True)
class SampledTree:
    """An explicit edge-rooted tree; node i carries its incoming edge.

    Nodes are stored in depth-first pre-order (children left to right), so a
    node's id is always greater than its parent's.  Node 0 sits below the
    unique level-1 root edge; the injection vertex above it is implicit.
    Leaves are exactly the nodes at level n_levels.

    Construction derives the level-major layout `order` and `offsets` (see
    _level_major) and `slot`: per level-major slot, the parent's position
    within its own level (-1 for the root).
    """

    parent: np.ndarray
    level: np.ndarray
    weight: np.ndarray
    resistance: np.ndarray
    n_levels: int
    lam: float
    shape: str
    beta: int | None = None

    def __post_init__(self) -> None:
        order, offsets = _level_major(self.level, self.n_levels)
        pos = np.empty_like(order)
        pos[order] = np.arange(order.shape[0])
        kid = order[1:]
        slot = np.concatenate(([-1], pos[self.parent[kid]] - offsets[self.level[kid] - 2]))
        for name, arr in (("order", order), ("offsets", offsets), ("slot", slot)):
            object.__setattr__(self, name, arr)
        for arr in (self.parent, self.level, self.weight, self.resistance, order, offsets, slot):
            arr.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return int(self.parent.shape[0])

    def leaf_ids(self) -> np.ndarray:
        return np.flatnonzero(self.level == self.n_levels)

    def level_counts(self) -> np.ndarray:
        """Number of nodes per level, index 0 = level 1 (the root edge)."""
        return np.diff(self.offsets)


def reweighted(tree: SampledTree, node: int, x: float) -> SampledTree:
    """Copy of the tree with one edge weight replaced (resistance rescaled)."""
    if not (0 <= node < tree.n_nodes):
        raise ValidationError(f"node {node} out of range")
    if not (x > 0.0):
        raise ValidationError(f"edge weight must be > 0, got {x}")
    weight = tree.weight.copy()
    resistance = tree.resistance.copy()
    weight[node] = x
    scales = level_scales(tree.lam, tree.n_levels)
    resistance[node] = scales[tree.level[node] - 1] * x
    return replace(tree, weight=weight, resistance=resistance)


# ---------------------------------------------------------------------------
# regular-tree layout (cached) and the level fold
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _dfs_layout(beta: int, n_levels: int):
    """Pre-order levels and parents of the full beta-ary tree with n_levels
    edge levels, plus its level offsets and level-major order."""
    n = (beta**n_levels - 1) // (beta - 1)
    if n > MEMORY_GUARD:
        raise GuardError(
            f"regular tree with {n} nodes exceeds the {MEMORY_GUARD}-node guard"
        )
    # a tree one level deeper is a new root above beta copies of the tree,
    # laid out one after another in pre-order
    level = np.ones(1, dtype=np.int64)
    parent = np.full(1, -1, dtype=np.int64)
    for _ in range(n_levels - 1):
        size = level.shape[0]
        copies = parent + 1 + size * np.arange(beta)[:, None]
        copies[:, 0] = 0
        level = np.concatenate(([1], np.tile(level + 1, beta)))
        parent = np.concatenate(([-1], copies.ravel()))
    order, offsets = _level_major(level, n_levels)
    return level, parent, offsets, order


def _fold(w_lm: np.ndarray, offsets: np.ndarray, scales: np.ndarray, kids):
    """Series-parallel fold of level-major weights, bottom level first.

    w_lm holds one tree's weights (1-D) or one tree per row (2-D, regular
    trees only); levels run along the last axis.  Level l's resistances are
    w_lm[..., offsets[l-1]:offsets[l]] * scales[l-1]; a node's children
    conductances 1/sub are summed left to right and its subtree resistance is
    r + 1/csum, as in the scalar recursion.  `kids` is the int arity of a full
    regular tree (children summed by reshape) or the parent slots of any tree
    (summed by np.bincount, in input order from 0).  Returns the per-level
    lists subs and csums, top level first; csums has n_levels - 1 entries,
    one per level with children.
    """
    n_levels = len(offsets) - 1
    sub = w_lm[..., offsets[-2]:] * scales[-1]
    subs = [sub]
    csums = []
    for l in range(n_levels - 1, 0, -1):
        cond = 1.0 / sub
        if isinstance(kids, int):
            cond = cond.reshape(cond.shape[:-1] + (-1, kids))
            csum = cond[..., 0]
            for j in range(1, kids):
                csum = csum + cond[..., j]
        else:
            csum = np.bincount(kids[offsets[l]:offsets[l + 1]], weights=cond,
                               minlength=offsets[l] - offsets[l - 1])
        sub = w_lm[..., offsets[l - 1]:offsets[l]] * scales[l - 1] + 1.0 / csum
        subs.append(sub)
        csums.append(csum)
    subs.reverse()
    csums.reverse()
    return subs, csums


# draw-matrix budget of a block of regular replicates, in uniforms: a block
# holds max(1, _BLOCK_UNIFORMS // edges) rows, one row from n = 16 at beta 2
_BLOCK_UNIFORMS = 2**16


def _regular_rows(model: TreeModel, n: int, streams, rows: int) -> np.ndarray:
    """Root resistances of `rows` depth-n regular trees, one per stream.

    Row i of a (rows, edges) matrix takes the i-th stream's next uniforms in
    pre-order; the block is transformed once, gathered level-major once and
    folded once.  Streams may come from a generator, so only the matrix, not
    `rows` live streams, is held at a time.
    """
    if model.shape != "regular":
        raise ValidationError("fast evaluation requires the regular shape")
    _check_depth(n)
    beta = int(model.beta)
    _, _, offsets, order = _dfs_layout(beta, n)
    scales = level_scales(model.lam, n)
    u = np.empty((rows, int(offsets[-1])))
    for rng, row in zip(streams, u):
        rng.uniforms(row.shape[0], out=row)
    w_lm = np.take(_transform(model.weights, u), order, axis=1)
    del u  # only w_lm and the fold levels stay alive through the fold
    subs, _ = _fold(w_lm, offsets, scales, beta)
    return subs[0][:, 0]


def _regular_replicates(model: TreeModel, n: int, master_seed: int, j0: int, j1: int) -> np.ndarray:
    """Root resistances of regular replicates j0..j1-1 (replicate j on
    stream j), evaluated block by block; a block's arrays are freed before
    the next block is drawn."""
    _check_depth(n)
    beta = int(model.beta)
    rows = max(1, _BLOCK_UNIFORMS // ((beta**n - 1) // (beta - 1)))
    out = np.empty(j1 - j0, dtype=np.float64)
    for b0 in range(j0, j1, rows):
        b1 = min(b0 + rows, j1)
        streams = (RngStream(master_seed, j) for j in range(b0, b1))
        out[b0 - j0:b1 - j0] = _regular_rows(model, n, streams, b1 - b0)
    return out


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------


def _check_depth(n: int) -> None:
    if n < 1:
        raise ValidationError(f"depth n={n} must be >= 1")
    if n > LEVEL_CAP:
        raise GuardError(f"depth n={n} exceeds the level cap {LEVEL_CAP}")


def resistance_streaming(model: TreeModel, n: int, rng: RngStream) -> ResistanceSample:
    """Effective resistance of a depth-n regular tree without materializing it.

    Depth-first recursion in O(n) memory, plus one block of at most
    _BLOCK_UNIFORMS weights: each call takes the next edge weight, then
    resolves its children left to right and combines them in parallel.
    """
    if model.shape != "regular":
        raise ValidationError("streaming evaluation requires the regular shape")
    _check_depth(n)
    scales = level_scales(model.lam, n)
    beta = int(model.beta)
    edges = (beta**n - 1) // (beta - 1)
    weights = (x for b0 in range(0, edges, _BLOCK_UNIFORMS) for x in dist_sample_block(
        model.weights, rng, min(_BLOCK_UNIFORMS, edges - b0)).tolist())

    def rec(lvl: int) -> float:
        r = scales[lvl - 1] * next(weights)
        if lvl == n:
            return r
        c = 0.0
        for _ in range(beta):
            c += 1.0 / rec(lvl + 1)
        return r + 1.0 / c

    r_total = rec(1)
    return ResistanceSample(n, rng.stream_index, r_total, 1.0 / r_total)


def resistance_fast(model: TreeModel, n: int, rng: RngStream) -> ResistanceSample:
    """Vectorized twin of resistance_streaming: one block draw in the same
    pre-order, reordered level-major, folded level by level.  Bit-identical
    to the recursion on the same stream, at the cost of O(beta^n) memory.
    This is the one-row case of _regular_rows."""
    r_total = float(_regular_rows(model, n, (rng,), 1)[0])
    return ResistanceSample(n, rng.stream_index, r_total, 1.0 / r_total)


def sample_tree_explicit(model: TreeModel, n: int, rng: RngStream) -> SampledTree:
    """Materialize a depth-n tree, drawing weights in pre-order.

    Regular shape consumes one uniform per edge; the branching shape
    additionally draws one offspring count per internal node, right after
    that node's weight.  The branching walk draws uniforms in blocks of
    exactly the count the pending nodes are certain to consume (a node at
    level l draws at least 2*(n_levels - l) + 1 on its way down to a leaf),
    so it never draws past the tree: nodes + internal nodes in all.
    """
    _check_depth(n)
    if model.shape == "regular":
        level, parent, offsets, _ = _dfs_layout(int(model.beta), n)
        scales = level_scales(model.lam, n)
        weight = dist_sample_block(model.weights, rng, int(offsets[-1]))
        resistance = weight * scales[level - 1]
        return SampledTree(parent.copy(), level.copy(), weight, resistance,
                           n, model.lam, "regular", int(model.beta))

    # branching shape: depth parameter n means n+1 edge levels (the root edge
    # sits above the depth-0 node, leaves are the depth-n nodes)
    n_levels = n + 1
    scales = level_scales(model.lam, n_levels)
    # refuse before drawing when even the smallest possible tree is too big
    kmin = min(k for k, p in model.offspring if p > 0.0)
    smallest = sum(kmin**l for l in range(n_levels))
    if smallest > MEMORY_GUARD:
        raise GuardError(f"branching tree has at least {smallest} nodes, over the "
                         f"{MEMORY_GUARD}-node guard")
    parents: list[int] = []
    levels: list[int] = []
    blocks: list[np.ndarray] = []
    kids: list[int] = []  # the offspring count each drawn uniform would give
    pos = 0  # next unread uniform
    stack = [(1, -1)]
    while stack:
        lvl, par = stack.pop()
        internal = lvl < n_levels
        if pos + internal >= len(kids):
            # the pending nodes and this one are certain to draw this many
            due = sum(2 * (n_levels - l) + 1 for l, _ in stack) + 2 * (n_levels - lvl) + 1
            u = rng.uniforms(due - (len(kids) - pos))
            blocks.append(u)
            kids += _inverse_cdf(*model._offspring_cdf, u).tolist()
        i = len(parents)
        if i >= MEMORY_GUARD:
            raise GuardError(f"branching tree exceeded the {MEMORY_GUARD}-node guard "
                             f"(realized {i} nodes)")
        parents.append(par)
        levels.append(lvl)
        stack += [(lvl + 1, i)] * (kids[pos + 1] if internal else 0)
        pos += 1 + internal
    parent = np.array(parents, dtype=np.int64)
    level = np.array(levels, dtype=np.int64)
    # node i's weight uniform comes after i weights and the offspring draws
    # of the internal nodes before it
    has_kids = level < n_levels
    wpos = np.arange(len(level)) + np.cumsum(has_kids) - has_kids
    weight = _transform(model.weights, np.concatenate(blocks)[wpos])
    resistance = weight * scales[level - 1]
    return SampledTree(parent, level, weight, resistance,
                       n_levels, model.lam, "gw", None)


def resistance_of_tree(tree: SampledTree) -> float:
    """Effective resistance R of an explicit tree: the series-parallel fold,
    bottom level first.

    Exact for any tree whose leaves all sit at the bottom level and are held
    at one potential: branches below a node meet again only at the sink, so
    they combine in parallel.
    """
    # scales of 1.0 fold the tree's own edge resistances unchanged
    subs, _ = _fold(tree.resistance[tree.order], tree.offsets, np.ones(tree.n_levels), tree.slot)
    return float(subs[0][0])


# ---------------------------------------------------------------------------
# level-shorted resistance and the normalized population
# ---------------------------------------------------------------------------


def shorted_resistance_of_tree(tree: SampledTree) -> float:
    """Level-shorted resistance: the network with each depth class merged
    into one vertex, so each level's edges are in parallel and the levels in
    series.  Merging vertices never raises resistance, so this lower-bounds
    resistance_of_tree for every weight assignment; at unit weights it is
    the sum of lam**(l-1) / Z_l over the level sizes Z_l."""
    scales = level_scales(tree.lam, tree.n_levels)
    w = tree.weight[tree.order]
    off = tree.offsets
    return math.fsum(
        scales[l] / float(np.sum(1.0 / w[off[l]:off[l + 1]]))
        for l in range(tree.n_levels)
    )


def gw_w_estimate(z_n: int, lam: float, n: int) -> float:
    """Normalized generation size Z_n / lam**n, the finite-depth stand-in for
    the martingale limit of the branching process."""
    if n < 1:
        raise ValidationError(f"depth n={n} must be >= 1")
    return float(z_n) / lam**n
