"""Exact effective resistance of sampled trees via series-parallel reduction.

Three evaluation routes produce bit-identical resistances for the same
stream: a memory-light recursion (resistance_streaming), and one vectorized
level fold (_fold) reached from full regular trees (_drawn_replicates) and
from explicit trees of any shape (sample_tree_explicit + resistance_of_tree).
All of them draw one uniform per edge in depth-first pre-order, in blocks,
with children visited left to right, and combine children in conductance
space, summed left to right, with a single reciprocal per node.
The fold runs in level-major order (_level_major): pre-order ids stably
sorted by level, so each level is one contiguous left-to-right block.  An
explicit tree built from outside input sorts its levels; the sampler hands
its trees the layout it already knows (SampledTree._built).  A full
regular tree's order is computed level by level (_regular_order), with no
sort, once per depth for every tree of that depth (_explicit_layout).
Branching trees are built a forest at a time (sample_tree_explicit): each
tree's walk (_branching_walk) gives its chain starts, and the trees of a
forest, up to a node budget (stats._tree_chunk), take their offsets from
the concatenated starts, their order from one radix sort of their levels
and their records from one fold; a lone tree is a forest of one.

Regular trees are evaluated by one kernel (_drawn_replicates) in row-minor
blocks: one (rows, columns) fold array per block, with tree i in column i,
so that each level is a contiguous run of rows.  Only the draw source
varies: a replicate range (_regular_replicates) draws trees of up to
_LOCKSTEP_EDGES edges in lockstep, already as (edges, columns)
(model.stream_block), and deeper trees from one Generator per stream, each
into a row of a (trees, edges) block; resistance_fast draws its one tree
from the caller's stream.  The gather puts the uniforms level-major into
the fold array, one call maps them to weights, and each level is scaled
and folded in place.  Each column takes the same arithmetic as a lone
tree, so every draw source and every column give the same bits.

A law with one or two atoms takes a table route on trees deeper than the
table height h (_table_height: the largest height whose subtree of E edges
fits _TABLE_BITS).  _atom_table folds every atom pattern of a height-h
subtree once per depth, and the kernel reads level n - h + 1 from it: the
mask u < p, packed into bits along each tree, gives each subtree's E
pre-order bits as its index (_table_codes).  Only the levels above are
gathered, mapped and folded; the entries are the fold's own arithmetic on
the same resistances, so the bits hold.

Every range but a lockstep one goes through one driver (_regular_trees),
the only code that folds levels above a cut.  A tree of more than
_BLOCK_UNIFORMS edges, on either route, is drawn as the runs of its
subtrees of H levels, the most that fit the budget (16 at beta 2), each
one stretch of the tree's stream in pre-order and folded by the kernel as
a tree of its own; a smaller tree is its one run.  When the kernel's
blocks hold fewer than _ACC_TREES runs, they are folded only up to a cut
level, and the driver folds each tree's top, its own levels and its runs'
rows above the cut, over blocks of trees: the narrow levels pay their
per-level calls once per block, and no array outgrows the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Callable, Iterator

import numpy as np

from .model import (
    GuardError,
    MEMORY_GUARD,
    RngStream,
    TreeModel,
    ValidationError,
    WeightDistribution,
    _inverse_cdf,
    _transform,
    dist_sample_block,
    level_scales,
    stream_block,
    streams,
)


@dataclass(frozen=True)
class ResistanceSample:
    """One evaluated tree: R and C = 1/R."""

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


def _parent_slots(level: np.ndarray, first: np.ndarray, order: np.ndarray,
                  offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`parent` per pre-order node and `slot` per level-major slot (see
    SampledTree) of a tree's or a forest's levels and layout; first[i] says
    node i + 1 is the first child of node i."""
    roots = int(offsets[1])
    kid = order[roots:]
    up = np.cumsum(first[kid - 1]) - 1  # each child's parent, as a level-major slot
    none = np.full(roots, -1)
    parent = np.empty_like(order)
    parent[order] = np.concatenate((none, order[up]))
    slot = np.concatenate((none, up - offsets[level[kid] - 2]))
    return parent, slot


@dataclass(frozen=True)
class SampledTree:
    """An explicit edge-rooted tree; node i carries its incoming edge.

    Nodes are stored in depth-first pre-order (children left to right), so a
    node's id is always greater than its parent's.  Node 0 sits below the
    unique level-1 root edge; the injection vertex above it is implicit.
    Leaves are exactly the nodes at the bottom level, so the pre-order
    levels fix the tree.

    A tree has two construction routes.  SampledTree(level, weight, lam,
    shape, beta), for outside input, checks everything: it refuses
    (`level: ...`) levels that do not start at 1, return to 1, go down more
    than one level from a node to the next or leave a node above the bottom
    without a child, and (`weight: ...`) weights that are not one per node
    or not finite and > 0; a GuardError refuses an edge resistance that is
    not finite and > 0 (a weight times lam**(level-1) that overflows or
    underflows).  It derives the depth `n_levels` (the bottom level), the
    edge resistances `resistance` = weight * lam**(level-1), read from the
    level_scales table, the level-major layout `order` and `offsets` (see
    _level_major), `parent` and `slot`: per level-major slot, the parent's
    position within its own level (both -1 for the root).  A level lists
    its children grouped by parent, in the parents' order, and a first
    child directly follows its parent, so counting first children along the
    level-major order gives each child's parent slot (_parent_slots).

    sample_tree_explicit takes the builder route (_built): its builder
    already knows the layout and the per-node scale lam**(level-1) from
    model.scales, and hands them over with no sort and no check, since its
    levels are valid by construction and model.scales bounds every edge
    resistance.  Both routes give the same arrays, bit for bit, all
    read-only; trees of one regular depth share their layout arrays.

    The builder route also lays out a forest: branching trees of one depth,
    their pre-order levels concatenated, so that each level holds the
    trees' nodes tree by tree and `trees` (the level-1 count) roots have
    parent and slot -1.  Each tree's parents, slots and fold are then those
    it has alone, shifted to its place (_fold sums children by slot, in
    input order).  The per-tree functions (resistance_of_tree, solve_flow,
    ...) take a tree, a forest of one.
    """

    level: np.ndarray
    weight: np.ndarray
    lam: float
    shape: str
    beta: int | None = None
    n_levels: int = field(init=False)
    resistance: np.ndarray = field(init=False)
    parent: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        level = self.level
        if self.weight.shape != level.shape:
            raise ValidationError(f"weight: shape {self.weight.shape} is not the levels' "
                                  f"{level.shape}; a tree takes one weight per node")
        step = np.diff(level)
        first = step == 1  # first[i]: node i + 1 is the first child of node i
        if not (level[:1].tolist() == [1] and level[1:].min(initial=2) >= 2
                and step.max(initial=0) <= 1):
            raise ValidationError("level: pre-order levels must start at 1, stay at 2 or "
                                  "more after it and go down at most one level per node")
        n_levels = int(level.max())
        order, offsets = _level_major(level, n_levels)
        if np.count_nonzero(first) != offsets[-2]:
            raise ValidationError("level: every node above the bottom level must have a child")
        weight = self.weight
        bad = np.flatnonzero(~((weight > 0.0) & (weight < np.inf)))
        if len(bad):
            v = int(bad[0])
            raise ValidationError(f"weight: edge weight must be finite and > 0; node {v} "
                                  f"has {float(weight[v])!r}")
        with np.errstate(over="ignore"):  # an overflow is refused just below
            resistance = weight * level_scales(self.lam, n_levels)[level - 1]
        bad = np.flatnonzero(~((resistance > 0.0) & (resistance < np.inf)))
        if len(bad):
            v = int(bad[0])
            raise GuardError(f"edge resistance must be finite and > 0; node {v} has weight "
                             f"{float(weight[v])!r} * lam**{int(level[v]) - 1} = "
                             f"{float(resistance[v])!r}")
        self._derived(resistance, order, offsets, *_parent_slots(level, first, order, offsets))

    @classmethod
    def _built(cls, level: np.ndarray, weight: np.ndarray, lam: float, shape: str,
               beta: int | None, scale: np.ndarray, order: np.ndarray, offsets: np.ndarray,
               parent: np.ndarray, slot: np.ndarray) -> SampledTree:
        """The builder route: a tree of valid levels, with its layout and
        its per-node scale (`resistance` = weight * scale) given, checked
        and sorted by nothing."""
        tree = cls.__new__(cls)
        for name, value in (("level", level), ("weight", weight), ("lam", lam),
                            ("shape", shape), ("beta", beta)):
            object.__setattr__(tree, name, value)
        tree._derived(weight * scale, order, offsets, parent, slot)
        return tree

    def _derived(self, resistance: np.ndarray, order: np.ndarray, offsets: np.ndarray,
                 parent: np.ndarray, slot: np.ndarray) -> None:
        for name, value in (("n_levels", len(offsets) - 1), ("resistance", resistance),
                            ("parent", parent), ("order", order), ("offsets", offsets),
                            ("slot", slot)):
            object.__setattr__(self, name, value)
        for arr in (self.level, self.weight, resistance, parent, order, offsets, slot):
            arr.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return int(self.level.shape[0])

    @property
    def trees(self) -> int:
        return int(self.offsets[1])

    def leaf_ids(self) -> np.ndarray:
        return np.flatnonzero(self.level == self.n_levels)

    def level_counts(self) -> np.ndarray:
        """Number of nodes per level, index 0 = level 1 (the root edge)."""
        return np.diff(self.offsets)


# ---------------------------------------------------------------------------
# regular-tree levels and the level fold
# ---------------------------------------------------------------------------


def _check_nodes(model: TreeModel, n: int) -> int:
    """model.min_nodes(n), refused over MEMORY_GUARD before any layout or
    draw; the caller has checked the depth (model.scales)."""
    nodes = model.min_nodes(n)
    if nodes > MEMORY_GUARD:
        kind = "regular tree has" if model.shape == "regular" else "branching tree has at least"
        raise GuardError(f"{kind} {nodes} nodes at n={n}, over the {MEMORY_GUARD}-node guard")
    return nodes


def _fold(sub: np.ndarray, offsets: np.ndarray, kids, cond: np.ndarray,
          csum: np.ndarray) -> None:
    """Series-parallel fold of level-major edge resistances, bottom level
    first, in place.

    sub holds one tree's resistances (1-D) or one tree per column (2-D,
    regular trees only), already scaled; levels run along axis 0, level l in
    rows offsets[l-1]:offsets[l].  Each level slice of sub becomes that
    level's subtree resistances: a node's children's conductances 1/sub are
    summed left to right and its subtree resistance is r + 1/csum, as in the
    scalar recursion.  The caller owns the scratch: cond, shaped like sub,
    ends with each level's 1/sub from level 2 down; csum, with at least
    offsets[-2] rows, ends with the child conductance sums of each level
    that has children, in that level's rows.  csum may be cond itself when
    the sums are not read afterwards: level l's sums are spent before level
    l - 1 writes into their rows.  `kids` is the int arity of a full regular
    tree (children summed by reshape) or the parent slots of any 1-D tree
    (summed by np.bincount, in input order from 0).
    """
    off = offsets.tolist()
    for l in range(len(off) - 2, 0, -1):
        lo, mid, hi = off[l - 1], off[l], off[l + 1]
        c = cond[mid:hi]
        np.divide(1.0, sub[mid:hi], out=c)
        sums, recip, res = csum[lo:mid], cond[lo:mid], sub[lo:mid]
        if isinstance(kids, int):
            c = c.reshape((-1, kids) + c.shape[1:])
            np.add(c[:, 0], c[:, 1], out=sums)
            for j in range(2, kids):
                np.add(sums, c[:, j], out=sums)
        else:
            sums[:] = np.bincount(kids[mid:hi], weights=c, minlength=mid - lo)
        # level l's cond rows hold 1/csum until the next level overwrites them
        np.divide(1.0, sums, out=recip)
        np.add(res, recip, out=res)


def _fold_tree(tree: SampledTree) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_fold of an explicit tree: level-major subtree resistances, their
    conductances (from level 2 down) and the child conductance sums."""
    sub = tree.resistance[tree.order]
    cond = np.empty_like(sub)
    csum = np.empty(int(tree.offsets[-2]))
    _fold(sub, tree.offsets, tree.slot, cond, csum)
    return sub, cond, csum


# draw budget of a block of regular replicates, in uniforms: a block holds
# _BLOCK_UNIFORMS // edges trees, and a tree of more edges is folded as the
# runs of its largest subtrees that fit (_regular_trees), so it bounds every
# draw.  It also sizes the top fold (_acc_levels): a range of blocks of
# fewer than _ACC_TREES trees or runs folds only their wide levels, and the
# top _acc_levels(beta) levels of at least _ACC_TREES trees are folded
# together, in a quarter of the budget
_BLOCK_UNIFORMS = 2**16
_ACC_TREES = _BLOCK_UNIFORMS // 2**11

# trees of at most this many edges draw in lockstep (model.stream_block),
# deeper ones from a Generator per stream.  A lockstep block costs array
# ops per draw and a Generator costs its construction per stream; per tree
# of a whole evaluation at reg:2, lockstep against Generators took 0.5 vs
# 6.1 us at n = 4, 3.0 vs 5.3 us at n = 6 and 10.4 vs 6.6 us at n = 7
_LOCKSTEP_EDGES = 63


# an atom law's block reads each subtree of height _table_height(beta) from a
# table of its 2**E root resistances, E its edge count, one per atom pattern,
# built _TABLE_CHUNK entries at a time
_TABLE_BITS = 15
_TABLE_CHUNK = 2**12


def _levels_within(beta: int, nodes: int) -> int:
    """The largest h >= 1 whose top h levels, (beta**h - 1) / (beta - 1)
    nodes, number at most `nodes` (1 if none fit)."""
    h = 1
    while (beta ** (h + 1) - 1) // (beta - 1) <= nodes:
        h += 1
    return h


def _table_height(beta: int) -> int:
    """The largest height h whose subtree of (beta**h - 1) / (beta - 1)
    edges fits _TABLE_BITS: 4 at beta 2, 3 at beta 3, 2 at beta 4..14 and
    1 above, where no table is read."""
    return _levels_within(beta, _TABLE_BITS)


def _acc_levels(beta: int) -> int:
    """c + 1, the most levels of a tree's top fold (_regular_trees): the top
    c levels and level c + 1's subtree resistances, at most
    _BLOCK_UNIFORMS // (4 * _ACC_TREES) nodes, so that _ACC_TREES trees
    fit a quarter of the block budget: 9 at beta 2, 6 at beta 3."""
    return _levels_within(beta, _BLOCK_UNIFORMS // (4 * _ACC_TREES))


def _atom_table(dist: WeightDistribution, beta: int, scales: np.ndarray) -> np.ndarray:
    """Root resistances of a height-h regular subtree, h = len(scales), of a
    law with one or two atoms, one entry per atom pattern; scales[i] is the
    scale of the subtree's level i + 1.  Bit j of an entry's index is set
    where pre-order position j takes the first atom (u < p in _transform).

    The table is _fold's own arithmetic, one level at a time from the
    leaves up, _TABLE_CHUNK entries at a time: a (1 + beta, chunk) block
    holds the level's resistance in row 0 (lo * s where index bit 0 is set,
    hi * s elsewhere) and child i's table entry in row 1 + i (index bits
    1 + i*log2(M) on, log2(M) of them, M the child table's size), so every
    combination is folded once, and besides the tables the build holds
    only a block and its scratch.
    """
    (lo, _), (hi, _) = dist.atoms[0], dist.atoms[-1]
    offsets = np.array([0, 1, 1 + beta])
    table = np.array([hi * scales[-1], lo * scales[-1]])
    for s in scales[-2::-1]:
        bits = len(table).bit_length() - 1
        size = 2 << (beta * bits)
        entries = np.empty(size)
        for c0 in range(0, size, _TABLE_CHUNK):
            code = np.arange(c0, min(c0 + _TABLE_CHUNK, size))
            block = np.empty((1 + beta, len(code)))
            block[0] = np.where(code & 1, lo * s, hi * s)
            for i in range(beta):
                np.take(table, (code >> (1 + i * bits)) & (len(table) - 1), out=block[1 + i])
            scratch = np.empty_like(block)
            _fold(block, offsets, beta, scratch, scratch)
            entries[c0:c0 + len(code)] = block[0]
        table = entries
    return table


def _regular_order(beta: int, n: int, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Level-major order and offsets (see _level_major) of the top `levels`
    levels of the full beta-ary tree with n edge levels, computed level by
    level: level l holds beta**(l-1) nodes, and the children of the
    pre-order node p at level l are p + 1 + i * size for i < beta, size
    being the node count of a subtree rooted at level l + 1.  These are
    the arrays _level_major gives on the tree's pre-order levels, cut after
    level `levels`, with no sort and no array over the levels below."""
    offsets = np.concatenate(([0], np.cumsum(beta ** np.arange(levels))))
    off = offsets.tolist()
    order = np.zeros(off[-1], dtype=np.int64)
    for l in range(1, levels):
        size = (beta ** (n - l) - 1) // (beta - 1)
        kids = order[off[l]:off[l + 1]].reshape(-1, beta)
        np.add.outer(order[off[l - 1]:off[l]], 1 + size * np.arange(beta), out=kids)
    return order, offsets


@dataclass(frozen=True)
class _Layout:
    """A depth's block layout (_regular_layout), of a tree or a run of
    `edges` edges whose levels take the scales `scales`.  `order` and
    `offsets` are the level-major order and offsets of the levels the block
    gathers and folds; with a table, the last of them is read from
    `table` at the subtrees whose pre-order roots r are given by their byte
    r >> 3 and bit r & 7 in `byte` and `shift`, one entry per root."""

    edges: int
    order: np.ndarray
    offsets: np.ndarray
    scales: np.ndarray
    table: np.ndarray | None = None
    byte: np.ndarray | None = None
    shift: np.ndarray | None = None


def _regular_layout(model: TreeModel, n: int, table: bool = True) -> _Layout:
    """The block layout of depth n's bottom d levels, computed
    (_regular_order) after model.scales checks the depth and _check_nodes
    the size: d = n for a tree that fits _BLOCK_UNIFORMS, else the most
    levels that fit, the height of its runs (_regular_trees).  With
    `table`, a law with one or two atoms reads the bottom h =
    _table_height(beta) levels from _atom_table when h >= 2 and d > h; then
    only the top d - h levels and the table roots are built.  A lone tree
    passes table=False: the table's build, about 0.8 ms at beta 2 and 3.8
    ms at beta 14, costs more than one whole tree below n = 14 (0.1 to 0.35
    ms), while the trees of a block range share it."""
    beta = int(model.beta)
    scales = model.scales(n)
    _check_nodes(model, n)
    d = min(n, _levels_within(beta, _BLOCK_UNIFORMS))
    edges, scales = (beta**d - 1) // (beta - 1), scales[n - d:]
    h = _table_height(beta)
    if not (table and 1 <= len(model.weights.atoms) <= 2 and 2 <= h < d):
        return _Layout(edges, *_regular_order(beta, d, d), scales)
    top = d - h
    order, offsets = _regular_order(beta, d, top + 1)
    roots = order[offsets[top]:]
    return _Layout(edges, order[:offsets[top]].copy(), offsets, scales,
                   _atom_table(model.weights, beta, scales[top:]), roots >> 3,
                   (roots & 7).astype(np.uint8))


def _table_codes(layout: _Layout, bits: np.ndarray) -> np.ndarray:
    """The (trees, roots) table indices of the trees whose masks u < p are
    the rows of `bits`, a C-contiguous uint8 array: each row a tree's mask
    packed little-endian (bit j of byte b is edge 8b + j), then 3 spare
    bytes.  A root's index is the E bits from its pre-order position, read
    from the 32-bit little-endian window at its byte; the spare bytes keep
    every window in the row, and the bits they give lie above the E kept,
    since a subtree's bits end by the tree's last edge."""
    trees, width = bits.shape
    window = np.ndarray((trees, width - 3), dtype="<u4", buffer=bits, strides=(width, 1))
    code = np.take(window, layout.byte, axis=1)
    code >>= layout.shift
    code &= len(layout.table) - 1
    return code


def _scale_fold(g: np.ndarray, offsets: np.ndarray, scales: np.ndarray, beta: int,
                scratch: np.ndarray) -> None:
    """Multiply level l + 1 of g (rows offsets[l]:offsets[l + 1]) by
    scales[l], for each scale given, then _fold g in place with `scratch`,
    shaped like g, as its scratch: g's first level then holds its subtree
    resistances."""
    off = offsets.tolist()
    for l, s in enumerate(scales.tolist()):
        level = g[off[l]:off[l + 1]]
        np.multiply(level, s, out=level)
    _fold(g, offsets, beta, scratch, scratch)


def _drawn_replicates(model: TreeModel, layout: _Layout, cut: int, m: int, group: int,
                      chunk: Iterator[RngStream] | None = None,
                      lockstep: Callable[[int, int], RngStream] | None = None,
                      spare: int = 0) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The rows above level `cut` of m regular trees of one layout, folded
    in blocks of _BLOCK_UNIFORMS // edges trees: the one regular kernel.
    Per `group` trees it yields one reused (offsets[cut], trees) array, the
    mapped, unscaled weights of levels 1..cut - 1 and level cut's subtree
    resistances (the roots at cut 1), and the draw buffer, at least `spare`
    floats and spent until the next group.  The caller validates the model
    and depth and chooses the draw source: `chunk`, one stream per tree,
    each drawn into a row of a (trees, edges) block by its Generator, or
    `lockstep`, which gives the stream_block of trees b..b+k-1 for (b, k),
    drawn as (edges, trees).

    The gather alone reads the draw's axis.  A lockstep or one-tree block
    is gathered level-major along axis 0 straight into the row-minor
    (rows, trees) fold array in the gather buffer, the spent draw buffer
    being its scratch; a Generator block is gathered along each row, and
    one transposing copy puts the rows into the spent draw buffer as the
    fold array.  On the table route each tree's mask u < p is packed along
    it and the table level is read from the window codes (_table_codes).
    One _transform call maps the gathered uniforms to weights, and
    _scale_fold scales and folds the levels from the cut down in place.
    """
    beta, order, offsets, table = int(model.beta), layout.order, layout.offsets, layout.table
    edges, top, rows, off = layout.edges, len(order), int(offsets[-1]), offsets.tolist()
    cols = min(_BLOCK_UNIFORMS // edges, group)
    # two arrays rather than one of twice the size: the allocator can then
    # reuse the previous depth's freed blocks, which kept the peak RSS of a
    # sweep over n = 14..18 3 MiB lower
    ubuf = np.empty(max(edges * cols, spare))
    gbuf = np.empty(rows * cols)
    nbytes = (edges + 7) // 8
    bits = None if table is None else np.zeros((cols, nbytes + 3), dtype=np.uint8)
    below = offsets[cut - 1:] - off[cut - 1]
    scales = layout.scales[cut - 1:len(off) - 1 - (table is not None)]
    out = np.empty((off[cut], group))
    for g0 in range(0, m, group):
        size = min(group, m - g0)
        for c0 in range(0, size, cols):
            k = min(cols, size - c0)
            g, scratch = gbuf[:rows * k].reshape(rows, k), ubuf
            if lockstep is None:
                draws = ubuf[:k * edges].reshape(k, edges)
                for rng, row in zip(islice(chunk, k), draws):
                    rng.uniforms(edges, out=row)
            else:
                draws = lockstep(g0 + c0, k).uniforms(
                    edges, out=ubuf[:edges * k].reshape(edges, k)).T
            if table is not None:
                bits[:k, :nbytes] = np.packbits(np.less(draws, model.weights.atoms[0][1]),
                                                axis=1, bitorder="little")
            # every index is in range
            if lockstep is not None or k == 1:
                np.take(draws.T, order, axis=0, out=g[:top], mode="clip")
            else:
                gathered = gbuf[:k * top].reshape(k, top)
                np.take(draws, order, axis=1, out=gathered, mode="clip")
                g, scratch = ubuf[:rows * k].reshape(rows, k), gbuf
                g[:top] = gathered.T
            if table is not None:
                np.take(table, _table_codes(layout, bits[:k]).T, out=g[top:], mode="clip")
            _transform(model.weights, g[:top])
            sub = g[off[cut - 1]:]
            _scale_fold(sub, below, scales, beta, scratch[:sub.size].reshape(sub.shape))
            out[:, c0:c0 + k] = g[:off[cut]]
        yield out[:, :size], ubuf


def _regular_trees(model: TreeModel, n: int, layout: _Layout, m: int,
                   chunk: Iterator[RngStream]) -> np.ndarray:
    """Root resistances of m depth-n regular trees of `layout`
    (_regular_layout), tree i drawn from the i-th stream of chunk: the one
    fold above a cut.  The tree's own top n - len(layout.scales) levels lie
    above its runs, none above a tree of one run.  A draw source draws the
    top uniforms before each run into the tree's row of top slots (one per
    top node and per run, in pre-order) and yields the stream to the kernel
    once per run.  Per block of (_BLOCK_UNIFORMS // 4) // slots trees,
    slots a tree's top rows, the top is laid out level-major, the runs'
    rows by one transposing copy per level, its own weights are mapped,
    and the whole top is scaled and folded (_scale_fold).  Folding a tree
    in parts keeps its bits: _fold's columns are independent, each level's
    scale is its own multiply and _transform is elementwise."""
    beta, off = int(model.beta), layout.offsets.tolist()
    top = n - len(layout.scales)
    order, offsets = _regular_order(beta, top + 1, top + 1)
    above = int(offsets[top])
    runs = order[above:].tolist()  # each run's slot, increasing
    gaps = list(zip([0] + [r + 1 for r in runs[:-1]], runs))
    # a cut below the roots, when the kernel's blocks hold fewer than
    # _ACC_TREES runs, leaves a top of at most _acc_levels(beta) levels
    cut = (max(1, min(_acc_levels(beta) - top, len(off) - 1))
           if _BLOCK_UNIFORMS // layout.edges < min(_ACC_TREES, m * len(runs)) else 1)
    top_off = np.concatenate((offsets[:top], above + len(runs) * layout.offsets[:cut + 1]))
    slots, scales = int(top_off[-1]), model.scales(n)[:top + cut - 1]
    cols = max(1, min((_BLOCK_UNIFORMS // 4) // slots, m))
    tops, out = np.empty((cols, int(offsets[-1]))), np.empty(m)

    def draws() -> Iterator[RngStream]:
        # a block's rows are read before the kernel draws the next block's
        for i, rng in enumerate(chunk):
            row = tops[i % cols]
            for s, r in gaps:
                if s < r:
                    rng.uniforms(r - s, out=row[s:r])
                yield rng

    # the top and its fold's scratch take the kernel's spent draw buffer;
    # below a cut under the roots, the kernel's blocks fill at least half
    # the budget and the two at most half, so the buffer holds them already
    kernel = _drawn_replicates(model, layout, cut, m * len(runs), cols * len(runs), draws(),
                               spare=2 * slots * cols)
    for b0, (kept, spent) in zip(range(0, m, cols), kernel):
        k = min(cols, m - b0)
        g, scratch = spent[:2 * slots * k].reshape(2, slots, k)
        # every index is in range
        np.take(tops[:k].T, order[:above], axis=0, out=g[:above], mode="clip")
        for j in range(cut):
            level = g[top_off[top + j]:top_off[top + j + 1]].reshape(len(runs), -1, k)
            level[:] = kept[off[j]:off[j + 1]].reshape(-1, k, len(runs)).transpose(2, 0, 1)
        _transform(model.weights, g[:above])
        _scale_fold(g, top_off, scales, beta, scratch)
        out[b0:b0 + k] = g[0]
    return out


def _regular_replicates(model: TreeModel, n: int, master_seed: int, j0: int, j1: int) -> np.ndarray:
    """Root resistances of regular replicates j0..j1-1 (replicate j on
    stream j), with one layout and one set of level scales for the whole
    range.  This chooses the kernel's draw source (_drawn_replicates): a
    block of trees of at most _LOCKSTEP_EDGES edges draws from one
    stream_block, and deeper trees, and trees folded in runs, take their
    streams from one streams() range (_regular_trees)."""
    layout = _regular_layout(model, n)
    if layout.edges <= _LOCKSTEP_EDGES and len(layout.scales) == n:
        roots, _ = next(_drawn_replicates(
            model, layout, 1, j1 - j0, j1 - j0,
            lockstep=lambda b, k: stream_block(master_seed, j0 + b, j0 + b + k)))
        return roots[0]
    return _regular_trees(model, n, layout, j1 - j0, streams(master_seed, j0, j1))


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------


def resistance_streaming(model: TreeModel, n: int, rng: RngStream) -> ResistanceSample:
    """Effective resistance of a depth-n regular tree without materializing it.

    Depth-first recursion in O(n) memory, plus one block of at most
    _BLOCK_UNIFORMS weights: each call takes the next edge weight, then
    resolves its children left to right and combines them in parallel.
    """
    if model.shape != "regular":
        raise ValidationError("streaming evaluation requires the regular shape")
    scales = model.scales(n)
    beta = int(model.beta)
    edges = model.min_nodes(n)
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
    return ResistanceSample(r_total, 1.0 / r_total)


def resistance_fast(model: TreeModel, n: int, rng: RngStream) -> ResistanceSample:
    """Vectorized twin of resistance_streaming: one block draw in the same
    pre-order, reordered level-major, folded level by level.  Bit-identical
    to the recursion on the same stream, in memory bounded by the block
    budget at any depth.  This is the range driver (_regular_trees) on a
    one-tree range drawn from rng, on the float path (_regular_layout with
    table=False)."""
    if model.shape != "regular":
        raise ValidationError("fast evaluation requires the regular shape")
    layout = _regular_layout(model, n, table=False)
    r_total = float(_regular_trees(model, n, layout, 1, iter((rng,)))[0])
    return ResistanceSample(r_total, 1.0 / r_total)


def _first_peek(model: TreeModel, n: int) -> int:
    """The uniforms a depth-n branching tree draws on average (one per node
    and one per internal node), at most _BLOCK_UNIFORMS: the size of the
    branching walk's first peek."""
    mean = model.offspring_mean()
    draws, width = 0.0, 1.0
    for _ in range(n):
        draws += 2.0 * width
        width *= mean
        if draws > _BLOCK_UNIFORMS:
            break
    return int(min(draws + width, _BLOCK_UNIFORMS))


def _check_branching(nodes: int) -> None:
    if nodes > MEMORY_GUARD:
        raise GuardError(f"branching tree has at least {nodes} nodes, over the "
                         f"{MEMORY_GUARD}-node guard")


def _branching_walk(model: TreeModel, n: int, rng: RngStream) -> tuple[list[int], int]:
    """The pre-order walk of a depth-n branching tree, one chain per leaf: the
    start level of each chain, in pre-order, and the uniforms the tree draws.

    A chain runs from its start level straight down to a leaf, first child
    after first child.  A chain from level s at position pos draws
    2*(n_levels - s) + 1 uniforms: each node's weight, and at each internal
    node its offspring count, so the offspring uniforms sit at pos + 1,
    pos + 3, ...  A node with b > 1 children leaves b - 1 pending chains one
    level down; the deepest pending chain comes next.  Chains have odd
    lengths, so consecutive chains read their offspring counts at positions
    of alternating parity.  The walk reads the counts from peeked blocks
    (RngStream.peek, which consumes nothing) into a window of positions
    x = 2k + p, k >= base, from the current chain's start to the end of
    the last peek; per parity p it keeps, as lists, rank[k - base],
    the counts > 1 in the window before k, and each one's push,
    (k - base) + ((count - 2) << 6).  A chain then finds its branching nodes
    by two rank lookups, and only they touch the stack.

    Before each peek, and once it ends, the walk counts the nodes the tree
    is certain to have, the chains so far plus a chain from each pending
    node, and refuses past MEMORY_GUARD; so every peek is bounded by the
    guard, plus at most _BLOCK_UNIFORMS read ahead, and a refused tree
    consumes no uniform.  A count over MEMORY_GUARD + 2 is read as
    MEMORY_GUARD + 2: the tree is refused either way, and the pushes stay
    far inside int64.
    """
    n_levels = n + 1
    cum, counts = model._offspring_cdf
    span = [2 * (n_levels - s) + 1 for s in range(n_levels + 1)]  # a chain's uniforms
    kids = np.empty((2, 0), dtype=np.int64)  # the window's counts, row p at parity p
    ranks = pushes = []  # per parity, set by each peek
    starts: list[int] = []
    # pending chains, level + ((copies - 1) << 6), the deepest last; a level
    # fits in the low 6 bits, as LEVEL_CAP < 64
    stack = [1]
    pos = peeked = base = 0  # next uniform of the walk, uniforms peeked, window start k
    first = _first_peek(model, n)
    while stack:
        v = stack.pop()
        if v >> 6:
            stack.append(v - 64)
        s = v & 63
        starts.append(s)
        end = pos + span[s]
        if end > peeked:
            due = end + sum(((w >> 6) + 1) * span[w & 63] for w in stack)
            _check_branching((due + len(starts) + sum((w >> 6) + 1 for w in stack)) // 2)
            size = max(due - peeked, min(max(first, peeked), _BLOCK_UNIFORMS))
            size += size & 1  # peeked stays even: row p of a block is parity p
            new = _inverse_cdf(cum, counts, rng.peek(size, peeked)).reshape(-1, 2).T
            kids = np.concatenate((kids[:, (pos >> 1) - base:], new), axis=1)
            base = pos >> 1
            np.minimum(kids, MEMORY_GUARD + 2, out=kids)
            hit = kids > 1
            counted = np.zeros((2, kids.shape[1] + 1), dtype=np.int64)
            np.cumsum(hit, axis=1, out=counted[:, 1:])
            code = kids << 6
            code += np.arange(-128, kids.shape[1] - 128)
            ranks = counted.tolist()
            pushes = [code[0, hit[0]].tolist(), code[1, hit[1]].tolist()]
            peeked += size
        k0, p = ((pos + 1) >> 1) - base, (pos + 1) & 1
        rank, push = ranks[p], pushes[p]
        for i in range(rank[k0], rank[k0 + n_levels - s]):
            stack.append(push[i] + s + 1 - k0)
        pos = end
    _check_branching((pos + len(starts)) // 2)
    return starts, pos


def _explicit_layout(model: TreeModel, n: int) -> SampledTree | np.ndarray:
    """What every depth-n explicit tree of the model shares, built after
    model.scales checks the depth and _check_nodes the size of even the
    smallest possible tree: for the regular shape, the unit-weight tree,
    whose resistances are the per-node scales (1.0 * s is s) and whose
    layout is computed (_regular_order) with no sort; for the branching
    shape, the level scales.  The unit tree's arrays are read-only, so the
    trees of one depth can share them."""
    scales = model.scales(n)
    _check_nodes(model, n)
    if model.shape != "regular":
        return scales
    beta = int(model.beta)
    order, offsets = _regular_order(beta, n, n)
    level = np.empty_like(order)
    level[order] = np.repeat(np.arange(1, n + 1), np.diff(offsets))
    parent, slot = _parent_slots(level, np.diff(level) == 1, order, offsets)
    return SampledTree._built(level, np.ones(len(level)), model.lam, "regular", beta,
                              scales[level - 1], order, offsets, parent, slot)


def sample_tree_explicit(model: TreeModel, n: int, rng: RngStream | list[RngStream], *,
                         layout: SampledTree | np.ndarray | None = None,
                         walks: list[tuple[list[int], int]] | None = None) -> SampledTree:
    """Materialize a depth-n tree, drawing weights in pre-order, or a
    forest of branching trees.

    Regular shape consumes one uniform per edge; the branching shape
    additionally draws one offspring count per internal node, right after
    that node's weight: nodes + internal nodes uniforms in all.  The
    branching walk (_branching_walk) only peeks at the stream.  With
    `walks`, rng is a list of streams and walks[i] the walk of rng[i],
    taken by the caller, and their trees are built as one forest (see
    SampledTree); a lone call walks its stream and builds a forest of one,
    the tree.  The chain starts, concatenated, give the forest's pre-order
    levels, its level-major layout and each node's weight position by
    array ops: a tree's first chain starts at level 1 and its draws follow
    the tree before.  One draw per tree consumes its uniforms, into one
    array that one _transform maps.

    `layout` is the depth's _explicit_layout, which a caller drawing many
    trees builds once per depth; without it, it is built here, so the depth
    and size are refused before any draw.  A regular tree is then one draw
    and one multiply on the shared layout.
    """
    if layout is None:
        layout = _explicit_layout(model, n)
    if model.shape == "regular":
        unit = layout  # the depth's unit-weight tree
        weight = dist_sample_block(model.weights, rng, unit.n_nodes)
        return SampledTree._built(unit.level, weight, unit.lam, "regular", unit.beta,
                                  unit.resistance, unit.order, unit.offsets, unit.parent,
                                  unit.slot)

    # branching shape: depth parameter n means n+1 edge levels (the root edge
    # sits above the depth-0 node, leaves are the depth-n nodes)
    n_levels = n + 1
    if walks is None:
        rng, walks = [rng], [_branching_walk(model, n, rng)]
    start = np.fromiter(chain.from_iterable(starts for starts, _ in walks), np.int64)
    length = n_levels + 1 - start  # each chain's nodes
    first = np.cumsum(length) - length  # each chain's first node
    # a chain steps one level down per node; the next restarts at its level
    step = np.ones(int(first[-1] + length[-1]), dtype=np.int64)
    step[first[1:]] = start[1:] - n_levels
    level = np.cumsum(step)
    kid = step[1:] == 1  # node i + 1 is the first child of node i
    # level l holds one node of each chain that starts at or above it
    offsets = np.concatenate(([0], np.cumsum(np.cumsum(
        np.bincount(start, minlength=n_levels + 1))[1:])))
    # a stable sort of uint8 keys (LEVEL_CAP < 256) is a radix sort
    order = np.argsort(level.astype(np.uint8), kind="stable")
    parent, slot = _parent_slots(level, kid, order, offsets)
    # a node's weight uniform is two after its parent's (the parent's
    # offspring count between them), and a chain's first is one after the
    # leaf that ends the chain before, in its tree or the tree before
    step.fill(2)
    step[first] = 1
    wpos = np.cumsum(step) - 1
    u = np.empty(sum(draws for _, draws in walks))
    pos = 0
    for stream, (_, draws) in zip(rng, walks):
        stream.uniforms(draws, out=u[pos:pos + draws])
        pos += draws
    weight = _transform(model.weights, u[wpos])
    return SampledTree._built(level, weight, model.lam, "gw", None, layout[level - 1], order,
                              offsets, parent, slot)


def resistance_of_tree(tree: SampledTree) -> float:
    """Effective resistance R of an explicit tree: the series-parallel fold,
    bottom level first.

    Exact for any tree whose leaves all sit at the bottom level and are held
    at one potential: branches below a node meet again only at the sink, so
    they combine in parallel.
    """
    return float(_fold_tree(tree)[0][0])


def _forest_resistances(forest: SampledTree) -> np.ndarray:
    """resistance_of_tree of each tree of a forest, in tree order, from one
    fold: the roots' slots of level 1."""
    return _fold_tree(forest)[0][:forest.trees]


def _forest_level_counts(forest: SampledTree) -> np.ndarray:
    """The (trees, n_levels) node counts of a forest's trees per level; a
    pre-order node belongs to the tree of the last root at or before it."""
    n_levels = forest.n_levels
    tree = np.cumsum(forest.level == 1) - 1
    return np.bincount(tree * n_levels + forest.level - 1,
                       minlength=forest.trees * n_levels).reshape(-1, n_levels)


# ---------------------------------------------------------------------------
# level-shorted resistance and the normalized population
# ---------------------------------------------------------------------------


def _forest_shorted(forest: SampledTree, counts: np.ndarray) -> np.ndarray:
    """shorted_resistance_of_tree of each tree of a forest whose per-tree
    level counts are `counts` (_forest_level_counts).  Level-major, a tree's
    level is one slice, which np.add.reduce sums as the tree alone sums it."""
    scales = level_scales(forest.lam, forest.n_levels)
    inv = 1.0 / forest.weight[forest.order]
    ends = np.cumsum(counts.T).tolist()  # level by level, tree by tree
    sums = np.array([np.add.reduce(inv[a:b]) for a, b in zip([0] + ends[:-1], ends)])
    terms = scales[:, None] / sums.reshape(forest.n_levels, -1)
    return np.array([math.fsum(t) for t in terms.T.tolist()])


def shorted_resistance_of_tree(tree: SampledTree) -> float:
    """Level-shorted resistance: the network with each depth class merged
    into one vertex, so each level's edges are in parallel and the levels in
    series.  Merging vertices never raises resistance, so this lower-bounds
    resistance_of_tree for every weight assignment; at unit weights it is
    the sum of lam**(l-1) / Z_l over the level sizes Z_l.  One reciprocal
    pass covers every level, and np.add.reduce sums each level's slice
    exactly as np.sum does (reduceat would change the sums' bits)."""
    return float(_forest_shorted(tree, tree.level_counts()[None])[0])


def gw_w_estimate(z_n: int | np.ndarray, lam: float, n: int) -> float | np.ndarray:
    """Normalized generation size Z_n / lam**n, the finite-depth stand-in for
    the martingale limit of the branching process; z_n is a count or an
    array of them."""
    if n < 1:
        raise ValidationError(f"depth n={n} must be >= 1")
    return z_n / lam**n
