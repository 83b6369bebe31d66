import json
import os
from bisect import bisect_right
from dataclasses import replace
from itertools import chain

import numpy as np
import pytest

from treeohm import SampledTree, TreeModel, ValidationError, WeightDistribution
from treeohm.cli import _STAMP, _provenance, _provenance_json, _write_lines


def build_tree(parent, level, weight, lam, shape, beta=None):
    """The tree of these pre-order levels; `parent`, the caller's own
    parents, must equal the derived ones byte for byte."""
    tree = SampledTree(np.asarray(level, dtype=np.int64), np.asarray(weight, dtype=np.float64),
                       float(lam), shape, beta)
    assert tree.parent.tobytes() == np.asarray(parent, dtype=np.int64).tobytes()
    return tree


def reweighted(tree, node, x):
    """Copy of the tree with one edge weight replaced (its resistance follows;
    the constructor refuses a weight that is not finite and > 0)."""
    if not (0 <= node < tree.n_nodes):
        raise ValidationError(f"node {node} out of range")
    weight = tree.weight.copy()
    weight[node] = x
    return replace(tree, weight=weight)


def assert_node_law(theta, tree, tol):
    """At every node with children, the current in equals the sum of the
    children's currents (summed in id order from the parent array)."""
    outflow = np.bincount(tree.parent[1:], weights=theta[1:], minlength=tree.n_nodes)
    has_kids = np.bincount(tree.parent[1:], minlength=tree.n_nodes) > 0
    assert np.all(np.abs(theta[has_kids] - outflow[has_kids]) <= tol)


def _scalar_weight(dist, u):
    """One weight from one uniform, by the scalar rule: affine onto [a, b]
    for a law without atoms, else the inverse CDF of the atoms."""
    if not dist.atoms:
        return dist.a + (dist.b - dist.a) * u
    cum = np.cumsum([p for _, p in dist.atoms]).tolist()
    return dist.atoms[min(bisect_right(cum, u), len(cum) - 1)][0]


def scalar_gw_tree(model, n, rng):
    """Reference branching sampler: the per-node loop that draws one uniform
    at a time, a node's weight first, then, at an internal node, its
    offspring count, found by bisection on the cumulative probabilities.
    Its parent list, tracked on the stack, is the reference that build_tree
    holds the derived parents to."""
    n_levels = n + 1
    cum = np.cumsum([p for _, p in model.offspring]).tolist()
    parents, levels, weights = [], [], []
    stack = [(1, -1)]
    while stack:
        lvl, par = stack.pop()
        i = len(parents)
        parents.append(par)
        levels.append(lvl)
        weights.append(_scalar_weight(model.weights, float(rng.uniforms(1)[0])))
        if lvl < n_levels:
            b = model.offspring[min(bisect_right(cum, rng.uniforms(1)[0]), len(cum) - 1)][0]
            stack.extend([(lvl + 1, i)] * b)
    return build_tree(parents, levels, weights, model.lam, "gw")


def loop_dense_system(tree):
    """Reference node-law system (matrix, rhs, unknown_of) of a tree, built
    one edge at a time in pre-order: the root edge joins the injection
    vertex (row 0) to its lower end, every other edge joins its parent's row
    to its own, and leaves merge into the grounded sink (no row)."""
    is_leaf = tree.level == tree.n_levels
    unknown_of = np.full(tree.n_nodes, -1, dtype=np.int64)
    interior = np.flatnonzero(~is_leaf)
    unknown_of[interior] = 1 + np.arange(len(interior))
    m = 1 + len(interior)
    a = np.zeros((m, m), dtype=np.float64)
    rhs = np.zeros(m, dtype=np.float64)
    rhs[0] = 1.0
    for v in range(tree.n_nodes):
        g = 1.0 / tree.resistance[v]
        p = 0 if v == 0 else int(unknown_of[tree.parent[v]])
        q = int(unknown_of[v])
        a[p, p] += g
        if q >= 0:
            a[q, q] += g
            a[p, q] -= g
            a[q, p] -= g
    return a, rhs, unknown_of


def dense_gauss_solve(a, b, pivots=None):
    """Reference elimination: Gaussian elimination with partial pivoting that
    updates every row below the pivot, then dense back substitution.  The
    pivot row of each step is appended to `pivots` when a list is given."""
    a = a.copy()
    b = b.copy()
    m = len(b)
    for k in range(m):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if pivots is not None:
            pivots.append(piv)
        if a[piv, k] == 0.0:
            raise RuntimeError("singular node-law system")
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            b[k], b[piv] = b[piv], b[k]
        mult = a[k + 1:, k] / a[k, k]
        a[k + 1:, k:] -= np.outer(mult, a[k, k:])
        b[k + 1:] -= mult * b[k]
    x = np.empty(m, dtype=np.float64)
    for k in range(m - 1, -1, -1):
        x[k] = (b[k] - np.dot(a[k, k + 1:], x[k + 1:])) / a[k, k]
    return x


def _row_spec(value):
    return "%d" if isinstance(value, (int, np.integer)) else "%.17g"


def write_table_by_rows(outdir, name, names, rows, cfg):
    """Reference table writer: one row at a time, a CSV row by one %-format
    built from the first row's types (%d for integers and bools, %.17g for
    the rest), a JSON value by its own type.  `cli.write_table` must write
    the same bytes from the same table given as columns."""
    if cfg["format"] == "json":
        path = os.path.join(outdir, f"{name}.json")
        payload = {
            "provenance": _provenance(cfg),
            "columns": names,
            "rows": [[_row_spec(v) % v for v in row] for row in rows],
        }
        _write_lines(path, [json.dumps(payload, sort_keys=True, indent=2) + "\n"])
        return path
    path = os.path.join(outdir, f"{name}.csv")
    header = f"{_STAMP}{_provenance_json(cfg)}\n{','.join(names)}\n"
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        _write_lines(path, [header])
        return path
    fmt = ",".join(map(_row_spec, first)) + "\n"
    _write_lines(path, chain([header], (fmt % row for row in chain([first], rows))))
    return path


def tiled_dfs_layout(beta, n_levels):
    """Reference pre-order levels and parents of the full beta-ary tree with
    n_levels edge levels, built by tiling: a tree one level deeper is a new
    root above beta copies of the tree, laid out one after another."""
    level = np.ones(1, dtype=np.int64)
    parent = np.full(1, -1, dtype=np.int64)
    for _ in range(n_levels - 1):
        size = level.shape[0]
        copies = parent + 1 + size * np.arange(beta)[:, None]
        copies[:, 0] = 0
        level = np.concatenate(([1], np.tile(level + 1, beta)))
        parent = np.concatenate(([-1], copies.ravel()))
    return level, parent


@pytest.fixture
def three_edge_tree():
    """Root edge r=1 feeding two branch edges r=2 and r=4; R = 7/3."""
    return build_tree([-1, 0, 0], [1, 2, 2], [1.0, 1.0, 2.0], 2.0, "regular", 2)


@pytest.fixture
def bushy_tree():
    """Irregular branching instance: the root's node has two children, one
    with a single child and one with three, unit weights; R = 22/7."""
    return build_tree(
        [-1, 0, 1, 0, 3, 3, 3],
        [1, 2, 3, 2, 3, 3, 3],
        np.ones(7),
        2.0,
        "gw",
    )


@pytest.fixture
def twopoint_half():
    return WeightDistribution.two_point(0.5, 1.5)


@pytest.fixture
def binary_twopoint_model(twopoint_half):
    return TreeModel.regular(2, twopoint_half)


@pytest.fixture
def binary_unit_model():
    return TreeModel.regular(2, WeightDistribution.constant(1.0))
