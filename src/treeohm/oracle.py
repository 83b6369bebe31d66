"""Independent dense node-law solver used to validate the fast evaluators.

The tree is treated as a plain resistor network: all leaves are merged into
one grounded sink, a unit current is injected at the vertex above the root
edge, and the resulting linear system (node law plus Ohm's law) is solved by
Gaussian elimination with partial pivoting on a dense matrix.  Nothing here
reuses the series-parallel or flow-splitting code paths; agreement between
the routes is the point.

The elimination works on the matrix's nonzeros only: each row is a
{column: value} dict, and each column keeps the rows below the diagonal
that hold an entry there.  On a tree's matrix the rows a step updates are
the elimination front (the eliminated node's children and the pending
siblings of its ancestors), so a step touches a few entries, not whole
rows, and makes no numpy call.  The solver reads no tree structure: it
skips the zeros it finds.  With finite entries a skipped entry would only
have subtracted 0*x, so the solution keeps the bits of the full dense
update; that is why build_dense_system refuses an edge resistance whose
reciprocal overflows, and a matrix whose diagonal sums of conductances
overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evaluate import SampledTree, TreeModel
from .flows import FlowSolution, solve_flow
from .model import GuardError
from .stats import map_trees

ORACLE_GUARD = 2**12


@dataclass(frozen=True)
class DenseSystem:
    """Reduced conductance matrix A and injection vector for A @ u = rhs.

    Unknown 0 is the injection vertex; unknown_of[v] maps tree node v to its
    row, with -1 marking leaves merged into the grounded sink.
    """

    matrix: np.ndarray
    rhs: np.ndarray
    unknown_of: np.ndarray


def build_dense_system(tree: SampledTree) -> DenseSystem:
    if tree.n_nodes > ORACLE_GUARD:
        raise GuardError(f"oracle handles at most {ORACLE_GUARD} nodes, got {tree.n_nodes}")
    interior = np.flatnonzero(tree.level < tree.n_levels)
    unknown_of = np.full(tree.n_nodes, -1, dtype=np.int64)
    unknown_of[interior] = 1 + np.arange(len(interior))
    m = 1 + len(interior)
    r = tree.resistance  # finite and > 0, as SampledTree guarantees
    with np.errstate(over="ignore"):
        g = 1.0 / r
    bad = np.flatnonzero(g == np.inf)
    if len(bad):
        v = int(bad[0])
        raise GuardError(f"oracle needs every edge resistance to have a finite reciprocal; "
                         f"node {v} has resistance {float(r[v])!r}")
    a = np.zeros((m, m), dtype=np.float64)
    rhs = np.zeros(m, dtype=np.float64)
    rhs[0] = 1.0
    # the row of each edge's upper end: the injection vertex for the root edge
    p = np.concatenate(([0], unknown_of[tree.parent[1:]]))
    q = unknown_of[interior]
    # a diagonal entry sums its node's own edge, then its children's edges in
    # pre-order; every off-diagonal entry has one edge
    a[q, q] = g[interior]
    with np.errstate(over="ignore"):  # an overflowed sum is refused just below
        np.add.at(a, (p, p), g)
    a[p[interior], q] = -g[interior]
    a[q, p[interior]] = -g[interior]
    # an off-diagonal entry is one finite g, but a diagonal sum can overflow
    diag = a[q, q]
    over = np.flatnonzero(~np.isfinite(diag))
    if len(over):
        i = int(over[0])
        raise GuardError(f"oracle needs a finite node-law matrix; the conductances at "
                         f"node {int(interior[i])} sum to {float(diag[i])!r}")
    return DenseSystem(a, rhs, unknown_of)


def _gauss_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting on the nonzeros of `a`,
    then dense back substitution.

    The entries are read once into one {column: value} dict per row, and
    `below[c]` lists the rows under the diagonal that hold an entry in
    column c.  The pivot is that of np.argmax(np.abs(a[k:, k])): the largest
    abs over the diagonal and column k's rows, the lowest row on a tie.  A
    swap exchanges two row dicts and rebuilds the column lists from column
    k on.  A row with a nonzero entry in the pivot column (a cancelled 0.0
    counts as zero) loses that entry and takes `row[c] - mult * v` at every
    pivot-row entry (c, v) right of the diagonal; no other entry changes.

    Each stored value is the same IEEE operation on the same operands as
    the dense update `a[rows, k:] -= outer(mult, a[k, k:])`, `b[rows] -=
    mult * b[k]`.  A skipped entry would be x - mult*0, which keeps a
    nonzero x, and keeps a +0 as +0.  The contract is that `a` holds no -0
    entry (build_dense_system guarantees it: zeros start as +0 and an exact
    cancellation rounds to +0), so the triangle handed to the dense back
    substitution, whose np.dot grouping pins the bits, is that of the full
    dense update entry for entry.  Entries left of the diagonal are never
    read again in either version."""
    m = len(b)
    nz_row, nz_col = np.nonzero(a)
    rows: list[dict[int, float]] = [{} for _ in range(m)]
    below: list[list[int]] = [[] for _ in range(m)]
    for r, c, v in zip(nz_row.tolist(), nz_col.tolist(), a[nz_row, nz_col].tolist()):
        rows[r][c] = v
        if r > c:
            below[c].append(r)
    b = b.tolist()
    for k in range(m):
        best, piv = abs(rows[k].get(k, 0.0)), k
        for r in below[k]:
            v = abs(rows[r][k])
            if v > best or (v == best and r < piv):
                best, piv = v, r
        if best == 0.0:
            raise RuntimeError("singular node-law system (internal failure)")
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            b[k], b[piv] = b[piv], b[k]
            # rows from k on hold entries in columns k and up only
            below[k:] = [[] for _ in range(k, m)]
            for r in range(k + 1, m):
                for c in rows[r]:
                    if c < r:
                        below[c].append(r)
        pivot_row = rows[k]
        pivot = pivot_row[k]
        tail = [(c, v) for c, v in pivot_row.items() if c != k]
        bk = b[k]
        for r in below[k]:
            row = rows[r]
            lead = row.pop(k)
            if lead == 0.0:
                continue
            mult = lead / pivot
            for c, v in tail:
                if c in row:
                    row[c] -= mult * v
                else:
                    row[c] = 0.0 - mult * v
                    if r > c:
                        below[c].append(r)
            b[r] -= mult * bk
    at_row: list[int] = []
    at_col: list[int] = []
    values: list[float] = []
    for k, row in enumerate(rows):  # the diagonal and the entries right of it
        at_row.extend([k] * len(row))
        at_col.extend(row)
        values.extend(row.values())
    u = np.zeros((m, m), dtype=np.float64)
    u[at_row, at_col] = values
    x = np.empty(m, dtype=np.float64)
    for k in range(m - 1, -1, -1):
        x[k] = (b[k] - np.dot(u[k, k + 1:], x[k + 1:])) / u[k, k]
    return x


def kirchhoff_solve(tree: SampledTree) -> FlowSolution:
    """Solve the dense node-law system and rebuild currents via Ohm's law."""
    system = build_dense_system(tree)
    x = _gauss_solve(system.matrix, system.rhs)
    residual = float(np.max(np.abs(system.matrix @ x - system.rhs)))
    if not residual <= 1e-10 * float(np.max(np.abs(system.rhs))):  # NaN fails too
        raise RuntimeError(f"node-law solve residual too large: {residual}")
    voltage = np.zeros(tree.n_nodes, dtype=np.float64)
    interior = system.unknown_of >= 0
    voltage[interior] = x[system.unknown_of[interior]]
    resistance = float(x[0])  # the injection potential of a unit current
    upper = np.where(np.arange(tree.n_nodes) == 0, resistance, voltage[tree.parent])
    theta = (upper - voltage) / tree.resistance
    return FlowSolution(tree, theta, voltage, resistance)


@dataclass(frozen=True)
class OracleGaps:
    """Distances between the dense solve and the flow solve."""

    resistance_rel_gap: float
    max_theta_gap: float
    max_voltage_gap: float


def oracle_compare(tree: SampledTree) -> OracleGaps:
    dense = kirchhoff_solve(tree)
    flow = solve_flow(tree)
    r_gap = abs(flow.resistance - dense.resistance) / abs(dense.resistance)
    theta_gap = float(np.max(np.abs(flow.theta - dense.theta)))
    v_gap = max(float(np.max(np.abs(flow.voltage - dense.voltage))),
                abs(flow.resistance - dense.resistance))
    return OracleGaps(r_gap, theta_gap, v_gap)


def _oracle_record(i: int, tree: SampledTree) -> tuple[int, float, float, float]:
    gaps = oracle_compare(tree)
    return (tree.n_nodes, gaps.resistance_rel_gap, gaps.max_theta_gap, gaps.max_voltage_gap)


def oracle_gap_table(
    model: TreeModel, ns: list[int], count: int, master_seed: int, workers: int = 1
) -> list[tuple[int, int, int, float, float, float]]:
    """Gap rows (instance, n, nodes, r_gap, theta_gap, voltage_gap) for
    `count` seeded instances of any tree shape, cycling through the depth
    list.  A depth that an instance reaches and whose smallest possible tree
    (TreeModel.min_nodes) exceeds ORACLE_GUARD nodes is refused before any
    tree is drawn; a branching tree that grows past the guard is refused as
    it is solved."""
    for n in ns[:count]:
        model.scales(n)  # the level cap comes first and bounds the count
        nodes = model.min_nodes(n)
        if nodes > ORACLE_GUARD:
            least = "" if model.shape == "regular" else "at least "
            raise GuardError(f"oracle handles at most {ORACLE_GUARD} nodes, got {least}"
                             f"{nodes} at n={n}")
    records = map_trees(_oracle_record, model, ns, count, master_seed, workers)
    return [(i, ns[i % len(ns)], *rec) for i, rec in enumerate(records)]
