"""Independent dense node-law solver used to validate the fast evaluators.

The tree is treated as a plain resistor network: all leaves are merged into
one grounded sink, a unit current is injected at the vertex above the root
edge, and the resulting linear system (node law plus Ohm's law) is solved by
Gaussian elimination with partial pivoting on a dense matrix.  Nothing here
reuses the series-parallel or flow-splitting code paths; agreement between
the routes is the point.
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
        raise GuardError(
            f"oracle handles at most {ORACLE_GUARD} nodes, got {tree.n_nodes}"
        )
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
    return DenseSystem(a, rhs, unknown_of)


def _gauss_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting; row updates vectorized."""
    a = a.copy()
    b = b.copy()
    m = len(b)
    for k in range(m):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if a[piv, k] == 0.0:
            raise RuntimeError("singular node-law system (internal failure)")
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


def kirchhoff_solve(tree: SampledTree) -> FlowSolution:
    """Solve the dense node-law system and rebuild currents via Ohm's law."""
    system = build_dense_system(tree)
    x = _gauss_solve(system.matrix, system.rhs)
    residual = float(np.max(np.abs(system.matrix @ x - system.rhs)))
    if residual > 1e-10 * float(np.max(np.abs(system.rhs))):
        raise RuntimeError(f"node-law solve residual too large: {residual}")
    voltage = np.zeros(tree.n_nodes, dtype=np.float64)
    interior = system.unknown_of >= 0
    voltage[interior] = x[system.unknown_of[interior]]
    voltage_top = float(x[0])
    upper = np.where(
        np.arange(tree.n_nodes) == 0, voltage_top, voltage[tree.parent]
    )
    theta = (upper - voltage) / tree.resistance
    energy = float(np.sum(tree.resistance * theta * theta))
    return FlowSolution(tree, theta, voltage, voltage_top, voltage_top, energy)


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
    v_gap = max(
        float(np.max(np.abs(flow.voltage - dense.voltage))),
        abs(flow.voltage_top - dense.voltage_top),
    )
    return OracleGaps(r_gap, theta_gap, v_gap)


def _oracle_record(i: int, tree: SampledTree) -> tuple[int, float, float, float]:
    gaps = oracle_compare(tree)
    return (tree.n_nodes, gaps.resistance_rel_gap, gaps.max_theta_gap, gaps.max_voltage_gap)


def oracle_gap_table(
    model: TreeModel, ns: list[int], count: int, master_seed: int, workers: int = 1
) -> list[tuple[int, int, int, float, float, float]]:
    """Gap rows (instance, n, nodes, r_gap, theta_gap, voltage_gap) for
    `count` seeded instances of any tree shape, cycling through the depth
    list."""
    records = map_trees(_oracle_record, model, ns, count, master_seed, workers)
    return [(i, ns[i % len(ns)], *rec) for i, rec in enumerate(records)]
