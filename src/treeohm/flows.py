"""Optimal unit flow, node voltages, and flow-based concentration diagnostics.

The physical current from the injection vertex to the grounded leaves is the
unique unit flow minimizing the energy sum r_e * theta_e^2, and that minimum
equals the effective resistance.  This module computes the minimizer on
explicit trees, builds deliberately non-optimal competitor flows for testing
that minimality, and evaluates the deterministic per-edge flow bound and the
derived fourth-power sums that drive the sub-Gaussian tail constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .evaluate import SampledTree, _fold
from .model import ValidationError


@dataclass
class FlowSolution:
    """A unit flow on a tree, rootward-to-leafward orientation.

    For the optimal flow, voltage[i] is the potential at node i (lower
    endpoint of edge i) with leaves at exactly 0, voltage_top the potential
    at the injection vertex, and energy equals the effective resistance.
    Perturbed flows keep only theta and energy (voltages are None: they
    belong to the physical current, not to competitors).
    """

    tree: SampledTree
    theta: np.ndarray
    voltage: np.ndarray | None
    voltage_top: float | None
    resistance: float
    energy: float


def solve_flow(tree: SampledTree) -> FlowSolution:
    """Two-pass solve on the level-major layout: the fold supplies subtree
    resistances and child conductance sums, then each level's current is
    one gather that splits its parent's current in proportion to the
    children's subtree conductances.  Voltages follow from current times
    the downstream resistance, so leaves land at exactly 0."""
    offsets, slot = tree.offsets, tree.slot
    subs, csums = _fold(tree.resistance[tree.order], offsets, np.ones(tree.n_levels), slot)
    thetas = [np.ones(1)]
    for l in range(1, tree.n_levels):
        pslot = slot[offsets[l]:offsets[l + 1]]
        thetas.append(thetas[-1][pslot] * ((1.0 / subs[l]) / csums[l - 1][pslot]))
    volts = [t * (1.0 / c) for t, c in zip(thetas, csums)] + [np.zeros_like(thetas[-1])]
    theta, voltage = np.empty(tree.n_nodes), np.empty(tree.n_nodes)
    theta[tree.order] = np.concatenate(thetas)
    voltage[tree.order] = np.concatenate(volts)
    r_total = float(subs[0][0])
    return FlowSolution(tree, theta, voltage, r_total, r_total, _energy(tree, theta))


def _energy(tree: SampledTree, theta: np.ndarray) -> float:
    """Energy sum r_e * theta_e^2 of a flow, summed over edges in pre-order."""
    return float(np.sum(tree.resistance * theta * theta))


def _path_to_root(tree: SampledTree, node: int) -> list[int]:
    path = []
    while node != -1:
        path.append(node)
        node = int(tree.parent[node])
    return path


def perturb_flow(flow: FlowSolution, leaf1: int, leaf2: int, eps: float) -> FlowSolution:
    """Shift eps of current from the route into leaf1 onto the route into
    leaf2.  Only the symmetric difference of the two root paths changes, so
    the result is still a unit flow; its energy can only exceed the optimum.
    """
    tree = flow.tree
    if leaf1 == leaf2:
        raise ValidationError("perturbation needs two distinct leaves")
    leaves = set(int(i) for i in tree.leaf_ids())
    if leaf1 not in leaves or leaf2 not in leaves:
        raise ValidationError(f"nodes {leaf1}, {leaf2} are not both leaves")
    path1, path2 = _path_to_root(tree, leaf1), _path_to_root(tree, leaf2)
    shared = set(path1) & set(path2)
    theta = flow.theta.copy()
    theta[[v for v in path2 if v not in shared]] += eps
    theta[[v for v in path1 if v not in shared]] -= eps
    return FlowSolution(tree, theta, None, None, flow.resistance, _energy(tree, theta))


# shifts that random_perturbations cycles through
_EPS_GRID = (1e-3, -1e-3, 1e-2, -1e-2)


def random_perturbations(flow: FlowSolution, count: int, rng) -> float:
    """Apply `count` random leaf-pair perturbations (eps cycling through
    _EPS_GRID) and return the minimum perturbed energy."""
    leaves = flow.tree.leaf_ids()
    n_leaves = len(leaves)
    if n_leaves < 2:
        raise ValidationError("perturbations need at least two leaves")
    best = math.inf
    for k in range(count):
        i = int(rng.integers(0, n_leaves))
        j = int(rng.integers(0, n_leaves - 1))
        if j >= i:
            j += 1
        eps = _EPS_GRID[k % len(_EPS_GRID)]
        perturbed = perturb_flow(flow, int(leaves[i]), int(leaves[j]), eps)
        best = min(best, perturbed.energy)
    return best


# ---------------------------------------------------------------------------
# deterministic flow bounds (regular binary trees, lam = 2)
# ---------------------------------------------------------------------------


def _require_binary_doubling(tree: SampledTree) -> None:
    if tree.shape != "regular" or tree.beta != 2 or tree.lam != 2.0:
        raise ValidationError(
            "flow bounds hold for regular binary trees with doubling scale"
        )


@dataclass(frozen=True)
class FlowBoundReport:
    """Per-edge check of theta_e <= b*n / (a*(n-d+1)*2**(d-1))."""

    bound: np.ndarray
    margin: np.ndarray
    min_margin: float


def flow_bound_report(flow: FlowSolution, a: float, b: float) -> FlowBoundReport:
    """Evaluate the deterministic per-edge bound on the optimal unit flow.

    The bound needs only the weight envelope [a, b]: the voltage drop across
    the subtree under an edge is at most the total resistance b*n, while that
    subtree's resistance is at least a*(n-d+1)*2**(d-1) for an edge at level d.
    """
    tree = flow.tree
    _require_binary_doubling(tree)
    if not (0.0 < a <= b):
        raise ValidationError(f"need 0 < a <= b, got a={a}, b={b}")
    n = tree.n_levels
    d = tree.level.astype(np.float64)
    bound = (b * n) / (a * (n - d + 1.0) * 2.0 ** (d - 1.0))
    margin = bound - flow.theta
    return FlowBoundReport(bound, margin, float(margin.min()))


def flow_bound_sum(n: int) -> float:
    """Sum over i=1..n of (n/(n+1-i))**4 * 2**(-i): the level-summed fourth
    power of the per-edge flow bound, with the 2**(2d) depth scaling."""
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(np.sum((n / (n + 1.0 - i)) ** 4 * 2.0 ** (-i)))


@dataclass(frozen=True)
class ConcentrationReport:
    """Fourth-power flow sums against their deterministic ceiling.

    s4_scaled = sum_e 2**(2d) theta_e^4 and s4_plain = sum_e theta_e^4; the
    scaled sum times (b-a)^2 bounds the downward-resampling variance proxy,
    and s4_scaled <= b4 always (a consequence of the per-edge flow bound).
    """

    s4_scaled: float
    s4_plain: float
    b4: float


def concentration_diagnostics(flow: FlowSolution, a: float, b: float) -> ConcentrationReport:
    tree = flow.tree
    _require_binary_doubling(tree)
    if not (0.0 < a <= b):
        raise ValidationError(f"need 0 < a <= b, got a={a}, b={b}")
    d = tree.level.astype(np.float64)
    t4 = flow.theta**4
    s4_scaled = float(np.sum(4.0**d * t4))
    s4_plain = float(np.sum(t4))
    b4 = (2.0**4 * b**4 / a**4) * flow_bound_sum(tree.n_levels)
    return ConcentrationReport(s4_scaled, s4_plain, b4)


# depths scanned for the sup in tail_bound_constant
_N_SCAN = 200


def tail_bound_constant(a: float, b: float) -> float:
    """Constant C(a, b) for the sub-Gaussian deviation bound 2*exp(-t^2/(4C)).

    C = (2^4 b^4 (b-a)^2 / a^4) * sup_n flow_bound_sum(n).  The sup is taken
    numerically over n <= _N_SCAN; the scan asserts the sequence is decreasing
    well before the cutoff (it rises to a single hump near n = 6 and falls
    back toward 1), so truncation is safe.
    """
    if not (0.0 < a <= b):
        raise ValidationError(f"need 0 < a <= b, got a={a}, b={b}")
    sums = [flow_bound_sum(n) for n in range(1, _N_SCAN + 1)]
    best = max(sums)
    arg = sums.index(best)
    if arg > _N_SCAN - 50:
        raise RuntimeError("flow bound sum still rising near the scan cutoff")
    tail = sums[max(arg, _N_SCAN - 50):]
    if any(tail[k] < tail[k + 1] for k in range(len(tail) - 1)):
        raise RuntimeError("flow bound sum not decreasing past its peak")
    return (2.0**4 * b**4 * (b - a) ** 2 / a**4) * best
