"""Optimal unit flow, node voltages, and the flow bounds of a weight law.

The physical current from the injection vertex to the grounded leaves is the
unique unit flow minimizing the energy sum r_e * theta_e^2, and that minimum
equals the effective resistance.  This module computes the minimizer on
explicit trees, competitor currents that test its minimality, and the bounds
that the weight law's envelope [a, b] fixes: flow_bound_report (one tree's
per-edge flow bound and fourth-power flow sums) and tail_bound_constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .evaluate import SampledTree, _fold_tree
from .model import ValidationError, WeightDistribution, _bound_constant


@dataclass(frozen=True)
class FlowSolution:
    """The optimal unit flow on a tree, rootward-to-leafward orientation.

    voltage[i] is the potential at node i (lower endpoint of edge i) with
    leaves at exactly 0; the injection vertex sits at the potential of a
    unit current, the effective resistance.  energy equals it as well.
    """

    tree: SampledTree
    theta: np.ndarray
    voltage: np.ndarray
    resistance: float

    @property
    def energy(self) -> float:
        return energy(self.tree, self.theta)


def energy(tree: SampledTree, theta: np.ndarray) -> float:
    """Energy sum r_e * theta_e^2 of a flow, summed over edges in pre-order."""
    return float(np.sum(tree.resistance * theta * theta))


def solve_flow(tree: SampledTree) -> FlowSolution:
    """Two-pass solve on the level-major layout: the fold supplies subtree
    resistances and child conductance sums, then each level's current is
    one gather that splits its parent's current in proportion to the
    children's subtree conductances.  Voltages follow from current times
    the downstream resistance, so leaves land at exactly 0."""
    offsets, slot = tree.offsets, tree.slot
    sub, cond, csum = _fold_tree(tree)
    theta, voltage = np.empty(tree.n_nodes), np.zeros(tree.n_nodes)
    theta_lm = np.ones(tree.n_nodes)
    for l in range(1, tree.n_levels):
        here, up = slice(offsets[l], offsets[l + 1]), slice(offsets[l - 1], offsets[l])
        pslot = slot[here]
        theta_lm[here] = theta_lm[up][pslot] * (cond[here] / csum[up][pslot])
    # leaves keep voltage 0; every other node's is its current over its child sum
    below = tree.order[:offsets[-2]]
    voltage[below] = theta_lm[:offsets[-2]] * (1.0 / csum)
    theta[tree.order] = theta_lm
    return FlowSolution(tree, theta, voltage, float(sub[0]))


def _path_to_root(tree: SampledTree, node: int) -> list[int]:
    path = []
    while node != -1:
        path.append(node)
        node = int(tree.parent[node])
    return path


def perturb_flow(flow: FlowSolution, leaf1: int, leaf2: int, eps: float) -> np.ndarray:
    """Edge currents of the optimal flow with eps of current shifted from
    the route into leaf1 onto the route into leaf2.  Only the symmetric
    difference of the two root paths changes, so the result is still a unit
    flow; its energy can only exceed the optimum.
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
    return theta


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
        best = min(best, energy(flow.tree, perturbed))
    return best


# ---------------------------------------------------------------------------
# deterministic flow bounds (regular binary trees, lam = 2)
# ---------------------------------------------------------------------------


def require_binary_doubling(tree) -> None:
    """Refuse a tree, or a model, outside the flow bounds' binary doubling case."""
    if tree.shape != "regular" or tree.beta != 2:
        raise ValidationError("model: flow bounds hold for regular binary trees (reg:2)")
    if tree.lam != 2.0:
        raise ValidationError(f"lam: flow bounds need the doubling scale 2, got {tree.lam}")


@dataclass(frozen=True)
class FlowBoundReport:
    """Per-edge check of theta_e <= b*n / (a*(n-d+1)*2**(d-1)), and the
    fourth-power flow sums against their deterministic ceiling.

    s4_scaled = sum_e 2**(2d) theta_e^4 and s4_plain = sum_e theta_e^4; the
    scaled sum times (b-a)^2 bounds the downward-resampling variance proxy,
    and s4_scaled <= b4 always (a consequence of the per-edge flow bound).
    """

    bound: np.ndarray
    margin: np.ndarray
    min_margin: float
    s4_scaled: float
    s4_plain: float
    b4: float


def flow_bound_report(flow: FlowSolution, dist: WeightDistribution) -> FlowBoundReport:
    """Evaluate the deterministic per-edge bound on the optimal unit flow,
    and the fourth-power sums that drive the sub-Gaussian tail constant.

    The bound needs only the law's envelope [a, b]: the voltage drop across
    the subtree under an edge is at most the total resistance b*n, while that
    subtree's resistance is at least a*(n-d+1)*2**(d-1) for an edge at level d.
    Both depend on the level alone, so they are computed once per level and
    gathered per edge.
    """
    tree = flow.tree
    require_binary_doubling(tree)
    a, b = dist.a, dist.b
    n = tree.n_levels
    d = np.arange(1, n + 1, dtype=np.float64)
    per_level = tree.level - 1
    bound = ((b * n) / (a * (n - d + 1.0) * 2.0 ** (d - 1.0)))[per_level]
    margin = bound - flow.theta
    t4 = flow.theta**4
    return FlowBoundReport(bound, margin, float(margin.min()),
                           float(np.sum((4.0**d)[per_level] * t4)),
                           float(np.sum(t4)), flow_ceiling(dist, n))


@cache
def flow_bound_sum(n: int) -> float:
    """Sum over i=1..n of (n/(n+1-i))**4 * 2**(-i): the level-summed fourth
    power of the per-edge flow bound, with the 2**(2d) depth scaling.
    Cached per depth, since every flow_bound_report at one depth needs it."""
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(np.sum((n / (n + 1.0 - i)) ** 4 * 2.0 ** (-i)))


def flow_ceiling(dist: WeightDistribution, n: int) -> float:
    """The ceiling b4 = (2^4 b^4 / a^4) * flow_bound_sum(n) of s4_scaled."""
    a, b = dist.a, dist.b
    return _bound_constant(a, b, lambda: (2.0**4 * b**4 / a**4) * flow_bound_sum(n))


# depths scanned for the sup in tail_bound_constant
_N_SCAN = 200


def tail_bound_constant(dist: WeightDistribution) -> float:
    """Constant C(a, b) of the law's envelope [a, b] for the sub-Gaussian
    deviation bound 2*exp(-t^2/(4C)).

    C = (2^4 b^4 (b-a)^2 / a^4) * sup_n flow_bound_sum(n).  The sup is taken
    numerically over n <= _N_SCAN; the scan asserts the sequence is decreasing
    well before the cutoff (it rises to a single hump near n = 6 and falls
    back toward 1), so truncation is safe.
    """
    sums = [flow_bound_sum(n) for n in range(1, _N_SCAN + 1)]
    best = max(sums)
    arg = sums.index(best)
    if arg > _N_SCAN - 50:
        raise RuntimeError("flow bound sum still rising near the scan cutoff")
    tail = sums[max(arg, _N_SCAN - 50):]
    if any(tail[k] < tail[k + 1] for k in range(len(tail) - 1)):
        raise RuntimeError("flow bound sum not decreasing past its peak")
    a, b = dist.a, dist.b
    return _bound_constant(a, b, lambda: (2.0**4 * b**4 * (b - a) ** 2 / a**4) * best)
