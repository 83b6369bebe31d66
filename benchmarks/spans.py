"""Layer spans recorded from outside the package.

The package is not instrumented.  Instead, each public function that one
module imports from another is rebound, in every treeohm module that holds
it, to a wrapper that times the call.  Wrappers nest like the calls they
wrap, so a span's self time is its duration minus the time its child spans
cover, and the self times of one `cli.main` call add up to its duration.
"""

from __future__ import annotations

import importlib
import os
import time

import checks

# span name -> (defining module, attribute) pairs rebound to that span.
# A name the package no longer defines is skipped, and its span reads zero.
SPANS = {
    "cli.write": [("cli", "write_table"), ("cli", "write_report")],
    "stats.sweep": [("stats", "sweep")],
    "stats.run_replicates": [("stats", "run_replicates")],
    "stats.estimate_moments": [("stats", "estimate_moments")],
    "stats.gw_experiment": [("stats", "gw_experiment")],
    "evaluate.resistance_fast": [("evaluate", "resistance_fast")],
    "evaluate.dfs_layout": [("evaluate", "_dfs_layout")],
    "evaluate.sample_tree_explicit": [("evaluate", "sample_tree_explicit")],
    "evaluate.resistance_of_tree": [("evaluate", "resistance_of_tree")],
    "evaluate.gw_utils": [("evaluate", "gw_shorted_resistance"),
                          ("evaluate", "gw_w_estimate")],
    "flows.solve_flow": [("flows", "solve_flow")],
    "flows.diagnostics": [("flows", "flow_bound_report"),
                          ("flows", "concentration_diagnostics")],
    "oracle.oracle_gap_table": [("oracle", "oracle_gap_table")],
    "oracle.oracle_compare": [("oracle", "oracle_compare")],
    "oracle.kirchhoff_solve": [("oracle", "kirchhoff_solve")],
    "model.RngStream": [("model", "RngStream")],
    "model.dist_sample_block": [("model", "dist_sample_block")],
    "model.level_scales": [("model", "level_scales")],
    "model.scalar_draws": [("model", "dist_sample"), ("model", "sample_offspring")],
}

MODULES = ("model", "evaluate", "flows", "oracle", "stats", "cli")


def _edges(args, out) -> int:
    return checks.edges(int(args[0].beta), args[1])


def _tree_nodes(args, out) -> int:
    return int(args[0].n_nodes)


def _written_bytes(args, out) -> int:
    return os.path.getsize(out)


# work units counted per span (edges, nodes, bytes); other spans count only
# calls, and evaluate.sample_tree_explicit counts nodes (see _count_gw_draws)
UNITS = {
    "cli.write": _written_bytes,
    "evaluate.resistance_fast": _edges,
    "evaluate.resistance_of_tree": _tree_nodes,
    "flows.solve_flow": _tree_nodes,
}


class Recorder:
    """Per-span totals: calls, self seconds and work units.

    `stack` holds, for each open span, the time its finished children took.
    """

    def __init__(self) -> None:
        self.totals: dict[str, list] = {}
        self.stack: list[float] = []
        # one uniform per node plus one offspring draw per internal node,
        # summed over the branching (gw) trees the run materialized
        self.gw_tree_draws = 0

    def wrap(self, name: str, fn, units=None):
        totals = self.totals.setdefault(name, [0, 0.0, 0])
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += dt
                totals[0] += 1
                totals[1] += dt - children
            if units is not None:
                totals[2] += units(args, out)
            return out

        return traced

    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.totals.items()},
            "gw_tree_draws": self.gw_tree_draws,
        }


def install(package) -> Recorder:
    """Rebind the package's cross-module names to traced wrappers."""
    rec = Recorder()
    mods = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
    everywhere = list(mods.values()) + [package]
    for name, targets in SPANS.items():
        rec.totals.setdefault(name, [0, 0.0, 0])
        units = UNITS.get(name)
        if name == "evaluate.sample_tree_explicit":
            units = _count_gw_draws(rec)
        for mod_name, attr in targets:
            home = mods[mod_name]
            orig = getattr(home, attr, None)
            if orig is None:
                continue
            wrapped = rec.wrap(name, orig, units)
            for mod in everywhere:
                # a class keeps its own name in its defining module
                if isinstance(orig, type) and mod is home:
                    continue
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
    # uniform draws are methods, so they are wrapped on the class itself
    stream = mods["model"].RngStream
    rec.totals.setdefault("model.uniforms", [0, 0.0, 0])
    if hasattr(stream, "uniform"):
        stream.uniform = rec.wrap("model.uniforms", stream.uniform, lambda a, o: 1)
    if hasattr(stream, "uniforms"):
        stream.uniforms = rec.wrap("model.uniforms", stream.uniforms,
                                   lambda a, o: int(o.size))
    return rec


def _count_gw_draws(rec: Recorder):
    def units(args, tree) -> int:
        nodes = int(tree.n_nodes)
        if tree.shape == "gw":
            internal = int((tree.level < tree.n_levels).sum())
            rec.gw_tree_draws += nodes + internal
        return nodes

    return units
