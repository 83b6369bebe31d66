"""treeohm benchmark: end-to-end and per-layer cost of CLI workloads.

Usage, from the repository root:

    python3 benchmarks/bench.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/bench.py --record-digests

Each invocation of a workload is a fresh `python3` process that imports
treeohm from this checkout's `src/` and calls `treeohm.cli.main` once per
CLI call of the workload, at `--workers 1`.  The first invocation uses the
default seed and its artifacts are compared with `digests.json`; it is not
timed.  Further invocations, with CLI seeds derived from `--seed`, run until
their wall time adds up to `--seconds`; their artifacts are checked on the
seed they used (see checks.py).  The metrics are medians over the timed
invocations.

With `--trace 1`, every other timed invocation rebinds layer spans (see
spans.py) and the per-layer metrics come from those; the untraced ones
give the tracing overhead.  A traced invocation also counts the uniforms
drawn against the draw-order contract.

stdout lists every metric as `name value unit`, then ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.  An invocation that
exits non-zero, writes a wrong artifact or breaks the draw contract counts
as failed.  `--record-digests` rewrites digests.json from the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy

import calibrate
import checks

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD = os.path.join(HERE, "child.py")
DIGESTS = os.path.join(HERE, "digests.json")
# a run stops its children once this much wall time has passed, so that it
# ends within the 180 s a run may take even when the program hangs
RUN_LIMIT_S = 150
DEFAULT_SEED = 0

# Each workload is a list of (CLI call without --seed/--out/--workers,
# items it completes).  Sizes keep one invocation near 2-3 s on a 2-core
# host, so a run of --seconds 30 takes about a dozen samples.
_SHALLOW_REPS = 20000
_DEEP_REPS = 100
_DEEP_DEPTHS = 5  # n = 14..18
WORKLOADS = {
    # per-replicate fixed costs: stream construction, level_scales, n tiny
    # numpy calls per fold, one CSV row per replicate
    "regular_shallow": [
        (["sample", "--model", "reg:2", "--n", "4", "--dist", "twopoint:0.5,1.5",
          "--reps", str(_SHALLOW_REPS)], _SHALLOW_REPS),
    ],
    # large-array kernels: block draw, weight transform, pre-order to
    # level-major gather, level fold (2^18 - 1 edges at the deepest level)
    "regular_deep": [
        (["sweep", "--model", "reg:2", "--n", "14..18", "--dist", "twopoint:0.5,1.5",
          "--reps", str(_DEEP_REPS)], _DEEP_REPS * _DEEP_DEPTHS),
    ],
    # per-node Python paths on materialized trees: branching sampler with
    # scalar draws, upward pass, flow solve, dense oracle
    "explicit_trees": [
        (["gw", "--model", "gw:1:0.5,2:0.5", "--dist", "const:1", "--n", "14",
          "--trees", "100"], 100),
        (["flows", "--model", "reg:2", "--n", "12", "--dist", "unif:0.5,1.5",
          "--instances", "60"], 60),
        (["oracle-check", "--model", "reg:2", "--n", "2..9", "--dist", "unif:0.5,1.5",
          "--instances", "100"], 100),
    ],
}

E2E_METRICS = {
    "run_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
}

# per-layer metric -> (span, field, unit); field is calls, self_s, units or
# ns_per_unit (self time per edge or node the span processed)
LAYER_METRICS = {
    "model.RngStream.calls": ("model.RngStream", "calls", "count"),
    "model.RngStream.self_s": ("model.RngStream", "self_s", "s"),
    "model.uniforms.count": ("model.uniforms", "units", "count"),
    "model.uniforms.self_s": ("model.uniforms", "self_s", "s"),
    "model.dist_sample_block.self_s": ("model.dist_sample_block", "self_s", "s"),
    "model.level_scales.calls": ("model.level_scales", "calls", "count"),
    "model.level_scales.self_s": ("model.level_scales", "self_s", "s"),
    "model.scalar_draws.calls": ("model.scalar_draws", "calls", "count"),
    "model.scalar_draws.self_s": ("model.scalar_draws", "self_s", "s"),
    "evaluate.resistance_fast.calls": ("evaluate.resistance_fast", "calls", "count"),
    "evaluate.resistance_fast.self_s": ("evaluate.resistance_fast", "self_s", "s"),
    "evaluate.resistance_fast.ns_per_edge": ("evaluate.resistance_fast", "ns_per_unit", "ns"),
    "evaluate.dfs_layout.self_s": ("evaluate.dfs_layout", "self_s", "s"),
    "evaluate.sample_tree_explicit.self_s": ("evaluate.sample_tree_explicit", "self_s", "s"),
    "evaluate.nodes_built.count": ("evaluate.sample_tree_explicit", "units", "count"),
    "evaluate.resistance_of_tree.self_s": ("evaluate.resistance_of_tree", "self_s", "s"),
    "evaluate.resistance_of_tree.ns_per_node": ("evaluate.resistance_of_tree", "ns_per_unit", "ns"),
    "evaluate.gw_utils.self_s": ("evaluate.gw_utils", "self_s", "s"),
    "flows.solve_flow.self_s": ("flows.solve_flow", "self_s", "s"),
    "flows.solve_flow.ns_per_node": ("flows.solve_flow", "ns_per_unit", "ns"),
    "flows.diagnostics.self_s": ("flows.diagnostics", "self_s", "s"),
    "oracle.kirchhoff_solve.self_s": ("oracle.kirchhoff_solve", "self_s", "s"),
    "oracle.oracle_compare.self_s": ("oracle.oracle_compare", "self_s", "s"),
    "oracle.oracle_gap_table.self_s": ("oracle.oracle_gap_table", "self_s", "s"),
    "stats.sweep.self_s": ("stats.sweep", "self_s", "s"),
    "stats.run_replicates.self_s": ("stats.run_replicates", "self_s", "s"),
    "stats.estimate_moments.self_s": ("stats.estimate_moments", "self_s", "s"),
    "stats.gw_experiment.self_s": ("stats.gw_experiment", "self_s", "s"),
    "cli.write.self_s": ("cli.write", "self_s", "s"),
    "cli.write.bytes": ("cli.write", "units", "B"),
    "cli.main.self_s": ("cli.main", "self_s", "s"),
}
# whole-run trace metrics: draws per contract prediction, traced run_s /
# untraced run_s - 1, the traced self times summed, and the untraced run_s
TRACE_METRICS = {
    "model.uniforms.per_contract": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.self_sum_s": "s",
    "trace.run_s_untraced": "s",
}


def cli_seed(workload: str, seed: int, invocation: int, call: int) -> int:
    return random.Random(f"{workload}/{seed}/{invocation}/{call}").randrange(2**31)


class Invocation:
    """One child process running every CLI call of a workload."""

    def __init__(self, workload: str, seed: int, index: int, trace: bool, workdir: str):
        self.outdir = tempfile.mkdtemp(prefix=f"inv{index}-", dir=workdir)
        self.result_path = self.outdir + ".json"
        self.trace = trace
        self.argvs = [
            call + ["--seed", str(cli_seed(workload, seed, index, k)),
                    "--out", self.outdir, "--workers", "1"]
            for k, (call, _) in enumerate(WORKLOADS[workload])
        ]
        self.items = sum(items for _, items in WORKLOADS[workload])
        self.errors: list[str] = []
        self.result: dict | None = None

    def run(self, deadline: float) -> None:
        spec = {"src": SRC, "calls": self.argvs, "trace": self.trace,
                "result": self.result_path}
        self.calibration_before_s = calibrate.kernel()
        self.spawned = time.monotonic()
        timeout = max(1.0, deadline - self.spawned)
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, json.dumps(spec)],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=timeout, cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            self.wall_s = time.monotonic() - self.spawned
            self.errors.append(f"killed after {timeout:.0f} s")
            return
        self.wall_s = time.monotonic() - self.spawned
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            self.errors.append(f"exit {proc.returncode}: {' | '.join(tail)}")
            return
        with open(self.result_path) as fh:
            self.result = json.load(fh)

    def check(self, treeohm, digests: dict | None) -> None:
        if self.result is None:
            return
        rng = random.Random(self.outdir)
        for argv in self.argvs:
            self.errors += checks.check_call(treeohm, argv, self.outdir, rng)
        if digests is not None:
            self.errors += checks.compare_digests(self.outdir, digests)
        if self.trace:
            drawn = self.result["spans"]["model.uniforms"][2]
            if drawn != self.predicted_draws():
                self.errors.append(
                    f"draw contract: drew {drawn} uniforms, predicted {self.predicted_draws()}")

    def predicted_draws(self) -> int:
        return sum(checks.predicted_draws(argv, self.result["gw_tree_draws"])
                   for argv in self.argvs)

    def cleanup(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)
        if os.path.exists(self.result_path):
            os.remove(self.result_path)

    # -- metrics -------------------------------------------------------------

    def calibration_s(self) -> float:
        return 0.5 * (self.calibration_before_s + self.result["calibration_s"])

    def scale(self) -> float:
        """Factor from this invocation's seconds to reference-speed seconds.

        The host's speed drifts within seconds, so it is measured twice: by
        this process just before the spawn and by the child just after its
        calls.  The child's run comes after the peak memory reading, so the
        kernel's own allocations never count as the workload's.
        """
        return calibrate.REF_S / self.calibration_s()

    def wall_run_s(self) -> float:
        return sum(self.result["call_s"])

    def wall_setup_s(self) -> float:
        return self.result["main_start"] - self.spawned

    def run_s(self) -> float:
        return self.wall_run_s() * self.scale()

    def e2e(self) -> dict[str, float]:
        run_s = self.run_s()
        return {
            "run_s": run_s,
            "items_per_s": self.items / run_s,
            "setup_s": self.wall_setup_s() * self.scale(),
            "peak_rss_mb": self.result["peak_rss_kib"] / 1024.0,
        }

    def layers(self) -> dict[str, float]:
        spans = self.result["spans"]
        scale = self.scale()
        out = {}
        for name, (span, field, _) in LAYER_METRICS.items():
            calls, self_s, units = spans.get(span, (0, 0.0, 0))
            self_s *= scale
            if field == "ns_per_unit":
                out[name] = self_s * 1e9 / units if units else 0.0
            else:
                out[name] = {"calls": calls, "self_s": self_s, "units": units}[field]
        out["trace.self_sum_s"] = sum(v[1] for v in spans.values()) * scale
        return out


def _import_treeohm():
    sys.path.insert(0, SRC)
    import treeohm

    if not os.path.realpath(treeohm.__file__).startswith(os.path.join(SRC, "")):
        raise ImportError(f"treeohm imported from {treeohm.__file__}, not {SRC}")
    return treeohm


def run_workload(workload: str, seed: int, seconds: float, trace: bool, treeohm):
    """Golden invocation, then timed ones until `seconds` of wall time."""
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    with open(DIGESTS) as fh:
        digests = json.load(fh).get(workload, {})
    deadline = time.monotonic() + RUN_LIMIT_S
    done = []
    try:
        golden = Invocation(workload, DEFAULT_SEED, 0, False, workdir)
        golden.run(deadline)
        golden.check(treeohm, digests)
        golden.cleanup()
        # --trace 1 needs at least one traced and one untraced invocation
        at_least = 2 if trace else 1
        spent = 0.0
        index = 1
        while (spent < seconds or index <= at_least) and time.monotonic() < deadline:
            inv = Invocation(workload, seed, index, trace and index % 2 == 1, workdir)
            inv.run(deadline)
            inv.check(treeohm, None)
            inv.cleanup()
            spent += inv.wall_s
            done.append(inv)
            index += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _remove_if_empty(WORK)
    return golden, done


def _remove_if_empty(path: str) -> None:
    try:
        os.rmdir(path)
    except OSError:
        pass  # another run is using it


def summarize(golden: Invocation, done: list[Invocation], trace: bool) -> dict:
    # times come from every invocation that exited 0; wrong outputs still
    # count as failed
    ok = [inv for inv in done if inv.result is not None]
    attempted = 1 + len(done)
    failed = sum(1 for inv in [golden] + done if inv.errors)
    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        rows = [inv.e2e() for inv in ok]
        for name, unit in E2E_METRICS.items():
            if name != "ok_frac":
                metrics[name] = (statistics.median(r[name] for r in rows), unit)
        metrics["ok_frac"] = (1.0 - failed / attempted, E2E_METRICS["ok_frac"])
    else:
        traced = [inv for inv in ok if inv.trace]
        untraced = [inv for inv in ok if not inv.trace]
        rows = [inv.layers() for inv in traced]
        for name, (_, _, unit) in LAYER_METRICS.items():
            metrics[name] = (statistics.median(r[name] for r in rows), unit)
        drawn = sum(inv.result["spans"]["model.uniforms"][2] for inv in traced)
        predicted = sum(inv.predicted_draws() for inv in traced)
        untraced_s = statistics.median(inv.run_s() for inv in untraced)
        traced_s = statistics.median(inv.run_s() for inv in traced)
        trace_values = {
            "model.uniforms.per_contract": drawn / predicted,
            "trace.overhead_frac": traced_s / untraced_s - 1.0,
            "trace.self_sum_s": statistics.median(r["trace.self_sum_s"] for r in rows),
            "trace.run_s_untraced": untraced_s,
        }
        for name, unit in TRACE_METRICS.items():
            metrics[name] = (trace_values[name], unit)
    wall = {
        "run_s": statistics.median(inv.wall_run_s() for inv in ok if not inv.trace),
        "setup_s": statistics.median(inv.wall_setup_s() for inv in ok if not inv.trace),
        "calibration_s": statistics.median(inv.calibration_s() for inv in ok),
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "wall": wall}


# ---------------------------------------------------------------------------
# provenance stamp
# ---------------------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "treeohm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _caches() -> dict[str, str]:
    """Per-instance cache sizes of cpu0, read from sysfs."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type"))
        size = _read(os.path.join(base, entry, "size"))
        if level and size:
            out[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return out


def stamp(workload: str) -> dict:
    opts = [checks.options(call) for call, _ in WORKLOADS[workload]]
    edges = max((checks.edges(int(o["model"].split(":")[1]), max(checks.depths(o["n"])))
                 for o in opts if o["model"].startswith("reg:")), default=0)
    return {
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches_per_instance": _caches(),
        "largest_regular_tree_edges": edges,
        "working_set_bytes_computed": edges * 16,
        "working_set_formula": "edges x (8 B weight + 8 B gather index), computed, not measured",
        "workload_calls": [call for call, _ in WORKLOADS[workload]],
    }


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def record_digests(treeohm) -> None:
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="digests-", dir=WORK)
    recorded = {}
    try:
        for workload in WORKLOADS:
            inv = Invocation(workload, DEFAULT_SEED, 0, False, workdir)
            inv.run(time.monotonic() + RUN_LIMIT_S)
            inv.check(treeohm, None)
            if inv.errors:
                raise SystemExit(f"{workload}: {inv.errors}")
            recorded[workload] = checks.artifact_digests(inv.outdir)
            inv.cleanup()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _remove_if_empty(WORK)
    with open(DIGESTS, "w") as fh:
        json.dump(recorded, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "treeohm", "cli.py")):
        print(f"bench: no treeohm package under {SRC}", file=sys.stderr)
        return 2
    treeohm = _import_treeohm()
    if args.record_digests:
        record_digests(treeohm)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    golden, done = run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace), treeohm)
    for inv in [golden] + done:
        for err in inv.errors:
            print(f"bench: {args.workload}: {err}", file=sys.stderr)
    needed = {True, False} if args.trace else {False}
    if not needed <= {inv.trace for inv in done if inv.result is not None}:
        print("bench: too few timed invocations exited 0", file=sys.stderr)
        return 1
    summary = summarize(golden, done, bool(args.trace))
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(done)} timed invocations, {summary['attempted']} attempted, "
          f"{summary['failed']} failed")
    print("# env " + json.dumps(stamp(args.workload), sort_keys=True))
    print("# unscaled wall-clock medians " + json.dumps(summary["wall"]))
    for name, (value, unit) in summary["metrics"].items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in summary["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
