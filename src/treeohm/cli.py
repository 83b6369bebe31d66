"""Batch experiment runner.

Each subcommand declares, in its `_COMMANDS` entry, the options it reads and
their defaults; `_FLAGS` holds each option's converter and help.  Options
resolve in three layers: the declared defaults, then a JSON `--config` file,
then the flags given.  A flag or config key the subcommand does not declare,
or a flag or config value that its option's converter refuses, is a
validation error.  The resolved options are what the handler reads, and,
minus `out`, what every artifact stamps as its provenance, so a provenance
line is a valid `--config` for the same subcommand.  Artifact bytes depend
only on those options: re-running a command, with any worker count,
reproduces the files exactly.
Exit codes: 0 success, 2 validation problems, 3 guard violations.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache, partial
from itertools import chain
from typing import Iterable, Iterator

import numpy as np

from .flows import (
    flow_bound_report,
    flow_ceiling,
    require_binary_doubling,
    solve_flow,
    tail_bound_constant,
)
from .model import (
    MEMORY_GUARD,
    GuardError,
    RngStream,
    TreeModel,
    ValidationError,
    WeightDistribution,
    parse_distribution,
    parse_offspring,
)
from .oracle import oracle_gap_table
from .stats import (
    fit_expectation,
    fit_variance_slope,
    gw_experiment,
    map_trees,
    rde_levels,
    run_replicates,
    sweep,
    tail_profile,
    variance_bound_constants,
)

OUTDIR_ENV = "TREEOHM_OUT"


# ---------------------------------------------------------------------------
# option literals
# ---------------------------------------------------------------------------


def resolve_model(cfg: dict) -> TreeModel:
    head, sep, body = cfg["model"].partition(":")
    if not sep:
        raise ValidationError(f"model: missing ':' in literal {head!r}")
    dist = parse_distribution(cfg["dist"])
    if head == "reg":
        try:
            beta = int(body)
        except ValueError as exc:
            raise ValidationError(f"model: bad arity {body!r}") from exc
        return TreeModel.regular(beta, dist, lam=cfg["lam"])
    if head == "gw":
        return TreeModel.galton_watson(parse_offspring(body), dist, lam=cfg["lam"])
    raise ValidationError(f"model: unknown shape {head!r} (want reg: or gw:)")


def resolve_ns(cfg: dict) -> list[int]:
    """The sorted distinct depths of the n literal; a range is counted
    before its depths are built."""
    text = cfg["n"]
    try:
        if ".." in text:
            lo, hi = map(int, text.split(".."))
            ns, count = range(lo, hi + 1), max(0, hi - lo + 1)
        else:
            ns = sorted({int(s) for s in text.split(",")})
            count = len(ns)
    except ValueError as exc:
        raise ValidationError(f"n: malformed literal {text!r}") from exc
    if not count and ns.start >= 1:  # only a range can be empty
        raise ValidationError(f"n: depth range {text!r} is empty ({ns.start} > {ns.stop - 1})")
    if not count or ns[0] < 1:
        raise ValidationError(f"n: depths must be >= 1, got {text!r}")
    if count > MEMORY_GUARD:
        raise GuardError(f"n: {count} depths exceed the {MEMORY_GUARD}-depth guard")
    return list(ns)


def resolve_reps(cfg: dict, ns: list[int]) -> dict[int, int]:
    """Each depth's replicate count from a `default:V,n:V,...` map, where a
    bare count V reads as `default:V`.  A key given twice, or a depth that
    is not in ns, is refused."""
    text = cfg["reps"]
    counts: dict = {}
    for item in (text if ":" in text else f"default:{text}").split(","):
        key, _, val = item.partition(":")
        try:
            key = key if key == "default" else int(key)
            count = int(val)  # int("") refuses an entry without ':'
        except ValueError as exc:
            raise ValidationError(f"reps: bad entry {item!r} (want n:count)") from exc
        if key in counts:
            raise ValidationError(f"reps: {key} is given more than one count in {text!r}")
        if key != "default" and key not in ns:
            raise ValidationError(f"reps: n={key} is not a depth of the grid")
        counts[key] = count
    default = counts.get("default")
    for n in ns:
        if n not in counts and default is None:
            raise ValidationError(f"reps: no count for n={n} and no default")
    return {n: counts.get(n, default) for n in ns}


def resolve_t_grid(cfg: dict) -> np.ndarray | None:
    text = cfg["t_grid"]
    if text is None:
        return None
    try:
        if ":" in text:
            start, stop, step = (float(s) for s in text.split(":"))
        else:
            grid = np.array([float(s) for s in text.split(",")])
    except ValueError as exc:
        raise ValidationError(f"t_grid: malformed literal {text!r}") from exc
    if ":" in text:
        steps = (stop - start) / step if step != 0.0 else math.nan
        if not 0.0 <= steps < math.inf:
            raise ValidationError(f"t_grid: step {step!r} cannot lead {start!r} to {stop!r}")
        points = int(round(steps)) + 1
        if points > MEMORY_GUARD:
            raise GuardError(f"t_grid: {points} points exceed the {MEMORY_GUARD}-point guard")
        grid = np.linspace(start, stop, points)
    if not np.all(np.isfinite(grid)):
        raise ValidationError(f"t_grid: entries must be finite, got {text!r}")
    if np.any(grid < 0.0):
        raise ValidationError(f"t_grid: deviation sizes must be >= 0, got {text!r}")
    return grid


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------


_BLOCK = 2048  # rows formatted at a time; a larger block raises the peak RSS of `sample`


def _block_values(block: np.ndarray, cache: list) -> tuple[str, list]:
    """One column's values over a block of rows, with the %-format they go
    through: %d for integers (a bool prints 1 or 0), %.17g (which
    round-trips a float64) for floats.  A float block that is mostly
    repeats goes under %s: each distinct value, keyed by its bits so that
    0.0 and -0.0 stay apart, is looked up in `cache`, the column's
    [sorted bits, text] of its last such block, and only the values it
    misses are formatted; the block's own then replace them."""
    if block.dtype.kind != "f":
        return "%d", block.tolist()
    bits = block.view(np.int64)
    keys = np.sort(bits)
    if 2 * (1 + np.count_nonzero(keys[1:] != keys[:-1])) > len(block):
        return "%.17g", block.tolist()
    keys, inverse = np.unique(bits, return_inverse=True)
    known, known_text = cache
    at = np.searchsorted(known, keys)
    hit = at < len(known)
    hit[hit] = known[at[hit]] == keys[hit]
    text = np.empty(len(keys), dtype=object)
    text[hit] = known_text[at[hit]]
    text[~hit] = ["%.17g" % v for v in keys[~hit].view(np.float64).tolist()]
    cache[:] = keys, text
    return "%s", text[inverse].tolist()


def _blocks(columns: list[np.ndarray]) -> Iterator[tuple[list[str], list[list]]]:
    """The table's rows a block at a time: each column's %-format and its
    values over the block."""
    caches = [[np.empty(0, dtype=np.int64), np.empty(0, dtype=object)] for _ in columns]
    for start in range(0, len(columns[0]) if columns else 0, _BLOCK):
        specs, values = [], []
        for column, cache in zip(columns, caches):
            spec, vals = _block_values(column[start:start + _BLOCK], cache)
            specs.append(spec)
            values.append(vals)
        yield specs, values


def _csv_blocks(columns: list[np.ndarray]) -> Iterator[str]:
    """Each block's CSV text, formatted by one call: the row format
    repeated once per row, over the values interleaved row by row."""
    for specs, values in _blocks(columns):
        rows, width = len(values[0]), len(values)
        flat = [None] * (rows * width)
        for i, vals in enumerate(values):
            flat[i::width] = vals
        yield ((",".join(specs) + "\n") * rows) % tuple(flat)


_STAMP = "# provenance: "  # a CSV table's first line: this, then the provenance JSON


def _provenance(cfg: dict) -> dict:
    # out is a placement detail, not part of the experiment identity
    return {name: value for name, value in cfg.items() if name != "out"}


def _provenance_json(cfg: dict) -> str:
    return json.dumps(_provenance(cfg), sort_keys=True, separators=(",", ":"))


def write_table(outdir: str, name: str, names: list[str], columns: Iterable,
                cfg: dict) -> str:
    """Write one table artifact in the configured format; returns the path.
    `columns` holds one array (or sequence) per name, all of one length.  A
    column's format follows its dtype: %d for integers and bools, %.17g for
    floats.  The rows are formatted a block at a time, and a float column
    that mostly repeats formats a value only when its last such block did
    not have it; a CSV table is written to its file a block at a time, so
    the writer holds O(block) text, not O(rows)."""
    columns = [np.asarray(column) for column in columns]
    if cfg["format"] == "json":
        rows = [
            [spec % v for spec, v in zip(specs, row)]
            for specs, values in _blocks(columns) for row in zip(*values)
        ]
        return write_report(outdir, name, {"columns": names, "rows": rows}, cfg)
    path = os.path.join(outdir, f"{name}.csv")
    header = f"{_STAMP}{_provenance_json(cfg)}\n{','.join(names)}\n"
    _write_lines(path, chain([header], _csv_blocks(columns)))
    return path


def write_report(outdir: str, name: str, payload: dict, cfg: dict) -> str:
    path = os.path.join(outdir, f"{name}.json")
    body = {"provenance": _provenance(cfg)}
    body.update(payload)
    _write_lines(path, [json.dumps(body, sort_keys=True, indent=2) + "\n"])
    return path


def _write_lines(path: str, lines: Iterable[str]) -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise ValidationError(f"out: cannot write {path}: {exc}") from exc


def _outdir(cfg: dict) -> str:
    outdir = cfg["out"] or os.environ.get(OUTDIR_ENV, ".")
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"out: cannot create directory {outdir}: {exc}") from exc
    return outdir


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _count(cfg: dict, name: str) -> int:
    """A count option, which must be at least 1."""
    if cfg[name] < 1:
        raise ValidationError(f"{name}: must be >= 1, got {cfg[name]}")
    return cfg[name]


def _single_n(cfg: dict) -> int:
    ns = resolve_ns(cfg)
    if len(ns) != 1:
        raise ValidationError(f"n: this subcommand takes a single depth, got {ns}")
    return ns[0]


def cmd_sample(cfg: dict, workers: int) -> list[str]:
    model = resolve_model(cfg)
    n = _single_n(cfg)
    m = resolve_reps(cfg, [n])[n]
    batch = run_replicates(model, n, m, cfg["seed"], workers)
    columns = [np.arange(m), np.full(m, n), batch.resistance, batch.conductance]
    outdir = _outdir(cfg)
    return [write_table(outdir, "samples", ["replicate", "n", "R", "C"], columns, cfg)]


def cmd_sweep(cfg: dict, workers: int) -> list[str]:
    model = resolve_model(cfg)
    ns = resolve_ns(cfg)
    reps = resolve_reps(cfg, ns)
    reports = sweep(model, ns, reps, cfg["seed"], workers)
    rows = [
        (rep.n, rep.m, rep.r.mean, rep.r.se_mean, rep.r.variance, rep.r.se_variance,
         rep.c.mean, rep.c.variance, rep.c.se_variance)
        for rep in reports
    ]
    outdir = _outdir(cfg)
    names = ["n", "m", "mean_R", "se_R", "var_R", "se_var_R", "mean_C", "var_C", "se_var_C"]
    return [write_table(outdir, "sweep", names, zip(*rows), cfg)]


def read_sweep_csv(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """A sweep table's columns, and the provenance stamped on its first line
    ({} for a table without one)."""
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise ValidationError(f"sweep_csv: cannot read {path}: {exc}") from exc
    stamp = {}
    if lines and lines[0].startswith(_STAMP):
        try:
            stamp = dict(json.loads(lines[0][len(_STAMP):]))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"sweep_csv: {path} has a malformed provenance "
                                  f"line: {exc}") from exc
    lines = [ln for ln in lines if not ln.startswith("#")]
    if not lines:
        raise ValidationError(f"sweep_csv: {path} is empty")
    header = lines[0].split(",")
    try:
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    except ValueError as exc:
        raise ValidationError(f"sweep_csv: {path} has a malformed row: {exc}") from exc
    if data.size == 0:
        raise ValidationError(f"sweep_csv: {path} has no data rows")
    if data.shape[1] != len(header):
        raise ValidationError(f"sweep_csv: {path} rows do not match the header {header}")
    missing = [name for name in ("n", "mean_R", "se_R") if name not in header]
    if missing:
        raise ValidationError(f"sweep_csv: {path} lacks the columns {missing}")
    return {name: data[:, i] for i, name in enumerate(header)}, stamp


def cmd_fit(cfg: dict, workers: int) -> list[str]:
    if cfg["sweep_csv"] is None:
        raise ValidationError("sweep_csv: fit needs --sweep-csv pointing at a sweep table")
    table, stamp = read_sweep_csv(cfg["sweep_csv"])
    dist = parse_distribution(cfg["dist"])
    if "dist" in stamp and parse_distribution(str(stamp["dist"])) != dist:
        raise ValidationError(f"dist: {cfg['dist']} is not the law {stamp['dist']} "
                              f"that {cfg['sweep_csv']} was sampled under")
    moments = dist.moments()
    mu, sigma2 = moments.mean, moments.variance
    try:
        report = fit_expectation(table["n"], table["mean_R"], table["se_R"], mu, sigma2)
    except ValidationError as exc:
        raise ValidationError(f"sweep_csv: {cfg['sweep_csv']}: {exc}") from exc
    var_slope = var_intercept = None
    if "var_C" in table and np.all(table["var_C"] > 0.0):
        var_slope, var_intercept = fit_variance_slope(table["n"], table["var_C"])
    payload = {
        "alpha": report.alpha,
        "beta": report.beta,
        "gamma": report.gamma,
        "se_alpha": report.se_alpha,
        "se_beta": report.se_beta,
        "se_gamma": report.se_gamma,
        "mu": mu,
        "sigma2": sigma2,
        "constrained_range": report.constrained_range,
        "var_slope": var_slope,
        "var_intercept": var_intercept,
        "residual_table": [
            {
                "n": float(table["n"][i]),
                "mean_R": table["mean_R"][i],
                "se_R": table["se_R"][i],
                "residual": report.residuals[i],
                "constrained_residual": report.constrained_residuals[i],
            }
            for i in range(len(table["n"]))
        ],
    }
    return [write_report(_outdir(cfg), "fit", payload, cfg)]


def _flow_record(dist: WeightDistribution, i: int, tree) -> tuple[dict, tuple]:
    """One instance's flow_report entry; instance 0 also gives the
    per-edge flow_dump columns."""
    flow = solve_flow(tree)
    bounds = flow_bound_report(flow, dist)
    report = {
        "instance": i,
        "resistance": flow.resistance,
        "energy": flow.energy,
        "min_margin": bounds.min_margin,
        "s4_scaled": bounds.s4_scaled,
        "s4_plain": bounds.s4_plain,
        "b4": bounds.b4,
    }
    if i:
        return report, ()
    edge = np.arange(tree.n_nodes)
    upper = np.where(edge == 0, flow.resistance, flow.voltage[tree.parent])
    return report, (edge, tree.parent, tree.level, tree.weight, tree.resistance, flow.theta,
                    upper, flow.voltage, bounds.bound, bounds.margin)


def cmd_flows(cfg: dict, workers: int) -> list[str]:
    model = resolve_model(cfg)
    require_binary_doubling(model)
    n = _single_n(cfg)
    count = _count(cfg, "instances")
    dist = model.weights
    flow_ceiling(dist, n)  # refused here, before any tree is drawn
    records = map_trees(partial(_flow_record, dist), model, [n], count, cfg["seed"], workers)
    outdir = _outdir(cfg)
    names = ["edge_id", "parent_id", "level", "X", "r", "theta",
             "voltage_top", "voltage_bottom", "flow_bound", "margin"]
    paths = [write_table(outdir, "flow_dump", names, records[0][1], cfg)]
    report_rows = [report for report, _ in records]
    paths.append(write_report(outdir, "flow_report", {"instances": report_rows}, cfg))
    return paths


def cmd_oracle_check(cfg: dict, workers: int) -> list[str]:
    model = resolve_model(cfg)
    ns = resolve_ns(cfg)
    rows = oracle_gap_table(model, ns, _count(cfg, "instances"), cfg["seed"], workers)
    names = ["instance", "n", "nodes", "gap_R", "gap_theta", "gap_voltage"]
    return [write_table(_outdir(cfg), "oracle_gaps", names, zip(*rows), cfg)]


def cmd_rde(cfg: dict, workers: int) -> list[str]:
    dist = parse_distribution(cfg["dist"])
    m = _count(cfg, "pool_size")
    max_level = _count(cfg, "levels")
    pools = rde_levels(dist, m, max_level, RngStream(cfg["seed"], 0))
    rows = [
        (level, len(pool), float(np.mean(pool)),
         float(np.var(pool, ddof=1)) if len(pool) > 1 else 0.0,
         float(np.min(pool)), float(np.max(pool)))
        for level, pool in enumerate(pools, 1)
    ]
    names = ["level", "m", "mean", "var", "min", "max"]
    return [write_table(_outdir(cfg), "rde", names, zip(*rows), cfg)]


def cmd_gw(cfg: dict, workers: int) -> list[str]:
    model = resolve_model(cfg)
    if model.shape != "gw":
        raise ValidationError("model: gw subcommand needs a gw: model")
    n = _single_n(cfg)
    trees = _count(cfg, "trees")
    report = gw_experiment(model, n, trees, cfg["seed"], workers)
    columns = [np.arange(trees), report.b1, report.resistance, report.shorted,
               report.w_hat, report.n_times_c]
    outdir = _outdir(cfg)
    names = ["tree", "B1", "R", "shorted", "W_hat", "nC"]
    paths = [write_table(outdir, "gw_records", names, columns, cfg)]
    summary = {
        "cond_mean_nC": {str(k): v for k, v in sorted(report.cond_mean_nc.items())},
        "corr_scaled_R_vs_inv_W": report.corr_scaled_r_vs_inv_w,
        "median_scaled_product": report.median_scaled_product,
    }
    paths.append(write_report(outdir, "gw_summary", summary, cfg))
    return paths


def cmd_constants(cfg: dict, workers: int) -> list[str]:
    dist = parse_distribution(cfg["dist"])
    ns = resolve_ns(cfg)
    chain = variance_bound_constants(dist, ns[0])
    payload = {
        "a": dist.a,
        "b": dist.b,
        "var_recip": dist.moments().recip_variance,
        "K0": chain.k0,
        "K1": chain.k1,
        "K": chain.k,
        "tail_constant": tail_bound_constant(dist),
        "variance_bounds": [
            {"n": n, "bound": variance_bound_constants(dist, n).bound}
            for n in ns
        ],
    }
    return [write_report(_outdir(cfg), "constants", payload, cfg)]


def cmd_tails(cfg: dict, workers: int) -> list[str]:
    model = resolve_model(cfg)
    n = _single_n(cfg)
    m = resolve_reps(cfg, [n])[n]
    if m < 100:  # tail_profile's own bound, checked before any replicate is drawn
        raise ValidationError(f"reps: tail estimation needs m >= 100, got {m}")
    t_grid = resolve_t_grid(cfg)
    constant = tail_bound_constant(model.weights)
    batch = run_replicates(model, n, m, cfg["seed"], workers)
    report = tail_profile(batch, t_grid, constant)
    columns = [report.t, report.count, report.freq, report.wilson_lo, report.wilson_hi,
               report.bound]
    names = ["t", "count", "freq", "wilson_lo", "wilson_hi", "bound"]
    return [write_table(_outdir(cfg), "tails", names, columns, cfg)]


def real(text: str) -> float:
    """A float option's value: a finite number, so inf and nan are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


def seed(text: str) -> int:
    """A seed option's value: an integer, refused below 0."""
    value = int(text)
    if value < 0:
        raise ValueError(f"{text!r} is negative")
    return value


def table_format(text: str) -> str:
    if text not in ("csv", "json"):
        raise ValueError(f"{text!r} is not csv or json")
    return text


# option -> (converter of its flag or config value, help); the flag is
# --option with '_' written '-'
_FLAGS = {
    "model": (str, "tree literal: reg:BETA or gw:K1:P1,K2:P2,..."),
    "dist": (str, "weight literal: const:v | unif:a,b | twopoint:a,b[,p] | disc:v1:p1,..."),
    "lam": (real, "scaling base override"),
    "n": (str, "depth: single, list 4,6,8, or range 2..18"),
    "reps": (str, "replicates: count or default:V,n:V,... map"),
    "seed": (seed, "master seed, at least 0"),
    "t_grid": (str, "tail grid: start:stop:step or comma list"),
    "pool_size": (int, "recursion pool size"),
    "levels": (int, "recursion depth"),
    "trees": (int, "branching sample count"),
    "instances": (int, "instance count"),
    "sweep_csv": (str, "sweep table to fit"),
    "format": (table_format, "table format: csv or json"),
    "out": (str, f"output directory (default ${OUTDIR_ENV} or .)"),
}

# subcommand -> (handler, help, {option: default}); every subcommand also
# takes out.  A None default is derived when unset (lam from the model,
# t_grid as the default grid), except sweep_csv, which fit requires.
_COMMANDS = {
    "sample": (cmd_sample, "replicate table of R and C at one depth", {
        "model": "reg:2", "dist": "unif:0.5,1.5", "lam": None, "n": "10",
        "reps": "100", "seed": 1, "format": "csv"}),
    "sweep": (cmd_sweep, "per-depth moment table over a depth grid", {
        "model": "reg:2", "dist": "unif:0.5,1.5", "lam": None, "n": "10",
        "reps": "100", "seed": 1, "format": "csv"}),
    "fit": (cmd_fit, "asymptotic fit report from a sweep table", {
        "sweep_csv": None, "dist": "unif:0.5,1.5"}),
    "flows": (cmd_flows, "optimal-flow dump plus flow-bound diagnostics", {
        "model": "reg:2", "dist": "unif:0.5,1.5", "lam": None, "n": "10",
        "instances": 1, "seed": 1, "format": "csv"}),
    "oracle-check": (cmd_oracle_check, "gap table between evaluators and the dense solver", {
        "model": "reg:2", "dist": "unif:0.5,1.5", "lam": None, "n": "10",
        "instances": 100, "seed": 1, "format": "csv"}),
    "rde": (cmd_rde, "per-level pool moments of the conductance recursion", {
        "dist": "unif:0.5,1.5", "pool_size": 10000, "levels": 8, "seed": 1,
        "format": "csv"}),
    "gw": (cmd_gw, "branching-tree records and root-degree conditioning", {
        "model": "gw:1:0.5,2:0.5", "dist": "unif:0.5,1.5", "lam": None, "n": "10",
        "trees": 1000, "seed": 1, "format": "csv"}),
    "constants": (cmd_constants, "explicit variance/tail bound constants", {
        "dist": "unif:0.5,1.5", "n": "1..20"}),
    "tails": (cmd_tails, "empirical deviation tail with the sub-Gaussian reference", {
        "model": "reg:2", "dist": "unif:0.5,1.5", "lam": None, "n": "10",
        "reps": "100", "seed": 1, "t_grid": None, "format": "csv"}),
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    leaves it as it was, so each main() call reuses it."""
    parser = argparse.ArgumentParser(
        prog="treeohm",
        description="Random electrical networks on trees: exact evaluation and "
                    "Monte Carlo experiments with reproducible artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="JSON config file; flags override it")
        for option in [*options, "out"]:
            sp.add_argument("--" + option.replace("_", "-"), dest=option,
                            default=argparse.SUPPRESS, help=_FLAGS[option][1])
        # every subcommand takes --workers, also fit, constants and rde,
        # which run in one process: the acceptance suite and the benchmark
        # append it to every call
        sp.add_argument("--workers", type=int, default=1,
                        help="worker processes; never changes output bytes")
    return parser


def _convert(option: str, value):
    """A flag or config value, converted by its option's converter."""
    convert = _FLAGS[option][0]
    try:
        return convert(str(value))
    except ValueError as exc:
        raise ValidationError(
            f"{option}: {value!r} is not a valid {convert.__name__}"
        ) from exc


def resolve_options(args: argparse.Namespace) -> dict:
    """The subcommand's options: declared defaults, then --config, then flags."""
    defaults = dict(_COMMANDS[args.command][2], out=None)
    cfg = dict(defaults)
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValidationError(f"config: cannot read {args.config}: {exc}") from exc
        except ValueError as exc:
            raise ValidationError(f"config: invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValidationError(f"config: {args.config} does not hold a JSON object")
        for option, value in data.items():
            if option not in defaults:
                raise ValidationError(f"{option}: not an option of {args.command}")
            if value is not None or defaults[option] is not None:
                cfg[option] = _convert(option, value)
    cfg.update((k, _convert(k, v)) for k, v in vars(args).items() if k in defaults)
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ValidationError(f"workers: must be >= 1, got {args.workers}")
        paths = _COMMANDS[args.command][0](resolve_options(args), args.workers)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 3
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
