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
from functools import partial

import numpy as np

from .flows import (
    concentration_diagnostics,
    flow_bound_report,
    solve_flow,
    tail_bound_constant,
)
from .model import (
    GuardError,
    RngStream,
    TreeModel,
    ValidationError,
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
    text = cfg["n"]
    try:
        if ".." in text:
            lo, hi = text.split("..")
            ns = list(range(int(lo), int(hi) + 1))
        else:
            ns = [int(s) for s in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"n: malformed literal {text!r}") from exc
    if not ns or any(v < 1 for v in ns):
        raise ValidationError(f"n: depths must be >= 1, got {text!r}")
    return sorted(set(ns))


def resolve_reps(cfg: dict, ns: list[int]) -> dict[int, int]:
    text = cfg["reps"]
    if ":" not in text:
        try:
            m = int(text)
        except ValueError as exc:
            raise ValidationError(f"reps: malformed literal {text!r}") from exc
        return {n: m for n in ns}
    default = None
    per_n: dict[int, int] = {}
    for item in text.split(","):
        key, sep, val = item.partition(":")
        if not sep:
            raise ValidationError(f"reps: bad entry {item!r} (want n:count)")
        try:
            count = int(val)
            if key == "default":
                default = count
            else:
                per_n[int(key)] = count
        except ValueError as exc:
            raise ValidationError(f"reps: bad entry {item!r}") from exc
    out = {}
    for n in ns:
        if n in per_n:
            out[n] = per_n[n]
        elif default is not None:
            out[n] = default
        else:
            raise ValidationError(f"reps: no count for n={n} and no default")
    return out


def resolve_t_grid(cfg: dict) -> np.ndarray | None:
    text = cfg["t_grid"]
    if text is None:
        return None
    try:
        if ":" in text:
            start, stop, step = (float(s) for s in text.split(":"))
            steps = (stop - start) / step if step != 0.0 else math.nan
            if not 0.0 <= steps < math.inf:
                raise ValidationError(f"t_grid: step {step!r} cannot lead {start!r} to {stop!r}")
            grid = np.linspace(start, stop, int(round(steps)) + 1)
        else:
            grid = np.array([float(s) for s in text.split(",")])
    except ValueError as exc:
        raise ValidationError(f"t_grid: malformed literal {text!r}") from exc
    if not np.all(np.isfinite(grid)):
        raise ValidationError(f"t_grid: entries must be finite, got {text!r}")
    return grid


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if type(value) is float:
        return format(value, ".17g")
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _provenance(cfg: dict) -> dict:
    # out is a placement detail, not part of the experiment identity
    return {name: value for name, value in cfg.items() if name != "out"}


def _provenance_json(cfg: dict) -> str:
    return json.dumps(_provenance(cfg), sort_keys=True, separators=(",", ":"))


def write_table(outdir: str, name: str, columns: list[str], rows: list[tuple],
                cfg: dict) -> str:
    """Write one table artifact in the configured format; returns the path."""
    if cfg["format"] == "json":
        path = os.path.join(outdir, f"{name}.json")
        payload = {
            "provenance": _provenance(cfg),
            "columns": columns,
            "rows": [[_fmt(v) for v in row] for row in rows],
        }
        _write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return path
    path = os.path.join(outdir, f"{name}.csv")
    lines = [f"# provenance: {_provenance_json(cfg)}", ",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")
    return path


def write_report(outdir: str, name: str, payload: dict, cfg: dict) -> str:
    path = os.path.join(outdir, f"{name}.json")
    body = {"provenance": _provenance(cfg)}
    body.update(payload)
    _write_text(path, json.dumps(body, sort_keys=True, indent=2) + "\n")
    return path


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
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


def _envelope(cfg: dict, dist) -> tuple[float, float]:
    """(a, b) from the options, else the law; a bad pair names b if b is set and a > 0."""
    a = dist.a if cfg["a"] is None else cfg["a"]
    b = dist.b if cfg["b"] is None else cfg["b"]
    if not 0.0 < a <= b:
        name = "a" if cfg["b"] is None or not a > 0.0 else "b"
        raise ValidationError(f"{name}: need 0 < a <= b, got a={a}, b={b}")
    return a, b


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
    rows = list(zip(range(m), [n] * m, batch.resistance.tolist(), batch.conductance.tolist()))
    outdir = _outdir(cfg)
    return [write_table(outdir, "samples", ["replicate", "n", "R", "C"], rows, cfg)]


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
    columns = ["n", "m", "mean_R", "se_R", "var_R", "se_var_R",
               "mean_C", "var_C", "se_var_C"]
    return [write_table(outdir, "sweep", columns, rows, cfg)]


def read_sweep_csv(path: str) -> dict[str, np.ndarray]:
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    except OSError as exc:
        raise ValidationError(f"sweep_csv: cannot read {path}: {exc}") from exc
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
    return {name: data[:, i] for i, name in enumerate(header)}


def cmd_fit(cfg: dict, workers: int) -> list[str]:
    if cfg["sweep_csv"] is None:
        raise ValidationError("sweep_csv: fit needs --sweep-csv pointing at a sweep table")
    table = read_sweep_csv(cfg["sweep_csv"])
    moments = parse_distribution(cfg["dist"]).moments()
    mu = moments.mean if cfg["mu"] is None else cfg["mu"]
    sigma2 = moments.variance if cfg["sigma2"] is None else cfg["sigma2"]
    if not mu > 0.0:
        raise ValidationError(f"mu: must be > 0, got {mu}")
    if not sigma2 >= 0.0:
        raise ValidationError(f"sigma2: must be >= 0, got {sigma2}")
    try:
        report = fit_expectation(table["n"], table["mean_R"], table["se_R"], mu, sigma2)
    except ValidationError as exc:
        raise ValidationError(f"sweep_csv: {cfg['sweep_csv']}: {exc}") from exc
    if "var_C" in table and np.all(table["var_C"] > 0.0):
        report.var_slope, report.var_intercept = fit_variance_slope(
            table["n"], table["var_C"]
        )
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
        "var_slope": report.var_slope,
        "var_intercept": report.var_intercept,
        "residual_table": [
            {
                "n": float(report.ns[i]),
                "mean_R": report.means[i],
                "se_R": report.ses[i],
                "residual": report.residuals[i],
                "constrained_residual": report.constrained_residuals[i],
            }
            for i in range(len(report.ns))
        ],
    }
    return [write_report(_outdir(cfg), "fit", payload, cfg)]


def _flow_record(a: float, b: float, i: int, tree) -> tuple[dict, list]:
    """One instance's flow_report entry; instance 0 also gives the
    per-edge flow_dump rows."""
    flow = solve_flow(tree)
    bounds = flow_bound_report(flow, a, b)
    conc = concentration_diagnostics(flow, a, b)
    report = {
        "instance": i,
        "resistance": flow.resistance,
        "energy": flow.energy,
        "min_margin": bounds.min_margin,
        "s4_scaled": conc.s4_scaled,
        "s4_plain": conc.s4_plain,
        "b4": conc.b4,
    }
    if i:
        return report, []
    upper = np.where(
        np.arange(tree.n_nodes) == 0, flow.voltage_top, flow.voltage[tree.parent],
    )
    dump = [
        (j, int(tree.parent[j]), int(tree.level[j]), tree.weight[j],
         tree.resistance[j], flow.theta[j], upper[j], flow.voltage[j],
         bounds.bound[j], bounds.margin[j])
        for j in range(tree.n_nodes)
    ]
    return report, dump


def cmd_flows(cfg: dict, workers: int) -> list[str]:
    model = resolve_model(cfg)
    n = _single_n(cfg)
    count = _count(cfg, "instances")
    a, b = _envelope(cfg, model.weights)
    records = map_trees(partial(_flow_record, a, b), model, [n], count, cfg["seed"], workers)
    outdir = _outdir(cfg)
    columns = ["edge_id", "parent_id", "level", "X", "r", "theta",
               "voltage_top", "voltage_bottom", "flow_bound", "margin"]
    paths = [write_table(outdir, "flow_dump", columns, records[0][1], cfg)]
    report_rows = [report for report, _ in records]
    paths.append(write_report(outdir, "flow_report", {"instances": report_rows}, cfg))
    return paths


def cmd_oracle_check(cfg: dict, workers: int) -> list[str]:
    model = resolve_model(cfg)
    ns = resolve_ns(cfg)
    rows = oracle_gap_table(model, ns, _count(cfg, "instances"), cfg["seed"], workers)
    columns = ["instance", "n", "nodes", "gap_R", "gap_theta", "gap_voltage"]
    return [write_table(_outdir(cfg), "oracle_gaps", columns, rows, cfg)]


def cmd_rde(cfg: dict, workers: int) -> list[str]:
    dist = parse_distribution(cfg["dist"])
    m = _count(cfg, "pool_size")
    max_level = _count(cfg, "levels")
    pools = rde_levels(dist, m, max_level, RngStream(cfg["seed"], 0))
    rows = [
        (pool.level, len(pool.values), float(np.mean(pool.values)),
         float(np.var(pool.values, ddof=1)) if len(pool.values) > 1 else 0.0,
         float(np.min(pool.values)), float(np.max(pool.values)))
        for pool in pools
    ]
    columns = ["level", "m", "mean", "var", "min", "max"]
    return [write_table(_outdir(cfg), "rde", columns, rows, cfg)]


def cmd_gw(cfg: dict, workers: int) -> list[str]:
    model = resolve_model(cfg)
    if model.shape != "gw":
        raise ValidationError("model: gw subcommand needs a gw: model")
    n = _single_n(cfg)
    trees = _count(cfg, "trees")
    report = gw_experiment(model, n, trees, cfg["seed"], workers)
    rows = [
        (j, int(report.b1[j]), report.resistance[j], report.shorted[j],
         report.w_hat[j], report.n_times_c[j])
        for j in range(trees)
    ]
    outdir = _outdir(cfg)
    columns = ["tree", "B1", "R", "shorted", "W_hat", "nC"]
    paths = [write_table(outdir, "gw_records", columns, rows, cfg)]
    summary = {
        "cond_mean_nC": {str(k): v for k, v in sorted(report.cond_mean_nc.items())},
        "corr_scaled_R_vs_inv_W": report.corr_scaled_r_vs_inv_w,
        "median_scaled_product": report.median_scaled_product,
    }
    paths.append(write_report(outdir, "gw_summary", summary, cfg))
    return paths


def cmd_constants(cfg: dict, workers: int) -> list[str]:
    dist = parse_distribution(cfg["dist"])
    a, b = _envelope(cfg, dist)
    var_recip = dist.moments().recip_variance
    ns = resolve_ns(cfg)
    chain = variance_bound_constants(a, b, var_recip, ns[0])
    payload = {
        "a": a,
        "b": b,
        "var_recip": var_recip,
        "K0": chain.k0,
        "K1": chain.k1,
        "K": chain.k,
        "tail_constant": tail_bound_constant(a, b),
        "variance_bounds": [
            {"n": n, "bound": variance_bound_constants(a, b, var_recip, n).bound}
            for n in ns
        ],
    }
    return [write_report(_outdir(cfg), "constants", payload, cfg)]


def cmd_tails(cfg: dict, workers: int) -> list[str]:
    model = resolve_model(cfg)
    n = _single_n(cfg)
    m = resolve_reps(cfg, [n])[n]
    t_grid = resolve_t_grid(cfg)
    a, b = _envelope(cfg, model.weights)
    batch = run_replicates(model, n, m, cfg["seed"], workers)
    constant = tail_bound_constant(a, b)
    report = tail_profile(batch, t_grid, constant)
    rows = [
        (report.t[i], int(report.count[i]), report.freq[i],
         report.wilson_lo[i], report.wilson_hi[i], report.bound[i])
        for i in range(len(report.t))
    ]
    columns = ["t", "count", "freq", "wilson_lo", "wilson_hi", "bound"]
    return [write_table(_outdir(cfg), "tails", columns, rows, cfg)]


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
    "a": (real, "lower weight bound override"),
    "b": (real, "upper weight bound override"),
    "mu": (real, "weight mean override for fits"),
    "sigma2": (real, "weight variance override for fits"),
    "sweep_csv": (str, "sweep table to fit"),
    "format": (table_format, "table format: csv or json"),
    "out": (str, f"output directory (default ${OUTDIR_ENV} or .)"),
}

# subcommand -> (handler, help, {option: default}); every subcommand also
# takes out.  A None default is derived from the model or the weight law,
# except sweep_csv, which fit requires.
_COMMANDS = {
    "sample": (cmd_sample, "replicate table of R and C at one depth", {
        "model": "reg:2", "dist": "unif:0.5,1.5", "lam": None, "n": "10",
        "reps": "100", "seed": 1, "format": "csv"}),
    "sweep": (cmd_sweep, "per-depth moment table over a depth grid", {
        "model": "reg:2", "dist": "unif:0.5,1.5", "lam": None, "n": "10",
        "reps": "100", "seed": 1, "format": "csv"}),
    "fit": (cmd_fit, "asymptotic fit report from a sweep table", {
        "sweep_csv": None, "dist": "unif:0.5,1.5", "mu": None, "sigma2": None}),
    "flows": (cmd_flows, "optimal-flow dump plus flow-bound diagnostics", {
        "model": "reg:2", "dist": "unif:0.5,1.5", "lam": None, "n": "10",
        "instances": 1, "seed": 1, "a": None, "b": None, "format": "csv"}),
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
        "dist": "unif:0.5,1.5", "a": None, "b": None, "n": "1..20"}),
    "tails": (cmd_tails, "empirical deviation tail with the sub-Gaussian reference", {
        "model": "reg:2", "dist": "unif:0.5,1.5", "lam": None, "n": "10",
        "reps": "100", "seed": 1, "t_grid": None, "a": None, "b": None,
        "format": "csv"}),
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
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
