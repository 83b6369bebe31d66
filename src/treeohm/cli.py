"""Batch experiment runner.

Every subcommand resolves an ExperimentConfig (JSON file, overridden by
flags), runs a deterministic experiment, and writes CSV/JSON artifacts whose
bytes depend only on the config: re-running a command, with any worker
count, reproduces the files exactly.  Exit codes: 0 success, 2 validation
problems, 3 guard violations.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .evaluate import sample_tree_explicit
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
    rde_levels,
    run_replicates,
    sweep,
    tail_profile,
    variance_bound_constants,
)

OUTDIR_ENV = "TREEOHM_OUT"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """Experiment description; every field has a CLI flag of the same name.

    Literal-valued fields (model, dist, n, reps, t_grid) keep their literal
    strings so a config survives an emit/parse round trip unchanged.  None
    means unset: a subcommand applies its default only then.
    """

    model: str = "reg:2"
    dist: str = "unif:0.5,1.5"
    lam: float | None = None
    n: str | None = None
    reps: str = "100"
    seed: int = 1
    t_grid: str | None = None
    pool_size: int | None = None
    levels: int | None = None
    trees: int | None = None
    instances: int | None = None
    a: float | None = None
    b: float | None = None
    mu: float | None = None
    sigma2: float | None = None
    sweep_csv: str | None = None
    out: str | None = None
    format: str = "csv"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(ExperimentConfig)}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"config: unknown fields {sorted(unknown)}")
        cfg = ExperimentConfig(**data)
        if cfg.format not in ("csv", "json"):
            raise ValidationError(f"config: format must be csv or json, got {cfg.format!r}")
        return cfg

    def provenance(self) -> dict:
        # out is a placement detail, not part of the experiment identity
        data = self.to_dict()
        data.pop("out")
        return data


def emit_config(cfg: ExperimentConfig) -> str:
    return json.dumps(cfg.to_dict(), sort_keys=True, indent=2) + "\n"


def parse_config(text: str) -> ExperimentConfig:
    try:
        return ExperimentConfig.from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config: invalid JSON: {exc}") from exc


def resolve_model(cfg: ExperimentConfig) -> TreeModel:
    head, sep, body = cfg.model.partition(":")
    if not sep:
        raise ValidationError(f"model: missing ':' in literal {cfg.model!r}")
    dist = parse_distribution(cfg.dist)
    lam = 0.0 if cfg.lam is None else float(cfg.lam)
    if head == "reg":
        try:
            beta = int(body)
        except ValueError as exc:
            raise ValidationError(f"model: bad arity {body!r}") from exc
        return TreeModel.regular(beta, dist, lam=lam)
    if head == "gw":
        return TreeModel.galton_watson(parse_offspring(body), dist, lam=lam)
    raise ValidationError(f"model: unknown shape {head!r} (want reg: or gw:)")


def resolve_ns(cfg: ExperimentConfig) -> list[int]:
    text = "10" if cfg.n is None else str(cfg.n)  # depth 10 when unset
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


def resolve_reps(cfg: ExperimentConfig, ns: list[int]) -> dict[int, int]:
    text = str(cfg.reps)
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


def resolve_t_grid(cfg: ExperimentConfig) -> np.ndarray | None:
    if cfg.t_grid is None:
        return None
    text = cfg.t_grid
    try:
        if ":" in text:
            start, stop, step = (float(s) for s in text.split(":"))
            steps = (stop - start) / step if step != 0.0 else math.nan
            if not 0.0 <= steps < math.inf:
                raise ValidationError(f"t_grid: step {step!r} cannot lead {start!r} to {stop!r}")
            count = int(round(steps)) + 1
            return np.linspace(start, stop, count)
        return np.array([float(s) for s in text.split(",")])
    except ValueError as exc:
        raise ValidationError(f"t_grid: malformed literal {text!r}") from exc


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


def _provenance_json(cfg: ExperimentConfig) -> str:
    return json.dumps(cfg.provenance(), sort_keys=True, separators=(",", ":"))


def write_table(outdir: str, name: str, columns: list[str], rows: list[tuple],
                cfg: ExperimentConfig) -> str:
    """Write one table artifact in the configured format; returns the path."""
    if cfg.format == "json":
        path = os.path.join(outdir, f"{name}.json")
        payload = {
            "provenance": cfg.provenance(),
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


def write_report(outdir: str, name: str, payload: dict, cfg: ExperimentConfig) -> str:
    path = os.path.join(outdir, f"{name}.json")
    body = {"provenance": cfg.provenance()}
    body.update(payload)
    _write_text(path, json.dumps(body, sort_keys=True, indent=2) + "\n")
    return path


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"out: cannot write {path}: {exc}") from exc


def _outdir(cfg: ExperimentConfig) -> str:
    outdir = cfg.out or os.environ.get(OUTDIR_ENV, ".")
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"out: cannot create directory {outdir}: {exc}") from exc
    return outdir


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _count(cfg: ExperimentConfig, name: str, default: int) -> int:
    """A count option: its default when unset, and at least 1 when set."""
    value = getattr(cfg, name)
    if value is not None and value < 1:
        raise ValidationError(f"{name}: must be >= 1, got {value}")
    return default if value is None else value


def _single_n(cfg: ExperimentConfig) -> int:
    ns = resolve_ns(cfg)
    if len(ns) != 1:
        raise ValidationError(f"n: this subcommand takes a single depth, got {ns}")
    return ns[0]


def cmd_sample(cfg: ExperimentConfig, workers: int) -> list[str]:
    model = resolve_model(cfg)
    n = _single_n(cfg)
    m = resolve_reps(cfg, [n])[n]
    batch = run_replicates(model, n, m, cfg.seed, workers)
    rows = list(zip(range(m), [n] * m, batch.resistance.tolist(), batch.conductance.tolist()))
    outdir = _outdir(cfg)
    return [write_table(outdir, "samples", ["replicate", "n", "R", "C"], rows, cfg)]


def cmd_sweep(cfg: ExperimentConfig, workers: int) -> list[str]:
    model = resolve_model(cfg)
    ns = resolve_ns(cfg)
    reps = resolve_reps(cfg, ns)
    reports = sweep(model, ns, reps, cfg.seed, workers)
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


def cmd_fit(cfg: ExperimentConfig, workers: int) -> list[str]:
    if cfg.sweep_csv is None:
        raise ValidationError("sweep_csv: fit needs --sweep-csv pointing at a sweep table")
    table = read_sweep_csv(cfg.sweep_csv)
    if cfg.mu is not None and cfg.sigma2 is not None:
        mu, sigma2 = cfg.mu, cfg.sigma2
    else:
        moments = parse_distribution(cfg.dist).moments()
        mu, sigma2 = moments.mean, moments.variance
    report = fit_expectation(table["n"], table["mean_R"], table["se_R"], mu, sigma2)
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


def cmd_flows(cfg: ExperimentConfig, workers: int) -> list[str]:
    model = resolve_model(cfg)
    n = _single_n(cfg)
    count = _count(cfg, "instances", 1)
    a = cfg.a if cfg.a is not None else model.weights.a
    b = cfg.b if cfg.b is not None else model.weights.b
    outdir = _outdir(cfg)
    dump_rows = []
    report_rows = []
    for i in range(count):
        tree = sample_tree_explicit(model, n, RngStream(cfg.seed, i))
        flow = solve_flow(tree)
        bounds = flow_bound_report(flow, a, b)
        conc = concentration_diagnostics(flow, a, b)
        report_rows.append(
            {
                "instance": i,
                "resistance": flow.resistance,
                "energy": flow.energy,
                "min_margin": bounds.min_margin,
                "s4_scaled": conc.s4_scaled,
                "s4_plain": conc.s4_plain,
                "b4": conc.b4,
            }
        )
        if i == 0:
            upper = np.where(
                np.arange(tree.n_nodes) == 0, flow.voltage_top,
                flow.voltage[tree.parent],
            )
            dump_rows = [
                (j, int(tree.parent[j]), int(tree.level[j]), tree.weight[j],
                 tree.resistance[j], flow.theta[j], upper[j], flow.voltage[j],
                 bounds.bound[j], bounds.margin[j])
                for j in range(tree.n_nodes)
            ]
    columns = ["edge_id", "parent_id", "level", "X", "r", "theta",
               "voltage_top", "voltage_bottom", "flow_bound", "margin"]
    paths = [write_table(outdir, "flow_dump", columns, dump_rows, cfg)]
    paths.append(write_report(outdir, "flow_report", {"instances": report_rows}, cfg))
    return paths


def cmd_oracle_check(cfg: ExperimentConfig, workers: int) -> list[str]:
    model = resolve_model(cfg)
    if model.shape != "regular":
        raise ValidationError("model: oracle-check needs a regular shape")
    ns = resolve_ns(cfg)
    count = _count(cfg, "instances", 100)
    rows = oracle_gap_table(
        model.weights, ns, count, cfg.seed, beta=int(model.beta),
        lam=0.0 if cfg.lam is None else float(cfg.lam),
    )
    columns = ["instance", "n", "nodes", "gap_R", "gap_theta", "gap_voltage"]
    return [write_table(_outdir(cfg), "oracle_gaps", columns, rows, cfg)]


def cmd_rde(cfg: ExperimentConfig, workers: int) -> list[str]:
    dist = parse_distribution(cfg.dist)
    m = _count(cfg, "pool_size", 10000)
    max_level = _count(cfg, "levels", 8)
    pools = rde_levels(dist, m, max_level, RngStream(cfg.seed, 0))
    rows = [
        (pool.level, len(pool.values), float(np.mean(pool.values)),
         float(np.var(pool.values, ddof=1)) if len(pool.values) > 1 else 0.0,
         float(np.min(pool.values)), float(np.max(pool.values)))
        for pool in pools
    ]
    columns = ["level", "m", "mean", "var", "min", "max"]
    return [write_table(_outdir(cfg), "rde", columns, rows, cfg)]


def cmd_gw(cfg: ExperimentConfig, workers: int) -> list[str]:
    model = resolve_model(cfg)
    if model.shape != "gw":
        raise ValidationError("model: gw subcommand needs a gw: model")
    n = _single_n(cfg)
    trees = _count(cfg, "trees", 1000)
    report = gw_experiment(model.offspring, model.weights, n, trees, cfg.seed)
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


def cmd_constants(cfg: ExperimentConfig, workers: int) -> list[str]:
    dist = parse_distribution(cfg.dist)
    a = cfg.a if cfg.a is not None else dist.a
    b = cfg.b if cfg.b is not None else dist.b
    var_recip = dist.moments().recip_variance
    # no depth given: emit the 1..20 table
    ns = list(range(1, 21)) if cfg.n is None else resolve_ns(cfg)
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


def cmd_tails(cfg: ExperimentConfig, workers: int) -> list[str]:
    model = resolve_model(cfg)
    n = _single_n(cfg)
    m = resolve_reps(cfg, [n])[n]
    t_grid = resolve_t_grid(cfg)
    batch = run_replicates(model, n, m, cfg.seed, workers)
    a = cfg.a if cfg.a is not None else model.weights.a
    b = cfg.b if cfg.b is not None else model.weights.b
    constant = tail_bound_constant(a, b)
    report = tail_profile(batch, t_grid, constant)
    rows = [
        (report.t[i], int(report.count[i]), report.freq[i],
         report.wilson_lo[i], report.wilson_hi[i], report.bound[i])
        for i in range(len(report.t))
    ]
    columns = ["t", "count", "freq", "wilson_lo", "wilson_hi", "bound"]
    return [write_table(_outdir(cfg), "tails", columns, rows, cfg)]


_COMMANDS = {
    "sample": cmd_sample,
    "sweep": cmd_sweep,
    "fit": cmd_fit,
    "flows": cmd_flows,
    "oracle-check": cmd_oracle_check,
    "rde": cmd_rde,
    "gw": cmd_gw,
    "constants": cmd_constants,
    "tails": cmd_tails,
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
    helps = {
        "sample": "replicate table of R and C at one depth",
        "sweep": "per-depth moment table over a depth grid",
        "fit": "asymptotic fit report from a sweep table",
        "flows": "optimal-flow dump plus flow-bound diagnostics",
        "oracle-check": "gap table between evaluators and the dense solver",
        "rde": "per-level pool moments of the conductance recursion",
        "gw": "branching-tree records and root-degree conditioning",
        "constants": "explicit variance/tail bound constants",
        "tails": "empirical deviation tail with the sub-Gaussian reference",
    }
    for name, func in _COMMANDS.items():
        sp = sub.add_parser(name, help=helps[name])
        sp.add_argument("--config", help="JSON config file; flags override it")
        sp.add_argument("--model", help="tree literal: reg:BETA or gw:K1:P1,K2:P2,...")
        sp.add_argument("--dist", help="weight literal: const:v | unif:a,b | "
                                       "twopoint:a,b[,p] | disc:v1:p1,...")
        sp.add_argument("--lam", type=float, help="scaling base override")
        sp.add_argument("--n", help="depth: single, list 4,6,8, or range 2..18")
        sp.add_argument("--reps", help="replicates: count or default:V,n:V,... map")
        sp.add_argument("--seed", type=int, help="master seed")
        sp.add_argument("--t-grid", dest="t_grid",
                        help="tail grid: start:stop:step or comma list")
        sp.add_argument("--pool-size", dest="pool_size", type=int,
                        help="recursion pool size")
        sp.add_argument("--levels", type=int, help="recursion depth")
        sp.add_argument("--trees", type=int, help="branching sample count")
        sp.add_argument("--instances", type=int, help="instance count")
        sp.add_argument("--a", type=float, help="lower weight bound override")
        sp.add_argument("--b", type=float, help="upper weight bound override")
        sp.add_argument("--mu", type=float, help="weight mean override for fits")
        sp.add_argument("--sigma2", type=float, help="weight variance override for fits")
        sp.add_argument("--sweep-csv", dest="sweep_csv", help="sweep table to fit")
        sp.add_argument("--out", help=f"output directory (default ${OUTDIR_ENV} or .)")
        sp.add_argument("--format", choices=("csv", "json"), help="table format")
        sp.add_argument("--workers", type=int, default=1,
                        help="worker processes; never changes output bytes")
        sp.set_defaults(func=func)
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = parse_config(fh.read())
        except OSError as exc:
            raise ValidationError(f"config: cannot read {args.config}: {exc}") from exc
    else:
        cfg = ExperimentConfig()
    for name in (f.name for f in dataclasses.fields(ExperimentConfig)):
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    return cfg


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        paths = args.func(cfg, max(1, args.workers))
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
