"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s -v` to see the per-criterion
lines.  Every experiment goes through the CLI with --workers 1 so the
asserted numbers live in artifact files; the final criterion re-executes
every run with --workers 8 and demands byte-identical artifacts.
"""

import json
import math
import time

import numpy as np
import pytest

import treeohm as T
from treeohm.cli import main

TWOPOINT = "twopoint:0.5,1.5"
UNIFORM = "unif:0.5,1.5"

SLACK = 1e-12


def _runs(root):
    """Acceptance run specs: name -> CLI args (without --out/--workers)."""
    sweep_csv = str(root / "c4_sweep" / "w1" / "sweep.csv")
    runs = [
        ("c1_oracle", ["oracle-check", "--model", "reg:2", "--n", "2..9",
                       "--dist", UNIFORM, "--instances", "500", "--seed", "1"]),
        ("c2_flows", ["flows", "--model", "reg:2", "--n", "8",
                      "--dist", UNIFORM, "--instances", "200", "--seed", "2"]),
        ("c4_sweep", ["sweep", "--model", "reg:2", "--n", "2..18",
                      "--dist", TWOPOINT, "--seed", "7", "--reps",
                      "default:20000,15:5000,16:5000,17:5000,18:5000"]),
        ("c4_fit", ["fit", "--sweep-csv", sweep_csv, "--dist", TWOPOINT]),
        ("c6_sample", ["sample", "--model", "reg:2", "--n", "10",
                       "--dist", TWOPOINT, "--reps", "100000", "--seed", "11"]),
        ("c7_rde", ["rde", "--dist", TWOPOINT, "--pool-size", "100000",
                    "--levels", "12", "--seed", "13"]),
        ("c8_gw", ["gw", "--model", "gw:1:0.5,2:0.5", "--dist", "const:1",
                   "--n", "14", "--trees", "2000", "--seed", "17"]),
    ]
    # criterion 5 uses raw per-depth samples (seed 9 folded with the depth,
    # matching the sweep seed derivation) so fourth moments stay computable
    for n, m in ((4, 40000), (6, 40000), (8, 40000), (11, 40000), (16, 10000)):
        runs.append(
            (f"c5_sample_n{n}",
             ["sample", "--model", "reg:2", "--n", str(n), "--dist", TWOPOINT,
              "--reps", str(m), "--seed", str(T.derive_seed(9, n))])
        )
    # criterion 7 exact side: raw samples at the recursion's master seed
    for n, m in ((4, 100000), (8, 100000), (12, 100000)):
        runs.append(
            (f"c7_sample_n{n}",
             ["sample", "--model", "reg:2", "--n", str(n), "--dist", TWOPOINT,
              "--reps", str(m), "--seed", "13"])
        )
    return runs


@pytest.fixture(scope="session")
def art(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    info = {"root": root, "wall": {}, "out": {}, "args": {}}
    for name, args in _runs(root):
        outdir = root / name / "w1"
        start = time.perf_counter()
        code = main(args + ["--out", str(outdir), "--workers", "1"])
        info["wall"][name] = time.perf_counter() - start
        assert code == 0, f"acceptance run {name} failed"
        info["out"][name] = outdir
        info["args"][name] = args
    return info


def _csv_rows(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def _sample_values(path):
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    return data[:, 2], data[:, 3]  # R, C


def _verdict(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def c5_moments(art):
    reports = {}
    for n in (4, 6, 8, 11, 16):
        r, _ = _sample_values(art["out"][f"c5_sample_n{n}"] / "samples.csv")
        reports[n] = T.estimate_moments(T.ReplicateSet.from_values(n, r))
    return reports


def test_criterion_1_oracle_equivalence(art):
    header, rows = _csv_rows(art["out"]["c1_oracle"] / "oracle_gaps.csv")
    gap_r = max(float(row[3]) for row in rows)
    wall = art["wall"]["c1_oracle"]
    ok = len(rows) == 500 and gap_r <= 1e-9 and wall < 30.0
    _verdict(1, ok, f"500 instances, max rel gap {gap_r:.2e}, {wall:.1f}s")


def test_criterion_2_energy_minimality(art):
    with open(art["out"]["c2_flows"] / "flow_report.json") as fh:
        instances = json.load(fh)["instances"]
    assert len(instances) == 200
    energy_ok = all(
        abs(row["energy"] - row["resistance"]) <= 1e-9 * row["resistance"]
        for row in instances
    )
    # 20 random leaf-pair perturbations per instance, on the same trees
    model = T.TreeModel.regular(2, T.parse_distribution(UNIFORM))
    worst = math.inf
    for i in range(200):
        tree = T.sample_tree_explicit(model, 8, T.RngStream(2, i))
        flow = T.solve_flow(tree)
        best = T.random_perturbations(flow, 20, T.RngStream(1002, i))
        worst = min(worst, best - flow.resistance)
    ok = energy_ok and worst >= -SLACK
    _verdict(2, ok, f"energy=R to 1e-9 on 200 instances, "
                    f"min perturbation slack {worst:.2e}")


def test_criterion_3_deterministic_inequalities(art, c5_moments):
    worst = math.inf
    # resistance/conductance envelopes on every raw sample artifact
    for n in (4, 6, 8, 11, 16, 10):
        name = "c6_sample" if n == 10 else f"c5_sample_n{n}"
        r, c = _sample_values(art["out"][name] / "samples.csv")
        worst = min(worst,
                    float(np.min(r - 0.5 * n)), float(np.min(1.5 * n - r)),
                    float(np.min(c - 1.0 / (1.5 * n))),
                    float(np.min(1.0 / (0.5 * n) - c)))
    # per-edge flow bound and fourth-power ceiling on the flow suite
    with open(art["out"]["c2_flows"] / "flow_report.json") as fh:
        instances = json.load(fh)["instances"]
    for row in instances:
        worst = min(worst, row["min_margin"], row["b4"] - row["s4_scaled"])
    # level-shorted series never above the exact resistance
    _, rows = _csv_rows(art["out"]["c8_gw"] / "gw_records.csv")
    for row in rows:
        worst = min(worst, float(row[2]) - float(row[3]))
    ok = worst >= -SLACK
    _verdict(3, ok, f"min slack across envelopes/flow bounds/shorting {worst:.2e}")


def test_criterion_4_expectation_fit(art):
    with open(art["out"]["c4_fit"] / "fit.json") as fh:
        fit = json.load(fh)
    table = fit["residual_table"]
    sub = [row["constrained_residual"] for row in table if 8 <= row["n"] <= 18]
    spread = max(sub) - min(sub)
    wall = art["wall"]["c4_sweep"]
    ok = (0.98 <= fit["alpha"] <= 1.02
          and -0.45 <= fit["beta"] <= -0.10
          and spread <= 0.5
          and wall < 300.0)
    _verdict(4, ok, f"alpha={fit['alpha']:.4f} beta={fit['beta']:.4f} "
                    f"residual range {spread:.3f} over n in [8,18], {wall:.0f}s")


def test_criterion_5_variance_decay(art, c5_moments):
    ns = [4, 6, 8, 11, 16]
    var_c = np.array([c5_moments[n].c.variance for n in ns])
    slope, _ = T.fit_variance_slope(np.array(ns, float), var_c)
    law = T.parse_distribution(TWOPOINT)
    bounds_ok = all(
        c5_moments[n].c.variance
        <= T.variance_bound_constants(law, n).bound
        for n in ns
    )
    r8, r16 = c5_moments[8].r, c5_moments[16].r
    combined = math.sqrt(r16.se_variance**2 + (2.0 * r8.se_variance) ** 2)
    flat_ok = r16.variance <= 2.0 * r8.variance + 3.0 * combined
    ok = -4.8 <= slope <= -3.2 and bounds_ok and flat_ok
    _verdict(5, ok, f"slope={slope:.2f}, bounds hold={bounds_ok}, "
                    f"varR16={r16.variance:.3f} vs 2*varR8+3se="
                    f"{2 * r8.variance + 3 * combined:.3f}")


def test_criterion_6_tail_bound(art, c5_moments):
    r, _ = _sample_values(art["out"]["c6_sample"] / "samples.csv")
    batch = T.ReplicateSet.from_values(10, r)
    constant = T.tail_bound_constant(T.parse_distribution(TWOPOINT))
    tails = T.tail_profile(batch, tail_constant=constant)
    under_bound = bool(np.all(tails.freq <= tails.bound))
    three_sd = float(np.mean(np.abs(r - tails.sample_mean) > 3.0 * tails.sample_sd))
    m4 = [c5_moments[n].r.m4 for n in (4, 6, 8, 11, 16)]
    m4_ok = max(m4) <= 4.0 * min(m4)
    ok = under_bound and three_sd <= 0.01 and m4_ok
    _verdict(6, ok, f"C={constant:.0f}, tail under bound={under_bound}, "
                    f"3sd tail={three_sd:.5f}, m4 ratio={max(m4) / min(m4):.2f}")


def test_criterion_7_recursion_vs_exact(art):
    _, rows = _csv_rows(art["out"]["c7_rde"] / "rde.csv")
    pool = {int(row[0]): (float(row[2]), float(row[3]), int(row[1])) for row in rows}
    worst = 0.0
    for n in (4, 8, 12):
        r, c = _sample_values(art["out"][f"c7_sample_n{n}"] / "samples.csv")
        exact_mean = float(np.mean(c))
        exact_se = float(np.std(c, ddof=1)) / math.sqrt(len(c))
        mean_p, var_p, m_p = pool[n]
        pool_se = math.sqrt(var_p / m_p)
        z = abs(mean_p - exact_mean) / math.sqrt(pool_se**2 + exact_se**2)
        worst = max(worst, z)
    ok = worst <= 3.0
    _verdict(7, ok, f"max |z| over levels 4/8/12 = {worst:.2f} (limit 3)")


def test_criterion_8_branching(art):
    # (a) deterministic binary offspring with unit weights: integer-exact
    model = T.TreeModel.galton_watson([(2, 1.0)], T.WeightDistribution.constant(1.0))
    exact_ok = True
    for n in range(1, 13):
        tree = T.sample_tree_explicit(model, n, T.RngStream(0))
        r = T.resistance_of_tree(tree)
        s = T.shorted_resistance_of_tree(tree)
        exact_ok = exact_ok and r == float(n + 1) and s == float(n + 1)
    # (b) random offspring: scaled resistance tracks the population limit
    with open(art["out"]["c8_gw"] / "gw_summary.json") as fh:
        summary = json.load(fh)
    corr = summary["corr_scaled_R_vs_inv_W"]
    median_gap = abs(summary["median_scaled_product"] - 1.0)
    # (c) conductance is not concentrated: root degree shifts n*C_n
    cond = {int(k): v for k, v in summary["cond_mean_nC"].items()}
    m1, m2 = cond[1], cond[2]
    rel_split = abs(m1 - m2) / (0.5 * (m1 + m2))
    ok = exact_ok and corr >= 0.9 and rel_split >= 0.10
    _verdict(8, ok, f"integer-exact={exact_ok}, corr={corr:.3f}, "
                    f"|median(R/n*W)-1|={median_gap:.3f} (reported), "
                    f"root-degree split={rel_split:.1%}")


def test_criterion_9_worker_reproducibility(art):
    mismatches = []
    for name, args in art["args"].items():
        w1 = art["out"][name]
        w8 = art["root"] / name / "w8"
        code = main(args + ["--out", str(w8), "--workers", "8"])
        assert code == 0, f"workers-8 rerun {name} failed"
        files1 = sorted(p.name for p in w1.iterdir())
        files8 = sorted(p.name for p in w8.iterdir())
        if files1 != files8:
            mismatches.append(f"{name}: file sets differ")
            continue
        for fname in files1:
            if (w1 / fname).read_bytes() != (w8 / fname).read_bytes():
                mismatches.append(f"{name}/{fname}")
    ok = not mismatches
    _verdict(9, ok, f"{len(art['args'])} runs byte-identical at workers 1 vs 8"
                    + (f"; mismatches: {mismatches}" if mismatches else ""))
