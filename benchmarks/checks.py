"""Output checks for the benchmark's CLI calls, run outside the timed window.

Each check returns a list of mismatch messages; an empty list means the
artifacts are correct.  Three kinds of check:

- `artifact_digests`: sha256 of each artifact with its provenance removed,
  compared against digests recorded for the default seed (digests.json).
- `check_call`: on any seed, recompute part of the artifact with an
  independent route (the streaming evaluator, the dense Kirchhoff solver) or
  test an invariant the paper proves (energy = resistance, oracle gaps).
- `predicted_draws`: the uniforms the draw-order contract predicts for a
  call, compared with the count a traced invocation drew.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os

TOL = 1e-9
PROVENANCE_CSV = b"# provenance:"
# explicit gw trees re-solved by the dense oracle per check (kept small: the
# dense solve is cubic in the node count)
GW_ORACLE_TREES = 3
GW_ORACLE_MAX_NODES = 800
GW_ORACLE_SCAN = 40
STREAMING_SAMPLES = {"sample": 20, "sweep": 2, "flows": 2}


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------


def artifact_body(path: str) -> bytes:
    """Artifact bytes without the provenance line (CSV) or key (JSON).

    A JSON artifact must parse and be in the writer's canonical form (sorted
    keys, indent 2); otherwise its raw bytes are returned, which cannot match
    a recorded digest.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if path.endswith(".json"):
        try:
            data = json.loads(raw)
        except ValueError:
            return raw
        if (json.dumps(data, sort_keys=True, indent=2) + "\n").encode() != raw:
            return raw
        data.pop("provenance", None)
        return (json.dumps(data, sort_keys=True, indent=2) + "\n").encode()
    first, _, rest = raw.partition(b"\n")
    return rest if first.startswith(PROVENANCE_CSV) else raw


def artifact_digests(outdir: str) -> dict[str, str]:
    return {
        name: hashlib.sha256(artifact_body(os.path.join(outdir, name))).hexdigest()
        for name in sorted(os.listdir(outdir))
    }


def compare_digests(outdir: str, expected: dict[str, str]) -> list[str]:
    got = artifact_digests(outdir)
    errors = [f"artifact {name} missing" for name in sorted(set(expected) - set(got))]
    errors += [f"unexpected artifact {name}" for name in sorted(set(got) - set(expected))]
    errors += [
        f"{name}: digest {got[name][:12]} != recorded {digest[:12]}"
        for name, digest in sorted(expected.items())
        if name in got and got[name] != digest
    ]
    return errors


# ---------------------------------------------------------------------------
# per-call checks on any seed
# ---------------------------------------------------------------------------


def options(argv: list[str]) -> dict[str, str]:
    return {k.lstrip("-"): v for k, v in zip(argv[1::2], argv[2::2])}


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("".join(lines))))
    return rows[0], rows[1:]


def _model(t, opts: dict[str, str]):
    head, _, body = opts["model"].partition(":")
    dist = t.parse_distribution(opts["dist"])
    if head == "reg":
        return t.TreeModel.regular(int(body), dist)
    return t.TreeModel.galton_watson(t.parse_offspring(body), dist)


def depths(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return sorted({int(s) for s in text.split(",")})


def edges(beta: int, n: int) -> int:
    """Edges (= nodes) of a depth-n regular beta-ary tree, root edge included."""
    return (beta**n - 1) // (beta - 1)


def _streaming(t, model, n: int, seed: int, j: int) -> float:
    return float(t.resistance_streaming(model, n, t.RngStream(seed, j)).resistance)


def check_sample(t, opts, outdir, rng) -> list[str]:
    model, n, m, seed = _model(t, opts), int(opts["n"]), int(opts["reps"]), int(opts["seed"])
    _, rows = _read_csv(os.path.join(outdir, "samples.csv"))
    if len(rows) != m:
        return [f"samples.csv: {len(rows)} rows, expected {m}"]
    bad = [j for j, row in enumerate(rows)
           if row[:2] != [str(j), str(n)] or float(row[3]) != 1.0 / float(row[2])]
    errors = [f"samples.csv: {len(bad)} rows with a wrong id or C != 1/R, "
              f"first {rows[bad[0]]}"] if bad else []
    for j in rng.sample(range(m), min(STREAMING_SAMPLES["sample"], m)):
        ref = _streaming(t, model, n, seed, j)
        if float(rows[j][2]) != ref:
            errors.append(f"samples.csv replicate {j}: R={rows[j][2]}, streaming {ref!r}")
    return errors


def check_sweep(t, opts, outdir, rng) -> list[str]:
    model, seed = _model(t, opts), int(opts["seed"])
    ns, m = depths(opts["n"]), int(opts["reps"])
    _, rows = _read_csv(os.path.join(outdir, "sweep.csv"))
    if [row[:2] for row in rows] != [[str(n), str(m)] for n in ns]:
        return [f"sweep.csv: rows {[row[:2] for row in rows]} for depths {ns}, m={m}"]
    # recompute the shallowest depth's row; anchor a sample of its
    # replicates to the streaming recursion
    n0 = ns[0]
    seed_n = t.derive_seed(seed, n0)
    values = [t.resistance_fast(model, n0, t.RngStream(seed_n, j)).resistance
              for j in range(m)]
    errors = []
    for j in rng.sample(range(m), min(STREAMING_SAMPLES["sweep"], m)):
        ref = _streaming(t, model, n0, seed_n, j)
        if values[j] != ref:
            errors.append(f"sweep n={n0} replicate {j}: fast {values[j]!r}, streaming {ref!r}")
    rep = t.estimate_moments(t.ReplicateSet.from_values(n0, values, seed_n))
    expected = [rep.r.mean, rep.r.se_mean, rep.r.variance, rep.r.se_variance,
                rep.c.mean, rep.c.variance, rep.c.se_variance]
    got = [float(v) for v in rows[0][2:]]
    if got != expected:
        errors.append(f"sweep.csv n={n0}: {got} != recomputed {expected}")
    return errors


def check_gw(t, opts, outdir, rng) -> list[str]:
    model, n, seed = _model(t, opts), int(opts["n"]), int(opts["seed"])
    trees = int(opts["trees"])
    _, rows = _read_csv(os.path.join(outdir, "gw_records.csv"))
    if len(rows) != trees or [r[0] for r in rows] != [str(j) for j in range(trees)]:
        return [f"gw_records.csv: {len(rows)} rows, expected {trees}"]
    with open(os.path.join(outdir, "gw_summary.json")) as fh:
        json.load(fh)
    errors = []
    checked = 0
    start = rng.randrange(trees)
    for k in range(min(GW_ORACLE_SCAN, trees)):
        j = (start + k) % trees
        tree = t.sample_tree_explicit(model, n, t.RngStream(seed, j))
        if tree.n_nodes > GW_ORACLE_MAX_NODES:
            continue
        ref = t.kirchhoff_solve(tree).resistance
        got = float(rows[j][2])
        if abs(got - ref) > TOL * abs(ref):
            errors.append(f"gw tree {j}: R={got!r}, dense oracle {ref!r}")
        checked += 1
        if checked == GW_ORACLE_TREES:
            break
    if checked == 0:
        errors.append(f"gw: no tree of at most {GW_ORACLE_MAX_NODES} nodes to check")
    return errors


def check_flows(t, opts, outdir, rng) -> list[str]:
    model, n, seed = _model(t, opts), int(opts["n"]), int(opts["seed"])
    count = int(opts["instances"])
    with open(os.path.join(outdir, "flow_report.json")) as fh:
        report = json.load(fh)["instances"]
    if [r["instance"] for r in report] != list(range(count)):
        return [f"flow_report.json: {len(report)} instances, expected {count}"]
    bad = [r for r in report
           if abs(r["energy"] - r["resistance"]) > TOL * abs(r["resistance"])]
    errors = [f"flow_report.json: {len(bad)} instances with energy != R, first {bad[0]}"
              ] if bad else []
    for i in rng.sample(range(count), min(STREAMING_SAMPLES["flows"], count)):
        ref = _streaming(t, model, n, seed, i)
        if report[i]["resistance"] != ref:
            errors.append(f"flow instance {i}: R={report[i]['resistance']!r}, "
                          f"streaming {ref!r}")
    _, dump = _read_csv(os.path.join(outdir, "flow_dump.csv"))
    if len(dump) != edges(int(model.beta), n):
        errors.append(f"flow_dump.csv: {len(dump)} rows for depth {n}")
    return errors


def check_oracle(t, opts, outdir, rng) -> list[str]:
    ns, count = depths(opts["n"]), int(opts["instances"])
    header, rows = _read_csv(os.path.join(outdir, "oracle_gaps.csv"))
    if [r[:2] for r in rows] != [[str(i), str(ns[i % len(ns)])] for i in range(count)]:
        return [f"oracle_gaps.csv: {len(rows)} rows, expected {count}"]
    gap_cols = [k for k, name in enumerate(header) if name.startswith("gap_")]
    bad = [(row[0], header[k], row[k]) for row in rows for k in gap_cols
           if not float(row[k]) <= TOL]
    return [f"oracle_gaps.csv: {len(bad)} gaps above {TOL}, first {bad[0]}"] if bad else []


CHECKS = {
    "sample": check_sample,
    "sweep": check_sweep,
    "gw": check_gw,
    "flows": check_flows,
    "oracle-check": check_oracle,
}


def check_call(t, argv: list[str], outdir: str, rng) -> list[str]:
    """Check the artifacts one CLI call wrote; `t` is the treeohm package."""
    try:
        return CHECKS[argv[0]](t, options(argv), outdir, rng)
    except (OSError, ValueError, KeyError, IndexError, RuntimeError) as exc:
        return [f"{argv[0]}: check failed: {exc!r}"]


# ---------------------------------------------------------------------------
# draw-order contract
# ---------------------------------------------------------------------------


def predicted_draws(argv: list[str], gw_tree_draws: int) -> int:
    """Uniforms one CLI call must draw: one per edge of every regular tree,
    and for branching trees one per node plus one per internal node (that
    count is taken from the trees the traced run built)."""
    opts = options(argv)
    if argv[0] == "gw":
        return gw_tree_draws
    beta = int(opts["model"].partition(":")[2])
    if argv[0] == "sample":
        return int(opts["reps"]) * edges(beta, int(opts["n"]))
    if argv[0] == "sweep":
        return sum(int(opts["reps"]) * edges(beta, n) for n in depths(opts["n"]))
    if argv[0] == "flows":
        return int(opts["instances"]) * edges(beta, int(opts["n"]))
    ns = depths(opts["n"])
    return sum(edges(beta, ns[i % len(ns)]) for i in range(int(opts["instances"])))
