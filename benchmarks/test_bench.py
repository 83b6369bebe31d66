"""Self-tests of the benchmark: its checks catch corrupted artifacts, the
metrics it prints are the ones BENCHMARK.json declares, and it refuses to
run without the package.

Run from the repository root: python3 -m pytest -q benchmarks/test_bench.py
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench  # noqa: E402
import checks  # noqa: E402
import treeohm  # noqa: E402
from treeohm import cli  # noqa: E402

# small versions of every CLI call the workloads make
SMALL_CALLS = [
    ["sample", "--model", "reg:2", "--n", "4", "--dist", "twopoint:0.5,1.5", "--reps", "50"],
    ["sweep", "--model", "reg:2", "--n", "3..5", "--dist", "twopoint:0.5,1.5", "--reps", "20"],
    ["gw", "--model", "gw:1:0.5,2:0.5", "--dist", "const:1", "--n", "6", "--trees", "20"],
    ["flows", "--model", "reg:2", "--n", "5", "--dist", "unif:0.5,1.5", "--instances", "5"],
    ["oracle-check", "--model", "reg:2", "--n", "2..4", "--dist", "unif:0.5,1.5",
     "--instances", "6"],
]


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run_small(call, outdir, seed=3):
    argv = call + ["--seed", str(seed), "--out", str(outdir)]
    assert cli.main(argv) == 0
    return argv


def _flip_byte(path, offset):
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[offset] = ord("7") if data[offset] != ord("7") else ord("3")
    with open(path, "wb") as fh:
        fh.write(bytes(data))


def _data_offsets(path, count=7):
    """Offsets outside the provenance line (CSV) or object (JSON), spread
    over the rest of the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if path.endswith(".json"):
        p0 = raw.index(b'"provenance"')
        p1 = raw.index(b"\n  }", p0) + 4
    else:
        p0, p1 = 0, raw.index(b"\n") + 1
    outside = [i for i in range(len(raw)) if not p0 <= i < p1]
    return [outside[len(outside) * k // count] for k in range(count)]


@pytest.mark.parametrize("call", SMALL_CALLS, ids=lambda c: c[0])
def test_one_byte_change_fails_output_check(call, tmp_path):
    argv = _run_small(call, tmp_path)
    assert checks.check_call(treeohm, argv, str(tmp_path), random.Random(0)) == []
    recorded = checks.artifact_digests(str(tmp_path))
    assert checks.compare_digests(str(tmp_path), recorded) == []
    for name in recorded:
        path = os.path.join(tmp_path, name)
        with open(path, "rb") as fh:
            original = fh.read()
        for offset in _data_offsets(path):
            _flip_byte(path, offset)
            assert checks.compare_digests(str(tmp_path), recorded), (name, offset)
            with open(path, "wb") as fh:
                fh.write(original)


def test_provenance_is_excluded_from_digests(tmp_path):
    _run_small(SMALL_CALLS[0], tmp_path)
    recorded = checks.artifact_digests(str(tmp_path))
    path = os.path.join(tmp_path, "samples.csv")
    with open(path) as fh:
        lines = fh.readlines()
    lines[0] = "# provenance: {}\n"
    with open(path, "w") as fh:
        fh.writelines(lines)
    assert checks.compare_digests(str(tmp_path), recorded) == []


def test_semantic_checks_catch_wrong_values(tmp_path):
    argvs = {call[0]: _run_small(call, tmp_path) for call in SMALL_CALLS}
    rng = random.Random(0)
    path = os.path.join(tmp_path, "samples.csv")
    with open(path) as fh:
        lines = fh.readlines()
    cells = lines[5].split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-15))
    lines[5] = ",".join(cells)
    with open(path, "w") as fh:
        fh.writelines(lines)
    assert checks.check_call(treeohm, argvs["sample"], str(tmp_path), rng)

    path = os.path.join(tmp_path, "flow_report.json")
    with open(path) as fh:
        report = json.load(fh)
    report["instances"][1]["energy"] *= 1 + 1e-6
    with open(path, "w") as fh:
        json.dump(report, fh)
    assert checks.check_call(treeohm, argvs["flows"], str(tmp_path), rng)


def test_traced_child_counts_the_draw_contract(tmp_path):
    argvs = [call + ["--seed", "5", "--out", str(tmp_path), "--workers", "1"]
             for call in SMALL_CALLS]
    result = tmp_path / "result.json"
    spec = {"src": os.path.join(ROOT, "src"), "calls": argvs, "trace": True,
            "result": str(result)}
    proc = subprocess.run([sys.executable, bench.CHILD, json.dumps(spec)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(result.read_text())
    predicted = sum(checks.predicted_draws(a, data["gw_tree_draws"]) for a in argvs)
    assert data["spans"]["model.uniforms"][2] == predicted > 0
    self_sum = sum(v[1] for v in data["spans"].values())
    assert self_sum == pytest.approx(sum(data["call_s"]), rel=0.05)


def test_declared_metrics_match_the_script():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.E2E_METRICS
    layers = {name: unit for name, (_, _, unit) in bench.LAYER_METRICS.items()}
    layers.update(bench.TRACE_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers


@pytest.mark.parametrize("workload,trace", [("regular_shallow", 0), ("explicit_trees", 1)])
def test_printed_metrics_match_benchmark_json(workload, trace):
    spec = _benchmark_json()
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench.py", "--workload", workload, "--seed", "4",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    printed = [ln.split()[0] for ln in lines[:-1] if not ln.startswith("#")]
    assert printed == list(result["metrics"])
    if trace:
        assert result["metrics"]["model.uniforms.per_contract"]["value"] == 1.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench.py", "--workload", "regular_shallow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
