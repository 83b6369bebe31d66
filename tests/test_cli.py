import json
import re
import shlex
from pathlib import Path

import pytest

from treeohm import (
    RngStream,
    TreeModel,
    ValidationError,
    WeightDistribution,
    resistance_of_tree,
    sample_tree_explicit,
)
from treeohm.cli import (
    _COMMANDS,
    _build_parser,
    main,
    resolve_model,
    resolve_ns,
    resolve_options,
    resolve_reps,
    resolve_t_grid,
)

README = Path(__file__).resolve().parents[1] / "README.md"

# the options each subcommand reads; --config, --out and --workers come on top
DECLARED = {
    "sample": {"model", "dist", "lam", "n", "reps", "seed", "format"},
    "sweep": {"model", "dist", "lam", "n", "reps", "seed", "format"},
    "fit": {"sweep_csv", "dist", "mu", "sigma2"},
    "flows": {"model", "dist", "lam", "n", "instances", "seed", "a", "b", "format"},
    "oracle-check": {"model", "dist", "lam", "n", "instances", "seed", "format"},
    "rde": {"dist", "pool_size", "levels", "seed", "format"},
    "gw": {"model", "dist", "lam", "n", "trees", "seed", "format"},
    "constants": {"dist", "a", "b", "n"},
    "tails": {"model", "dist", "lam", "n", "reps", "seed", "t_grid", "a", "b", "format"},
}
ALL_OPTIONS = set().union(*DECLARED.values())
UNDECLARED = [(c, o) for c in DECLARED for o in sorted(ALL_OPTIONS - DECLARED[c])]

# one non-default value per option, and the matching flag spelling
FULL = {
    "model": "gw:1:0.5,2:0.5", "dist": "twopoint:0.5,1.5", "lam": 1.5,
    "n": "2..18", "reps": "default:20000,15:5000", "seed": 7,
    "t_grid": "0.1:3.0:0.1", "pool_size": 1000, "levels": 12, "trees": 2000,
    "instances": 500, "a": 0.5, "b": 1.5, "mu": 1.0, "sigma2": 0.25,
    "sweep_csv": "sweep.csv", "format": "json", "out": "results",
}


def flag(option):
    return "--" + option.replace("_", "-")


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def resolve(argv):
    return resolve_options(_build_parser().parse_args(argv))


def write_config(path, data):
    path.write_text(json.dumps(data))
    return str(path)


def provenance(path):
    first = Path(path).read_text().split("\n", 1)[0]
    assert first.startswith("# provenance: ")
    return json.loads(first[len("# provenance: "):])


class TestConfig:
    def test_round_trip_defaults(self, tmp_path):
        for command in DECLARED:
            cfg = resolve([command])
            path = write_config(tmp_path / f"{command}.json", cfg)
            assert resolve([command, "--config", path]) == cfg

    def test_round_trip_full(self, tmp_path):
        for command, options in DECLARED.items():
            data = {k: FULL[k] for k in options | {"out"}}
            path = write_config(tmp_path / f"{command}.json", data)
            assert resolve([command, "--config", path]) == data
            argv = [command] + [a for k in data for a in (flag(k), str(data[k]))]
            assert resolve(argv) == data

    def test_unknown_field_rejected(self, tmp_path):
        path = write_config(tmp_path / "conf.json", {"bogus": 1})
        with pytest.raises(ValidationError, match="bogus"):
            resolve(["sample", "--config", path])

    def test_resolvers(self):
        cfg = resolve(["tails", "--model", "reg:3", "--dist", "const:1", "--n", "2..5",
                       "--reps", "default:10,4:99", "--t-grid", "0.5,1.0"])
        model = resolve_model(cfg)
        assert model.beta == 3 and model.lam == 3.0
        assert resolve_ns(cfg) == [2, 3, 4, 5]
        reps = resolve_reps(cfg, [2, 3, 4, 5])
        assert reps == {2: 10, 3: 10, 4: 99, 5: 10}
        assert resolve_t_grid(cfg).tolist() == [0.5, 1.0]

    def test_t_grid_range(self):
        grid = resolve_t_grid(resolve(["tails", "--t-grid", "0.1:3.0:0.1"]))
        assert len(grid) == 30
        assert grid[0] == pytest.approx(0.1)
        assert grid[-1] == pytest.approx(3.0)

    def test_flags_override_file(self, tmp_path):
        path = write_config(tmp_path / "conf.json", {"seed": 1, "n": "4"})
        out = tmp_path / "out"
        code = main([
            "sample", "--config", path, "--seed", "9",
            "--dist", "const:1", "--reps", "3", "--out", str(out),
        ])
        assert code == 0
        stamp = provenance(out / "samples.csv")
        assert stamp["seed"] == 9 and stamp["n"] == "4"


class TestOptionDeclarations:
    def test_each_subcommand_declares_what_it_reads(self):
        assert {name: set(entry[2]) for name, entry in _COMMANDS.items()} == DECLARED

    def test_settable_values(self):
        sub = _build_parser()._subparsers._group_actions[0]
        counts = {
            name: len([a for a in sub.choices[name]._actions if a.option_strings
                       and a.dest != "help"])
            for name in DECLARED
        }
        assert counts == {
            "sample": 10, "sweep": 10, "oracle-check": 10, "gw": 10,
            "fit": 7, "constants": 7, "rde": 8, "flows": 12, "tails": 13,
        }
        assert sum(counts.values()) == 87

    @pytest.mark.parametrize("command, option", UNDECLARED,
                             ids=[f"{c}-{o}" for c, o in UNDECLARED])
    def test_undeclared_flag_rejected(self, tmp_path, command, option):
        with pytest.raises(SystemExit) as err:
            main([command, flag(option), "1", "--out", str(tmp_path / "out")])
        assert err.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, text, option", [
        ("sample", '{"seed": "abc"}', "seed"),
        ("sample", '{"lam": "x"}', "lam"),
        ("flows", '{"instances": 2.5}', "instances"),
        ("sample", '{"seed": null}', "seed"),
        ("sample", '{"seed": true}', "seed"),
        ("sample", '{"format": "xml"}', "format"),
        ("sample", "[1, 2]", "config"),
        ("sample", "{seed: 1", "config"),
        ("sample", '{"trees": 5}', "trees"),
        ("constants", '{"format": "csv"}', "format"),
        ("sample", '{"lam": Infinity}', "lam"),
        ("constants", '{"a": NaN}', "a"),
        ("fit", '{"sigma2": -Infinity}', "sigma2"),
        ("sample", '{"seed": -2}', "seed"),
    ], ids=["seed-abc", "lam-x", "instances-2.5", "seed-null", "seed-true",
            "format-xml", "not-an-object", "invalid-json", "key-of-gw",
            "format-of-tables", "lam-inf", "a-nan", "sigma2-minus-inf",
            "seed-negative"])
    def test_bad_config_value_rejected(self, tmp_path, capsys, command, text, option):
        path = tmp_path / "conf.json"
        path.write_text(text)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {option}:")
        assert not out.exists()

    def test_null_keeps_a_derived_default(self, tmp_path):
        path = write_config(tmp_path / "conf.json", {"lam": None, "t_grid": None})
        cfg = resolve(["tails", "--config", path])
        assert cfg["lam"] is None and cfg["t_grid"] is None

    @pytest.mark.parametrize("argv, name", [
        (["tails", "--model", "reg:2", "--n", "4", "--dist", "twopoint:0.5,1.5",
          "--reps", "300", "--seed", "5", "--t-grid", "0:1:0.25", "--a", "0.4"],
         "tails.csv"),
        (["constants", "--dist", "twopoint:1,2", "--n", "3,5"], "constants.json"),
    ], ids=["tails", "constants"])
    def test_provenance_is_a_config(self, tmp_path, argv, name):
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        first = tmp_path / "a" / name
        if name.endswith(".csv"):
            stamp = provenance(first)
        else:
            stamp = json.loads(first.read_text())["provenance"]
        path = write_config(tmp_path / "conf.json", stamp)
        assert main([argv[0], "--config", path, "--out", str(tmp_path / "b")]) == 0
        assert read(first) == read(tmp_path / "b" / name)

    def test_readme_commands_parse(self):
        text = README.read_text()
        block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
        lines = block.replace("\\\n", " ").strip().split("\n")
        parser = _build_parser()
        seen = set()
        for line in lines:
            argv = shlex.split(line)
            assert argv[0] == "treeohm"
            args = parser.parse_args(argv[1:])
            seen.add(args.command)
        assert seen == set(DECLARED)

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, workers):
        code = main(["sample", "--n", "3", "--reps", "2", "--workers", workers,
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "workers" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSampleCommand:
    def test_envelope_and_rows(self, tmp_path):
        out = tmp_path / "a"
        code = main([
            "sample", "--model", "reg:2", "--n", "10",
            "--dist", "twopoint:0.5,1.5", "--reps", "100", "--seed", "7",
            "--out", str(out),
        ])
        assert code == 0
        lines = (out / "samples.csv").read_text().strip().split("\n")
        assert lines[0].startswith("# provenance:")
        assert lines[1] == "replicate,n,R,C"
        rows = [ln.split(",") for ln in lines[2:]]
        assert len(rows) == 100
        rs = [float(r[2]) for r in rows]
        assert min(rs) >= 5.0 and max(rs) <= 15.0
        assert [int(r[0]) for r in rows] == list(range(100))

    def test_rerun_byte_identical(self, tmp_path):
        args = ["sample", "--model", "reg:2", "--n", "6",
                "--dist", "unif:0.5,1.5", "--reps", "50", "--seed", "3"]
        main(args + ["--out", str(tmp_path / "x")])
        main(args + ["--out", str(tmp_path / "y")])
        assert read(tmp_path / "x" / "samples.csv") == read(tmp_path / "y" / "samples.csv")

    def test_workers_byte_identical(self, tmp_path):
        args = ["sample", "--model", "reg:2", "--n", "6",
                "--dist", "unif:0.5,1.5", "--reps", "40", "--seed", "3"]
        main(args + ["--workers", "1", "--out", str(tmp_path / "w1")])
        main(args + ["--workers", "4", "--out", str(tmp_path / "w4")])
        assert read(tmp_path / "w1" / "samples.csv") == read(tmp_path / "w4" / "samples.csv")

    def test_workers_byte_identical_across_blocks(self, tmp_path):
        # 10000 replicates at n=4 span several row blocks at one worker,
        # while each two-worker chunk stays inside one block
        args = ["sample", "--model", "reg:2", "--n", "4",
                "--dist", "unif:0.5,1.5", "--reps", "10000", "--seed", "3"]
        main(args + ["--workers", "1", "--out", str(tmp_path / "w1")])
        main(args + ["--workers", "2", "--out", str(tmp_path / "w2")])
        assert read(tmp_path / "w1" / "samples.csv") == read(tmp_path / "w2" / "samples.csv")

    def test_json_format(self, tmp_path):
        code = main([
            "sample", "--model", "reg:2", "--n", "4", "--dist", "const:1",
            "--reps", "5", "--seed", "1", "--format", "json",
            "--out", str(tmp_path),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "samples.json").read_text())
        assert payload["columns"] == ["replicate", "n", "R", "C"]
        assert len(payload["rows"]) == 5

    def test_env_var_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TREEOHM_OUT", str(tmp_path / "envout"))
        code = main(["sample", "--model", "reg:2", "--n", "3",
                     "--dist", "const:1", "--reps", "2", "--seed", "1"])
        assert code == 0
        assert (tmp_path / "envout" / "samples.csv").exists()


class TestSweepAndFit:
    def test_pipeline(self, tmp_path):
        code = main([
            "sweep", "--model", "reg:2", "--n", "2..8",
            "--dist", "twopoint:0.5,1.5", "--reps", "800", "--seed", "7",
            "--out", str(tmp_path),
        ])
        assert code == 0
        sweep_path = tmp_path / "sweep.csv"
        lines = sweep_path.read_text().strip().split("\n")
        assert lines[1] == "n,m,mean_R,se_R,var_R,se_var_R,mean_C,var_C,se_var_C"
        assert len(lines) == 2 + 7
        code = main([
            "fit", "--sweep-csv", str(sweep_path), "--dist", "twopoint:0.5,1.5",
            "--out", str(tmp_path),
        ])
        assert code == 0
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert 0.8 < fit["alpha"] < 1.2
        assert fit["var_slope"] is not None
        assert len(fit["residual_table"]) == 7

    def test_fit_requires_input(self, tmp_path):
        assert main(["fit", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("option, value", [("mu", 3.0), ("sigma2", 0.5)])
    def test_fit_keeps_a_lone_override(self, tmp_path, option, value):
        path = tmp_path / "sweep.csv"
        path.write_text("n,mean_R,se_R\n" + "".join(f"{n},{n - 0.3},0.1\n" for n in range(2, 10)))
        code = main(["fit", "--sweep-csv", str(path), "--dist", "twopoint:0.5,1.5",
                     flag(option), str(value), "--out", str(tmp_path)])
        assert code == 0
        fit = json.loads((tmp_path / "fit.json").read_text())
        law = {"mu": 1.0, "sigma2": 0.25}  # twopoint:0.5,1.5 at p = 1/2
        law[option] = value
        assert {"mu": fit["mu"], "sigma2": fit["sigma2"]} == law
        assert fit["provenance"][option] == value


class TestOtherCommands:
    def test_constants_table(self, tmp_path):
        code = main([
            "constants", "--a", "1", "--b", "2", "--dist", "twopoint:1,2",
            "--out", str(tmp_path),
        ])
        assert code == 0
        data = json.loads((tmp_path / "constants.json").read_text())
        assert data["K"] == 32.0
        bounds = {row["n"]: row["bound"] for row in data["variance_bounds"]}
        assert bounds[4] == pytest.approx(32768.0 / 256.0)
        assert data["tail_constant"] == pytest.approx(6510.7104, rel=1e-6)

    @pytest.mark.parametrize("depth, want", [("10", [10]), ("4,6", [4, 6]),
                                             (None, list(range(1, 21)))])
    def test_constants_depths(self, tmp_path, depth, want):
        argv = ["constants", "--dist", "twopoint:1,2", "--out", str(tmp_path)]
        if depth is not None:
            argv += ["--n", depth]
        assert main(argv) == 0
        data = json.loads((tmp_path / "constants.json").read_text())
        assert [row["n"] for row in data["variance_bounds"]] == want

    def test_counts_default_only_when_unset(self, tmp_path):
        assert main(["flows", "--model", "reg:2", "--n", "3", "--dist", "const:1",
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "flow_report.json").read_text())
        assert len(report["instances"]) == 1
        assert main(["rde", "--dist", "const:1", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "rde.csv").read_text().strip().split("\n")[2:]
        assert [row.split(",")[:2] for row in rows] == [[str(k), "10000"] for k in range(1, 9)]

    def test_oracle_check(self, tmp_path):
        code = main([
            "oracle-check", "--model", "reg:2", "--n", "2..5",
            "--dist", "unif:0.5,1.5", "--instances", "12", "--seed", "1",
            "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "oracle_gaps.csv").read_text().strip().split("\n")
        assert lines[1] == "instance,n,nodes,gap_R,gap_theta,gap_voltage"
        gaps = [float(ln.split(",")[3]) for ln in lines[2:]]
        assert len(gaps) == 12 and max(gaps) <= 1e-9

    def test_oracle_check_branching(self, tmp_path):
        code = main([
            "oracle-check", "--model", "gw:1:0.5,2:0.5", "--n", "2..5",
            "--dist", "unif:0.5,1.5", "--instances", "12", "--seed", "1",
            "--out", str(tmp_path),
        ])
        assert code == 0
        rows = (tmp_path / "oracle_gaps.csv").read_text().strip().split("\n")[2:]
        assert len(rows) == 12
        assert max(max(map(float, row.split(",")[3:])) for row in rows) <= 1e-9

    def test_oracle_check_branching_over_guard_is_exit_3(self, tmp_path, capsys):
        # gw:2:1 at depth 12 is the full binary tree of 8191 nodes
        code = main(["oracle-check", "--model", "gw:2:1", "--n", "12",
                     "--dist", "const:1", "--instances", "1", "--out", str(tmp_path)])
        assert code == 3
        assert "oracle" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_rde_levels(self, tmp_path):
        code = main([
            "rde", "--dist", "twopoint:0.5,1.5", "--pool-size", "500",
            "--levels", "6", "--seed", "13", "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "rde.csv").read_text().strip().split("\n")
        assert lines[1] == "level,m,mean,var,min,max"
        assert len(lines) == 2 + 6

    @pytest.mark.parametrize("argv, names", [
        (["gw", "--model", "gw:1:0.5,2:0.5", "--n", "5", "--trees", "9"],
         ["gw_records.csv", "gw_summary.json"]),
        (["flows", "--model", "reg:2", "--n", "5", "--instances", "6"],
         ["flow_dump.csv", "flow_report.json"]),
        (["oracle-check", "--model", "gw:1:0.5,2:0.5", "--n", "2..5", "--instances", "9"],
         ["oracle_gaps.csv"]),
    ], ids=["gw", "flows", "oracle-check"])
    def test_workers_byte_identical(self, tmp_path, argv, names):
        main(argv + ["--workers", "1", "--out", str(tmp_path / "w1")])
        main(argv + ["--workers", "2", "--out", str(tmp_path / "w2")])
        for name in names:
            assert read(tmp_path / "w1" / name) == read(tmp_path / "w2" / name)

    def test_gw_command(self, tmp_path):
        code = main([
            "gw", "--model", "gw:1:0.5,2:0.5", "--dist", "const:1",
            "--n", "8", "--trees", "50", "--seed", "17", "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "gw_records.csv").read_text().strip().split("\n")
        assert lines[1] == "tree,B1,R,shorted,W_hat,nC"
        assert len(lines) == 2 + 50
        summary = json.loads((tmp_path / "gw_summary.json").read_text())
        assert set(summary["cond_mean_nC"]) == {"1", "2"}

    def test_gw_honours_lam(self, tmp_path):
        argv = ["gw", "--model", "gw:1:0.5,2:0.5", "--dist", "unif:0.5,1.5",
                "--n", "6", "--trees", "20", "--seed", "5"]
        assert main(argv + ["--out", str(tmp_path / "default")]) == 0
        assert main(argv + ["--lam", "1.1", "--out", str(tmp_path / "lam")]) == 0

        def resistances(name):
            lines = (tmp_path / name / "gw_records.csv").read_text().strip().split("\n")
            return [float(ln.split(",")[2]) for ln in lines[2:]]

        model = TreeModel.galton_watson(((1, 0.5), (2, 0.5)),
                                        WeightDistribution.uniform(0.5, 1.5), lam=1.1)
        want = [resistance_of_tree(sample_tree_explicit(model, 6, RngStream(5, j)))
                for j in range(20)]
        assert resistances("lam") == want
        assert resistances("default") != want

    def test_flows_dump(self, tmp_path):
        code = main([
            "flows", "--model", "reg:2", "--n", "4", "--dist", "twopoint:0.5,1.5",
            "--instances", "3", "--seed", "2", "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "flow_dump.csv").read_text().strip().split("\n")
        assert lines[1] == ("edge_id,parent_id,level,X,r,theta,"
                            "voltage_top,voltage_bottom,flow_bound,margin")
        assert len(lines) == 2 + 15
        report = json.loads((tmp_path / "flow_report.json").read_text())
        assert len(report["instances"]) == 3
        assert all(row["min_margin"] >= -1e-12 for row in report["instances"])

    def test_tails_command(self, tmp_path):
        code = main([
            "tails", "--model", "reg:2", "--n", "6", "--dist", "twopoint:0.5,1.5",
            "--reps", "500", "--seed", "11", "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "tails.csv").read_text().strip().split("\n")
        assert lines[1] == "t,count,freq,wilson_lo,wilson_hi,bound"
        assert len(lines) == 2 + 30


class TestExitCodes:
    def test_malformed_dist_is_validation_failure(self, tmp_path, capsys):
        code = main(["sample", "--dist", "bogus", "--out", str(tmp_path)])
        assert code == 2
        assert "dist" in capsys.readouterr().err

    def test_guard_violation_is_exit_3(self, tmp_path, capsys):
        code = main(["sample", "--model", "reg:2", "--n", "99",
                     "--dist", "const:1", "--reps", "1", "--out", str(tmp_path)])
        assert code == 3
        assert "cap" in capsys.readouterr().err

    def test_gw_runs_without_model(self, tmp_path):
        assert main(["gw", "--n", "3", "--trees", "5", "--out", str(tmp_path)]) == 0

    def test_short_fit_table_names_its_option(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        path.write_text("n,mean_R,se_R\n" + "".join(f"{n},{n}.5,0.1\n" for n in range(2, 6)))
        code = main(["fit", "--sweep-csv", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: sweep_csv:")

    @pytest.mark.parametrize("argv, option", [
        (["sample", "--n", "3", "--dist", "unif:1,inf"], "dist"),
        (["sample", "--n", "3", "--dist", "disc:1:0.5,inf:0.5"], "dist"),
        (["sample", "--n", "3", "--dist", "disc:1:nan,2:1"], "dist"),
        (["sample", "--n", "3", "--dist", "disc:1:0.5,nan:0.25,2:0.25"], "dist"),
        (["gw", "--model", "gw:2:nan", "--lam", "2", "--n", "3", "--trees", "5"], "model"),
        (["oracle-check", "--dist", "const:inf", "--n", "2", "--instances", "1"], "dist"),
        (["constants", "--b", "inf"], "b"),
        (["flows", "--n", "3", "--a", "nan"], "a"),
        (["tails", "--n", "3", "--t-grid", "0.5,nan"], "t_grid"),
        (["sample", "--n", "3", "--lam", "0"], "lam"),
        (["sample", "--n", "3", "--lam", "-0.0"], "lam"),
        (["sample", "--n", "3", "--lam", "inf"], "lam"),
        (["fit", "--mu", "0"], "mu"),
        (["fit", "--mu", "nan"], "mu"),
        (["fit", "--sigma2", "-1"], "sigma2"),
        (["sample", "--n", "3", "--reps", "0"], "reps"),
        (["sweep", "--n", "3,4", "--reps", "3:0,4:5"], "reps"),
        (["sweep", "--n", "4", "--reps", "1"], "reps"),
        (["tails", "--n", "4", "--reps", "50"], "reps"),
        (["flows", "--n", "3", "--a", "2", "--b", "1"], "b"),
        (["constants", "--a", "2", "--b", "1"], "b"),
        (["constants", "--a", "3"], "a"),
        (["tails", "--n", "4", "--reps", "200", "--a", "2", "--b", "1"], "b"),
        (["sample", "--seed", "-1"], "seed"),
        (["rde", "--seed", "-1"], "seed"),
    ], ids=["unif-inf", "disc-inf", "disc-nan-prob", "disc-nan-value", "gw-nan-prob",
            "const-inf", "b-inf", "a-nan", "t-grid-nan", "lam-0", "lam-minus-0",
            "lam-inf", "mu-0", "mu-nan", "sigma2-negative", "sample-reps-0",
            "sweep-reps-0", "sweep-reps-1", "tails-reps-50", "flows-a-above-b",
            "constants-a-above-b", "constants-a-above-law", "tails-a-above-b",
            "sample-seed-negative", "rde-seed-negative"])
    def test_out_of_domain_number_rejected(self, tmp_path, capsys, argv, option):
        if argv[0] == "fit":
            table = tmp_path / "sweep.csv"
            table.write_text("n,mean_R,se_R\n" + "".join(f"{n},{n}.5,0.1\n" for n in range(2, 10)))
            argv = argv + ["--sweep-csv", str(table)]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {option}:")
        assert not out.exists()

    def test_gw_command_needs_gw_model(self, tmp_path):
        assert main(["gw", "--model", "reg:2", "--dist", "const:1",
                     "--out", str(tmp_path)]) == 2

    def test_zero_offspring_rejected(self, tmp_path, capsys):
        code = main(["gw", "--model", "gw:0:0.5,2:0.5", "--dist", "const:1",
                     "--n", "3", "--out", str(tmp_path)])
        assert code == 2
        assert "offspring" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_unwritable_out(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["sample", "--model", "reg:2", "--n", "3",
                     "--dist", "const:1", "--reps", "2",
                     "--out", str(blocker / "sub")])
        assert code == 2
        assert "out" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["flows", "--model", "reg:2", "--n", "3", "--instances", "0"],
        ["oracle-check", "--model", "reg:2", "--n", "3", "--instances", "0"],
        ["rde", "--pool-size", "0"],
        ["rde", "--levels", "0"],
        ["gw", "--model", "gw:1:0.5,2:0.5", "--n", "3", "--trees", "0"],
        ["gw", "--model", "gw:1:0.5,2:0.5", "--n", "3", "--trees", "-4"],
    ], ids=["flows-instances", "oracle-instances", "rde-pool-size", "rde-levels",
            "gw-trees-0", "gw-trees-negative"])
    def test_count_below_one_rejected(self, tmp_path, capsys, argv):
        code = main(argv + ["--dist", "const:1", "--out", str(tmp_path)])
        assert code == 2
        assert "must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, code", [
        (["--model", "reg:3", "--n", "3"], 2),
        (["--n", "3", "--lam", "1.5"], 2),
        (["--n", "26"], 3),
    ], ids=["ternary", "lam-1.5", "node-guard"])
    def test_rejected_flows_creates_no_out(self, tmp_path, argv, code):
        out = tmp_path / "out"
        assert main(["flows", *argv, "--out", str(out)]) == code
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0:1:0", "1:0:0.1", "0:1:-0.1", "0:inf:1",
                                      "0:1", "0:1:x"])
    def test_bad_t_grid_rejected(self, tmp_path, capsys, grid):
        code = main(["tails", "--model", "reg:2", "--n", "3", "--dist", "const:1",
                     "--reps", "100", "--t-grid", grid, "--out", str(tmp_path)])
        assert code == 2
        assert "t_grid" in capsys.readouterr().err

    @pytest.mark.parametrize("table", [
        "n,mean_R,se_R\n2,1.5,abc\n",
        "n,mean_R,se_R\n2,1.5\n",
        "n,mean_R\n2,1.5\n3,2.5\n",
        "mean_R,se_R\n1.5,0.1\n2.5,0.1\n",
    ], ids=["non-numeric", "short-row", "no-se_R", "no-n"])
    def test_malformed_sweep_csv_rejected(self, tmp_path, capsys, table):
        path = tmp_path / "sweep.csv"
        path.write_text(table)
        code = main(["fit", "--sweep-csv", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "sweep_csv" in capsys.readouterr().err

    def test_smallest_gw_tree_over_guard_is_exit_3(self, tmp_path, capsys):
        code = main(["sample", "--model", "gw:3:1", "--n", "16", "--dist", "const:1",
                     "--reps", "1", "--out", str(tmp_path)])
        assert code == 3
        assert "guard" in capsys.readouterr().err

    def test_seventeen_digit_floats_round_trip(self, tmp_path):
        main(["sample", "--model", "reg:2", "--n", "5",
              "--dist", "unif:0.5,1.5", "--reps", "10", "--seed", "4",
              "--out", str(tmp_path)])
        lines = (tmp_path / "samples.csv").read_text().strip().split("\n")[2:]
        from treeohm import RngStream, TreeModel, WeightDistribution, resistance_fast

        model = TreeModel.regular(2, WeightDistribution.uniform(0.5, 1.5))
        for j, ln in enumerate(lines):
            printed = float(ln.split(",")[2])
            exact = resistance_fast(model, 5, RngStream(4, j)).resistance
            assert printed == exact
