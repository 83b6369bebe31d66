import json

import pytest

from treeohm.cli import (
    ExperimentConfig,
    emit_config,
    main,
    parse_config,
    resolve_model,
    resolve_ns,
    resolve_reps,
    resolve_t_grid,
)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestConfig:
    def test_round_trip_defaults(self):
        cfg = ExperimentConfig()
        assert parse_config(emit_config(cfg)) == cfg

    def test_round_trip_full(self):
        cfg = ExperimentConfig(
            model="gw:1:0.5,2:0.5", dist="twopoint:0.5,1.5", lam=1.5,
            n="2..18", reps="default:20000,15:5000", seed=7,
            t_grid="0.1:3.0:0.1", pool_size=1000, levels=12, trees=2000,
            instances=500, a=0.5, b=1.5, mu=1.0, sigma2=0.25,
            sweep_csv="sweep.csv", out="results", format="json",
        )
        assert parse_config(emit_config(cfg)) == cfg

    def test_unknown_field_rejected(self):
        from treeohm import ValidationError

        with pytest.raises(ValidationError):
            parse_config('{"bogus": 1}')

    def test_resolvers(self):
        cfg = ExperimentConfig(model="reg:3", dist="const:1", n="2..5",
                               reps="default:10,4:99", t_grid="0.5,1.0")
        model = resolve_model(cfg)
        assert model.beta == 3 and model.lam == 3.0
        assert resolve_ns(cfg) == [2, 3, 4, 5]
        reps = resolve_reps(cfg, [2, 3, 4, 5])
        assert reps == {2: 10, 3: 10, 4: 99, 5: 10}
        assert resolve_t_grid(cfg).tolist() == [0.5, 1.0]

    def test_t_grid_range(self):
        cfg = ExperimentConfig(t_grid="0.1:3.0:0.1")
        grid = resolve_t_grid(cfg)
        assert len(grid) == 30
        assert grid[0] == pytest.approx(0.1)
        assert grid[-1] == pytest.approx(3.0)

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text(emit_config(ExperimentConfig(seed=1, n="4")))
        out = tmp_path / "out"
        code = main([
            "sample", "--config", str(path), "--seed", "9",
            "--dist", "const:1", "--reps", "3", "--out", str(out),
        ])
        assert code == 0
        text = (out / "samples.csv").read_text()
        assert '"seed": 9' in text or '"seed":9' in text


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

    def test_rde_levels(self, tmp_path):
        code = main([
            "rde", "--dist", "twopoint:0.5,1.5", "--pool-size", "500",
            "--levels", "6", "--seed", "13", "--out", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "rde.csv").read_text().strip().split("\n")
        assert lines[1] == "level,m,mean,var,min,max"
        assert len(lines) == 2 + 6

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
