import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import treeohm.cli as cli
from treeohm import (
    MEMORY_GUARD,
    GuardError,
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
    write_table,
)
from tests.conftest import write_table_by_rows

README = Path(__file__).resolve().parents[1] / "README.md"

# the options each subcommand reads; --config, --out and --workers come on top
DECLARED = {
    "sample": {"model", "dist", "lam", "n", "reps", "seed", "format"},
    "sweep": {"model", "dist", "lam", "n", "reps", "seed", "format"},
    "fit": {"sweep_csv", "dist"},
    "flows": {"model", "dist", "lam", "n", "instances", "seed", "format"},
    "oracle-check": {"model", "dist", "lam", "n", "instances", "seed", "format"},
    "rde": {"dist", "pool_size", "levels", "seed", "format"},
    "gw": {"model", "dist", "lam", "n", "trees", "seed", "format"},
    "constants": {"dist", "n"},
    "tails": {"model", "dist", "lam", "n", "reps", "seed", "t_grid", "format"},
}
# constants of the weight law, which every command reads from --dist alone
LAW_CONSTANTS = ("a", "b", "mu", "sigma2")
ALL_OPTIONS = set().union(*DECLARED.values(), LAW_CONSTANTS)
UNDECLARED = [(c, o) for c in DECLARED for o in sorted(ALL_OPTIONS - DECLARED[c])]

# one non-default value per option, and the matching flag spelling
FULL = {
    "model": "gw:1:0.5,2:0.5", "dist": "twopoint:0.5,1.5", "lam": 1.5,
    "n": "2..18", "reps": "default:20000,15:5000", "seed": 7,
    "t_grid": "0.1:3.0:0.1", "pool_size": 1000, "levels": 12, "trees": 2000,
    "instances": 500, "sweep_csv": "sweep.csv", "format": "json", "out": "results",
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
            "fit": 5, "constants": 5, "rde": 8, "flows": 10, "tails": 11,
        }
        assert sum(counts.values()) == 79

    @pytest.mark.parametrize("command, option", UNDECLARED,
                             ids=[f"{c}-{o}" for c, o in UNDECLARED])
    def test_undeclared_flag_rejected(self, tmp_path, command, option):
        with pytest.raises(SystemExit) as err:
            main([command, flag(option), "1", "--out", str(tmp_path / "out")])
        assert err.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, option", [(c, o) for c in DECLARED for o in LAW_CONSTANTS],
                             ids=[f"{c}-{o}" for c in DECLARED for o in LAW_CONSTANTS])
    def test_law_constants_are_not_options(self, tmp_path, capsys, command, option):
        # a provenance stamp that still holds a law constant is refused as a config
        path = write_config(tmp_path / "conf.json", {**resolve([command]), option: None})
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {option}: not an option of {command}\n"
        assert not out.exists()

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
          "--reps", "300", "--seed", "5", "--t-grid", "0:1:0.25", "--lam", "1.7"],
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

    def test_readme_table_lists_each_commands_options(self):
        # rows "| `sample`, `sweep` | `--model` (`reg:2`), `--lam`, ... |"
        rows = re.findall(r"^\| (`[a-z-]+`(?:, `[a-z-]+`)*) \| (.*) \|$", README.read_text(), re.M)
        listed = {}
        for commands, cell in rows:
            options = []
            for name, note in re.findall(r"`--([a-z-]+)`(?: \(([^)]*)\))?", cell):
                default = re.match(r"`([^`]*)`", note)  # none for "(required)" or no note
                options.append((name.replace("-", "_"), default and default.group(1)))
            for command in re.findall(r"`([a-z-]+)`", commands):
                assert command not in listed
                listed[command] = options
        declared = {name: [(option, None if default is None else str(default))
                           for option, default in entry[2].items()]
                    for name, entry in _COMMANDS.items()}
        assert listed == declared

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

    @pytest.mark.parametrize("argv, name", [
        (["sample", "--n", "6", "--reps", "2100"], "samples.csv"),
        (["sweep", "--n", "5..7", "--reps", "1100"], "sweep.csv"),
    ], ids=["sample", "sweep"])
    def test_workers_byte_identical_across_the_lockstep_cutoff(self, tmp_path, argv, name):
        # n = 6 is the deepest binary tree that draws in lockstep; its
        # 2100 replicates fill two blocks and part of a third at one worker
        args = argv + ["--model", "reg:2", "--dist", "twopoint:0.5,1.5", "--seed", "5"]
        main(args + ["--workers", "1", "--out", str(tmp_path / "w1")])
        main(args + ["--workers", "2", "--out", str(tmp_path / "w2")])
        assert read(tmp_path / "w1" / name) == read(tmp_path / "w2" / name)

    @pytest.mark.parametrize("n, reps, law", [
        ("13", "70", "unif:0.5,1.5"), ("13", "70", "twopoint:0.5,1.5"),
        ("17", "9", "unif:0.5,1.5"), ("17", "9", "twopoint:0.5,1.5"),
    ], ids=["n13-unif", "n13-twopoint", "n17-unif", "n17-twopoint"])
    def test_workers_byte_identical_where_the_top_fold_runs(self, tmp_path, n, reps, law):
        # at one worker, n = 13 folds its top 9 levels over blocks of 32
        # trees and n = 17 its top and its runs' top 8 levels in one block;
        # the three-worker chunks, of 6 trees at n = 13 and of one at n = 17,
        # start inside those blocks
        args = ["sample", "--model", "reg:2", "--n", n, "--dist", law, "--reps", reps,
                "--seed", "5"]
        main(args + ["--workers", "1", "--out", str(tmp_path / "w1")])
        main(args + ["--workers", "3", "--out", str(tmp_path / "w3")])
        assert read(tmp_path / "w1" / "samples.csv") == read(tmp_path / "w3" / "samples.csv")

    def test_csv_rows_written_from_one_pass(self, tmp_path):
        # the columns come as a one-pass iterator, as a transposed row list does
        cfg = {"format": "csv", "seed": 1, "out": None}
        j = np.arange(5)
        path = write_table(str(tmp_path), "t", ["a", "b", "c"], iter([j, 0.1 * j, j % 2 == 0]),
                           cfg)
        lines = ['# provenance: {"format":"csv","seed":1}', "a,b,c"]
        lines += ["%d,%.17g,%d" % (k, 0.1 * k, k % 2 == 0) for k in range(5)]
        assert read(path) == ("\n".join(lines) + "\n").encode()

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


def _synthetic_tables():
    """name -> (column names, columns): tables whose bytes the column writer
    must share with the row writer, at the writer's own block size."""
    b = cli._BLOCK
    rng = np.random.default_rng(7)
    specials = [np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 2.2250738585072009e-308, 0.0]
    pool = rng.random(2 * b)

    def sized(m):
        return (["j", "few", "many"],
                [np.arange(m), rng.choice([0.25, 1 / 3, -0.0], m), rng.random(m)])

    return {
        "signed-zeros": (["j", "x"], [np.arange(120), np.tile([0.0, -0.0, 1.0], 40)]),
        "specials-repeated": (["x"], [np.tile(specials, 30)]),
        "specials-once": (["x"], [np.array(specials)]),
        "ints-and-bools": (["i", "flag", "x"], [
            np.array([np.iinfo(np.int64).min, -1, 0, 7, np.iinfo(np.int64).max]),
            np.array([True, False, True, True, False]),
            np.array([0.5, 0.5, 0.5, 1.5, 0.5])]),
        "straddle": (["j", "x"], [np.arange(2 * b + 3),
                                  np.repeat([0.1, 0.2, 0.3], [b - 1, 3, b + 1])]),
        "distinct-beside-few": (["x"], [np.concatenate(
            [rng.random(b), rng.choice([0.5, 1.5, -0.0], b)])]),
        # blocks of about b/3 values from overlapping slices of one pool: each
        # block's texts are in part the block before's and in part new
        "cache-restarts": (["x"], [np.concatenate(
            [rng.choice(pool[i * b // 4:i * b // 4 + b // 3], b) for i in range(6)])]),
        "rows-0": sized(0),
        "rows-1": sized(1),
        "rows-B": sized(b),
        "rows-B+1": sized(b + 1),
    }


SYNTHETIC = _synthetic_tables()

TP = "twopoint:0.5,1.5"
# a small run of every table command, its table artifact, and the sha256 of
# that artifact's bytes as the row-at-a-time writer wrote it
TABLE_RUNS = {
    "sample": (["sample", "--n", "4", "--dist", TP, "--reps", "4097", "--seed", "3"],
               "samples"),
    "sweep": (["sweep", "--n", "2..5", "--dist", TP, "--reps", "50", "--seed", "3"], "sweep"),
    "flows": (["flows", "--n", "13", "--dist", TP, "--instances", "1", "--seed", "3"],
              "flow_dump"),
    "oracle-check": (["oracle-check", "--n", "2..4", "--instances", "6", "--seed", "3"],
                     "oracle_gaps"),
    "rde": (["rde", "--dist", TP, "--pool-size", "200", "--levels", "3", "--seed", "3"], "rde"),
    "gw": (["gw", "--dist", "const:1", "--n", "6", "--trees", "30", "--seed", "3"],
           "gw_records"),
    "tails": (["tails", "--n", "4", "--dist", TP, "--reps", "200", "--seed", "3"], "tails"),
}
TABLE_DIGESTS = {
    ("sample", "csv"): "07e35a5e8887f7ff84e3398034e507171ca6805738ed73324aa9b19a9465970c",
    ("sample", "json"): "9ee0d0bc1adfb2cad61b092278af46682a804511dcd4df5fb4d9f47c957f5bf9",
    ("sweep", "csv"): "a7cc32b00326a39e19fe664fd03f5bdce6e5a00e646e3fc18597862a31f7c150",
    ("sweep", "json"): "de3a4c61f5fee67b1783845c378ca632135e3b07ef2e2bac656bb4ab78d2c328",
    ("flows", "csv"): "a071c0ca9f891b2090673bbe9700672f766f9f82ef751ad53257059a5359144c",
    ("flows", "json"): "19797d6c1c3f150785c4f0cb743d2cdf793038d8e003de4bfecab41661d55ffd",
    ("oracle-check", "csv"): "e9e713917bfbec9d0e9d5e3699e50423377b8aa9016727140c8d05534db1989b",
    ("oracle-check", "json"): "163ec1631ae54f4ba33f9f75e4a2990d5119c2d5a81c1db5f488d9d9fd7da9dc",
    ("rde", "csv"): "9c21aec82c99606a07eb69f16ad8f8dc21f21234780bef87ac60894606cd00d1",
    ("rde", "json"): "cc545696b7c0355217b7e97560e9e7a583bb11345a588fa02b73678d69ba3452",
    ("gw", "csv"): "f32c1f89ce5337d6b2b0a81b760c4a1b0084f9b1c270398df62164ca2ee00bc6",
    ("gw", "json"): "ac9aee8ba07d34961942a3bd00b187c19e2c550925885f96da7746acdc3297d5",
    ("tails", "csv"): "1cf4b4694450474c25e9757aa227d3364e78097384029aa61b0621b1bc297f25",
    ("tails", "json"): "949ba713c06286005ea6097e27d509e52503216767d7771e4b27d94ba8ef1078",
}


def _by_rows(outdir, names, columns, cfg):
    """The row writer's bytes for these columns, read a row at a time as
    Python values."""
    rows = zip(*(np.asarray(column).tolist() for column in columns))
    return read(write_table_by_rows(str(outdir), "by_rows", names, rows, cfg))


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, np.inf, -np.inf]


class TestTableWriter:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("table", list(SYNTHETIC))
    def test_same_bytes_as_the_row_writer(self, tmp_path, table, fmt):
        names, columns = SYNTHETIC[table]
        cfg = {"format": fmt, "seed": 1, "out": None}
        path = write_table(str(tmp_path), "t", names, columns, cfg)
        assert read(path) == _by_rows(tmp_path, names, columns, cfg)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", list(TABLE_RUNS))
    def test_command_tables_keep_their_bytes(self, tmp_path, monkeypatch, command, fmt):
        argv, name = TABLE_RUNS[command]
        tables = []

        def spy(outdir, name, names, columns, cfg):
            columns = list(columns)
            tables.append((names, columns, cfg))
            return write_table(outdir, name, names, columns, cfg)

        monkeypatch.setattr(cli, "write_table", spy)
        out = tmp_path / "out"
        assert main(argv + ["--format", fmt, "--out", str(out)]) == 0
        data = read(out / f"{name}.{fmt}")
        assert hashlib.sha256(data).hexdigest() == TABLE_DIGESTS[command, fmt]
        (names, columns, cfg), = tables
        assert data == _by_rows(tmp_path, names, columns, cfg)

    def test_block_format_follows_dtype_and_repeats(self):
        b = cli._BLOCK
        rng = np.random.default_rng(3)
        cache = [np.empty(0, dtype=np.int64), np.empty(0, dtype=object)]
        assert cli._block_values(np.arange(3), cache)[0] == "%d"
        assert cli._block_values(np.array([True, False]), cache)[0] == "%d"
        assert cli._block_values(rng.random(b), cache)[0] == "%.17g"
        spec, values = cli._block_values(np.tile([0.0, -0.0, 1.0], 40), cache)
        assert spec == "%s" and values[:3] == ["0", "-0", "1"]
        # the cache keeps the block's texts by bits for the next block
        assert cache[1].tolist() == ["-0", "0", "1"]
        spec, values = cli._block_values(np.tile([1.0, 2.5], 40), cache)
        assert spec == "%s" and values[:2] == ["1", "2.5"]
        assert cache[1].tolist() == ["1", "2.5"]

    def test_memory_is_per_block(self, tmp_path):
        # a 2**17-row sample table, one float column with 700 values and one
        # mostly distinct: a 2048-row block peaks near 0.5 MiB, while the
        # float columns as whole Python lists would hold 4 MiB each
        m = 2**17
        rng = np.random.default_rng(5)
        columns = [np.arange(m), np.full(m, 4), rng.choice(rng.random(700) + 1.0, m),
                   rng.random(m)]
        cfg = {"format": "csv", "seed": 1, "out": None}
        tracemalloc.start()
        try:
            write_table(str(tmp_path), "samples", ["replicate", "n", "R", "C"], columns, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_floats_round_trip(self, data):
        # one column mostly repeats (formatted per distinct value), one is
        # mostly distinct; nan has no bits to keep and is left out
        floats = st.floats(allow_nan=False) | st.sampled_from(EDGE_FLOATS)
        pool = data.draw(st.lists(floats, min_size=1, max_size=4))
        m = data.draw(st.integers(1, 40))
        few = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m)))
        many = np.array(data.draw(st.lists(floats, min_size=m, max_size=m)))
        with tempfile.TemporaryDirectory() as outdir:
            for fmt in ("csv", "json"):
                cfg = {"format": fmt, "seed": 1, "out": None}
                path = write_table(outdir, "t", ["few", "many"], [few, many], cfg)
                if fmt == "csv":
                    with open(path) as fh:
                        rows = [line.rstrip("\n").split(",") for line in fh][2:]
                else:
                    with open(path) as fh:
                        rows = json.load(fh)["rows"]
                back = np.array([[float(v) for v in row] for row in rows]).reshape(m, 2)
                assert back[:, 0].tobytes() == few.tobytes()
                assert back[:, 1].tobytes() == many.tobytes()


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

    def test_fit_takes_the_law_its_sweep_was_sampled_under(self, tmp_path, capsys):
        assert main(["sweep", "--model", "reg:2", "--n", "2..9", "--dist", "twopoint:0.5,1.5",
                     "--reps", "300", "--out", str(tmp_path)]) == 0
        table = str(tmp_path / "sweep.csv")
        # no --dist means the default uniform law, which the table was not sampled under
        for argv in ([], ["--dist", "unif:0.5,1.5"], ["--dist", "twopoint:0.5,1.5,0.4"]):
            out = tmp_path / "wrong"
            assert main(["fit", "--sweep-csv", table, *argv, "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith("error: dist: ")
            assert not out.exists()
        # another spelling of the same law
        for i, law in enumerate(["twopoint:0.5,1.5,0.5", "disc:1.5:0.5,0.5:0.5"]):
            out = tmp_path / f"same{i}"
            assert main(["fit", "--sweep-csv", table, "--dist", law, "--out", str(out)]) == 0
            fit = json.loads((out / "fit.json").read_text())
            assert (fit["mu"], fit["sigma2"]) == (1.0, 0.25)

    def test_fit_reads_a_table_without_a_stamp_under_any_law(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("n,mean_R,se_R\n" + "".join(f"{n},{n - 0.3},0.1\n" for n in range(2, 10)))
        assert main(["fit", "--sweep-csv", str(path), "--dist", "unif:1,3",
                     "--out", str(tmp_path)]) == 0
        fit = json.loads((tmp_path / "fit.json").read_text())
        assert (fit["mu"], fit["sigma2"]) == (2.0, 1.0 / 3.0)

    def test_fit_refuses_a_law_whose_moments_overflow(self, tmp_path, capsys):
        # (b - a)**2 of unif:1,1e200 overflowed in a traceback (exit 1); the
        # sweep itself still overflows in its jackknife, a separate finding
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["sweep", "--model", "reg:2", "--n", "2..8", "--dist", "unif:1,1e200",
                         "--reps", "3", "--out", str(tmp_path)]) == 0
        out = tmp_path / "fit"
        assert main(["fit", "--sweep-csv", str(tmp_path / "sweep.csv"), "--dist",
                     "unif:1,1e200", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("guard: dist: unif:1,1e200: ")
        assert not out.exists()

    def test_fit_refuses_an_atom_whose_square_overflows(self, tmp_path, capsys):
        # const:1e300 has variance 0, but its closed form E[X^2] - E[X]^2 is
        # inf - inf: fit.json was written with NaN tokens, and exit 0
        path = tmp_path / "sweep.csv"
        path.write_text("n,mean_R,se_R\n" + "".join(f"{n},{n}.5,0.1\n" for n in range(2, 9)))
        out = tmp_path / "out"
        assert main(["fit", "--sweep-csv", str(path), "--dist", "const:1e300",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("guard: dist: const:1e300: ")
        assert not out.exists()

    def test_fit_refuses_a_malformed_stamp(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        path.write_text("# provenance: [1, 2]\nn,mean_R,se_R\n"
                        + "".join(f"{n},{n - 0.3},0.1\n" for n in range(2, 10)))
        out = tmp_path / "out"
        assert main(["fit", "--sweep-csv", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: sweep_csv: ")
        assert not out.exists()


class TestOtherCommands:
    def test_constants_table(self, tmp_path):
        code = main([
            "constants", "--dist", "twopoint:1,2",
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
        (["flows", "--model", "reg:2", "--n", "13", "--dist", "twopoint:0.5,1.5",
          "--instances", "4"], ["flow_dump.csv"]),
        (["flows", "--model", "reg:2", "--n", "5", "--instances", "6", "--format", "json"],
         ["flow_dump.json"]),
        (["oracle-check", "--model", "gw:1:0.5,2:0.5", "--n", "2..5", "--instances", "9"],
         ["oracle_gaps.csv"]),
    ], ids=["gw", "flows", "flows-two-blocks", "flows-json", "oracle-check"])
    def test_workers_byte_identical(self, tmp_path, argv, names):
        main(argv + ["--workers", "1", "--out", str(tmp_path / "w1")])
        main(argv + ["--workers", "2", "--out", str(tmp_path / "w2")])
        for name in names:
            assert read(tmp_path / "w1" / name) == read(tmp_path / "w2" / name)

    # branching trees built as forests (stats._tree_chunk): several forests
    # in one chunk at one worker, one per chunk at two; the sha256 of each
    # artifact as the per-tree builder wrote it
    @pytest.mark.parametrize("argv, digests", [
        (["gw", "--model", "gw:1:0.5,2:0.5", "--dist", "unif:0.5,1.5", "--n", "10",
          "--trees", "60"],
         {"gw_records.csv": "6064d132ebccd100b789e294df70a9834c5f5b7df4a1e5819edaab88848a035e",
          "gw_summary.json": "ee4d06709fabebdef0fab64ee77ab0062ab8fecb8aa62a0635227d2dc0cc6e26"}),
        (["gw", "--model", "gw:1:0.4,2:0.3,3:0.3", "--dist", "disc:0.5:0.3,1:0.3,1.5:0.4",
          "--n", "7", "--trees", "50"],
         {"gw_records.csv": "30e9ea5e9c5b1e3b0fac0ae2b2f4ab7fbce28b755f75af797c12918e58230626",
          "gw_summary.json": "de0a3371ad8bc2b5d1848978bee6168e85820d8abab4deffa44e29c4c1b32dfc"}),
        (["sample", "--model", "gw:1:0.5,2:0.5", "--dist", "unif:0.5,1.5", "--n", "10",
          "--reps", "60"],
         {"samples.csv": "e68857ca11acaf478e45194dd7465c14c884ea361e06ec441b734f3918ea7588"}),
    ], ids=["gw", "gw-three-atoms", "sample-gw"])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_branching_forests_keep_their_bytes(self, tmp_path, argv, digests, workers):
        assert main(argv + ["--seed", "4", "--workers", workers, "--out", str(tmp_path)]) == 0
        for name, digest in digests.items():
            assert hashlib.sha256(read(tmp_path / name)).hexdigest() == digest, name

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

    def test_tails_on_a_constant_law(self, tmp_path):
        code = main(["tails", "--n", "3", "--reps", "100", "--dist", "const:1",
                     "--t-grid", "0,0.5", "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "tails.csv").read_text().strip().split("\n")
        assert [ln.split(",")[-1] for ln in lines[2:]] == ["2", "0"]


def strict_json(text):
    """JSON as RFC 8259 defines it: NaN, Infinity and -Infinity fail."""
    def refuse(token):
        raise AssertionError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def test_json_artifacts_hold_only_standard_json(tmp_path):
    sweep_csv = tmp_path / "sweep" / "sweep.csv"
    calls = {
        "sweep": ["sweep", "--n", "2..7", "--reps", "50"],
        "fit": ["fit", "--sweep-csv", str(sweep_csv)],
        "flows": ["flows", "--n", "3", "--instances", "2"],
        "gw": ["gw", "--n", "4", "--trees", "20"],
        "gw-constant-trees": ["gw", "--model", "gw:2:1", "--n", "3", "--trees", "5",
                              "--dist", "const:1"],
        "gw-one-tree": ["gw", "--trees", "1"],
        "constants": ["constants"],
        "constants-constant-law": ["constants", "--dist", "const:1"],
        "tails-json": ["tails", "--n", "3", "--reps", "100", "--dist", "const:1",
                       "--t-grid", "0,0.5", "--format", "json"],
    }
    for name, argv in calls.items():
        assert main([*argv, "--out", str(tmp_path / name)]) == 0, name
    docs = {f"{p.parent.name}/{p.name}": strict_json(p.read_text())
            for p in tmp_path.glob("*/*.json")}
    assert sorted(docs) == sorted([
        "constants/constants.json", "constants-constant-law/constants.json",
        "fit/fit.json", "flows/flow_report.json", "gw/gw_summary.json",
        "gw-constant-trees/gw_summary.json", "gw-one-tree/gw_summary.json",
        "tails-json/tails.json"])
    # a sample without spread has no correlation
    for name in ("gw-constant-trees", "gw-one-tree"):
        assert docs[name + "/gw_summary.json"]["corr_scaled_R_vs_inv_W"] is None
    assert -1.0 <= docs["gw/gw_summary.json"]["corr_scaled_R_vs_inv_W"] <= 1.0


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

    @pytest.mark.parametrize("argv", [
        ["sample", "--n", "3", "--reps", str(2**32 + 1)],
        ["tails", "--n", "3", "--reps", str(2**40)],
        ["sweep", "--n", "3,4", "--reps", f"3:5,4:{2**32 + 1}"],
        ["gw", "--n", "3", "--trees", str(2**32 + 1)],
        ["flows", "--n", "3", "--instances", str(2**32 + 1)],
        ["oracle-check", "--n", "2..4", "--instances", str(2**32 + 1)],
    ], ids=["sample", "tails", "sweep", "gw", "flows", "oracle-check"])
    def test_stream_index_past_one_word_is_exit_3(self, tmp_path, capsys, monkeypatch, argv):
        from treeohm import stats

        # the guard must come before the replicate map allocates or draws
        def no_work(*args, **kwargs):
            raise AssertionError("reached the replicate map past the stream guard")

        monkeypatch.setattr(stats, "_chunked", no_work)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("guard: ") and "2**32 - 1" in err
        assert not out.exists()

    def test_stream_count_at_the_limit_passes_the_guard(self):
        from treeohm.stats import _check_streams

        _check_streams("reps", 2**32)
        with pytest.raises(GuardError):
            _check_streams("reps", 2**32 + 1)

    @pytest.mark.parametrize("argv, option", [
        (["sample", "--n", "1", "--reps", str(2**32)], "reps"),
        (["tails", "--n", "3", "--reps", str(MEMORY_GUARD + 1)], "reps"),
        (["sweep", "--n", "3,4", "--reps", f"3:5,4:{MEMORY_GUARD + 1}"], "reps"),
        (["rde", "--pool-size", str(2**40), "--levels", "1"], "pool_size"),
        (["rde", "--pool-size", str(MEMORY_GUARD // 4 + 1), "--levels", "4"], "pool_size"),
    ], ids=["sample", "tails", "sweep-later-depth", "rde-pool", "rde-levels"])
    def test_count_past_the_memory_guard_is_exit_3(self, tmp_path, capsys, monkeypatch,
                                                  argv, option):
        from treeohm import model as model_module
        from treeohm import stats

        # the guard must come before any result array is allocated or drawn into
        def no_work(*args, **kwargs):
            raise AssertionError("allocated or drew past the memory guard")

        monkeypatch.setattr(model_module.RngStream, "uniforms", no_work)
        monkeypatch.setattr(stats, "_chunked", no_work)
        monkeypatch.setattr(stats, "dist_sample_block", no_work)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"guard: {option}: ") and str(MEMORY_GUARD) in err
        assert not out.exists()

    @pytest.mark.parametrize("count", [MEMORY_GUARD + 1, 2**58])
    def test_branching_tree_past_the_guard_is_exit_3(self, tmp_path, capsys, count):
        # one node of 2^25 + 1 (or 2^58) children: refused while they are
        # pending, before any draw or list is sized by their count
        out = tmp_path / "out"
        argv = ["gw", "--model", f"gw:1:0.5,{count}:0.5", "--dist", "const:1",
                "--n", "2", "--trees", "6", "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("guard: branching tree has at least") and str(MEMORY_GUARD) in err
        assert not out.exists()

    def test_replicate_count_at_the_memory_guard_passes(self):
        from treeohm.stats import _check_reps

        _check_reps(MEMORY_GUARD)
        with pytest.raises(GuardError, match="replicate guard"):
            _check_reps(MEMORY_GUARD + 1)

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
        (["tails", "--n", "3", "--t-grid", "0.5,nan"], "t_grid"),
        (["sample", "--n", "3", "--lam", "0"], "lam"),
        (["sample", "--n", "3", "--lam", "-0.0"], "lam"),
        (["sample", "--n", "3", "--lam", "inf"], "lam"),
        (["sample", "--n", "3", "--reps", "0"], "reps"),
        (["sweep", "--n", "3,4", "--reps", "3:0,4:5"], "reps"),
        (["sweep", "--n", "4", "--reps", "1"], "reps"),
        (["tails", "--n", "4", "--reps", "50"], "reps"),
        (["sample", "--seed", "-1"], "seed"),
        (["rde", "--seed", "-1"], "seed"),
        (["flows", "--model", "reg:3", "--n", "3"], "model"),
        (["flows", "--n", "3", "--lam", "1.5"], "lam"),
    ], ids=["unif-inf", "disc-inf", "disc-nan-prob", "disc-nan-value", "gw-nan-prob",
            "const-inf", "t-grid-nan", "lam-0", "lam-minus-0", "lam-inf", "sample-reps-0",
            "sweep-reps-0", "sweep-reps-1", "tails-reps-50", "sample-seed-negative",
            "rde-seed-negative", "flows-ternary", "flows-lam"])
    def test_out_of_domain_number_rejected(self, tmp_path, capsys, argv, option):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {option}:")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["constants", "--n", "1..1000000000"],
        ["sweep", "--n", "1..1000000000", "--reps", "2"],
    ], ids=["constants", "sweep"])
    def test_depth_range_counted_before_it_is_built(self, tmp_path, capsys, argv):
        import tracemalloc

        out = tmp_path / "out"
        tracemalloc.start()
        try:
            assert main(argv + ["--out", str(out)]) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        err = capsys.readouterr().err
        assert err.startswith("guard: n: 1000000000 depths") and str(MEMORY_GUARD) in err
        assert not out.exists()

    def test_depth_range_at_the_guard_is_counted(self):
        lo = 10**12
        assert resolve_ns({"n": f"{lo}..{lo + 2}"}) == [lo, lo + 1, lo + 2]
        with pytest.raises(GuardError, match="n: "):
            resolve_ns({"n": f"{lo}..{lo + MEMORY_GUARD}"})
        with pytest.raises(ValidationError, match="n: depths must be >= 1"):
            resolve_ns({"n": f"0..{10**30}"})

    @pytest.mark.parametrize("literal", ["3..2", "18..14"])
    def test_inverted_depth_range_is_empty(self, tmp_path, capsys, literal):
        out = tmp_path / "out"
        assert main(["sweep", "--n", literal, "--reps", "2", "--out", str(out)]) == 2
        lo, hi = literal.split("..")
        assert capsys.readouterr().err == (f"error: n: depth range {literal!r} is empty "
                                           f"({lo} > {hi})\n")
        assert not out.exists()
        # a range from 0 or below keeps its message, inverted or not
        for text in ("0..5", "0..-1"):
            with pytest.raises(ValidationError, match=f"n: depths must be >= 1, got '{text}'"):
                resolve_ns({"n": text})

    @pytest.mark.parametrize("argv", [
        ["sample", "--n", "4", "--reps", "4:100,4:7"],
        ["sweep", "--n", "4,5", "--reps", "default:10,default:20"],
        ["sweep", "--n", "4,5", "--reps", "default:10,5:20,05:30"],
        ["sample", "--n", "4", "--reps", "4:100,7:50"],
        ["sweep", "--n", "4..6", "--reps", "default:10,3:20"],
        ["sample", "--n", "4", "--reps", "4:100,7"],
    ], ids=["key-twice", "default-twice", "depth-spelled-twice", "depth-off-grid",
            "range-off-grid", "entry-without-count"])
    def test_reps_map_never_drops_a_count(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: reps: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["sample", "--model", "reg:2", "--n", "3", "--dist", "twopoint:0.5,1e308",
          "--lam", "10", "--reps", "3"], "overflows"),
        (["sample", "--n", "3", "--dist", "const:1", "--lam", "1e-200"], "underflows"),
        (["sweep", "--n", "3..5", "--dist", "const:1", "--lam", "1e-110", "--reps", "3"],
         "underflows"),
        (["oracle-check", "--n", "2,3", "--lam", "1e-200", "--instances", "3"], "underflows"),
        (["gw", "--model", "gw:2:1", "--n", "3", "--lam", "1e300"], "lam**3 overflows"),
        (["sample", "--n", "3", "--reps", "5", "--dist", "const:1e-320"], "underflows"),
        (["gw", "--model", "gw:2:1", "--dist", "const:1e-308", "--n", "3", "--trees", "5"],
         "underflows"),
    ], ids=["sample-overflow", "sample-underflow", "sweep-underflow", "oracle-underflow",
            "gw-scale-overflow", "sample-conductance-overflow", "gw-conductance-overflow"])
    def test_resistance_range_guarded_before_drawing(self, tmp_path, capsys, monkeypatch,
                                                     argv, message):
        from treeohm import model as model_module

        def no_draws(*args, **kwargs):
            raise AssertionError("drew uniforms before the range guard")

        monkeypatch.setattr(model_module.RngStream, "uniforms", no_draws)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("guard: lam") and message in err
        assert "dist" in err or argv[0] == "gw"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["constants", "--dist", "unif:1e-80,1"],
        ["constants", "--dist", "unif:1e-300,1"],
        ["tails", "--n", "3", "--reps", "200", "--dist", "unif:1e-100,1e100"],
        ["flows", "--n", "3", "--dist", "unif:1e-100,1e100"],
        ["tails", "--n", "3", "--reps", "200", "--dist", "unif:1e-320,1"],
        ["flows", "--n", "3", "--dist", "unif:1e-320,1"],
        ["rde", "--dist", "twopoint:1e-300,1e300", "--pool-size", "1000", "--levels", "3"],
        ["rde", "--dist", "twopoint:1e-160,1", "--pool-size", "1000", "--levels", "2"],
    ], ids=["constants-overflow", "constants-law", "tails-overflow", "flows-overflow",
            "tails-zero-division", "flows-zero-division", "rde-overflow",
            "rde-sum-of-squares"])
    def test_bound_constant_out_of_range_is_exit_3(self, tmp_path, capsys, monkeypatch, argv):
        from treeohm import model as model_module

        def no_draws(*args, **kwargs):
            raise AssertionError("drew uniforms before the bound constants")

        monkeypatch.setattr(model_module.RngStream, "uniforms", no_draws)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("guard: a=") and ", b=" in err
        assert not out.exists()

    def test_rde_near_the_guard_runs(self, tmp_path):
        # 1000 / a**2 = 1e303 is still finite: every moment is finite and positive
        assert main(["rde", "--dist", "twopoint:1e-150,1", "--pool-size", "1000",
                     "--levels", "3", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "rde.csv").read_text().strip().split("\n")[2:]
        values = np.array([[float(v) for v in row.split(",")[2:]] for row in rows])
        assert values.shape == (3, 4) and np.all(np.isfinite(values)) and np.all(values > 0)

    @pytest.mark.parametrize("grid", ["0:1e-300:1e-310", "0:1:1e-9", "0:33554432:1"])
    def test_t_grid_over_guard_is_exit_3(self, tmp_path, capsys, monkeypatch, grid):
        def no_grid(*args, **kwargs):
            raise AssertionError("allocated the grid past the guard")

        monkeypatch.setattr(np, "linspace", no_grid)
        out = tmp_path / "out"
        assert main(["tails", "--n", "3", "--reps", "200", "--t-grid", grid,
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("guard: t_grid: ")
        assert not out.exists()

    @pytest.mark.parametrize("row", [
        "0,0.5,0.1", "-1,0.5,0.1", "1.5,2.0,0.1", "nan,2.0,0.1",
        "1,nan,0.1", "1,inf,0.1", "1,1.5,inf", "1,1.5,nan",
    ], ids=["n-0", "n-negative", "n-fraction", "n-nan", "mean-nan", "mean-inf",
            "se-inf", "se-nan"])
    def test_fit_table_values_validated(self, tmp_path, capsys, row):
        path = tmp_path / "sweep.csv"
        path.write_text("n,mean_R,se_R\n" + row + "\n"
                        + "".join(f"{n},{n}.5,0.1\n" for n in range(2, 8)))
        out = tmp_path / "out"
        assert main(["fit", "--sweep-csv", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: sweep_csv:")
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

    _BAD_GRIDS = {"0:1:0": "cannot lead", "1:0:0.1": "cannot lead", "0:1:-0.1": "cannot lead",
                  "0:inf:1": "cannot lead", "0:1": "malformed", "0:1:x": "malformed"}

    @pytest.mark.parametrize("grid, message", _BAD_GRIDS.items(), ids=list(_BAD_GRIDS))
    def test_bad_t_grid_rejected(self, tmp_path, capsys, grid, message):
        code = main(["tails", "--model", "reg:2", "--n", "3", "--dist", "const:1",
                     "--reps", "100", "--t-grid", grid, "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: t_grid: ") and message in err

    @pytest.mark.parametrize("grid", ["-1,0.5", "0,-0.5", "-1:1:0.5", "-0.5:-0.1:0.1"],
                             ids=["list", "list-later-entry", "range", "range-all-negative"])
    def test_negative_t_grid_refused_before_drawing(self, tmp_path, capsys, monkeypatch,
                                                    grid):
        from treeohm import model as model_module
        from treeohm import stats

        def no_draws(*args, **kwargs):
            raise AssertionError("drew replicates before the t_grid check")

        monkeypatch.setattr(model_module.RngStream, "uniforms", no_draws)
        monkeypatch.setattr(stats, "_chunked", no_draws)
        out = tmp_path / "out"
        assert main(["tails", "--n", "3", "--reps", "100", "--dist", "const:1",
                     f"--t-grid={grid}", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: t_grid: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv, code, message", [
        (["tails", "--n", "12", "--reps", "99"], 2, "error: reps: tail estimation needs m >= 100"),
        (["oracle-check", "--n", "2..13", "--instances", "12"], 3,
         "guard: oracle handles at most 4096 nodes, got 8191 at n=13"),
        (["oracle-check", "--model", "gw:2:1", "--n", "2..12", "--instances", "11",
          "--dist", "const:1"], 3,
         "guard: oracle handles at most 4096 nodes, got at least 8191 at n=12"),
    ], ids=["tails-reps", "oracle-depth", "oracle-branching-depth"])
    def test_refused_before_drawing(self, tmp_path, capsys, monkeypatch, argv, code, message):
        from treeohm import model as model_module

        def no_draws(*args, **kwargs):
            raise AssertionError("drew a tree before the refusal")

        monkeypatch.setattr(model_module.RngStream, "uniforms", no_draws)
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == code
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_oracle_depth_guard_counts_only_the_depths_drawn(self, tmp_path):
        # 11 instances reach n = 2..12 only, so n = 13's 8191 nodes are never built
        assert main(["oracle-check", "--n", "2..13", "--instances", "11",
                     "--out", str(tmp_path)]) == 0

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


def _loaded_by_import(module, argv=None):
    """Whether a fresh `import treeohm.cli`, followed by a successful
    `main(argv)` when argv is given, loads the named module."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = f"assert treeohm.cli.main({argv!r}) == 0; " if argv else ""
    code = f"import sys, treeohm.cli; {run}print({module!r} in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout.split()[-1] == "True"


def test_import_leaves_numpy_random_unloaded():
    # range streams name numpy.random only when the first range is built
    assert not _loaded_by_import("numpy.random")


def test_import_leaves_the_process_pool_unloaded():
    # only a pooled _chunked call imports the pool and multiprocessing
    assert not _loaded_by_import("multiprocessing")


# a tiny run of each subcommand; fit reads a sweep table written first
TINY_RUNS = {
    "sample": ["sample", "--n", "4", "--reps", "20"],
    "sweep": ["sweep", "--n", "2..7", "--reps", "20"],
    "fit": ["fit"],
    "flows": ["flows", "--n", "4", "--instances", "2"],
    "oracle-check": ["oracle-check", "--n", "2..3", "--instances", "3"],
    "rde": ["rde", "--pool-size", "100", "--levels", "2"],
    "gw": ["gw", "--n", "4", "--trees", "10"],
    "constants": ["constants", "--n", "1..3"],
    "tails": ["tails", "--n", "4", "--reps", "100"],
}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_no_subcommand_loads_numpy_ma(command, tmp_path):
    # in numpy 2.4, np.unique without return_* and np.median import
    # numpy.ma; no subcommand needs it
    argv = [*TINY_RUNS[command], "--out", str(tmp_path)]
    if command == "fit":
        assert main([*TINY_RUNS["sweep"], "--out", str(tmp_path)]) == 0
        argv += ["--sweep-csv", str(tmp_path / "sweep.csv")]
    assert not _loaded_by_import("numpy.ma", argv)


def _module_run(args, cwd=None):
    """`python -m treeohm ARGS` in a fresh process on this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "treeohm", *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


class TestEntryPoints:
    _SAMPLE = ["sample", "--model", "reg:2", "--n", "7", "--dist", "twopoint:0.5,1.5",
               "--reps", "40", "--seed", "5"]
    _SWEEP = ["sweep", "--model", "reg:3", "--n", "2..5", "--dist", "unif:0.5,1.5",
              "--reps", "30", "--seed", "2"]

    def test_python_dash_m_runs_the_cli(self, tmp_path):
        done = _module_run([*self._SAMPLE, "--out", str(tmp_path / "ok")])
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == str(tmp_path / "ok" / "samples.csv")
        done = _module_run([*self._SAMPLE, "--workers", "0", "--out", str(tmp_path / "bad")])
        assert done.returncode == 2
        assert done.stderr.startswith("error: ")
        assert not (tmp_path / "bad").exists()

    def test_main_reuses_one_parser_across_calls(self, tmp_path, capsys):
        # in one process: a run, a refused value, an unknown flag, another
        # subcommand; each artifact is the one a fresh process writes
        assert cli._build_parser() is cli._build_parser()
        assert main([*self._SAMPLE, "--out", str(tmp_path / "same" / "sample")]) == 0
        assert main([*self._SAMPLE, "--reps", "0", "--out", str(tmp_path / "same" / "x")]) == 2
        with pytest.raises(SystemExit) as exc:
            main([*self._SWEEP, "--bogus", "1", "--out", str(tmp_path / "same" / "y")])
        assert exc.value.code == 2
        assert main([*self._SWEEP, "--out", str(tmp_path / "same" / "sweep")]) == 0
        capsys.readouterr()
        for name, args in (("sample", self._SAMPLE), ("sweep", self._SWEEP)):
            done = _module_run([*args, "--out", str(tmp_path / "fresh" / name)])
            assert done.returncode == 0, done.stderr
        same, fresh = _tree_bytes(tmp_path / "same"), _tree_bytes(tmp_path / "fresh")
        assert sorted(same) == ["sample/samples.csv", "sweep/sweep.csv"]
        assert same == fresh
