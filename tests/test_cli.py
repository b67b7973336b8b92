import io
import json

import pytest

from securebc import (example_three_user, example_two_user, load_channel_set,
                      save_channel_set)
from securebc.cli import cli_main

FAST_CFG = {"objective_tol": 1e-7, "lambda_tol": 1e-4}


@pytest.fixture()
def example_file(tmp_path):
    path = str(tmp_path / "ex1.json")
    save_channel_set(example_two_user(), path)
    return path


@pytest.fixture()
def three_user_file(tmp_path):
    path = str(tmp_path / "ex2.json")
    save_channel_set(example_three_user(), path)
    return path


@pytest.fixture()
def fast_cfg_file(tmp_path):
    path = str(tmp_path / "cfg.json")
    with open(path, "w") as fh:
        json.dump(FAST_CFG, fh)
    return path


class TestGenChannels:
    def test_deterministic_files(self, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        args = ["gen-channels", "--seed", "7", "--K", "2", "--nt", "2",
                "--nk", "2,1", "--ne", "1", "--power", "1.5"]
        assert cli_main(args + ["--output", a]) == 0
        assert cli_main(args + ["--output", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()
        ch = load_channel_set(a)
        assert (ch.num_users, ch.n_t, ch.n_k, ch.n_e) == (2, 2, (2, 1), 1)
        assert ch.power == 1.5

    def test_dash_writes_to_stdout(self, tmp_path, monkeypatch, capsys):
        # "-" names standard output, as it does for the other output flags
        monkeypatch.chdir(tmp_path)
        args = ["gen-channels", "--seed", "7", "--K", "2", "--nt", "2",
                "--nk", "2,1", "--ne", "1", "--power", "1.5"]
        assert cli_main(args + ["--output", "-"]) == 0
        text = capsys.readouterr().out
        assert cli_main(args + ["--output", "ch.json"]) == 0
        assert text == (tmp_path / "ch.json").read_text()
        ch = load_channel_set(io.StringIO(text))
        assert (ch.num_users, ch.n_k, ch.n_e, ch.power) == (2, (2, 1), 1, 1.5)
        assert not (tmp_path / "-").exists()

    def test_scalar_nk_broadcasts(self, tmp_path):
        out = str(tmp_path / "c.json")
        assert cli_main(["gen-channels", "--seed", "1", "--K", "3", "--nt", "2",
                         "--nk", "2", "--ne", "1", "--power", "1",
                         "--output", out]) == 0
        assert load_channel_set(out).n_k == (2, 2, 2)


class TestSolve:
    def test_solve_reports_benchmark_sum(self, example_file, capsys):
        assert cli_main(["solve", "--channels", example_file,
                         "--weights", "0.5,0.5", "--order", "1,2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["sum_rate"] == pytest.approx(1.5977, abs=1e-2)
        assert doc["order"] == [1, 2]
        assert doc["termination"] in ("converged", "max_iters", "stalled")
        assert len(doc["plan"]) == 2

    def test_theorem_order_resolution(self, example_file, fast_cfg_file, capsys):
        assert cli_main(["solve", "--channels", example_file,
                         "--weights", "0.2,0.8", "--config", fast_cfg_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["order"] == [2, 1]


class TestRegion:
    def test_csv_deterministic_with_header(self, example_file, fast_cfg_file,
                                           tmp_path):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        args = ["region", "--channels", example_file, "--step", "0.5",
                "--config", fast_cfg_file]
        assert cli_main(args + ["--output", a]) == 0
        assert cli_main(args + ["--output", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()
        lines = open(a).read().strip().splitlines()
        assert lines[0] == "w_1,w_2,R_1,R_2,wsr,order"
        assert len(lines) == 4
        row = lines[2].split(",")
        assert row[-1] in ("1>2", "2>1")
        float(row[2])  # rates parse as numbers

    def test_hull_output(self, example_file, fast_cfg_file, tmp_path):
        out = str(tmp_path / "r.csv")
        hull = str(tmp_path / "h.csv")
        assert cli_main(["region", "--channels", example_file, "--step", "0.5",
                         "--config", fast_cfg_file, "--output", out,
                         "--hull-output", hull]) == 0
        lines = open(hull).read().strip().splitlines()
        assert lines[0] == "R_1,R_2"
        assert len(lines) >= 4  # origin plus at least three achieved points

    def test_dash_writes_both_tables_to_stdout(self, example_file, fast_cfg_file,
                                               tmp_path, monkeypatch, capsys):
        # "-" names standard output for --output and --hull-output alike
        monkeypatch.chdir(tmp_path)
        args = ["region", "--channels", example_file, "--step", "0.5",
                "--config", fast_cfg_file]
        assert cli_main(args + ["--output", "r.csv", "--hull-output", "h.csv"]) == 0
        capsys.readouterr()
        assert cli_main(args + ["--output", "-", "--hull-output", "-"]) == 0
        table, hull = (tmp_path / "r.csv").read_text(), (tmp_path / "h.csv").read_text()
        assert capsys.readouterr().out == table + hull
        assert not (tmp_path / "-").exists()

    def test_hull_output_skipped_beyond_two_users(self, three_user_file, fast_cfg_file,
                                                  tmp_path, capsys):
        hull = tmp_path / "h.csv"
        assert cli_main(["region", "--channels", three_user_file, "--step", "0.5",
                         "--config", fast_cfg_file, "--output", str(tmp_path / "r.csv"),
                         "--hull-output", str(hull)]) == 0
        assert "hull output skipped" in capsys.readouterr().err
        assert not hull.exists()

    def test_fixed_order_policy(self, example_file, fast_cfg_file, tmp_path):
        out = tmp_path / "r.csv"
        assert cli_main(["region", "--channels", example_file, "--step", "0.5",
                         "--config", fast_cfg_file, "--policy", "2,1",
                         "--output", str(out)]) == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 3 and all(row.split(",")[-1] == "2>1" for row in rows)


class TestCompareOrders:
    def test_verdict_line(self, example_file, fast_cfg_file, tmp_path, capsys):
        out = str(tmp_path / "orders.csv")
        assert cli_main(["compare-orders", "--channels", example_file,
                         "--weights", "0.3,0.7", "--config", fast_cfg_file,
                         "--output", out]) == 0
        verdict = capsys.readouterr().out.strip()
        assert verdict.startswith("best order [")
        assert "rule order [2,1]" in verdict
        assert "agreement: yes" in verdict
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "order,wsr,R_1,R_2"
        assert len(lines) == 3

    def test_failed_order_writes_nan_rates(self, example_file, fast_cfg_file, tmp_path,
                                           capsys, monkeypatch):
        import securebc.ordering as ordering_mod
        from test_ordering import failing_batch
        monkeypatch.setattr(ordering_mod, "solve_wsr_batch",
                            failing_batch((1, 2), RuntimeError("boom")))
        out = str(tmp_path / "orders.csv")
        assert cli_main(["compare-orders", "--channels", example_file,
                         "--weights", "0.3,0.7", "--config", fast_cfg_file,
                         "--output", out]) == 0
        assert (capsys.readouterr().out.strip()
                == "best order [2,1]; rule order [2,1]; agreement: yes")
        assert open(out).read().splitlines()[1] == "1>2,-inf,nan,nan"

    def test_three_user_verdict_names_expected_order(self, three_user_file,
                                                     fast_cfg_file, capsys):
        assert cli_main(["compare-orders", "--channels", three_user_file,
                         "--weights", "0.2,0.1,0.7",
                         "--config", fast_cfg_file]) == 0
        out = capsys.readouterr().out
        assert "best order [3,1,2]" in out


class TestDualityCheck:
    def test_passes(self, capsys):
        assert cli_main(["duality-check", "--seeds", "25"]) == 0
        out = capsys.readouterr().out
        assert "duality-check PASS" in out


class TestExitCodes:
    def test_usage_error_bad_weights(self, example_file, capsys):
        assert cli_main(["solve", "--channels", example_file,
                         "--weights", "0.5,oops"]) == 1

    def test_usage_error_weight_count(self, example_file):
        assert cli_main(["solve", "--channels", example_file,
                         "--weights", "1.0"]) == 1

    @pytest.mark.parametrize("argv", [
        ["solve", "--weights", "0.5,0.5", "--order", "1,1"],
        ["solve", "--weights", "0.5,0.5", "--order", "2,1,3"],
        ["region", "--step", "0.5", "--policy", "1,1"],
        ["region", "--step", "0.5", "--policy", "2,1,3"],
        ["compare-orders", "--weights", "0.2,0.3,0.5"],
    ], ids=["solve-repeated-order", "solve-long-order", "region-repeated-policy",
            "region-long-policy", "compare-orders-weight-count"])
    def test_usage_error_order_or_weights_off_the_user_count(self, example_file, capsys,
                                                             argv):
        assert cli_main(argv + ["--channels", example_file]) == 1
        assert capsys.readouterr().err.startswith("usage error")

    def test_usage_error_missing_file(self, tmp_path):
        assert cli_main(["solve", "--channels", str(tmp_path / "nope.json"),
                         "--weights", "0.5,0.5"]) == 1

    def test_usage_error_unknown_config_key(self, example_file, tmp_path):
        cfg = str(tmp_path / "cfg.json")
        with open(cfg, "w") as fh:
            json.dump({"bogus_knob": 1}, fh)
        assert cli_main(["solve", "--channels", example_file,
                         "--weights", "0.5,0.5", "--config", cfg]) == 1

    def test_usage_error_bad_config_document(self, example_file, tmp_path, capsys):
        # malformed JSON, a non-object document, and an initial_plan, which a
        # JSON file cannot express as a CovariancePlan
        cfg = tmp_path / "cfg.json"
        for text in ("{not json", "[1, 2]",
                     json.dumps({"init_scheme": "provided", "initial_plan": [[1]]})):
            cfg.write_text(text)
            assert cli_main(["solve", "--channels", example_file,
                             "--weights", "0.5,0.5", "--config", str(cfg)]) == 1
            assert "usage error" in capsys.readouterr().err

    def test_usage_error_deeply_nested_config(self, example_file, tmp_path, capsys):
        # past its nesting limit the JSON decoder raises RecursionError
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"objective_tol": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert cli_main(["solve", "--channels", example_file,
                         "--weights", "0.5,0.5", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: config") and "Traceback" not in err

    def test_usage_error_region_step(self, example_file, capsys):
        for step in ("0", "-0.5", "1.5", "nan"):
            assert cli_main(["region", "--channels", example_file,
                             "--step", step]) == 1
            assert "usage error" in capsys.readouterr().err

    def test_usage_error_bad_iteration_cap(self, example_file, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cases = [("max_outer_iters", bad) for bad in (1.5, "5", 0, -3, True)]
        cases += [(tol, bad) for tol in ("objective_tol", "lambda_tol")
                  for bad in (float("inf"), float("nan"), True)]
        for key, bad in cases:
            cfg.write_text(json.dumps({key: bad}))
            assert cli_main(["solve", "--channels", example_file,
                             "--weights", "0.5,0.5", "--config", str(cfg)]) == 1
            err = capsys.readouterr().err
            assert "usage error" in err and "Traceback" not in err
        cfg.write_text(json.dumps({"inner_max_iters": 500}))
        assert cli_main(["solve", "--channels", example_file,
                         "--weights", "0.5,0.5", "--config", str(cfg)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_usage_error_gen_channel_sizes(self, tmp_path, capsys):
        out = tmp_path / "ch.json"
        good = {"--seed": "1", "--K": "2", "--nt": "2", "--nk": "2",
                "--ne": "1", "--power": "1.0", "--output": str(out)}
        for key, bad in (("--K", "0"), ("--nt", "0"), ("--ne", "0"),
                         ("--nk", "2,0"), ("--nk", "0"), ("--nk", "2,2,2"), ("--nk", "a"),
                         ("--power", "0"), ("--power", "-1"), ("--power", "inf"),
                         ("--power", "nan")):
            args = dict(good, **{key: bad})
            argv = ["gen-channels"] + [t for kv in args.items() for t in kv]
            assert cli_main(argv) == 1, (key, bad)
            assert "usage error" in capsys.readouterr().err
            assert not out.exists()

    def test_usage_error_negative_seed(self, tmp_path, capsys):
        # numpy's generators refuse a negative seed with a traceback
        out = tmp_path / "ch.json"
        for argv in (["gen-channels", "--seed", "-1", "--K", "2", "--nt", "2", "--nk", "2",
                      "--ne", "1", "--power", "1", "--output", str(out)],
                     ["duality-check", "--seeds", "1", "--seed", "-1"]):
            assert cli_main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error: --seed") and err.count("\n") == 1
        assert not out.exists()

    def test_region_step_below_two_user_floor(self, example_file, capsys):
        assert cli_main(["region", "--channels", example_file, "--step", "1e-9"]) == 2
        assert "UnsupportedK" in capsys.readouterr().err

    def test_usage_error_counts_below_one(self, example_file, capsys):
        for argv in (["duality-check", "--seeds", "0"],
                     ["duality-check", "--seeds", "-2"]):
            assert cli_main(argv) == 1
            assert "usage error" in capsys.readouterr().err

    def test_usage_error_duality_tolerance(self, capsys):
        # nan would pass every instance (no error exceeds it), and a negative
        # tolerance would fail every instance as a numerical failure
        for tol in ("nan", "-1", "0", "inf"):
            assert cli_main(["duality-check", "--seeds", "2", "--tol", tol]) == 1
            captured = capsys.readouterr()
            assert "usage error" in captured.err and "PASS" not in captured.out

    def test_non_finite_channel_exit_two(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"power": 1.0, "users": [{"H": [[[NaN, 0], [1, 0]]]}, '
                        '{"H": [[[1, 0], [0, 1]]]}], "eavesdropper": [[[1, 0], [0, 1]]]}')
        assert cli_main(["solve", "--channels", str(path),
                         "--weights", "0.5,0.5"]) == 2
        assert "ParseError" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        b'{"power": 1.0, "users": [{"H": [[{"re": 1, "im": 0}]]}], '
        b'"eavesdropper": [[[1, 0]]]}',
        b"\x80\x81{}",
    ], ids=["entry-object", "not-utf8"])
    def test_unreadable_channel_file_exit_two(self, tmp_path, capsys, text):
        # a non-number entry and an undecodable file are parse errors, not tracebacks
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        for argv in (["solve", "--weights", "1"], ["region", "--step", "0.5"],
                     ["compare-orders", "--weights", "1"]):
            assert cli_main(argv + ["--channels", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("ParseError: ") and err.count("\n") == 1

    def test_usage_error_missing_subcommand_args(self):
        assert cli_main(["solve"]) == 1

    def test_numerical_error_exit_two(self, tmp_path, capsys):
        doc = {
            "power": 1.0,
            "users": [{"H": [[[1, 0], [0, 0], [0, 0]]]}],
            "eavesdropper": [[[1, 0], [0, 0]]],
        }
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert cli_main(["solve", "--channels", path,
                         "--weights", "1.0"]) == 2
        assert "DimensionMismatch" in capsys.readouterr().err


class TestDirectoryPaths:
    # a directory where a file path goes is a usage error, not a traceback

    @staticmethod
    def _usage_error(argv, capsys):
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "Traceback" not in err

    def test_solve(self, example_file, tmp_path, capsys):
        self._usage_error(["solve", "--channels", str(tmp_path),
                           "--weights", "0.5,0.5"], capsys)
        self._usage_error(["solve", "--channels", example_file,
                           "--weights", "0.5,0.5", "--config", str(tmp_path)], capsys)

    def test_region(self, example_file, fast_cfg_file, tmp_path, capsys):
        self._usage_error(["region", "--channels", example_file, "--step", "1",
                           "--config", fast_cfg_file, "--output", str(tmp_path)],
                          capsys)

    def test_compare_orders(self, example_file, fast_cfg_file, tmp_path, capsys):
        self._usage_error(["compare-orders", "--channels", example_file,
                           "--weights", "0.3,0.7", "--config", fast_cfg_file,
                           "--output", str(tmp_path)], capsys)

    def test_gen_channels(self, tmp_path, capsys):
        self._usage_error(["gen-channels", "--seed", "1", "--K", "2", "--nt", "2",
                           "--nk", "2", "--ne", "1", "--power", "1",
                           "--output", str(tmp_path)], capsys)


def test_module_entry_point(tmp_path):
    # python -m securebc runs the same command line as the securebc script
    import os
    import subprocess
    import sys

    import securebc

    src = os.path.dirname(os.path.dirname(os.path.abspath(securebc.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = str(tmp_path / "ch.json")

    def run(seed):
        return subprocess.run(
            [sys.executable, "-m", "securebc", "gen-channels", "--seed", seed, "--K", "2",
             "--nt", "2", "--nk", "2", "--ne", "1", "--power", "1", "--output", out],
            env=env, capture_output=True, text=True, timeout=120)

    done = run("7")
    assert done.returncode == 0, done.stderr
    ch = load_channel_set(out)
    assert (ch.num_users, ch.n_t, ch.n_k, ch.n_e, ch.power) == (2, 2, (2, 2), 1, 1.0)
    done = run("-1")
    assert done.returncode == 1
    assert "usage error" in done.stderr


def test_readme_cli_lines_parse():
    # every command in README's CLI block parses, so a removed flag cannot
    # linger in the docs
    import shlex
    from pathlib import Path

    from securebc.cli import build_parser

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.replace("\\\n", " ").splitlines()
             if ln.startswith("securebc ")]
    assert len(lines) >= 5
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
