import json
import re
import shlex
from pathlib import Path

import pytest

from rankprice import load_instance, save_instance
from rankprice.cli import build_parser, main
from helpers import TABLE1


@pytest.fixture
def table1_path(tmp_path, table1):
    path = tmp_path / "table1.json"
    save_instance(table1, path)
    return str(path)


def test_gen_roundtrip(tmp_path, capsys):
    out = tmp_path / "gen.json"
    code = main(["gen", "--products", "2", "--customers", "8",
                 "--budget-lo", "18", "--budget-hi", "66",
                 "--avail", "1.0", "--seed", "3", "--out", str(out)])
    assert code == 0
    inst = load_instance(out)
    assert inst.num_products == 2 and inst.num_customers == 8
    assert "I=2 K=8" in capsys.readouterr().out


def test_eval_prints_assignment(table1_path, capsys):
    code = main(["eval", "--instance", table1_path, "--prices", "50,34"])
    assert code == 0
    out = capsys.readouterr().out
    assert "revenue: 236" in out
    assert "customer 1: buys nothing" in out
    assert "customer 2: buys product 1 at 50" in out


def test_eval_flags_off_grid_prices(table1_path, capsys):
    code = main(["eval", "--instance", table1_path, "--prices", "49,34"])
    assert code == 0
    assert "not on the budget grid" in capsys.readouterr().out


def test_eval_wrong_arity(table1_path, capsys):
    code = main(["eval", "--instance", table1_path, "--prices", "50"])
    assert code == 2
    assert "expected 2 prices" in capsys.readouterr().err


def test_exact_lists_optima(table1_path, capsys):
    code = main(["exact", "--instance", table1_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "optimum: 236" in out
    assert "34,66" in out and "50,34" in out and "66,34" in out


def test_export_lp(table1_path, tmp_path, capsys):
    out = tmp_path / "table1.lp"
    code = main(["export-lp", "--instance", table1_path, "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("\\ single-level rank pricing model")
    assert "Binaries" in text and text.rstrip().endswith("End")


def test_solve_writes_outputs(table1_path, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["solve", "--instance", table1_path, "--method", "vns",
                 "--init", "greedy", "--local-search", "sfrc",
                 "--l0", "50", "--q", "10", "--t", "25",
                 "--max-points", "500", "--seed", "1", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "best value: 236" in printed
    for name in ("summary.csv", "trace.csv", "percentiles.csv"):
        assert (out / name).exists()


def test_solve_genetic_default_q(table1_path, capsys):
    code = main(["solve", "--instance", table1_path, "--method", "genetic",
                 "--l0", "1000", "--t", "100", "--max-points", "1200", "--seed", "2"])
    assert code == 0
    assert "best value:" in capsys.readouterr().out


def test_solve_iterations_stop(table1_path, capsys):
    code = main(["solve", "--instance", table1_path, "--method", "naive",
                 "--l0", "10", "--t", "20", "--iterations", "3", "--seed", "0"])
    assert code == 0
    assert "evaluations: 60" in capsys.readouterr().out


def test_solve_time_limit_stop(table1_path, capsys):
    code = main(["solve", "--instance", table1_path, "--method", "vns",
                 "--l0", "10", "--t", "10", "--time-limit", "0.2", "--seed", "0"])
    assert code == 0
    assert "best value:" in capsys.readouterr().out


def test_solve_naive_tiny_time_limit_evaluates_one_vector(table1_path, capsys):
    code = main(["solve", "--instance", table1_path, "--method", "naive",
                 "--time-limit", "1e-9", "--seed", "0"])
    assert code == 0
    assert "evaluations: 1 " in capsys.readouterr().out


def test_solve_naive_dedup_exhausts_grid(table1_path, capsys):
    # 36 grid points in total: deduplicated sampling must cover them all
    code = main(["solve", "--instance", table1_path, "--method", "naive",
                 "--l0", "10", "--t", "10", "--max-points", "36",
                 "--seed", "0", "--dedup"])
    assert code == 0
    out = capsys.readouterr().out
    assert "best value: 236" in out
    assert "evaluations: 36" in out


def test_bench_runs_config(table1_path, tmp_path, capsys):
    config = {
        "instance_path": table1_path,
        "method": "vns",
        "init": "greedy",
        "pipeline": "sfrc",
        "params": {"l0": 20, "q": 5, "t": 10,
                   "stop": {"kind": "points", "limit": 100}},
        "runs": 4,
        "base_seed": 5,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "bench-out"
    code = main(["bench", "--config", str(cfg_path), "--runs", "6",
                 "--workers", "1", "--out", str(out), "--reference", "236"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "runs: 6" in printed
    assert "hit rate vs 236" in printed
    assert (out / "summary.csv").exists()


def test_readme_commands_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    commands = [
        shlex.split(line)
        for block in re.findall(r"```bash\n(.*?)```", readme, flags=re.S)
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("rankprice ")
    ]
    assert len(commands) == 6
    for argv in commands:
        build_parser().parse_args(argv[1:])


def test_missing_instance_fails_cleanly(capsys):
    code = main(["exact", "--instance", "/nonexistent/foo.json"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def _config_with_unknown_param(tmp_path, instance_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"instance_path": instance_path, "method": "vns",
                                "runs": 1, "params": {"l0": 20, "bogus": 1}}))
    return str(path)


# Each maps a valid bench config to a malformed one.
BAD_CONFIGS = {
    "no-method": lambda good: {k: v for k, v in good.items() if k != "method"},
    "misspelt-key": lambda good: dict(good, pipline="sfrc"),
    "stop-without-limit": lambda good: dict(good, params={"stop": {"kind": "points"}}),
    "runs-not-a-number": lambda good: dict(good, runs="two"),
    "ill-typed-param": lambda good: dict(good, params={"l0": "x"}),
    "not-an-object": lambda good: [1, 2],
    "params-seed": lambda good: dict(good, params=dict(good["params"], seed=5)),
    "init-twice": lambda good: dict(good, init="greedy",
                                    params=dict(good["params"], init="random")),
    "infinite-points": lambda good: dict(
        good, params=dict(good["params"], stop={"kind": "points", "limit": float("inf")})),
    "nan-time-limit": lambda good: dict(
        good, params=dict(good["params"], stop={"kind": "time", "limit": float("nan")})),
    "infinite-runs": lambda good: dict(good, runs=float("inf")),
    "string-flag": lambda good: dict(good, params=dict(good["params"], dedup="false")),
    "float-size": lambda good: dict(good, params=dict(good["params"], t=2.5)),
    "pipeline-not-a-string": lambda good: dict(good, pipeline=5),
    "unknown-pipeline-letter": lambda good: dict(good, pipeline="sfx"),
    "instance-path-not-a-string": lambda good: dict(good, instance_path=5),
    "bool-runs": lambda good: dict(good, runs=True),
    "fractional-runs": lambda good: dict(good, runs=2.7),
    "bool-base-seed": lambda good: dict(good, base_seed=False),
    "naive-greedy": lambda good: dict(good, method="naive", init="greedy"),
    "string-points-limit": lambda good: dict(
        good, params=dict(good["params"], stop={"kind": "points", "limit": "50"})),
    "fractional-points-limit": lambda good: dict(
        good, params=dict(good["params"], stop={"kind": "points", "limit": 50.9})),
}


def _bench_argv(tmp_path, instance_path, edit=dict):
    good = {"instance_path": instance_path, "method": "vns", "runs": 1,
            "params": {"l0": 20, "q": 5, "t": 10, "stop": {"kind": "points", "limit": 40}}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(edit(good)))
    return ["bench", "--config", str(path), "--out", str(tmp_path / "out")]


def _undecodable(tmp_path):
    """A file that starts with the bytes ff fe, which are not UTF-8."""
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe{}")
    return str(path)


def _too_deep(tmp_path):
    """A JSON file of arrays nested deeper than the parser's recursion limit."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    return str(path)


def _huge_integer_config(tmp_path, instance_path):
    """A bench config whose base_seed has 5000 digits, more than Python's int() takes."""
    argv = _bench_argv(tmp_path, instance_path, lambda good: dict(good, base_seed=0))
    path = tmp_path / "config.json"
    path.write_text(path.read_text().replace('"base_seed": 0', '"base_seed": ' + "9" * 5000))
    return argv


def _bad_instance(tmp_path, num_products, width=2):
    """``eval`` of TABLE1's first ``width`` products, ``num_products`` spelt as the JSON given.

    ``width`` lets the rows match what ``int()`` makes of the spelling (1 for true).
    """
    path = tmp_path / "bad.json"
    rows = [row[:width] for row in TABLE1["preferences"]]
    text = json.dumps(dict(TABLE1, num_products=0, preferences=rows))
    path.write_text(text.replace('"num_products": 0', f'"num_products": {num_products}'))
    return ["eval", "--instance", str(path), "--prices", ",".join(["50"] * width)]


@pytest.mark.parametrize("case", ["unknown-param", "missing-config", "non-integer-prices",
                                  "unwritable-lp", "unwritable-instance", "bad-instance",
                                  "reference-zero", "nan-time-limit-flag",
                                  "out-dir-not-a-string", "workers-zero", "workers-negative",
                                  "tiny-availability", "num-products-overflow",
                                  "num-products-fractional", "num-products-bool",
                                  "instance-not-utf8", "config-not-utf8",
                                  "instance-huge-integer", "config-huge-integer",
                                  "instance-too-deep", "negative-prices", "zero-prices",
                                  "solve-naive-greedy", "solve-naive-no-iterations",
                                  "solve-empty-out", "bench-empty-out", "config-empty-out-dir",
                                  *BAD_CONFIGS])
def test_bad_input_exits_2_with_error_line(case, table1_path, tmp_path, capsys, monkeypatch):
    # An empty output directory would be the current one: nothing may land there.
    monkeypatch.chdir(tmp_path)
    missing_dir = tmp_path / "no-such-dir"
    if case in BAD_CONFIGS:
        argv = _bench_argv(tmp_path, table1_path, BAD_CONFIGS[case])
    else:
        argv = {
            "unknown-param": lambda: ["bench", "--config",
                                      _config_with_unknown_param(tmp_path, table1_path)],
            "missing-config": lambda: ["bench", "--config", str(tmp_path / "missing.json")],
            "bad-instance": lambda: _bad_instance(tmp_path, '"abc"'),
            "num-products-overflow": lambda: _bad_instance(tmp_path, "1e400"),
            "num-products-fractional": lambda: _bad_instance(tmp_path, "2.5"),
            "num-products-bool": lambda: _bad_instance(tmp_path, "true", width=1),
            "instance-not-utf8": lambda: ["eval", "--instance", _undecodable(tmp_path),
                                          "--prices", "50,34"],
            "config-not-utf8": lambda: ["bench", "--config", _undecodable(tmp_path)],
            "instance-huge-integer": lambda: _bad_instance(tmp_path, "9" * 5000),
            "config-huge-integer": lambda: _huge_integer_config(tmp_path, table1_path),
            "instance-too-deep": lambda: ["eval", "--instance", _too_deep(tmp_path),
                                          "--prices", "50,34"],
            "workers-zero": lambda: [*_bench_argv(tmp_path, table1_path), "--workers", "0"],
            "workers-negative": lambda: [*_bench_argv(tmp_path, table1_path), "--workers", "-2"],
            "reference-zero": lambda: [*_bench_argv(tmp_path, table1_path), "--reference", "0"],
            # --out would override the config's out_dir, so this run goes without it.
            "out-dir-not-a-string": lambda: _bench_argv(
                tmp_path, table1_path, lambda good: dict(good, out_dir=5))[:-2],
            "config-empty-out-dir": lambda: _bench_argv(
                tmp_path, table1_path, lambda good: dict(good, out_dir=""))[:-2],
            "bench-empty-out": lambda: [*_bench_argv(tmp_path, table1_path)[:-1], ""],
            "solve-empty-out": lambda: ["solve", "--instance", table1_path,
                                        "--method", "vns", "--l0", "20", "--max-points", "40",
                                        "--out", ""],
            "nan-time-limit-flag": lambda: ["solve", "--instance", table1_path,
                                            "--method", "vns", "--time-limit", "nan",
                                            "--out", str(tmp_path / "out")],
            "non-integer-prices": lambda: ["eval", "--instance", table1_path,
                                           "--prices", "a,b"],
            "negative-prices": lambda: ["eval", "--instance", table1_path, "--prices=-5,-5"],
            "zero-prices": lambda: ["eval", "--instance", table1_path, "--prices=0,34"],
            "solve-naive-greedy": lambda: ["solve", "--instance", table1_path,
                                           "--method", "naive", "--init", "greedy",
                                           "--out", str(tmp_path / "out")],
            "solve-naive-no-iterations": lambda: ["solve", "--instance", table1_path,
                                                  "--method", "naive", "--iterations", "0",
                                                  "--out", str(tmp_path / "out")],
            "unwritable-lp": lambda: ["export-lp", "--instance", table1_path,
                                      "--out", str(missing_dir / "out.lp")],
            "unwritable-instance": lambda: ["gen", "--products", "2", "--customers", "4",
                                            "--budget-lo", "1", "--budget-hi", "9",
                                            "--out", str(missing_dir / "gen.json")],
            "tiny-availability": lambda: ["gen", "--products", "1", "--customers", "1",
                                          "--budget-lo", "18", "--budget-hi", "66",
                                          "--avail", "1e-12", "--seed", "3",
                                          "--out", str(tmp_path / "gen.json")],
        }[case]()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "summary.csv").exists()
