import argparse
import csv
import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import rankprice
from rankprice import SearchParams, StopRule, generate_instance, load_instance, save_instance
from rankprice.bench import RunSummary, config_from_dict
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


@pytest.mark.parametrize("prices, code", [("50,34", 0), ("a,b", 2)])
def test_module_entry_point_exit_code(table1_path, prices, code):
    # The package may be importable only through pytest's own path setting.
    path = [str(Path(rankprice.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    argv = [sys.executable, "-m", "rankprice.cli",
            "eval", "--instance", table1_path, "--prices", prices]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == code
    assert ("revenue: 236" in done.stdout) == (code == 0)
    assert done.stderr.startswith("error: ") == (code == 2)


def test_exact_lists_optima(table1_path, capsys):
    code = main(["exact", "--instance", table1_path])
    assert code == 0
    out = capsys.readouterr().out
    assert "optimum: 236" in out
    assert "34,66" in out and "50,34" in out and "66,34" in out


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_exact_rejects_a_cap_below_one(cap, table1_path, capsys):
    # A cap below 1 is a bad argument, not a grid above it.
    assert main(["exact", "--instance", table1_path, "--cap", cap]) == 2
    assert capsys.readouterr().err == (
        f"error: enumeration cap must be an integer of at least 1, got {cap}\n")


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


def test_solve_genetic_default_q_of_one_is_named_in_the_error(table1_path, capsys):
    # The user passed no q: the error names the default it got and its rule.
    code = main(["solve", "--instance", table1_path, "--method", "genetic", "--l0", "1"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: method genetic needs q >= 2 to pick two distinct parents, got q=1;"
        " an omitted q is min(1000, l0)\n")


def test_solve_max_points_stop(table1_path, capsys):
    code = main(["solve", "--instance", table1_path, "--method", "naive",
                 "--l0", "10", "--t", "20", "--max-points", "60", "--seed", "0"])
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


@pytest.mark.parametrize("method", ["vns", "genetic"])
def test_solve_without_options_builds_the_default_config(table1_path, monkeypatch, method):
    # solve keeps no copy of a config default: with no optional flag it builds
    # the config that config_from_dict builds from the required keys alone.
    configs = []

    def fake_run_experiment(config):
        configs.append(config)
        return [RunSummary(0, 0, (), 0, 0, 0)], ()

    monkeypatch.setattr(rankprice.cli, "run_experiment", fake_run_experiment)
    assert main(["solve", "--instance", table1_path, "--method", method]) == 0
    expected = config_from_dict({"instance_path": table1_path, "method": method, "runs": 1})
    assert configs == [expected]


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


def test_bench_reference_ratios_are_order_statistics(table1_path, tmp_path, capsys):
    # Six random points per run leave the nine runs at different best values.
    config = {
        "instance_path": table1_path,
        "method": "naive",
        "init": "random",
        "params": {"l0": 6, "q": 1, "t": 6, "stop": {"kind": "points", "limit": 6}},
        "runs": 9,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "bench-out"
    code = main(["bench", "--config", str(cfg_path), "--workers", "1", "--out", str(out),
                 "--reference", "236"])
    assert code == 0
    lines = (out / "summary.csv").read_text(encoding="utf-8").splitlines()
    values = sorted(int(row["best_value"]) for row in csv.DictReader(lines[1:]))
    assert len(values) == 9 and len(set(values)) >= 2
    printed = re.search(r"ratios: min=(\S+) median=(\S+) max=(\S+)\n",
                        capsys.readouterr().out).groups()
    # Nearest-rank minimum, median (rank ceil(9 / 2) = 5) and maximum.
    assert printed == tuple(f"{v / 236:.4f}" for v in (values[0], values[4], values[-1]))


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


def test_readme_command_line_flags_exist():
    # A flag the README names but no subcommand takes is one a change left behind.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("## File formats", 1)[0]
    flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsers = commands.choices.values()
    known = {flag for p in parsers for action in p._actions for flag in action.option_strings}
    assert len(flags) >= 20
    assert sorted(flags - known) == []


def test_readme_stop_kinds_build_stop_rules():
    # The flag check above cannot see a stop kind that the JSON text still names.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    alternatives = re.search(r'`\{"kind": ("[^`]*"), "limit": N\}`', readme).group(1)
    kinds = re.findall(r'"(\w+)"', alternatives)
    assert len(kinds) >= 2
    for kind in kinds:
        assert StopRule(kind, 1).kind == kind


def test_readme_error_types_match_errors_module():
    # A class added to or deleted from rankprice.errors needs its README line.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = re.search(r"\nErrors: ((?:.+\n)+\n(?:- .+\n)+)", readme).group(1)
    named = set(re.findall(r"`(\w+)`", paragraph))
    defined = {name for name, value in vars(rankprice.errors).items()
               if isinstance(value, type) and value.__module__ == rankprice.errors.__name__}
    assert len(defined) == 6
    assert named == defined


def test_solve_flags_match_search_params():
    # stop, seed and init come from the stop flags, --seed and --init; every
    # other SearchParams field needs a flag stored under its name, and no flag
    # outside the others may be left behind by a removed field.
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {action.dest for action in commands.choices["solve"]._actions}
    others = {"help", "instance", "method", "init", "local_search", "max_points", "time_limit",
              "seed", "out"}
    fields = {f.name for f in dataclasses.fields(SearchParams)}
    assert others <= dests
    assert dests - others == fields - {"stop", "seed", "init"}


def test_readme_library_block_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, flags=re.S).group(1)
    monkeypatch.chdir(tmp_path)
    save_instance(generate_instance(3, 6, (5, 12), 0.8, seed=1), "inst.json")
    exec(compile(block, "README.md", "exec"), {})
    best, optimum = (int(line.split()[0]) for line in capsys.readouterr().out.splitlines())
    assert best == optimum


def test_readme_bench_config_loads():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"JSON form of `ExperimentConfig`:\n\n```json\n(.*?)```",
                      readme, flags=re.S).group(1)
    config = config_from_dict(json.loads(block))
    assert (config.method, config.init, config.pipeline) == ("vns", "greedy", "sfrc")
    assert config.params.q == 100


def test_closed_output_pipe_exits_1_without_traceback(tmp_path):
    # Over 64 KiB of output fills the pipe, so the CLI is still writing when it closes.
    path = tmp_path / "many.json"
    save_instance(generate_instance(2, 4000, (5, 12), 1.0, seed=1), path)
    package = [str(Path(rankprice.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, package)))
    argv = [sys.executable, "-m", "rankprice.cli",
            "eval", "--instance", str(path), "--prices", "5,5"]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    assert proc.stdout.readline().startswith("customer 1: ")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_missing_instance_fails_cleanly(capsys):
    code = main(["exact", "--instance", "/nonexistent/foo.json"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, b"\xff\xfe{}", b"{"],
                         ids=["missing", "not-utf8", "not-json"])
def test_unreadable_bench_config_raises_instance_read_error(content, tmp_path, capsys):
    # A config file that cannot be read is a file to fix, as an instance file is.
    path = tmp_path / "config.json"
    if content is not None:
        path.write_bytes(content)
    argv = ["bench", "--config", str(path)]
    args = build_parser().parse_args(argv)
    with pytest.raises(rankprice.InstanceReadError) as err:
        args.run(args)
    assert str(err.value).startswith(f"cannot read config {path}: ")
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {err.value}\n"


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
    "removed-dedup-key": lambda good: dict(good, params=dict(good["params"], dedup=False)),
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
    "unknown-init": lambda good: dict(good, init="bogus"),
    "params-init": lambda good: dict(good, params=dict(good["params"], init="greedy")),
    "genetic-one-elite": lambda good: dict(
        good, method="genetic", params=dict(good["params"], q=1)),
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
                                  "solve-naive-greedy",
                                  "solve-genetic-one-elite", "solve-genetic-default-q-one",
                                  "solve-empty-out", "bench-empty-out", "config-empty-out-dir",
                                  "exact-cap-zero", "exact-cap-negative",
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
            "solve-genetic-one-elite": lambda: ["solve", "--instance", table1_path,
                                                "--method", "genetic", "--q", "1",
                                                "--out", str(tmp_path / "out")],
            # No --q: the default min(1000, l0) is 1.
            "solve-genetic-default-q-one": lambda: ["solve", "--instance", table1_path,
                                                    "--method", "genetic", "--l0", "1",
                                                    "--out", str(tmp_path / "out")],
            "exact-cap-zero": lambda: ["exact", "--instance", table1_path, "--cap", "0"],
            "exact-cap-negative": lambda: ["exact", "--instance", table1_path, "--cap", "-3"],
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


@pytest.mark.parametrize("key", ["vns_reset_radius", "parents_with_replacement", "dedup"])
def test_removed_search_keys_are_unknown(key, table1_path, tmp_path, capsys):
    # VNS always keeps its radius on improvement; genetic always draws two distinct parents;
    # every drawn vector is evaluated, a repeat included.
    argv = _bench_argv(tmp_path, table1_path,
                       lambda good: dict(good, params=dict(good["params"], **{key: True})))
    assert main(argv) == 2
    assert f"unknown SearchParams keys: {key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_removed_stop_kind_is_unknown(table1_path, tmp_path, capsys):
    # N iterations were the point budget l0 + N*t (N*t for naive), so points spells them.
    stop = {"kind": "iterations", "limit": 3}
    argv = _bench_argv(tmp_path, table1_path,
                       lambda good: dict(good, params=dict(good["params"], stop=stop)))
    assert main(argv) == 2
    assert "unknown stop rule 'iterations'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--vns-reset-radius", "--parents-with-replacement", "--dedup",
                                  "--iterations"])
def test_removed_solve_flags_exit_2(flag, table1_path, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--instance", table1_path, "--method", "vns", flag,
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
