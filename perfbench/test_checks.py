"""Tests of the benchmark itself: its output checks, tracer and metric list.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rankprice import bench, build_grid, brute_force, vns_search  # noqa: E402
from rankprice.exact import export_single_level  # noqa: E402
from rankprice.search import SearchParams, StopRule  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import inputs  # noqa: E402
from tracer import Tracer  # noqa: E402

POINTS = 60


def small_run():
    inst = bench.generate_instance(6, 12, (18, 40), 0.7, 3)
    grid = build_grid(inst)
    params = SearchParams(l0=20, q=5, t=10, stop=StopRule.point_budget(POINTS), init="greedy", seed=4)
    return inst, grid, vns_search(inst, grid, params, pipeline="sfrc")


def tally_of(inst, grid, result, reported_best=None):
    tally = checks.Tally()
    reported = result.best_value if reported_best is None else reported_best
    target = result.trace[0].best
    tally.record("run", checks.check_search_run(inst, grid, result, reported, POINTS, target))
    return tally


def test_genuine_run_passes():
    inst, grid, result = small_run()
    assert tally_of(inst, grid, result).failed_frac == 0


def test_corrupted_best_value_fails():
    inst, grid, result = small_run()
    corrupted = dataclasses.replace(result, best_value=result.best_value + 1)
    assert tally_of(inst, grid, corrupted).failed_frac > 0
    assert tally_of(inst, grid, result, reported_best=result.best_value - 1).failed_frac > 0


def test_trace_going_down_fails():
    inst, grid, result = small_run()
    trace = list(result.trace)
    trace[1] = dataclasses.replace(trace[1], best=trace[0].best - 1)
    corrupted = dataclasses.replace(result, trace=tuple(trace))
    assert tally_of(inst, grid, corrupted).failed_frac > 0


def test_short_trace_and_missed_target_fail():
    inst, grid, result = small_run()
    short = dataclasses.replace(result, trace=result.trace[:-1])
    assert tally_of(inst, grid, short).failed_frac > 0
    problems = checks.check_search_run(inst, grid, result, result.best_value, POINTS, result.best_value + 1)
    assert any("target" in p for p in problems)


def test_exact_check_and_relabelling():
    inst = bench.generate_instance(3, 8, (18, 30), 0.8, 5)
    grid = build_grid(inst)
    optimum, argmax = brute_force(inst, grid)
    assert checks.check_exact(inst, grid, optimum, argmax, optimum, len(argmax)) == []
    assert checks.check_exact(inst, grid, optimum, argmax, optimum + 1, len(argmax))
    assert checks.check_exact(inst, grid, optimum + 1, argmax, optimum + 1, len(argmax))
    shuffled = inputs.relabel(inst, random.Random(7))
    s_opt, s_argmax = brute_force(shuffled, build_grid(shuffled))
    assert (s_opt, len(s_argmax)) == (optimum, len(argmax))


def test_tracer_self_time_and_restore():
    layer = types.SimpleNamespace(inner=lambda i: i)
    layer.outer = lambda n: sum(layer.inner(i) for i in range(n))
    original = layer.inner
    tracer = Tracer()
    tracer.wrap(layer, "outer", "outer")
    tracer.wrap(layer, "inner", "inner")
    assert layer.outer(4) == 6
    tracer.restore()
    assert layer.inner is original
    totals = tracer.totals()
    assert (totals["outer"].calls, totals["inner"].calls) == (1, 4)
    assert totals["outer"].self_s == pytest.approx(totals["outer"].total_s - totals["inner"].total_s)
    assert tracer.count("inner") == 4
    assert list(tracer.parent) == [-1, 0, 0, 0, 0]
    assert tracer.root_seconds() == totals["outer"].total_s


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(inputs.load_spec()["workloads"])


def test_lp_shape_check():
    inst = bench.generate_instance(3, 8, (18, 30), 0.8, 5)
    text = export_single_level(inst, build_grid(inst))
    shape = checks.lp_shape(text)
    assert checks.check_lp(text, shape) == []
    shuffled = inputs.relabel(inst, random.Random(7))
    assert checks.check_lp(export_single_level(shuffled, build_grid(shuffled)), shape) == []
    assert checks.check_lp("", shape)
    assert checks.check_lp(text.replace("Binaries\n", "Binaries\n extra\n"), shape)
