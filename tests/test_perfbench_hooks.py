"""The traced benchmark's hooks into the program, checked without running it.

``perfbench/harness.py`` wraps program functions at the module attributes
their callers read, for its ``--trace 1`` run. A renamed or removed
attribute would break that run while the rest of the suite stays green.
"""

import importlib
from math import prod
from pathlib import Path

import pytest

import helpers
from rankprice import (
    SearchParams,
    StopRule,
    build_grid,
    generate_instance,
    genetic_search,
    vns_search,
)
from rankprice import exact, local_search, search

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def harness(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("harness")


def traced(harness, func, *args, **kwargs):
    tracer = importlib.import_module("tracer").Tracer()
    harness.install_spans(tracer, harness.SlackCounter())
    try:
        return tracer, func(*args, **kwargs)
    finally:
        tracer.restore()


def test_install_spans_then_restore(harness):
    hooked = lambda: (search.run_pipeline, local_search.slack, search.Neighborhood.sample)
    originals = hooked()
    traced(harness, lambda: None)
    assert hooked() == originals


def test_traced_counts_match_the_search(harness):
    # The benchmark ties every local-search trial to one local_search.assign span.
    inst = generate_instance(4, 9, (5, 30), 0.5, seed=11)
    grid = build_grid(inst)
    p = SearchParams(l0=10, q=4, t=6, stop=StopRule.point_budget(60), seed=1)
    tracer, res = traced(harness, vns_search, inst, grid, p, pipeline="sfrc")
    assert tracer.count("evaluate.assign@local_search") == res.ls_stats.assign_calls > 0
    assert tracer.count("evaluate.assign@search") == res.evaluations
    assert tracer.count("local_search.run_pipeline") == res.evaluations - p.l0
    assert tracer.count("search.Neighborhood.sample") == res.evaluations - p.l0
    # The initial batch draws through the same module attributes: one greedy
    # vector, then random ones.
    p = SearchParams(l0=10, q=4, t=6, stop=StopRule.point_budget(60), seed=1, init="greedy")
    tracer, res = traced(harness, vns_search, inst, grid, p, pipeline="sfrc")
    assert tracer.count("search.greedy_init") == 1
    assert tracer.count("search.random_price") == p.l0 - 1
    assert tracer.count("evaluate.assign@search") == res.evaluations
    # The genetic method breeds every child through crossover, then mutate.
    tracer, res = traced(harness, genetic_search, inst, grid, p)
    assert tracer.count("search.mutate") == res.evaluations - p.l0 > 0
    assert tracer.count("search.crossover") == res.evaluations - p.l0


def test_traced_brute_force_walks_products_two_and_up(harness, monkeypatch):
    # One full assign of the first walk vector and one in-place step per
    # further one: products 0 and 1 are read off the pair surface, and
    # products 2 and up walk their level lists. Then one full assign per
    # optimal walk vector finds the gaps to expand, so
    # evaluate.assign.calls.exact counts the first and those.
    steps = []
    apply_move = exact.apply_move

    def counting_step(*args):
        steps.append(args)
        return apply_move(*args)

    monkeypatch.setattr(exact, "apply_move", counting_step)
    for num_products in (1, 2, 3, 5):
        inst = generate_instance(num_products, 9, (5, 30), 0.5, seed=11)
        grid = build_grid(inst)
        steps.clear()
        tracer, (_, optima) = traced(harness, lambda: exact.brute_force(inst, grid))
        levels = helpers.walk_levels(inst, grid)
        found = helpers.walk_vectors(levels, optima) if levels else set()
        assert tracer.count("exact.brute_force") == 1
        assert len(steps) == prod(map(len, levels)) - 1
        assert tracer.count("evaluate.assign@exact") == 1 + len(found)
