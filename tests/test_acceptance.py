"""Acceptance suite: one test per release criterion, one report line each.

Run with ``pytest tests/test_acceptance.py -v``; the per-criterion lines are
collected into an "acceptance criteria" section of the terminal summary
(and printed live under ``-s``).
"""

import os
import random
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

import helpers
from conftest import record_acceptance
from rankprice import (
    SearchParams,
    StopRule,
    assign,
    assign_oracle,
    assign_prices,
    brute_force,
    build_grid,
    conditional_reassignment,
    crossover,
    export_single_level,
    fill,
    generate_instance,
    genetic_search,
    greedy_init,
    load_instance,
    mutate,
    opt_based,
    reassignment,
    slack,
    vns_search,
)

PAPER_DATA_DIR = Path(
    os.environ.get("RANKPRICE_PAPER_DATA", Path(__file__).parent / "data" / "paper")
)


@contextmanager
def criterion(number, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except pytest.skip.Exception as exc:
        record_acceptance(f"criterion {number:2d} SKIP: {label} ({exc})")
        raise
    except BaseException:
        record_acceptance(f"criterion {number:2d} FAIL: {label}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s ({elapsed:.1f}s)"
    record_acceptance(f"criterion {number:2d} PASS ({elapsed:6.2f}s): {label}")


def test_criterion_01_brute_force_small_instance(table1, table1_grid):
    with criterion(1, "brute force optimum 236 with its three price vectors", 1.0):
        optimum, optima = brute_force(table1, table1_grid)
        assert optimum == 236
        assert [table1_grid.prices_of(v) for v in optima] == [
            (34, 66), (50, 34), (66, 34),
        ]


def test_criterion_02_evaluator_spot_values(table1, table1_grid, table1_mod):
    with criterion(2, "evaluator reproduces the eight worked revenues", 1.0):
        expected = {
            (34, 34): 204, (42, 34): 228, (18, 27): 180, (42, 42): 210,
            (50, 42): 226, (42, 27): 234, (50, 34): 236,
        }
        for prices, value in expected.items():
            assert assign(table1, table1_grid, table1_grid.indices_of(prices)).revenue == value
        grid_mod = build_grid(table1_mod)
        assert assign(table1_mod, grid_mod, grid_mod.indices_of((66, 18))).revenue == 240


def test_criterion_03_local_search_worked_examples(table1, table1_grid, table1_mod):
    with criterion(3, "all five local-search worked examples", 1.0):
        def state(inst, grid, prices):
            idx = grid.indices_of(prices)
            return idx, assign(inst, grid, idx)

        idx, a = state(table1, table1_grid, (34, 34))
        out, out_a = slack(table1, table1_grid, idx, a)
        assert table1_grid.prices_of(out) == (42, 34) and out_a.revenue == 228

        grid_mod = build_grid(table1_mod)
        idx, a = state(table1_mod, grid_mod, (66, 66))
        out, out_a = fill(table1_mod, grid_mod, idx, a)
        assert grid_mod.prices_of(out) == (66, 18) and out_a.revenue == 240

        idx, a = state(table1, table1_grid, (18, 27))
        out, out_a = reassignment(table1, table1_grid, idx, a)
        assert table1_grid.prices_of(out) == (42, 27) and out_a.revenue == 234

        idx, a = state(table1, table1_grid, (42, 42))
        out, out_a = conditional_reassignment(table1, table1_grid, idx, a)
        assert table1_grid.prices_of(out) == (50, 42) and out_a.revenue == 226

        # optimization-based walk with product order [2, 1]: the scan of
        # product 2 keeps the move to (42, 27) at revenue 234
        idx, a = state(table1, table1_grid, (42, 34))
        out, out_a = opt_based(table1, table1_grid, idx, a, [1])
        assert table1_grid.prices_of(out) == (42, 27) and out_a.revenue == 234


def test_criterion_04_oracle_equivalence():
    with criterion(4, "closed form matches enumeration on 10,000 random pairs", 30.0):
        rng = random.Random(12345)
        for _ in range(10_000):
            inst = generate_instance(
                num_products=rng.randint(1, 8),
                num_customers=rng.randint(1, 12),
                budget_range=(1, rng.randint(5, 40)),
                availability_prob=rng.choice([1.0, 0.8, 0.5]),
                seed=rng.randrange(2**32),
            )
            grid = build_grid(inst)
            indices = helpers.random_indices(grid, inst.num_products, rng)
            assert assign(inst, grid, indices) == assign_oracle(inst, grid, indices)


def test_criterion_05_grid_optimality():
    with criterion(5, "off-grid integer prices never beat the grid optimum", 60.0):
        rng = random.Random(54321)
        for _ in range(200):
            inst = generate_instance(
                num_products=rng.randint(1, 4),
                num_customers=rng.randint(1, 8),
                budget_range=(1, rng.randint(4, 30)),
                availability_prob=rng.choice([1.0, 0.7]),
                seed=rng.randrange(2**32),
            )
            grid = build_grid(inst)
            optimum, _ = brute_force(inst, grid)
            top = max(inst.budgets) + 10
            for _ in range(100):
                prices = tuple(rng.randint(1, top) for _ in range(inst.num_products))
                assert assign_prices(inst, prices).revenue <= optimum


def test_criterion_06_monotone_deterministic_traces(table1, table1_grid):
    with criterion(6, "50+50 seeded runs: monotone traces, equal seeds agree", 30.0):
        frozen = lambda: 0.0
        for search, q in ((vns_search, 10), (genetic_search, 10)):
            for seed in range(50):
                params = SearchParams(
                    l0=20, q=q, t=10, stop=StopRule.point_budget(500), seed=seed
                )
                first = search(table1, table1_grid, params, clock=frozen)
                again = search(table1, table1_grid, params, clock=frozen)
                values = [entry.best for entry in first.trace]
                assert values == sorted(values)
                assert first.trace == again.trace
                assert first.best_indices == again.best_indices


def test_criterion_07_local_search_invariants():
    with criterion(7, "2,000 random states: every step safe and consistent", 60.0):
        rng = random.Random(99887)
        for _ in range(2_000):
            inst = helpers.random_instance(rng.randrange(2**32))
            grid = build_grid(inst)
            idx = helpers.random_indices(grid, inst.num_products, rng)
            a = assign(inst, grid, idx)

            s_idx, s_a = slack(inst, grid, idx, a)
            assert s_a.revenue >= a.revenue
            assert s_a.chosen == a.chosen
            assert s_a == assign(inst, grid, s_idx)
            assert slack(inst, grid, s_idx, s_a) == (s_idx, s_a)

            for op in (fill, reassignment, conditional_reassignment):
                o_idx, o_a = op(inst, grid, s_idx, s_a)
                assert o_a.revenue >= s_a.revenue
                assert o_a == assign(inst, grid, o_idx)
            order = helpers.shuffled_products(inst.num_products, rng)
            o_idx, o_a = opt_based(inst, grid, s_idx, s_a, order)
            assert o_a.revenue >= s_a.revenue
            assert o_a == assign(inst, grid, o_idx)


def test_criterion_08_heuristics_hit_brute_force():
    with criterion(8, "VNS and genetic (greedy+sfrc) reach the optimum >=90%", 300.0):
        hits = Counter()
        instances = 100
        for n in range(instances):
            inst = generate_instance(
                num_products=2 + n % 3,
                num_customers=5 + n % 4,
                budget_range=(10, 15),  # at most 6 distinct budgets
                availability_prob=1.0 if n % 2 else 0.9,
                seed=7000 + n,
            )
            grid = build_grid(inst)
            optimum, _ = brute_force(inst, grid)
            stop = StopRule.point_budget(2000)
            vns_params = SearchParams(
                l0=200, q=50, t=100, stop=stop, init="greedy", seed=n
            )
            res = vns_search(inst, grid, vns_params, pipeline="sfrc")
            assert res.best_value <= optimum
            hits["vns"] += res.best_value == optimum
            gen_params = SearchParams(
                l0=200, q=200, t=100, stop=stop, init="greedy", seed=n
            )
            res = genetic_search(inst, grid, gen_params, pipeline="sfrc")
            assert res.best_value <= optimum
            hits["genetic"] += res.best_value == optimum
        assert hits["vns"] >= 0.90 * instances
        assert hits["genetic"] >= 0.90 * instances
        record_acceptance(
            f"    achieved hit rates: vns {hits['vns']}/{instances}, "
            f"genetic {hits['genetic']}/{instances}"
        )


def test_criterion_09_operator_frequencies(table1_grid):
    with criterion(9, "crossover and mutation frequencies within 0.01", 30.0):
        rng = random.Random(2468)
        trials = 40_000

        took_first = [0, 0]
        p1, p2 = (0, 0), (1, 1)
        for _ in range(trials):
            child = crossover(p1, p2, rng)
            for component in range(2):
                took_first[component] += child[component] == 0
        for count in took_first:
            assert abs(count / trials - 0.5) < 0.01

        base = (2, 5)
        changed = [0, 0]
        for _ in range(trials):
            out = mutate(table1_grid, base, rng)
            for component in range(2):
                if out[component] != base[component]:
                    changed[component] += 1
                    assert out[component] != base[component]
        for count in changed:
            assert abs(count / trials - 1 / 2) < 0.01  # 1/I with I=2


def _paper_instance(stem):
    path = PAPER_DATA_DIR / f"{stem}.json"
    if not path.exists():
        pytest.skip(
            f"paper instance files not present; convert the published data to "
            f"the canonical JSON layout under {PAPER_DATA_DIR} to enable"
        )
    return load_instance(path)


def test_criterion_10_paper_instances():
    with criterion(10, "published-instance values (807 / 1042 / 1998, greedy 1989)", 7200.0):
        inst_small = _paper_instance("30x5")
        grid = build_grid(inst_small)
        optimum, _ = brute_force(inst_small, grid)
        assert optimum == 807

        inst_mid = _paper_instance("30x25")
        grid = build_grid(inst_mid)
        first = assign(inst_mid, grid, greedy_init(inst_mid, grid))
        assert first.revenue == 986
        good = 0
        for run in range(20):
            params = SearchParams(
                l0=1000, q=1000, t=500, stop=StopRule.point_budget(24000),
                init="greedy", seed=run,
            )
            res = genetic_search(inst_mid, grid, params, pipeline="sfrc")
            good += res.best_value == 1042
        assert good >= 19

        inst_big = _paper_instance("60x50")
        grid = build_grid(inst_big)
        first = assign(inst_big, grid, greedy_init(inst_big, grid))
        assert first.revenue == 1989
        good = 0
        for run in range(20):
            params = SearchParams(
                l0=1000, q=100, t=500, stop=StopRule.point_budget(24000),
                init="greedy", seed=run,
            )
            res = vns_search(inst_big, grid, params, pipeline="sfrc")
            good += res.best_value == 1998
        assert good >= 19


def test_criterion_11_lp_export_shape(table1, table1_grid):
    with criterion(11, "LP export variable/row counts and byte stability", 1.0):
        model = helpers.read_lp(export_single_level(table1, table1_grid))
        assert len([name for name in model.binaries if name.startswith("v_")]) == 12
        assert len([name for name in model.binaries if name.startswith("x_")]) == 16
        counts = helpers.family_counts(model)
        assert (counts["onep"], counts["onec"], counts["link"], counts["pref"]) == (
            2, 8, 16, 16,
        )
        assert export_single_level(table1, table1_grid) == export_single_level(
            table1, table1_grid
        )
