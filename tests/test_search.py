import hashlib
import json
import random
from collections import Counter
from itertools import count, product

import pytest

import helpers
import rankprice.local_search
import rankprice.search
from rankprice import (
    BudgetGrid,
    InvalidRange,
    Neighborhood,
    RankPriceError,
    SearchParams,
    StopRule,
    assign,
    assign_oracle,
    brute_force,
    build_grid,
    conditional_reassignment,
    crossover,
    fill,
    generate_instance,
    genetic_search,
    greedy_init,
    mutate,
    naive_search,
    neighborhood,
    opt_based,
    random_price,
    reassignment,
    run_pipeline,
    select_elites,
    slack,
    validate_instance,
    vns_search,
)

FROZEN_CLOCK = lambda: 0.0

# Seed chosen so the 10-vector random start has elites {(27,66),(50,18),(66,27)}
# at value 228 and the first perturbation batch then finds the 236 optimum.
VNS_REPLAY_SEED = 100173


def params(**kw):
    kw.setdefault("l0", 10)
    kw.setdefault("q", 5)
    kw.setdefault("t", 6)
    kw.setdefault("stop", StopRule.point_budget(200))
    return SearchParams(**kw)


# -------------------------------------------------------------- parameters


@pytest.mark.parametrize("limit", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("kind", [StopRule.POINTS, StopRule.TIME])
def test_stop_rule_rejects_non_finite_limit(kind, limit):
    with pytest.raises(RankPriceError, match="finite"):
        StopRule(kind, limit)


@pytest.mark.parametrize("kind, limit", [
    (StopRule.POINTS, "30"), (StopRule.POINTS, 50.9), (StopRule.POINTS, 30.0),
    (StopRule.POINTS, True), (StopRule.TIME, True), (StopRule.TIME, "5"),
])
def test_stop_rule_rejects_ill_typed_limit(kind, limit):
    with pytest.raises(RankPriceError, match="limit must be"):
        StopRule(kind, limit)


@pytest.mark.parametrize("name, value", [("t", 2.5), ("l0", 10.7), ("seed", 1.0), ("q", True)])
def test_search_params_reject_ill_typed_values(name, value):
    with pytest.raises(RankPriceError, match=name):
        params(**{name: value})


@pytest.mark.parametrize("kind, limit, message", [
    (StopRule.TIME, 0, "positive"), (StopRule.TIME, -0.5, "positive"),
    ("evaluations", 10, "unknown stop rule"), ("iterations", 3, "unknown stop rule"),
    (StopRule.POINTS, 0, "at least 1"),
])
def test_stop_rule_rejects_out_of_range_limit(kind, limit, message):
    with pytest.raises(RankPriceError, match=message):
        StopRule(kind, limit)


@pytest.mark.parametrize("name, value, message", [
    ("l0", 0, "l0 must be at least 1"), ("q", 0, "q <= l0"), ("q", 11, "q <= l0"),
    ("t", 0, "t must be at least 1"), ("init", "lazy", "unknown init"),
])
def test_search_params_reject_out_of_range_values(name, value, message):
    with pytest.raises(RankPriceError, match=message):
        params(**{name: value})  # l0 is 10


def test_search_params_name_q_and_l0_and_the_run_config_cap():
    # The default q is 100; a run config would cap an omitted q at l0.
    for kwargs, got in (({"l0": 50}, "q=100 and l0=50"), ({"l0": 5, "q": 0}, "q=0 and l0=5")):
        with pytest.raises(InvalidRange, match=f"need 1 <= q <= l0, got {got}; a run config caps"
                                                " an omitted q at l0"):
            SearchParams(**kwargs)
    assert SearchParams(l0=50, q=50).q == 50


# ---------------------------------------------------------------- sampling


def test_random_price_single_value_grid():
    inst = validate_instance(
        {"name": "flat", "num_products": 3, "num_customers": 2,
         "budgets": [5, 5], "preferences": [[1, 2, 3], [3, 1, 2]]}
    )
    grid = build_grid(inst)
    assert random_price(grid, 3, random.Random(0)) == (0, 0, 0)


def test_random_price_uniform_frequencies(table1_grid):
    rng = random.Random(91)
    counts = [Counter(), Counter()]
    draws = 60_000
    for _ in range(draws):
        vec = random_price(table1_grid, 2, rng)
        for component, m in enumerate(vec):
            counts[component][m] += 1
    for component in range(2):
        for m in range(table1_grid.size):
            assert abs(counts[component][m] / draws - 1 / 6) < 0.01


def test_random_price_deterministic(table1_grid):
    assert random_price(table1_grid, 2, random.Random(5)) == random_price(
        table1_grid, 2, random.Random(5)
    )


def test_greedy_init_table1(table1, table1_grid):
    indices = greedy_init(table1, table1_grid)
    assert table1_grid.prices_of(indices) == (66, 66)


def test_greedy_init_single_product():
    # only customers who can buy the product matter; the richest prices it
    inst = validate_instance(
        {"name": "one", "num_products": 1, "num_customers": 3,
         "budgets": [9, 30, 12], "preferences": [[1], [1], [1]]}
    )
    grid = build_grid(inst)
    assert grid.prices_of(greedy_init(inst, grid)) == (30,)


def test_greedy_init_leftover_products_at_top():
    inst = validate_instance(
        {"name": "narrow", "num_products": 3, "num_customers": 1,
         "budgets": [10], "preferences": [[3, 2, 1]]}
    )
    grid = build_grid(inst)
    assert grid.prices_of(greedy_init(inst, grid)) == (10, 10, 10)


def _greedy_reference(inst, grid):
    """greedy_init as its docstring states it, read off the raw scores."""
    prices = [None] * inst.num_products
    for k in sorted(range(inst.num_customers), key=lambda k: (-inst.budgets[k], k)):
        row = inst.preferences[k]
        ranked = sorted((i for i, score in enumerate(row) if score is not None),
                        key=lambda i: -row[i])
        unpriced = [i for i in ranked if prices[i] is None]
        if unpriced:
            prices[unpriced[0]] = grid.index_of(inst.budgets[k])
    return tuple(grid.size - 1 if m is None else m for m in prices)


def test_greedy_init_matches_reference():
    rng = random.Random(17)
    seen = Counter()
    for seed in range(400):
        lo = rng.randint(5, 30)
        inst = generate_instance(rng.randint(1, 8), rng.randint(1, 8), (lo, lo + rng.randint(0, 3)),
                                 rng.choice([1.0, 0.7, 0.4]), seed=seed)
        grid = build_grid(inst)
        assert greedy_init(inst, grid) == _greedy_reference(inst, grid)
        seen["tied"] += len(set(inst.budgets)) < inst.num_customers
        seen["unavailable"] += any(None in row for row in inst.preferences)
        seen["unclaimed"] += inst.num_products > inst.num_customers
    assert min(seen["tied"], seen["unavailable"], seen["unclaimed"]) >= 50


# ------------------------------------------------------------ neighborhood


def box_prices(grid, box):
    return grid.prices_of(box.lo), grid.prices_of(box.hi)


def test_neighborhood_box_at_50_50(table1_grid):
    box = neighborhood(table1_grid, table1_grid.indices_of((50, 50)), 1)
    assert box_prices(table1_grid, box) == ((42, 42), (66, 66))


def test_neighborhood_clamped_at_origin(table1_grid):
    box = neighborhood(table1_grid, table1_grid.indices_of((18, 18)), 1)
    assert box_prices(table1_grid, box) == ((18, 18), (27, 27))


def test_neighborhood_large_radius_covers_grid(table1_grid):
    box = neighborhood(table1_grid, (2, 4), table1_grid.size - 1)
    assert box.lo == (0, 0)
    assert box.hi == (table1_grid.size - 1, table1_grid.size - 1)


def test_neighborhood_nesting_and_center(table1_grid):
    rng = random.Random(3)
    for _ in range(200):
        center = helpers.random_indices(table1_grid, 2, rng)
        for r in range(1, table1_grid.size):
            inner = neighborhood(table1_grid, center, r)
            outer = neighborhood(table1_grid, center, r + 1)
            draw = inner.sample(rng)
            for axis in range(2):
                assert outer.lo[axis] <= inner.lo[axis] <= center[axis]
                assert center[axis] <= inner.hi[axis] <= outer.hi[axis]
                assert inner.lo[axis] <= draw[axis] <= inner.hi[axis]


def test_neighborhood_sample_draws_like_randint(table1_grid):
    box = neighborhood(table1_grid, (2, 4), 2)
    a, b = random.Random(8), random.Random(8)
    for _ in range(100):
        assert box.sample(a) == tuple(b.randint(lo, hi) for lo, hi in zip(box.lo, box.hi))


def test_draw_helper_equals_randrange():
    # Every width up to 300, with 1, the powers of two and 2^k + 1 also far
    # beyond it: the same values and the same generator state afterwards.
    widths = [*range(1, 301), *(2**k + d for k in range(9, 21) for d in (-1, 0, 1))]
    for seed in (0, 1, 99, 2024):
        mine, ref = random.Random(seed), random.Random(seed)
        for n in widths:
            for _ in range(3):
                assert rankprice.search._below(mine.getrandbits, n) == ref.randrange(n)
        assert mine.getstate() == ref.getstate()


def test_draws_match_randrange_references():
    # random_price, Neighborhood.sample and mutate, each against the
    # randrange formula it replaces, on 1,000 draws over grids of 1 to 40 levels.
    mine, ref, sizes = random.Random(5), random.Random(5), random.Random(6)
    for _ in range(1000):
        size = sizes.randint(1, 40)
        grid = build_grid(validate_instance(
            {"name": "g", "num_products": 1, "num_customers": size,
             "budgets": list(range(1, size + 1)), "preferences": [[1]] * size}))
        n = 1 + size % 7
        vec = random_price(grid, n, mine)
        assert vec == tuple(ref.randrange(size) for _ in range(n))
        box = neighborhood(grid, vec, 1 + size % 3)
        assert box.sample(mine) == tuple(ref.randrange(lo, hi + 1)
                                         for lo, hi in zip(box.lo, box.hi))
        out = list(vec)
        if size > 1:
            for i in range(n):
                if ref.random() < 1.0 / n:
                    draw = ref.randrange(size - 1)
                    out[i] = draw + (draw >= out[i])
        assert mutate(grid, vec, mine) == tuple(out)
        assert mine.getstate() == ref.getstate()


@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_box_sample_matches_randint_per_axis(seed):
    # Boxes clipped at both grid edges, boxes with width-1 axes and a
    # one-level grid, whose every axis has width 1: the same vectors as a
    # randint per axis and the same generator state afterwards.
    shapes, mine, ref = random.Random(seed + 1), random.Random(seed), random.Random(seed)
    for _ in range(300):
        size = shapes.choice([1, 2, 3, 9, 40, 130])
        center = tuple(shapes.choice([0, size - 1, shapes.randrange(size)]) for _ in range(6))
        box = neighborhood(BudgetGrid(tuple(range(1, size + 1))), center, shapes.randint(1, 4))
        fixed = [shapes.random() < 0.3 for _ in center]
        box = Neighborhood(box.lo, tuple(lo if f else hi for lo, hi, f in zip(box.lo, box.hi, fixed)))
        for _ in range(3):
            assert box.sample(mine) == tuple(ref.randint(lo, hi) for lo, hi in zip(box.lo, box.hi))
        assert mine.getstate() == ref.getstate()


def test_neighborhood_rejects_zero_radius(table1_grid):
    with pytest.raises(RankPriceError):
        neighborhood(table1_grid, (0, 0), 0)


@pytest.mark.parametrize("lo, hi", [((5,), (3,)), ((0, 1), (2,))])
def test_box_is_checked_when_built(lo, hi):
    # Unchecked, sampling the first box never returns and the second is cut
    # to one axis; the check fails at construction, before any draw.
    with pytest.raises(RankPriceError, match="lo <= hi"):
        Neighborhood(lo, hi)


# ------------------------------------------------------- genetic operators


class StubRng:
    """random()-only stub handing out a preset sequence."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


@pytest.mark.parametrize("n", [2, 3, 21, 22, 100, 1000])
def test_parent_pair_draws_like_sample(n):
    # CPython's sample(pool, 2) copies the pool up to 21 members and keeps a
    # set of drawn positions above that; the pair must match both branches,
    # by value and by the generator state it leaves. Repeated draws make the
    # second pick hit the first one's position on both sides of 21.
    pool = random.Random(n).sample(range(10 * n), n)
    for seed in (0, 1, 5, 99):
        mine, ref = random.Random(seed), random.Random(seed)
        for _ in range(200):
            assert rankprice.search._pair(mine.getrandbits, pool) == tuple(ref.sample(pool, 2))
        assert mine.getstate() == ref.getstate()


def test_crossover_identical_parents():
    p = (1, 4, 2)
    assert crossover(p, p, random.Random(0)) == p


def test_crossover_follows_draws(table1_grid):
    p1 = table1_grid.indices_of((18, 27))
    p2 = table1_grid.indices_of((66, 34))
    child = crossover(p1, p2, StubRng([0.3, 0.7]))
    assert table1_grid.prices_of(child) == (18, 34)


def test_crossover_length_mismatch():
    with pytest.raises(InvalidRange, match="parents have lengths"):
        crossover((1, 2), (1, 2, 3), random.Random(0))


def test_crossover_parent_frequency():
    rng = random.Random(17)
    p1, p2 = (0, 0), (1, 1)
    trials = 40_000
    took_first = [0, 0]
    for _ in range(trials):
        child = crossover(p1, p2, rng)
        for component in range(2):
            took_first[component] += child[component] == 0
    for count in took_first:
        assert abs(count / trials - 0.5) < 0.01


def test_mutate_single_value_grid_is_identity():
    inst = validate_instance(
        {"name": "flat", "num_products": 2, "num_customers": 2,
         "budgets": [5, 5], "preferences": [[1, 2], [2, 1]]}
    )
    grid = build_grid(inst)
    assert mutate(grid, (0, 0), random.Random(1)) == (0, 0)


def test_mutate_no_component_selected(table1_grid):
    # draws above 1/I leave the vector untouched
    assert mutate(table1_grid, (2, 3), StubRng([0.9, 0.9])) == (2, 3)


def test_mutate_change_frequency_and_exclusion(table1_grid):
    rng = random.Random(23)
    base = (2, 5)
    trials = 40_000
    changed = [0, 0]
    for _ in range(trials):
        out = mutate(table1_grid, base, rng)
        for component in range(2):
            if out[component] != base[component]:
                changed[component] += 1
            # a changed component never keeps its previous value by definition;
            # also check it stays on the grid
            assert 0 <= out[component] < table1_grid.size
    for count in changed:
        assert abs(count / trials - 0.5) < 0.01


# ------------------------------------------------------------------- naive


def test_naive_budget_one(table1, table1_grid):
    p = params(stop=StopRule.point_budget(1))
    res = naive_search(table1, table1_grid, p)
    assert res.evaluations == 1
    assert res.best_value == res.population[0][1]


@pytest.mark.parametrize(
    "search, init",
    [
        (naive_search, "random"),
        (vns_search, "random"),
        (vns_search, "greedy"),
        (genetic_search, "random"),
        (genetic_search, "greedy"),
    ],
    ids=["naive-random", "vns-random", "vns-greedy", "genetic-random", "genetic-greedy"],
)
def test_time_limit_still_evaluates_one_vector(table1, table1_grid, search, init):
    # A deadline already passed at the first read still lets the first draw
    # be evaluated, the greedy start vector included, and nothing after it.
    ticking = count()
    p = params(stop=StopRule.time_limit(0.5), init=init)
    res = search(table1, table1_grid, p, clock=lambda: float(next(ticking)))
    assert res.evaluations == 1
    assert len(res.trace) == 1


def test_naive_same_seed_same_trace(table1, table1_grid):
    p = params(seed=12, stop=StopRule.point_budget(100))
    a = naive_search(table1, table1_grid, p, clock=FROZEN_CLOCK)
    b = naive_search(table1, table1_grid, p, clock=FROZEN_CLOCK)
    assert a.trace == b.trace
    assert a.best_indices == b.best_indices


# ------------------------------------------------------- hand-made grids


HAND_GRID_INST = generate_instance(4, 12, (5, 30), 0.7, seed=3)
HAND_GRID = BudgetGrid((4, 10, 20, 40))


@pytest.mark.parametrize("search", [naive_search, vns_search, genetic_search])
@pytest.mark.parametrize("pipeline, init", [("s", "random"), ("f", "random"), ("r", "random"),
                                            ("c", "random"), ("", "greedy"), ("sfrco", "greedy"),
                                            ("rc", "greedy")])
def test_budget_steps_and_greedy_run_on_a_grid_missing_a_budget(search, pipeline, init):
    # Steps s f r c and the greedy start price at the top grid value a
    # customer affords, which on this grid is not always their budget.
    assert not set(HAND_GRID_INST.budgets) <= set(HAND_GRID.values)
    p = params(l0=10, q=4, t=5, stop=StopRule.point_budget(40), init=init)
    res = search(HAND_GRID_INST, HAND_GRID, p, pipeline=pipeline)
    assert res.evaluations == 40
    assert set(res.best_prices) <= set(HAND_GRID.values)
    assert res.best_value == assign_oracle(HAND_GRID_INST, HAND_GRID, res.best_indices).revenue
    for v, value in res.population:
        assert value == assign(HAND_GRID_INST, HAND_GRID, v).revenue


@pytest.mark.parametrize("pipeline", ["", "o"])
@pytest.mark.parametrize("search", [naive_search, vns_search, genetic_search])
def test_grid_missing_a_budget_runs_without_budget_steps(search, pipeline):
    p = params(l0=10, q=4, t=5, stop=StopRule.point_budget(40))
    res = search(HAND_GRID_INST, HAND_GRID, p, pipeline=pipeline)
    assert res.evaluations == 40
    assert set(res.best_prices) <= set(HAND_GRID.values)


def _step_outcome(step, inst, grid, indices, a):
    """Run ``step`` on one state and check what every budget step promises on any grid."""
    out, out_a = step(inst, grid, indices, a)
    assert len(out) == inst.num_products and all(0 <= m < grid.size for m in out)
    assert out_a == assign_oracle(inst, grid, out)
    assert out_a.revenue >= a.revenue
    if step is slack:
        assert out_a.chosen == a.chosen
    return out, out_a


@pytest.mark.parametrize("step", [slack, fill, reassignment, conditional_reassignment])
def test_budget_steps_called_directly_run_on_a_grid_missing_a_budget(step):
    rng = random.Random(418)
    seen = Counter()
    for _ in range(100):
        indices = random_price(HAND_GRID, HAND_GRID_INST.num_products, rng)
        a = assign(HAND_GRID_INST, HAND_GRID, indices)
        seen["nobody idle"] += None not in a.chosen
        out, _ = _step_outcome(step, HAND_GRID_INST, HAND_GRID, indices, a)
        seen["moved"] += out != indices
    assert seen["nobody idle"] > 0 and seen["moved"] > 0


def test_opt_based_and_pipeline_o_run_on_a_grid_missing_a_budget():
    rng = random.Random(419)
    for _ in range(20):
        indices = random_price(HAND_GRID, HAND_GRID_INST.num_products, rng)
        a = assign(HAND_GRID_INST, HAND_GRID, indices)
        order = list(range(HAND_GRID_INST.num_products))
        for out, out_a in (opt_based(HAND_GRID_INST, HAND_GRID, indices, a, order),
                           run_pipeline(HAND_GRID_INST, HAND_GRID, "o", indices, a, rng)):
            assert out_a.revenue >= a.revenue
            assert out_a == assign(HAND_GRID_INST, HAND_GRID, out)


def test_every_step_greedy_and_vns_hold_on_random_hand_grids():
    # Random grids of 1-8 values in 1..40, some above the poorest budgets,
    # so some customers afford no grid value at all.
    rng = random.Random(20261022)
    seen = Counter()
    runs = list(product(["random", "greedy"], ["sfrc", "rc", "o", ""]))
    for n in range(400):
        inst = helpers.random_instance(rng.randrange(10**6), max_products=6, max_customers=12,
                                       budget=(5, 30))
        grid = BudgetGrid(tuple(sorted(rng.sample(range(1, 41), rng.randint(1, 8)))))
        seen["off grid"] += not set(inst.budgets) <= set(grid.values)
        seen["unaffordable"] += -1 in inst.top_levels(grid)
        for step in (slack, fill, reassignment, conditional_reassignment):
            indices = random_price(grid, inst.num_products, rng)
            state = (indices, assign(inst, grid, indices))
            _step_outcome(step, inst, grid, *state)
            _step_outcome(step, inst, grid, *_step_outcome(slack, inst, grid, *state))
        start = greedy_init(inst, grid)
        assert len(start) == inst.num_products and all(0 <= m < grid.size for m in start)
        init, pipeline = runs[n % len(runs)]
        p = params(l0=4, q=2, t=3, stop=StopRule.point_budget(13), init=init,
                   seed=rng.randrange(100))
        res = vns_search(inst, grid, p, pipeline=pipeline)
        assert res.best_value == assign_oracle(inst, grid, res.best_indices).revenue
    assert seen["off grid"] > 300 and seen["unaffordable"] > 80


# --------------------------------------------------------------------- vns


def test_vns_replays_worked_episode(table1, table1_grid):
    seed = VNS_REPLAY_SEED
    # reproduce the initial sample the run will draw and check its elites
    rng = random.Random(seed)
    initial = [random_price(table1_grid, 2, rng) for _ in range(10)]
    pop = [(vec, assign(table1, table1_grid, vec).revenue) for vec in initial]
    elites = select_elites(pop, 3)
    elite_prices = {table1_grid.prices_of(pop[slot][0]) for slot in elites}
    assert elite_prices == {(27, 66), (50, 18), (66, 27)}
    assert max(revenue for _, revenue in pop) == 228

    p = params(l0=10, q=3, t=6, stop=StopRule.point_budget(10 + 2 * 6), seed=seed)
    res = vns_search(table1, table1_grid, p)
    assert res.trace[0].best == 228
    assert res.trace[1].best == 236
    assert res.best_value == 236
    assert res.best_prices in {(34, 66), (50, 34), (66, 34)}


def test_vns_zero_iterations_returns_init_best(table1, table1_grid):
    p = params(seed=4, stop=StopRule.point_budget(10))
    res = vns_search(table1, table1_grid, p)
    assert res.iterations == 0
    assert res.evaluations == 10
    assert len(res.trace) == 1
    assert res.best_value == max(revenue for _, revenue in res.population)


def test_vns_never_beats_brute_force():
    rng = random.Random(7)
    for _ in range(15):
        inst = helpers.random_instance(rng.randrange(10**6))
        grid = build_grid(inst)
        optimum, _ = brute_force(inst, grid)
        p = params(l0=20, q=5, t=10, stop=StopRule.point_budget(300), seed=rng.randrange(10**6))
        res = vns_search(inst, grid, p)
        assert res.best_value <= optimum


def test_vns_deterministic_and_monotone(table1, table1_grid):
    p = params(seed=9, stop=StopRule.point_budget(400), init="greedy")
    a = vns_search(table1, table1_grid, p, pipeline="sfrc", clock=FROZEN_CLOCK)
    b = vns_search(table1, table1_grid, p, pipeline="sfrc", clock=FROZEN_CLOCK)
    assert a.trace == b.trace
    assert a.best_indices == b.best_indices
    values = [entry.best for entry in a.trace]
    assert values == sorted(values)


def test_vns_radius_grows_then_caps(table1, table1_grid, monkeypatch):
    # a tiny elite stuck in a corner forces repeated failures; the radius
    # must grow one step at a time and stop growing at size-1
    radii = []

    def recording(grid, indices, radius):
        radii.append(radius)
        return neighborhood(grid, indices, radius)

    monkeypatch.setattr(rankprice.search, "neighborhood", recording)
    p = params(l0=1, q=1, t=3, stop=StopRule.point_budget(1 + 30 * 3), seed=2)
    vns_search(table1, table1_grid, p)
    assert radii == sorted(radii)
    assert sorted(set(radii)) == list(range(1, table1_grid.size))
    assert radii[-1] == table1_grid.size - 1


def test_vns_builds_each_elite_box_once_per_batch(monkeypatch):
    inst = generate_instance(6, 20, (5, 40), 0.7, seed=3)
    grid = build_grid(inst)
    for q, t in ((3, 12), (8, 4)):
        p = params(l0=20, q=q, t=t, stop=StopRule.point_budget(200), seed=5)
        expected = vns_search(inst, grid, p, pipeline="sfrc", clock=FROZEN_CLOCK)
        batches = []

        def counting_elites(*args):
            batches.append(0)
            return select_elites(*args)

        def counting_boxes(grid, indices, radius):
            batches[-1] += 1
            return neighborhood(grid, indices, radius)

        with monkeypatch.context() as patch:
            patch.setattr(rankprice.search, "select_elites", counting_elites)
            patch.setattr(rankprice.search, "neighborhood", counting_boxes)
            res = vns_search(inst, grid, p, pipeline="sfrc", clock=FROZEN_CLOCK)
        assert len(batches) == res.iterations > 0
        assert 0 < max(batches) <= min(q, t)
        assert (res.trace, res.best_indices, res.best_value, res.population) == (
            expected.trace, expected.best_indices, expected.best_value, expected.population)


def test_vns_time_limit_stops():
    inst = helpers.table1()
    grid = build_grid(inst)
    ticking = iter(range(10**6))
    clock = lambda: next(ticking) * 0.5
    p = params(stop=StopRule.time_limit(5.0), seed=1)
    res = vns_search(inst, grid, p, clock=clock)
    assert res.evaluations >= 10
    assert res.elapsed >= 5.0


def _ticking_assign(monkeypatch):
    """A clock that reads the number of ``assign`` calls made so far."""
    ticks = [0]

    def counted(assign):
        def wrapped(*args):
            ticks[0] += 1
            return assign(*args)

        return wrapped

    for module in (rankprice.search, rankprice.local_search):
        monkeypatch.setattr(module, "assign", counted(module.assign))
    return lambda: ticks[0]


def test_vns_time_limit_overrun_is_one_refined_vector(monkeypatch):
    # The clock ticks once per assign call, in the search and in the
    # local search alike, so refining a whole batch past the deadline would
    # overrun by hundreds of ticks.
    clock = _ticking_assign(monkeypatch)
    inst = helpers.table1()
    grid = build_grid(inst)
    p = params(t=50, stop=StopRule.time_limit(100), seed=1)
    res = vns_search(inst, grid, p, pipeline="o", clock=clock)
    one_scan = inst.num_products * grid.size
    assert 100 <= res.elapsed <= 100 + one_scan


# The "-False" in these ids is the dedup=False case of the retired dedup
# parameter; keeping it keeps each test's name unchanged. The "iterations"
# case is a point budget of whole batches, which is what an iterations limit was.
def _rule_id(rule):
    return f"{rule}-False"


def _stop(rule, search):
    """The stop rule of runs with l0 = 10 and t = 6 under each rule id."""
    return {
        "points": StopRule.point_budget(90),
        # Eight whole batches, after the l0 vectors that naive does not draw.
        "iterations": StopRule.point_budget(8 * 6 + (0 if search is naive_search else 10)),
        "time": StopRule.time_limit(150),
    }[rule]


@pytest.mark.parametrize("search", [naive_search, vns_search, genetic_search])
@pytest.mark.parametrize("pipeline", ["", "sfrc"])
@pytest.mark.parametrize("rule", ["points", "iterations", "time"], ids=_rule_id)
def test_evaluations_count_the_population(search, pipeline, rule):
    p = params(l0=10, q=4, t=6, stop=_stop(rule, search), seed=3)
    for inst in (helpers.table1(), generate_instance(4, 9, (5, 30), 0.5, seed=11)):
        ticks = count()
        res = search(inst, build_grid(inst), p, pipeline=pipeline, clock=lambda: next(ticks))
        assert res.evaluations == len(res.population) == res.trace[-1].evals


# (iterations, trace length, evaluations) of each run of
# ``test_iterations_and_trace_length_are_pinned``, in its case order.
PINNED_RUN_LENGTHS = [
    (15, 15, 90), (8, 8, 48), (19, 19, 114), (15, 15, 90), (8, 8, 48), (11, 11, 66),
    (14, 15, 90), (8, 9, 58), (18, 19, 114), (14, 15, 90), (8, 9, 58), (10, 11, 70),
    (14, 15, 90), (8, 9, 58), (18, 19, 114), (14, 15, 90), (8, 9, 58), (10, 11, 70),
    (15, 15, 90), (8, 8, 48), (19, 19, 114), (15, 15, 90), (8, 8, 48), (11, 11, 66),
    (14, 15, 90), (8, 9, 58), (18, 19, 114), (14, 15, 90), (8, 9, 58), (10, 11, 70),
    (14, 15, 90), (8, 9, 58), (18, 19, 114), (14, 15, 90), (8, 9, 58), (10, 11, 70),
]


def test_iterations_and_trace_length_are_pinned():
    # SEARCH_DIGEST pins traces under point budgets only. This pins the
    # iteration count too, under both stop rules.
    cases = product(
        [helpers.table1(), generate_instance(4, 9, (5, 30), 0.5, seed=11)],
        [naive_search, vns_search, genetic_search],
        ["", "sfrc"],
        ["points", "iterations", "time"],
    )
    lengths = []
    for inst, search, pipeline, rule in cases:
        p = params(l0=10, q=4, t=6, stop=_stop(rule, search), seed=3)
        ticks = count()
        res = search(inst, build_grid(inst), p, pipeline=pipeline, clock=lambda: next(ticks))
        # Every method but naive snapshots its initial population first.
        assert len(res.trace) == res.iterations + (0 if search is naive_search else 1)
        lengths.append((res.iterations, len(res.trace), res.evaluations))
    assert lengths == PINNED_RUN_LENGTHS


# ----------------------------------------------------------------- genetic


def test_genetic_zero_iterations(table1, table1_grid):
    p = params(q=10, stop=StopRule.point_budget(10), seed=3)
    res = genetic_search(table1, table1_grid, p)
    assert res.iterations == 0
    assert res.evaluations == 10
    assert res.best_value == max(r for _, r in res.population)


def test_genetic_requires_two_parents():
    inst = helpers.table1()
    grid = build_grid(inst)
    with pytest.raises(RankPriceError, match=r"got q=1; a run config that omits q gets"
                                             r" min\(1000, l0\)$"):
        genetic_search(inst, grid, params(q=1, seed=0))


def test_genetic_hit_rate_table1(table1, table1_grid):
    hits = 0
    for seed in range(100):
        p = params(l0=10, q=10, t=6, stop=StopRule.point_budget(500), seed=seed)
        res = genetic_search(table1, table1_grid, p)
        assert res.best_value <= 236
        hits += res.best_value == 236
    assert hits >= 95
    print(f"genetic table1 hit rate: {hits}/100")


def test_genetic_same_seed_same_trace(table1, table1_grid):
    p = params(q=10, seed=31, stop=StopRule.point_budget(300))
    a = genetic_search(table1, table1_grid, p, clock=FROZEN_CLOCK)
    b = genetic_search(table1, table1_grid, p, clock=FROZEN_CLOCK)
    assert a.trace == b.trace


def test_genetic_selects_elites_once_per_batch(monkeypatch):
    inst = generate_instance(6, 20, (5, 40), 0.7, seed=3)
    grid = build_grid(inst)
    p = params(l0=20, q=8, t=12, stop=StopRule.point_budget(200), seed=5)
    expected = genetic_search(inst, grid, p, clock=FROZEN_CLOCK)
    calls = []

    def counting_elites(*args):
        calls.append(0)
        return select_elites(*args)

    monkeypatch.setattr(rankprice.search, "select_elites", counting_elites)
    res = genetic_search(inst, grid, p, clock=FROZEN_CLOCK)
    assert len(calls) == res.iterations > 0
    assert (res.trace, res.best_indices, res.best_value, res.population) == (
        expected.trace, expected.best_indices, expected.best_value, expected.population)


# -------------------------------------------------------------- invariants


def test_elite_selection_order_and_tie_break():
    pop = [((0,), 10), ((1,), 30), ((2,), 30), ((3,), 5), ((4,), 30)]
    assert select_elites(pop, 3) == [1, 2, 4]
    assert select_elites(pop, 10) == [1, 2, 4, 0, 3]
    assert select_elites(pop, 2, among=[0, 3, 4]) == [4, 0]


def test_elites_of_batches_equal_full_selection_under_ties():
    # Revenues from a narrow range tie often; the previous elites go first,
    # as next_elites passes them, then the slots of one batch.
    rng = random.Random(16)
    for _ in range(200):
        q, size = rng.randint(1, 12), rng.randint(1, 60)
        pop = [((slot,), rng.randrange(5)) for slot in range(size)]
        cuts = sorted(rng.choices(range(size + 1), k=rng.randint(1, 4))) + [size]
        elites, ranked = [], 0
        for cut in cuts:
            elites = select_elites(pop, q, [*elites, *range(ranked, cut)])
            ranked = cut
            assert elites == select_elites(pop[:cut], q)
        assert elites == sorted(range(size), key=lambda s: (-pop[s][1], s))[:q]


@pytest.mark.parametrize("search", [vns_search, genetic_search])
@pytest.mark.parametrize("pipeline", ["", "sfrc"])
@pytest.mark.parametrize("rule", ["points", "iterations", "time"], ids=_rule_id)
def test_incremental_elites_equal_full_selection(monkeypatch, search, pipeline, rule):
    inst = generate_instance(6, 12, (5, 40), 0.7, seed=4)
    grid = build_grid(inst)
    stop = {
        "points": StopRule.point_budget(120),
        # Fifteen whole batches of t = 6 after the l0 = 10 initial vectors.
        "iterations": StopRule.point_budget(10 + 15 * 6),
        "time": StopRule.time_limit(450),
    }[rule]
    clock = _ticking_assign(monkeypatch) if rule == "time" else FROZEN_CLOCK
    p = params(l0=10, q=4, t=6, stop=stop, seed=7)
    sizes = []

    def checked_elites(population, q, *args):
        elites = select_elites(population, q, *args)
        assert elites == select_elites(population, q)
        sizes.append(len(population))
        return elites

    refined = []

    def counting_pipeline(*args):
        refined.append(0)
        return run_pipeline(*args)

    monkeypatch.setattr(rankprice.search, "select_elites", checked_elites)
    monkeypatch.setattr(rankprice.search, "run_pipeline", counting_pipeline)
    res = search(inst, grid, p, pipeline=pipeline, clock=clock)
    assert len(sizes) == res.iterations
    assert sizes[-1] > p.q + p.t
    if rule == "time":
        assert res.elapsed >= 450
        if pipeline:
            # Every earlier batch was refined whole; the deadline stopped the
            # last one part way through.
            last_refined = len(refined) - (sizes[-1] - p.l0)
            assert 0 < last_refined < res.evaluations - sizes[-1]


def test_elites_dominate_rest(table1, table1_grid):
    p = params(l0=30, q=8, t=10, stop=StopRule.point_budget(150), seed=5)
    res = vns_search(table1, table1_grid, p)
    pop = res.population
    elites = select_elites(pop, 8)
    # independent sort-based oracle, same tie-break
    expected = sorted(range(len(pop)), key=lambda s: (-pop[s][1], s))[:8]
    assert elites == expected
    elite_set = set(elites)
    rest = [pop[s][1] for s in range(len(pop)) if s not in elite_set]
    assert min(pop[s][1] for s in elites) >= max(rest)


def test_population_stays_on_grid(table1, table1_grid):
    for search, q in ((vns_search, 5), (genetic_search, 5)):
        p = params(q=q, seed=11, stop=StopRule.point_budget(200))
        res = search(table1, table1_grid, p, pipeline="sfrc")
        for indices, _ in res.population:
            assert all(0 <= m < table1_grid.size for m in indices)
            assert len(indices) == table1.num_products


def test_best_value_matches_population_max(table1, table1_grid):
    p = params(seed=13, stop=StopRule.point_budget(250))
    for search in (naive_search, vns_search):
        res = search(table1, table1_grid, p)
        assert res.best_value == max(r for _, r in res.population)


def test_pipeline_results_replace_population_members(table1, table1_grid):
    p = params(l0=10, seed=21, stop=StopRule.point_budget(100))
    res = vns_search(table1, table1_grid, p, pipeline="s")
    pop = res.population
    for slot, (indices, revenue) in enumerate(pop):
        a = assign(table1, table1_grid, indices)
        assert a.revenue == revenue
        if slot >= 10:
            # loop-phase members went through the slack step: re-applying
            # it must change nothing
            assert slack(table1, table1_grid, indices, a) == (indices, a)


# SHA-256 over the seeded runs of ``_pinned_runs``. A change that keeps
# seeded results keeps this digest; one that changes them must say so.
SEARCH_DIGEST = "946a5ed6ab30aea29a2b4957493845f8a928a712fc45e011a600840c1b4e6993"


def _pinned_runs():
    """One record per run: best vector, trace, population and local-search counts.

    Every elapsed time comes from a clock that counts its own reads.
    """
    cases = product(
        [helpers.table1(), generate_instance(4, 9, (5, 30), 0.5, seed=11)],
        [naive_search, vns_search, genetic_search],
        ["", "sfrc", "rc", "o"],
        ["random", "greedy"],
    )
    for n, (inst, search, pipeline, init) in enumerate(cases):
        p = params(l0=10, q=4, stop=StopRule.point_budget(90), init=init, seed=2 * n)
        ticks = count()
        res = search(inst, build_grid(inst), p, pipeline=pipeline, clock=lambda: next(ticks))
        stats = res.ls_stats
        yield [
            list(res.best_indices),
            [[e.evals, e.elapsed, e.best] for e in res.trace],
            [[list(indices), value] for indices, value in res.population],
            sorted(stats.kept.items()),
            sorted(stats.reverted.items()),
            stats.assign_calls,
        ]


def test_search_results_are_pinned():
    blob = json.dumps(list(_pinned_runs()), separators=(",", ":"))
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == SEARCH_DIGEST
