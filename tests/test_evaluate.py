import random
import re
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from rankprice import (
    BudgetGrid,
    InvalidRange,
    assign,
    assign_oracle,
    assign_prices,
    build_grid,
    validate_instance,
)
from rankprice.evaluate import apply_move

# Worked revenue values for the small instance, checked by hand.
TABLE1_SPOT_VALUES = {
    (34, 34): 204,
    (42, 34): 228,
    (18, 27): 180,
    (42, 42): 210,
    (50, 42): 226,
    (42, 27): 234,
    (50, 34): 236,
    (50, 50): 150,
}


def test_spot_values(table1, table1_grid):
    for prices, expected in TABLE1_SPOT_VALUES.items():
        a = assign(table1, table1_grid, table1_grid.indices_of(prices))
        assert a.revenue == expected, prices


def test_spot_value_modified_instance(table1_mod):
    grid = build_grid(table1_mod)
    a = assign(table1_mod, grid, grid.indices_of((66, 18)))
    assert a.revenue == 240


def test_buyers_at_34_34(table1, table1_grid):
    a = assign(table1, table1_grid, table1_grid.indices_of((34, 34)))
    assert a.chosen == (None, 0, None, 1, 1, 0, 0, 1)


def test_unaffordable_everywhere_sells_nothing(table1):
    # the top grid value is still affordable to two customers, so use raw
    # prices above every budget
    a = assign_prices(table1, (100, 100))
    assert a.chosen == (None,) * 8
    assert a.revenue == 0


def test_oracle_worked_value(table1, table1_grid):
    a = assign_oracle(table1, table1_grid, table1_grid.indices_of((50, 34)))
    assert a.revenue == 236


def test_single_customer_single_product():
    inst = validate_instance(
        {"name": "tiny", "num_products": 1, "num_customers": 1,
         "budgets": [7], "preferences": [[1]]}
    )
    grid = build_grid(inst)
    assert assign_oracle(inst, grid, (0,)).chosen == (0,)
    assert assign_oracle(inst, grid, (0,)).revenue == 7


@st.composite
def instance_and_indices(draw, max_products=5, max_customers=8):
    num_i = draw(st.integers(1, max_products))
    num_k = draw(st.integers(1, max_customers))
    budgets = draw(st.lists(st.integers(1, 30), min_size=num_k, max_size=num_k))
    rows = []
    for _ in range(num_k):
        scores = draw(st.permutations(range(1, num_i + 1)))
        present = draw(
            st.lists(st.booleans(), min_size=num_i, max_size=num_i).filter(any)
        )
        rows.append([s if keep else None for s, keep in zip(scores, present)])
    inst = validate_instance(
        {"name": "hyp", "num_products": num_i, "num_customers": num_k,
         "budgets": budgets, "preferences": rows}
    )
    grid = build_grid(inst)
    indices = tuple(
        draw(st.integers(0, grid.size - 1)) for _ in range(num_i)
    )
    return inst, grid, indices


@settings(max_examples=200, deadline=None)
@given(instance_and_indices())
def test_oracle_equivalence(case):
    inst, grid, indices = case
    assert assign(inst, grid, indices) == assign_oracle(inst, grid, indices)


@settings(max_examples=100, deadline=None)
@given(instance_and_indices())
def test_assignment_invariants(case):
    inst, grid, indices = case
    prices = grid.prices_of(indices)
    a = assign(inst, grid, indices)
    recomputed = 0
    for k, choice in enumerate(a.chosen):
        if choice is None:
            # nothing affordable among this customer's products
            assert all(
                inst.preferences[k][i] is None or prices[i] > inst.budgets[k]
                for i in range(inst.num_products)
            )
            continue
        assert prices[choice] <= inst.budgets[k]
        assert inst.preferences[k][choice] is not None
        # no more-preferred product was affordable
        for i in range(inst.num_products):
            s = inst.preferences[k][i]
            if s is not None and s > inst.preferences[k][choice]:
                assert prices[i] > inst.budgets[k]
        recomputed += prices[choice]
    assert recomputed == a.revenue


@settings(max_examples=100, deadline=None)
@given(instance_and_indices(), st.integers(0, 100))
def test_price_increase_locality(case, pick):
    # raising one product's price never flips a customer who wasn't buying it
    inst, grid, indices = case
    i = pick % inst.num_products
    if indices[i] == grid.size - 1:
        return
    raised = list(indices)
    raised[i] += 1
    before = assign(inst, grid, indices)
    after = assign(inst, grid, raised)
    for k in range(inst.num_customers):
        if before.chosen[k] != i:
            assert after.chosen[k] == before.chosen[k]


def test_oracle_equivalence_seeded_sweep():
    rng = random.Random(20240501)
    for _ in range(500):
        inst = helpers.random_instance(rng.randrange(10**6))
        grid = build_grid(inst)
        indices = helpers.random_indices(grid, inst.num_products, rng)
        assert assign(inst, grid, indices) == assign_oracle(inst, grid, indices)


# ------------------------------------------------------- one-product delta


def _delta_walk(inst, grid, indices, moves):
    """Apply ``(product, level)`` moves one at a time through the delta path.

    Yields ``(before, i, old_level, new_level, after)`` per move, each
    ``after`` checked against the full path and the oracle.
    """
    cur, cur_a = list(indices), assign(inst, grid, indices)
    for i, level in moves:
        after = assign(inst, grid, cur, (i, level, cur_a, cur_a.chosen.count(i)))
        old = cur[i]
        cur[i] = level
        assert after == assign(inst, grid, cur) == assign_oracle(inst, grid, cur)
        yield cur_a, i, old, level, after
        cur_a = after


@settings(max_examples=200, deadline=None)
@given(instance_and_indices(), st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)),
                                        min_size=1, max_size=6))
def test_delta_path_equals_full_path_and_oracle(case, raw_moves):
    # Chained moves: every delta after the first starts from a delta-built assignment.
    inst, grid, indices = case
    moves = [(i % inst.num_products, m % grid.size) for i, m in raw_moves]
    for _ in _delta_walk(inst, grid, indices, moves):
        pass


def test_delta_path_covers_every_kind_of_move():
    rng = random.Random(20261018)
    seen = dict.fromkeys(["raise", "cut", "same level", "unwanted product", "buyer lost",
                          "buyer won", "buyer left for nothing", "nothing bought"], 0)
    for _ in range(400):
        inst = helpers.random_instance(rng.randrange(10**6), max_products=5, max_customers=10)
        grid = build_grid(inst)
        indices = helpers.random_indices(grid, inst.num_products, rng)
        moves = [(rng.randrange(inst.num_products), rng.randrange(grid.size)) for _ in range(4)]
        for before, i, old, new, after in _delta_walk(inst, grid, indices, moves):
            seen["raise"] += new > old
            seen["cut"] += new < old
            seen["same level"] += new == old
            seen["unwanted product"] += all(row[i] is None for row in inst.preferences)
            pairs = list(zip(before.chosen, after.chosen))
            seen["buyer lost"] += any(b == i != a for b, a in pairs)
            seen["buyer won"] += any(b != i == a for b, a in pairs)
            seen["buyer left for nothing"] += (i, None) in pairs
            seen["nothing bought"] += None in before.chosen and None in after.chosen
    assert all(seen.values()), seen


# ------------------------------------------------------- the in-place step


def _checked_move(inst, grid, indices, i, m):
    """``apply_move`` on the oracle's choices under ``indices``, checked against the oracle.

    After the move ``chosen`` is the oracle's assignment of the moved
    vector, the delta is the exact revenue difference, and the reported
    pairs are exactly the customers whose choice changed, each with their
    old choice. Returns the two assignments.
    """
    before = assign_oracle(inst, grid, indices)
    chosen = list(before.chosen)
    delta, changed = apply_move(inst, grid.values, indices, chosen, i, m, chosen.count(i))
    moved = indices[:i] + (m,) + indices[i + 1:]
    after = assign_oracle(inst, grid, moved)
    assert chosen == list(after.chosen)
    assert delta == after.revenue - before.revenue
    assert sorted(changed) == [(k, c) for k, (c, d) in enumerate(zip(before.chosen, after.chosen))
                               if c != d]
    assert len(changed) == len({k for k, _ in changed})
    return before, after


@settings(max_examples=200, deadline=None)
@given(instance_and_indices(), st.integers(0, 99), st.integers(0, 99))
def test_apply_move_equals_oracle_in_place(case, pick, level):
    inst, grid, indices = case
    _checked_move(inst, grid, indices, pick % inst.num_products, level % grid.size)


def test_apply_move_covers_every_kind_of_move():
    rng = random.Random(20261020)
    seen = dict.fromkeys(["raise", "cut", "jump of several levels", "same level",
                          "unwanted product", "buyer lost", "buyer won", "buyer left for nothing",
                          "no choice changed"], 0)
    for _ in range(400):
        inst = helpers.random_instance(rng.randrange(10**6), max_products=5, max_customers=10)
        grid = build_grid(inst)
        indices = helpers.random_indices(grid, inst.num_products, rng)
        for _ in range(4):
            i, m = rng.randrange(inst.num_products), rng.randrange(grid.size)
            before, after = _checked_move(inst, grid, indices, i, m)
            seen["raise"] += m > indices[i]
            seen["cut"] += m < indices[i]
            seen["jump of several levels"] += abs(m - indices[i]) > 1
            seen["same level"] += m == indices[i]
            seen["unwanted product"] += all(row[i] is None for row in inst.preferences)
            pairs = list(zip(before.chosen, after.chosen))
            seen["buyer lost"] += any(b == i != a for b, a in pairs)
            seen["buyer won"] += any(b != i == a for b, a in pairs)
            seen["buyer left for nothing"] += (i, None) in pairs
            seen["no choice changed"] += m != indices[i] and before == after
            indices = indices[:i] + (m,) + indices[i + 1:]
    assert all(seen.values()), seen


# ------------------------------------------------------- the level table


def _grids(inst, rng):
    """``build_grid``'s grid and three built by hand.

    The hand-built ones keep some of the budgets, start above the poorest
    budget, or take values that are no budget at all, so some customers
    afford no level of them.
    """
    budgets = sorted(set(inst.budgets))
    kept = sorted(rng.sample(budgets, rng.randint(1, len(budgets))))
    above = tuple(range(budgets[0] + 1, budgets[-1] + 3, rng.randint(1, 3)))
    anywhere = sorted(rng.sample(range(1, 40), rng.randint(1, 8)))
    return [build_grid(inst), BudgetGrid(tuple(kept)), BudgetGrid(above), BudgetGrid(tuple(anywhere))]


def _literal_assignment(inst, prices):
    """Each customer's highest-scored product priced within their budget, by plain reading."""
    chosen, revenue = [], 0
    for budget, row in zip(inst.budgets, inst.preferences):
        options = [(score, i) for i, score in enumerate(row)
                   if score is not None and prices[i] <= budget]
        best = max(options)[1] if options else None
        chosen.append(best)
        revenue += prices[best] if options else 0
    return tuple(chosen), revenue


def test_level_table_is_each_customers_top_affordable_level():
    rng = random.Random(20261020)
    unaffordable = 0
    for _ in range(300):
        inst = helpers.random_instance(rng.randrange(10**6), max_customers=10, budget=(5, 30))
        for grid in _grids(inst, rng):
            top = inst.top_levels(grid)
            assert top == tuple(bisect_right(grid.values, b) - 1 for b in inst.budgets)
            assert top == tuple(sum(v <= b for v in grid.values) - 1 for b in inst.budgets)
            assert inst.top_levels(grid) is top
            unaffordable += top.count(-1)
    assert unaffordable


def test_each_grid_of_an_instance_gets_its_own_table(table1, table1_grid):
    # table1's budgets: 18, 66, 27, 34, 66, 50, 42, 42.
    coarse = BudgetGrid((30, 50))
    full = table1.top_levels(table1_grid)
    assert table1.top_levels(coarse) == (-1, 1, -1, 0, 1, 1, 0, 0)
    assert full == (0, 5, 1, 2, 5, 4, 3, 3)
    assert table1.top_levels(table1_grid) is full
    assert table1.top_levels(BudgetGrid(table1_grid.values)) is full


def test_budget_levels_are_the_level_table_of_a_grid_holding_every_budget():
    rng = random.Random(20261023)
    rejected = 0
    for _ in range(300):
        inst = helpers.random_instance(rng.randrange(10**6), max_customers=10, budget=(5, 30))
        for grid in _grids(inst, rng):
            missing = sorted(set(inst.budgets) - set(grid.values))
            if missing:
                rejected += 1
                with pytest.raises(InvalidRange, match=re.escape(f"budgets {missing} are off")):
                    inst.budget_levels(grid)
                continue
            levels = inst.budget_levels(grid)
            assert levels == grid.indices_of(inst.budgets)
            assert levels is inst.top_levels(grid) and inst.budget_levels(grid) is levels
    assert rejected


def test_budget_levels_name_every_missing_budget_and_build_grid(table1, table1_grid):
    # table1's budgets: 18, 66, 27, 34, 66, 50, 42, 42. A grid above the
    # poorest budget, one with a value that is no budget, and a coarse one.
    for values, missing in (((27, 34, 42, 50, 66), [18]), ((18, 30, 34, 42, 50, 66), [27]),
                            ((30, 50), [18, 27, 34, 42, 66])):
        with pytest.raises(InvalidRange, match=re.escape(f"budgets {missing} are off the grid")
                           + ".*build_grid"):
            table1.budget_levels(BudgetGrid(values))
    assert table1.budget_levels(BudgetGrid(table1_grid.values)) == (0, 5, 1, 2, 5, 4, 3, 3)


def test_assign_equals_oracle_on_hand_built_grids():
    # No other oracle test uses a grid that build_grid did not build.
    rng = random.Random(20261021)
    for _ in range(300):
        inst = helpers.random_instance(rng.randrange(10**6), max_customers=10, budget=(5, 30))
        for grid in _grids(inst, rng):
            indices = helpers.random_indices(grid, inst.num_products, rng)
            a = assign(inst, grid, indices)
            assert a == assign_oracle(inst, grid, indices)
            i, m = rng.randrange(inst.num_products), rng.randrange(grid.size)
            moved = indices[:i] + (m,) + indices[i + 1:]
            assert assign(inst, grid, indices, (i, m, a, a.chosen.count(i))) \
                == assign_oracle(inst, grid, moved)


def test_assign_prices_is_a_literal_reading():
    # Repeated prices, prices above every budget and prices that are no budget.
    rng = random.Random(20261022)
    for _ in range(500):
        inst = helpers.random_instance(rng.randrange(10**6), max_customers=10, budget=(5, 30))
        prices = [rng.choice([rng.randint(1, 35), *inst.budgets]) for _ in range(inst.num_products)]
        a = assign_prices(inst, prices)
        assert (a.chosen, a.revenue) == _literal_assignment(inst, prices)
