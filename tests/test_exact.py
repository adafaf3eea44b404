import hashlib
import json
import random
from dataclasses import replace
from itertools import product
from math import prod

import pytest

import helpers
import rankprice.exact
from rankprice import (
    Assignment,
    BudgetGrid,
    InvalidRange,
    SearchSpaceTooLarge,
    assign,
    assign_oracle,
    assign_prices,
    brute_force,
    build_grid,
    build_single_level,
    export_single_level,
    generate_instance,
    save_instance,
    validate_instance,
)
from rankprice.cli import main
from rankprice.evaluate import apply_move
from rankprice.model import write_text


def test_brute_force_table1(table1, table1_grid):
    optimum, optima = brute_force(table1, table1_grid)
    assert optimum == 236
    assert [table1_grid.prices_of(v) for v in optima] == [(34, 66), (50, 34), (66, 34)]
    assert optima == sorted(optima)


def test_brute_force_single_product_closed_form():
    rng = random.Random(44)
    for _ in range(30):
        inst = helpers.random_instance(rng.randrange(10**6), max_products=1)
        grid = build_grid(inst)
        optimum, _ = brute_force(inst, grid)
        expected = max(
            value
            * sum(
                1
                for k in range(inst.num_customers)
                if inst.budgets[k] >= value and inst.preferences[k][0] is not None
            )
            for value in grid.values
        )
        assert optimum == expected


def test_brute_force_respects_cap(table1, table1_grid):
    with pytest.raises(SearchSpaceTooLarge) as err:
        brute_force(table1, table1_grid, cap=35)
    assert err.value.size == 36


@pytest.mark.parametrize("cap", [None, "100", True, False, 2.5, 0, -3],
                         ids=["none", "string", "true", "false", "float", "zero", "negative"])
def test_brute_force_rejects_a_cap_that_is_not_a_positive_int(cap, table1, table1_grid):
    # Like a points limit: an int, not a bool, of at least 1.
    with pytest.raises(InvalidRange) as err:
        brute_force(table1, table1_grid, cap=cap)
    assert str(err.value) == f"enumeration cap must be an integer of at least 1, got {cap!r}"


def test_brute_force_cap_of_one_admits_one_vector():
    inst = _instance([4], [[1]])
    assert brute_force(inst, build_grid(inst), cap=1) == (4, [(0,)])


def test_brute_force_default_cap_admits_the_paper_30x5_grid():
    # The paper's 30x5 instances have M=27 budget levels: 27^5 = 14,348,907 vectors.
    inst = generate_instance(5, 30, (18, 66), 0.5, seed=17)
    grid = build_grid(inst)
    assert grid.size**inst.num_products == 27**5
    optimum, optima = brute_force(inst, grid)
    assert optimum == 989
    assert len(optima) == 1


def test_midpoint_prices_never_beat_grid():
    # enumerate candidate prices over budgets plus the gaps between them:
    # the off-grid candidates never win
    rng = random.Random(2718)
    for _ in range(25):
        inst = generate_instance(2, 5, (5, 30), 1.0, seed=rng.randrange(10**6))
        grid = build_grid(inst)
        optimum, _ = brute_force(inst, grid)
        candidates = list(grid.values)
        for lo, hi in zip(grid.values, grid.values[1:]):
            if hi - lo >= 2:
                candidates.append((lo + hi) // 2)
        best = max(
            assign_prices(inst, (p1, p2)).revenue
            for p1 in candidates
            for p2 in candidates
        )
        assert best == optimum


def test_brute_force_product_permutation_equivariance():
    rng = random.Random(99)
    for _ in range(10):
        inst = helpers.random_instance(rng.randrange(10**6), max_products=3)
        grid = build_grid(inst)
        perm = list(range(inst.num_products))
        rng.shuffle(perm)
        permuted = validate_instance(
            {
                "name": "perm",
                "num_products": inst.num_products,
                "num_customers": inst.num_customers,
                "budgets": list(inst.budgets),
                "preferences": [
                    [row[perm[i]] for i in range(inst.num_products)]
                    for row in inst.preferences
                ],
            }
        )
        value_a, optima_a = brute_force(inst, grid)
        value_b, optima_b = brute_force(permuted, grid)
        assert value_a == value_b
        mapped = {tuple(v[perm[i]] for i in range(len(perm))) for v in optima_a}
        assert mapped == set(optima_b)


def _small_instances(seed, count):
    """Random instances for whole-grid checks: I 1-4, K 1-9, grid size 1 included."""
    rng = random.Random(seed)
    for _ in range(count):
        yield generate_instance(
            num_products=rng.randint(1, 4),
            num_customers=rng.randint(1, 9),
            budget_range=rng.choice([(5, 5), (5, 12), (5, 30)]),
            availability_prob=rng.choice([0.2, 0.5, 1.0]),
            seed=rng.randrange(10**6),
        )


def _lexicographic_reference(inst, grid):
    """Optimum and argmax list by a literal lexicographic scan with the oracle."""
    vectors = list(product(range(grid.size), repeat=inst.num_products))
    revenue = {v: assign_oracle(inst, grid, v).revenue for v in vectors}
    best = max(revenue.values())
    return best, [v for v in vectors if revenue[v] == best]


def test_brute_force_matches_lexicographic_reference():
    cases = [helpers.table1(), helpers.table1_mod(), *_small_instances(151, 60)]
    sizes, ties = set(), 0
    for inst in cases:
        grid = build_grid(inst)
        sizes.add(grid.size)
        optimum, optima = brute_force(inst, grid)
        assert (optimum, optima) == _lexicographic_reference(inst, grid)
        ties += len(optima) > 1
    assert 1 in sizes and ties >= 5


def _recording_assign(monkeypatch):
    """Record every ``assign`` call brute_force makes as (instance, indices, move, result)."""
    calls = []

    def recording(inst, grid, indices, move=None):
        result = assign(inst, grid, indices, move)
        calls.append((inst, tuple(indices), move, result))
        return result

    monkeypatch.setattr(rankprice.exact, "assign", recording)
    return calls


def _recording_step(monkeypatch):
    """Record every ``apply_move`` step brute_force takes.

    Each as (instance, indices, chosen before, i, m, buyers, delta, changed,
    chosen after), the indices being the vector before the move.
    """
    steps = []

    def recording(inst, values, indices, chosen, i, m, buyers):
        before = tuple(chosen)
        delta, changed = apply_move(inst, values, indices, chosen, i, m, buyers)
        steps.append((inst, tuple(indices), before, i, m, buyers, delta, changed, tuple(chosen)))
        return delta, changed

    monkeypatch.setattr(rankprice.exact, "apply_move", recording)
    return steps


def test_brute_force_walk_moves_one_product_one_level(monkeypatch):
    # The walk covers products 2..I-1 on the instance without products 0 and
    # 1, each over its own level list; the pair (0, 1) is read off its revenue
    # surface at each walk vector. The first walk vector gets one full
    # assign; each later one is one in-place step on the walk's own choices,
    # moving one product to the adjacent entry of its list, which may be
    # several grid levels away. After the walk, each optimal walk vector gets
    # one full assign, which finds the products whose gaps it expands.
    calls = _recording_assign(monkeypatch)
    steps = _recording_step(monkeypatch)
    slots = rankprice.exact._pair_slots
    slot_calls = []

    def counting_slots(*args):
        slot_calls.append(args)
        return slots(*args)

    monkeypatch.setattr(rankprice.exact, "_pair_slots", counting_slots)
    walked, jumps = set(), 0
    for inst in _small_instances(152, 40):
        grid = build_grid(inst)
        calls.clear()
        steps.clear()
        slot_calls.clear()
        _, optima = brute_force(inst, grid)
        assert slot_calls == [(inst, grid)]
        rest, first_indices, first_move, first_result = calls[0]
        walked.add(rest.num_products)
        assert rest.num_products == max(inst.num_products - 2, 0)
        assert rest.preferences == tuple(row[2:] for row in inst.preferences)
        levels = helpers.walk_levels(inst, grid)
        found = helpers.walk_vectors(levels, optima) if levels else set()
        assert len(calls) == 1 + len(found)
        assert sorted(indices for _, indices, _, _ in calls[1:]) == sorted(found)
        for full, indices, move, result in calls[1:]:
            assert (full, move) == (inst, None)
            assert result == assign_oracle(inst, grid, indices)
        assert first_move is None
        assert first_indices == tuple(lv[0] for lv in levels)
        visited = [first_indices]
        assert first_result == assign_oracle(rest, grid, first_indices)
        state, revenue = first_result.chosen, first_result.revenue
        for walked_inst, indices, before, i, m, buyers, delta, changed, after in steps:
            assert walked_inst is rest
            assert indices == visited[-1]
            assert before == state
            assert abs(levels[i].index(m) - levels[i].index(indices[i])) == 1
            jumps += abs(m - indices[i]) > 1
            assert buyers == before.count(i)
            moved = indices[:i] + (m,) + indices[i + 1:]
            revenue += delta
            assert Assignment(after, revenue) == assign_oracle(rest, grid, moved)
            assert sorted(changed) == [(k, c) for k, (c, d) in enumerate(zip(before, after))
                                       if c != d]
            visited.append(moved)
            state = after
        assert len(visited) == prod(map(len, levels))
        assert sorted(visited) == list(product(*levels))
    assert walked == {0, 1, 2} and jumps >= 10


def _gap_cases(seed, count):
    """Small (instance, grid) pairs for full-grid argmax checks: I 3-5, K 1-8.

    Budgets lie within 1-12, so the grids stay small. Every third instance
    has a product at 2 or above that nobody wants (a customer left with no
    product wants product 0 instead), and every other one is solved on a
    hand-made grid: one value, values drawn apart from the budgets, or
    values above every budget.
    """
    rng = random.Random(seed)
    for n in range(count):
        num = rng.randint(3, 5)
        lo = rng.randint(1, 12)
        inst = generate_instance(num, rng.randint(1, 8), (lo, min(12, lo + 9 - num)),
                                 rng.choice([0.3, 0.6, 1.0]), seed=rng.randrange(10**6))
        if n % 3 == 0:
            j = rng.randrange(2, num)
            rows = [row[:j] + (None,) + row[j + 1:] for row in inst.preferences]
            rows = [row if any(s is not None for s in row) else (1, *row[1:]) for row in rows]
            inst = replace(inst, preferences=tuple(rows))
        grid = build_grid(inst)
        if n % 2:
            top = max(inst.budgets)
            grid = BudgetGrid(rng.choice([
                (rng.randint(1, 13),),
                tuple(sorted(rng.sample(range(1, 14), rng.randint(1, 9 - num)))),
                tuple(range(top + 1, top + 1 + rng.randint(1, 3))),
            ]))
        yield inst, grid


def test_brute_force_expands_walk_optima_over_their_gaps():
    # The walk visits only the level lists of products 2..I-1; its argmax
    # list, each unsold walk product taken over its gap, is every optimal
    # vector of the whole grid.
    expanded = unwanted = 0
    for inst, grid in _gap_cases(37, 150):
        optimum, optima = brute_force(inst, grid)
        assert (optimum, optima) == _lexicographic_reference(inst, grid), (inst, grid)
        levels = helpers.walk_levels(inst, grid)
        expanded += any(v[j] not in lv for v in optima for j, lv in enumerate(levels, 2))
        for j, lv in enumerate(levels, 2):
            if all(row[j] is None for row in inst.preferences):
                # Nobody wants j: its one level is the top, and every level ties it.
                assert lv == [grid.size - 1]
                assert {v[j] for v in optima} == set(range(grid.size))
                unwanted += 1
    assert expanded > 40 and unwanted > 40


def test_brute_force_cap_counts_the_walked_levels():
    # cap counts M^2 times the length of each walk product's level list.
    inst = _instance([3, 5, 5, 9], [[1, 2, 3], [2, 1, 3], [1, None, 2], [None, 1, 2]])
    grid = build_grid(inst)
    assert helpers.walk_levels(inst, grid) == [[0, 1, 2]]
    expected = brute_force(inst, grid)
    assert brute_force(inst, grid, cap=27) == expected
    with pytest.raises(SearchSpaceTooLarge) as err:
        brute_force(inst, grid, cap=26)
    assert (err.value.size, err.value.cap) == (27, 26)
    inst = _instance([3, 5, 5, 9], [[1, 2, 3], [2, 1, None], [1, None, None], [None, 1, 2]])
    assert helpers.walk_levels(inst, grid) == [[0, 2]]
    with pytest.raises(SearchSpaceTooLarge) as err:
        brute_force(inst, grid, cap=17)
    assert str(err.value) == ("brute force would settle 18 price vectors, above the"
                              " enumeration cap 17")


def _instance(budgets, preferences):
    return validate_instance({
        "name": "curve", "num_products": len(preferences[0]), "num_customers": len(budgets),
        "budgets": budgets, "preferences": preferences,
    })


def test_brute_force_one_product_reads_everything_off_the_curve(monkeypatch):
    # With I = 1 or 2 nothing is walked: one full assign of the empty vector,
    # and the surface gives every grid vector.
    calls = _recording_assign(monkeypatch)
    inst = _instance([3, 5, 5, 9, 9, 9], [[1]] * 6)
    grid = build_grid(inst)
    assert brute_force(inst, grid) == _lexicographic_reference(inst, grid) == (27, [(2,)])
    inst = _instance([3, 5, 5, 9, 9, 9], [[1, 2], [2, 1], [1, None], [None, 1], [2, 1], [1, 2]])
    assert brute_force(inst, grid) == _lexicographic_reference(inst, grid)
    for rest, indices, move, result in calls:
        assert (rest.num_products, indices, move) == (0, (), None)
        assert result.chosen == (None,) * 6 and result.revenue == 0
    assert len(calls) == 2


def _surface_states(seed, count):
    """Random (instance, grid, walk levels) for cell checks of the pair surface.

    I 2-5, K 1-12, availability 0.2-1.0. Every fourth state uses a hand-made
    grid instead of the instance's: one value, values drawn apart from the
    budgets, or values above every budget.
    """
    rng = random.Random(seed)
    for n in range(count):
        lo = rng.randint(1, 30)
        inst = generate_instance(
            num_products=rng.randint(2, 5),
            num_customers=rng.randint(1, 12),
            budget_range=(lo, rng.randint(lo, 30)),
            availability_prob=rng.choice([0.2, 0.4, 0.6, 0.8, 1.0]),
            seed=rng.randrange(10**6),
        )
        grid = build_grid(inst)
        if n % 4 == 0:
            top = max(inst.budgets)
            grid = BudgetGrid(rng.choice([
                (rng.randint(1, 40),),
                tuple(sorted(rng.sample(range(1, 41), rng.randint(1, 8)))),
                tuple(range(top + 1, top + 1 + rng.randint(1, 4))),
            ]))
        yield inst, grid, helpers.random_indices(grid, inst.num_products - 2, rng)


def _surface(inst, grid):
    """``_pair_surface``'s rows, asked by walk levels and an assignment without products 0 and 1."""
    rows = rankprice.exact._pair_surface(inst, grid, rankprice.exact._pair_slots(inst, grid))

    def at(cur, a, floor=-1):
        paid = {None: 0, **{j: grid.values[m] for j, m in enumerate(cur)}}
        return rows(paid, a.chosen, a.revenue, floor)

    return at


def test_pair_surface_matches_oracle_cell_by_cell():
    # Every one of the M^2 cells is the revenue of its full vector.
    cases = [*_surface_states(25, 400),
             (helpers.table1(), helpers.grid_of(helpers.table1()), ()),
             (_instance([4], [[1]]), BudgetGrid((2, 4, 6)), ())]
    for inst, grid, cur in cases:
        rest = replace(inst, preferences=tuple(row[2:] for row in inst.preferences))
        rows = _surface(inst, grid)(cur, assign_oracle(rest, grid, cur))
        width = grid.size if inst.num_products > 1 else 1
        assert [len(row) for row in rows] == [width] * grid.size
        for m0, m1 in product(range(grid.size), range(width)):
            vector = (m0, m1, *cur)[:inst.num_products]
            assert rows[m0][m1] == assign_oracle(inst, grid, vector).revenue, (inst, grid, vector)


def test_pair_surface_floor_leaves_out_only_rows_below_it():
    # Floors at, just above and just below every cell value. A row left out
    # has every oracle cell below the floor; a row kept is the row built with
    # no floor; a floor equal to a row's maximum keeps that row.
    cases = [*_surface_states(26, 200), (helpers.table1(), helpers.grid_of(helpers.table1()), ())]
    left_out = kept = whole = 0
    for inst, grid, cur in cases:
        rest = replace(inst, preferences=tuple(row[2:] for row in inst.preferences))
        a = assign_oracle(rest, grid, cur)
        rows = _surface(inst, grid)
        full = rows(cur, a)
        width = len(full[0])
        oracle = [[assign_oracle(inst, grid, (m0, m1, *cur)[:inst.num_products]).revenue
                   for m1 in range(width)] for m0 in range(grid.size)]
        assert full == oracle
        cells = {r for row in full for r in row}
        for floor in sorted({r + d for r in cells for d in (-1, 0, 1)}):
            got = rows(cur, a, floor)
            assert len(got) == grid.size
            for row, full_row, oracle_row in zip(got, full, oracle):
                if row is None:
                    assert max(oracle_row) < floor, (inst, grid, cur, floor)
                    left_out += 1
                else:
                    assert row == full_row
                    kept += 1
                if max(full_row) == floor:
                    assert row == full_row
            whole += all(row is None for row in got)
    assert left_out > 1000 and kept > 1000 and whole > 100


def _rest_of(inst):
    return replace(inst, preferences=tuple(row[2:] for row in inst.preferences))


def _movers(inst, grid, cur, a):
    """(t, p, products taken) of each customer who can move into the pair, by definition.

    t is the top grid level within the customer's budget, p what their
    choice in ``a`` costs at the walk levels ``cur``, and the products taken
    are those among 0 and 1 that they want and rank above that choice.
    """
    values = grid.values
    for k, (budget, row) in enumerate(zip(inst.budgets, inst.preferences)):
        t = sum(value <= budget for value in values) - 1
        c = a.chosen[k]
        score, p = (0, 0) if c is None else (row[c + 2], values[cur[c]])
        taken = [j for j, s in enumerate(row[:2]) if s is not None and s > score]
        if t >= 0 and taken:
            yield t, p, taken


def _whole_surface_cap(inst, grid, cur, a):
    return a.revenue + sum(grid.values[t] - p for t, p, _ in _movers(inst, grid, cur, a))


def _curve_sum_bound(inst, grid, cur, a):
    """The walk revenue, the best value of each single-product curve, and v[t] - p of each k taking both."""
    values = grid.values
    curves, both = [[0] * grid.size, [0] * grid.size], 0
    for t, p, taken in _movers(inst, grid, cur, a):
        if len(taken) == 2:
            both += values[t] - p
        else:
            for m in range(t + 1):
                curves[taken[0]][m] += values[m] - p
    return a.revenue + both + sum(max(0, *curve) for curve in curves)


def _cap_cases(seed):
    """Random instances (I 1-5, K 1-12) on their own grids, then _surface_states' grids."""
    rng = random.Random(seed)
    for _ in range(80):
        lo = rng.randint(1, 30)
        inst = generate_instance(rng.randint(1, 5), rng.randint(1, 12), (lo, rng.randint(lo, 30)),
                                 rng.choice([0.2, 0.5, 1.0]), seed=rng.randrange(10**6))
        yield inst, build_grid(inst)
    for inst, grid, _ in _surface_states(seed, 80):
        yield inst, grid


def test_surface_cap_carried_along_the_walk_equals_the_cap_from_scratch(monkeypatch):
    # brute_force's own Gray walk over the level lists drives the carried
    # sums; at every walk vector they must give the cap summed customer by
    # customer.
    checked, solving = [], []

    class Checked(rankprice.exact._SurfaceCap):
        __slots__ = ("grid", "cur")

        def __init__(self, grid, pair, cur, chosen):
            super().__init__(grid, pair, cur, chosen)
            self.grid, self.cur = grid, list(cur)
            self.check(chosen)

        def move(self, i, price, changed, chosen):
            super().move(i, price, changed, chosen)
            self.cur[i] = self.grid.values.index(price)
            self.check(chosen)

        def check(self, chosen):
            inst = solving[-1]
            a = assign_oracle(_rest_of(inst), self.grid, self.cur)
            assert tuple(chosen) == a.chosen
            assert a.revenue + self.gain == _whole_surface_cap(inst, self.grid, self.cur, a)
            checked.append(len(self.cur))

    monkeypatch.setattr(rankprice.exact, "_SurfaceCap", Checked)
    products = set()
    for inst, grid in _cap_cases(31):
        products.add(inst.num_products)
        solving.append(inst)
        before = len(checked)
        assert brute_force(inst, grid) == _lexicographic_reference(inst, grid)
        assert len(checked) - before == prod(map(len, helpers.walk_levels(inst, grid)))
    assert products == {1, 2, 3, 4, 5} and len(checked) > 2000


def test_surface_cap_follows_moves_of_any_size():
    # A move may jump a product by several levels: every customer whose
    # choice changes still wants it with a budget between its two prices.
    rng = random.Random(32)
    moves = 0
    for inst, grid in _cap_cases(33):
        rest = _rest_of(inst)
        if not rest.num_products:
            continue
        cur = list(helpers.random_indices(grid, rest.num_products, rng))
        a = assign(rest, grid, cur)
        chosen = list(a.chosen)
        pair = rankprice.exact._pair_slots(inst, grid)
        cap = rankprice.exact._SurfaceCap(grid, pair, cur, chosen)
        for _ in range(20):
            i, m = rng.randrange(len(cur)), rng.randrange(grid.size)
            if m == cur[i]:
                continue
            delta, changed = apply_move(rest, grid.values, cur, chosen, i, m, chosen.count(i))
            cur[i] = m
            cap.move(i, grid.values[m], changed, chosen)
            a = Assignment(tuple(chosen), a.revenue + delta)
            assert a.revenue + cap.gain == _whole_surface_cap(inst, grid, cur, a)
            moves += 1
    assert moves > 1000


def test_curve_sum_bound_lies_between_every_cell_and_the_cap():
    # The curve-sum bound caps every oracle cell and never exceeds the
    # whole-surface cap; above it the surface builds no row.
    tight = 0
    for inst, grid, cur in _surface_states(27, 300):
        rest = _rest_of(inst)
        a = assign_oracle(rest, grid, cur)
        bound = _curve_sum_bound(inst, grid, cur, a)
        width = grid.size if inst.num_products > 1 else 1
        cells = [assign_oracle(inst, grid, (m0, m1, *cur)[:inst.num_products]).revenue
                 for m0 in range(grid.size) for m1 in range(width)]
        assert max(cells) <= bound <= _whole_surface_cap(inst, grid, cur, a)
        assert _surface(inst, grid)(cur, a, bound + 1) == [None] * grid.size
        tight += bound < _whole_surface_cap(inst, grid, cur, a)
    assert tight > 80


@pytest.mark.parametrize("budgets, preferences, expected", [
    # customer 0 ranks product 0 first and buys 1 once 0 is too dear
    ([6, 9, 9], [[2, 1], [None, 1], [1, None]], (21, [(0, 1), (1, 0)])),
    # customer 0 ranks product 1 first and buys 0 once 1 is too dear
    ([6, 9, 9], [[1, 2], [1, None], [None, 1]], (21, [(0, 1), (1, 0)])),
    # customers 2 and 3 afford every level: where their first choice is too dear is empty
    ([4, 7, 9, 9], [[1, None], [None, 1], [2, 1], [1, 2]], (23, [(2, 1)])),
    # customers 0, 1 and 3 want only products 0 and 1: their rows in the walk want nothing
    ([5, 8, 8, 3], [[2, 1, None], [1, 2, None], [None, None, 1], [1, None, 2]],
     (22, [(0, 2, 2)])),
    # the optima differ in both read products at one walk vector
    ([9, 6, 6], [[None, None, 3], [3, 1, 2], [3, 2, None]],
     (21, [(0, 0, 1), (0, 1, 1), (1, 0, 1)])),
])
def test_brute_force_pair_surface_cases(budgets, preferences, expected):
    inst = _instance(budgets, preferences)
    grid = build_grid(inst)
    assert brute_force(inst, grid) == _lexicographic_reference(inst, grid) == expected


def test_brute_force_matches_lexicographic_reference_at_five_products():
    # Every customer wants every product, so most customers can take both
    # read products and the surface's cross terms are densest.
    rng = random.Random(251)
    sizes = set()
    for _ in range(16):
        inst = generate_instance(5, rng.randint(1, 8), rng.choice([(5, 5), (5, 12), (5, 30)]),
                                 1.0, seed=rng.randrange(10**6))
        grid = build_grid(inst)
        sizes.add(grid.size)
        assert brute_force(inst, grid) == _lexicographic_reference(inst, grid)
    assert 1 in sizes and max(sizes) >= 7


@pytest.mark.parametrize("budgets, preferences, expected", [
    # grid size 1: one level, every vector is the all-zero one
    ([7, 7, 7], [[1, 2], [2, 1], [None, 1]], (21, [(0, 0)])),
    # customers 0 and 1 want only product 0: empty rows once it is removed
    ([5, 8, 8, 8], [[1, None], [1, None], [1, 2], [None, 1]], (26, [(0, 1)])),
    # product 0 sells 2 at 2 or 1 at 4: two of its levels tie at one walk vector
    ([2, 4, 4], [[1, None], [1, None], [None, 1]], (8, [(0, 1), (1, 1)])),
    # customer 2 ranks product 1 above product 0 and buys 0 once 1 is too dear
    ([4, 6, 6, 9], [[1, None], [2, 1], [1, 2], [None, 1]], (21, [(0, 2), (1, 2)])),
])
def test_brute_force_curve_edge_cases(budgets, preferences, expected):
    inst = _instance(budgets, preferences)
    grid = build_grid(inst)
    assert brute_force(inst, grid) == _lexicographic_reference(inst, grid) == expected


# SHA-256 of the optimum and full argmax list of brute_force on 200
# generated instances, recorded before the lexicographic loop became a
# Gray-order walk: the order of the walk must not change any result.
BRUTE_FORCE_DIGEST = "411422265ebb2abba883de1feaa750faa6ad62ec95f51d398973a1863d6babad"


def test_brute_force_results_are_pinned():
    records = []
    for inst in _small_instances(15, 200):
        optimum, optima = brute_force(inst, build_grid(inst))
        records.append([optimum, [list(v) for v in optima]])
    blob = json.dumps(records, separators=(",", ":"))
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == BRUTE_FORCE_DIGEST


# ----------------------------------------------------------------- LP model


def _read_export(inst, grid):
    return helpers.read_lp(export_single_level(inst, grid))


def _named(names, prefix):
    return [name for name in names if name.startswith(prefix)]


def test_model_shape_table1(table1, table1_grid):
    model = _read_export(table1, table1_grid)
    assert len(_named(model.binaries, "v_")) == 12
    assert len(_named(model.binaries, "x_")) == 16
    assert helpers.family_counts(model) == {"onep": 2, "onec": 8, "link": 16, "pref": 16}
    assert model.fixed_zero == ()
    assert len(model.objective) == 8 * 2 * 6


def test_model_minimal_instance():
    inst = validate_instance(
        {"name": "unit", "num_products": 1, "num_customers": 1,
         "budgets": [4], "preferences": [[1]]}
    )
    model = _read_export(inst, build_grid(inst))
    assert len(_named(model.binaries, "v_")) == 1
    assert len(_named(model.binaries, "x_")) == 1
    assert helpers.family_counts(model) == {"onep": 1, "onec": 1, "link": 1, "pref": 1}


def test_model_absent_preferences(table1_mod):
    grid = build_grid(table1_mod)
    model = _read_export(table1_mod, grid)
    # customer 5 cannot buy product 2: x fixed, pref row and objective terms gone
    assert model.fixed_zero == ("x_2_5",)
    assert helpers.family_counts(model)["pref"] == 15
    assert helpers.family_counts(model)["link"] == 16
    assert len(model.objective) == (16 - 1) * 6


def test_optimum_point_feasible_in_model(table1, table1_grid):
    model = _read_export(table1, table1_grid)
    indices = table1_grid.indices_of((50, 34))
    a = assign(table1, table1_grid, indices)
    values = helpers.variable_values(indices, a)
    assert helpers.violated_rows(model, values) == []
    assert helpers.objective_value(model, values) == 236


def test_infeasible_point_is_caught(table1, table1_grid):
    model = _read_export(table1, table1_grid)
    # pricing product 1 at two budgets at once violates its onep row
    values = {"v_1_1": 1, "v_1_2": 1}
    assert "onep_1" in helpers.violated_rows(model, values)


def test_model_choices_match_evaluator():
    # for fixed prices the model's rows decouple per customer: the only
    # feasible purchase of each customer must be the evaluator's choice
    rng = random.Random(64)
    cases = [helpers.table1()] + [
        helpers.random_instance(rng.randrange(10**6), max_products=2, max_customers=5)
        for _ in range(6)
    ]
    for inst in cases:
        grid = build_grid(inst)
        model = _read_export(inst, grid)
        for indices in product(range(grid.size), repeat=inst.num_products):
            a = assign(inst, grid, indices)
            base = helpers.variable_values(indices, a)
            assert helpers.violated_rows(model, base) == []
            assert helpers.objective_value(model, base) == a.revenue
            for k in range(inst.num_customers):
                for option in [None] + list(range(inst.num_products)):
                    if option == a.chosen[k]:
                        continue
                    deviant = {
                        name: value
                        for name, value in base.items()
                        if not name.startswith("x_")
                        or name.split("_")[2] != str(k + 1)
                    }
                    if option is not None:
                        deviant[f"x_{option + 1}_{k + 1}"] = 1
                    assert helpers.violated_rows(model, deviant) != []


def test_export_is_well_formed():
    # Names are declared, used and unique; bounds fix exactly the unavailable
    # purchases; and the body is what build_single_level writes.
    rng = random.Random(53)
    for _ in range(50):
        lo = rng.randint(1, 40)
        inst = generate_instance(rng.randint(1, 8), rng.randint(1, 12), (lo, rng.randint(lo, 40)),
                                 rng.choice([0.2, 0.5, 1.0]), seed=rng.randrange(10**6))
        grid = build_grid(inst)
        text = export_single_level(inst, grid)
        assert text.endswith("\n" + "\n".join(build_single_level(inst, grid)) + "\n")
        model = helpers.read_lp(text)
        declared = set(model.binaries)
        assert len(declared) == len(model.binaries)
        used = {name for _, v, x in model.objective for name in (v, x)}
        used.update(name for _, terms, _, _ in model.rows for _, name in terms)
        used.update(model.fixed_zero)
        assert used == declared
        names = [name for name, *_ in model.rows]
        assert len(set(names)) == len(names)
        unavailable = {
            f"x_{i + 1}_{k + 1}"
            for k, row in enumerate(inst.preferences)
            for i, score in enumerate(row)
            if score is None
        }
        assert set(model.fixed_zero) == unavailable
        assert len(model.fixed_zero) == len(unavailable)


def test_export_is_byte_stable(table1, table1_grid, tmp_path):
    text_a = export_single_level(table1, table1_grid)
    text_b = export_single_level(table1, table1_grid)
    assert text_a == text_b
    path_a, path_b = tmp_path / "a.lp", tmp_path / "b.lp"
    write_text(path_a, text_a)
    write_text(path_b, text_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_written_lp_is_the_export_in_utf8(tmp_path):
    # A non-ASCII name reaches the header comment; line ends are written as exported.
    for inst in (helpers.table1(),
                 generate_instance(3, 5, (5, 30), 0.5, seed=4, name="caf\u00e9\r\nEnd")):
        save_instance(inst, tmp_path / "inst.json")
        path = tmp_path / "model.lp"
        assert main(["export-lp", "--instance", str(tmp_path / "inst.json"),
                     "--out", str(path)]) == 0
        assert path.read_bytes() == export_single_level(inst, build_grid(inst)).encode("utf-8")


def test_export_name_cannot_inject_lp_lines(table1, table1_grid):
    # The name comes from instance JSON; a line break in it must not end the header comment.
    text = export_single_level(
        replace(table1, name="demo\nEnd\nSubject To\n c0: x_1_1 >= 1"), table1_grid
    )
    lines = text.splitlines()
    assert [n for n, line in enumerate(lines) if line == "End"] == [len(lines) - 1]
    joined = replace(table1, name="demo End Subject To  c0: x_1_1 >= 1")
    assert text == export_single_level(joined, table1_grid)


# SHA-256 of the LP text of each instance, recorded before build_single_level
# was rewritten as one pass per customer: the export must not change.
EXPORT_DIGESTS = {
    "table1": "fc913e19b0b41e734853f772c33543f8d0bb99b613b33c7982e1578f2477bdc8",
    "table1-mod": "f1552a78ac790b3826fa5bc07b4a4e54d038d7badc8ef05e27726193dbd6293f",
    "gen-I4-K9-seed11": "ce71141507f2a6bbc5de8372871ecb6276cfaad757c1aa2aaf019c0cbd70a6a6",
}


@pytest.mark.parametrize("name", sorted(EXPORT_DIGESTS))
def test_export_bytes_are_pinned(name):
    inst = {
        "table1": helpers.table1,
        "table1-mod": helpers.table1_mod,
        "gen-I4-K9-seed11": lambda: generate_instance(4, 9, (5, 30), 0.5, seed=11),
    }[name]()
    assert inst.name == name
    text = export_single_level(inst, build_grid(inst))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == EXPORT_DIGESTS[name]


def _sweep_exports(seed, count):
    """LP texts of ``count`` generated instances and of the two benchmark shapes.

    I 1-8, K 1-12, budgets within 1-40. Every fifth name carries line breaks,
    and every fourth instance is exported on a grid drawn apart from its
    budgets, so that some customers afford no level and others afford levels
    strictly below their budget.
    """
    rng = random.Random(seed)
    for n in range(count):
        lo = rng.randint(1, 40)
        inst = generate_instance(
            num_products=rng.randint(1, 8),
            num_customers=rng.randint(1, 12),
            budget_range=(lo, rng.randint(lo, 40)),
            availability_prob=rng.choice([0.2, 0.5, 1.0]),
            seed=rng.randrange(10**6),
            name=f"sweep {n}\nEnd\r\n c0: x_1_1 >= 1" if n % 5 == 0 else None,
        )
        grid = build_grid(inst)
        if n % 4 == 0:
            grid = BudgetGrid(tuple(sorted(rng.sample(range(1, 41), rng.randint(1, 8)))))
        yield export_single_level(inst, grid)
    for inst in (generate_instance(50, 60, (18, 66), 0.5, seed=1),
                 generate_instance(25, 30, (18, 66), 0.3, seed=1)):
        yield export_single_level(inst, build_grid(inst))


# SHA-256 of the concatenated LP texts of ``_sweep_exports(22, 200)``, recorded
# before the export was rewritten as one pass of string joins per customer.
EXPORT_SWEEP_DIGEST = "41bbb3f462f0c3fc9c98d84a7a498ba9efa16a2f202300e27d7a811276affec4"


def test_export_sweep_is_pinned():
    digest = hashlib.sha256()
    for text in _sweep_exports(22, 200):
        digest.update(text.encode("utf-8"))
    assert digest.hexdigest() == EXPORT_SWEEP_DIGEST


def test_export_round_trips_counts(table1, table1_grid):
    text = export_single_level(table1, table1_grid)
    model = helpers.read_lp(text)
    rows = [name for name, *_ in model.rows]
    assert len(_named(rows, "onep")) == 2
    assert len(_named(rows, "onec")) == 8
    assert len(_named(rows, "link")) == 16
    assert len(_named(rows, "pref")) == 16
    assert len(_named(model.binaries, "v_")) == 12
    assert len(_named(model.binaries, "x_")) == 16
    assert model.fixed_zero == ()
    assert len(model.objective) == 96
    assert text.rstrip().endswith("End")


def test_export_fixed_bounds_for_absent(table1_mod):
    grid = build_grid(table1_mod)
    model = _read_export(table1_mod, grid)
    rows = [name for name, *_ in model.rows]
    assert model.fixed_zero == ("x_2_5",)
    assert "pref_5_2" not in rows
    assert "link_5_2" in rows
    assert len(model.binaries) == 12 + 16
