import hashlib
import json
import random
from collections import Counter

import pytest

import helpers
import rankprice.local_search
from rankprice import (
    LocalSearchStats,
    RankPriceError,
    assign,
    build_grid,
    conditional_reassignment,
    fill,
    opt_based,
    parse_pipeline,
    reassignment,
    run_pipeline,
    slack,
    validate_instance,
)


def state_for(inst, grid, prices):
    indices = grid.indices_of(prices)
    return indices, assign(inst, grid, indices)


def random_state(seed, rng):
    inst = helpers.random_instance(seed)
    grid = build_grid(inst)
    indices = helpers.random_indices(grid, inst.num_products, rng)
    return inst, grid, indices, assign(inst, grid, indices)


# ---------------------------------------------------------------- examples


def test_slack_worked_example(table1, table1_grid):
    indices, a = state_for(table1, table1_grid, (34, 34))
    out, out_a = slack(table1, table1_grid, indices, a)
    assert table1_grid.prices_of(out) == (42, 34)
    assert out_a.revenue == 228
    assert out_a.chosen == a.chosen


def test_slack_fixed_point(table1, table1_grid):
    indices, a = state_for(table1, table1_grid, (42, 34))
    assert slack(table1, table1_grid, indices, a) == (indices, a)


def test_fill_worked_example(table1_mod):
    grid = build_grid(table1_mod)
    indices, a = state_for(table1_mod, grid, (66, 66))
    assert a.revenue == 132
    out, out_a = fill(table1_mod, grid, indices, a)
    assert grid.prices_of(out) == (66, 18)
    assert out_a.revenue == 240


def test_fill_no_unsold_products(table1, table1_grid):
    indices, a = state_for(table1, table1_grid, (42, 34))
    assert fill(table1, table1_grid, indices, a) == (indices, a)


def test_fill_no_interested_unassigned_customer():
    # nobody wants product 2, so its emptiness cannot be filled
    inst = validate_instance(
        {"name": "nointerest", "num_products": 2, "num_customers": 2,
         "budgets": [10, 20], "preferences": [[1, None], [1, None]]}
    )
    grid = build_grid(inst)
    indices, a = state_for(inst, grid, (10, 20))
    assert fill(inst, grid, indices, a) == (indices, a)


def test_fill_with_every_customer_buying_returns_its_input(monkeypatch):
    # Nobody is left to attract: no trial is made, even for unsold products.
    calls = []
    real_assign = rankprice.local_search.assign
    monkeypatch.setattr(rankprice.local_search, "assign",
                        lambda *args: calls.append(args) or real_assign(*args))
    rng = random.Random(61)
    unsold = states = 0
    while states < 100:
        inst = helpers.random_instance(rng.randrange(10**6))
        grid = build_grid(inst)
        indices = helpers.random_indices(grid, inst.num_products, rng)
        a = assign(inst, grid, indices)
        if None in a.chosen:
            continue
        states += 1
        unsold += len(set(a.chosen)) < inst.num_products
        stats = LocalSearchStats()
        out, out_a = fill(inst, grid, indices, a, stats=stats)
        assert out is indices and out_a is a
        assert calls == [] and stats == LocalSearchStats()
    assert unsold > 0


def test_reassignment_worked_example(table1, table1_grid):
    indices, a = state_for(table1, table1_grid, (18, 27))
    out, out_a = reassignment(table1, table1_grid, indices, a)
    assert table1_grid.prices_of(out) == (42, 27)
    assert out_a.revenue == 234


def test_reassignment_skips_single_buyer():
    inst = validate_instance(
        {"name": "solo", "num_products": 2, "num_customers": 2,
         "budgets": [10, 20], "preferences": [[2, 1], [1, 2]]}
    )
    grid = build_grid(inst)
    indices, a = state_for(inst, grid, (10, 20))
    assert a.chosen == (0, 1)
    assert reassignment(inst, grid, indices, a) == (indices, a)


def test_reassignment_reverts_bad_move():
    # frozen case found by randomized search: the only candidate move
    # lowers revenue, so the vector must come back unchanged
    inst = helpers.random_instance(295528, max_products=3, max_customers=6)
    grid = build_grid(inst)
    indices = (0, 0)
    sidx, sa = slack(inst, grid, indices, assign(inst, grid, indices))
    stats = LocalSearchStats()
    out, out_a = reassignment(inst, grid, sidx, sa, stats=stats)
    assert stats.reverted.get("r", 0) == 1
    assert (out, out_a) == (sidx, sa)


def test_conditional_reassignment_worked_example(table1, table1_grid):
    indices, a = state_for(table1, table1_grid, (42, 42))
    out, out_a = conditional_reassignment(table1, table1_grid, indices, a)
    assert table1_grid.prices_of(out) == (50, 42)
    assert out_a.revenue == 226


def test_conditional_reassignment_needs_fallback(table1, table1_grid):
    # at (42,34) the poorest buyer of product 1 has no alternative at 42
    indices, a = state_for(table1, table1_grid, (42, 34))
    assert conditional_reassignment(table1, table1_grid, indices, a) == (indices, a)


def test_conditional_reassignment_single_buyers_unchanged():
    inst = validate_instance(
        {"name": "solo", "num_products": 2, "num_customers": 2,
         "budgets": [10, 10], "preferences": [[2, 1], [1, 2]]}
    )
    grid = build_grid(inst)
    indices, a = state_for(inst, grid, (10, 10))
    assert conditional_reassignment(inst, grid, indices, a) == (indices, a)


def test_opt_based_worked_walk(table1, table1_grid):
    indices, a = state_for(table1, table1_grid, (42, 34))
    assert a.revenue == 228
    # scanning product 2 first keeps the move to price 27
    mid, mid_a = opt_based(table1, table1_grid, indices, a, [1])
    assert table1_grid.prices_of(mid) == (42, 27)
    assert mid_a.revenue == 234
    # seed 1 shuffles the walk to [product 2, product 1], which then lifts product 1
    order = helpers.shuffled_products(2, random.Random(1))
    assert order == [1, 0]
    out, out_a = opt_based(table1, table1_grid, indices, a, order)
    assert table1_grid.prices_of(out) == (50, 27)
    assert out_a.revenue == 235


def test_opt_based_at_optimum_is_identity(table1, table1_grid):
    indices, a = state_for(table1, table1_grid, (50, 34))
    out, out_a = opt_based(table1, table1_grid, indices, a, [1, 0])
    assert out == indices
    assert out_a.revenue == 236


# -------------------------------------------------------------- properties


def test_all_steps_keep_revenue_and_consistency():
    rng = random.Random(777)
    reverts_seen = 0
    for _ in range(400):
        inst, grid, indices, a = random_state(rng.randrange(10**6), rng)
        stats = LocalSearchStats()
        s_idx, s_a = slack(inst, grid, indices, a)
        assert s_a.revenue >= a.revenue
        assert s_a.chosen == a.chosen
        assert s_a == assign(inst, grid, s_idx)
        # slack is idempotent
        assert slack(inst, grid, s_idx, s_a) == (s_idx, s_a)
        for op in (fill, reassignment, conditional_reassignment):
            o_idx, o_a = op(inst, grid, s_idx, s_a, stats=stats)
            assert o_a.revenue >= s_a.revenue
            assert o_a == assign(inst, grid, o_idx)
        order = helpers.shuffled_products(inst.num_products, rng)
        o_idx, o_a = opt_based(inst, grid, s_idx, s_a, order, stats=stats)
        assert o_a.revenue >= s_a.revenue
        assert o_a == assign(inst, grid, o_idx)
        reverts_seen += stats.total_reverted
    assert reverts_seen > 0  # the guards do fire on random inputs


def _levels_tried(op, inst, grid, indices, a, monkeypatch):
    """Per product, the levels ``op`` would try in the state ``(indices, a)``.

    A product whose buyer count, on the counts a walk starting from this
    state holds, is outside the step's ``counts`` tries nothing, as in
    ``_walk``; so does every product of a step that returns without walking.
    """
    walks = []

    def walk(inst, grid, indices, assignment, step, products, counts, levels, stats):
        walks.append((counts, levels))

    with monkeypatch.context() as patch:
        patch.setattr(rankprice.local_search, "_walk", walk)
        op(inst, grid, indices, a)
    if not walks:
        return [[] for _ in range(inst.num_products)]
    [(counts, levels)] = walks
    sold = rankprice.local_search._buyer_counts(inst.num_products, a.chosen)
    return [list(levels(i, list(indices), a.chosen)) if sold[i] in counts else []
            for i in range(inst.num_products)]


def _literal_levels(inst, grid, indices, a, i):
    """``(f, r, c)`` levels for product i, read off ``a.chosen`` without the budget index."""
    price = grid.values[indices[i]]
    buyers = sorted((inst.budgets[k], k) for k, c in enumerate(a.chosen) if c == i)
    pool = [inst.budgets[k] for k, c in enumerate(a.chosen)
            if c is None and inst.preferences[k][i] is not None]
    f = [grid.index_of(min(pool))] if pool and not buyers else []
    r = [grid.index_of(buyers[1][0])] if len(buyers) > 1 else []
    fallback = r and buyers[0][0] == price and any(
        j != i and indices[j] == indices[i] and inst.preferences[buyers[0][1]][j] is not None
        for j in range(inst.num_products)
    )
    return f, r, r if fallback else []


def test_scan_bounds_match_a_literal_reading_of_chosen(monkeypatch):
    # Tied budgets put buyers exactly at the price, most of all after slack:
    # a buyer scan that started above the price would miss them.
    rng = random.Random(1618)
    at_price = states = 0
    fallback = Counter()  # c's fallback test, when it is asked: fires or blocks
    idle = Counter()  # fill with nobody idle, so no walk, and fill trying a level
    while states < 300:
        inst = helpers.random_instance(rng.randrange(10**6), max_products=5, max_customers=12,
                                       budget=(5, 12))
        if len(set(inst.budgets)) == inst.num_customers:
            continue
        grid = build_grid(inst)
        indices = helpers.random_indices(grid, inst.num_products, rng)
        raw = (indices, assign(inst, grid, indices))
        for indices, a in (raw, slack(inst, grid, *raw)):
            states += 1
            tried = [_levels_tried(op, inst, grid, indices, a, monkeypatch)
                     for op in (fill, reassignment, conditional_reassignment)]
            slacked = slack(inst, grid, indices, a)[0]
            idle["none"] += None not in a.chosen
            idle["tries"] += any(tried[0])
            for i in range(inst.num_products):
                f, r, c = _literal_levels(inst, grid, indices, a, i)
                assert tuple(step[i] for step in tried) == (f, r, c)
                budgets = [inst.budgets[k] for k, j in enumerate(a.chosen) if j == i]
                cheapest = grid.index_of(min(budgets)) if budgets else indices[i]
                assert slacked[i] == cheapest
                at_price += grid.values[indices[i]] in budgets
                if r and min(budgets) == grid.values[indices[i]]:
                    fallback["fires" if c else "blocks"] += 1
    assert at_price > states
    assert fallback["fires"] > 0 and fallback["blocks"] > 0
    assert idle["none"] > 0 and idle["tries"] > 0


def test_walk_state_matches_a_recount(monkeypatch):
    # On every trial, kept or reverted, the walk hands ``assign`` its own
    # vector, a move whose assignment equals a full ``assign`` of that vector
    # and whose buyer count is the moved product's in it, and gets a full
    # ``assign`` of the moved vector back.
    real_assign = rankprice.local_search.assign
    seen = Counter()

    def checked(inst, grid, indices, move):
        i, m, before, buyers = move
        assert before == assign(inst, grid, indices)
        assert buyers == before.chosen.count(i)
        after = real_assign(inst, grid, indices, move)
        moved = list(indices)
        moved[i] = m
        assert after == assign(inst, grid, moved)
        seen["kept" if after.revenue > before.revenue else "reverted"] += 1
        return after

    monkeypatch.setattr(rankprice.local_search, "assign", checked)
    rng = random.Random(1729)
    ops = (fill, reassignment, conditional_reassignment,
           lambda inst, *state: opt_based(
               inst, *state, helpers.shuffled_products(inst.num_products, rng)))
    for _ in range(300):
        inst = helpers.random_instance(rng.randrange(10**6), max_products=5, max_customers=12,
                                       budget=(5, 12))
        grid = build_grid(inst)
        indices = helpers.random_indices(grid, inst.num_products, rng)
        raw = (indices, assign(inst, grid, indices))
        seen["tied"] += len(set(inst.budgets)) < inst.num_customers
        seen["unwanted"] += any(set(wants) == {None} for wants in zip(*inst.preferences))
        for state in (raw, slack(inst, grid, *raw)):
            for op in ops:
                before = seen["kept"] + seen["reverted"]
                out, out_a = op(inst, grid, *state)
                assert out_a == assign(inst, grid, out)
                seen[op] += seen["kept"] + seen["reverted"] > before
    assert all(seen[key] > 0 for key in ("kept", "reverted", "tied", "unwanted", *ops))


def test_every_trial_is_counted_kept_or_reverted(monkeypatch):
    # Each trial is one real evaluation: count local_search.assign calls directly.
    calls = []
    real_assign = rankprice.local_search.assign

    def counted(*args):
        calls.append(None)
        return real_assign(*args)

    monkeypatch.setattr(rankprice.local_search, "assign", counted)
    rng = random.Random(31)
    ops = (fill, reassignment, conditional_reassignment,
           lambda inst, *state, stats: opt_based(
               inst, *state, helpers.shuffled_products(inst.num_products, rng), stats=stats))
    trials = 0
    for _ in range(100):
        inst, grid, indices, a = random_state(rng.randrange(10**6), rng)
        state = slack(inst, grid, indices, a)
        for op in ops:
            stats = LocalSearchStats()
            calls.clear()
            op(inst, grid, *state, stats=stats)
            assert len(calls) == stats.assign_calls
            assert sum(stats.kept.values()) + stats.total_reverted == stats.assign_calls
            trials += len(calls)
    assert trials > 0


def test_pipeline_stats_match_per_trial_counting(monkeypatch):
    # Tally every trial as it is made, under the step that makes it, and
    # compare with the stats the pipeline kept: keys as well as values, so a
    # step with no kept or no reverted trial has no entry at all.
    module = rankprice.local_search
    real_assign = module.assign
    step = []
    tally = {"kept": Counter(), "reverted": Counter()}

    def counted(inst, grid, indices, move):
        after = real_assign(inst, grid, indices, move)
        tally["kept" if after.revenue > move[2].revenue else "reverted"][step[-1]] += 1
        return after

    def in_step(letter, op):
        def run(*args, **kwargs):
            step.append(letter)
            try:
                return op(*args, **kwargs)
            finally:
                step.pop()
        return run

    monkeypatch.setattr(module, "assign", counted)
    for letter, name in (("f", "fill"), ("r", "reassignment"),
                         ("c", "conditional_reassignment"), ("o", "opt_based")):
        monkeypatch.setattr(module, name, in_step(letter, getattr(module, name)))

    def tallied(*args):
        for counts in tally.values():
            counts.clear()
        run_pipeline(*args)
        return dict(tally["kept"]), dict(tally["reverted"])

    rng = random.Random(4711)
    shared, total = LocalSearchStats(), LocalSearchStats()
    seen = Counter()
    for _ in range(150):
        inst, grid, indices, a = random_state(rng.randrange(10**6), rng)
        for pipeline in ("sfrc", "o"):
            seed, stats = rng.random(), LocalSearchStats()
            kept, reverted = tallied(inst, grid, pipeline, indices, a, random.Random(seed), stats)
            assert (dict(stats.kept), dict(stats.reverted)) == (kept, reverted)
            # Again, into stats shared by every call.
            kept, reverted = tallied(inst, grid, pipeline, indices, a, random.Random(seed), shared)
            total.kept.update(kept)
            total.reverted.update(reverted)
            for letter in pipeline:
                seen["kept only"] += letter in kept and letter not in reverted
                seen["reverted only"] += letter in reverted and letter not in kept
                seen["no trial"] += letter not in kept and letter not in reverted
    assert (dict(shared.kept), dict(shared.reverted)) == (dict(total.kept), dict(total.reverted))
    assert seen["kept only"] > 0 and seen["reverted only"] > 0 and seen["no trial"] > 0


def test_fill_level_matches_a_literal_reading_partway_through_its_walk(monkeypatch):
    # Fill asks for a product's level after earlier kept trials in the same
    # walk: the level must be the smallest budget among the customers who
    # still buy nothing and want the product, read off the walk's choices.
    module = rankprice.local_search
    real_walk = module._walk
    seen = Counter()

    def walk(inst, grid, indices, assignment, step, products, counts, levels, stats):
        idle = {k for k, c in enumerate(assignment.chosen) if c is None}

        def checked(i, cur, chosen):
            pool = [inst.budgets[k] for k, c in enumerate(chosen)
                    if c is None and inst.preferences[k][i] is not None]
            tried = list(levels(i, cur, chosen))
            assert tried == ([grid.index_of(min(pool))] if pool else [])
            seen["taken"] += any(chosen[k] is not None for k in idle)
            seen["tied at the minimum"] += pool.count(min(pool, default=None)) > 1
            return tried

        return real_walk(inst, grid, indices, assignment, step, products, counts, checked,
                         stats)

    monkeypatch.setattr(module, "_walk", walk)
    rng = random.Random(2357)
    for _ in range(400):
        inst = helpers.random_instance(rng.randrange(10**6), max_products=6, max_customers=14,
                                       budget=(5, 12))
        grid = build_grid(inst)
        indices = helpers.random_indices(grid, inst.num_products, rng)
        raw = (indices, assign(inst, grid, indices))
        for state in (raw, slack(inst, grid, *raw)):
            out, out_a = fill(inst, grid, *state)
            assert out_a == assign(inst, grid, out)
    assert seen["taken"] > 0 and seen["tied at the minimum"] > 0


def test_one_product_scan_reaches_single_swap_optimum():
    rng = random.Random(4242)
    for _ in range(200):
        inst, grid, indices, a = random_state(rng.randrange(10**6), rng)
        product = rng.randrange(inst.num_products)
        out, out_a = opt_based(inst, grid, indices, a, [product])
        # no second scan of the same product can improve further
        assert opt_based(inst, grid, out, out_a, [product]) == (out, out_a)


def test_fill_only_prices_down(table1_mod):
    grid = build_grid(table1_mod)
    rng = random.Random(9)
    for _ in range(200):
        indices = helpers.random_indices(grid, 2, rng)
        a = assign(table1_mod, grid, indices)
        out, _ = fill(table1_mod, grid, indices, a)
        for before, after in zip(indices, out):
            assert after <= before


# SHA-256 over ``_pinned_steps``. A change that keeps every step's result
# and trial counts keeps this digest; one that changes them must say so.
STEP_DIGEST = "ba8c4b98bc590de1ce5fbfd9c1db70eb3fbf54c04c20a321f4a914f7812220b0"


def _pinned_steps():
    """One record per step and random state: vector, revenue and trial counts.

    Every step starts from the raw random state, so fill and conditional
    reassignment also meet prices that are not slack-free.
    """
    rng = random.Random(2718)
    for _ in range(200):
        seed = rng.randrange(10**6)
        inst = helpers.random_instance(seed, max_products=5, max_customers=10, budget=(5, 30))
        grid = build_grid(inst)
        indices = helpers.random_indices(grid, inst.num_products, rng)
        a = assign(inst, grid, indices)
        steps = [
            lambda stats, op=op: op(inst, grid, indices, a, stats=stats)
            for op in (fill, reassignment, conditional_reassignment)
        ]
        steps += [
            lambda stats, i=i: opt_based(inst, grid, indices, a, [i], stats=stats)
            for i in range(inst.num_products)
        ]
        steps.append(lambda stats: opt_based(
            inst, grid, indices, a,
            helpers.shuffled_products(inst.num_products, random.Random(seed)), stats))
        steps += [
            lambda stats, p=p: run_pipeline(inst, grid, p, indices, a, random.Random(seed), stats)
            for p in ("f", "c", "fo", "sfrco")
        ]
        for step in steps:
            stats = LocalSearchStats()
            out, out_a = step(stats)
            yield [
                list(out),
                out_a.revenue,
                sorted(stats.kept.items()),
                sorted(stats.reverted.items()),
                stats.assign_calls,
            ]


def test_step_results_are_pinned():
    blob = json.dumps(list(_pinned_steps()), separators=(",", ":"))
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == STEP_DIGEST


# ---------------------------------------------------------------- pipeline


def test_parse_pipeline():
    assert parse_pipeline("sfrc") == ("s", "f", "r", "c")
    assert parse_pipeline("") == ()
    with pytest.raises(RankPriceError):
        parse_pipeline("sfx")


def test_empty_pipeline_is_identity(table1, table1_grid):
    state = state_for(table1, table1_grid, (34, 34))
    assert run_pipeline(table1, table1_grid, "", *state, random.Random(0)) == state


def test_pipeline_worked_example(table1, table1_grid):
    state = state_for(table1, table1_grid, (34, 34))
    out, out_a = run_pipeline(table1, table1_grid, "sfrc", *state, random.Random(0))
    assert out_a.revenue >= 228  # slack already reaches 228; later steps never lose it


def test_pipeline_revenue_nondecreasing_per_element():
    rng = random.Random(31337)
    for _ in range(150):
        inst, grid, indices, a = random_state(rng.randrange(10**6), rng)
        for letters in ("s", "sf", "sfrc", "o", "rc", "fsrc"):
            out, out_a = run_pipeline(inst, grid, letters, indices, a, rng)
            assert out_a.revenue >= a.revenue
            assert out_a == assign(inst, grid, out)


def test_pipeline_without_slack_still_meets_preconditions():
    # 'r' and 'c' require slack-free prices; the pipeline inserts the pass
    rng = random.Random(5)
    inst, grid, indices, a = random_state(101, rng)
    out, out_a = run_pipeline(inst, grid, "rc", indices, a, rng)
    s_idx, s_a = slack(inst, grid, indices, a)
    assert out_a.revenue >= s_a.revenue


def test_slack_pipeline_per_vector(table1, table1_grid):
    for prices, slack_free in [((34, 34), (42, 34)), ((18, 27), (18, 27)), ((66, 66), (66, 66))]:
        state = state_for(table1, table1_grid, prices)
        out, out_a = run_pipeline(table1, table1_grid, "s", *state, random.Random(0))
        assert table1_grid.prices_of(out) == slack_free
        assert out_a == assign(table1, table1_grid, out)
