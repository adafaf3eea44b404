import ast
import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from rankprice import (
    BudgetGrid,
    ExperimentConfig,
    InstanceReadError,
    InvalidInstance,
    InvalidRange,
    RunSummary,
    SearchParams,
    StopRule,
    build_grid,
    crossover,
    evolution_stats,
    generate_instance,
    greedy_init,
    load_instance,
    percentile,
    save_instance,
    summarize,
    validate_instance,
)


def test_table1_validates(table1):
    assert table1.num_products == 2
    assert table1.num_customers == 8
    assert table1.budgets == (18, 66, 27, 34, 66, 50, 42, 42)


def test_tied_preferences_rejected():
    raw = dict(helpers.TABLE1, preferences=[[2, 2]] + helpers.TABLE1["preferences"][1:])
    message = (r"^preferences\[0\] contains the score 2 more than once; "
               r"scores must be pairwise distinct within a row$")
    with pytest.raises(InvalidInstance, match=message):
        validate_instance(raw)


def test_zero_budget_rejected():
    raw = dict(helpers.TABLE1, budgets=[18, 66, 27, 0, 66, 50, 42, 42])
    message = r"^budgets\[3\] = 0; budgets must be positive integers$"
    with pytest.raises(InvalidInstance, match=message):
        validate_instance(raw)


def test_empty_row_rejected():
    raw = dict(helpers.TABLE1, preferences=[[None, None]] + helpers.TABLE1["preferences"][1:])
    with pytest.raises(InvalidInstance, match=r"^preferences\[0\] has no available product$"):
        validate_instance(raw)


def test_dimension_mismatches_rejected():
    with pytest.raises(InvalidInstance, match=r"^expected 8 budgets, got 2$"):
        validate_instance(dict(helpers.TABLE1, budgets=[18, 66]))
    with pytest.raises(InvalidInstance, match=r"^preferences\[0\] has 3 entries, expected 2$"):
        validate_instance(dict(helpers.TABLE1, preferences=[[1, 2, 3]] * 8))
    with pytest.raises(InvalidInstance,
                       match=r"^instance data is missing or malformed: 'num_customers'$"):
        validate_instance({"num_products": 2})
    with pytest.raises(InvalidInstance, match=r"^num_products must be an integer, got 'abc'$"):
        validate_instance(dict(helpers.TABLE1, num_products="abc"))
    # Dimensions are JSON integers: 1e400 reads as an infinite float, and
    # int() would accept 2.5, 2.0 and true.
    for key in ("num_products", "num_customers"):
        for text in ("1e400", "2.5", "2.0", "true"):
            value = json.loads(text)
            with pytest.raises(InvalidInstance, match=rf"^{key} must be an integer, got {value}$"):
                validate_instance(dict(helpers.TABLE1, **{key: value}))


@pytest.mark.parametrize("edit, message", [
    ({"num_products": 0}, "at least one product"),
    ({"num_customers": 0, "budgets": [], "preferences": []}, "at least one product"),
    ({"budgets": [18, 66, 27]}, "expected 8 budgets, got 3"),
    ({"preferences": helpers.TABLE1["preferences"][:7]}, "expected 8 preference rows, got 7"),
])
def test_dimension_counts_rejected(edit, message):
    with pytest.raises(InvalidInstance, match=message):
        validate_instance(dict(helpers.TABLE1, **edit))


def test_nonpositive_score_rejected():
    raw = dict(helpers.TABLE1, preferences=[[0, 1]] + helpers.TABLE1["preferences"][1:])
    message = r"^preferences\[0\]\[0\] = 0; scores are positive integers or null$"
    with pytest.raises(InvalidInstance, match=message):
        validate_instance(raw)


def _validate_edited(**edit):
    return lambda: validate_instance(dict(helpers.TABLE1, **edit))


def _first_row(row):
    return _validate_edited(preferences=[row] + helpers.TABLE1["preferences"][1:])


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: validate_instance({"num_products": 2}),
                 "instance data is missing or malformed: 'num_customers'", id="missing-key"),
    pytest.param(_validate_edited(num_products="abc"),
                 "num_products must be an integer, got 'abc'", id="non-integer-dimension"),
    pytest.param(_validate_edited(num_products=0),
                 "need at least one product and one customer, got I=0, K=8",
                 id="zero-dimension"),
    pytest.param(_validate_edited(num_customers=0, budgets=[], preferences=[]),
                 "need at least one product and one customer, got I=2, K=0",
                 id="zero-customers"),
    pytest.param(_validate_edited(budgets=[18, 66, 27]), "expected 8 budgets, got 3",
                 id="short-budgets"),
    pytest.param(_validate_edited(preferences=helpers.TABLE1["preferences"][:7]),
                 "expected 8 preference rows, got 7", id="short-preferences"),
    pytest.param(_validate_edited(budgets=[18, 66, 27, True, 66, 50, 42, 42]),
                 "budgets[3] = True; budgets must be positive integers", id="bool-budget"),
    pytest.param(_first_row([1, 2, 3]), "preferences[0] has 3 entries, expected 2",
                 id="wrong-length-row"),
    pytest.param(_first_row([0, 1]),
                 "preferences[0][0] = 0; scores are positive integers or null", id="zero-score"),
    pytest.param(_first_row([1.5, 1]),
                 "preferences[0][0] = 1.5; scores are positive integers or null",
                 id="fractional-score"),
    pytest.param(_first_row([2, 2]),
                 "preferences[0] contains the score 2 more than once; "
                 "scores must be pairwise distinct within a row", id="tied-row"),
    pytest.param(_first_row([None, None]), "preferences[0] has no available product",
                 id="empty-row"),
    pytest.param(lambda: crossover((1, 2), (1, 2, 3), random.Random(0)),
                 "parents have lengths 2 and 3", id="crossover-lengths"),
    pytest.param(lambda: percentile([], 50), "percentile of an empty sample",
                 id="percentile-empty"),
    pytest.param(lambda: percentile([1, 2, 3], 150), "percentile q must be in (0, 100], got 150",
                 id="percentile-q"),
    pytest.param(lambda: summarize([]), "summarize needs at least one run", id="summarize-empty"),
    pytest.param(lambda: summarize([RunSummary(0, 807, (1,), 10, 1, 0)], reference=0),
                 "reference must be positive, got 0", id="summarize-reference"),
    pytest.param(lambda: evolution_stats([]), "no traces to aggregate", id="evolution-empty"),
    pytest.param(lambda: build_grid(helpers.table1()).index_of(19),
                 "19 is not a value of this grid", id="off-grid-value"),
    pytest.param(lambda: SearchParams(stop=5), "stop must be a StopRule, got 5",
                 id="search-params-stop"),
    pytest.param(lambda: ExperimentConfig("inst.json", "vns", "random", "", 5, 1, 0, None),
                 "params must be a SearchParams, got 5", id="experiment-config-params"),
])
def test_error_messages_are_pinned(call, message):
    with pytest.raises(Exception) as err:
        call()
    assert str(err.value) == message


def test_table1_grid(table1_grid):
    assert table1_grid.values == (18, 27, 34, 42, 50, 66)
    assert table1_grid.size == 6
    assert table1_grid.index_of(42) == 3
    assert table1_grid.prices_of((4, 2)) == (50, 34)
    assert table1_grid.indices_of((50, 34)) == (4, 2)


def test_grid_index_of_rejects_off_grid_value(table1_grid):
    assert table1_grid.index_of(27) == 1
    with pytest.raises(InvalidRange, match="19 is not a value of this grid"):
        table1_grid.index_of(19)


def test_greedy_init_on_a_grid_missing_a_budget_prices_at_the_top_value_afforded(table1):
    # The richest customer's budget, 66, is not on this grid: the product
    # they claim is priced at 50, the top value they afford.
    grid = BudgetGrid((18, 27, 34, 42, 50))
    start = greedy_init(table1, grid)
    claimed = table1.preference_order[1][0]
    assert grid.values[start[claimed]] == 50
    # Both products go to the two 66-budget customers, at 66 on build_grid's grid.
    assert start == (4, 4) and greedy_init(table1, build_grid(table1)) == (5, 5)


@pytest.mark.parametrize("call", [
    lambda: StopRule.point_budget(0),
    lambda: StopRule.point_budget("5"),
    lambda: SearchParams(l0=0),
], ids=["zero-points", "string-points", "zero-l0"])
def test_bad_argument_values_raise_invalid_range(call):
    with pytest.raises(InvalidRange):
        call()


def test_no_raise_site_uses_the_base_error():
    # Each raise names the subclass that says what the caller should fix.
    raises, bare = 0, []
    for path in sorted((Path(__file__).parents[1] / "src" / "rankprice").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                raises += 1
                if getattr(node.exc.func, "id", None) == "RankPriceError":
                    bare.append(f"{path.name}:{node.lineno}")
    assert raises > 50
    assert bare == []


def test_grid_dedups_and_sorts():
    raw = dict(helpers.TABLE1, num_customers=3, budgets=[5, 5, 5],
               preferences=[[1, 2]] * 3)
    assert build_grid(validate_instance(raw)).values == (5,)
    raw = dict(helpers.TABLE1, num_customers=4, budgets=[9, 3, 3, 7],
               preferences=[[1, 2]] * 4)
    assert build_grid(validate_instance(raw)).values == (3, 7, 9)


@pytest.mark.parametrize(
    "values", [(), (9, 5), (5, 5), (0, 5), (5.0,), (True,), [5, 9]], ids=repr
)
def test_grid_rejects_values_that_are_not_increasing_positive_integers(values):
    # An empty grid has no price to draw, and every solver reads the grid as
    # ascending: on (9, 5) brute_force would report revenue no vector earns.
    with pytest.raises(InvalidRange):
        BudgetGrid(values)


@settings(max_examples=50, deadline=None)
@given(
    budgets=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=10),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_grid_invariant_under_budget_permutation(budgets, seed):
    shuffled = budgets[:]
    random.Random(seed).shuffle(shuffled)
    k = len(budgets)
    base = {"name": "p", "num_products": 1, "num_customers": k,
            "preferences": [[1]] * k}
    grid_a = build_grid(validate_instance(dict(base, budgets=budgets)))
    grid_b = build_grid(validate_instance(dict(base, budgets=shuffled)))
    assert grid_a == grid_b
    assert list(grid_a.values) == sorted(set(budgets))


def test_json_round_trip(tmp_path, table1):
    path = tmp_path / "table1.json"
    save_instance(table1, path)
    again = load_instance(path)
    assert again == table1


def _saved_instances():
    """The instances whose ``save_instance`` bytes ``INSTANCE_BYTES_DIGEST`` pins."""
    yield helpers.table1()
    yield helpers.table1_mod()
    for s in range(30):
        yield generate_instance(1 + s % 6, 1 + s % 9, (5, 30), (0.3, 0.6, 1.0)[s % 3], seed=s)
    yield generate_instance(3, 4, (5, 30), 0.6, seed=30, name="prix d'\u00e9t\u00e9\nligne 2")


# SHA-256 of the concatenated ``save_instance`` files of ``_saved_instances()``,
# recorded before the file writers were merged into ``write_text``.
INSTANCE_BYTES_DIGEST = "88572034b3b00b5cbbd13eca02bc46451e2c6f886cfe6b0771d322216bb06904"


def test_saved_instance_bytes_are_pinned(tmp_path):
    digest = hashlib.sha256()
    for n, inst in enumerate(_saved_instances()):
        path = tmp_path / f"{n}.json"
        save_instance(inst, path)
        digest.update(path.read_bytes())
        assert load_instance(path) == inst
    assert digest.hexdigest() == INSTANCE_BYTES_DIGEST


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InstanceReadError):
        load_instance(path)
    with pytest.raises(InstanceReadError):
        load_instance(tmp_path / "missing.json")


def test_preference_order(table1, table1_mod):
    assert table1.preference_order[0] == (0, 1)
    assert table1.preference_order[2] == (1, 0)
    assert table1_mod.preference_order[4] == (0,)


def test_customers_by_budget(table1_mod):
    # customer 4 cannot buy product 1; equal budgets keep customer order
    budgets, customers = table1_mod.customers_by_budget[1]
    assert budgets == (18, 27, 34, 42, 42, 50, 66)
    assert customers == (0, 2, 3, 6, 7, 5, 1)
    assert table1_mod.wanting_between(1, 34, 66) == (3, 6, 7, 5)
    assert table1_mod.wanting_between(0, 66, 67) == (1, 4)
    assert table1_mod.wanting_between(0, 20, 20) == ()
