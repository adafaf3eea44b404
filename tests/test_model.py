import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from rankprice import (
    DimensionMismatch,
    EmptyPreferenceRow,
    InstanceReadError,
    NonPositiveBudget,
    TiedPreferences,
    build_grid,
    load_instance,
    save_instance,
    validate_instance,
)


def test_table1_validates(table1):
    assert table1.num_products == 2
    assert table1.num_customers == 8
    assert table1.budgets == (18, 66, 27, 34, 66, 50, 42, 42)


def test_tied_preferences_rejected():
    raw = dict(helpers.TABLE1, preferences=[[2, 2]] + helpers.TABLE1["preferences"][1:])
    with pytest.raises(TiedPreferences) as err:
        validate_instance(raw)
    assert err.value.customer == 0


def test_zero_budget_rejected():
    raw = dict(helpers.TABLE1, budgets=[18, 66, 27, 0, 66, 50, 42, 42])
    with pytest.raises(NonPositiveBudget) as err:
        validate_instance(raw)
    assert err.value.customer == 3


def test_empty_row_rejected():
    raw = dict(helpers.TABLE1, preferences=[[None, None]] + helpers.TABLE1["preferences"][1:])
    with pytest.raises(EmptyPreferenceRow):
        validate_instance(raw)


def test_dimension_mismatches_rejected():
    with pytest.raises(DimensionMismatch):
        validate_instance(dict(helpers.TABLE1, budgets=[18, 66]))
    with pytest.raises(DimensionMismatch):
        validate_instance(dict(helpers.TABLE1, preferences=[[1, 2, 3]] * 8))
    with pytest.raises(DimensionMismatch):
        validate_instance({"num_products": 2})
    with pytest.raises(DimensionMismatch):
        validate_instance(dict(helpers.TABLE1, num_products="abc"))
    # Dimensions are JSON integers: 1e400 reads as an infinite float, and
    # int() would accept 2.5, 2.0 and true.
    for key in ("num_products", "num_customers"):
        for text in ("1e400", "2.5", "2.0", "true"):
            with pytest.raises(DimensionMismatch, match=key):
                validate_instance(dict(helpers.TABLE1, **{key: json.loads(text)}))


@pytest.mark.parametrize("edit, message", [
    ({"num_products": 0}, "at least one product"),
    ({"num_customers": 0, "budgets": [], "preferences": []}, "at least one product"),
    ({"budgets": [18, 66, 27]}, "expected 8 budgets, got 3"),
    ({"preferences": helpers.TABLE1["preferences"][:7]}, "expected 8 preference rows, got 7"),
])
def test_dimension_counts_rejected(edit, message):
    with pytest.raises(DimensionMismatch, match=message):
        validate_instance(dict(helpers.TABLE1, **edit))


def test_nonpositive_score_rejected():
    raw = dict(helpers.TABLE1, preferences=[[0, 1]] + helpers.TABLE1["preferences"][1:])
    with pytest.raises(DimensionMismatch):
        validate_instance(raw)


def test_table1_grid(table1_grid):
    assert table1_grid.values == (18, 27, 34, 42, 50, 66)
    assert table1_grid.size == 6
    assert table1_grid.index_of(42) == 3
    assert table1_grid.prices_of((4, 2)) == (50, 34)
    assert table1_grid.indices_of((50, 34)) == (4, 2)


def test_grid_index_of_rejects_off_grid_value(table1_grid):
    assert table1_grid.index_of(27) == 1
    with pytest.raises(ValueError, match="19 is not a budget"):
        table1_grid.index_of(19)


def test_grid_dedups_and_sorts():
    raw = dict(helpers.TABLE1, num_customers=3, budgets=[5, 5, 5],
               preferences=[[1, 2]] * 3)
    assert build_grid(validate_instance(raw)).values == (5,)
    raw = dict(helpers.TABLE1, num_customers=4, budgets=[9, 3, 3, 7],
               preferences=[[1, 2]] * 4)
    assert build_grid(validate_instance(raw)).values == (3, 7, 9)


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
