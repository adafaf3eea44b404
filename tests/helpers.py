"""Shared instance builders and the LP reader of the test suite."""

import random
import re
from typing import NamedTuple

from rankprice import Instance, build_grid, generate_instance, validate_instance

# 8 customers, 2 products: the small worked instance used throughout the
# suite. Three optimal price vectors, optimum revenue 236.
TABLE1 = {
    "name": "table1",
    "num_products": 2,
    "num_customers": 8,
    "budgets": [18, 66, 27, 34, 66, 50, 42, 42],
    "preferences": [
        [2, 1],
        [2, 1],
        [1, 2],
        [1, 2],
        [1, 2],
        [2, 1],
        [2, 1],
        [1, 2],
    ],
}

# Same instance, but customer 5 can only buy product 1. The second product
# can then go unsold at high prices, which exercises the fill move.
TABLE1_MOD = dict(
    TABLE1,
    name="table1-mod",
    preferences=[
        [2, 1],
        [2, 1],
        [1, 2],
        [1, 2],
        [2, None],
        [2, 1],
        [2, 1],
        [1, 2],
    ],
)


def table1() -> Instance:
    return validate_instance(TABLE1)


def table1_mod() -> Instance:
    return validate_instance(TABLE1_MOD)


def random_instance(seed, max_products=4, max_customers=8, budget=(10, 15)):
    """Small random instance, deterministic in the seed."""
    rng = random.Random(seed)
    return generate_instance(
        num_products=rng.randint(1, max_products),
        num_customers=rng.randint(1, max_customers),
        budget_range=budget,
        availability_prob=rng.choice([1.0, 1.0, 0.8, 0.6]),
        seed=seed,
    )


def random_indices(grid, num_products, rng):
    return tuple(rng.randrange(grid.size) for _ in range(num_products))


def shuffled_products(num_products, rng):
    """Every product in random order, drawn as the pipeline's ``o`` step draws it."""
    order = list(range(num_products))
    rng.shuffle(order)
    return order


def grid_of(inst):
    return build_grid(inst)


def walk_levels(inst, grid):
    """Per product 2..I-1, the levels ``brute_force`` walks, by their definition.

    The top grid level within the budget of each customer who wants the
    product, for those who afford one, plus the top level, ascending.
    """
    values = grid.values
    return [sorted({sum(value <= budget for value in values) - 1
                    for budget, row in zip(inst.budgets, inst.preferences)
                    if row[j] is not None} - {-1} | {grid.size - 1})
            for j in range(2, inst.num_products)]


def walk_vectors(levels, optima):
    """The walk vectors behind ``brute_force``'s argmax list ``optima``.

    Each optimal vector with its walk products, 2..I-1 with lists
    ``levels``, moved up to the next entry of their list: that undoes the
    expansion over the gaps.
    """
    return {(*v[:2], *(min(m for m in lv if m >= v[j]) for j, lv in enumerate(levels, 2)))
            for v in optima}


# ----------------------------------------------------------------- LP text


class LpModel(NamedTuple):
    """What ``read_lp`` finds in an exported LP text."""

    objective: tuple  # (price, v name, x name): the file's coefficient is 2 * price
    rows: tuple  # (name, ((coef, variable), ...), sense, rhs)
    fixed_zero: tuple  # names bounded to 0, in file order
    binaries: tuple  # declared names, in file order


_OBJECTIVE_TERM = re.compile(r"   \+ (\d+) (\w+) \* (\w+)")
_ROW = re.compile(r" (\w+): (.+) (<=|>=) (-?\d+)")


def _terms(expression):
    tokens = expression.split(" ")
    if tokens[0] not in ("+", "-"):
        tokens.insert(0, "+")
    assert len(tokens) % 3 == 0, expression
    return tuple(
        (int(coef) if sign == "+" else -int(coef), name)
        for sign, coef, name in zip(tokens[::3], tokens[1::3], tokens[2::3])
    )


def read_lp(text):
    """Parse the LP text ``export_single_level`` writes, failing on any other line.

    Comment lines (``\\``) are skipped; the sections must come in the order
    Maximize, Subject To, optional Bounds, Binaries, End.
    """
    objective, rows, fixed_zero, binaries = [], [], [], []
    lines = iter(line for line in text.split("\n") if not line.startswith("\\"))
    assert next(lines) == "Maximize" and next(lines) == " obj: ["
    for line in lines:
        if line == "   ] / 2":
            break
        double, v, x = _OBJECTIVE_TERM.fullmatch(line).groups()
        assert int(double) % 2 == 0, line
        objective.append((int(double) // 2, v, x))
    assert next(lines) == "Subject To"
    section = "Subject To"
    for line in lines:
        if line in ("Bounds", "Binaries", "End"):
            section = line
        elif section == "Subject To":
            name, expression, sense, rhs = _ROW.fullmatch(line).groups()
            rows.append((name, _terms(expression), sense, int(rhs)))
        elif section == "Bounds":
            name, zero = line.removeprefix(" ").split(" = ")
            assert zero == "0", line
            fixed_zero.append(name)
        elif section == "Binaries":
            assert re.fullmatch(r" \w+", line), line
            binaries.append(line[1:])
        else:
            assert line == "", line
    assert section == "End" and text.endswith("End\n")
    return LpModel(tuple(objective), tuple(rows), tuple(fixed_zero), tuple(binaries))


def family_counts(lp):
    counts = {"onep": 0, "onec": 0, "link": 0, "pref": 0}
    for name, *_ in lp.rows:
        counts[name.split("_", 1)[0]] += 1
    return counts


def objective_value(lp, values):
    return sum(price * values.get(v, 0) * values.get(x, 0) for price, v, x in lp.objective)


def violated_rows(lp, values):
    """Names of rows (and fixed bounds) the 0/1 point ``values`` violates."""
    bad = []
    for name, terms, sense, rhs in lp.rows:
        lhs = sum(coef * values.get(variable, 0) for coef, variable in terms)
        if not (lhs <= rhs if sense == "<=" else lhs >= rhs):
            bad.append(name)
    bad.extend(name for name in lp.fixed_zero if values.get(name, 0) != 0)
    return bad


def variable_values(indices, assignment):
    """0/1 values of the model variables that encode the given prices and purchases."""
    values = {f"v_{i + 1}_{m + 1}": 1 for i, m in enumerate(indices)}
    values.update(
        (f"x_{i + 1}_{k + 1}", 1) for k, i in enumerate(assignment.chosen) if i is not None
    )
    return values
