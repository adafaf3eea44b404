"""Shared instance builders for the test suite."""

import random

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
