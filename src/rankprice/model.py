"""Problem data: pricing instances, the budget grid, and purchase assignments.

Prices are not free-form: an optimal price always coincides with some
customer's budget, so the search space for every solver in this package is
the grid of distinct budget values. Price vectors are therefore represented
as tuples of 0-based indices into that grid (one index per product), which
keeps neighborhood moves and mutations exact integer operations.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

from .errors import (
    InstanceReadError, InvalidInstance, InvalidRange, OutputWriteError, RankPriceError,
)

# One budget-grid index per product.
PriceIndices = tuple[int, ...]


@dataclass(frozen=True)
class Instance:
    """One pricing problem: customer budgets plus a ranked preference matrix.

    ``preferences[k][i]`` is customer k's score for product i; higher means
    preferred, ``None`` marks a product the customer will never buy. Scores
    are pairwise distinct within a row, so each customer has a strict ranking
    of the products available to them. An instance has at least one
    customer, and its sizes are read from the data: ``num_customers`` is the
    number of budgets and ``num_products`` the length of a preference row.
    All values are immutable after construction; instances can be shared
    freely across worker processes.
    """

    name: str
    budgets: tuple[int, ...]
    preferences: tuple[tuple[int | None, ...], ...]

    @property
    def num_products(self) -> int:
        return len(self.preferences[0])

    @property
    def num_customers(self) -> int:
        return len(self.budgets)

    @cached_property
    def preference_order(self) -> tuple[tuple[int, ...], ...]:
        """Per customer, the available products from most to least preferred."""
        order = []
        for row in self.preferences:
            ranked = sorted(
                (i for i, score in enumerate(row) if score is not None),
                key=lambda i: -row[i],
            )
            order.append(tuple(ranked))
        return tuple(order)

    @cached_property
    def customers_by_budget(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Per product, ``(budgets, customers)`` of those who want it, by ascending budget."""
        index = []
        for i in range(self.num_products):
            wanting = sorted(
                (b, k) for k, (b, row) in enumerate(zip(self.budgets, self.preferences))
                if row[i] is not None
            )
            index.append((tuple(b for b, _ in wanting), tuple(k for _, k in wanting)))
        return tuple(index)

    @cached_property
    def _top_levels(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        return {}

    def top_levels(self, grid: "BudgetGrid") -> tuple[int, ...]:
        """Per customer, the top grid level within their budget, -1 if none is.

        Customer k affords level m exactly when ``m <= top_levels(grid)[k]``.
        The table is built on the first call for a grid and kept, keyed by
        ``grid.values``, so every grid of the instance gets its own.
        """
        values = grid.values
        try:
            return self._top_levels[values]
        except KeyError:
            top = tuple(bisect_right(values, b) - 1 for b in self.budgets)
            self._top_levels[values] = top
            return top

    def without_first(self, n: int) -> "Instance":
        """This instance with products 0..n-1 removed and the others shifted down by n.

        The rankings and the budget index are taken from this instance's, not
        sorted again, and the level tables are shared, since the budgets are
        the same. Not validated: a customer who wants only removed products
        has an empty row.
        """
        rest = Instance(self.name, self.budgets, tuple(row[n:] for row in self.preferences))
        # Each is a cached_property, whose cache is the instance's __dict__.
        rest.__dict__.update(
            preference_order=tuple(tuple(i - n for i in ranked if i >= n)
                                   for ranked in self.preference_order),
            customers_by_budget=self.customers_by_budget[n:],
            _top_levels=self._top_levels,
        )
        return rest

    def wanting_between(self, product: int, lo: int, hi: int) -> tuple[int, ...]:
        """Customers who want ``product`` with ``lo <= budget < hi``, by ascending budget."""
        budgets, customers = self.customers_by_budget[product]
        return customers[bisect_left(budgets, lo):bisect_left(budgets, hi)]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "num_products": self.num_products,
            "num_customers": self.num_customers,
            "budgets": list(self.budgets),
            "preferences": [list(row) for row in self.preferences],
        }


@dataclass(frozen=True)
class BudgetGrid:
    """The strictly increasing distinct budget values of an instance.

    ``values`` must be a nonempty, strictly increasing tuple of integers
    >= 1 (``bool`` is not an integer here); anything else raises
    ``InvalidRange``, because the draws, the enumeration and the LP export
    all read the grid as ascending, and an empty one has no price to draw.
    """

    values: tuple[int, ...]

    def __post_init__(self):
        values = self.values
        if not (type(values) is tuple and values and all(type(v) is int for v in values)
                and values[0] >= 1 and all(a < b for a, b in zip(values, values[1:]))):
            raise InvalidRange(f"grid values must be a nonempty, strictly increasing tuple"
                               f" of integers >= 1, got {values!r}")

    @cached_property
    def _index(self) -> dict[int, int]:
        return {value: m for m, value in enumerate(self.values)}

    @property
    def size(self) -> int:
        return len(self.values)

    def index_of(self, value: int) -> int:
        try:
            return self._index[value]
        except KeyError:
            raise InvalidRange(f"{value} is not a budget of this instance") from None

    def prices_of(self, indices: Sequence[int]) -> tuple[int, ...]:
        return tuple(map(self.values.__getitem__, indices))

    def indices_of(self, prices: Sequence[int]) -> PriceIndices:
        return tuple(self.index_of(p) for p in prices)


@dataclass(frozen=True)
class Assignment:
    """Per-customer purchase decision plus the resulting total revenue.

    ``chosen[k]`` is the product bought by customer k (0-based) or ``None``.
    The buyers of a product are read from ``chosen`` together with
    :attr:`Instance.customers_by_budget`; no other table is kept.
    """

    chosen: tuple[int | None, ...]
    revenue: int


def validate_instance(raw: Mapping) -> Instance:
    """Check raw instance data and build an :class:`Instance`.

    ``raw`` follows the canonical JSON layout: name, num_products,
    num_customers, budgets (length K), preferences (K rows of I entries,
    ``null``/``None`` meaning the customer cannot buy that product).
    """
    try:
        num_products = raw["num_products"]
        num_customers = raw["num_customers"]
        budgets = list(raw["budgets"])
        preferences = [list(row) for row in raw["preferences"]]
    except (KeyError, TypeError) as exc:
        raise InvalidInstance(f"instance data is missing or malformed: {exc}") from exc
    name = str(raw.get("name", ""))

    for key, value in (("num_products", num_products), ("num_customers", num_customers)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise InvalidInstance(f"{key} must be an integer, got {value!r}")
    if num_products < 1 or num_customers < 1:
        raise InvalidInstance(
            f"need at least one product and one customer, got I={num_products}, K={num_customers}"
        )
    if len(budgets) != num_customers:
        raise InvalidInstance(f"expected {num_customers} budgets, got {len(budgets)}")
    if len(preferences) != num_customers:
        raise InvalidInstance(
            f"expected {num_customers} preference rows, got {len(preferences)}"
        )

    for k, value in enumerate(budgets):
        if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
            raise InvalidInstance(f"budgets[{k}] = {value!r}; budgets must be positive integers")

    for k, row in enumerate(preferences):
        if len(row) != num_products:
            raise InvalidInstance(
                f"preferences[{k}] has {len(row)} entries, expected {num_products}"
            )
        seen = set()
        for i, score in enumerate(row):
            if score is None:
                continue
            if not isinstance(score, int) or isinstance(score, bool) or score <= 0:
                raise InvalidInstance(
                    f"preferences[{k}][{i}] = {score!r}; scores are positive integers or null"
                )
            if score in seen:
                raise InvalidInstance(
                    f"preferences[{k}] contains the score {score!r} more than once; "
                    "scores must be pairwise distinct within a row"
                )
            seen.add(score)
        if not seen:
            raise InvalidInstance(f"preferences[{k}] has no available product")

    return Instance(
        name=name,
        budgets=tuple(budgets),
        preferences=tuple(tuple(row) for row in preferences),
    )


def build_grid(inst: Instance) -> BudgetGrid:
    """Distinct budgets of ``inst``, sorted ascending."""
    return BudgetGrid(values=tuple(sorted(set(inst.budgets))))


def read_json(path, what: str, error: type[RankPriceError]):
    """The JSON value in the UTF-8 file ``path``.

    A file that cannot be opened, decoded or parsed raises ``error``, naming
    the file as ``what``. ``ValueError`` covers bad UTF-8, bad JSON and
    integers too long to convert; ``RecursionError`` covers arrays or objects
    nested too deep for the parser.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def load_instance(path) -> Instance:
    return validate_instance(read_json(path, "instance", InstanceReadError))


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, line ends as given.

    The one place this package opens a file for writing: the instance JSON,
    the LP export and the bench CSVs all go through it. An ``OSError``
    raises ``OutputWriteError`` naming the file.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputWriteError(f"cannot write {path}: {exc}") from exc


def save_instance(inst: Instance, path) -> None:
    write_text(path, json.dumps(inst.to_dict(), indent=1) + "\n")
