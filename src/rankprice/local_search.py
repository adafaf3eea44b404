"""Structural price improvements applied to already-evaluated vectors.

Four of the five moves exploit problem structure instead of trying prices
blindly: close the gap between a product's price and its cheapest buyer's
budget (slack), price an unsold product into the pool of unassigned
customers (fill), and push a product's price up to its second-cheapest
buyer's budget, either unconditionally (reassignment) or only when the
displaced buyer has an equally-priced alternative to fall back on
(conditional reassignment). The fifth (opt_based) is the plain benchmark
scan that retries every alternative price of every product.

Every move but slack is one walk over products (:func:`_walk`): each step
only names the grid levels it tries for a product. A trial changes one price
and is one :func:`~rankprice.evaluate.assign` call that re-decides only the
customers that change can touch; it is reverted unless revenue strictly
improves, so every operator here is revenue nondecreasing by construction.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .errors import RankPriceError
from .evaluate import assign
from .model import Assignment, BudgetGrid, Instance, PriceIndices

# Pipeline letters: slack, fill, reassignment, conditional reassignment,
# optimization-based. The paper-style order is "sfrc".
STEP_LETTERS = "sfrco"


@dataclass
class LocalSearchStats:
    """Kept and reverted trials per step; each trial is one ``assign`` call."""

    kept: Counter[str] = field(default_factory=Counter)
    reverted: Counter[str] = field(default_factory=Counter)

    @property
    def total_reverted(self) -> int:
        return sum(self.reverted.values())

    @property
    def assign_calls(self) -> int:
        return sum(self.kept.values()) + self.total_reverted


def parse_pipeline(letters: Sequence[str]) -> tuple[str, ...]:
    """Validate a pipeline spelling such as ``"sfrc"`` into step codes."""
    steps = tuple(letters)
    for step in steps:
        if step not in STEP_LETTERS:
            raise RankPriceError(
                f"unknown local-search step {step!r}; valid letters are '{STEP_LETTERS}'"
            )
    return steps


def _walk(
    inst: Instance,
    grid: BudgetGrid,
    indices: PriceIndices,
    assignment: Assignment,
    step: str,
    products: Iterable[int],
    levels: Callable[[int, list[int], Assignment], Iterable[int]],
    stats: LocalSearchStats | None,
) -> tuple[PriceIndices, Assignment]:
    """Try each product in ``products`` at each of its ``levels``; keep strict improvements.

    ``levels(i, cur, cur_a)`` gives the grid indices to try for product i in
    the current state; it is asked when the walk reaches i, so it sees every
    earlier kept trial. A trial prices one product at one grid index and is
    evaluated by one ``assign`` call given the current state as its base, so
    only the customers the move can touch are decided again; it is kept iff
    revenue strictly improves and counted under ``step`` as kept or reverted.
    The price already held is skipped without evaluation.
    """
    stats = stats or LocalSearchStats()
    cur, cur_a = list(indices), assignment
    for i in products:
        for m in levels(i, cur, cur_a):
            if m == cur[i]:
                continue
            trial = list(cur)
            trial[i] = m
            trial_a = assign(inst, grid, trial, (i, cur[i], cur_a))
            if trial_a.revenue > cur_a.revenue:
                stats.kept[step] += 1
                cur, cur_a = trial, trial_a
            else:
                stats.reverted[step] += 1
    return tuple(cur), cur_a


def _second_budget(inst: Instance, grid: BudgetGrid, buyers: Sequence[int]) -> int:
    """The grid index of the second-cheapest budget among two or more ``buyers``."""
    return grid.index_of(sorted(inst.budgets[k] for k in buyers)[1])


def slack(
    inst: Instance, grid: BudgetGrid, indices: PriceIndices, assignment: Assignment
) -> tuple[PriceIndices, Assignment]:
    """Raise each sold product's price to its cheapest buyer's budget.

    Every current buyer can still afford the product and nobody else's
    choice is touched, so the purchase pattern is unchanged and revenue can
    only grow. Idempotent.
    """
    new = list(indices)
    for i, buyers in assignment.buyers.items():
        if i is not None:
            new[i] = grid.index_of(min(inst.budgets[k] for k in buyers))
    revenue = sum(grid.values[new[i]] for i in assignment.chosen if i is not None)
    return tuple(new), assignment.moved((), revenue)


def fill(
    inst: Instance,
    grid: BudgetGrid,
    indices: PriceIndices,
    assignment: Assignment,
    stats: LocalSearchStats | None = None,
) -> tuple[PriceIndices, Assignment]:
    """Drop each unsold product's price to attract unassigned customers.

    The candidate price is the cheapest budget among currently-unassigned
    customers interested in the product. The lowered price may also lure
    customers away from other products, so the move is kept only when the
    re-evaluated revenue strictly improves. Products handled in ascending
    index order, each seeing the effects of earlier kept moves.
    """

    def levels(i, cur, cur_a):
        if i in cur_a.buyers:
            return []
        unassigned = cur_a.buyers.get(None, ())
        pool = [inst.budgets[k] for k in unassigned if inst.preferences[k][i] is not None]
        return [grid.index_of(min(pool))] if pool else []

    return _walk(inst, grid, indices, assignment, "f", range(inst.num_products), levels, stats)


def reassignment(
    inst: Instance,
    grid: BudgetGrid,
    indices: PriceIndices,
    assignment: Assignment,
    stats: LocalSearchStats | None = None,
) -> tuple[PriceIndices, Assignment]:
    """Raise a product's price from its cheapest to its second-cheapest buyer budget.

    Sheds the poorest buyer but charges everyone else more; kept only when
    re-evaluated revenue strictly improves. Expects slack-free prices (run
    :func:`slack` first). Products handled in ascending index order.
    """

    def levels(i, cur, cur_a):
        buyers = cur_a.buyers.get(i, ())
        return [_second_budget(inst, grid, buyers)] if len(buyers) > 1 else []

    return _walk(inst, grid, indices, assignment, "r", range(inst.num_products), levels, stats)


def conditional_reassignment(
    inst: Instance,
    grid: BudgetGrid,
    indices: PriceIndices,
    assignment: Assignment,
    stats: LocalSearchStats | None = None,
) -> tuple[PriceIndices, Assignment]:
    """Reassignment restricted to products whose poorest buyer has a fallback.

    The price of product i moves to the second-cheapest buyer budget only if
    some other product is currently priced exactly at the poorest buyer's
    budget and that buyer wants it, so the displaced customer keeps spending
    the same amount. A displaced buyer may still prefer a cheaper third
    product, so the move is guarded by re-evaluation like reassignment.
    Expects slack-free prices.
    """

    def levels(i, cur, cur_a):
        buyers = cur_a.buyers.get(i, ())
        if len(buyers) < 2:
            return []
        # Every buyer affords the price, so the poorest pays it exactly iff
        # some buyer's budget equals it; the first such buyer is the poorest.
        m = cur[i]
        price = grid.values[m]
        poorest = next((k for k in buyers if inst.budgets[k] == price), None)
        if poorest is None or not any(
            j != i and cur[j] == m for j in inst.preference_order[poorest]
        ):
            return []
        return [_second_budget(inst, grid, buyers)]

    return _walk(inst, grid, indices, assignment, "c", range(inst.num_products), levels, stats)


def scan_product(
    inst: Instance,
    grid: BudgetGrid,
    indices: PriceIndices,
    assignment: Assignment,
    product: int,
    stats: LocalSearchStats | None = None,
) -> tuple[PriceIndices, Assignment]:
    """Try every alternative grid price for one product, first-improvement.

    Grid values are visited in ascending order, skipping the price currently
    held; a strictly better vector is kept immediately and the scan continues
    from it.
    """
    every_level = lambda *_: range(grid.size)
    return _walk(inst, grid, indices, assignment, "o", [product], every_level, stats)


def opt_based(
    inst: Instance,
    grid: BudgetGrid,
    indices: PriceIndices,
    assignment: Assignment,
    rng: random.Random,
    stats: LocalSearchStats | None = None,
) -> tuple[PriceIndices, Assignment]:
    """Benchmark scan: products in random order, every alternative price tried."""
    order = list(range(inst.num_products))
    rng.shuffle(order)
    every_level = lambda *_: range(grid.size)
    return _walk(inst, grid, indices, assignment, "o", order, every_level, stats)


def run_pipeline(
    inst: Instance,
    grid: BudgetGrid,
    pipeline: Sequence[str],
    indices: PriceIndices,
    assignment: Assignment,
    rng: random.Random,
    stats: LocalSearchStats | None = None,
) -> tuple[PriceIndices, Assignment]:
    """Apply the pipeline steps in order to one evaluated vector.

    Reassignment steps need slack-free prices; when the pipeline itself has
    no slack step, slack is applied on the fly before every ``r`` and every
    ``c`` step (so ``"rc"`` runs slack twice).
    """
    steps = parse_pipeline(pipeline)
    needs_slack = "s" not in steps
    cur = (tuple(indices), assignment)
    for step in steps:
        if step == "s" or (needs_slack and step in ("r", "c")):
            cur = slack(inst, grid, *cur)
        if step == "f":
            cur = fill(inst, grid, *cur, stats=stats)
        elif step == "r":
            cur = reassignment(inst, grid, *cur, stats=stats)
        elif step == "c":
            cur = conditional_reassignment(inst, grid, *cur, stats=stats)
        elif step == "o":
            cur = opt_based(inst, grid, *cur, rng=rng, stats=stats)
    return cur
