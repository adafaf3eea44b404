"""Structural price improvements applied to already-evaluated vectors.

Four of the five moves exploit problem structure instead of trying prices
blindly: close the gap between a product's price and its cheapest buyer's
budget (slack), price an unsold product into the pool of unassigned
customers (fill), and push a product's price up to its second-cheapest
buyer's budget, either unconditionally (reassignment) or only when the
displaced buyer has an equally-priced alternative to fall back on
(conditional reassignment). The fifth (opt_based) is the plain benchmark
scan that retries every alternative price of the products it is given.

Every move but slack is one walk over products (:func:`_walk`): each step
only names the grid levels it tries for a product. A trial moves one product
to one grid index and is one :func:`~rankprice.evaluate.assign` call against
the walk's own vector, which re-decides only the customers the move can
touch; the vector takes the move only when revenue strictly improves, so
every operator here is revenue nondecreasing by construction. A walk counts
its kept and reverted trials and adds each count to the caller's
:class:`LocalSearchStats` once, when it ends and only when the count is
nonzero, so a step with no kept (or no reverted) trial has no entry.

A state's purchases are its assignment's ``chosen``. Each walk also holds
the buyer count of every product for the vector it refines
(:func:`_buyer_counts`). :func:`run_pipeline` counts it once per refined
vector and hands the same list to every walk step, and a step called on its
own counts it when its walk starts. A kept trial updates it in place, only
for the customers the move could touch: those who want the moved product
with a budget between its old and its new price. Slack and a fill with
nobody idle change no purchase, so the count passes through them as it is.
Each step names the buyer counts it acts on, and the walk itself skips a
product whose count, read when the walk reaches it, is not among them: fill
acts only on unsold products and both reassignments only on products with
two buyers or more. Reassignment and conditional reassignment find a
product's cheapest buyers by scanning ``Instance.customers_by_budget`` up
from the product's price (:func:`_cheapest`). Fill looks only at the
customers who bought nothing when its walk started, sorted once by budget,
and skips the walk when there are none; a product's level is the budget
level of the first of them who still buys nothing and wants it. Slack finds
each sold product's lowest buyer level in one pass over the customers.

Slack, fill and both reassignments price at customer budgets and read a
budget's grid level from ``Instance.budget_levels``, which checks once per
grid that the grid holds every budget: on a grid that misses one, each of
them raises ``InvalidRange`` naming ``build_grid``. :func:`opt_based` tries
grid levels only and runs on any grid.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .errors import InvalidRange
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
            raise InvalidRange(
                f"unknown local-search step {step!r}; valid letters are '{STEP_LETTERS}'"
            )
    return steps


def _buyer_counts(num_products: int, chosen: Sequence[int | None]) -> list[int]:
    """``sold[i]``, the number of customers who buy product i under ``chosen``."""
    sold = [0] * num_products
    for i in chosen:
        if i is not None:
            sold[i] += 1
    return sold


def _walk(
    inst: Instance,
    grid: BudgetGrid,
    indices: PriceIndices,
    assignment: Assignment,
    sold: list[int] | None,
    step: str,
    products: Iterable[int],
    counts: range,
    levels: Callable[[int, list[int], Sequence[int | None]], Iterable[int]],
    stats: LocalSearchStats | None,
) -> tuple[PriceIndices, Assignment]:
    """Try each product in ``products`` at each of its ``levels``; keep strict improvements.

    ``sold`` is the buyer count of every product under ``assignment``,
    counted here when it is None; the walk keeps it current in place, so a
    caller can hand the same list to its next walk. A product is tried only
    when its count ``sold[i]``, read when the walk reaches it, is in
    ``counts``; otherwise it is skipped without asking ``levels``.
    ``levels(i, cur, chosen)`` gives the grid indices to try for product i in
    the current state (price indices, purchases). It is asked when the walk
    reaches i, so it sees every earlier kept trial. A trial moves product i
    to grid index m: one ``assign`` call given the move ``(i, m, a, sold[i])``
    against the current state decides again only the customers it can touch.
    Only a kept trial sets ``cur[i]`` and updates ``sold``, over those same
    customers: the ones who want i with a budget between its old and its new
    price. The price already held is skipped without evaluation. The walk
    counts its kept and reverted trials in two local integers and, at its
    end, adds each to ``stats`` under ``step`` when it is nonzero.
    """
    cur, a = list(indices), assignment
    if sold is None:
        sold = _buyer_counts(inst.num_products, a.chosen)
    values, wanting_between = grid.values, inst.wanting_between
    kept = reverted = 0
    for i in products:
        if sold[i] not in counts:
            continue
        for m in levels(i, cur, a.chosen):
            if m == cur[i]:
                continue
            after = assign(inst, grid, cur, (i, m, a, sold[i]))
            if after.revenue > a.revenue:
                old, new = values[cur[i]], values[m]
                before, chosen = a.chosen, after.chosen
                for k in wanting_between(i, min(old, new), max(old, new)):
                    c, d = before[k], chosen[k]
                    if c != d:
                        if c is not None:
                            sold[c] -= 1
                        if d is not None:
                            sold[d] += 1
                cur[i], a = m, after
                kept += 1
            else:
                reverted += 1
    if stats is not None:
        if kept:
            stats.kept[step] += kept
        if reverted:
            stats.reverted[step] += reverted
    return tuple(cur), a


def _cheapest(
    inst: Instance, chosen: Sequence[int | None], i: int, price: int, count: int
) -> list[int]:
    """Up to ``count`` buyers of product i, by ascending budget.

    Reads ``inst.customers_by_budget[i]``. Every buyer affords ``price``, so
    the scan starts at the first budget not below it. Equal budgets come in
    customer order.
    """
    budgets, customers = inst.customers_by_budget[i]
    found = []
    for k in customers[bisect_left(budgets, price):]:
        if chosen[k] == i:
            found.append(k)
            if len(found) == count:
                break
    return found


def slack(
    inst: Instance, grid: BudgetGrid, indices: PriceIndices, assignment: Assignment
) -> tuple[PriceIndices, Assignment]:
    """Raise each sold product's price to its cheapest buyer's budget.

    Every current buyer can still afford the product and nobody else's
    choice is touched, so the purchase pattern is unchanged and revenue can
    only grow. Idempotent. Every sold product is raised at once, so one pass
    over the customers' budget levels (``Instance.budget_levels``) finds the
    lowest level among each product's buyers.
    """
    lowest: dict[int, int] = {}
    for level, i in zip(inst.budget_levels(grid), assignment.chosen):
        if i is not None and (i not in lowest or level < lowest[i]):
            lowest[i] = level
    new = list(indices)
    for i, level in lowest.items():
        new[i] = level
    values = grid.values
    revenue = sum(values[new[i]] for i in assignment.chosen if i is not None)
    return tuple(new), Assignment(chosen=assignment.chosen, revenue=revenue)


def fill(
    inst: Instance,
    grid: BudgetGrid,
    indices: PriceIndices,
    assignment: Assignment,
    stats: LocalSearchStats | None = None,
    sold: list[int] | None = None,
) -> tuple[PriceIndices, Assignment]:
    """Drop each unsold product's price to attract unassigned customers.

    The candidate price is the cheapest budget among currently-unassigned
    customers interested in the product. The lowered price may also lure
    customers away from other products, so the move is kept only when the
    re-evaluated revenue strictly improves. Products handled in ascending
    index order, each seeing the effects of earlier kept moves.

    A price cut never leaves a customer without a purchase, so the
    unassigned customers are always among ``idle``, those unassigned when
    the walk starts; with none, the input comes back unchanged and no walk
    runs. An unassigned customer who wants the product cannot afford its
    price, so every candidate price lies below it. ``idle`` is sorted once by
    budget level (ties in customer order), so the first customer in it who
    still buys nothing and wants the product has the cheapest such budget.
    ``sold``, when given, is the buyer count of every product under
    ``assignment`` and is kept current in place (see :func:`_walk`).
    """
    top = inst.budget_levels(grid)
    idle = [k for k, c in enumerate(assignment.chosen) if c is None]
    if not idle:
        return tuple(indices), assignment
    preferences = inst.preferences
    idle.sort(key=top.__getitem__)

    def levels(i, cur, chosen):
        for k in idle:
            if chosen[k] is None and preferences[k][i] is not None:
                return [top[k]]
        return []

    products, unsold = range(inst.num_products), range(1)
    return _walk(inst, grid, indices, assignment, sold, "f", products, unsold, levels, stats)


def reassignment(
    inst: Instance,
    grid: BudgetGrid,
    indices: PriceIndices,
    assignment: Assignment,
    stats: LocalSearchStats | None = None,
    sold: list[int] | None = None,
) -> tuple[PriceIndices, Assignment]:
    """Raise a product's price from its cheapest to its second-cheapest buyer budget.

    Sheds the poorest buyer but charges everyone else more; kept only when
    re-evaluated revenue strictly improves. Expects slack-free prices (run
    :func:`slack` first). Products handled in ascending index order.
    ``sold`` is as in :func:`fill`.
    """
    top, values = inst.budget_levels(grid), grid.values

    def levels(i, cur, chosen):
        _, second = _cheapest(inst, chosen, i, values[cur[i]], 2)
        return [top[second]]

    products, shared = range(inst.num_products), range(2, inst.num_customers + 1)
    return _walk(inst, grid, indices, assignment, sold, "r", products, shared, levels, stats)


def conditional_reassignment(
    inst: Instance,
    grid: BudgetGrid,
    indices: PriceIndices,
    assignment: Assignment,
    stats: LocalSearchStats | None = None,
    sold: list[int] | None = None,
) -> tuple[PriceIndices, Assignment]:
    """Reassignment restricted to products whose poorest buyer has a fallback.

    The price of product i moves to the second-cheapest buyer budget only if
    some other product is currently priced exactly at the poorest buyer's
    budget and that buyer wants it, so the displaced customer keeps spending
    the same amount. A displaced buyer may still prefer a cheaper third
    product, so the move is guarded by re-evaluation like reassignment.
    Expects slack-free prices. ``sold`` is as in :func:`fill`.
    """
    top, values = inst.budget_levels(grid), grid.values

    def levels(i, cur, chosen):
        m = cur[i]
        poorest, second = _cheapest(inst, chosen, i, values[m], 2)
        if top[poorest] != m:
            return []
        # The poorest buyer affords every product at i's price and bought i,
        # the first affordable one in their ranking, so a fallback priced
        # there ranks below i.
        ranked = inst.preference_order[poorest]
        for j in ranked[ranked.index(i) + 1:]:
            if cur[j] == m:
                return [top[second]]
        return []

    products, shared = range(inst.num_products), range(2, inst.num_customers + 1)
    return _walk(inst, grid, indices, assignment, sold, "c", products, shared, levels, stats)


def opt_based(
    inst: Instance,
    grid: BudgetGrid,
    indices: PriceIndices,
    assignment: Assignment,
    products: Iterable[int],
    stats: LocalSearchStats | None = None,
    sold: list[int] | None = None,
) -> tuple[PriceIndices, Assignment]:
    """Benchmark scan: try every other grid price of each of ``products``, in turn.

    Prices ascend and a strictly better vector is kept at once, the scan
    continuing from it. The pipeline's ``o`` step passes every product, in
    random order. ``sold`` is as in :func:`fill`.
    """
    every_level = lambda *_: range(grid.size)
    every_count = range(inst.num_customers + 1)
    return _walk(inst, grid, indices, assignment, sold, "o", products, every_count, every_level,
                 stats)


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
    ``c`` step (so ``"rc"`` runs slack twice). The buyer counts are made once,
    from ``assignment``, and the same list goes to every walk step, which
    keeps it current; slack changes no purchase, so it needs no update.
    """
    steps = parse_pipeline(pipeline)
    needs_slack = "s" not in steps
    cur = (tuple(indices), assignment)
    sold = _buyer_counts(inst.num_products, assignment.chosen)
    for step in steps:
        if step == "s" or (needs_slack and step in ("r", "c")):
            cur = slack(inst, grid, *cur)
        if step == "f":
            cur = fill(inst, grid, *cur, stats=stats, sold=sold)
        elif step == "r":
            cur = reassignment(inst, grid, *cur, stats=stats, sold=sold)
        elif step == "c":
            cur = conditional_reassignment(inst, grid, *cur, stats=stats, sold=sold)
        elif step == "o":
            order = list(range(inst.num_products))
            rng.shuffle(order)
            cur = opt_based(inst, grid, *cur, order, stats=stats, sold=sold)
    return cur
