"""Purchase decisions for a fixed price vector, solved in closed form.

For fixed prices each customer's problem has a unique optimum: buy the most
preferred affordable product, or nothing if none is affordable. ``assign``
exploits this directly and is the hot path of every search. A full
evaluation is one first-affordable scan on grid levels: customer k affords
level m exactly when m is at most k's top level, read from the instance's
level table for the grid (``Instance.top_levels``), so the scan compares
levels and reads a price only for the product bought. ``assign_prices``
runs the same scan on the levels of its own distinct prices. Given a
vector, its assignment and a move of one product to another grid index,
``assign`` instead re-decides only the customers that one price change can
touch and copies every other choice. That re-decision is ``apply_move``,
which works in place on a caller's mutable list of choices and reports the
revenue difference and the choices it changed: ``assign`` runs it on a
copy, and ``brute_force``'s walk runs it on its own state, one step per walk
vector. ``assign_oracle`` re-derives the same result by brute enumeration
of all purchase options and exists so tests can cross-check the closed form
against a literal reading of the customer problem.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from .model import Assignment, BudgetGrid, Instance


def _scan(
    inst: Instance, values: Sequence[int], indices: Sequence[int], top: Sequence[int]
) -> Assignment:
    """Each customer's first ranked product at a level within their top level ``top[k]``."""
    chosen: list[int | None] = []
    push = chosen.append
    revenue = 0
    for t, ranked in zip(top, inst.preference_order):
        for i in ranked:
            if indices[i] <= t:
                push(i)
                revenue += values[indices[i]]
                break
        else:
            push(None)
    return Assignment(tuple(chosen), revenue)


def assign_prices(inst: Instance, prices: Sequence[int]) -> Assignment:
    """Evaluate arbitrary (not necessarily on-grid) integer prices.

    The sorted distinct prices serve as the grid: each price is its level
    among them, each customer's top level is where their budget falls among
    them, and the scan of :func:`assign` decides every customer.
    """
    values = sorted(set(prices))
    level = {price: m for m, price in enumerate(values)}
    top = [bisect_right(values, budget) - 1 for budget in inst.budgets]
    return _scan(inst, values, [level[price] for price in prices], top)


def assign(
    inst: Instance,
    grid: BudgetGrid,
    indices: Sequence[int],
    move: tuple[int, int, Assignment, int] | None = None,
) -> Assignment:
    """Unique optimal purchase of every customer under the given grid prices.

    A full evaluation scans each customer's ranking for the first product
    whose level is at most the customer's top level, from the level table
    ``inst.top_levels(grid)`` (built on the first call for the grid).
    ``move = (i, m, before, buyers)`` asks instead for the assignment after
    product i moves to grid index m, where ``before`` is the assignment of
    ``indices`` and ``buyers`` the number of customers who buy i under it.
    It is ``apply_move`` on a copy of ``before.chosen``, and equals a full
    evaluation of the moved vector.
    """
    if move is None:
        return _scan(inst, grid.values, indices, inst.top_levels(grid))
    i, m, before, buyers = move
    chosen = list(before.chosen)
    delta, _ = apply_move(inst, grid.values, indices, chosen, i, m, buyers)
    return Assignment(tuple(chosen), before.revenue + delta)


def apply_move(
    inst: Instance,
    values: Sequence[int],
    indices: Sequence[int],
    chosen: list[int | None],
    i: int,
    m: int,
    buyers: int,
) -> tuple[int, list[tuple[int, int | None]]]:
    """Move product i to grid index m in ``chosen``, the choices under ``indices``.

    ``values`` are the grid's values, ``indices[i]`` is i's level before the
    move (``indices`` itself is not changed) and ``buyers`` the number of
    customers who buy i in ``chosen``. Only the customers who want i with a
    budget between the old and the new price of i are decided again, found
    through ``Instance.customers_by_budget``: after a cut, those who rank i
    above their choice switch to it; after a raise, its buyers who can no
    longer afford it scan the products they rank below i, since i was the
    first they could afford and no other price moved. Afterwards ``chosen``
    is the assignment of the moved vector. Returns the revenue difference
    and ``(k, old choice)`` for each customer k whose choice changed, by
    ascending budget.
    """
    old, new = values[indices[i]], values[m]
    delta = buyers * (new - old)
    changed = []
    if new < old:
        preferences = inst.preferences
        for k in inst.wanting_between(i, new, old):
            c = chosen[k]
            if c is None:
                chosen[k] = i
                delta += new
                changed.append((k, c))
            elif preferences[k][i] > preferences[k][c]:
                chosen[k] = i
                delta += new - values[indices[c]]
                changed.append((k, c))
    else:
        for k in inst.wanting_between(i, old, new):
            if chosen[k] != i:
                continue
            delta -= new
            changed.append((k, i))
            budget = inst.budgets[k]
            ranked = inst.preference_order[k]
            for j in ranked[ranked.index(i) + 1:]:
                price = values[indices[j]]
                if price <= budget:
                    chosen[k] = j
                    delta += price
                    break
            else:
                chosen[k] = None
    return delta, changed


def assign_oracle(inst: Instance, grid: BudgetGrid, indices: Sequence[int]) -> Assignment:
    """Same contract as :func:`assign`, by exhaustive per-customer enumeration.

    Considers all I+1 options (each product, or no purchase scoring zero) and
    keeps the option with the highest satisfaction score. Test-only reference
    path; deliberately shares no code with ``assign``.
    """
    prices = grid.prices_of(indices)
    chosen: list[int | None] = []
    revenue = 0
    for k in range(inst.num_customers):
        budget = inst.budgets[k]
        row = inst.preferences[k]
        best: int | None = None
        best_score = 0
        for i in range(inst.num_products):
            score = row[i]
            if score is None or prices[i] > budget:
                continue
            if score > best_score:
                best = i
                best_score = score
        chosen.append(best)
        if best is not None:
            revenue += prices[best]
    return Assignment(chosen=tuple(chosen), revenue=revenue)
