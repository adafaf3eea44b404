"""Purchase decisions for a fixed price vector, solved in closed form.

For fixed prices each customer's problem has a unique optimum: buy the most
preferred affordable product, or nothing if none is affordable. ``assign``
exploits this directly and is the hot path of every search. Given a vector,
its assignment and a move of one product to another grid index, it
re-decides only the customers that one price change can touch and copies
every other choice. Every local-search trial is evaluated that way, against
the walk's own vector, and so is every step after the first of
``brute_force``'s Gray-order walk, which covers products 1..I-1 of a copy
of the instance without product 0. ``assign_oracle`` re-derives
the same result by brute enumeration of all purchase options and exists so
tests can cross-check the closed form against a literal reading of the
customer problem.
"""

from __future__ import annotations

from typing import Sequence

from .model import Assignment, BudgetGrid, Instance


def assign_prices(inst: Instance, prices: Sequence[int]) -> Assignment:
    """Evaluate arbitrary (not necessarily on-grid) integer prices."""
    chosen: list[int | None] = []
    push = chosen.append
    revenue = 0
    for budget, ranked in zip(inst.budgets, inst.preference_order):
        for i in ranked:
            if prices[i] <= budget:
                push(i)
                revenue += prices[i]
                break
        else:
            push(None)
    return Assignment(chosen=tuple(chosen), revenue=revenue)


def assign(
    inst: Instance,
    grid: BudgetGrid,
    indices: Sequence[int],
    move: tuple[int, int, Assignment, int] | None = None,
) -> Assignment:
    """Unique optimal purchase of every customer under the given grid prices.

    ``move = (i, m, before, buyers)`` asks instead for the assignment after
    product i moves to grid index m, where ``before`` is the assignment of
    ``indices`` and ``buyers`` the number of customers who buy i under it.
    Then only the customers who want i with a budget between the old and the
    new price of i are decided again, found through
    ``Instance.customers_by_budget``: after a cut, those who rank i above
    their choice switch to it; after a raise, its buyers who can no longer
    afford it scan the products they rank below i, since i was the first
    they could afford and no other price moved. Revenue is updated by the
    difference, and the result equals a full evaluation of the moved vector.
    Local-search trials and every step of ``brute_force``'s walk over
    products 1..I-1 after its first vector call it this way.
    """
    if move is None:
        return assign_prices(inst, grid.prices_of(indices))
    i, m, before, buyers = move
    values = grid.values
    old, new = values[indices[i]], values[m]
    chosen = list(before.chosen)
    revenue = before.revenue + buyers * (new - old)
    if new < old:
        for k in inst.wanting_between(i, new, old):
            c = chosen[k]
            if c is None:
                chosen[k] = i
                revenue += new
            elif inst.preferences[k][i] > inst.preferences[k][c]:
                chosen[k] = i
                revenue += new - values[indices[c]]
    else:
        for k in inst.wanting_between(i, old, new):
            if chosen[k] != i:
                continue
            revenue -= new
            budget = inst.budgets[k]
            ranked = inst.preference_order[k]
            for j in ranked[ranked.index(i) + 1:]:
                price = values[indices[j]]
                if price <= budget:
                    chosen[k] = j
                    revenue += price
                    break
            else:
                chosen[k] = None
    return Assignment(chosen=tuple(chosen), revenue=revenue)


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
