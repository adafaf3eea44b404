"""Purchase decisions for a fixed price vector, solved in closed form.

For fixed prices each customer's problem has a unique optimum: buy the most
preferred affordable product, or nothing if none is affordable. ``assign``
exploits this directly and is the hot path of every search. Given the
assignment of a vector that differs in one product, it re-decides only the
customers that one price change can touch; every local-search trial is
evaluated that way. ``assign_oracle`` re-derives the same result by brute
enumeration of all purchase options and exists so tests can cross-check the
closed form against a literal reading of the customer problem.
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
    base: tuple[int, int, Assignment] | None = None,
) -> Assignment:
    """Unique optimal purchase of every customer under the given grid prices.

    ``base = (i, level, before)`` says that ``indices`` differs from the
    vector behind ``before`` only in product i, which was at grid index
    ``level``. Then only the customers who want i with a budget between the
    old and the new price of i are decided again: after a cut, those who rank
    i above their choice switch to it; after a raise, its buyers who can no
    longer afford it scan their ranking again. Revenue is updated by the
    difference, and the result equals the one without ``base``.
    """
    if base is None:
        return assign_prices(inst, grid.prices_of(indices))
    i, level, before = base
    values = grid.values
    old, new = values[level], values[indices[i]]
    chosen = before.chosen
    revenue = before.revenue + len(before.buyers.get(i, ())) * (new - old)
    moves = []
    if new < old:
        for k in inst.wanting_between(i, new, old):
            c = chosen[k]
            if c is None:
                moves.append((k, None, i))
                revenue += new
            elif inst.preferences[k][i] > inst.preferences[k][c]:
                moves.append((k, c, i))
                revenue += new - values[indices[c]]
    else:
        for k in inst.wanting_between(i, old, new):
            if chosen[k] != i:
                continue
            revenue -= new
            budget = inst.budgets[k]
            for j in inst.preference_order[k]:
                price = values[indices[j]]
                if price <= budget:
                    moves.append((k, i, j))
                    revenue += price
                    break
            else:
                moves.append((k, i, None))
    return before.moved(moves, revenue)


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
