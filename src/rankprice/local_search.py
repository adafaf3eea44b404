"""Structural price improvements applied to already-evaluated vectors.

Four of the five moves exploit problem structure instead of trying prices
blindly: close the gap between a product's price and its cheapest buyer's
budget (slack), price an unsold product into the pool of unassigned
customers (fill), and push a product's price up to its second-cheapest
buyer's budget, either unconditionally (reassignment) or only when the
displaced buyer has an equally-priced alternative to fall back on
(conditional reassignment). The fifth (opt_based) is the plain benchmark
scan that retries every alternative price of every product.

Moves that can backfire re-evaluate the full instance and revert when
revenue does not strictly improve, so every operator here is revenue
nondecreasing by construction.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from .errors import RankPriceError
from .evaluate import assign
from .model import Assignment, BudgetGrid, Instance, PriceIndices

# Pipeline letters: slack, fill, reassignment, conditional reassignment,
# optimization-based. The paper-style order is "sfrc".
STEP_LETTERS = "sfrco"


@dataclass
class LocalSearchStats:
    """Bookkeeping for one run: extra evaluations and kept/reverted moves."""

    assign_calls: int = 0
    kept: Counter[str] = field(default_factory=Counter)
    reverted: Counter[str] = field(default_factory=Counter)

    @property
    def total_reverted(self) -> int:
        return sum(self.reverted.values())


def parse_pipeline(letters: Sequence[str]) -> tuple[str, ...]:
    """Validate a pipeline spelling such as ``"sfrc"`` into step codes."""
    steps = tuple(letters)
    for step in steps:
        if step not in STEP_LETTERS:
            raise RankPriceError(
                f"unknown local-search step {step!r}; valid letters are '{STEP_LETTERS}'"
            )
    return steps


def _try_price(
    inst: Instance,
    grid: BudgetGrid,
    cur: list[int],
    cur_a: Assignment,
    product: int,
    m: int,
    step: str,
    stats: LocalSearchStats,
) -> tuple[list[int], Assignment]:
    """Price ``product`` at grid index ``m``; keep the move iff revenue strictly improves.

    A move to the price already held is skipped without evaluation.
    """
    if m == cur[product]:
        return cur, cur_a
    trial = list(cur)
    trial[product] = m
    trial_a = assign(inst, grid, trial)
    stats.assign_calls += 1
    if trial_a.revenue > cur_a.revenue:
        stats.kept[step] += 1
        return trial, trial_a
    stats.reverted[step] += 1
    return cur, cur_a


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
    return tuple(new), Assignment(chosen=assignment.chosen, revenue=revenue)


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
    stats = stats or LocalSearchStats()
    cur, cur_a = list(indices), assignment
    for i in range(inst.num_products):
        if i in cur_a.buyers:
            continue
        interested = [k for k in cur_a.buyers.get(None, ()) if inst.preferences[k][i] is not None]
        if not interested:
            continue
        m = grid.index_of(min(inst.budgets[k] for k in interested))
        cur, cur_a = _try_price(inst, grid, cur, cur_a, i, m, "f", stats)
    return tuple(cur), cur_a


def _reassign(
    inst: Instance,
    grid: BudgetGrid,
    indices: PriceIndices,
    assignment: Assignment,
    conditional: bool,
    stats: LocalSearchStats,
) -> tuple[PriceIndices, Assignment]:
    """Walk products in index order, trying each at its second-cheapest buyer budget.

    With ``conditional`` a product is tried only when its poorest buyer pays
    exactly the current price and wants another product priced at that
    budget too.
    """
    step = "c" if conditional else "r"
    cur, cur_a = list(indices), assignment
    for i in range(inst.num_products):
        buyers = cur_a.buyers.get(i, ())
        if len(buyers) < 2:
            continue
        if conditional:
            poorest = min(buyers, key=lambda k: (inst.budgets[k], k))
            budget = inst.budgets[poorest]
            if budget != grid.values[cur[i]]:
                continue
            if not any(
                j != i and grid.values[cur[j]] == budget for j in inst.preference_order[poorest]
            ):
                continue
        second = sorted(inst.budgets[k] for k in buyers)[1]
        cur, cur_a = _try_price(inst, grid, cur, cur_a, i, grid.index_of(second), step, stats)
    return tuple(cur), cur_a


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
    return _reassign(inst, grid, indices, assignment, False, stats or LocalSearchStats())


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
    return _reassign(inst, grid, indices, assignment, True, stats or LocalSearchStats())


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
    stats = stats or LocalSearchStats()
    cur, cur_a = list(indices), assignment
    for m in range(grid.size):
        cur, cur_a = _try_price(inst, grid, cur, cur_a, product, m, "o", stats)
    return tuple(cur), cur_a


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
    cur, cur_a = tuple(indices), assignment
    for i in order:
        cur, cur_a = scan_product(inst, grid, cur, cur_a, i, stats)
    return cur, cur_a


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
