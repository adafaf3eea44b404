"""Ground truth at desk scale: full grid enumeration and an LP exporter.

The optimum of an instance always sits on the budget grid, so exhaustive
enumeration of the M^I grid vectors is an exact oracle whenever that count
is affordable. ``brute_force`` walks the M^(I-1) price vectors of products
1..I-1 in reflected Gray order, one product one level per step, so that
every vector after the first is a one-product delta ``assign`` against the
one before it. At each of them it reads the revenue of all M prices of
product 0 off that product's revenue curve. For anything
larger, ``export_single_level`` writes the equivalent single-level binary
program (quadratic objective, linear constraints) in LP format for an
external solver; this package never solves that model itself.

``build_single_level`` writes the model's text directly, in one pass over
the customers: the fragments that repeat (variable names, each product's
objective prefixes and link tails, each customer's pref left-hand side) are
formatted once, and each objective block and row is one ``str.join``. The
objective keeps the terms at prices above a customer's budget, which that
customer's link row forces to zero; they are kept on purpose, because
dropping them would change the exported text. That text is byte-identical
to what earlier versions wrote, and tests pin it by SHA-256 digests.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, chain

from .errors import SearchSpaceTooLarge
from .evaluate import assign
from .model import BudgetGrid, Instance, PriceIndices, write_text

DEFAULT_ENUMERATION_CAP = 10_000_000


def brute_force(
    inst: Instance, grid: BudgetGrid, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[int, list[PriceIndices]]:
    """Maximum revenue over the whole grid and every vector attaining it.

    Products 1..I-1 are walked in reflected mixed-radix Gray order from the
    all-zero vector: product 1 sweeps its levels up and down, and whenever it
    reaches an end the lowest product that can still move in its own
    direction moves by one level. The walk runs on ``rest``, the instance
    with product 0 removed: only its first vector gets a full ``assign``,
    every later one is a one-product move against the walk's own vector and
    assignment. In ``rest`` customer k chooses ``other(k)``, the product k
    picks when 0 is not on sale; k buys 0 at level m exactly when k affords
    it and ``other(k)`` is none or ranked below 0, and then k's payment
    changes from the price of ``other(k)`` to the m-th grid value. One pass
    over the customers who want 0 and a suffix sum over the levels give
    product 0's revenue curve, so each walk vector settles M grid vectors.
    The argmax list is sorted at the end, so it comes out lexicographically
    sorted (index order, which matches price order). Refuses to enumerate
    more than ``cap`` vectors.
    """
    total = grid.size**inst.num_products
    if total > cap:
        raise SearchSpaceTooLarge(total, cap)
    # Not validated: a customer who wants only product 0 has an empty row here.
    rest = Instance(inst.name, inst.budgets, tuple(row[1:] for row in inst.preferences))
    values, size = grid.values, grid.size
    levels = range(size - 1, -1, -1)
    # Per customer who wants 0 and affords some level of it: the top level
    # they afford, and the products of ``rest`` they rank above 0.
    wanting = [
        (k, top, {j - 1 for j, score in enumerate(row) if score is not None and score > row[0]})
        for k, (budget, row) in enumerate(zip(inst.budgets, inst.preferences))
        if row[0] is not None and (top := bisect_right(values, budget) - 1) >= 0
    ]
    cur = [0] * rest.num_products
    step = [1] * rest.num_products
    # The price of each product of ``rest`` under ``cur``; no purchase pays 0.
    paid: dict[int | None, int] = {j: values[0] for j in range(rest.num_products)}
    paid[None] = 0
    best, argmax = -1, []
    a = assign(rest, grid, cur)
    for n in range(size**rest.num_products):
        if n:
            i = 0
            while not 0 <= cur[i] + step[i] < size:
                step[i] = -step[i]
                i += 1
            m = cur[i] + step[i]
            a = assign(rest, grid, cur, (i, m, a, a.chosen.count(i)))
            cur[i] = m
            paid[i] = values[m]
        buyers, lost = [0] * size, [0] * size
        chosen = a.chosen
        for k, top, above in wanting:
            c = chosen[k]
            if c not in above:
                buyers[top] += 1
                lost[top] += paid[c]
        count = loss = 0
        for m in levels:
            count += buyers[m]
            loss += lost[m]
            revenue = a.revenue + values[m] * count - loss
            if revenue > best:
                best, argmax = revenue, [(m, *cur)]
            elif revenue == best:
                argmax.append((m, *cur))
    argmax.sort()
    return best, argmax


def build_single_level(inst: Instance, grid: BudgetGrid) -> list[str]:
    """The LP body of the single-level model, ``Maximize`` to ``End``.

    ``v_{i}_{m}`` = 1 when product i is priced at the m-th grid value,
    ``x_{i}_{k}`` = 1 when customer k buys product i (all names 1-based).
    The objective is the bilinear revenue sum; constraint families are
    one-price-per-product (onep), one-purchase-per-customer (onec),
    buy-only-affordably-priced-products (link) and buy-your-best-affordable
    (pref). In the link and pref rows of customer k, price-choice variables
    are summed only over the grid values within k's budget: that restriction
    is what encodes affordability, and without it the model would let
    customers buy products priced beyond their budget.

    Purchases a customer can never make are fixed to zero instead of being
    constrained: their x variable gets a zero bound, their pref row and their
    objective terms are omitted. Everything else is written in full: the
    link family always has K*I rows, and k's objective keeps its terms at
    prices above k's budget, which k's link row forces to zero. They are
    kept on purpose, because dropping them changes the exported text.

    One pass over the customers writes the text, and every fragment that
    repeats is formatted once beforehand: the names ``v[i][m]`` and
    ``x[i][k]``, each product's objective prefixes ``+ 2*value v_{i}_{m} *``
    and its link tails ``- 1 v_{i}_{1} ... - 1 v_{i}_{L}`` for every L. In
    the pass, each customer's pref left-hand side is formatted once, and
    each of their objective blocks (one per available product) and rows is
    one ``str.join``. The result is the list of those blocks in file order,
    each one or more lines without the final line break.
    """
    num_i, num_k = inst.num_products, inst.num_customers
    v = [[f"v_{i + 1}_{m + 1}" for m in range(grid.size)] for i in range(num_i)]
    x = [[f"x_{i + 1}_{k + 1}" for k in range(num_k)] for i in range(num_i)]
    prefixes = [[f"   + {2 * value} {name} * " for value, name in zip(grid.values, names)]
                for names in v]
    tails = [list(accumulate((f" - 1 {name}" for name in names), initial="")) for names in v]

    objective, onec, link, pref = [], [], [], []
    for k, scores in enumerate(inst.preferences):
        own = [names[k] for names in x]
        available = [i for i in range(num_i) if scores[i] is not None]
        # The grid ascends, so the levels within k's budget are a prefix of it.
        top = bisect_right(grid.values, inst.budgets[k])
        objective.extend((own[i] + "\n").join(prefixes[i]) + own[i] for i in available)
        onec.append(f" onec_{k + 1}: 1 {' + 1 '.join(own)} <= 1")
        link.extend(f" link_{k + 1}_{i + 1}: 1 {own[i]}{tails[i][top]} <= 0"
                    for i in range(num_i))
        lhs = " + ".join(f"{scores[i]} {own[i]}" for i in available)
        pref.extend(
            f" pref_{k + 1}_{i + 1}: {lhs}{f' - {scores[i]} '.join(['', *v[i][:top]])} >= 0"
            for i in available
        )

    fixed = [x[i][k] for i in range(num_i) for k in range(num_k)
             if inst.preferences[k][i] is None]
    return [
        "Maximize", " obj: [", *objective, "   ] / 2", "Subject To",
        *(f" onep_{i + 1}: 1 {' + 1 '.join(names)} <= 1" for i, names in enumerate(v)),
        *onec, *link, *pref,
        *(["Bounds", " " + " = 0\n ".join(fixed) + " = 0"] if fixed else []),
        "Binaries", " " + "\n ".join([*chain(*v), *chain(*x)]), "End",
    ]


def export_single_level(inst: Instance, grid: BudgetGrid) -> str:
    """LP-format text of the single-level model, byte-stable per instance.

    The bilinear objective uses the LP quadratic convention: terms are listed
    inside ``[ ... ] / 2`` with doubled coefficients. Variables are ordered
    by (product, grid index) then (product, customer); rows by family. The
    body comes from ``build_single_level``; this adds the comment header.
    """
    # A line break in the name would end the comment and write model lines.
    name = " ".join(inst.name.splitlines())
    return "\n".join([
        f"\\ single-level rank pricing model: {name or 'unnamed instance'}",
        f"\\ I={inst.num_products} products, K={inst.num_customers} customers, "
        f"M={grid.size} candidate prices",
        "\\ unavailable (customer, product) pairs: x fixed to 0 in Bounds,",
        "\\ matching pref row and objective terms omitted",
        "\\ link/pref rows sum price choices only over values within the",
        "\\ customer's budget, which encodes affordability",
        *build_single_level(inst, grid),
    ]) + "\n"


def write_lp(inst: Instance, grid: BudgetGrid, path) -> None:
    write_text(path, export_single_level(inst, grid))
