"""Ground truth at desk scale: full grid enumeration and an LP exporter.

The optimum of an instance always sits on the budget grid, so exhaustive
enumeration of the M^I grid vectors is an exact oracle whenever that count
is affordable. ``brute_force`` walks the M^(I-2) price vectors of products
2..I-1 in reflected Gray order, one product one level per step, so that
every vector after the first is a one-product delta ``assign`` against the
one before it. At each of them it reads the revenue of all M^2 prices of
products 0 and 1 off one revenue surface: given the walk's choices, each
customer adds a curve term in one of the two prices, or two terms split
where the first choice becomes too dear, and a sweep over product 0's
price builds the surface row by row. For anything
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

    Products 2..I-1 are walked in reflected mixed-radix Gray order from the
    all-zero vector: product 2 sweeps its levels up and down, and whenever it
    reaches an end the lowest product that can still move in its own
    direction moves by one level. The walk runs on ``rest``, the instance
    with products 0 and 1 removed: only its first vector gets a full
    ``assign``, every later one is a one-product move against the walk's own
    vector and assignment. At each walk vector ``_pair_surface`` gives the
    revenue at all M^2 prices of products 0 and 1, so each walk vector
    settles M^2 grid vectors; with I = 1 or 2 the walk is the one empty
    vector. The argmax list is sorted at the end, so it comes out
    lexicographically sorted (index order, which matches price order).
    Refuses to enumerate more than ``cap`` vectors.
    """
    total = grid.size**inst.num_products
    if total > cap:
        raise SearchSpaceTooLarge(total, cap)
    # Not validated: a customer who wants only products 0 and 1 has an empty row here.
    rest = Instance(inst.name, inst.budgets, tuple(row[2:] for row in inst.preferences))
    surface = _pair_surface(inst, grid)
    size, num = grid.size, inst.num_products
    cur = [0] * rest.num_products
    step = [1] * rest.num_products
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
        rows = surface(cur, a)
        top = max(map(max, rows))
        if top >= best:
            if top > best:
                best, argmax = top, []
            # With I = 1 each row has one cell and the vector drops m1.
            argmax.extend((m0, m1, *cur)[:num] for m0, row in enumerate(rows)
                          for m1, r in enumerate(row) if r == top)
    argmax.sort()
    return best, argmax


def _pair_surface(inst: Instance, grid: BudgetGrid):
    """The revenue at every pair of prices of products 0 and 1.

    Returns ``rows(cur, a)``: given the levels ``cur`` of products 2..I-1 and
    their assignment ``a`` in the instance without products 0 and 1, the M
    rows ``rows[m0][m1]``, each the revenue of the full vector
    ``(m0, m1, *cur)``. With I = 1 each row has the one cell m1 = 0.

    Customer k, whose choice c in ``a`` pays p, affords the levels up to t of
    both products (they share k's budget), and can take product 0 or 1 only
    if k wants it and ranks it above c. To ``a.revenue`` k then adds nothing;
    or a curve term [m <= t](v[m] - p) in the one coordinate k can take; or,
    if k can take both, the term of the one k ranks first plus the other's
    term on the rectangle where the first is too dear. The rows are swept
    from m0 = M-1 down. Row m0 is a constant, v[m0] - p from each k who buys
    product 0 throughout it, plus one suffix-sum curve in m1 over the curve
    terms, plus a tail [m1 > t](v[m0] - p) from each k with t >= m0 who
    ranks 1 first. A k who ranks 0 first moves from the curve to the
    constant at m0 = t, so the curve and the tails change only at the t of
    customers who can take both.
    """
    values, size = grid.values, grid.size
    width = size if inst.num_products > 1 else 1
    # Per customer who can buy from the pair: for each choice c k can make
    # in the walk, the slot kind * M + t, where kind is 0 (k takes neither),
    # 1 (only 1), 2 (only 0), 3 (both, 0 first) or 4 (both, 1 first).
    pair = []
    for k, (budget, row) in enumerate(zip(inst.budgets, inst.preferences)):
        t = bisect_right(values, budget) - 1
        # A product k does not want scores 0, as does buying nothing.
        s0, s1 = [score or 0 for score in (*row, None)[:2]]
        slots = {}
        for c, score in [(None, 0), *((j, s) for j, s in enumerate(row[2:]) if s is not None)]:
            take0, take1 = s0 > score, s1 > score
            slots[c] = (2 * take0 + take1 + (take0 and take1 and s1 > s0)) * size + t
        if t >= 0 and any(slot >= size for slot in slots.values()):
            pair.append((k, slots))

    def rows(cur, a):
        paid = {j: values[m] for j, m in enumerate(cur)}
        paid[None] = 0
        chosen = a.chosen
        n, lost = [0] * (5 * size), [0] * (5 * size)
        for k, slots in pair:
            c = chosen[k]
            slot = slots[c]
            n[slot] += 1
            lost[slot] += paid[c]
        only1, only0, first0, first1 = size, 2 * size, 3 * size, 4 * size
        # The curve of the top row: every kind 1, 3 and 4 term.
        base, tails = [0] * width, [0] * width
        count = loss = 0
        for m1 in range(width - 1, -1, -1):
            count += n[only1 + m1] + n[first0 + m1] + n[first1 + m1]
            loss += lost[only1 + m1] + lost[first0 + m1] + lost[first1 + m1]
            base[m1] = values[m1] * count - loss
        out = []
        count = loss = 0
        for t in range(size - 1, -1, -1):
            count += n[only0 + t] + n[first0 + t]
            loss += lost[only0 + t] + lost[first0 + t]
            if n[first0 + t]:
                for m1 in range(t + 1):
                    base[m1] -= values[m1] * n[first0 + t] - lost[first0 + t]
            if n[first1 + t]:
                for m1 in range(t + 1, width):
                    tails[m1] += n[first1 + t]
                    base[m1] -= lost[first1 + t]
            v0 = values[t]
            const = a.revenue + v0 * count - loss
            out.append([const + b + v0 * q for b, q in zip(base, tails)] if tails[-1]
                       else [const + b for b in base])
        out.reverse()
        return out

    return rows


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
