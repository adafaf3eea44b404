"""Ground truth at desk scale: grid enumeration and an LP exporter.

The optimum of an instance always sits on the budget grid, so exhaustive
enumeration of the M^I grid vectors is an exact oracle whenever that count
is affordable. It need not visit them all. Call levels(i) the top grid
level within the budget of each customer who wants product i, plus the top
level M - 1. A customer affords level m exactly when m is at most their own
top level, so between two entries of levels(i) no choice of product i
changes: moving i up to the next entry keeps every purchase and earns
strictly more if i sells. Some optimum therefore prices every product at a
level in levels(i), and every other optimum is one of those with products
that sell nothing moved down inside their gaps.

``brute_force`` walks the vectors of products 2..I-1 over their levels(i)
lists in reflected Gray order, one product to the adjacent entry of its
list per step. The walk holds one mutable state: the choices and revenue of
the walk vector, each walk product's buyer count and its price. Only the
first vector gets a full ``assign``; each step after it is one
``apply_move``, the delta step ``assign`` also takes, run in place on that
state, and no per-step assignment is built. At each walk vector it reads
the revenue of all M^2 prices of products 0 and 1 off one revenue surface:
given the walk's choices, each customer adds a curve term in one of the two
prices, or two terms split where the first choice becomes too dear, and a
sweep over product 0's price builds the surface row by row. ``cap`` counts
the grid vectors this settles, M^2 times the product of the list lengths.
The optimal walk vectors are expanded over the gaps of their unsold walk
products at the end, so the argmax list is that of the whole grid.

The walk is pruned against ``best``, its running maximum, with three exact
upper bounds. The whole-surface cap: no customer pays more for product 0 or
1 than the top grid value within their budget, so the walk revenue plus
each such customer's gain at that value caps every cell of a surface. The
walk carries the cap from step to step, updating it from the choices each
step reports changed, and does not ask for a surface below ``best``. The
curve-sum bound: customers who can take only product 0 add exactly one
curve in its price, those who can take only 1 one curve in the other, and
those who can take both at most their cap term, so the walk revenue plus
each single-product curve's maximum plus those terms caps every cell again,
never above the cap; a surface below ``best`` is not swept. Inside the
sweep, a row's cells are its constant plus a curve plus a tail that grows
toward high prices of product 1, so the constant plus the curve's maximum
plus the last tail bounds the row, and a row below ``best`` is never built.
Each test is a strict ``<`` against a maximum that only grows, so a skipped
cell can neither be the optimum nor tie it; a bound equal to ``best`` keeps
its row, so ties still enter the argmax list. The optimum and argmax list
are those of the unpruned walk.

For anything larger, ``export_single_level`` writes the equivalent
single-level binary program (quadratic objective, linear constraints) in LP
format for an external solver; this package never solves that model itself.

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

from itertools import accumulate, chain, product
from math import prod
from operator import mul

from .errors import InvalidRange, SearchSpaceTooLarge
from .evaluate import apply_move, assign
from .model import BudgetGrid, Instance, PriceIndices

DEFAULT_ENUMERATION_CAP = 100_000_000


def brute_force(
    inst: Instance, grid: BudgetGrid, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[int, list[PriceIndices]]:
    """Maximum revenue over the whole grid and every vector attaining it.

    Each product i >= 2 is walked only over ``_levels``: the top grid level
    within the budget of each customer who wants it, plus the top level.
    Products 2..I-1 step through those lists in reflected mixed-radix Gray
    order from their lowest entries: product 2 sweeps its list up and down, and
    whenever it reaches an end the lowest product that can still move in its
    own direction moves to the adjacent entry of its list, which may be several
    grid levels away. The walk runs on ``rest``, the instance with products 0
    and 1 removed (``Instance.without_first``, which derives its rankings from
    ``inst``'s instead of sorting again), and holds one state that each step
    changes in place: ``chosen`` and ``revenue``, the assignment of ``cur`` in
    ``rest``, ``sold``, how many customers make each choice (so each walk
    product's buyer count), and the walk products' prices in ``_SurfaceCap``.
    Only the first vector gets a full ``assign``; each later one is one
    ``apply_move`` on that state, which reports the revenue difference and the
    customers whose choice changed. At each walk vector ``_pair_surface`` gives
    the revenue at all M^2 prices of products 0 and 1, so each walk vector
    settles M^2 grid vectors; with I = 1 or 2 the walk is the one empty vector.
    ``_SurfaceCap`` carries the whole-surface cap along the walk; when it is
    below the running maximum ``best`` the surface is not asked for at all.
    Otherwise the surface gets ``best`` as its floor and leaves out the rows
    that its curve-sum and row bounds show to be below it, so ``top`` is the
    maximum of the rows it builds. Every cell left out is below ``best`` by a
    strict ``<``, and ``best`` only grows, so it could neither be the optimum
    nor tie it.

    The lists lose nothing. Let L be product j's list and L[r-1] < m <= L[r]
    (from m = 0 when r = 0). Every customer who wants j affords m exactly
    when they afford L[r], so at m every choice is the one at L[r]: if j
    sells, L[r] earns strictly more, and if not, the two tie. So the walk
    finds the optimum, and ``_gaps`` turns each optimal vector it finds
    into the full-grid ones, taking each walk product unsold under that
    vector over its whole gap. The argmax list is sorted at the end, so it
    comes out lexicographically sorted (index order, which matches price
    order).

    Refuses to settle more than ``cap`` vectors, M^2 times the product of
    the list lengths (M^I for I <= 2); ``cap`` must be an int (not a bool)
    of at least 1, or ``InvalidRange`` is raised.
    """
    if type(cap) is not int or cap < 1:
        raise InvalidRange(f"enumeration cap must be an integer of at least 1, got {cap!r}")
    rest = inst.without_first(2)
    tops = inst.top_levels(grid)
    levels = [_levels(grid, tops, customers) for _, customers in rest.customers_by_budget]
    num, walk = inst.num_products, prod(map(len, levels))
    total = grid.size ** min(num, 2) * walk
    if total > cap:
        raise SearchSpaceTooLarge(total, cap)
    pair = _pair_slots(inst, grid)
    surface = _pair_surface(inst, grid, pair)
    values = grid.values
    pos = [0] * rest.num_products
    step = [1] * rest.num_products
    cur = [lv[0] for lv in levels]
    best, argmax = -1, []
    a = assign(rest, grid, cur)
    chosen, revenue = list(a.chosen), a.revenue
    sold = dict.fromkeys([None, *range(rest.num_products)], 0)
    for c in chosen:
        sold[c] += 1
    whole = _SurfaceCap(grid, pair, cur, chosen)
    paid = whole.price
    for n in range(walk):
        if n:
            i = 0
            while not 0 <= pos[i] + step[i] < len(levels[i]):
                step[i] = -step[i]
                i += 1
            pos[i] += step[i]
            m = levels[i][pos[i]]
            delta, changed = apply_move(rest, values, cur, chosen, i, m, sold[i])
            cur[i] = m
            revenue += delta
            for k, c in changed:
                sold[c] -= 1
                sold[chosen[k]] += 1
            whole.move(i, values[m], changed, chosen)
        if revenue + whole.gain < best:
            continue
        rows = surface(paid, chosen, revenue, best)
        top = max(map(max, filter(None, rows)), default=-1)
        if top >= best:
            if top > best:
                best, argmax = top, []
            # With I = 1 each row has one cell and the vector drops m1.
            argmax.extend((m0, m1, *cur)[:num] for m0, row in enumerate(rows) if row
                          for m1, r in enumerate(row) if r == top)
    if rest.num_products:
        argmax = [v for found in argmax for v in _gaps(inst, grid, levels, found)]
    argmax.sort()
    return best, argmax


def _levels(grid: BudgetGrid, tops, customers) -> list[int]:
    """The grid levels a walk product takes: each wanter's top affordable level, and M - 1.

    ``tops`` is the instance's level table for ``grid`` and ``customers``
    those who want the product. A customer whose top level is t affords
    level m exactly when m <= t, so these are the only levels at which any
    choice of the product changes. A customer who affords no level adds none.
    """
    return sorted({tops[k] for k in customers} - {-1} | {grid.size - 1})


def _gaps(inst: Instance, grid: BudgetGrid, levels, found):
    """The full-grid vectors that tie ``found``, a vector of the walk.

    Each walk product j that nobody buys under ``found`` takes every level
    of its gap (L[r-1], L[r]], where L is its list and L[r] its level in
    ``found`` (from level 0 when r = 0); a sold one keeps its level.
    """
    sold = set(assign(inst, grid, found).chosen)
    spans = [[m] for m in found[:2]]
    for j, (m, lv) in enumerate(zip(found[2:], levels), 2):
        if j in sold:
            spans.append([m])
        else:
            r = lv.index(m)
            spans.append(range(lv[r - 1] + 1 if r else 0, m + 1))
    return product(*spans)


def _pair_slots(inst: Instance, grid: BudgetGrid) -> list[tuple[int, dict]]:
    """``(k, slots)`` for each customer k who can move into the pair from some walk choice.

    ``slots[c]`` is ``kind * M + t`` for each choice c k can make in the
    walk (None for buying nothing, j for product j + 2), where t is k's top
    affordable level and kind is 0 (k takes neither product 0 nor 1 over
    c), 1 (only 1), 2 (only 0), 3 (both, 0 first) or 4 (both, 1 first). A
    customer who affords no level, or takes neither from any choice, is left
    out.
    """
    size = grid.size
    pair = []
    for k, (t, row) in enumerate(zip(inst.top_levels(grid), inst.preferences)):
        # A product k does not want scores 0, as does buying nothing.
        s0, s1 = [score or 0 for score in (*row, None)[:2]]
        slots = {}
        for c, score in [(None, 0), *((j, s) for j, s in enumerate(row[2:]) if s is not None)]:
            take0, take1 = s0 > score, s1 > score
            slots[c] = (2 * take0 + take1 + (take0 and take1 and s1 > s0)) * size + t
        if t >= 0 and any(slot >= size for slot in slots.values()):
            pair.append((k, slots))
    return pair


class _SurfaceCap:
    """The whole-surface cap of the pair surface, carried along the walk.

    No customer pays more for product 0 or 1 than the top grid value within
    their budget, values[t], and each customer k who can move into the pair
    from their walk choice c already affords what c costs, p = ``price[c]``.
    So no cell of the surface exceeds the walk revenue plus ``gain``, which
    sums values[t] - p over those customers. It is summed once for the first
    walk vector; after each step ``move`` takes the moved product's price
    change times ``movers`` of it (the customers counted in ``gain`` who buy
    it) off ``gain``, then takes out and puts back only the customers the
    step reports changed. ``price`` maps each walk choice (None for buying
    nothing) to what it costs at the walk's levels, and is the walk's own
    price table.
    """

    __slots__ = ("reach", "price", "movers", "gain")

    def __init__(self, grid: BudgetGrid, pair, cur, chosen) -> None:
        values, size = grid.values, grid.size
        # Per customer: values[t] for each walk choice from which they can move into the pair.
        self.reach = [{} for _ in chosen]
        for k, slots in pair:
            self.reach[k] = {c: values[slot % size] for c, slot in slots.items()
                             if slot >= size}
        self.price = {None: 0, **{j: values[m] for j, m in enumerate(cur)}}
        self.movers = dict.fromkeys(self.price, 0)
        self.gain = 0
        for k, c in enumerate(chosen):
            top = self.reach[k].get(c)
            if top is not None:
                self.gain += top - self.price[c]
                self.movers[c] += 1

    def move(self, i: int, price: int, changed, chosen) -> None:
        """Product i now costs ``price``; ``changed`` is the step's report, ``chosen`` after it."""
        reach, paid, movers = self.reach, self.price, self.movers
        old, paid[i] = paid[i], price
        gain = self.gain - (price - old) * movers[i]
        for k, c in changed:
            top = reach[k].get(c)
            if top is not None:
                gain -= top - paid[c]
                movers[c] -= 1
            d = chosen[k]
            top = reach[k].get(d)
            if top is not None:
                gain += top - paid[d]
                movers[d] += 1
        self.gain = gain


def _pair_surface(inst: Instance, grid: BudgetGrid, pair):
    """The revenue at every pair of prices of products 0 and 1.

    ``pair`` is ``_pair_slots(inst, grid)``. Returns ``rows(paid, chosen,
    revenue, floor=-1)``: given a vector ``cur`` of products 2..I-1 by
    ``paid``, which maps each walk choice (None for buying nothing, j for
    product j + 2) to what it costs under ``cur``, and its assignment
    ``chosen`` with ``revenue`` in the instance without products 0 and 1,
    the M rows ``rows[m0][m1]``, each the revenue of the full vector
    ``(m0, m1, *cur)``. With I = 1 each row has the one cell m1 = 0. A row
    is ``None`` when an upper bound shows that each of its cells is below
    ``floor``; every row that is built is exact, and so is every row whose
    bound equals ``floor``. At the default floor every row is built.

    Customer k, whose choice c in ``chosen`` pays p, affords the levels up to t
    of both products (they share k's budget), and can take product 0 or 1 only
    if k wants it and ranks it above c. To ``revenue`` k then adds nothing; or
    a curve term [m <= t](v[m] - p) in the one coordinate k can take; or, if k
    can take both, the term of the one k ranks first plus the other's term on
    the rectangle where the first is too dear. The rows are swept from m0 = M-1
    down. Row m0 is a constant, v[m0] - p from each k who buys product 0
    throughout it, plus one suffix-sum curve in m1 over the curve terms, plus a
    tail [m1 > t](v[m0] - p) from each k with t >= m0 who ranks 1 first. A k
    who ranks 0 first moves from the curve to the constant at m0 = t, so the
    curve and the tails change only at the t of customers who can take both.

    Two bounds prune against ``floor``. The curve-sum bound: the customers
    who can take only product 0 add exactly their curve at m0 and those who
    can take only 1 theirs at m1, while each k who can take both adds at
    most v[t] - p; so no cell exceeds ``revenue`` plus the maximum of each
    single-product curve plus that term of every k who can take both. If it
    is below ``floor`` all M rows are ``None`` and nothing is swept. A
    curve's value at any level is at most the sum of its customers' terms
    v[t] - p, none of them negative, so the bound is at most
    ``_SurfaceCap``'s; its value at the top level is not negative either, so
    each maximum is at least 0. The row bound: the tail counts only grow
    toward high m1 and v[m0] > 0, so no cell of row m0 exceeds the constant
    plus the curve's maximum plus v[m0] times the last tail count; the
    maximum is recomputed only where the curve changes.
    """
    values, size = grid.values, grid.size
    width = size if inst.num_products > 1 else 1
    # values[t] at the slots of the two kinds who can take both; the levels from the top down.
    both, levels = values * 2, range(size - 1, -1, -1)

    def rows(paid, chosen, revenue, floor=-1):
        n, lost = [0] * (5 * size), [0] * (5 * size)
        for k, slots in pair:
            c = chosen[k]
            slot = slots[c]
            n[slot] += 1
            lost[slot] += paid[c]
        only1, only0, first0, first1 = size, 2 * size, 3 * size, 4 * size
        # The curve-sum bound. Each single-product curve is read from the top
        # level down and only where customers join it: in between it falls
        # with v.
        bound = revenue + sum(map(mul, both, n[first0:])) - sum(lost[first0:])
        high0 = high1 = count0 = loss0 = count1 = loss1 = 0
        for t in levels:
            if n[only0 + t]:
                count0 += n[only0 + t]
                loss0 += lost[only0 + t]
                if (gain := values[t] * count0 - loss0) > high0:
                    high0 = gain
            if n[only1 + t]:
                count1 += n[only1 + t]
                loss1 += lost[only1 + t]
                if (gain := values[t] * count1 - loss1) > high1:
                    high1 = gain
        bound += high0 + high1
        if bound < floor:
            return [None] * size
        # The curve of the top row: every kind 1, 3 and 4 term.
        base, tails = [0] * width, [0] * width
        count = loss = 0
        for m1 in range(width - 1, -1, -1):
            count += n[only1 + m1] + n[first0 + m1] + n[first1 + m1]
            loss += lost[only1 + m1] + lost[first0 + m1] + lost[first1 + m1]
            base[m1] = values[m1] * count - loss
        out = []
        count = loss = 0
        high = max(base)
        for t in levels:
            count += n[only0 + t] + n[first0 + t]
            loss += lost[only0 + t] + lost[first0 + t]
            if n[first0 + t]:
                for m1 in range(t + 1):
                    base[m1] -= values[m1] * n[first0 + t] - lost[first0 + t]
            if n[first1 + t]:
                for m1 in range(t + 1, width):
                    tails[m1] += n[first1 + t]
                    base[m1] -= lost[first1 + t]
            if n[first0 + t] or n[first1 + t]:
                high = max(base)
            v0 = values[t]
            const = revenue + v0 * count - loss
            # The row bound: tails only grows toward high m1.
            if const + high + v0 * tails[-1] < floor:
                out.append(None)
            else:
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
    for k, (scores, t) in enumerate(zip(inst.preferences, inst.top_levels(grid))):
        own = [names[k] for names in x]
        available = [i for i in range(num_i) if scores[i] is not None]
        # The grid ascends, so the levels within k's budget are a prefix of it.
        top = t + 1
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
