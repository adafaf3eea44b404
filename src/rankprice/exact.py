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
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import OutputWriteError, SearchSpaceTooLarge
from .evaluate import assign
from .model import Assignment, BudgetGrid, Instance, PriceIndices

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
    rest = Instance(inst.name, inst.num_products - 1, inst.num_customers, inst.budgets,
                    tuple(row[1:] for row in inst.preferences))
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


@dataclass(frozen=True)
class ConstraintRow:
    name: str
    terms: tuple[tuple[int, str], ...]
    sense: str  # "<=" or ">="
    rhs: int


@dataclass(frozen=True)
class MilpModel:
    """Single-level reformulation: binary price-choice and purchase variables.

    ``v_{i}_{m}`` = 1 when product i is priced at the m-th grid value,
    ``x_{i}_{k}`` = 1 when customer k buys product i (all names 1-based).
    The objective is the bilinear revenue sum; constraint families are
    one-price-per-product (onep), one-purchase-per-customer (onec),
    buy-only-affordably-priced-products (link) and buy-your-best-affordable
    (pref). In the link and pref rows of customer k, price-choice variables
    are summed only over grid values within k's budget: that restriction is
    what encodes affordability, and without it the model would let customers
    buy products priced beyond their budget.
    """

    v_names: tuple[str, ...]
    x_names: tuple[str, ...]
    objective: tuple[tuple[int, str, str], ...]  # (price of level m, v_{i}_{m}, x_{i}_{k})
    rows: tuple[ConstraintRow, ...]
    fixed_zero: tuple[str, ...]

    def family_counts(self) -> dict[str, int]:
        counts = {"onep": 0, "onec": 0, "link": 0, "pref": 0}
        for row in self.rows:
            counts[row.name.split("_", 1)[0]] += 1
        return counts

    def objective_value(self, values: Mapping[str, int]) -> int:
        return sum(
            price * values.get(v, 0) * values.get(x, 0) for price, v, x in self.objective
        )

    def violated_rows(self, values: Mapping[str, int]) -> list[str]:
        """Names of constraints (and fixed bounds) the 0/1 point violates."""
        bad = []
        for row in self.rows:
            lhs = sum(coef * values.get(name, 0) for coef, name in row.terms)
            ok = lhs <= row.rhs if row.sense == "<=" else lhs >= row.rhs
            if not ok:
                bad.append(row.name)
        bad.extend(name for name in self.fixed_zero if values.get(name, 0) != 0)
        return bad


def _v_name(i: int, m: int) -> str:
    return f"v_{i + 1}_{m + 1}"


def _x_name(i: int, k: int) -> str:
    return f"x_{i + 1}_{k + 1}"


def build_single_level(inst: Instance, grid: BudgetGrid) -> MilpModel:
    """Assemble the single-level model for an instance.

    Purchases a customer can never make are fixed to zero instead of being
    constrained: their x variable gets a zero bound, their pref row and their
    objective terms are omitted. Everything else is emitted in full, so the
    link family always has K*I rows. One pass over the customers emits each
    customer's objective terms, onec, link and pref rows; every variable name
    is formatted once, in the tables ``v[i][m]`` and ``x[i][k]``.
    """
    num_i, num_k = inst.num_products, inst.num_customers
    v = [[_v_name(i, m) for m in range(grid.size)] for i in range(num_i)]
    x = [[_x_name(i, k) for k in range(num_k)] for i in range(num_i)]

    objective, onec, link, pref = [], [], [], []
    for k, scores in enumerate(inst.preferences):
        available = [i for i in range(num_i) if scores[i] is not None]
        # The grid ascends, so the levels within k's budget are a prefix of it.
        levels = range(bisect_right(grid.values, inst.budgets[k]))
        objective.extend(
            (value, v[i][m], x[i][k]) for i in available for m, value in enumerate(grid.values)
        )
        onec.append(ConstraintRow(f"onec_{k + 1}", tuple((1, x[i][k]) for i in range(num_i)),
                                  "<=", 1))
        link.extend(
            ConstraintRow(f"link_{k + 1}_{i + 1}",
                          ((1, x[i][k]), *((-1, v[i][m]) for m in levels)), "<=", 0)
            for i in range(num_i)
        )
        lhs = tuple((scores[j], x[j][k]) for j in available)
        pref.extend(
            ConstraintRow(f"pref_{k + 1}_{i + 1}",
                          lhs + tuple((-scores[i], v[i][m]) for m in levels), ">=", 0)
            for i in available
        )

    onep = [ConstraintRow(f"onep_{i + 1}", tuple((1, name) for name in v[i]), "<=", 1)
            for i in range(num_i)]
    return MilpModel(
        v_names=tuple(name for row in v for name in row),
        x_names=tuple(name for row in x for name in row),
        objective=tuple(objective),
        rows=(*onep, *onec, *link, *pref),
        fixed_zero=tuple(x[i][k] for i in range(num_i) for k in range(num_k)
                         if inst.preferences[k][i] is None),
    )


def variable_values(
    inst: Instance, grid: BudgetGrid, indices: Sequence[int], assignment: Assignment
) -> dict[str, int]:
    """0/1 values of every model variable encoding the given prices/purchases."""
    values = {_v_name(i, m): 1 for i, m in enumerate(indices)}
    values.update(
        (_x_name(i, k), 1) for k, i in enumerate(assignment.chosen) if i is not None
    )
    return values


def _render_terms(terms: Sequence[tuple[int, str]]) -> str:
    text = " ".join(f"{'-' if coef < 0 else '+'} {abs(coef)} {name}" for coef, name in terms)
    return text.removeprefix("+ ")


def export_single_level(inst: Instance, grid: BudgetGrid) -> str:
    """LP-format text of the single-level model, byte-stable per instance.

    The bilinear objective uses the LP quadratic convention: terms are listed
    inside ``[ ... ] / 2`` with doubled coefficients. Variables are ordered
    by (product, grid index) then (product, customer); rows by family.
    """
    model = build_single_level(inst, grid)
    lines = [
        f"\\ single-level rank pricing model: {inst.name or 'unnamed instance'}",
        f"\\ I={inst.num_products} products, K={inst.num_customers} customers, "
        f"M={grid.size} candidate prices",
        "\\ unavailable (customer, product) pairs: x fixed to 0 in Bounds,",
        "\\ matching pref row and objective terms omitted",
        "\\ link/pref rows sum price choices only over values within the",
        "\\ customer's budget, which encodes affordability",
        "Maximize",
        " obj: [",
    ]
    lines.extend(f"   + {2 * price} {v} * {x}" for price, v, x in model.objective)
    lines += ["   ] / 2", "Subject To"]
    lines.extend(f" {row.name}: {_render_terms(row.terms)} {row.sense} {row.rhs}"
                 for row in model.rows)
    if model.fixed_zero:
        lines.append("Bounds")
        lines.extend(f" {name} = 0" for name in model.fixed_zero)
    lines.append("Binaries")
    lines.extend(f" {name}" for name in model.v_names + model.x_names)
    lines.append("End")
    return "\n".join(lines) + "\n"


def write_lp(inst: Instance, grid: BudgetGrid, path) -> None:
    text = export_single_level(inst, grid)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputWriteError(f"cannot write {path}: {exc}") from exc
