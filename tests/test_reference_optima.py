"""Ground truth at the paper's 30x5 shape and at 30x6-30x8: reference optima and hit rates.

``data/reference_optima.json`` lists generated instances with their optima.
Each entry's ``command`` re-derives it: ``rankprice gen`` writes the instance
and ``rankprice exact`` enumerates its grid, printing the optimum and every
optimal price vector; the 30x7 and 30x8 commands raise ``--cap`` above the
number of vectors they settle. Tier-1 checks each entry's form and
re-derives the 30x5 and 30x6 entries with ``brute_force``; the 30x7 and
30x8 ones take seconds each, so it leaves them to their commands.
"""

import json
import shlex
from math import prod
from pathlib import Path

import pytest

from rankprice import (
    SearchParams,
    StopRule,
    brute_force,
    build_grid,
    generate_instance,
    genetic_search,
    vns_search,
)
import helpers
import rankprice.exact
from rankprice.cli import build_parser

REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "reference_optima.json").read_text(encoding="utf-8")
)


def _instance(entry):
    gen = entry["generator"]
    return generate_instance(gen["num_products"], gen["num_customers"],
                             tuple(gen["budget_range"]), gen["availability_prob"], gen["seed"])


def test_reference_entries_are_well_formed():
    names = [entry["name"] for entry in REFERENCE]
    assert len(names) == len(set(names)) == 10
    assert set(names[1:]) == set(LATER_OPTIMA)
    for entry in REFERENCE:
        assert set(entry) == {"name", "generator", "optimum", "optimal_vectors", "status",
                              "command"}
        assert entry["status"] == "enumerated"
        inst = _instance(entry)
        assert 0 < entry["optimum"] <= sum(inst.budgets)
        assert type(entry["optimal_vectors"]) is int and entry["optimal_vectors"] >= 1
        # The command regenerates this entry's instance and solves the file it wrote.
        gen_part, exact_part = entry["command"].split(" && ")
        parser = build_parser()
        gen = parser.parse_args(shlex.split(gen_part)[1:])
        exact = parser.parse_args(shlex.split(exact_part)[1:])
        assert (gen.command, exact.command) == ("gen", "exact")
        generator = entry["generator"]
        assert (gen.products, gen.customers, [gen.budget_lo, gen.budget_hi], gen.avail,
                gen.seed) == (generator["num_products"], generator["num_customers"],
                              generator["budget_range"], generator["availability_prob"],
                              generator["seed"])
        assert exact.instance == gen.out
        # Its cap admits the vectors the solve settles: M^2 times the walked level counts.
        grid = build_grid(inst)
        assert grid.size ** 2 * prod(map(len, helpers.walk_levels(inst, grid))) <= exact.cap
        if entry["name"] in LATER_OPTIMA:
            assert (entry["optimum"], entry["optimal_vectors"]) == LATER_OPTIMA[entry["name"]]


def test_first_reference_optimum_is_rederived():
    entry = REFERENCE[0]
    inst = _instance(entry)
    optimum, optima = brute_force(inst, build_grid(inst))
    assert (optimum, len(optima)) == (entry["optimum"], entry["optimal_vectors"]) == (923, 1)


LATER_OPTIMA = {"30x5-seed2": (911, 2), "30x5-seed3": (1030, 1), "30x5-seed4": (794, 1),
                "30x5-seed5": (988, 1), "30x6-seed1": (980, 1), "30x6-seed2": (960, 1),
                "30x7-seed1": (1069, 1), "30x7-seed2": (1007, 1), "30x8-seed1": (1044, 2)}
# The later entries tier-1 re-derives: the 30x5 and 30x6 ones.
REDERIVED = [entry for entry in REFERENCE[1:] if entry["generator"]["num_products"] <= 6]


@pytest.mark.parametrize("entry", REDERIVED, ids=[entry["name"] for entry in REDERIVED])
def test_later_reference_optima_are_rederived(entry):
    inst = _instance(entry)
    optimum, optima = brute_force(inst, build_grid(inst))
    assert ((optimum, len(optima)) == (entry["optimum"], entry["optimal_vectors"])
            == LATER_OPTIMA[entry["name"]])


def test_brute_force_skips_most_pair_surfaces_at_the_paper_shape(monkeypatch):
    # Counts, not timings: a walk vector is skipped when its surface is never
    # requested (the carried cap is below the best) or comes back with every
    # row left out. The walk covers the level lists of products 2-4, of 16,
    # 15 and 12 levels: one full assign of its first vector, products 0 and 1
    # held at level M, then one step per further vector. The one assign after
    # it is the argmax expansion's.
    entry = REFERENCE[0]
    inst = _instance(entry)
    grid = build_grid(inst)
    surface = rankprice.exact._pair_surface
    assign, apply_move = rankprice.exact.assign, rankprice.exact.apply_move
    assigns, steps, requested = [], [], []

    def counting_surface(inst, grid, pair):
        rows = surface(inst, grid, pair)

        def counted(paid, chosen, revenue, floor=-1):
            out = rows(paid, chosen, revenue, floor)
            requested.append(all(row is None for row in out))
            return out
        return counted

    def counting_assign(*args):
        assigns.append(args)
        return assign(*args)

    def counting_step(*args):
        steps.append(args)
        return apply_move(*args)

    monkeypatch.setattr(rankprice.exact, "_pair_surface", counting_surface)
    monkeypatch.setattr(rankprice.exact, "assign", counting_assign)
    monkeypatch.setattr(rankprice.exact, "apply_move", counting_step)
    optimum, optima = brute_force(inst, grid)
    assert (optimum, len(optima)) == (entry["optimum"], entry["optimal_vectors"])
    walk = [args for args in assigns if list(args[2][:2]) == [grid.size] * 2] + steps
    assert len(walk) == 16 * 15 * 12 and len(assigns) == 2
    assert len(requested) <= len(walk)
    skipped = len(walk) - len(requested) + sum(requested)
    assert skipped >= 0.95 * len(walk)


def test_vns_and_genetic_hit_the_30x5_optimum():
    # The paper shape with its local searches, at a short budget: 3,000 points
    # of which 2,000 are refined by sfrc, seeds 0-9.
    entry = REFERENCE[0]
    inst = _instance(entry)
    grid = build_grid(inst)
    hits = {}
    for search, q in ((vns_search, 100), (genetic_search, 1000)):
        values = []
        for seed in range(10):
            p = SearchParams(l0=1000, q=q, t=500, stop=StopRule.point_budget(3000),
                             init="greedy", seed=seed)
            values.append(search(inst, grid, p, pipeline="sfrc").best_value)
        assert max(values) <= entry["optimum"]
        hits[search.__name__] = values.count(entry["optimum"])
    print(f"30x5 seed 1 hit rates: {hits}")
    assert min(hits.values()) >= 9
