"""Ground truth at the paper's 30x5 shape: reference optima and hit rates against them.

``data/reference_optima.json`` lists generated instances with their optima.
Each entry's ``command`` re-derives it: ``rankprice gen`` writes the instance
and ``rankprice exact`` enumerates its grid, printing the optimum and every
optimal price vector. Tier-1 re-derives every entry with ``brute_force``
and checks each entry's form.
"""

import json
import shlex
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
    assert len(names) == len(set(names)) == 5
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


def test_first_reference_optimum_is_rederived():
    entry = REFERENCE[0]
    inst = _instance(entry)
    optimum, optima = brute_force(inst, build_grid(inst))
    assert (optimum, len(optima)) == (entry["optimum"], entry["optimal_vectors"]) == (923, 1)


LATER_OPTIMA = {"30x5-seed2": (911, 2), "30x5-seed3": (1030, 1), "30x5-seed4": (794, 1),
                "30x5-seed5": (988, 1)}


@pytest.mark.parametrize("entry", REFERENCE[1:], ids=[entry["name"] for entry in REFERENCE[1:]])
def test_later_reference_optima_are_rederived(entry):
    inst = _instance(entry)
    optimum, optima = brute_force(inst, build_grid(inst))
    assert ((optimum, len(optima)) == (entry["optimum"], entry["optimal_vectors"])
            == LATER_OPTIMA[entry["name"]])


def test_brute_force_skips_most_pair_surfaces_at_the_paper_shape(monkeypatch):
    # Counts, not timings: a walk vector is skipped when its surface is never
    # requested (the carried cap is below the best) or comes back with every
    # row left out. The walk itself is unchanged.
    entry = REFERENCE[0]
    inst = _instance(entry)
    grid = build_grid(inst)
    surface, assign = rankprice.exact._pair_surface, rankprice.exact.assign
    assigns, requested = [], []

    def counting_surface(inst, grid):
        rows = surface(inst, grid)

        def counted(cur, a, floor=-1):
            out = rows(cur, a, floor)
            requested.append(all(row is None for row in out))
            return out
        return counted

    def counting_assign(*args):
        assigns.append(args)
        return assign(*args)

    monkeypatch.setattr(rankprice.exact, "_pair_surface", counting_surface)
    monkeypatch.setattr(rankprice.exact, "assign", counting_assign)
    optimum, optima = brute_force(inst, grid)
    assert (optimum, len(optima)) == (entry["optimum"], entry["optimal_vectors"])
    assert len(assigns) == grid.size ** (inst.num_products - 2) == 23**3
    assert len(requested) <= len(assigns)
    skipped = len(assigns) - len(requested) + sum(requested)
    assert skipped >= 0.95 * len(assigns)


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
