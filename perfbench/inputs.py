"""Workload specs and the inputs the benchmark gives the program.

Instances are generated from the fixed parameters in ``workloads.json``;
the workload seed given on the command line only picks the search seeds
and, for the exact workload, a relabelling of customers and products that
leaves the optimum unchanged. The same seed therefore always gives the same
inputs, and every seed is checked against the same recorded values.

Run as a script, this module times one cold set-up of a workload in a fresh
interpreter (import, generation, save/load round trip, rankings, grid) and prints
``{"setup_s": seconds}``; the benchmark starts it several times per run.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = HERE / "workloads.json"

# Search seeds of workload seed n are n * SEEDS_PER_WORKLOAD_SEED + j.
SEEDS_PER_WORKLOAD_SEED = 1000


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Prepared:
    """A workload's instances after the save/load round trip, with their grids."""

    paths: dict
    instances: dict
    grids: dict


def prepare(workload: dict, work_dir: Path) -> Prepared:
    """Generate, save, reload and grid every instance a workload uses."""
    from rankprice import bench, model  # here, so that the set-up probe times the import

    work_dir.mkdir(parents=True, exist_ok=True)
    paths, instances, grids = {}, {}, {}
    for role, gen in workload["instances"].items():
        inst = bench.generate_instance(
            gen["num_products"],
            gen["num_customers"],
            tuple(gen["budget_range"]),
            gen["availability"],
            gen["seed"],
        )
        path = work_dir / f"{role}.json"
        model.save_instance(inst, path)
        loaded = model.load_instance(path)
        loaded.preference_order  # the per-instance ranking every evaluation reads
        paths[role] = path
        instances[role] = loaded
        grids[role] = model.build_grid(loaded)
    return Prepared(paths=paths, instances=instances, grids=grids)


def relabel(inst, rng: random.Random):
    """The same instance with customers and products shuffled.

    Revenue is invariant under relabelling, so the optimum and the number of
    optimal vectors stay those recorded for the original instance.
    """
    from rankprice.model import validate_instance

    customers = list(range(inst.num_customers))
    products = list(range(inst.num_products))
    rng.shuffle(customers)
    rng.shuffle(products)
    return validate_instance(
        {
            "name": inst.name,
            "num_products": inst.num_products,
            "num_customers": inst.num_customers,
            "budgets": [inst.budgets[k] for k in customers],
            "preferences": [[inst.preferences[k][i] for i in products] for k in customers],
        }
    )


def _probe(argv) -> int:
    name, work_dir = argv[1], Path(argv[2])
    sys.path.insert(0, str(ROOT / "src"))
    prepare(load_spec()["workloads"][name], work_dir)
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))
    return 0


if __name__ == "__main__":
    sys.exit(_probe(sys.argv))
