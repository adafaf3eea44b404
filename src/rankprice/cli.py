"""Command-line entry point (``rankprice``)."""

from __future__ import annotations

import argparse
import os
import sys

from .bench import (
    METHODS,
    config_from_dict,
    generate_instance,
    run_experiment,
    summarize,
)
from .errors import InvalidRange, RankPriceError
from .evaluate import assign_prices
from .exact import DEFAULT_ENUMERATION_CAP, brute_force, export_single_level
from .model import build_grid, load_instance, read_json, save_instance, write_text
from .search import GENETIC_Q, GREEDY, RANDOM, SearchParams


def _add_solve_parser(sub):
    p = sub.add_parser("solve", help="run one seeded search on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", choices=tuple(METHODS), required=True)
    p.add_argument("--init", choices=(RANDOM, GREEDY))
    p.add_argument("--local-search", metavar="LETTERS",
                   help="pipeline letters: s=slack f=fill r=reassignment "
                        "c=conditional reassignment o=optimization-based")
    p.add_argument("--l0", type=int)
    p.add_argument("--q", type=int,
                   help=f"elite set size (default min({SearchParams.q}, l0),"
                        f" or min({GENETIC_Q}, l0) for genetic)")
    p.add_argument("--t", type=int)
    stop = p.add_mutually_exclusive_group()
    stop.add_argument("--max-points", type=int)
    stop.add_argument("--time-limit", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", metavar="DIR",
                   help="write summary/trace/percentiles CSVs here")
    p.set_defaults(run=_cmd_solve)


def _cmd_solve(args) -> int:
    # The same JSON-shaped config that bench reads. Every optional flag
    # defaults to None, and a flag left unset is omitted, so config_from_dict
    # applies the defaults.
    limits = {"points": args.max_points, "time": args.time_limit}
    stop = next(({"kind": k, "limit": v} for k, v in limits.items() if v is not None), None)
    # These flags are stored under their SearchParams field names.
    names = ("l0", "q", "t")
    given = {"stop": stop, **{name: getattr(args, name) for name in names}}
    params = {name: value for name, value in given.items() if value is not None}
    config = config_from_dict(
        {"instance_path": args.instance, "method": args.method, "params": params, "runs": 1},
        init=args.init,
        pipeline=args.local_search,
        base_seed=args.seed,
        out_dir=args.out,
    )
    summaries, _ = run_experiment(config)
    s = summaries[0]
    print(f"method: {config.method}  init: {config.init}  pipeline: {config.pipeline or '-'}  "
          f"seed: {config.base_seed}")
    print(f"best value: {s.best_value}")
    print(f"best prices: {','.join(map(str, s.best_prices))}")
    print(f"evaluations: {s.evaluations}  elapsed_ms: {s.elapsed_ms}  "
          f"local-search reverts: {s.ls_reverts}")
    if args.out:
        print(f"wrote summary.csv, trace.csv, percentiles.csv to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    if args.reference is not None and args.reference <= 0:
        raise InvalidRange(f"reference must be positive, got {args.reference}")
    config = config_from_dict(
        read_json(args.config, "config"),
        instance_path=args.instance,
        runs=args.runs,
        out_dir=args.out,
    )
    summaries, _ = run_experiment(config, workers=args.workers)
    report = summarize(summaries, reference=args.reference)
    print(f"runs: {report.count}")
    print(f"best value: min={report.minimum} q1={report.q1} median={report.median} "
          f"q3={report.q3} max={report.maximum}")
    if report.hit_rate is not None:
        print(f"hit rate vs {args.reference}: {report.hit_rate:.3f}  "
              f"ratios: min={report.minimum / args.reference:.4f} "
              f"median={report.median / args.reference:.4f} "
              f"max={report.maximum / args.reference:.4f}")
    if config.out_dir:
        print(f"wrote CSVs to {config.out_dir}")
    return 0


def _cmd_gen(args) -> int:
    inst = generate_instance(
        num_products=args.products,
        num_customers=args.customers,
        budget_range=(args.budget_lo, args.budget_hi),
        availability_prob=args.avail,
        seed=args.seed,
    )
    save_instance(inst, args.out)
    grid = build_grid(inst)
    print(f"wrote {args.out}: I={inst.num_products} K={inst.num_customers} M={grid.size}")
    return 0


def _cmd_exact(args) -> int:
    inst = load_instance(args.instance)
    grid = build_grid(inst)
    optimum, optima = brute_force(inst, grid, cap=args.cap)
    print(f"optimum: {optimum}")
    print(f"optimal price vectors ({len(optima)}):")
    for indices in optima:
        print("  " + ",".join(map(str, grid.prices_of(indices))))
    return 0


def _cmd_export_lp(args) -> int:
    inst = load_instance(args.instance)
    write_text(args.out, export_single_level(inst, build_grid(inst)))
    print(f"wrote {args.out}")
    return 0


def _cmd_eval(args) -> int:
    inst = load_instance(args.instance)
    grid = build_grid(inst)
    try:
        prices = tuple(int(part) for part in args.prices.split(","))
    except ValueError:
        raise InvalidRange(
            f"prices must be comma-separated integers, got {args.prices!r}"
        ) from None
    if len(prices) != inst.num_products:
        raise InvalidRange(
            f"expected {inst.num_products} prices, got {len(prices)}"
        )
    if min(prices) <= 0:
        raise InvalidRange(f"prices must be positive, got {args.prices!r}")
    a = assign_prices(inst, prices)
    off_grid = [p for p in prices if p not in grid.values]
    if off_grid:
        print(f"note: prices not on the budget grid: {off_grid}")
    for k, choice in enumerate(a.chosen):
        if choice is None:
            print(f"customer {k + 1}: buys nothing")
        else:
            print(f"customer {k + 1}: buys product {choice + 1} at {prices[choice]}")
    print(f"revenue: {a.revenue}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankprice",
        description="Heuristic and exact solvers for rank-based unit-demand pricing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_solve_parser(sub)

    p = sub.add_parser("bench", help="run a configuration many times and aggregate")
    p.add_argument("--instance", default=None)
    p.add_argument("--config", required=True, help="JSON experiment configuration")
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes, at most one per run and one per CPU")
    p.add_argument("--out", default=None, help="override the config's output directory")
    p.add_argument("--reference", type=int, default=None,
                   help="reference value for hit rates and ratios")
    p.set_defaults(run=_cmd_bench)

    p = sub.add_parser("gen", help="generate a random instance file")
    p.add_argument("--products", type=int, required=True)
    p.add_argument("--customers", type=int, required=True)
    p.add_argument("--budget-lo", type=int, required=True)
    p.add_argument("--budget-hi", type=int, required=True)
    p.add_argument("--avail", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_gen)

    p = sub.add_parser("exact", help="brute-force the optimum over the budget grid")
    p.add_argument("--instance", required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                   help="refuse to settle more price vectors than this: M^2 times the"
                        " level count of each product after the first two (default 1e8)")
    p.set_defaults(run=_cmd_exact)

    p = sub.add_parser("export-lp", help="write the single-level model in LP format")
    p.add_argument("--instance", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_export_lp)

    p = sub.add_parser("eval", help="evaluate one price vector on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--prices", required=True, metavar="V1,V2,...")
    p.set_defaults(run=_cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except RankPriceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout (say, `| head`). Point stdout at devnull so
        # the interpreter's last flush of it fails silently too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
