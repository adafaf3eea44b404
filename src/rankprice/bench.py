"""Experiment orchestration: instance generation, repeated seeded runs, CSVs.

A benchmark executes one (method, init, pipeline, params) configuration many
times with consecutive seeds and aggregates the per-run best values into
distribution and evolution statistics. Runs are independent, so they can be
spread over worker processes; results are always merged in run-id order,
making the output independent of scheduling.

Three CSV files are written per experiment: ``summary.csv`` (one row per
run), ``trace.csv`` (one row per batch snapshot per run) and
``percentiles.csv`` (P5/P50/P95 of best-so-far per checkpoint). Each is
built in memory and written whole by ``model.write_text``, with every line
ending in a line feed. Each file starts with one ``#`` metadata line; that
line carries the only timestamp, so re-running a configuration with the
same base seed reproduces the remaining bytes exactly (elapsed columns
included, when a deterministic clock is injected).
"""

from __future__ import annotations

import csv
import io
import os
import random
from dataclasses import astuple, dataclass, fields, replace
from datetime import datetime, timezone
from itertools import repeat
from math import ceil
from pathlib import Path
from typing import Sequence

from .errors import InvalidRange, OutputWriteError
from .local_search import parse_pipeline
from .model import Instance, build_grid, load_instance, write_text
from .search import (
    GENETIC_Q,
    GREEDY,
    RANDOM,
    SearchParams,
    StopRule,
    TraceEntry,
    genetic_search,
    naive_search,
    vns_search,
)

METHODS = {"naive": naive_search, "vns": vns_search, "genetic": genetic_search}

SUMMARY_COLUMNS = (
    "run_id",
    "seed",
    "method",
    "init",
    "pipeline",
    "evals",
    "elapsed_ms",
    "best_value",
    "best_prices",
)
TRACE_COLUMNS = ("run_id", "evals", "elapsed_ms", "best_value")

# An empty preference row is redrawn; past this many draws for one row the
# availability is too low to give every customer a product.
_ROW_DRAWS = 10_000


def generate_instance(
    num_products: int,
    num_customers: int,
    budget_range: tuple[int, int],
    availability_prob: float,
    seed: int,
    name: str | None = None,
) -> Instance:
    """Random instance: uniform integer budgets, random per-customer rankings.

    Each product is available to a customer with ``availability_prob``
    (rows are redrawn until nonempty, at most ``_ROW_DRAWS`` times); the
    available products get distinct scores from a uniformly random
    permutation.
    """
    if num_products < 1 or num_customers < 1:
        raise InvalidRange(
            f"need at least one product and one customer, got I={num_products} K={num_customers}"
        )
    lo, hi = budget_range
    if not 1 <= lo <= hi:
        raise InvalidRange(f"budget range must satisfy 1 <= lo <= hi, got [{lo}, {hi}]")
    if not 0 < availability_prob <= 1:
        raise InvalidRange(f"availability must be in (0, 1], got {availability_prob}")
    rng = random.Random(seed)
    budgets = tuple(rng.randint(lo, hi) for _ in range(num_customers))
    preferences = []
    for _ in range(num_customers):
        for _ in range(_ROW_DRAWS):
            available = [i for i in range(num_products) if rng.random() < availability_prob]
            if available:
                break
        else:
            raise InvalidRange(
                f"availability {availability_prob} left a customer with no product"
                f" in {_ROW_DRAWS} draws"
            )
        rng.shuffle(available)
        row: list[int | None] = [None] * num_products
        for rank, i in enumerate(available):
            row[i] = rank + 1
        preferences.append(tuple(row))
    return Instance(
        name=name or f"gen-I{num_products}-K{num_customers}-seed{seed}",
        budgets=budgets,
        preferences=tuple(preferences),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark configuration, checked in full when it is built.

    ``params`` holds the search knobs shared by every run; ``run_params(j)``
    is the only place that makes run j's ``SearchParams``, with seed
    ``base_seed + j`` and this config's ``init``.
    """

    instance_path: str
    method: str
    init: str
    pipeline: str
    params: SearchParams
    runs: int
    base_seed: int
    out_dir: str | None

    def __post_init__(self):
        if not isinstance(self.params, SearchParams):
            raise InvalidRange(f"params must be a SearchParams, got {self.params!r}")
        for name in ("runs", "base_seed"):
            if type(getattr(self, name)) is not int:
                raise InvalidRange(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not isinstance(self.instance_path, (str, os.PathLike)):
            raise InvalidRange(f"instance_path must be a string, got {self.instance_path!r}")
        if not isinstance(self.out_dir, (str, os.PathLike, type(None))):
            raise InvalidRange(f"out_dir must be a string or null, got {self.out_dir!r}")
        if self.out_dir == "":
            raise InvalidRange("out_dir must not be empty; use null to write no CSVs")
        if not isinstance(self.pipeline, str):
            raise InvalidRange(f"pipeline must be a string, got {self.pipeline!r}")
        parse_pipeline(self.pipeline)
        if self.method not in METHODS:
            raise InvalidRange(f"unknown method {self.method!r}")
        # SearchParams checks the init that every run will use.
        self.run_params(0)
        if self.method == "naive" and self.init == GREEDY:
            raise InvalidRange("method naive draws every vector at random; init greedy is unused")
        if self.method == "genetic" and self.params.q < 2:
            raise InvalidRange(f"method genetic needs q >= 2 to pick two distinct parents,"
                               f" got q={self.params.q}; an omitted q is min({GENETIC_Q}, l0)")
        if self.runs < 1:
            raise InvalidRange("runs must be at least 1")

    def run_params(self, run_id: int) -> SearchParams:
        return replace(self.params, seed=self.base_seed + run_id, init=self.init)


@dataclass(frozen=True)
class RunSummary:
    """What run ``run_id`` produced; its settings are the config's (``run_params``)."""

    run_id: int
    best_value: int
    best_prices: tuple[int, ...]
    evaluations: int
    elapsed_ms: int
    ls_reverts: int


@dataclass(frozen=True)
class CheckpointStats:
    checkpoint: int
    evals: int
    elapsed_ms: int
    p5: int
    p50: int
    p95: int


def percentile(values: Sequence[float], q: float):
    """Nearest-rank percentile of a nonempty sample (q in (0, 100])."""
    if not values:
        raise InvalidRange("percentile of an empty sample")
    if not 0 < q <= 100:
        raise InvalidRange(f"percentile q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _run_one(
    inst: Instance,
    config: ExperimentConfig,
    run_id: int,
    clock=None,
) -> tuple[RunSummary, tuple[TraceEntry, ...]]:
    grid = build_grid(inst)
    search = METHODS[config.method]
    result = search(
        inst, grid, config.run_params(run_id), pipeline=config.pipeline, clock=clock
    )
    summary = RunSummary(
        run_id=run_id,
        best_value=result.best_value,
        best_prices=result.best_prices,
        evaluations=result.evaluations,
        elapsed_ms=int(round(result.elapsed * 1000)),
        ls_reverts=result.ls_stats.total_reverted,
    )
    return summary, result.trace


def evolution_stats(traces: Sequence[Sequence[TraceEntry]]) -> tuple[CheckpointStats, ...]:
    """P5/P50/P95 of best-so-far across runs at every batch checkpoint.

    Traces ending early (time-limited runs) are padded with their final
    entry; evals and elapsed per checkpoint are the medians across runs.
    """
    if not traces:
        raise InvalidRange("no traces to aggregate")
    depth = max(len(t) for t in traces)
    rows = []
    for c in range(depth):
        entries = [t[min(c, len(t) - 1)] for t in traces]
        values = [e.best for e in entries]
        rows.append(
            CheckpointStats(
                checkpoint=c,
                evals=percentile([e.evals for e in entries], 50),
                elapsed_ms=int(round(percentile([e.elapsed for e in entries], 50) * 1000)),
                p5=percentile(values, 5),
                p50=percentile(values, 50),
                p95=percentile(values, 95),
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class DistributionReport:
    count: int
    minimum: int
    q1: int
    median: int
    q3: int
    maximum: int
    hit_rate: float | None


def summarize(
    summaries: Sequence[RunSummary], reference: int | None = None
) -> DistributionReport:
    """Distribution of per-run best values, optionally against a reference.

    ``hit_rate`` is the fraction of runs whose best value reaches (or
    exceeds) the reference.
    """
    if not summaries:
        raise InvalidRange("summarize needs at least one run")
    if reference is not None and reference <= 0:
        raise InvalidRange(f"reference must be positive, got {reference}")
    values = [s.best_value for s in summaries]
    n = len(values)
    return DistributionReport(
        count=n,
        minimum=min(values),
        q1=percentile(values, 25),
        median=percentile(values, 50),
        q3=percentile(values, 75),
        maximum=max(values),
        hit_rate=None if reference is None else sum(v >= reference for v in values) / n,
    )


def _meta_line(config: ExperimentConfig) -> str:
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    # A line break in the path would end the metadata line and split the header.
    instance = " ".join(os.fspath(config.instance_path).splitlines())
    return (
        f"# rankprice bench method={config.method} init={config.init} "
        f"pipeline={config.pipeline or '-'} instance={instance} "
        f"runs={config.runs} base_seed={config.base_seed} generated={stamp}"
    )


def write_outputs(
    config: ExperimentConfig,
    summaries: Sequence[RunSummary],
    traces: Sequence[Sequence[TraceEntry]],
    checkpoints: Sequence[CheckpointStats],
) -> None:
    meta = _meta_line(config)
    tables = {
        "summary.csv": (SUMMARY_COLUMNS, (
            (s.run_id, config.run_params(s.run_id).seed, config.method, config.init,
             config.pipeline, s.evaluations, s.elapsed_ms, s.best_value,
             ",".join(map(str, s.best_prices)))
            for s in summaries
        )),
        "trace.csv": (TRACE_COLUMNS, (
            (s.run_id, e.evals, int(round(e.elapsed * 1000)), e.best)
            for s, trace in zip(summaries, traces)
            for e in trace
        )),
        "percentiles.csv": ([f.name for f in fields(CheckpointStats)], map(astuple, checkpoints)),
    }
    for name, (columns, rows) in tables.items():
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
        write_text(Path(config.out_dir) / name, f"{meta}\n{buffer.getvalue()}")


def run_experiment(
    config: ExperimentConfig, workers: int = 1, clock=None
) -> tuple[list[RunSummary], tuple[CheckpointStats, ...]]:
    """Execute all runs of a configuration and write the CSV outputs.

    The output directory is created before the first run, so a path that
    cannot be one fails before any search time is spent. ``workers`` > 1
    spreads runs over at most that many processes, capped at one per run and
    at the CPU count; when the cap leaves one, the runs go in-process. A
    custom ``clock`` is only meaningful in-process and therefore requires
    workers=1.
    """
    if workers < 1:
        raise InvalidRange(f"workers must be at least 1, got {workers}")
    if workers > 1 and clock is not None:
        raise InvalidRange("clock injection requires workers=1")
    inst = load_instance(config.instance_path)
    if config.out_dir is not None:
        try:
            Path(config.out_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise OutputWriteError(f"cannot create {config.out_dir}: {exc}") from exc
    run_ids = range(config.runs)
    size = min(workers, config.runs, os.cpu_count() or 1)
    if size > 1:
        # Imported here: it costs about 30 ms, and only a multi-process run needs it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=size) as pool:
            results = list(pool.map(_run_one, repeat(inst), repeat(config), run_ids))
    else:
        results = [_run_one(inst, config, run_id, clock=clock) for run_id in run_ids]
    summaries = [s for s, _ in results]
    traces = [t for _, t in results]
    checkpoints = evolution_stats(traces)
    if config.out_dir is not None:
        write_outputs(config, summaries, traces, checkpoints)
    return summaries, checkpoints


def _from_json(cls, raw, prepare=dict):
    """``cls(**prepare(raw))`` for a JSON object ``raw`` whose keys all name fields of ``cls``.

    Every malformed input, a missing or ill-typed value too, raises InvalidRange.
    """
    if not isinstance(raw, dict):
        raise InvalidRange(f"{cls.__name__} must be a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - {f.name for f in fields(cls)})
    if unknown:
        raise InvalidRange(f"unknown {cls.__name__} keys: {', '.join(unknown)}")
    try:
        return cls(**prepare(raw))
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidRange(f"invalid {cls.__name__}: {exc}") from None


def params_from_dict(raw: dict, method: str | None = None) -> SearchParams:
    """SearchParams from a JSON object; ``stop`` is a {kind, limit} object or null.

    An omitted ``q`` is ``min(default, l0)``: the default is ``GENETIC_Q`` for
    the genetic method and ``SearchParams.q`` for the others.
    """

    def prepare(data):
        stop = data.get("stop")
        data = {**data, "stop": SearchParams.stop if stop is None else _from_json(StopRule, stop)}
        l0 = data.get("l0", SearchParams.l0)
        # An ill-typed l0 keeps q unset, so SearchParams names l0 in its error.
        if "q" not in data and type(l0) is int:
            data["q"] = min(GENETIC_Q if method == "genetic" else SearchParams.q, l0)
        return data

    return _from_json(SearchParams, raw, prepare)


def config_from_dict(raw: dict, **overrides) -> ExperimentConfig:
    """ExperimentConfig from a JSON object; overrides that are not None win over its keys."""

    def prepare(data):
        data = {**data, **{k: v for k, v in overrides.items() if v is not None}}
        raw_params = data.get("params", {})
        params = params_from_dict(raw_params, data.get("method"))
        # run_params sets each run's seed and init, so these params keys would be ignored.
        for key, owner in (("seed", "base_seed"), ("init", "init")):
            if key in raw_params:
                raise InvalidRange(f"params.{key} is unused; set the top-level {owner}")
        defaults = {"init": RANDOM, "pipeline": "", "base_seed": 0, "out_dir": None}
        return {**defaults, **data, "params": params}

    return _from_json(ExperimentConfig, raw, prepare)
