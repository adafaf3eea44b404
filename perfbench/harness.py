"""The benchmark's workloads, their metrics and the traced run.

A search workload repeats one seeded run through ``run_experiment`` (the
path ``rankprice solve`` and ``rankprice bench`` take) followed by one LP
export of its instance, until the time is up. The exact workload repeats
one brute-force solve of a relabelled 30x5-shaped instance and one LP
export of a relabelled 60x50-shaped instance. The first ``CORE_RUNS``
units of every run are fixed by the seed alone: quality metrics, counts and
the fingerprint come from them, so they repeat exactly whatever the speed.

With tracing on, every unit runs twice, untraced and then traced, so that
the tracer's overhead is measured on identical work and its outputs can be
compared with the untraced ones.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from pathlib import Path

from rankprice import bench, exact, local_search, model, search
from rankprice.search import SearchParams, StopRule

import checks
import hostspeed
import inputs
from tracer import Tracer

SETUP_PROBES = 9
CORE_RUNS = 10

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "vectors_per_s": "1/s",
    "batch_ms_p50": "ms",
    "batch_ms_p90": "ms",
    "target_s_p50": "s",
    "best_p50": "revenue",
    "best_min": "revenue",
    "lp_export_s": "s",
    "peak_rss_mb": "MB",
}

LS_STEPS = {"s": "slack", "f": "fill", "r": "reassignment", "c": "conditional_reassignment"}
ASSIGN_CALLERS = {"search": search, "local_search": local_search, "exact": exact}
PROPOSAL_SPANS = (
    "search.random_price",
    "search.neighborhood",
    "search.Neighborhood.sample",
    "search.crossover",
    "search.mutate",
)

PER_LAYER = {
    "model.load_instance.ms": "ms",
    "model.build_grid.ms": "ms",
    "model.preference_order.ms": "ms",
    **{f"evaluate.assign.calls.{caller}": "count" for caller in ASSIGN_CALLERS},
    "evaluate.assign.us_per_call": "us",
    "evaluate.assign.self_frac": "ratio",
    "search.select_elites.us_per_call": "us",
    "search.select_elites.self_frac": "ratio",
    "search.propose.us_per_point": "us",
    "search.greedy_init.ms": "ms",
    "search.iterations": "count",
    **{
        f"local_search.{step}.{stat}": unit
        for step in LS_STEPS.values()
        for stat, unit in (("self_frac", "ratio"), ("us_per_call", "us"))
    },
    **{
        f"local_search.{letter}.{stat}": unit
        for letter in LS_STEPS
        for stat, unit in (("kept", "count"), ("reverted", "count"), ("keep_ratio", "ratio"))
    },
    "local_search.assign_per_point": "ratio",
    "exact.brute_force.us_per_vector": "us",
    "exact.build_single_level.ms": "ms",
    "exact.export_single_level.ms": "ms",
    "exact.lp_bytes": "count",
    "bench.run_experiment.overhead_ms": "ms",
    "bench.write_outputs.ms": "ms",
    "bench.evolution_stats.ms": "ms",
    "trace.overhead_frac": "ratio",
}


def probe_setup(name: str, work_dir: Path) -> float:
    """Cold set-up seconds of one fresh interpreter (see ``inputs.py``)."""
    proc = subprocess.run(
        [sys.executable, str(inputs.HERE / "inputs.py"), name, str(work_dir)],
        cwd=inputs.ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(json.loads(proc.stdout.splitlines()[-1])["setup_s"])


class Window:
    """The measured time of one run: host-speed factors and set-up probes.

    Every timed unit asks for a fresh host-speed factor (see ``hostspeed``).
    Set-up probes are spread evenly over the window, each scaled by a factor
    taken just before it, so that their median covers the whole window.
    """

    def __init__(self, seconds: float, probe=None, probes: int = 0):
        self.seconds = seconds
        self.probe = probe
        self.probes = probes
        self.factors: list[float] = []
        self.setup_s: list[float] = []
        self.start = time.perf_counter()
        self._take_due()

    def factor(self) -> float:
        f = hostspeed.factor()
        self.factors.append(f)
        return f

    def _take_due(self) -> None:
        elapsed = time.perf_counter() - self.start
        while len(self.setup_s) < min(self.probes, 1 + elapsed * self.probes / self.seconds):
            self._take_probe()

    def _take_probe(self) -> None:
        f = hostspeed.factor()
        self.setup_s.append(self.probe() * f)

    def over(self, units: int, min_units: int) -> bool:
        """After each unit: take the probes now due, and say whether the run ends."""
        self._take_due()
        if units < min_units or time.perf_counter() - self.start < self.seconds:
            return False
        while len(self.setup_s) < self.probes:
            self._take_probe()
        return True


class SlackCounter:
    """Slack calls that raised some price (kept) and that changed nothing."""

    def __init__(self):
        self.kept = 0
        self.noop = 0

    def wrap(self, func):
        def counted(inst, grid, indices, assignment):
            out = func(inst, grid, indices, assignment)
            if out[0] == tuple(indices):
                self.noop += 1
            else:
                self.kept += 1
            return out

        return counted


def install_spans(tracer: Tracer, slack_counter: SlackCounter) -> None:
    """Wrap the public functions of every layer at the attributes their callers read."""
    tracer.patch(local_search, "slack", slack_counter.wrap(local_search.slack))
    wraps = [
        (bench, "run_experiment", "bench.run_experiment"),
        (bench, "write_outputs", "bench.write_outputs"),
        (bench, "evolution_stats", "bench.evolution_stats"),
        (bench, "load_instance", "model.load_instance"),
        (bench, "build_grid", "model.build_grid"),
        (model, "load_instance", "model.load_instance"),
        (model, "build_grid", "model.build_grid"),
        (search, "select_elites", "search.select_elites"),
        (search, "greedy_init", "search.greedy_init"),
        (search, "random_price", "search.random_price"),
        (search, "neighborhood", "search.neighborhood"),
        (search.Neighborhood, "sample", "search.Neighborhood.sample"),
        (search, "crossover", "search.crossover"),
        (search, "mutate", "search.mutate"),
        (search, "run_pipeline", "local_search.run_pipeline"),
        (exact, "brute_force", "exact.brute_force"),
        (exact, "build_single_level", "exact.build_single_level"),
        (exact, "export_single_level", "exact.export_single_level"),
    ]
    wraps += [(bench.METHODS, method, "search.run") for method in bench.METHODS]
    wraps += [(local_search, step, f"local_search.{step}") for step in LS_STEPS.values()]
    wraps += [(mod, "assign", f"evaluate.assign@{caller}") for caller, mod in ASSIGN_CALLERS.items()]
    for owner, attr, name in wraps:
        tracer.wrap(owner, attr, name)
    ranking = model.Instance.__dict__["preference_order"]
    traced_ranking = cached_property(tracer.traced(ranking.func, "model.preference_order"))
    traced_ranking.__set_name__(model.Instance, "preference_order")
    tracer.patch(model.Instance, "preference_order", traced_ranking)


@dataclass
class Measured:
    """What one benchmark run hands to the report."""

    metrics: dict
    tally: checks.Tally
    fingerprint: str
    notes: list[str] = field(default_factory=list)


@dataclass
class TraceBook:
    """The traced half of a run: spans, counters, and paired wall times."""

    tracer: Tracer = field(default_factory=Tracer)
    slack: SlackCounter = field(default_factory=SlackCounter)
    untraced_s: float = 0.0
    traced_s: float = 0.0
    core_end: int = 0
    core_slack: tuple[int, int] = (0, 0)

    def run(self, func, *args):
        install_spans(self.tracer, self.slack)
        try:
            return func(*args)
        finally:
            self.tracer.restore()

    def close_core(self) -> None:
        self.core_end = len(self.tracer)
        self.core_slack = (self.slack.kept, self.slack.noop)


def layer_metrics(book: TraceBook, core_results, refined_points: int,
                  brute_vectors: int, lp_bytes: int) -> dict:
    """Every per-layer metric from the traced spans and the program's own counts."""
    tracer = book.tracer
    every = tracer.totals()
    core = tracer.totals(0, book.core_end)
    wall = tracer.root_seconds()

    def total(names, table=every, attr="total_s"):
        return sum(getattr(table[n], attr) for n in names if n in table)

    def calls(names, table=every):
        return sum(table[n].calls for n in names if n in table)

    def per_call_us(names):
        n = calls(names)
        return total(names) / n * 1e6 if n else 0.0

    def per_call_ms(name, attr="total_s"):
        n = calls([name])
        return total([name], attr=attr) / n * 1e3 if n else 0.0

    def self_frac(names):
        return total(names, attr="self_s") / wall if wall else 0.0

    assign_spans = [f"evaluate.assign@{caller}" for caller in ASSIGN_CALLERS]
    points = calls(["evaluate.assign@search"])
    out = {
        "model.load_instance.ms": per_call_ms("model.load_instance"),
        "model.build_grid.ms": per_call_ms("model.build_grid"),
        "model.preference_order.ms": per_call_ms("model.preference_order"),
        **{f"evaluate.assign.calls.{c}": calls([f"evaluate.assign@{c}"], core) for c in ASSIGN_CALLERS},
        "evaluate.assign.us_per_call": per_call_us(assign_spans),
        "evaluate.assign.self_frac": self_frac(assign_spans),
        "search.select_elites.us_per_call": per_call_us(["search.select_elites"]),
        "search.select_elites.self_frac": self_frac(["search.select_elites"]),
        "search.propose.us_per_point": total(PROPOSAL_SPANS) / points * 1e6 if points else 0.0,
        "search.greedy_init.ms": per_call_ms("search.greedy_init", "self_s"),
        "search.iterations": sum(r.iterations for r in core_results),
    }
    for step in LS_STEPS.values():
        out[f"local_search.{step}.self_frac"] = self_frac([f"local_search.{step}"])
        out[f"local_search.{step}.us_per_call"] = per_call_us([f"local_search.{step}"])
    for letter in LS_STEPS:
        if letter == "s":
            kept, reverted = book.core_slack
        else:
            kept = sum(r.ls_stats.kept.get(letter, 0) for r in core_results)
            reverted = sum(r.ls_stats.reverted.get(letter, 0) for r in core_results)
        out[f"local_search.{letter}.kept"] = kept
        out[f"local_search.{letter}.reverted"] = reverted
        out[f"local_search.{letter}.keep_ratio"] = kept / (kept + reverted) if kept + reverted else 0.0
    run_exp = every.get("bench.run_experiment")
    out.update({
        "local_search.assign_per_point":
            out["evaluate.assign.calls.local_search"] / refined_points if refined_points else 0.0,
        "exact.brute_force.us_per_vector":
            total(["exact.brute_force"]) / brute_vectors * 1e6 if brute_vectors else 0.0,
        "exact.build_single_level.ms": per_call_ms("exact.build_single_level"),
        "exact.export_single_level.ms": per_call_ms("exact.export_single_level"),
        "exact.lp_bytes": lp_bytes,
        "bench.run_experiment.overhead_ms":
            (run_exp.total_s - total(["search.run"])) / run_exp.calls * 1e3 if run_exp else 0.0,
        "bench.write_outputs.ms": per_call_ms("bench.write_outputs"),
        "bench.evolution_stats.ms": per_call_ms("bench.evolution_stats"),
        "trace.overhead_frac": book.traced_s / book.untraced_s - 1.0 if book.untraced_s else 0.0,
    })
    return out


# --- search workloads -------------------------------------------------------


def run_once(config: bench.ExperimentConfig):
    """One ``run_experiment`` call; returns its summary, the search result and wall time."""
    captured = []
    search_fn = bench.METHODS[config.method]

    def capture(*args, **kwargs):
        result = search_fn(*args, **kwargs)
        captured.append(result)
        return result

    bench.METHODS[config.method] = capture
    try:
        t0 = time.perf_counter()
        summaries, _ = bench.run_experiment(config)
        wall = time.perf_counter() - t0
    finally:
        bench.METHODS[config.method] = search_fn
    return summaries[0], captured[0], wall


def run_search(wl: dict, prepared, seed: int, window: Window,
               book: TraceBook | None, work_dir: Path) -> Measured:
    s = wl["search"]
    inst, grid = prepared.instances["main"], prepared.grids["main"]
    params = SearchParams(l0=s["l0"], q=s["q"], t=s["t"], stop=StopRule.point_budget(s["points"]))
    tally = checks.Tally()
    records, core_results, lp_digests = [], [], set()
    rates, vector_rates, batches_ms, target_s, core_best, lp_s = [], [], [], [], [], []

    def unit(config, label):
        """One checked run through ``run_experiment``, then one LP export."""
        try:
            summary, result, wall = run_once(config)
            t0 = time.perf_counter()
            text = exact.export_single_level(inst, grid)
            export_s = time.perf_counter() - t0
        except Exception as exc:  # a crashing unit is counted, the benchmark goes on
            tally.record(label, [f"raised {exc!r}"])
            return None
        problems = checks.check_search_run(
            inst, grid, result, summary.best_value, s["points"], wl["target"]
        )
        problems += checks.check_lp(text, wl["lp_shape"])
        lp_digests.add(checks.lp_digest(text))
        if len(lp_digests) > 1:
            problems.append("LP text differs between exports of one instance")
        tally.record(label, problems)
        record = {**checks.search_record(result), "lp_sha256": checks.lp_digest(text)}
        return result, record, wall, export_s, len(text.encode())

    lp_bytes = 0
    for j in count():
        config = bench.ExperimentConfig(
            instance_path=str(prepared.paths["main"]),
            method=s["method"],
            init=s["init"],
            pipeline=s["pipeline"],
            params=params,
            runs=1,
            base_seed=seed * inputs.SEEDS_PER_WORKLOAD_SEED + j,
            out_dir=str(work_dir / "runs"),
        )
        f = window.factor()
        done = unit(config, f"run {j}")
        if done is not None:
            result, record, wall, export_s, lp_bytes = done
            rates.append(result.evaluations / (wall * f))
            vector_rates.append((result.evaluations + result.ls_stats.assign_calls) / (wall * f))
            elapsed = [e.elapsed for e in result.trace]
            batches_ms.extend((b - a) * f * 1e3 for a, b in zip(elapsed, elapsed[1:]))
            reached = checks.target_reached_at(result.trace, wl["target"])
            if reached is not None:
                target_s.append(reached * f)
            lp_s.append(export_s * f)
            if j < CORE_RUNS:
                records.append(record)
                core_best.append(result.best_value)
        if book is not None:
            mark = len(book.tracer)
            traced = book.run(unit, config, f"traced run {j}")
            if traced is not None and done is not None:
                t_result, t_record, t_wall, t_export_s, _ = traced
                book.untraced_s += wall + export_s
                book.traced_s += t_wall + t_export_s
                spans = book.tracer.count("evaluate.assign@local_search", mark)
                problems = []
                if spans != t_result.ls_stats.assign_calls:
                    problems.append(
                        f"tracer saw {spans} local-search assign calls, "
                        f"LocalSearchStats counted {t_result.ls_stats.assign_calls}"
                    )
                if t_record != record:
                    problems.append("traced run differs from the untraced run")
                tally.record(f"trace check {j}", problems)
                if j < CORE_RUNS:
                    core_results.append(t_result)
            if j + 1 == CORE_RUNS:
                book.close_core()
        if window.over(j + 1, CORE_RUNS):
            break

    notes = [
        f"{len(rates)} runs ({CORE_RUNS} core) each followed by one LP export,"
        f" {len(batches_ms)} batches of {s['t']} points, {len(target_s)} target times"
    ]
    if book is not None:
        refined = sum(r.evaluations - s["l0"] for r in core_results) if s["pipeline"] else 0
        metrics = layer_metrics(book, core_results, refined, 0, lp_bytes)
    else:
        metrics = {
            "points_per_s": statistics.median(rates),
            "vectors_per_s": statistics.median(vector_rates),
            "batch_ms_p50": bench.percentile(batches_ms, 50),
            "batch_ms_p90": bench.percentile(batches_ms, 90),
            "target_s_p50": statistics.median(target_s),
            "best_p50": bench.percentile(core_best, 50),
            "best_min": min(core_best),
            "lp_export_s": statistics.median(lp_s),
        }
    return Measured(metrics, tally, checks.fingerprint(records), notes)


# --- exact workload ---------------------------------------------------------


def run_exact(wl: dict, prepared, seed: int, window: Window,
              book: TraceBook | None, work_dir: Path) -> Measured:
    small, big = prepared.instances["enumerated"], prepared.instances["exported"]
    grid, big_grid = prepared.grids["enumerated"], prepared.grids["exported"]
    vectors = grid.size**small.num_products
    tally = checks.Tally()
    records, solve_s, lp_s = [], [], []
    brute_vectors, lp_bytes = 0, 0

    def one(inst, lp_inst):
        t0 = time.perf_counter()
        optimum, argmax = exact.brute_force(inst, grid)
        t1 = time.perf_counter()
        text = exact.export_single_level(lp_inst, big_grid)
        t2 = time.perf_counter()
        return optimum, argmax, text, t1 - t0, t2 - t1

    for j in count():
        rng = random.Random(seed * inputs.SEEDS_PER_WORKLOAD_SEED + j)
        inst, lp_inst = inputs.relabel(small, rng), inputs.relabel(big, rng)
        f = window.factor()
        try:
            optimum, argmax, text, dt_solve, dt_lp = one(inst, lp_inst)
        except Exception as exc:  # a crashing solve is counted, the benchmark goes on
            tally.record(f"solve {j}", [f"raised {exc!r}"])
            optimum = None
        if optimum is not None:
            tally.record(f"solve {j}", checks.check_exact(
                inst, grid, optimum, argmax, wl["optimum"], wl["optimal_vectors"]
            ) + checks.check_lp(text, wl["lp_shape"]))
            solve_s.append(dt_solve * f)
            lp_s.append(dt_lp * f)
            if j < CORE_RUNS:
                records.append(checks.exact_record(optimum, argmax, text))
        if book is not None:
            try:
                t_opt, t_argmax, t_text, t_solve, t_lp = book.run(one, inst, lp_inst)
            except Exception as exc:
                tally.record(f"traced solve {j}", [f"raised {exc!r}"])
            else:
                same = optimum is not None and (
                    checks.exact_record(t_opt, t_argmax, t_text)
                    == checks.exact_record(optimum, argmax, text)
                )
                tally.record(f"traced solve {j}", [] if same else ["traced solve differs"])
                if optimum is not None:
                    book.untraced_s += dt_solve + dt_lp
                    book.traced_s += t_solve + t_lp
                brute_vectors += vectors
                lp_bytes = lp_bytes or len(t_text.encode())
            if j + 1 == CORE_RUNS:
                book.close_core()
        if window.over(j + 1, CORE_RUNS):
            break

    notes = [f"{len(solve_s)} solves of {vectors} vectors ({CORE_RUNS} core), {len(lp_s)} LP exports"]
    if book is not None:
        metrics = layer_metrics(book, [], 0, brute_vectors, lp_bytes)
    else:
        rates = [vectors / t for t in solve_s]
        metrics = {
            "points_per_s": statistics.median(rates),
            "vectors_per_s": statistics.median(rates),
            "batch_ms_p50": bench.percentile(solve_s, 50) * 1e3,
            "batch_ms_p90": bench.percentile(solve_s, 90) * 1e3,
            "target_s_p50": statistics.median(solve_s),
            "best_p50": bench.percentile([r["optimum"] for r in records], 50),
            "best_min": min(r["optimum"] for r in records),
            "lp_export_s": statistics.median(lp_s),
        }
    return Measured(metrics, tally, checks.fingerprint(records), notes)


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_root: Path) -> Measured:
    wl = inputs.load_spec()["workloads"][name]
    work_dir = work_root / name
    book = TraceBook() if trace else None
    prepared = book.run(inputs.prepare, wl, work_dir) if book else inputs.prepare(wl, work_dir)
    if book is not None:
        window = Window(seconds)
    else:
        window = Window(seconds, lambda: probe_setup(name, work_dir / "setup"), SETUP_PROBES)
    runner = run_exact if wl["kind"] == "exact" else run_search
    measured = runner(wl, prepared, seed, window, book, work_dir)
    host = statistics.median(window.factors)
    measured.notes.append(
        f"times are scaled by the host-speed factor, median {host:.4f} over {len(window.factors)}"
        f" units (reference kernel nominal {hostspeed.NOMINAL_KERNEL_S * 1e3:g} ms)"
    )
    if book is not None:
        for name, unit in PER_LAYER.items():
            if unit in ("us", "ms"):
                measured.metrics[name] *= host
        book.tracer.write(work_dir / "spans.tsv.gz")
        measured.notes.append(f"{len(book.tracer)} unscaled spans written to {work_dir / 'spans.tsv.gz'}")
    else:
        measured.metrics["setup_s"] = statistics.median(window.setup_s)
        measured.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        measured.notes.append(
            f"setup_s is the median of {len(window.setup_s)} fresh-process set-ups spread over the run"
        )
    return measured
