import csv
import hashlib
import itertools
import os
import random
from dataclasses import replace

import numpy as np
import pytest

import rankprice.bench
from rankprice import (
    EmptyInput,
    ExperimentConfig,
    InvalidRange,
    OutputWriteError,
    RankPriceError,
    SearchParams,
    StopRule,
    TraceEntry,
    assign_prices,
    evolution_stats,
    generate_instance,
    percentile,
    run_experiment,
    save_instance,
    summarize,
)
from rankprice.bench import SUMMARY_COLUMNS, TRACE_COLUMNS, config_from_dict, params_from_dict


def counting_clock():
    ticks = itertools.count()
    return lambda: next(ticks) * 0.001


# ------------------------------------------------------------- generation


def test_generate_instance_bounds_and_validity():
    inst = generate_instance(2, 8, (18, 66), 1.0, seed=5)
    assert inst.num_products == 2 and inst.num_customers == 8
    assert all(18 <= b <= 66 for b in inst.budgets)
    assert all(None not in row for row in inst.preferences)
    # rows carry distinct positive ranks
    for row in inst.preferences:
        scores = [s for s in row if s is not None]
        assert len(set(scores)) == len(scores)


def test_generate_instance_partial_availability_rows_nonempty():
    inst = generate_instance(3, 20, (5, 9), 0.3, seed=11)
    assert all(any(s is not None for s in row) for row in inst.preferences)


def test_generate_instance_deterministic(tmp_path):
    a = generate_instance(3, 6, (10, 20), 0.8, seed=42)
    b = generate_instance(3, 6, (10, 20), 0.8, seed=42)
    assert a == b
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_instance(a, pa)
    save_instance(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_generate_instance_rejects_bad_ranges():
    with pytest.raises(InvalidRange):
        generate_instance(2, 4, (0, 10), 1.0, seed=0)
    with pytest.raises(InvalidRange):
        generate_instance(2, 4, (10, 5), 1.0, seed=0)
    with pytest.raises(InvalidRange):
        generate_instance(2, 4, (5, 10), 0.0, seed=0)
    with pytest.raises(InvalidRange):
        generate_instance(2, 4, (5, 10), 1.5, seed=0)
    # a row that can only come out empty ends the redraws with an error
    with pytest.raises(InvalidRange, match="no product"):
        generate_instance(1, 1, (18, 66), 1e-12, seed=3)


@pytest.mark.parametrize("num_products, num_customers", [(0, 4), (2, 0), (0, 0)])
def test_generate_instance_rejects_empty_dimensions(num_products, num_customers):
    # an empty product set used to redraw empty preference rows forever
    with pytest.raises(InvalidRange):
        generate_instance(num_products, num_customers, (5, 10), 1.0, seed=0)


# ------------------------------------------------------------ percentiles


def test_percentile_nearest_rank_matches_numpy():
    rng = random.Random(8)
    for _ in range(50):
        values = [rng.randrange(1000) for _ in range(rng.randint(1, 60))]
        for q in (5, 25, 50, 75, 95):
            ours = percentile(values, q)
            ref = np.percentile(values, q, method="inverted_cdf")
            assert ours == ref


def test_percentile_empty_raises():
    with pytest.raises(EmptyInput):
        percentile([], 50)


@pytest.mark.parametrize("q", [150, 100.5, 0, -5, float("nan")])
def test_percentile_q_out_of_range_raises(q):
    with pytest.raises(InvalidRange, match="q must be in"):
        percentile([1, 2, 3], q)


def _summary(value, run_id=0):
    from rankprice import RunSummary

    return RunSummary(
        run_id=run_id, best_value=value, best_prices=(1,), evaluations=10, elapsed_ms=1,
        ls_reverts=0,
    )


def test_summarize_identical_values():
    report = summarize([_summary(807, j) for j in range(100)])
    assert (report.minimum, report.q1, report.median, report.q3, report.maximum) == (
        807, 807, 807, 807, 807,
    )
    assert report.variance == 0.0


def test_summarize_matches_sorted_order_statistics():
    rng = random.Random(77)
    values = [rng.randrange(500, 900) for _ in range(31)]
    report = summarize([_summary(v, j) for j, v in enumerate(values)])
    ordered = sorted(values)
    assert report.minimum == ordered[0]
    assert report.maximum == ordered[-1]
    import math

    assert report.q1 == ordered[math.ceil(0.25 * len(ordered)) - 1]
    assert report.median == ordered[math.ceil(0.50 * len(ordered)) - 1]
    assert report.q3 == ordered[math.ceil(0.75 * len(ordered)) - 1]


def test_summarize_reference_ratios():
    report = summarize([_summary(v, j) for j, v in enumerate([800, 807, 790])], reference=807)
    assert report.hit_rate == pytest.approx(1 / 3)
    assert report.ratio_min == pytest.approx(790 / 807)
    assert report.ratio_max == pytest.approx(1.0)


def test_summarize_empty_raises():
    with pytest.raises(EmptyInput):
        summarize([])


@pytest.mark.parametrize("reference", [0, -5])
def test_summarize_rejects_non_positive_reference(reference):
    with pytest.raises(InvalidRange):
        summarize([_summary(807)], reference=reference)


def test_evolution_stats_orders_and_pads():
    t1 = [TraceEntry(10, 0.1, 5), TraceEntry(20, 0.2, 8), TraceEntry(30, 0.3, 9)]
    t2 = [TraceEntry(10, 0.1, 7)]  # stopped early; padded with its last entry
    checkpoints = evolution_stats([t1, t2])
    assert len(checkpoints) == 3
    for c in checkpoints:
        assert c.p5 <= c.p50 <= c.p95
    p50_series = [c.p50 for c in checkpoints]
    assert p50_series == sorted(p50_series)
    assert checkpoints[2].p95 == 9
    assert checkpoints[2].p5 == 7


def test_evolution_stats_empty_raises():
    with pytest.raises(EmptyInput):
        evolution_stats([])


# ------------------------------------------------------------ experiments


@pytest.fixture
def table1_path(tmp_path, table1):
    path = tmp_path / "table1.json"
    save_instance(table1, path)
    return path


def make_config(table1_path, out_dir, runs=5, method="vns", **params_kw):
    params_kw.setdefault("l0", 20)
    params_kw.setdefault("q", 5)
    params_kw.setdefault("t", 10)
    params_kw.setdefault("stop", StopRule.point_budget(100))
    return ExperimentConfig(
        instance_path=str(table1_path),
        method=method,
        init="greedy",
        pipeline="sfrc",
        params=SearchParams(**params_kw),
        runs=runs,
        base_seed=7,
        out_dir=str(out_dir) if out_dir is not None else None,
    )


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("#")
    return list(csv.DictReader(lines[1:]))


def test_run_experiment_writes_csvs(table1, table1_path, tmp_path):
    out = tmp_path / "out"
    config = make_config(table1_path, out)
    summaries, checkpoints = run_experiment(config, clock=counting_clock())
    assert len(summaries) == 5
    rows = read_csv(out / "summary.csv")
    assert len(rows) == 5
    assert list(rows[0]) == ["run_id", "seed", "method", "init", "pipeline",
                             "evals", "elapsed_ms", "best_value", "best_prices"]
    for row, summary in zip(rows, summaries):
        assert int(row["best_value"]) == summary.best_value
        prices = tuple(int(p) for p in row["best_prices"].split(","))
        # reported prices re-evaluate to the reported value
        assert assign_prices(table1, prices).revenue == summary.best_value
        assert int(row["seed"]) == 7 + int(row["run_id"])

    trace_rows = read_csv(out / "trace.csv")
    assert {int(r["run_id"]) for r in trace_rows} == set(range(5))
    # each run's summary value equals its final trace entry
    finals = {}
    for row in trace_rows:
        finals[int(row["run_id"])] = int(row["best_value"])
    for summary in summaries:
        assert finals[summary.run_id] == summary.best_value

    pct_rows = read_csv(out / "percentiles.csv")
    assert len(pct_rows) == len(checkpoints)
    for row in pct_rows:
        assert int(row["p5"]) <= int(row["p50"]) <= int(row["p95"])
    for column in ("p5", "p50", "p95"):
        series = [int(row[column]) for row in pct_rows]
        assert series == sorted(series)


def test_bad_output_directory_fails_before_any_run(table1_path, tmp_path, monkeypatch):
    calls = []
    search = rankprice.bench.METHODS["vns"]
    monkeypatch.setitem(rankprice.bench.METHODS, "vns",
                        lambda *args, **kw: calls.append(None) or search(*args, **kw))
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(OutputWriteError, match="cannot create"):
        run_experiment(make_config(table1_path, blocker / "out"))
    assert calls == []


def test_run_experiment_single_run_percentiles_collapse(table1_path, tmp_path):
    config = make_config(table1_path, tmp_path / "one", runs=1)
    _, checkpoints = run_experiment(config)
    for c in checkpoints:
        assert c.p5 == c.p50 == c.p95


def test_rerun_reproduces_csv_bytes(table1_path, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_experiment(make_config(table1_path, out_a), clock=counting_clock())
    run_experiment(make_config(table1_path, out_b), clock=counting_clock())
    for name in ("summary.csv", "trace.csv", "percentiles.csv"):
        body_a = [l for l in (out_a / name).read_text().splitlines() if not l.startswith("#")]
        body_b = [l for l in (out_b / name).read_text().splitlines() if not l.startswith("#")]
        assert body_a == body_b


# SHA-256 of the three CSVs of a seeded 3-run experiment, each without its
# ``#`` line, recorded before the CSVs were written through ``write_text``;
# the rows written then ended in "\r\n", which the recording turned into "\n".
CSV_BYTES_DIGEST = "81753e36365a3e7ed1efe1bccac6468c5993a5d5d409b49d961ab0fccfa09a25"


def test_csv_bytes_are_pinned(table1_path, tmp_path):
    out = tmp_path / "out"
    config = make_config(table1_path, out, runs=3, l0=10, q=3, t=5,
                         stop=StopRule.point_budget(40))
    run_experiment(config, clock=counting_clock())
    digest = hashlib.sha256()
    for name in ("summary.csv", "trace.csv", "percentiles.csv"):
        data = (out / name).read_bytes()
        assert b"\r" not in data
        meta, body = data.split(b"\n", 1)
        assert meta.startswith(b"# rankprice bench ")
        digest.update(body)
    assert digest.hexdigest() == CSV_BYTES_DIGEST


def test_line_break_in_instance_path_keeps_the_header_on_line_2(table1, tmp_path):
    # The instance path goes into each file's `#` line; a raw line break
    # there would start a second line above the column header.
    path = tmp_path / "in\nst.json"
    save_instance(table1, path)
    out = tmp_path / "out"
    run_experiment(replace(make_config(path, out, runs=1), instance_path=path))
    headers = {
        "summary.csv": SUMMARY_COLUMNS,
        "trace.csv": TRACE_COLUMNS,
        "percentiles.csv": ("checkpoint", "evals", "elapsed_ms", "p5", "p50", "p95"),
    }
    for name, columns in headers.items():
        lines = (out / name).read_text().splitlines()
        assert [n for n, line in enumerate(lines) if line.startswith("#")] == [0]
        assert lines[1] == ",".join(columns)


def test_workers_do_not_change_results(table1_path, tmp_path):
    config = make_config(table1_path, None, runs=4)
    seq, _ = run_experiment(config, workers=1)
    par, _ = run_experiment(config, workers=2)
    strip = lambda s: (s.run_id, s.best_value, s.best_prices, s.evaluations)
    assert [strip(s) for s in seq] == [strip(s) for s in par]


@pytest.mark.parametrize("workers", [0, -2])
def test_run_experiment_rejects_non_positive_workers(table1_path, workers):
    with pytest.raises(InvalidRange, match="workers"):
        run_experiment(make_config(table1_path, None, runs=1), workers=workers)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Pool sizes ``run_experiment`` asks for; its runs go in-process, so no process starts."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(rankprice.bench, "ProcessPoolExecutor", InProcessPool)
    return sizes


def test_worker_pool_is_capped_at_runs(table1_path, monkeypatch, pool_sizes):
    # A process pool forks all its workers at once, so more workers than
    # runs would start processes with nothing to do.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    summaries, _ = run_experiment(make_config(table1_path, None, runs=3), workers=6)
    assert pool_sizes == [3]
    assert [s.run_id for s in summaries] == [0, 1, 2]


@pytest.mark.parametrize("cpus, size", [(2, 2), (None, 1)])
def test_worker_pool_is_capped_at_cpu_count(table1_path, monkeypatch, pool_sizes, cpus, size):
    # More worker processes than CPUs only contend for them; os.cpu_count()
    # may also be None, which counts as one CPU.
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    config = make_config(table1_path, None, runs=3)
    pooled, _ = run_experiment(config, workers=6)
    assert pool_sizes == [size]
    alone, _ = run_experiment(config, workers=1)
    untimed = lambda summaries: [replace(s, elapsed_ms=0) for s in summaries]
    assert untimed(pooled) == untimed(alone)


def test_clock_injection_requires_one_worker(table1_path, pool_sizes):
    with pytest.raises(RankPriceError, match="clock injection requires workers=1"):
        run_experiment(make_config(table1_path, None, runs=2), workers=2, clock=counting_clock())
    assert pool_sizes == []


def test_unwritable_csv_raises_output_write_error(table1_path, tmp_path):
    out = tmp_path / "out"
    (out / "summary.csv").mkdir(parents=True)
    with pytest.raises(OutputWriteError, match="cannot write .*summary.csv"):
        run_experiment(make_config(table1_path, out, runs=1))


def test_table1_vns_sfrc_experiment_always_optimal(table1_path, tmp_path):
    config = make_config(
        table1_path, None, runs=100, l0=50, q=10, t=25,
        stop=StopRule.point_budget(500),
    )
    summaries, _ = run_experiment(config)
    assert all(s.best_value == 236 for s in summaries)


def test_config_round_trip(table1_path):
    raw = {
        "instance_path": str(table1_path),
        "method": "genetic",
        "init": "random",
        "pipeline": "sf",
        "params": {"l0": 30, "q": 30, "t": 10,
                   "stop": {"kind": "points", "limit": 200}},
        "runs": 3,
        "base_seed": 11,
        "out_dir": None,
    }
    config = config_from_dict(raw)
    assert config.method == "genetic"
    assert config.params.q == 30
    assert config.params.stop == StopRule.point_budget(200)
    overridden = config_from_dict(raw, runs=9)
    assert overridden.runs == 9
    assert config_from_dict(dict(raw, base_seed=4)) == replace(config, base_seed=4)
    # init defaults to random; run j's params take seed base_seed + j and the config's init.
    assert config_from_dict({k: v for k, v in raw.items() if k != "init"}) == config
    assert config.run_params(2) == replace(config.params, seed=13, init="random")


@pytest.mark.parametrize("key, value, message", [
    ("out_dir", 5, "out_dir"), ("instance_path", 5, "instance_path"), ("pipeline", 5, "pipeline"),
    ("pipeline", "sfx", "local-search step"), ("runs", True, "runs"), ("runs", 2.7, "runs"),
    ("base_seed", 1.5, "base_seed"), ("method", "tabu", "unknown method"),
    ("runs", 0, "runs must be at least 1"), ("runs", 2.0, "runs"), ("runs", "3", "runs"),
    ("base_seed", "4", "base_seed"), ("init", "bogus", "unknown init"),
])
def test_config_rejects_ill_typed_fields(table1_path, key, value, message):
    raw = {"instance_path": str(table1_path), "method": "vns", "runs": 1}
    with pytest.raises(RankPriceError, match=message):
        config_from_dict(dict(raw, **{key: value}))


def test_config_rejects_naive_with_no_iterations(table1_path):
    # naive has no initial population, so zero iterations would evaluate nothing
    raw = {"instance_path": str(table1_path), "method": "naive", "runs": 1,
           "params": {"stop": {"kind": "iterations", "limit": 0}}}
    with pytest.raises(RankPriceError, match="iterations limit of 0"):
        config_from_dict(raw)
    raw["params"]["stop"]["limit"] = 1
    assert config_from_dict(raw).params.stop == StopRule.iterations(1)


def test_params_from_dict_defaults():
    params = params_from_dict({"l0": 10, "q": 2, "t": 5})
    assert params.stop == StopRule.point_budget(24000)


def test_config_default_q_follows_method_and_l0():
    # solve builds its config through config_from_dict too, so both commands share this rule.
    def q(method, **params):
        raw = {"instance_path": "x", "method": method, "runs": 1, "params": params}
        return config_from_dict(raw).params.q

    assert q("genetic") == 1000
    assert q("genetic", l0=300) == 300
    assert q("genetic", q=7) == 7
    assert q("vns") == 100
    assert q("naive", l0=40) == 40
    with pytest.raises(RankPriceError, match="l0"):
        q("genetic", l0="many")
