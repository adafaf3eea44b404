"""Output checks and determinism fingerprints for the benchmark's runs.

Every check returns a list of problems (empty when the output is right), so
that a run's verdict can be counted into a :class:`Tally` and printed.
Values are re-derived with ``assign_oracle``, the enumeration reference that
shares no code with the ``assign`` evaluator the searches use.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from rankprice.evaluate import assign_oracle


@dataclass
class Tally:
    """Runs attempted and runs that failed, with every problem seen."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def target_reached_at(trace, target: int):
    """Elapsed seconds of the first trace entry whose best reaches ``target``."""
    for entry in trace:
        if entry.best >= target:
            return entry.elapsed
    return None


def check_search_run(inst, grid, result, reported_best: int, points: int, target: int) -> list[str]:
    """Problems with one search run's output.

    ``result`` is the program's ``SearchResult``; ``reported_best`` is the
    best value ``run_experiment`` reported for the run.
    """
    problems = []
    oracle = assign_oracle(inst, grid, result.best_indices).revenue
    if oracle != result.best_value:
        problems.append(f"best vector is worth {oracle}, search reported {result.best_value}")
    if reported_best != result.best_value:
        problems.append(f"run summary reports {reported_best}, search found {result.best_value}")
    trace = result.trace
    if not trace:
        return problems + ["empty trace"]
    for before, after in zip(trace, trace[1:]):
        if after.best < before.best:
            problems.append(f"trace best falls from {before.best} to {after.best} at {after.evals} evals")
            break
    if trace[-1].evals != points:
        problems.append(f"trace ends at {trace[-1].evals} evals, budget is {points}")
    if trace[-1].best != result.best_value:
        problems.append(f"trace ends at best {trace[-1].best}, result says {result.best_value}")
    if target_reached_at(trace, target) is None:
        problems.append(f"best {result.best_value} never reaches the target {target}")
    return problems


def check_exact(inst, grid, optimum: int, argmax, expected_optimum: int, expected_count: int) -> list[str]:
    """Problems with one brute-force solve against the recorded optimum."""
    problems = []
    if optimum != expected_optimum:
        problems.append(f"optimum {optimum}, recorded optimum is {expected_optimum}")
    if len(argmax) != expected_count:
        problems.append(f"{len(argmax)} optimal vectors, recorded count is {expected_count}")
    if list(argmax) != sorted(set(argmax)):
        problems.append("argmax list is not sorted and unique")
    for indices in argmax:
        value = assign_oracle(inst, grid, indices).revenue
        if value != optimum:
            problems.append(f"argmax vector {indices} is worth {value}, not {optimum}")
    return problems


def search_record(result) -> dict:
    """The deterministic part of one search run: trace, best vector, LS counts."""
    stats = result.ls_stats
    return {
        "trace": [[e.evals, e.best] for e in result.trace],
        "best": list(result.best_indices),
        "kept": dict(sorted(stats.kept.items())),
        "reverted": dict(sorted(stats.reverted.items())),
    }


LP_SECTIONS = {"Maximize": "objective_terms", "Subject To": "rows", "Bounds": "bounds", "Binaries": "binaries"}


def lp_shape(lp_text: str) -> dict:
    """Objective terms, rows, fixed bounds and binaries of an LP text.

    These counts are unchanged when customers and products are relabelled,
    so every export of one workload is checked against the same record.
    """
    shape = dict.fromkeys(LP_SECTIONS.values(), 0)
    section = None
    for line in lp_text.splitlines():
        if line in LP_SECTIONS or line == "End":
            section = LP_SECTIONS.get(line)
        elif section == "objective_terms":
            shape[section] += line.startswith("   + ")
        elif section is not None:
            shape[section] += 1
    return shape


def check_lp(lp_text: str, expected_shape: dict) -> list[str]:
    """Problems with one LP export against the shape recorded for its instance."""
    problems = []
    if not lp_text.endswith("End\n"):
        problems.append("LP text does not end with an End line")
    shape = lp_shape(lp_text)
    if shape != expected_shape:
        problems.append(f"LP text has {shape}, recorded shape is {expected_shape}")
    return problems


def lp_digest(lp_text: str) -> str:
    return hashlib.sha256(lp_text.encode("utf-8")).hexdigest()


def exact_record(optimum: int, argmax, lp_text: str) -> dict:
    """The deterministic part of one exact unit: optimum, argmax list, LP text."""
    return {"optimum": optimum, "argmax": [list(v) for v in argmax], "lp_sha256": lp_digest(lp_text)}


def fingerprint(records) -> str:
    """SHA-256 of the canonical JSON of a list of run records."""
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
