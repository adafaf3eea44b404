"""Solvers and benchmarks for rank-based unit-demand pricing.

A seller prices I products; each unit-demand customer buys the single most
preferred product within budget. This package evaluates prices in closed
form, searches the budget grid with random sampling, variable neighborhood
search and a genetic method, refines vectors with structural local searches,
brute-forces small instances exactly, exports the single-level binary model
in LP format, and orchestrates reproducible seeded benchmarks.
"""

from .bench import (
    DistributionReport,
    ExperimentConfig,
    RunSummary,
    evolution_stats,
    generate_instance,
    percentile,
    run_experiment,
    summarize,
)
from .errors import (
    DimensionMismatch,
    EmptyInput,
    EmptyPreferenceRow,
    InstanceReadError,
    InvalidInstance,
    InvalidRange,
    LengthMismatch,
    NonPositiveBudget,
    OutputWriteError,
    RankPriceError,
    SearchSpaceTooLarge,
    TiedPreferences,
)
from .evaluate import assign, assign_oracle, assign_prices
from .exact import (
    DEFAULT_ENUMERATION_CAP,
    brute_force,
    build_single_level,
    export_single_level,
    write_lp,
)
from .local_search import (
    LocalSearchStats,
    conditional_reassignment,
    fill,
    opt_based,
    parse_pipeline,
    reassignment,
    run_pipeline,
    slack,
)
from .model import (
    Assignment,
    BudgetGrid,
    Instance,
    PriceIndices,
    build_grid,
    load_instance,
    save_instance,
    validate_instance,
)
from .search import (
    Neighborhood,
    SearchParams,
    SearchResult,
    StopRule,
    TraceEntry,
    crossover,
    genetic_search,
    greedy_init,
    mutate,
    naive_search,
    neighborhood,
    random_price,
    select_elites,
    vns_search,
)

__version__ = "0.1.0"
