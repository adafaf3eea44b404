"""Population searches over the budget grid: random sampling, VNS, genetic.

All three methods share the same skeleton: grow a population of evaluated
price vectors batch by batch until a stopping rule fires, tracking the best
vector seen. They differ only in how a batch is proposed. Random sampling
draws vectors uniformly; the VNS draws them from boxes of growing radius
around the current elite vectors; the genetic method breeds them from elite
parents by uniform crossover and per-component mutation.

A run is driven by a single ``random.Random`` seeded from the parameters, so
identical (instance, params) inputs reproduce identical populations, traces
and results bit for bit. The wall clock only enters through an injectable
``clock`` callable, which lets tests freeze elapsed times.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain
from typing import Callable, Iterable, Sequence

from .errors import InvalidRange
from .evaluate import assign
from .local_search import LocalSearchStats, parse_pipeline, run_pipeline
from .model import Assignment, BudgetGrid, Instance, PriceIndices

RANDOM = "random"
GREEDY = "greedy"
# The genetic method's default elite set size (capped at l0) in a run config,
# in place of SearchParams.q.
GENETIC_Q = 1000


@dataclass(frozen=True)
class StopRule:
    """When a search run ends: population size or wall-clock.

    A points limit is an int and is used as given (50.9 and "50" are errors,
    not 50 points); a time limit is an int or float. N batches after the
    initial population are the points limit ``l0 + N*t`` (``N*t`` for naive).
    """

    kind: str
    limit: int | float

    POINTS = "points"
    TIME = "time"

    def __post_init__(self):
        if isinstance(self.limit, float) and not math.isfinite(self.limit):
            raise InvalidRange(f"stop limit must be finite, got {self.limit}")
        if self.kind == self.TIME:
            if type(self.limit) not in (int, float):
                raise InvalidRange(f"time limit must be a number, got {self.limit!r}")
            if self.limit <= 0:
                raise InvalidRange("time limit must be positive")
        elif self.kind != self.POINTS:
            raise InvalidRange(f"unknown stop rule {self.kind!r}")
        elif type(self.limit) is not int:
            raise InvalidRange(f"points limit must be an integer, got {self.limit!r}")
        elif self.limit < 1:
            raise InvalidRange("point budget must be at least 1")

    @classmethod
    def point_budget(cls, n: int) -> "StopRule":
        return cls(cls.POINTS, n)

    @classmethod
    def time_limit(cls, seconds: float) -> "StopRule":
        return cls(cls.TIME, seconds)


@dataclass(frozen=True)
class SearchParams:
    """Knobs shared by all searches.

    ``l0`` initial population size, ``q`` elite set size, ``t`` batch size
    per iteration. The default ``q`` is not capped at ``l0``, so an ``l0``
    below it needs a ``q`` too; a run config caps an omitted ``q`` instead
    (``bench.params_from_dict``).
    """

    l0: int = 1000
    q: int = 100
    t: int = 500
    stop: StopRule = StopRule.point_budget(24000)
    init: str = RANDOM
    seed: int = 0

    def __post_init__(self):
        for name in ("l0", "q", "t", "seed"):
            if type(getattr(self, name)) is not int:
                raise InvalidRange(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.l0 < 1:
            raise InvalidRange("l0 must be at least 1")
        if not 1 <= self.q <= self.l0:
            raise InvalidRange(f"need 1 <= q <= l0, got q={self.q} and l0={self.l0}; a run config"
                               " caps an omitted q at l0, SearchParams keeps its default"
                               f" q={SearchParams.q}")
        if self.t < 1:
            raise InvalidRange("t must be at least 1")
        if self.init not in (RANDOM, GREEDY):
            raise InvalidRange(f"unknown init {self.init!r}")


@dataclass(frozen=True)
class TraceEntry:
    """Best-so-far snapshot taken after every evaluation batch."""

    evals: int
    elapsed: float
    best: int


@dataclass(frozen=True)
class SearchResult:
    best_indices: PriceIndices
    best_prices: tuple[int, ...]
    best_value: int
    trace: tuple[TraceEntry, ...]
    evaluations: int
    elapsed: float
    iterations: int
    ls_stats: LocalSearchStats
    population: list[tuple[PriceIndices, int]]


def select_elites(
    population: Sequence[tuple[PriceIndices, int]],
    q: int,
    among: Iterable[int] | None = None,
) -> list[int]:
    """Slots of the q highest-revenue members; ties go to earlier insertion.

    Ranks the slots in ``among``, or every slot when it is None. The key
    ``(-revenue, slot)`` orders slots totally, so a slot outside the top q of
    some slots stays outside it once more slots join: the q ahead of it keep
    their places. The top q of a population is therefore the top q of its
    earlier top q plus the slots appended since, provided the revenues of the
    earlier slots have not changed. A run of slots already in key order, such
    as that earlier top q placed first in ``among``, is merged by the sort
    instead of being ranked again.
    """
    slots = range(len(population)) if among is None else among
    return sorted(slots, key=lambda slot: (-population[slot][1], slot))[:q]


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A draw uniform over ``range(n)``, n >= 1, as ``Random.randrange(n)`` makes it.

    A copy of CPython's ``Random._randbelow_with_getrandbits``: it takes
    ``n.bit_length()`` bits and draws again while the value is out of range,
    so it consumes the generator exactly as ``randrange`` does, one draw even
    when n is 1.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _pair(getrandbits: Callable[[int], int], pool: Sequence[int]) -> tuple[int, int]:
    """Two distinct members of ``pool``, len(pool) >= 2, as ``Random.sample(pool, 2)`` draws them.

    A copy of both branches of CPython's ``sample`` for k = 2: up to 21
    members it takes the second draw below n - 1 from a copy of the pool
    whose first pick was replaced by the last member; above that it draws
    positions below n again until one differs from the first. Either way it
    consumes the generator exactly as ``sample`` does.
    """
    n = len(pool)
    first = _below(getrandbits, n)
    if n <= 21:
        second = _below(getrandbits, n - 1)
        return pool[first], pool[n - 1 if second == first else second]
    second = _below(getrandbits, n)
    while second == first:
        second = _below(getrandbits, n)
    return pool[first], pool[second]


def random_price(grid: BudgetGrid, num_products: int, rng: random.Random) -> PriceIndices:
    """One vector with every component uniform over the grid, as ``rng.randrange`` draws it.

    Each component takes its first draw inline and calls ``_below`` only when
    that draw is out of range, as :meth:`Neighborhood.sample` does, so the
    generator is consumed as ``_below`` alone would consume it.
    """
    size, bits = grid.size, rng.getrandbits
    k = size.bit_length()
    return tuple([r if (r := bits(k)) < size else _below(bits, size)
                  for _ in range(num_products)])


def greedy_init(inst: Instance, grid: BudgetGrid) -> PriceIndices:
    """Deterministic starting vector built from the richest customers down.

    Customers are visited by decreasing budget (ties by index); each claims
    their most preferred unclaimed product and prices it at their own budget.
    The visit ends once every product is claimed. Products nobody claimed end
    up at the top of the grid, where they sell to nobody but leave room to be
    priced down later.
    """
    claimed: dict[int, int] = {}
    for k in sorted(range(inst.num_customers), key=lambda k: (-inst.budgets[k], k)):
        if len(claimed) == inst.num_products:
            break
        for i in inst.preference_order[k]:
            if i not in claimed:
                claimed[i] = grid.index_of(inst.budgets[k])
                break
    return tuple(claimed.get(i, grid.size - 1) for i in range(inst.num_products))


@dataclass(frozen=True)
class Neighborhood:
    """Axis-aligned box of grid indices around a vector, clamped to the grid.

    ``lo`` and ``hi`` must have one length and ``lo[i] <= hi[i]`` on every
    axis; the check runs once, when the box is built, not on every draw.
    """

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or any(a > b for a, b in zip(self.lo, self.hi)):
            raise InvalidRange(f"a box needs lo <= hi, of one length: lo={self.lo} hi={self.hi}")

    @cached_property
    def _spans(self) -> tuple[tuple[int, int, int], ...]:
        """Per axis ``(lo, width, bits)``: the offset, size and bit length of its draw."""
        return tuple((lo, hi + 1 - lo, (hi + 1 - lo).bit_length())
                     for lo, hi in zip(self.lo, self.hi))

    def sample(self, rng: random.Random) -> PriceIndices:
        """One vector uniform over the box, drawn as ``rng.randint(lo, hi)`` per axis would.

        Each axis takes its first draw inline and calls ``_below`` only when
        that draw is out of range, so it consumes the generator as
        ``_below`` alone would.
        """
        bits = rng.getrandbits
        return tuple([lo + r if (r := bits(k)) < width else lo + _below(bits, width)
                      for lo, width, k in self._spans])


def neighborhood(grid: BudgetGrid, indices: Sequence[int], radius: int) -> Neighborhood:
    """All vectors whose components stay within ``radius`` grid steps.

    The box includes the center vector and is clipped at the grid edges.
    """
    if radius < 1:
        raise InvalidRange("radius must be at least 1")
    top = grid.size - 1
    lo = tuple(max(0, m - radius) for m in indices)
    hi = tuple(min(top, m + radius) for m in indices)
    return Neighborhood(lo=lo, hi=hi)


def crossover(p1: PriceIndices, p2: PriceIndices, rng: random.Random) -> PriceIndices:
    """Each component copied from either parent with equal probability."""
    if len(p1) != len(p2):
        raise InvalidRange(f"parents have lengths {len(p1)} and {len(p2)}")
    coin = rng.random
    return tuple([a if coin() < 0.5 else b for a, b in zip(p1, p2)])


def mutate(grid: BudgetGrid, indices: PriceIndices, rng: random.Random) -> PriceIndices:
    """Resample each component with probability 1/I among the other grid values."""
    size = grid.size
    n = len(indices)
    if size < 2:
        return tuple(indices)
    rate = 1.0 / n
    out = list(indices)
    coin = rng.random
    for i in range(n):
        if coin() < rate:
            draw = _below(rng.getrandbits, size - 1)
            if draw >= out[i]:
                draw += 1
            out[i] = draw
    return tuple(out)


class _Run:
    """One search run: its population, incumbent, trace and local-search stats.

    A method seeds the population with :meth:`init_population` (naive has
    none) and then calls :meth:`step` with its candidate maker until
    :meth:`stop_reached`. Each step is one iteration: a batch drawn,
    evaluated, refined by the pipeline and folded into the incumbent, then
    one trace snapshot. Its result tells the VNS whether to grow the radius.

    There is one way into the population and one way out of a batch:
    :meth:`fill_batch` is the only place a vector is drawn, evaluated and
    appended, once per evaluation, so the population's length is the number
    of vectors evaluated so far; :meth:`close_batch` is the only place the
    incumbent and the trace change.

    Steps s, f, r and c and the greedy start price products at customer
    budgets, so a run that uses any of them rejects a grid, such as one built
    by hand, that misses a budget of the instance, before any evaluation.

    ``elites`` are the slots :meth:`next_elites` last selected and ``ranked``
    the population length it ranked. A slot's revenue is final once the batch
    that appended it has been refined, which happens before the next
    selection, so the revenues of slots below ``ranked`` never change and the
    next selection needs to rank only ``elites`` and the slots appended since.
    """

    def __init__(self, inst, grid, params, pipeline, clock):
        self.inst = inst
        self.grid = grid
        self.params = params
        self.rng = random.Random(params.seed)
        self.pipeline = parse_pipeline(pipeline or "")
        if params.init == GREEDY or set(self.pipeline) & set("sfrc"):
            inst.budget_levels(grid)
        self.clock: Callable[[], float] = clock if clock is not None else time.perf_counter
        self.t0 = self.clock()
        self.population: list[tuple[PriceIndices, int]] = []
        self.best_indices: PriceIndices | None = None
        self.best_value = -1
        self.trace: list[TraceEntry] = []
        self.stats = LocalSearchStats()
        self.iterations = 0
        self.elites: list[int] = []
        self.ranked = 0

    def elapsed(self) -> float:
        return self.clock() - self.t0

    def past_deadline(self) -> bool:
        """True once a time rule's limit has passed; other rules never read the clock."""
        stop = self.params.stop
        return stop.kind == StopRule.TIME and self.elapsed() >= stop.limit

    def stop_reached(self) -> bool:
        stop = self.params.stop
        if stop.kind == StopRule.POINTS:
            return len(self.population) >= stop.limit
        # A time limit is checked after an evaluation, so every run has one.
        return bool(self.population) and self.past_deadline()

    def next_elites(self) -> list[int]:
        """The q best slots of the whole population, as a full re-selection gives them.

        The previous elites come first, in the key order ``select_elites``
        returned them in, so the sort merges the new slots into them.
        """
        pop = self.population
        among = chain(self.elites, range(self.ranked, len(pop)))
        self.elites = select_elites(pop, self.params.q, among)
        self.ranked = len(pop)
        return self.elites

    def random_candidate(self) -> PriceIndices:
        return random_price(self.grid, self.inst.num_products, self.rng)

    def fill_batch(self, size: int, make_candidate) -> list[tuple[int, Assignment]]:
        """Evaluate and append up to ``size`` new vectors produced by ``make_candidate``.

        This is the only place the population grows. A point budget caps the
        batch at the points it has left. Under a time rule the batch ends
        early, after the vector that crosses the deadline.
        """
        stop = self.params.stop
        if stop.kind == StopRule.POINTS:
            size = min(size, stop.limit - len(self.population))
        batch: list[tuple[int, Assignment]] = []
        for _ in range(size):
            indices = make_candidate()
            a = assign(self.inst, self.grid, indices)
            self.population.append((indices, a.revenue))
            batch.append((len(self.population) - 1, a))
            if self.past_deadline():
                break
        return batch

    def close_batch(self, batch: list[tuple[int, Assignment]]) -> bool:
        """Fold the batch into the incumbent, then snapshot the trace; True when it improved."""
        before = self.best_value
        for slot, _ in batch:
            indices, value = self.population[slot]
            if value > self.best_value:
                self.best_indices, self.best_value = indices, value
        self.trace.append(TraceEntry(len(self.population), self.elapsed(), self.best_value))
        return self.best_value > before

    def step(self, make_candidate) -> bool:
        """Run one iteration with ``make_candidate``; True when it beat the incumbent.

        The batch is refined member by member. Under a time rule refinement
        stops at the deadline; the remaining members stay as evaluated.
        """
        batch = self.fill_batch(self.params.t, make_candidate)
        if self.pipeline:
            for slot, a in batch:
                if self.past_deadline():
                    break
                indices, a = run_pipeline(
                    self.inst, self.grid, self.pipeline, self.population[slot][0], a,
                    self.rng, self.stats,
                )
                self.population[slot] = (indices, a.revenue)
        self.iterations += 1
        return self.close_batch(batch)

    def init_population(self) -> None:
        """Evaluate the first ``l0`` vectors as one batch, the greedy one first if init asks.

        Initial members are evaluated as-is: the pipeline only refines the
        vectors proposed inside the loop.
        """
        # random_candidate never returns None, so the random draws never run out.
        start = [greedy_init(self.inst, self.grid)] if self.params.init == GREEDY else []
        draws = chain(start, iter(self.random_candidate, None))
        self.close_batch(self.fill_batch(self.params.l0, draws.__next__))

    def result(self) -> SearchResult:
        return SearchResult(
            best_indices=self.best_indices,
            best_prices=self.grid.prices_of(self.best_indices),
            best_value=self.best_value,
            trace=tuple(self.trace),
            evaluations=len(self.population),
            elapsed=self.elapsed(),
            iterations=self.iterations,
            ls_stats=self.stats,
            population=self.population,
        )


def naive_search(
    inst: Instance,
    grid: BudgetGrid,
    params: SearchParams,
    pipeline=None,
    clock=None,
) -> SearchResult:
    """Pure uniform sampling of the grid, best vector wins.

    There is no seeded population and no use of ``params.init``; vectors are
    drawn in batches of ``params.t`` so traces have the same granularity as
    the other methods.
    """
    run = _Run(inst, grid, params, pipeline, clock)
    while not run.stop_reached():
        run.step(run.random_candidate)
    return run.result()


def vns_search(
    inst: Instance,
    grid: BudgetGrid,
    params: SearchParams,
    pipeline=None,
    clock=None,
) -> SearchResult:
    """Variable neighborhood search over the budget grid.

    Each iteration samples ``t`` vectors by picking an elite uniformly and
    then a point uniformly from the box of the current radius around it. When
    no sampled vector beats the incumbent the radius grows by one, capped
    where the box already covers the whole grid; on improvement it stays put.
    """
    run = _Run(inst, grid, params, pipeline, clock)
    run.init_population()
    radius_cap = max(1, grid.size - 1)
    radius = 1
    pop = run.population
    while not run.stop_reached():
        elites = run.next_elites()
        # Elite slots and the radius stay fixed while a batch is drawn, and
        # building a box draws nothing, so a cache that lasts one batch builds
        # the box of each elite drawn once, and none for an elite not drawn.
        box = cache(lambda slot: neighborhood(grid, pop[slot][0], radius))
        if not run.step(lambda: box(run.rng.choice(elites)).sample(run.rng)):
            radius = min(radius + 1, radius_cap)
    return run.result()


def genetic_search(
    inst: Instance,
    grid: BudgetGrid,
    params: SearchParams,
    pipeline=None,
    clock=None,
) -> SearchResult:
    """Genetic search: elites breed batches by uniform crossover and mutation.

    Each child has two distinct elite parents, so ``q`` must be at least 2.
    """
    if params.q < 2:
        raise InvalidRange(f"genetic search needs q >= 2 to pick two distinct parents,"
                           f" got q={params.q}; a run config that omits q gets"
                           f" min({GENETIC_Q}, l0)")
    run = _Run(inst, grid, params, pipeline, clock)
    run.init_population()
    pop, rng = run.population, run.rng
    bits = rng.getrandbits
    elites: list[int] = []

    def child():
        s1, s2 = _pair(bits, elites)
        return mutate(grid, crossover(pop[s1][0], pop[s2][0], rng), rng)

    while not run.stop_reached():
        elites = run.next_elites()
        run.step(child)
    return run.result()
