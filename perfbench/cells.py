"""Set-up, plan cells and replay cells, timed through the public API.

A *plan cell* is one ``generate_plan`` call for a (pattern, planner)
pair.  A *replay cell* is one pattern's plan run by one engine over the
workload's stream: a closed loop that hands ``PatternRunner.process``
the next event only after the previous call has returned.  Replay cells
carry a budget on live partial matches, checked between ``process``
calls, and on wall seconds, enforced by a timer; a cell over either cap
stops there and keeps its figures up to the cutoff.
"""
from __future__ import annotations

import gc
import hashlib
import signal
import statistics
import time
from dataclasses import dataclass, field

from streamcep import (
    PARTITION_CONTIGUITY,
    PatternRunner,
    SelectionStrategy,
    estimate_statistics,
    from_events,
    generate_plan,
    normalize_pattern,
    parse_pattern,
)

# Every measured time is the process's CPU time.  Nothing measured waits
# on I/O, so CPU time is the wall time less what other processes on a
# shared host take from it.  (An armed ITIMER_PROF would coarsen this
# clock to scheduler ticks, so budgets use a wall-clock timer.)
cpu_time = time.process_time
clock = time.process_time_ns

PROBE_ITERATIONS = 40_000
# The probe's CPU time on the 2-core host the benchmark was built on, at
# the quiet end of its range (twice the 25th percentile of 200 probes of
# half this length).
PROBE_REFERENCE_S = 0.011


def _probe_work(n: int) -> int:
    table = {}
    acc = 0
    for i in range(n):
        key = (i & 1023, i % 7)
        acc += table.get(key, i) % 13
        table[key] = acc
    return acc


class SpeedProbe:
    """The host's current speed, from a fixed piece of interpreter work.

    Even in CPU time, the same work took from 0.8x to 1.4x its usual time
    on the shared host, in phases of seconds to minutes, and every cell of
    a run moved together.  The probe is sampled between cells all through
    a run; scaling the run's times by ``PROBE_REFERENCE_S`` over the
    probe's median reports them as CPU time on the quiet host.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = cpu_time()
        _probe_work(PROBE_ITERATIONS)
        self.samples.append(cpu_time() - t0)

    @property
    def scale(self) -> float:
        return PROBE_REFERENCE_S / statistics.median(self.samples)

PLANNERS = ("efreq", "greedy", "ii-random", "dp-ld", "zstream", "zstream-ord", "dp-b")
BASELINE_PLANNER = "efreq"
# (planner, engine) pairs replayed by default; the chain NFA runs orders only
REPLAY_CELLS = (("greedy", "nfa"), ("dp-b", "tree"))
ENGINE_COUNTERS = ("matches", "instances_created", "peak_partials", "peak_buffered",
                   "kl_overflows")
# A finished replay shorter than this, or with fewer service-time samples,
# runs again on a fresh runner; 1000 samples put ten beyond the p99.
REPLAY_MIN_SECONDS = 0.3
REPLAY_MIN_SAMPLES = 1000
# A plan call shorter than this is repeated (up to PLAN_MAX_REPEATS calls).
PLAN_MIN_SECONDS = 0.02
PLAN_MAX_REPEATS = 25
MARKS = 16  # prefix digests per stream, to compare cells cut at different points


@dataclass(frozen=True)
class Budget:
    max_partials: int
    max_seconds: float


def strategy_of(kind: str) -> SelectionStrategy:
    if kind == PARTITION_CONTIGUITY:
        return SelectionStrategy(kind, "part")
    return SelectionStrategy(kind)


# ---------------------------------------------------------------------------
# Set-up


@dataclass
class Prepared:
    """Everything a replay needs, for one pattern."""

    spec: object
    pattern: object
    stats: object
    bundles: dict


@dataclass
class SetupResult:
    prepared: list[Prepared]
    runners: dict  # (pattern_id, planner, engine) -> PatternRunner
    layer_s: dict  # parse / stats / normalize / plan / build -> seconds
    total_s: float


def setup(inputs, seed: int, replay_cells=REPLAY_CELLS) -> SetupResult:
    """Pattern text -> parse -> statistics -> plans -> runners, timed per layer.

    Every pattern is parsed, measured and planned by the baseline planner;
    replayed patterns are also planned by the replayed planners and get
    one runner per replay cell.
    """
    layer = dict.fromkeys(("parse", "stats", "normalize", "plan", "build"), 0.0)
    started = cpu_time()
    source = from_events(inputs.events, duration=inputs.duration)
    layer["stats"] += cpu_time() - started
    prepared, runners = [], {}
    stats_of_text = {}  # copies of one pattern under other strategies share statistics
    for spec in inputs.patterns:
        t0 = cpu_time()
        pattern = parse_pattern(spec.text, strategy=strategy_of(spec.strategy))
        t1 = cpu_time()
        stats = stats_of_text.get(spec.text)
        if stats is None:
            stats = stats_of_text[spec.text] = estimate_statistics(source, pattern, seed=seed)
        t2 = cpu_time()
        normalize_pattern(pattern)
        t3 = cpu_time()
        layer["parse"] += t1 - t0
        layer["stats"] += t2 - t1
        layer["normalize"] += t3 - t2
        planners = [BASELINE_PLANNER]
        if spec.replay:
            planners += [p for p, _ in replay_cells if p not in planners]
        bundles = {}
        for planner in planners:
            t0 = cpu_time()
            bundles[planner] = generate_plan(pattern, stats, planner, seed=seed)
            layer["plan"] += cpu_time() - t0
        item = Prepared(spec, pattern, stats, bundles)
        prepared.append(item)
        if spec.replay:
            for planner, engine in replay_cells:
                t0 = cpu_time()
                runners[(spec.pattern_id, planner, engine)] = build_runner(item, planner, engine)
                layer["build"] += cpu_time() - t0
    return SetupResult(prepared, runners, layer, cpu_time() - started)


def build_runner(item: Prepared, planner: str, engine: str) -> PatternRunner:
    return PatternRunner(item.pattern, item.bundles[planner], engine=engine)


# ---------------------------------------------------------------------------
# Plan cells


@dataclass
class PlanCell:
    pattern_id: str
    planner: str
    seconds: float = 0.0
    cost: float = 0.0
    candidates: int = 0
    error: str | None = None


def plan_cell(item: Prepared, planner: str, seed: int) -> PlanCell:
    """Time one planner on one pattern.

    A call shorter than ``PLAN_MIN_SECONDS`` is repeated until the calls
    together reach it, and the median call is kept.
    """
    gc.collect()  # the previous cell's garbage is not this cell's cost
    cell = PlanCell(item.spec.pattern_id, planner)
    took = []
    try:
        while sum(took) < PLAN_MIN_SECONDS and len(took) < PLAN_MAX_REPEATS:
            t0 = cpu_time()
            bundle = generate_plan(item.pattern, item.stats, planner, seed=seed)
            took.append(cpu_time() - t0)
    except Exception as exc:  # a cell that raises is reported, not fatal
        cell.error = f"{type(exc).__name__}: {exc}"
        return cell
    cell.seconds = statistics.median(took)
    cell.cost = bundle.total_cost
    cell.candidates = sum(c.report.candidates for c in bundle.conjuncts)
    return cell


# ---------------------------------------------------------------------------
# Replay cells


@dataclass
class ReplayCell:
    pattern_id: str
    planner: str
    engine: str
    status: str = "done"  # done | over-budget | error
    events: int = 0
    busy_s: float = 0.0
    service_ns: list[int] = field(default_factory=list)
    memory_peak: int = 0
    matches: int = 0
    marks: dict = field(default_factory=dict)  # events processed -> digest
    final: str | None = None  # digest of the whole match list, when done
    error: str | None = None
    engines: list = field(default_factory=list)  # (layer, counters) per engine

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.pattern_id, self.planner, self.engine)

    @property
    def rate(self) -> float:
        return self.events / self.busy_s


def mark_points(count: int) -> frozenset[int]:
    return frozenset(max(1, count * k // MARKS) for k in range(1, MARKS + 1))


def _canon(report) -> bytes:
    return f"{report.serials}|{report.groups}|{report.emit_serial}\n".encode()


class OverBudget(BaseException):
    """Raised by the wall-clock timer inside a call that outlives its cell.

    A ``BaseException``, so that no ``except Exception`` in the program
    swallows it.
    """


def _expire(signum, frame):
    raise OverBudget


def replay(runner: PatternRunner, events, budget: Budget, marks: frozenset[int],
           cell: ReplayCell) -> ReplayCell:
    """Feed ``events`` one at a time; stop at the end or at the budget.

    Live partials are checked between calls.  The wall-seconds cap is a
    timer, so a single call that runs away is cut inside the call; that
    call's time counts towards the cell's busy time, its event does not.
    """
    gc.collect()  # the previous cell's garbage is not this cell's cost
    digest = hashlib.sha256()
    service = cell.service_ns
    engines = runner.engines
    cut_ns = 0
    t0 = None
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, budget.max_seconds)
    try:
        try:
            for event in events:
                t0 = clock()
                reports = runner.process(event)
                took = clock() - t0
                t0 = None
                service.append(took)
                cell.events += 1
                cell.matches += len(reports)
                for report in reports:
                    digest.update(_canon(report))
                if cell.events in marks:
                    cell.marks[cell.events] = digest.hexdigest()[:16]
                if sum(e.metrics.live_partials for e in engines) > budget.max_partials:
                    if cell.events < len(events):
                        cell.status = "over-budget"
                        break
            else:
                t0 = clock()
                reports = runner.end()
                cut_ns = clock() - t0  # end() settles the stream; its time is busy time
                t0 = None
                cell.matches += len(reports)
                for report in reports:
                    digest.update(_canon(report))
                cell.final = digest.hexdigest()[:16]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except (OverBudget, MemoryError):
        cell.status = "over-budget"
        cell.final = None
        if t0 is not None:
            cut_ns = clock() - t0
    except Exception as exc:  # a cell that raises is reported, not fatal
        cell.status = "error"
        cell.error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.signal(signal.SIGALRM, previous)
    cell.busy_s = max(sum(service) + cut_ns, 1) / 1e9
    cell.memory_peak = runner.memory_peak
    cell.engines = [
        (type(e).__module__.rsplit(".", 1)[-1], {
            name: getattr(e.metrics, name) for name in ENGINE_COUNTERS
        })
        for e in runner.engines
    ]
    return cell
