"""Planned execution of a whole pattern over an event stream.

One engine per conjunct runs the conjunct's plan.  Each match an engine
finds becomes one ``MatchReport``, built once by ``make_report``; the
records of one arrival are merged, ordered canonically, deduplicated
across conjuncts, and filtered by the pattern's selection strategy, so
the reported match set is identical for every plan and engine family.
An arrival that finds no match skips all of that.  The runner assigns
emission serials: every match an arrival yields, completed or released
from pending, is emitted under that arrival's serial, and the matches
the stream's end releases under one past the last serial.

The runner's own work per arrival is constant: one clock reading, taken
as the arrival time, plus one more when the arrival reports matches; the
engines keep their state counts, which ``memory_peak`` sums.  A match's
latency runs from its completing event's arrival to its report.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

from .matching import (
    DEFAULT_KL_CAP,
    EngineMetrics,
    SelectionReplay,
    make_report,
)
from .model import (
    PARTITION_CONTIGUITY,
    ContractError,
    Event,
    MatchReport,
    OrderPlan,
    Pattern,
    TreePlan,
    left_deep_tree,
)
from .nfa import NfaEngine
from .plangen import PlanBundle
from .transform import normalize_pattern
from .tree_engine import TreeEngine

ENGINE_KINDS = ("auto", "nfa", "tree")


@dataclass
class RunResult:
    """Outcome of one full stream run."""

    reports: list[MatchReport]
    events: int
    memory_peak: int
    engine_metrics: list[EngineMetrics]
    wall_time: float

    @property
    def matches(self) -> int:
        return len(self.reports)

    @property
    def throughput(self) -> float:
        if self.wall_time <= 0:
            return float("inf")
        return self.events / self.wall_time

    @property
    def mean_latency(self) -> float:
        if not self.matches:
            return 0.0
        return sum(m.latency_total for m in self.engine_metrics) / self.matches

    @property
    def kl_overflows(self) -> int:
        return sum(m.kl_overflows for m in self.engine_metrics)


class PatternRunner:
    """Runs a pattern's plan bundle over events, one engine per conjunct."""

    def __init__(self, pattern: Pattern, bundle: PlanBundle,
                 engine: str = "auto", kl_cap: int = DEFAULT_KL_CAP):
        if engine not in ENGINE_KINDS:
            raise ContractError(f"unknown engine kind {engine!r}")
        if kl_cap < 1:
            raise ContractError(f"kl_cap must be at least 1, not {kl_cap}")
        self.pattern = pattern
        self.normalized = normalize_pattern(pattern)
        if len(bundle.conjuncts) != len(self.normalized.conjuncts):
            raise ContractError(
                "plan bundle does not cover the pattern's conjuncts"
            )
        self.engines = [
            self._build_engine(planned.plan, conjunct, engine, kl_cap)
            for planned, conjunct in zip(
                bundle.conjuncts, self.normalized.conjuncts
            )
        ]
        self.replay = SelectionReplay(pattern.strategy.kind, len(self.engines))
        self._needs_pserial = pattern.strategy.kind == PARTITION_CONTIGUITY
        self._partition_key = pattern.strategy.partition_key
        self._partition_counters: dict[object, int] = {}
        self.events_seen = 0
        self.memory_peak = 0
        self.max_serial = -1
        self.last_ts = -math.inf

    @staticmethod
    def _build_engine(plan, conjunct, engine: str, kl_cap: int):
        if isinstance(plan, OrderPlan):
            if engine == "tree":
                return TreeEngine(
                    TreePlan(left_deep_tree(plan.order)), conjunct, kl_cap
                )
            return NfaEngine(plan, conjunct, kl_cap)
        if isinstance(plan, TreePlan):
            if engine == "nfa":
                raise ContractError(
                    "the chain NFA cannot execute a tree plan; "
                    "use the tree engine"
                )
            return TreeEngine(plan, conjunct, kl_cap)
        raise ContractError(f"unsupported plan type {type(plan).__name__}")

    def _augment(self, event: Event) -> Event:
        """Attach the event's per-partition serial, counted here in arrival
        order as ``oracle.partition_serials`` counts it; a ``pserial`` the
        event already carries is replaced."""
        if not self._needs_pserial:
            return event
        value = event.value(self._partition_key)
        index = self._partition_counters.get(value, 0)
        self._partition_counters[value] = index + 1
        return Event(event.type_name, event.timestamp, event.serial,
                     {**event.attrs, "pserial": index})

    def process(self, event: Event) -> list[MatchReport]:
        """Feed one event; serials must increase and timestamps not fall.

        The engines' time indexes, eviction and buffering rules all rely
        on that arrival order, so an event that breaks it is refused.
        """
        if self.events_seen and (
            event.serial <= self.max_serial or event.timestamp < self.last_ts
        ):
            raise ContractError(
                f"event #{event.serial} at {event.timestamp} arrives after "
                f"#{self.max_serial} at {self.last_ts}"
            )
        arrived = time.perf_counter()
        event = self._augment(event)
        self.events_seen += 1
        self.max_serial = event.serial
        self.last_ts = event.timestamp
        batch: list[MatchReport] = []
        memory = 0
        for index, engine in enumerate(self.engines):
            found = engine.process_event(event, arrived)
            if found:
                self._build(index, engine, found, event.serial, batch)
            memory += engine.metrics.live_partials + engine.metrics.held
        if memory > self.memory_peak:
            self.memory_peak = memory
        return self._emit(batch) if batch else []

    def end(self) -> list[MatchReport]:
        batch: list[MatchReport] = []
        for index, engine in enumerate(self.engines):
            self._build(index, engine, engine.end(), self.max_serial + 1, batch)
        return self._emit(batch) if batch else []

    @staticmethod
    def _build(index: int, engine, found, emit_serial: int,
               batch: list[MatchReport]) -> None:
        order = engine.alias_order
        for bindings, arrived in found:
            batch.append(make_report(bindings, order, emit_serial, arrived, index))

    def _emit(self, batch: list[MatchReport]) -> list[MatchReport]:
        reports = self.replay.offer(batch)
        if reports:
            reported = time.perf_counter()
            engines = self.engines
            for report in reports:
                metrics = engines[report.conjunct].metrics
                metrics.matches += 1
                metrics.latency_total += reported - report.arrived
        return reports

    def run(self, events) -> RunResult:
        started = time.perf_counter()
        reports: list[MatchReport] = []
        for event in events:
            reports.extend(self.process(event))
        reports.extend(self.end())
        wall = time.perf_counter() - started
        return RunResult(
            reports=reports,
            events=self.events_seen,
            memory_peak=self.memory_peak,
            engine_metrics=[e.metrics for e in self.engines],
            wall_time=wall,
        )
