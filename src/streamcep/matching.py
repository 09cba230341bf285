"""Shared runtime semantics for the two evaluation engines.

Both engines reduce a conjunct to the same currency: a stream of candidate
full matches per processed event.  This module holds what must agree
between them so the engines themselves keep only their joins and
extensions: candidate identity and ordering, the absence test for negated
positions, the absence tracker (checkpoint, completion and pending tests,
blocker buffers, pending matches), the selection-strategy replay, and the
metrics snapshot.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from .model import (
    ANY_MATCH,
    ContractError,
    Event,
    MatchReport,
    Plan,
    evaluate_predicate,
)
from .transform import NegationSpec

Bindings = dict[str, object]  # alias -> Event | tuple[Event, ...]


def binding_events(bindings: Bindings) -> list[Event]:
    out: list[Event] = []
    for value in bindings.values():
        if isinstance(value, Event):
            out.append(value)
        else:
            out.extend(value)
    return out


def binding_serials(bindings: Bindings) -> tuple[int, ...]:
    return tuple(sorted(e.serial for e in binding_events(bindings)))


def binding_span(bindings: Bindings) -> tuple[float, float]:
    events = binding_events(bindings)
    ts = [e.timestamp for e in events]
    return min(ts), max(ts)


@dataclass
class Candidate:
    """A full match of one conjunct awaiting strategy replay.

    ``emission_serial`` is the stream serial at which the match may be
    reported: the completing event's serial, or, when absence of a
    negated type is only certain later, the serial of the first event
    whose timestamp passes the absence deadline.
    """

    bindings: Bindings
    serials: tuple[int, ...]
    completion_serial: int
    emission_serial: int
    conjunct: int = 0

    @property
    def sort_key(self) -> tuple:
        return (self.emission_serial, self.completion_serial, self.serials)


def make_candidate(bindings: Bindings, emission_serial: int | None = None,
                   conjunct: int = 0) -> Candidate:
    serials = binding_serials(bindings)
    completion = serials[-1]
    return Candidate(
        bindings=dict(bindings),
        serials=serials,
        completion_serial=completion,
        emission_serial=completion if emission_serial is None else emission_serial,
        conjunct=conjunct,
    )


def _alias_ts_bounds(value) -> tuple[float, float]:
    if isinstance(value, Event):
        return value.timestamp, value.timestamp
    ts = [e.timestamp for e in value]
    return min(ts), max(ts)


def blocks(spec: NegationSpec, blocker: Event, bindings: Bindings,
           window: float) -> bool:
    """True when ``blocker`` forbids the match held in ``bindings``.

    The blocker must satisfy the spec's predicates and fall inside the
    absence interval: strictly between the predecessor and successor for
    sequences (window edges when the position borders the pattern), or
    anywhere inside the match window for conjunctions.
    """
    lo, hi = binding_span(bindings)
    ts = blocker.timestamp
    if spec.mode == "seq":
        if spec.predecessor is not None:
            if ts <= _alias_ts_bounds(bindings[spec.predecessor])[1]:
                return False
        elif ts < hi - window:
            return False
        if spec.successor is not None:
            if ts >= _alias_ts_bounds(bindings[spec.successor])[0]:
                return False
        elif ts > lo + window:
            return False
    else:
        if ts < hi - window or ts > lo + window:
            return False
    probe = dict(bindings)
    probe[spec.alias] = blocker
    return all(evaluate_predicate(p, probe) for p in spec.predicates)


def absence_deadline(bindings: Bindings, window: float) -> float:
    """Timestamp after which no further blocker can invalidate the match."""
    lo, _ = binding_span(bindings)
    return lo + window


def final_at_checkpoint(spec: NegationSpec) -> bool:
    """Whether the absence test is already exact at the plan's checkpoint.

    That needs the blocker's interval pinned on both sides by members
    bound at the checkpoint: then neither window edge is ever the binding
    constraint, every qualifying blocker has arrived (timestamps are
    non-decreasing and the upper bound is strict), and the test gives the
    same answer as on the full match.  Everything else is decided once
    the match completes, where the window edges are known and the
    outcome cannot depend on plan order.
    """
    if spec.needs_pending:
        return False
    if spec.mode == "seq":
        if spec.predecessor is None or spec.successor is None:
            return False
        allowed = {spec.predecessor, spec.successor, spec.alias}
        return all(set(p.aliases()) <= allowed for p in spec.predicates)
    return spec.ts_confined


def checkpoint_slots(plan: Plan, negations, base: int = 0) -> dict[str, int]:
    """Slot of each negated alias's checkpoint: its plan position less ``base``.

    Order plans number their steps from 1 and tree plans index their
    nodes in post-order from 0.  A negated position the plan gives no
    checkpoint is a ``ContractError``.
    """
    slot = {c.alias: c.position - base for c in plan.checkpoints}
    for spec in negations:
        if spec.alias not in slot:
            raise ContractError(
                f"plan lacks a checkpoint for negated position {spec.alias!r}"
            )
    return slot


class _PendingMatch:
    """A full match whose absence test stays open until its deadline.

    Blockers that could still invalidate it are applied as they arrive,
    so resolution itself needs no buffer scan.
    """

    __slots__ = ("bindings", "deadline")

    def __init__(self, bindings: Bindings, deadline: float):
        self.bindings = bindings
        self.deadline = deadline


class AbsenceTracker:
    """Absence state of one conjunct, held by either engine.

    A slot is an order-plan step or a tree node.  A spec whose test is
    exact at its checkpoint is checked at that slot; every other spec is
    checked on the full match, and when blockers may still arrive after
    completion the match waits as pending until its deadline.  The engine
    passes the blocker test ``blocks`` into each call, so every engine's
    tests are counted under its own module's name.
    """

    def __init__(self, negations, slot_of: dict[str, int], slots: int,
                 window: float):
        self.window = window
        self.at_slot: list[list[NegationSpec]] = [[] for _ in range(slots)]
        completion: list[NegationSpec] = []
        for spec in negations:
            if final_at_checkpoint(spec):
                self.at_slot[slot_of[spec.alias]].append(spec)
            elif not spec.needs_pending:
                completion.append(spec)
        self.pending_specs = tuple(s for s in negations if s.needs_pending)
        self.on_completion = tuple(completion) + self.pending_specs
        self.pending_types = frozenset(s.type_name for s in self.pending_specs)
        self.buffers: dict[str, list[Event]] = {
            s.type_name: [] for s in negations
        }
        self.pending: list[_PendingMatch] = []

    @property
    def buffered(self) -> int:
        return sum(len(b) for b in self.buffers.values())

    def blocked_at(self, slot: int, bindings: Bindings, blocks) -> bool:
        """Whether a buffered blocker rules out a partial match at ``slot``."""
        for spec in self.at_slot[slot]:
            for blocker in self.buffers[spec.type_name]:
                if blocks(spec, blocker, bindings, self.window):
                    return True
        return False

    def complete(self, bindings: Bindings, out: list[Candidate],
                 emission_serial: int, blocks) -> None:
        """Emit a full match, hold it as pending, or drop it as blocked."""
        for spec in self.on_completion:
            for blocker in self.buffers[spec.type_name]:
                if blocks(spec, blocker, bindings, self.window):
                    return
        if self.pending_specs:
            self.pending.append(_PendingMatch(
                bindings, absence_deadline(bindings, self.window)
            ))
            return
        out.append(make_candidate(bindings, emission_serial))

    def arrive(self, event: Event, out: list[Candidate], blocks) -> None:
        """Release the pending matches whose deadline ``event`` passes,
        cancel those it blocks, and buffer it if it is a blocker."""
        if self.pending:
            self._release(event.timestamp, event.serial, out)
            if event.type_name in self.pending_types:
                self.pending = [
                    entry for entry in self.pending
                    if not any(
                        spec.type_name == event.type_name
                        and blocks(spec, event, entry.bindings, self.window)
                        for spec in self.pending_specs
                    )
                ]
        buffer = self.buffers.get(event.type_name)
        if buffer is not None:
            buffer.append(event)

    def evict(self, horizon: float) -> None:
        for buffer in self.buffers.values():
            while buffer and buffer[0].timestamp < horizon:
                buffer.pop(0)

    def end(self, max_serial: int) -> list[Candidate]:
        """Release every pending match once the stream has ended."""
        out: list[Candidate] = []
        self._release(float("inf"), max_serial + 1, out)
        return out

    def _release(self, now_ts: float, emission_serial: int,
                 out: list[Candidate]) -> None:
        keep = []
        for entry in self.pending:
            if now_ts > entry.deadline:
                out.append(make_candidate(entry.bindings, emission_serial))
            else:
                keep.append(entry)
        self.pending = keep


class SelectionReplay:
    """Turns per-arrival candidate batches into reported matches.

    Candidates inside a batch are ordered canonically (emission serial,
    completion serial, sorted member serials), which makes the outcome
    identical across plans and engines.  Under skip-till-any-match every
    distinct event set is reported once; the consuming strategies accept
    greedily, claim their events, and skip any candidate touching a
    claimed event.
    """

    def __init__(self, strategy_kind: str = ANY_MATCH):
        self.consume = strategy_kind != ANY_MATCH
        self._claimed: set[int] = set()
        self._seen: set[tuple[int, ...]] = set()

    def offer(self, batch: list[Candidate]) -> list[Candidate]:
        accepted = []
        for cand in sorted(batch, key=lambda c: c.sort_key):
            if cand.serials in self._seen:
                continue
            if self.consume and any(s in self._claimed for s in cand.serials):
                continue
            self._seen.add(cand.serials)
            if self.consume:
                self._claimed.update(cand.serials)
            accepted.append(cand)
        return accepted


def make_report(candidate: Candidate, alias_order: tuple[str, ...],
                detected_at: float = 0.0, latency: float = 0.0) -> MatchReport:
    groups = []
    for alias in alias_order:
        value = candidate.bindings.get(alias)
        if value is None:
            continue
        if isinstance(value, Event):
            groups.append((alias, (value.serial,)))
        else:
            groups.append((alias, tuple(sorted(e.serial for e in value))))
    lo, hi = binding_span(candidate.bindings)
    return MatchReport(
        serials=candidate.serials,
        groups=tuple(groups),
        ts_min=lo,
        ts_max=hi,
        emit_serial=candidate.emission_serial,
        completion_serial=candidate.completion_serial,
        detected_at=detected_at,
        latency=latency,
    )


@dataclass
class EngineMetrics:
    """Structure-count runtime metrics shared by both engines.

    ``memory_peak`` is the peak of live partial matches plus buffered
    events observed after any single arrival, the portable stand-in for
    byte-level memory measurements.
    """

    events: int = 0
    matches: int = 0
    live_partials: int = 0
    peak_partials: int = 0
    buffered: int = 0
    peak_buffered: int = 0
    memory_peak: int = 0
    instances_created: int = 0
    kl_overflows: int = 0
    latency_samples: list[float] = field(default_factory=list)
    per_node_peak: dict[str, int] = field(default_factory=dict)

    def note_usage(self) -> None:
        if self.live_partials > self.peak_partials:
            self.peak_partials = self.live_partials
        if self.buffered > self.peak_buffered:
            self.peak_buffered = self.buffered
        combined = self.live_partials + self.buffered
        if combined > self.memory_peak:
            self.memory_peak = combined

    def note_node(self, node_id: str, count: int) -> None:
        if count > self.per_node_peak.get(node_id, 0):
            self.per_node_peak[node_id] = count


class ArrivalClock:
    """Wall-clock arrival times, for per-match detection latency."""

    def __init__(self):
        self._at: dict[int, float] = {}

    def stamp(self, serial: int) -> None:
        self._at[serial] = time.perf_counter()

    def latency_since(self, serial: int) -> float:
        start = self._at.get(serial)
        if start is None:
            return 0.0
        return time.perf_counter() - start
