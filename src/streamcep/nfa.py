"""Lazy chain NFA executing an order plan.

A chain of n+1 states accepts the plan's n positive positions in plan
order, regardless of arrival order: events are buffered per type, a
partial match forks over the already-buffered backlog the moment it is
created, and is extended directly by later arrivals.  Each full match is
therefore materialized exactly once, at the arrival of its final (by
serial) contributing event.  The Kleene positions and the negation
checkpoints come from the conjunct, not the plan.  Absence of negated
positions is decided by the shared ``AbsenceTracker``, with the chain's
positions as its slots.

Buffers are in time order.  A backlog fork bisects the buffer to the
position's ``TimeRange``: after every bound alias the predicates order
before it, before every one they order after it, and within the window.
A position that must precede an alias bound earlier in the chain is
dead: no later arrival can fill it, so its partials are forked over the
backlog and never stored, and arrivals of its type probe nothing.
A type is buffered only if some backlog fork can draw on it: every
partial that reaches a position holds the newest arrival at an earlier
one, so when the predicates order every earlier position before it, its
backlog fork starts after that arrival and is empty.  The first position
is read only by its own Kleene arrivals.  Partials expire at the window
edge; a per-state oldest ``min_ts`` lets eviction skip the states where
nothing has expired.  The counts of stored partials and buffered events
change with every store, prune and eviction, so no arrival recounts them.
"""
from __future__ import annotations

import math
from itertools import combinations

from .matching import (
    DEFAULT_KL_CAP,
    TIMESTAMP,
    AbsenceTracker,
    EngineMetrics,
    TimeRange,
    blocks,
    evict_expired,
    ts_order,
)
from .model import (
    AttrRef,
    ContractError,
    Event,
    OrderPlan,
    Predicate,
    evaluate_predicate,
)
from .transform import NormalizedConjunct


class NfaChain:
    """Static structure of the chain: positions, conditions, checkpoints,
    the time range each position's backlog fork may draw from, and the
    types whose arrivals are buffered for those forks."""

    def __init__(self, plan: OrderPlan, conjunct: NormalizedConjunct):
        core = conjunct.core
        type_alias = {l.type_name: l.alias for l in core.leaves()}
        if set(plan.order) != set(type_alias):
            raise ContractError(
                "plan types do not match the pattern's positive types"
            )
        self.order = plan.order
        self.window = core.window
        self.alias_order = tuple(l.alias for l in core.leaves())
        self.aliases = tuple(type_alias[t] for t in plan.order)
        kl_types = conjunct.kl_types()
        self.kl_positions = frozenset(
            i for i, t in enumerate(plan.order) if t in kl_types
        )
        # Each predicate becomes a condition of the latest position among
        # its aliases; single-position predicates gate that position alone.
        # A negated position's checkpoint is, by the same rule, the latest
        # position among its dependencies.
        position_of = {type_alias[t]: i for i, t in enumerate(plan.order)}
        self.conditions: list[list[Predicate]] = [[] for _ in plan.order]
        for pred in core.predicates:
            last = max(position_of[a] for a in pred.aliases())
            self.conditions[last].append(pred)
        self.checkpoint_slot = {
            spec.alias: max(position_of[type_alias[t]] for t in spec.dependencies)
            for spec in conjunct.negations if spec.dependencies
        }
        order = ts_order(core.predicates)
        self.ranges = [
            TimeRange(alias, self.aliases[:i], order, self.window)
            for i, alias in enumerate(self.aliases)
        ]
        # A position that must precede an alias bound before it can take
        # no later arrival (arrivals come in time order), only its
        # backlog, which is forked over when the partial is made: such
        # partials are never stored, and arrivals there probe nothing.
        self.dead = [bool(r.before) for r in self.ranges]
        # The buffering rule of the module docstring.
        self.buffered = frozenset(
            t for i, t in enumerate(plan.order)
            if i in self.kl_positions or len(self.ranges[i].after) < i
        )
        # A full serial-adjacency chain pins every next binding to the
        # previous arrival, letting stale partials be dropped immediately
        # instead of at the window edge.  This changes no match set.
        pairs = list(zip(self.aliases, self.aliases[1:], range(1, len(self.order))))
        self.prune_stale = bool(pairs) and not self.kl_positions and all(
            self._serial_adjacent(a, b, i) for a, b, i in pairs
        )

    def _serial_adjacent(self, earlier: str, later: str, position: int) -> bool:
        for pred in self.conditions[position]:
            right = pred.right
            if (isinstance(right, AttrRef) and pred.comparator == "="
                    and pred.left.alias == later
                    and pred.left.attribute == "serial"
                    and right.alias == earlier and right.attribute == "serial"
                    and pred.right_offset == 1.0):
                return True
        return False


class _Partial:
    __slots__ = ("bindings", "state", "min_ts", "max_ts", "max_serial")

    def __init__(self, bindings: dict, state: int, min_ts: float,
                 max_ts: float, max_serial: int = -1):
        self.bindings = bindings
        self.state = state
        self.min_ts = min_ts
        self.max_ts = max_ts
        self.max_serial = max_serial


class NfaEngine:
    def __init__(self, plan: OrderPlan, conjunct: NormalizedConjunct,
                 kl_cap: int = DEFAULT_KL_CAP):
        self.chain = NfaChain(plan, conjunct)
        self.alias_order = self.chain.alias_order
        self.kl_cap = kl_cap
        self.window = self.chain.window
        self.buffers: dict[str, list[Event]] = {t: [] for t in self.chain.buffered}
        # stored partials and buffered events, kept on every store, prune
        # and eviction
        self.live = 0
        self.held = 0
        self.by_state: list[list[_Partial]] = [
            [] for _ in range(len(self.chain.order))
        ]
        # the oldest min_ts stored per state, so eviction rescans a state
        # only when something in it has expired
        self.oldest = [math.inf] * len(self.chain.order)
        self.absence = AbsenceTracker(
            conjunct.negations, self.chain.checkpoint_slot,
            len(self.chain.order), self.window,
        )
        self.metrics = EngineMetrics()
        self._position_of = {t: i for i, t in enumerate(self.chain.order)}

    # -- helpers -------------------------------------------------------------

    def _span_with(self, partial: _Partial, events) -> tuple[float, float]:
        lo, hi = partial.min_ts, partial.max_ts
        for e in events:
            lo = min(lo, e.timestamp)
            hi = max(hi, e.timestamp)
        return lo, hi

    def _conditions_hold(self, position: int, bindings: dict) -> bool:
        return all(
            evaluate_predicate(p, bindings)
            for p in self.chain.conditions[position]
        )

    def _position_values(self, position: int, event: Event) -> list:
        """Direct-extension values for a position: the event itself, or every
        capped subset of qualifying backlog joined with it for Kleene."""
        if position not in self.chain.kl_positions:
            return [event]
        backlog = [
            e for e in self.buffers[event.type_name] if e.serial < event.serial
        ]
        room = self.kl_cap - 1
        if len(backlog) > room:
            self.metrics.kl_overflows += 1
        values = []
        for size in range(0, min(len(backlog), room) + 1):
            for combo in combinations(backlog, size):
                values.append(combo + (event,))
        return values

    def _backlog_values(self, partial: _Partial) -> list:
        """Creation-time fork values for a partial's next position: the
        buffered events inside its time range, or capped subsets of them."""
        position = partial.state
        pool = self.buffers.get(self.chain.order[position])
        if not pool:
            return ()
        pool = self.chain.ranges[position].bisect(
            pool, TIMESTAMP, partial.bindings, partial.min_ts, partial.max_ts,
        )
        if position not in self.chain.kl_positions:
            return pool
        if len(pool) > self.kl_cap:
            self.metrics.kl_overflows += 1
        values = []
        for size in range(1, min(len(pool), self.kl_cap) + 1):
            for combo in combinations(pool, size):
                values.append(combo)
        return values

    def _try_extend(self, partial: _Partial, position: int, value,
                    out: list) -> None:
        events = (value,) if isinstance(value, Event) else value
        lo, hi = self._span_with(partial, events)
        if hi - lo > self.window:
            return
        bindings = dict(partial.bindings)
        bindings[self.chain.aliases[position]] = value
        if not self._conditions_hold(position, bindings):
            return
        if self.absence.blocked_at(position, bindings, blocks):
            return
        newest = max(partial.max_serial, max(e.serial for e in events))
        new = _Partial(bindings, position + 1, lo, hi, newest)
        self.metrics.instances_created += 1
        if new.state == len(self.chain.order):
            self.absence.complete(bindings, out, blocks)
            return
        if not self.chain.dead[new.state]:
            self.by_state[new.state].append(new)
            self.live += 1
            if lo < self.oldest[new.state]:
                self.oldest[new.state] = lo
        for value2 in self._backlog_values(new):
            self._try_extend(new, new.state, value2, out)

    # -- public protocol -----------------------------------------------------

    def process_event(self, event: Event, arrived: float) -> list:
        """Feed one arrival; return the matches it completes or releases,
        as ``(bindings, emission serial, arrival time)``."""
        out: list = []
        self.metrics.events += 1
        self.absence.arrive(event, arrived, out, blocks)
        buffer = self.buffers.get(event.type_name)
        if buffer is not None:
            buffer.append(event)
            self.held += 1
        position = self._position_of.get(event.type_name)
        if position is not None and not self.chain.dead[position]:
            values = self._position_values(position, event)
            if position == 0:
                root = _Partial({}, 0, math.inf, -math.inf)
                for value in values:
                    self._try_extend(root, 0, value, out)
            else:
                for partial in self.by_state[position]:
                    for value in values:
                        self._try_extend(partial, position, value, out)
        if self.chain.prune_stale:
            serial = event.serial
            for state in range(1, len(self.by_state)):
                partials = self.by_state[state]
                if partials:
                    kept = [p for p in partials if p.max_serial == serial]
                    self.live -= len(partials) - len(kept)
                    self.by_state[state] = kept
        self._evict(event.timestamp)
        metrics = self.metrics
        metrics.live_partials = self.live + len(self.absence.pending)
        metrics.buffered = self.held + self.absence.buffered
        metrics.note_usage()
        return out

    def end(self, max_serial: int) -> list:
        return self.absence.end(max_serial)

    def _evict(self, latest: float) -> None:
        window = self.window
        for buffer in self.buffers.values():
            self.held -= evict_expired(buffer, latest, window)
        self.absence.evict(latest)
        for state, partials in enumerate(self.by_state):
            if latest - self.oldest[state] > window:
                kept = [p for p in partials if latest - p.min_ts <= window]
                self.live -= len(partials) - len(kept)
                self.by_state[state] = kept
                self.oldest[state] = min((p.min_ts for p in kept), default=math.inf)
