"""Lazy chain NFA executing an order plan.

A chain of n+1 states accepts the plan's n positive positions in plan
order, regardless of arrival order: events are pooled per type, a
partial match forks over the already-pooled backlog the moment it is
created, and is extended directly by later arrivals.  Each full match is
therefore materialized exactly once, at the arrival of its final (by
serial) contributing event.  The chain's positions are the
``EngineCore`` slots; a position binds the aliases of every position up
to it.  A position stores its partials keyed by the aliases bound before
it, and an arrival of its type probes with itself, so under contiguity
an arrival reads only the partials whose last event it directly follows;
the core drops the buckets no later arrival can probe.

A backlog fork bisects the pool to the position's ``TimeRange``: after
every bound alias the predicates order before it, before every one they
order after it, and within the window.  A position that must precede an
alias bound earlier in the chain is dead: no later arrival can fill it,
so the core's store rule stores none of its partials, which are forked
over the backlog, and arrivals of its type probe nothing.  A positive
type is pooled only if some backlog fork can draw on it: every partial
that reaches a position holds the newest arrival at an earlier one, so
when the predicates order every earlier position before it, its backlog
fork starts after that arrival and is empty.  The core pools every
Kleene type, which its own arrivals read, and every negated type's
blockers as well.
"""
from __future__ import annotations

import math

from .matching import (
    DEFAULT_KL_CAP,
    TIMESTAMP,
    EngineCore,
    Partial,
    TimeRange,
    blocks,
)
from .model import (
    Event,
    OrderPlan,
    evaluate_predicate,
)
from .transform import NormalizedConjunct


class NfaEngine(EngineCore):
    def __init__(self, plan: OrderPlan, conjunct: NormalizedConjunct,
                 kl_cap: int = DEFAULT_KL_CAP):
        super().__init__(plan.order, conjunct, kl_cap)
        self.types = plan.order
        self.aliases = tuple(self.type_alias[t] for t in plan.order)
        self.position_of = {t: i for i, t in enumerate(plan.order)}
        self._place(conjunct, len(plan.order))
        self.ranges = [
            TimeRange(alias, self.aliases[:i], self.time_order, self.window)
            for i, alias in enumerate(self.aliases)
        ]
        # The pooling rule of the module docstring.
        self.pools.update((t, []) for i, t in enumerate(plan.order)
                          if len(self.ranges[i].after) < i)

    def _slot_of(self, aliases) -> int:
        return max(self.aliases.index(a) for a in aliases)

    def _join_sides(self, position: int):
        # an arrival at a position probes the partials stored there
        if position == 0:
            return None
        return position, self.aliases[:position], (self.aliases[position],)

    def _backlog_values(self, partial: Partial, position: int):
        """Creation-time fork values for a partial's next position: the
        pooled events inside its time range, or Kleene groups of them."""
        pool = self.pools.get(self.types[position])
        if not pool:
            return ()
        pool = self.ranges[position].bisect(
            pool, TIMESTAMP, partial.bindings, partial.min_ts, partial.max_ts,
        )
        if position in self.kl_slots:
            return self._groups(position, pool, evaluate_predicate)
        return pool

    def _try_extend(self, partial: Partial, position: int, value,
                    out: list) -> None:
        if isinstance(value, Event):
            first = last = value.timestamp
        else:  # a group keeps pool order
            first, last = value[0].timestamp, value[-1].timestamp
        lo = first if first < partial.min_ts else partial.min_ts
        hi = last if last > partial.max_ts else partial.max_ts
        if hi - lo > self.window:
            return
        bindings = dict(partial.bindings)
        bindings[self.aliases[position]] = value
        for p in self.conditions[position]:
            if not evaluate_predicate(p, bindings):
                return
        new = Partial(bindings, lo, hi)
        if self._blocked(self.slot_checks[position], new, blocks):
            return
        self.metrics.instances_created += 1
        position += 1
        if position == len(self.types):
            self._complete(new, out, blocks)
            return
        if self.stored[position]:
            self._store(position, new)
        for value in self._backlog_values(new, position):
            self._try_extend(new, position, value, out)

    def process_event(self, event: Event, arrived: float) -> list:
        """Feed one arrival; return the matches it completes or releases,
        as ``(bindings, arrival time of the completing event)``."""
        out: list = []
        self._arrive(event, arrived, blocks)
        position = self.position_of.get(event.type_name)
        if position is not None and (position == 0 or self.stored[position]):
            if position in self.kl_slots:
                values = self._groups(position, self.pools[event.type_name],
                                      evaluate_predicate, event)
            else:
                values = (event,)
            if position == 0:
                root = Partial({}, math.inf, -math.inf)
                for value in values:
                    self._try_extend(root, 0, value, out)
            elif self.records[position]:
                probe = {self.aliases[position]: event}
                for partial in self._bucket(position, probe):
                    for value in values:
                        self._try_extend(partial, position, value, out)
        self._settle(event, out)
        return out
