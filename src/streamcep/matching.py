"""Shared runtime semantics for the two evaluation engines.

Both engines reduce a conjunct to the same currency: per processed
event, the full matches it completes or releases, each as its bindings
and the arrival time of its completing event; the runner emits them
under the arrival's serial.  This module holds what must agree between
them so the engines themselves keep only their joins and extensions: the
engine core with its absence tests and pending matches, the match record
``make_report`` builds once per match, the blocker test ``blocks``, the
selection-strategy replay, and the metrics snapshot.

``EngineCore`` is one conjunct's state in either engine.  A slot is a
chain position of the NFA or a node of the tree engine.  The engine
supplies one rule, ``_slot_of``: the first slot where every named alias
is bound (the NFA's latest position among them, the tree's lowest
covering node).  The core places everything by it: each predicate
becomes a condition of its slot, each Kleene alias its slot, and each
``ts_confined`` absence test the slot of its dependencies.  A predicate
on a Kleene alias alone is a member filter of its slot: a member that
fails it fails every group holding it, and both engines draw every group
through ``_groups``, by ``kleene_groups`` over the pooled members, and
the arrival, that pass.  A group passes a filter against a literal
exactly when each member does; one between two of the alias's references
compares every pair of members, so it stays a condition too.  Per slot the
core keeps the stored ``Partial`` records and a floor on their
``min_ts``; per type it keeps the raw-event pools the engine and the
absence tests draw on (every Kleene type's members, every negated
type's blockers, the NFA's backlog buffers).  A type is never both
positive and negated in one conjunct, and a blocker joins nothing, so
``_settle`` pools every arrival after its joins.  A ``Partial`` carries
its bindings' earliest and latest timestamps, and every window and
absence test reads that one span; a Kleene group keeps pool order, so
its first and last members give its own.

Every slot's store is a keyed store: a dict from key to a bucket of
records in store order.  The engine supplies a second rule,
``_join_sides``: which slot's conditions a probe of the slot tests, and
which aliases sit on the stored side and which on the probe side.  The
``=`` conditions among them that join a ``serial`` or ``pserial`` on one
side to one on the other, neither a Kleene alias, make the key: the
contiguity rewrite's ``b.serial = a.serial + 1`` and
``b.pserial = a.pserial + 1``.  A record's key is its stored-side values
and a probe's key its probe-side values, so a probe reads the one bucket
whose records can meet those conditions; each candidate in it is still
tested against every condition by ``evaluate_predicate``, one call per
condition, which runs the predicate's compiled tester.  A slot with no
such condition keeps one bucket under ``()``.  Only serial adjacency is
keyed: a user's ``=`` on a user attribute may compare text with a
number, which ``evaluate_predicate`` refuses with a ``DataError`` and a
hash lookup would hide.

A slot that one alias probes (every NFA position after the first, every
tree node whose sibling is a leaf) is probed only by arrivals.  Serials
strictly increase, so once arrival ``S`` is settled, ``_settle`` drops
each bucket whose key holds ``v`` where the probe's holds its ``serial``
plus ``d``, and ``v - d <= S``.  A ``pserial`` part is not cut: a
partition's next ``pserial`` does not follow from the global serial.

``live`` and ``held`` count stored partials and held events (pooled
events, blockers among them, and records in ``held_slots``, the tree's
singleton leaves) on every store, prune and eviction, so no arrival
recounts them.

It also holds the engines' time index.  Events arrive in time order, so
every per-type pool is sorted by timestamp.  ``ts_order`` reads the
strict ``x.ts < y.ts`` predicates of a conjunct, or of a negated
position, once, and ``TimeRange`` turns them and the window into the
timestamps the next alias to bind, or a blocker, may take; the engines
and the absence tests bisect their pools to that range and test
only what lies inside, still through the module-level
``evaluate_predicate`` and ``blocks``.  A negated position's predicates
are thus the only description of its absence interval.  The same order
gives the store rule, ``stored``: a later arrival has a timestamp at or
after every bound event, so it can never bind an alias that must precede
a bound one, and a slot whose probe-side aliases all must precede one of
its stored aliases stores nothing.

The absence tests are the core's own.  ``_place`` gives each negation
one ``TimeRange``, built from its dependencies, the only aliases its
predicates order it against.  A ``ts_confined`` spec, which always has
dependencies, is tested on every partial at its checkpoint slot, the
first where they are all bound: its predicates pin the blocker between
members bound there, and, the upper bound being strict and timestamps
non-decreasing, every qualifying blocker has arrived by then.  Every
other spec is tested on the full match, where the window edges are
known and the outcome cannot depend on plan order.  When blockers may
still arrive after completion, the match waits in ``pending`` with its
own arrival time, which its latency runs from, until its deadline: the
first arrival more than a window after its ``min_ts``, which no blocker
can reach.  Each arrival first cancels the pending matches it blocks.

Eviction runs once per arrival, at its end, with the span test's own
comparison.  The core keeps one horizon, the oldest timestamp anything
it holds may bind, and returns at once while no stored record, pooled
event or pending match can have expired.  Every record binds the arrival
or events already held, so nothing stored after a pass is older than the
horizon that pass left.  A pass cuts each bucket in place, finding the
slot's oldest ``min_ts`` as it goes, and deletes the emptied ones, so a
store never holds more keys than records.  The same pass releases each
pending match the arrival is more than a window past, by the same
comparison; the oldest pending ``min_ts``
bounds the horizon, so no pass is skipped while a pending match is due.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations
from operator import attrgetter

from .model import (
    ANY_MATCH,
    AttrRef,
    ContractError,
    Event,
    MatchReport,
    evaluate_predicate,
)
from .transform import NegationSpec, NormalizedConjunct, ts_bound

Bindings = dict[str, object]  # alias -> Event | tuple[Event, ...]

DEFAULT_KL_CAP = 8  # the largest Kleene group either engine builds

TIMESTAMP = attrgetter("timestamp")
# the canonical order of a batch: emission serial, completion serial, serials
REPORT_ORDER = attrgetter("emit_serial", "completion_serial", "serials")


def make_report(bindings: Bindings, alias_order: tuple[str, ...],
                emit_serial: int, arrived: float = 0.0,
                conjunct: int = 0) -> MatchReport:
    """The record of one full match, built in one pass over the bindings
    in ``alias_order``: the sorted serials and the per-alias groups."""
    serials: list[int] = []
    groups = []
    for alias in alias_order:
        value = bindings[alias]
        if isinstance(value, Event):
            group = (value.serial,)
        else:
            group = tuple(sorted(e.serial for e in value))
        serials.extend(group)
        groups.append((alias, group))
    serials.sort()
    return MatchReport(tuple(serials), tuple(groups), emit_serial, serials[-1],
                       conjunct, arrived)


def ts_order(predicates) -> frozenset[tuple[str, str]]:
    """Alias pairs ``(earlier, later)`` the predicates order strictly in time.

    ``x.ts < y.ts`` and ``y.ts > x.ts`` with no offset each give
    ``(x, y)`` (see ``ts_bound``), whether ``seq_to_and`` or the user
    wrote them; the set is closed transitively.  A Kleene alias meets
    such a bound only if every member does, so each pair orders every
    event bound to ``earlier`` before every event bound to ``later``.
    """
    pairs = set()
    for pred in predicates:
        bound = ts_bound(pred)
        if bound is not None and bound[2]:
            pairs.add(bound[:2])
    aliases = {alias for pair in pairs for alias in pair}
    for via in aliases:  # Warshall's closure
        earlier = [a for a in aliases if (a, via) in pairs]
        later = [b for b in aliases if (via, b) in pairs]
        pairs.update((a, b) for a in earlier for b in later)
    return frozenset(pairs)


class TimeRange:
    """Where the events of the next alias to bind, or a blocker, may fall.

    Given the aliases already bound, ``ts_order`` pins the next alias
    strictly after the latest event of each alias in ``after`` and
    strictly before the earliest event of each alias in ``before``; the
    window keeps it within ``window`` of every bound event.  ``bisect``
    cuts a time-ordered list down to that range.  The window edges are
    found with the engines' own span test, so no float rounding can
    make the cut disagree with it.
    """

    __slots__ = ("after", "before", "window")

    def __init__(self, alias: str, bound, order: frozenset, window: float):
        self.after = tuple(b for b in bound if (b, alias) in order)
        self.before = tuple(b for b in bound if (alias, b) in order)
        self.window = window

    def bisect(self, items: list, key, bindings: Bindings, min_ts: float,
               max_ts: float) -> list:
        lo, hi = 0, len(items)
        if self.after:
            floor = max(_alias_ts_bounds(bindings[a])[1] for a in self.after)
            lo = bisect_right(items, floor, key=key)
        if self.before:
            ceiling = min(_alias_ts_bounds(bindings[a])[0] for a in self.before)
            hi = bisect_left(items, ceiling, lo, hi, key=key)
        window = self.window
        lo = bisect_left(items, True, lo, hi,
                         key=lambda item: max_ts - key(item) <= window)
        hi = bisect_left(items, True, lo, hi,
                         key=lambda item: key(item) - min_ts > window)
        return items[lo:hi]


def evict_expired(pools, latest: float, window: float) -> tuple[int, float]:
    """Drop from each time-ordered pool the prefix no later span can
    reach; return how many events that was and the oldest timestamp
    left (``inf`` when every pool is empty).

    An event has expired once ``latest - ts > window``, the span test's
    own comparison; ``ts < latest - window`` can round the other way and
    drop an event a later span would still accept.
    """
    dropped, oldest = 0, math.inf
    for events in pools:
        if events and latest - events[0].timestamp > window:
            cut = bisect_left(events, True,
                              key=lambda e: latest - e.timestamp <= window)
            del events[:cut]
            dropped += cut
        if events and events[0].timestamp < oldest:
            oldest = events[0].timestamp
    return dropped, oldest


def kleene_groups(pool: list[Event], cap: int, metrics: EngineMetrics,
                  last: Event | None = None) -> list[tuple[Event, ...]]:
    """Every Kleene group of at most ``cap`` events drawn from ``pool`` in
    its order, each ending with ``last`` when it is given (an arrival that
    every group must hold).  A pool of more qualifying members than a
    group can hold counts one overflow in ``metrics``."""
    tail = () if last is None else (last,)
    room = cap - len(tail)
    if len(pool) > room:
        metrics.kl_overflows += 1
    return [
        combo + tail
        for size in range(1 - len(tail), min(len(pool), room) + 1)
        for combo in combinations(pool, size)
    ]


SERIAL_ATTRIBUTES = frozenset(("serial", "pserial"))


def serial_equalities(conditions, stored, probe, kleene) -> tuple:
    """The key of a keyed store, as ``(stored part, probe part)`` pairs.

    Each ``=`` condition between two ``serial``/``pserial`` references,
    one to an alias in ``stored`` and one to an alias in ``probe``, none
    a Kleene alias, gives one pair; a part is ``(alias, attribute,
    offset)`` and the offset sits on the part of the predicate's right
    side.  ``key_of`` then makes a stored record's key and a probe's key
    equal exactly when every such condition holds.  Both attributes are
    integers the program assigns, so hashing them cannot hide a
    comparison error that ``evaluate_predicate`` would raise.
    """
    pairs = []
    for pred in conditions:
        left, right = pred.left, pred.right
        if (pred.comparator != "=" or not isinstance(right, AttrRef)
                or left.attribute not in SERIAL_ATTRIBUTES
                or right.attribute not in SERIAL_ATTRIBUTES
                or left.alias in kleene or right.alias in kleene):
            continue
        left_part = (left.alias, left.attribute, 0.0)
        right_part = (right.alias, right.attribute, pred.right_offset)
        if left.alias in stored and right.alias in probe:
            pairs.append((left_part, right_part))
        elif left.alias in probe and right.alias in stored:
            pairs.append((right_part, left_part))
    return tuple(pairs)


def key_of(parts, bindings: Bindings) -> tuple:
    """The values of ``parts`` in ``bindings``, each plus its offset."""
    key = ()
    for alias, attribute, offset in parts:
        key += (bindings[alias].value(attribute) + offset,)
    return key


def _alias_ts_bounds(value) -> tuple[float, float]:
    if isinstance(value, Event):
        return value.timestamp, value.timestamp
    return value[0].timestamp, value[-1].timestamp  # groups keep pool order


class Partial:
    """A partial or full match: its bindings and the earliest and latest
    timestamps they hold, the span every window and absence test reads."""

    __slots__ = ("bindings", "min_ts", "max_ts")

    def __init__(self, bindings: Bindings, min_ts: float, max_ts: float):
        self.bindings = bindings
        self.min_ts = min_ts
        self.max_ts = max_ts


def blocks(spec: NegationSpec, blocker: Event, match: Partial) -> bool:
    """True when ``blocker`` satisfies the spec's predicates against
    ``match``, which carry any order a sequence put on it.

    Callers pass only blockers inside the match window: ``_blocked`` cuts
    the pool with the span test's own comparisons, and pending matches
    past their deadline are never tested.
    """
    probe = dict(match.bindings)
    probe[spec.alias] = blocker
    for p in spec.predicates:
        if not evaluate_predicate(p, probe):
            return False
    return True


class SelectionReplay:
    """Turns per-arrival batches of match records into reported matches.

    Records inside a batch are ordered canonically (emission serial,
    completion serial, sorted member serials), which makes the outcome
    identical across plans and engines.  Under skip-till-any-match every
    distinct event set is reported once; the consuming strategies accept
    greedily, claim their events, and skip any record touching a claimed
    event.  One conjunct makes each event set at most once, since its
    types are distinct and a serial set fixes the bindings, so only a
    disjunction (``conjuncts > 1``) keeps the sets it has reported.
    """

    def __init__(self, strategy_kind: str, conjuncts: int):
        self.consume = strategy_kind != ANY_MATCH
        self.dedupe = conjuncts > 1
        self._claimed: set[int] = set()
        self._seen: set[tuple[int, ...]] = set()

    def offer(self, batch: list[MatchReport]) -> list[MatchReport]:
        if len(batch) > 1:
            batch = sorted(batch, key=REPORT_ORDER)
        if not (self.consume or self.dedupe):
            return batch
        accepted = []
        for report in batch:
            serials = report.serials
            if self.dedupe and serials in self._seen:
                continue
            if self.consume and not self._claimed.isdisjoint(serials):
                continue
            if self.dedupe:
                self._seen.add(serials)
            if self.consume:
                self._claimed.update(serials)
            accepted.append(report)
        return accepted


@dataclass
class EngineMetrics:
    """Runtime counts shared by both engines.  ``live_partials`` counts
    stored partials and pending matches, ``held`` the events held in
    pools (backlog, Kleene and blocker pools) and in the tree's singleton
    leaves.  The core keeps both up to date on every store, prune and
    eviction, so they are exact after every processed event;
    ``peak_buffered`` is the peak of ``held``."""

    matches: int = 0
    live_partials: int = 0
    peak_partials: int = 0
    held: int = 0
    peak_buffered: int = 0
    instances_created: int = 0
    kl_overflows: int = 0
    latency_total: float = 0.0

    def note_usage(self) -> None:
        if self.live_partials > self.peak_partials:
            self.peak_partials = self.live_partials
        if self.held > self.peak_buffered:
            self.peak_buffered = self.held


class EngineCore:
    """One conjunct's slots, placement, keyed stores, absence tests,
    counts and eviction; see the module docstring.  An engine calls
    ``__init__``, builds its shape, then ``_place``; per arrival it calls
    ``_arrive``, draws Kleene groups through ``_groups``, does its joins
    through ``_bucket`` and ``_store``, tests each new partial with
    ``_blocked`` and hands each full match to ``_complete``, and closes
    with ``_settle``, which pools the arrival if its type has a pool.  The
    engine passes its own module's ``blocks`` into each absence call and
    its ``evaluate_predicate`` into ``_groups``, so every engine's tests
    are counted under its own module's name."""

    held_slots: frozenset[int] = frozenset()

    def __init__(self, plan_types, conjunct: NormalizedConjunct, kl_cap: int):
        core = conjunct.core
        self.type_alias = {l.type_name: l.alias for l in core.leaves()}
        if set(plan_types) != set(self.type_alias):
            raise ContractError(
                "plan types do not match the pattern's positive types"
            )
        self.window = core.window
        self.alias_order = tuple(l.alias for l in core.leaves())
        self.time_order = ts_order(core.predicates)
        self.kl_cap = kl_cap
        # each Kleene type's members and each negated type's blockers; an
        # engine adds its own pools
        self.pools: dict[str, list[Event]] = {t: [] for t in conjunct.kl_types()}
        self.pools.update((spec.type_name, []) for spec in conjunct.negations)
        # (full match, arrival time of its completing event) per match
        # that waits for its trailing absence interval to close
        self.pending: list[tuple[Partial, float]] = []
        self.arrived = 0.0  # the current arrival's time
        self.live = 0
        self.held = 0
        # the oldest timestamp anything held may bind, as of the last
        # eviction pass (before the first one, no bound)
        self.horizon = -math.inf
        self.metrics = EngineMetrics()

    def _slot_of(self, aliases) -> int:
        """The first slot where every alias in ``aliases`` is bound."""
        raise NotImplementedError

    def _join_sides(self, slot: int):
        """How a join probes ``slot``: the slot whose conditions it tests,
        the aliases bound on the stored side and on the probe side; None
        for a slot no join probes."""
        raise NotImplementedError

    def _place(self, conjunct: NormalizedConjunct, slots: int) -> None:
        alias = self.type_alias
        kleene = frozenset(alias[t] for t in conjunct.kl_types())
        self.kl_slots = frozenset(self._slot_of((a,)) for a in kleene)
        self.conditions: list[list] = [[] for _ in range(slots)]
        self.member_filters: list[list] = [[] for _ in range(slots)]
        for pred in conjunct.core.predicates:
            slot = self._slot_of(pred.aliases())
            if len(pred.aliases()) == 1 and pred.left.alias in kleene:
                self.member_filters[slot].append(pred)
                if not isinstance(pred.right, AttrRef):
                    continue
            self.conditions[slot].append(pred)
        # (spec, the blocker's range) per absence test, by where it runs;
        # a spec's time order names no alias but its dependencies
        self.slot_checks: list[list] = [[] for _ in range(slots)]
        completion, pending = [], []
        for spec in conjunct.negations:
            bound = [alias[t] for t in spec.dependencies]
            check = (spec, TimeRange(spec.alias, bound, ts_order(spec.predicates),
                                     self.window))
            if spec.ts_confined:
                self.slot_checks[self._slot_of(bound)].append(check)
            elif spec.needs_pending:
                pending.append(check)
            else:
                completion.append(check)
        self.pending_checks = tuple(pending)
        self.completion_checks = tuple(completion + pending)
        self.pending_types = frozenset(spec.type_name for spec, _ in pending)
        sides = [self._join_sides(slot) for slot in range(slots)]
        # the store rule of the module docstring: where an engine may _store
        order = self.time_order
        self.stored = [side is not None and not all(
            any((p, s) in order for s in side[1]) for p in side[2]) for side in sides]
        self.key_pairs = [
            () if side is None else serial_equalities(
                self.conditions[side[0]], side[1], side[2], kleene)
            for side in sides
        ]
        self.stored_key = [tuple(s for s, _ in pairs) for pairs in self.key_pairs]
        self.probe_key = [tuple(p for _, p in pairs) for pairs in self.key_pairs]
        # (slot, key index, probe offset) per serial part of a one-alias probe
        self.serial_cuts = [
            (slot, j, probe[2])
            for slot, (side, pairs) in enumerate(zip(sides, self.key_pairs))
            for j, (_, probe) in enumerate(pairs)
            if probe[1] == "serial" and len(side[2]) == 1
        ]
        self.records: list[dict[tuple, list[Partial]]] = [{} for _ in range(slots)]
        self.oldest = [math.inf] * slots

    def _bucket(self, slot: int, bindings: Bindings) -> Sequence[Partial]:
        """The records of ``slot`` whose key equals the probe's: the only
        ones the slot's serial equalities can accept, in store order.
        Callers skip an empty store before building the probe."""
        parts = self.probe_key[slot]
        return self.records[slot].get(key_of(parts, bindings) if parts else (), ())

    def _groups(self, slot: int, pool: list[Event], evaluate,
                last: Event | None = None) -> list[tuple[Event, ...]]:
        """``kleene_groups`` over the members of ``pool`` that pass the
        member filters of ``slot``, each ending with ``last`` when it is
        given; none when ``last`` fails them."""
        filters = self.member_filters[slot]
        if filters:
            alias = filters[0].left.alias
            if last is not None and not all(evaluate(p, {alias: last}) for p in filters):
                return []
            pool = [e for e in pool if all(evaluate(p, {alias: e}) for p in filters)]
        return kleene_groups(pool, self.kl_cap, self.metrics, last)

    def _store(self, slot: int, record: Partial) -> None:
        parts = self.stored_key[slot]
        key = key_of(parts, record.bindings) if parts else ()
        store = self.records[slot]
        bucket = store.get(key)
        if bucket is None:
            store[key] = [record]
        else:
            bucket.append(record)
        if record.min_ts < self.oldest[slot]:
            self.oldest[slot] = record.min_ts
        if slot in self.held_slots:
            self.held += 1
        else:
            self.live += 1

    def _uncount(self, slot: int, count: int) -> None:
        if slot in self.held_slots:
            self.held -= count
        else:
            self.live -= count

    def _arrive(self, event: Event, arrived: float, blocks) -> None:
        """Record the arrival's time and cancel the pending matches it
        blocks.  A match whose deadline it passes is not tested: the
        arrival's eviction pass releases it."""
        self.arrived = arrived
        if self.pending and event.type_name in self.pending_types:
            ts, window = event.timestamp, self.window
            self.pending = [
                (match, at) for match, at in self.pending
                if ts - match.min_ts > window or not any(
                    spec.type_name == event.type_name
                    and blocks(spec, event, match)
                    for spec, _ in self.pending_checks
                )
            ]

    def _blocked(self, checks, match: Partial, blocks) -> bool:
        """Whether a pooled blocker rules out ``match`` under one of
        ``checks``: ``blocks`` sees only the blockers its spec's range
        leaves in the pool."""
        for spec, time_range in checks:
            for blocker in time_range.bisect(
                    self.pools[spec.type_name], TIMESTAMP, match.bindings,
                    match.min_ts, match.max_ts):
                if blocks(spec, blocker, match):
                    return True
        return False

    def _complete(self, match: Partial, out: list, blocks) -> None:
        """Emit a full match, hold it as pending, or drop it as blocked."""
        if self._blocked(self.completion_checks, match, blocks):
            return
        if self.pending_checks:
            self.pending.append((match, self.arrived))
        else:
            out.append((match.bindings, self.arrived))

    def _release(self, latest: float, out: list) -> float:
        """Emit each pending match whose deadline ``latest`` passes; return
        the oldest ``min_ts`` still pending (``inf`` when none is)."""
        keep, oldest = [], math.inf
        for match, at in self.pending:
            if latest - match.min_ts > self.window:
                out.append((match.bindings, at))
            else:
                keep.append((match, at))
                if match.min_ts < oldest:
                    oldest = match.min_ts
        self.pending = keep
        return oldest

    def _settle(self, event: Event, out: list) -> None:
        """Close one arrival: pool it, drop the buckets no later arrival
        can probe, evict what the window has passed and release into
        ``out`` the pending matches it has, if the horizon says anything
        has, and note the state counts."""
        pool = self.pools.get(event.type_name)
        if pool is not None:
            pool.append(event)
            self.held += 1
        serial = event.serial
        for slot, j, offset in self.serial_cuts:
            store = self.records[slot]
            if store:
                limit, dropped = serial + offset, 0
                for key in list(store):
                    if key[j] <= limit:
                        dropped += len(store.pop(key))
                self._uncount(slot, dropped)
        latest = event.timestamp
        if latest - self.horizon > self.window:
            self._evict(latest, out)
        metrics = self.metrics
        metrics.live_partials = self.live + len(self.pending)
        metrics.held = self.held
        metrics.note_usage()

    def _evict(self, latest: float, out: list) -> None:
        window, oldest = self.window, self.oldest
        horizon = latest
        for slot, store in enumerate(self.records):
            if latest - oldest[slot] > window:
                dropped, first = 0, math.inf
                for key, bucket in list(store.items()):
                    kept = []  # a plain loop: most buckets hold one record
                    for r in bucket:
                        if latest - r.min_ts <= window:
                            kept.append(r)
                            if r.min_ts < first:
                                first = r.min_ts
                    if len(kept) < len(bucket):
                        dropped += len(bucket) - len(kept)
                        if kept:
                            bucket[:] = kept
                        else:
                            del store[key]
                oldest[slot] = first
                self._uncount(slot, dropped)
            if oldest[slot] < horizon:
                horizon = oldest[slot]
        dropped, pooled = evict_expired(self.pools.values(), latest, window)
        self.held -= dropped
        pending = self._release(latest, out)
        self.horizon = min(horizon, pooled, pending)

    def end(self) -> list:
        """Release every pending match once the stream has ended."""
        out: list = []
        self._release(math.inf, out)
        return out
