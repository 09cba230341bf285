"""Event sources, synthetic streams, and statistics estimation.

Sources materialize their events (desk scale) and guarantee the stream
contract: non-decreasing timestamps, strictly increasing serials.
"""
from __future__ import annotations

import csv
import math
import operator
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import repeat

from .model import (
    AttrRef,
    ContractError,
    DataError,
    Event,
    Literal,
    OPERATORS,
    Pattern,
    Predicate,
    StatisticsCatalog,
    _NUMERIC,
    interpret_predicate,
    predicate_selectivity_key,
)

CSV_COLUMNS = ("identifier", "timestamp", "price")

DEFAULT_PAIR_SAMPLE = 100_000


@dataclass
class StreamSource:
    """A finite, replayable event stream."""

    events: tuple[Event, ...]
    duration: float
    origin: str = "memory"

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


def _check_monotone(events: list[Event], origin: str,
                    lines: list[int] | None = None) -> None:
    """Timestamps must be finite and non-decreasing.  An error names the
    event's serial, or its line in ``lines`` for events read from a file."""
    last = -math.inf
    for event in events:
        ts = event.timestamp
        if ts < last or not math.isfinite(ts):
            problem = (
                f"timestamp {ts} is not finite" if not math.isfinite(ts)
                else "timestamps decrease"
            )
            if lines:
                raise DataError(f"{origin}:{lines[event.serial]}: {problem}")
            raise DataError(f"{origin}: {problem} at serial {event.serial}")
        last = ts


def from_events(events, duration: float | None = None,
                origin: str = "memory") -> StreamSource:
    """Wrap an event list, validating the stream contract."""
    events = list(events)
    for serial, event in enumerate(events):
        if event.serial != serial:
            raise DataError(
                f"{origin}: serial {event.serial} at position {serial}"
            )
    _check_monotone(events, origin)
    if duration is None:
        duration = (
            events[-1].timestamp - events[0].timestamp if events else 0.0
        )
    return StreamSource(tuple(events), duration, origin)


# ---------------------------------------------------------------------------
# CSV ingestion


def ingest_csv(path: str) -> StreamSource:
    """Read an ``identifier,timestamp,price`` file into typed events.

    Each identifier becomes an event type; a ``difference`` attribute
    carries the price change against the previous event of the same
    identifier (0 for the first).
    """
    events: list[Event] = []
    lines: list[int] = []
    last_price: dict[str, float] = {}
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        serial = 0
        for line, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if line == 1 and tuple(c.strip().lower() for c in row) == CSV_COLUMNS:
                continue
            if len(row) != 3:
                raise DataError(f"{path}:{line}: expected 3 columns, got {len(row)}")
            identifier = row[0].strip()
            if not identifier:
                raise DataError(f"{path}:{line}: empty identifier")
            try:
                timestamp = float(row[1])
                price = float(row[2])
            except ValueError as exc:
                raise DataError(f"{path}:{line}: {exc}") from None
            if not math.isfinite(price):
                raise DataError(f"{path}:{line}: price {price} is not finite")
            previous = last_price.get(identifier)
            difference = 0.0 if previous is None else price - previous
            last_price[identifier] = price
            events.append(Event(
                type_name=identifier,
                timestamp=timestamp,
                serial=serial,
                attrs={"price": price, "difference": difference},
            ))
            lines.append(line)
            serial += 1
    _check_monotone(events, path, lines)
    duration = events[-1].timestamp - events[0].timestamp if events else 0.0
    return StreamSource(tuple(events), duration, origin=path)


# ---------------------------------------------------------------------------
# Synthetic generation


@dataclass(frozen=True)
class SyntheticConfig:
    """Poisson arrivals per type with uniform attribute values.

    ``attributes`` maps attribute name to a uniform (low, high) range,
    shared by all types.
    """

    rates: dict[str, float]
    duration: float
    seed: int = 0
    attributes: dict[str, tuple[float, float]] = field(
        default_factory=lambda: {"x": (0.0, 1.0)}
    )

    def __post_init__(self) -> None:
        for name, rate in self.rates.items():
            if not rate > 0:
                raise DataError(f"rate for {name!r} must be positive")
        if not self.duration > 0:
            raise DataError("duration must be positive")


def generate_synthetic(config: SyntheticConfig) -> StreamSource:
    """Merge independent Poisson processes into one stream."""
    rng = random.Random(config.seed)
    pending: list[tuple[float, str, dict]] = []
    for type_name in sorted(config.rates):
        rate = config.rates[type_name]
        ts = 0.0
        while True:
            ts += rng.expovariate(rate)
            if ts >= config.duration:
                break
            attrs = {
                name: rng.uniform(lo, hi)
                for name, (lo, hi) in sorted(config.attributes.items())
            }
            pending.append((ts, type_name, attrs))
    pending.sort(key=lambda item: (item[0], item[1]))
    events = tuple(
        Event(type_name=name, timestamp=ts, serial=serial, attrs=attrs)
        for serial, (ts, name, attrs) in enumerate(pending)
    )
    return StreamSource(events, config.duration, origin="synthetic")


# ---------------------------------------------------------------------------
# Statistics estimation


def _window_spans(events_a: list[Event], events_b: list[Event], window: float):
    """Two-pointer walk: per event a, in order, ``(start, stop, own)``
    where ``events_b[start:stop]`` are the events whose timestamps differ
    from a's by at most the window.  ``own`` is a's index in events_b when
    both lists are one type's events (a is never paired with itself; by
    the stream contract serials are unique, so no other pair is lost),
    else -1."""
    same = events_a is events_b
    size = len(events_b)
    start = stop = 0
    for index, a in enumerate(events_a):
        while start < size and events_b[start].timestamp < a.timestamp - window:
            start += 1
        stop = max(stop, start)
        while stop < size and events_b[stop].timestamp <= a.timestamp + window:
            stop += 1
        yield start, stop, index if same else -1


def _numeric_column(events: list[Event], attribute: str, offset: float):
    """Each event's value of ``attribute`` plus ``offset``, or None unless
    every event has the attribute, every value is a number and every sum
    is one; the events themselves are then the column."""
    try:
        values = [event.value(attribute) for event in events]
        if not all(map(isinstance, values, repeat(_NUMERIC))):
            return None
        return [value + offset for value in values] if offset else values
    except (DataError, OverflowError):
        return None


def _pair_hits(predicate: Predicate, events_a: list[Event], events_b: list[Event],
               spans: list, indices) -> int:
    """How many of the pairs at ``indices`` (a ``range`` of all of them, or
    a sorted draw) satisfy a two-alias predicate.

    Each side is a column, and each a's entry is compared with its
    partners' by one C-level ``map``.  Numbers are read once per event
    and compared by the bare operator.  Any other column (text, None, a
    missing attribute) is the events themselves, compared by
    ``interpret_predicate``, whose answers the engines' testers give:
    text = and != are measured, and an error is raised only when a
    measured pair reaches it, as the same error.  A drawn index falls in
    the span whose offsets hold it, at its place there, one position
    further once it reaches a's own; the unsampled walk slices around
    a's own.
    """
    left = _numeric_column(events_a, predicate.left.attribute, 0)
    right = _numeric_column(events_b, predicate.right.attribute, predicate.right_offset)
    if left is None or right is None:
        left, right = events_a, events_b
        a_alias, b_alias = predicate.aliases()

        def compare(a: Event, b: Event) -> bool:
            return interpret_predicate(predicate, {a_alias: a, b_alias: b})
    else:
        compare = OPERATORS[predicate.comparator]
    if isinstance(indices, range):
        return sum(
            sum(map(compare, repeat(av, stop - start), right[start:stop])) if own < 0
            else sum(map(compare, repeat(av, own - start), right[start:own]))
            + sum(map(compare, repeat(av, stop - own - 1), right[own + 1:stop]))
            for av, (start, stop, own) in zip(left, spans)
        )
    hits = lo = offset = 0
    for av, (start, stop, own) in zip(left, spans):
        end = offset + stop - start - (own >= 0)
        hi = bisect_left(indices, end, lo)
        shift = start - offset
        cut = hi if own < 0 else bisect_left(indices, own - shift, lo, hi)
        for first, last, step in ((lo, cut, shift), (cut, hi, shift + 1)):
            partners = map(right.__getitem__,
                           map(operator.add, indices[first:last], repeat(step)))
            hits += sum(map(compare, repeat(av, last - first), partners))
        lo, offset = hi, end
    return hits


def _type_resolved(predicate: Predicate, alias_types: dict[str, str]) -> tuple:
    """A predicate's form with each alias replaced by its type name.

    The alias count is kept so that a filter comparing two attributes of
    one event stays apart from the same comparison across two events.
    """

    def term(side: AttrRef | Literal) -> AttrRef | Literal:
        if isinstance(side, Literal):
            return side
        return AttrRef(alias_types[side.alias], side.attribute)

    return (
        len(predicate.aliases()),
        term(predicate.left),
        predicate.comparator,
        term(predicate.right),
        predicate.right_offset,
    )


def estimate_statistics(
    source: StreamSource,
    patterns,
    max_pairs: int = DEFAULT_PAIR_SAMPLE,
    seed: int = 0,
) -> StatisticsCatalog:
    """Rates and the combined selectivity per key measured from a stream.

    The selectivity of a predicate is the satisfied fraction over sampled
    event pairs co-resident within the pattern's window (events of one
    type for single-position filters).  The in-window pairs are counted
    and at most ``max_pairs`` of them drawn.  Values are compared by
    column: each event's value is read once, and the drawn pairs are
    compared in C.  A column holding anything but numbers (text, None, a
    missing attribute) is the events themselves, each drawn pair is
    compared by ``interpret_predicate``, and one that cannot be compared
    raises the engines' error.  Per catalog key, distinct predicates
    multiply, matching the catalog's combined-selectivity meaning; a
    repeated one counts once.  A predicate is identified by its
    type-resolved form (each alias replaced by its type name), so a copy
    in another pattern, under other aliases, is the same predicate; it is
    measured under the window of the first pattern that names it.
    """
    if max_pairs < 1:
        raise ContractError(f"max_pairs must be at least 1, not {max_pairs}")
    if isinstance(patterns, Pattern):
        patterns = [patterns]
    events = list(source.events)
    by_type: dict[str, list[Event]] = {}
    for event in events:
        by_type.setdefault(event.type_name, []).append(event)

    if source.duration <= 0:
        raise DataError("stream duration is zero; rates are undefined")
    needed = sorted({
        l.type_name for pattern in patterns for l in pattern.leaves()
    })
    for name in needed:
        if not by_type.get(name):
            raise DataError(f"no events of type {name!r} in the stream")
    rates = {
        name: len(by_type[name]) / source.duration for name in needed
    }

    rng = random.Random(seed)
    sels: dict[tuple[str, ...], float] = {}
    seen: set[tuple] = set()
    for pattern in patterns:
        alias_types = pattern.alias_types()
        for predicate in pattern.predicates:
            key = predicate_selectivity_key(pattern, predicate)
            form = _type_resolved(predicate, alias_types)
            if form in seen:
                continue
            seen.add(form)
            aliases = predicate.aliases()
            if len(aliases) == 1:
                alias = aliases[0]
                pool = by_type[alias_types[alias]]
                sample = pool
                if len(sample) > max_pairs:
                    sample = rng.sample(pool, max_pairs)
                hits = sum(
                    1 for e in sample if interpret_predicate(predicate, {alias: e})
                )
                fraction = hits / len(sample)
            else:
                events_a = by_type[alias_types[aliases[0]]]
                events_b = by_type[alias_types[aliases[1]]]
                spans = list(_window_spans(events_a, events_b, pattern.window))
                count = sum(stop - start - (own >= 0) for start, stop, own in spans)
                if not count:
                    continue
                indices = range(count)
                if count > max_pairs:
                    # the same draw as sampling the materialised pair list
                    indices = sorted(rng.sample(indices, max_pairs))
                hits = _pair_hits(predicate, events_a, events_b, spans, indices)
                fraction = hits / len(indices)
            sels[key] = sels.get(key, 1.0) * fraction
    return StatisticsCatalog(rates=rates, selectivities=sels)
