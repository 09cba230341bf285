"""Seeded inputs for the benchmark workloads.

Everything a run feeds the program is made here from the workload's seed:
the event stream (``streamcep.Event`` records) and the pattern texts.  The
program only ever sees these generated inputs.

Per-type arrival rates form a fixed geometric ladder from 0.25/s to 2/s.
The seed decides which type name sits on which rung, every event time,
attribute value and partition, and so the type names in every pattern.
The shape of each pattern -- which rate rungs it uses in which order,
where its negated or Kleene position sits, and which positions its
predicates compare -- is drawn once per (family, size) from a fixed
generator, so runs with different seeds measure the same kind of work
on different data.
"""
from __future__ import annotations

import hashlib
import random
import string
from dataclasses import dataclass

from streamcep import Event

RATE_LO, RATE_HI = 0.25, 2.0
ATTRIBUTE = "difference"
PARTITION = "part"
COMPARATORS = ("<", "<=", ">")  # ">" reads as "<" with the sides swapped


@dataclass(frozen=True)
class PatternSpec:
    """One generated pattern: an id, its text, and its selection strategy."""

    pattern_id: str
    family: str
    size: int
    text: str
    strategy: str = "any-match"
    plan: bool = True  # planned by every planner
    replay: bool = True  # run over the stream


@dataclass(frozen=True)
class Inputs:
    events: tuple[Event, ...]
    duration: float
    patterns: tuple[PatternSpec, ...]


def rate_ladder(count: int) -> list[float]:
    step = (RATE_HI / RATE_LO) ** (1.0 / (count - 1))
    return [RATE_LO * step ** k for k in range(count)]


def make_stream(rng: random.Random, types: list[str], duration: float,
                partitions: int = 0) -> tuple[tuple[Event, ...], list[str]]:
    """Merged arrival processes, one per type, each at its rung's rate.

    A type with rate r gets r * duration events, one in each slot of 1/r
    seconds at a uniform offset inside the slot.  Every window of the
    stream then holds close to rate * window events of each type, for
    every seed; with Poisson arrivals the bursts at the start of the
    stream decided how far a cell got before its budget, and that swung
    the figures of the cut cells two- to threefold from seed to seed.
    Every event carries a uniform ``difference`` in [-1, 1]; with
    ``partitions`` it also carries an integer ``part`` in [0, partitions).
    Returns the events and the type names from the slowest rung up.
    """
    rungs = rate_ladder(len(types))
    names = rng.sample(types, len(types))
    pending = []
    for name, rate in sorted(zip(names, rungs)):
        count = round(rate * duration)
        for ts in ((k + rng.random()) * duration / count for k in range(count)):
            attrs = {ATTRIBUTE: rng.uniform(-1.0, 1.0)}
            if partitions:
                attrs[PARTITION] = rng.randrange(partitions)
            pending.append((ts, name, attrs))
    pending.sort(key=lambda item: (item[0], item[1]))
    events = tuple(
        Event(type_name=name, timestamp=ts, serial=serial, attrs=attrs)
        for serial, (ts, name, attrs) in enumerate(pending)
    )
    return events, names


def _stratified_types(rng: random.Random, ranked: list[str], size: int) -> list[str]:
    """One type from each of ``size`` contiguous rate strata."""
    picked = []
    for k in range(size):
        lo = k * len(ranked) // size
        hi = (k + 1) * len(ranked) // size
        picked.append(ranked[rng.randrange(lo, hi)])
    return picked


def _predicates(rng: random.Random, groups: list[list[str]], count: int) -> list[str]:
    """Attribute comparisons between aliases of one group.

    All comparisons agree with one hidden ranking of the aliases, so the
    conjunction can always hold and no pattern is empty by contradiction.
    """
    rich = [g for g in groups if len(g) >= 2]
    rank = {alias: rng.random() for g in rich for alias in g}
    out = []
    for _ in range(count):
        left, right = rng.sample(rng.choice(rich), 2)
        op = rng.choice(COMPARATORS)
        if (rank[left] < rank[right]) != (op != ">"):
            left, right = right, left
        out.append(f"{left}.{ATTRIBUTE} {op} {right}.{ATTRIBUTE}")
    return out


def pattern_text(rng: random.Random, ranked: list[str], family: str, size: int,
                 window: float) -> str:
    """Text of one pattern of the given family and size.

    A negated position is interior and carries no predicate; a Kleene
    position takes the pattern's middle type by rate.
    """
    strata = _stratified_types(rng, ranked, size)
    special = strata[size // 2] if family == "kleene" else None
    order = list(strata)
    rng.shuffle(order)
    aliases = [t.lower() for t in order]
    leaves = [f"{t} {a}" for t, a in zip(order, aliases)]
    groups = [aliases]
    if family == "sequence":
        root = f"SEQ({', '.join(leaves)})"
    elif family == "conjunction":
        root = f"AND({', '.join(leaves)})"
    elif family == "negation":
        at = rng.randrange(1, size - 1)
        leaves[at] = f"NOT({leaves[at]})"
        groups = [aliases[:at] + aliases[at + 1:]]
        root = f"SEQ({', '.join(leaves)})"
    elif family == "kleene":
        at = order.index(special)
        leaves[at] = f"KL({leaves[at]})"
        root = f"SEQ({', '.join(leaves)})"
    elif family == "disjunction":
        split = (size + 1) // 2
        groups = [aliases[:split], aliases[split:]]
        root = (f"OR(SEQ({', '.join(leaves[:split])}), "
                f"SEQ({', '.join(leaves[split:])}))")
    else:
        raise ValueError(f"unknown family {family!r}")
    preds = _predicates(rng, groups, max(1, size // 2))
    return f"PATTERN {root} WHERE ({' AND '.join(preds)}) WITHIN {window:g} seconds"


@dataclass(frozen=True)
class WorkloadShape:
    """What a workload generates; ``strategies`` multiply the pattern list."""

    types: int
    duration: float
    window: float
    families: tuple[str, ...]
    sizes: tuple[int, ...]
    strategies: tuple[str, ...] = ("any-match",)
    partitions: int = 0
    # when set, only copies of these families' patterns under this strategy
    # are replayed, and the patterns themselves are only planned
    replay_strategy: str | None = None
    replay_families: tuple[str, ...] = ()


def generate(shape: WorkloadShape, seed: int) -> Inputs:
    rng = random.Random(f"perfbench/{seed}")
    types = list(string.ascii_uppercase[:shape.types])
    events, ranked = make_stream(rng, types, shape.duration, shape.partitions)
    patterns = []
    for family in shape.families:
        for size in shape.sizes:
            shape_rng = random.Random(f"perfbench-shape/{family}-{size}")
            text = pattern_text(shape_rng, ranked, family, size, shape.window)
            for strategy in shape.strategies:
                suffix = "" if len(shape.strategies) == 1 else f"-{strategy.split('-')[0]}"
                patterns.append(PatternSpec(
                    f"{family}-{size}{suffix}", family, size, text, strategy,
                    replay=shape.replay_strategy is None,
                ))
            if family in shape.replay_families:
                strategy = shape.replay_strategy
                patterns.append(PatternSpec(
                    f"{family}-{size}-{strategy.split('-')[0]}", family, size,
                    text, strategy, plan=False,
                ))
    return Inputs(events, shape.duration, tuple(patterns))


def event_digest(events) -> str:
    h = hashlib.sha256()
    for e in events:
        h.update(f"{e.serial}|{e.type_name}|{e.timestamp!r}|{sorted(e.attrs.items())!r}\n".encode())
    return h.hexdigest()[:16]


def pattern_digest(patterns) -> str:
    h = hashlib.sha256()
    for p in patterns:
        h.update(f"{p.pattern_id}|{p.strategy}|{p.text}\n".encode())
    return h.hexdigest()[:16]
