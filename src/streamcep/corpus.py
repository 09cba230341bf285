"""The built-in pattern corpus and verification against exhaustive matching.

The corpus draws patterns from five structural families over random type
subsets of a fixed eight-type universe, with attribute-comparison
predicates at a density of about half the pattern size.  Verification
runs every applicable (algorithm, engine) cell over a stream and compares
its matches against the exhaustive matcher.
"""
from __future__ import annotations

import random
import string
from dataclasses import dataclass, replace

from .model import (
    AND,
    AttrRef,
    DataError,
    KLEENE,
    Leaf,
    NOT,
    OperatorNode,
    OR,
    Pattern,
    Predicate,
    SEQ,
    StatisticsCatalog,
    validate_pattern,
)
from .oracle import DEFAULT_CORESIDENT_LIMIT, oracle_match
from .plangen import (
    ALGORITHM_NAMES,
    PlanBundle,
    TREE_ALGORITHMS,
    generate_plan,
)
from .runner import PatternRunner
from .stream import StreamSource, SyntheticConfig, estimate_statistics, generate_synthetic

FAMILIES = ("sequence", "conjunction", "negation", "kleene", "disjunction")
ENGINES = ("nfa", "tree")
CORPUS_ATTRIBUTE = "difference"
CORPUS_UNIVERSE = tuple(string.ascii_uppercase[:8])
CORPUS_WINDOW = 6.0
CORPUS_SEED = 1309


@dataclass(frozen=True)
class GeneratedPattern:
    pattern_id: str
    pattern: Pattern


def _predicates(rng: random.Random, groups: list[list[str]], count: int):
    """Attribute comparisons between two events of one alias pool.

    ``groups`` are alias pools a predicate may not straddle (disjunction
    branches; predicates across branches would bind to no conjunct).  At
    sizes 3 to 5 every family has a pool of at least two aliases.
    """
    preds: list[Predicate] = []
    rich = [g for g in groups if len(g) >= 2]
    for _ in range(count):
        comparator = rng.choice(("<", "<=", ">"))
        group = rng.choice(rich)
        left, right = rng.sample(group, 2)
        preds.append(Predicate(
            AttrRef(left, CORPUS_ATTRIBUTE), comparator,
            AttrRef(right, CORPUS_ATTRIBUTE),
        ))
    return tuple(preds)


def _generate_pattern(family: str, size: int, rng: random.Random) -> Pattern:
    """One any-match pattern of the family over ``size`` corpus types."""
    types = rng.sample(list(CORPUS_UNIVERSE), size)
    aliases = [t.lower() for t in types]
    leaves = [Leaf(type_name=t, alias=a) for t, a in zip(types, aliases)]
    positives = list(aliases)
    groups = [positives]

    if family == "sequence":
        root = OperatorNode(SEQ, tuple(leaves))
    elif family == "conjunction":
        root = OperatorNode(AND, tuple(leaves))
    elif family == "negation":
        at = rng.randrange(1, size - 1)
        leaves[at] = replace(leaves[at], unary=(NOT,))
        positives = [a for i, a in enumerate(aliases) if i != at]
        groups = [positives]
        root = OperatorNode(SEQ, tuple(leaves))
    elif family == "kleene":
        at = rng.randrange(size)
        leaves[at] = replace(leaves[at], unary=(KLEENE,))
        root = OperatorNode(SEQ, tuple(leaves))
    else:  # disjunction
        split = (size + 1) // 2
        left = OperatorNode(SEQ, tuple(leaves[:split]))
        right = OperatorNode(SEQ, tuple(leaves[split:]))
        groups = [aliases[:split], aliases[split:]]
        root = OperatorNode(OR, (left, right))

    density = max(1, size // 2)
    pattern = Pattern(
        root=root,
        predicates=_predicates(rng, groups, density),
        window=CORPUS_WINDOW,
    )
    violations = validate_pattern(pattern)
    if violations:
        raise DataError(
            f"generated {family} pattern is invalid: {', '.join(violations)}"
        )
    return pattern


def builtin_corpus() -> tuple[GeneratedPattern, ...]:
    """Five families at sizes 3 to 5 over a fixed eight-type universe."""
    rng = random.Random(CORPUS_SEED)
    return tuple(
        GeneratedPattern(f"{family}-{size}-0", _generate_pattern(family, size, rng))
        for family in FAMILIES
        for size in (3, 4, 5)
    )


def corpus_stream(seed: int = CORPUS_SEED) -> StreamSource:
    """A toy stream small enough for the exhaustive matcher everywhere."""
    config = SyntheticConfig(
        rates={t: 0.12 for t in CORPUS_UNIVERSE},
        duration=90.0,
        seed=seed,
        attributes={CORPUS_ATTRIBUTE: (-1.0, 1.0)},
    )
    return generate_synthetic(config)


@dataclass(frozen=True)
class VerifyCell:
    algorithm: str
    engine: str
    passed: bool
    missing: tuple[str, ...] = ()
    extra: tuple[str, ...] = ()
    error: str | None = None


def _canon(reports):
    return [(r.serials, r.groups, r.emit_serial) for r in reports]


def _verify_stats(source: StreamSource, pattern: Pattern, seed: int) -> StatisticsCatalog:
    try:
        return estimate_statistics(source, pattern, seed=seed)
    except DataError:
        # a type absent from the toy stream still needs a rate for planning
        counts: dict[str, int] = {}
        for event in source.events:
            counts[event.type_name] = counts.get(event.type_name, 0) + 1
        duration = source.duration or 1.0
        rates = {}
        for leaf in pattern.leaves():
            seen = counts.get(leaf.type_name, 0)
            rates[leaf.type_name] = seen / duration if seen else 1.0
        return StatisticsCatalog(rates=rates)


def verify_pattern(
    pattern: Pattern,
    source: StreamSource,
    algorithms=ALGORITHM_NAMES,
    engines=ENGINES,
    seed: int = 0,
    kl_cap: int = DEFAULT_CORESIDENT_LIMIT,
    max_coresident: int = DEFAULT_CORESIDENT_LIMIT,
    bundle: PlanBundle | None = None,
) -> list[VerifyCell]:
    """Run each cell and compare its matches against exhaustive matching.

    With ``bundle`` given, only that plan is checked (one cell per engine
    kind it supports).
    """
    events = list(source.events)
    expected = _canon(oracle_match(pattern, events, max_coresident=max_coresident))
    stats = _verify_stats(source, pattern, seed)

    cells: list[VerifyCell] = []
    if bundle is not None:
        grid = [(bundle.algorithm, engine) for engine in engines]
    else:
        # the chain runtime executes processing orders only
        grid = [
            (algorithm, engine)
            for algorithm in algorithms
            for engine in engines
            if not (engine == "nfa" and algorithm in TREE_ALGORITHMS)
        ]
    for algorithm, engine in grid:
        try:
            cell_bundle = bundle if bundle is not None else generate_plan(
                pattern, stats, algorithm, seed=seed,
            )
            runner = PatternRunner(pattern, cell_bundle, engine=engine, kl_cap=kl_cap)
            got = _canon(runner.run(events).reports)
        except Exception as exc:
            cells.append(VerifyCell(
                algorithm=algorithm, engine=engine, passed=False,
                error=f"{type(exc).__name__}: {exc}",
            ))
            continue
        if got == expected:
            cells.append(VerifyCell(algorithm=algorithm, engine=engine, passed=True))
        else:
            want = {c[0] for c in expected}
            have = {c[0] for c in got}

            def fmt(keys):
                return tuple(",".join(str(s) for s in k) for k in sorted(keys))

            missing = fmt(want - have)
            extra = fmt(have - want)
            if not missing and not extra:
                # same serial sets but wrong grouping or emission order
                diff = [
                    f"order/groups differ at index {i}"
                    for i, (e, g) in enumerate(zip(expected, got)) if e != g
                ][:3]
                extra = tuple(diff) or ("report lists differ in length",)
            cells.append(VerifyCell(
                algorithm=algorithm, engine=engine, passed=False,
                missing=missing, extra=extra,
            ))
    return cells
