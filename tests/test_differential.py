"""Randomized differential test: every engine cell against the exhaustive matcher.

Each example draws a small pattern of one family, a short stream and a
catalog.  It runs every planner on every engine that can execute its
plan, and an arbitrary order and tree besides, and compares the report
lists (serials, groups, emission serial, in emission order) with
``oracle_match``.  Timestamps sit on a coarse grid
and windows are whole numbers of grid steps, so events of different
positions and blockers often share a timestamp and spans often equal
the window exactly; a 0.1 grid adds spans that miss the window only by
rounding.  Those ties are where a time index
drops or invents matches.  Two more slices add literal filters on any
position, which the engines test at a leaf, on a Kleene group's members
or on a blocker.  The Kleene slice also runs with a cap below
the pool size and compares against the matcher's reports whose Kleene
groups fit the cap, since the cap bounds group size and nothing else.
"""
from itertools import accumulate

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from streamcep.model import (
    AND,
    ANY_MATCH,
    AttrRef,
    Event,
    KLEENE,
    Leaf,
    Literal,
    NEXT_MATCH,
    NOT,
    OR,
    OperatorNode,
    OrderPlan,
    PARTITION_CONTIGUITY,
    Pattern,
    Predicate,
    SEQ,
    STRICT_CONTIGUITY,
    SelectionStrategy,
    StatisticsCatalog,
    TreePlan,
)
from streamcep.oracle import DEFAULT_CORESIDENT_LIMIT, oracle_match
from streamcep.plangen import (
    ALGORITHM_NAMES,
    TREE_ALGORITHMS,
    PlanBundle,
    PlannedConjunct,
    PlanSearchReport,
    generate_plan,
)
from streamcep.runner import PatternRunner
from streamcep.transform import normalize_pattern

from helpers import random_tree

TYPES = ("A", "B", "C", "D", "E")
CELLS = tuple(
    (algorithm, engine)
    for algorithm in ALGORITHM_NAMES
    for engine in ("nfa", "tree")
    if not (engine == "nfa" and algorithm in TREE_ALGORITHMS)
)
STRATEGIES = {
    "any": SelectionStrategy(ANY_MATCH),
    "next": SelectionStrategy(NEXT_MATCH),
    "strict": SelectionStrategy(STRICT_CONTIGUITY),
    "partition": SelectionStrategy(PARTITION_CONTIGUITY, partition_key="part"),
}
# contiguity is defined for plain sequences only
GRID = [
    (family, strategy)
    for family in ("sequence", "negation", "conjunction", "kleene", "disjunction")
    for strategy in STRATEGIES
    if family in ("sequence", "negation") or strategy in ("any", "next")
]


def _predicate(aliases, spec) -> Predicate:
    i, j, comparator, attribute, offset = spec
    left, right = aliases[i % len(aliases)], aliases[j % len(aliases)]
    return Predicate(AttrRef(left, attribute), comparator, AttrRef(right, attribute),
                     right_offset=offset)


@st.composite
def patterns(draw, family: str, strategy: str, step: float,
             filters: bool = False) -> Pattern:
    size = draw(st.integers(2 if family == "sequence" else 3, 4))
    types = draw(st.permutations(TYPES))[:size]
    aliases = [t.lower() for t in types]
    leaves = [Leaf(t, a) for t, a in zip(types, aliases)]
    op = SEQ
    if family == "conjunction":
        op = AND
    elif family == "negation":
        # any position, so blockers at the window edges and pending
        # matches are covered as well as interior absence
        at = draw(st.integers(0, size - 1))
        leaves[at] = Leaf(types[at], aliases[at], (NOT,))
        if strategy in ("any", "next"):
            op = draw(st.sampled_from([SEQ, AND]))
    elif family == "kleene":
        at = draw(st.integers(0, size - 1))
        leaves[at] = Leaf(types[at], aliases[at], (KLEENE,))
    if family == "disjunction":
        split = draw(st.integers(1, size - 1))
        root = OperatorNode(OR, (OperatorNode(SEQ, tuple(leaves[:split])),
                                 OperatorNode(SEQ, tuple(leaves[split:]))))
    else:
        root = OperatorNode(op, tuple(leaves))
    negated = [l.alias for l in leaves if l.negated]
    specs = draw(st.lists(
        st.tuples(
            st.integers(0, size - 1),
            st.integers(0, size - 1),
            st.sampled_from(["<", "<=", ">", ">=", "="]),
            st.sampled_from(["x", "x", "ts"]),
            st.sampled_from([0.0, 0.0, 0.0, 0.5]),
        ),
        max_size=2,
    ))
    preds = tuple(
        _predicate(aliases, spec) for spec in specs
        if spec[0] % size != spec[1] % size
    )
    if filters:
        # literal filters: one on the Kleene or negated position if there
        # is one, since the engines test it on more than the arrival (on
        # each group member, on each blocker), and at most one more
        # anywhere
        marked = [i for i, l in enumerate(leaves) if l.unary]
        spots = marked or [draw(st.integers(0, size - 1))]
        spots += draw(st.lists(st.integers(0, size - 1), max_size=1))
        # against 1, every comparator splits the drawn values 0, 1 and 2
        preds += tuple(
            Predicate(AttrRef(aliases[at], "x"),
                      draw(st.sampled_from(["<", "<=", ">", ">=", "=", "!="])),
                      Literal(draw(st.sampled_from([0, 1, 1, 1, 1.5]))))
            for at in spots
        )
    if len(negated) == 1 and op == AND and draw(st.booleans()):
        # a strict ts bound makes the absence test final before the window ends
        other = draw(st.sampled_from([a for a in aliases if a not in negated]))
        preds += (Predicate(AttrRef(negated[0], "ts"), "<", AttrRef(other, "ts")),)
    window = round(draw(st.integers(2, 8)) * step, 6)
    return Pattern(root, preds, window, STRATEGIES[strategy])


@st.composite
def streams(draw, types, step: float) -> list[Event]:
    """Up to 12 events that walk ``types`` in order a few times, each
    type 0-2 times per walk, with strays of a type no pattern names and
    a few neighbours swapped, so matches are common but not certain."""
    names: list[str] = []
    for _ in range(draw(st.integers(1, 3))):
        for name in types:
            names += [name] * draw(st.sampled_from([0, 1, 1, 2]))
        names += ["Z"] * draw(st.integers(0, 1))  # Z breaks strict contiguity
    names = names[:12]
    for i in draw(st.lists(st.integers(0, 10), max_size=2)):
        if i + 1 < len(names):
            names[i], names[i + 1] = names[i + 1], names[i]
    # a quarter of the neighbours share a timestamp
    gaps = draw(st.lists(st.sampled_from([0, 1, 1, 2]), min_size=len(names),
                         max_size=len(names)))
    return [
        Event(name, tick * step, serial,
              {"x": draw(st.integers(0, 2)), "part": draw(st.integers(0, 1))})
        for serial, (name, tick) in enumerate(zip(names, accumulate(gaps)))
    ]


def _canon(reports):
    return [(r.serials, r.groups, r.emit_serial) for r in reports]


def _drawn_bundles(pattern, data) -> tuple[PlanBundle, PlanBundle]:
    """An arbitrary order and an arbitrary tree per conjunct, so every
    plan shape is reached, not only those some planner prefers."""
    orders, trees = [], []
    for conjunct in normalize_pattern(pattern).conjuncts:
        names = data.draw(st.permutations(conjunct.runtime_types()))
        orders.append(OrderPlan(tuple(names)))
        shape = random_tree(names, data.draw(st.randoms(use_true_random=False)))
        trees.append(TreePlan(shape))
    report = PlanSearchReport("drawn", 0.0, 0.0, 1, 0.0)
    return tuple(
        PlanBundle("drawn", tuple(PlannedConjunct(plan, report) for plan in plans))
        for plans in (orders, trees)
    )


def _check_cells(pattern, events, rates, data, kl_cap=DEFAULT_CORESIDENT_LIMIT):
    expected = oracle_match(pattern, events)
    if kl_cap < DEFAULT_CORESIDENT_LIMIT:
        kleene = {l.alias for l in pattern.leaves() if l.kleene}
        expected = [
            r for r in expected
            if all(len(serials) <= kl_cap for alias, serials in r.groups if alias in kleene)
        ]
    stats = StatisticsCatalog(rates=dict(zip(sorted(pattern.alias_types().values()), rates)))
    order, tree = _drawn_bundles(pattern, data)
    cells = [
        (generate_plan(pattern, stats, algorithm), engine) for algorithm, engine in CELLS
    ] + [(order, "nfa"), (order, "tree"), (tree, "tree")]
    for bundle, engine in cells:
        runner = PatternRunner(pattern, bundle, engine=engine, kl_cap=kl_cap)
        got = runner.run(events).reports
        assert _canon(got) == _canon(expected), (bundle, engine)


STEPS = st.sampled_from([0.5, 0.1])
RATES = st.lists(st.sampled_from([0.1, 0.5, 2.0, 8.0]), min_size=4, max_size=4)
SETTINGS = settings(max_examples=25, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("family,strategy", GRID)
@SETTINGS
@given(data=st.data(), step=STEPS, rates=RATES)
def test_every_cell_agrees_with_the_oracle(family, strategy, data, step, rates):
    pattern = data.draw(patterns(family, strategy, step))
    events = data.draw(streams(tuple(l.type_name for l in pattern.leaves()), step))
    _check_cells(pattern, events, rates, data)


@pytest.mark.parametrize("family,strategy",
                         [cell for cell in GRID if cell[0] != "kleene"])
@SETTINGS
@given(data=st.data(), step=STEPS, rates=RATES)
def test_literal_filters_agree_with_the_oracle(family, strategy, data, step, rates):
    pattern = data.draw(patterns(family, strategy, step, filters=True))
    events = data.draw(streams(tuple(l.type_name for l in pattern.leaves()), step))
    _check_cells(pattern, events, rates, data)


# A Kleene group may hold only members its filter passes.  Few drawn
# examples reach a group with a member the filter turns away, inside the
# window and past the other predicates (a few in a hundred), so this
# slice draws more of them.
@pytest.mark.parametrize("strategy", ["any", "next"])
@settings(SETTINGS, max_examples=100)
@given(data=st.data(), step=STEPS, rates=RATES)
def test_kleene_filters_agree_with_the_oracle(strategy, data, step, rates):
    pattern = data.draw(patterns("kleene", strategy, step, filters=True))
    # the Kleene type walks twice in a row, so its pool holds members
    # that the filter passes and members that it turns away
    types = [t for l in pattern.leaves()
             for t in ([l.type_name] * (2 if l.kleene else 1))]
    events = data.draw(streams(types, step))
    _check_cells(pattern, events, rates, data)


@SETTINGS
@given(data=st.data(), step=STEPS, rates=RATES, kl_cap=st.integers(1, 3))
def test_kleene_cap_below_the_pool(data, step, rates, kl_cap):
    pattern = data.draw(patterns("kleene", "any", step))
    # the Kleene type walks twice in a row, so its pool outgrows the cap
    types = [t for l in pattern.leaves()
             for t in ([l.type_name] * (2 if l.kleene else 1))]
    events = data.draw(streams(types, step))
    _check_cells(pattern, events, rates, data, kl_cap)
