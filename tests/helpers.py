"""Shared builders and references for the test suite: catalogs, patterns,
streams, trees, brute-force planners and relational join costs."""
from __future__ import annotations

import itertools
import operator
import random
from typing import Mapping, Sequence, Union

import streamcep.model
import streamcep.nfa
import streamcep.tree_engine
from streamcep.matching import EngineCore, TimeRange, kleene_groups
from streamcep.model import (
    AttrRef,
    Leaf,
    OperatorNode,
    Pattern,
    Predicate,
    SEQ,
    StatisticsCatalog,
    TreeNode,
    TreePlan,
    join,
    leaf,
    selectivity_key,
)
from streamcep.runner import PatternRunner
from streamcep.stream import SyntheticConfig, generate_synthetic

UNIVERSE = tuple(chr(ord("A") + i) for i in range(12))


def random_catalog(rng: random.Random, n: int, *, sel_density: float = 0.6,
                   rate_lo: float = 0.1, rate_hi: float = 8.0) -> StatisticsCatalog:
    """A catalog of n types with log-uniform rates and random pair selectivities."""
    types = UNIVERSE[:n]
    rates = {
        t: rate_lo * (rate_hi / rate_lo) ** rng.random() for t in types
    }
    sels = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < sel_density:
                sels[selectivity_key(types[i], types[j])] = rng.uniform(0.05, 1.0)
    return StatisticsCatalog(rates=rates, selectivities=sels)


def seq_pattern(types, window: float, predicates=(), aliases=None) -> Pattern:
    if aliases is None:
        aliases = [t.lower() for t in types]
    leaves = tuple(Leaf(t, a) for t, a in zip(types, aliases))
    return Pattern(OperatorNode(SEQ, leaves), tuple(predicates), window)


def offset_pred(a: str, b: str, shift: float, comparator: str = "<") -> Predicate:
    """a.x < b.x + shift over the synthetic uniform attribute."""
    return Predicate(AttrRef(a, "x"), comparator, AttrRef(b, "x"),
                     right_offset=shift)


def workload_pattern(rng: random.Random, size: int, window: float,
                     density: int, off_lo: float = -0.8,
                     off_hi: float = 0.2) -> tuple[tuple[str, ...], Pattern]:
    """A random sequence pattern with offset-comparison predicates.

    The offsets control joint selectivity; drawing them from a range below
    zero keeps most predicates selective without starving the match count.
    """
    types = tuple(rng.sample(UNIVERSE, size))
    aliases = [t.lower() for t in types]
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    rng.shuffle(pairs)
    preds = [
        offset_pred(aliases[i], aliases[j], rng.uniform(off_lo, off_hi))
        for i, j in pairs[:density]
    ]
    return types, seq_pattern(types, window, preds, aliases)


def workload_stream(types, seed: int, target_events: int, spread: float,
                    min_expected: float = 6.0):
    """A synthetic stream with log-uniform per-type rates.

    Rate sets that would leave some type practically absent are redrawn so
    statistics estimation always has support.
    """
    rng = random.Random(seed)
    for _ in range(64):
        rates = {t: 2.0 ** rng.uniform(-spread, spread) for t in types}
        duration = target_events / sum(rates.values())
        if duration * min(rates.values()) >= min_expected:
            break
    cfg = SyntheticConfig(rates=rates, duration=duration, seed=seed,
                          attributes={"x": (0.0, 1.0)})
    return generate_synthetic(cfg)


def descending_stream(types, seed: int, target_events: int, spread: float):
    """A stream whose rates fall along the pattern positions.

    Later positions are rarer, the regime where processing the final type
    early pays off in partial-match count but costs detection latency.
    """
    rng = random.Random(seed)
    draws = sorted((2.0 ** rng.uniform(-spread, spread) for _ in types),
                   reverse=True)
    rates = dict(zip(types, draws))
    duration = max(target_events / sum(draws), 8.0 / draws[-1])
    cfg = SyntheticConfig(rates=rates, duration=duration, seed=seed,
                          attributes={"x": (0.0, 1.0)})
    return generate_synthetic(cfg)


def all_tree_shapes(names) -> list[TreeNode]:
    """Every binary tree over the given leaf sequence, by split recursion."""
    names = list(names)
    if len(names) == 1:
        return [leaf(names[0])]
    shapes = []
    for cut in range(1, len(names)):
        for left_node in all_tree_shapes(names[:cut]):
            for right_node in all_tree_shapes(names[cut:]):
                shapes.append(join(left_node, right_node))
    return shapes


def first_minimum(candidates, price):
    """The first candidate of least price, and that price."""
    best = best_cost = None
    for candidate in candidates:
        cost = price(candidate)
        if best_cost is None or cost < best_cost:
            best, best_cost = candidate, cost
    return best, best_cost


def brute_force_order(model) -> tuple[tuple[str, ...], float]:
    """The cheapest order of a CostModel's types, by enumeration."""
    return first_minimum(itertools.permutations(model.types), model.order_total)


def brute_force_tree(model) -> tuple[TreeNode, float]:
    """The cheapest tree over a CostModel's types, by enumeration."""
    trees = (
        tree
        for perm in itertools.permutations(model.types)
        for tree in all_tree_shapes(perm)
    )
    return first_minimum(trees, model.tree_total)


def pairs_within(events_a, events_b, window: float):
    """All (a, b) pairs whose timestamps differ by at most the window, an
    event never paired with itself: the pair list statistics estimation
    samples from."""
    start = 0
    for a in events_a:
        while start < len(events_b) and events_b[start].timestamp < a.timestamp - window:
            start += 1
        i = start
        while i < len(events_b) and events_b[i].timestamp <= a.timestamp + window:
            b = events_b[i]
            if b.serial != a.serial:
                yield a, b
            i += 1


def random_tree(names, rng: random.Random) -> TreeNode:
    nodes = [leaf(n) for n in names]
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        nodes[i:i + 2] = [join(nodes[i], nodes[i + 1])]
    return nodes[0]


def match_keys(reports) -> set[tuple[int, ...]]:
    return {r.serials for r in reports}


def grouped_keys(reports) -> set[tuple]:
    return {(r.serials, r.groups) for r in reports}


# ---------------------------------------------------------------------------
# Relational references: left-deep and bushy join cost over cardinalities,
# against which the paper's equivalence (plan cost = join cost under
# |R_i| = W*r_i) is checked.


def cost_ldj(
    order: Sequence[str],
    cardinalities: Mapping[str, float],
    selectivities: Mapping[tuple[str, ...], float],
) -> float:
    """Left-deep join cost: C_1 plus the cardinality of every intermediate.

    The first relation is charged ``|R|*f`` for its own filter; joining a
    relation multiplies in its filter and every predicate connecting it to
    the relations already joined.
    """
    names = tuple(order)
    if not names:
        return 0.0
    sels = _normalize_sels(selectivities)

    def f(a: str, b: str) -> float:
        return sels.get(selectivity_key(a, b), 1.0)

    intermediate = cardinalities[names[0]] * f(names[0], names[0])
    total = intermediate
    for k in range(1, len(names)):
        new = names[k]
        step = cardinalities[new] * f(new, new)
        for prev in names[:k]:
            step *= f(prev, new)
        intermediate = intermediate * step
        total += intermediate
    return total


def _normalize_sels(
    selectivities: Mapping[tuple[str, ...], float]
) -> dict[tuple[str, ...], float]:
    out: dict[tuple[str, ...], float] = {}
    for key, value in selectivities.items():
        if isinstance(key, str):
            out[(key,)] = value
        elif len(key) == 1:
            out[(key[0],)] = value
        else:
            out[selectivity_key(key[0], key[1])] = value
    return out


def cost_bj(
    tree: Union[TreePlan, TreeNode],
    cardinalities: Mapping[str, float],
    selectivities: Mapping[tuple[str, ...], float],
) -> float:
    """Bushy join cost over relation cardinalities: every node is charged
    the cardinality of its output (leaves: the relation itself)."""
    sels = _normalize_sels(selectivities)

    def f(a: str, b: str) -> float:
        return sels.get(selectivity_key(a, b), 1.0)

    def walk(node: TreeNode) -> tuple[float, float, tuple[str, ...]]:
        if node.is_leaf:
            card = cardinalities[node.type_name]
            return card, card, (node.type_name,)
        lt, lc, ln = walk(node.left)
        rt, rc, rn = walk(node.right)
        cross = 1.0
        for a in ln:
            for b in rn:
                cross *= f(a, b)
        card = lc * rc * cross
        return lt + rt + card, card, ln + rn

    total, _, _ = walk(tree.root if isinstance(tree, TreePlan) else tree)
    return total


# A small stream on which a planted engine fault shows in every way the
# verification gates report one.  SEQ(A a, B b) with a.price < b.price
# matches serials (0,1), (0,3), (0,5) and (4,5).
GATE_PATTERN = "PATTERN SEQ(A a, B b) WHERE (a.price < b.price) WITHIN 10 seconds"
GATE_STREAM = "A,1,10\nB,2,12\nA,3,15\nB,4,11\nA,5,9\nB,6,14\n"
# the same matches under a negation of a type the stream lacks
GATE_ABSENT_TYPE = "PATTERN SEQ(A a, NOT(N n), B b) WHERE (a.price < b.price) WITHIN 10 seconds"
# in either order: a.price < b.price matches (0,1), (0,3), (0,5), (1,4),
# (3,4) and (4,5); a.price > b.price would match (1,2), (2,3) and (2,5)
GATE_CONJUNCTION = "PATTERN AND(A a, B b) WHERE (a.price < b.price) WITHIN 10 seconds"
# a Kleene alias with a filter of its own: a group passes it only if
# every member does
KLEENE_FILTER = ("PATTERN SEQ(A a, KL(B b)) WHERE (b.difference > 0.5) "
                 "WITHIN 100 seconds")

# each comparator's converse: x < y holds exactly when y > x
CONVERSE = {
    "<": operator.gt, "<=": operator.ge, "=": operator.eq,
    ">=": operator.le, ">": operator.lt, "!=": operator.ne,
}


def plant_fault(monkeypatch, fault: str) -> None:
    """Break the engines in one known way, for the run of one test.

    ``missing``: every ``TimeRange.bisect`` drops its last item, so a probe
    loses its latest candidate.  ``extra``: both engines' predicate test
    passes everything.  ``late``: every match is emitted one serial after
    the arrival that reports it.  ``error``: the tree engine raises on each
    arrival.  ``compiled``: every tester compiled from then on, at its
    predicate's first evaluation, makes the converse numeric comparison
    (``a < b`` tested as ``a > b``).  Only the engines call testers; the
    interpreter, which ``oracle_match`` and statistics call and every
    tester falls back to, is untouched.  ``kleene-unfiltered``: both
    engines draw Kleene groups from the whole pool, past the alias's
    member filters.
    """
    if fault == "missing":
        bisect = TimeRange.bisect
        monkeypatch.setattr(TimeRange, "bisect",
                            lambda self, *args: bisect(self, *args)[:-1])
    elif fault == "extra":
        for module in (streamcep.nfa, streamcep.tree_engine):
            monkeypatch.setattr(module, "evaluate_predicate", lambda predicate, bindings: True)
    elif fault == "compiled":
        monkeypatch.setattr(streamcep.model, "OPERATORS", CONVERSE)
    elif fault == "kleene-unfiltered":
        monkeypatch.setattr(EngineCore, "_groups",
                            lambda self, slot, pool, evaluate, last=None:
                                kleene_groups(pool, self.kl_cap, self.metrics, last))
    elif fault == "late":
        build = PatternRunner._build
        monkeypatch.setattr(PatternRunner, "_build", staticmethod(
            lambda index, engine, found, emit_serial, batch:
                build(index, engine, found, emit_serial + 1, batch)))
    else:
        def process_event(self, event, arrived):
            raise RuntimeError("planted fault")

        monkeypatch.setattr(streamcep.tree_engine.TreeEngine, "process_event", process_event)
