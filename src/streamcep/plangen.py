"""Plan-generation algorithms.

``generate_plan`` (search) and ``plan_cost`` (evaluate a given plan) are
the entry points.  All searches run over the positive event types of one
conjunctive core, a Kleene position under its own type name.  Costs are
evaluated through one ``CostModel`` per conjunct (``conjunct_model``), so
every algorithm minimizes the same objective and comparisons stay
consistent: the model weighs the Kleene positions by the subset law, each
timestamp-order predicate of a rewritten sequence halves its pair's
selectivity, the cost family follows the pattern's selection strategy and
the latency anchor is the pattern-final type.
A plan is only the order or the tree: the engines derive the Kleene
positions and the negation checkpoints from the conjunct they run.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from functools import partial, reduce
from typing import Sequence

from .cost import CostModel, CostObjective, FAMILY_ANY, FAMILY_NEXT, log2_weight
from .model import (
    ANY_MATCH,
    ContractError,
    DataError,
    OrderPlan,
    Pattern,
    Plan,
    ResourceLimitError,
    SelectionStrategy,
    StatisticsCatalog,
    TreeNode,
    TreePlan,
    UnsupportedPatternError,
    join,
    leaf,
)
from .transform import TEMPORAL_ORIGIN, NormalizedConjunct, normalize_pattern

DP_LD_LIMIT = 20
DP_B_LIMIT = 14
II_RANDOM_RESTARTS = 10
II_GREEDY_RESTARTS = 1
DEFAULT_TEMPORAL_SELECTIVITY = 0.5


@dataclass(frozen=True)
class PlanSearchReport:
    algorithm: str
    cost: float
    cost_log2: float
    candidates: int
    wall_time: float
    seed: int | None = None


@dataclass(frozen=True)
class PlannedConjunct:
    plan: Plan
    report: PlanSearchReport


@dataclass(frozen=True)
class PlanBundle:
    """One plan per conjunctive subpattern of a (possibly disjunctive) pattern."""

    algorithm: str
    conjuncts: tuple[PlannedConjunct, ...]

    @property
    def total_cost(self) -> float:
        return sum(c.report.cost for c in self.conjuncts)


# ---------------------------------------------------------------------------
# Searches over a CostModel (index-based; declaration order = index order)


def _order_names(model: CostModel, order: list[int]) -> tuple[str, ...]:
    return tuple(model.types[i] for i in order)


def _search_trivial(model: CostModel) -> tuple[list[int], float, int]:
    order = list(range(len(model.types)))
    return order, model.order_total(model.types), 1


def _search_efreq(model: CostModel) -> tuple[list[int], float, int]:
    order = sorted(range(len(model.types)), key=lambda i: (model.wr(i), i))
    return order, model.order_total(_order_names(model, order)), 1


def _search_greedy(model: CostModel) -> tuple[list[int], float, int]:
    step_cost, add = model.step_cost, model.add
    n = len(model.types)
    remaining = list(range(n))
    order: list[int] = []
    prefix = 0
    candidates = 0
    total = model.zero
    while remaining:
        best_index = None
        best_step = None
        for i in remaining:
            step = step_cost(prefix, 1 << i)
            candidates += 1
            if best_step is None or step < best_step:
                best_index, best_step = i, step
        order.append(best_index)
        remaining.remove(best_index)
        prefix |= 1 << best_index
        total = add(total, best_step)
    return order, total, candidates


def _neighbors(order: list[int]):
    """Swaps, then forward and backward 3-cycles, each as (first moved
    position, the moved span as it reads after the move)."""
    n = len(order)
    for i in range(n):
        for j in range(i + 1, n):
            span = order[i:j + 1]
            span[0], span[-1] = span[-1], span[0]
            yield i, span
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                forward = order[i:k + 1]
                forward[0], forward[j - i], forward[-1] = order[j], order[k], order[i]
                yield i, forward
                backward = order[i:k + 1]
                backward[0], backward[j - i], backward[-1] = order[k], order[i], order[j]
                yield i, backward


def _search_ii(
    model: CostModel, seed: int | None = None, *, restarts: int, init: str
) -> tuple[list[int], float, int]:
    """Iterative improvement: move to the cheapest neighbour until none is
    cheaper, from ``restarts`` random orders drawn with ``seed`` or from
    the greedy order.

    A neighbour is priced from the current order's cached steps: the
    running total before its first moved position, fresh steps over the
    moved span, then the cached steps after it, whose prefix sets the move
    leaves alone.  The additions run left to right, so every price equals
    ``order_total`` of the neighbour.  A step's value depends only on its
    prefix set and its type, so the search keeps each one it has priced,
    keyed by ``prefix * n + index``.
    """
    n = len(model.types)
    step_cost, add = model.step_cost, model.add
    memo: dict[int, float] = {}

    def order_steps(order: list[int]) -> tuple[list[float], list[float], list[int]]:
        """Step values, running totals and prefix sets of an order;
        ``totals[k]`` and ``prefixes[k]`` hold the first k steps."""
        steps: list[float] = []
        totals = [model.zero]
        prefixes = [0]
        bits = 0
        for i in order:
            key = bits * n + i
            step = memo.get(key)
            if step is None:
                step = memo[key] = step_cost(bits, 1 << i)
            steps.append(step)
            totals.append(add(totals[-1], step))
            bits |= 1 << i
            prefixes.append(bits)
        return steps, totals, prefixes

    candidates = 0
    if init == "greedy":
        greedy_order, _, candidates = _search_greedy(model)
    else:
        rng = random.Random(seed)

    best_order = None
    best_cost = None
    for _ in range(restarts):
        if init == "greedy":
            order = list(greedy_order)
        else:
            order = list(range(n))
            rng.shuffle(order)
        steps, totals, prefixes = order_steps(order)
        cost = totals[-1]
        candidates += 1
        improved = True
        while improved:
            improved = False
            move = None
            move_cost = cost
            for first, span in _neighbors(order):
                c = totals[first]
                bits = prefixes[first]
                for i in span:
                    key = bits * n + i
                    step = memo.get(key)
                    if step is None:
                        step = memo[key] = step_cost(bits, 1 << i)
                    c = add(c, step)
                    bits |= 1 << i
                c = reduce(add, steps[first + len(span):], c)
                candidates += 1
                if c < move_cost:
                    move, move_cost = (first, span), c
            if move is not None:
                first, span = move
                order = order[:first] + span + order[first + len(span):]
                steps, totals, prefixes = order_steps(order)
                cost = move_cost
                improved = True
        if best_cost is None or cost < best_cost:
            best_order, best_cost = order, cost
    return best_order, best_cost, candidates


def _search_dp_ld(model: CostModel, limit: int = DP_LD_LIMIT) -> tuple[list[int], float, int]:
    n = len(model.types)
    if n > limit:
        raise ResourceLimitError(
            f"order search by dynamic programming is limited to {limit} types; "
            f"the pattern has {n}"
        )
    step_cost, add = model.step_cost, model.add
    dp_cost = {0: model.zero}
    dp_order: dict[int, tuple[int, ...]] = {0: ()}
    candidates = 0
    for mask in range(1, 1 << n):  # every submask is numerically smaller
        best = None
        best_prev = None
        for i in range(n):
            bit = 1 << i
            if not mask & bit:
                continue
            prev = mask ^ bit
            cand = add(dp_cost[prev], step_cost(prev, bit))
            candidates += 1
            if best is None or cand < best:
                best, best_prev = cand, (prev, i)
        dp_cost[mask] = best
        dp_order[mask] = dp_order[best_prev[0]] + (best_prev[1],)
    full = (1 << n) - 1
    return list(dp_order[full]), dp_cost[full], candidates


def _search_zstream(
    model: CostModel, leaves: Sequence[int]
) -> tuple[TreeNode, float, int]:
    """ZStream: the cheapest tree over a fixed leaf sequence, by an O(n^3)
    dynamic program over its intervals.

    Each interval keeps its first split of strictly lowest cost, priced as
    ``tree_total`` associates it, so the tree and cost are the first
    minimum among all trees over the sequence.  The count is the number
    of splits priced.
    """
    add, join_cost = model.add, model.join_cost
    n = len(leaves)
    # (lo, hi) -> (cost, tree, leaf bits) of the best tree over leaves[lo:hi]
    best = {
        (lo, lo + 1): (model.node_pm(1 << i), leaf(model.types[i]), 1 << i)
        for lo, i in enumerate(leaves)
    }
    candidates = 0
    for width in range(2, n + 1):
        for lo in range(n - width + 1):
            hi = lo + width
            choice = None
            for split in range(lo + 1, hi):
                left_cost, left_tree, left_bits = best[lo, split]
                right_cost, right_tree, right_bits = best[split, hi]
                cost = add(add(left_cost, right_cost), join_cost(left_bits, right_bits))
                candidates += 1
                if choice is None or cost < choice[0]:
                    choice = (cost, join(left_tree, right_tree), left_bits | right_bits)
            best[lo, hi] = choice
    cost, tree, _ = best[0, n]
    return tree, cost, candidates


def _search_zstream_ord(model: CostModel) -> tuple[TreeNode, float, int]:
    """ZStream over the leaf sequence of the greedy order."""
    order, _, greedy_count = _search_greedy(model)
    tree, cost, count = _search_zstream(model, order)
    return tree, cost, count + greedy_count


def _search_dp_b(model: CostModel, limit: int = DP_B_LIMIT) -> tuple[TreeNode, float, int]:
    """Every subset's cheapest tree over its proper splits, the left half
    holding the subset's lowest type, splits in descending order of the
    left half.  A join costs the node's own instances whatever the split,
    priced once per subset.  With a latency term (``alpha`` above 0), a
    subset holding the anchor leaf adds ``alpha`` times the instances of
    the split's other side, and that term is priced once per side: the
    same sums ``join_cost`` makes for each split."""
    n = len(model.types)
    if n > limit:
        raise ResourceLimitError(
            f"tree search by dynamic programming is limited to {limit} types; "
            f"the pattern has {n}"
        )
    add, join_cost, node_pm = model.add, model.join_cost, model.node_pm
    alpha = model.objective.alpha
    anchor = model.last_bit if alpha > 0 else 0
    size = 1 << n
    latency = [model.scale(alpha, node_pm(m)) for m in range(size)] if anchor else None
    dp_cost = [model.zero] * size
    dp_left = [0] * size  # the left half of a subset's best split
    for i in range(n):
        dp_cost[1 << i] = node_pm(1 << i)
    candidates = 0
    for mask in range(3, size):  # every submask is numerically smaller
        low = mask & -mask
        rest = mask ^ low
        if not rest:  # a single type
            continue
        if mask & anchor:
            node, terms = node_pm(mask), latency
        else:
            node, terms = join_cost(low, rest), None
        best = None
        sub = rest
        while sub:  # left = low | sub over the proper submasks sub of rest
            sub = (sub - 1) & rest
            left = low | sub
            right = rest ^ sub
            cand = add(
                add(dp_cost[left], dp_cost[right]),
                node if terms is None
                else add(node, terms[right if left & anchor else left]),
            )
            if best is None or cand < best:
                best, best_left = cand, left
        candidates += (1 << rest.bit_count()) - 1
        dp_cost[mask] = best
        dp_left[mask] = best_left

    def tree(mask: int) -> TreeNode:
        if mask & (mask - 1) == 0:
            return leaf(model.types[mask.bit_length() - 1])
        return join(tree(dp_left[mask]), tree(mask ^ dp_left[mask]))

    return tree(size - 1), dp_cost[size - 1], candidates


# name -> (plan kind, search, whether the search draws on the seed); an
# order search returns type indices, a tree search a TreeNode
_PLANNERS = {
    "trivial": ("order", _search_trivial, False),
    "efreq": ("order", _search_efreq, False),
    "greedy": ("order", _search_greedy, False),
    "ii-random": (
        "order", partial(_search_ii, restarts=II_RANDOM_RESTARTS, init="random"), True
    ),
    "ii-greedy": (
        "order", partial(_search_ii, restarts=II_GREEDY_RESTARTS, init="greedy"), False
    ),
    "dp-ld": ("order", _search_dp_ld, False),
    "zstream": ("tree", lambda model: _search_zstream(model, range(len(model.types))), False),
    "zstream-ord": ("tree", _search_zstream_ord, False),
    "dp-b": ("tree", _search_dp_b, False),
}

ALGORITHM_NAMES = tuple(_PLANNERS)
ORDER_ALGORITHMS = tuple(n for n, (kind, *_) in _PLANNERS.items() if kind == "order")
TREE_ALGORITHMS = tuple(n for n, (kind, *_) in _PLANNERS.items() if kind == "tree")


# ---------------------------------------------------------------------------
# Pattern-level wiring


def _single_conjunct(pattern: Pattern) -> NormalizedConjunct:
    norm = normalize_pattern(pattern)
    if len(norm.conjuncts) != 1:
        raise UnsupportedPatternError(
            "disjunctive patterns are planned per conjunct; use generate_plan"
        )
    return norm.conjuncts[0]


def _default_last_type(conjunct: NormalizedConjunct, stats: StatisticsCatalog) -> str:
    """Pattern-final type for latency: the declared sequence tail, else the
    highest-rate type (the one most likely to arrive last among the match's
    events), a Kleene type at its subset rate."""
    last = conjunct.last_type()
    if last is not None:
        return last
    types = conjunct.runtime_types()
    kleene = conjunct.kl_types()
    window = conjunct.core.window
    return max(types, key=lambda t: (
        log2_weight(stats.rate(t), window, t in kleene), -types.index(t)
    ))


def conjunct_model(
    conjunct: NormalizedConjunct,
    stats: StatisticsCatalog,
    family: str = FAMILY_ANY,
    alpha: float = 0.0,
) -> CostModel:
    """The cost model of one conjunct.  Every timestamp-order predicate of
    a rewritten sequence multiplies the default temporal selectivity into
    its pair entry."""
    core = conjunct.core
    alias_types = core.alias_types()
    sels = dict(stats.selectivities)
    for pred in core.predicates:
        if pred.origin != TEMPORAL_ORIGIN:
            continue
        names = sorted({alias_types[a] for a in pred.aliases()})
        if len(names) == 2:
            key = tuple(names)
            sels[key] = sels.get(key, 1.0) * DEFAULT_TEMPORAL_SELECTIVITY
    catalog = StatisticsCatalog(stats.rates, sels)
    last_type = _default_last_type(conjunct, catalog) if alpha > 0 else None
    objective = CostObjective(family=family, alpha=alpha, last_type=last_type)
    return CostModel(
        conjunct.runtime_types(), catalog, core.window, objective,
        kleene=conjunct.kl_types(),
    )


def family_for(strategy: SelectionStrategy) -> str:
    return FAMILY_ANY if strategy.kind == ANY_MATCH else FAMILY_NEXT


def generate_plan(
    pattern: Pattern,
    stats: StatisticsCatalog,
    algorithm: str,
    alpha: float = 0.0,
    seed: int = 0,
) -> PlanBundle:
    """Plan every conjunct of the pattern with the named algorithm."""
    if algorithm not in _PLANNERS:
        raise ContractError(f"unknown algorithm {algorithm!r}")
    kind, search, seeded = _PLANNERS[algorithm]
    family = family_for(pattern.strategy)
    norm = normalize_pattern(pattern)
    planned = []
    for conjunct in norm.conjuncts:
        model = conjunct_model(conjunct, stats, family, alpha)
        start = time.perf_counter()
        result, cost, count = search(model, seed) if seeded else search(model)
        wall = time.perf_counter() - start
        if kind == "order":
            plan: Plan = OrderPlan(_order_names(model, result))
        else:
            plan = TreePlan(result)
        cost, cost_log2 = model.costs(cost)
        planned.append(
            PlannedConjunct(
                plan=plan,
                report=PlanSearchReport(
                    algorithm=algorithm,
                    cost=cost,
                    cost_log2=cost_log2,
                    candidates=count,
                    wall_time=wall,
                    seed=seed if seeded else None,
                ),
            )
        )
    return PlanBundle(algorithm=algorithm, conjuncts=tuple(planned))


# ---------------------------------------------------------------------------
# Plan evaluation


def plan_cost(
    plan: Plan,
    pattern: Pattern,
    stats: StatisticsCatalog,
    alpha: float = 0.0,
) -> float:
    """Objective value of an existing plan for a single-conjunct pattern.

    The plan must cover exactly the pattern's positive types.
    """
    conjunct = _single_conjunct(pattern)
    model = conjunct_model(conjunct, stats, family_for(pattern.strategy), alpha)
    is_order = isinstance(plan, OrderPlan)
    names = plan.order if is_order else plan.root.leaf_names()
    if set(names) != set(model.types):
        raise ContractError("plan types do not match the pattern's positive types")
    active = model.order_total(plan.order) if is_order else model.tree_total(plan.root)
    return model.costs(active)[0]


# ---------------------------------------------------------------------------
# Serialization


def _tree_to_json(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"leaf": node.type_name}
    return {"left": _tree_to_json(node.left), "right": _tree_to_json(node.right)}


def _tree_from_json(data, where: str) -> TreeNode:
    if isinstance(data, dict):
        if "leaf" in data:
            if not isinstance(data["leaf"], str):
                raise DataError(f"plan {where}.leaf must be a string")
            return leaf(data["leaf"])
        if "left" in data and "right" in data:
            return join(
                _tree_from_json(data["left"], where + ".left"),
                _tree_from_json(data["right"], where + ".right"),
            )
    raise DataError(f"plan {where} has neither 'leaf' nor both 'left' and 'right'")


def _names_from_json(data, where: str) -> tuple[str, ...]:
    if not isinstance(data, list) or not all(isinstance(n, str) for n in data):
        raise DataError(f"plan {where} must be a list of strings")
    return tuple(data)


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def bundle_to_json(bundle: PlanBundle) -> dict:
    """Serialize a bundle; timing is left out so plan files are repeatable.

    Plan files are standard JSON: a cost past the float range is written
    as ``null`` (its ``cost_log2`` still holds it), and so is the
    ``cost_log2`` of a zero cost."""
    out = {"algorithm": bundle.algorithm, "conjuncts": []}
    for planned in bundle.conjuncts:
        plan = planned.plan
        entry: dict = {
            "cost": _finite_or_none(planned.report.cost),
            "cost_log2": _finite_or_none(planned.report.cost_log2),
            "candidates": planned.report.candidates,
            "seed": planned.report.seed,
        }
        if isinstance(plan, OrderPlan):
            entry["order"] = list(plan.order)
        else:
            entry["tree"] = _tree_to_json(plan.root)
        out["conjuncts"].append(entry)
    return out


def bundle_from_json(data) -> PlanBundle:
    """Read a plan file; a malformed one is a ``DataError`` naming the bad
    member.  A ``null`` cost reads as ``inf`` and a ``null`` ``cost_log2``
    as ``-inf``, as ``bundle_to_json`` wrote them.  The ``kl`` and
    ``checkpoints`` members of older plan files are ignored: the engines
    derive both from the pattern."""
    if not isinstance(data, dict):
        raise DataError("plan file must be a JSON object")
    entries = data.get("conjuncts")
    if not isinstance(entries, list):
        raise DataError("plan member 'conjuncts' must be a list")
    planned = []
    algorithm = data.get("algorithm", "unknown")
    for index, entry in enumerate(entries):
        where = f"conjuncts[{index}]"
        if not isinstance(entry, dict):
            raise DataError(f"plan {where} must be an object")
        if "order" in entry:
            plan: Plan = OrderPlan(_names_from_json(entry["order"], where + ".order"))
        elif "tree" in entry:
            plan = TreePlan(_tree_from_json(entry["tree"], where + ".tree"))
        else:
            raise DataError(f"plan {where} has neither 'order' nor 'tree'")
        cost = entry.get("cost", 0.0)
        cost_log2 = entry.get("cost_log2", 0.0)
        planned.append(
            PlannedConjunct(
                plan=plan,
                report=PlanSearchReport(
                    algorithm=algorithm,
                    cost=math.inf if cost is None else cost,
                    cost_log2=-math.inf if cost_log2 is None else cost_log2,
                    candidates=entry.get("candidates", 1),
                    wall_time=entry.get("wall_time", 0.0),
                    seed=entry.get("seed"),
                ),
            )
        )
    return PlanBundle(algorithm=algorithm, conjuncts=tuple(planned))
