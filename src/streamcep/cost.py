"""Cost models for evaluation orders and evaluation trees.

The throughput cost of an order is the expected number of partial matches
kept per window: step k contributes ``W^k * prod(rates) * prod(sels)`` over
the first k types, with single-type (filter) selectivities applied at the
step their type enters.  Trees are charged per node: a leaf holds ``W*r``
events, an internal node ``PM(left)*PM(right)*SEL`` where SEL multiplies the
selectivities of every predicate crossing the two subtrees.  Relational
twins of both models (left-deep join cost over cardinalities, bushy join
cost) are provided for equivalence checking under ``|R_i| = W*r_i``.

Detection-latency cost, the hybrid combination, the skip-till-next-match
variants, and the rank functions used by precedence-tree orderings are all
here as well.

All arithmetic transparently switches to a log2-space path when a catalog
can push intermediates past the float range (Kleene-rewritten types); the
path is chosen statically per catalog so comparisons stay consistent within
one plan search.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence, Union

from .model import (
    ContractError,
    OrderPlan,
    StatisticsCatalog,
    TreeNode,
    TreePlan,
    linear_from_log2,
    selectivity_key,
)

_LOG_PATH_THRESHOLD = 1000.0

FAMILY_ANY = "any"
FAMILY_NEXT = "next"


@dataclass(frozen=True)
class CostValue:
    """A non-negative cost carried in linear and log2 form.

    ``linear`` is ``inf`` when the value exceeds the float range; ``log2``
    is always meaningful (``-inf`` for zero) and is the comparison key when
    either side of a comparison left the linear range.
    """

    linear: float
    log2: float

    @classmethod
    def from_linear(cls, value: float) -> "CostValue":
        if value < 0:
            raise ContractError(f"costs are non-negative, got {value}")
        return cls(value, math.log2(value) if value > 0 else -math.inf)

    @classmethod
    def from_log2(cls, log2_value: float) -> "CostValue":
        return cls(linear_from_log2(log2_value), log2_value)

    def __float__(self) -> float:
        return self.linear

    def _key(self, other: "CostValue") -> tuple[float, float]:
        if math.isinf(self.linear) or math.isinf(other.linear):
            return self.log2, other.log2
        return self.linear, other.linear

    def __lt__(self, other: "CostValue") -> bool:
        a, b = self._key(other)
        return a < b

    def __le__(self, other: "CostValue") -> bool:
        a, b = self._key(other)
        return a <= b


@dataclass(frozen=True)
class CostBreakdown:
    """Per-step (or per-node, post-order) partial-match counts and totals."""

    partials: tuple[CostValue, ...]
    throughput: CostValue
    latency: CostValue
    combined: CostValue
    alpha: float = 0.0


def _logaddexp2(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log2(1.0 + 2.0 ** (lo - hi))


def _order_types(order: Union[OrderPlan, Sequence[str]]) -> tuple[str, ...]:
    if isinstance(order, OrderPlan):
        return order.order
    return tuple(order)


def _tree_root(tree: Union[TreePlan, TreeNode]) -> TreeNode:
    return tree.root if isinstance(tree, TreePlan) else tree


def _check_window(window: float) -> None:
    if not window > 0:
        raise ContractError(f"window must be positive, got {window}")


class SubsetCosts:
    """Canonical per-subset partial-match values over a fixed type tuple.

    Every subset value is computed by removing the highest-position member,
    so it is a pure function of the subset regardless of the order in which
    a search visits it.  Searches and direct cost evaluation share these
    values, which makes optimality checks exact rather than approximate.
    """

    def __init__(
        self,
        types: Sequence[str],
        stats: StatisticsCatalog,
        window: float,
        log_space: bool | None = None,
    ):
        _check_window(window)
        self.types = tuple(types)
        if len(set(self.types)) != len(self.types):
            raise ContractError("cost evaluation needs distinct types")
        self.window = window
        n = len(self.types)
        log2_wr = [math.log2(window) + stats.log2_rate(t) for t in self.types]
        if log_space is None:
            bound = sum(max(0.0, v) for v in log2_wr) + math.log2(n + 2)
            log_space = bound > _LOG_PATH_THRESHOLD
        self.log_space = log_space

        if log_space:
            self._wr = log2_wr
            self._w = math.log2(window)
            self._filter = [_log2_sel(stats.sel(t)) for t in self.types]
            self._pair = [
                [_log2_sel(stats.sel(a, b)) for b in self.types] for a in self.types
            ]
            self.zero = -math.inf
            self.one = 0.0
        else:
            self._wr = [window * stats.rate(t) for t in self.types]
            self._w = window
            self._filter = [stats.sel(t) for t in self.types]
            self._pair = [[stats.sel(a, b) for b in self.types] for a in self.types]
            self.zero = 0.0
            self.one = 1.0

        self._pm_ord: dict[int, float] = {0: self.one}
        self._pm_tree: dict[int, float] = {0: self.one}
        self._sel_all: dict[int, float] = {0: self.one}
        self._min_wr: dict[int, float] = {}

    # -- active-space arithmetic -------------------------------------------

    def mul(self, a: float, b: float) -> float:
        return a + b if self.log_space else a * b

    def add(self, a: float, b: float) -> float:
        return _logaddexp2(a, b) if self.log_space else a + b

    def scale(self, factor_linear: float, value: float) -> float:
        """Multiply an active-space value by a plain linear factor."""
        if factor_linear == 0.0:
            return self.zero
        if self.log_space:
            return math.log2(factor_linear) + value
        return factor_linear * value

    def value(self, active: float) -> CostValue:
        return CostValue.from_log2(active) if self.log_space else CostValue.from_linear(active)

    def bit_of(self, type_name: str) -> int:
        return self.types.index(type_name)

    def bits_of(self, names: Sequence[str]) -> int:
        bits = 0
        for name in names:
            bits |= 1 << self.bit_of(name)
        return bits

    def wr(self, index: int) -> float:
        return self._wr[index]

    # -- canonical subset values -------------------------------------------

    def _entry_factor(self, rest: int, h: int, with_filter: bool) -> float:
        factor = self._wr[h]
        if with_filter:
            factor = self.mul(factor, self._filter[h])
        row = self._pair[h]
        bits = rest
        while bits:
            low = bits & -bits
            i = low.bit_length() - 1
            factor = self.mul(factor, row[i])
            bits ^= low
        return factor

    def pm_ord(self, bits: int) -> float:
        """Partial matches after consuming exactly the subset, filters in."""
        cached = self._pm_ord.get(bits)
        if cached is not None:
            return cached
        h = bits.bit_length() - 1
        rest = bits ^ (1 << h)
        value = self.mul(self.pm_ord(rest), self._entry_factor(rest, h, True))
        self._pm_ord[bits] = value
        return value

    def pm_tree(self, bits: int) -> float:
        """Instances at a tree node covering the subset, cross pairs only."""
        cached = self._pm_tree.get(bits)
        if cached is not None:
            return cached
        h = bits.bit_length() - 1
        rest = bits ^ (1 << h)
        value = self.mul(self.pm_tree(rest), self._entry_factor(rest, h, False))
        self._pm_tree[bits] = value
        return value

    def sel_all(self, bits: int) -> float:
        """Product of all selectivities (cross pairs and filters) inside."""
        cached = self._sel_all.get(bits)
        if cached is not None:
            return cached
        h = bits.bit_length() - 1
        rest = bits ^ (1 << h)
        value = self.mul(self.sel_all(rest), self._filter[h])
        row = self._pair[h]
        scan = rest
        while scan:
            low = scan & -scan
            value = self.mul(value, row[low.bit_length() - 1])
            scan ^= low
        self._sel_all[bits] = value
        return value

    def min_wr(self, bits: int) -> float:
        cached = self._min_wr.get(bits)
        if cached is not None:
            return cached
        h = bits.bit_length() - 1
        rest = bits ^ (1 << h)
        value = self._wr[h] if rest == 0 else min(self.min_wr(rest), self._wr[h])
        self._min_wr[bits] = value
        return value

    def m_next(self, bits: int) -> float:
        """Next-match partial matches for a subset: W*min(r)*prod(sel)."""
        if bits == 0:
            return self.one
        return self.mul(self.min_wr(bits), self.sel_all(bits))

    def pm_node_next(self, bits: int) -> float:
        """Next-match instance count for a tree node over the subset."""
        if bits and bits & (bits - 1) == 0:
            return self._wr[bits.bit_length() - 1]
        return self.m_next(bits)


def _log2_sel(sel: float) -> float:
    return math.log2(sel) if sel > 0 else -math.inf


# ---------------------------------------------------------------------------
# Order costs


def cost_ord(
    order: Union[OrderPlan, Sequence[str]],
    stats: StatisticsCatalog,
    window: float,
    *,
    last_type: str | None = None,
    alpha: float = 0.0,
) -> CostBreakdown:
    """Throughput cost of an event-processing order (skip-till-any-match).

    The optional ``last_type``/``alpha`` report the latency and combined
    totals alongside; with the defaults the combined total equals the
    throughput total.
    """
    types = _order_types(order)
    sc = SubsetCosts(types, stats, window)
    partials = []
    total = sc.zero
    bits = 0
    for name in types:
        bits |= 1 << sc.bit_of(name)
        pm = sc.pm_ord(bits)
        partials.append(pm)
        total = sc.add(total, pm)
    latency = sc.zero
    if last_type is not None:
        latency = _latency_active(sc, types, last_type)
    combined = total if alpha == 0.0 else sc.add(total, sc.scale(alpha, latency))
    return CostBreakdown(
        partials=tuple(sc.value(p) for p in partials),
        throughput=sc.value(total),
        latency=sc.value(latency),
        combined=sc.value(combined),
        alpha=alpha,
    )


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
    names = _order_types(order)
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


def _latency_active(sc: SubsetCosts, types: Sequence[str], last_type: str) -> float:
    if last_type not in types:
        raise ContractError(f"latency anchor {last_type!r} is not part of the order")
    total = sc.zero
    seen = False
    for name in types:
        if seen:
            total = sc.add(total, sc.wr(sc.bit_of(name)))
        if name == last_type:
            seen = True
    return total


def cost_ord_latency(
    order: Union[OrderPlan, Sequence[str]],
    stats: StatisticsCatalog,
    window: float,
    last_type: str,
) -> float:
    """Expected buffered events that postpone completion: sum of W*r over
    the types scheduled after the pattern-final type."""
    types = _order_types(order)
    sc = SubsetCosts(types, stats, window)
    return float(sc.value(_latency_active(sc, types, last_type)))


# ---------------------------------------------------------------------------
# Tree costs


def _tree_total_active(sc: SubsetCosts, node: TreeNode, partials: list[float]) -> tuple[float, int]:
    if node.is_leaf:
        bits = 1 << sc.bit_of(node.type_name)
        pm = sc.pm_tree(bits)
        partials.append(pm)
        return pm, bits
    left_total, left_bits = _tree_total_active(sc, node.left, partials)
    right_total, right_bits = _tree_total_active(sc, node.right, partials)
    bits = left_bits | right_bits
    pm = sc.pm_tree(bits)
    partials.append(pm)
    total = sc.add(sc.add(left_total, right_total), pm)
    return total, bits


def cost_tree(
    tree: Union[TreePlan, TreeNode],
    stats: StatisticsCatalog,
    window: float,
    *,
    last_type: str | None = None,
    alpha: float = 0.0,
) -> CostBreakdown:
    """Throughput cost of an evaluation tree: the sum of PM over all nodes.

    Partials are reported in post-order.  A node's PM depends only on its
    leaf set; filters do not participate (matching the bushy join cost).
    """
    root = _tree_root(tree)
    sc = SubsetCosts(root.leaf_names(), stats, window)
    partials: list[float] = []
    total, _ = _tree_total_active(sc, root, partials)
    latency = sc.zero
    if last_type is not None:
        latency = _tree_latency_active(sc, root, last_type)
    combined = total if alpha == 0.0 else sc.add(total, sc.scale(alpha, latency))
    return CostBreakdown(
        partials=tuple(sc.value(p) for p in partials),
        throughput=sc.value(total),
        latency=sc.value(latency),
        combined=sc.value(combined),
        alpha=alpha,
    )


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

    total, _, _ = walk(_tree_root(tree))
    return total


def _tree_latency_active(sc: SubsetCosts, root: TreeNode, last_type: str) -> float:
    """Sum of sibling PM over the path from the anchor leaf to the root."""
    path: list[TreeNode] = []

    def find(node: TreeNode) -> bool:
        path.append(node)
        if node.is_leaf:
            if node.type_name == last_type:
                return True
        elif find(node.left) or find(node.right):
            return True
        path.pop()
        return False

    if not find(root):
        raise ContractError(f"latency anchor {last_type!r} is not a leaf of the tree")
    total = sc.zero
    for parent, child in zip(path, path[1:]):
        sibling = parent.right if parent.left is child else parent.left
        total = sc.add(total, sc.pm_tree(sc.bits_of(sibling.leaf_names())))
    return total


def cost_tree_latency(
    tree: Union[TreePlan, TreeNode],
    stats: StatisticsCatalog,
    window: float,
    last_type: str,
) -> float:
    root = _tree_root(tree)
    sc = SubsetCosts(root.leaf_names(), stats, window)
    return float(sc.value(_tree_latency_active(sc, root, last_type)))


def cost_hybrid(
    plan,
    stats: StatisticsCatalog,
    window: float,
    alpha: float,
    last_type: str,
) -> float:
    """Throughput cost plus ``alpha`` times latency cost, same plan family."""
    if alpha < 0:
        raise ContractError(f"alpha must be non-negative, got {alpha}")
    if isinstance(plan, (TreePlan, TreeNode)):
        breakdown = cost_tree(plan, stats, window, last_type=last_type, alpha=alpha)
    else:
        breakdown = cost_ord(plan, stats, window, last_type=last_type, alpha=alpha)
    return float(breakdown.combined)


# ---------------------------------------------------------------------------
# Skip-till-next-match costs


def cost_ord_next(
    order: Union[OrderPlan, Sequence[str]],
    stats: StatisticsCatalog,
    window: float,
) -> float:
    """Order cost under skip-till-next-match.

    At most one partial match survives per step, bounded by the scarcest
    type: m_k = W*min(rates)*prod(sels).  The total sums W*m_k per step.
    """
    types = _order_types(order)
    sc = SubsetCosts(types, stats, window)
    total = sc.zero
    bits = 0
    for name in types:
        bits |= 1 << sc.bit_of(name)
        total = sc.add(total, sc.scale(window, sc.m_next(bits)))
    return float(sc.value(total))


def cost_tree_next(
    tree: Union[TreePlan, TreeNode],
    stats: StatisticsCatalog,
    window: float,
) -> float:
    """Tree cost under skip-till-next-match: each internal node keeps at
    most W*min(rates)*prod(sels) instances; leaves keep W*r."""
    root = _tree_root(tree)
    sc = SubsetCosts(root.leaf_names(), stats, window)

    def walk(node: TreeNode) -> tuple[float, int]:
        if node.is_leaf:
            bits = 1 << sc.bit_of(node.type_name)
            return sc.pm_node_next(bits), bits
        lt, lb = walk(node.left)
        rt, rb = walk(node.right)
        bits = lb | rb
        return sc.add(sc.add(lt, rt), sc.pm_node_next(bits)), bits

    total, _ = walk(root)
    return float(sc.value(total))


# ---------------------------------------------------------------------------
# Rank functions (precedence-tree orderings)


def root_edge_selectivities(
    stats: StatisticsCatalog, root: str
) -> dict[str, float]:
    """For an acyclic, connected predicate graph: the selectivity of the
    first edge on each type's path toward ``root`` (1 for the root itself).

    Raises ``ContractError`` on cycles or on types unreachable from the
    root, which the rank functions require.
    """
    names = stats.type_names()
    if root not in names:
        raise ContractError(f"root {root!r} has no statistics entry")
    adjacency: dict[str, list[tuple[str, float]]] = {n: [] for n in names}
    for key, sel in stats.selectivities.items():
        if len(key) != 2:
            continue
        a, b = key
        adjacency.setdefault(a, []).append((b, sel))
        adjacency.setdefault(b, []).append((a, sel))

    out = {root: 1.0}
    parent: dict[str, str] = {root: root}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for neighbor, sel in adjacency.get(node, ()):
            if neighbor == parent[node]:
                continue
            if neighbor in parent:
                raise ContractError("predicate graph has a cycle; ranks need a tree")
            parent[neighbor] = node
            # the first edge on neighbor's path toward the root
            out[neighbor] = sel
            queue.append(neighbor)
    missing = [n for n in names if n not in parent]
    if missing:
        raise ContractError(
            f"types unreachable from root {root!r} in the predicate graph: {missing}"
        )
    return out


def _asi_terms(
    sequence: Sequence[str],
    stats: StatisticsCatalog,
    window: float,
    edge_sel: Mapping[str, float],
) -> list[float]:
    _check_window(window)
    terms = []
    for name in sequence:
        if name not in edge_sel:
            raise ContractError(f"type {name!r} has no path to the chosen root")
        terms.append(window * stats.rate(name) * edge_sel[name])
    return terms


def asi_sequence_product(
    sequence: Sequence[str],
    stats: StatisticsCatalog,
    window: float,
    root: str,
) -> float:
    """T(s): the product of W*r*sel over the sequence (1 for empty)."""
    edge_sel = root_edge_selectivities(stats, root)
    product = 1.0
    for term in _asi_terms(sequence, stats, window, edge_sel):
        product *= term
    return product


def asi_sequence_cost(
    sequence: Sequence[str],
    stats: StatisticsCatalog,
    window: float,
    root: str,
) -> float:
    """C(s): the prefix-product sum of W*r*sel over the sequence (0 empty).

    This is the rewritten throughput cost over a rooted acyclic predicate
    graph; it satisfies C(s1 s2) = C(s1) + T(s1)*C(s2).
    """
    edge_sel = root_edge_selectivities(stats, root)
    total = 0.0
    prefix = 1.0
    for term in _asi_terms(sequence, stats, window, edge_sel):
        prefix *= term
        total += prefix
    return total


def rank_trpt(
    sequence: Sequence[str],
    stats: StatisticsCatalog,
    window: float,
    root: str,
) -> float:
    """Throughput rank (T(s) - 1) / C(s); lower ranks schedule earlier."""
    if not sequence:
        raise ContractError("rank of an empty sequence is undefined")
    t = asi_sequence_product(sequence, stats, window, root)
    c = asi_sequence_cost(sequence, stats, window, root)
    if c == 0.0:
        raise ContractError("sequence cost is zero; rank undefined")
    return (t - 1.0) / c


def rank_lat(
    sequence: Sequence[str],
    stats: StatisticsCatalog,
    window: float,
    last_type: str,
) -> float:
    """Latency rank: W*r summed over types scheduled after the pattern-final
    type inside the sequence; 0 when the sequence does not contain it."""
    if not sequence:
        raise ContractError("rank of an empty sequence is undefined")
    _check_window(window)
    if last_type not in sequence:
        return 0.0
    total = 0.0
    seen = False
    for name in sequence:
        if seen:
            total += window * stats.rate(name)
        if name == last_type:
            seen = True
    return total


# ---------------------------------------------------------------------------
# Search-facing model


@dataclass(frozen=True)
class CostObjective:
    """What a plan search minimizes.

    ``family`` selects the partial-match model: ``any`` for skip-till-any-
    match, ``next`` for skip-till-next-match and the contiguity strategies.
    A positive ``alpha`` adds ``alpha *`` latency cost anchored at
    ``last_type``.
    """

    family: str = FAMILY_ANY
    alpha: float = 0.0
    last_type: str | None = None

    def __post_init__(self) -> None:
        if self.family not in (FAMILY_ANY, FAMILY_NEXT):
            raise ContractError(f"unknown cost family {self.family!r}")
        if self.alpha < 0:
            raise ContractError("alpha must be non-negative")
        if self.alpha > 0 and self.last_type is None:
            raise ContractError("hybrid objective needs the pattern-final type")


class CostModel:
    """Active-space cost evaluation shared by all plan-search algorithms.

    All values returned by the ``step``/``node``/``total`` methods live in
    one arithmetic space (linear or log2) fixed at construction, so a
    search can compare them directly.
    """

    def __init__(
        self,
        types: Sequence[str],
        stats: StatisticsCatalog,
        window: float,
        objective: CostObjective = CostObjective(),
    ):
        self.sc = SubsetCosts(types, stats, window)
        self.types = self.sc.types
        self.objective = objective
        self.window = window
        self._last_bit = (
            1 << self.sc.bit_of(objective.last_type)
            if objective.last_type is not None and objective.last_type in self.types
            else 0
        )

    # -- order model --------------------------------------------------------

    def step_pm(self, bits: int) -> float:
        """Contribution of the step whose prefix subset is ``bits``."""
        if self.objective.family == FAMILY_NEXT:
            return self.sc.scale(self.window, self.sc.m_next(bits))
        return self.sc.pm_ord(bits)

    def step_cost(self, prefix_bits: int, new_bit: int) -> float:
        """Full objective contribution of appending ``new_bit``."""
        value = self.step_pm(prefix_bits | new_bit)
        alpha = self.objective.alpha
        if alpha > 0 and self._last_bit and (prefix_bits & self._last_bit):
            value = self.sc.add(value, self.sc.scale(alpha, self.sc.wr(new_bit.bit_length() - 1)))
        return value

    def order_total(self, order: Sequence[str]) -> float:
        total = self.sc.zero
        bits = 0
        for name in order:
            bit = 1 << self.sc.bit_of(name)
            total = self.sc.add(total, self.step_cost(bits, bit))
            bits |= bit
        return total

    # -- tree model ----------------------------------------------------------

    def node_pm(self, bits: int) -> float:
        if self.objective.family == FAMILY_NEXT:
            return self.sc.pm_node_next(bits)
        return self.sc.pm_tree(bits)

    def join_cost(self, left_bits: int, right_bits: int) -> float:
        """Objective contribution of joining two subtrees (the new node)."""
        value = self.node_pm(left_bits | right_bits)
        alpha = self.objective.alpha
        if alpha > 0 and self._last_bit:
            if left_bits & self._last_bit:
                value = self.sc.add(value, self.sc.scale(alpha, self.node_pm(right_bits)))
            elif right_bits & self._last_bit:
                value = self.sc.add(value, self.sc.scale(alpha, self.node_pm(left_bits)))
        return value

    def leaf_cost(self, bit: int) -> float:
        return self.node_pm(bit)

    def tree_total(self, node: TreeNode) -> float:
        total, _ = self._tree_walk(node)
        return total

    def _tree_walk(self, node: TreeNode) -> tuple[float, int]:
        if node.is_leaf:
            bit = 1 << self.sc.bit_of(node.type_name)
            return self.leaf_cost(bit), bit
        lt, lb = self._tree_walk(node.left)
        rt, rb = self._tree_walk(node.right)
        return self.sc.add(self.sc.add(lt, rt), self.join_cost(lb, rb)), lb | rb

    def value(self, active: float) -> CostValue:
        return self.sc.value(active)
