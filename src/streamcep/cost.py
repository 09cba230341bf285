"""The cost model for evaluation orders and evaluation trees.

The throughput cost of an order is the expected number of partial matches
kept per window: step k contributes ``W^k * prod(rates) * prod(sels)`` over
the first k types, with single-type (filter) selectivities applied at the
step their type enters.  Trees are charged per node: a leaf holds ``W*r``
events, an internal node ``PM(left)*PM(right)*SEL`` where SEL multiplies the
selectivities of every predicate crossing the two subtrees.

``CostModel`` is the one evaluator: every planner and ``plan_cost``
charge plans through it.  Its ``CostObjective`` selects the
skip-till-any-match or skip-till-next-match partial-match model and an
optional detection-latency term (the hybrid cost).

A Kleene position KL(T) is charged by the paper's subset law: its rate
becomes 2**(r*W)/W, the subsets of the r*W events of T a window holds, so
its weight W*r becomes 2**(r*W).  All arithmetic switches to a log2-space
path when the weights can push intermediates past the float range; in log2
a Kleene weight is r*W itself.  The path is chosen once per model, so
comparisons stay consistent within one plan search.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .model import ContractError, StatisticsCatalog, TreeNode

_LOG_PATH_THRESHOLD = 1000.0
_LOG2_LINEAR_MAX = 1020.0  # 2**x stays inside the float range below this

FAMILY_ANY = "any"
FAMILY_NEXT = "next"


def _logaddexp2(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log2(1.0 + 2.0 ** (lo - hi))


def _log2_sel(sel: float) -> float:
    return math.log2(sel) if sel > 0 else -math.inf


def log2_weight(rate: float, window: float, kleene: bool = False) -> float:
    """log2 of a position's weight: W*r, or 2**(r*W) for a Kleene position."""
    if kleene:
        return rate * window
    return math.log2(window) + math.log2(rate)


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

    Subsets of the fixed type tuple are bit masks (bit i is ``types[i]``).
    All values returned by the ``step``/``node``/``total`` methods live in
    one arithmetic space (linear or log2) fixed at construction, so a
    search can compare them directly; ``add`` and ``mul`` are that
    space's sum and product, bound once, and ``costs`` converts a value
    to the linear cost and its log2.  ``log_space`` forces the space
    (``None`` chooses it from the weights).  The types in ``kleene`` are
    Kleene positions, weighed by the subset law.

    Every subset value is computed by removing the highest-position member,
    so it is a pure function of the subset regardless of the order in which
    a search visits it.  Searches and direct evaluation share these values,
    which makes optimality checks exact rather than approximate.

    Order latency is ``W*r`` summed over the types scheduled after the
    anchor ``objective.last_type``; tree latency sums the sibling PM on the
    path from the anchor leaf to the root.
    """

    def __init__(
        self,
        types: Sequence[str],
        stats: StatisticsCatalog,
        window: float,
        objective: CostObjective = CostObjective(),
        log_space: bool | None = None,
        kleene: frozenset[str] = frozenset(),
    ):
        if not window > 0:
            raise ContractError(f"window must be positive, got {window}")
        self.types = tuple(types)
        if len(set(self.types)) != len(self.types):
            raise ContractError("cost evaluation needs distinct types")
        self.window = window
        self.objective = objective
        last = objective.last_type
        if last is not None and last not in self.types:
            raise ContractError(
                f"latency anchor {last!r} is not one of the types {self.types}"
            )
        self.last_bit = 0 if last is None else 1 << self.bit_of(last)

        n = len(self.types)
        log2_wr = [log2_weight(stats.rate(t), window, t in kleene) for t in self.types]
        if log_space is None:
            bound = sum(max(0.0, v) for v in log2_wr) + math.log2(n + 2)
            log_space = bound > _LOG_PATH_THRESHOLD
        self.log_space = log_space

        if log_space:
            self.add, self.mul = _logaddexp2, operator.add
            self._wr = log2_wr
            self._filter = [_log2_sel(stats.sel(t)) for t in self.types]
            self._pair = [
                [_log2_sel(stats.sel(a, b)) for b in self.types] for a in self.types
            ]
            self.zero = -math.inf
            self.one = 0.0
        else:
            self.add, self.mul = operator.add, operator.mul
            self._wr = [
                window * (2.0 ** (stats.rate(t) * window) / window)
                if t in kleene else window * stats.rate(t)
                for t in self.types
            ]
            self._filter = [stats.sel(t) for t in self.types]
            self._pair = [[stats.sel(a, b) for b in self.types] for a in self.types]
            self.zero = 0.0
            self.one = 1.0

        self._pm_ord: dict[int, float] = {0: self.one}
        self._pm_tree: dict[int, float] = {0: self.one}
        self._sel_all: dict[int, float] = {0: self.one}
        self._min_wr: dict[int, float] = {}

    # -- active-space arithmetic -------------------------------------------

    def scale(self, factor_linear: float, value: float) -> float:
        """Multiply an active-space value by a plain linear factor."""
        if factor_linear == 0.0:
            return self.zero
        if self.log_space:
            return math.log2(factor_linear) + value
        return factor_linear * value

    def costs(self, active: float) -> tuple[float, float]:
        """The linear cost of an active-space value and its log2; the
        linear cost is ``inf`` past the float range, the log2 ``-inf``
        for zero."""
        if self.log_space:
            return (2.0 ** active if active <= _LOG2_LINEAR_MAX else math.inf), active
        return active, (math.log2(active) if active > 0 else -math.inf)

    def bit_of(self, type_name: str) -> int:
        return self.types.index(type_name)

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

    # -- order model --------------------------------------------------------

    def step_pm(self, bits: int) -> float:
        """Contribution of the step whose prefix subset is ``bits``."""
        if self.objective.family == FAMILY_NEXT:
            return self.scale(self.window, self.m_next(bits))
        return self.pm_ord(bits)

    def step_cost(self, prefix_bits: int, new_bit: int) -> float:
        """Full objective contribution of appending ``new_bit``."""
        value = self.step_pm(prefix_bits | new_bit)
        alpha = self.objective.alpha
        if alpha > 0 and self.last_bit and (prefix_bits & self.last_bit):
            value = self.add(value, self.scale(alpha, self._wr[new_bit.bit_length() - 1]))
        return value

    def order_total(self, order: Sequence[str]) -> float:
        total = self.zero
        bits = 0
        for name in order:
            bit = 1 << self.bit_of(name)
            total = self.add(total, self.step_cost(bits, bit))
            bits |= bit
        return total

    # -- tree model ----------------------------------------------------------

    def node_pm(self, bits: int) -> float:
        """Instances held at a tree node whose leaves are ``bits``."""
        if self.objective.family == FAMILY_NEXT:
            return self.pm_node_next(bits)
        return self.pm_tree(bits)

    def join_cost(self, left_bits: int, right_bits: int) -> float:
        """Objective contribution of joining two subtrees (the new node)."""
        value = self.node_pm(left_bits | right_bits)
        alpha = self.objective.alpha
        if alpha > 0 and self.last_bit:
            if left_bits & self.last_bit:
                value = self.add(value, self.scale(alpha, self.node_pm(right_bits)))
            elif right_bits & self.last_bit:
                value = self.add(value, self.scale(alpha, self.node_pm(left_bits)))
        return value

    def tree_total(self, node: TreeNode) -> float:
        total, _ = self._tree_walk(node)
        return total

    def _tree_walk(self, node: TreeNode) -> tuple[float, int]:
        if node.is_leaf:
            bit = 1 << self.bit_of(node.type_name)
            return self.node_pm(bit), bit
        lt, lb = self._tree_walk(node.left)
        rt, rb = self._tree_walk(node.right)
        return self.add(self.add(lt, rt), self.join_cost(lb, rb)), lb | rb
