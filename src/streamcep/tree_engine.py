"""Instance-based evaluation of a binary tree plan.

Every node of the plan keeps the set of live instances over its leaf
types.  An arriving event becomes one leaf instance (or one per subset
for a Kleene leaf), and each new instance immediately joins the stored
instances of its sibling, cascading upward; a new root instance is a
full match.  Joining on insert keeps every pair of child instances
combined exactly once.  The Kleene leaves and the negation checkpoints
come from the conjunct, not the plan.  Absence of negated positions is
decided by the shared ``AbsenceTracker``, with the tree's nodes as its
slots.

A new instance always holds the arrival that made it, the newest event
of the stream so far.  From the conjunct's strict timestamp order the
structure derives, per node, whether its instances can join any later
sibling instance (if not, they are joined with the stored ones and never
stored themselves), which arrivals can join no stored sibling instance
(their probe loop is skipped), and, when the sibling is a singleton
leaf, the ``TimeRange`` its time-ordered instances are bisected to before
the probe.  Node lists are in ``max_ts`` order, not ``min_ts`` order, so
eviction keeps each node's oldest ``min_ts`` and rescans a node only
once something in it has expired.  The counts of stored instances and
pooled events change with every store and eviction, so no arrival
recounts them.
"""
from __future__ import annotations

import math
from itertools import combinations
from operator import attrgetter

from .matching import (
    DEFAULT_KL_CAP,
    AbsenceTracker,
    EngineMetrics,
    TimeRange,
    blocks,
    evict_expired,
    ts_order,
)
from .model import (
    ContractError,
    Event,
    Predicate,
    TreePlan,
    evaluate_predicate,
)
from .transform import NormalizedConjunct


MIN_TS = attrgetter("min_ts")


class _Instance:
    __slots__ = ("bindings", "min_ts", "max_ts")

    def __init__(self, bindings: dict, min_ts: float, max_ts: float):
        self.bindings = bindings
        self.min_ts = min_ts
        self.max_ts = max_ts


class TreeStructure:
    """Static shape of the tree: nodes in post-order, predicate and
    checkpoint assignment, Kleene and negation bookkeeping, and the
    time-order rules per node."""

    def __init__(self, plan: TreePlan, conjunct: NormalizedConjunct):
        core = conjunct.core
        type_alias = {l.type_name: l.alias for l in core.leaves()}
        if set(plan.root.leaf_names()) != set(type_alias):
            raise ContractError(
                "plan types do not match the pattern's positive types"
            )
        self.window = core.window
        self.alias_order = tuple(l.alias for l in core.leaves())
        self.nodes = list(plan.root.postorder())
        self.root_index = len(self.nodes) - 1
        index_of = {id(node): i for i, node in enumerate(self.nodes)}
        self.parent = [-1] * len(self.nodes)
        self.sibling = [-1] * len(self.nodes)
        for i, node in enumerate(self.nodes):
            if node.is_leaf:
                continue
            li, ri = index_of[id(node.left)], index_of[id(node.right)]
            self.parent[li] = self.parent[ri] = i
            self.sibling[li], self.sibling[ri] = ri, li
        self.leaf_index = {
            node.type_name: i
            for i, node in enumerate(self.nodes) if node.is_leaf
        }
        self.alias_at = {
            i: type_alias[node.type_name]
            for i, node in enumerate(self.nodes) if node.is_leaf
        }
        self.kl_leaves = frozenset(
            self.leaf_index[t] for t in conjunct.kl_types()
        )
        self.leaf_indices = frozenset(self.leaf_index.values())
        self.singleton_leaves = self.leaf_indices - self.kl_leaves
        # Predicates live at the lowest node covering all their aliases:
        # single-position predicates filter their leaf, the rest are
        # verified by the join that first sees both sides.  A negated
        # position's checkpoint is, by the same rule, the lowest node
        # covering its dependencies.
        leaf_of_alias = {a: i for i, a in self.alias_at.items()}
        self.node_predicates: list[list[Predicate]] = [[] for _ in self.nodes]
        for pred in core.predicates:
            cover = {leaf_of_alias[a] for a in pred.aliases()}
            self.node_predicates[self._lowest_covering(cover)].append(pred)
        self.checkpoint_slot = {
            spec.alias: self._lowest_covering(
                {self.leaf_index[t] for t in spec.dependencies}
            )
            for spec in conjunct.negations if spec.dependencies
        }
        # The dead-state, probe-skip and sibling-range rules of the
        # module docstring, per node, from the aliases under each side.
        order = ts_order(core.predicates)
        under: list[set[str]] = []
        for i, node in enumerate(self.nodes):  # post-order: children first
            under.append(
                {self.alias_at[i]} if node.is_leaf
                else under[index_of[id(node.left)]] | under[index_of[id(node.right)]]
            )
        self.stored = [False] * len(self.nodes)
        self.probe_skip: list[frozenset[str]] = [frozenset()] * len(self.nodes)
        self.sibling_range: list[TimeRange | None] = [None] * len(self.nodes)
        for i, sibling in enumerate(self.sibling):
            if sibling == -1:
                continue
            own, other = under[i], under[sibling]
            self.stored[i] = not all(
                any((y, x) in order for x in own) for y in other
            )
            self.probe_skip[i] = frozenset(
                x for x in own if any((x, y) in order for y in other)
            )
            if sibling in self.singleton_leaves:
                self.sibling_range[i] = TimeRange(
                    self.alias_at[sibling], own, order, self.window
                )

    def _lowest_covering(self, leaf_indices: set[int]) -> int:
        paths = []
        for i in leaf_indices:
            path = [i]
            while self.parent[path[-1]] != -1:
                path.append(self.parent[path[-1]])
            paths.append(set(path))
        common = set.intersection(*paths)
        return min(common)


class TreeEngine:
    def __init__(self, plan: TreePlan, conjunct: NormalizedConjunct,
                 kl_cap: int = DEFAULT_KL_CAP):
        self.tree = TreeStructure(plan, conjunct)
        self.alias_order = self.tree.alias_order
        self.kl_cap = kl_cap
        self.window = self.tree.window
        self.instances: list[list[_Instance]] = [[] for _ in self.tree.nodes]
        # the oldest min_ts stored per node: internal-node lists are in
        # max_ts order, so eviction rescans a list only once it holds an
        # expired instance
        self.oldest = [math.inf] * len(self.tree.nodes)
        self.kl_pool: dict[int, list[Event]] = {i: [] for i in self.tree.kl_leaves}
        # stored instances (singleton leaves' are buffered events, the
        # rest partials) and Kleene pool events, kept on every store and
        # eviction
        self.live = 0
        self.held = 0
        self.absence = AbsenceTracker(
            conjunct.negations, self.tree.checkpoint_slot,
            len(self.tree.nodes), self.window,
        )
        self.metrics = EngineMetrics()

    # -- instance propagation ------------------------------------------------

    def _propagate(self, node_index: int, instance: _Instance, arrival: str,
                   out: list) -> None:
        self.metrics.instances_created += 1
        tree = self.tree
        if node_index == tree.root_index:
            self.absence.complete(instance.bindings, out, blocks)
            return
        if tree.stored[node_index]:
            self.instances[node_index].append(instance)
            if instance.min_ts < self.oldest[node_index]:
                self.oldest[node_index] = instance.min_ts
            if node_index in tree.singleton_leaves:
                self.held += 1
            else:
                self.live += 1
        if arrival in tree.probe_skip[node_index]:
            return
        parent = tree.parent[node_index]
        others = self.instances[tree.sibling[node_index]]
        time_range = tree.sibling_range[node_index]
        if time_range is not None and others:
            others = time_range.bisect(
                others, MIN_TS, instance.bindings, instance.min_ts, instance.max_ts,
            )
        for other in others:
            self._try_join(parent, instance, other, arrival, out)

    def _try_join(self, parent: int, left: _Instance, right: _Instance,
                  arrival: str, out: list) -> None:
        lo = min(left.min_ts, right.min_ts)
        hi = max(left.max_ts, right.max_ts)
        if hi - lo > self.window:
            return
        bindings = {**left.bindings, **right.bindings}
        if not all(
            evaluate_predicate(p, bindings)
            for p in self.tree.node_predicates[parent]
        ):
            return
        if self.absence.blocked_at(parent, bindings, blocks):
            return
        self._propagate(parent, _Instance(bindings, lo, hi), arrival, out)

    def _leaf_instances(self, node_index: int, event: Event) -> list[_Instance]:
        alias = self.tree.alias_at[node_index]
        singleton = {alias: event}
        if not all(
            evaluate_predicate(p, singleton)
            for p in self.tree.node_predicates[node_index]
        ):
            return []
        if node_index not in self.tree.kl_leaves:
            return [_Instance(singleton, event.timestamp, event.timestamp)]
        pool = self.kl_pool[node_index]
        room = self.kl_cap - 1
        if len(pool) > room:
            self.metrics.kl_overflows += 1
        made = []
        for size in range(0, min(len(pool), room) + 1):
            for combo in combinations(pool, size):
                group = combo + (event,)
                lo = min(e.timestamp for e in group)
                hi = max(e.timestamp for e in group)
                if hi - lo > self.window:
                    continue
                made.append(_Instance({alias: group}, lo, hi))
        pool.append(event)
        self.held += 1
        return made

    # -- public protocol -----------------------------------------------------

    def process_event(self, event: Event, arrived: float) -> list:
        """Feed one arrival; return the matches it completes or releases,
        as ``(bindings, emission serial, arrival time)``."""
        out: list = []
        self.metrics.events += 1
        self.absence.arrive(event, arrived, out, blocks)
        leaf_index = self.tree.leaf_index.get(event.type_name)
        if leaf_index is not None:
            arrival = self.tree.alias_at[leaf_index]
            for instance in self._leaf_instances(leaf_index, event):
                self._propagate(leaf_index, instance, arrival, out)
        self._evict(event.timestamp)
        metrics = self.metrics
        metrics.live_partials = self.live + len(self.absence.pending)
        metrics.buffered = self.held + self.absence.buffered
        metrics.note_usage()
        return out

    def end(self, max_serial: int) -> list:
        return self.absence.end(max_serial)

    def _evict(self, latest: float) -> None:
        window = self.window
        for i, slot in enumerate(self.instances):
            if latest - self.oldest[i] > window:
                kept = [x for x in slot if latest - x.min_ts <= window]
                if i in self.tree.singleton_leaves:
                    self.held -= len(slot) - len(kept)
                else:
                    self.live -= len(slot) - len(kept)
                self.instances[i] = kept
                self.oldest[i] = min((x.min_ts for x in kept), default=math.inf)
        for pool in self.kl_pool.values():
            self.held -= evict_expired(pool, latest, window)
        self.absence.evict(latest)
