"""Instance-based evaluation of a binary tree plan.

Every node of the plan keeps the set of live instances over its leaf
types.  An arriving event becomes one leaf instance (or one per Kleene
group for a Kleene leaf), and each new instance immediately joins the
stored instances of its sibling, cascading upward; a new root instance
is a full match.  Joining on insert keeps every pair of child instances
combined exactly once.  The nodes, in post-order, are the
``EngineCore`` slots; a node binds the aliases of the leaves under it,
and a singleton leaf's stored instances are its held events.  A node
stores its instances keyed by its own aliases on the parent's serial
adjacency conditions, and a new sibling instance probes with its own, so
under contiguity a join reads one bucket instead of every stored
instance.  When the sibling is a leaf, only arrivals probe the node, and
the core drops the buckets no later arrival can probe.

A new instance always holds the arrival that made it, the newest event
of the stream so far.  From the conjunct's strict timestamp order the
core's store rule decides, per node, whether its instances can join any
later sibling instance (if not, they are joined with the stored ones and
never stored themselves), and the engine derives, when the sibling is a
singleton leaf, the ``TimeRange`` its time-ordered bucket is bisected to
before the probe.
Under a total time order (every conjunct a sequence gives), an arrival
that must precede an alias of its sibling finds that sibling's store
empty: the sibling's instances could join no later instance, so none
was stored.
"""
from __future__ import annotations

from operator import attrgetter

from .matching import (
    DEFAULT_KL_CAP,
    EngineCore,
    Partial,
    TimeRange,
    blocks,
)
from .model import (
    Event,
    TreePlan,
    evaluate_predicate,
)
from .transform import NormalizedConjunct


MIN_TS = attrgetter("min_ts")


class TreeEngine(EngineCore):
    def __init__(self, plan: TreePlan, conjunct: NormalizedConjunct,
                 kl_cap: int = DEFAULT_KL_CAP):
        super().__init__(plan.root.leaf_names(), conjunct, kl_cap)
        nodes = list(plan.root.postorder())
        self.root_index = len(nodes) - 1
        index_of = {id(node): i for i, node in enumerate(nodes)}
        self.parent = [-1] * len(nodes)
        self.sibling = [-1] * len(nodes)
        self.leaf_index: dict[str, int] = {}
        self.under: list[frozenset[str]] = []  # the aliases below each node
        for i, node in enumerate(nodes):  # post-order: children first
            if node.is_leaf:
                self.leaf_index[node.type_name] = i
                self.under.append(frozenset((self.type_alias[node.type_name],)))
                continue
            li, ri = index_of[id(node.left)], index_of[id(node.right)]
            self.parent[li] = self.parent[ri] = i
            self.sibling[li], self.sibling[ri] = ri, li
            self.under.append(self.under[li] | self.under[ri])
        self._place(conjunct, len(nodes))
        self.held_slots = frozenset(self.leaf_index.values()) - self.kl_slots
        # The sibling-range rule of the module docstring, per node.
        self.sibling_range: list[TimeRange | None] = [None] * len(nodes)
        for i, sibling in enumerate(self.sibling):
            if sibling in self.held_slots:
                (alias,) = self.under[sibling]
                self.sibling_range[i] = TimeRange(alias, self.under[i],
                                                  self.time_order, self.window)

    def _slot_of(self, aliases) -> int:
        # post-order puts the lowest covering node before its ancestors
        return next(i for i, under in enumerate(self.under)
                    if under.issuperset(aliases))

    def _join_sides(self, node: int):
        # a node's instances are probed by its sibling's new ones
        sibling = self.sibling[node]
        if sibling == -1:
            return None
        return self.parent[node], self.under[node], self.under[sibling]

    # -- instance propagation ------------------------------------------------

    def _propagate(self, node: int, instance: Partial, out: list) -> None:
        self.metrics.instances_created += 1
        if node == self.root_index:
            self._complete(instance, out, blocks)
            return
        if self.stored[node]:
            self._store(node, instance)
        sibling = self.sibling[node]
        if not self.records[sibling]:
            return
        others = self._bucket(sibling, instance.bindings)
        time_range = self.sibling_range[node]
        if time_range is not None and others:
            others = time_range.bisect(
                others, MIN_TS, instance.bindings, instance.min_ts, instance.max_ts,
            )
        parent = self.parent[node]
        for other in others:
            self._try_join(parent, instance, other, out)

    def _try_join(self, parent: int, left: Partial, right: Partial,
                  out: list) -> None:
        lo = min(left.min_ts, right.min_ts)
        hi = max(left.max_ts, right.max_ts)
        if hi - lo > self.window:
            return
        bindings = {**left.bindings, **right.bindings}
        for p in self.conditions[parent]:
            if not evaluate_predicate(p, bindings):
                return
        joined = Partial(bindings, lo, hi)
        if self._blocked(self.slot_checks[parent], joined, blocks):
            return
        self._propagate(parent, joined, out)

    def _admits(self, node: int, bindings: dict) -> bool:
        """Whether ``bindings`` pass a leaf's conditions."""
        for p in self.conditions[node]:
            if not evaluate_predicate(p, bindings):
                return False
        return True

    def _leaf_instances(self, node: int, alias: str, event: Event) -> list[Partial]:
        ts = event.timestamp
        if node not in self.kl_slots:
            singleton = {alias: event}
            return [Partial(singleton, ts, ts)] if self._admits(node, singleton) else []
        # a Kleene leaf's conditions compare two of the alias's references
        conditions = self.conditions[node]
        return [
            Partial({alias: group}, group[0].timestamp, ts)
            for group in self._groups(node, self.pools[event.type_name],
                                      evaluate_predicate, event)
            if ts - group[0].timestamp <= self.window
            and (not conditions or self._admits(node, {alias: group}))
        ]

    # -- public protocol -----------------------------------------------------

    def process_event(self, event: Event, arrived: float) -> list:
        """Feed one arrival; return the matches it completes or releases,
        as ``(bindings, arrival time of the completing event)``."""
        out: list = []
        self._arrive(event, arrived, blocks)
        leaf = self.leaf_index.get(event.type_name)
        if leaf is not None:
            alias = self.type_alias[event.type_name]
            for instance in self._leaf_instances(leaf, alias, event):
                self._propagate(leaf, instance, out)
        self._settle(event, out)
        return out
