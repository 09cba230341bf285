"""Brute-force reference matcher.

Enumerates matches directly from the original pattern tree by exhaustive
combination search, with no plans, buffers, or rewrites involved.  The
evaluation engines are tested against this module; it therefore
re-derives sequence ordering, negation intervals, Kleene subsets, and
strategy replay from the operator definitions instead of importing the
engines' shared machinery, and it tests predicates with
``interpret_predicate``, not the compiled testers the engines call.
"""
from __future__ import annotations

from itertools import combinations, product

from .model import (
    AND,
    ANY_MATCH,
    AttrRef,
    Event,
    Leaf,
    MatchReport,
    OperatorNode,
    OR,
    Pattern,
    PARTITION_CONTIGUITY,
    ResourceLimitError,
    SEQ,
    SelectionStrategy,
    STRICT_CONTIGUITY,
    UnsupportedPatternError,
    interpret_predicate,
)
from .matching import make_report

DEFAULT_CORESIDENT_LIMIT = 14


def coresident_bound(events: list[Event], window: float) -> int:
    """Largest number of events whose timestamps fit one window span."""
    best = 0
    left = 0
    for right in range(len(events)):
        while events[right].timestamp - events[left].timestamp > window:
            left += 1
        best = max(best, right - left + 1)
    return best


def _expand_or(node) -> list:
    """All OR-resolved variants of an operator tree, same-op children spliced."""
    if isinstance(node, Leaf):
        return [node]
    if node.op == OR:
        out = []
        for child in node.children:
            out.extend(_expand_or(child))
        return out
    variants = []
    for combo in product(*(_expand_or(c) for c in node.children)):
        children = []
        for fragment in combo:
            if isinstance(fragment, OperatorNode) and fragment.op == node.op:
                children.extend(fragment.children)
            else:
                children.append(fragment)
        variants.append(OperatorNode(node.op, tuple(children)))
    return variants


class _NotContext:
    def __init__(self, leaf: Leaf, mode: str, prev_alias, succ_alias, predicates,
                 pending: bool):
        self.leaf = leaf
        self.mode = mode
        self.prev_alias = prev_alias
        self.succ_alias = succ_alias
        self.predicates = predicates
        self.pending = pending


def _ts_bounds(value) -> tuple[float, float]:
    if isinstance(value, Event):
        return value.timestamp, value.timestamp
    ts = [e.timestamp for e in value]
    return min(ts), max(ts)


def _has_upper_ts_bound(alias: str, predicates) -> bool:
    for pred in predicates:
        right = pred.right
        if not isinstance(right, AttrRef) or pred.right_offset:
            continue
        ts_attrs = ("ts", "timestamp")
        # Strict bounds only: with <= an equal-timestamp blocker may still
        # arrive after the bounding member, so absence stays undecided.
        if (
            pred.left.alias == alias
            and pred.left.attribute in ts_attrs
            and pred.comparator == "<"
            and right.attribute in ts_attrs
            and right.alias != alias
        ):
            return True
        if (
            right.alias == alias
            and right.attribute in ts_attrs
            and pred.comparator == ">"
            and pred.left.attribute in ts_attrs
            and pred.left.alias != alias
        ):
            return True
    return False


class _Variant:
    """One OR-resolved simple tree prepared for enumeration."""

    def __init__(self, root: OperatorNode, pattern: Pattern):
        self.window = pattern.window
        leaves = Pattern(root).leaves()
        aliases = {l.alias for l in leaves}
        self.predicates = tuple(
            p for p in pattern.predicates if set(p.aliases()) <= aliases
        )
        self.positives = tuple(l for l in leaves if not l.negated)
        if not self.positives:
            raise UnsupportedPatternError(
                "pattern consists only of negated positions"
            )
        negated_aliases = {l.alias for l in leaves if l.negated}
        for pred in self.predicates:
            if len([a for a in pred.aliases() if a in negated_aliases]) > 1:
                raise UnsupportedPatternError(
                    "predicates between two negated positions are not supported"
                )

        # Strict orderings: (alias before, alias after) per SEQ adjacency.
        self.order_pairs: list[tuple[str, str]] = []
        self.not_contexts: list[_NotContext] = []

        def walk(node):
            if node.op == SEQ:
                kids = node.children
                if any(isinstance(k, OperatorNode) for k in kids):
                    raise UnsupportedPatternError(
                        "operators nested inside a sequence are not supported"
                    )
                positive_kids = [k for k in kids if not k.negated]
                for a, b in zip(positive_kids, positive_kids[1:]):
                    self.order_pairs.append((a.alias, b.alias))
                for index, kid in enumerate(kids):
                    if kid.negated:
                        prev = next(
                            (k.alias for k in reversed(kids[:index]) if not k.negated),
                            None,
                        )
                        succ = next(
                            (k.alias for k in kids[index + 1 :] if not k.negated),
                            None,
                        )
                        preds = tuple(
                            p for p in self.predicates if kid.alias in p.aliases()
                        )
                        # a trailing position stays open unless a strict
                        # ts bound by a member closes it at completion
                        self.not_contexts.append(
                            _NotContext(
                                kid, "seq", prev, succ, preds,
                                pending=(succ is None
                                         and not _has_upper_ts_bound(kid.alias, preds)),
                            )
                        )
            else:
                for kid in node.children:
                    if isinstance(kid, Leaf):
                        if kid.negated:
                            preds = tuple(
                                p for p in self.predicates if kid.alias in p.aliases()
                            )
                            self.not_contexts.append(
                                _NotContext(
                                    kid, "and", None, None, preds,
                                    pending=not _has_upper_ts_bound(kid.alias, preds),
                                )
                            )
                    else:
                        walk(kid)

        walk(root)
        self.pair_index: dict[str, list[tuple[str, str]]] = {}
        for a, b in self.order_pairs:
            self.pair_index.setdefault(a, []).append((a, b))
            self.pair_index.setdefault(b, []).append((a, b))

    def check_step(self, bindings: dict, alias: str) -> bool:
        events = []
        for value in bindings.values():
            if isinstance(value, Event):
                events.append(value)
            else:
                events.extend(value)
        ts = [e.timestamp for e in events]
        if max(ts) - min(ts) > self.window:
            return False
        for a, b in self.pair_index.get(alias, ()):
            if a in bindings and b in bindings:
                if _ts_bounds(bindings[a])[1] >= _ts_bounds(bindings[b])[0]:
                    return False
        for pred in self.predicates:
            names = pred.aliases()
            if alias in names and all(n in bindings for n in names):
                if not interpret_predicate(pred, bindings):
                    return False
        return True

    def blocked(self, bindings: dict, by_type: dict[str, list[Event]]) -> bool:
        events = []
        for value in bindings.values():
            if isinstance(value, Event):
                events.append(value)
            else:
                events.extend(value)
        lo = min(e.timestamp for e in events)
        hi = max(e.timestamp for e in events)
        for ctx in self.not_contexts:
            for blocker in by_type.get(ctx.leaf.type_name, ()):
                ts = blocker.timestamp
                # window edges as pairwise differences, like the span test
                if ctx.mode == "seq":
                    lower_ok = (
                        ts > _ts_bounds(bindings[ctx.prev_alias])[1]
                        if ctx.prev_alias is not None
                        else hi - ts <= self.window
                    )
                    upper_ok = (
                        ts < _ts_bounds(bindings[ctx.succ_alias])[0]
                        if ctx.succ_alias is not None
                        else ts - lo <= self.window
                    )
                    if not (lower_ok and upper_ok):
                        continue
                else:
                    if hi - ts > self.window or ts - lo > self.window:
                        continue
                probe = dict(bindings)
                probe[ctx.leaf.alias] = blocker
                if all(interpret_predicate(p, probe) for p in ctx.predicates):
                    return True
        return False

    @property
    def has_pending(self) -> bool:
        return any(ctx.pending for ctx in self.not_contexts)


def partition_serials(events: list[Event], key: str) -> dict[int, int]:
    """Per-partition serial of every event, counted in arrival order."""
    counters: dict[object, int] = {}
    out: dict[int, int] = {}
    for event in events:
        value = event.value(key)
        index = counters.get(value, 0)
        counters[value] = index + 1
        out[event.serial] = index
    return out


def oracle_match(
    pattern: Pattern,
    events: list[Event],
    max_coresident: int = DEFAULT_CORESIDENT_LIMIT,
) -> list[MatchReport]:
    """Exhaustively enumerate the pattern's matches over a finite stream,
    under the pattern's selection strategy.

    Events must be in arrival order (non-decreasing timestamps, strictly
    increasing serials).  Raises a resource error when more events share a
    window span than the configured bound allows.
    """
    strategy = pattern.strategy
    window = pattern.window
    bound = coresident_bound(events, window)
    if bound > max_coresident:
        raise ResourceLimitError(
            f"{bound} events share one window span; the exhaustive matcher "
            f"is limited to {max_coresident}"
        )

    by_type: dict[str, list[Event]] = {}
    for event in events:
        by_type.setdefault(event.type_name, []).append(event)
    max_serial = events[-1].serial if events else -1

    candidates = []
    for root in _expand_or(pattern.root):
        if isinstance(root, Leaf):
            root = OperatorNode(AND, (root,))
        variant = _Variant(root, pattern)

        def assign(index: int, bindings: dict):
            if index == len(variant.positives):
                if not variant.blocked(bindings, by_type):
                    yield dict(bindings)
                return
            leaf_node = variant.positives[index]
            pool = by_type.get(leaf_node.type_name, ())
            if leaf_node.kleene:
                qualifying = []
                for event in pool:
                    bindings[leaf_node.alias] = event
                    if variant.check_step(bindings, leaf_node.alias):
                        qualifying.append(event)
                    del bindings[leaf_node.alias]
                for size in range(1, len(qualifying) + 1):
                    for combo in combinations(qualifying, size):
                        bindings[leaf_node.alias] = combo
                        if variant.check_step(bindings, leaf_node.alias):
                            yield from assign(index + 1, bindings)
                        del bindings[leaf_node.alias]
            else:
                for event in pool:
                    bindings[leaf_node.alias] = event
                    if variant.check_step(bindings, leaf_node.alias):
                        yield from assign(index + 1, bindings)
                    del bindings[leaf_node.alias]

        for bindings in assign(0, {}):
            flat = []
            for value in bindings.values():
                if isinstance(value, Event):
                    flat.append(value)
                else:
                    flat.extend(value)
            serials = tuple(sorted(e.serial for e in flat))
            completion = serials[-1]
            emission = completion
            if variant.has_pending:
                start = min(e.timestamp for e in flat)
                emission = next(
                    (e.serial for e in events if e.timestamp - start > window),
                    max_serial + 1,
                )
            candidates.append((emission, completion, serials, dict(bindings)))

    if strategy.kind in (STRICT_CONTIGUITY, PARTITION_CONTIGUITY):
        candidates = _filter_contiguous(candidates, events, strategy)

    candidates.sort(key=lambda c: c[:3])
    reports = []
    seen: set[tuple[int, ...]] = set()
    claimed: set[int] = set()
    for emission, completion, serials, bindings in candidates:
        if serials in seen:
            continue
        if strategy.kind != ANY_MATCH and any(s in claimed for s in serials):
            continue
        seen.add(serials)
        if strategy.kind != ANY_MATCH:
            claimed.update(serials)
        reports.append(make_report(bindings, tuple(bindings), emission))
    return reports


def _filter_contiguous(candidates, events, strategy: SelectionStrategy):
    partition = None
    if strategy.kind == PARTITION_CONTIGUITY:
        partition = partition_serials(events, strategy.partition_key)
    kept = []
    for emission, completion, serials, bindings in candidates:
        members = [
            value for value in bindings.values() if isinstance(value, Event)
        ]
        ok = True
        for prev, nxt in zip(members, members[1:]):
            if partition is None:
                if nxt.serial != prev.serial + 1:
                    ok = False
                    break
            else:
                if nxt.value(strategy.partition_key) != prev.value(
                    strategy.partition_key
                ):
                    ok = False
                    break
                if partition[nxt.serial] != partition[prev.serial] + 1:
                    ok = False
                    break
        if ok:
            kept.append((emission, completion, serials, bindings))
    return kept
