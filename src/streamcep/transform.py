"""Pattern rewrites that reduce every supported pattern to conjunctive form.

Plan generation only understands pure conjunctive patterns over positive
singleton positions, so patterns are normalized before planning:

* sequences become conjunctions plus explicit timestamp-order predicates;
* a Kleene position KL(T) stays a position of type T with its Kleene
  marker, which the cost model and the engines read;
* negated positions are split off into absence checks with a dependency
  set, from which each engine places the check in the plan it runs;
* disjunctions distribute into a union of conjunctive subpatterns;
* contiguity strategies add serial-adjacency predicates.

The rewrites are used for planning; execution still enforces the original
semantics (the runtimes consume the annotations produced here).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

from .model import (
    AND,
    AttrRef,
    Leaf,
    OperatorNode,
    OR,
    Pattern,
    Predicate,
    PARTITION_CONTIGUITY,
    SEQ,
    SelectionStrategy,
    UnsupportedPatternError,
    validate_pattern,
)

TEMPORAL_ORIGIN = "temporal-order"
TS_ATTRIBUTES = ("ts", "timestamp")
CONTIGUITY_ORIGIN = "contiguity"


def _require_simple(pattern: Pattern, op: str) -> None:
    if pattern.root.op != op or not pattern.is_simple():
        raise UnsupportedPatternError(f"expected a simple {op} pattern")


# ---------------------------------------------------------------------------
# SEQ -> AND


def seq_to_and(pattern: Pattern) -> Pattern:
    """Replace a simple SEQ by AND plus explicit timestamp predicates.

    The positive (and Kleene) positions get one ``a.ts < b.ts`` predicate
    per adjacent pair of that subsequence, so their ordering survives when
    negated positions are split off.  Each negated position is ordered
    against its nearest positive neighbour on both sides, which is what
    the absence check needs to reconstruct its interval.  Applied to a
    Kleene position an order constraint binds every member of the
    selected set.
    """
    _require_simple(pattern, SEQ)
    leaves = pattern.leaves()

    def order(a: Leaf, b: Leaf) -> Predicate:
        return Predicate(
            AttrRef(a.alias, "ts"), "<", AttrRef(b.alias, "ts"), origin=TEMPORAL_ORIGIN
        )

    positives = [l for l in leaves if not l.negated]
    added = [order(a, b) for a, b in zip(positives, positives[1:])]
    for index, leaf_node in enumerate(leaves):
        if not leaf_node.negated:
            continue
        before = next(
            (l for l in reversed(leaves[:index]) if not l.negated), None
        )
        after = next(
            (l for l in leaves[index + 1 :] if not l.negated), None
        )
        if before is not None:
            added.append(order(before, leaf_node))
        if after is not None:
            added.append(order(leaf_node, after))
    return replace(
        pattern,
        root=OperatorNode(AND, pattern.root.children),
        predicates=pattern.predicates + tuple(added),
    )


# ---------------------------------------------------------------------------
# Negation split


def ts_bound(pred: Predicate) -> tuple[str, str, bool] | None:
    """``(earlier, later, strict)`` when ``pred`` orders the timestamps of
    two aliases, as ``x.ts < y.ts``, ``y.ts >= x.ts`` and the like; None
    for any other predicate, and for a bound with an offset."""
    left, right = pred.left, pred.right
    if (not isinstance(right, AttrRef) or pred.right_offset
            or left.attribute not in TS_ATTRIBUTES
            or right.attribute not in TS_ATTRIBUTES
            or left.alias == right.alias):
        return None
    if pred.comparator in ("<", "<="):
        return left.alias, right.alias, pred.comparator == "<"
    if pred.comparator in (">", ">="):
        return right.alias, left.alias, pred.comparator == ">"
    return None


@dataclass(frozen=True)
class NegationSpec:
    """Everything needed to test the absence of one negated position.

    ``predicates`` are the pattern predicates touching the negated alias
    (including rewritten timestamp-order constraints); ``dependencies`` are
    the positive event types those predicates reference, and each engine
    checks a ``ts_confined`` spec at the earliest point of its plan where
    they are all bound.  A blocker must satisfy the predicates inside the
    full match window, so the predicates alone describe the absence
    interval.
    """

    alias: str
    type_name: str
    predicates: tuple[Predicate, ...] = ()
    dependencies: tuple[str, ...] = ()

    def _ts_bounds(self) -> tuple[bool, bool]:
        """Whether a bound member pins the blocker's timestamp from below
        and from above.  Only a strict upper bound counts: with ``<=`` an
        equal-timestamp blocker may still follow the bounding member."""
        below = above = False
        for pred in self.predicates:
            bound = ts_bound(pred)
            if bound is not None:
                earlier, later, strict = bound
                below = below or later == self.alias
                above = above or (strict and earlier == self.alias)
        return below, above

    @property
    def needs_pending(self) -> bool:
        """True when blockers may still arrive after the match completes."""
        return not self._ts_bounds()[1]

    @property
    def ts_confined(self) -> bool:
        """Predicates pin the blocker's timestamp between bound members.

        With a lower bound present, the window's trailing edge can never
        be the binding constraint (the bounding member sits inside the
        window of everything bound), so the test gives the same answer on
        a partial as on the full match.
        """
        return all(self._ts_bounds())


def split_negation(pattern: Pattern) -> tuple[Pattern, tuple[NegationSpec, ...]]:
    """Separate negated positions from the positive core of a conjunction.

    Returns the pattern restricted to positive positions plus one
    ``NegationSpec`` per negated position, whose dependencies are the
    positive types its predicates reference (possibly none).  A sequence
    with a negated position must first go through ``seq_to_and``, which
    writes its order into the predicates; a pattern without one passes
    through unchanged.
    """
    leaves = pattern.leaves()
    negated = [l for l in leaves if l.negated]
    if not negated:
        return pattern, ()
    if pattern.root.op != AND or not pattern.is_simple():
        raise UnsupportedPatternError("negation split expects a simple AND")
    positives = [l for l in leaves if not l.negated]
    if not positives:
        raise UnsupportedPatternError("pattern consists only of negated positions")
    negated_aliases = {l.alias for l in negated}
    alias_types = pattern.alias_types()

    specs = []
    for leaf_node in negated:
        touching = tuple(
            p for p in pattern.predicates if leaf_node.alias in p.aliases()
        )
        dep_types = []
        for pred in touching:
            for a in pred.aliases():
                if a == leaf_node.alias:
                    continue
                if a in negated_aliases:
                    raise UnsupportedPatternError(
                        "predicates between two negated positions are not supported"
                    )
                if alias_types[a] not in dep_types:
                    dep_types.append(alias_types[a])
        specs.append(
            NegationSpec(
                alias=leaf_node.alias,
                type_name=leaf_node.type_name,
                predicates=touching,
                dependencies=tuple(dep_types),
            )
        )

    kept_predicates = tuple(
        p
        for p in pattern.predicates
        if not (set(p.aliases()) & negated_aliases)
    )
    core = replace(
        pattern,
        root=OperatorNode(AND, tuple(positives)),
        predicates=kept_predicates,
    )
    return core, tuple(specs)


# ---------------------------------------------------------------------------
# Disjunction -> DNF


def to_dnf(pattern: Pattern) -> tuple[Pattern, ...]:
    """Distribute disjunctions into a union of conjunctive subpatterns.

    Every returned pattern has a simple SEQ or AND root.  Sequences nested
    under a conjunction are flattened via ``seq_to_and``.  Predicates are
    kept in each conjunct that binds all of their aliases; a predicate
    spanning two branches of one OR can never bind and is dropped.
    """

    def alternatives(node) -> list[tuple[object, tuple[Predicate, ...]]]:
        if isinstance(node, Leaf):
            return [(node, ())]
        if node.op == OR:
            out = []
            for child in node.children:
                out.extend(alternatives(child))
            return out
        combos = [alternatives(child) for child in node.children]
        results = []
        for combo in product(*combos):
            children: list[Leaf] = []
            preds: list[Predicate] = []
            for fragment, extra in combo:
                preds.extend(extra)
                if isinstance(fragment, Leaf):
                    children.append(fragment)
                elif fragment.op == node.op:
                    children.extend(fragment.children)
                elif node.op == AND and fragment.op == SEQ:
                    flattened = seq_to_and(
                        Pattern(fragment, window=pattern.window)
                    )
                    children.extend(flattened.root.children)
                    preds.extend(flattened.predicates)
                else:
                    raise UnsupportedPatternError(
                        f"cannot nest {fragment.op} inside {node.op}"
                    )
            results.append((OperatorNode(node.op, tuple(children)), tuple(preds)))
        return results

    conjuncts = []
    for fragment, preds in alternatives(pattern.root):
        if isinstance(fragment, Leaf):
            fragment = OperatorNode(AND, (fragment,))
        aliases = {l.alias for l in Pattern(fragment).leaves()}
        kept = tuple(
            p for p in pattern.predicates if set(p.aliases()) <= aliases
        )
        conjuncts.append(
            replace(pattern, root=fragment, predicates=kept + preds)
        )
    return tuple(conjuncts)


# ---------------------------------------------------------------------------
# Contiguity predicates


def add_contiguity_predicates(pattern: Pattern, strategy: SelectionStrategy) -> Pattern:
    """Encode a contiguity requirement as serial-adjacency predicates.

    Strict contiguity demands globally adjacent serial numbers between the
    positive positions of a sequence; partition contiguity demands equal
    partition keys and adjacent per-partition serials (the ``pserial``
    attribute attached by the stream layer).
    """
    if not strategy.contiguous:
        raise UnsupportedPatternError("strategy adds no contiguity predicates")
    if pattern.root.op != SEQ or not pattern.is_simple():
        raise UnsupportedPatternError("contiguity requires a simple sequence pattern")
    positives = [l for l in pattern.leaves() if not l.negated]
    if any(l.kleene for l in positives):
        raise UnsupportedPatternError("contiguity over Kleene positions is not supported")

    added: list[Predicate] = []
    for prev, nxt in zip(positives, positives[1:]):
        if strategy.kind == PARTITION_CONTIGUITY:
            key = strategy.partition_key
            added.append(
                Predicate(
                    AttrRef(nxt.alias, key), "=", AttrRef(prev.alias, key),
                    origin=CONTIGUITY_ORIGIN,
                )
            )
            added.append(
                Predicate(
                    AttrRef(nxt.alias, "pserial"), "=", AttrRef(prev.alias, "pserial"),
                    right_offset=1.0, origin=CONTIGUITY_ORIGIN,
                )
            )
        else:
            added.append(
                Predicate(
                    AttrRef(nxt.alias, "serial"), "=", AttrRef(prev.alias, "serial"),
                    right_offset=1.0, origin=CONTIGUITY_ORIGIN,
                )
            )
    return replace(pattern, predicates=pattern.predicates + tuple(added))


# ---------------------------------------------------------------------------
# Normalization pipeline


@dataclass(frozen=True)
class NormalizedConjunct:
    """One conjunctive subpattern, execution-ready.

    ``core`` has an AND root over the positive positions (Kleene markers
    kept on their leaves) with all user, timestamp-order and contiguity
    predicates that bind positive aliases.  ``negations`` carry the
    absence checks; ``seq_aliases`` remembers the original sequence order
    when there was one (it fixes the pattern-final type for latency).
    """

    core: Pattern
    negations: tuple[NegationSpec, ...] = ()
    seq_aliases: tuple[str, ...] | None = None

    def kl_types(self) -> frozenset[str]:
        return frozenset(l.type_name for l in self.core.leaves() if l.kleene)

    def runtime_types(self) -> tuple[str, ...]:
        return tuple(l.type_name for l in self.core.leaves())

    def last_type(self) -> str | None:
        """The pattern-final positive type, if the conjunct was a sequence."""
        if not self.seq_aliases:
            return None
        alias_types = self.core.alias_types()
        for alias in reversed(self.seq_aliases):
            if alias in alias_types:
                return alias_types[alias]
        return None


@dataclass(frozen=True)
class NormalizedPattern:
    conjuncts: tuple[NormalizedConjunct, ...]


def normalize_pattern(pattern: Pattern) -> NormalizedPattern:
    """Reduce any supported pattern to a union of conjunctive cores."""
    violations = validate_pattern(pattern)
    if violations:
        raise UnsupportedPatternError(
            f"pattern fails validation: {', '.join(violations)}"
        )
    strategy = pattern.strategy
    conjuncts = []
    for conjunct in to_dnf(pattern):
        seq_aliases = None
        if conjunct.root.op == SEQ:
            seq_aliases = tuple(l.alias for l in conjunct.leaves())
            if strategy.contiguous:
                conjunct = add_contiguity_predicates(conjunct, strategy)
            conjunct = seq_to_and(conjunct)
        core, negations = split_negation(conjunct)
        conjuncts.append(
            NormalizedConjunct(core=core, negations=negations, seq_aliases=seq_aliases)
        )
    return NormalizedPattern(conjuncts=tuple(conjuncts))
