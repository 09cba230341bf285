"""Core domain types: events, patterns, predicates, statistics, plans.

Everything downstream (parsing, transformation, cost models, plan search and
the runtimes) is written against the value types in this module.  They are
plain frozen dataclasses so that plans and patterns can be shared freely
between threads without defensive copying.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterator, Mapping, Sequence, Union

SEQ = "SEQ"
AND = "AND"
OR = "OR"
NARY_OPERATORS = (SEQ, AND, OR)

NOT = "not"
KLEENE = "kl"

COMPARATORS = ("<", "<=", "=", ">=", ">", "!=")
TEXT_COMPARATORS = ("=", "!=")

ANY_MATCH = "any-match"
NEXT_MATCH = "next-match"
STRICT_CONTIGUITY = "strict-contiguity"
PARTITION_CONTIGUITY = "partition-contiguity"
STRATEGIES = (ANY_MATCH, NEXT_MATCH, STRICT_CONTIGUITY, PARTITION_CONTIGUITY)


class StreamCepError(Exception):
    """Base class for all errors raised by this package."""


class PatternStructureError(StreamCepError):
    """A pattern or predicate references positions that do not exist."""


class UnsupportedPatternError(StreamCepError):
    """The pattern is well formed but outside the supported fragment."""


class ContractError(StreamCepError):
    """An operation was called with arguments violating its precondition."""


class MissingStatisticsError(StreamCepError):
    """A cost computation needed a rate that the catalog does not have."""


class DataError(StreamCepError):
    """Malformed external input (CSV stream, statistics file, plan file)."""


class ResourceLimitError(StreamCepError):
    """A configured size or enumeration limit was exceeded."""


# ---------------------------------------------------------------------------
# Events


@dataclass(frozen=True)
class Event:
    """A primitive event instance.

    ``serial`` is the global arrival index assigned by the stream source;
    it is strictly increasing and is the basis of contiguity checks and of
    match identity.  ``attrs`` is treated as immutable after construction.
    """

    type_name: str
    timestamp: float
    serial: int
    attrs: Mapping[str, object] = field(default_factory=dict)

    def value(self, attribute: str) -> object:
        if attribute in ("ts", "timestamp"):
            return self.timestamp
        if attribute == "serial":
            return self.serial
        try:
            return self.attrs[attribute]
        except KeyError:
            raise DataError(
                f"event {self.type_name}#{self.serial} has no attribute {attribute!r}"
            ) from None


# ---------------------------------------------------------------------------
# Pattern structure


@dataclass(frozen=True)
class Leaf:
    """One declared position of a pattern: an event type bound to an alias.

    ``unary`` holds the stack of unary wrappers applied to the position,
    outermost first.  Valid patterns carry at most one wrapper; the parser
    may still produce nested wrappers (e.g. KL(NOT(A))) so that validation
    can report them instead of failing to represent them.
    """

    type_name: str
    alias: str
    unary: tuple[str, ...] = ()

    @property
    def negated(self) -> bool:
        return NOT in self.unary

    @property
    def kleene(self) -> bool:
        return KLEENE in self.unary


@dataclass(frozen=True)
class OperatorNode:
    op: str
    children: tuple[Union["OperatorNode", Leaf], ...]


@dataclass(frozen=True)
class AttrRef:
    alias: str
    attribute: str


@dataclass(frozen=True)
class Literal:
    value: object


@dataclass(frozen=True)
class Predicate:
    """A pairwise comparison between attribute references, or a filter.

    ``right_offset`` shifts the right-hand reference by a constant; it is
    used by the contiguity rewrite (serial adjacency: next = prev + 1) and
    is zero for predicates written in the pattern language.  ``origin``
    records whether the predicate came from the user or from a rewrite.
    The first ``evaluate_predicate`` call compiles the predicate's tester
    and keeps it on the instance; it is not a field, so equality, hashing
    and ``repr`` ignore it and ``dataclasses.replace`` starts without one.
    """

    left: AttrRef
    comparator: str
    right: Union[AttrRef, Literal]
    right_offset: float = 0.0
    origin: str = "user"

    def __post_init__(self) -> None:
        if self.comparator not in COMPARATORS:
            raise PatternStructureError(f"unknown comparator {self.comparator!r}")

    def _tester(self, bindings: Binding) -> bool:
        # the first call compiles the tester, which then shadows this
        # method on the instance
        tester = compile_predicate(self)
        object.__setattr__(self, "_tester", tester)
        return tester(bindings)

    def __reduce__(self):
        # pickled by its fields; the tester is compiled again after load
        return (Predicate, (self.left, self.comparator, self.right,
                            self.right_offset, self.origin))

    def aliases(self) -> tuple[str, ...]:
        if isinstance(self.right, AttrRef) and self.right.alias != self.left.alias:
            return (self.left.alias, self.right.alias)
        return (self.left.alias,)


@dataclass(frozen=True)
class SelectionStrategy:
    kind: str = ANY_MATCH
    partition_key: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in STRATEGIES:
            raise ContractError(f"unknown selection strategy {self.kind!r}")

    @property
    def contiguous(self) -> bool:
        return self.kind in (STRICT_CONTIGUITY, PARTITION_CONTIGUITY)


@dataclass(frozen=True)
class Pattern:
    """A declarative pattern: operator tree, predicate conjunction, window.

    ``window`` is in seconds.  A set of events is inside the window when the
    largest pairwise timestamp difference is at most ``window``.
    """

    root: OperatorNode
    predicates: tuple[Predicate, ...] = ()
    window: float = 0.0
    strategy: SelectionStrategy = SelectionStrategy()

    def leaves(self) -> tuple[Leaf, ...]:
        """All leaf positions in declaration order (left-to-right)."""
        out: list[Leaf] = []

        def walk(node: Union[OperatorNode, Leaf]) -> None:
            if isinstance(node, Leaf):
                out.append(node)
            else:
                for child in node.children:
                    walk(child)

        walk(self.root)
        return tuple(out)

    def alias_types(self) -> dict[str, str]:
        return {leaf.alias: leaf.type_name for leaf in self.leaves()}

    def is_simple(self) -> bool:
        """One n-ary operator, children all leaves."""
        return all(isinstance(c, Leaf) for c in self.root.children)

    def with_strategy(self, strategy: SelectionStrategy) -> "Pattern":
        return replace(self, strategy=strategy)


def iter_nodes(node: Union[OperatorNode, Leaf]) -> Iterator[Union[OperatorNode, Leaf]]:
    yield node
    if isinstance(node, OperatorNode):
        for child in node.children:
            yield from iter_nodes(child)


def validate_pattern(pattern: Pattern) -> list[str]:
    """Check structural invariants; returns a list of violated rule names.

    An empty list means the pattern is valid.  Rule names are stable
    identifiers, suitable for asserting on in tests and for CLI output.
    """
    violations: list[str] = []
    if not pattern.window > 0:
        violations.append("window-not-positive")
    if pattern.root.op not in NARY_OPERATORS:
        violations.append("unknown-operator")
    leaves = pattern.leaves()
    if not leaves:
        violations.append("empty-pattern")

    aliases = [l.alias for l in leaves]
    if len(set(aliases)) != len(aliases):
        violations.append("duplicate-alias")
    types = [l.type_name for l in leaves]
    if len(set(types)) != len(types):
        violations.append("duplicate-type")

    for node in iter_nodes(pattern.root):
        if isinstance(node, OperatorNode):
            if node.op not in NARY_OPERATORS:
                violations.append("unknown-operator")
            if not node.children:
                violations.append("empty-operator")
        else:
            if len(node.unary) > 1:
                violations.append("unary-nesting")
            for u in node.unary:
                if u not in (NOT, KLEENE):
                    violations.append("unknown-unary")

    known = set(aliases)
    for pred in pattern.predicates:
        for alias in pred.aliases():
            if alias not in known:
                violations.append("unknown-alias")

    strategy = pattern.strategy
    if strategy.contiguous:
        if pattern.root.op != SEQ or not pattern.is_simple():
            violations.append("contiguity-requires-sequence")
        if any(l.kleene for l in leaves):
            violations.append("contiguity-with-kleene")
    if strategy.kind == PARTITION_CONTIGUITY and not strategy.partition_key:
        violations.append("partition-key-missing")

    # stable order, no duplicates
    seen: set[str] = set()
    unique = []
    for v in violations:
        if v not in seen:
            seen.add(v)
            unique.append(v)
    return unique


def predicate_selectivity_key(pattern: Pattern, predicate: Predicate) -> tuple[str, ...]:
    """The catalog key a predicate's selectivity is stored under.

    Cross predicates map to the sorted pair of event type names, filters to
    the single type name.  Unknown aliases raise ``PatternStructureError``.
    """
    alias_types = pattern.alias_types()
    names = set()
    for alias in predicate.aliases():
        if alias not in alias_types:
            raise PatternStructureError(f"predicate references unknown alias {alias!r}")
        names.add(alias_types[alias])
    return tuple(sorted(names))


# ---------------------------------------------------------------------------
# Predicate evaluation

_NUMERIC = (int, float)


def _compare(comparator: str, left: object, right: object) -> bool:
    if isinstance(left, str) or isinstance(right, str):
        if comparator not in TEXT_COMPARATORS:
            raise UnsupportedPatternError(
                f"comparator {comparator!r} is not defined for text attributes"
            )
        if comparator == "=":
            return left == right
        return left != right
    if not isinstance(left, _NUMERIC) or not isinstance(right, _NUMERIC):
        raise DataError(f"cannot compare {type(left).__name__} with {type(right).__name__}")
    if comparator == "<":
        return left < right
    if comparator == "<=":
        return left <= right
    if comparator == "=":
        return left == right
    if comparator == ">=":
        return left >= right
    if comparator == ">":
        return left > right
    return left != right


Binding = Mapping[str, Union[Event, Sequence[Event]]]


def interpret_predicate(predicate: Predicate, bindings: Binding) -> bool:
    """Evaluate a predicate against partially bound positions.

    This is the definition of predicate semantics; ``evaluate_predicate``
    gives the same answer, or raises the same error, by a compiled
    tester, and ``oracle_match`` and statistics estimation call this
    function directly.  Aliases missing from ``bindings`` make the
    predicate vacuously true (their constraints are rechecked when they
    bind), though a bound side is still read.  An alias bound to a
    sequence of events (a Kleene position) satisfies the predicate only
    if every member does.
    """

    def operands(side: Union[AttrRef, Literal], offset: float) -> list[object] | None:
        if isinstance(side, Literal):
            return [side.value]
        bound = bindings.get(side.alias)
        if bound is None:
            return None
        events = bound if isinstance(bound, (list, tuple)) else [bound]
        values = []
        for event in events:
            v = event.value(side.attribute)
            if offset and isinstance(v, _NUMERIC):
                v = v + offset
            values.append(v)
        return values

    lefts = operands(predicate.left, 0.0)
    rights = operands(predicate.right, predicate.right_offset)
    if lefts is None or rights is None:
        return True
    return all(
        _compare(predicate.comparator, lv, rv) for lv in lefts for rv in rights
    )


# ``_compare`` on two numbers (``bool`` aside) is the bare comparison
OPERATORS = {
    "<": operator.lt, "<=": operator.le, "=": operator.eq,
    ">=": operator.ge, ">": operator.gt, "!=": operator.ne,
}
_FAST = frozenset((int, float))  # exact types: a bool is an int, but not fast
_FIELDS = {"ts": "timestamp", "timestamp": "timestamp", "serial": "serial"}
_MISSING = object()


def compile_predicate(predicate: Predicate) -> Callable[[Binding], bool]:
    """The tester ``evaluate_predicate`` calls for ``predicate``.

    When both sides are bound to plain ``Event``s whose values are
    ``int`` or ``float``, the tester adds the right offset (when it is
    not zero) and makes one ``OPERATORS`` call, which is what
    ``_compare`` does with two numbers.  A value is read as
    ``Event.value`` reads it: ``ts``, ``timestamp`` and ``serial`` are
    fields, any other attribute an ``attrs`` key.  Every other case (a
    literal, a Kleene tuple, text, ``None``, ``bool``, a missing
    attribute or an unbound alias) goes to ``interpret_predicate``, so
    both give the same answer or the same error.
    """
    left, right = predicate.left, predicate.right
    if not isinstance(right, AttrRef):
        return partial(interpret_predicate, predicate)
    op = OPERATORS[predicate.comparator]
    offset = predicate.right_offset
    left_alias, right_alias = left.alias, right.alias
    left_key = right_key = None
    if left.attribute in _FIELDS:
        left_field = operator.attrgetter(_FIELDS[left.attribute])
    else:
        left_field, left_key = None, left.attribute
    if right.attribute in _FIELDS:
        right_field = operator.attrgetter(_FIELDS[right.attribute])
    else:
        right_field, right_key = None, right.attribute

    def tester(bindings: Binding) -> bool:
        a = bindings.get(left_alias)
        b = bindings.get(right_alias)
        if type(a) is Event and type(b) is Event:
            x = left_field(a) if left_key is None else a.attrs.get(left_key, _MISSING)
            y = right_field(b) if right_key is None else b.attrs.get(right_key, _MISSING)
            if type(x) in _FAST and type(y) in _FAST:
                return op(x, y + offset) if offset else op(x, y)
        return interpret_predicate(predicate, bindings)

    return tester


def evaluate_predicate(predicate: Predicate, bindings: Binding) -> bool:
    """``interpret_predicate``'s answer, or error, by the tester the
    predicate was compiled into (see ``compile_predicate``).  The engines
    and their absence tests call this once per (predicate, candidate)."""
    return predicate._tester(bindings)


# ---------------------------------------------------------------------------
# Statistics


def selectivity_key(a: str, b: str | None = None) -> tuple[str, ...]:
    if b is None or b == a:
        return (a,)
    return tuple(sorted((a, b)))


def _catalog_key(key: str | tuple[str, ...]) -> tuple[str, ...]:
    """Normalize a catalog key: one type name, or a pair of them."""
    if isinstance(key, str):
        return (key,)
    if (
        isinstance(key, tuple)
        and 1 <= len(key) <= 2
        and all(isinstance(part, str) for part in key)
    ):
        return selectivity_key(*key)
    raise ContractError(f"selectivity key must be one or two type names: {key!r}")


@dataclass(frozen=True)
class StatisticsCatalog:
    """Arrival rates (events/second) and predicate selectivities.

    Rates are positive and finite.  The selectivity map is keyed by
    ``selectivity_key``: sorted type pairs for cross predicates, single
    names for filters; absent keys default to 1.
    """

    rates: Mapping[str, float]
    selectivities: Mapping[tuple[str, ...], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, rate in self.rates.items():
            if not rate > 0 or math.isinf(rate):
                raise ContractError(f"rate for {name!r} must be positive and finite: {rate}")
        norm_sel: dict[tuple[str, ...], float] = {}
        for key, value in self.selectivities.items():
            norm = _catalog_key(key)
            if not 0.0 <= value <= 1.0:
                raise ContractError(f"selectivity for {norm} out of [0, 1]: {value}")
            norm_sel[norm] = value
        object.__setattr__(self, "rates", dict(self.rates))
        object.__setattr__(self, "selectivities", norm_sel)

    def rate(self, type_name: str) -> float:
        try:
            return self.rates[type_name]
        except KeyError:
            raise MissingStatisticsError(f"no arrival rate for type {type_name!r}") from None

    def sel(self, a: str, b: str | None = None) -> float:
        """Selectivity of the pair ``a``-``b``, or of ``a``'s filters alone.

        Keys are type names only: ``sel(a, b)`` reads the sorted pair
        ``selectivity_key(a, b)``, and ``sel(a)`` (or ``sel(a, a)``) reads
        ``(a,)``, the combined selectivity of every filter on ``a``.
        Absent keys are 1.
        """
        if not isinstance(a, str) or not isinstance(b, (str, type(None))):
            raise ContractError(f"selectivity lookup takes type names: {a!r}, {b!r}")
        return self.selectivities.get(selectivity_key(a, b), 1.0)

    # -- JSON interface -----------------------------------------------------

    @classmethod
    def from_json(cls, text: str) -> "StatisticsCatalog":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"malformed statistics JSON: {exc}") from exc
        if not isinstance(doc, dict) or "rates" not in doc:
            raise DataError("statistics JSON must be an object with a 'rates' member")
        rates = doc["rates"]
        sels_raw = doc.get("selectivities", {})
        if not isinstance(rates, dict) or not isinstance(sels_raw, dict):
            raise DataError("'rates' and 'selectivities' must be objects")
        sels: dict[tuple[str, ...], float] = {}
        try:
            for key, value in sels_raw.items():
                parts = tuple(p.strip() for p in key.split(","))
                if not all(parts) or len(parts) > 2:
                    raise DataError(f"bad selectivity key {key!r}")
                sels[selectivity_key(*parts)] = float(value)
            return cls({str(k): float(v) for k, v in rates.items()}, sels)
        except (TypeError, ValueError) as exc:
            raise DataError(f"bad statistics value: {exc}") from exc

    def to_json(self) -> str:
        doc = {
            "rates": dict(sorted(self.rates.items())),
            "selectivities": {
                ",".join(key): value for key, value in sorted(self.selectivities.items())
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# Plans


@dataclass(frozen=True)
class OrderPlan:
    """An event-processing order over the positive core of one conjunct."""

    order: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.order)) != len(self.order):
            raise ContractError("evaluation order repeats a type")


@dataclass(frozen=True)
class TreeNode:
    """A node of a binary evaluation tree; leaves carry an event type."""

    type_name: str | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.type_name is not None

    def __post_init__(self) -> None:
        if self.is_leaf:
            if self.left is not None or self.right is not None:
                raise ContractError("leaf nodes cannot have children")
        elif self.left is None or self.right is None:
            raise ContractError("internal nodes need both children")

    def leaf_names(self) -> tuple[str, ...]:
        if self.is_leaf:
            return (self.type_name,)
        return self.left.leaf_names() + self.right.leaf_names()

    def label(self) -> str:
        """The subtree's shape with its leaves' types, as in ``(A,(B,C))``."""
        if self.is_leaf:
            return self.type_name
        return f"({self.left.label()},{self.right.label()})"

    def postorder(self) -> Iterator["TreeNode"]:
        if not self.is_leaf:
            yield from self.left.postorder()
            yield from self.right.postorder()
        yield self


def leaf(type_name: str) -> TreeNode:
    return TreeNode(type_name=type_name)


def join(left_node: TreeNode, right_node: TreeNode) -> TreeNode:
    return TreeNode(left=left_node, right=right_node)


def left_deep_tree(order: Sequence[str]) -> TreeNode:
    if not order:
        raise ContractError("cannot build a tree over an empty order")
    node = leaf(order[0])
    for name in order[1:]:
        node = join(node, leaf(name))
    return node


@dataclass(frozen=True)
class TreePlan:
    """A bushy evaluation tree over the positive core of one conjunct."""

    root: TreeNode

    def __post_init__(self) -> None:
        names = self.root.leaf_names()
        if len(set(names)) != len(names):
            raise ContractError("evaluation tree repeats a type")


Plan = Union[OrderPlan, TreePlan]


# ---------------------------------------------------------------------------
# Match reports


@dataclass(slots=True)
class MatchReport:
    """One full match, built once when an engine finds it; treat it as
    immutable.

    ``serials`` is the sorted tuple of contributing event serials and is the
    canonical identity of the match; ``groups`` maps aliases to the events
    bound at that position (more than one for Kleene positions).
    ``emit_serial`` is the arrival index at which the match was emitted:
    that of its completing event, ``completion_serial``, unless an
    absence test held it until a later arrival.  ``conjunct`` is the index
    of the conjunct whose engine found it and ``arrived`` the
    ``time.perf_counter()`` reading at its completing event's arrival;
    neither is part of the match, and equality ignores both.
    """

    serials: tuple[int, ...]
    groups: tuple[tuple[str, tuple[int, ...]], ...]
    emit_serial: int
    completion_serial: int
    conjunct: int = field(default=0, compare=False)
    arrived: float = field(default=0.0, compare=False, repr=False)
