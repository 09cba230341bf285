"""Core data model: events, patterns, predicates, statistics, plan shapes."""
import dataclasses
import json
import math
import pickle

import pytest

from streamcep.model import (
    AttrRef,
    ContractError,
    DataError,
    Event,
    KLEENE,
    Leaf,
    Literal,
    MissingStatisticsError,
    NOT,
    OperatorNode,
    OrderPlan,
    Pattern,
    Predicate,
    PatternStructureError,
    SEQ,
    SelectionStrategy,
    StatisticsCatalog,
    TreePlan,
    UnsupportedPatternError,
    ANY_MATCH,
    NEXT_MATCH,
    PARTITION_CONTIGUITY,
    STRICT_CONTIGUITY,
    COMPARATORS,
    evaluate_predicate,
    interpret_predicate,
    iter_nodes,
    join,
    leaf,
    left_deep_tree,
    predicate_selectivity_key,
    selectivity_key,
    validate_pattern,
)


def ev(type_name, ts, serial, **attrs):
    return Event(type_name, ts, serial, attrs)


def simple_seq(*types):
    leaves = tuple(Leaf(t, t.lower()) for t in types)
    return Pattern(OperatorNode(SEQ, leaves), (), 10.0)


class TestEvent:
    def test_value_routes_timestamp_and_serial(self):
        e = ev("A", 3.5, 7, temp=21.0)
        assert e.value("ts") == 3.5
        assert e.value("timestamp") == 3.5
        assert e.value("serial") == 7
        assert e.value("temp") == 21.0

    def test_missing_attribute_is_a_data_error(self):
        with pytest.raises(DataError):
            ev("A", 0.0, 0).value("nope")


class TestPatternStructure:
    def test_leaves_in_document_order(self):
        p = simple_seq("A", "B", "C")
        assert [l.alias for l in p.leaves()] == ["a", "b", "c"]
        assert p.alias_types() == {"a": "A", "b": "B", "c": "C"}
        assert tuple(l.type_name for l in p.leaves()) == ("A", "B", "C")

    def test_negated_and_kleene_wrappers(self):
        root = OperatorNode(
            SEQ,
            (
                Leaf("A", "a"),
                Leaf("B", "b", (NOT,)),
                Leaf("C", "c", (KLEENE,)),
            ),
        )
        p = Pattern(root, (), 5.0)
        flags = {l.alias: (l.negated, l.kleene) for l in p.leaves()}
        assert flags == {"a": (False, False), "b": (True, False), "c": (False, True)}
        assert validate_pattern(p) == []

    def test_iter_nodes_covers_every_operator(self):
        p = simple_seq("A", "B")
        kinds = [type(n).__name__ for n in iter_nodes(p.root)]
        assert kinds == ["OperatorNode", "Leaf", "Leaf"]

    def test_duplicate_alias_flagged(self):
        root = OperatorNode(SEQ, (Leaf("A", "x"), Leaf("B", "x")))
        assert "duplicate-alias" in validate_pattern(Pattern(root, (), 10.0))

    def test_duplicate_type_flagged(self):
        root = OperatorNode(SEQ, (Leaf("A", "a"), Leaf("A", "b")))
        assert "duplicate-type" in validate_pattern(Pattern(root, (), 10.0))

    def test_nonpositive_window_flagged(self):
        root = OperatorNode(SEQ, (Leaf("A", "a"), Leaf("B", "b")))
        assert "window-not-positive" in validate_pattern(Pattern(root, (), 0.0))

    def test_unknown_alias_in_predicate_flagged(self):
        pred = Predicate(AttrRef("z", "x"), "<", Literal(1.0))
        p = Pattern(OperatorNode(SEQ, (Leaf("A", "a"),)), (pred,), 10.0)
        assert "unknown-alias" in validate_pattern(p)

    def test_nested_unary_wrappers_flagged(self):
        root = OperatorNode(SEQ, (Leaf("A", "a", (KLEENE, NOT)), Leaf("B", "b")))
        assert "unary-nesting" in validate_pattern(Pattern(root, (), 10.0))

    def test_contiguity_restricted_to_plain_sequences(self):
        inner = OperatorNode(SEQ, (Leaf("B", "b"), Leaf("C", "c")))
        root = OperatorNode(SEQ, (Leaf("A", "a"), inner))
        p = Pattern(root, (), 10.0, SelectionStrategy(STRICT_CONTIGUITY))
        assert "contiguity-requires-sequence" in validate_pattern(p)
        kl = OperatorNode(SEQ, (Leaf("A", "a"), Leaf("B", "b", (KLEENE,))))
        q = Pattern(kl, (), 10.0, SelectionStrategy(STRICT_CONTIGUITY))
        assert "contiguity-with-kleene" in validate_pattern(q)

    def test_partition_key_missing_flagged(self):
        root = OperatorNode(SEQ, (Leaf("A", "a"), Leaf("B", "b")))
        p = Pattern(root, (), 10.0, SelectionStrategy(PARTITION_CONTIGUITY))
        assert "partition-key-missing" in validate_pattern(p)

    def test_violation_list_is_deduplicated_and_ordered(self):
        root = OperatorNode(SEQ, (Leaf("A", "x"), Leaf("B", "x"), Leaf("C", "x")))
        msgs = validate_pattern(Pattern(root, (), 0.0))
        assert msgs.count("duplicate-alias") == 1
        assert msgs[0] == "window-not-positive"

    def test_with_strategy_replaces_only_strategy(self):
        p = simple_seq("A", "B")
        q = p.with_strategy(SelectionStrategy(NEXT_MATCH))
        assert q.strategy.kind == NEXT_MATCH
        assert q.root is p.root and q.window == p.window
        assert p.strategy.kind == ANY_MATCH

    def test_is_simple(self):
        assert simple_seq("A", "B").is_simple()
        inner = OperatorNode(SEQ, (Leaf("B", "b"), Leaf("C", "c")))
        nested = Pattern(OperatorNode(SEQ, (Leaf("A", "a"), inner)), (), 5.0)
        assert not nested.is_simple()


class TestSelectionStrategy:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractError):
            SelectionStrategy("eventually")

    def test_contiguity_flags(self):
        assert SelectionStrategy(STRICT_CONTIGUITY).contiguous
        assert SelectionStrategy(PARTITION_CONTIGUITY, "region").contiguous
        assert not SelectionStrategy(ANY_MATCH).contiguous
        assert not SelectionStrategy(NEXT_MATCH).contiguous


class TestPredicateEvaluation:
    def test_comparators_on_numbers(self):
        a, b = ev("A", 1.0, 0, x=2.0), ev("B", 2.0, 1, x=3.0)
        cases = {"<": True, "<=": True, "=": False, ">=": False, ">": False, "!=": True}
        for comparator, expected in cases.items():
            pred = Predicate(AttrRef("a", "x"), comparator, AttrRef("b", "x"))
            assert evaluate_predicate(pred, {"a": a, "b": b}) is expected

    def test_unknown_comparator_rejected_at_construction(self):
        with pytest.raises(PatternStructureError):
            Predicate(AttrRef("a", "x"), "~", Literal(1.0))

    def test_right_offset_shifts_the_right_operand(self):
        a, b = ev("A", 1.0, 0, x=5.0), ev("B", 2.0, 1, x=3.0)
        pred = Predicate(AttrRef("a", "x"), "<", AttrRef("b", "x"), right_offset=2.5)
        assert evaluate_predicate(pred, {"a": a, "b": b})
        pred2 = Predicate(AttrRef("a", "x"), "<", AttrRef("b", "x"), right_offset=1.5)
        assert not evaluate_predicate(pred2, {"a": a, "b": b})

    def test_unbound_alias_is_vacuously_true(self):
        pred = Predicate(AttrRef("a", "x"), "<", AttrRef("b", "x"))
        assert evaluate_predicate(pred, {"a": ev("A", 0.0, 0, x=1.0)})
        assert evaluate_predicate(pred, {})

    def test_kleene_binding_requires_every_member(self):
        pred = Predicate(AttrRef("k", "x"), "<", Literal(10.0))
        group_ok = [ev("K", 0.0, 0, x=1.0), ev("K", 1.0, 1, x=2.0)]
        group_bad = group_ok + [ev("K", 2.0, 2, x=99.0)]
        assert evaluate_predicate(pred, {"k": group_ok})
        assert not evaluate_predicate(pred, {"k": group_bad})

    def test_literal_comparison_and_text_rules(self):
        a = ev("A", 0.0, 0, tag="hot")
        eq = Predicate(AttrRef("a", "tag"), "=", Literal("hot"))
        ne = Predicate(AttrRef("a", "tag"), "!=", Literal("cold"))
        assert evaluate_predicate(eq, {"a": a})
        assert evaluate_predicate(ne, {"a": a})
        bad = Predicate(AttrRef("a", "tag"), "<", Literal("zzz"))
        with pytest.raises(UnsupportedPatternError):
            evaluate_predicate(bad, {"a": a})

    def test_number_versus_none_is_a_data_error(self):
        a = ev("A", 0.0, 0, x=None)
        pred = Predicate(AttrRef("a", "x"), "<", Literal(1.0))
        with pytest.raises(DataError):
            evaluate_predicate(pred, {"a": a})

    def test_predicate_selectivity_key_sorts_types(self):
        p = simple_seq("C", "A")
        pred = Predicate(AttrRef("c", "x"), "<", AttrRef("a", "x"))
        assert predicate_selectivity_key(p, pred) == ("A", "C")
        single = Predicate(AttrRef("a", "x"), "<", Literal(1.0))
        assert predicate_selectivity_key(p, single) == ("A",)

    def test_predicate_selectivity_key_unknown_alias(self):
        p = simple_seq("A")
        pred = Predicate(AttrRef("q", "x"), "<", Literal(1.0))
        with pytest.raises(PatternStructureError):
            predicate_selectivity_key(p, pred)


ABSENT = object()  # the attribute is missing from the event
# numbers, bool, the float specials, ints past the float range, None, text
VALUES = (0, 1, -3, 2.5, 0.0, -0.0, True, False, math.nan, math.inf, -math.inf,
          10 ** 400, -(10 ** 400), None, "hot", "1")
OFFSETS = (0.0, 0.5, 1, -math.inf)
FIELDS = ("ts", "timestamp", "serial")


def valued(type_name, attribute, value):
    """An event whose ``attribute`` reads ``value``; its ``attrs`` hold
    numbers under the fields' names, which ``Event.value`` never reads."""
    attrs = {"ts": 99.5, "timestamp": 99.5, "serial": 99}
    ts, serial = 0.0, 0
    if attribute in ("ts", "timestamp"):
        ts = value
    elif attribute == "serial":
        serial = value
    elif value is not ABSENT:
        attrs[attribute] = value
    return Event(type_name, ts, serial, attrs)


def outcome(evaluate, predicate, bindings):
    """The answer with its type, or the error's type and message."""
    try:
        answer = evaluate(predicate, bindings)
    except Exception as exc:
        return type(exc), str(exc)
    return type(answer), answer


def disagreements(cases):
    """The (predicate, bindings) cases where the compiled tester and the
    interpreter differ; NaN answers never occur, so == suffices."""
    return [
        (predicate, bindings, got, want)
        for predicate, bindings in cases
        for got, want in [(outcome(evaluate_predicate, predicate, bindings),
                           outcome(interpret_predicate, predicate, bindings))]
        if got != want
    ]


class TestCompiledTesters:
    """``evaluate_predicate`` runs each predicate's compiled tester, which
    must give the interpreter's bool or raise its error, case by case."""

    @pytest.mark.parametrize("comparator", COMPARATORS)
    def test_two_bound_events(self, comparator):
        attribute_pairs = [("x", "x"), ("x", "y"), ("ts", "x"), ("x", "serial"),
                           ("timestamp", "serial"), ("serial", "ts")]
        cases = []
        for left_attr, right_attr in attribute_pairs:
            lefts = VALUES + (() if left_attr in FIELDS else (ABSENT,))
            rights = VALUES + (() if right_attr in FIELDS else (ABSENT,))
            for offset in OFFSETS:
                pred = Predicate(AttrRef("a", left_attr), comparator,
                                 AttrRef("b", right_attr), right_offset=offset)
                cases += [
                    (pred, {"a": valued("A", left_attr, lv), "b": valued("B", right_attr, rv)})
                    for lv in lefts for rv in rights
                ]
        assert disagreements(cases) == []

    @pytest.mark.parametrize("comparator", COMPARATORS)
    def test_one_event_two_attributes(self, comparator):
        cases = []
        for lv in VALUES + (ABSENT,):
            for rv in VALUES + (ABSENT,):
                attrs = {k: v for k, v in (("x", lv), ("y", rv)) if v is not ABSENT}
                event = Event("A", 1.0, 4, attrs)
                for offset in OFFSETS:
                    pred = Predicate(AttrRef("a", "x"), comparator, AttrRef("a", "y"),
                                     right_offset=offset)
                    cases.append((pred, {"a": event}))
        assert disagreements(cases) == []

    @pytest.mark.parametrize("comparator", COMPARATORS)
    def test_an_unbound_side_still_reads_the_bound_one(self, comparator):
        # vacuously true, unless reading the bound side raises
        pred = Predicate(AttrRef("a", "x"), comparator, AttrRef("b", "x"), right_offset=0.5)
        cases = [(pred, {})]
        for value in VALUES + (ABSENT,):
            cases += [(pred, {"a": valued("A", "x", value)}),
                      (pred, {"b": valued("B", "x", value)})]
        assert disagreements(cases) == []
        assert outcome(evaluate_predicate, pred, {"b": valued("B", "x", ABSENT)})[0] is DataError
        assert outcome(evaluate_predicate, pred, {"b": valued("B", "x", 10 ** 400)})[0] \
            is OverflowError

    @pytest.mark.parametrize("comparator", COMPARATORS)
    def test_literals(self, comparator):
        cases = [
            (Predicate(AttrRef("a", attribute), comparator, Literal(literal),
                       right_offset=offset), {"a": valued("A", attribute, value)})
            for attribute in ("x", "ts", "serial")
            for value in VALUES + (() if attribute in FIELDS else (ABSENT,))
            for literal in VALUES
            for offset in (0.0, 0.5)
        ]
        assert disagreements(cases) == []

    @pytest.mark.parametrize("comparator", COMPARATORS)
    def test_kleene_groups_of_mixed_members(self, comparator):
        members = [valued("K", "x", v) for v in (1, 2.5, True, math.nan, None, "hot")]
        groups = [tuple(members[:2]), tuple(members[:3]), list(members[1:4]),
                  tuple(members[3:]), (members[0],), ()]
        single = valued("B", "x", 2)
        cases = []
        for group in groups:
            for offset in (0.0, 0.5):
                pred = Predicate(AttrRef("k", "x"), comparator, AttrRef("b", "x"),
                                 right_offset=offset)
                back = Predicate(AttrRef("b", "x"), comparator, AttrRef("k", "x"),
                                 right_offset=offset)
                cases += [(pred, {"k": group, "b": single}), (back, {"k": group, "b": single}),
                          (pred, {"k": group, "b": groups[0]})]
        assert disagreements(cases) == []

    def test_the_tester_is_not_part_of_the_value(self):
        pred = Predicate(AttrRef("a", "x"), "<", AttrRef("b", "x"), right_offset=0.5)
        twin = Predicate(AttrRef("a", "x"), "<", AttrRef("b", "x"), right_offset=0.5)
        assert pred == twin and hash(pred) == hash(twin)
        assert repr(pred) == (
            "Predicate(left=AttrRef(alias='a', attribute='x'), comparator='<', "
            "right=AttrRef(alias='b', attribute='x'), right_offset=0.5, origin='user')"
        )
        bindings = {"a": ev("A", 0.0, 0, x=1.0), "b": ev("B", 1.0, 1, x=0.8)}
        assert evaluate_predicate(pred, bindings)
        moved = dataclasses.replace(pred, comparator=">")
        assert not evaluate_predicate(moved, bindings)
        assert dataclasses.asdict(pred) == dataclasses.asdict(twin)
        loaded = pickle.loads(pickle.dumps(pred))
        assert loaded == pred and evaluate_predicate(loaded, bindings)


class TestStatisticsCatalog:
    def test_selectivity_defaults_to_one(self):
        stats = StatisticsCatalog(rates={"A": 1.0, "B": 2.0})
        assert stats.sel("A", "B") == 1.0
        assert stats.sel("B", "A") == 1.0

    def test_selectivity_key_is_symmetric(self):
        assert selectivity_key("B", "A") == ("A", "B")
        assert selectivity_key("A") == ("A",)
        assert selectivity_key("A", "A") == ("A",)
        stats = StatisticsCatalog(
            rates={"A": 1.0, "B": 1.0}, selectivities={("B", "A"): 0.25}
        )
        assert stats.sel("A", "B") == 0.25

    def test_missing_rate_raises(self):
        stats = StatisticsCatalog(rates={"A": 1.0})
        with pytest.raises(MissingStatisticsError):
            stats.rate("Z")

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.inf, math.nan])
    def test_rates_must_be_positive_and_finite(self, rate):
        with pytest.raises(ContractError, match="positive and finite"):
            StatisticsCatalog(rates={"A": 1.0, "B": rate})

    def test_constructor_rejects_a_key_of_three_types(self):
        with pytest.raises(ContractError, match="one or two type names"):
            StatisticsCatalog(rates={"A": 1.0}, selectivities={("A", "B", "C"): 0.5})

    def test_sel_rejects_a_key_that_is_not_a_type_name(self):
        stats = StatisticsCatalog(rates={"A": 1.0}, selectivities={("A",): 0.5})
        with pytest.raises(ContractError, match="type names"):
            stats.sel(("A", "x > 0.5"))

    def test_json_round_trip(self):
        stats = StatisticsCatalog(
            rates={"A": 1.5, "B": 0.25},
            selectivities={("A", "B"): 0.1, ("A",): 0.9},
        )
        doc = json.loads(stats.to_json())
        back = StatisticsCatalog.from_json(json.dumps(doc))
        assert back.rates == stats.rates
        assert back.selectivities == stats.selectivities

    def test_from_json_rejects_malformed_documents(self):
        with pytest.raises(DataError):
            StatisticsCatalog.from_json("[]")
        with pytest.raises(DataError):
            StatisticsCatalog.from_json('{"selectivities": {}}')

    @pytest.mark.parametrize("value", ['"x"', "null", "[]"])
    def test_from_json_rejects_a_selectivity_that_is_not_a_number(self, value):
        text = '{"rates": {"A": 1, "B": 1}, "selectivities": {"A,B": %s}}' % value
        with pytest.raises(DataError, match="bad statistics value"):
            StatisticsCatalog.from_json(text)


class TestPlanShapes:
    def test_order_plan_rejects_duplicates(self):
        with pytest.raises(ContractError):
            OrderPlan(("A", "A"))

    def test_left_deep_tree_shape(self):
        tree = left_deep_tree(("A", "B", "C"))
        assert tree.leaf_names() == ("A", "B", "C")
        assert not tree.is_leaf
        assert tree.right.is_leaf and tree.right.type_name == "C"
        assert tree.left.leaf_names() == ("A", "B")

    def test_postorder_visits_children_first(self):
        tree = join(leaf("A"), join(leaf("B"), leaf("C")))
        names = [n.type_name if n.is_leaf else "*" for n in tree.postorder()]
        assert names == ["A", "B", "C", "*", "*"]

    def test_tree_label_shows_the_shape(self):
        assert leaf("A").label() == "A"
        assert join(leaf("A"), join(leaf("B"), leaf("C"))).label() == "(A,(B,C))"

    def test_tree_node_shape_invariants(self):
        with pytest.raises(ContractError):
            join(leaf("A"), None)
        from streamcep.model import TreeNode

        with pytest.raises(ContractError):
            TreeNode(type_name="A", left=leaf("B"), right=leaf("C"))

    def test_tree_plan_rejects_duplicate_leaves(self):
        with pytest.raises(ContractError):
            TreePlan(join(leaf("A"), leaf("A")))
