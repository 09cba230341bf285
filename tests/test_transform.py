"""Pattern rewrites: sequence flattening, negation split, disjunctive
normal form, contiguity predicates, and the pipeline."""
import pytest

from streamcep.model import (
    AND,
    AttrRef,
    Event,
    KLEENE,
    Leaf,
    NOT,
    OperatorNode,
    OR,
    Pattern,
    Predicate,
    SEQ,
    SelectionStrategy,
    UnsupportedPatternError,
    PARTITION_CONTIGUITY,
    STRICT_CONTIGUITY,
)
from streamcep.oracle import oracle_match
from streamcep.transform import (
    CONTIGUITY_ORIGIN,
    TEMPORAL_ORIGIN,
    add_contiguity_predicates,
    normalize_pattern,
    seq_to_and,
    split_negation,
    to_dnf,
)

from helpers import match_keys


def seq(*leaves, predicates=(), window=10.0, strategy=SelectionStrategy()):
    return Pattern(OperatorNode(SEQ, tuple(leaves)), tuple(predicates), window, strategy)


def temporal_pairs(pattern):
    return [
        (p.left.alias, p.comparator, p.right.alias)
        for p in pattern.predicates
        if p.origin == TEMPORAL_ORIGIN
    ]


class TestSeqToAnd:
    def test_adjacent_pairs_get_order_predicates(self):
        p = seq(Leaf("A", "a"), Leaf("B", "b"), Leaf("C", "c"))
        q = seq_to_and(p)
        assert q.root.op == AND
        assert temporal_pairs(q) == [("a", "<", "b"), ("b", "<", "c")]
        ts = q.predicates[0]
        assert ts.left.attribute == "ts" and ts.right_offset == 0.0

    def test_user_predicates_are_kept(self):
        user = Predicate(AttrRef("a", "x"), "<", AttrRef("b", "x"))
        q = seq_to_and(seq(Leaf("A", "a"), Leaf("B", "b"), predicates=[user]))
        assert user in q.predicates

    def test_negated_position_is_ordered_against_both_neighbors(self):
        p = seq(Leaf("A", "a"), Leaf("N", "n", (NOT,)), Leaf("B", "b"))
        q = seq_to_and(p)
        # positive chain skips n; n is tied to both neighbors
        assert temporal_pairs(q) == [
            ("a", "<", "b"),
            ("a", "<", "n"),
            ("n", "<", "b"),
        ]

    def test_leading_and_trailing_negation(self):
        lead = seq_to_and(seq(Leaf("N", "n", (NOT,)), Leaf("A", "a")))
        assert temporal_pairs(lead) == [("n", "<", "a")]
        trail = seq_to_and(seq(Leaf("A", "a"), Leaf("N", "n", (NOT,))))
        assert temporal_pairs(trail) == [("a", "<", "n")]

    def test_rejects_non_sequences(self):
        with pytest.raises(UnsupportedPatternError):
            seq_to_and(Pattern(OperatorNode(AND, (Leaf("A", "a"),)), (), 5.0))

    def test_matches_are_preserved(self):
        p = seq(Leaf("A", "a"), Leaf("B", "b"), window=5.0)
        events = [
            Event("A", 0.0, 0),
            Event("B", 1.0, 1),
            Event("B", 2.0, 2),
            Event("A", 3.0, 3),
            Event("B", 3.5, 4),
        ]
        assert match_keys(oracle_match(p, events)) == match_keys(
            oracle_match(seq_to_and(p), events)
        )


class TestSplitNegation:
    def test_sequence_mode_records_neighbors(self):
        p = seq(Leaf("A", "a"), Leaf("N", "n", (NOT,)), Leaf("B", "b"))
        core, specs = split_negation(seq_to_and(p))
        assert [l.alias for l in core.leaves()] == ["a", "b"]
        assert all(
            "n" not in pred.aliases() for pred in core.predicates
        )
        (spec,) = specs
        # after flattening, the neighbours' order lives in the predicates
        assert spec.alias == "n" and spec.type_name == "N"
        assert spec.dependencies == ("A", "B")
        assert not spec.needs_pending
        assert spec.ts_confined

    def test_inner_sequence_negation_is_confined(self):
        p = seq(Leaf("A", "a"), Leaf("N", "n", (NOT,)), Leaf("B", "b"),
                Leaf("C", "c"))
        (conjunct,) = normalize_pattern(p).conjuncts
        (spec,) = conjunct.negations
        assert spec.dependencies == ("A", "B")
        assert not spec.needs_pending
        assert spec.ts_confined

    def test_trailing_negation_needs_pending(self):
        for p in (seq(Leaf("A", "a"), Leaf("N", "n", (NOT,))),
                  seq(Leaf("N", "n", (NOT,)), Leaf("A", "a"))):
            (conjunct,) = normalize_pattern(p).conjuncts
            (spec,) = conjunct.negations
            assert spec.dependencies == ("A",)
            assert not spec.ts_confined
            trailing = p.leaves()[-1].negated
            assert spec.needs_pending == trailing

    def test_and_mode_bounded_above_only_by_strict_less(self):
        def spec_with(comparator):
            pred = Predicate(AttrRef("n", "ts"), comparator, AttrRef("b", "ts"))
            p = Pattern(
                OperatorNode(AND, (Leaf("B", "b"), Leaf("N", "n", (NOT,)))),
                (pred,),
                10.0,
            )
            _, (spec,) = split_negation(p)
            return spec

        assert not spec_with("<").needs_pending
        # an equal-timestamp blocker may still follow the bounding member
        assert spec_with("<=").needs_pending
        assert spec_with(">").needs_pending

    def test_ts_confined_needs_bounds_on_both_sides(self):
        upper = Predicate(AttrRef("n", "ts"), "<", AttrRef("b", "ts"))
        lower = Predicate(AttrRef("a", "ts"), "<", AttrRef("n", "ts"))
        closed_lower = Predicate(AttrRef("a", "ts"), "<=", AttrRef("n", "ts"))
        root = OperatorNode(
            AND, (Leaf("A", "a"), Leaf("B", "b"), Leaf("N", "n", (NOT,)))
        )
        _, (one_sided,) = split_negation(Pattern(root, (upper,), 10.0))
        assert not one_sided.ts_confined
        _, (both,) = split_negation(Pattern(root, (upper, lower), 10.0))
        assert both.ts_confined
        # a lower bound counts with <= too
        _, (closed,) = split_negation(Pattern(root, (upper, closed_lower), 10.0))
        assert closed.ts_confined

    def test_offset_bounds_do_not_count(self):
        pred = Predicate(
            AttrRef("n", "ts"), "<", AttrRef("b", "ts"), right_offset=1.0
        )
        p = Pattern(
            OperatorNode(AND, (Leaf("B", "b"), Leaf("N", "n", (NOT,)))),
            (pred,),
            10.0,
        )
        _, (spec,) = split_negation(p)
        assert spec.needs_pending

    def test_and_mode_dependencies_come_from_predicates(self):
        pred = Predicate(AttrRef("n", "x"), "=", AttrRef("a", "x"))
        root = OperatorNode(
            AND, (Leaf("A", "a"), Leaf("B", "b"), Leaf("N", "n", (NOT,)))
        )
        _, (spec,) = split_negation(Pattern(root, (pred,), 10.0))
        assert spec.dependencies == ("A",)
        assert spec.predicates == (pred,)

    def test_predicates_between_negated_positions_rejected(self):
        pred = Predicate(AttrRef("n", "x"), "=", AttrRef("m", "x"))
        root = OperatorNode(
            AND,
            (Leaf("A", "a"), Leaf("N", "n", (NOT,)), Leaf("M", "m", (NOT,))),
        )
        with pytest.raises(UnsupportedPatternError):
            split_negation(Pattern(root, (pred,), 10.0))

    def test_purely_negative_pattern_rejected(self):
        root = OperatorNode(AND, (Leaf("N", "n", (NOT,)),))
        with pytest.raises(UnsupportedPatternError):
            split_negation(Pattern(root, (), 10.0))
        # a negated sequence must be flattened by seq_to_and first
        with pytest.raises(UnsupportedPatternError):
            split_negation(seq(Leaf("A", "a"), Leaf("N", "n", (NOT,)), Leaf("B", "b")))

    def test_no_negation_is_identity(self):
        p = seq(Leaf("A", "a"), Leaf("B", "b"))
        core, specs = split_negation(p)
        assert core is p and specs == ()


class TestToDnf:
    def test_top_level_or_splits(self):
        p = Pattern(
            OperatorNode(
                OR,
                (
                    OperatorNode(SEQ, (Leaf("A", "a"), Leaf("B", "b"))),
                    OperatorNode(SEQ, (Leaf("C", "c"), Leaf("D", "d"))),
                ),
            ),
            (),
            10.0,
        )
        conjuncts = to_dnf(p)
        assert len(conjuncts) == 2
        assert [c.root.op for c in conjuncts] == [SEQ, SEQ]
        assert [l.alias for l in conjuncts[0].leaves()] == ["a", "b"]

    def test_or_inside_and_distributes(self):
        p = Pattern(
            OperatorNode(
                AND,
                (
                    Leaf("A", "a"),
                    OperatorNode(OR, (Leaf("B", "b"), Leaf("C", "c"))),
                ),
            ),
            (),
            10.0,
        )
        conjuncts = to_dnf(p)
        assert [[l.alias for l in c.leaves()] for c in conjuncts] == [
            ["a", "b"],
            ["a", "c"],
        ]

    def test_or_inside_seq_distributes(self):
        p = Pattern(
            OperatorNode(
                SEQ,
                (
                    Leaf("A", "a"),
                    OperatorNode(OR, (Leaf("B", "b"), Leaf("C", "c"))),
                ),
            ),
            (),
            10.0,
        )
        conjuncts = to_dnf(p)
        assert [c.root.op for c in conjuncts] == [SEQ, SEQ]
        assert [[l.alias for l in c.leaves()] for c in conjuncts] == [
            ["a", "b"],
            ["a", "c"],
        ]

    def test_predicate_spanning_or_branches_is_dropped(self):
        cross = Predicate(AttrRef("b", "x"), "<", AttrRef("c", "x"))
        keep = Predicate(AttrRef("a", "x"), "<", AttrRef("b", "x"))
        p = Pattern(
            OperatorNode(
                AND,
                (
                    Leaf("A", "a"),
                    OperatorNode(OR, (Leaf("B", "b"), Leaf("C", "c"))),
                ),
            ),
            (cross, keep),
            10.0,
        )
        first, second = to_dnf(p)
        assert keep in first.predicates and cross not in first.predicates
        assert second.predicates == ()

    def test_seq_nested_in_and_is_flattened_with_order_predicates(self):
        p = Pattern(
            OperatorNode(
                AND,
                (
                    Leaf("A", "a"),
                    OperatorNode(SEQ, (Leaf("B", "b"), Leaf("C", "c"))),
                ),
            ),
            (),
            10.0,
        )
        (conjunct,) = to_dnf(p)
        assert conjunct.root.op == AND
        assert [l.alias for l in conjunct.leaves()] == ["a", "b", "c"]
        assert temporal_pairs(conjunct) == [("b", "<", "c")]

    def test_and_nested_in_seq_is_rejected(self):
        p = Pattern(
            OperatorNode(
                SEQ,
                (
                    Leaf("A", "a"),
                    OperatorNode(AND, (Leaf("B", "b"), Leaf("C", "c"))),
                ),
            ),
            (),
            10.0,
        )
        with pytest.raises(UnsupportedPatternError):
            to_dnf(p)

    def test_bare_leaf_alternative_becomes_singleton_conjunct(self):
        p = Pattern(
            OperatorNode(
                OR,
                (OperatorNode(AND, (Leaf("A", "a"), Leaf("B", "b"))), Leaf("C", "c")),
            ),
            (),
            10.0,
        )
        conjuncts = to_dnf(p)
        assert conjuncts[1].root.op == AND
        assert [l.alias for l in conjuncts[1].leaves()] == ["c"]

    def test_union_of_conjuncts_preserves_matches(self):
        p = Pattern(
            OperatorNode(
                AND,
                (
                    Leaf("A", "a"),
                    OperatorNode(OR, (Leaf("B", "b"), Leaf("C", "c"))),
                ),
            ),
            (),
            5.0,
        )
        events = [
            Event("A", 0.0, 0),
            Event("B", 1.0, 1),
            Event("C", 2.0, 2),
            Event("A", 6.5, 3),
            Event("B", 20.0, 4),
        ]
        whole = match_keys(oracle_match(p, events))
        union = set()
        for conjunct in to_dnf(p):
            union |= match_keys(oracle_match(conjunct, events))
        assert whole == union


class TestContiguityPredicates:
    def test_strict_adds_serial_adjacency(self):
        p = seq(Leaf("A", "a"), Leaf("B", "b"), Leaf("C", "c"))
        q = add_contiguity_predicates(p, SelectionStrategy(STRICT_CONTIGUITY))
        added = [pred for pred in q.predicates if pred.origin == CONTIGUITY_ORIGIN]
        assert [
            (pred.left.alias, pred.left.attribute, pred.right.alias, pred.right_offset)
            for pred in added
        ] == [("b", "serial", "a", 1.0), ("c", "serial", "b", 1.0)]
        assert all(pred.comparator == "=" for pred in added)

    def test_partition_adds_key_equality_and_partition_serials(self):
        p = seq(Leaf("A", "a"), Leaf("B", "b"))
        strategy = SelectionStrategy(PARTITION_CONTIGUITY, "region")
        q = add_contiguity_predicates(p, strategy)
        added = [pred for pred in q.predicates if pred.origin == CONTIGUITY_ORIGIN]
        assert len(added) == 2
        key_pred, serial_pred = added
        assert key_pred.left.attribute == "region" and key_pred.right_offset == 0.0
        assert serial_pred.left.attribute == "pserial" and serial_pred.right_offset == 1.0

    def test_negated_positions_are_skipped(self):
        p = seq(Leaf("A", "a"), Leaf("N", "n", (NOT,)), Leaf("B", "b"))
        q = add_contiguity_predicates(p, SelectionStrategy(STRICT_CONTIGUITY))
        added = [pred for pred in q.predicates if pred.origin == CONTIGUITY_ORIGIN]
        assert [(pred.left.alias, pred.right.alias) for pred in added] == [("b", "a")]

    def test_rejections(self):
        p = seq(Leaf("A", "a"), Leaf("B", "b"))
        with pytest.raises(UnsupportedPatternError):
            add_contiguity_predicates(p, SelectionStrategy())
        and_root = Pattern(OperatorNode(AND, (Leaf("A", "a"),)), (), 5.0)
        with pytest.raises(UnsupportedPatternError):
            add_contiguity_predicates(and_root, SelectionStrategy(STRICT_CONTIGUITY))
        kleene = seq(Leaf("A", "a"), Leaf("B", "b", (KLEENE,)))
        with pytest.raises(UnsupportedPatternError):
            add_contiguity_predicates(kleene, SelectionStrategy(STRICT_CONTIGUITY))


class TestNormalizePattern:
    def test_sequence_pipeline(self):
        p = seq(Leaf("A", "a"), Leaf("N", "n", (NOT,)), Leaf("B", "b"))
        normalized = normalize_pattern(p)
        (conjunct,) = normalized.conjuncts
        assert conjunct.core.root.op == AND
        assert conjunct.seq_aliases == ("a", "n", "b")
        assert [l.alias for l in conjunct.core.leaves()] == ["a", "b"]
        (spec,) = conjunct.negations
        assert spec.alias == "n"
        assert spec.ts_confined

    def test_disjunction_yields_multiple_conjuncts(self):
        p = Pattern(
            OperatorNode(
                OR,
                (
                    OperatorNode(SEQ, (Leaf("A", "a"), Leaf("B", "b"))),
                    OperatorNode(AND, (Leaf("C", "c"), Leaf("D", "d"))),
                ),
            ),
            (),
            10.0,
        )
        normalized = normalize_pattern(p)
        assert len(normalized.conjuncts) == 2
        assert normalized.conjuncts[0].seq_aliases == ("a", "b")
        assert normalized.conjuncts[1].seq_aliases is None

    def test_kleene_bookkeeping(self):
        p = seq(Leaf("A", "a"), Leaf("C", "c", (KLEENE,)), Leaf("B", "b"))
        (conjunct,) = normalize_pattern(p).conjuncts
        assert conjunct.kl_types() == frozenset({"C"})
        assert conjunct.runtime_types() == ("A", "C", "B")
        assert conjunct.last_type() == "B"

    def test_last_type_reflects_sequence_order(self):
        p = seq(Leaf("A", "a"), Leaf("C", "c", (KLEENE,)))
        (conjunct,) = normalize_pattern(p).conjuncts
        assert conjunct.last_type() == "C"
        and_p = Pattern(OperatorNode(AND, (Leaf("A", "a"), Leaf("B", "b"))), (), 5.0)
        (and_conjunct,) = normalize_pattern(and_p).conjuncts
        assert and_conjunct.last_type() is None

    def test_trailing_negation_last_type_skips_it(self):
        p = seq(Leaf("A", "a"), Leaf("B", "b"), Leaf("N", "n", (NOT,)))
        (conjunct,) = normalize_pattern(p).conjuncts
        assert conjunct.last_type() == "B"

    def test_contiguity_pipeline_injects_serial_predicates(self):
        p = seq(
            Leaf("A", "a"),
            Leaf("B", "b"),
            strategy=SelectionStrategy(STRICT_CONTIGUITY),
        )
        (conjunct,) = normalize_pattern(p).conjuncts
        origins = {pred.origin for pred in conjunct.core.predicates}
        assert CONTIGUITY_ORIGIN in origins and TEMPORAL_ORIGIN in origins

    def test_contiguity_on_a_conjunction_is_rejected(self):
        p = Pattern(
            OperatorNode(AND, (Leaf("A", "a"), Leaf("B", "b"))),
            (),
            5.0,
            SelectionStrategy(STRICT_CONTIGUITY),
        )
        with pytest.raises(UnsupportedPatternError):
            normalize_pattern(p)

    def test_invalid_pattern_is_rejected_with_rule_names(self):
        root = OperatorNode(SEQ, (Leaf("A", "x"), Leaf("B", "x")))
        with pytest.raises(UnsupportedPatternError) as excinfo:
            normalize_pattern(Pattern(root, (), 10.0))
        assert "duplicate-alias" in str(excinfo.value)
