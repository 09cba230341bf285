"""Reference matcher: hand-derived match sets per operator and strategy.

Every expected serial set below was worked out by hand from the stream
listing next to it; the matcher must reproduce it exactly.
"""
import pytest

from streamcep.model import (
    AND,
    Event,
    KLEENE,
    Leaf,
    Literal,
    NOT,
    OperatorNode,
    OR,
    Pattern,
    Predicate,
    AttrRef,
    ResourceLimitError,
    SEQ,
    SelectionStrategy,
    UnsupportedPatternError,
    NEXT_MATCH,
    PARTITION_CONTIGUITY,
    STRICT_CONTIGUITY,
)
from streamcep.oracle import (
    coresident_bound,
    oracle_match,
    partition_serials,
)

from helpers import match_keys


def ev(type_name, ts, serial, **attrs):
    return Event(type_name, ts, serial, attrs)


def seq(*leaves, predicates=(), window=10.0, strategy=SelectionStrategy()):
    return Pattern(OperatorNode(SEQ, tuple(leaves)), tuple(predicates), window, strategy)


AB = seq(Leaf("A", "a"), Leaf("B", "b"))


class TestWindowAndOrdering:
    def test_window_edge_is_inclusive(self):
        events = [ev("A", 0.0, 0), ev("B", 10.0, 1)]
        assert match_keys(oracle_match(AB, events)) == {(0, 1)}
        late = [ev("A", 0.0, 0), ev("B", 10.000001, 1)]
        assert oracle_match(AB, late) == []

    def test_sequence_needs_strictly_increasing_timestamps(self):
        tied = [ev("A", 1.0, 0), ev("B", 1.0, 1)]
        assert oracle_match(AB, tied) == []
        reversed_ts = [ev("B", 0.0, 0), ev("A", 1.0, 1)]
        assert oracle_match(AB, reversed_ts) == []

    def test_and_ignores_arrival_order(self):
        p = Pattern(OperatorNode(AND, (Leaf("A", "a"), Leaf("B", "b"))), (), 10.0)
        events = [ev("B", 0.0, 0), ev("A", 1.0, 1)]
        assert match_keys(oracle_match(p, events)) == {(0, 1)}

    def test_empty_stream(self):
        assert oracle_match(AB, []) == []

    def test_reports_come_in_canonical_order(self):
        events = [
            ev("A", 0.0, 0),
            ev("A", 1.0, 1),
            ev("B", 2.0, 2),
            ev("B", 3.0, 3),
        ]
        reports = oracle_match(AB, events)
        keys = [(r.emit_serial, r.serials) for r in reports]
        assert keys == sorted(keys)
        assert [r.serials for r in reports] == [(0, 2), (1, 2), (0, 3), (1, 3)]

    def test_predicates_filter_combinations(self):
        pred = Predicate(AttrRef("a", "x"), "<", AttrRef("b", "x"))
        p = seq(Leaf("A", "a"), Leaf("B", "b"), predicates=[pred])
        events = [
            ev("A", 0.0, 0, x=5.0),
            ev("B", 1.0, 1, x=3.0),
            ev("B", 2.0, 2, x=9.0),
        ]
        assert match_keys(oracle_match(p, events)) == {(0, 2)}


class TestDisjunction:
    P = Pattern(
        OperatorNode(
            OR,
            (
                OperatorNode(SEQ, (Leaf("A", "a"), Leaf("B", "b"))),
                OperatorNode(SEQ, (Leaf("A", "a2"), Leaf("C", "c"))),
            ),
        ),
        (),
        10.0,
    )

    def test_union_of_variants(self):
        events = [ev("A", 0.0, 0), ev("B", 1.0, 1), ev("C", 2.0, 2)]
        assert match_keys(oracle_match(self.P, events)) == {(0, 1), (0, 2)}

    def test_duplicate_serial_sets_reported_once(self):
        p = Pattern(
            OperatorNode(
                OR,
                (
                    OperatorNode(SEQ, (Leaf("A", "a"), Leaf("B", "b"))),
                    OperatorNode(SEQ, (Leaf("A", "x"), Leaf("B", "y"))),
                ),
            ),
            (),
            10.0,
        )
        events = [ev("A", 0.0, 0), ev("B", 1.0, 1)]
        reports = oracle_match(p, events)
        assert len(reports) == 1


class TestKleene:
    P = seq(Leaf("A", "a"), Leaf("K", "k", (KLEENE,)), Leaf("B", "b"))

    def test_all_nonempty_subsets(self):
        events = [
            ev("A", 0.0, 0),
            ev("K", 1.0, 1),
            ev("K", 2.0, 2),
            ev("B", 3.0, 3),
        ]
        got = match_keys(oracle_match(self.P, events))
        assert got == {(0, 1, 3), (0, 2, 3), (0, 1, 2, 3)}

    def test_groups_carry_member_serials(self):
        events = [
            ev("A", 0.0, 0),
            ev("K", 1.0, 1),
            ev("K", 2.0, 2),
            ev("B", 3.0, 3),
        ]
        reports = oracle_match(self.P, events)
        groups = {r.serials: dict(r.groups)["k"] for r in reports}
        assert groups[(0, 1, 2, 3)] == (1, 2)
        assert groups[(0, 1, 3)] == (1,)

    def test_members_must_sit_between_neighbors(self):
        events = [
            ev("K", 0.0, 0),  # before a: excluded
            ev("A", 1.0, 1),
            ev("K", 2.0, 2),
            ev("B", 3.0, 3),
            ev("K", 4.0, 4),  # after b: excluded
        ]
        assert match_keys(oracle_match(self.P, events)) == {(1, 2, 3)}

    def test_predicate_applies_to_every_member(self):
        pred = Predicate(AttrRef("k", "x"), "<", Literal(5.0))
        p = seq(
            Leaf("A", "a"), Leaf("K", "k", (KLEENE,)), Leaf("B", "b"),
            predicates=[pred],
        )
        events = [
            ev("A", 0.0, 0),
            ev("K", 1.0, 1, x=1.0),
            ev("K", 2.0, 2, x=99.0),
            ev("B", 3.0, 3),
        ]
        assert match_keys(oracle_match(p, events)) == {(0, 1, 3)}


class TestNegation:
    P = seq(Leaf("A", "a"), Leaf("N", "n", (NOT,)), Leaf("B", "b"))

    def test_blocker_between_neighbors_blocks(self):
        events = [ev("A", 0.0, 0), ev("N", 1.0, 1), ev("B", 2.0, 2)]
        assert oracle_match(self.P, events) == []

    def test_blocker_outside_interval_does_not_block(self):
        events = [ev("N", 0.0, 0), ev("A", 1.0, 1), ev("B", 2.0, 2), ev("N", 3.0, 3)]
        assert match_keys(oracle_match(self.P, events)) == {(1, 2)}

    def test_blocker_tied_with_neighbor_does_not_block(self):
        tied_prev = [ev("A", 0.0, 0), ev("N", 0.0, 1), ev("B", 2.0, 2)]
        assert match_keys(oracle_match(self.P, tied_prev)) == {(0, 2)}
        tied_succ = [ev("A", 0.0, 0), ev("N", 2.0, 1), ev("B", 2.0, 2)]
        assert match_keys(oracle_match(self.P, tied_succ)) == {(0, 2)}

    def test_leading_negation_window_bounded(self):
        p = seq(Leaf("N", "n", (NOT,)), Leaf("A", "a"), window=5.0)
        blocked = [ev("N", 0.0, 0), ev("A", 1.0, 1)]
        assert oracle_match(p, blocked) == []
        # blocker more than a window before the match does not count
        clear = [ev("N", 0.0, 0), ev("A", 6.0, 1)]
        assert match_keys(oracle_match(p, clear)) == {(1,)}

    def test_trailing_negation_defers_emission(self):
        p = seq(Leaf("A", "a"), Leaf("N", "n", (NOT,)), window=5.0)
        events = [ev("A", 0.0, 0), ev("X", 6.0, 1)]
        (report,) = oracle_match(p, events)
        assert report.serials == (0,)
        assert report.completion_serial == 0
        assert report.emit_serial == 1  # first arrival past the deadline

    def test_trailing_negation_blocks_inside_window(self):
        p = seq(Leaf("A", "a"), Leaf("N", "n", (NOT,)), window=5.0)
        blocked = [ev("A", 0.0, 0), ev("N", 3.0, 1)]
        assert oracle_match(p, blocked) == []
        survived = [ev("A", 0.0, 0), ev("N", 5.5, 1)]
        (report,) = oracle_match(p, survived)
        assert report.serials == (0,)
        assert report.emit_serial == 1

    def test_and_mode_negation_uses_predicates(self):
        pred = Predicate(AttrRef("n", "x"), "=", AttrRef("a", "x"))
        root = OperatorNode(
            AND, (Leaf("A", "a"), Leaf("B", "b"), Leaf("N", "n", (NOT,)))
        )
        p = Pattern(root, (pred,), 10.0)
        blocked = [
            ev("A", 0.0, 0, x=1.0),
            ev("B", 1.0, 1),
            ev("N", 2.0, 2, x=1.0),
        ]
        assert oracle_match(p, blocked) == []
        clear = [
            ev("A", 0.0, 0, x=1.0),
            ev("B", 1.0, 1),
            ev("N", 2.0, 2, x=2.0),
        ]
        assert match_keys(oracle_match(p, clear)) == {(0, 1)}


class TestStrategies:
    def test_next_match_claims_greedily_in_canonical_order(self):
        events = [
            ev("A", 0.0, 0),
            ev("A", 1.0, 1),
            ev("B", 2.0, 2),
            ev("B", 3.0, 3),
        ]
        got = match_keys(
            oracle_match(AB.with_strategy(SelectionStrategy(NEXT_MATCH)), events)
        )
        assert got == {(0, 2), (1, 3)}

    def test_next_match_consumption_is_global(self):
        # the claimed B cannot serve a later A even though it is unexpired
        events = [
            ev("A", 0.0, 0),
            ev("B", 1.0, 1),
            ev("A", 2.0, 2),
        ]
        got = match_keys(
            oracle_match(AB.with_strategy(SelectionStrategy(NEXT_MATCH)), events)
        )
        assert got == {(0, 1)}

    def test_strict_contiguity_requires_adjacent_serials(self):
        strategy = SelectionStrategy(STRICT_CONTIGUITY)
        good = [ev("A", 0.0, 0), ev("B", 0.5, 1)]
        assert match_keys(oracle_match(AB.with_strategy(strategy), good)) == {(0, 1)}
        # a foreign event between them breaks adjacency
        broken = [ev("A", 0.0, 0), ev("C", 0.2, 1), ev("B", 0.5, 2)]
        assert oracle_match(AB.with_strategy(strategy), broken) == []

    def test_partition_contiguity_counts_per_key(self):
        strategy = SelectionStrategy(PARTITION_CONTIGUITY, "region")
        events = [
            ev("A", 0.0, 0, region="east"),
            ev("A", 0.5, 1, region="west"),
            ev("B", 1.0, 2, region="east"),
            ev("B", 1.5, 3, region="west"),
        ]
        got = match_keys(oracle_match(AB.with_strategy(strategy), events))
        assert got == {(0, 2), (1, 3)}

    def test_partition_contiguity_rejects_skipped_member(self):
        strategy = SelectionStrategy(PARTITION_CONTIGUITY, "region")
        events = [
            ev("A", 0.0, 0, region="east"),
            ev("C", 0.5, 1, region="east"),
            ev("B", 1.0, 2, region="east"),
        ]
        assert oracle_match(AB.with_strategy(strategy), events) == []

    def test_partition_serials_count_in_arrival_order(self):
        events = [
            ev("A", 0.0, 0, region="east"),
            ev("A", 0.5, 1, region="west"),
            ev("B", 1.0, 2, region="east"),
        ]
        assert partition_serials(events, "region") == {0: 0, 1: 0, 2: 1}


class TestLimitsAndRejections:
    def test_coresident_bound(self):
        events = [
            ev("A", 0.0, 0),
            ev("A", 1.0, 1),
            ev("A", 2.0, 2),
            ev("A", 9.0, 3),
        ]
        assert coresident_bound(events, 2.0) == 3
        assert coresident_bound(events, 0.5) == 1
        assert coresident_bound([], 2.0) == 0

    def test_too_many_coresident_events_raise(self):
        events = [ev("A", float(i) / 10, i) for i in range(5)]
        with pytest.raises(ResourceLimitError):
            oracle_match(AB, events, max_coresident=4)

    def test_operators_nested_in_sequences_rejected(self):
        p = Pattern(
            OperatorNode(
                SEQ,
                (Leaf("A", "a"), OperatorNode(AND, (Leaf("B", "b"), Leaf("C", "c")))),
            ),
            (),
            10.0,
        )
        with pytest.raises(UnsupportedPatternError):
            oracle_match(p, [ev("A", 0.0, 0)])

    def test_purely_negative_pattern_rejected(self):
        p = Pattern(OperatorNode(AND, (Leaf("N", "n", (NOT,)),)), (), 10.0)
        with pytest.raises(UnsupportedPatternError):
            oracle_match(p, [ev("N", 0.0, 0)])

    def test_predicate_between_negated_positions_rejected(self):
        pred = Predicate(AttrRef("n", "x"), "=", AttrRef("m", "x"))
        p = Pattern(
            OperatorNode(
                AND,
                (Leaf("A", "a"), Leaf("N", "n", (NOT,)), Leaf("M", "m", (NOT,))),
            ),
            (pred,),
            10.0,
        )
        with pytest.raises(UnsupportedPatternError):
            oracle_match(p, [ev("A", 0.0, 0)])
