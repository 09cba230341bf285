"""Runtime engines: agreement with the reference matcher, metrics, guards.

Handcrafted streams carry their expected serial sets next to them; the
randomized checks compare both engines under several plans against the
exhaustive matcher, which was validated independently.
"""
import random

import pytest

import streamcep.nfa
import streamcep.runner
import streamcep.tree_engine
from streamcep.corpus import CORPUS_WINDOW, builtin_corpus, corpus_stream, verify_pattern
from streamcep.model import (
    AND,
    AttrRef,
    ContractError,
    Event,
    KLEENE,
    Leaf,
    Literal,
    NOT,
    OR,
    OperatorNode,
    OrderPlan,
    Pattern,
    SEQ,
    SelectionStrategy,
    StatisticsCatalog,
    NEXT_MATCH,
    PARTITION_CONTIGUITY,
    Predicate,
    STRICT_CONTIGUITY,
    TreePlan,
    join,
    leaf,
)
from streamcep.matching import TIMESTAMP, TimeRange, ts_order
from streamcep.nfa import NfaEngine
from streamcep.oracle import oracle_match
from streamcep.plangen import (
    PlanBundle,
    PlannedConjunct,
    PlanSearchReport,
    generate_plan,
)
from streamcep.parser import parse_pattern
from streamcep.runner import PatternRunner
from streamcep.stream import from_events
from streamcep.transform import normalize_pattern

from helpers import (
    grouped_keys,
    match_keys,
    offset_pred,
    seq_pattern,
    workload_pattern,
    workload_stream,
)


def ev(type_name, ts, serial, **attrs):
    return Event(type_name, ts, serial, attrs)


def stats_for(pattern, rate=1.0):
    return StatisticsCatalog(rates={t: rate for t in pattern.alias_types().values()})


def bundle_for(pattern, algorithm="trivial", stats=None, **kwargs):
    stats = stats if stats is not None else stats_for(pattern)
    return generate_plan(pattern, stats, algorithm, **kwargs)


def run_keys(pattern, events, algorithm="trivial", engine="auto", **kwargs):
    bundle = bundle_for(pattern, algorithm)
    return match_keys(PatternRunner(pattern, bundle, engine=engine, **kwargs).run(events).reports)


class TestBasicAgreement:
    def test_simple_sequence(self):
        p = seq_pattern(("A", "B"), 10.0)
        events = [ev("A", 0.0, 0), ev("A", 1.0, 1), ev("B", 2.0, 2), ev("B", 20.0, 3)]
        # (0,2) and (1,2); serial 3 falls outside both windows
        expected = {(0, 2), (1, 2)}
        assert run_keys(p, events) == expected
        assert run_keys(p, events, engine="tree") == expected
        assert match_keys(oracle_match(p, events)) == expected

    def test_predicates_are_applied(self):
        p = seq_pattern(("A", "B"), 10.0, predicates=(offset_pred("a", "b", 0.0),))
        events = [
            ev("A", 0.0, 0, x=0.5),
            ev("B", 1.0, 1, x=0.2),
            ev("B", 2.0, 2, x=0.9),
        ]
        assert run_keys(p, events) == {(0, 2)}
        assert run_keys(p, events, engine="tree") == {(0, 2)}

    def test_single_position_filters_reject_events(self, monkeypatch):
        # a.price > 11 is A's own filter: A#0 and A#3 never bind, and the
        # tree engine turns them away at the leaf
        p = seq_pattern(("A", "B"), 10.0, predicates=(
            Predicate(AttrRef("a", "price"), ">", Literal(11)),))
        events = [ev("A", 0.0, 0, price=10), ev("A", 1.0, 1, price=12),
                  ev("B", 2.0, 2, price=0), ev("A", 3.0, 3, price=11),
                  ev("B", 4.0, 4, price=0)]
        expected = {(1, 2), (1, 4)}
        assert match_keys(oracle_match(p, events)) == expected
        rejected = []
        leaf_instances = streamcep.tree_engine.TreeEngine._leaf_instances

        def recorded(engine, node, alias, event):
            found = leaf_instances(engine, node, alias, event)
            if not found:
                rejected.append(event.serial)
            return found

        monkeypatch.setattr(streamcep.tree_engine.TreeEngine, "_leaf_instances", recorded)
        for algorithm in ("trivial", "dp-ld"):
            assert run_keys(p, events, algorithm, engine="nfa") == expected
        for algorithm in ("trivial", "zstream", "dp-b"):
            rejected.clear()
            assert run_keys(p, events, algorithm, engine="tree") == expected
            assert rejected == [0, 3]

    def test_out_of_window_partials_are_evicted(self):
        p = seq_pattern(("A", "B"), 1.0)
        events = [ev("A", 0.0, 0)] + [
            ev("A", 5.0 + i, 1 + i) for i in range(3)
        ] + [ev("B", 7.8, 4)]
        result = PatternRunner(p, bundle_for(p)).run(events)
        # only the A at 7.0 is within 1.0 of the B at 7.8
        assert match_keys(result.reports) == {(3, 4)}
        # the three stale opens must not survive until the end
        assert result.engine_metrics[0].live_partials <= 1

    def test_eviction_rounds_like_the_span_test(self):
        # 0.9 - 0.2 rounds to 0.7, inside the window, although 0.2 is
        # below 0.9 - 0.7 = 0.20000000000000007; the A must outlive the
        # first B for the second one
        p = seq_pattern(("A", "B"), 0.7)
        events = [ev("A", 0.2, 0), ev("B", 0.9, 1), ev("B", 0.9, 2)]
        assert match_keys(oracle_match(p, events)) == {(0, 1), (0, 2)}
        for engine in ("auto", "tree"):
            assert run_keys(p, events, engine=engine) == {(0, 1), (0, 2)}

    def test_out_of_order_events_are_refused(self):
        # the engines' time indexes assume increasing serials and
        # non-decreasing timestamps; ties in time are fine
        p = seq_pattern(("A", "B"), 10.0)
        for second in (ev("B", 2.0, 0), ev("B", 0.5, 1)):
            runner = PatternRunner(p, bundle_for(p))
            runner.process(ev("A", 1.0, 0))
            with pytest.raises(ContractError):
                runner.process(second)
        runner = PatternRunner(p, bundle_for(p))
        runner.process(ev("A", 1.0, 0))
        assert [r.serials for r in runner.process(ev("B", 1.0, 1))] == []


class TestStrategies:
    STREAM = [
        ev("A", 0.0, 0), ev("A", 1.0, 1), ev("B", 2.0, 2), ev("B", 3.0, 3),
    ]

    def test_any_match_reports_every_combination(self):
        p = seq_pattern(("A", "B"), 10.0)
        assert run_keys(p, self.STREAM) == {(0, 2), (1, 2), (0, 3), (1, 3)}

    def test_next_match_consumes_events(self):
        p = seq_pattern(("A", "B"), 10.0).with_strategy(SelectionStrategy(NEXT_MATCH))
        expected = {(0, 2), (1, 3)}
        assert run_keys(p, self.STREAM) == expected
        assert run_keys(p, self.STREAM, engine="tree") == expected
        assert match_keys(oracle_match(p, self.STREAM)) == expected

    def test_strict_contiguity_requires_adjacent_serials(self):
        p = seq_pattern(("A", "B"), 10.0).with_strategy(
            SelectionStrategy(STRICT_CONTIGUITY)
        )
        events = [ev("A", 0.0, 0), ev("C", 1.0, 1), ev("B", 2.0, 2), ev("A", 3.0, 3), ev("B", 4.0, 4)]
        # the C at serial 1 breaks (0, 2); only (3, 4) is contiguous
        assert run_keys(p, events) == {(3, 4)}
        assert match_keys(oracle_match(p, events)) == {(3, 4)}

    def test_partition_contiguity_counts_within_key(self):
        p = seq_pattern(("A", "B"), 10.0).with_strategy(
            SelectionStrategy(PARTITION_CONTIGUITY, partition_key="k")
        )
        events = [
            ev("A", 0.0, 0, k=1), ev("A", 0.5, 1, k=2),
            ev("B", 1.0, 2, k=1), ev("B", 1.5, 3, k=2),
        ]
        expected = {(0, 2), (1, 3)}
        assert run_keys(p, events) == expected
        assert run_keys(p, events, engine="tree") == expected
        assert match_keys(oracle_match(p, events)) == expected

    def test_partition_contiguity_counts_its_own_pserial(self):
        # a pserial the input already carries is replaced by the runner's
        # own count, which is the count the oracle makes
        p = seq_pattern(("A", "B"), 10.0).with_strategy(
            SelectionStrategy(PARTITION_CONTIGUITY, partition_key="part")
        )
        events = [ev("A", 0.0, 0, part=1, pserial=7), ev("B", 1.0, 1, part=1, pserial=3)]
        assert match_keys(oracle_match(p, events)) == {(0, 1)}
        assert run_keys(p, events) == {(0, 1)}
        assert run_keys(p, events, engine="tree") == {(0, 1)}


class TestNegation:
    BETWEEN = Pattern(
        OperatorNode(SEQ, (Leaf("A", "a"), Leaf("N", "n", (NOT,)), Leaf("B", "b"))),
        (), 10.0,
    )
    EARLY_BLOCKER = [ev("N", 0.5, 0), ev("A", 1.0, 1), ev("B", 3.0, 2)]

    def test_blocker_between_members(self):
        p = self.BETWEEN
        blocked = [ev("A", 0.0, 0), ev("N", 1.0, 1), ev("B", 2.0, 2)]
        clean = [ev("A", 0.0, 0), ev("B", 2.0, 2), ev("N", 3.0, 3)]
        for algorithm in ("trivial", "dp-ld"):
            assert run_keys(p, blocked, algorithm) == set()
            assert run_keys(p, clean, algorithm) == {(0, 2)}
            assert run_keys(p, blocked, algorithm, engine="tree") == set()
            assert run_keys(p, clean, algorithm, engine="tree") == {(0, 2)}

    def test_engines_call_their_own_blocks(self, monkeypatch):
        # perfbench counts absence tests per engine by swapping each engine
        # module's ``blocks``; both engines must call it through that name.
        calls = {"nfa": 0, "tree": 0}

        def counting(engine, real):
            def counted(*args):
                calls[engine] += 1
                return real(*args)
            return counted

        monkeypatch.setattr(streamcep.nfa, "blocks", counting("nfa", streamcep.nfa.blocks))
        monkeypatch.setattr(streamcep.tree_engine, "blocks",
                            counting("tree", streamcep.tree_engine.blocks))
        blocked = [ev("A", 0.0, 0), ev("N", 1.0, 1), ev("B", 2.0, 2)]
        for engine in calls:
            assert run_keys(self.BETWEEN, blocked, engine=engine) == set()
            assert calls[engine] > 0, engine
        # a blocker before a is cut off by the order a < n, not only by the
        # window, so it is never tested
        calls.update(nfa=0, tree=0)
        for engine in calls:
            assert run_keys(self.BETWEEN, self.EARLY_BLOCKER, engine=engine) == {(1, 2)}
            assert calls[engine] == 0, engine

    def test_nfa_buffers_only_the_blocker(self):
        # a is the first position and b follows it in time, so no backlog
        # fork reads either type
        result = PatternRunner(self.BETWEEN, bundle_for(self.BETWEEN)).run(
            self.EARLY_BLOCKER
        )
        assert match_keys(result.reports) == {(1, 2)}
        assert result.engine_metrics[0].peak_buffered == 1

    def test_trailing_absence_is_deferred(self):
        p = Pattern(
            OperatorNode(SEQ, (Leaf("A", "a"), Leaf("B", "b"), Leaf("N", "n", (NOT,)))),
            (), 2.0,
        )
        events = [ev("A", 0.0, 0), ev("B", 1.0, 1), ev("C", 3.5, 2)]
        bundle = bundle_for(p)
        for engine in ("auto", "tree"):
            runner = PatternRunner(p, bundle, engine=engine)
            emitted = []
            for event in events:
                emitted.extend((event.serial, r) for r in runner.process(event))
            emitted.extend(("end", r) for r in runner.end())
            # the pending match may only surface once serial 2 proves the window clear
            assert [(at, r.serials) for at, r in emitted] == [(2, (0, 1))], engine

    def test_trailing_blocker_cancels_pending(self):
        p = Pattern(
            OperatorNode(SEQ, (Leaf("A", "a"), Leaf("B", "b"), Leaf("N", "n", (NOT,)))),
            (), 2.0,
        )
        # the absence interval runs to match start + window = 2.0
        events = [ev("A", 0.0, 0), ev("B", 1.0, 1), ev("N", 1.8, 2)]
        survive = [ev("A", 0.0, 0), ev("B", 1.0, 1), ev("N", 2.5, 2)]
        for engine in ("auto", "tree"):
            assert run_keys(p, events, engine=engine) == set()
            assert run_keys(p, survive, engine=engine) == {(0, 1)}

    def test_stream_end_flushes_pending(self):
        p = Pattern(
            OperatorNode(SEQ, (Leaf("A", "a"), Leaf("B", "b"), Leaf("N", "n", (NOT,)))),
            (), 2.0,
        )
        events = [ev("A", 0.0, 0), ev("B", 1.0, 1)]
        for engine in ("auto", "tree"):
            assert run_keys(p, events, engine=engine) == {(0, 1)}

    def test_pending_match_released_after_its_events_left_the_stores(self):
        # under strict contiguity the match's own events leave the stores
        # once they can no longer be followed, so only the pending match
        # itself holds the eviction horizon back until Y@2.6 passes its
        # deadline (start 0.5 + window 2)
        p = Pattern(
            OperatorNode(SEQ, (Leaf("A", "a"), Leaf("B", "b"), Leaf("N", "n", (NOT,)))),
            (), 2.0, SelectionStrategy(STRICT_CONTIGUITY),
        )
        events = [ev(t, ts, i) for i, (t, ts) in enumerate(
            [("Z", 0.0), ("A", 0.1), ("Z", 0.2), ("A", 0.5), ("B", 1.0),
             ("Y", 2.15), ("Y", 2.6), ("Y", 9.0)])]
        expected = [((3, 4), 6)]
        assert [(r.serials, r.emit_serial) for r in oracle_match(p, events)] == expected
        for algorithm, engine in (("greedy", "nfa"), ("greedy", "tree"), ("dp-b", "tree")):
            result = PatternRunner(p, bundle_for(p, algorithm), engine=engine).run(events)
            assert [(r.serials, r.emit_serial) for r in result.reports] == expected, (
                algorithm, engine)

    def test_blockers_on_the_window_edges_block(self):
        # AND(a, b, NOT n) within 2: a blocker exactly on either window edge
        # of the match, buffered before the completing event, still blocks
        p = Pattern(
            OperatorNode(AND, (Leaf("A", "a"), Leaf("B", "b"), Leaf("N", "n", (NOT,)))),
            (), 2.0,
        )
        late = [ev("A", 0.0, 0), ev("N", 2.0, 1), ev("B", 2.0, 2)]
        early = [ev("N", 0.0, 0), ev("A", 0.0, 1), ev("B", 2.0, 2)]
        for events in (late, early):
            assert match_keys(oracle_match(p, events)) == set()
            for algorithm in ("trivial", "dp-b"):
                for engine in ("auto", "tree"):
                    if engine == "auto" and algorithm == "dp-b":
                        continue
                    assert run_keys(p, events, algorithm, engine=engine) == set()

    def test_blocker_inside_a_rounded_window_blocks(self):
        # the blocker lies between a and b, so it blocks, although it is
        # below 0.9 - 0.7; window edges are tested as differences
        p = Pattern(self.BETWEEN.root, (), 0.7)
        events = [ev("A", 0.2, 0), ev("N", 0.20000000000000004, 1),
                  ev("C", 0.9, 2), ev("B", 0.9, 3)]
        assert match_keys(oracle_match(p, events)) == set()
        for engine in ("auto", "tree"):
            assert run_keys(p, events, engine=engine) == set()

    def test_blocks_is_given_only_blockers_inside_the_window(self, monkeypatch):
        # ``blocks`` has no window test of its own: the pool bisection and
        # the pending deadline keep every blocker it is given within a
        # window of both ends of the match
        trailing = Pattern(
            OperatorNode(SEQ, (Leaf("A", "a"), Leaf("B", "b"), Leaf("N", "n", (NOT,)))),
            (), 2.0,
        )
        edges = Pattern(
            OperatorNode(AND, (Leaf("A", "a"), Leaf("B", "b"), Leaf("N", "n", (NOT,)))),
            (), 2.0,
        )
        cases = [
            (edges, [ev("A", 0.0, 0), ev("N", 2.0, 1), ev("B", 2.0, 2)]),
            (edges, [ev("N", 0.0, 0), ev("A", 0.0, 1), ev("B", 2.0, 2)]),
            (Pattern(self.BETWEEN.root, (), 0.7),
             [ev("A", 0.2, 0), ev("N", 0.20000000000000004, 1),
              ev("C", 0.9, 2), ev("B", 0.9, 3)]),
            # N@2.5 cancels the pending (2, 3) and passes the deadline of
            # the two that start at 0, which the same arrival releases
            (trailing, [ev("A", 0.0, 0), ev("B", 0.5, 1), ev("A", 1.0, 2),
                        ev("B", 1.5, 3), ev("N", 2.5, 4)]),
        ]
        calls = {}

        def guarded(module):
            real = module.blocks

            def guard(spec, blocker, match):
                ts = blocker.timestamp
                assert match.max_ts - ts <= window and ts - match.min_ts <= window
                calls[module.__name__] = calls.get(module.__name__, 0) + 1
                return real(spec, blocker, match)
            monkeypatch.setattr(module, "blocks", guard)

        guarded(streamcep.nfa)
        guarded(streamcep.tree_engine)
        for pattern, events in cases:
            window = pattern.window
            expected = sorted((r.serials, r.emit_serial) for r in oracle_match(pattern, events))
            for algorithm, engine in (("trivial", "nfa"), ("trivial", "tree"), ("dp-b", "tree")):
                result = PatternRunner(pattern, bundle_for(pattern, algorithm),
                                       engine=engine).run(events)
                got = sorted((r.serials, r.emit_serial) for r in result.reports)
                assert got == expected, (events, algorithm, engine)
        assert expected == [((0, 1), 4), ((0, 3), 4)]
        assert set(calls) == {"streamcep.nfa", "streamcep.tree_engine"}

    def test_blocker_ranges_are_built_with_the_engine(self, monkeypatch):
        # each negation's blocker range is fixed by its dependencies, so the
        # engines build it once and no absence test builds another
        events = [ev("A", 0.0, 0), ev("N", 1.0, 1), ev("B", 2.0, 2),
                  ev("A", 3.0, 3), ev("B", 4.0, 4)]
        runners = [PatternRunner(self.BETWEEN, bundle_for(self.BETWEEN), engine=engine)
                   for engine in ("nfa", "tree")]
        built = []
        init = TimeRange.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(TimeRange, "__init__", counted)
        for runner in runners:
            assert match_keys(runner.run(events).reports) == {(3, 4)}
        assert built == []

    def test_trailing_absence_closed_by_a_strict_bound_is_not_deferred(self):
        # n must precede a, so no blocker can follow the match's completion
        p = Pattern(
            OperatorNode(SEQ, (Leaf("A", "a"), Leaf("B", "b"), Leaf("N", "n", (NOT,)))),
            (Predicate(AttrRef("a", "ts"), ">", AttrRef("n", "ts")),), 2.0,
        )
        events = [ev("A", 0.0, 0), ev("B", 1.0, 1), ev("C", 3.5, 2)]
        assert [(r.serials, r.emit_serial) for r in oracle_match(p, events)] == [((0, 1), 1)]
        for engine in ("auto", "tree"):
            result = PatternRunner(p, bundle_for(p), engine=engine).run(events)
            assert [(r.serials, r.emit_serial) for r in result.reports] == [((0, 1), 1)]

    def test_bare_order_plan_matches_the_oracle(self):
        # the plan is only its order: the engines place the checkpoint
        p = self.BETWEEN
        planned = PlannedConjunct(
            OrderPlan(("A", "B")), PlanSearchReport("trivial", 0.0, 0.0, 1, 0.0, None)
        )
        bundle = PlanBundle("trivial", (planned,))
        streams = [
            [ev("A", 0.0, 0), ev("N", 1.0, 1), ev("B", 2.0, 2)],
            [ev("A", 0.0, 0), ev("B", 2.0, 1), ev("N", 3.0, 2)],
            self.EARLY_BLOCKER,
        ]
        for events in streams:
            expected = grouped_keys(oracle_match(p, events))
            for engine in ("auto", "tree"):
                got = PatternRunner(p, bundle, engine=engine).run(events).reports
                assert grouped_keys(got) == expected


class TestKleene:
    P = Pattern(
        OperatorNode(SEQ, (Leaf("A", "a"), Leaf("K", "k", (KLEENE,)), Leaf("B", "b"))),
        (), 10.0,
    )

    def test_subsets_and_groups(self):
        events = [ev("A", 0.0, 0), ev("K", 1.0, 1), ev("K", 2.0, 2), ev("B", 3.0, 3)]
        expected = {(0, 1, 3), (0, 2, 3), (0, 1, 2, 3)}
        for engine in ("auto", "tree"):
            result = PatternRunner(self.P, bundle_for(self.P), engine=engine).run(events)
            assert match_keys(result.reports) == expected
            assert grouped_keys(result.reports) == grouped_keys(oracle_match(self.P, events))

    def test_cap_truncates_and_counts_overflows(self):
        events = [ev("A", 0.0, 0)]
        events += [ev("K", 1.0 + 0.1 * i, 1 + i) for i in range(5)]
        events += [ev("B", 2.0, 6)]
        for engine in ("auto", "tree"):
            capped = PatternRunner(self.P, bundle_for(self.P), engine=engine,
                                   kl_cap=3).run(events)
            full = PatternRunner(self.P, bundle_for(self.P), engine=engine,
                                 kl_cap=16).run(events)
            assert capped.kl_overflows > 0, engine
            assert capped.matches < full.matches, engine
            assert full.kl_overflows == 0, engine
            assert match_keys(full.reports) == match_keys(oracle_match(self.P, events))

    # SEQ(A a, KL(B b)) over A#0 and three Bs; a condition on b alone is
    # the Kleene leaf's own filter, which a group meets only if every
    # member does, and one between two of b's attributes compares every
    # pair of members
    LEAF_STREAM = [ev("A", 0.0, 0, difference=0.0, y=0.0),
                   ev("B", 1.0, 1, difference=0.1, y=0.2),
                   ev("B", 2.0, 2, difference=0.9, y=0.5),
                   ev("B", 3.0, 3, difference=0.8, y=2.0)]

    @pytest.mark.parametrize("condition, expected", [
        # B#1 fails b.difference > 0.5, so no group may hold it
        (Predicate(AttrRef("b", "difference"), ">", Literal(0.5)),
         {(0, 2), (0, 3), (0, 2, 3)}),
        # B#2 fails alone; B#1 and B#3 pass alone but not together
        # (B#3's 0.8 is not below B#1's 0.2)
        (Predicate(AttrRef("b", "difference"), "<", AttrRef("b", "y")),
         {(0, 1), (0, 3)}),
    ])
    def test_a_kleene_leaf_filters_its_pooled_members(self, condition, expected):
        p = Pattern(OperatorNode(SEQ, (Leaf("A", "a"), Leaf("B", "b", (KLEENE,)))),
                    (condition,), 10.0)
        want = grouped_keys(oracle_match(p, self.LEAF_STREAM))
        assert {serials for serials, _ in want} == expected
        for algorithm, engine in (("trivial", "nfa"), ("greedy", "nfa"), ("trivial", "tree"),
                                  ("zstream", "tree"), ("dp-b", "tree")):
            result = PatternRunner(p, bundle_for(p, algorithm), engine=engine).run(
                self.LEAF_STREAM)
            assert grouped_keys(result.reports) == want, (algorithm, engine)

    # A#0 and twelve Bs, of which B#4, B#8 and B#12 rise by more than 0.5
    FILTERED_STREAM = [ev("A", 0.0, 0, difference=0.0)] + [
        ev("B", float(i), i, difference=1.0 if i % 4 == 0 else 0.1, y=0.5)
        for i in range(1, 13)
    ]

    # SEQ(A a, KL(B b)) WHERE (b.difference > 0.5), or > b.y, which every
    # B holds at 0.5, passes seven groups of those three.  A cap of 3 holds
    # them all; under a cap of 2, B#12 finds two members that pass pooled,
    # more than a group with it can take
    @pytest.mark.parametrize("right", [Literal(0.5), AttrRef("b", "y")])
    @pytest.mark.parametrize("kl_cap, overflows", [(3, 0), (2, 1)])
    def test_only_members_that_pass_the_filter_fill_the_cap(self, right, kl_cap, overflows):
        p = Pattern(OperatorNode(SEQ, (Leaf("A", "a"), Leaf("B", "b", (KLEENE,)))),
                    (Predicate(AttrRef("b", "difference"), ">", right),), 100.0)
        want = {key for key in grouped_keys(oracle_match(p, self.FILTERED_STREAM))
                if len(key[0]) <= 1 + kl_cap}
        assert len(want) == 7 - (kl_cap < 3)
        for algorithm, engine in (("greedy", "nfa"), ("trivial", "nfa"), ("dp-ld", "nfa"),
                                  ("trivial", "tree"), ("zstream", "tree"), ("dp-b", "tree")):
            result = PatternRunner(p, bundle_for(p, algorithm),
                                   engine=engine, kl_cap=kl_cap).run(self.FILTERED_STREAM)
            assert grouped_keys(result.reports) == want, (algorithm, engine)
            assert result.kl_overflows == overflows, (algorithm, engine)

    def test_cap_below_one_is_a_contract_error(self):
        for cap in (0, -1):
            with pytest.raises(ContractError):
                PatternRunner(self.P, bundle_for(self.P), kl_cap=cap)


class TestPlanInvariance:
    def test_all_plans_and_engines_agree(self):
        rng = random.Random(42)
        for trial in range(6):
            types, pattern = workload_pattern(rng, 3, 6.0, density=2)
            events = list(workload_stream(types, seed=100 + trial, target_events=50, spread=1.5))
            expected = grouped_keys(oracle_match(pattern, events, max_coresident=60))
            stats = stats_for(pattern)
            for algorithm, engine in (
                ("trivial", "nfa"), ("dp-ld", "nfa"), ("greedy", "tree"),
                ("zstream", "tree"), ("dp-b", "tree"),
            ):
                bundle = generate_plan(pattern, stats, algorithm)
                result = PatternRunner(pattern, bundle, engine=engine).run(events)
                assert grouped_keys(result.reports) == expected, (trial, algorithm)

    def test_order_plan_runs_on_the_tree_engine(self):
        p = seq_pattern(("A", "B", "C"), 10.0)
        events = [ev("A", 0.0, 0), ev("B", 1.0, 1), ev("C", 2.0, 2), ev("B", 2.5, 3), ev("C", 3.0, 4)]
        bundle = bundle_for(p, "dp-ld")
        nfa_result = PatternRunner(p, bundle, engine="nfa").run(events)
        tree_result = PatternRunner(p, bundle, engine="tree").run(events)
        assert match_keys(nfa_result.reports) == match_keys(tree_result.reports)

    def test_nfa_refuses_tree_plans(self):
        p = seq_pattern(("A", "B", "C"), 10.0)
        bundle = bundle_for(p, "dp-b")
        with pytest.raises(ContractError):
            PatternRunner(p, bundle, engine="nfa")

    def test_unknown_engine_kind(self):
        p = seq_pattern(("A", "B"), 10.0)
        with pytest.raises(ContractError):
            PatternRunner(p, bundle_for(p), engine="gpu")

    def test_bundle_must_cover_all_conjuncts(self):
        p = seq_pattern(("A", "B"), 10.0)
        planned = PlannedConjunct(
            OrderPlan(("A", "B")),
            PlanSearchReport("trivial", 0.0, 0.0, 1, 0.0, None),
        )
        doubled = PlanBundle("trivial", (planned, planned))
        with pytest.raises(ContractError):
            PatternRunner(p, doubled)


class TestReferenceShapes:
    # A0 B1 C2 A3 C4 B5 C6, one a second, with x = -1, 2, 0, 1, 3, 1, 0.5
    STREAM = [ev(t, float(i), i, x=x) for i, (t, x) in enumerate(
        zip("ABCACBC", (-1, 2, 0, 1, 3, 1, 0.5)))]

    @pytest.mark.parametrize("text, expected", [
        # the exhaustive matcher splices the inner sequence into the outer
        ("PATTERN SEQ(A a, SEQ(B b, C c)) WITHIN 10 seconds",
         {(0, 1, 2), (0, 1, 4), (0, 1, 6), (0, 5, 6), (3, 5, 6)}),
        # a sequence under a conjunction orders only its own members
        ("PATTERN AND(SEQ(A a, B b), C c) WHERE (a.x < c.x) WITHIN 10 seconds",
         {(0, 1, 2), (0, 1, 4), (0, 1, 6), (0, 2, 5), (0, 4, 5), (0, 5, 6), (3, 4, 5)}),
        # each bare leaf of a disjunction is a variant of its own
        ("PATTERN OR(A a, B b) WHERE (a.x > 0) WITHIN 10 seconds", {(1,), (3,), (5,)}),
    ], ids=["nested-sequence", "sequence-in-conjunction", "bare-leaves"])
    def test_every_cell_agrees_with_the_exhaustive_matcher(self, text, expected):
        pattern = parse_pattern(text)
        assert match_keys(oracle_match(pattern, self.STREAM)) == expected
        cells = verify_pattern(pattern, from_events(self.STREAM))
        assert len(cells) == 15
        assert all(cell.passed for cell in cells)


class TestTimeIndex:
    def test_ts_order_reads_strict_offset_free_bounds_transitively(self):
        def ts(a, op, b, offset=0.0):
            return Predicate(AttrRef(a, "ts"), op, AttrRef(b, "ts"), right_offset=offset)

        preds = [ts("a", "<", "b"), ts("c", ">", "b"), ts("c", "<=", "d"),
                 ts("d", "<", "e", 1.0), offset_pred("a", "e", 0.0)]
        assert ts_order(preds) == {("a", "b"), ("b", "c"), ("a", "c")}

    def test_time_range_cuts_at_the_bounds_and_window_edges(self):
        # b must follow a and precede c; the window is 2 around {a, c}
        events = [ev("B", t, i) for i, t in enumerate((0.0, 1.0, 1.0, 2.0, 3.0, 3.0))]
        span = TimeRange("b", ("a", "c"), {("a", "b"), ("b", "c")}, 2.0)
        bound = {"a": ev("A", 1.0, 10), "c": ev("C", 3.0, 11)}
        assert [e.serial for e in span.bisect(events, TIMESTAMP, bound, 1.0, 3.0)] == [3]
        window_only = TimeRange("b", ("a", "c"), frozenset(), 2.0)
        kept = window_only.bisect(events, TIMESTAMP, bound, 1.0, 3.0)
        assert [e.serial for e in kept] == [1, 2, 3, 4, 5]


class TestExecutionShortcuts:
    def test_nfa_buffers_only_what_a_backlog_fork_reads(self):
        def buffered(pattern, order):
            conjunct = normalize_pattern(pattern).conjuncts[0]
            return set(NfaEngine(OrderPlan(order), conjunct).pools)

        p = seq_pattern(("A", "B", "C"), 10.0)
        assert buffered(p, ("A", "B", "C")) == frozenset()
        # b precedes c, so a partial holding c may still take a buffered b
        assert buffered(p, ("A", "C", "B")) == {"B"}
        # a Kleene type reads its own backlog when a member arrives
        assert buffered(TestKleene.P, ("A", "K", "B")) == {"K"}
        # a conjunction orders nothing, so every type but the first is read
        conj = Pattern(OperatorNode(AND, (Leaf("A", "a"), Leaf("B", "b"),
                                          Leaf("C", "c"))), (), 10.0)
        assert buffered(conj, ("B", "A", "C")) == {"A", "C"}

    def test_strict_contiguity_prunes_alike_in_both_engines(self):
        # every position follows the previous one by serial, so a partial
        # the very next arrival does not extend can never be extended; the
        # window spans the whole stream, so only that rule bounds the state
        types = tuple("ABCDEFGHI")
        p = seq_pattern(types, 1000.0).with_strategy(
            SelectionStrategy(STRICT_CONTIGUITY)
        )
        rng = random.Random(13)
        events = [ev(rng.choice(types) if rng.random() < 0.2 else types[i % 9],
                     float(i), i) for i in range(400)]
        peaks, found = {}, {}
        for engine in ("nfa", "tree"):  # the tree runs left_deep_tree(order)
            result = PatternRunner(p, bundle_for(p), engine=engine).run(events)
            found[engine] = match_keys(result.reports)
            peaks[engine] = result.engine_metrics[0].peak_partials
        assert found["tree"] == found["nfa"] != set()
        assert peaks["tree"] == peaks["nfa"] <= 1

    def test_shortcut_paths_agree_with_buffered_path(self):
        # same stream through the in-order plan, which buffers nothing, and
        # a reordered plan that buffers; the match sets must not differ
        rng = random.Random(7)
        types, pattern = workload_pattern(rng, 4, 5.0, density=0)
        p = Pattern(
            OperatorNode(SEQ, tuple(Leaf(t, t.lower()) for t in types)), (), 5.0
        )
        events = list(workload_stream(types, seed=9, target_events=60, spread=1.0))
        in_order = run_keys(p, events, "trivial")
        reordered = run_keys(p, events, "dp-ld")
        assert in_order == reordered == match_keys(
            oracle_match(p, events, max_coresident=60)
        )


def tree_bundle(root):
    report = PlanSearchReport("manual", 0.0, 0.0, 1, 0.0, None)
    return PlanBundle("manual", (PlannedConjunct(TreePlan(root), report),))


class TestKeyedStores:
    TYPES = tuple("ABCDEFGH")

    @pytest.mark.parametrize("engine", ["nfa", "tree"])
    @pytest.mark.parametrize("kind", [STRICT_CONTIGUITY, PARTITION_CONTIGUITY])
    def test_contiguity_probes_do_not_grow_with_the_store(self, kind, engine,
                                                         monkeypatch):
        # the window spans the whole stream, so nothing stored expires and a
        # probe that read every stored record would cost more and more
        p = seq_pattern(self.TYPES, 1000.0).with_strategy(
            SelectionStrategy(kind, partition_key="part")
        )
        module = streamcep.nfa if engine == "nfa" else streamcep.tree_engine
        evaluate = module.evaluate_predicate
        calls = [0]

        def counted(pred, bindings):
            calls[0] += 1
            return evaluate(pred, bindings)

        monkeypatch.setattr(module, "evaluate_predicate", counted)
        rng = random.Random(3)
        runner = PatternRunner(p, bundle_for(p), engine=engine)
        per_arrival = []
        for i in range(400):
            before = calls[0]
            runner.process(ev(rng.choice(self.TYPES), float(i), i, part=rng.randrange(2)))
            per_arrival.append(calls[0] - before)
        metrics = runner.engines[0].metrics
        assert max(per_arrival) <= len(self.TYPES)
        if kind == PARTITION_CONTIGUITY:
            # (under strict contiguity both engines drop what no later
            # arrival can probe, so there the store stays small anyway)
            assert metrics.peak_partials + metrics.peak_buffered >= 40

    # b.serial = a.serial + 2 two ways round; the offset of the probing
    # side's part, b's or a's, is what a cut subtracts
    @pytest.mark.parametrize("pred, a_probes, b_probes", [
        (Predicate(AttrRef("b", "serial"), "=", AttrRef("a", "serial"), right_offset=2.0),
         2.0, 0.0),
        (Predicate(AttrRef("a", "serial"), "=", AttrRef("b", "serial"), right_offset=-2.0),
         0.0, -2.0),
    ])
    def test_user_serial_offset_drops_only_unprobeable_buckets(self, pred, a_probes,
                                                                b_probes):
        # in an any-match AND a stored a waits two arrivals for its b, a
        # stored b can meet no later a, and a leaf probed by a leaf sibling
        # counts its records as held events
        types = ("A", "B", "C", "D")
        p = Pattern(OperatorNode(AND, tuple(Leaf(t, t.lower()) for t in types)),
                    (pred,), 2.0)
        rng = random.Random(17)
        events = [ev(rng.choice(types), i * 0.25, i) for i in range(160)]
        expected = match_keys(oracle_match(p, events))
        assert expected
        report = PlanSearchReport("manual", 0.0, 0.0, 1, 0.0, None)
        for order, offset in ((("A", "B", "C", "D"), b_probes),
                              (("B", "A", "C", "D"), a_probes)):
            bundle = PlanBundle("manual", (PlannedConjunct(OrderPlan(order), report),))
            runner = PatternRunner(p, bundle, engine="nfa")
            assert runner.engines[0].serial_cuts == [(1, 0, offset)]
            assert match_keys(runner.run(events).reports) == expected
        root = join(join(leaf("A"), leaf("B")), join(leaf("C"), leaf("D")))
        runner = PatternRunner(p, tree_bundle(root), engine="tree")
        engine = runner.engines[0]
        assert engine.serial_cuts == [(0, 0, b_probes), (1, 0, a_probes)]
        assert {0, 1} <= engine.held_slots
        assert match_keys(runner.run(events).reports) == expected
        counts = [sum(map(len, store.values())) for store in engine.records]
        assert engine.held == sum(counts[i] for i in engine.held_slots)
        assert engine.live == sum(counts) - engine.held

    def test_partition_contiguity_joins_internal_siblings(self):
        types = ("A", "B", "C", "D")
        p = seq_pattern(types, 6.0).with_strategy(
            SelectionStrategy(PARTITION_CONTIGUITY, partition_key="part")
        )
        root = join(join(leaf("A"), leaf("B")), join(leaf("C"), leaf("D")))
        rng = random.Random(11)
        events = [ev(rng.choice(types), i * 0.25, i, part=rng.randrange(2))
                  for i in range(240)]
        runner = PatternRunner(p, tree_bundle(root), engine="tree")
        engine = runner.engines[0]
        # the two internal nodes are keyed on b.pserial + 1 = c.pserial
        assert engine.key_pairs[2] == ((("b", "pserial", 1.0), ("c", "pserial", 0.0)),)
        assert engine.key_pairs[5] == ((("c", "pserial", 0.0), ("b", "pserial", 1.0)),)
        expected = match_keys(oracle_match(p, events, max_coresident=60))
        assert expected
        assert match_keys(runner.run(events).reports) == expected

    @pytest.mark.parametrize("engine", ["nfa", "tree"])
    @pytest.mark.parametrize("kind", [STRICT_CONTIGUITY, PARTITION_CONTIGUITY])
    def test_buckets_never_outnumber_the_records(self, kind, engine):
        rng = random.Random(5)
        types = ("A", "B", "C")
        p = seq_pattern(types, 3.0).with_strategy(
            SelectionStrategy(kind, partition_key="part")
        )
        runner = PatternRunner(p, bundle_for(p, "greedy"), engine=engine)
        most = 0
        for i in range(3000):
            runner.process(ev(rng.choice(types), i * 0.1, i, part=rng.randrange(3)))
            for e in runner.engines:
                for store in e.records:
                    assert all(store.values())  # no empty bucket is kept
                buckets = sum(len(store) for store in e.records)
                assert buckets <= e.metrics.live_partials + e.metrics.held
                most = max(most, buckets)
        assert 0 < most < 100


class TestMetrics:
    def test_event_and_match_counts(self):
        p = seq_pattern(("A", "B"), 10.0)
        events = [ev("A", 0.0, 0), ev("B", 1.0, 1)]
        result = PatternRunner(p, bundle_for(p)).run(events)
        metrics = result.engine_metrics[0]
        assert result.events == 2
        assert result.matches == metrics.matches == 1
        assert metrics.latency_total >= 0.0
        assert result.mean_latency == metrics.latency_total

    def test_tree_counts_lone_leaves_as_buffered(self):
        p = Pattern(OperatorNode(AND, (Leaf("A", "a"), Leaf("B", "b"))), (), 10.0)
        result = PatternRunner(p, bundle_for(p, "dp-b"), engine="tree").run([ev("A", 0.0, 0)])
        metrics = result.engine_metrics[0]
        assert metrics.held >= 1
        assert metrics.live_partials == 0
        assert result.memory_peak >= 1

    def test_memory_peak_tracks_joint_state(self):
        p = seq_pattern(("A", "B"), 4.0)
        events = [ev("A", 0.0, i) for i in range(4)] + [ev("B", 1.0, 4)]
        result = PatternRunner(p, bundle_for(p)).run(events)
        assert result.memory_peak >= 4
        assert result.engine_metrics[0].peak_partials >= 4

    def test_wall_time_and_throughput(self):
        p = seq_pattern(("A", "B"), 10.0)
        events = [ev("A", 0.0, 0), ev("B", 1.0, 1)]
        result = PatternRunner(p, bundle_for(p)).run(events)
        assert result.wall_time > 0.0
        assert result.throughput == result.events / result.wall_time


def recount(engine) -> tuple[int, int]:
    """Live partials and held events, counted over the engine's stores;
    the pools hold the blockers too."""
    live = len(engine.pending)
    held = sum(len(pool) for pool in engine.pools.values())
    for slot, store in enumerate(engine.records):
        stored = sum(len(bucket) for bucket in store.values())
        if slot in engine.held_slots:
            held += stored
        else:
            live += stored
    return live, held


def corpus_case(pattern_id):
    return {g.pattern_id: g.pattern for g in builtin_corpus()}[pattern_id]


def counted_cases():
    """Corpus patterns (Kleene, disjunction, negation), a trailing
    negation that holds matches pending, and partition and strict
    contiguity, over the corpus stream."""
    events = list(corpus_stream().events)
    keyed = [Event(e.type_name, e.timestamp, e.serial, {**e.attrs, "k": e.serial % 3})
             for e in events]
    trailing = Pattern(
        OperatorNode(SEQ, (Leaf("A", "a"), Leaf("B", "b"), Leaf("C", "c", (NOT,)))),
        (), CORPUS_WINDOW,
    )
    sequence = corpus_case("sequence-3-0")
    partition = sequence.with_strategy(
        SelectionStrategy(PARTITION_CONTIGUITY, partition_key="k")
    )
    return {
        "kleene-4": (corpus_case("kleene-4-0"), events),
        "disjunction-4": (corpus_case("disjunction-4-0"), events),
        "negation-4": (corpus_case("negation-4-0"), events),
        "pending-negation": (trailing, events),
        "partition": (partition, keyed),
        "strict": (sequence.with_strategy(SelectionStrategy(STRICT_CONTIGUITY)), events),
    }


COUNTED = counted_cases()
# the declaration order lets the NFA prune stale partials under strict contiguity
PLANS = [("trivial", "nfa"), ("greedy", "nfa"), ("greedy", "tree"), ("dp-b", "tree")]


class TestRunnerBookkeeping:
    @pytest.mark.parametrize("algorithm, engine", PLANS)
    @pytest.mark.parametrize("case", sorted(COUNTED))
    def test_kept_counts_equal_a_recount_after_every_event(self, case, algorithm,
                                                           engine):
        pattern, events = COUNTED[case]
        runner = PatternRunner(pattern, bundle_for(pattern, algorithm), engine=engine)
        peak = 0
        for event in events:
            runner.process(event)
            memory = 0
            for e in runner.engines:
                assert (e.metrics.live_partials, e.metrics.held) == recount(e)
                memory += sum(recount(e))
            peak = max(peak, memory)
            assert runner.memory_peak == peak
        assert peak > 0

    @pytest.mark.parametrize("algorithm, engine", PLANS)
    @pytest.mark.parametrize("case", sorted(COUNTED))
    def test_nothing_expired_outlives_its_arrival(self, case, algorithm, engine):
        # eviction skips an arrival only while its horizon shows that
        # nothing held can have expired
        pattern, events = COUNTED[case]
        runner = PatternRunner(pattern, bundle_for(pattern, algorithm), engine=engine)
        for event in events:
            runner.process(event)
            for e in runner.engines:
                held = [r.min_ts for store in e.records
                        for bucket in store.values() for r in bucket]
                held += [x.timestamp for pool in e.pools.values() for x in pool]
                held += [match.min_ts for match, _ in e.pending]
                assert all(event.timestamp - ts <= e.window for ts in held)
                assert all(ts >= e.horizon for ts in held)

    def test_pending_matches_are_counted(self):
        pattern, events = COUNTED["pending-negation"]
        runner = PatternRunner(pattern, bundle_for(pattern))
        pending = 0
        for event in events:
            runner.process(event)
            pending = max(pending, len(runner.engines[0].pending))
        assert pending > 0

    @pytest.mark.parametrize("algorithm, engine", PLANS)
    def test_one_conjunct_never_offers_a_serial_set_twice(self, algorithm, engine):
        offered = []
        for generated in builtin_corpus():
            if generated.pattern_id.startswith("disjunction"):
                continue
            runner = PatternRunner(generated.pattern,
                                   bundle_for(generated.pattern, algorithm),
                                   engine=engine)
            offer = runner.replay.offer

            def recording(batch, offer=offer, pattern_id=generated.pattern_id):
                offered.extend((pattern_id, r.serials) for r in batch)
                return offer(batch)

            runner.replay.offer = recording
            runner.run(corpus_stream().events)
            assert not runner.replay._seen
        assert offered and len(set(offered)) == len(offered)

    def test_disjunction_reports_a_shared_serial_set_once(self):
        # both conjuncts are SEQ(A a, B b); one forbids an N between them,
        # the other an M, so (0, 1) completes in both
        p = Pattern(
            OperatorNode(SEQ, (
                Leaf("A", "a"),
                OperatorNode(OR, (Leaf("N", "n", (NOT,)), Leaf("M", "m", (NOT,)))),
                Leaf("B", "b"),
            )),
            (), 10.0,
        )
        events = [ev("A", 0.0, 0), ev("B", 1.0, 1), ev("A", 2.0, 2), ev("N", 3.0, 3),
                  ev("B", 4.0, 4)]
        for engine in ("nfa", "tree"):
            runner = PatternRunner(p, bundle_for(p), engine=engine)
            assert len(runner.engines) == 2
            offered = []
            offer = runner.replay.offer

            def recording(batch, offer=offer):
                offered.extend(r.serials for r in batch)
                return offer(batch)

            runner.replay.offer = recording
            result = runner.run(events)
            assert offered.count((0, 1)) == 2
            assert [r.serials for r in result.reports] == [(0, 1), (0, 4), (2, 4)]
            assert [m.matches for m in result.engine_metrics] == [1, 2]
            assert [r.serials for r in result.reports] == [
                r.serials for r in oracle_match(p, events)
            ]

    def test_pending_match_latency_runs_from_its_completing_arrival(self, monkeypatch):
        ticks = iter(range(1, 100))
        monkeypatch.setattr(streamcep.runner.time, "perf_counter",
                            lambda: float(next(ticks)))
        p = Pattern(
            OperatorNode(SEQ, (Leaf("A", "a"), Leaf("B", "b"), Leaf("N", "n", (NOT,)))),
            (), 10.0,
        )
        runner = PatternRunner(p, bundle_for(p))
        assert runner.process(ev("A", 0.0, 0)) == []   # clock 1
        assert runner.process(ev("B", 1.0, 1)) == []   # clock 2: completes, pending
        assert runner.process(ev("C", 5.0, 2)) == []   # clock 3
        (report,) = runner.process(ev("C", 20.0, 3))   # clock 4, reported at 5
        assert (report.serials, report.emit_serial) == ((0, 1), 3)
        metrics = runner.engines[0].metrics
        assert metrics.latency_total == 5.0 - 2.0
