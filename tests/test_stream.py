"""Event sources, synthetic streams, and measured statistics."""
import math
import random

import pytest

from streamcep.model import (
    AttrRef,
    ContractError,
    DataError,
    Event,
    Leaf,
    Literal,
    OperatorNode,
    Pattern,
    Predicate,
    SEQ,
    UnsupportedPatternError,
    evaluate_predicate,
    predicate_selectivity_key,
)
from streamcep.stream import (
    SyntheticConfig,
    StreamSource,
    estimate_statistics,
    from_events,
    generate_synthetic,
    ingest_csv,
)

from helpers import pairs_within, seq_pattern


def ev(type_name, ts, serial, **attrs):
    return Event(type_name, ts, serial, attrs)


class TestFromEvents:
    @pytest.mark.parametrize("ts", [math.nan, math.inf, -math.inf])
    def test_timestamps_must_be_finite(self, ts):
        with pytest.raises(DataError, match="not finite at serial 1"):
            from_events([ev("A", 1.0, 0), ev("B", ts, 1), ev("A", 3.0, 2)])

    def test_wraps_and_measures_duration(self):
        source = from_events([ev("A", 1.0, 0), ev("B", 4.5, 1)])
        assert len(source) == 2
        assert source.duration == 3.5
        assert sorted({e.type_name for e in source}) == ["A", "B"]
        assert [e.serial for e in source] == [0, 1]

    def test_explicit_duration_wins(self):
        source = from_events([ev("A", 1.0, 0)], duration=60.0)
        assert source.duration == 60.0

    def test_serial_gaps_are_rejected(self):
        with pytest.raises(DataError):
            from_events([ev("A", 0.0, 0), ev("B", 1.0, 2)])

    def test_decreasing_timestamps_are_rejected(self):
        with pytest.raises(DataError):
            from_events([ev("A", 5.0, 0), ev("B", 4.0, 1)])

    def test_empty_stream_is_fine(self):
        assert len(from_events([])) == 0


class TestCsvIngestion:
    def write(self, tmp_path, text, name="quotes.csv"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_golden_file(self, tmp_path):
        path = self.write(
            tmp_path,
            "identifier,timestamp,price\n"
            "MSFT,0.0,100.0\n"
            "GOOG,1.0,200.0\n"
            "MSFT,2.0,101.5\n"
            "\n"
            "GOOG,3.0,199.0\n",
        )
        source = ingest_csv(path)
        assert sorted({e.type_name for e in source}) == ["GOOG", "MSFT"]
        assert len(source) == 4
        assert source.duration == 3.0
        msft = [e for e in source if e.type_name == "MSFT"]
        assert msft[0].value("difference") == 0.0
        assert msft[1].value("difference") == pytest.approx(1.5)
        goog = [e for e in source if e.type_name == "GOOG"]
        assert goog[1].value("difference") == pytest.approx(-1.0)
        assert [e.serial for e in source] == [0, 1, 2, 3]

    def test_errors_carry_line_numbers(self, tmp_path):
        path = self.write(tmp_path, "MSFT,0.0\n")
        with pytest.raises(DataError, match=":1:"):
            ingest_csv(path)
        path = self.write(tmp_path, "MSFT,0.0,100.0\nGOOG,abc,1.0\n", "bad_ts.csv")
        with pytest.raises(DataError, match=":2:"):
            ingest_csv(path)
        path = self.write(tmp_path, ",0.0,100.0\n", "noid.csv")
        with pytest.raises(DataError, match="empty identifier"):
            ingest_csv(path)

    def test_time_travel_is_rejected(self, tmp_path):
        path = self.write(tmp_path, "A,5.0,1.0\nB,4.0,1.0\n")
        with pytest.raises(DataError, match="decrease"):
            ingest_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_timestamps_are_rejected(self, tmp_path, value):
        path = self.write(tmp_path, f"A,1,10\nB,{value},11\nA,3,12\n")
        with pytest.raises(DataError, match=r":2: timestamp .* is not finite"):
            ingest_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_prices_are_rejected(self, tmp_path, value):
        path = self.write(tmp_path, f"A,1,10\nB,2,{value}\n")
        with pytest.raises(DataError, match=r":2: price .* is not finite"):
            ingest_csv(path)


class TestSynthetic:
    def test_deterministic_per_seed(self):
        config = SyntheticConfig(rates={"A": 2.0, "B": 1.0}, duration=50.0, seed=7)
        a = generate_synthetic(config)
        b = generate_synthetic(config)
        assert a.events == b.events
        other = generate_synthetic(
            SyntheticConfig(rates={"A": 2.0, "B": 1.0}, duration=50.0, seed=8)
        )
        assert a.events != other.events

    def test_stream_contract_holds(self):
        source = generate_synthetic(
            SyntheticConfig(rates={"A": 3.0, "B": 1.0, "C": 0.5}, duration=40.0, seed=1)
        )
        assert [e.serial for e in source] == list(range(len(source)))
        timestamps = [e.timestamp for e in source]
        assert timestamps == sorted(timestamps)
        assert all(0.0 <= t < 40.0 for t in timestamps)

    def test_rates_are_roughly_respected(self):
        source = generate_synthetic(
            SyntheticConfig(rates={"A": 5.0, "B": 1.0}, duration=200.0, seed=3)
        )
        counts = {"A": 0, "B": 0}
        for event in source:
            counts[event.type_name] += 1
        assert counts["A"] / 200.0 == pytest.approx(5.0, rel=0.2)
        assert counts["B"] / 200.0 == pytest.approx(1.0, rel=0.4)

    def test_attribute_ranges(self):
        config = SyntheticConfig(
            rates={"A": 4.0},
            duration=30.0,
            seed=2,
            attributes={"x": (0.0, 1.0), "level": (5.0, 6.0)},
        )
        for event in generate_synthetic(config):
            assert 0.0 <= event.value("x") <= 1.0
            assert 5.0 <= event.value("level") <= 6.0

    def test_invalid_configs(self):
        with pytest.raises(DataError):
            SyntheticConfig(rates={"A": 0.0}, duration=10.0)
        with pytest.raises(DataError):
            SyntheticConfig(rates={"A": 1.0}, duration=0.0)


class TestEstimateStatistics:
    def hand_stream(self):
        # 4 As, 2 Bs over 10 seconds; x values chosen for exact fractions
        events = [
            ev("A", 0.0, 0, x=0.1),
            ev("A", 2.0, 1, x=0.9),
            ev("B", 3.0, 2, x=0.5),
            ev("A", 5.0, 3, x=0.2),
            ev("B", 7.0, 4, x=0.6),
            ev("A", 9.0, 5, x=0.8),
        ]
        return from_events(events, duration=10.0)

    def test_rates_are_count_over_duration(self):
        p = seq_pattern(("A", "B"), 4.0)
        stats = estimate_statistics(self.hand_stream(), p)
        assert stats.rate("A") == pytest.approx(0.4)
        assert stats.rate("B") == pytest.approx(0.2)

    def test_pair_selectivity_counts_window_pairs(self):
        pred = Predicate(AttrRef("a", "x"), "<", AttrRef("b", "x"))
        p = Pattern(
            OperatorNode(SEQ, (Leaf("A", "a"), Leaf("B", "b"))), (pred,), 4.0
        )
        stats = estimate_statistics(self.hand_stream(), p)
        # co-resident pairs within 4.0 either way, labelled by timestamp:
        #   (A0,B3) 0.1<0.5 T; (A2,B3) 0.9<0.5 F; (A5,B3) 0.2<0.5 T;
        #   (A5,B7) 0.2<0.6 T; (A9,B7) 0.8<0.6 F  -> 3/5
        assert stats.sel("A", "B") == pytest.approx(3.0 / 5.0)

    def test_single_position_filter_uses_type_frequency(self):
        pred = Predicate(AttrRef("a", "x"), ">", Literal(0.5))
        p = Pattern(
            OperatorNode(SEQ, (Leaf("A", "a"), Leaf("B", "b"))), (pred,), 4.0
        )
        stats = estimate_statistics(self.hand_stream(), p)
        # x > 0.5 holds for 2 of the 4 As; every filter on A is folded
        # into the catalog's single-type key ("A",)
        assert stats.sel("A") == pytest.approx(0.5)

    def test_shared_key_predicates_multiply(self):
        below = Predicate(AttrRef("a", "x"), "<", AttrRef("b", "x"))
        above = Predicate(AttrRef("a", "x"), ">", AttrRef("b", "x"))
        p = Pattern(
            OperatorNode(SEQ, (Leaf("A", "a"), Leaf("B", "b"))),
            (below, above), 4.0,
        )
        stats = estimate_statistics(self.hand_stream(), p)
        # 3/5 for "<" times 2/5 for ">" on the same pair key
        assert stats.sel("A", "B") == pytest.approx(6.0 / 25.0)

    def test_missing_type_is_a_data_error(self):
        p = seq_pattern(("A", "Z"), 4.0)
        with pytest.raises(DataError, match="'Z'"):
            estimate_statistics(self.hand_stream(), p)

    def test_zero_duration_is_a_data_error(self):
        source = StreamSource((ev("A", 1.0, 0),), 0.0)
        with pytest.raises(DataError, match="duration"):
            estimate_statistics(source, seq_pattern(("A",), 4.0))

    def test_sampling_is_deterministic(self):
        config = SyntheticConfig(rates={"A": 4.0, "B": 4.0}, duration=60.0, seed=5)
        source = generate_synthetic(config)
        pred = Predicate(AttrRef("a", "x"), "<", AttrRef("b", "x"))
        p = Pattern(
            OperatorNode(SEQ, (Leaf("A", "a"), Leaf("B", "b"))), (pred,), 2.0
        )
        first = estimate_statistics(source, p, max_pairs=50, seed=9)
        second = estimate_statistics(source, p, max_pairs=50, seed=9)
        assert first.sel("A", "B") == second.sel("A", "B")
        assert 0.0 <= first.sel("A", "B") <= 1.0

    def test_sample_size_below_one_is_a_contract_error(self):
        source = from_events([ev("A", 0.0, 0, x=1), ev("B", 1.0, 1, x=2)])
        p = seq_pattern(("A", "B"), 4.0, [Predicate(AttrRef("a", "x"), "<", AttrRef("b", "x"))])
        for max_pairs in (0, -1):
            with pytest.raises(ContractError):
                estimate_statistics(source, p, max_pairs=max_pairs)

    def pair_pattern(self, a="a", b="b", window=4.0):
        pred = Predicate(AttrRef(a, "x"), "<", AttrRef(b, "x"))
        return Pattern(
            OperatorNode(SEQ, (Leaf("A", a), Leaf("B", b))), (pred,), window
        )

    def test_repeated_predicate_counts_once(self):
        p = self.pair_pattern()
        renamed = self.pair_pattern("first", "second")
        for patterns in ([p, p], [p, renamed]):
            stats = estimate_statistics(self.hand_stream(), patterns)
            assert stats.sel("A", "B") == pytest.approx(3.0 / 5.0)

    def test_repeated_filter_counts_once(self):
        pred = Predicate(AttrRef("a", "x"), ">", Literal(0.5))
        p = Pattern(
            OperatorNode(SEQ, (Leaf("A", "a"), Leaf("B", "b"))), (pred, pred), 4.0
        )
        stats = estimate_statistics(self.hand_stream(), p)
        assert stats.sel("A") == pytest.approx(0.5)

    def test_repeated_predicate_takes_first_window(self):
        narrow = self.pair_pattern(window=4.0)
        wide = self.pair_pattern(window=10.0)
        # all 8 A-B pairs are within 10.0; x_a < x_b holds for 4 of them
        assert estimate_statistics(
            self.hand_stream(), [wide, narrow]
        ).sel("A", "B") == pytest.approx(0.5)
        assert estimate_statistics(
            self.hand_stream(), [narrow, wide]
        ).sel("A", "B") == pytest.approx(3.0 / 5.0)


def reference_selectivities(source, pattern, max_pairs, seed):
    """Selectivities measured by materialising every in-window pair and
    sampling that list, for a pattern whose predicates are distinct."""
    by_type = {}
    for event in source.events:
        by_type.setdefault(event.type_name, []).append(event)
    rng = random.Random(seed)
    alias_types = pattern.alias_types()
    sels = {}
    for pred in pattern.predicates:
        aliases = pred.aliases()
        if len(aliases) == 1:
            sample = by_type[alias_types[aliases[0]]]
            if len(sample) > max_pairs:
                sample = rng.sample(sample, max_pairs)
            bindings = [{aliases[0]: e} for e in sample]
        else:
            first, second = aliases
            pairs = list(pairs_within(
                by_type[alias_types[first]], by_type[alias_types[second]], pattern.window
            ))
            if not pairs:
                continue
            if len(pairs) > max_pairs:
                pairs = rng.sample(pairs, max_pairs)
            bindings = [{first: a, second: b} for a, b in pairs]
        hits = sum(1 for b in bindings if evaluate_predicate(pred, b))
        key = predicate_selectivity_key(pattern, pred)
        sels[key] = sels.get(key, 1.0) * (hits / len(bindings))
    return sels


class TestPairSampling:
    def stream(self):
        config = SyntheticConfig(
            rates={"A": 3.0, "B": 2.0, "C": 1.0}, duration=60.0, seed=3,
            attributes={"x": (0.0, 1.0), "y": (0.0, 1.0)},
        )
        return generate_synthetic(config)

    def pattern(self):
        # two positions of one type, an offset, a timestamp, and filters
        preds = (
            Predicate(AttrRef("a1", "x"), "<", AttrRef("b", "x")),
            Predicate(AttrRef("a1", "x"), "<", AttrRef("a2", "x"), right_offset=0.1),
            Predicate(AttrRef("b", "y"), ">=", AttrRef("c", "x")),
            Predicate(AttrRef("a2", "ts"), "<", AttrRef("c", "ts")),
            Predicate(AttrRef("c", "x"), ">", Literal(0.3)),
            Predicate(AttrRef("a1", "x"), "!=", AttrRef("a1", "y")),
        )
        leaves = (Leaf("A", "a1"), Leaf("B", "b"), Leaf("A", "a2"), Leaf("C", "c"))
        return Pattern(OperatorNode(SEQ, leaves), preds, 2.0)

    @pytest.mark.parametrize("max_pairs", [7, 50, 100_000])
    @pytest.mark.parametrize("seed", [0, 4])
    def test_counted_sampling_equals_sampling_the_pair_list(self, max_pairs, seed):
        source, pattern = self.stream(), self.pattern()
        got = estimate_statistics(source, pattern, max_pairs=max_pairs, seed=seed)
        want = reference_selectivities(source, pattern, max_pairs, seed)
        assert got.selectivities == want
        assert len(want) == 5  # (A, B), (A,), (B, C), (A, C) and (C,)

    def hand_stream(self, b_attrs):
        events = [ev("A", 0.0, 0, x=0.1), ev("B", 1.0, 1, **b_attrs)]
        return from_events(events, duration=2.0)

    def test_missing_attribute_on_a_pair_is_a_data_error(self):
        p = seq_pattern(("A", "B"), 4.0, [Predicate(AttrRef("a", "x"), "<", AttrRef("b", "x"))])
        with pytest.raises(DataError, match="no attribute 'x'"):
            estimate_statistics(self.hand_stream({"y": 1.0}), p)

    def test_text_ordering_on_a_pair_is_unsupported(self):
        p = seq_pattern(("A", "B"), 4.0, [Predicate(AttrRef("a", "x"), "<", AttrRef("b", "x"))])
        with pytest.raises(UnsupportedPatternError, match="text"):
            estimate_statistics(self.hand_stream({"x": "up"}), p)

    def test_text_equality_on_a_pair_is_measured(self):
        p = seq_pattern(("A", "B"), 4.0, [Predicate(AttrRef("a", "x"), "!=", AttrRef("b", "x"))])
        stats = estimate_statistics(self.hand_stream({"x": "up"}), p)
        assert stats.sel("A", "B") == 1.0

    # Numeric columns are compared by column; the cases below hold that
    # path to the per-pair semantics of reference_selectivities.

    def valued_stream(self, value_of):
        """The synthetic stream with each event's x replaced by
        ``value_of(rng, event)``."""
        source, rng = self.stream(), random.Random(8)
        return from_events(
            [Event(e.type_name, e.timestamp, e.serial, dict(e.attrs, x=value_of(rng, e)))
             for e in source.events],
            duration=source.duration,
        )

    def pair_pattern(self, comparator="<"):
        p = Predicate(AttrRef("a", "x"), comparator, AttrRef("b", "x"))
        return seq_pattern(("A", "B"), 2.0, [p])

    def agree(self, source, pattern, max_pairs, seed=0):
        """estimate_statistics gives the reference's selectivities, or
        raises the reference's error; returns what both gave."""
        def outcome(measure):
            try:
                return measure()
            except (DataError, UnsupportedPatternError) as exc:
                return type(exc), str(exc)

        got = outcome(lambda: estimate_statistics(
            source, pattern, max_pairs=max_pairs, seed=seed).selectivities)
        want = outcome(lambda: reference_selectivities(source, pattern, max_pairs, seed))
        assert got == want
        return got

    @pytest.mark.parametrize("max_pairs", [7, 100_000])
    @pytest.mark.parametrize("comparator", ["<", "<=", "=", "!="])
    def test_int_and_mixed_columns_match_the_pair_path(self, max_pairs, comparator):
        ints = self.valued_stream(lambda rng, e: rng.randrange(4))
        mixed = self.valued_stream(
            lambda rng, e: rng.randrange(4) if e.serial % 2 else rng.randrange(4) + 0.0)
        for source in (ints, mixed):
            for seed in (0, 4):
                got = self.agree(source, self.pair_pattern(comparator), max_pairs, seed)
                if max_pairs == 100_000:  # every pair: ties and non-ties both occur
                    assert 0.0 < got[("A", "B")] < 1.0

    @pytest.mark.parametrize("max_pairs", [7, 50, 100_000])
    def test_same_type_offset_on_serial_matches_the_pair_path(self, max_pairs):
        source = self.stream()
        for comparator, offset in (("<", -3), ("<=", 2), ("=", 1), ("!=", -1)):
            pred = Predicate(AttrRef("a1", "serial"), comparator, AttrRef("a2", "serial"),
                             right_offset=offset)
            pattern = seq_pattern(("A", "A"), 2.0, [pred], aliases=("a1", "a2"))
            for seed in (0, 4):
                got = self.agree(source, pattern, max_pairs, seed)
                assert ("A",) in got

    @pytest.mark.parametrize("max_pairs", [7, 100_000])
    def test_nan_values_match_the_pair_path(self, max_pairs):
        source = self.valued_stream(
            lambda rng, e: math.nan if e.serial % 5 == 0 else rng.random())
        # a NaN is unequal to everything, itself too, and below nothing;
        # the other values are distinct reals
        for comparator, bounds in (("=", (0.0, 0.0)), ("!=", (1.0, 1.0)), ("<", (0.0, 1.0))):
            got = self.agree(source, self.pair_pattern(comparator), max_pairs)
            assert bounds[0] <= got[("A", "B")] <= bounds[1]

    @pytest.mark.parametrize("max_pairs", [1, 100_000])
    def test_none_on_a_measured_pair_is_the_same_data_error(self, max_pairs):
        p = self.pair_pattern()
        with pytest.raises(DataError, match="cannot compare float with NoneType"):
            estimate_statistics(self.hand_stream({"x": None}), p, max_pairs=max_pairs)
        source = self.valued_stream(lambda rng, e: None if e.type_name == "B" else 0.5)
        assert self.agree(source, p, max_pairs) == (
            DataError, "cannot compare float with NoneType")

    @pytest.mark.parametrize("b_attrs", [{"x": None}, {"y": 1.0}, {"x": "up"}])
    def test_an_unreached_bad_value_is_not_an_error(self, b_attrs):
        # the last B is outside every A's window
        events = [ev("A", 0.0, 0, x=0.1), ev("B", 1.0, 1, x=0.5),
                  ev("B", 3.0, 2, x=0.9), ev("B", 9.0, 3, **b_attrs)]
        p = self.pair_pattern()
        stats = estimate_statistics(from_events(events, duration=10.0), p)
        assert stats.sel("A", "B") == 1.0

    def test_an_undrawn_bad_value_is_not_an_error(self):
        # one B without x among many in-window pairs: a small draw errs
        # only when it lands on that B, and then as the reference does
        source = self.valued_stream(lambda rng, e: rng.random())
        bad = next(e for e in source.events if e.type_name == "B" and e.timestamp > 30)
        events = [e if e is not bad else ev("B", e.timestamp, e.serial)
                  for e in source.events]
        source = from_events(events, duration=source.duration)
        p = self.pair_pattern()
        outcomes = [self.agree(source, p, 60, seed) for seed in range(20)]
        missing = (DataError, f"event B#{bad.serial} has no attribute 'x'")
        assert missing in outcomes
        assert any(isinstance(got, dict) for got in outcomes)
        assert self.agree(source, p, 100_000) == missing

    # Any other column is the events themselves, each measured pair
    # compared by evaluate_predicate; the cases below hold that walk to
    # reference_selectivities too.

    @pytest.mark.parametrize("max_pairs", [7, 50, 100_000])
    def test_same_type_text_inequality_matches_the_pair_path(self, max_pairs):
        source = self.valued_stream(lambda rng, e: rng.choice(("up", "down", "flat")))
        pred = Predicate(AttrRef("a1", "x"), "!=", AttrRef("a2", "x"))
        pattern = seq_pattern(("A", "A"), 2.0, [pred], aliases=("a1", "a2"))
        for seed in (0, 4):
            got = self.agree(source, pattern, max_pairs, seed)
            if max_pairs == 100_000:  # every pair: equal and unequal texts both occur
                assert 0.0 < got[("A",)] < 1.0

    @pytest.mark.parametrize("max_pairs", [7, 100_000])
    def test_a_numeric_column_against_a_text_column(self, max_pairs):
        # A's x is a number; B's is a number or a text, so B is measured
        # by its events: a number never equals a text
        source = self.valued_stream(
            lambda rng, e: "up" if e.type_name == "B" and e.serial % 3 == 0 else rng.randrange(3))
        for comparator in ("=", "!="):
            for seed in (0, 4):
                got = self.agree(source, self.pair_pattern(comparator), max_pairs, seed)
                if max_pairs == 100_000:
                    assert 0.0 < got[("A", "B")] < 1.0
        assert self.agree(source, self.pair_pattern("<"), max_pairs) == (
            UnsupportedPatternError, "comparator '<' is not defined for text attributes")

    @pytest.mark.parametrize("attrs", [{"x": None}, {"x": "up"}, {}])
    def test_a_bad_event_without_a_partner_of_its_type_is_not_an_error(self, attrs):
        # the last A has no other A in its window; only a comparison with
        # itself would reach its value
        events = [ev("A", 0.0, 0, x=0.1), ev("A", 1.0, 1, x=0.5), ev("A", 9.0, 2, **attrs)]
        pred = Predicate(AttrRef("a1", "x"), "<", AttrRef("a2", "x"))
        pattern = seq_pattern(("A", "A"), 2.0, [pred], aliases=("a1", "a2"))
        source = from_events(events, duration=10.0)
        assert self.agree(source, pattern, 100_000) == {("A",): 0.5}
        for seed in range(4):
            assert self.agree(source, pattern, 1, seed)[("A",)] in (0.0, 1.0)


class TestColumnReads:
    """Numeric columns are read once per event, however many pairs."""

    def count_reads(self, monkeypatch, source, pattern, max_pairs):
        calls = []
        value = Event.value

        def counted(event, attribute):
            calls.append(attribute)
            return value(event, attribute)

        monkeypatch.setattr(Event, "value", counted)
        estimate_statistics(source, pattern, max_pairs=max_pairs)
        monkeypatch.undo()
        return len(calls)

    def test_reads_scale_with_events_not_pairs(self, monkeypatch):
        source = generate_synthetic(SyntheticConfig(rates={"A": 4.0, "B": 4.0},
                                                    duration=60.0, seed=2))
        by_type = {t: [e for e in source.events if e.type_name == t] for t in "AB"}
        window = 3.0
        for types, offset in ((("A", "B"), 0.0), (("A", "A"), 0.1)):
            pairs = sum(1 for _ in pairs_within(by_type[types[0]], by_type[types[1]], window))
            assert pairs >= 10 * len(source)
            pred = Predicate(AttrRef("a", "x"), "<", AttrRef("b", "x"), right_offset=offset)
            pattern = seq_pattern(types, window, [pred], aliases=("a", "b"))
            # every pair, then a draw of half of them: either way the pair
            # path would read two values per measured pair
            for max_pairs in (pairs, pairs // 2):
                reads = self.count_reads(monkeypatch, source, pattern, max_pairs)
                assert 0 < reads <= 2 * len(source) < max_pairs
