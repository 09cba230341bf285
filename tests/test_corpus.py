"""The built-in corpus that `verify --corpus` and the benchmark's corpus gate check,
and verification reporting a planted engine fault."""
import pytest

from streamcep import builtin_corpus, estimate_statistics, ingest_csv, parse_pattern
from streamcep.corpus import verify_pattern
from streamcep.model import DataError
from streamcep.oracle import oracle_match
from streamcep.parser import render_pattern

from helpers import (
    GATE_ABSENT_TYPE,
    GATE_CONJUNCTION,
    GATE_PATTERN,
    GATE_STREAM,
    KLEENE_FILTER,
    plant_fault,
)

# Recorded from the generator; a reordered random draw changes these texts.
CORPUS = (
    ("sequence-3-0",
     "PATTERN SEQ(H h, D d, F f) WHERE (f.difference <= h.difference) WITHIN 6 seconds"),
    ("sequence-4-0",
     "PATTERN SEQ(H h, G g, B b, C c) WHERE (c.difference > g.difference AND b.difference <= c.difference) WITHIN 6 seconds"),
    ("sequence-5-0",
     "PATTERN SEQ(H h, B b, F f, E e, C c) WHERE (c.difference < f.difference AND h.difference < c.difference) WITHIN 6 seconds"),
    ("conjunction-3-0",
     "PATTERN AND(H h, E e, F f) WHERE (e.difference < h.difference) WITHIN 6 seconds"),
    ("conjunction-4-0",
     "PATTERN AND(B b, G g, F f, D d) WHERE (d.difference < f.difference AND f.difference <= g.difference) WITHIN 6 seconds"),
    ("conjunction-5-0",
     "PATTERN AND(F f, D d, B b, H h, C c) WHERE (f.difference <= b.difference AND f.difference > c.difference) WITHIN 6 seconds"),
    ("negation-3-0",
     "PATTERN SEQ(B b, NOT(D d), G g) WHERE (b.difference < g.difference) WITHIN 6 seconds"),
    ("negation-4-0",
     "PATTERN SEQ(D d, NOT(G g), A a, H h) WHERE (h.difference < d.difference AND a.difference > h.difference) WITHIN 6 seconds"),
    ("negation-5-0",
     "PATTERN SEQ(B b, NOT(D d), F f, A a, H h) WHERE (h.difference <= a.difference AND a.difference <= f.difference) WITHIN 6 seconds"),
    ("kleene-3-0",
     "PATTERN SEQ(C c, A a, KL(B b)) WHERE (a.difference <= b.difference) WITHIN 6 seconds"),
    ("kleene-4-0",
     "PATTERN SEQ(H h, G g, KL(B b), A a) WHERE (b.difference < g.difference AND g.difference <= h.difference) WITHIN 6 seconds"),
    ("kleene-5-0",
     "PATTERN SEQ(KL(E e), B b, F f, A a, H h) WHERE (b.difference <= e.difference AND e.difference > f.difference) WITHIN 6 seconds"),
    ("disjunction-3-0",
     "PATTERN OR(SEQ(D d, C c), SEQ(E e)) WHERE (d.difference < c.difference) WITHIN 6 seconds"),
    ("disjunction-4-0",
     "PATTERN OR(SEQ(B b, H h), SEQ(D d, E e)) WHERE (e.difference > d.difference AND d.difference <= e.difference) WITHIN 6 seconds"),
    ("disjunction-5-0",
     "PATTERN OR(SEQ(D d, B b, C c), SEQ(G g, H h)) WHERE (h.difference <= g.difference AND c.difference > b.difference) WITHIN 6 seconds"),
)


def test_builtin_corpus_is_pinned():
    rendered = [(g.pattern_id, render_pattern(g.pattern)) for g in builtin_corpus()]
    assert rendered == list(CORPUS)


# the first three of the four reports, capped there
LATE = tuple(f"order/groups differ at index {i}" for i in range(3))


def gate_source(tmp_path):
    path = tmp_path / "stream.csv"
    path.write_text(GATE_STREAM)
    return ingest_csv(str(path))


def gate_cells(tmp_path, pattern_text=GATE_PATTERN):
    return verify_pattern(parse_pattern(pattern_text), gate_source(tmp_path))


class TestVerifyReportsFaults:
    def test_the_real_engines_pass_every_cell(self, tmp_path):
        cells = gate_cells(tmp_path)
        assert len(cells) == 15
        assert all(cell.passed for cell in cells)

    def test_lost_matches_are_listed_as_missing(self, tmp_path, monkeypatch):
        # each probe loses its latest A: B#1 its only one, B#5 A#4; every
        # tree cell probes a bisected bucket, the chain NFA only when its
        # plan forks a backlog
        plant_fault(monkeypatch, "missing")
        cells = gate_cells(tmp_path)
        failed = [cell for cell in cells if not cell.passed]
        assert all(cell in failed for cell in cells if cell.engine == "tree")
        assert all(cell.missing == ("0,1", "4,5") and cell.extra == () and cell.error is None
                   for cell in failed)

    def test_matches_past_a_failed_predicate_are_listed_as_extra(self, tmp_path, monkeypatch):
        plant_fault(monkeypatch, "extra")
        cells = gate_cells(tmp_path)
        assert all(not cell.passed and cell.missing == () and cell.extra == ("2,3", "2,5")
                   for cell in cells)

    def test_the_same_matches_emitted_late_are_listed_by_index(self, tmp_path, monkeypatch):
        plant_fault(monkeypatch, "late")
        cells = gate_cells(tmp_path)
        assert all(not cell.passed and cell.missing == () and cell.extra == LATE
                   for cell in cells)

    def test_an_engine_that_raises_gives_error_cells(self, tmp_path, monkeypatch):
        plant_fault(monkeypatch, "error")
        for cell in gate_cells(tmp_path):
            if cell.engine == "tree":
                assert not cell.passed
                assert cell.error == "RuntimeError: planted fault"
                assert cell.missing == cell.extra == ()
            else:
                assert cell.passed

    def test_a_converse_tester_is_caught_by_the_interpreting_oracle(self, tmp_path,
                                                                    monkeypatch):
        # every cell's engine compiles a.price > b.price; the exhaustive
        # matcher interprets a.price < b.price, so it still finds the six
        # matches, and every cell reports them missing and the converse
        # ones extra
        pattern = parse_pattern(GATE_CONJUNCTION)
        assert all(cell.passed for cell in gate_cells(tmp_path, GATE_CONJUNCTION))
        expected = {r.serials for r in oracle_match(pattern, list(gate_source(tmp_path).events))}
        plant_fault(monkeypatch, "compiled")
        faulty = parse_pattern(GATE_CONJUNCTION)
        assert {r.serials for r in oracle_match(faulty, list(gate_source(tmp_path).events))} \
            == expected == {(0, 1), (0, 3), (0, 5), (1, 4), (3, 4), (4, 5)}
        cells = gate_cells(tmp_path, GATE_CONJUNCTION)
        assert len(cells) == 15
        assert all(not cell.passed and cell.error is None
                   and cell.missing == ("0,1", "0,3", "0,5", "1,4", "3,4", "4,5")
                   and cell.extra == ("1,2", "2,3", "2,5")
                   for cell in cells)

    def test_groups_past_a_member_filter_are_listed_as_extra(self, tmp_path, monkeypatch):
        # B#1 is the first B (difference 0) and B#3 rises by 0.1, so only
        # B#2 passes b.difference > 0.5; groups drawn from the whole pool
        # add every group that holds B#1 or B#3
        path = tmp_path / "stream.csv"
        path.write_text("A,0,10\nB,1,10\nB,2,11\nB,3,11.1\n")
        pattern = parse_pattern(KLEENE_FILTER)
        assert all(cell.passed for cell in verify_pattern(pattern, ingest_csv(str(path))))
        plant_fault(monkeypatch, "kleene-unfiltered")
        cells = verify_pattern(pattern, ingest_csv(str(path)))
        assert len(cells) == 15
        assert all(not cell.passed and cell.error is None and cell.missing == ()
                   and cell.extra == ("0,1", "0,1,2", "0,1,2,3", "0,1,3", "0,2,3", "0,3")
                   for cell in cells)

    def test_a_type_absent_from_the_stream_still_gets_planned(self, tmp_path):
        # the stream has no N, so statistics cannot be measured; the cells
        # are planned from counted rates and still find the four matches
        with pytest.raises(DataError, match="no events of type 'N'"):
            estimate_statistics(gate_source(tmp_path), parse_pattern(GATE_ABSENT_TYPE))
        cells = gate_cells(tmp_path, GATE_ABSENT_TYPE)
        assert len(cells) == 15
        assert all(cell.passed for cell in cells)
