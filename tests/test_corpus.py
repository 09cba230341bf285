"""The built-in corpus that `verify --corpus` and the benchmark's corpus gate check."""
from streamcep import builtin_corpus
from streamcep.parser import render_pattern

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
