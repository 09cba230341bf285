"""Parser and renderer for the textual pattern language.

The accepted form is the usual declarative event-pattern syntax::

    PATTERN SEQ(Stock a, News b, KL(Trade t))
    WHERE (a.price < b.price AND a.id = t.id)
    WITHIN 20 minutes

``WHERE`` is optional (``WHERE (true)`` is accepted as an explicit empty
conjunction), comparison chains ``a.x = b.x = c.x`` desugar into pairwise
adjacent predicates, and windows are normalized to seconds.  ``render_pattern``
produces a canonical string that parses back to the same structure.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .model import (
    COMPARATORS,
    KLEENE,
    NARY_OPERATORS,
    NOT,
    AttrRef,
    Leaf,
    Literal,
    OperatorNode,
    Pattern,
    Predicate,
    SelectionStrategy,
    StreamCepError,
)

_UNITS = {
    "s": 1.0,
    "sec": 1.0,
    "secs": 1.0,
    "second": 1.0,
    "seconds": 1.0,
    "m": 60.0,
    "min": 60.0,
    "mins": 60.0,
    "minute": 60.0,
    "minutes": 60.0,
    "h": 3600.0,
    "hour": 3600.0,
    "hours": 3600.0,
}

_UNARY_KEYWORDS = {"NOT": NOT, "KL": KLEENE}
_CANON_COMPARATORS = {"≤": "<=", "≥": ">=", "≠": "!=", "==": "="}


@dataclass(frozen=True)
class SourceSpan:
    start: int
    end: int
    line: int
    column: int


class ParseError(StreamCepError):
    """Syntax error with the offending source location."""

    def __init__(self, message: str, span: SourceSpan | None, text: str):
        self.span = span
        if span is not None:
            line_text = text.splitlines()[span.line - 1] if text.splitlines() else ""
            pointer = " " * (span.column - 1) + "^"
            message = (
                f"{message} (line {span.line}, column {span.column})\n"
                f"  {line_text}\n  {pointer}"
            )
        super().__init__(message)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    span: SourceSpan


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d*(e[+-]?\d+)?|\.\d+(e[+-]?\d+)?|\d+(e[+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>'[^']*'|"[^"]*")
  | (?P<cmp><=|>=|!=|==|≤|≥|≠|<|>|=)
  | (?P<punct>[(),.+])
""",
    re.VERBOSE | re.IGNORECASE,
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            span = SourceSpan(pos, pos + 1, line, pos - line_start + 1)
            raise ParseError(f"unexpected character {text[pos]!r}", span, text)
        kind = match.lastgroup
        raw = match.group()
        if kind != "ws":
            span = SourceSpan(pos, match.end(), line, pos - line_start + 1)
            tokens.append(_Token(kind, raw, span))
        newlines = raw.count("\n")
        if newlines:
            line += newlines
            line_start = pos + raw.rfind("\n") + 1
        pos = match.end()
    tokens.append(_Token("eof", "", SourceSpan(pos, pos, line, pos - line_start + 1)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    # -- token helpers ------------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        if token.kind != "eof":
            self.index += 1
        return token

    def error(self, message: str, token: _Token | None = None) -> ParseError:
        token = token or self.peek()
        return ParseError(message, token.span, self.text)

    def expect(self, kind: str, text: str | None = None) -> _Token:
        token = self.peek()
        if token.kind != kind or (text is not None and token.text.upper() != text.upper()):
            want = text or kind
            raise self.error(f"expected {want!r}, found {token.text or 'end of input'!r}")
        return self.advance()

    def accept_keyword(self, word: str) -> bool:
        token = self.peek()
        if token.kind == "name" and token.text.upper() == word:
            self.advance()
            return True
        return False

    # -- grammar ------------------------------------------------------------

    def parse(self) -> Pattern:
        self.expect("name", "PATTERN")
        root = self.operator_expr(top=True)
        predicates: tuple[Predicate, ...] = ()
        if self.accept_keyword("WHERE"):
            predicates = self.where_clause()
        self.expect("name", "WITHIN")
        window = self.within_clause()
        token = self.peek()
        if token.kind != "eof":
            raise self.error(f"unexpected trailing input {token.text!r}")
        return Pattern(root=root, predicates=predicates, window=window)

    def operator_expr(self, top: bool = False) -> OperatorNode:
        token = self.expect("name")
        op = token.text.upper()
        if op not in NARY_OPERATORS:
            raise self.error(f"unknown operator {token.text!r}", token)
        self.expect("punct", "(")
        children = [self.operand()]
        while self.peek().text == ",":
            self.advance()
            children.append(self.operand())
        self.expect("punct", ")")
        return OperatorNode(op, tuple(children))

    def operand(self):
        token = self.peek()
        if token.kind == "name":
            upper = token.text.upper()
            if upper in _UNARY_KEYWORDS:
                return self.unary_expr()
            if upper in NARY_OPERATORS and self._next_is_open_paren():
                return self.operator_expr()
        return self.leaf()

    def _next_is_open_paren(self) -> bool:
        nxt = self.tokens[self.index + 1]
        return nxt.kind == "punct" and nxt.text == "("

    def unary_expr(self) -> Leaf:
        token = self.expect("name")
        wrapper = _UNARY_KEYWORDS[token.text.upper()]
        self.expect("punct", "(")
        inner = self.operand()
        self.expect("punct", ")")
        if isinstance(inner, OperatorNode):
            raise self.error(
                f"{token.text.upper()} applies to a single event position", token
            )
        return Leaf(inner.type_name, inner.alias, (wrapper,) + inner.unary)

    def leaf(self) -> Leaf:
        type_token = self.expect("name")
        alias_token = self.expect("name")
        return Leaf(type_token.text, alias_token.text)

    def where_clause(self) -> tuple[Predicate, ...]:
        self.expect("punct", "(")
        predicates: list[Predicate] = []
        if self.peek().kind == "name" and self.peek().text.lower() == "true":
            self.advance()
        else:
            predicates.extend(self.comparison_chain())
            while self.accept_keyword("AND"):
                predicates.extend(self.comparison_chain())
        self.expect("punct", ")")
        return tuple(predicates)

    def comparison_chain(self) -> list[Predicate]:
        terms = [self.term()]
        comparators = []
        while self.peek().kind == "cmp":
            comparators.append(self._comparator())
            terms.append(self.term())
        if not comparators:
            raise self.error("expected a comparison")
        predicates = []
        for i, cmp_op in enumerate(comparators):
            left, right = terms[i], terms[i + 1]
            if not isinstance(left, tuple):
                # literal on the left: flip so predicates always anchor on a reference
                if not isinstance(right, tuple):
                    raise self.error("comparison needs at least one attribute reference")
                left, right = right, left
                cmp_op = _FLIP[cmp_op]
            ref, offset = left
            if offset:
                raise self.error("offsets are only allowed on the right-hand side")
            if isinstance(right, tuple):
                r_ref, r_off = right
                predicates.append(Predicate(ref, cmp_op, r_ref, right_offset=r_off))
            else:
                predicates.append(Predicate(ref, cmp_op, Literal(right)))
        return predicates

    def _comparator(self) -> str:
        token = self.expect("cmp")
        op = _CANON_COMPARATORS.get(token.text, token.text)
        if op not in COMPARATORS:
            raise self.error(f"unknown comparator {token.text!r}", token)
        return op

    def term(self):
        """A term is either ``(AttrRef, offset)`` or a literal value."""
        token = self.peek()
        if token.kind == "number":
            self.advance()
            return _number(token.text)
        if token.kind == "string":
            self.advance()
            return token.text[1:-1]
        name = self.expect("name")
        if self.peek().text != ".":
            raise self.error("expected '.' after alias in attribute reference")
        self.advance()
        attr = self.expect("name")
        offset = 0.0
        if self.peek().text == "+":
            self.advance()
            offset_token = self.expect("number")
            offset = _number(offset_token.text)
        return (AttrRef(name.text, attr.text), offset)

    def within_clause(self) -> float:
        number = self.expect("number")
        value = _number(number.text)
        unit = self.expect("name")
        factor = _UNITS.get(unit.text.lower())
        if factor is None:
            raise self.error(f"unknown time unit {unit.text!r}", unit)
        window = value * factor
        if not window > 0:
            raise self.error("window must be positive", number)
        return window


_FLIP = {"<": ">", "<=": ">=", "=": "=", "!=": "!=", ">": "<", ">=": "<="}


def _number(text: str) -> float:
    value = float(text)
    return value


def parse_pattern(text: str, strategy: SelectionStrategy | None = None) -> Pattern:
    """Parse pattern text; raises ``ParseError`` with a source location."""
    pattern = _Parser(text).parse()
    if strategy is not None:
        pattern = pattern.with_strategy(strategy)
    return pattern


# ---------------------------------------------------------------------------
# Rendering


def _format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _render_leaf(leaf: Leaf) -> str:
    text = f"{leaf.type_name} {leaf.alias}"
    for wrapper in reversed(leaf.unary):
        word = "NOT" if wrapper == NOT else "KL"
        text = f"{word}({text})"
    return text


def _render_node(node) -> str:
    if isinstance(node, Leaf):
        return _render_leaf(node)
    inner = ", ".join(_render_node(child) for child in node.children)
    return f"{node.op}({inner})"


def _render_term(side, offset: float = 0.0) -> str:
    if isinstance(side, Literal):
        if isinstance(side.value, str):
            return f"'{side.value}'"
        return _format_number(side.value)
    text = f"{side.alias}.{side.attribute}"
    if offset:
        text = f"{text} + {_format_number(offset)}"
    return text


def render_predicate(predicate: Predicate) -> str:
    left = _render_term(predicate.left)
    right = _render_term(predicate.right, predicate.right_offset)
    return f"{left} {predicate.comparator} {right}"


def render_window(window: float) -> str:
    if window % 3600 == 0 and window >= 3600:
        return f"{_format_number(window / 3600)} hours"
    if window % 60 == 0 and window >= 60:
        return f"{_format_number(window / 60)} minutes"
    return f"{_format_number(window)} seconds"


def render_pattern(pattern: Pattern) -> str:
    """Canonical textual form; ``parse_pattern`` inverts it."""
    parts = [f"PATTERN {_render_node(pattern.root)}"]
    if pattern.predicates:
        conj = " AND ".join(render_predicate(p) for p in pattern.predicates)
        parts.append(f"WHERE ({conj})")
    parts.append(f"WITHIN {render_window(pattern.window)}")
    return " ".join(parts)
