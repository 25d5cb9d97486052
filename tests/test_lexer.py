"""Tokenizer behavior: token boundaries, positions, comments, errors."""

import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from javastyle.lexer import _DIGIT, KEYWORDS, JavaSyntaxError, tokenize
from lexer_reference import tokenize as reference_tokenize

FIXTURES = Path(__file__).parent / "fixtures"


def kinds_values(text):
    tokens, _ = tokenize(text)
    return [(t.kind, t.value) for t in tokens]


def test_simple_statement_token_stream():
    assert kinds_values("int x = 42;") == [
        ("keyword", "int"), ("ident", "x"), ("op", "="),
        ("num", "42"), ("op", ";"),
    ]


def test_positions_are_one_based_and_track_lines():
    tokens, _ = tokenize("a\n  b")
    assert (tokens[0].line, tokens[0].col) == (1, 1)
    assert (tokens[1].line, tokens[1].col) == (2, 3)


def test_line_comment_is_captured_not_tokenized():
    tokens, comments = tokenize("a // trailing words\nb")
    assert [t.value for t in tokens] == ["a", "b"]
    assert len(comments) == 1
    c = comments[0]
    assert c.text == "// trailing words"
    assert c.line == 1 and not c.is_javadoc
    assert c.next_token_index == 1  # points at "b"


def test_block_and_doc_comments():
    _, comments = tokenize("/* plain */\n/** doc */\n/**/")
    assert [c.is_javadoc for c in comments] == [False, True, False]
    assert comments[1].line == 2


def test_multiline_comment_tracks_end_line():
    _, comments = tokenize("/* a\nb\nc */ x")
    assert comments[0].line == 1
    assert comments[0].end_line == 3


def test_string_and_char_literals():
    assert kinds_values('"a\\"b" \'c\'') == [
        ("str", '"a\\"b"'), ("char", "'c'"),
    ]


def test_text_block_is_one_token():
    text = '"""\nline one\nline two\n""" x'
    tokens, _ = tokenize(text)
    assert tokens[0].kind == "str"
    assert tokens[1].value == "x"
    assert tokens[1].line == 4


def test_number_forms_collapse_into_single_tokens():
    for lit in ("0x1F", "1_000_000", "3.14f", "1e-9", "2.5d", "0b1010L"):
        tokens, _ = tokenize(lit)
        assert [(t.kind, t.value) for t in tokens] == [("num", lit)], lit


def test_maximal_munch_operators():
    assert kinds_values("a>>>=b") == [
        ("ident", "a"), ("op", ">>>="), ("ident", "b")]
    assert kinds_values("a+++b") == [
        ("ident", "a"), ("op", "++"), ("op", "+"), ("ident", "b")]
    assert kinds_values("x::y") == [
        ("ident", "x"), ("op", "::"), ("ident", "y")]


def test_keywords_vs_contextual_identifiers():
    tokens, _ = tokenize("class sealed record yield")
    assert [(t.kind, t.value) for t in tokens] == [
        ("keyword", "class"), ("ident", "sealed"),
        ("keyword", "record"), ("ident", "yield"),
    ]
    assert "sealed" not in KEYWORDS


@pytest.mark.parametrize("bad", ['"open', "'x", "/* never closed", '"""no end'])
def test_unterminated_constructs_raise(bad):
    with pytest.raises(JavaSyntaxError):
        tokenize(bad)


def test_error_carries_position():
    with pytest.raises(JavaSyntaxError) as err:
        tokenize('x = "abc\n')
    assert err.value.line == 1
    assert err.value.col == 5


@given(st.text(alphabet="abc123 +-*/=<>!&|(){};\n\t", max_size=200))
def test_tokenize_returns_sound_tokens_or_syntax_error(text):
    try:
        tokens, comments = tokenize(text)
    except JavaSyntaxError:
        return  # unterminated /* ... is legitimately rejected
    for t in tokens:
        assert t.value
        assert t.line >= 1 and t.col >= 1
    for c in comments:
        assert c.end_line >= c.line


def test_text_block_line_continuation_counts_its_newline():
    text = 'String s = """\n  a \\\n  b""";\nint x;'
    tokens, _ = tokenize(text)
    assert [(t.value, t.line) for t in tokens][-4:] == [
        (";", 3), ("int", 4), ("x", 4), (";", 4)]
    assert tokens[-2].col == 5


@pytest.mark.parametrize("tokenizer", [tokenize, reference_tokenize],
                         ids=["regex", "reference"])
@pytest.mark.parametrize("quote", ['"', "'"], ids=["string", "char"])
def test_escaped_newline_in_literal_is_unterminated(tokenizer, quote):
    # A Java string or char literal cannot span lines, not even after a
    # backslash (only a text block can).
    text = f"s = {quote}a\\\nb{quote}; x"
    assert lex_outcome(tokenizer, text) == ("unterminated literal", 1, 5)


def test_digit_class_matches_str_isdigit():
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(_DIGIT, every) == [c for c in every if c.isdigit()]


@pytest.mark.parametrize("text,expected", [
    ("x²", [("ident", "x²")]),
    ("²x 1.²", [("num", "²x"), ("num", "1.²")]),
    ("½a Ⅻ", [("op", "½"), ("ident", "a"), ("op", "Ⅻ")]),
    ("½1.5e+3 ٣", [("op", "½"), ("num", "1.5e+3"), ("num", "٣")]),
    ("é$ \v\u00a0/", [("ident", "é$"), ("op", "\v"), ("op", "\u00a0"),
                       ("op", "/")]),
])
def test_unicode_digits_letters_and_numerals(text, expected):
    assert kinds_values(text) == expected


def lex_outcome(tokenizer, text):
    """Tokens and comments, or the error's (message, line, col)."""
    try:
        return tokenizer(text)
    except JavaSyntaxError as err:
        return (err.message, err.line, err.col)


@pytest.mark.parametrize("path", sorted(FIXTURES.rglob("*.java")),
                         ids=lambda p: str(p.relative_to(FIXTURES)))
def test_matches_reference_tokenizer_on_fixtures(path):
    text = path.read_text(encoding="utf-8")
    assert lex_outcome(tokenize, text) == lex_outcome(reference_tokenize, text)


_PIECES = st.sampled_from(
    list("\"'\\/*.eE+-$_09 xa;{}()<>=!&|\n\r\f\v\u00a0²½Ⅻ٣é")
    + ['"""', "/**", "/**/", "*/", "//", ">>>=", "..."])


@settings(max_examples=1000, deadline=None)
@given(st.lists(_PIECES, max_size=40).map("".join))
def test_matches_reference_tokenizer(text):
    assert lex_outcome(tokenize, text) == lex_outcome(reference_tokenize, text)
