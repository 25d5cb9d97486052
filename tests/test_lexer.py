"""Tokenizer behavior: token boundaries, positions, comments, errors."""

import re
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from javastyle import parser
from javastyle.lexer import (_DIGIT, EOF, KEYWORDS, KIND_NAMES, JavaSyntaxError,
                             is_javadoc, line_col, tokenize)
from lexer_reference import RawComment, Token
from lexer_reference import tokenize as reference_tokenize

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_PATHS = sorted(FIXTURES.rglob("*.java"))


def lex(text):
    """tokenize's flat lists in the reference form: a Token, with its line
    and column, per token, and a RawComment per comment."""
    stream = tokenize(text)
    newlines = stream.newlines
    tokens = [Token(KIND_NAMES[kind], value, *line_col(newlines, start))
              for kind, value, start in zip(stream.kinds, stream.values,
                                            stream.starts)]
    comments = [RawComment(*line_col(newlines, start),
                           line_col(newlines, start + len(body) - 1)[0], body,
                           is_javadoc(body), after)
                for start, body, after in stream.comments]
    return tokens, comments


def kinds_values(text):
    tokens, _ = lex(text)
    return [(t.kind, t.value) for t in tokens]


def test_simple_statement_token_stream():
    assert kinds_values("int x = 42;") == [
        ("keyword", "int"), ("ident", "x"), ("op", "="),
        ("num", "42"), ("op", ";"),
    ]


def test_positions_are_one_based_and_track_lines():
    tokens, _ = lex("a\n  b")
    assert (tokens[0].line, tokens[0].col) == (1, 1)
    assert (tokens[1].line, tokens[1].col) == (2, 3)


def test_line_comment_is_captured_not_tokenized():
    tokens, comments = lex("a // trailing words\nb")
    assert [t.value for t in tokens] == ["a", "b"]
    assert len(comments) == 1
    c = comments[0]
    assert c.text == "// trailing words"
    assert c.line == 1 and not c.is_javadoc
    assert c.next_token_index == 1  # points at "b"


def test_block_and_doc_comments():
    _, comments = lex("/* plain */\n/** doc */\n/**/")
    assert [c.is_javadoc for c in comments] == [False, True, False]
    assert comments[1].line == 2


def test_multiline_comment_tracks_end_line():
    _, comments = lex("/* a\nb\nc */ x")
    assert comments[0].line == 1
    assert comments[0].end_line == 3


def test_string_and_char_literals():
    assert kinds_values('"a\\"b" \'c\'') == [
        ("str", '"a\\"b"'), ("char", "'c'"),
    ]


def test_text_block_is_one_token():
    text = '"""\nline one\nline two\n""" x'
    tokens, _ = lex(text)
    assert tokens[0].kind == "str"
    assert tokens[1].value == "x"
    assert tokens[1].line == 4


def test_number_forms_collapse_into_single_tokens():
    for lit in ("0x1F", "1_000_000", "3.14f", "1e-9", "2.5d", "0b1010L"):
        tokens, _ = lex(lit)
        assert [(t.kind, t.value) for t in tokens] == [("num", lit)], lit


def test_maximal_munch_operators():
    assert kinds_values("a>>>=b") == [
        ("ident", "a"), ("op", ">>>="), ("ident", "b")]
    assert kinds_values("a+++b") == [
        ("ident", "a"), ("op", "++"), ("op", "+"), ("ident", "b")]
    assert kinds_values("x::y") == [
        ("ident", "x"), ("op", "::"), ("ident", "y")]


def test_keywords_vs_contextual_identifiers():
    tokens, _ = lex("class sealed record yield")
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
        tokens, comments = lex(text)
    except JavaSyntaxError:
        return  # unterminated /* ... is legitimately rejected
    for t in tokens:
        assert t.value
        assert t.line >= 1 and t.col >= 1
    for c in comments:
        assert c.end_line >= c.line


def test_text_block_line_continuation_counts_its_newline():
    text = 'String s = """\n  a \\\n  b""";\nint x;'
    tokens, _ = lex(text)
    assert [(t.value, t.line) for t in tokens][-4:] == [
        (";", 3), ("int", 4), ("x", 4), (";", 4)]
    assert tokens[-2].col == 5


@pytest.mark.parametrize("tokenizer", [lex, reference_tokenize],
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
    """Tokens (kind, value, line, col) and comments (line, col, end_line,
    text, is_javadoc, next_token_index), or the error's (message, line,
    col)."""
    try:
        return tokenizer(text)
    except JavaSyntaxError as err:
        return (err.message, err.line, err.col)


@pytest.mark.parametrize("path", FIXTURE_PATHS,
                         ids=lambda p: str(p.relative_to(FIXTURES)))
def test_matches_reference_tokenizer_on_fixtures(path):
    text = path.read_text(encoding="utf-8")
    assert lex_outcome(lex, text) == lex_outcome(reference_tokenize, text)


_PIECES = st.sampled_from(
    list("\"'\\/*.eE+-$_09 xa;,@?~{}()[]<>=!&|\n\r\f\v\u00a0²½Ⅻ٣é")
    + ['"""', "/**", "/**/", "*/", "//", ">>>=", "..."])


@settings(max_examples=1000, deadline=None)
@given(st.lists(_PIECES, max_size=40).map("".join))
def test_matches_reference_tokenizer(text):
    assert lex_outcome(lex, text) == lex_outcome(reference_tokenize, text)


@pytest.mark.parametrize("text", [
    "/* a\nb */ x\n/** c\n\n*/ y",
    'a = """\n  b\n  c""" + d;\ne',
    's = """\n  a \\\n  b \\\n""";\n/* \\\n */ x',
    "x // c \\\ny \\\nz",
    "\n\n/*\n*/\n\n",
    "a /* \n */ \"b\\\n\"",
    'a """\n b\n',
])
def test_matches_reference_tokenizer_across_newlines(text):
    # Newlines inside block comments and text blocks, also after a
    # backslash, count toward every later position.
    assert lex_outcome(lex, text) == lex_outcome(reference_tokenize, text)


def test_only_line_feed_ends_a_line():
    # Java's line terminators also include a lone CR, but here only "\n"
    # starts a new line: a lone "\r", "\x0b", "\x0c", "\x85" or "\u2028"
    # does not, and a // comment runs on to the next "\n". str.splitlines
    # would split at all of them.
    text = "a\rb\x0bc\x0cd\x85e\u2028f // g\rh\x85i\ny"
    tokens, comments = lex(text)
    assert [(t.value, t.line, t.col) for t in tokens] == [
        ("a", 1, 1), ("b", 1, 3), ("\x0b", 1, 4), ("c", 1, 5), ("d", 1, 7),
        ("\x85", 1, 8), ("e", 1, 9), ("\u2028", 1, 10), ("f", 1, 11),
        ("y", 2, 1)]
    assert [(c.text, c.line, c.col, c.end_line) for c in comments] == [
        ("// g\rh\x85i", 1, 13, 1)]
    assert lex_outcome(lex, text) == lex_outcome(reference_tokenize, text)


# The benchmark wraps `parser.tokenize` and counts len(result[0]) as the
# tokens lexed; these pin what makes that count right.

@pytest.mark.parametrize("path", FIXTURE_PATHS,
                         ids=lambda p: str(p.relative_to(FIXTURES)))
def test_first_list_holds_one_entry_per_token(path):
    text = path.read_text(encoding="utf-8")
    stream = tokenize(text)
    assert len(stream[0]) == len(reference_tokenize(text)[0])
    assert EOF not in stream[0]


def test_empty_text_has_no_tokens():
    assert len(tokenize("")[0]) == 0
    assert len(tokenize(" \n// c\n")[0]) == 0


def test_parser_tokenizes_once_per_file(monkeypatch):
    calls = []

    def counted(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(parser, "tokenize", counted)
    texts = [path.read_text(encoding="utf-8") for path in FIXTURE_PATHS]
    for text in texts:
        parser.parse_compilation_unit(text, "p/A.java")
    assert calls == texts
