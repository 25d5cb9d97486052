"""The character-loop tokenizer that `javastyle.lexer.tokenize` replaced.

Kept as the reference for the differential tests in test_lexer.py: the
compiled-regex tokenizer must give the same tokens, comments and errors.
This loop counts lines as it goes and returns one Token, with its line
and column, per token, and one RawComment per comment; test_lexer.py
turns the regex tokenizer's flat lists and comment tuples into the same
form. The only change from the original loop is the text-block fix: a
newline escaped with a backslash inside a text block starts a new line.
"""

from __future__ import annotations

from dataclasses import dataclass

from javastyle.lexer import KEYWORDS, JavaSyntaxError


@dataclass(slots=True)
class Token:
    kind: str  # ident | keyword | num | str | char | op
    value: str
    line: int
    col: int


@dataclass(slots=True)
class RawComment:
    line: int
    col: int
    end_line: int
    text: str
    is_javadoc: bool
    next_token_index: int  # index into the token list of the token after it


# Multi-character operators, longest first for maximal munch.
_MULTI_OPS = (
    ">>>=",
    ">>>", "<<=", ">>=", "...",
    "->", "::", "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
)


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c in "_$"


def _is_ident_part(c: str) -> bool:
    return c.isalnum() or c in "_$"


def tokenize(text: str) -> tuple[list[Token], list[RawComment]]:
    """Split source text into tokens and comments.

    Raises JavaSyntaxError on unterminated strings, chars, or block
    comments.
    """
    tokens: list[Token] = []
    comments: list[RawComment] = []
    i = 0
    n = len(text)
    line = 1
    line_start = 0  # offset of the first char of the current line

    def col(pos: int) -> int:
        return pos - line_start + 1

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if c in " \t\r\f":
            i += 1
            continue

        # Comments
        if c == "/" and i + 1 < n:
            nxt = text[i + 1]
            if nxt == "/":
                start = i
                start_line, start_col = line, col(i)
                while i < n and text[i] != "\n":
                    i += 1
                comments.append(
                    RawComment(start_line, start_col, start_line,
                               text[start:i], False, len(tokens))
                )
                continue
            if nxt == "*":
                start = i
                start_line, start_col = line, col(i)
                is_doc = text.startswith("/**", i) and not text.startswith("/**/", i)
                i += 2
                while i < n and not text.startswith("*/", i):
                    if text[i] == "\n":
                        line += 1
                        line_start = i + 1
                    i += 1
                if i >= n:
                    raise JavaSyntaxError("unterminated block comment",
                                          start_line, start_col)
                i += 2
                comments.append(
                    RawComment(start_line, start_col, line,
                               text[start:i], is_doc, len(tokens))
                )
                continue

        # Text blocks (permissive: consumed, emitted as one string token)
        if text.startswith('"""', i):
            start = i
            start_line, start_col = line, col(i)
            i += 3
            while i < n and not text.startswith('"""', i):
                if text[i] == "\\":
                    i += 1  # an escaped newline still starts a new line
                if i < n and text[i] == "\n":
                    line += 1
                    line_start = i + 1
                i += 1
            if i >= n:
                raise JavaSyntaxError("unterminated text block",
                                      start_line, start_col)
            i += 3
            tokens.append(Token("str", text[start:i], start_line, start_col))
            continue

        if c == '"' or c == "'":
            quote = c
            start = i
            start_line, start_col = line, col(i)
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and text[i + 1:i + 2] != "\n":
                    i += 1
                elif text[i] == "\n":
                    raise JavaSyntaxError("unterminated literal",
                                          start_line, start_col)
                i += 1
            if i >= n:
                raise JavaSyntaxError("unterminated literal",
                                      start_line, start_col)
            i += 1
            kind = "str" if quote == '"' else "char"
            tokens.append(Token(kind, text[start:i], start_line, start_col))
            continue

        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            start_col = col(i)
            i += 1
            # Permissive number scan: hex/bin/oct, underscores, fractions,
            # exponents, and suffixes all collapse into one token.
            while i < n and (text[i].isalnum() or text[i] in "._"):
                if text[i] == "." and not (i + 1 < n and
                                           (text[i + 1].isdigit() or
                                            text[i + 1] in "eEfFdD_")):
                    break
                if text[i] in "eE" and i + 1 < n and text[i + 1] in "+-":
                    i += 1
                i += 1
            tokens.append(Token("num", text[start:i], line, start_col))
            continue

        if _is_ident_start(c):
            start = i
            start_col = col(i)
            i += 1
            while i < n and _is_ident_part(text[i]):
                i += 1
            word = text[start:i]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, start_col))
            continue

        # Operators and punctuation, maximal munch.
        for op in _MULTI_OPS:
            if text.startswith(op, i):
                tokens.append(Token("op", op, line, col(i)))
                i += len(op)
                break
        else:
            tokens.append(Token("op", c, line, col(i)))
            i += 1

    return tokens, comments
