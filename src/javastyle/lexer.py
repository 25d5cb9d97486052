"""Tokenizer for the supported Java subset.

Produces a flat token stream plus a side list of comments. Comments never
enter the token stream; each one records the index of the token that
follows it so Javadoc can be attached to the right declaration later.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class JavaSyntaxError(Exception):
    """Raised when source text cannot be tokenized or parsed."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} (line {line}, col {col})")
        self.message = message
        self.line = line
        self.col = col


@dataclass(slots=True)
class Token:
    kind: str  # ident | keyword | num | str | char | op
    value: str
    line: int
    col: int


@dataclass
class RawComment:
    line: int
    col: int
    end_line: int
    text: str
    is_javadoc: bool
    next_token_index: int  # index into the token list of the token after it


# Reserved words only. Contextual keywords (sealed, permits, module, yield,
# to, with, ...) stay identifiers so member names like with() keep working;
# the parser matches them by value where the grammar needs them.
KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public record return short static strictfp super switch
    synchronized this throw throws transient try var void volatile
    while""".split()
)

# A number starts on any character for which str.isdigit() holds, but re's
# \d matches only the decimal ones; the ranges after it are the others
# (superscripts, circled digits, ...). A test checks this class against the
# running Python's str.isdigit.
_DIGIT = (
    "[\\d\u00b2-\u00b3\u00b9\u1369-\u1371\u19da\u2070\u2074-\u2079"
    "\u2080-\u2089\u2460-\u2468\u2474-\u247c\u2488-\u2490\u24ea"
    "\u24f5-\u24fd\u24ff\u2776-\u277e\u2780-\u2788\u278a-\u2792"
    "\U00010a40-\U00010a43\U00010e60-\U00010e68\U00011052-\U0001105a"
    "\U0001f100-\U0001f10a]"
)

# Blanks are skipped, then the first alternative that matches wins. A bare
# opener (groups 4, 6 and 9) matches only where its terminated form did not,
# and is an error; a string or char literal cannot span lines, not even
# after a backslash. Operators come longest first (maximal munch), and any
# other character is a one-character operator. The empty match at the end
# of the text (no group) lets trailing blanks go in one step. Since `[\s\S]`
# or `\Z` always matches after the blanks, the greedy blank prefix never
# backtracks.
_TOKEN_RE = re.compile(
    rf"""[ \t\r\f]*(?:
      (\n)                                               # 1 newline
    | (//[^\n]*)                                         # 2 line comment
    | (/\*[\s\S]*?\*/)                                   # 3 block comment
    | (/\*)                                              # 4 open comment
    | ("{{3}}(?:\\[\s\S]|[^\\])*?"{{3}})                 # 5 text block
    | ("{{3}})                                           # 6 open text block
    | ("(?:\\[^\n]|[^"\\\n])*")                          # 7 string
    | ('(?:\\[^\n]|[^'\\\n])*')                          # 8 char
    | (["'])                                             # 9 open literal
    | ((?:{_DIGIT}|\.{_DIGIT})
       (?:[eE][+-]|\.(?={_DIGIT}|[eEfFdD_])|\w)*)        # 10 number
    | ([A-Za-z_$][\w$]*)                                 # 11 word
    | ([^\W\d][\w$]*)                                    # 12 non-ASCII word
    | (>>>=|>>>|<<=|>>=|\.\.\.|->|::|==|!=|<=|>=|&&|\|\||\+\+|--
       |[-+*/%&|^]=|<<|>>|[\s\S])                        # 13 operator
    | \Z)""",
    re.VERBOSE,
)
(_NEWLINE, _LINE_COMMENT, _BLOCK_COMMENT, _OPEN_COMMENT, _TEXT_BLOCK,
 _OPEN_TEXT_BLOCK, _STRING, _CHAR, _OPEN_LITERAL, _NUMBER, _WORD,
 _OTHER_WORD, _OP) = range(1, 14)

_LITERALS = {_NUMBER: "num", _STRING: "str", _CHAR: "char"}
_UNTERMINATED = {
    _OPEN_COMMENT: "unterminated block comment",
    _OPEN_TEXT_BLOCK: "unterminated text block",
    _OPEN_LITERAL: "unterminated literal",
}


def tokenize(text: str) -> tuple[list[Token], list[RawComment]]:
    """Split source text into tokens and comments.

    Raises JavaSyntaxError on unterminated strings, chars, text blocks or
    block comments.
    """
    tokens: list[Token] = []
    comments: list[RawComment] = []
    append = tokens.append
    token = Token
    keywords = KEYWORDS
    line = 1
    line_start = 0  # offset of the first char of the current line
    pos = 0
    while True:
        for m in _TOKEN_RE.finditer(text, pos):
            kind = m.lastindex
            if kind == _OP:
                append(token("op", m.group(kind), line,
                             m.start(kind) - line_start + 1))
            elif kind == _WORD:
                value = m.group(kind)
                append(token("keyword" if value in keywords else "ident",
                             value, line, m.start(kind) - line_start + 1))
            elif kind == _NEWLINE:
                line += 1
                line_start = m.end()
            elif kind in _LITERALS:
                append(token(_LITERALS[kind], m.group(kind), line,
                             m.start(kind) - line_start + 1))
            elif kind == _BLOCK_COMMENT or kind == _TEXT_BLOCK:
                value = m.group(kind)
                start = m.start(kind)
                start_line, start_col = line, start - line_start + 1
                newlines = value.count("\n")
                if newlines:
                    line += newlines
                    line_start = start + value.rindex("\n") + 1
                if kind == _TEXT_BLOCK:
                    append(token("str", value, start_line, start_col))
                else:
                    comments.append(RawComment(
                        start_line, start_col, line, value,
                        value.startswith("/**") and value != "/**/",
                        len(tokens)))
            elif kind == _LINE_COMMENT:
                comments.append(RawComment(
                    line, m.start(kind) - line_start + 1, line,
                    m.group(kind), False, len(tokens)))
            elif kind == _OTHER_WORD:
                value = m.group(kind)
                start = m.start(kind)
                if value[0].isalpha():
                    append(token("ident", value, line,
                                 start - line_start + 1))
                else:
                    # [^\W\d] also admits numerals that are neither letters
                    # nor digits (½, Ⅻ): such a character is an operator of
                    # its own, and scanning resumes right after it.
                    append(token("op", value[0], line,
                                 start - line_start + 1))
                    pos = start + 1
                    break
            elif kind is not None:  # None: blanks before the end of text
                raise JavaSyntaxError(_UNTERMINATED[kind], line,
                                      m.start(kind) - line_start + 1)
        else:
            return tokens, comments
