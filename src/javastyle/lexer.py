"""Tokenizer for the supported Java subset.

`tokenize` returns the tokens as parallel lists: a kind code, the text
and the start offset of each token. It keeps no line count; `line_col`
turns an offset into a 1-based line and column by bisecting the offsets
of the text's newlines, which the parser does only for a fact or an
error. Only "\\n" ends a line. The same pass pairs every bracket with its
partner. Comments never enter the token lists: each one is kept apart as
its start offset, its text and the index of the token that follows it,
so Javadoc can be attached to the right declaration later.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from typing import NamedTuple


class JavaSyntaxError(Exception):
    """Raised when source text cannot be tokenized or parsed."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} (line {line}, col {col})")
        self.message = message
        self.line = line
        self.col = col


class Tokens(NamedTuple):
    """The tokens of a text as parallel lists, its comments and newlines.

    Positions are offsets into the text; `line_col` turns one into a line
    and column.
    """

    kinds: list[int]  # one code per token of the text, nothing else
    values: list[str]
    starts: list[int]  # offset of each token's first character
    partner: dict[int, int]  # matched bracket index -> its partner's
    # (start offset, text, index of the token after it), in source order
    comments: list[tuple[int, str, int]]
    newlines: list[int]  # offset of every "\n", for line_col


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

# Blanks, newlines included, are skipped, then the first alternative that
# matches wins. Alternatives that can start on the same character keep
# their order of precedence: comments before the `/` operator, a text
# block before a string, a number before the `.` operator and before a
# non-ASCII word. Words, brackets and the one-character operators that
# start no longer token (group 4) come first: the engine tries the
# alternatives in order, these are the most common tokens, and no other
# alternative starts on their characters. A bare opener (groups 7, 9 and
# 12) matches only where its terminated form did not, and is an error; a
# string or char literal cannot span lines, not even after a backslash.
# Operators come longest first (maximal munch), and any other character
# is a one-character operator. The empty match at the end of the text
# lets trailing blanks go in one step. Since `[\s\S]` or `\Z` always
# matches after the blanks, the greedy blank prefix never backtracks.
_TOKEN_RE = re.compile(
    rf"""[ \t\r\f\n]*(?:
      ([A-Za-z_$][\w$]*)                                 # 1 word
    | ([(\[{{])                                          # 2 open bracket
    | ([)\]}}])                                          # 3 close bracket
    | ([;,@?~]|\.(?!\.|{_DIGIT}))                       # 4 lone operator
    | (//[^\n]*)                                         # 5 line comment
    | (/\*[\s\S]*?\*/)                                   # 6 block comment
    | (/\*)                                              # 7 open comment
    | ("{{3}}(?:\\[\s\S]|[^\\])*?"{{3}})                 # 8 text block
    | ("{{3}})                                           # 9 open text block
    | ("(?:\\[^\n]|[^"\\\n])*")                          # 10 string
    | ('(?:\\[^\n]|[^'\\\n])*')                          # 11 char
    | (["'])                                             # 12 open literal
    | ((?:{_DIGIT}|\.{_DIGIT})
       (?:[eE][+-]|\.(?={_DIGIT}|[eEfFdD_])|\w)*)        # 13 number
    | ([^\W\d][\w$]*)                                    # 14 non-ASCII word
    | (>>>=|>>>|<<=|>>=|\.\.\.|->|::|==|!=|<=|>=|&&|\|\||\+\+|--
       |[-+*/%&|^]=|<<|>>|[\s\S])                        # 15 operator
    | (\Z))                                              # 16 end of text""",
    re.VERBOSE,
)
(_WORD, _OPEN, _CLOSE, _LONE_OP, _LINE_COMMENT, _BLOCK_COMMENT, _OPEN_COMMENT,
 _TEXT_BLOCK, _OPEN_TEXT_BLOCK, _STRING, _CHAR, _OPEN_LITERAL, _NUMBER,
 _OTHER_WORD, _OP, _END) = range(1, 17)
_NEWLINE_RE = re.compile("\n")

# Token kind codes: the number of the group that matched the token, except
# that a keyword is KEYWORD, every operator is OP and a text block is STR.
# EOF marks the sentinel the parser appends, never a token of the text.
IDENT, KEYWORD, NUM, STR, CHAR, OP, EOF = _WORD, 0, _NUMBER, _STRING, _CHAR, _OP, -1
KIND_NAMES = {IDENT: "ident", KEYWORD: "keyword", NUM: "num", STR: "str",
              CHAR: "char", OP: "op", EOF: "eof"}
_PLAIN = frozenset({OP, NUM, STR, CHAR})  # groups that are their own kind code
_UNTERMINATED = {
    _OPEN_COMMENT: "unterminated block comment",
    _OPEN_TEXT_BLOCK: "unterminated text block",
    _OPEN_LITERAL: "unterminated literal",
}


def is_javadoc(comment: str) -> bool:
    """Whether a comment's text opens a Javadoc comment: `/**`, not `/**/`."""
    return comment.startswith("/**") and comment != "/**/"


def line_col(newlines: list[int], offset: int) -> tuple[int, int]:
    """1-based line and column of a text offset; newlines as in Tokens."""
    line = bisect_left(newlines, offset)
    return line + 1, offset - (newlines[line - 1] if line else -1)


def tokenize(text: str) -> Tokens:
    """Split source text into tokens and comments.

    Raises JavaSyntaxError on unterminated strings, chars, text blocks or
    block comments.
    """
    kinds: list[int] = []
    values: list[str] = []
    starts: list[int] = []
    add_kind, add_value, add_start = kinds.append, values.append, starts.append
    partner: dict[int, int] = {}
    open_at: dict[str, list[int]] = {"(": [], "[": [], "{": []}
    close_at = {")": open_at["("], "]": open_at["["], "}": open_at["{"]}
    comments: list[tuple[int, str, int]] = []  # (start, text, next index)
    keywords = KEYWORDS
    pos = 0
    while True:
        for m in _TOKEN_RE.finditer(text, pos):
            kind = m.lastindex
            value = m[kind]
            start = m.start(kind)
            if kind == _WORD:
                if value in keywords:
                    kind = KEYWORD
            elif kind <= _LONE_OP:  # a bracket or a lone operator
                if kind == _OPEN:
                    open_at[value].append(len(kinds))
                elif kind == _CLOSE:
                    opens = close_at[value]
                    if opens:
                        j = opens.pop()
                        partner[j] = len(kinds)
                        partner[len(kinds)] = j
                kind = OP
            elif kind not in _PLAIN:
                if kind == _LINE_COMMENT or kind == _BLOCK_COMMENT:
                    comments.append((start, value, len(kinds)))
                    continue
                if kind == _TEXT_BLOCK:
                    kind = STR
                elif kind == _OTHER_WORD and value[0].isalpha():
                    kind = IDENT
                elif kind == _OTHER_WORD:
                    # [^\W\d] also admits numerals that are neither letters
                    # nor digits (½, Ⅻ): such a character is an operator of
                    # its own, and scanning resumes right after it.
                    add_kind(OP)
                    add_value(value[0])
                    add_start(start)
                    pos = start + 1
                    break
                elif kind == _END:
                    continue
                else:
                    raise JavaSyntaxError(_UNTERMINATED[kind],
                                          *line_col(_newlines(text), start))
            add_kind(kind)
            add_value(value)
            add_start(start)
        else:
            return Tokens(kinds, values, starts, partner, comments,
                          _newlines(text))


def _newlines(text: str) -> list[int]:
    return [m.start() for m in _NEWLINE_RE.finditer(text)]
