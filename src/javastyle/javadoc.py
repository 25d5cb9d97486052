"""Javadoc comment analysis.

Turns a raw ``/** ... */`` comment into word counts and block-tag facts.
Word counts cover prose only: tag keywords and the argument name of
``@param``/``@throws`` are excluded, while ``{@code x}`` style inline tags
contribute their payload.
"""

from __future__ import annotations

import re

from .model import JavadocFact, TagFact

# Tags whose first word is an argument name, not description prose.
_ARG_TAGS = frozenset({"param", "throws", "exception"})

_INLINE_TAG = re.compile(r"\{@\w+\s*([^{}]*)\}", re.DOTALL)
# The text of each line ("\n" ends one), after its blanks and any run of
# `*` with one blank after it.
_LINE_TEXT = re.compile(r"^[^\S\n]*(?:\*+ ?)?(.*)", re.MULTILINE)


def _strip_markers(raw: str) -> list[str]:
    body = raw.strip()
    if body.startswith("/**"):
        body = body[3:]
    if body.endswith("*/"):
        body = body[:-2]
    return _LINE_TEXT.findall(body)


def extract_javadoc(raw: str, line: int) -> JavadocFact:
    """Build a JavadocFact from the raw comment text.

    ``line`` is the line of the opening ``/**``.
    """
    lines = _strip_markers(raw)
    # Inline tags keep their payload; the tag keyword goes away. Stripping
    # the markers makes no "{@", so the raw text tells whether any is left.
    if "{@" in raw:
        lines = _INLINE_TAG.sub(r"\1", "\n".join(lines)).split("\n")

    main_lines: list[str] = []
    tag_chunks: list[list[str]] = []
    current: list[str] | None = None
    for ln in lines:
        if ln.lstrip().startswith("@"):
            current = [ln.lstrip()]
            tag_chunks.append(current)
        elif current is not None:
            current.append(ln)
        else:
            main_lines.append(ln)

    word_count = len(" ".join(main_lines).split())
    tags: list[TagFact] = []
    for chunk in tag_chunks:
        words = " ".join(chunk).split()
        name = words[0].lstrip("@")
        rest = words[1:]
        arg: str | None = None
        if name in _ARG_TAGS and rest:
            arg = rest[0]
            rest = rest[1:]
        tags.append(TagFact(name, arg, len(rest)))
        word_count += len(rest)

    return JavadocFact(line, word_count, tags)
