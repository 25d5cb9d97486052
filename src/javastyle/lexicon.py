"""Identifier tokenization and part-of-speech lookup.

Naming checks need two services: splitting a Java identifier into its
camel-case words, and classifying an English word as noun/verb/etc.
The word list ships with the package as a flat TAB-separated file so
the tool has no runtime dependency on a dictionary library.
"""

from __future__ import annotations

import os
import re
from functools import lru_cache

NOUN = "noun"
VERB = "verb"
ADJECTIVE = "adjective"
ADVERB = "adverb"
OTHER = "other"

CATEGORY_BY_LETTER = {
    "n": NOUN,
    "v": VERB,
    "a": ADJECTIVE,
    "r": ADVERB,
    "o": OTHER,
}

_CASING_RE = {
    "upperCamel": re.compile(r"^[A-Z][A-Za-z0-9]*$"),
    "lowerCamel": re.compile(r"^[a-z][A-Za-z0-9]*$"),
    "constant": re.compile(r"^[A-Z][A-Z0-9]*(_[A-Z0-9]+)*$"),
}

# Word boundaries: acronym run that stops before the last capital of a
# Capitalized word, a capitalized or lowercase word, a bare acronym,
# or a digit run.  Underscores and other symbols fall between matches.
_WORD_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|[0-9]+")

_ENTRY_RE = re.compile(r"^(\S+)\t([nvaro](?:,[nvaro])*)$")
# A text of such lines only, each ending at "\n" but perhaps the last.
_ENTRIES_RE = re.compile(
    r"(?:\S+\t[nvaro](?:,[nvaro])*\n)*(?:\S+\t[nvaro](?:,[nvaro])*)?")


class LexiconError(ValueError):
    """Raised when a lexicon file cannot be parsed.

    ``lines`` carries the 1-based numbers of every malformed line.
    """

    def __init__(self, path: str, lines: list[int]):
        self.path = path
        self.lines = lines
        listed = ", ".join(str(n) for n in lines)
        super().__init__(f"{path}: malformed lexicon line(s): {listed}")

    def __reduce__(self):
        # Rebuilt from (path, lines), so it survives a trip between
        # processes; the default would pass the message as `path`.
        return type(self), (self.path, self.lines)


class Lexicon:
    """Immutable word -> category-set table with case-insensitive lookup."""

    def __init__(self, entries: dict[str, frozenset[str]]):
        self._entries = entries  # keyed by lower-case word

    def categories(self, word: str) -> frozenset[str]:
        """Exact lookup; unknown words map to the empty set."""
        return self._entries.get(word.lower(), frozenset())

    def categories_with_fallback(self, word: str) -> frozenset[str]:
        """Lookup with a light inflection fallback.

        When the exact form is unknown, retries after stripping a
        plural/3rd-person ``s``, ``ing``, or ``ed`` ending, including
        the usual spelling adjustments (carries -> carry, saved ->
        save, mapped -> map).  First hit wins.
        """
        exact = self.categories(word)
        if exact:
            return exact
        for candidate in _suffix_candidates(word.lower()):
            cats = self._entries.get(candidate)
            if cats:
                return cats
        return frozenset()

    @classmethod
    def from_file(cls, path: str) -> "Lexicon":
        try:
            text = read_text(path)
        except UnicodeDecodeError as exc:
            raise LexiconError(path, [undecodable_line(exc)]) from None
        return cls._parse(text, path)

    @classmethod
    def bundled(cls) -> "Lexicon":
        return load(None)

    @classmethod
    def _parse(cls, text: str, path: str) -> "Lexicon":
        # The words with the same letters share one set.
        if _ENTRIES_RE.fullmatch(text):
            # Entry lines only, so the text splits at whitespace into
            # word, letters, word, letters and so on.
            fields = text.split()
            letters = fields[1::2]
            sets = {each: _category_set(each) for each in set(letters)}
            entries = dict(zip(map(str.lower, fields[::2]),
                               map(sets.__getitem__, letters)))
            if len(entries) == len(letters):
                return cls(entries)
        # A malformed line, or a word listed twice: line by line, each
        # ending at "\n" as decode_source leaves it.
        lines = text.split("\n")
        if not lines[-1]:
            lines.pop()
        matches = [_ENTRY_RE.match(line) for line in lines]
        bad = [n for n, m in enumerate(matches, start=1) if m is None]
        if bad:
            raise LexiconError(path, bad)
        sets = {}
        entries = {}
        for word, letters in (m.groups() for m in matches):
            cats = sets.get(letters)
            if cats is None:
                cats = sets[letters] = _category_set(letters)
            word = word.lower()
            seen = entries.get(word)
            entries[word] = cats if seen is None else seen | cats
        return cls(entries)


def decode_source(data: bytes) -> str:
    """Text from a file's bytes: strict UTF-8 without one leading byte
    order mark, and CR, LF and CRLF all end a line, as when reading in
    text mode, so that a line ends only at LF.

    Raises UnicodeDecodeError.
    """
    text = data.decode("utf-8")
    if text.startswith("\ufeff"):
        text = text[1:]
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def read_text(path: str) -> str:
    """The `decode_source` text of a file. Raises OSError, or
    UnicodeDecodeError for `undecodable_line`."""
    with open(path, "rb") as fh:
        return decode_source(fh.read())


def undecodable_line(exc: UnicodeDecodeError) -> int:
    """The 1-based line of `decode_source`'s text where its bytes stop
    being valid UTF-8."""
    head = exc.object[:exc.start]
    return head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1


def _category_set(letters: str) -> frozenset[str]:
    return frozenset(CATEGORY_BY_LETTER[c] for c in letters.split(","))


@lru_cache(maxsize=None)
def load(path: str | None) -> Lexicon:
    """The lexicon file at `path`, or the bundled one for None, parsed
    once per process per path, so that every month of a history and every
    repository of a corpus reuse it, and forked workers inherit it."""
    if path is None:
        # The package is installed as files, so the word list lies next
        # to this module; importlib.resources would bring pathlib,
        # zipfile and tempfile into every command that checks names.
        path = os.path.join(os.path.dirname(__file__), "data", "lexicon.txt")
    return Lexicon.from_file(path)


def _suffix_candidates(word: str):
    if word.endswith("ies") and len(word) > 3:
        yield word[:-3] + "y"
    if word.endswith("es") and len(word) > 2:
        yield word[:-2]
    if word.endswith("s") and not word.endswith("ss") and len(word) > 1:
        yield word[:-1]
    if word.endswith("ing") and len(word) > 4:
        stem = word[:-3]
        yield stem
        yield stem + "e"
        if len(stem) > 1 and stem[-1] == stem[-2]:
            yield stem[:-1]
    if word.endswith("ied") and len(word) > 3:
        yield word[:-3] + "y"
    if word.endswith("ed") and len(word) > 3:
        stem = word[:-2]
        yield word[:-1]
        yield stem
        if len(stem) > 1 and stem[-1] == stem[-2]:
            yield stem[:-1]


def split_identifier(name: str) -> list[str]:
    """Split a Java identifier into its lowercase constituent words.

    Boundaries fall at lower-to-upper transitions, digit runs and
    underscores; an all-caps run keeps together except for a trailing
    capital that starts the next word (HTTPServer -> http, server).
    """
    words = [w.lower() for w in _WORD_RE.findall(name)]
    return words or [name.lower()]


def matches_casing(name: str, convention: str) -> bool:
    """Test a name against one of the three casing conventions."""
    if convention not in _CASING_RE:
        raise ValueError(f"unknown casing convention: {convention}")
    return bool(_CASING_RE[convention].match(name))
