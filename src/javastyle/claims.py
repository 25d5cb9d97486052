"""Claimed-adherence scanning of repository documentation.

Classifies what a repository says about its own style: an explicit
reference to the Google Java guide, a generic mention of code style or
standards, or nothing. Scanning covers markdown files at the repository
root plus checkstyle/PMD/ruleset configs there; an opt-in flag extends
the markdown scan into docs/.
"""

from __future__ import annotations

import os
import re
from typing import NamedTuple

NO_MENTION = "NoMention"
MENTION_CODE_STYLE = "MentionCodeStyle"
GOOGLE_EXPLICIT = "GoogleExplicit"

# Pattern sets are applied case-insensitively, line by line.
GOOGLE_PATTERNS = (
    r"google java style",
    r"google\.github\.io/styleguide/javaguide",
)
GENERAL_PATTERNS = (
    r"code[- ]style",
    r"coding standards?",
    r"style guide",
)

_CONFIG_NAME = re.compile(r"^(checkstyle|pmd|ruleset).*\.xml$", re.IGNORECASE)

_GOOGLE_RES = [re.compile(p, re.IGNORECASE) for p in GOOGLE_PATTERNS]
_GENERAL_RES = [re.compile(p, re.IGNORECASE) for p in GENERAL_PATTERNS]
_GOOGLE_WORD = [re.compile("google", re.IGNORECASE)]


class ClaimEvidence(NamedTuple):
    file: str
    line: int
    matched: str


class ClaimResult(NamedTuple):
    category: str
    evidence: list[ClaimEvidence]


def _read(path: str) -> str | None:
    """A file's text as text mode reads it, so a line ends only at LF, with
    each undecodable byte as U+FFFD; None when it cannot be read."""
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return fh.read()
    except OSError:
        return None


def _scan_text(path_label: str, text: str, patterns) -> list[ClaimEvidence]:
    found = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        for rx in patterns:
            m = rx.search(line)
            if m:
                found.append(ClaimEvidence(path_label, lineno, m.group(0)))
    return found


def _markdown_files(repo_root: str, deep: bool) -> list[str]:
    rel_paths = []
    for name in sorted(os.listdir(repo_root)):
        if name.lower().endswith(".md") and os.path.isfile(
                os.path.join(repo_root, name)):
            rel_paths.append(name)
    if deep:
        docs = os.path.join(repo_root, "docs")
        if os.path.isdir(docs):
            for dirpath, dirnames, filenames in os.walk(docs):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.lower().endswith(".md"):
                        full = os.path.join(dirpath, name)
                        rel_paths.append(
                            os.path.relpath(full, repo_root).replace(os.sep, "/"))
    return rel_paths


def scan_claims(repo_root: str, deep: bool = False) -> ClaimResult:
    """Classify a repository's documented style claims."""
    google: list[ClaimEvidence] = []
    general: list[ClaimEvidence] = []

    for rel in _markdown_files(repo_root, deep):
        text = _read(os.path.join(repo_root, rel))
        if text is None:
            continue
        google.extend(_scan_text(rel, text, _GOOGLE_RES))
        general.extend(_scan_text(rel, text, _GENERAL_RES))

    for name in sorted(os.listdir(repo_root)):
        if not _CONFIG_NAME.match(name):
            continue
        full = os.path.join(repo_root, name)
        text = _read(full) if os.path.isfile(full) else None
        if text is None:
            continue
        hits = _scan_text(name, text, _GOOGLE_WORD)
        if hits:
            google.append(hits[0])
        else:
            general.append(ClaimEvidence(name, 1, name))

    if google:
        return ClaimResult(GOOGLE_EXPLICIT, google)
    if general:
        return ClaimResult(MENTION_CODE_STYLE, general)
    return ClaimResult(NO_MENTION, [])
