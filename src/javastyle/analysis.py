"""Whole-repository analysis pipeline.

Wires discovery, parsing, cross-file indexing, checking, and scoring
into one call usable from the CLI and from history replay. The sources
come from a directory on disk or from a snapshot such as a git tree;
both are decoded alike. Files that fail to decode or parse are skipped
with a diagnostic; analysis continues over the rest.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple, Protocol

from .checkers import (ORDERING_CONFIGS, Category, CheckContext, CheckOutcome,
                       Violation, check_file, check_project, merge_outcomes)
from .discovery import discover_sources
from .lexer import JavaSyntaxError
from .lexicon import Lexicon
from .model import SourceFileModel
from .parser import parse_compilation_unit
from .project_index import ProjectIndex, build_project_index
from .scoring import (DEFAULT_ADHERENCE_THRESHOLD, AdherenceVerdict,
                      CategoryScore, classify_adherence, normalize,
                      total_normalized)

DEFAULT_ORDERING_ID = 2


@dataclass(frozen=True)
class AnalysisConfig:
    threshold: float = DEFAULT_ADHERENCE_THRESHOLD
    ordering_id: int = DEFAULT_ORDERING_ID
    lexicon_path: str | None = None
    excludes: tuple[str, ...] = ()


@dataclass
class AnalysisResult:
    models: list[SourceFileModel]
    index: ProjectIndex
    violations: list[Violation]
    counts: dict[Category, int]
    scores: list[CategoryScore]
    total_normalized: float
    verdict: AdherenceVerdict
    diagnostics: list[str] = field(default_factory=list)


def load_lexicon(config: AnalysisConfig) -> Lexicon:
    if config.lexicon_path:
        return Lexicon.from_file(config.lexicon_path)
    return Lexicon.bundled()


def _excluded(rel_path: str, excludes: tuple[str, ...]) -> bool:
    for prefix in excludes:
        clean = prefix.rstrip("/")
        if rel_path == clean or rel_path.startswith(clean + "/"):
            return True
    return False


class Snapshot(Protocol):
    """A tree of sources that is not a directory on disk, such as the tree
    of one git commit."""

    def sources(self) -> list[tuple[str, str]]:
        """(path, blob id) of each file to analyze, as discovery selects
        them, in order. Equal blob ids mean equal bytes."""

    def read(self, rel: str, blob: str) -> bytes:
        """The bytes of the file at `rel` whose blob id is `blob`."""


class FileResult(NamedTuple):
    """One file's parse and file-scope checks: its model and outcome, or
    the diagnostic it was skipped with and no outcome."""

    parsed: SourceFileModel | str
    outcome: CheckOutcome | None = None


def decode_source(data: bytes) -> str:
    """Source text from a file's bytes: strict UTF-8, and CR, LF and CRLF
    all end a line, as when reading in text mode.

    Raises UnicodeDecodeError.
    """
    text = data.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _read_file(root: str, rel: str, blob: None) -> bytes:
    with open(os.path.join(root, *rel.split("/")), "rb") as fh:
        return fh.read()


def _analyze_file(rel: str, data: bytes, ctx: CheckContext) -> FileResult:
    """Decode, parse and run the file-scope checks on one file."""
    try:
        model = parse_compilation_unit(decode_source(data), rel)
    except UnicodeDecodeError as exc:
        return FileResult(f"skipped {rel}: not valid UTF-8 ({exc.reason})")
    except JavaSyntaxError as exc:
        # The message, not the exception: its traceback holds the parser
        # and its whole token list.
        return FileResult(f"skipped {rel}: {exc}")
    return FileResult(model, check_file(model, ctx))


def analyze_repository(source: str | Snapshot,
                       config: AnalysisConfig | None = None, *,
                       reuse: dict | None = None) -> AnalysisResult:
    """Analyze the Java sources of a directory, or of a snapshot.

    `reuse` maps (rel, blob id) to the FileResult of that file, so a
    caller analyzing snapshots of one tree reads, parses and file-checks
    each unchanged file once; each snapshot then reruns only the index
    and the project-scope checks. It is replaced by the entries this call
    used, so it holds one snapshot at a time. Files on disk have no blob
    id and are never reused.
    """
    config = config or AnalysisConfig()
    if config.ordering_id not in ORDERING_CONFIGS:
        raise ValueError(f"unknown ordering config: {config.ordering_id}")
    lexicon = load_lexicon(config)
    ordering = ORDERING_CONFIGS[config.ordering_id]
    file_ctx = CheckContext(None, lexicon, ordering)

    if isinstance(source, str):
        files = [(rel, None) for rel in discover_sources(source)]
        read = partial(_read_file, source)
    else:
        files, read = source.sources(), source.read

    diagnostics: list[str] = []
    models: list[SourceFileModel] = []
    outcomes: list[CheckOutcome] = []
    used: dict[tuple[str, str], FileResult] = {}
    for rel, blob in files:
        if _excluded(rel, config.excludes):
            continue
        result = reuse.get((rel, blob)) if reuse and blob else None
        if result is None:
            try:
                data = read(rel, blob)
            except OSError as exc:
                diagnostics.append(f"skipped {rel}: {exc.strerror or exc}")
                continue
            result = _analyze_file(rel, data, file_ctx)
        if reuse is not None and blob:
            used[rel, blob] = result
        if result.outcome is None:
            diagnostics.append(result.parsed)
        else:
            models.append(result.parsed)
            outcomes.append(result.outcome)
    if reuse is not None:
        reuse.clear()
        reuse.update(used)

    index = build_project_index(models)
    diagnostics.extend(index.diagnostics)
    # The project checks' violations go last. Violation.sort_key holds the
    # category and the path, so its ties lie within one check of one file
    # and the sorted order is the same as checking file by file.
    outcomes.append(check_project(models, CheckContext(index, lexicon,
                                                       ordering)))
    violations, counts = merge_outcomes(outcomes)
    scores = normalize(violations, counts)
    total = total_normalized(scores)
    verdict = classify_adherence(scores, config.threshold)
    return AnalysisResult(models, index, violations, counts, scores,
                          total, verdict, diagnostics)
