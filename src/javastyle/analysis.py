"""Whole-repository analysis pipeline.

Wires discovery, parsing, cross-file indexing, checking, and scoring
into one call usable from the CLI and from history replay. The sources
come from a directory on disk or from a snapshot such as a git tree;
both are decoded alike. Files that fail to decode or parse are skipped
with a diagnostic; analysis continues over the rest.
"""

from __future__ import annotations

import os
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import NamedTuple, Protocol

from .checkers import (ORDERING_CONFIGS, Category, CheckContext, CheckOutcome,
                       Violation, check_file, check_project)
from .discovery import discover_sources
from .lexer import JavaSyntaxError
from .lexicon import Lexicon
from .parser import parse_compilation_unit
from .project_index import (FileRecord, ProjectIndex, build_project_index,
                            file_record)
from .scoring import (DEFAULT_ADHERENCE_THRESHOLD, AdherenceVerdict,
                      CategoryScore, classify_adherence, normalize,
                      total_normalized)

DEFAULT_ORDERING_ID = 2

# Workers are started only when each gets at least this many files. On 2
# CPUs (Python 3.11), trees of 32 and 64 files of about 210 lines took 3 ms
# longer and 14 ms shorter with 2 workers than without (medians of 30
# alternating CLI runs), so 2 workers break even at about 16 files each.
MIN_FILES_PER_WORKER = 32
# Files per chunk handed to a worker.
FILES_PER_CHUNK = 8


@dataclass(frozen=True)
class AnalysisConfig:
    threshold: float = DEFAULT_ADHERENCE_THRESHOLD
    ordering_id: int = DEFAULT_ORDERING_ID
    lexicon_path: str | None = None
    excludes: tuple[str, ...] = ()


@dataclass
class AnalysisResult:
    paths: list[str]  # of the analyzed files, in discovery order
    index: ProjectIndex
    violations: list[Violation]
    counts: dict[Category, int]
    scores: list[CategoryScore]
    total_normalized: float
    verdict: AdherenceVerdict
    diagnostics: list[str] = field(default_factory=list)


def load_lexicon(config: AnalysisConfig) -> Lexicon:
    """The configured lexicon, parsed once per process for each path, as
    the bundled one is, so that every month of a history and every
    repository of a corpus reuse it, and forked workers inherit it."""
    if config.lexicon_path:
        return _lexicon_file(config.lexicon_path)
    return Lexicon.bundled()


_lexicon_file = lru_cache(maxsize=1)(Lexicon.from_file)


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
    """One file's parse and file-scope checks: its record and outcome, or
    the diagnostic it was skipped with and no outcome."""

    record: FileRecord | str
    outcome: CheckOutcome | None = None


def decode_source(data: bytes) -> str:
    """Source text from a file's bytes: strict UTF-8 without one leading
    byte order mark, and CR, LF and CRLF all end a line, as when reading
    in text mode.

    Raises UnicodeDecodeError.
    """
    text = data.decode("utf-8")
    if text.startswith("\ufeff"):
        text = text[1:]
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _analyze_file(rel: str, data: bytes, ctx: CheckContext) -> FileResult:
    """Decode, parse and run the file-scope checks on one file. Only its
    record leaves: the model is dropped here."""
    try:
        model = parse_compilation_unit(decode_source(data), rel)
    except UnicodeDecodeError as exc:
        return FileResult(f"skipped {rel}: not valid UTF-8 ({exc.reason})")
    except JavaSyntaxError as exc:
        # The message, not the exception: its traceback holds the parser
        # and its whole token list.
        return FileResult(f"skipped {rel}: {exc}")
    return FileResult(file_record(model), check_file(model, ctx))


def _analyze_path(root: str, ctx: CheckContext, rel: str) -> FileResult:
    try:
        with open(os.path.join(root, *rel.split("/")), "rb") as fh:
            data = fh.read()
    except OSError as exc:
        return FileResult(f"skipped {rel}: {exc.strerror or exc}")
    return _analyze_file(rel, data, ctx)


def _directory_results(root: str, excludes: tuple[str, ...],
                       ctx: CheckContext, jobs: int) -> Iterable[FileResult]:
    rels = [rel for rel in discover_sources(root)
            if not _excluded(rel, excludes)]
    workers = min(jobs, len(rels) // MIN_FILES_PER_WORKER)
    if workers > 1:
        # In discovery order whatever the chunking, like the serial path.
        # Imported here: only a run that starts workers compiles them.
        from .workers import map_in_processes
        return map_in_processes(partial(_analyze_path, root, ctx), rels,
                                workers, chunksize=FILES_PER_CHUNK)
    # Lazily, so that one model at a time is alive.
    return (_analyze_path(root, ctx, rel) for rel in rels)


def _snapshot_results(snapshot: Snapshot, excludes: tuple[str, ...],
                      ctx: CheckContext,
                      reuse: dict | None) -> list[FileResult]:
    results: list[FileResult] = []
    used: dict[tuple[str, str], FileResult] = {}
    for rel, blob in snapshot.sources():
        if _excluded(rel, excludes):
            continue
        result = reuse.get((rel, blob)) if reuse else None
        if result is None:
            try:
                data = snapshot.read(rel, blob)
            except OSError as exc:
                results.append(FileResult(
                    f"skipped {rel}: {exc.strerror or exc}"))
                continue
            result = _analyze_file(rel, data, ctx)
        used[rel, blob] = result
        results.append(result)
    if reuse is not None:
        reuse.clear()
        reuse.update(used)
    return results


def analyze_repository(source: str | Snapshot,
                       config: AnalysisConfig | None = None, *,
                       reuse: dict | None = None,
                       jobs: int = 1) -> AnalysisResult:
    """Analyze the Java sources of a directory, or of a snapshot.

    Each file is parsed, checked on its own and reduced to its record
    (`project_index.file_record`) before the next; the index and the
    project-scope checks then run over the records, so no parsed model
    outlives its file.

    `jobs` > 1 analyzes the files of a directory on up to that many
    worker processes, each given at least MIN_FILES_PER_WORKER files;
    fewer files stay in this process. The result is the same for every
    `jobs`. Snapshots are always analyzed in this process.

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
        if reuse is not None:
            reuse.clear()
        results = _directory_results(source, config.excludes, file_ctx, jobs)
    else:
        results = _snapshot_results(source, config.excludes, file_ctx, reuse)

    # Each file's outcome is folded in as it arrives; the project checks'
    # violations go last. Violation.sort_key holds the category and the
    # path, so its ties lie within one check of one file and the sorted
    # order is the same as checking file by file.
    diagnostics: list[str] = []
    records: list[FileRecord] = []
    violations: list[Violation] = []
    counts = {category: 0 for category in Category}

    def fold(found: list[Violation], inspected: dict[Category, int]) -> None:
        violations.extend(found)
        for category, n in inspected.items():
            counts[category] += n

    for record, outcome in results:
        if outcome is None:
            diagnostics.append(record)
        else:
            records.append(record)
            fold(*outcome)

    index = build_project_index(records)
    diagnostics.extend(index.diagnostics)
    fold(*check_project(records, CheckContext(index, lexicon, ordering)))
    violations.sort(key=Violation.sort_key)
    scores = normalize(violations, counts)
    total = total_normalized(scores)
    verdict = classify_adherence(scores, config.threshold)
    return AnalysisResult([r.path for r in records], index, violations,
                          counts, scores, total, verdict, diagnostics)
