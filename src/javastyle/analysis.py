"""Whole-repository analysis pipeline.

Wires discovery, parsing, cross-file indexing, checking, and scoring
into one call usable from the CLI and from history replay. The sources
come from a snapshot, a directory on disk or a git tree, through one
loop that reuses unchanged files' results and maps the rest over the
calling process and forked workers. Files that fail to read, decode or
parse are skipped with a diagnostic; analysis continues over the rest.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from functools import partial
from typing import NamedTuple, Protocol

from .checkers import (ORDERING_CONFIGS, Category, CheckContext, CheckOutcome,
                       Violation, check_file, check_record)
from .discovery import discover_sources
from .lexer import JavaSyntaxError
from .lexicon import Lexicon, decode_source, load
from .parser import parse_compilation_unit
from .project_index import FileRecord, build_project_index, file_record
from .scoring import (DEFAULT_ADHERENCE_THRESHOLD, AdherenceVerdict,
                      CategoryScore, classify_adherence, normalize,
                      total_normalized)

DEFAULT_ORDERING_ID = 2

# Workers are started only when each process, the calling one included,
# gets at least this many files. On 2 CPUs under other tenants' load
# (Python 3.11), trees of 32 and 64 files of about 240 lines took 18 and
# 21 ms longer with 2 processes than with 1 (medians of 30 alternating CLI
# runs; 22 and 33 ms with 2 workers beside an idle caller), while in a
# quieter window 64 files took 32 ms shorter. The break-even moves with
# the load, and 32 files a process lies between the two measured.
MIN_FILES_PER_WORKER = 32
# Files per chunk that a process takes from the queue.
FILES_PER_CHUNK = 8


class AnalysisConfig(NamedTuple):
    threshold: float = DEFAULT_ADHERENCE_THRESHOLD
    ordering_id: int = DEFAULT_ORDERING_ID
    lexicon_path: str | None = None
    excludes: tuple[str, ...] = ()


class AnalysisResult(NamedTuple):
    paths: list[str]  # of the analyzed files, in discovery order
    violations: list[Violation]
    counts: dict[Category, int]
    scores: list[CategoryScore]
    total_normalized: float
    verdict: AdherenceVerdict
    diagnostics: list[str]


def load_lexicon(config: AnalysisConfig) -> Lexicon:
    """The configured lexicon, or the bundled one (see `lexicon.load`)."""
    return load(config.lexicon_path or None)


class Snapshot(Protocol):
    """A tree of sources, such as a directory on disk or the tree of one
    git commit."""

    def sources(self, excludes: tuple[str, ...]
                ) -> list[tuple[str, str | None]]:
        """(path, blob id) of each file to analyze, as discovery selects
        them with `excludes`, in order. Equal blob ids mean equal bytes; a
        file without one has None."""

    def read(self, rel: str, blob: str | None) -> bytes:
        """The bytes of the file at `rel` whose blob id is `blob`."""


class DirectorySnapshot:
    """The sources of a directory on disk. A file on disk has no blob id."""

    def __init__(self, root: str) -> None:
        self.root = root

    def sources(self, excludes: tuple[str, ...]) -> list[tuple[str, None]]:
        return [(rel, None) for rel in discover_sources(self.root, excludes)]

    def read(self, rel: str, blob: None) -> bytes:
        with open(os.path.join(self.root, *rel.split("/")), "rb") as fh:
            return fh.read()


class FileResult(NamedTuple):
    """One file's parse and file-scope checks: its record and outcome, or
    the diagnostic it was skipped with and no outcome."""

    record: FileRecord | str
    outcome: CheckOutcome | None = None


def _analyze_source(source: Snapshot, ctx: CheckContext,
                    file: tuple[str, str | None]) -> FileResult:
    """Read, decode, parse and run the file-scope checks on one file. Only
    its record leaves: the model is dropped here."""
    rel, blob = file
    try:
        model = parse_compilation_unit(
            decode_source(source.read(rel, blob)), rel)
    except OSError as exc:
        return FileResult(f"skipped {rel}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        return FileResult(f"skipped {rel}: not valid UTF-8 ({exc.reason})")
    except JavaSyntaxError as exc:
        # The message, not the exception: its traceback holds the parser
        # and its whole token list.
        return FileResult(f"skipped {rel}: {exc}")
    return FileResult(file_record(model), check_file(model, ctx))


def _file_results(source: Snapshot, excludes: tuple[str, ...],
                  ctx: CheckContext, reuse: dict | None,
                  jobs: int) -> Iterator[FileResult]:
    """Each selected file's result, in source order: from `reuse` where it
    holds the file, else analyzed."""
    files = source.sources(excludes)
    known = reuse or {}
    misses = [file for file in files if file not in known]
    analyze = partial(_analyze_source, source, ctx)
    processes = min(jobs, len(misses) // MIN_FILES_PER_WORKER)
    if processes > 1:
        # Imported here: only a run that starts workers compiles them.
        from .workers import map_in_processes
        fresh = map_in_processes(analyze, misses, processes,
                                 chunksize=FILES_PER_CHUNK)
    else:
        fresh = map(analyze, misses)  # lazily: one model at a time
    used: dict[tuple[str, str], FileResult] = {}
    for file in files:
        result = known[file] if file in known else next(fresh)
        if file[1] is not None:
            used[file] = result
        yield result
    next(fresh, None)  # runs the map to its end, which reaps the workers
    if reuse is not None:
        reuse.clear()
        reuse.update(used)


def analyze_repository(source: str | Snapshot,
                       config: AnalysisConfig | None = None, *,
                       reuse: dict | None = None,
                       jobs: int = 1) -> AnalysisResult:
    """Analyze the Java sources of a directory, or of a snapshot.

    Each file is parsed, checked on its own and reduced to its record
    (`project_index.file_record`) before the next; the index and the
    project-scope checks then run over the records, so no parsed model
    outlives its file.

    `reuse` maps (rel, blob id) to the FileResult of that file, so a
    caller analyzing snapshots of one tree reads, parses and file-checks
    each unchanged file once; each snapshot then reruns only the index
    and the project-scope checks. It is replaced by the entries this call
    used, so it holds one snapshot at a time. Files on disk have no blob
    id and are never reused.

    `jobs` > 1 analyzes the files that `reuse` does not hold in up to
    that many processes, this one and forked workers, each given at least
    MIN_FILES_PER_WORKER files; fewer stay in this process alone. The
    workers call `source.read`, so a source whose reads must stay in this
    process is analyzed with `jobs` 1. The result is the same for every
    `jobs`.
    """
    config = config or AnalysisConfig()
    if config.ordering_id not in ORDERING_CONFIGS:
        raise ValueError(f"unknown ordering config: {config.ordering_id}")
    lexicon = load_lexicon(config)
    ordering = ORDERING_CONFIGS[config.ordering_id]
    if isinstance(source, str):
        source = DirectorySnapshot(source)
    results = _file_results(source, config.excludes,
                            CheckContext(None, lexicon, ordering), reuse, jobs)

    # Each file's outcome is folded in as it arrives, and its project
    # outcome once the index is built. Violation.sort_key holds the
    # category and the path, so its ties lie within one check of one file
    # and the sorted order is the same as checking file by file.
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
    ctx = CheckContext(index, lexicon, ordering)
    for record in records:
        fold(*check_record(record, ctx))
    violations.sort(key=Violation.sort_key)
    scores = normalize(violations, counts)
    total = total_normalized(scores)
    verdict = classify_adherence(scores, config.threshold)
    return AnalysisResult([r.path for r in records], violations, counts,
                          scores, total, verdict, diagnostics)
