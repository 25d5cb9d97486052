"""Whole-repository analysis pipeline.

Wires discovery, parsing, cross-file indexing, checking, and scoring
into one call usable from the CLI and from history replay. Files that
fail to decode or parse are skipped with a diagnostic; analysis
continues over the rest.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .checkers import (ORDERING_CONFIGS, Category, CheckContext, Violation,
                       run_checks)
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


def analyze_repository(root: str, config: AnalysisConfig | None = None, *,
                       reuse: dict | None = None) -> AnalysisResult:
    """Analyze the Java sources under `root`.

    `reuse` maps (rel, text) to the model parsed from that text, or to the
    diagnostic of its syntax error, so a caller analyzing snapshots of one
    tree parses each unchanged file once. It is replaced by the entries
    this call used, so it holds one snapshot at a time.
    """
    config = config or AnalysisConfig()
    if config.ordering_id not in ORDERING_CONFIGS:
        raise ValueError(f"unknown ordering config: {config.ordering_id}")
    lexicon = load_lexicon(config)
    ordering = ORDERING_CONFIGS[config.ordering_id]

    diagnostics: list[str] = []
    models: list[SourceFileModel] = []
    used: dict[tuple[str, str], SourceFileModel | str] = {}
    for rel in discover_sources(root):
        if _excluded(rel, config.excludes):
            continue
        full = os.path.join(root, *rel.split("/"))
        try:
            with open(full, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            diagnostics.append(f"skipped {rel}: not valid UTF-8 ({exc.reason})")
            continue
        except OSError as exc:
            diagnostics.append(f"skipped {rel}: {exc.strerror or exc}")
            continue
        parsed = reuse.get((rel, text)) if reuse else None
        if parsed is None:
            try:
                parsed = parse_compilation_unit(text, rel)
            except JavaSyntaxError as exc:
                # The message, not the exception: its traceback holds the
                # parser and its whole token list.
                parsed = f"skipped {rel}: {exc}"
        if reuse is not None:
            used[rel, text] = parsed
        if isinstance(parsed, str):
            diagnostics.append(parsed)
        else:
            models.append(parsed)
    if reuse is not None:
        reuse.clear()
        reuse.update(used)

    index = build_project_index(models)
    diagnostics.extend(index.diagnostics)
    violations, counts = run_checks(
        models, CheckContext(index, lexicon, ordering))
    scores = normalize(violations, counts)
    total = total_normalized(scores)
    verdict = classify_adherence(scores, config.threshold)
    return AnalysisResult(models, index, violations, counts, scores,
                          total, verdict, diagnostics)
