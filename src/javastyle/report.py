"""Report assembly and deterministic emission (JSON, markdown, CSV).

All emitters produce byte-identical output for identical inputs: key
order is fixed, floats are formatted to four decimals, and every list
is sorted upstream.
"""

from __future__ import annotations

import io
import json
from collections.abc import Iterator
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, NamedTuple

from . import __version__
from .checkers import Category, Violation
from .scoring import AdherenceVerdict, CategoryScore, CorpusStats

if TYPE_CHECKING:
    from .claims import ClaimResult

TOOL_NAME = "javastyle"
MARKDOWN_VIOLATION_LIMIT = 50
# Violations per chunk of the JSON report, at about 240 bytes of text
# each. On a 100k-line tree (6,181 violations) writing the report with
# 1,000 per chunk raised the peak RSS by about 0.9 MB; with 256 it did
# not raise it.
VIOLATIONS_PER_CHUNK = 256


class Report(NamedTuple):
    repo_path: str
    config_digest: str
    counts: dict[Category, int]
    scores: list[CategoryScore]
    total_normalized: float
    verdict: AdherenceVerdict
    claim: ClaimResult | None
    violations: list[Violation]
    diagnostics: list[str]


def config_digest(threshold: float, ordering_id: int, lexicon_path: str | None,
                  excludes: tuple[str, ...] = ()) -> str:
    """Stable digest of the knobs that influence results."""
    blob = json.dumps({
        "threshold": round(threshold, 6),
        "ordering": ordering_id,
        "lexicon": lexicon_path or "bundled",
        "excludes": sorted(excludes),
    }, sort_keys=True)
    return _sha256()(blob.encode()).hexdigest()[:12]


def _sha256():
    """SHA-256 from the interpreter's built-in module, which is far smaller
    than the OpenSSL that `hashlib` maps; `hashlib` where it is missing."""
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        try:
            from _sha2 import sha256  # Python 3.12 and later
        except ImportError:
            from hashlib import sha256
    return sha256


def _f4(x: float) -> float:
    return round(x + 0.0, 4)


def _score_row(s: CategoryScore) -> dict:
    return {
        "category": s.category.value,
        "absolute": s.absolute,
        "denominator": s.denominator,
        "normalized": _f4(s.normalized),
        "undefined": s.undefined,
    }


def _summary_dict(report: Report) -> dict:
    """The JSON report as one dict, its violations left empty."""
    verdict = report.verdict
    return {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "repo": report.repo_path,
        "configDigest": report.config_digest,
        "counts": {c.value: report.counts.get(c, 0) for c in Category},
        "scores": [_score_row(s) for s in report.scores],
        "totalNormalized": _f4(report.total_normalized),
        "verdict": {
            "threshold": _f4(verdict.threshold),
            "perCategory": {c.value: verdict.per_category[c]
                            for c in verdict.per_category},
            "codeStyleAdherent": verdict.code_style_adherent,
            "practiceAdherent": verdict.practice_adherent,
        },
        "claim": None if report.claim is None else {
            "category": report.claim.category,
            "evidence": [
                {"file": e.file, "line": e.line, "matched": e.matched}
                for e in report.claim.evidence
            ],
        },
        "violations": [],
        "diagnostics": list(report.diagnostics),
        # Kept for schema stability; `evolve` writes its own document.
        "evolution": None,
    }


def report_to_dict(report: Report) -> dict:
    """The JSON report as one dict: the reference for its chunked text."""
    data = _summary_dict(report)
    data["violations"] = [{
        "category": v.category.value,
        "file": v.file_path,
        "line": v.line,
        "message": v.message,
        "detail": v.detail,
    } for v in report.violations]
    return data


# The text json.dumps(..., indent=2) gives one violation in the report.
_VIOLATION_JSON = ('    {{\n      "category": {},\n      "file": {},\n'
                   '      "line": {},\n      "message": {},\n'
                   '      "detail": {}\n    }}')
# Where the empty violations stand in the summary's text, once only:
# JSON strings escape their quotes, and only top-level keys are indented
# by two spaces.
_NO_VIOLATIONS = '\n  "violations": []'


def _json_chunks(report: Report) -> Iterator[bytes]:
    """The bytes of json.dumps(report_to_dict(report), indent=2) plus a
    newline, in chunks: the summary up to the violations, each batch of
    VIOLATIONS_PER_CHUNK violations, and the rest of the summary.

    Only one batch is held as text at a time. Its strings are escaped
    by the encoder json.dumps uses by default, so the bytes match.
    """
    summary = json.dumps(_summary_dict(report), indent=2)
    violations = report.violations
    if not violations:
        yield (summary + "\n").encode()
        return
    head, _, tail = summary.partition(_NO_VIOLATIONS)
    yield (head + '\n  "violations": [\n').encode()
    for start in range(0, len(violations), VIOLATIONS_PER_CHUNK):
        rows = ",\n".join([
            _VIOLATION_JSON.format(
                encode_basestring_ascii(v.category.value),
                encode_basestring_ascii(v.file_path), v.line,
                encode_basestring_ascii(v.message),
                "null" if v.detail is None
                else encode_basestring_ascii(v.detail))
            for v in violations[start:start + VIOLATIONS_PER_CHUNK]])
        yield ((",\n" if start else "") + rows).encode()
    yield ("\n  ]" + tail + "\n").encode()


def report_chunks(report: Report, format: str) -> Iterator[bytes]:
    """The report in `format` as byte chunks to write in order. Only the
    JSON report comes in more than one; the others are small."""
    if format == "json":
        return _json_chunks(report)
    if format == "markdown":
        # A path that is not UTF-8 holds surrogates, which the JSON
        # report writes as \udcXX escapes; the markdown spells them alike.
        text = _emit_markdown(report)
        return iter((text.encode(errors="backslashreplace"),))
    if format == "csv":
        return iter((_emit_csv(report).encode(),))
    raise ValueError(f"unknown report format: {format}")


def emit_report(report: Report, format: str) -> bytes:
    """The whole report in `format`, as `report_chunks` writes it."""
    return b"".join(report_chunks(report, format))


def _emit_markdown(report: Report) -> str:
    out = io.StringIO()
    w = out.write
    w(f"# Style report: {report.repo_path}\n\n")
    w(f"Tool {TOOL_NAME} {__version__}, "
      f"config `{report.config_digest}`.\n\n")
    w(f"Total normalized score: **{report.total_normalized:.4f}** "
      f"(threshold {report.verdict.threshold:.4f})\n\n")

    w("| Category | Violations | Constructs | Normalized | Adherent |\n")
    w("|---|---:|---:|---:|:---:|\n")
    for s in report.scores:
        adherent = report.verdict.per_category.get(s.category)
        mark = "-" if adherent is None else ("yes" if adherent else "no")
        w(f"| {s.category.value} | {s.absolute} | {s.denominator} "
          f"| {s.normalized:.4f} | {mark} |\n")
    w("\n")

    if report.claim is not None:
        w(f"Claimed adherence: **{report.claim.category}**")
        if report.claim.evidence:
            first = report.claim.evidence[0]
            w(f" (e.g. {first.file}:{first.line}, \"{first.matched}\")")
        w("\n\n")

    if report.violations:
        shown = report.violations[:MARKDOWN_VIOLATION_LIMIT]
        w(f"## Violations ({len(report.violations)} total"
          f"{', first ' + str(len(shown)) if len(shown) < len(report.violations) else ''})\n\n")
        for v in shown:
            detail = f" `{v.detail}`" if v.detail else ""
            w(f"- {v.category.value} at {v.file_path}:{v.line} "
              f"- {v.message}{detail}\n")
        w("\n")

    if report.diagnostics:
        w("## Diagnostics\n\n")
        for d in report.diagnostics:
            w(f"- {d}\n")
        w("\n")
    return out.getvalue()


def _emit_csv(report: Report) -> str:
    lines = ["category,absolute,denominator,normalized,adherent"]
    for s in report.scores:
        adherent = report.verdict.per_category.get(s.category)
        mark = "" if adherent is None else str(adherent).lower()
        lines.append(f"{s.category.value},{s.absolute},{s.denominator},"
                     f"{s.normalized:.4f},{mark}")
    return "\n".join(lines) + "\n"


def evolution_rows(samples) -> list[dict]:
    """History samples as JSON-ready dicts, chronological order kept."""
    rows = []
    for s in samples:
        rows.append({
            "month": s.month_label,
            "commit": None if s.commit is None else s.commit.id,
            "timestamp": (None if s.commit is None
                          else s.commit.timestamp.isoformat()),
            "scores": [_score_row(x) for x in s.scores],
            "totalNormalized": _f4(s.total_normalized),
            "failed": s.failed,
            "error": s.error,
        })
    return rows


def emit_corpus_csv(stats: dict[Category, CorpusStats],
                    table: dict[Category, list[tuple[float, float]]]) -> bytes:
    """Corpus statistics and threshold table as one CSV document."""
    lines = ["category,min,max,mean,median"]
    for cat in Category:
        s = stats[cat]
        lines.append(f"{cat.value},{s.minimum:.4f},{s.maximum:.4f},"
                     f"{s.mean:.4f},{s.median:.4f}")
    lines.append("")
    thresholds = [t for t, _ in next(iter(table.values()))]
    header = "category," + ",".join(f"{t:g}" for t in thresholds)
    lines.append(header)
    for cat in Category:
        row = table[cat]
        lines.append(cat.value + "," + ",".join(f"{pct:.2f}" for _, pct in row))
    return ("\n".join(lines) + "\n").encode()
