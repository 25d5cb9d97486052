"""Report emission: fixed key order, four-decimal floats, byte identity."""

import datetime
import hashlib
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from javastyle import __version__
from javastyle.checkers import Category, Violation
from javastyle.claims import ClaimEvidence, ClaimResult, MENTION_CODE_STYLE
from javastyle.history import CommitRecord, EvolutionSample
from javastyle.report import (VIOLATIONS_PER_CHUNK, Report, config_digest,
                              emit_corpus_csv, emit_report, evolution_rows,
                              report_chunks, report_to_dict)
from javastyle.scoring import (CorpusStats, classify_adherence, normalize,
                               threshold_table, total_normalized)


def build_report(violations=(), claim=None, diagnostics=(),
                 repo_path="/repos/demo"):
    violations = list(violations)
    counts = {cat: 3 for cat in Category}
    scores = normalize(violations, counts)
    return Report(
        repo_path=repo_path,
        config_digest=config_digest(0.05, 2, None),
        counts=counts,
        scores=scores,
        total_normalized=total_normalized(scores),
        verdict=classify_adherence(scores),
        claim=claim,
        violations=violations,
        diagnostics=list(diagnostics),
    )


ONE_VIOLATION = Violation(
    Category.EMPTY_CATCH_BLOCK, "src/A.java", 12, "empty catch block", "e")


def test_emit_is_byte_deterministic():
    for fmt in ("json", "markdown", "csv"):
        a = emit_report(build_report([ONE_VIOLATION]), fmt)
        b = emit_report(build_report([ONE_VIOLATION]), fmt)
        assert a == b and isinstance(a, bytes)


def test_json_top_level_key_order():
    data = json.loads(emit_report(build_report(), "json"))
    assert list(data) == ["tool", "repo", "configDigest", "counts", "scores",
                          "totalNormalized", "verdict", "claim", "violations",
                          "diagnostics", "evolution"]
    assert data["tool"] == {"name": "javastyle", "version": __version__}
    assert data["evolution"] is None
    assert data["repo"] == "/repos/demo"


def test_json_counts_cover_all_seventeen_categories():
    data = json.loads(emit_report(build_report(), "json"))
    assert len(data["counts"]) == 17
    assert "Ordering" in data["counts"]


def test_json_violation_anchor():
    data = json.loads(emit_report(build_report([ONE_VIOLATION]), "json"))
    rows = data["violations"]
    assert rows == [{
        "category": "EmptyCatchBlock",
        "file": "src/A.java",
        "line": 12,
        "message": "empty catch block",
        "detail": "e",
    }]


# Text json.dumps must escape: quotes, backslashes, control characters,
# lone surrogates, and non-ASCII up to the astral planes.
TRICKY = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from(['"', "\\", "/", "\x00", "\x1f", "\x7f", "\u2028", "é",
                     "\U0001f600", chr(0xD800), chr(0xDFFF)])),
    max_size=12)
VIOLATION = st.builds(Violation, st.sampled_from(list(Category)), TRICKY,
                      st.integers(0, 10**9), TRICKY,
                      st.one_of(st.none(), st.just(""), TRICKY))


@settings(max_examples=80, deadline=None)
@given(st.lists(VIOLATION, min_size=1, max_size=5),
       st.sampled_from([0, 1, 2, VIOLATIONS_PER_CHUNK - 1, VIOLATIONS_PER_CHUNK,
                        VIOLATIONS_PER_CHUNK + 1, 2 * VIOLATIONS_PER_CHUNK + 1]),
       TRICKY, st.lists(TRICKY, max_size=2),
       st.one_of(st.none(), st.builds(
           lambda text: ClaimResult(MENTION_CODE_STYLE,
                                    [ClaimEvidence(text, 1, text)]), TRICKY)))
def test_json_chunks_equal_one_json_dumps(pool, n, repo, diagnostics, claim):
    violations = [pool[i % len(pool)] for i in range(n)]
    report = build_report(violations, claim=claim, diagnostics=diagnostics,
                          repo_path=repo)
    chunks = list(report_chunks(report, "json"))
    expected = json.dumps(report_to_dict(report), indent=2) + "\n"
    assert b"".join(chunks) == expected.encode()
    assert emit_report(report, "json") == expected.encode()
    # The summary, each batch of violations, and the end.
    assert len(chunks) == (1 if n == 0 else 2 + -(-n // VIOLATIONS_PER_CHUNK))


def test_json_report_is_written_without_holding_its_text():
    violations = [Violation(Category.USELESS, f"src/p/File{i % 97}.java", i,
                            "unused private method", f"helper{i}")
                  for i in range(20_000)]
    report = build_report(violations)
    length = len(emit_report(report, "json"))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        for _ in report_chunks(report, "json"):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert length > 3_000_000
    # One batch of text at a time: about 0.2 MB here.
    assert peak < length / 10


def test_json_four_decimal_scores():
    violations = [Violation(Category.USELESS, "A.java", 1, "m", "")]
    report = build_report(violations)
    data = json.loads(emit_report(report, "json"))
    useless = next(r for r in data["scores"] if r["category"] == "Useless")
    assert useless["normalized"] == 0.3333
    assert data["totalNormalized"] == round(1 / 3 / 16, 4)


def test_markdown_mentions_anchor_and_verdict():
    text = emit_report(build_report([ONE_VIOLATION]), "markdown").decode()
    assert "src/A.java:12" in text
    assert "| EmptyCatchBlock | 1 | 3 | 0.3333 | no |" in text
    assert "Total normalized score" in text


def test_markdown_ordering_row_not_marked():
    text = emit_report(build_report(), "markdown").decode()
    assert "| Ordering | 0 | 3 | 0.0000 | - |" in text


def test_markdown_caps_violation_listing():
    many = [Violation(Category.USELESS, "A.java", i + 1, "m", "")
            for i in range(60)]
    text = emit_report(build_report(many), "markdown").decode()
    assert "(60 total, first 50)" in text
    assert text.count("- Useless at") == 50


def test_markdown_claim_line():
    claim = ClaimResult(MENTION_CODE_STYLE,
                        [ClaimEvidence("README.md", 4, "code style")])
    text = emit_report(build_report(claim=claim), "markdown").decode()
    assert "Claimed adherence: **MentionCodeStyle**" in text
    assert "README.md:4" in text


def test_markdown_lists_diagnostics_last():
    diagnostics = ["skipped a/B.java: not valid UTF-8",
                   "hierarchy cycle dropped: p.A -> p.B"]
    text = emit_report(build_report(diagnostics=diagnostics),
                       "markdown").decode()
    assert text.endswith("## Diagnostics\n\n"
                         "- skipped a/B.java: not valid UTF-8\n"
                         "- hierarchy cycle dropped: p.A -> p.B\n\n")
    assert "## Diagnostics" not in emit_report(build_report(),
                                               "markdown").decode()


def test_markdown_spells_a_path_that_is_not_utf8_as_the_json_does():
    # A POSIX file name holds the byte 0xff as U+DCFF once decoded.
    path = b"p/B\xff.java".decode("utf-8", "surrogateescape")
    report = build_report([ONE_VIOLATION._replace(file_path=path)],
                          repo_path=path, diagnostics=[f"skipped {path}"])
    text = emit_report(report, "markdown").decode("ascii")
    assert text.startswith("# Style report: p/B\\udcff.java\n")
    assert "- EmptyCatchBlock at p/B\\udcff.java:12 -" in text
    assert "- skipped p/B\\udcff.java\n" in text
    assert emit_report(report, "json").count(b'"p/B\\udcff.java"') == 2


def test_csv_shape():
    lines = emit_report(build_report(), "csv").decode().splitlines()
    assert lines[0] == "category,absolute,denominator,normalized,adherent"
    assert len(lines) == 1 + 17
    ordering = next(l for l in lines if l.startswith("Ordering,"))
    assert ordering.endswith(",")  # no verdict column for layout
    catch = next(l for l in lines if l.startswith("EmptyCatchBlock,"))
    assert catch == "EmptyCatchBlock,0,3,0.0000,true"


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit_report(build_report(), "yaml")


def test_config_digest_separates_configs():
    base = config_digest(0.05, 2, None)
    assert len(base) == 12
    assert base == config_digest(0.05, 2, None, ())
    assert base != config_digest(0.04, 2, None)
    assert base != config_digest(0.05, 3, None)
    assert base != config_digest(0.05, 2, "custom.txt")
    assert base != config_digest(0.05, 2, None, ("vendor",))
    # exclude order does not matter
    assert (config_digest(0.05, 2, None, ("a", "b"))
            == config_digest(0.05, 2, None, ("b", "a")))


@pytest.mark.parametrize("threshold, ordering, lexicon, excludes", [
    (0.05, 2, None, ()),
    (0.04, 1, "custom.txt", ("vendor", "gen/a")),
    (0.1234567, 4, "/abs/ünïcode.tsv", ("b", "a")),
])
def test_config_digest_is_a_sha256_prefix(threshold, ordering, lexicon,
                                          excludes):
    blob = json.dumps({"threshold": round(threshold, 6),
                       "ordering": ordering,
                       "lexicon": lexicon or "bundled",
                       "excludes": sorted(excludes)}, sort_keys=True)
    assert config_digest(threshold, ordering, lexicon, excludes) == \
        hashlib.sha256(blob.encode()).hexdigest()[:12]


def test_config_digest_of_the_defaults_is_the_golden_one():
    assert config_digest(0.05, 2, None) == "e5349362d2c3"


def test_diagnostics_passed_through():
    data = json.loads(emit_report(
        build_report(diagnostics=["skipped x: bad encoding"]), "json"))
    assert data["diagnostics"] == ["skipped x: bad encoding"]


def test_evolution_rows_shape():
    when = datetime.datetime(2024, 3, 14, 12, 0,
                             tzinfo=datetime.timezone.utc)
    counts = {cat: 1 for cat in Category}
    scores = normalize([], counts)
    ok = EvolutionSample("2024-03", CommitRecord("abc123", when), scores,
                         total_normalized(scores))
    bad = EvolutionSample("2024-04", None, [], 0.0, failed=True,
                          error="no commits in month")
    rows = evolution_rows([ok, bad])
    assert rows[0]["month"] == "2024-03"
    assert rows[0]["commit"] == "abc123"
    assert rows[0]["timestamp"] == "2024-03-14T12:00:00+00:00"
    assert rows[0]["failed"] is False
    assert rows[1] == {"month": "2024-04", "commit": None, "timestamp": None,
                       "scores": [], "totalNormalized": 0.0,
                       "failed": True, "error": "no commits in month"}


def test_corpus_csv_layout():
    stats = {cat: CorpusStats(0.0, 0.5, 0.25, 0.2) for cat in Category}
    table = threshold_table([{Category.USELESS: 0.02}])
    text = emit_corpus_csv(stats, table).decode()
    blocks = text.split("\n\n")
    assert len(blocks) == 2
    stat_lines = blocks[0].splitlines()
    assert stat_lines[0] == "category,min,max,mean,median"
    assert len(stat_lines) == 1 + 17
    assert stat_lines[1].endswith("0.0000,0.5000,0.2500,0.2000")
    table_lines = blocks[1].splitlines()
    assert table_lines[0] == "category,0.25,0.2,0.15,0.1,0.05,0.04,0.03,0.02,0.01,0"
    useless = next(l for l in table_lines if l.startswith("Useless,"))
    # 0.02 is under the first five thresholds only (strict comparison)
    assert useless == "Useless,100.00,100.00,100.00,100.00,100.00,100.00,100.00,0.00,0.00,0.00"
