"""Repository-level analysis: discovery, skips, excludes, verdict wiring."""

import errno
import os
from pathlib import Path

import pytest

from javastyle import analysis
from javastyle.analysis import AnalysisConfig, analyze_repository
from javastyle.checkers import Category

from helpers import MemorySnapshot, write_tree
from test_acceptance import build_large_tree

FIXTURES = Path(__file__).parent / "fixtures"

GOOD = ("package p;\nclass Alpha {\n  private int count;\n"
        "  int getCount() { return count; }\n}\n")
BAD_SYNTAX = "package p;\nclass Broken {\n  void f( {\n}\n"


def test_syntax_error_skips_file_but_not_repo(tmp_path):
    write_tree(tmp_path, {
        "src/p/Alpha.java": GOOD,
        "src/p/Broken.java": BAD_SYNTAX,
    })
    result = analyze_repository(str(tmp_path))
    assert result.paths == ["src/p/Alpha.java"]
    assert len(result.diagnostics) == 1
    assert result.diagnostics[0].startswith("skipped src/p/Broken.java:")


def test_too_deeply_nested_types_skip_file_but_not_repo(tmp_path):
    write_tree(tmp_path, {
        "src/p/Alpha.java": GOOD,
        "src/p/Deep.java": "class A {" * 3000 + "}" * 3000,
    })
    result = analyze_repository(str(tmp_path))
    assert result.paths == ["src/p/Alpha.java"]
    assert result.diagnostics == [
        "skipped src/p/Deep.java: type nesting too deep (line 1, col 901)"]
    assert result.counts[Category.METHOD_NAMES] == 1


@pytest.mark.parametrize("loop", ["for x;", "while x;"])
def test_loop_header_without_parentheses_skips_file(tmp_path, loop):
    write_tree(tmp_path, {
        "src/p/Alpha.java": GOOD,
        "src/p/A.java": f"class A {{ void f() {{ {loop} }} }}",
    })
    result = analyze_repository(str(tmp_path))
    assert result.paths == ["src/p/Alpha.java"]
    assert len(result.diagnostics) == 1
    assert result.diagnostics[0].startswith("skipped src/p/A.java:")
    assert result.counts[Category.CLASS_NAMES] == 1
    assert result.counts[Category.PRIVATE_INSTANCES] == 1


def test_invalid_utf8_skipped_with_diagnostic(tmp_path):
    write_tree(tmp_path, {"src/p/Alpha.java": GOOD})
    raw = tmp_path / "src/p/Mangled.java"
    raw.write_bytes(b"package p;\nclass Mangled { // caf\xe9\n}\n")
    result = analyze_repository(str(tmp_path))
    assert result.paths == ["src/p/Alpha.java"]
    assert any(d.startswith("skipped src/p/Mangled.java: not valid UTF-8")
               for d in result.diagnostics)


BOM = b"\xef\xbb\xbf"
ONE_CLASS = b"package p;\nclass A {}\n"


def test_byte_order_mark_is_dropped_on_disk(tmp_path):
    (tmp_path / "src/main/java/p").mkdir(parents=True)
    (tmp_path / "src/main/java/p/A.java").write_bytes(BOM + ONE_CLASS)
    result = analyze_repository(str(tmp_path))
    assert result.diagnostics == []
    assert result.paths == ["src/main/java/p/A.java"]
    assert result.counts[Category.CLASS_NAMES] == 1


def test_byte_order_mark_is_dropped_in_a_snapshot():
    with_bom = analyze_repository(MemorySnapshot({"p/A.java": BOM + ONE_CLASS}))
    without = analyze_repository(MemorySnapshot({"p/A.java": ONE_CLASS}))
    assert with_bom.diagnostics == []
    assert (with_bom.paths, with_bom.counts, with_bom.violations) == \
        (without.paths, without.counts, without.violations)
    # One mark only: a second is text, and no Java token starts with it.
    twice = analyze_repository(MemorySnapshot({"p/A.java":
                                               BOM + BOM + ONE_CLASS}))
    assert twice.paths == [] and len(twice.diagnostics) == 1


def test_exclude_prefix_semantics(tmp_path):
    write_tree(tmp_path, {
        "src/p/Alpha.java": GOOD,
        "src/vendor/q/Theirs.java": "package q;\nclass theirs {}\n",
        "src/vendors/q/Ours.java": "package q;\nclass ours {}\n",
    })
    config = AnalysisConfig(excludes=("src/vendor",))
    result = analyze_repository(str(tmp_path), config)
    paths = result.paths
    # prefix must match on a path-segment boundary
    assert "src/vendor/q/Theirs.java" not in paths
    assert "src/vendors/q/Ours.java" in paths


def test_trailing_slash_on_exclude_accepted(tmp_path):
    write_tree(tmp_path, {
        "src/p/Alpha.java": GOOD,
        "gen/p/Made.java": "package p;\nclass made {}\n",
    })
    result = analyze_repository(
        str(tmp_path), AnalysisConfig(excludes=("gen/",)))
    assert result.paths == ["src/p/Alpha.java"]


def test_unknown_ordering_rejected(tmp_path):
    write_tree(tmp_path, {"src/p/Alpha.java": GOOD})
    with pytest.raises(ValueError):
        analyze_repository(str(tmp_path), AnalysisConfig(ordering_id=7))


def test_duplicate_type_diagnostic_propagates(tmp_path):
    write_tree(tmp_path, {
        "a/p/Alpha.java": GOOD,
        "b/p/Alpha.java": GOOD,
    })
    result = analyze_repository(str(tmp_path))
    assert any("duplicate type p.Alpha" in d for d in result.diagnostics)


def test_scores_cover_all_categories(tmp_path):
    write_tree(tmp_path, {"src/p/Alpha.java": GOOD})
    result = analyze_repository(str(tmp_path))
    assert [s.category for s in result.scores] == list(Category)
    assert result.total_normalized == 0.0
    assert result.verdict.code_style_adherent
    assert result.verdict.practice_adherent


def test_empty_repository_analyzes_clean(tmp_path):
    (tmp_path / "README.md").write_text("# empty\n", encoding="utf-8")
    result = analyze_repository(str(tmp_path))
    assert result.paths == [] and result.violations == []
    assert result.total_normalized == 0.0


def test_missing_root_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        analyze_repository(str(tmp_path / "nowhere"))


@pytest.mark.parametrize("tree", ["fixtures", "clean", "seeded", "large"])
def test_models_are_not_mutated_after_parsing(tmp_path, monkeypatch, tree):
    # The file-scope checks and the record read a model in turn; were one
    # of them to change it, a result would depend on the order they run.
    if tree == "large":
        build_large_tree(str(tmp_path))
        root = tmp_path
    else:
        root = FIXTURES if tree == "fixtures" else FIXTURES / tree
    parsed = []
    parse = analysis.parse_compilation_unit

    def recording_parse(text, path):
        model = parse(text, path)
        parsed.append((model, repr(model)))
        return model

    monkeypatch.setattr(analysis, "parse_compilation_unit", recording_parse)
    result = analyze_repository(str(root))
    assert len(parsed) == len(result.paths) > 0
    changed = [model.path for model, before in parsed if repr(model) != before]
    assert changed == []


def test_reuse_holds_the_last_snapshot_only():
    snapshot = MemorySnapshot({"src/p/Alpha.java": GOOD,
                               "src/p/Broken.java": BAD_SYNTAX})
    (alpha, alpha_blob), (broken, broken_blob) = snapshot.sources()
    reuse = {}
    first = analyze_repository(snapshot, reuse=reuse)
    assert set(reuse) == {(alpha, alpha_blob), (broken, broken_blob)}
    kept = reuse[alpha, alpha_blob]
    assert kept.record.path == alpha and first.paths == [alpha]
    assert reuse[broken, broken_blob].record == first.diagnostics[0]
    del snapshot.files[broken]
    second = analyze_repository(snapshot, reuse=reuse)
    assert second.paths == [alpha]
    assert second.diagnostics == []
    assert snapshot.reads == [alpha, broken]  # the second call read nothing
    assert list(reuse) == [(alpha, alpha_blob)]
    assert reuse[alpha, alpha_blob] is kept
    assert second.violations == first.violations


def test_a_snapshot_read_error_is_skipped_as_on_disk(tmp_path):
    write_tree(tmp_path, {"src/p/Alpha.java": GOOD})
    (tmp_path / "src/p/Gone.java").symlink_to(tmp_path / "nowhere.java")
    on_disk = analyze_repository(str(tmp_path))

    class VanishingSnapshot(MemorySnapshot):
        def read(self, rel, blob):
            if rel == "src/p/Gone.java":
                raise FileNotFoundError(errno.ENOENT,
                                        os.strerror(errno.ENOENT))
            return super().read(rel, blob)

    snapshot = VanishingSnapshot({"src/p/Alpha.java": GOOD,
                                  "src/p/Gone.java": GOOD})
    result = analyze_repository(snapshot)
    assert result.diagnostics == on_disk.diagnostics == [
        "skipped src/p/Gone.java: No such file or directory"]
    assert result.paths == on_disk.paths == ["src/p/Alpha.java"]


def test_files_on_disk_are_never_reused(tmp_path, monkeypatch):
    write_tree(tmp_path, {"src/p/Alpha.java": GOOD})
    parsed = []
    parse = analysis.parse_compilation_unit

    def recording_parse(text, path):
        parsed.append(path)
        return parse(text, path)

    monkeypatch.setattr(analysis, "parse_compilation_unit", recording_parse)
    reuse = {}
    first = analyze_repository(str(tmp_path), reuse=reuse)
    second = analyze_repository(str(tmp_path), reuse=reuse)
    assert reuse == {}
    assert parsed == ["src/p/Alpha.java"] * 2
    assert second.violations == first.violations
