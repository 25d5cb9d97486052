"""Acceptance gate: ten end-to-end guarantees, one test per criterion.

Each test prints one PASS line (bypassing capture) after its assertions
hold, so a full run shows a ten-line scoreboard.
"""

import hashlib
import itertools
import json
import os
import random
import time
from datetime import datetime, timezone

import pytest

from javastyle.analysis import analyze_repository
from javastyle.checkers import (JAVADOC_FORMATTING_MAX_PER_COMMENT,
                                ORDERING_CONFIGS, Category, Violation,
                                check_javadoc_formatting, check_ordering)
from javastyle.claims import scan_claims
from javastyle.history import evolve
from javastyle.report import (Report, config_digest, emit_report)
from javastyle.scoring import (classify_adherence, normalize,
                               stratified_sample, threshold_table)

from helpers import (analyze_files, check_files, count_of, parse_source,
                     run_check, write_tree)
from test_history import add_commit, make_repo
from test_ordering import GROUP_OF, KINDS, render

FIXTURE_ROOT = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture
def announce(capsys):
    def _announce(number, text):
        with capsys.disabled():
            print(f"ACCEPTANCE {number}: PASS - {text}")
    return _announce


# --- criterion 1: reference listings ------------------------------------------

COMMENTED_CATCH = """package p;
class Parser {
  void handle(String input) {
    try {
      int value = Integer.parseInt(input);
      processNumber(value);
    } catch (NumberFormatException ok) {
      // Non-numeric input is expected; continue normally
    }
  }
  void processNumber(int n) {}
}
"""

EXPECTED_IN_TEST = """package p;
class StackTest {
  void testPop() {
    try {
      emptyStack.pop();
      fail();
    } catch (NoSuchElementException expected) {}
  }
}
"""

SLOW_CONCAT = """package p;
class Joiner {
  String run() {
    String result = "";
    for (int i = 0; i < 50000; i++) {
      result += i + " ";
    }
    return result;
  }
}
"""

BUILDER_REWRITE = """package p;
class Joiner {
  String run() {
    StringBuilder sb = new StringBuilder();
    for (int i = 0; i < 50000; i++) {
      sb.append(i).append(" ");
    }
    String result = sb.toString();
    return result;
  }
}
"""


def test_criterion_01_reference_listings(lexicon, announce):
    started = time.monotonic()
    catches_ok = analyze_files({"p/Parser.java": COMMENTED_CATCH}, lexicon)
    catches_test = analyze_files({"p/StackTest.java": EXPECTED_IN_TEST},
                                 lexicon)
    concat_slow = analyze_files({"p/Joiner.java": SLOW_CONCAT}, lexicon)
    concat_fast = analyze_files({"p/Joiner.java": BUILDER_REWRITE}, lexicon)
    elapsed = time.monotonic() - started

    assert count_of(catches_ok, Category.EMPTY_CATCH_BLOCK) == 0
    assert count_of(catches_test, Category.EMPTY_CATCH_BLOCK) == 0
    slow_hits = [v for v in concat_slow
                 if v.category is Category.STRING_CONCATENATION]
    assert len(slow_hits) == 1
    assert slow_hits[0].line == 6 and slow_hits[0].detail == "result"
    assert count_of(concat_fast, Category.STRING_CONCATENATION) == 0
    assert elapsed < 1.0
    announce(1, "four reference listings score 0/0/1/0 in "
                f"{elapsed * 1000:.0f} ms")


# --- criterion 2: curated fixture corpus ----------------------------------------

SEEDED_COUNTS = {
    "ClassNames": 3,
    "MethodNames": 3,
    "VariableNames": 4,
    "PackageNames": 2,
    "JavadocClass": 2,
    "JavadocMethod": 2,
    "JavadocConstructor": 1,
    "JavadocField": 2,
    "JavadocFormatting": 3,
    "PrivateInstances": 2,
    "Useless": 6,
    "StringConcatenation": 2,
    "FinalizeOverride": 2,
    "UnqualifiedStaticAccess": 3,
    "EmptyCatchBlock": 2,
    "MissingOverride": 2,
    "Ordering": 2,
}


def own_category_count(fixture_dir, category_name):
    result = analyze_repository(fixture_dir)
    return sum(1 for v in result.violations
               if v.category.value == category_name)


def test_criterion_02_fixture_corpus(announce):
    clean_root = os.path.join(FIXTURE_ROOT, "clean")
    seeded_root = os.path.join(FIXTURE_ROOT, "seeded")
    clean_names = sorted(os.listdir(clean_root))
    seeded_names = sorted(os.listdir(seeded_root))
    assert clean_names == seeded_names == sorted(c.value for c in Category)

    false_positives = {
        name: own_category_count(os.path.join(clean_root, name), name)
        for name in clean_names
    }
    assert all(count == 0 for count in false_positives.values()), \
        false_positives

    recalled = {
        name: own_category_count(os.path.join(seeded_root, name), name)
        for name in seeded_names
    }
    assert recalled == SEEDED_COUNTS

    announce(2, f"{len(clean_names)} clean fixtures score 0, "
                f"{len(seeded_names)} seeded fixtures recall exactly "
                f"{sum(SEEDED_COUNTS.values())} seeded violations")


# --- criterion 3: cross-file resolution -----------------------------------------

PARENT_PLAIN = "package p;\npublic class A {\n  public void work() {}\n}\n"
PARENT_DEPRECATED = ("package p;\npublic class A {\n"
                     "  @Deprecated public void work() {}\n}\n")
CHILD = ("package p;\npublic class B extends A {\n"
         "  public void work() {}\n}\n")

UTILS = ("package p;\npublic class Utils {\n"
         "  public static void doWork() {}\n}\n")
INSTANCE_CALLER = ("package p;\nclass Caller {\n"
                   "  Utils utilInstance = new Utils();\n"
                   "  void run() { utilInstance.doWork(); }\n}\n")
EXTERNAL_CALLER = ("package p;\nimport com.vendor.Remote;\n"
                   "class Caller {\n  Remote remote = new Remote();\n"
                   "  void run() { remote.doWork(); }\n}\n")


def test_criterion_03_cross_file_checks(lexicon, announce):
    unannotated = analyze_files(
        {"p/A.java": PARENT_PLAIN, "p/B.java": CHILD}, lexicon)
    assert count_of(unannotated, Category.MISSING_OVERRIDE) == 1

    deprecated = analyze_files(
        {"p/A.java": PARENT_DEPRECATED, "p/B.java": CHILD}, lexicon)
    assert count_of(deprecated, Category.MISSING_OVERRIDE) == 0

    through_instance = analyze_files(
        {"p/Utils.java": UTILS, "p/Caller.java": INSTANCE_CALLER}, lexicon)
    assert count_of(through_instance,
                    Category.UNQUALIFIED_STATIC_ACCESS) == 1

    through_external = analyze_files(
        {"p/Caller.java": EXTERNAL_CALLER}, lexicon)
    assert count_of(through_external,
                    Category.UNQUALIFIED_STATIC_ACCESS) == 0
    announce(3, "override and static-access findings resolve across files, "
                "with @Deprecated and external-type exemptions")


# --- criterion 4: normalization arithmetic ---------------------------------------


def test_criterion_04_normalization(lexicon, announce):
    # 100 declared variables, 5 of them misnamed
    bad_fields = "\n".join(f"  int Bad_{i};" for i in range(5))
    params = ", ".join(f"int good{i}" for i in range(95))
    src = (f"package p;\nclass Vars {{\n{bad_fields}\n"
           f"  void f({params}) {{}}\n}}\n")
    violations, counts = check_files({"p/Vars.java": src}, lexicon)
    assert counts[Category.VARIABLE_NAMES] == 100
    scores = normalize(violations, counts)
    row = next(s for s in scores if s.category is Category.VARIABLE_NAMES)
    assert row.absolute == 5 and row.denominator == 100
    assert row.normalized == 0.05

    # every catch empty scores exactly one
    catches = "\n".join(
        "    try { ping(); } catch (Exception e) {}" for _ in range(4))
    src = (f"package p;\nclass Sponge {{\n  void f() {{\n{catches}\n  }}\n"
           "  void ping() {}\n}\n")
    violations, counts = check_files({"p/Sponge.java": src}, lexicon)
    scores = normalize(violations, counts)
    row = next(s for s in scores if s.category is Category.EMPTY_CATCH_BLOCK)
    assert row.absolute == 4 and row.denominator == 4
    assert row.normalized == 1.0

    # one comment can trip five formatting findings when the method is
    # void and five when it is not; the void/non-void @return findings
    # exclude each other, so the per-comment ceiling of 6 is a cap
    prose = "Performs one full pass over every queued item in order."
    void_doc = (f"package p;\nclass Docs {{\n  /**\n   * {prose}\n"
                "   * @param ghost\n   * @return nothing\n   */\n"
                "  void f(int real) throws java.io.IOException {}\n}\n")
    void_hits = run_check(check_javadoc_formatting,
                          parse_source(void_doc, "p/D.java"))
    assert len(void_hits) == 5

    value_doc = (f"package p;\nclass Docs {{\n  /**\n   * {prose}\n"
                 "   * @param ghost\n   */\n"
                 "  int f(int real) throws java.io.IOException { return 1; }"
                 "\n}\n")
    value_hits = run_check(check_javadoc_formatting,
                           parse_source(value_doc, "p/D.java"))
    assert len(value_hits) == 5

    both_return_rules = {"non-void method lacks @return",
                         "void method documents a @return"}
    for hits in (void_hits, value_hits):
        messages = {v.message for v in hits}
        assert len(messages) == 5  # each sub-check at most once per comment
        assert len(messages & both_return_rules) == 1
    assert JAVADOC_FORMATTING_MAX_PER_COMMENT == 6
    assert len(void_hits) <= JAVADOC_FORMATTING_MAX_PER_COMMENT

    announce(4, "5/100 variables score 0.0500, all-empty catches score "
                "1.0000, formatting sub-checks fire once each per comment "
                "under the cap of 6")


# --- criterion 5: threshold and verdict oracle ------------------------------------


def test_criterion_05_threshold_oracle(announce):
    rng = random.Random(20240816)
    values = [0.0, 0.0, 0.049, 0.05, 0.25, 0.01, 0.02]
    values += [round(rng.uniform(0, 0.3), 3) for _ in range(293)]
    per_repo = [{Category.USELESS: v} for v in values]
    table = threshold_table(per_repo)[Category.USELESS]
    for threshold, percent in table:
        if threshold == 0:
            direct = sum(1 for v in values if v <= 0)
        else:
            direct = sum(1 for v in values if v < threshold)
        assert abs(percent - 100.0 * direct / len(values)) <= 0.01

    from javastyle.scoring import CategoryScore
    adherent = classify_adherence(
        [CategoryScore(c, 0, 1, 0.049 if c is Category.USELESS else 0.0)
         for c in Category], 0.05)
    breached = classify_adherence(
        [CategoryScore(c, 0, 1, 0.050 if c is Category.USELESS else 0.0)
         for c in Category], 0.05)
    assert adherent.per_category[Category.USELESS] is True
    assert breached.per_category[Category.USELESS] is False
    announce(5, "threshold table matches the direct count on 300 synthetic "
                "repos and 0.049/0.050 straddle the 0.05 verdict")


# --- criterion 6: ordering oracle --------------------------------------------------


def ordering_oracle(kinds, cfg):
    ranks = [cfg.rank(GROUP_OF[k]) for k in kinds]
    return sum(1 for i, r in enumerate(ranks)
               if any(earlier > r for earlier in ranks[:i]))


def test_criterion_06_ordering_configs(announce):
    # canonical layout of each config: clean at home, flagged elsewhere
    for own_id, cfg in ORDERING_CONFIGS.items():
        kinds = [k for g in cfg.ranked_groups
                 for k in KINDS if GROUP_OF[k] == g]
        model = parse_source(render(kinds), "p/Box.java")
        assert run_check(check_ordering, model, ordering=cfg) == []
        assert any(
            len(run_check(check_ordering, model, ordering=other)) > 0
            for other_id, other in ORDERING_CONFIGS.items()
            if other_id != own_id)

    # exhaustive check for up to 4 members, sampled up to 8
    checked = 0
    sequences = []
    for length in range(5):
        sequences.extend(itertools.product(KINDS, repeat=length))
    rng = random.Random(6)
    sequences.extend(
        tuple(rng.choice(KINDS) for _ in range(rng.randint(5, 8)))
        for _ in range(300))
    for kinds in sequences:
        model = parse_source(render(list(kinds)), "p/Box.java")
        for cfg in ORDERING_CONFIGS.values():
            assert len(run_check(check_ordering, model,
                                 ordering=cfg)) == ordering_oracle(
                kinds, cfg)
            checked += 1
    announce(6, f"rank-max scan matches the pairwise oracle on {checked} "
                "(sequence, config) pairs including every body up to 4 members")


# --- criterion 7: history replay -----------------------------------------------------

CLEAN_BODY = ("package p;\nclass Widget {\n  private int size;\n"
              "  int getSize() { return size; }\n}\n")
CATCH_BODY = ("package p;\nclass Widget {\n  private int size;\n"
              "  int getSize() { return size; }\n"
              "  void poke() { try { hashCode(); }"
              " catch (Exception e) {} }\n}\n")


def tree_digest(root):
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != ".git")
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            digest.update(os.path.relpath(full, root).encode())
            with open(full, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def test_criterion_07_history_replay(tmp_path, announce):
    repo = make_repo(tmp_path / "repo")
    # three years of padding, then a 12-month window with a mid-window
    # content change and one month holding three candidate commits
    for i in range(36):
        year, month = divmod(2020 * 12 + 6 + i, 12)
        add_commit(repo, datetime(year, month + 1, 15, 12,
                                  tzinfo=timezone.utc),
                   {"src/p/Widget.java": CLEAN_BODY})
    for i in range(12):
        year, month = divmod(2023 * 12 + 6 + i, 12)
        body = CATCH_BODY if i >= 6 else CLEAN_BODY
        when = datetime(year, month + 1, 15, 12, tzinfo=timezone.utc)
        if i == 3:  # 2023-10 gets commits on days 2, 10, and 27
            for day in (2, 10, 27):
                add_commit(repo, when.replace(day=day),
                           {"src/p/Widget.java": body, "note.txt": str(day)})
        else:
            add_commit(repo, when, {"src/p/Widget.java": body})

    before = tree_digest(str(repo))

    def analyze_fn(snapshot):
        result = analyze_repository(snapshot)
        return result.scores, result.total_normalized

    started = time.monotonic()
    samples = evolve(str(repo), analyze_fn,
                     as_of=datetime(2024, 7, 1, tzinfo=timezone.utc))
    elapsed = time.monotonic() - started

    assert [s.month_label for s in samples] == [
        "2023-07", "2023-08", "2023-09", "2023-10", "2023-11", "2023-12",
        "2024-01", "2024-02", "2024-03", "2024-04", "2024-05", "2024-06"]
    assert all(not s.failed for s in samples)

    crowded = samples[3]
    assert crowded.month_label == "2023-10"
    assert crowded.commit.timestamp.day == 10  # nearest day 15 of 2/10/27

    series = []
    for s in samples:
        row = next(x for x in s.scores
                   if x.category is Category.EMPTY_CATCH_BLOCK)
        series.append(row.normalized)
    assert series == [0.0] * 6 + [1.0] * 6  # step exactly at month index 6

    assert tree_digest(str(repo)) == before  # work tree untouched, bit-exact
    assert elapsed < 30.0
    announce(7, "12-month replay picks the day-10 commit from 2/10/27, "
                f"steps at month 6, leaves the tree untouched, in {elapsed:.2f} s")


# --- criterion 8: claim classification ------------------------------------------------


def test_criterion_08_claims(tmp_path, announce):
    google = tmp_path / "google"
    write_tree(google, {"README.md":
                        "Code follows the Google Java Style guide.\n"})
    generic = tmp_path / "generic"
    write_tree(generic, {"CONTRIBUTING.md":
                         "Please respect the project coding standards.\n"})
    silent = tmp_path / "silent"
    write_tree(silent, {"README.md": "# tool\n\nDoes things.\n"})

    assert scan_claims(str(google)).category == "GoogleExplicit"
    assert scan_claims(str(generic)).category == "MentionCodeStyle"
    assert scan_claims(str(silent)).category == "NoMention"
    announce(8, "three claim fixtures classify GoogleExplicit, "
                "MentionCodeStyle, and NoMention")


# --- criterion 9: determinism at scale --------------------------------------------------

FILE_TEMPLATE = """package com.demo.m{module};

import java.util.List;

/** Handles batch {module} record processing for the synthetic workload generator. */
public class Batch{module} {{
  private static final int LIMIT = {limit};

  private int cursor;

  private List backlog;

  public Batch{module}(List backlog) {{
    this.backlog = backlog;
  }}

{methods}
}}
"""

METHOD_TEMPLATE = """  /**
   * Advances the cursor by step {index} and reports the new position value.
   * @param offset the amount to advance past the current cursor
   * @return the cursor position after the advance completes
   */
  public int advance{index}(int offset) {{
    int next = cursor + offset;
    for (int i = 0; i < LIMIT; i++) {{
      next += i;
    }}
    try {{
      cursor = next;
    }} catch (RuntimeException e) {{
      recover{index}();
    }}
    return next;
  }}

  void recover{index}() {{
    String trail = "";
    for (int i = 0; i < 3; i++) {{
      trail += i;
    }}
    backlog.add(trail);
  }}
"""


def build_large_tree(root):
    total_lines = 0
    for module in range(48):
        methods = "\n".join(
            METHOD_TEMPLATE.format(index=i) for i in range(8))
        text = FILE_TEMPLATE.format(module=module, limit=module + 1,
                                    methods=methods)
        rel = f"src/main/java/com/demo/m{module}/Batch{module}.java"
        full = os.path.join(root, rel)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as fh:
            fh.write(text)
        total_lines += text.count("\n")
    return total_lines


def test_criterion_09_determinism_and_speed(tmp_path, announce):
    lines = build_large_tree(str(tmp_path))
    assert lines >= 10000

    outputs = []
    durations = []
    for _ in range(2):
        started = time.monotonic()
        result = analyze_repository(str(tmp_path))
        report = Report(
            repo_path="fixture",
            config_digest=config_digest(0.05, 2, None),
            counts=result.counts,
            scores=result.scores,
            total_normalized=result.total_normalized,
            verdict=result.verdict,
            claim=None,
            violations=result.violations,
            diagnostics=result.diagnostics,
        )
        outputs.append(emit_report(report, "json"))
        durations.append(time.monotonic() - started)

    assert outputs[0] == outputs[1]
    payload = json.loads(outputs[0])
    assert payload["scores"]  # sanity: the run actually scored something
    assert max(durations) < 5.0
    announce(9, f"two runs over a {lines}-line tree are byte-identical, "
                f"slowest {max(durations):.2f} s")


# --- criterion 10: stratified sampler ------------------------------------------------------


def test_criterion_10_sampler(announce):
    repos = []
    for i in range(62):
        repos.append([
            Violation(Category.USELESS, f"r{i}/A.java", i + 1, "m", ""),
            Violation(Category.EMPTY_CATCH_BLOCK, f"r{i}/A.java", 9, "m", ""),
        ])
    first = stratified_sample(repos, groups=31, seed=42)
    second = stratified_sample(repos, groups=31, seed=42)

    for category in (Category.USELESS, Category.EMPTY_CATCH_BLOCK):
        picks = first.samples[category]
        assert len(picks) == 31
        for pick in picks:
            assert pick.repo_position // 2 == pick.group  # group size 2
        assert ([(p.group, p.repo_position) for p in picks]
                == [(p.group, p.repo_position)
                    for p in second.samples[category]])
    announce(10, "62 repos in 31 groups of 2 give 31 reproducible samples "
                 "per populated category")
