"""Normalization, aggregation, thresholds, verdicts, and sampling."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from javastyle import checkers
from javastyle.checkers import (CHECKS, CODE_STYLE_CATEGORIES,
                                PRACTICE_CATEGORIES, TABLE_CATEGORIES,
                                Category, Violation)
from javastyle.scoring import (CategoryScore, aggregate, classify_adherence,
                               normalize, stratified_sample, threshold_table,
                               total_normalized)

from helpers import check_files, count_of, parse_source


def scores_with(values: dict[Category, float]) -> list[CategoryScore]:
    return [CategoryScore(cat, 0, 1, values.get(cat, 0.0))
            for cat in Category]


def violation(cat, file_path="p/A.java", line=1, message="m", detail=""):
    return Violation(cat, file_path, line, message, detail)


# --- construct counting -----------------------------------------------------

COUNT_FIXTURE = """package p;
import java.util.List;

/** Holds one numeric value with a documented change history. */
public class Holder {
  public static final int LIMIT = 10;
  private int value;

  public Holder(int value) { this.value = value; }

  /** Returns the tracked value for display and comparison uses. */
  public int getValue() { return value; }

  void tick(List items) {
    int steps = 0;
    for (int i = 0; i < 3; i++) {
      steps += i;
    }
    try { hashCode(); } catch (Exception e) { steps = -1; }
  }

  public boolean equals(Object other) { return false; }
}
"""


def test_construct_counts_hand_tallied(lexicon):
    model = parse_source(COUNT_FIXTURE, "p/Holder.java")
    _, c = check_files({"p/Holder.java": COUNT_FIXTURE}, lexicon)
    assert c[Category.PACKAGE_NAMES] == 1
    assert c[Category.CLASS_NAMES] == 1
    assert c[Category.FINALIZE_OVERRIDE] == 1
    assert c[Category.JAVADOC_CLASS] == 1
    assert c[Category.METHOD_NAMES] == 3          # getValue, tick, equals
    assert c[Category.JAVADOC_METHOD] == 2        # public: getValue, equals
    assert c[Category.JAVADOC_CONSTRUCTOR] == 1
    assert c[Category.JAVADOC_FIELD] == 1         # LIMIT
    assert c[Category.JAVADOC_FORMATTING] == 1    # getValue has a doc
    assert c[Category.PRIVATE_INSTANCES] == 1     # value
    # fields LIMIT+value; params value+items; locals steps, i, catch e
    assert c[Category.VARIABLE_NAMES] == 2 + 2 + 3
    assert c[Category.STRING_CONCATENATION] == 1
    assert c[Category.EMPTY_CATCH_BLOCK] == 1
    assert c[Category.MISSING_OVERRIDE] == 1      # equals(Object)
    assert c[Category.ORDERING] == 6
    assert c[Category.USELESS] == model.line_count


def test_checks_register_every_category_once():
    assert [cat for cat, _, _, _ in CHECKS] == list(Category)
    groups = Counter(group for _, group, _, _ in CHECKS)
    assert groups == {"code_style": 9, "practice": 7, "layout": 1}


def test_check_scopes_are_pinned():
    # A project-scope check reruns on every snapshot of a history; a
    # file-scope one is kept for as long as its file is unchanged.
    assert {cat.value: scope for cat, _, scope, _ in CHECKS} == {
        "ClassNames": "file", "MethodNames": "file", "VariableNames": "file",
        "PackageNames": "file", "JavadocClass": "file",
        "JavadocMethod": "file", "JavadocConstructor": "file",
        "JavadocField": "file", "JavadocFormatting": "file",
        "PrivateInstances": "file", "Useless": "file",
        "StringConcatenation": "file", "FinalizeOverride": "file",
        "UnqualifiedStaticAccess": "project", "EmptyCatchBlock": "file",
        "MissingOverride": "project", "Ordering": "file"}


OVERRIDE_PARENT = """package p;
public class Base {
  public static int count() { return 0; }
  public void go() {}
  public void stop() {}
}
"""

OVERRIDE_CHILD = """package p;
public class Child extends Base {
  private Base peer = new Base();
  @Override public void go() {}
  public void stop() { peer.count(); Base.count(); }
}
"""


def test_each_resolver_runs_once_per_construct(lexicon, monkeypatch):
    results = {"resolve_override": [], "resolve_static_access": []}
    for name, seen in results.items():
        def counting(*args, _real=getattr(checkers, name), _seen=seen):
            _seen.append(_real(*args))
            return _seen[-1]
        monkeypatch.setattr(checkers, name, counting)

    files = {"p/Holder.java": COUNT_FIXTURE, "p/Base.java": OVERRIDE_PARENT,
             "p/Child.java": OVERRIDE_CHILD}
    violations, counts = check_files(files, lexicon)

    members = [m for path, text in files.items()
               for t in parse_source(text, path).all_types()
               for m in t.members]
    instance_methods = [m for m in members if m.kind == "instanceMethod"]
    # Only accesses whose receiver type is known are recorded, and the
    # resolver is asked once for each.
    accesses = [a for m in members if m.body is not None
                for a in m.body.accesses]
    assert len(results["resolve_override"]) == len(instance_methods) == 7
    assert len(results["resolve_static_access"]) == len(accesses) > 0
    # equals, go and stop override; the annotated go is inspected, not flagged
    assert counts[Category.MISSING_OVERRIDE] == 3
    assert count_of(violations, Category.MISSING_OVERRIDE) == 2
    assert counts[Category.UNQUALIFIED_STATIC_ACCESS] == sum(
        r.resolved for r in results["resolve_static_access"]) > 0


def test_useless_denominator_skips_blank_lines():
    model = parse_source("class A {\n\n\n  int x;\n}\n", "p/A.java")
    assert model.line_count == 3


# --- normalization ----------------------------------------------------------


def test_five_per_hundred():
    violations = [violation(Category.VARIABLE_NAMES) for _ in range(5)]
    scores = normalize(violations, {Category.VARIABLE_NAMES: 100})
    row = next(s for s in scores if s.category is Category.VARIABLE_NAMES)
    assert row.absolute == 5 and row.denominator == 100
    assert row.normalized == 0.05 and not row.undefined


def test_every_catch_empty_scores_one():
    violations = [violation(Category.EMPTY_CATCH_BLOCK) for _ in range(7)]
    scores = normalize(violations, {Category.EMPTY_CATCH_BLOCK: 7})
    row = next(s for s in scores if s.category is Category.EMPTY_CATCH_BLOCK)
    assert row.normalized == 1.0


def test_zero_over_zero_is_clean_zero():
    scores = normalize([], {})
    for s in scores:
        assert s.normalized == 0.0 and not s.undefined


def test_hits_without_denominator_marked_undefined():
    scores = normalize([violation(Category.METHOD_NAMES)], {})
    row = next(s for s in scores if s.category is Category.METHOD_NAMES)
    assert row.normalized == 0.0 and row.undefined


def test_formatting_can_exceed_one_in_its_row():
    violations = [violation(Category.JAVADOC_FORMATTING) for _ in range(5)]
    scores = normalize(violations, {Category.JAVADOC_FORMATTING: 2})
    row = next(s for s in scores
               if s.category is Category.JAVADOC_FORMATTING)
    assert row.normalized == 2.5


# --- total ------------------------------------------------------------------


def test_total_is_mean_over_sixteen():
    assert total_normalized(scores_with({})) == 0.0
    one_each = scores_with({cat: 0.16 for cat in TABLE_CATEGORIES})
    assert total_normalized(one_each) == pytest.approx(0.16)
    single = scores_with({Category.USELESS: 0.32})
    assert total_normalized(single) == pytest.approx(0.32 / 16)


def test_formatting_capped_only_in_total():
    scores = scores_with({Category.JAVADOC_FORMATTING: 2.5})
    assert total_normalized(scores) == pytest.approx(1.0 / 16)


def test_ordering_excluded_from_total():
    scores = scores_with({Category.ORDERING: 1.0})
    assert total_normalized(scores) == 0.0


# --- aggregation --------------------------------------------------------------


def test_aggregate_stats():
    per_repo = [{Category.USELESS: v} for v in (1.0, 2.0, 3.0, 4.0)]
    stats = aggregate(per_repo)[Category.USELESS]
    assert stats.minimum == 1.0 and stats.maximum == 4.0
    assert stats.mean == 2.5
    assert stats.median == 2.5  # even count: mean of the middle pair


def test_aggregate_median_odd_count():
    per_repo = [{Category.USELESS: v} for v in (5.0, 1.0, 9.0)]
    assert aggregate(per_repo)[Category.USELESS].median == 5.0


def test_aggregate_missing_category_counts_as_zero():
    stats = aggregate([{Category.USELESS: 4.0}, {}])[Category.USELESS]
    assert stats.minimum == 0.0 and stats.mean == 2.0


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate([])


# --- threshold table ----------------------------------------------------------


def test_threshold_columns_and_rounding():
    per_repo = [{Category.USELESS: v} for v in (0.0, 0.02, 0.30)]
    row = dict(threshold_table(per_repo)[Category.USELESS])
    assert set(row) == {0.25, 0.20, 0.15, 0.10, 0.05, 0.04, 0.03, 0.02, 0.01, 0.0}
    assert row[0.25] == 66.67   # 2/3 under 0.25
    assert row[0.05] == 66.67
    assert row[0.02] == 33.33   # strict: 0.02 itself not under 0.02
    assert row[0.0] == 33.33    # only the exact zero
    assert row[0.01] == 33.33


def test_boundary_between_049_and_050():
    per_repo = [{Category.USELESS: 0.049}, {Category.USELESS: 0.050}]
    row = dict(threshold_table(per_repo)[Category.USELESS])
    assert row[0.05] == 50.0


def test_zero_column_includes_every_zero_repo():
    per_repo = [{Category.USELESS: 0.0}] * 4
    row = dict(threshold_table(per_repo)[Category.USELESS])
    assert row[0.0] == 100.0


def test_threshold_table_empty_rejected():
    with pytest.raises(ValueError):
        threshold_table([])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=0.5,
                          allow_nan=False), min_size=1, max_size=40))
def test_threshold_table_matches_direct_count(values):
    per_repo = [{Category.USELESS: v} for v in values]
    table = threshold_table(per_repo)[Category.USELESS]
    for t, pct in table:
        if t == 0:
            expected = sum(1 for v in values if v <= 0)
        else:
            expected = sum(1 for v in values if v < t)
        assert pct == round(100.0 * expected / len(values), 2)


# --- adherence verdicts ---------------------------------------------------------


def test_adherence_is_strictly_under():
    scores = scores_with({Category.USELESS: 0.05})
    verdict = classify_adherence(scores, 0.05)
    assert verdict.per_category[Category.USELESS] is False
    verdict = classify_adherence(scores_with({Category.USELESS: 0.049}), 0.05)
    assert verdict.per_category[Category.USELESS] is True


def test_group_verdicts_split():
    scores = scores_with({Category.CLASS_NAMES: 0.9})
    verdict = classify_adherence(scores)
    assert not verdict.code_style_adherent
    assert verdict.practice_adherent

    scores = scores_with({Category.EMPTY_CATCH_BLOCK: 0.9})
    verdict = classify_adherence(scores)
    assert verdict.code_style_adherent
    assert not verdict.practice_adherent


def test_verdict_covers_exactly_table_categories():
    verdict = classify_adherence(scores_with({}))
    assert set(verdict.per_category) == set(TABLE_CATEGORIES)
    assert Category.ORDERING not in verdict.per_category
    assert len(CODE_STYLE_CATEGORIES) == 9
    assert len(PRACTICE_CATEGORIES) == 7


# --- stratified sampling ---------------------------------------------------------


def repos_with_violations(n, cats=(Category.USELESS,)):
    return [[violation(cat, f"r{i}/A.java", line=i + 1, detail=f"repo{i}")
             for cat in cats]
            for i in range(n)]


def test_sixty_two_repos_make_groups_of_two():
    repos = repos_with_violations(62)
    result = stratified_sample(repos, groups=31, seed=0)
    picks = result.samples[Category.USELESS]
    assert len(picks) == 31
    assert [p.group for p in picks] == list(range(31))
    for p in picks:
        assert p.repo_position // 2 == p.group


def test_same_seed_same_sample():
    repos = repos_with_violations(62)
    a = stratified_sample(repos, groups=31, seed=7)
    b = stratified_sample(repos, groups=31, seed=7)
    assert ([(p.group, p.repo_position) for p in a.samples[Category.USELESS]]
            == [(p.group, p.repo_position) for p in b.samples[Category.USELESS]])


def test_partition_independent_of_seed():
    repos = repos_with_violations(62)
    for seed in (0, 1, 99):
        picks = stratified_sample(repos, groups=31, seed=seed)
        for p in picks.samples[Category.USELESS]:
            assert p.repo_position // 2 == p.group


def test_seed_changes_within_group_choice():
    repos = repos_with_violations(62)
    positions = {
        seed: tuple(p.repo_position for p in
                    stratified_sample(repos, 31, seed).samples[Category.USELESS])
        for seed in range(6)
    }
    assert len(set(positions.values())) > 1


def test_first_matching_violation_of_repo_is_taken():
    repos = [[violation(Category.USELESS, "a.java", 3),
              violation(Category.USELESS, "a.java", 9)]]
    picks = stratified_sample(repos, groups=1, seed=0).samples[Category.USELESS]
    assert len(picks) == 1 and picks[0].violation.line == 3


def test_sparse_category_diagnostics():
    repos = repos_with_violations(4)
    repos[1] = [violation(Category.EMPTY_CATCH_BLOCK, "b.java", 1)]
    result = stratified_sample(repos, groups=4, seed=0)
    assert ("EmptyCatchBlock: only 1 of 4 groups had a violation"
            in result.diagnostics)
    assert any(d.startswith("ClassNames: no violations")
               for d in result.diagnostics)


def test_more_groups_than_repos_rejected():
    with pytest.raises(ValueError):
        stratified_sample(repos_with_violations(3), groups=31, seed=0)
