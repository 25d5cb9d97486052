"""Git history sampling against purpose-built throwaway repositories."""

import json
import os
import subprocess
from collections import Counter
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from javastyle import analysis
from javastyle.analysis import AnalysisConfig, analyze_repository
from javastyle.cli import main
from javastyle.history import (CommitRecord, EvolutionSample, HistoryError,
                               check_eligibility, evolve, list_commits,
                               monthly_activity, select_monthly_commit,
                               spacing_report, window_labels)
from javastyle.report import evolution_rows

UTC = timezone.utc
AS_OF = datetime(2024, 7, 1, tzinfo=UTC)


def at(year, month, day, hour=12):
    return datetime(year, month, day, hour, tzinfo=UTC)


def commit(day_stamp: datetime, suffix="a"):
    return CommitRecord(f"{day_stamp:%Y%m%d%H%M}{suffix}", day_stamp)


# --- pure selection logic ----------------------------------------------------


def test_nearest_day_fifteen_wins():
    chosen = select_monthly_commit([
        commit(at(2024, 1, 2)), commit(at(2024, 1, 10)),
        commit(at(2024, 1, 27)),
    ])
    assert chosen.timestamp.day == 10


def test_distance_tie_goes_to_earlier_commit():
    chosen = select_monthly_commit([
        commit(at(2024, 1, 16)), commit(at(2024, 1, 14)),
    ])
    assert chosen.timestamp.day == 14


def test_exact_mid_month_commit_selected():
    chosen = select_monthly_commit([
        commit(at(2024, 1, 1)), commit(at(2024, 1, 15)),
        commit(at(2024, 1, 31)),
    ])
    assert chosen.timestamp.day == 15


def test_same_day_tie_broken_by_time_then_id():
    early = CommitRecord("bbb", at(2024, 1, 15, hour=8))
    late = CommitRecord("aaa", at(2024, 1, 15, hour=20))
    assert select_monthly_commit([late, early]) is early
    twin_a = CommitRecord("aaa", at(2024, 1, 15))
    twin_b = CommitRecord("bbb", at(2024, 1, 15))
    assert select_monthly_commit([twin_b, twin_a]) is twin_a


def test_empty_month_rejected():
    with pytest.raises(HistoryError):
        select_monthly_commit([])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=28),
                min_size=1, max_size=20))
def test_selection_minimizes_mid_month_distance(days):
    commits = [commit(at(2024, 3, d), suffix=f"x{i}")
               for i, d in enumerate(days)]
    chosen = select_monthly_commit(commits)
    best = min(abs(d - 15) for d in days)
    assert abs(chosen.timestamp.day - 15) == best


# --- window and activity -------------------------------------------------------


def test_window_is_twelve_full_months_before_as_of():
    labels = window_labels(AS_OF, 12)
    assert labels[0] == "2023-07" and labels[-1] == "2024-06"
    assert len(labels) == 12
    assert "2024-07" not in labels  # the as-of month itself is excluded


def test_window_crosses_year_boundary():
    assert window_labels(datetime(2024, 2, 10, tzinfo=UTC), 4) == [
        "2023-10", "2023-11", "2023-12", "2024-01"]


def test_monthly_activity_reports_silent_months():
    commits = [commit(at(2024, 3, 5)), commit(at(2024, 3, 20), "b"),
               commit(at(2024, 5, 1))]
    counts = monthly_activity(commits, AS_OF, months=4)
    assert counts == {"2024-03": 2, "2024-04": 0,
                      "2024-05": 1, "2024-06": 0}


# --- eligibility ---------------------------------------------------------------


def monthly_commits(start_year, start_month, n):
    out = []
    index = start_year * 12 + start_month - 1
    for i in range(n):
        y, m = divmod(index + i, 12)
        out.append(commit(at(y, m + 1, 15), suffix=f"m{i}"))
    return out


def test_old_active_repo_is_eligible():
    commits = monthly_commits(2020, 1, 54)  # through 2024-06
    result = check_eligibility(commits, AS_OF)
    assert result.eligible and result.reasons == []


def test_young_repo_rejected_with_age_reason():
    commits = monthly_commits(2023, 1, 18)  # 18 months before 2024-07
    result = check_eligibility(commits, AS_OF)
    assert not result.eligible
    assert result.reasons == [
        "age: first commit in 2023-01 is 18 months before 2024-07, need 36"]


def test_gap_repo_rejected_with_named_months():
    commits = [c for c in monthly_commits(2020, 1, 54)
               if c.timestamp.strftime("%Y-%m") not in ("2023-09", "2024-02")]
    result = check_eligibility(commits, AS_OF)
    assert not result.eligible
    assert result.reasons == [
        "activity gap: no commits in 2023-09, 2024-02"]


def test_empty_history_rejected():
    result = check_eligibility([], AS_OF)
    assert not result.eligible and result.reasons == ["no commit history"]


def test_both_reasons_reported_together():
    commits = [commit(at(2024, 1, 15))]
    result = check_eligibility(commits, AS_OF)
    assert len(result.reasons) == 2
    assert result.reasons[0].startswith("age:")
    assert result.reasons[1].startswith("activity gap:")


# --- spacing -------------------------------------------------------------------


def test_mid_month_picks_are_comfortably_spaced():
    picks = [commit(at(2024, m, 15), suffix=f"s{m}") for m in range(1, 13)]
    gap = spacing_report(picks)
    assert 28 <= gap <= 31


def test_adjacent_month_edges_can_be_close():
    picks = [commit(at(2024, 1, 28)), commit(at(2024, 2, 3), "b")]
    assert spacing_report(picks) == 6


def test_spacing_undefined_for_single_pick():
    assert spacing_report([commit(at(2024, 1, 15))]) is None
    assert spacing_report([]) is None


# --- repository fixtures ---------------------------------------------------------


def run_git(repo, *args, env_extra=None):
    env = dict(os.environ)
    env.update(env_extra or {})
    subprocess.run(["git", "-C", str(repo), *args], check=True,
                   capture_output=True, env=env)


def make_repo(root):
    root.mkdir()
    subprocess.run(["git", "init", "-q", "-b", "main", str(root)],
                   check=True, capture_output=True)
    run_git(root, "config", "user.email", "dev@example.org")
    run_git(root, "config", "user.name", "Dev")
    return root


def add_commit(repo, when: datetime, files: dict[str, str], message="change"):
    for rel, text in files.items():
        full = repo / rel
        full.parent.mkdir(parents=True, exist_ok=True)
        full.write_text(text, encoding="utf-8")
    run_git(repo, "add", "-A")
    stamp = when.isoformat()
    run_git(repo, "commit", "-q", "-m", message, "--allow-empty",
            env_extra={"GIT_AUTHOR_DATE": stamp, "GIT_COMMITTER_DATE": stamp})


CLEAN_JAVA = ("package p;\nclass Widget {\n  private int size;\n"
              "  int getSize() { return size; }\n}\n")
CATCH_JAVA = ("package p;\nclass Widget {\n  private int size;\n"
              "  int getSize() { return size; }\n"
              "  void poke() { try { hashCode(); }"
              " catch (Exception e) {} }\n}\n")


def build_history_repo(tmp_path, months=40, step_month=None):
    """One commit on the 15th of each month; optional content change."""
    repo = make_repo(tmp_path / "repo")
    start = 2021 * 12 + 0  # 2021-01
    for i in range(months):
        y, m = divmod(start + i, 12)
        body = CATCH_JAVA if step_month is not None and i >= step_month \
            else CLEAN_JAVA
        add_commit(repo, at(y, m + 1, 15),
                   {"src/p/Widget.java": body}, f"month {i}")
    return repo


def test_list_commits_is_chronological(tmp_path):
    repo = make_repo(tmp_path / "repo")
    add_commit(repo, at(2024, 1, 10), {"a.txt": "1"})
    add_commit(repo, at(2024, 1, 2), {"a.txt": "2"})
    add_commit(repo, at(2024, 2, 5), {"a.txt": "3"})
    commits = list_commits(str(repo))
    stamps = [c.timestamp for c in commits]
    assert stamps == sorted(stamps)
    # commit dates beat log order: the backdated commit sorts first
    assert [c.timestamp.day for c in commits] == [2, 10, 5]


def test_list_commits_normalizes_to_utc(tmp_path):
    repo = make_repo(tmp_path / "repo")
    add_commit(repo, datetime(2024, 1, 10, 23, 30,
                              tzinfo=timezone(timedelta(hours=-5))),
               {"a.txt": "1"})
    commits = list_commits(str(repo))
    assert commits[0].timestamp == datetime(2024, 1, 11, 4, 30, tzinfo=UTC)
    assert commits[0].timestamp.tzinfo == UTC


def test_evolve_dates_commits_by_author_not_committer(tmp_path):
    # A commit authored in April but committed (say, rebased) in May
    # belongs to April, as the README specifies.
    repo = make_repo(tmp_path / "repo")
    (repo / "a.txt").write_text("1", encoding="utf-8")
    run_git(repo, "add", "-A")
    run_git(repo, "commit", "-q", "-m", "rebased",
            env_extra={"GIT_AUTHOR_DATE": at(2024, 4, 15).isoformat(),
                       "GIT_COMMITTER_DATE": at(2024, 5, 20).isoformat()})
    add_commit(repo, at(2024, 5, 10), {"a.txt": "2"})
    assert [c.timestamp for c in list_commits(str(repo))] == [
        at(2024, 4, 15), at(2024, 5, 10)]
    samples = evolve(str(repo), lambda p: ([], 0.0),
                     months=3, as_of=at(2024, 7, 1), force=True)
    picked = {s.month_label: s.commit and s.commit.timestamp
              for s in samples}
    assert picked == {"2024-04": at(2024, 4, 15), "2024-05": at(2024, 5, 10),
                      "2024-06": None}


def counting_analyzer(calls):
    def analyze(path):
        calls.append(sorted(
            os.path.join(dirpath, f)
            for dirpath, _, files in os.walk(path)
            for f in files if f.endswith(".java")))
        with open(os.path.join(path, "src/p/Widget.java")) as fh:
            has_catch = "catch" in fh.read()
        return [], 1.0 if has_catch else 0.0
    return analyze


def test_evolve_walks_window_in_order(tmp_path):
    repo = build_history_repo(tmp_path, months=42, step_month=36)
    calls = []
    samples = evolve(str(repo), counting_analyzer(calls),
                     as_of=at(2024, 7, 1))
    assert [s.month_label for s in samples] == window_labels(
        at(2024, 7, 1), 12)
    assert all(not s.failed for s in samples)
    assert all(s.commit.timestamp.day == 15 for s in samples)
    # content change lands in month index 36 = 2024-01
    totals = {s.month_label: s.total_normalized for s in samples}
    assert totals["2023-12"] == 0.0 and totals["2024-01"] == 1.0


def test_evolve_restores_branch_and_tree(tmp_path):
    repo = build_history_repo(tmp_path, months=42)
    head_before = subprocess.run(
        ["git", "-C", str(repo), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=True).stdout.strip()
    evolve(str(repo), lambda p: ([], 0.0), as_of=at(2024, 7, 1))
    head_after = subprocess.run(
        ["git", "-C", str(repo), "rev-parse", "HEAD"],
        capture_output=True, text=True, check=True).stdout.strip()
    branch = subprocess.run(
        ["git", "-C", str(repo), "symbolic-ref", "--short", "HEAD"],
        capture_output=True, text=True, check=True).stdout.strip()
    assert head_after == head_before
    assert branch == "main"
    status = subprocess.run(
        ["git", "-C", str(repo), "status", "--porcelain"],
        capture_output=True, text=True, check=True).stdout
    assert status == ""


def test_evolve_twice_gives_identical_samples(tmp_path):
    repo = build_history_repo(tmp_path, months=42)
    runs = []
    for _ in range(2):
        samples = evolve(str(repo), lambda p: ([], 0.5), as_of=at(2024, 7, 1))
        runs.append([(s.month_label, s.commit.id) for s in samples])
    assert runs[0] == runs[1]


def test_evolve_refuses_dirty_tree(tmp_path):
    repo = build_history_repo(tmp_path, months=42)
    (repo / "scratch.txt").write_text("wip", encoding="utf-8")
    with pytest.raises(HistoryError, match="uncommitted"):
        evolve(str(repo), lambda p: ([], 0.0), as_of=at(2024, 7, 1))


def test_evolve_rejects_ineligible_repo(tmp_path):
    repo = make_repo(tmp_path / "repo")
    add_commit(repo, at(2024, 5, 15), {"a.txt": "1"})
    with pytest.raises(HistoryError, match="not eligible"):
        evolve(str(repo), lambda p: ([], 0.0), as_of=at(2024, 7, 1))


def test_force_overrides_eligibility_and_marks_gaps(tmp_path):
    repo = make_repo(tmp_path / "repo")
    add_commit(repo, at(2024, 5, 15), {"a.txt": "1"})
    samples = evolve(str(repo), lambda p: ([], 0.25),
                     months=3, as_of=at(2024, 7, 1), force=True)
    assert [s.month_label for s in samples] == [
        "2024-04", "2024-05", "2024-06"]
    assert [s.failed for s in samples] == [True, False, True]
    empty = samples[0]
    assert empty.commit is None and empty.error == "no commits in month"
    assert samples[1].total_normalized == 0.25


def test_evolve_continues_after_analyzer_failure(tmp_path):
    repo = build_history_repo(tmp_path, months=42)

    def flaky(path):
        flaky.count += 1
        if flaky.count == 3:
            raise RuntimeError("synthetic analyzer crash")
        return [], 0.0
    flaky.count = 0

    samples = evolve(str(repo), flaky, as_of=at(2024, 7, 1))
    assert len(samples) == 12
    failed = [s for s in samples if s.failed]
    assert len(failed) == 1
    assert "synthetic analyzer crash" in failed[0].error
    assert failed[0].commit is not None
    # later months still analyzed
    assert not samples[-1].failed


def test_evolve_restores_even_when_analyzer_raises(tmp_path):
    repo = build_history_repo(tmp_path, months=42)
    evolve(str(repo), lambda p: (_ for _ in ()).throw(RuntimeError("boom")),
           as_of=at(2024, 7, 1))
    branch = subprocess.run(
        ["git", "-C", str(repo), "symbolic-ref", "--short", "HEAD"],
        capture_output=True, text=True, check=True).stdout.strip()
    assert branch == "main"


def test_selected_commits_from_sparse_months(tmp_path):
    repo = make_repo(tmp_path / "repo")
    # three years of padding so the repo is old enough
    for i in range(36):
        y, m = divmod(2021 * 12 + i, 12)
        add_commit(repo, at(y, m + 1, 15), {"a.txt": str(i)})
    # window months with several commits each at known days
    days = {1: (2, 10, 27), 2: (14, 16), 3: (15,), 4: (1, 30),
            5: (5, 24), 6: (13, 18)}
    for m, dd in days.items():
        for d in dd:
            add_commit(repo, at(2024, m, d), {"a.txt": f"{m}-{d}"})
    samples = evolve(str(repo), lambda p: ([], 0.0),
                     months=6, as_of=at(2024, 7, 1))
    picked = {s.month_label: s.commit.timestamp.day for s in samples}
    assert picked == {"2024-01": 10, "2024-02": 14, "2024-03": 15,
                      "2024-04": 1, "2024-05": 24, "2024-06": 13}
    gap = spacing_report([s.commit for s in samples])
    assert gap is not None and gap >= 10


# --- parse reuse across snapshots ---------------------------------------------

BASE_RUN = "package p;\npublic class Base {\n  public void run() {}\n}\n"
BASE_GO = "package p;\npublic class Base {\n  public void go() {}\n}\n"
CHILD = ("package p;\npublic class Child extends Base {\n"
         "  public void run() {}\n}\n")
BROKEN = "package p;\nclass Widget {\n  void f( {\n}\n"
GENERATED = "package gen;\nclass lower_case {}\n"


def test_evolve_parses_each_file_version_once(tmp_path, monkeypatch,
                                              capsysbinary):
    # One commit a month, each month changing the tree in another way. The
    # Child's missing @Override depends on Base, so a reused model must
    # still be checked against the current snapshot's other files.
    repo = make_repo(tmp_path / "repo")
    months = [
        {"src/p/Base.java": BASE_RUN, "src/p/Child.java": CHILD,
         "src/p/Widget.java": CLEAN_JAVA, "src/p/Old.java": GENERATED,
         "src/p/Gone.java": CATCH_JAVA.replace("Widget", "Gone"),
         "src/gen/Gen.java": GENERATED},
        {"src/p/Base.java": BASE_GO},                   # edited
        {"src/p/Old.java": None, "src/p/New.java": GENERATED,  # renamed
         "src/p/Gone.java": None},                      # deleted
        {"src/p/Widget.java": BROKEN},                  # syntax error
        {"src/gen/Gen.java": GENERATED + "\n"},         # excluded edit
        {"src/p/Widget.java": CATCH_JAVA},              # fixed
    ]
    for i, change in enumerate(months):
        for rel, text in change.items():
            if text is None:
                (repo / rel).unlink()
        add_commit(repo, at(2024, i + 1, 15),
                   {rel: text for rel, text in change.items()
                    if text is not None})

    parse = analysis.parse_compilation_unit
    parsed = []

    def counting_parse(text, path):
        parsed.append((path, text))
        return parse(text, path)

    monkeypatch.setattr(analysis, "parse_compilation_unit", counting_parse)
    code = main(["evolve", str(repo), "--as-of", "2024-07-01", "--months",
                 str(len(months)), "--force", "--exclude", "src/gen"])
    assert code == 0
    rows = json.loads(capsysbinary.readouterr().out)["samples"]
    reused_parses = Counter(parsed)

    config = AnalysisConfig(excludes=("src/gen",))
    parsed.clear()
    diagnostics = []
    try:
        for row in rows:
            run_git(repo, "checkout", "--quiet", row["commit"])
            fresh = analyze_repository(str(repo), config)
            diagnostics.append(fresh.diagnostics)
            commit = CommitRecord(row["commit"],
                                  datetime.fromisoformat(row["timestamp"]))
            assert row == evolution_rows([EvolutionSample(
                row["month"], commit, fresh.scores,
                fresh.total_normalized)])[0]
    finally:
        run_git(repo, "checkout", "--quiet", "main")

    assert len(rows) == len(months)
    assert [bool(d) for d in diagnostics] == [False] * 3 + [True] * 2 + [False]
    assert len({row["totalNormalized"] for row in rows}) > 2
    assert not any(path.startswith("src/gen/") for path, _ in reused_parses)
    # Five files at first, then one new version in months 2, 3, 4 and 6.
    assert reused_parses == Counter(set(parsed))
    assert len(reused_parses) == 9
