"""Git history sampling against purpose-built throwaway repositories."""

import json
import os
import random
import subprocess
from collections import Counter
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from javastyle import analysis, workers
from javastyle.analysis import (MIN_FILES_PER_WORKER, AnalysisConfig,
                                analyze_repository)
from javastyle.cli import main
from javastyle.discovery import discover_sources
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


def add_commit(repo, when: datetime, files: dict[str, str | bytes],
               message="change"):
    for rel, text in files.items():
        full = repo / rel
        full.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(text, bytes):
            full.write_bytes(text)
        else:
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
    def analyze(snapshot):
        files = dict(snapshot.sources())
        calls.append(sorted(files))
        text = snapshot.read("src/p/Widget.java", files["src/p/Widget.java"])
        return [], 1.0 if b"catch" in text else 0.0
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
    assert calls == [["src/p/Widget.java"]] * 12
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

    def flaky(snapshot):
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


# One commit a month, each month changing the tree in another way. The
# Child's missing @Override depends on Base, so a reused model must still
# be checked against the current snapshot's other files.
CHANGING_MONTHS = [
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


def build_changing_repo(tmp_path, months=CHANGING_MONTHS):
    """One commit on the 15th of each month of 2024 from January; a None
    text deletes the file, bytes are written as they are."""
    repo = make_repo(tmp_path / "repo")
    for i, change in enumerate(months):
        for rel, text in change.items():
            if text is None:
                (repo / rel).unlink()
        add_commit(repo, at(2024, i + 1, 15),
                   {rel: text for rel, text in change.items()
                    if text is not None})
    return repo


def test_evolve_parses_each_file_version_once(tmp_path, monkeypatch,
                                              capsysbinary):
    repo = build_changing_repo(tmp_path)
    months = CHANGING_MONTHS

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
    for row in rows:
        tree = tmp_path / row["commit"]
        extract_commit(repo, row["commit"], tree)
        fresh = analyze_repository(str(tree), config)
        diagnostics.append(fresh.diagnostics)
        commit = CommitRecord(row["commit"],
                              datetime.fromisoformat(row["timestamp"]))
        assert row == evolution_rows([EvolutionSample(
            row["month"], commit, fresh.scores,
            fresh.total_normalized)])[0]

    assert len(rows) == len(months)
    assert [bool(d) for d in diagnostics] == [False] * 3 + [True] * 2 + [False]
    assert len({row["totalNormalized"] for row in rows}) > 2
    assert not any(path.startswith("src/gen/") for path, _ in reused_parses)
    # Five files at first, then one new version in months 2, 3, 4 and 6.
    assert reused_parses == Counter(set(parsed))
    assert len(reused_parses) == 9


# --- replay reads git objects and leaves the repository alone ----------------


def git_out(repo, *args) -> str:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def extract_commit(repo, commit_id, dest):
    """The commit's tree as `git archive` writes it, unpacked into dest."""
    archive = subprocess.run(["git", "-C", str(repo), "archive", commit_id],
                             check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def replay(repo, months, as_of=AS_OF, config=AnalysisConfig()):
    """Evolve as the CLI does; returns the samples and each analyzed
    month's full result."""
    reuse, results = {}, []

    def analyze_fn(snapshot):
        result = analyze_repository(snapshot, config, reuse=reuse)
        results.append(result)
        return result.scores, result.total_normalized

    samples = evolve(str(repo), analyze_fn, months=months, as_of=as_of,
                     force=True)
    return samples, results


def assert_months_match_archives(repo, tmp_path, months, as_of=AS_OF,
                                 config=AnalysisConfig()):
    samples, results = replay(repo, months, as_of, config)
    analyzed = [s for s in samples if not s.failed]
    assert len(analyzed) == len(results) > 0
    for sample, memoized in zip(analyzed, results):
        dest = tmp_path / f"archive-{sample.commit.id}"
        extract_commit(repo, sample.commit.id, dest)
        fresh = analyze_repository(str(dest), config)
        assert memoized.paths == fresh.paths
        assert memoized.violations == fresh.violations
        assert memoized.counts == fresh.counts
        assert memoized.diagnostics == fresh.diagnostics
        assert memoized.scores == fresh.scores
        assert memoized.total_normalized == fresh.total_normalized
        assert memoized.verdict == fresh.verdict
    return results


def test_memoized_months_equal_fresh_archives_of_stepped_history(tmp_path):
    repo = build_history_repo(tmp_path, months=42, step_month=36)
    assert_months_match_archives(repo, tmp_path, 12)


def test_memoized_months_equal_fresh_archives_of_changing_tree(tmp_path):
    # Without the exclude, src/gen declares a type twice in some months.
    repo = build_changing_repo(tmp_path)
    for excludes in ((), ("src/gen",)):
        results = assert_months_match_archives(
            repo, tmp_path / f"x{len(excludes)}", len(CHANGING_MONTHS),
            config=AnalysisConfig(excludes=excludes))
        assert len(results) == len(CHANGING_MONTHS)
    assert [bool(r.diagnostics) for r in results] == [
        False] * 3 + [True] * 2 + [False]


def java_class(name: str, version: int, parent: str | None) -> str:
    extends = f" extends {parent}" if parent else ""
    return (f"package p;\npublic class {name}{extends} {{\n"
            f"  private int field{version};\n"
            "  public void run() { try { go(); } catch (Exception e) {} }\n"
            f"  public static int go() {{ return {version}; }}\n}}\n")


def generated_months(seed: int, count: int = 8) -> list[dict]:
    """Month-by-month changes of a small tree: files added, edited,
    deleted and renamed, some not UTF-8, some with syntax errors, some
    with CRLF or lone-CR line ends. Classes extend one another, so the
    cross-file checks of unchanged files change too."""
    rng = random.Random(seed)
    live: dict[str, bytes] = {}
    months = []
    for month in range(count):
        before = dict(live)
        for _ in range(rng.randint(1, 3)):
            op = rng.choice(["add", "edit", "delete", "rename", "latin1",
                             "broken", "crlf", "cr"]) if live else "add"
            rel = rng.choice(sorted(live)) if live else None
            name = f"C{month}x{len(live)}x{rng.randrange(100)}"
            if op == "add":
                parents = [p.rsplit("/", 1)[1][:-5] for p in live]
                parent = rng.choice(parents + [None])
                live[f"src/p/{name}.java"] = java_class(
                    name, month, parent).encode()
            elif op == "edit":
                live[rel] = live[rel].replace(b"return", b"return 1 +")
            elif op == "delete":
                del live[rel]
            elif op == "rename":
                live[f"src/p/{name}.java"] = live.pop(rel)
            elif op == "latin1":
                live[rel] = live[rel] + "// caf\xe9\n".encode("latin-1")
            elif op == "broken":
                live[rel] = live[rel].replace(b"{", b"(", 1)
            else:
                eol = b"\r\n" if op == "crlf" else b"\r"
                live[rel] = live[rel].replace(b"\n", eol)
        change = {rel: None for rel in before if rel not in live}
        change.update({rel: data for rel, data in live.items()
                       if before.get(rel) != data})
        months.append(change)
    return months


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_memoized_months_equal_fresh_archives_of_generated_history(
        tmp_path, seed):
    months = generated_months(seed)
    repo = build_changing_repo(tmp_path, months)
    as_of = at(2024, len(months) + 1, 1)
    results = assert_months_match_archives(repo, tmp_path, len(months), as_of)
    assert len(results) == len(months)


def test_replay_leaves_head_branch_index_and_work_tree_alone(tmp_path):
    repo = build_changing_repo(tmp_path)
    head = git_out(repo, "rev-parse", "HEAD")
    committed = {rel: subprocess.run(
                     ["git", "-C", str(repo), "show", f"HEAD:{rel}"],
                     check=True, capture_output=True).stdout
                 for rel in git_out(repo, "ls-files").split("\n")}

    def inspecting(snapshot):
        assert git_out(repo, "rev-parse", "HEAD") == head
        assert git_out(repo, "symbolic-ref", "--short", "HEAD") == "main"
        assert git_out(repo, "status", "--porcelain") == ""
        on_disk = {path.relative_to(repo).as_posix(): path.read_bytes()
                   for path in repo.rglob("*")
                   if path.is_file() and ".git" not in path.parts}
        assert on_disk == committed
        inspecting.months += 1
        return [], 0.0
    inspecting.months = 0

    samples = evolve(str(repo), inspecting, months=6, as_of=AS_OF,
                     force=True)
    assert [s.failed for s in samples] == [False] * 6
    assert inspecting.months == 6


@pytest.fixture
def started(monkeypatch):
    """Every subprocess.Popen started while the test runs."""
    procs = []

    class RecordingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            procs.append(self)

    monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
    return procs


def test_interrupted_replay_keeps_the_branch_and_reaps_git(tmp_path,
                                                           started):
    repo = build_history_repo(tmp_path, months=42)

    def interrupt(snapshot):
        snapshot.read("src/p/Widget.java", dict(snapshot.sources())[
            "src/p/Widget.java"])
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        evolve(str(repo), interrupt, as_of=AS_OF)
    readers = [p for p in started if "cat-file" in p.args]
    assert len(readers) == 1
    assert all(p.poll() is not None for p in started)
    assert git_out(repo, "symbolic-ref", "--short", "HEAD") == "main"
    assert git_out(repo, "status", "--porcelain") == ""


def test_replay_starts_a_bounded_number_of_processes(tmp_path, started):
    repo = build_history_repo(tmp_path, months=42, step_month=36)
    counts = []
    for months in (1, 12):
        started.clear()
        samples, _ = replay(repo, months)
        assert not any(s.failed for s in samples)
        counts.append(len(started))
    assert counts[0] == counts[1] <= 4


def test_replay_never_starts_workers(tmp_path, monkeypatch, capsysbinary):
    # TreeSnapshot.read talks to the replay's one git cat-file child,
    # which a forked worker must never use.
    def refuse(*args, **kwargs):
        raise AssertionError("evolve started worker processes")

    monkeypatch.setattr(workers, "map_in_processes", refuse)
    repo = make_repo(tmp_path / "repo")
    add_commit(repo, at(2024, 5, 15), {
        f"src/p/C{n}.java": java_class(f"C{n}", 0, None)
        for n in range(2 * MIN_FILES_PER_WORKER)})
    add_commit(repo, at(2024, 6, 15),
               {"src/p/C0.java": java_class("C0", 1, None)})
    assert main(["evolve", str(repo), "--as-of", "2024-07-01",
                 "--months", "2", "--force"]) == 0
    rows = json.loads(capsysbinary.readouterr().out)["samples"]
    assert [row["failed"] for row in rows] == [False, False]


def listing_analyzer(seen):
    """Records the paths each month's snapshot selects."""
    def analyze(snapshot):
        seen.append([rel for rel, _ in snapshot.sources()])
        return [], 0.0
    return analyze


def test_evolve_on_a_subdirectory_analyzes_only_it(tmp_path):
    repo = make_repo(tmp_path / "repo")
    add_commit(repo, at(2024, 4, 15), {"lib/src/p/B.java": CATCH_JAVA})
    add_commit(repo, at(2024, 5, 15), {"app/src/p/A.java": CLEAN_JAVA,
                                       "Top.java": GENERATED})
    add_commit(repo, at(2024, 6, 15), {"app/src/p/C.java": CLEAN_JAVA})
    seen = []
    samples = evolve(str(repo / "app"), listing_analyzer(seen), months=3,
                     as_of=AS_OF, force=True)
    assert [s.failed for s in samples] == [True, False, False]
    assert "app/" in samples[0].error  # no app directory in April
    assert seen == [["src/p/A.java"], ["src/p/A.java", "src/p/C.java"]]


def test_untracked_and_ignored_sources_enter_no_month(tmp_path):
    repo = make_repo(tmp_path / "repo")
    add_commit(repo, at(2024, 6, 15), {".gitignore": "Scratch.java\n",
                                       "src/p/Widget.java": CLEAN_JAVA})
    (repo / "src/p/Scratch.java").write_text(GENERATED, encoding="utf-8")
    seen = []
    evolve(str(repo), listing_analyzer(seen), months=1, as_of=AS_OF,
           force=True)
    assert seen == [["src/p/Widget.java"]]


CR_LINES = ["package p;", "", "class lower_case {", "  private int unused;",
            "  // a comment", "  void f() { int ghost = 1; }", "}", ""]


@pytest.mark.parametrize("eol", ["\r\n", "\r"])
def test_line_ends_give_the_same_lines_on_disk_and_through_blobs(tmp_path,
                                                                 eol):
    def found(result):
        return [(v.category.value, v.line, v.message)
                for v in result.violations]

    reference = tmp_path / "lf"
    reference.mkdir()
    (reference / "A.java").write_bytes("\n".join(CR_LINES).encode())
    want = found(analyze_repository(str(reference)))
    assert ("ClassNames", 3, "type name is not UpperCamelCase") in want
    assert ("Useless", 6, "unused local variable") in want

    data = eol.join(CR_LINES).encode()
    on_disk = tmp_path / "disk"
    on_disk.mkdir()
    (on_disk / "A.java").write_bytes(data)
    assert found(analyze_repository(str(on_disk))) == want

    repo = make_repo(tmp_path / "repo")
    add_commit(repo, at(2024, 6, 15), {"A.java": data})
    _, results = replay(repo, 1)
    assert [found(r) for r in results] == [want]


@pytest.mark.parametrize("files", [
    {"src/main/java/com/app/Main.java": CLEAN_JAVA,
     "src/test/java/com/app/MainTest.java": CLEAN_JAVA,
     "scripts/Tool.java": CLEAN_JAVA, "README.md": "hi"},
    {"core/src/main/java/A.java": CLEAN_JAVA,
     "web/src/test/java/BTest.java": CLEAN_JAVA,
     "target/Gen.java": CLEAN_JAVA, "x/build/Out.java": CLEAN_JAVA},
    {"Main.java": CLEAN_JAVA, "lib/Util.java": CLEAN_JAVA,
     "src/test/Probe.java": CLEAN_JAVA, "lib/target/T.java": CLEAN_JAVA},
    {"src/test/x/src/main/java/T.java": CLEAN_JAVA, "lib/D.java": CLEAN_JAVA},
])
def test_tree_snapshot_selects_what_discovery_selects_on_disk(tmp_path,
                                                              files):
    repo = make_repo(tmp_path / "repo")
    add_commit(repo, at(2024, 6, 15), files)
    seen = []
    samples = evolve(str(repo), listing_analyzer(seen), months=1,
                     as_of=AS_OF, force=True)
    extract_commit(repo, samples[0].commit.id, tmp_path / "tree")
    assert seen == [discover_sources(str(tmp_path / "tree"))]
