"""Git history replay with monthly commit sampling.

Walks the first-parent history of a repository, buckets commits into
UTC calendar months, picks the commit nearest day 15 of each month in
the window, and analyzes every selected snapshot in chronological
order. The work tree is restored afterward even on failure.
"""

from __future__ import annotations

import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Callable

from .scoring import CategoryScore

MIN_AGE_MONTHS = 36
DEFAULT_WINDOW_MONTHS = 12

AnalyzeFn = Callable[[str], "tuple[list[CategoryScore], float]"]


class HistoryError(Exception):
    """Raised when git interaction or sampling preconditions fail."""


@dataclass(frozen=True)
class CommitRecord:
    id: str
    timestamp: datetime


@dataclass
class EligibilityResult:
    eligible: bool
    reasons: list[str] = field(default_factory=list)


@dataclass
class EvolutionSample:
    month_label: str
    commit: CommitRecord | None
    scores: list[CategoryScore]
    total_normalized: float
    failed: bool = False
    error: str = ""


def _git(repo_path: str, *args: str) -> str:
    proc = subprocess.run(["git", "-C", repo_path, *args],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise HistoryError(f"git {' '.join(args)} failed: "
                           f"{proc.stderr.strip()}")
    return proc.stdout


def list_commits(repo_path: str) -> list[CommitRecord]:
    """First-parent history of HEAD, oldest first, author time in UTC."""
    out = _git(repo_path, "log", "--first-parent", "--format=%H %aI")
    records = []
    for line in out.splitlines():
        line = line.strip()
        if not line:
            continue
        commit_id, _, stamp = line.partition(" ")
        ts = datetime.fromisoformat(stamp).astimezone(timezone.utc)
        records.append(CommitRecord(commit_id, ts))
    records.sort(key=lambda r: (r.timestamp, r.id))
    return records


def _month_index(dt: datetime) -> int:
    return dt.year * 12 + dt.month - 1


def _label_for_index(index: int) -> str:
    return f"{index // 12:04d}-{index % 12 + 1:02d}"


def month_label(dt: datetime) -> str:
    return f"{dt.year:04d}-{dt.month:02d}"


def window_labels(as_of: datetime, months: int) -> list[str]:
    """The `months` full calendar months strictly before as_of's month."""
    end = _month_index(as_of)
    return [_label_for_index(i) for i in range(end - months, end)]


def monthly_activity(commits: list[CommitRecord], as_of: datetime,
                     months: int = DEFAULT_WINDOW_MONTHS) -> dict[str, int]:
    """Commit count per window month; silent months are present with 0."""
    counts = {label: 0 for label in window_labels(as_of, months)}
    for commit in commits:
        label = month_label(commit.timestamp)
        if label in counts:
            counts[label] += 1
    return counts


def check_eligibility(commits: list[CommitRecord], as_of: datetime,
                      window: int = DEFAULT_WINDOW_MONTHS) -> EligibilityResult:
    if not commits:
        return EligibilityResult(False, ["no commit history"])
    reasons = []
    age = _month_index(as_of) - _month_index(commits[0].timestamp)
    if age < MIN_AGE_MONTHS:
        reasons.append(
            f"age: first commit in {month_label(commits[0].timestamp)} is "
            f"{age} months before {month_label(as_of)}, "
            f"need {MIN_AGE_MONTHS}")
    silent = [label for label, count
              in monthly_activity(commits, as_of, window).items()
              if count == 0]
    if silent:
        reasons.append("activity gap: no commits in " + ", ".join(silent))
    return EligibilityResult(not reasons, reasons)


def select_monthly_commit(commits_in_month: list[CommitRecord]) -> CommitRecord:
    """The commit nearest day 15; distance ties go to the earlier commit."""
    if not commits_in_month:
        raise HistoryError("cannot select a commit from an empty month")
    return min(commits_in_month,
               key=lambda c: (abs(c.timestamp.day - 15), c.timestamp, c.id))


def spacing_report(selected: list[CommitRecord]) -> int | None:
    """Minimum calendar-day gap between consecutive selections."""
    if len(selected) < 2:
        return None
    dates = sorted(c.timestamp.date() for c in selected)
    return min((b - a).days for a, b in zip(dates, dates[1:]))


def _current_ref(repo_path: str) -> str:
    proc = subprocess.run(
        ["git", "-C", repo_path, "symbolic-ref", "--quiet", "--short", "HEAD"],
        capture_output=True, text=True)
    if proc.returncode == 0 and proc.stdout.strip():
        return proc.stdout.strip()
    return _git(repo_path, "rev-parse", "HEAD").strip()


def evolve(repo_path: str, analyze_fn: AnalyzeFn,
           months: int = DEFAULT_WINDOW_MONTHS,
           as_of: datetime | None = None,
           force: bool = False) -> list[EvolutionSample]:
    """Analyze one selected commit per window month, oldest to newest.

    Refuses dirty work trees. Checkout or analysis failures mark the
    month's sample failed and the series continues. `force` skips the
    age/activity eligibility gate.
    """
    as_of = as_of or datetime.now(timezone.utc)
    if _git(repo_path, "status", "--porcelain").strip():
        raise HistoryError(
            "refusing to replay history: work tree has uncommitted changes")
    commits = list_commits(repo_path)
    if not force:
        eligibility = check_eligibility(commits, as_of, window=months)
        if not eligibility.eligible:
            raise HistoryError("repository not eligible: "
                               + "; ".join(eligibility.reasons))

    by_month: dict[str, list[CommitRecord]] = {}
    for commit in commits:
        by_month.setdefault(month_label(commit.timestamp), []).append(commit)

    original = _current_ref(repo_path)
    samples: list[EvolutionSample] = []
    try:
        for label in window_labels(as_of, months):
            month_commits = by_month.get(label, [])
            if not month_commits:
                samples.append(EvolutionSample(
                    label, None, [], 0.0, True, "no commits in month"))
                continue
            commit = select_monthly_commit(month_commits)
            try:
                _git(repo_path, "checkout", "--quiet", commit.id)
                scores, total = analyze_fn(repo_path)
            except Exception as exc:
                samples.append(EvolutionSample(
                    label, commit, [], 0.0, True, str(exc)))
                continue
            samples.append(EvolutionSample(label, commit, scores, total))
    finally:
        _git(repo_path, "checkout", "--quiet", original)
    return samples
