"""Git history replay with monthly commit sampling.

Walks the first-parent history of a repository, buckets commits into
UTC calendar months, picks the commit nearest day 15 of each month in
the window, and analyzes every selected snapshot in chronological
order. Snapshots are read from the object store through one
`git cat-file --batch` child, never checked out: the work tree, the
index and HEAD stay as they are. Tree objects are parsed once per tree
id, so a month whose directories did not change lists its files for
free, and a blob is fetched only when the analyzer asks for it.
"""

from __future__ import annotations

import subprocess
from datetime import datetime, timezone
from typing import Callable, Iterator, NamedTuple

from .discovery import WalkStep, select_sources
from .scoring import CategoryScore

MIN_AGE_MONTHS = 36
DEFAULT_WINDOW_MONTHS = 12

AnalyzeFn = Callable[["TreeSnapshot"], "tuple[list[CategoryScore], float]"]

# Tree entry modes: a subdirectory, and regular (or executable) files.
# Symlinks and submodules are neither and are not followed.
_TREE_MODE = b"40000"
_FILE_MODES = frozenset({b"100644", b"100755"})

# A tree's subdirectories and its regular files, as (name, id) pairs.
TreeEntries = tuple[list[tuple[str, str]], list[tuple[str, str]]]


class HistoryError(Exception):
    """Raised when git interaction or sampling preconditions fail."""


class CommitRecord(NamedTuple):
    id: str
    timestamp: datetime


class EligibilityResult(NamedTuple):
    eligible: bool
    reasons: list[str]


class EvolutionSample(NamedTuple):
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


class ObjectReader:
    """One `git cat-file --batch` child that reads objects by name.

    Parsed trees are kept by tree id for the reader's lifetime. Use as a
    context manager: leaving it closes and reaps the child.
    """

    def __init__(self, repo_path: str) -> None:
        self._proc = subprocess.Popen(
            ["git", "-C", repo_path, "cat-file", "--batch"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL)
        self._trees: dict[str, TreeEntries] = {}

    def __enter__(self) -> "ObjectReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close the pipes and reap the child; it exits on end of input."""
        proc = self._proc
        for pipe in (proc.stdin, proc.stdout):
            try:
                pipe.close()
            except OSError:  # the child is gone and a write was pending
                pass
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def read(self, name: str, kind: str) -> tuple[str, bytes]:
        """The id and content of the object `name` (any revision
        expression git accepts), which must be of type `kind`."""
        proc = self._proc
        try:
            proc.stdin.write(name.encode() + b"\n")
            proc.stdin.flush()
        except OSError as exc:
            raise HistoryError(f"git cat-file stopped: {exc}") from None
        header = proc.stdout.readline().split()
        if len(header) != 3:
            reason = b" ".join(header[1:]).decode(errors="replace")
            raise HistoryError(f"cannot read {name}: "
                               f"{reason or 'git cat-file stopped'}")
        oid, found, size = header
        data = proc.stdout.read(int(size) + 1)  # the content, then LF
        if len(data) != int(size) + 1:
            raise HistoryError(f"cannot read {name}: git cat-file stopped")
        if found.decode() != kind:
            raise HistoryError(f"{name} is a {found.decode()}, not a {kind}")
        return oid.decode(), data[:-1]

    def tree(self, name: str) -> tuple[str, TreeEntries]:
        """The id of the tree `name` names and its entries. A tree id
        seen before is answered without reading the object again."""
        entries = self._trees.get(name)
        if entries is not None:
            return name, entries
        oid, data = self.read(name, "tree")
        if oid not in self._trees:
            self._trees[oid] = _parse_tree(data, len(oid) // 2)
        return oid, self._trees[oid]


def _parse_tree(data: bytes, id_size: int) -> TreeEntries:
    """Split a binary tree object: entries of `<mode> <name>\\0<id>`."""
    dirs: list[tuple[str, str]] = []
    files: list[tuple[str, str]] = []
    i = 0
    while i < len(data):
        space = data.index(b" ", i)
        nul = data.index(b"\0", space)
        mode = data[i:space]
        end = nul + 1 + id_size
        entry = (data[space + 1:nul].decode("utf-8", "surrogateescape"),
                 data[nul + 1:end].hex())
        if mode == _TREE_MODE:
            dirs.append(entry)
        elif mode in _FILE_MODES:
            files.append(entry)
        i = end
    return dirs, files


class TreeSnapshot:
    """The sources of one commit's tree, read through an ObjectReader.

    Satisfies analysis.Snapshot: discovery selects among the tree's files
    as it would in a checkout of the commit, and each file's blob id is
    its version. It is read only in the process that made it, so it is
    analyzed with `jobs` 1: `read` talks to the reader's one `git
    cat-file` child, and a forked worker would share that child's pipes
    with this process, mixing their requests and answers.
    """

    def __init__(self, reader: ObjectReader, tree_id: str) -> None:
        self.reader = reader
        self.tree_id = tree_id

    def sources(self, excludes: tuple[str, ...]) -> list[tuple[str, str]]:
        blobs: dict[str, str] = {}
        selected = select_sources(self._walk(blobs), excludes)
        return [(rel, blobs[rel]) for rel in selected]

    def _walk(self, blobs: dict[str, str]) -> Iterator[WalkStep]:
        """Top-down walk like os.walk, honouring pruning; records the
        blob id of every file path it lists."""
        stack = [("", self.tree_id)]
        while stack:
            rel, tree_id = stack.pop()
            _, (dirs, files) = self.reader.tree(tree_id)
            prefix = rel + "/" if rel else ""
            for name, oid in files:
                blobs[prefix + name] = oid
            dirnames = [name for name, _ in dirs]
            yield rel, dirnames, [name for name, _ in files]
            stack.extend((prefix + name, oid) for name, oid in dirs
                         if name in dirnames)

    def read(self, rel: str, blob: str) -> bytes:
        return self.reader.read(blob, "blob")[1]


def evolve(repo_path: str, analyze_fn: AnalyzeFn,
           months: int = DEFAULT_WINDOW_MONTHS,
           as_of: datetime | None = None,
           force: bool = False) -> list[EvolutionSample]:
    """Analyze one selected commit per window month, oldest to newest.

    `analyze_fn` receives each month's TreeSnapshot: the commit's tree at
    `repo_path`'s place in the repository. The work tree is never read,
    so its state does not matter, and a bare repository replays too.
    Failures to read or analyze a snapshot mark the month's sample failed
    and the series continues. `force` skips the age/activity eligibility gate.
    """
    as_of = as_of or datetime.now(timezone.utc)
    commits = list_commits(repo_path)
    if not force:
        eligibility = check_eligibility(commits, as_of, window=months)
        if not eligibility.eligible:
            raise HistoryError("repository not eligible: "
                               + "; ".join(eligibility.reasons))

    by_month: dict[str, list[CommitRecord]] = {}
    for commit in commits:
        by_month.setdefault(month_label(commit.timestamp), []).append(commit)

    # `<commit>:<prefix>` names the tree at repo_path; `:` alone is the root.
    prefix = _git(repo_path, "rev-parse", "--show-prefix").rstrip("\n")
    samples: list[EvolutionSample] = []
    with ObjectReader(repo_path) as reader:
        for label in window_labels(as_of, months):
            month_commits = by_month.get(label, [])
            if not month_commits:
                samples.append(EvolutionSample(
                    label, None, [], 0.0, True, "no commits in month"))
                continue
            commit = select_monthly_commit(month_commits)
            try:
                tree_id, _ = reader.tree(f"{commit.id}:{prefix}")
                scores, total = analyze_fn(TreeSnapshot(reader, tree_id))
            except Exception as exc:
                samples.append(EvolutionSample(
                    label, commit, [], 0.0, True, str(exc)))
                continue
            samples.append(EvolutionSample(label, commit, scores, total))
    return samples
