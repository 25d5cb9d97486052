"""Shared construction helpers for the test suite."""

from __future__ import annotations

import hashlib

from javastyle.checkers import (ORDERING_CONFIGS, Category, CheckContext,
                                Violation, check_file, check_project)
from javastyle.discovery import select_sources
from javastyle.parser import parse_compilation_unit
from javastyle.project_index import build_project_index, file_record

DEMO_PATH = "src/main/java/demo/Demo.java"


def parse_source(text: str, path: str = DEMO_PATH):
    return parse_compilation_unit(text, path)


def check_files(files: dict[str, str], lexicon, ordering_id: int = 2):
    """Parse and check an in-memory file set, every check as
    analyze_repository runs it; returns (violations, counts)."""
    models = [parse_compilation_unit(text, path)
              for path, text in sorted(files.items())]
    ordering = ORDERING_CONFIGS[ordering_id]
    alone = CheckContext(None, lexicon, ordering)
    records = [file_record(m) for m in models]
    indexed = CheckContext(build_project_index(records), lexicon, ordering)
    violations: list[Violation] = []
    counts = {category: 0 for category in Category}
    for found, inspected in [*(check_file(m, alone) for m in models),
                             check_project(records, indexed)]:
        violations.extend(found)
        for category, n in inspected.items():
            counts[category] += n
    violations.sort(key=Violation.sort_key)
    return violations, counts


def analyze_files(files: dict[str, str], lexicon, ordering_id: int = 2):
    """Parse and check an in-memory file set; returns all violations."""
    return check_files(files, lexicon, ordering_id)[0]


def run_check(check, model, *, index=None, lexicon=None, ordering=None):
    """One check over one model; returns its violations.

    Pass only what the check consults: the project index, the lexicon
    or the ordering config.
    """
    return check(model, CheckContext(index, lexicon, ordering))[0]


def of_category(violations: list[Violation],
                category: Category) -> list[Violation]:
    return [v for v in violations if v.category is category]


def count_of(violations: list[Violation], category: Category) -> int:
    return len(of_category(violations, category))


def write_tree(root, files: dict[str, str]) -> None:
    """Materialize {relative path: content} under a pathlib root."""
    for rel, text in files.items():
        full = root / rel
        full.parent.mkdir(parents=True, exist_ok=True)
        full.write_text(text, encoding="utf-8")


def path_walk(paths):
    """A top-down walk of the directories that hold `paths`, as
    discovery's WalkStep triples; like os.walk, it never enters a
    subdirectory that the consumer pruned."""
    tree = {"": ([], [])}  # directory -> (subdirectory names, file names)
    for path in sorted(paths):
        parent = ""
        *dirs, name = path.split("/")
        for d in dirs:
            rel = parent + "/" + d if parent else d
            if rel not in tree:
                tree[rel] = ([], [])
                tree[parent][0].append(d)
            parent = rel
        tree[parent][1].append(name)
    stack = [""]
    while stack:
        rel = stack.pop()
        dirnames, filenames = list(tree[rel][0]), tree[rel][1]
        yield rel, dirnames, filenames
        stack.extend(rel + "/" + d if rel else d for d in dirnames)


class MemorySnapshot:
    """An in-memory snapshot for analyze_repository: {path: text or bytes},
    selected as discovery selects a tree of those paths, with a content
    hash for each blob id. Counts the files it reads."""

    def __init__(self, files: dict[str, str | bytes]) -> None:
        self.files = {rel: data.encode() if isinstance(data, str) else data
                      for rel, data in files.items()}
        self.reads: list[str] = []

    def sources(self, excludes: tuple[str, ...]) -> list[tuple[str, str]]:
        return [(rel, hashlib.sha1(self.files[rel]).hexdigest())
                for rel in select_sources(path_walk(self.files), excludes)]

    def read(self, rel: str, blob: str) -> bytes:
        self.reads.append(rel)
        return self.files[rel]
