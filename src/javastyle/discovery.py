"""Locating Java sources inside a repository tree.

One rule prunes the walk: build output, version control, test sources
(``src/test``) and excluded paths are never listed or read. Maven/Gradle
layouts are preferred: when the walk reaches a ``src/main/java``
directory, only files under such roots are analyzed; one inside a pruned
directory is never reached. This serves a directory and a git tree alike.
"""

from __future__ import annotations

import os
from typing import Iterable

# Directory names never worth descending into.
_SKIP_DIRS = frozenset({".git", "target", "build"})

# One directory of a top-down walk, like os.walk's triples: its path
# relative to the root ("" for the root itself), its subdirectory names,
# which the consumer may prune in place, and its file names.
WalkStep = tuple[str, list[str], list[str]]


def _pruned(path: str, name: str, excluded: frozenset[str]) -> bool:
    """Whether the walk drops the directory or file `name` at `path`."""
    return (name in _SKIP_DIRS or path in excluded
            or ("/" + path).endswith("/src/test"))


def select_sources(walk: Iterable[WalkStep],
                   excludes: Iterable[str] = ()) -> list[str]:
    """Return repo-relative paths (``/`` separators) of the .java files to
    analyze from a top-down walk, in lexicographic order, less the
    `excludes` (repo-relative paths; a trailing ``/`` is ignored).

    Prunes each step's subdirectory list, so the walk must not have
    descended into the pruned directories yet.
    """
    excluded = frozenset(prefix.rstrip("/") for prefix in excludes)
    saw_main_root = False
    found: list[tuple[str, bool]] = []  # (path, under a src/main/java root)
    for rel, dirnames, filenames in walk:
        prefix = rel + "/" if rel else ""
        dirnames[:] = [d for d in dirnames
                       if not _pruned(prefix + d, d, excluded)]
        in_main = "/src/main/java/" in "/" + prefix
        saw_main_root = saw_main_root or in_main
        found.extend((prefix + name, in_main) for name in filenames
                     if name.endswith(".java")
                     and not _pruned(prefix + name, name, excluded))
    return sorted(path for path, in_main in found
                  if in_main or not saw_main_root)


def discover_sources(root: str, excludes: Iterable[str] = ()) -> list[str]:
    """The .java files to analyze under the directory `root`, less
    `excludes`.

    Raises NotADirectoryError when root is not a readable directory.
    """
    if not os.path.isdir(root):
        raise NotADirectoryError(f"not a directory: {root}")
    return select_sources(
        ((_relative(root, dirpath), dirnames, filenames)
         for dirpath, dirnames, filenames in os.walk(root)), excludes)


def _relative(root: str, dirpath: str) -> str:
    rel = os.path.relpath(dirpath, root).replace(os.sep, "/")
    return "" if rel == "." else rel
