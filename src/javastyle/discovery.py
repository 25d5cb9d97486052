"""Locating Java sources inside a repository tree.

Maven/Gradle layouts are preferred: when any ``src/main/java`` directory
exists, only files under those roots are analyzed. Otherwise the whole
tree is scanned, minus test sources and build output. The same selection
serves a directory on disk and a tree of a git commit.
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


def select_sources(walk: Iterable[WalkStep]) -> list[str]:
    """Return repo-relative paths (``/`` separators) of the .java files to
    analyze from a top-down walk, in lexicographic order.

    Prunes the skipped directories from each step's subdirectory list, so
    the walk must not have descended into them yet.
    """
    saw_main_root = False
    found: list[tuple[str, bool]] = []  # (path, under a src/main/java root)
    for rel, dirnames, filenames in walk:
        dirnames[:] = [d for d in dirnames if d not in _SKIP_DIRS]
        prefix = rel + "/" if rel else ""
        in_main = "/src/main/java/" in "/" + prefix
        saw_main_root = saw_main_root or in_main
        if "/src/test/" not in "/" + prefix:
            found.extend((prefix + name, in_main)
                         for name in filenames if name.endswith(".java"))
    return sorted(path for path, in_main in found
                  if in_main or not saw_main_root)


def discover_sources(root: str) -> list[str]:
    """The .java files to analyze under the directory `root`.

    Raises NotADirectoryError when root is not a readable directory.
    """
    if not os.path.isdir(root):
        raise NotADirectoryError(f"not a directory: {root}")
    return select_sources(
        (_relative(root, dirpath), dirnames, filenames)
        for dirpath, dirnames, filenames in os.walk(root))


def _relative(root: str, dirpath: str) -> str:
    rel = os.path.relpath(dirpath, root).replace(os.sep, "/")
    return "" if rel == "." else rel
