"""Locating Java sources inside a repository tree.

Maven/Gradle layouts are preferred: when any ``src/main/java`` directory
exists, only files under those roots are analyzed. Otherwise the whole
tree is scanned, minus test sources and build output.
"""

from __future__ import annotations

import os

# Directory names never worth descending into.
_SKIP_DIRS = frozenset({".git", "target", "build"})


def discover_sources(root: str) -> list[str]:
    """Return repo-relative paths (``/`` separators) of all .java files to
    analyze, in lexicographic order.

    Raises NotADirectoryError when root is not a readable directory.
    """
    if not os.path.isdir(root):
        raise NotADirectoryError(f"not a directory: {root}")

    saw_main_root = False
    found: list[tuple[str, bool]] = []  # (path, under a src/main/java root)
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in _SKIP_DIRS]
        rel = os.path.relpath(dirpath, root).replace(os.sep, "/")
        prefix = "" if rel == "." else rel + "/"
        in_main = "/src/main/java/" in "/" + prefix
        saw_main_root = saw_main_root or in_main
        if "/src/test/" not in "/" + prefix:
            found.extend((prefix + name, in_main)
                         for name in filenames if name.endswith(".java"))
    return sorted(path for path, in_main in found
                  if in_main or not saw_main_root)
