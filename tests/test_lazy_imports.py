"""Each command loads only the modules it runs.

A fresh interpreter imports the CLI, runs one command and lists the
modules that appeared in ``sys.modules`` meanwhile. `hashlib` maps
OpenSSL, which no command needs: the config digest uses the built-in
SHA-256. No command loads `dataclasses` or the `inspect` it brings: the
record types are named tuples and slotted classes. History replay and
its `subprocess` serve only `evolve`, and `statistics` serves only
`corpus`. The worker map, `javastyle.workers`, loads only once workers
start; it forks them directly, so `analyze` and `corpus` load none of
`multiprocessing`, `concurrent.futures` or `subprocess` at ``--jobs 2``
either.
"""

from __future__ import annotations

import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import pytest

from helpers import write_tree
from javastyle.analysis import MIN_FILES_PER_WORKER
from test_history import add_commit, make_repo

SRC = Path(__file__).resolve().parent.parent / "src"

# Writes the modules loaded after start-up, one a line, to argv[1], then
# runs the CLI on the rest of argv (no command: import only).
PROBE = ("import sys\n"
         "before = set(sys.modules)\n"
         "from javastyle.cli import main\n"
         "code = main(sys.argv[2:]) if sys.argv[2:] else 0\n"
         "with open(sys.argv[1], 'w', encoding='utf-8') as fh:\n"
         "    fh.write('\\n'.join(sorted(set(sys.modules) - before)))\n"
         "sys.exit(code)\n")

JAVA = {"src/main/java/p/A.java": "package p;\n\npublic class A {\n"
                                  "  public int size() { return 1; }\n}\n"}
# Enough files for two workers.
MANY_JAVA = {f"src/main/java/p/A{i}.java":
             f"package p;\n\npublic class A{i} {{\n"
             "  public int size() { return 1; }\n}\n"
             for i in range(2 * MIN_FILES_PER_WORKER)}
PROCESS_MACHINERY = {"multiprocessing", "concurrent.futures", "subprocess"}
# Loaded by no command at all.
NOWHERE = {"hashlib", "_hashlib", "dataclasses", "inspect"}


def loaded_by(tmp_path: Path, *argv: str) -> set[str]:
    listing = tmp_path / "modules.txt"
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(listing), *argv],
        capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return set(listing.read_text(encoding="utf-8").split("\n"))


def history_repo(tmp_path: Path) -> Path:
    repo = make_repo(tmp_path / "repo")
    for i in range(3):
        add_commit(repo, datetime(2024, 2 + i, 15, 12, tzinfo=timezone.utc),
                   {"src/p/A.java": f"package p;\nclass A {{ int f{i}; }}\n"})
    return repo


def command(name: str, tmp_path: Path) -> list[str]:
    """The argv of `name`: a command, and " --jobs 2" to start workers."""
    name, _, jobs = name.partition(" --jobs ")
    jobs = jobs or "1"
    if name == "evolve":
        return ["evolve", str(history_repo(tmp_path)), "--months", "3",
                "--as-of", "2024-05-01", "--force"]
    if name == "sample":
        (tmp_path / "reports").mkdir()
        (tmp_path / "reports" / "a.json").write_text(
            '{"repo": "a", "violations": [{"category": "Useless", '
            '"file": "A.java", "line": 1, "message": "m"}]}', encoding="utf-8")
        return ["sample", str(tmp_path / "reports"), "--groups", "1"]
    write_tree(tmp_path / "tree", MANY_JAVA if jobs == "2" else JAVA)
    if name == "claims":
        return ["claims", str(tmp_path / "tree")]
    if name == "analyze":
        return ["analyze", str(tmp_path / "tree"), "--jobs", jobs]
    paths = tmp_path / "paths.txt"
    paths.write_text(f"{tmp_path / 'tree'}\n" * int(jobs), encoding="utf-8")
    return ["corpus", str(paths), "--jobs", jobs]


@pytest.mark.parametrize("name, absent", [
    ("import", {"subprocess", "statistics", "javastyle.history",
                "javastyle.workers", "multiprocessing"}),
    ("evolve", {"statistics", "javastyle.workers"}),
    ("corpus", {"javastyle.history"}),
    ("analyze", {"javastyle.history", "subprocess", "statistics"}),
    ("analyze --jobs 2", PROCESS_MACHINERY),
    ("corpus --jobs 2", PROCESS_MACHINERY),
    ("claims", set()),
    ("sample", set()),
])
def test_command_loads_only_what_it_runs(tmp_path, name, absent):
    argv = [] if name == "import" else command(name, tmp_path)
    loaded = loaded_by(tmp_path, *argv)
    assert "javastyle.cli" in loaded
    assert sorted(loaded & (absent | NOWHERE)) == []


def test_the_probe_sees_what_a_command_loads(tmp_path):
    assert "javastyle.history" in loaded_by(tmp_path,
                                            *command("evolve", tmp_path))
    assert "javastyle.workers" in loaded_by(
        tmp_path, *command("analyze --jobs 2", tmp_path))
    assert "javastyle.claims" in loaded_by(tmp_path,
                                           *command("analyze", tmp_path))
