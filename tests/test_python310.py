"""The package still runs on Python 3.10, the oldest version it supports.

Tier-1 runs on a newer interpreter, which accepts `re` syntax (possessive
quantifiers, atomic groups) and library calls that 3.10 does not. The
static checks below run on any interpreter: every module parses as 3.10
grammar, and no module-level pattern uses 3.11-only `re` syntax. The last
tests find a 3.10 interpreter, if one is installed, and check that it
produces the golden fixture report byte for byte, and the same corpus
and analyze bytes with worker processes as this interpreter without.
"""

import ast
import glob
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from javastyle.analysis import MIN_FILES_PER_WORKER

try:
    from re import _parser as sre_parse
except ImportError:  # Python 3.10
    import sre_parse

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = REPO_ROOT / "src" / "javastyle"
NEW_IN_311 = {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"}


def test_modules_parse_as_python310():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=(3, 10))


def new_in_311_opcodes(pattern: re.Pattern) -> set[str]:
    found, stack = set(), [sre_parse.parse(pattern.pattern, pattern.flags)]
    while stack:
        node = stack.pop()
        if isinstance(node, sre_parse.SubPattern):
            for op, arg in node:
                found.add(str(op))
                stack.append(arg)
        elif isinstance(node, (tuple, list)):
            stack.extend(node)
    return found & NEW_IN_311


def module_patterns() -> dict[int, tuple[str, re.Pattern]]:
    """Every compiled pattern a module holds, also inside containers."""
    patterns: dict[int, tuple[str, re.Pattern]] = {}
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        module = importlib.import_module(f"javastyle.{path.stem}")
        stack = [(f"{path.stem}.{name}", value)
                 for name, value in vars(module).items()]
        while stack:
            where, value = stack.pop()
            if isinstance(value, re.Pattern):
                patterns.setdefault(id(value), (where, value))
            elif isinstance(value, (tuple, list)):
                stack.extend((where, item) for item in value)
            elif isinstance(value, dict):
                stack.extend((where, item) for item in value.values())
    return patterns


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="the syntax itself needs Python 3.11")
def test_new_in_311_regex_syntax_is_detected():
    assert new_in_311_opcodes(re.compile("a*+(?>b)")) == NEW_IN_311


def test_module_patterns_avoid_new_in_311_syntax():
    patterns = module_patterns()
    assert len(patterns) >= 10
    for where, pattern in patterns.values():
        assert not new_in_311_opcodes(pattern), (where, pattern.pattern)


def find_python310() -> str | None:
    """A `python3.10` on PATH, else one in pyenv's versions directory."""
    pyenv_root = os.environ.get("PYENV_ROOT") or os.path.expanduser("~/.pyenv")
    candidates = [shutil.which("python3.10"), *sorted(glob.glob(
        os.path.join(pyenv_root, "versions", "3.10*", "bin", "python3")))]
    for exe in filter(None, candidates):
        # A pyenv shim is on PATH even when no 3.10 is active; it fails.
        try:
            proc = subprocess.run(
                [exe, "-c", "import sys; print(sys.version_info[:2])"],
                capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if proc.returncode == 0 and proc.stdout.strip() == "(3, 10)":
            return exe
    return None


def run_on_python310(*argv: str) -> bytes:
    """stdout of the CLI under a Python 3.10 interpreter; skips if none."""
    exe = find_python310()
    if exe is None:
        pytest.skip("no working Python 3.10 interpreter found")
    return run_cli(exe, *argv)


def run_cli(exe: str, *argv: str) -> bytes:
    env = {k: v for k, v in os.environ.items() if k != "JAVASTYLE_CONFIG"}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [exe, "-c", "import sys; from javastyle.cli import main; "
                    "sys.exit(main(sys.argv[1:]))", *argv],
        capture_output=True, cwd=REPO_ROOT, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_fixture_report_on_python310_matches_golden_bytes():
    out = run_on_python310("analyze", "tests/fixtures", "--format", "json")
    golden = REPO_ROOT / "tests" / "golden" / "fixtures.json"
    assert out == golden.read_bytes()


def test_corpus_jobs_on_python310_give_the_same_bytes(tmp_path):
    paths_file = tmp_path / "paths.txt"
    paths_file.write_text("".join(
        f"{p}\n" for p in sorted((REPO_ROOT / "tests" / "fixtures").glob("*/*"))
        if p.is_dir()), encoding="utf-8")
    serial = run_on_python310("corpus", str(paths_file), "--jobs", "1")
    assert json.loads(serial)["repos"] > 2
    assert run_on_python310("corpus", str(paths_file), "--jobs", "2") == serial


def test_analyze_jobs_on_python310_give_this_interpreters_bytes(tmp_path):
    for n in range(2):  # two workers' worth of files
        shutil.copytree(REPO_ROOT / "tests" / "fixtures", tmp_path / f"c{n}")
    assert len(list(tmp_path.rglob("*.java"))) >= 2 * MIN_FILES_PER_WORKER
    pooled = run_on_python310("analyze", str(tmp_path), "--jobs", "2")
    assert b"duplicate type" in pooled
    assert pooled == run_cli(sys.executable, "analyze", str(tmp_path),
                             "--jobs", "1")
