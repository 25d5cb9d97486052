"""The package still runs on Python 3.10, the oldest version it supports.

Tier-1 runs on a newer interpreter, which accepts `re` syntax (possessive
quantifiers, atomic groups) and library calls that 3.10 does not. This test
finds a 3.10 interpreter, if one is installed, and checks that it produces
the golden fixture report byte for byte.
"""

import glob
import os
import shutil
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


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


def test_fixture_report_on_python310_matches_golden_bytes():
    exe = find_python310()
    if exe is None:
        pytest.skip("no working Python 3.10 interpreter found")
    env = {k: v for k, v in os.environ.items() if k != "JAVASTYLE_CONFIG"}
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [exe, "-c", "import sys; from javastyle.cli import main; "
                    "sys.exit(main(sys.argv[1:]))",
         "analyze", "tests/fixtures", "--format", "json"],
        capture_output=True, cwd=REPO_ROOT, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    golden = REPO_ROOT / "tests" / "golden" / "fixtures.json"
    assert proc.stdout == golden.read_bytes()
