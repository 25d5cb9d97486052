"""scripts/compare_revisions.py: the same-output gate between two sets of
sources."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compare_revisions.py"


def compare(base: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--base", str(base),
         "--inputs", "fixtures,mutations", "--mutations", "20", *args],
        capture_output=True, text=True, timeout=300)


def test_a_checkout_compared_with_itself_shows_no_difference():
    done = compare(ROOT / "src")
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[-1] == "no difference"
    assert [line.split()[0] for line in lines[1:-1]] == [
        "fixtures", "mutations"]
    assert all(line.endswith(" same") for line in lines[1:-1])


def test_a_one_line_change_in_the_base_is_reported(tmp_path):
    base = tmp_path / "src"
    shutil.copytree(ROOT / "src", base,
                    ignore=shutil.ignore_patterns("__pycache__"))
    parser = base / "javastyle" / "parser.py"
    text = parser.read_text("utf-8")
    line = 'return "public" if container_kind == "interface" else "package"'
    assert text.count(line) == 1
    parser.write_text(text.replace(line, line.replace('"package"', '"pkg"')),
                      "utf-8")
    done = compare(base)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "fixtures" in done.stdout and "DIFFERENT" in done.stdout
    assert "fixtures:clean/ClassNames/p/Names.java (parse, record)" in \
        done.stdout
    assert "visibility='pkg'" in done.stdout
