"""`analyze --jobs N`: the same report from worker processes as from one.

The files of a directory are parsed and file-checked on up to N worker
processes once each gets at least MIN_FILES_PER_WORKER files; the merge,
the index and the project-scope checks stay in the calling process.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from javastyle import analysis
from javastyle.analysis import MIN_FILES_PER_WORKER, analyze_repository
from javastyle.cli import build_parser, main, usable_cpus
from javastyle.model import SourceFileModel

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"

BROKEN = {
    # first, in the middle and last in discovery order
    "a/Mangled.java": b"package a;\nclass Mangled { // caf\xe9\n}\n",
    "copy1/Broken.java": b"package p;\nclass Broken {\n  void f( {\n}\n",
    "zz/Deep.java": b"class A {" * 3000 + b"}" * 3000,
}


def build_tree(root: Path) -> int:
    """Three copies of the fixture files, so every type is declared three
    times, plus a file that is not UTF-8, two that do not parse and one
    that cannot be read. Returns the number of files."""
    for n in range(3):
        shutil.copytree(FIXTURES, root / f"copy{n}")
    for rel, data in BROKEN.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)
    (root / "copy2" / "Gone.java").symlink_to(root / "nowhere.java")
    return len(list(root.rglob("*.java")))


@pytest.fixture(scope="module")
def tree(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("jobs")
    assert build_tree(root) >= 3 * MIN_FILES_PER_WORKER
    return root


def outcome(result):
    """Everything of an AnalysisResult that a report shows."""
    return (result.paths, result.violations, result.counts, result.scores,
            result.total_normalized, result.verdict, result.diagnostics)


def run_cli(root: Path, jobs: int, hash_seed: str) -> bytes:
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from javastyle.cli import main; "
         "sys.exit(main(sys.argv[1:]))",
         "analyze", str(root), "--format", "json", "--jobs", str(jobs)],
        capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_report_bytes_are_the_same_for_every_job_count_and_hash_seed(tree):
    reports = {(jobs, "0"): run_cli(tree, jobs, "0") for jobs in (1, 2, 3)}
    reports.update({(2, seed): run_cli(tree, 2, seed)
                    for seed in ("1", "2", "3")})
    assert len(set(reports.values())) == 1, sorted(
        key for key, out in reports.items() if out != reports[1, "0"])
    assert b"duplicate type" in reports[1, "0"]


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_workers_start_only_when_each_gets_enough_files(tree, monkeypatch,
                                                         jobs):
    started = []
    real = analysis.map_in_processes

    def recording(fn, items, workers, **kwargs):
        started.append(workers)
        return real(fn, items, workers, **kwargs)

    monkeypatch.setattr(analysis, "map_in_processes", recording)
    serial = outcome(analyze_repository(str(tree)))
    pooled = outcome(analyze_repository(str(tree), jobs=jobs))
    assert started == ([] if jobs == 1 else [jobs])
    assert pooled == serial

    started.clear()
    small = tree / "copy0"  # 41 files: one worker's share at most
    assert outcome(analyze_repository(str(small), jobs=jobs)) == \
        outcome(analyze_repository(str(small)))
    assert started == []


def test_pool_stops_when_the_caller_stops_reading():
    results = analysis.map_in_processes(abs, list(range(-400, 0)), 2,
                                        chunksize=3)
    assert next(results) == 400
    results.close()
    assert multiprocessing.active_children() == []


def test_skipped_files_give_the_same_diagnostics_in_order(tree):
    serial = analyze_repository(str(tree)).diagnostics
    skipped = [d for d in serial if d.startswith("skipped")]
    assert [d.split(":")[0] for d in skipped] == [
        "skipped a/Mangled.java", "skipped copy1/Broken.java",
        "skipped copy2/Gone.java", "skipped zz/Deep.java"]
    assert "not valid UTF-8" in skipped[0]
    assert "No such file or directory" in skipped[2]
    assert analyze_repository(str(tree), jobs=2).diagnostics == serial


def test_no_model_outlives_analyze_repository(tree):
    def live_models():
        return sum(isinstance(o, SourceFileModel) for o in gc.get_objects())

    before = live_models()
    gc.disable()  # freed as each file is done, not by a later collection
    try:
        result = analyze_repository(str(tree))
        assert live_models() == before
    finally:
        gc.enable()
    assert len(result.paths) > 100


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_a_usage_error(tree, capsys, jobs):
    assert main(["analyze", str(tree), "--jobs", jobs]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --jobs must be at least 1, got {jobs}\n"


def test_jobs_default_to_the_usable_cpus():
    args = build_parser().parse_args(["analyze", "."])
    assert args.jobs == usable_cpus() >= 1
