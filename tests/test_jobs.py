"""`analyze --jobs N`: the same report from worker processes as from one.

The files of a directory or snapshot that `reuse` does not hold are
parsed and file-checked on up to N worker processes once each gets at
least MIN_FILES_PER_WORKER files; the merge, the index and the
project-scope checks stay in the calling process. The map that runs the
workers keeps item order, raises a worker's exception at its item, and
leaves no child process behind, however it ends.
"""

from __future__ import annotations

import gc
import os
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from javastyle import workers
from javastyle.analysis import MIN_FILES_PER_WORKER, analyze_repository
from javastyle.cli import build_parser, main, usable_cpus
from javastyle.lexicon import LexiconError
from javastyle.model import SourceFileModel

from helpers import MemorySnapshot

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


@pytest.fixture
def started(monkeypatch) -> list[int]:
    """The worker count of each map_in_processes call while the test runs.
    MemorySnapshot.reads cannot tell: the workers' reads stay in them."""
    counts = []
    real = workers.map_in_processes

    def recording(fn, items, count, **kwargs):
        counts.append(count)
        return real(fn, items, count, **kwargs)

    monkeypatch.setattr(workers, "map_in_processes", recording)
    return counts


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_workers_start_only_when_each_gets_enough_files(tree, started, jobs):
    serial = outcome(analyze_repository(str(tree)))
    pooled = outcome(analyze_repository(str(tree), jobs=jobs))
    assert started == ([] if jobs == 1 else [jobs])
    assert pooled == serial

    started.clear()
    small = tree / "copy0"  # 41 files: one worker's share at most
    assert outcome(analyze_repository(str(small), jobs=jobs)) == \
        outcome(analyze_repository(str(small)))
    assert started == []


@pytest.fixture(scope="module")
def tree_files(tree) -> dict[str, bytes]:
    """The readable files of the tree, {path: bytes}."""
    return {path.relative_to(tree).as_posix(): path.read_bytes()
            for path in sorted(tree.rglob("*.java")) if path.exists()}


def test_a_snapshot_is_analyzed_on_workers_too(tree_files, started):
    assert len(tree_files) >= 2 * MIN_FILES_PER_WORKER
    serial = outcome(analyze_repository(MemorySnapshot(tree_files)))
    assert started == []
    snapshot = MemorySnapshot(tree_files)
    pooled = outcome(analyze_repository(snapshot, jobs=2))
    assert started == [2]
    assert snapshot.reads == []  # the workers read every file
    assert pooled == serial


def test_only_the_files_reuse_lacks_go_to_workers(tree_files, started):
    snapshot = MemorySnapshot(tree_files)
    reuse = {}
    first = analyze_repository(snapshot, reuse=reuse, jobs=2)
    assert started == [2] and len(reuse) == len(tree_files)
    changed = first.paths[5]
    snapshot.files[changed] += b"\nclass Extra {}\n"
    second = analyze_repository(snapshot, reuse=reuse, jobs=2)
    assert started == [2]  # one miss: analyzed in this process
    assert snapshot.reads == [changed]
    fresh = analyze_repository(MemorySnapshot(snapshot.files))
    assert outcome(second) == outcome(fresh) != outcome(first)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def deadline(seconds: int):
    """Fails the block, instead of hanging, once `seconds` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_map_gives_the_results_in_item_order():
    items = list(range(-100, 0))
    with deadline(30):
        for jobs, chunksize in [(2, 1), (2, 7), (3, 3), (5, 200)]:
            assert list(workers.map_in_processes(
                abs, items, jobs, chunksize=chunksize)) == [-i for i in items]
        assert list(workers.map_in_processes(abs, [], 2)) == []
    assert_no_children()


def test_pool_stops_when_the_caller_stops_reading():
    results = workers.map_in_processes(abs, list(range(-400, 0)), 2,
                                       chunksize=3)
    assert next(results) == 400
    results.close()
    assert_no_children()


def big_result(i: int) -> str:
    return str(i) * 100_000  # more than a pipe holds


def test_closing_early_stops_workers_blocked_on_a_large_frame():
    results = workers.map_in_processes(big_result, list(range(1, 60)), 2,
                                       chunksize=2)
    with deadline(30):
        assert next(results) == "1" * 100_000
        time.sleep(0.2)  # let the workers fill their pipes and block
        started = time.perf_counter()
        results.close()
    assert time.perf_counter() - started < 5
    assert_no_children()


def fail_at_seven(i: int) -> int:
    if i == 7:
        raise LexiconError("words.tsv", [3, 9])
    return i


@pytest.mark.parametrize("jobs, chunksize", [(2, 1), (2, 3), (3, 4)])
def test_an_exception_is_raised_at_its_item_after_the_items_before_it(
        jobs, chunksize):
    seen = []
    with deadline(30), pytest.raises(LexiconError) as raised:
        for result in workers.map_in_processes(fail_at_seven,
                                               list(range(20)), jobs,
                                               chunksize=chunksize):
            seen.append(result)
    assert seen == list(range(7))
    assert str(raised.value) == "words.tsv: malformed lexicon line(s): 3, 9"
    assert raised.value.lines == [3, 9]
    assert_no_children()


def exit_at_five(i: int) -> int:
    if i == 5:
        os._exit(4)
    return i


def test_a_worker_that_ends_without_its_results_is_an_error():
    with deadline(30), pytest.raises(ChildProcessError,
                                     match=r"exit code 4"):
        list(workers.map_in_processes(exit_at_five, list(range(20)), 2,
                                      chunksize=3))
    assert_no_children()


def test_without_fork_the_map_runs_in_the_calling_process(monkeypatch):
    monkeypatch.delattr(os, "fork")
    items = list(range(-50, 0))
    pids = list(workers.map_in_processes(lambda i: (abs(i), os.getpid()),
                                         items, 2, chunksize=4))
    assert pids == [(-i, os.getpid()) for i in items]


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
