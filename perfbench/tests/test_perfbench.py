"""Tests of the benchmark itself: generator, tracer and harness.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import gen  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from javastyle.analysis import analyze_repository  # noqa: E402


def tree_bytes(root: str) -> dict[str, bytes]:
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != ".git"]
        for name in filenames:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = fh.read()
    return out


def scored(root: str) -> dict:
    result = analyze_repository(root)
    return {s.category.value: {"absolute": s.absolute,
                               "denominator": s.denominator}
            for s in result.scores if s.category.value in gen.CHECKED}


def git(repo: str, *args: str) -> str:
    return subprocess.run(["git", "-C", repo, *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def test_flat_tree_is_deterministic_per_seed(tmp_path):
    a = gen.build_flat(str(tmp_path / "a"), 7, files=9)
    b = gen.build_flat(str(tmp_path / "b"), 7, files=9)
    c = gen.build_flat(str(tmp_path / "c"), 8, files=9)
    assert a == b
    assert tree_bytes(str(tmp_path / "a")) == tree_bytes(str(tmp_path / "b"))
    assert tree_bytes(str(tmp_path / "a")) != tree_bytes(str(tmp_path / "c"))


def test_seed_changes_content_not_size(tmp_path):
    a = gen.build_flat(str(tmp_path / "a"), 1, files=9)
    b = gen.build_flat(str(tmp_path / "b"), 2, files=9)
    assert a["files"] == b["files"]
    assert abs(a["lines"] - b["lines"]) < 0.01 * a["lines"]


def test_history_object_ids_are_deterministic_per_seed(tmp_path):
    a = gen.build_history(str(tmp_path / "a"), 5, files=6)
    b = gen.build_history(str(tmp_path / "b"), 5, files=6)
    assert a["head"] == b["head"]
    assert [s["commit"] for s in a["snapshots"]] == \
        [s["commit"] for s in b["snapshots"]]
    assert git(a["repo"], "rev-parse", "HEAD") == a["head"]
    assert git(a["repo"], "status", "--porcelain") == ""


def test_corpus_is_deterministic_per_seed(tmp_path):
    a = gen.build_corpus(str(tmp_path / "a"), 3, repos=2, chains=2, depth=3)
    b = gen.build_corpus(str(tmp_path / "b"), 3, repos=2, chains=2, depth=3)
    assert [r["answers"] for r in a["repos"]] == \
        [r["answers"] for r in b["repos"]]
    assert tree_bytes(str(tmp_path / "a" / "repo1")) == \
        tree_bytes(str(tmp_path / "b" / "repo1"))


@pytest.mark.parametrize("seed", [1, 2])
def test_recorded_answers_match_the_analyzer(tmp_path, seed):
    flat = gen.build_flat(str(tmp_path / "flat"), seed, files=12)
    assert scored(str(tmp_path / "flat")) == flat["answers"]
    corpus = gen.build_corpus(str(tmp_path / "corpus"), seed, repos=2,
                              chains=2, depth=4, methods=4)
    for repo in corpus["repos"]:
        assert scored(repo["path"]) == repo["answers"]


def test_generated_trees_parse_without_diagnostics(tmp_path):
    for seed in range(3):
        root = str(tmp_path / str(seed))
        gen.build_flat(root, seed, files=90)
        assert analyze_repository(root).diagnostics == []


def test_history_answers_match_each_snapshot(tmp_path):
    hist = gen.build_history(str(tmp_path), 4, files=6)
    for snap in hist["snapshots"][::4]:
        git(hist["repo"], "checkout", "-q", snap["commit"])
        assert scored(hist["repo"]) == snap["answers"]


def run_op(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(BENCH, "op.py"),
                           *args], capture_output=True, check=True)


def test_traced_run_emits_the_untraced_report_bytes(tmp_path):
    gen.build_flat(str(tmp_path / "tree"), 3, files=6)
    cli_args = ["--", "analyze", str(tmp_path / "tree"), "--format", "json"]
    plain = run_op(*cli_args)
    trace_file = str(tmp_path / "trace.json")
    traced = run_op("--trace-out", trace_file, *cli_args)
    assert traced.stdout == plain.stdout
    with open(trace_file, encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["absent"] == []
    metrics = spans.layer_metrics(summary, wall_s=10.0)
    assert metrics["parser.calls"] == 6
    assert metrics["discovery.files"] == 6
    assert metrics["lexer.tokens"] > 0
    assert metrics["parser.useful_ratio"] == 1.0


def test_tracer_passes_arguments_and_results_through(tmp_path):
    gen.build_flat(str(tmp_path), 2, files=6)
    before = scored(str(tmp_path))
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = scored(str(tmp_path))
    finally:
        tracer.uninstall()
    assert during == before
    assert tracer.stats["analysis.parse_compilation_unit"][0] == 6
    assert tracer.counts["parser.distinct"] == 6


def test_missing_wrapped_name_is_reported_absent():
    targets = (("analysis", "parse_compilation_unit", "parser"),
               ("analysis", "no_such_function", "parser"),
               ("no_such_module", "anything", "cli"),
               ("lexicon", "Lexicon.no_such_method", "lexicon"))
    tracer = spans.Tracer(targets=targets)
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["analysis.no_such_function",
                             "no_such_module.anything",
                             "lexicon.Lexicon.no_such_method"]
    metrics = spans.layer_metrics(tracer.summary(), wall_s=1.0)
    assert metrics["trace.absent_spans"] == 3
    assert metrics["lexer.tokens"] == 0
    assert metrics["checkers.check_useless.s"] == 0


def test_tracer_counts_every_call_from_many_threads(tmp_path, monkeypatch):
    package = tmp_path / "fakepkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        "def root(fn):\n    return fn()\n\n\ndef leaf(x):\n    return [x]\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    tracer = spans.Tracer(package="fakepkg", targets=(
        ("mod", "root", "cli"), ("mod", "leaf", "lexer")))
    tracer.install()
    import fakepkg.mod as mod

    def work():
        for i in range(2000):
            assert mod.leaf(i) == [i]

    def fan_out():
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        return threads

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = mod.root(fan_out)
    finally:
        sys.setswitchinterval(interval)
        tracer.uninstall()
    assert not any(t.is_alive() for t in threads)
    assert tracer.stats["mod.leaf"][0] == 8000
    calls, total, self_s = tracer.stats["mod.root"]
    assert calls == 1
    # The workers' spans overlap the root's, so little of it is self time.
    assert 0 <= self_s < total


def test_union_length_merges_overlaps():
    assert spans._union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert spans._union_length([]) == 0


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus-hier",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_metrics_match_the_declaration():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    for metric in declared["per_layer"]:
        assert metric["unit"] == spans.unit(metric["name"]), metric
    summary = spans.Tracer(targets=()).summary()
    layer_names = set(spans.layer_metrics(summary, 1.0)) | {
        "trace.traced_wall_s", "trace.overhead_s"}
    assert layer_names == {m["name"] for m in declared["per_layer"]}
    e2e = run.end_to_end([run.Op(1.0, 10.0, True, [])], 1000, 0.2)
    assert {name: unit for name, (_, unit) in e2e.items()} == \
        {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


def test_times_are_rescaled_by_the_probe_speed():
    ops = [run.Op(wall, 10.0, True, []) for wall in (1.0, 2.0, 9.0)]
    plain = run.end_to_end(ops, 4000, 0.2)
    for op in ops:
        op.speed = 0.5
    fast = run.end_to_end(ops, 4000, 0.2)
    assert plain["wall_s"][0] == 2.0 and fast["wall_s"][0] == 1.0
    assert fast["kloc_per_s"][0] == 2 * plain["kloc_per_s"][0]
    assert fast["peak_rss_mb"] == plain["peak_rss_mb"]
    scaled = run.at_speed({"lexer.self_s": 4.0, "lexer.tokens": 10,
                           "lexer.tokens_per_s": 100.0}, 0.5)
    assert scaled == {"lexer.self_s": 2.0, "lexer.tokens": 10,
                      "lexer.tokens_per_s": 200.0}
    for threads in probe.REFERENCE_S:
        subprocess.run([sys.executable, os.path.join(BENCH, "probe.py"),
                        "--threads", str(threads)], check=True, timeout=60)
