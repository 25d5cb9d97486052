"""javastyle benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workload is generated from the
seed under ``.perfbench_work/`` and removed afterwards. Each operation is
one ``javastyle`` CLI call in a fresh interpreter, the way a user runs
it, and every operation's output is checked against the answers the
generator recorded and against the first operation's report digest.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones (see BENCHMARK.json); with ``--trace 1`` untraced and
traced operations alternate and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import gen  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402

SETUP_ROUNDS = 3
SETUP_PER_ROUND = 3
MIN_OPS = 3
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import javastyle.cli; from javastyle.lexicon import Lexicon; "
              "Lexicon.bundled()")


class BenchError(Exception):
    """The checkout cannot run the benchmark."""


def run_process(argv: list[str], env=None) -> tuple[int, bytes, float, float]:
    """(exit code, stdout, wall seconds, peak RSS in MB) of one process.

    The peak is the kernel's maximum resident set over the process and
    every descendant it waited for.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, wall, usage.ru_maxrss / 1024.0


def setup_seconds() -> float:
    """Median time for a fresh interpreter to import the CLI and lexicon,
    at reference speed.

    The interpreters run in rounds, and each round is rescaled by the
    single-threaded probe that follows it.
    """
    times = []
    for _ in range(SETUP_ROUNDS):
        walls = []
        for _ in range(SETUP_PER_ROUND):
            code, _, wall, _ = run_process([sys.executable, "-c", SETUP_CODE,
                                            SRC])
            if code != 0:
                raise BenchError("javastyle does not import from src/")
            walls.append(wall)
        speed = probe.REFERENCE_S[1] / probe_seconds(1)
        times += [wall * speed for wall in walls]
    return statistics.median(times)


def probe_seconds(threads: int) -> float:
    """Wall time of one run of the reference program, probe.py."""
    code, _, wall, _ = run_process([sys.executable,
                                    os.path.join(HERE, "probe.py"),
                                    "--threads", str(threads)])
    if code != 0:
        raise BenchError(f"probe exited {code}")
    return wall


def answers_mismatch(rows: list[dict], expected: dict) -> list[str]:
    """Report score rows whose counts differ from the generator's."""
    got = {r["category"]: {"absolute": r["absolute"],
                           "denominator": r["denominator"]} for r in rows}
    return [f"{cat}: expected {want}, got {got.get(cat)}"
            for cat, want in expected.items() if got.get(cat) != want]


# ---------------------------------------------------------------------------
# workloads: build inputs, name the CLI call, check its output


class Workload:
    builder = ""
    # Threads of the probe that rescales this workload's times: the
    # operation's own thread count.
    probe_threads = 1

    def __init__(self, work: str, seed: int):
        self.work = work
        self.facts = gen.BUILDERS[self.builder](work, seed)
        self.env = None

    @property
    def lines(self) -> int:
        return self.facts["lines"]

    def argv(self) -> list[str]:
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work before the first operation."""

    def check(self, data: dict) -> list[str]:
        raise NotImplementedError


class AnalyzeFlat(Workload):
    builder = "flat"

    def argv(self):
        return ["analyze", self.work, "--deep-claims", "--format", "json"]

    def check(self, data):
        problems = answers_mismatch(data["scores"], self.facts["answers"])
        if data["diagnostics"]:
            problems.append(f"diagnostics: {data['diagnostics'][:3]}")
        return problems


class EvolveHistory(Workload):
    builder = "history"

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.env = gen.git_env(work)

    def argv(self):
        return ["evolve", self.facts["repo"], "--months",
                str(self.facts["months"]), "--as-of", self.facts["as_of"]]

    def check(self, data):
        samples, snaps = data["samples"], self.facts["snapshots"]
        if len(samples) != len(snaps):
            return [f"{len(samples)} samples, expected {len(snaps)}"]
        problems = []
        for sample, snap in zip(samples, snaps):
            if sample["failed"]:
                problems.append(f"{sample['month']} failed: {sample['error']}")
            elif (sample["month"], sample["commit"]) != (snap["month"],
                                                          snap["commit"]):
                problems.append(f"{sample['month']}: wrong commit")
            else:
                problems += answers_mismatch(sample["scores"], snap["answers"])
        return problems


class CorpusHier(Workload):
    builder = "corpus"
    jobs = 2
    probe_threads = jobs

    def argv(self, jobs: int | None = None):
        return ["corpus", self.facts["paths_file"], "--jobs",
                str(jobs or self.jobs)]

    def prepare(self):
        code, out, _, _ = run_process(op_argv(self.argv(jobs=1)))
        if code != 0:
            raise BenchError(f"corpus --jobs 1 exited {code}")
        self.reference = json.loads(out)

    def check(self, data):
        problems = []
        if data["repos"] != len(self.facts["repos"]):
            problems.append(f"{data['repos']} repos")
        for key in ("stats", "thresholdTable"):
            if data[key] != self.reference[key]:
                problems.append(f"--jobs {self.jobs} {key} differ from --jobs 1")
        for cat in gen.CHECKED:
            ratios = [r["answers"][cat]["absolute"] / r["answers"][cat]["denominator"]
                      for r in self.facts["repos"]
                      if r["answers"][cat]["denominator"]]
            if not ratios:
                continue
            want = (round(min(ratios), 4), round(max(ratios), 4))
            got = (data["stats"][cat]["min"], data["stats"][cat]["max"])
            if got != want:
                problems.append(f"{cat}: min/max {got}, expected {want}")
        return problems


WORKLOADS = {
    "analyze-flat-100k": AnalyzeFlat,
    "evolve-12m": EvolveHistory,
    "corpus-hier": CorpusHier,
}


def op_argv(cli_args: list[str], trace_out: str | None = None) -> list[str]:
    argv = [sys.executable, os.path.join(HERE, "op.py")]
    if trace_out:
        argv += ["--trace-out", trace_out]
    return argv + ["--"] + cli_args


# ---------------------------------------------------------------------------
# the measurement loop


class Op:
    def __init__(self, wall, rss, ok, problems, traced=False, summary=None):
        self.wall, self.rss, self.ok = wall, rss, ok
        self.problems, self.traced, self.summary = problems, traced, summary
        # Multiplies this operation's times to reference machine speed.
        self.speed = 1.0

    @property
    def scaled(self) -> float:
        return self.wall * self.speed


def run_op(workload: Workload, digests: list, trace_out: str | None) -> Op:
    code, out, wall, rss = run_process(op_argv(workload.argv(), trace_out),
                                       env=workload.env)
    summary = None
    if code != 0:
        problems = [f"exit code {code}"]
    else:
        digest = hashlib.sha256(out).hexdigest()
        if not digests:
            digests.append(digest)
        problems = [] if digest == digests[0] else ["report digest changed"]
        try:
            problems += workload.check(json.loads(out))
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable report: {exc!r}")
        if trace_out:
            with open(trace_out, encoding="utf-8") as fh:
                summary = json.load(fh)
    return Op(wall, rss, not problems, problems, bool(trace_out), summary)


def measure(workload: Workload, deadline: float, traced: bool, work: str):
    """Operations, each followed by a probe, until the next operation
    would overrun `deadline`. Returns (operations, probe times).

    Each operation's speed factor comes from the probes on either side
    of it, run with the workload's thread count. Traced runs alternate
    untraced and traced operations.
    """
    threads = workload.probe_threads
    ops: list[Op] = []
    probes = [probe_seconds(threads)]
    digests: list[str] = []
    while True:
        trace_out = None
        if traced and len(ops) % 2 == 1:
            trace_out = os.path.join(work, f"trace-{len(ops)}.json")
        op = run_op(workload, digests, trace_out)
        probes.append(probe_seconds(threads))
        reference = probe.REFERENCE_S[threads]
        op.speed = reference / ((probes[-2] + probes[-1]) / 2)
        ops.append(op)
        typical = statistics.median(op.wall for op in ops) + probes[-1]
        if len(ops) >= MIN_OPS + traced and (
                time.perf_counter() + typical > deadline
                and len(ops) % (1 + traced) == 0):
            return ops, probes


def end_to_end(ops: list[Op], lines: int, setup_s: float) -> dict:
    """Metrics of the untraced run, at reference speed."""
    wall = statistics.median(op.scaled for op in ops)
    return {
        "wall_s": (wall, "s"),
        "kloc_per_s": (lines / 1000.0 / wall, "kloc/s"),
        "peak_rss_mb": (statistics.median(op.rss for op in ops), "MB"),
        "setup_s": (setup_s, "s"),
    }


def at_speed(metrics: dict[str, float], speed: float) -> dict[str, float]:
    """Per-layer metrics with times and rates at reference speed."""
    factor = {"s": speed, "1/s": 1 / speed}
    return {name: value * factor.get(spans.unit(name), 1)
            for name, value in metrics.items()}


def per_layer(ops: list[Op]) -> tuple[dict, list[str]]:
    """Metrics of the traced run, at reference speed."""
    plain = [op for op in ops if not op.traced]
    traced = [op for op in ops if op.traced and op.summary is not None]
    if not traced:
        raise BenchError("no traced operation wrote its spans")
    rows = [at_speed(spans.layer_metrics(op.summary, op.wall), op.speed)
            for op in traced]
    metrics = {name: (statistics.median(r[name] for r in rows),
                      spans.unit(name)) for name in rows[0]}
    traced_wall = statistics.median(op.scaled for op in traced)
    plain_wall = statistics.median(op.scaled for op in plain)
    metrics["trace.traced_wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    return metrics, traced[0].summary["absent"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so the running operation is stopped and the
    # generated inputs are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not os.path.isfile(os.path.join(SRC, "javastyle", "cli.py")):
        print(f"error: no javastyle sources under {SRC}", file=sys.stderr)
        return 2
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        workload = WORKLOADS[args.workload](work, args.seed)
        workload.prepare()
        # The measured window holds set-up and operations.
        deadline = time.perf_counter() + args.seconds
        setup_s = setup_seconds()
        ops, probes = measure(workload, deadline, bool(args.trace), work)
    except (BenchError, OSError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    failed = [op for op in ops if not op.ok]
    for op in failed[:3]:
        print("failed operation: " + "; ".join(op.problems[:5]))
    if args.trace:
        try:
            metrics, absent = per_layer(ops)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if absent:
            print("absent spans: " + ", ".join(absent))
    else:
        metrics = end_to_end(ops, workload.lines, setup_s)
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations, "
          f"{workload.lines} non-blank lines each, "
          f"error_rate {len(failed) / len(ops):.4f}")
    print("  operation wall s: " + " ".join(f"{op.wall:.3f}" for op in ops))
    print("  probe wall s:     " + " ".join(f"{p:.3f}" for p in probes))
    print("  at reference speed (the times below are medians of these):")
    print("  operation s:      " + " ".join(f"{op.scaled:.3f}" for op in ops))
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
