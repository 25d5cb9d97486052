"""Wall time and peak memory of `analyze` on a generated 1M-line tree.

    python3 scripts/measure_tree.py [--seed 5] [--files 4800] [--jobs 1 2]
                                    [--runs 1]

Builds the benchmark's flat tree (`perfbench/gen.py`, `build_flat`) in a
temporary directory; 4,800 files are about 1M lines. Then it runs
`analyze --format json` on it from this checkout's sources, in a fresh
interpreter per run, at each `--jobs` value. Each run prints its wall
time and peak RSS, and the last line is a JSON summary with the median
of each. Peak RSS is the `ru_maxrss` that wait4 reports for the analyze
process, which covers its reaped worker processes too: the largest of
them, not their sum.

The outputs of all runs must be byte-identical, or the script exits 1.
The summary holds their SHA-256, so that the reports of two checkouts
can be compared without keeping either. One run takes tens of seconds,
so this is a measurement to repeat by hand, not a benchmark workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import gen  # noqa: E402

CLI = "import sys; from javastyle.cli import main; sys.exit(main(sys.argv[1:]))"


def run_analyze(work: str, jobs: int) -> tuple[float, float, str]:
    """(wall seconds, peak RSS in MB, report SHA-256) of one analyze call
    on `work`/tree. The report names the tree by that relative path, so
    the digest does not depend on where the temporary directory is."""
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    with tempfile.TemporaryFile() as out:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", CLI, "analyze", "tree", "--format", "json",
             "--jobs", str(jobs)], stdout=out, env=env, cwd=work)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        if os.waitstatus_to_exitcode(status) != 0:
            raise SystemExit(f"analyze --jobs {jobs} exited with {status}")
        out.seek(0)
        digest = hashlib.sha256()
        for block in iter(lambda: out.read(1 << 20), b""):
            digest.update(block)
        return wall, usage.ru_maxrss / 1024.0, digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--files", type=int, default=4800)
    parser.add_argument("--jobs", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per --jobs value, alternating")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory(prefix="measure_tree_") as work:
        tree = os.path.join(work, "tree")
        facts = gen.build_flat(tree, args.seed, files=args.files)
        print(f"tree: {facts['files']} files, {facts['lines']} lines "
              f"(seed {args.seed})", flush=True)
        walls: dict[int, list[float]] = {jobs: [] for jobs in args.jobs}
        peaks: dict[int, list[float]] = {jobs: [] for jobs in args.jobs}
        reports = set()
        for _ in range(args.runs):
            for jobs in args.jobs:
                wall, peak, report = run_analyze(work, jobs)
                walls[jobs].append(wall)
                peaks[jobs].append(peak)
                reports.add(report)
                print(f"--jobs {jobs}: {wall:.2f} s, {peak:.1f} MB",
                      flush=True)
    summary = {
        "files": facts["files"], "lines": facts["lines"], "seed": args.seed,
        "identical_reports": len(reports) == 1,
        "report_sha256": sorted(reports),
        "jobs": {str(jobs): {"wall_s": round(statistics.median(walls[jobs]), 2),
                             "peak_rss_mb": round(statistics.median(peaks[jobs]), 1)}
                 for jobs in args.jobs},
    }
    print(json.dumps(summary))
    return 0 if len(reports) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
