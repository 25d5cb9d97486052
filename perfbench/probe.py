"""Reference work that shows how fast the machine runs at the moment.

    python3 perfbench/probe.py [--threads N]

On a shared machine the speed a process gets drifts by a third or more
over tens of seconds, far more than the differences the benchmark has to
resolve. The probe is a fixed program of the same kind as javastyle: a
fresh interpreter that builds generated Java text and walks it one
character at a time into words, marks and a dictionary. Its code never
changes with javastyle's, so timing it between operations tells the
harness how fast the machine ran around them, and ``run.py`` rescales
its times to the speed at which one probe takes ``REFERENCE_S``
seconds.

Timed back to back with ``analyze`` on a 2-vCPU x86-64 container
(Python 3.11), the probe halved the spread of 45-second medians of the
operation time.

A workload whose operation runs a thread pool (``corpus --jobs 2``) is
rescaled by the probe run with ``--threads`` set to its pool size: the
same work split into ``CHUNKS`` pieces that a pool of that many threads
maps over, as ``corpus`` maps its repositories. Its time then includes
the hand-offs of the interpreter lock between the threads, which on a
shared machine vary with how promptly the host schedules both vCPUs.
Against ``corpus --jobs 2`` (2-vCPU container, Python 3.11), the
threaded probe brought the spread of 40-second medians of the rescaled
operation time from about 7% (single-threaded probe) to about 4%.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from concurrent.futures import ThreadPoolExecutor

# Median probe time, in seconds, by thread count, on the container named
# above; rescaled times are "seconds at that machine's median speed".
# The threaded probe took 1.08 times as long as the plain one there.
REFERENCE_S = {1: 0.4, 2: 0.43}

FILES = 200
CHUNKS = 8


def reference_work(text: str) -> int:
    words: dict[str, int] = {}
    marks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isalnum() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            words[word] = words.get(word, 0) + 1
            marks.append((word, i))
            i = j
        else:
            if not c.isspace():
                marks.append((c, i))
            i += 1
    return len(marks) + len(words)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, choices=sorted(REFERENCE_S),
                        default=1)
    threads = parser.parse_args().threads
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import gen
    files = gen.flat_files(random.Random(0), FILES, "probe")
    if threads == 1:
        reference_work("".join(f.text for f in files))
        return
    chunks = ["".join(f.text for f in files[i::CHUNKS])
              for i in range(CHUNKS)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(reference_work, chunks))


if __name__ == "__main__":
    main()
