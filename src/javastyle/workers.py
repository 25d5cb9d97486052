"""A map over forked worker processes and the calling process, which all
pull their work from one queue.

Only the commands that start workers import this module. The workers
inherit the function and the items. Every chunk number is written into
one tasks pipe before the first fork. With `jobs` N, N - 1 workers are
forked; each of them, and the caller too, reads the next number whenever
it is free. A worker sends its pickled results back up a frames pipe of
its own; the caller's own results are never pickled.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
from collections.abc import Callable, Iterator, Sequence

# The byte length that starts each frame.
_LENGTH_BYTES = 8


def map_in_processes(fn: Callable, items: Sequence, jobs: int, *,
                     chunksize: int = 1) -> Iterator:
    """`fn` over `items` in up to `jobs` processes, this one included;
    results in item order, each yielded as soon as it and those before it
    are done.

    At the first `next` every chunk number goes into one tasks pipe in a
    single write of at most PIPE_BUF bytes, which neither blocks nor
    interleaves; `chunksize` grows for longer item lists so that the numbers
    fit (1,024 chunks where PIPE_BUF is 4,096 bytes, as on Linux; 128 where
    it is 512, as on macOS). Then `jobs` - 1 workers are forked. They
    inherit `fn`, the items and whatever the caller loaded, such as the
    lexicon, and each takes the next 4-byte number whenever it is free, so
    this process never writes to them. This process takes the first number
    before the fork and the next ones from the same pipe, and runs those
    chunks itself, reading the frames that are ready between its items; it
    waits on the workers only once the queue is empty. Each worker sends
    back one pickled frame per chunk: its number, the results up to the
    first item that raised, and that item's exception. An item's
    exception, wherever it ran, is raised here at its position, after the
    items before it are yielded. A worker exits 0 once the queue is empty;
    any other end raises ChildProcessError, since the chunk it may have
    held is lost. The workers are killed and reaped when the results run
    out, when one raises and when the generator is closed.
    With `jobs` 1, or where the platform cannot fork, `fn` runs in this
    process alone.
    """
    if jobs <= 1 or not hasattr(os, "fork"):
        yield from map(fn, items)
        return
    # Whole 4-byte numbers only, so that no read takes part of one.
    chunksize = max(chunksize, -(-len(items) // (select.PIPE_BUF // 4)))
    chunks = len(range(0, len(items), chunksize))
    tasks, queue = os.pipe()
    os.write(queue, b"".join(n.to_bytes(4, "little") for n in range(chunks)))
    os.close(queue)
    workers: dict[int, int] = {}  # a worker's frames pipe -> its pid
    try:
        # Taken before the fork, so that this process runs the first chunk,
        # whose results are wanted first, and needs no frame for it.
        number = os.read(tasks, 4)
        for _ in range(min(jobs, chunks) - 1):
            frames, out = os.pipe()
            workers[frames] = 0  # no pid until it is forked
            try:
                pid = os.fork()
            except OSError:
                os.close(out)
                raise
            if pid == 0:
                _serve(fn, items, chunksize, tasks, out, list(workers))
            os.close(out)
            workers[frames] = pid
        received = {frames: bytearray() for frames in workers}
        done: dict[int, tuple[list, BaseException | None]] = {}

        def receive(timeout: float | None = 0) -> None:
            """Read the frames pipes that are ready within `timeout`."""
            for frames in select.select(list(workers), [], [], timeout)[0]:
                data = os.read(frames, 1 << 16)
                if not data:
                    os.close(frames)
                    _reap(workers.pop(frames))
                    continue
                buf = received[frames]
                buf += data
                while len(buf) >= _LENGTH_BYTES:
                    end = _LENGTH_BYTES + int.from_bytes(buf[:_LENGTH_BYTES],
                                                         "little")
                    if len(buf) < end:
                        break
                    chunk, results, error = pickle.loads(
                        buf[_LENGTH_BYTES:end])
                    done[chunk] = (results, error)
                    del buf[:end]

        first = 0  # the first chunk not yet yielded
        while first < chunks:
            if first in done:
                results, error = done.pop(first)
                first += 1
                yield from results
                if error is not None:
                    raise error
            elif len(number) == 4:
                chunk = int.from_bytes(number, "little")
                done[chunk] = _run_chunk(fn, items, chunk, chunksize,
                                         receive)
                number = os.read(tasks, 4)
            elif workers:
                receive(None)
            else:
                raise ChildProcessError("the worker processes ended before "
                                        "sending every result")
    finally:
        # Numbers still queued would keep the workers busy.
        os.close(tasks)
        for frames, pid in workers.items():
            os.close(frames)
            if pid:
                os.kill(pid, signal.SIGKILL)
        for pid in workers.values():
            if pid:
                os.waitpid(pid, 0)


def _run_chunk(fn: Callable, items: Sequence, chunk: int, chunksize: int,
               poll: Callable[[], None] | None = None
               ) -> tuple[list, Exception | None]:
    """`fn` over the items of one chunk: the results up to the first item
    that raised, and that item's exception. `poll`, if given, runs before
    each item."""
    start = chunk * chunksize
    results: list = []
    for item in items[start:start + chunksize]:
        if poll is not None:
            poll()
        try:
            results.append(fn(item))
        except Exception as exc:
            return results, exc
    return results, None


def _reap(pid: int) -> None:
    """Wait for a worker whose frames pipe has ended; only exit 0, which
    it takes once the queue is empty, is a normal end."""
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:
        cause = f"signal {-code}" if code < 0 else f"exit code {code}"
        raise ChildProcessError(f"a worker process ended ({cause}) "
                                "before sending its results")


def _serve(fn: Callable, items: Sequence, chunksize: int, tasks: int,
           frames: int, readers: list[int]) -> None:
    """A worker's life: run each chunk whose number it reads from `tasks`
    and write its frame to `frames`, until `tasks` is empty. It closes
    `readers`, the caller's ends of the frames pipes, and leaves only
    through `os._exit`, so it never runs the caller's cleanup code nor
    flushes its buffered output."""
    code = 1
    try:
        for fd in readers:
            os.close(fd)
        while len(number := os.read(tasks, 4)) == 4:
            chunk = int.from_bytes(number, "little")
            results, error = _run_chunk(fn, items, chunk, chunksize)
            try:
                payload = pickle.dumps((chunk, results, error),
                                       pickle.HIGHEST_PROTOCOL)
            except Exception as exc:  # a result or exception that cannot pickle
                bad = exc if error is None else error
                payload = pickle.dumps(
                    (chunk, [], RuntimeError(f"{type(bad).__name__}: {bad}")))
            frame = memoryview(len(payload).to_bytes(_LENGTH_BYTES, "little")
                               + payload)
            while frame:
                frame = frame[os.write(frames, frame):]
        code = 0
    finally:
        os._exit(code)
