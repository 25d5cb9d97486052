"""A map over forked worker processes, fed through pipes.

Only the commands that start workers import this module. The workers
inherit the function and the items; chunk numbers go down one pipe per
worker and pickled results come back up another.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
from collections import deque
from collections.abc import Callable, Iterator, Sequence

# Chunks handed to a worker before it answers: it starts the next while
# its last frame is read.
_CHUNKS_PER_WORKER = 2
# The byte length that starts each frame.
_LENGTH_BYTES = 8


def map_in_processes(fn: Callable, items: Sequence, jobs: int, *,
                     chunksize: int = 1) -> Iterator:
    """`fn` over `items` on up to `jobs` forked worker processes; results
    in item order, each yielded as soon as it and those before it are done.

    The workers are forked at the first `next` and inherit `fn`, the
    items and whatever the caller loaded, such as the lexicon, so only
    chunk numbers go down to them. Each worker sends back one pickled
    frame per chunk of `chunksize` items: their results up to the first
    item that raised, and that item's exception, which is raised here at
    its position, after the items before it are yielded. A worker that
    ends without sending its frame raises ChildProcessError. The workers
    are stopped and reaped when the results run out, when one raises and
    when the generator is closed. Where the platform cannot fork, `fn`
    runs in this process.
    """
    if not hasattr(os, "fork"):
        yield from map(fn, items)
        return
    chunks = len(range(0, len(items), chunksize))
    pending = iter(range(chunks))  # chunk numbers not yet handed out
    workers: list[_Worker] = []
    try:
        for _ in range(min(jobs, chunks)):
            workers.append(_fork_worker(fn, items, chunksize, workers))
        for _ in range(_CHUNKS_PER_WORKER):
            for worker in workers:
                worker.send(next(pending, None))
        done: dict[int, tuple[list, BaseException | None]] = {}
        first = 0  # the first chunk not yet yielded
        while first < chunks:
            busy = {w.frames: w for w in workers if w.waiting}
            for fd in select.select(list(busy), [], [])[0]:
                worker = busy[fd]
                for frame in worker.receive():
                    done[worker.waiting.popleft()] = pickle.loads(frame)
                    worker.send(next(pending, None))
            while first in done:
                results, error = done.pop(first)
                first += 1
                yield from results
                if error is not None:
                    raise error
    finally:
        _stop(workers)


class _Worker:
    """The caller's end of a forked worker: the pipe that takes it chunk
    numbers, the pipe its frames come back on, and the chunks it has not
    answered yet, oldest first."""

    def __init__(self, pid: int, tasks: int, frames: int):
        self.pid, self.tasks, self.frames = pid, tasks, frames
        self.waiting: deque[int] = deque()
        self.received = bytearray()

    def send(self, chunk: int | None) -> None:
        """Hand it `chunk`; None means that no chunk is left, so the
        worker may exit once it has sent the frames it owes."""
        if chunk is None:
            if self.tasks >= 0:
                os.close(self.tasks)
                self.tasks = -1
            return
        self.waiting.append(chunk)
        try:
            os.write(self.tasks, chunk.to_bytes(4, "little"))
        except BrokenPipeError:
            pass  # it has ended: its frames pipe is at its end too

    def receive(self) -> Iterator[bytes]:
        """The frames completed by one read of the frames pipe."""
        data = os.read(self.frames, 1 << 16)
        if not data:
            code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
            self.pid = 0
            cause = f"signal {-code}" if code < 0 else f"exit code {code}"
            raise ChildProcessError(f"a worker process ended ({cause}) "
                                    "before sending its results")
        buf = self.received
        buf += data
        while len(buf) >= _LENGTH_BYTES:
            end = _LENGTH_BYTES + int.from_bytes(buf[:_LENGTH_BYTES], "little")
            if len(buf) < end:
                break
            yield buf[_LENGTH_BYTES:end]
            del buf[:end]


def _fork_worker(fn: Callable, items: Sequence, chunksize: int,
                 started: list[_Worker]) -> _Worker:
    tasks_r, tasks_w = os.pipe()
    frames_r, frames_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (tasks_r, tasks_w, frames_r, frames_w):
            os.close(fd)
        raise
    if pid == 0:
        # The worker leaves only here, so it never runs the caller's
        # cleanup code nor flushes its buffered output.
        code = 1
        try:
            # The other workers' pipes too: a worker must see its own
            # tasks pipe end when the caller closes it.
            for fd in (tasks_w, frames_r,
                       *(fd for w in started for fd in (w.tasks, w.frames))):
                os.close(fd)
            _serve(fn, items, chunksize, tasks_r, frames_w)
            code = 0
        finally:
            os._exit(code)
    os.close(tasks_r)
    os.close(frames_w)
    return _Worker(pid, tasks_w, frames_r)


def _serve(fn: Callable, items: Sequence, chunksize: int, tasks: int,
           frames: int) -> None:
    """A worker's loop: run each chunk whose number arrives on `tasks` and
    write its frame to `frames`, until `tasks` ends."""
    while True:
        number = b""
        while len(number) < 4:
            more = os.read(tasks, 4 - len(number))
            if not more:
                return
            number += more
        start = int.from_bytes(number, "little") * chunksize
        results: list = []
        error = None
        try:
            for item in items[start:start + chunksize]:
                results.append(fn(item))
        except Exception as exc:
            error = exc
        try:
            payload = pickle.dumps((results, error), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # a result or exception that cannot pickle
            bad = exc if error is None else error
            payload = pickle.dumps(
                ([], RuntimeError(f"{type(bad).__name__}: {bad}")))
        frame = memoryview(len(payload).to_bytes(_LENGTH_BYTES, "little")
                           + payload)
        while frame:
            frame = frame[os.write(frames, frame):]


def _stop(workers: list[_Worker]) -> None:
    """Close every pipe, kill the workers that still owe a frame, and reap
    them all. An idle worker reads the end of its tasks and exits, and
    one blocked writing a frame gets EPIPE even before the kill lands."""
    for worker in workers:
        worker.send(None)
        os.close(worker.frames)
        if worker.pid and worker.waiting:
            os.kill(worker.pid, signal.SIGKILL)
    for worker in workers:
        if worker.pid:
            try:
                os.waitpid(worker.pid, 0)
            except ChildProcessError:
                pass  # already reaped
