"""A run's forked parts, and the files a failed run removes."""

from __future__ import annotations

import os
import pickle
import signal
from contextlib import contextmanager
from typing import BinaryIO, Callable

from .errors import SuascalError


def part_runs(workers: int, units: int) -> list[range]:
    """``range(units)`` cut into one contiguous run per part, as even as
    can be with the shorter runs first: one part per worker, or per unit
    if there are fewer, and one where :func:`os.fork` does not exist."""
    parts = min(workers, units) if hasattr(os, "fork") else 1
    return [range(k * units // parts, (k + 1) * units // parts)
            for k in range(parts)]


class Parts:
    """The children that run parts 2 to ``count`` of a run, each on one
    thread, while this process runs part 1.  A child only sends: pickled
    messages down its one pipe to this process.  An error or interrupt in
    the ``with`` block kills them, and leaving it closes every pipe and
    reaps every child."""

    def __init__(self, name: str, count: int):
        self.name, self.count = name, count
        self._children: list[tuple[int, BinaryIO]] = []

    def fork(self, run: Callable[[BinaryIO], None]) -> None:
        """Fork the next part's child, which calls ``run(out)`` with its end
        of the pipe to this process, then exits."""
        read, write = os.pipe()
        # Fork, not spawn: a spawned child imports numpy and this package
        # again, which takes longer than the part it would run.  The
        # package starts no thread; OpenBLAS's pool has fork handlers.
        pid = os.fork()
        if pid:
            os.close(write)
            self._children.append((pid, os.fdopen(read, "rb")))
            return
        status = 1
        try:
            os.close(read)
            for _, reader in self._children:
                reader.close()
            with os.fdopen(write, "wb") as out:
                run(out)
            status = 0
        finally:
            # Nothing of the parent's (atexit hooks, stdio buffers) runs here.
            os._exit(status)

    def receive(self, part: int, missing: str):
        """The next message of ``part``'s child.  Raises the exception it
        sent, or, if it ended first, a :class:`SuascalError` naming the
        part and what it is ``missing``."""
        try:
            message = pickle.load(self._children[part - 2][1])
        except (EOFError, pickle.UnpicklingError):
            raise SuascalError(f"{self.name} {part} of {self.count} "
                               f"{missing}") from None
        if isinstance(message, BaseException):
            raise message
        return message

    def __enter__(self) -> Parts:
        return self

    def __exit__(self, kind, value, traceback) -> None:
        try:
            if kind is not None:
                for pid, _ in self._children:
                    os.kill(pid, signal.SIGKILL)
        finally:
            # A child blocked on its pipe ends once this end is closed.
            for _, reader in self._children:
                reader.close()
            for pid, _ in self._children:
                os.waitpid(pid, 0)


def send_outcome(work: Callable[[], object], out: BinaryIO) -> None:
    """Pickle to ``out`` what ``work()`` returns, or what it raises."""
    try:
        message = work()
    except BaseException as exc:
        message = exc
    pickle.dump(message, out)


@contextmanager
def removed_on_error(paths=()):
    """Remove each of ``paths``, and of the paths added to the list this
    yields, if the block raises anything, an interrupt too.  A path is
    removed whichever run wrote it, so a failed command leaves none of its
    files, new or old."""
    paths = list(paths)
    try:
        yield paths
    except BaseException:
        for path in paths:
            path.unlink(missing_ok=True)
        raise
