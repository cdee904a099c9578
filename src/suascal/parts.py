"""A run's forked parts, and the files a run clears before it writes."""

from __future__ import annotations

import itertools
import os
import pickle
import signal
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import Callable, Sequence

from .errors import SuascalError


def part_runs(workers: int, units: int) -> list[range]:
    """``range(units)`` cut into one contiguous run per part, as even as
    can be with the shorter runs first: one part per worker or unit,
    whichever are fewer but at least one, and one without :func:`os.fork`."""
    parts = max(min(workers, units), 1) if hasattr(os, "fork") else 1
    short, longer = divmod(units, parts)
    starts = [k * short + max(k - parts + longer, 0)
              for k in range(parts + 1)]
    return [range(start, stop) for start, stop in zip(starts, starts[1:])]


def run_parts(name: str, runs: Sequence, work: Callable,
              take: Callable) -> None:
    """Call ``take(work(run))`` for each of ``runs``, in order: the first
    here, each later one in a child forked for it that sends this process
    one pickled message, what ``work`` returns or raises.

    The first error in part order is raised, once the parts before it are
    taken; a child that ends before its message is raised as a
    :class:`SuascalError` naming ``name`` and the part.  Any error or
    interrupt kills the children, and every child is reaped on every path.
    """
    children = []  # (pid, the read end of its pipe)
    try:
        for run in runs[1:]:
            read, write = os.pipe()
            # Fork, not spawn: a spawned child imports numpy and this
            # package again, which takes longer than the part it would
            # run.  The package starts no thread; OpenBLAS's pool has fork
            # handlers.
            pid = os.fork()
            if not pid:
                _child(work, run, write,
                       [read, *(reader.fileno() for _, reader in children)])
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        take(work(runs[0]))
        for part, (_, reader) in enumerate(children, 2):
            try:
                message = pickle.load(reader)
            except (EOFError, pickle.UnpicklingError):
                raise SuascalError(f"{name} {part} of {len(runs)} ended "
                                   "without sending its result") from None
            if isinstance(message, BaseException):
                raise message
            take(message)
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for _, reader in children:
            reader.close()
        for pid, _ in children:
            os.waitpid(pid, 0)


def _child(work: Callable, run, write: int, reads: list[int]) -> None:
    """A forked part: close ``reads``, the parent's pipe ends, pickle what
    ``work(run)`` returns or raises to the pipe end ``write``, and exit."""
    status = 1
    try:
        for read in reads:
            os.close(read)
        with os.fdopen(write, "wb") as out:
            try:
                message = work(run)
            except BaseException as exc:
                message = exc
            # Pickled whole before any of it is written: pickling may still
            # compute, and a message longer than the pipe holds would stop
            # that until this process reads.
            out.write(pickle.dumps(message))
        status = 0
    finally:
        # Nothing of the parent's (atexit hooks, stdio buffers) runs here.
        os._exit(status)


@contextmanager
def removed_on_error(folder: Path, paths: list[Path]):
    """Create ``folder`` and remove each of ``paths``, every file a command
    may write there, so each is written as a new file, never through a
    link, beside no file of an earlier run.  If the block raises anything,
    an interrupt too, remove them again, each one that can be, then each
    level of ``folder`` this created, and raise it."""
    created = list(itertools.takewhile(lambda level: not level.exists(),
                                       (folder, *folder.parents)))
    folder.mkdir(parents=True, exist_ok=True)
    try:
        for path in paths:
            path.unlink(missing_ok=True)
        yield
    except BaseException:
        for path in paths:
            with suppress(OSError):
                path.unlink(missing_ok=True)
        for level in created:
            level.rmdir()
        raise
