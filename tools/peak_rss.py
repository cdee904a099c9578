#!/usr/bin/env python3
"""Peak memory of one suascal command and of its largest forked part.

Usage::

    python3 tools/peak_rss.py [--src DIR] [--workers N] -- COMMAND ARGS...

for example ``python3 tools/peak_rss.py -- reflect --manifest m.json --out
o --method elm2``.  It runs ``suascal.cli.main`` on the command in a fresh
interpreter with ``DIR`` (default: this checkout's ``src``) on
``PYTHONPATH`` and no bytecode written, and prints one JSON object:

* ``exit`` - the command's exit code;
* ``command_mb`` - the peak resident set of the process that ran it:
  ``VmHWM`` of ``/proc/self/status``, or ``ru_maxrss`` of
  ``RUSAGE_SELF`` where there is no ``/proc``;
* ``largest_part_mb`` - the largest peak of the parts it forked, read as
  ``RUSAGE_CHILDREN`` once the command has reaped them; 0 when it forked
  none.  A part's peak counts the pages it shares with the process that
  forked it.

Linux carries a process's ``ru_maxrss`` across ``fork`` and ``exec``, so a
command started from a large process (a test run, the benchmark's parent)
would read that process's peak; ``VmHWM`` belongs to the address space
that ``exec`` makes, so it starts from nothing.  The command's
interpreter imports nothing before the command but the package.
``--workers`` sets the command's worker count in place of the CPUs it may
run on.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

#: The command's interpreter: argv[1] is the JSON of the workers and argv.
CHILD = """
import json, resource, sys
config = json.loads(sys.argv[1])
import suascal.cli
if config["workers"] is not None:
    suascal.cli._workers = lambda: config["workers"]
code = suascal.cli.main(config["argv"])
try:
    with open("/proc/self/status") as status:
        own = next(int(line.split()[1]) for line in status
                   if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
parts = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print(json.dumps({"exit": code, "command_mb": own / 1024,
                  "largest_part_mb": parts / 1024}))
"""


def measure(argv: list[str], src: Path, workers: int | None = None) -> dict:
    """The JSON object this script prints for the command ``argv``."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD,
         json.dumps({"workers": workers, "argv": argv})],
        env=dict(os.environ, PYTHONPATH=str(src),
                 PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise RuntimeError(f"the command's interpreter exited "
                           f"{done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src")
    parser.add_argument("--workers", type=int)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no suascal command given")
    try:
        print(json.dumps(measure(command, args.src, args.workers)))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
