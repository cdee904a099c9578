"""Run one suascal CLI command in this fresh interpreter and time it.

Usage: ``python3 child.py CONFIG_JSON`` with ``PYTHONPATH`` holding the
repository's ``src``.  The config gives the CLI ``argv``, the ``result``
file to write, and the flags ``trace`` (wrap the layer functions, see
``spans.py``) and ``setup_only`` (stop once the arguments are parsed).

The end of set-up is the moment the outermost ``argparse`` parse returns,
found by hooking ``ArgumentParser.parse_known_args`` before the CLI is
imported, so it needs nothing from the CLI beyond its use of argparse.
Times are ``time.monotonic()`` readings, which the parent compares with
its own reading taken just before it started this process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


class SetupDone(BaseException):
    """Raised from the parse hook in set-up-only runs; the CLI never
    catches a ``BaseException`` that is not an ``Exception``."""


def hook_parser(stamps: dict, setup_only: bool) -> None:
    original = argparse.ArgumentParser.parse_known_args
    depth = [0]

    def parse_known_args(self, *args, **kwargs):
        depth[0] += 1
        try:
            result = original(self, *args, **kwargs)
        finally:
            depth[0] -= 1
        if depth[0] == 0 and "parsed" not in stamps:
            stamps["parsed"] = time.monotonic()
            if setup_only:
                raise SetupDone
        return result

    argparse.ArgumentParser.parse_known_args = parse_known_args


def main() -> None:
    config = json.loads(sys.argv[1])
    stamps: dict = {}
    hook_parser(stamps, config.get("setup_only", False))
    import suascal.cli

    tracer = None
    if config.get("trace"):
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        code = suascal.cli.main(config["argv"])
    except SetupDone:
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    end = time.monotonic()
    result = {
        "exit": code,
        "parsed": stamps.get("parsed"),
        "end": end,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(config["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
