"""In-memory spans around the public functions of each suascal layer.

The tracer wraps functions from outside the program: after ``suascal.cli``
has imported every module, each listed function is replaced by a wrapper
in every ``suascal.*`` module namespace that binds it.  That catches
``from ... import`` aliases and calls made inside the defining module,
which resolve through the module's globals.  Only public functions are
listed; a function the program no longer has is skipped and reports zero
calls.

Each call records a span (name, parent span, start, end).  A span's self
time is its duration minus the durations of its direct children, so the
self times of all spans plus the untraced remainder of the command add up
to the command's wall time.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

#: (module, function) pairs whose calls become spans.  Span names drop the
#: ``suascal.`` prefix, for example ``radiance.dc_to_radiance``.
TARGETS = (
    ("suascal.imageio", "read_pgm16"),
    ("suascal.imageio", "write_plane"),
    ("suascal.manifest", "load_manifest"),
    ("suascal.radiance", "dc_to_radiance"),
    ("suascal.reflectance", "select_calibration"),
    ("suascal.reflectance", "fit_elm_2pt"),
    ("suascal.reflectance", "apply_elm"),
    ("suascal.reflectance", "out_of_range_fraction"),
    ("suascal.reflectance", "dls_correct"),
    ("suascal.rsr", "band_effective"),
    ("suascal.simulate", "parametric_atmosphere"),
    ("suascal.simulate", "sensor_radiance"),
    ("suascal.simulate", "dls_downwelling"),
    ("suascal.simulate", "run_maarr_grid"),
    ("suascal.simulate", "summary_rows"),
    ("suascal.simulate", "band_statistics"),
    ("suascal.simulate", "grouped_absolute_error"),
)


def span_name(module: str, function: str) -> str:
    return f"{module.removeprefix('suascal.')}.{function}"


class Tracer:
    """Collects spans; one stack of open spans per thread."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self._local = threading.local()

    def wrap(self, name: str, fn):
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, 0.0, 0.0])
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                span = spans[index]
                span[2] = start
                span[3] = end

        return wrapper

    def install(self) -> None:
        """Wrap every binding of every target the program still has."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "suascal"
                                         or key.startswith("suascal."))]
        for module_name, function in TARGETS:
            home = sys.modules.get(module_name)
            original = getattr(home, function, None)
            if original is None:
                continue
            wrapper = self.wrap(span_name(module_name, function), original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def summary(self) -> dict:
        """Per-name calls and self seconds, plus top-level span seconds."""
        child_time = [0.0] * len(self.spans)
        top_level = 0.0
        for name, parent, start, end in self.spans:
            if parent < 0:
                top_level += end - start
            else:
                child_time[parent] += end - start
        per_name: dict[str, dict] = {}
        for (name, _, start, end), children in zip(self.spans, child_time):
            entry = per_name.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start) - children
        return {"functions": per_name, "top_level_s": top_level,
                "spans": len(self.spans)}
