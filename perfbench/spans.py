"""Outside-in instrumentation: wrap public entry points of the program.

Nothing here edits the program.  A wrap target is named as
``"package.module:Class.attr"`` or ``"package.module:function"`` and is
resolved at start-up; a name that no longer resolves is reported and
skipped, so a refactor that removes an entry point drops its metrics
instead of crashing the run.

Module-level functions are rebound in every loaded ``repro`` module that
imported them by name (``from repro.tensor import gelu``), so callers see
the wrapper whichever way they reached the function.

:class:`Tracer` records spans in memory (name, start, end, parent) and
counts; :meth:`Tracer.self_times` subtracts each span's direct children
from its duration.  :meth:`Tracer.write_chrome_trace` writes the spans
in the Chrome trace-event format, which Perfetto opens.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import json
import sys
import time

__all__ = ["Tracer", "patch", "resolve"]


def resolve(target: str):
    """Return ``(owner, attr, raw)`` for a wrap target name.

    Raises ImportError or AttributeError when the target is gone.
    """
    modname, _, qual = target.partition(":")
    module = importlib.import_module(modname)
    *path, attr = qual.split(".")
    owner = module
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, inspect.getattr_static(owner, attr)


def patch(target: str, make_wrapper) -> None:
    """Replace ``target`` by ``make_wrapper(original_function)``."""
    owner, attr, raw = resolve(target)
    if isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(make_wrapper(raw.__func__)))
        return
    if not callable(raw):
        raise AttributeError(f"{target} is not callable")
    wrapper = make_wrapper(raw)
    if inspect.isclass(owner):
        setattr(owner, attr, wrapper)
        return
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is raw:
                setattr(module, key, wrapper)


class Tracer:
    """In-memory span and counter recorder for one traced run."""

    def __init__(self) -> None:
        #: one ``[name, start_ns, end_ns, parent_index]`` per span
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self.missing: list[str] = []

    def timed(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, result)`` runs once the
        span has closed, so its cost lands in the caller, not the span."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def counted(self, name: str, fn, amount=None):
        """Wrap ``fn`` to add ``amount(args, result)`` (default 1) to a counter."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[name] += 1 if amount is None else amount(args, out)
            return out

        return wrapper

    def install(self, target: str, make_wrapper) -> bool:
        """Patch ``target``; a target that no longer resolves is recorded
        in :attr:`missing` and skipped."""
        try:
            patch(target, make_wrapper)
        except (ImportError, AttributeError) as exc:
            self.missing.append(f"{target} ({type(exc).__name__}: {exc})")
            return False
        return True

    # ------------------------------------------------------------------ #

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: total self seconds and number of spans."""
        spans = self.spans
        covered = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        seconds: dict[str, float] = collections.defaultdict(float)
        calls: dict[str, int] = collections.defaultdict(int)
        for (name, start, end, _), child in zip(spans, covered):
            seconds[name] += (end - start - child) * 1e-9
            calls[name] += 1
        return dict(seconds), dict(calls)

    def write_chrome_trace(self, path, origin_ns: int) -> None:
        """Write complete ("X") events, microseconds from ``origin_ns``."""
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - origin_ns) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
            }
            for name, start, end, _ in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
