"""Span recorder for the traced run.

The recorder replaces functions at the module attributes through which the
package's layers call each other, records one span per call and puts the
originals back afterwards. Spans stay in memory while the run measures and
are written as JSON lines at the end. Nothing is installed in untraced runs.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    item: str | None
    taps: int = 0
    bytes: int = 0

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


def span_name(fn) -> str:
    """``<module>.<function>`` of the function's home module, e.g. ``kernels.correlate``."""
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Recorder:
    """Records nested call spans of wrapped functions.

    ``unit`` labels the benchmark's current unit of work; a wrapper made with
    ``starts_item`` (the frame fetch) opens a new item ``<unit>:<index>`` so
    spans of one frame share an identifier. ``work`` maps a span name to a
    function of the call's arguments giving (tap multiplies, bytes computed).
    """

    def __init__(self, work=None) -> None:
        self.spans: list[Span] = []
        self.unit = ""
        self.item: str | None = None
        self._stack: list[int] = []
        self._patched: list = []
        self._work = work or {}

    def wrap(self, module, attr: str, starts_item: bool = False) -> None:
        original = getattr(module, attr)
        name = span_name(original)
        work = self._work.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if starts_item:
                self.item = f"{self.unit}:{args[1]}"
            span = Span(name, 0, 0, stack[-1] if stack else None, self.item)
            if work is not None:
                span.taps, span.bytes = work(*args, **kwargs)
            stack.append(len(spans))
            spans.append(span)
            span.start_ns = time.perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def wrap_imports(self, module) -> None:
        """Wrap every function ``module`` imported from another package module."""
        package = module.__name__.rpartition(".")[0] + "."
        for attr, obj in list(vars(module).items()):
            if (inspect.isfunction(obj) and obj.__module__.startswith(package)
                    and obj.__module__ != module.__name__):
                self.wrap(module, attr)

    def unwrap(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Recorder":
        return self

    def __exit__(self, *exc) -> None:
        """Leaving a ``with recorder:`` block restores the wrapped attributes."""
        self.unwrap()

    def self_ms(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] += span.end_ns - span.start_ns
        return [(s.end_ns - s.start_ns - c) / 1e6 for s, c in zip(self.spans, child_ns)]

    def calls_by_item(self) -> dict[str, Counter]:
        counts: dict[str, Counter] = defaultdict(Counter)
        for span in self.spans:
            if span.item is not None:
                counts[span.item][span.name] += 1
        return counts

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="ascii") as f:
            for index, (span, own) in enumerate(zip(self.spans, self.self_ms())):
                f.write(json.dumps({
                    "id": index, "name": span.name, "start_ns": span.start_ns,
                    "end_ns": span.end_ns, "parent": span.parent, "item": span.item,
                    "self_ms": own, "taps": span.taps, "bytes": span.bytes,
                }) + "\n")


def layer_stats(recorder: Recorder) -> dict[str, dict]:
    """Per span name: call count, median duration and median self time (ms)."""
    own = recorder.self_ms()
    durations, selves = defaultdict(list), defaultdict(list)
    for span, s in zip(recorder.spans, own):
        durations[span.name].append(span.ms)
        selves[span.name].append(s)
    return {
        name: {
            "calls": len(durations[name]),
            "ms_p50": statistics.median(durations[name]),
            "self_ms_p50": statistics.median(selves[name]),
        }
        for name in durations
    }
