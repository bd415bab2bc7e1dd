"""In-memory span recorder that wraps package functions from outside.

The tracer never edits the package.  It replaces a function on the object
where callers look it up (a module attribute or a class attribute), records
one span per call, and puts the original back when the `installed` block
ends.  Each span has a name, start, end, parent span, run id and a few
counters taken from the call's arguments and result.  Spans stay in memory
until the benchmark writes them out at the end of the run.

The tracer's own bookkeeping (building spans, computing counters) is timed
separately and reported as its overhead.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans for calls made on the current thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run_id = ""
        self.overhead_s = 0.0
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, attrs=None, **kwargs):
        """Call fn inside a span; attrs(bound_arguments, result) gives counters."""
        t_in = time.perf_counter()
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        span = Span(name, 0.0, 0.0, parent, self.run_id)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            bound = inspect.signature(fn).bind(*args, **kwargs)
            bound.apply_defaults()
            span.attrs = attrs(bound.arguments, result)
        self.overhead_s += (span.start - t_in) + (time.perf_counter() - span.end)
        return result

    def wrapper(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, attrs=attrs, **kwargs)
        return traced

    @contextmanager
    def installed(self, targets):
        """Wrap each (owner, attribute, span name, attrs) for the block's length.

        A target whose attribute does not exist raises AttributeError, so a
        refactor of the package fails the traced run instead of reporting 0.
        """
        saved = []
        try:
            for owner, attr, name, attrs in targets:
                if attr not in vars(owner):
                    raise AttributeError(f"trace target {name} ({attr!r} on {owner!r}) not found")
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrapper(name, original, attrs))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self, run_id: str | None = None) -> dict[str, float]:
        """Per-layer self time: span duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        out: dict[str, float] = {}
        for span, inner in zip(self.spans, child_time):
            if run_id is None or span.run_id == run_id:
                out[span.layer] = out.get(span.layer, 0.0) + span.duration - inner
        return out

    def by_run(self, run_id: str) -> list[Span]:
        return [s for s in self.spans if s.run_id == run_id]

    def dump(self, path, info: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"info": info, "spans": [asdict(s) for s in self.spans]},
                      fh, default=str)
