"""In-memory spans recorded by the benchmark around calls into each layer.

A span has a name, start, end (``time.perf_counter``, which is the system
monotonic clock, so spans from worker processes line up), the index of its
parent and the trace id of the request it belongs to. With tracing off,
``span`` returns one shared no-op context manager."""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time

_NULL = contextlib.nullcontext()


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, trace_id: str | None = None, **attrs):
        if not self.enabled:
            return _NULL
        return self._open(name, trace_id, attrs)

    @contextlib.contextmanager
    def _open(self, name, trace_id, attrs):
        parent = self._stack[-1] if self._stack else None
        if trace_id is None and parent is not None:
            trace_id = self.spans[parent]["trace"]
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": parent, "trace": trace_id, **attrs}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, start: float, end: float, trace_id=None, **attrs) -> None:
        """A span whose bounds were taken by the caller (not nested)."""
        if self.enabled:
            self.spans.append({"name": name, "start": start, "end": end,
                               "parent": None, "trace": trace_id, **attrs})

    def adopt(self, spans: list[dict], trace_id: str) -> None:
        """Append spans recorded by another process under ``trace_id``."""
        base = len(self.spans)
        for s in spans:
            parent = None if s["parent"] is None else s["parent"] + base
            self.spans.append({**s, "parent": parent, "trace": trace_id})

    def durations(self, name: str, under: str | None = None, **attrs) -> list[float]:
        """Durations of the spans called ``name`` whose attributes match
        ``attrs`` and, with ``under``, whose parent span has that name."""
        return [
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name and s["end"] is not None
            and all(s.get(k) == v for k, v in attrs.items())
            and (under is None or (s["parent"] is not None
                                   and self.spans[s["parent"]]["name"] == under))
        ]

    def p50(self, name: str, scale: float = 1.0, under: str | None = None, **attrs) -> float | None:
        d = self.durations(name, under, **attrs)
        return statistics.median(d) * scale if d else None

    def has(self, name: str) -> bool:
        return any(s["name"] == name for s in self.spans)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


def instrument(tracer: Tracer) -> contextlib.ExitStack:
    """Wrap the public calls that other public calls make internally, so a
    traced ``search`` or ``add_documents`` shows its stage-1 round, its
    index reload and its delta write as child spans. Undone on close."""
    from infidex_ray import build
    from infidex_ray.engine import Engine
    from infidex_ray.query.executor import DistributedEngine

    def search_name(self, args, kwargs):
        if isinstance(self, DistributedEngine):
            return "query.executor.search"
        cov = kwargs.get("enable_coverage", args[2] if len(args) > 2 else None)
        return "engine.search_nocov" if cov is False else "engine.search"

    def method(fn, name):
        @functools.wraps(fn)
        def wrapped(self, *args, **kwargs):
            n = name(self, args, kwargs) if callable(name) else name
            with tracer.span(n):
                return fn(self, *args, **kwargs)
        return wrapped

    def classmethod_(cm, name):
        fn = cm.__func__

        @functools.wraps(fn)
        def wrapped(cls, *args, **kwargs):
            with tracer.span(name):
                return fn(cls, *args, **kwargs)
        return classmethod(wrapped)

    def function(fn, name):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)
        return wrapped

    patches = [
        (Engine, "search", method(Engine.search, search_name)),
        (Engine, "stage1", method(Engine.stage1, "query.stage1")),
        (Engine, "add_documents", method(Engine.add_documents, "engine.add_documents")),
        (Engine, "load", classmethod_(Engine.__dict__["load"], "engine.load")),
        (DistributedEngine, "stage1", method(DistributedEngine.stage1, "query.executor.stage1")),
        (DistributedEngine, "connect",
         classmethod_(DistributedEngine.__dict__["connect"], "query.executor.connect")),
        (build, "append_to_index", function(build.append_to_index, "build.append_to_index")),
    ]
    stack = contextlib.ExitStack()
    for owner, attr, new in patches:
        old = owner.__dict__[attr]
        setattr(owner, attr, new)
        stack.callback(setattr, owner, attr, old)
    return stack
