"""Spans recorded around the public entry points of each ``repro`` layer.

The program under test has no timing spans of its own (its trace
events are wall-clock-free on purpose), so the traced run patches the
entry points from here: each wrapper records a span with a name, start,
end, parent span, request id and a few counts.  Spans stay in memory
and are written out once, when the run ends.

A function is patched under the name its caller looks it up by: a
module that did ``from .x import f`` holds its own binding, so
``repro.core.executor.deserialize_wah`` is patched, not the definition
in ``repro.bitmap.serialization``.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable


@dataclass
class Span:
    """One call through a wrapped entry point."""

    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: Any = None
    attrs: dict = field(default_factory=dict)
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the part covered by child spans (children
        run on the parent's thread, nested, so they never overlap)."""
        return self.duration - self.children_s


#: ``enter(args, kwargs) -> (args, kwargs, attrs)`` runs before the
#: span opens; ``leave(args, result) -> attrs`` runs after it closes.
Enter = Callable[[tuple, dict], tuple[tuple, dict, dict]]
Leave = Callable[[tuple, Any], dict]


class Tracer:
    """Records spans from patched functions; a context manager that
    undoes every patch on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: Any = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs: dict | None = None) -> int:
        """Start a span on this thread, nested under its open span."""
        stack = self._stack()
        span = Span(
            name=name,
            start=time.perf_counter(),
            parent=stack[-1] if stack else None,
            request=self.request,
            attrs=dict(attrs or {}),
        )
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        """End the span ``open`` returned, crediting its parent."""
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            self.spans[span.parent].children_s += span.duration

    # -- patching ------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        enter: Enter | None = None,
        leave: Leave | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        Static and class methods keep their descriptor kind.  Coroutine
        functions get an async wrapper whose span has no parent and
        takes no children: concurrent coroutines share one thread, so
        a per-thread stack cannot nest them.
        """
        original = inspect.getattr_static(owner, attr)
        kind = type(original)
        func = (
            original.__func__
            if kind in (staticmethod, classmethod)
            else original
        )
        tracer = self

        if inspect.iscoroutinefunction(func):

            @functools.wraps(func)
            async def wrapper(*args, **kwargs):
                attrs: dict = {}
                if enter is not None:
                    args, kwargs, attrs = enter(args, kwargs)
                span = Span(
                    name=name,
                    start=time.perf_counter(),
                    request=tracer.request,
                    attrs=attrs,
                )
                try:
                    result = await func(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    with tracer._lock:
                        tracer.spans.append(span)
                if leave is not None:
                    span.attrs.update(leave(args, result))
                return result

        else:

            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                attrs: dict = {}
                if enter is not None:
                    args, kwargs, attrs = enter(args, kwargs)
                index = tracer.open(name, attrs)
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer.close(index)
                if leave is not None:
                    tracer.spans[index].attrs.update(leave(args, result))
                return result

        replacement = (
            kind(wrapper)
            if kind in (staticmethod, classmethod)
            else wrapper
        )
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # -- output --------------------------------------------------------
    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "request": span.request,
                            "self_s": span.self_s,
                            "attrs": span.attrs,
                        },
                        default=str,
                    )
                    + "\n"
                )

