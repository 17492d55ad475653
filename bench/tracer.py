"""Spans and call counts recorded around disclab's public functions.

The tracer replaces module attributes with wrappers from outside the
program, so disclab itself carries no tracing code.  A span is (id, parent,
name, start, end, phase) plus the sizes its wrapper measured; a counter only
counts calls, for functions called too often to time one by one.  Spans stay
in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    phase: str
    sizes: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], int] = {}
        self.phase = ""
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def recording(self, phase: str):
        """Record spans and counts, tagged with phase, inside the block."""
        self.phase, self.active = phase, True
        try:
            yield
        finally:
            self.active = False

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _patch(self, owner, attr: str, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, sizes=None):
        """Record a span per call of owner.attr; sizes(args, kwargs, result)
        returns the counts stored with it."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            extra = sizes(args, kwargs, result) if sizes else {}
            self.spans.append(Span(sid, parent, name, start, end, self.phase, extra))
            return result

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, name: str):
        original = getattr(owner, attr)
        lock = threading.Lock()

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self.active:
                with lock:
                    self.counts[(self.phase, name)] = self.counts.get((self.phase, name), 0) + 1
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def close(self):
        """Put every wrapped attribute back."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str, **meta):
        data = {
            "meta": meta,
            "spans": [asdict(s) for s in self.spans],
            "counts": [
                {"phase": phase, "name": name, "calls": n}
                for (phase, name), n in sorted(self.counts.items())
            ],
        }
        with open(path, "w") as fh:
            json.dump(data, fh)
