"""Spans around tschmm's module-level functions, recorded from outside.

`Tracer.install` replaces a function in every tschmm module namespace that
holds it, so calls between modules (`from .hmm import forward`) and inside a
module (hmm.gmr_predict -> hmm.forward) both pass through the wrapper. The
program itself is not edited. Spans stay in memory and are written out once,
at the end of a run.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "child_s", "attrs")

    def __init__(self, sid, name, parent, start):
        self.id = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.attrs = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        # children run one at a time on this thread, so their intervals
        # never overlap and their durations add up to the covered time
        return self.seconds - self.child_s


class Tracer:
    """Records one span per wrapped call; `on_exit` hooks add attributes."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._restore: list[tuple] = []

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def install(self, module, attr: str, name: str, on_exit=None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = self.current
            span = Span(len(self.spans), name, parent, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.seconds
            if on_exit is not None:
                on_exit(span, args, kwargs, result)
            return result

        for mod in [m for n, m in sys.modules.items() if n == "tschmm" or n.startswith("tschmm.")]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def dump(self, path) -> None:
        """Gzipped JSON lines, one per span; times in seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                rec = {
                    "id": s.id,
                    "name": s.name,
                    "parent": None if s.parent is None else s.parent.id,
                    "start": s.start - t0,
                    "end": s.end - t0,
                    "self": s.self_seconds,
                }
                rec.update((k, v) for k, v in s.attrs.items() if isinstance(v, (int, float)))
                fh.write(json.dumps(rec) + "\n")
