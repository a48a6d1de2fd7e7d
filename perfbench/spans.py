"""In-memory span recorder and the wrappers that feed it.

A span is ``(name, start, end, parent)`` with times from ``time.perf_counter``
and ``parent`` the index of the enclosing span (-1 for a root).  Spans are
appended when they open, so the list is in start order.  Wrappers are
installed by replacing module attributes and are always taken out again by
``Patches.restore``; the package under test is never edited.
"""
from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent]
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds a traced call adds to a plain one (best of five batches)."""

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    best = {noop: float("inf"), traced: float("inf")}
    for _ in range(5):
        for fn in best:
            t0 = perf_counter()
            for _ in range(calls):
                fn()
            best[fn] = min(best[fn], perf_counter() - t0)
    return (best[traced] - best[noop]) / calls


def self_times(spans) -> dict[str, tuple[float, int]]:
    """Per span name: (total self time in s, number of spans).

    Self time is a span's duration minus the durations of its direct children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = defaultdict(lambda: [0.0, 0])
    for i, (name, start, end, _) in enumerate(spans):
        acc = out[name]
        acc[0] += (end - start) - child[i]
        acc[1] += 1
    return {k: (v[0], v[1]) for k, v in out.items()}


def durations(spans, name: str) -> list[float]:
    return [end - start for n, start, end, _ in spans if n == name]


class Patches:
    """Attribute replacements on imported modules or classes, undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, target: str, attr: str, make):
        """Set ``target.attr = make(original)``; ``target`` is 'module' or 'module:Class'."""
        mod_name, _, cls_name = target.partition(":")
        owner = importlib.import_module(mod_name)
        if cls_name:
            owner = getattr(owner, cls_name)
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
