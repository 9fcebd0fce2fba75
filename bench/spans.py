"""In-memory spans around the package's public functions.

The wrappers are installed at run time, from outside the package: every
``treebank_entropy.*`` namespace that holds a traced function is rebound to
the wrapper, because several modules import functions by name (``analysis``
and ``estimators`` both hold their own reference to ``induce``).  Nothing
under ``src/`` is edited.  A traced name that no longer exists is recorded
as absent instead of failing the run, and a counter that cannot read a
call's result is recorded as an error.

A span is ``[name, start, end, parent]``; spans nest per thread.  Counting
work done by a traced call (tree nodes, grammar sizes) happens in a child
span named ``bench.count`` so it is excluded from the layer's self time and
shows up in the tracing overhead instead.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

COUNT_SPAN = "bench.count"
PACKAGE = "treebank_entropy"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.maxima: dict[str, float] = {}
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.errors: list[str] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = [name, perf_counter(), None, stack[-1] if stack else None]
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record[2] = perf_counter()
            stack.pop()

    def note_max(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.counts[name + "_calls"] += 1
            if after is not None:
                with self.span(COUNT_SPAN):
                    try:
                        after(self, result, args)
                    except Exception as err:  # a changed return type: keep tracing
                        self.errors.append(f"{name}: {type(err).__name__}: {err}")
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap each ``(span name, module, attribute path, after)`` target."""
        namespaces = [
            m for n, m in list(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for name, module, attr, after in targets:
            owner = sys.modules.get(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if owner is None or not callable(original):
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original, after)
            if path:  # a method: rebind it on its class
                self._rebind(owner, leaf, original, wrapper)
                continue
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._rebind(namespace, key, original, wrapper)

    def _rebind(self, owner, key, original, wrapper) -> None:
        self._restore.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list] = {}
    for record in spans:
        if record[3] is not None:
            children.setdefault(id(record[3]), []).append((record[1], record[2]))
    return [
        (record[2] - record[1]) - _covered(children.get(id(record), ()))
        for record in spans
    ]


def roots(spans) -> list[list]:
    """The top-level ancestor of each span."""
    out = []
    for record in spans:
        top = record
        while top[3] is not None:
            top = top[3]
        out.append(top)
    return out


def serializable(spans) -> list[list]:
    """Spans as ``[name, start, end, parent index]`` rows."""
    index = {id(record): i for i, record in enumerate(spans)}
    return [
        [name, start, end, None if parent is None else index[id(parent)]]
        for name, start, end, parent in spans
    ]
