"""In-memory spans around polyboot's layer entry points.

The tracer replaces a function at the name its caller looks up (for example
``polyboot.bootstrap.weights_for_draw``) with a wrapper that records a span:
name, wall start and end, the thread's CPU time inside it, parent, root
and thread id. Nothing under ``src/`` changes,
and ``uninstall`` puts every original function back, so untraced runs execute
the unwrapped program.

Parents come from a per-thread stack. A span opened on a thread with an empty
stack (a bootstrap pool worker) takes the open ``bootstrap`` span as its
parent: the load generator runs one bootstrap at a time, so at most one is
open.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import threading
import time
from collections import Counter, defaultdict


class Span:
    __slots__ = ("id", "name", "start", "end", "cpu", "parent", "root", "thread", "attrs")

    def __init__(self, span_id, name, parent):
        self.id = span_id
        self.name = name
        self.parent = parent.id if parent is not None else None
        self.root = parent.root if parent is not None else span_id
        self.thread = threading.get_ident()
        self.attrs = {}
        self.cpu = time.thread_time()
        self.start = time.perf_counter()
        self.end = None

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self):
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "cpu": self.cpu,
            "parent": self.parent,
            "root": self.root,
            "thread": self.thread,
            **self.attrs,
        }


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._worker_parent = None
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else self._worker_parent
        with self._lock:
            span = Span(next(self._ids), name, parent)
        stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        span.cpu = time.thread_time() - span.cpu
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def count(self, key):
        with self._lock:
            self.counts[key] += 1

    # -- installing wrappers -----------------------------------------------

    def wrap(self, module, attr, name, after=None, worker_root=False):
        """Trace ``module.attr`` as span ``name``.

        ``after(span, args, result)`` may attach attributes to the span.
        With ``worker_root``, spans opened by pool workers while this span is
        open become its children.
        """
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            span = self._open(name)
            previous = self._worker_parent
            if worker_root:
                self._worker_parent = span
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                if worker_root:
                    self._worker_parent = previous
                self._close(span)
            if after is not None:
                after(span, args, result)
            return result

        self._patch(module, attr, traced)

    def count_moment_evals(self, module, attr="build_moment"):
        """Make every moment that ``module.build_moment`` returns count its
        ``fn`` evaluations under ``moment_evals``."""
        original = getattr(module, attr)

        def counting_build(*args, **kwargs):
            moment = original(*args, **kwargs)
            fn = moment.fn

            def counted(variables, theta):
                self.count("moment_evals")
                return fn(variables, theta)

            return dataclasses.replace(moment, fn=counted)

        self._patch(module, attr, counting_build)

    def _patch(self, module, attr, replacement):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- reading -----------------------------------------------------------

    def by_name(self, name):
        return [s for s in self.spans if s.name == name]

    def total(self, name):
        return sum(s.duration for s in self.by_name(name))

    def busy(self, name):
        """CPU seconds of the threads inside spans ``name``. Unlike wall
        time, this excludes waiting for the interpreter lock, so it does not
        grow with the number of pool workers sharing it."""
        return sum(s.cpu for s in self.by_name(name))

    def self_total(self, name):
        """Sum over spans ``name`` of duration minus the time their children
        cover (the union of the child intervals, clipped to the parent)."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        total = 0.0
        for span in self.by_name(name):
            covered, reach = 0.0, span.start
            for start, end in sorted(children[span.id]):
                start, end = max(start, reach), min(end, span.end)
                if end > start:
                    covered += end - start
                    reach = end
            total += span.duration - covered
        return total

    def write_jsonl(self, path, round_index=0):
        """Append the spans to ``path`` as JSON lines tagged ``round``."""
        with open(path, "a", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({"round": round_index, **span.to_dict()}) + "\n")
