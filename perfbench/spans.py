"""Span tracing from outside the program.

A :class:`Tracer` replaces callables of the ``pointfill`` modules with timed
wrappers, at the attribute through which their callers look them up (a
module global such as ``geometry.knn``, a class attribute such as
``Tape.backward`` or ``UpsampleStage.__call__``). Nothing inside the
package changes. Each call becomes a :class:`Span` holding a name, start and
end (``perf_counter_ns``), the index of its parent span, the operation id it
belongs to and, for some layers, exact work counts. Spans stay in memory
until :meth:`Tracer.write` dumps them as JSON lines.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name, parent, op, counts):
        self.name = name
        self.start = 0
        self.end = 0
        self.parent = parent
        self.op = op
        self.counts = counts

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {
            "name": self.name, "start_ns": self.start, "end_ns": self.end,
            "parent": self.parent, "op": self.op, "counts": self.counts,
        }


class Tracer:
    """Records nested spans of wrapped callables while installed.

    ``targets`` lists ``(owner, attribute, label)`` triples. ``label`` is
    either a fixed span name or a function of the call's ``(args, kwargs)``
    returning ``(name, counts)``, where ``counts`` is a dict of exact work
    counts or None. ``install`` puts the wrappers in place and
    ``uninstall`` restores the originals; the tracer is also a context
    manager doing both. ``op`` names the operation that new spans belong to.
    """

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans = []
        self.op = None
        self._stack = []
        self._originals = []

    def install(self):
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for owner, attr, label in self.targets:
            if attr not in vars(owner):
                raise RuntimeError(f"{owner.__name__}.{attr} is not defined there")
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, label))

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn, label):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if callable(label):
                name, counts = label(args, kwargs)
            else:
                name, counts = label, None
            span = Span(name, tracer._stack[-1] if tracer._stack else None,
                        tracer.op, counts)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                tracer._stack.pop()

        return traced

    def self_times(self):
        """Span duration minus the time covered by its direct children, in ns."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def per_op(self, ops):
        """Totals over the spans of the given operation ids.

        Returns ``(self_ns, counts, top_ns)``: self time per span name,
        counts per ``name.calls`` and ``name.<count>`` key, and the summed
        duration of top-level spans (those without a parent).
        """
        ops = set(ops)
        self_ns = defaultdict(int)
        counts = defaultdict(int)
        top_ns = 0
        for span, own in zip(self.spans, self.self_times()):
            if span.op not in ops:
                continue
            self_ns[span.name] += own
            counts[f"{span.name}.calls"] += 1
            for key, value in (span.counts or {}).items():
                counts[f"{span.name}.{key}"] += value
            if span.parent is None:
                top_ns += span.duration
        return self_ns, counts, top_ns

    def durations(self, name, op):
        return [s.duration for s in self.spans if s.name == name and s.op == op]

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")
