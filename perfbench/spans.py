"""Spans around the benchmark's own call sites into paritykit.

A span records its name, start and end (perf_counter seconds), the span
that caused it, the instance it belongs to, and counts measured at the
call site (states built, vertices solved, ...).  Spans stay in memory and
are written out once, when the run ends.  The untraced run uses
`NullTracer`, whose spans do nothing, so the call sites read the same in
both modes.
"""

import json
import time
from collections import defaultdict


class Span:
    __slots__ = ("tracer", "name", "start", "end", "parent", "instance", "counts", "sid")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name
        self.counts = {}

    def __enter__(self):
        tr = self.tracer
        self.sid = len(tr.spans)
        tr.spans.append(self)
        self.parent = tr.stack[-1].sid if tr.stack else None
        self.instance = tr.instance
        tr.stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        self.tracer.stack.pop()
        return False

    def count(self, **counts):
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value


class Tracer:
    enabled = True

    def __init__(self):
        self.spans = []
        self.stack = []
        self.instance = None

    def span(self, name):
        return Span(self, name)

    def self_times(self, since=0):
        """name -> (self seconds, calls) over spans[since:].  Self time is a
        span's duration minus the part its child spans cover."""
        spans = self.spans[since:]
        child = defaultdict(float)
        for sp in spans:
            if sp.parent is not None:
                child[sp.parent] += sp.end - sp.start
        out = defaultdict(lambda: [0.0, 0])
        for sp in spans:
            acc = out[sp.name]
            acc[0] += sp.end - sp.start - child[sp.sid]
            acc[1] += 1
        return {name: tuple(v) for name, v in out.items()}

    def counts(self, since=0):
        """(name, key) -> summed count, plus (name, key + '_max') -> maximum."""
        out = {}
        for sp in self.spans[since:]:
            for key, value in sp.counts.items():
                out[(sp.name, key)] = out.get((sp.name, key), 0) + value
                mkey = (sp.name, key + "_max")
                out[mkey] = max(out.get(mkey, value), value)
        return out

    def write(self, path):
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": sp.sid,
                            "name": sp.name,
                            "start": sp.start,
                            "end": sp.end,
                            "parent": sp.parent,
                            "instance": sp.instance,
                            "counts": sp.counts,
                        }
                    )
                    + "\n"
                )


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def count(self, **counts):
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    enabled = False
    instance = None

    def span(self, name):
        return _NULL_SPAN


def span_cost(n=20000):
    """Seconds one empty traced span costs where it runs (for the
    overhead estimate printed by the traced run)."""
    tr = Tracer()
    start = time.perf_counter()
    for _ in range(n):
        with tr.span("x") as sp:
            sp.count(k=1)
    return (time.perf_counter() - start) / n
