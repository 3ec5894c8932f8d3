"""In-memory span tracer for the traced benchmark run.

The traced run wraps the public entry points of each layer (see
``workloads.TRACE_POINTS``) in timing spans.  A span records its layer
name, start, end and the span that was open when it began (its parent);
spans live in flat arrays and are analysed or written out once the run
ends.  A call into a layer that is already open on the stack (a composite
kernel calling its child kernels, say) is not recorded again, so a
layer's ``calls`` counts outermost calls and its ``busy_s`` never counts
the same interval twice.

``self_s`` of a span is its duration minus the part of that interval its
child spans cover (the union of the child intervals, so overlapping
children are not subtracted twice).
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Tracer", "SpanSummary", "summarize"]


class Tracer:
    """Records spans from wrapped callables; patches and restores them."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._open: list[int] = []  # per name id: how many spans are open
        self.name_of = array("i")  # per span: name id
        self.parent = array("l")  # per span: parent span id, -1 at the root
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        #: extra per-layer counters (rows, entries, bytes, failures, ...)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        """Dense id of a layer name (allocated on first use)."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return nid

    def add_span(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Append a finished span directly (used to build synthetic trees)."""
        sid = len(self.start)
        self.name_of.append(self.name_id(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        return sid

    def wrap(self, name: str, fn, measure=None):
        """``fn`` wrapped in a span named ``name``.

        ``measure(args, kwargs, result)`` may yield ``(stat, amount)`` pairs
        added to ``counts["<name>.<stat>"]`` after the span closes.  A call
        that raises counts in ``counts["<name>.failed"]``.
        """
        nid = self.name_id(name)
        is_open = self._open
        stack = self._stack
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if is_open[nid]:
                return fn(*args, **kwargs)
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(sid)
            is_open[nid] = 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".failed"] += 1
                raise
            finally:
                end[sid] = clock()
                is_open[nid] = 0
                stack.pop()
            if measure is not None:
                for stat, amount in measure(args, kwargs, result):
                    counts[f"{name}.{stat}"] += amount
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def patch(self, owner, attr: str, name: str, measure=None) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a span wrapper.

        The attribute must live in ``owner``'s own namespace, so restoring
        it puts back exactly what was there.
        """
        original = vars(owner)[attr]
        setattr(owner, attr, self.wrap(name, original, measure))
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, points):
        """Patch ``(owner, attr, name, measure)`` points for a ``with`` block."""
        try:
            for owner, attr, name, measure in points:
                self.patch(owner, attr, name, measure)
            yield self
        finally:
            self.restore()

    def __len__(self) -> int:
        return len(self.start)


class SpanSummary:
    """Per-layer totals of one trace.

    ``calls[name]`` spans, ``busy[name]`` summed durations, ``self_time``
    summed self times (duration minus child coverage), and
    ``busy_under[(name, ancestor)]`` the busy time of ``name`` spans that
    have an ``ancestor`` span somewhere above them.
    """

    def __init__(self):
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.busy: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.busy_under: defaultdict[tuple[str, str], float] = defaultdict(float)


def summarize(tracer: Tracer, under: tuple[tuple[str, str], ...] = ()) -> SpanSummary:
    """Busy and self time per layer name.

    ``under`` lists ``(name, ancestor)`` pairs whose nested busy time is
    wanted in :attr:`SpanSummary.busy_under`.
    """
    n = len(tracer)
    names = tracer.names
    name_of, parent, start, end = tracer.name_of, tracer.parent, tracer.start, tracer.end
    # Children are visited in start order so the union of their intervals
    # is a single sweep per parent: only the part past the furthest end
    # seen so far is new coverage.
    order = sorted(range(n), key=start.__getitem__)
    covered = [0.0] * n
    reach: dict[int, float] = {}
    for i in order:
        p = parent[i]
        if p < 0:
            continue
        s, e = start[i], end[i]
        far = reach.get(p)
        if far is None:
            covered[p] += e - s
            reach[p] = e
        elif e > far:
            covered[p] += e - max(s, far)
            reach[p] = e

    # ancestors[i] holds the names open above span i that ``under`` asks about.
    wanted = {a for _, a in under}
    above: list[frozenset] = [frozenset()] * n
    summary = SpanSummary()
    for i in order:
        name = names[name_of[i]]
        dur = end[i] - start[i]
        summary.calls[name] += 1
        summary.busy[name] += dur
        summary.self_time[name] += dur - covered[i]
        p = parent[i]
        if wanted:
            if p >= 0:
                pname = names[name_of[p]]
                mine = above[p] | {pname} if pname in wanted else above[p]
            else:
                mine = frozenset()
            above[i] = mine
            for target, ancestor in under:
                if target == name and ancestor in mine:
                    summary.busy_under[(target, ancestor)] += dur
    return summary
