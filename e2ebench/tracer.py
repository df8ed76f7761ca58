"""Layer spans recorded from outside the program, and their attribution.

The tracer wraps public entry points of the ``repro`` packages where
their callers look them up (a module global for a name imported with
``from x import y``, the class attribute for a method), records one
span per call in memory, and restores every original object when the
traced rounds end.  Nothing is written until the run is over.

Spans recorded in forked pool workers come back to the parent on the
objects the workers return (see :meth:`Tracer.ship` and
:meth:`Tracer.collect`); ``time.perf_counter_ns`` reads the host's
monotonic clock, so worker and parent spans share one time axis.

Attribution (:func:`attribute`) splits a round's wall time so that the
parts add up exactly:

* within one process, each instant belongs to the newest span still
  open — for nested calls that is the innermost one, and when asyncio
  tasks interleave it is the call that started last;
* while a span waits on children running in other processes, each
  instant is shared equally among the processes busy at that instant,
  and within each to its newest open span;
* instants with no open span are unattributed.

For properly nested spans this makes a span's self time its duration
minus the union of its children's intervals (:func:`self_time`).
"""

from __future__ import annotations

import contextlib
import contextvars
import inspect
import itertools
import os
import time
from collections import defaultdict
from typing import Callable, NamedTuple

__all__ = [
    "Span",
    "Tracer",
    "attribute",
    "self_time",
    "union_ns",
]

#: Attribute a worker's returned object carries its spans home in.
SHIPPED_SPANS = "_e2ebench_spans"


class Span(NamedTuple):
    """One recorded call: ids, process lane, layer name, ns interval."""

    sid: int
    parent: int | None
    lane: int
    name: str
    t0: int
    t1: int
    n: int  # work count for this call (bytes, samples), 0 if none


def union_ns(intervals) -> int:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_time(span: Span, children) -> int:
    """A span's duration minus the union of its children's intervals.

    Children are clipped to the span, so parallel children that overlap
    each other (shard kernels in two workers) are counted once.
    """
    clipped = [
        (max(c.t0, span.t0), min(c.t1, span.t1))
        for c in children
        if c.t1 > span.t0 and c.t0 < span.t1
    ]
    return (span.t1 - span.t0) - union_ns(clipped)


def _lane_segments(spans: list[Span]) -> list[tuple[int, int, Span | None]]:
    """Split one process's timeline among its newest open spans."""
    events = []
    for s in spans:
        if s.t1 <= s.t0:
            continue  # owns no time
        events.append((s.t0, 1, s))
        events.append((s.t1, 0, s))
    events.sort(key=lambda e: (e[0], e[1]))
    segments = []
    open_spans: list[Span] = []  # ordered by start, newest last
    prev = None
    for t, is_start, s in events:
        if prev is not None and t > prev:
            segments.append((prev, t, open_spans[-1] if open_spans else None))
        prev = t
        if is_start:
            open_spans.append(s)
        else:
            open_spans.remove(s)
    return segments


def attribute(
    spans: list[Span], window: tuple[int, int], main_lane: int
) -> tuple[dict[str, int], int]:
    """Exclusive wall-time attribution of one traced window.

    Returns ``(self_ns_by_name, unattributed_ns)``; their sum equals
    ``window[1] - window[0]`` exactly.
    """
    w0, w1 = window
    by_lane: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_lane[s.lane].append(s)
    main = by_lane.pop(main_lane, [])
    ids = {s.sid: s for s in main}

    # Remote spans hang, through their top-level ancestor, under the
    # main-lane span that waited for them.
    remote_sids = {s.sid for lane in by_lane.values() for s in lane}
    remote_parent = {}
    for lane, lane_spans in by_lane.items():
        parent_of = {s.sid: s.parent for s in lane_spans}
        for s in lane_spans:
            p = s.parent
            while p in remote_sids:
                p = parent_of.get(p)
            remote_parent[s.sid] = p
    remote_segments = {
        lane: _lane_segments(lane_spans)
        for lane, lane_spans in by_lane.items()
    }
    waits_on: dict[int, list[int]] = defaultdict(list)
    for lane, lane_spans in by_lane.items():
        for p in {remote_parent[s.sid] for s in lane_spans}:
            if p in ids:
                waits_on[p].append(lane)

    self_ns: dict[str, float] = defaultdict(float)
    unattributed = 0.0
    segments = _lane_segments(main)
    # The window's ends, before the first span and after the last,
    # belong to no span.
    if segments:
        segments = (
            [(w0, segments[0][0], None)]
            + segments
            + [(segments[-1][1], w1, None)]
        )
    else:
        segments = [(w0, w1, None)]
    for a, b, owner in segments:
        a, b = max(a, w0), min(b, w1)
        if b <= a:
            continue
        if owner is None:
            unattributed += b - a
            continue
        lanes = waits_on.get(owner.sid)
        if not lanes:
            self_ns[owner.name] += b - a
            continue
        for x, y, shares in _split_remote(
            a, b, owner.sid, lanes, remote_segments, remote_parent
        ):
            if not shares:
                self_ns[owner.name] += y - x
            else:
                for s in shares:
                    self_ns[s.name] += (y - x) / len(shares)
    total = sum(self_ns.values()) + unattributed
    # Equal shares are fractions of a nanosecond; fold the rounding
    # residue into the unattributed part so the identity is exact.
    unattributed += (w1 - w0) - total
    return dict(self_ns), unattributed


def _split_remote(a, b, owner_sid, lanes, remote_segments, remote_parent):
    """Pieces of ``[a, b)`` with the remote spans busy in each piece."""
    cuts = {a, b}
    relevant = {}
    for lane in lanes:
        segs = [
            (x, y, s) for x, y, s in remote_segments[lane]
            if y > a and x < b and s is not None
            and remote_parent[s.sid] == owner_sid
        ]
        relevant[lane] = segs
        for x, y, _ in segs:
            cuts.update((max(x, a), min(y, b)))
    edges = sorted(cuts)
    for x, y in zip(edges, edges[1:]):
        shares = [
            s for segs in relevant.values()
            for sx, sy, s in segs if sx <= x and sy >= y
        ]
        yield x, y, shares


class Tracer:
    """In-memory span recorder plus the table of patched attributes."""

    def __init__(self) -> None:
        self.clock = time.perf_counter_ns
        self.main_lane = os.getpid()
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[int | None] = (
            contextvars.ContextVar("e2ebench_span", default=None)
        )
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _open(self) -> tuple[int, int | None, contextvars.Token]:
        # Worker processes share the parent's counter state after fork;
        # the pid in the high bits keeps ids unique across lanes.
        sid = (os.getpid() << 32) | next(self._ids)
        parent = self._current.get()
        return sid, parent, self._current.set(sid)

    def _close(self, sid, parent, token, name, t0, n) -> None:
        t1 = self.clock()
        self._current.reset(token)
        self.spans.append(Span(sid, parent, os.getpid(), name, t0, t1, n))

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        sid, parent, token = self._open()
        t0 = self.clock()
        try:
            yield
        finally:
            self._close(sid, parent, token, name, t0, 0)

    def take(self) -> list[Span]:
        """Hand over (and forget) every span recorded so far."""
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, fn, name: str, count=None):
        """A span-recording stand-in for ``fn`` (sync, async or generator).

        ``count(args, kwargs, result)`` gives the span's work count.
        """
        tracer = self

        if inspect.iscoroutinefunction(fn):
            async def traced(*args, **kwargs):
                sid, parent, token = tracer._open()
                t0 = tracer.clock()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    n = count(args, kwargs, result) if count else 0
                    tracer._close(sid, parent, token, name, t0, n)
        elif inspect.isgeneratorfunction(fn):
            def traced(*args, **kwargs):
                # One span per step: the work a generator does between
                # two items belongs to the step that yields the second.
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        sid, parent, token = tracer._open()
                        t0 = tracer.clock()
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(sid, parent, token, name, t0, 0)
                        yield item
                finally:
                    gen.close()
        else:
            def traced(*args, **kwargs):
                sid, parent, token = tracer._open()
                t0 = tracer.clock()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    n = count(args, kwargs, result) if count else 0
                    tracer._close(sid, parent, token, name, t0, n)
        traced.__wrapped__ = fn
        return traced

    def detached(self, fn):
        """Run ``fn`` with no current span (tasks it starts are roots)."""
        tracer = self

        def call(*args, **kwargs):
            token = tracer._current.set(None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._current.reset(token)
        call.__wrapped__ = fn
        return call

    # -- worker spans --------------------------------------------------------
    def ship(self, fn):
        """Wrap a pool-worker entry point so its spans travel home.

        In a worker process the spans recorded during the call ride
        back on the returned object; inline calls record as usual.
        """
        tracer = self

        def call(*args, **kwargs):
            start = len(tracer.spans)
            result = fn(*args, **kwargs)
            if os.getpid() != tracer.main_lane:
                vars(result)[SHIPPED_SPANS] = tracer.spans[start:]
                del tracer.spans[start:]
            return result
        call.__wrapped__ = fn
        return call

    def collect(self, fn):
        """Wrap the parent-side consumer of worker results.

        Moves shipped spans off each result into this tracer before
        the program sees the results.
        """
        tracer = self

        def call(results, *args, **kwargs):
            for result in results:
                tracer.spans.extend(vars(result).pop(SHIPPED_SPANS, ()))
            return fn(results, *args, **kwargs)
        call.__wrapped__ = fn
        return call

    # -- patching ------------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` until :meth:`restore`.

        The original is read from ``vars(owner)`` so a renamed or moved
        entry point fails loudly instead of being silently skipped.
        """
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def patch_span(self, owner, attr: str, name: str, count=None) -> None:
        """Patch ``owner.attr`` with a span-recording wrapper."""
        self.patch(owner, attr, self.wrap(vars(owner)[attr], name, count))

    def restore(self) -> None:
        """Put every original object back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        """``(owner, attr, original)`` for every live patch."""
        return list(self._patches)

    @contextlib.contextmanager
    def installed(self, install: Callable[["Tracer"], None]):
        """Apply ``install(self)`` for the block, then restore."""
        try:
            install(self)
            yield self
        finally:
            self.restore()
