"""Span tracing installed from outside the program.

The benchmark times each layer by replacing the public functions its
workloads call with timing wrappers, for the length of one traced
iteration, and restoring them afterwards; nothing in ``src/`` changes.
A span is ``(id, name, start_ns, end_ns, parent id, run id)``; spans stay
in memory and are written out once, when the run ends.  Generators get an
iterator wrapper whose span accumulates the time spent inside each
``next``.  A span's self time is its busy time minus the busy time of the
spans opened inside it, so the self times of all spans of one iteration
sum to the iteration's traced wall time.
"""

from __future__ import annotations

import json
import resource
import sys
import threading
import time
from array import array
from typing import Any, Callable, Dict, List, Optional

_now = time.perf_counter_ns


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


class Tracer:
    """In-memory spans plus per-iteration counters.

    ``records`` holds six integers per span: id, name id, start ns, end ns,
    parent id (-1 for a root) and run id.  For the current run, ``totals``
    sums busy ns, self ns and calls per span name, and ``counts`` holds
    what wrappers add with :meth:`add`; :meth:`end_run` folds the totals
    into ``counts`` as ``<span>.s``, ``<span>.self_s`` and ``<span>.calls``.
    Only the thread that created the tracer records spans; calls from other
    threads (the job runner's heartbeat) pass straight through.
    """

    def __init__(self) -> None:
        self.thread = threading.get_ident()
        self.name_ids: Dict[str, int] = {}
        self.records = array("q")
        self.stack: List[list] = []  # open frames: [span id, start ns, child ns]
        self.next_id = 0
        self.run = -1
        self.totals: Dict[str, list] = {}
        self.counts: Dict[str, float] = {}
        self.open_iterators: List["TracedIterator"] = []
        #: Set around the benchmark's own checks so they record nothing.
        self.paused = False

    # ------------------------------------------------------------- runs
    def begin_run(self) -> None:
        self.run += 1
        self.totals = {}
        self.counts = {}

    def end_run(self) -> Dict[str, float]:
        """Close iterators nobody exhausted; return the run's counts."""
        for iterator in list(self.open_iterators):
            iterator.finish()
        counts = self.counts
        for name, (busy, own, calls) in self.totals.items():
            counts[name + ".s"] = busy / 1e9
            counts[name + ".self_s"] = own / 1e9
            counts[name + ".calls"] = calls
        return counts

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def set(self, key: str, value: float) -> None:
        self.counts[key] = value

    def snapshot(self) -> Dict[str, float]:
        return dict(self.counts)

    # ------------------------------------------------------------ spans
    def name_id(self, name: str) -> int:
        return self.name_ids.setdefault(name, len(self.name_ids))

    def enter(self) -> list:
        frame = [self.next_id, 0, 0]
        self.next_id += 1
        self.stack.append(frame)
        frame[1] = _now()
        return frame

    def leave(self, frame: list, name: str) -> None:
        self.close(frame, name, _now() - frame[1])

    def close(self, frame: list, name: str, busy_ns: int) -> None:
        """Record a finished call span and charge its time to its parent."""
        stack = self.stack
        stack.pop()
        if stack:
            stack[-1][2] += busy_ns
            parent = stack[-1][0]
        else:
            parent = -1
        self.store(frame[0], name, frame[1], frame[1] + busy_ns, parent)
        self.total(name, busy_ns, busy_ns - frame[2], 1)

    def store(self, span_id: int, name: str, start: int, end: int, parent: int) -> None:
        self.records.extend((span_id, self.name_id(name), start, end, parent, self.run))

    def total(self, name: str, busy_ns: int, own_ns: int, calls: int) -> None:
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0, 0]
        total[0] += busy_ns
        total[1] += own_ns
        total[2] += calls

    def write(self, path: str) -> int:
        """Write every span as one JSON object; returns the span count."""
        names = sorted(self.name_ids, key=self.name_ids.get)
        with open(path, "w") as handle:
            json.dump(
                {
                    "names": names,
                    "fields": ["id", "name", "start_ns", "end_ns", "parent", "run"],
                    "records": self.records.tolist(),
                },
                handle,
                separators=(",", ":"),
            )
        return len(self.records) // 6


def span(tracer: Tracer, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
    """``fn`` timed as one span per call; ``after(args, result)`` adds counts.

    The wrapper is bound to the tracer's current run, so wrappers are
    installed after :meth:`Tracer.begin_run`.  The bookkeeping of
    :meth:`Tracer.enter` / :meth:`Tracer.close` is inlined: it runs once per
    call of the hottest functions (every orbit's check, every store row).
    """
    name_id = tracer.name_id(name)
    stack, records, run, thread = tracer.stack, tracer.records, tracer.run, tracer.thread
    total = tracer.totals.setdefault(name, [0, 0, 0])
    get_ident = threading.get_ident

    def wrapper(*args, **kwargs):
        if tracer.paused or get_ident() != thread:
            return fn(*args, **kwargs)
        span_id = tracer.next_id
        tracer.next_id = span_id + 1
        frame = [span_id, 0, 0]
        stack.append(frame)
        start = frame[1] = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _now()
            stack.pop()
            busy = end - start
            if stack:
                parent = stack[-1]
                parent[2] += busy
                parent_id = parent[0]
            else:
                parent_id = -1
            records.extend((span_id, name_id, start, end, parent_id, run))
            total[0] += busy
            total[1] += busy - frame[2]
            total[2] += 1
        if after is not None:
            after(args, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


class TracedIterator:
    """An iterator whose span accumulates the time spent inside ``next``.

    The span's parent is the span open when the iterator was created; its
    busy time is the sum of the ``next`` calls, each charged as child time
    to whichever span was open around that call, and its ``calls`` count
    the items yielded.  ``on_end`` runs once, when the source is exhausted.
    """

    __slots__ = (
        "tracer", "name", "source", "span_id", "parent", "start",
        "busy", "child", "items", "on_end", "done",
    )

    def __init__(self, tracer: Tracer, name: str, source, on_end: Optional[Callable] = None) -> None:
        self.tracer = tracer
        self.name = name
        self.source = iter(source)
        self.span_id = tracer.next_id
        tracer.next_id += 1
        self.parent = tracer.stack[-1][0] if tracer.stack else -1
        self.start = _now()
        self.busy = self.child = self.items = 0
        self.on_end = on_end
        self.done = False
        tracer.open_iterators.append(self)

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        frame = [self.span_id, _now(), 0]
        tracer.stack.append(frame)
        exhausted = False
        try:
            item = next(self.source)
        except StopIteration:
            exhausted = True
            raise
        finally:
            busy = _now() - frame[1]
            tracer.stack.pop()
            self.busy += busy
            self.child += frame[2]
            if tracer.stack:
                tracer.stack[-1][2] += busy
            if exhausted:
                self.finish()
        self.items += 1
        return item

    def finish(self) -> None:
        if self.done:
            return
        self.done = True
        tracer = self.tracer
        tracer.open_iterators.remove(self)
        tracer.store(self.span_id, self.name, self.start, _now(), self.parent)
        tracer.total(self.name, self.busy, self.busy - self.child, self.items)
        if self.on_end is not None:
            self.on_end()


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse order."""

    def __init__(self) -> None:
        self.saved: List[tuple] = []

    def set(self, owner: Any, attribute: str, value: Any) -> None:
        self.saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        while self.saved:
            owner, attribute, original = self.saved.pop()
            setattr(owner, attribute, original)
