"""Span recording from outside the program.

The benchmark wraps public methods of the objects it constructs (engine,
store, monitor, log) so each call records a span: name, start, end,
parent span and transaction id.  Spans stay in memory while the
workload runs and are written out when it ends.  Nothing in the program
itself is changed.
"""

from __future__ import annotations

import functools
import gzip
import json
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence


@dataclass
class Span:
    """One timed call.  ``parent`` is the index of the enclosing span
    in the tracer's list (-1 for a root); ``txn`` is the benchmark's id
    of the logical transaction the call served (0 outside one)."""

    name: str
    start: float
    end: float
    parent: int
    txn: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def layer_of(name: str) -> str:
    """The layer a span belongs to: the part of its name before the
    first dot (``mvcc.store.install`` belongs to ``mvcc``)."""
    return name.split(".", 1)[0]


class Tracer:
    """Collects spans from any number of threads.

    Each thread keeps a stack of its open spans, so a span opened while
    another is open on the same thread becomes its child and inherits
    its transaction id.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, txn: Optional[int] = None) -> Iterator[None]:
        """Time the enclosed block as span ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if txn is None:
            txn = self.spans[parent].txn if parent >= 0 else 0
        record = Span(name, time.perf_counter(), 0.0, parent, txn)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as span ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def instrument(self, obj: object, methods: Dict[str, str]) -> None:
        """Replace each bound method ``attr`` of ``obj`` by a traced one
        recording span ``methods[attr]`` (instance attributes only; the
        class and other instances are untouched)."""
        for attr, name in methods.items():
            setattr(obj, attr, self.wrap(getattr(obj, attr), name))


def write_spans(path: str, tracers: Sequence[Tracer]) -> None:
    """Write every span of every tracer as one JSON line (gzip); a
    span's ``episode`` is the index of its tracer and ``parent`` the
    index of its parent within that tracer (-1 for a root)."""
    with gzip.open(path, "wt", encoding="utf-8") as out:
        for episode, tracer in enumerate(tracers):
            for index, s in enumerate(tracer.spans):
                out.write(
                    json.dumps(
                        {
                            "episode": episode,
                            "id": index,
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "txn": s.txn,
                        }
                    )
                    + "\n"
                )


def maybe_span(tracer: Optional[Tracer], name: str, txn: Optional[int] = None):
    """``tracer.span(name, txn)``, or a no-op context without a tracer."""
    return nullcontext() if tracer is None else tracer.span(name, txn)


def covered(interval: tuple, children: Iterable[tuple]) -> float:
    """Length of the part of ``interval`` that the union of
    ``children`` intervals covers (children may overlap each other or
    stick out of the interval)."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: its duration minus the part of it that its direct
    children cover."""
    children: Dict[int, List[tuple]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - covered((s.start, s.end), children.get(i, ()))
        for i, s in enumerate(spans)
    ]


def busy_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Total duration per span name."""
    busy: Dict[str, float] = {}
    for s in spans:
        busy[s.name] = busy.get(s.name, 0.0) + s.duration
    return busy


def self_by_layer(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time per layer."""
    totals: Dict[str, float] = {}
    for s, own in zip(spans, self_times(spans)):
        layer = layer_of(s.name)
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def durations(spans: Sequence[Span], name: str) -> List[float]:
    """The durations of every span called ``name``."""
    return [s.duration for s in spans if s.name == name]
