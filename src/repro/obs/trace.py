"""Spans and tracers: the timing primitives of the observability stack.

Design constraints, in order:

* **No server dependency.** This module imports only the standard library.
  The server (and the execution service, and benchmarks, and tests) hold a
  :class:`Tracer`; nothing here knows what a job is.
* **Explicit clock injection.** A :class:`Tracer` takes its wall clock and
  its monotonic clock as constructor arguments.  Tests drive both with fake
  tick functions; production uses ``time.time`` + ``time.perf_counter``.
  Durations always come from the monotonic clock; Chrome-trace timestamps
  from the wall clock.
* **Near-zero cost when disabled.** A disabled tracer's :meth:`Tracer.span`
  returns one shared no-op context manager — no allocation, no clock reads.
* **Bounded memory.** Finished spans land in a ring buffer
  (``collections.deque(maxlen=capacity)``); a long-running server cannot
  grow without bound.  An optional :class:`JsonlSpanSink` additionally
  appends every finished span to a JSONL file for cross-process analysis
  (``repro trace export`` / ``repro trace report`` read it back).

Spans nest implicitly through a per-thread stack: a span opened while
another is active on the same thread becomes its child unless an explicit
``parent_id`` is given.  The property-based tests pin that the resulting
intervals are well-formed (children are contained in their parents and
siblings do not overlap) under random interleavings.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

__all__ = [
    "NULL_TRACER",
    "JsonlSpanSink",
    "Span",
    "SpanHandle",
    "Tracer",
    "load_spans",
    "new_span_id",
    "new_trace_id",
]

_ID_LOCK = threading.Lock()
_ID_COUNTER = 0


def _next_id(prefix: str) -> str:
    """Process-unique ids: random half + (pid, counter) half.

    The random component keeps ids unique across processes sharing one
    ``traces.jsonl``; the counter keeps them unique within a process even if
    ``os.urandom`` ever repeats.
    """
    global _ID_COUNTER
    with _ID_LOCK:
        _ID_COUNTER += 1
        count = _ID_COUNTER
    return f"{prefix}-{os.urandom(4).hex()}{os.getpid() & 0xFFFF:04x}{count:06x}"


def new_trace_id() -> str:
    """A fresh trace id (one per job submission / server instance)."""
    return _next_id("t")


def new_span_id() -> str:
    """A fresh span id."""
    return _next_id("s")


@dataclass
class Span:
    """One finished (or synthesized) timed interval.

    ``start_wall`` is epoch seconds; ``duration_s`` comes from the monotonic
    clock when the span was opened and closed in-process, or from a wall
    difference for synthesized spans (:meth:`Tracer.record`).  ``cat``
    groups spans by purpose: ``"stage"`` spans are the non-overlapping
    server segments the rollup attributes wall time to, ``"job"`` spans are
    the per-job lifecycle mirrors that form one connected trace per
    submission, ``"tick"`` spans are the per-tick envelopes.
    """

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    cat: str = "stage"
    start_wall: float = 0.0
    duration_s: float = 0.0
    status: str = "ok"
    attrs: Dict[str, object] = field(default_factory=dict)
    pid: int = field(default_factory=os.getpid)
    thread: int = 0

    @property
    def end_wall(self) -> float:
        return self.start_wall + self.duration_s

    def to_record(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "cat": self.cat,
            "ts": self.start_wall,
            "dur_s": self.duration_s,
            "status": self.status,
            "attrs": self.attrs,
            "pid": self.pid,
            "thread": self.thread,
        }

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "Span":
        return cls(
            trace_id=str(record.get("trace_id", "")),
            span_id=str(record.get("span_id", "")),
            parent_id=record.get("parent_id"),  # type: ignore[arg-type]
            name=str(record.get("name", "")),
            cat=str(record.get("cat", "stage")),
            start_wall=float(record.get("ts", 0.0)),
            duration_s=float(record.get("dur_s", 0.0)),
            status=str(record.get("status", "ok")),
            attrs=dict(record.get("attrs") or {}),  # type: ignore[arg-type]
            pid=int(record.get("pid", 0)),
            thread=int(record.get("thread", 0)),
        )


class JsonlSpanSink:
    """Appends finished spans to a JSONL file, one record per line.

    Writes are buffered through the file object and flushed on
    :meth:`flush` / :meth:`close`; the server flushes whenever it writes a
    metrics snapshot (at most once per ``poll_interval`` while serving), so
    ``traces.jsonl`` trails the live buffer by at most that interval.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._lock = threading.Lock()
        self._handle = open(path, "a", encoding="utf-8")

    def emit(self, span: Span) -> None:
        line = json.dumps(span.to_record(), sort_keys=True)
        with self._lock:
            if not self._handle.closed:
                self._handle.write(line + "\n")

    def flush(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()
                self._handle.close()


def load_spans(path: str) -> List[Span]:
    """Read a JSONL span file back; unparseable lines are skipped."""
    spans: List[Span] = []
    if not os.path.exists(path):
        return spans
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                spans.append(Span.from_record(record))
    return spans


class SpanHandle:
    """The live side of a span while it is open.

    Context-manager protocol: entering pushes the span onto the tracer's
    per-thread stack (so nested ``tracer.span`` calls parent themselves
    here), exiting records the duration, pops the stack and hands the
    finished :class:`Span` to the ring buffer and sink.  An exception
    propagating through the body marks ``status="error"``.
    """

    __slots__ = ("tracer", "span", "_start_mono", "_entered")

    def __init__(self, tracer: "Tracer", span: Span, start_mono: float) -> None:
        self.tracer = tracer
        self.span = span
        self._start_mono = start_mono
        self._entered = False

    @property
    def trace_id(self) -> str:
        return self.span.trace_id

    @property
    def span_id(self) -> str:
        return self.span.span_id

    def set_attr(self, key: str, value: object) -> None:
        self.span.attrs[key] = value

    def __enter__(self) -> "SpanHandle":
        self._entered = True
        self.tracer._push(self.span)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.span.status = "error"
            self.span.attrs.setdefault("error", exc_type.__name__)
        self.tracer._finish(self, self.tracer.mono())
        return False


class _NullHandle:
    """The shared no-op handle a disabled tracer hands out."""

    __slots__ = ()
    trace_id = ""
    span_id = ""

    def set_attr(self, key: str, value: object) -> None:
        pass

    def __enter__(self) -> "_NullHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_HANDLE = _NullHandle()


class Tracer:
    """Collects spans into a bounded ring buffer and an optional sink.

    Parameters
    ----------
    enabled:
        ``False`` makes every :meth:`span` / :meth:`record` call a no-op —
        the disabled path reads no clocks and allocates nothing.
    wall / mono:
        The injected clocks.  ``wall()`` must return epoch seconds,
        ``mono()`` a monotonically non-decreasing float; only differences
        of ``mono()`` are ever used.
    capacity:
        Ring-buffer size: only the newest ``capacity`` finished spans are
        retained in memory (the sink, when present, still sees every span).
    sink:
        Anything with ``emit(span)`` / ``flush()`` / ``close()`` —
        typically a :class:`JsonlSpanSink`.
    observer:
        Optional callback invoked with every finished span (after it lands
        in the buffer).  The server uses this to fold stage durations into
        its telemetry histograms (``stage_<name>_s``) so ``repro top`` can
        show stage percentiles from ``metrics.json`` alone.
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        wall: Callable[[], float] = time.time,
        mono: Callable[[], float] = time.perf_counter,
        capacity: int = 4096,
        sink: Optional[JsonlSpanSink] = None,
        observer: Optional[Callable[[Span], None]] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("tracer capacity must be positive")
        self.enabled = bool(enabled)
        self.wall = wall
        self.mono = mono
        self.capacity = int(capacity)
        self.sink = sink
        self.observer = observer
        self._lock = threading.Lock()
        from collections import deque

        self._buffer: "deque[Span]" = deque(maxlen=self.capacity)
        self._local = threading.local()
        self._dropped = 0
        self._emitted = 0

    # -- span construction -------------------------------------------------

    def span(
        self,
        name: str,
        *,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        cat: str = "stage",
        attrs: Optional[Dict[str, object]] = None,
        start_wall: Optional[float] = None,
        start_mono: Optional[float] = None,
    ):
        """Open a span as a context manager.

        Without an explicit ``trace_id`` / ``parent_id`` the span joins the
        thread's current span (same trace, parented under it); with neither
        a current span nor explicit ids it roots a fresh trace.
        ``start_wall`` / ``start_mono`` retro-date the span to clock values
        captured earlier (the server's tick envelope only learns it has work
        after the drain already happened).
        """
        if not self.enabled:
            return _NULL_HANDLE
        current = self.current_span()
        if trace_id is None:
            trace_id = current.trace_id if current is not None else new_trace_id()
        if parent_id is None and current is not None:
            parent_id = current.span_id
        span = Span(
            trace_id=trace_id,
            span_id=new_span_id(),
            parent_id=parent_id,
            name=name,
            cat=cat,
            start_wall=self.wall() if start_wall is None else float(start_wall),
            attrs=dict(attrs) if attrs else {},
            thread=threading.get_ident(),
        )
        return SpanHandle(
            self, span, self.mono() if start_mono is None else float(start_mono)
        )

    def record(
        self,
        name: str,
        start_wall: float,
        end_wall: float,
        *,
        trace_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        span_id: Optional[str] = None,
        cat: str = "job",
        status: str = "ok",
        attrs: Optional[Dict[str, object]] = None,
    ) -> Optional[Span]:
        """Synthesize an already-finished span from wall timestamps.

        Used for intervals that were not (or could not be) measured with an
        open handle: per-job ``queue_wait`` (the start happened before this
        process saw the job), per-job mirrors of batch work, the terminal
        ``job`` envelope (which pins ``span_id`` to the job's persisted root
        span id so child spans from any process attach to it).  Duration is
        the wall difference, clamped at 0.
        """
        if not self.enabled:
            return None
        span = Span(
            trace_id=trace_id or new_trace_id(),
            span_id=span_id or new_span_id(),
            parent_id=parent_id,
            name=name,
            cat=cat,
            start_wall=float(start_wall),
            duration_s=max(0.0, float(end_wall) - float(start_wall)),
            status=status,
            attrs=dict(attrs) if attrs else {},
            thread=threading.get_ident(),
        )
        self._store(span)
        return span

    # -- thread-local nesting ----------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _finish(self, handle: SpanHandle, end_mono: float) -> None:
        span = handle.span
        span.duration_s = max(0.0, end_mono - handle._start_mono)
        if handle._entered:
            stack = self._stack()
            # Pop back to (and including) this span; tolerate foreign frames
            # so one leaked handle cannot wedge the whole thread's stack.
            while stack:
                top = stack.pop()
                if top is span:
                    break
        self._store(span)

    # -- storage -----------------------------------------------------------

    def _store(self, span: Span) -> None:
        with self._lock:
            if len(self._buffer) == self.capacity:
                self._dropped += 1
            self._buffer.append(span)
            self._emitted += 1
        if self.sink is not None:
            self.sink.emit(span)
        if self.observer is not None:
            self.observer(span)

    def spans(self, *, cat: Optional[str] = None) -> List[Span]:
        """The ring buffer's current contents, oldest first."""
        with self._lock:
            items = list(self._buffer)
        if cat is not None:
            items = [span for span in items if span.cat == cat]
        return items

    def clear(self) -> None:
        with self._lock:
            self._buffer.clear()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "buffered": len(self._buffer),
                "emitted": self._emitted,
                "dropped": self._dropped,
            }

    def flush(self) -> None:
        if self.sink is not None:
            self.sink.flush()

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()


#: The shared disabled tracer: hand this to components when tracing is off.
NULL_TRACER = Tracer(enabled=False, capacity=1)
