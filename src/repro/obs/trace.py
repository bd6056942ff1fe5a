"""Structured tracing: spans + events + counters serialized to JSONL.

The tracer is the pipeline's flight recorder.  When enabled it captures

- **spans** — timed, nestable regions (``with span("pipeline.c_opt"):``)
  with start offset, duration, and free-form attributes;
- **events** — point-in-time records (one tuning trial, one sandbox
  verdict) attached to the enclosing span;
- **counters** — cheap accumulators (cache hits, toolchain retries)
  flushed as one record per counter when the trace closes; a component
  that also keeps an always-on tally declares it as :class:`Counters`.

Everything lands in one JSON-Lines file: one self-describing JSON object
per line, so traces are greppable, diffable, and parseable with nothing
but the standard library (``repro.obs.report`` renders them).

Tracing is **off by default** and designed to cost one global read plus a
falsy check per call site when disabled — nothing in a timed hot loop is
instrumented, so benchmarks are unaffected (see docs/observability.md).
Enable it with the ``REPRO_TRACE=<path>`` environment variable, the
``--trace <path>`` CLI flag, or programmatically::

    from repro import obs
    obs.start_trace("run.jsonl")
    ...
    obs.stop_trace()
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import threading
import time
from typing import Any, Dict, Mapping, Optional, TextIO

#: ``REPRO_TRACE`` values that mean "disabled" (mirrors REPRO_CACHE_DIR)
_OFF_VALUES = {"", "0", "off", "none", "false", "disabled"}

#: trace format version, stamped in the header record
TRACE_VERSION = 1


def _clean(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """JSON-safe attribute dict (drop Nones, stringify exotic values)."""
    out: Dict[str, Any] = {}
    for key, value in attrs.items():
        if value is None:
            continue
        if isinstance(value, (str, int, float, bool)):
            out[key] = value
        else:
            out[key] = str(value)
    return out


class Span:
    """One timed region; use as a context manager.

    Attributes may be attached at creation or discovered mid-flight with
    :meth:`set`.  The record is written once, at exit, so a span carries
    its full duration and final attribute set.
    """

    __slots__ = ("_tracer", "name", "attrs", "id", "parent", "_t0")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = _clean(attrs)
        self.id: Optional[int] = None
        self.parent: Optional[int] = None
        self._t0 = 0.0

    def set(self, **attrs: Any) -> "Span":
        self.attrs.update(_clean(attrs))
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.id = tracer._next_id()
        stack = tracer._stack()
        self.parent = stack[-1] if stack else None
        stack.append(self.id)
        self._t0 = tracer._now()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        dur = tracer._now() - self._t0
        stack = tracer._stack()
        if stack and stack[-1] == self.id:
            stack.pop()
        if exc_type is not None:
            self.attrs.setdefault("error", f"{exc_type.__name__}: {exc}"[:200])
        record = {"ev": "span", "name": self.name, "id": self.id,
                  "t0": round(self._t0, 6), "dur": round(dur, 6)}
        if self.parent is not None:
            record["parent"] = self.parent
        if self.attrs:
            record["attrs"] = self.attrs
        tracer._write(record)
        return False  # never swallow exceptions


class _NullSpan:
    """The disabled-path span: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class Tracer:
    """Serializes spans/events/counters to one JSONL sink (thread-safe)."""

    def __init__(self, sink: TextIO, path: Optional[str] = None,
                 clock=time.perf_counter) -> None:
        self._sink = sink
        self.path = path
        self._clock = clock
        self._epoch = clock()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62)).__next__
        self._counters: Dict[str, float] = {}
        self.closed = False
        self._write({"ev": "start", "version": TRACE_VERSION,
                     "pid": os.getpid(), "unix_time": time.time()})

    # -- internals ---------------------------------------------------------

    def _now(self) -> float:
        return self._clock() - self._epoch

    def _next_id(self) -> int:
        with self._lock:
            return self._ids()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _write(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"), default=str)
        with self._lock:
            if self.closed:
                return
            self._sink.write(line + "\n")

    # -- recording API -----------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        return Span(self, name, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        record: Dict[str, Any] = {"ev": "event", "name": name,
                                  "t": round(self._now(), 6)}
        stack = self._stack()
        if stack:
            record["span"] = stack[-1]
        clean = _clean(attrs)
        if clean:
            record["attrs"] = clean
        self._write(record)

    def incr(self, name: str, n: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def close(self) -> None:
        """Flush counters, emit the end record, and close the sink."""
        if self.closed:
            return
        with self._lock:
            counters = sorted(self._counters.items())
        for name, value in counters:
            self._write({"ev": "counter", "name": name,
                         "value": round(value, 6)})
        self._write({"ev": "end", "t": round(self._now(), 6)})
        with self._lock:
            self.closed = True
            if self._sink not in (sys.stdout, sys.stderr):
                try:
                    self._sink.close()
                except OSError:
                    pass


# ---------------------------------------------------------------------------
# Module-level switchboard: one optional active tracer per process.
# ---------------------------------------------------------------------------

_TRACER: Optional[Tracer] = None


def enabled() -> bool:
    """Whether a trace is being recorded right now."""
    return _TRACER is not None


def current_tracer() -> Optional[Tracer]:
    return _TRACER


def start_trace(path: str) -> Tracer:
    """Begin recording to ``path`` (``-`` = stderr); replaces any active
    trace.  Registered for atexit flush, so a crashed run still leaves a
    parseable (if truncated) artifact."""
    global _TRACER
    stop_trace()
    if path == "-":
        sink: TextIO = sys.stderr
        tracer = Tracer(sink, path=None)
    else:
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        sink = open(path, "w", buffering=1)  # line-buffered: crash-durable
        tracer = Tracer(sink, path=path)
    _TRACER = tracer
    return tracer


def stop_trace() -> None:
    """Close the active trace (no-op when none is recording)."""
    global _TRACER
    tracer, _TRACER = _TRACER, None
    if tracer is not None:
        tracer.close()


def init_from_env(environ=os.environ) -> Optional[Tracer]:
    """Honor ``REPRO_TRACE=<path>`` (called once on package import)."""
    raw = environ.get("REPRO_TRACE")
    if raw is None or raw.strip().lower() in _OFF_VALUES:
        return None
    return start_trace(raw.strip())


atexit.register(stop_trace)


# -- the call-site API (one global read when disabled) -----------------------

def span(name: str, **attrs: Any):
    """A timed region; no-op context manager when tracing is disabled."""
    tracer = _TRACER
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


def event(name: str, **attrs: Any) -> None:
    """A point-in-time record; dropped when tracing is disabled."""
    tracer = _TRACER
    if tracer is not None:
        tracer.event(name, **attrs)


def incr(name: str, n: float = 1) -> None:
    """Bump a named counter; dropped when tracing is disabled."""
    tracer = _TRACER
    if tracer is not None:
        tracer.incr(name, n)


class Counters:
    """Thread-safe numeric fields, declared by a subclass's ``TRACE``: an
    ordered table from each field to its trace counter name, or ``None``
    for a field the trace does not carry.  A tally and its trace counter
    are one write (:meth:`incr`).  Fields start at zero and read as
    attributes (``stats.misses``)."""

    TRACE: Dict[str, Optional[str]] = {}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: Dict[str, float] = dict.fromkeys(self.TRACE, 0)

    def __getattr__(self, field: str) -> Any:
        try:  # reached only for names that are not ordinary attributes
            return self.__dict__["_values"][field]
        except KeyError:
            raise AttributeError(f"{type(self).__name__} has no counter "
                                 f"{field!r}") from None

    def incr(self, field: str, n: float = 1) -> None:
        """Add ``n`` to ``field`` (``KeyError`` if undeclared) and to its
        trace counter; a zero ``n`` writes no trace record."""
        with self._lock:
            self._values[field] += n
        name = self.TRACE[field]
        if name is not None and n:
            incr(name, n)

    def merge(self, other: Mapping[str, Any]) -> None:
        """Add the declared numeric entries of ``other``, untraced."""
        with self._lock:
            for field, value in other.items():
                if field in self._values and isinstance(value, (int, float)):
                    self._values[field] += value

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._values)

    def reset(self) -> None:
        with self._lock:
            self._values = dict.fromkeys(self.TRACE, 0)


def progress(message: str, stream: Optional[TextIO] = None) -> None:
    """Verbose-mode progress line: stderr (never stdout) + trace event.

    This replaces the tuner's historical raw ``print`` — machine-readable
    output (reports, generated assembly) owns stdout; human progress
    narration belongs on stderr, and is mirrored into the trace when one
    is recording.
    """
    out = stream if stream is not None else sys.stderr
    out.write(message + "\n")
    tracer = _TRACER
    if tracer is not None:
        tracer.event("progress", message=message)
