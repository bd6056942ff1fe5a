"""Pipeline observability: structured tracing and counters.

Two zero-dependency pieces; tracing is off by default:

- :mod:`repro.obs.trace` — spans + events + counters serialized to JSONL
  (``REPRO_TRACE=<path>``, ``--trace <path>``, or :func:`start_trace`),
  and :class:`Counters`, always-on tallies whose bumps feed the trace;
- :mod:`repro.obs.report` — renders a recorded trace
  (``python -m repro trace report <file>``).

The call-site API is re-exported here so instrumented modules write
``from ..obs import span, event, incr``.  When no trace is active every
call is a single global read — safe to leave in production paths (hot
timed loops are deliberately not instrumented at all).
"""

from .trace import (
    NULL_SPAN,
    Counters,
    Span,
    Tracer,
    current_tracer,
    enabled,
    event,
    incr,
    init_from_env,
    progress,
    span,
    start_trace,
    stop_trace,
)

__all__ = [
    "Counters",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "current_tracer",
    "enabled",
    "event",
    "incr",
    "init_from_env",
    "progress",
    "span",
    "start_trace",
    "stop_trace",
]

# Honor REPRO_TRACE the moment observability is first imported, so any
# entry point (CLI, pytest, a bare script) records without extra wiring.
init_from_env()
