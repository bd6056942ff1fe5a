"""BLAS-as-a-service: a supervised daemon owning the verified dispatch
chain and hot kernel cache, serving routine calls over a unix socket
with shared-memory operands.

Layers:

- :mod:`repro.serve.protocol` — header-only wire protocol (its routine
  contract is :data:`repro.blas.routines.ROUTINES`)
- :mod:`repro.serve.shm` — client-owned shared-memory operand segments
  (a client thread's reused arena) and the worker's per-connection
  mappings of them
- :mod:`repro.serve.quotas` — per-client admission limits + accounting
- :mod:`repro.serve.server` — the worker: bounded queue, deadlines,
  backpressure, graceful drain
- :mod:`repro.serve.supervisor` — crash supervision, restart budget, CLI

The matching client facade lives in :mod:`repro.blas.client`
(``ServedBLAS``): deadline-bounded remote calls over one persistent
connection per client thread, with retry, circuit breaker, and
transparent fallback to in-process ``AugemBLAS``.
"""

from .protocol import (ERR_BAD_REQUEST, ERR_BUSY, ERR_DEADLINE,
                       ERR_DRAINING, ERR_INTERNAL, ERR_QUOTA,
                       PROTOCOL_VERSION, ROUTINES, ArrayRef, PeerGone,
                       ProtocolError)
from .quotas import ClientAccount, QuotaBook, QuotaRejected
from .server import ServeConfig, ServeWorker, default_runtime_dir
from .supervisor import ping, read_state, rpc, supervise, wait_ready

__all__ = [
    "ArrayRef", "ClientAccount", "ERR_BAD_REQUEST", "ERR_BUSY",
    "ERR_DEADLINE", "ERR_DRAINING", "ERR_INTERNAL", "ERR_QUOTA",
    "PROTOCOL_VERSION", "PeerGone", "ProtocolError", "QuotaBook",
    "QuotaRejected", "ROUTINES", "ServeConfig", "ServeWorker",
    "default_runtime_dir", "ping", "read_state", "rpc", "supervise",
    "wait_ready",
]
