"""Per-client quotas and accounting for the BLAS service.

Every request names a ``client`` identity (the facade sends
``host:pid``).  The :class:`QuotaBook` enforces two admission limits —
concurrent in-flight requests per client and bytes of operand memory per
request — and keeps a full per-client ledger (admitted / completed /
rejections by cause / bytes moved) that the worker reports over the
``status`` op and *seals* to ``accounting.json`` during graceful drain,
so an operator can always answer "who was using this daemon, and how
hard" even after it exits.

Thread-safe: connection threads admit, compute threads release.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Optional

from ..backend import fsio
from .protocol import ERR_QUOTA

#: defaults, overridable per-worker via ServeConfig
DEFAULT_MAX_INFLIGHT_PER_CLIENT = 8
DEFAULT_MAX_REQUEST_BYTES = 256 * 1024 * 1024


@dataclass
class ClientAccount:
    """The ledger for one client identity."""

    admitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected_quota: int = 0
    rejected_busy: int = 0
    deadline_expired: int = 0
    bytes_in: int = 0
    inflight: int = 0
    inflight_peak: int = 0
    first_seen: float = field(default_factory=time.time)
    last_seen: float = field(default_factory=time.time)


class QuotaRejected(Exception):
    """Admission denied; carries the protocol error code."""

    def __init__(self, code: str, message: str) -> None:
        self.code = code
        super().__init__(message)


class QuotaBook:
    """Admission limits + per-client accounting for one worker."""

    def __init__(self,
                 max_inflight_per_client: int =
                 DEFAULT_MAX_INFLIGHT_PER_CLIENT,
                 max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES) -> None:
        self.max_inflight_per_client = max_inflight_per_client
        self.max_request_bytes = max_request_bytes
        self._lock = threading.Lock()
        self._clients: Dict[str, ClientAccount] = {}
        self.sealed_at: Optional[float] = None

    def _account(self, client: str) -> ClientAccount:
        account = self._clients.get(client)
        if account is None:
            account = self._clients[client] = ClientAccount()
        account.last_seen = time.time()
        return account

    # -- admission ---------------------------------------------------------

    def admit(self, client: str, request_bytes: int) -> None:
        """Admit one request or raise :class:`QuotaRejected`."""
        with self._lock:
            account = self._account(client)
            if request_bytes > self.max_request_bytes:
                account.rejected_quota += 1
                raise QuotaRejected(
                    ERR_QUOTA,
                    f"request carries {request_bytes} operand bytes "
                    f"(per-request limit {self.max_request_bytes})")
            if account.inflight >= self.max_inflight_per_client:
                account.rejected_quota += 1
                raise QuotaRejected(
                    ERR_QUOTA,
                    f"client {client!r} already has {account.inflight} "
                    f"requests in flight "
                    f"(limit {self.max_inflight_per_client})")
            account.admitted += 1
            account.bytes_in += request_bytes
            account.inflight += 1
            account.inflight_peak = max(account.inflight_peak,
                                        account.inflight)

    def unadmit(self, client: str, request_bytes: int) -> None:
        """Roll back an :meth:`admit` whose request never entered the
        queue (queue-full race); the ledger reads as if it never was."""
        with self._lock:
            account = self._account(client)
            account.admitted = max(0, account.admitted - 1)
            account.bytes_in = max(0, account.bytes_in - request_bytes)
            account.inflight = max(0, account.inflight - 1)

    def note_busy(self, client: str) -> None:
        """Record a queue-full rejection (admission never started)."""
        with self._lock:
            self._account(client).rejected_busy += 1

    def release(self, client: str, outcome: str) -> None:
        """Settle one admitted request: ``ok``/``failed``/``deadline``."""
        with self._lock:
            account = self._account(client)
            account.inflight = max(0, account.inflight - 1)
            if outcome == "ok":
                account.completed += 1
            elif outcome == "deadline":
                account.deadline_expired += 1
            else:
                account.failed += 1

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {client: asdict(account)
                    for client, account in sorted(self._clients.items())}

    def totals(self) -> Dict[str, int]:
        with self._lock:
            keys = ("admitted", "completed", "failed", "rejected_quota",
                    "rejected_busy", "deadline_expired", "inflight")
            out = {k: 0 for k in keys}
            for account in self._clients.values():
                for k in keys:
                    out[k] += getattr(account, k)
            return out

    def seal(self, path: Path) -> None:
        """Write the final ledger atomically (graceful-drain epilogue)."""
        self.sealed_at = time.time()
        record = {"sealed_at": self.sealed_at, "pid": os.getpid(),
                  "clients": self.snapshot(), "totals": self.totals()}
        # accounting is best-effort; never block the drain
        fsio.write_record(path, record, tag="serve.accounting")
