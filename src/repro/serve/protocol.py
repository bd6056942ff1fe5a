"""Wire protocol for the BLAS service — header-only frames over a unix
socket, operands in ``multiprocessing.shared_memory``.

Matrices never travel over the socket and are never pickled.  A request
is one JSON *header* frame naming the routine, inline scalars/flags, and
an :class:`ArrayRef` (shared-memory segment name + dtype + shape) for
every operand; the response is another JSON frame.  Every segment is
created, owned, and unlinked by the **client** — the server only ever
attaches, so a crashed worker can never leak client memory and a crashed
client never strands server allocations.

Framing is ``!I`` length prefix + UTF-8 JSON, bounded by
:data:`MAX_FRAME` (headers are tiny; anything bigger is an attack or a
bug).  Both sides read each routine's operand names, output semantics
(new array / in-place mutation / inline scalar) and result shapes off
the one routine table, :data:`repro.blas.routines.ROUTINES`, re-exported
here as :data:`ROUTINES`.
"""

from __future__ import annotations

import json
import socket
import struct
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..blas.routines import ROUTINES  # noqa: F401 - the serve contract

#: protocol version; a mismatch is a BAD_REQUEST, never a crash
PROTOCOL_VERSION = 1

#: hard bound on one header frame (headers carry no matrix data)
MAX_FRAME = 1 << 20

_LEN = struct.Struct("!I")

# -- error codes (response {"ok": false, "error": {"code": ...}}) -----------
#: queue full — retry after ``retry_after_ms`` (explicit backpressure)
ERR_BUSY = "busy"
#: per-client quota exceeded — retry after ``retry_after_ms``
ERR_QUOTA = "quota"
#: worker is draining; no new work is admitted
ERR_DRAINING = "draining"
#: the request's deadline expired (queued too long or compute too slow)
ERR_DEADLINE = "deadline"
#: malformed header / unknown routine / shape mismatch
ERR_BAD_REQUEST = "bad_request"
#: the routine raised on the worker
ERR_INTERNAL = "internal"

#: codes the client may retry against the same worker
RETRYABLE_CODES = frozenset({ERR_BUSY, ERR_QUOTA})


class ProtocolError(RuntimeError):
    """A malformed or oversized frame (either direction)."""


class PeerGone(ConnectionError):
    """The other end closed the socket mid-conversation."""


# ---------------------------------------------------------------------------
# framing
# ---------------------------------------------------------------------------

def send_frame(sock: socket.socket, obj: Dict[str, Any]) -> None:
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds "
                            f"MAX_FRAME ({MAX_FRAME})")
    sock.sendall(_LEN.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n:
        data = sock.recv(min(n, 1 << 16))
        if not data:
            raise PeerGone("peer closed the connection")
        chunks.append(data)
        n -= len(data)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """One frame, or ``None`` on a clean EOF at a frame boundary."""
    try:
        head = sock.recv(_LEN.size, socket.MSG_WAITALL)
    except OSError:
        raise
    if not head:
        return None
    if len(head) < _LEN.size:
        head += _recv_exact(sock, _LEN.size - len(head))
    (length,) = _LEN.unpack(head)
    if length > MAX_FRAME:
        raise ProtocolError(f"incoming frame claims {length} bytes "
                            f"(max {MAX_FRAME})")
    payload = _recv_exact(sock, length)
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"undecodable frame: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("frame is not a JSON object")
    return obj


# ---------------------------------------------------------------------------
# operand descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArrayRef:
    """A shared-memory operand: segment name + dtype + shape.

    Every kernel is double precision, so ``float64`` is the only dtype
    the protocol accepts.
    """

    shm: str
    shape: Tuple[int, ...]
    dtype: str = "float64"

    @property
    def nbytes(self) -> int:
        n = 8
        for dim in self.shape:
            n *= dim
        return n

    def to_json(self) -> Dict[str, Any]:
        return {"shm": self.shm, "shape": list(self.shape),
                "dtype": self.dtype}

    @classmethod
    def from_json(cls, rec: Any) -> "ArrayRef":
        try:
            shape = tuple(int(d) for d in rec["shape"])
            if any(d < 0 for d in shape):
                raise ValueError("negative dimension")
            dtype = str(rec.get("dtype", "float64"))
            if dtype != "float64":
                raise ValueError(f"dtype {dtype!r} is not float64")
            return cls(shm=str(rec["shm"]), shape=shape, dtype=dtype)
        except (TypeError, KeyError, ValueError) as exc:
            raise ProtocolError(f"bad array descriptor {rec!r}: {exc}") \
                from None


# ---------------------------------------------------------------------------
# request / response constructors (keep both sides symmetrical)
# ---------------------------------------------------------------------------

#: quota surcharge divisor for verified requests: ABFT adds O(n²)
#: checksum work on top of the O(n³) routine, so an integrity-flagged
#: request is charged an extra 1/8 of its operand bytes against the
#: per-client byte quota (both sides compute it via charged_bytes())
INTEGRITY_SURCHARGE_SHIFT = 3


def charged_bytes(nbytes: int, integrity: Optional[str]) -> int:
    """Quota bytes for a request: operands + the ABFT verification tax."""
    if integrity and integrity != "off":
        return nbytes + (nbytes >> INTEGRITY_SURCHARGE_SHIFT)
    return nbytes


def call_header(routine: str, client: str, deadline_ms: int,
                arrays: Dict[str, ArrayRef],
                scalars: Dict[str, float], flags: Dict[str, bool],
                out: Optional[ArrayRef],
                integrity: Optional[str] = None) -> Dict[str, Any]:
    header: Dict[str, Any] = {
        "op": "call", "v": PROTOCOL_VERSION, "routine": routine,
        "client": client, "deadline_ms": int(deadline_ms),
        "arrays": {k: v.to_json() for k, v in arrays.items()},
        "scalars": scalars, "flags": flags,
    }
    if out is not None:
        header["out"] = out.to_json()
    if integrity is not None:
        header["integrity"] = str(integrity)
    return header


def ok_response(**extra: Any) -> Dict[str, Any]:
    out: Dict[str, Any] = {"ok": True}
    out.update(extra)
    return out


def error_response(code: str, message: str,
                   retry_after_ms: Optional[int] = None) -> Dict[str, Any]:
    err: Dict[str, Any] = {"code": code, "message": str(message)[:300]}
    if retry_after_ms is not None:
        err["retry_after_ms"] = int(retry_after_ms)
    return {"ok": False, "error": err}
