"""Shared-memory operand segments for the BLAS service.

Ownership discipline (see :mod:`repro.serve.protocol`): the **client**
creates every segment and is the only side that ever unlinks one; the
**server** attaches read/write and merely closes its mapping.  That makes
segment lifetime crash-safe in both directions — a SIGKILLed worker holds
no client memory, and a vanished client leaves only segments its own
process (or the OS at reboot) reclaims.

The client's arena (:func:`create_segment`, one per connection) is
unlinked as soon as the first reply that used it arrives; both sides
keep their mappings and reuse them for the connection's later
requests.  The server's :class:`AttachedSet` lives as long as one
connection.  :class:`SegmentSet` stages one segment per operand and
unlinks them all when the request is done.

CPython < 3.13 wrinkle: attaching to an existing segment *registers* it
with the ``multiprocessing.resource_tracker``, which then "helpfully"
unlinks it when the attaching process exits — destroying memory it does
not own (bpo-39959).  :func:`attach_array` unregisters the attachment so
the creator stays the sole owner; on 3.13+ it uses ``track=False``.
"""

from __future__ import annotations

import secrets
import threading
from multiprocessing import shared_memory
from typing import Dict, Iterable, Optional, Set, Tuple

import numpy as np

from .protocol import ArrayRef, ProtocolError

#: refuse to attach anything larger than this (malformed/hostile headers)
MAX_SEGMENT_BYTES = 1 << 31

_SUPPORTS_TRACK: Optional[bool] = None

#: segment names created by THIS process; an in-process attach (the
#: in-thread test worker) must not unregister them — the creator's
#: resource_tracker registration has to survive until its unlink
_CREATED_HERE = set()


def _supports_track() -> bool:
    import inspect

    global _SUPPORTS_TRACK
    if _SUPPORTS_TRACK is None:
        params = inspect.signature(
            shared_memory.SharedMemory.__init__).parameters
        _SUPPORTS_TRACK = "track" in params
    return _SUPPORTS_TRACK


def create_segment(nbytes: int,
                   prefix: str = "rblas") -> shared_memory.SharedMemory:
    """Create and map a client-owned segment of ``nbytes`` (at least 1).

    The caller must eventually :func:`close_segment` it and, unless it
    already did, :func:`unlink_segment` it.
    """
    name = f"{prefix}_{secrets.token_hex(6)}"
    seg = shared_memory.SharedMemory(name=name, create=True,
                                     size=max(1, nbytes))
    _CREATED_HERE.add(seg._name)
    return seg


def unlink_segment(seg: shared_memory.SharedMemory) -> None:
    """Remove a client-owned segment's name; every mapping stays valid."""
    try:
        seg.unlink()
    except OSError:
        pass
    _CREATED_HERE.discard(seg._name)


def close_segment(seg: shared_memory.SharedMemory) -> None:
    """Unmap a segment.  NumPy views of it dangle from here on: nothing
    may read or write them any more."""
    try:
        seg.close()
    except OSError:
        pass


def create_array(shape: Tuple[int, ...],
                 dtype: str = "float64",
                 fill: Optional[np.ndarray] = None,
                 prefix: str = "rblas") -> Tuple[shared_memory.SharedMemory,
                                                 np.ndarray, ArrayRef]:
    """Create a client-owned segment sized for ``shape`` and map it.

    Returns ``(segment, array_view, descriptor)``.  The caller must
    eventually ``close()`` **and** ``unlink()`` the segment (use
    :class:`SegmentSet`).
    """
    dt = np.dtype(dtype)
    seg = create_segment(int(np.prod(shape, dtype=np.int64)) * dt.itemsize,
                         prefix=prefix)
    view = np.ndarray(shape, dtype=dt, buffer=seg.buf)
    if fill is not None:
        view[...] = fill
    return seg, view, ArrayRef(shm=seg.name, shape=tuple(shape),
                               dtype=dt.name)


def open_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a client-owned segment without adopting ownership."""
    if _supports_track():
        return shared_memory.SharedMemory(name=name, track=False)
    seg = shared_memory.SharedMemory(name=name)
    if seg._name not in _CREATED_HERE:
        try:  # undo the attach-side resource_tracker registration
            from multiprocessing import resource_tracker

            resource_tracker.unregister(seg._name, "shared_memory")
        except Exception:
            pass
    return seg


def view_of(seg: shared_memory.SharedMemory, ref: ArrayRef) -> np.ndarray:
    """The operand ``ref`` describes, after checking it lies in ``seg``."""
    nbytes = ref.nbytes
    if nbytes > MAX_SEGMENT_BYTES:
        raise ProtocolError(f"operand {ref.shm} claims {nbytes} bytes "
                            f"(max {MAX_SEGMENT_BYTES})")
    if ref.offset + nbytes > seg.size:
        raise ProtocolError(
            f"operand {ref.shm}: segment holds {seg.size} bytes but the "
            f"descriptor claims shape {ref.shape} ({nbytes} bytes) at "
            f"offset {ref.offset}")
    return np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=seg.buf,
                      offset=ref.offset)


def attach_array(ref: ArrayRef) -> Tuple[shared_memory.SharedMemory,
                                         np.ndarray]:
    """Attach to a client-owned segment and view the operand in it."""
    seg = open_segment(ref.shm)
    try:
        return seg, view_of(seg, ref)
    except ProtocolError:
        seg.close()
        raise


class SegmentSet:
    """Context manager owning a batch of client-side segments.

    Guarantees close+unlink of everything allocated through it, even when
    the request fails mid-flight.
    """

    def __init__(self, prefix: str = "rblas") -> None:
        self.prefix = prefix
        self._segments = []

    def add(self, shape: Tuple[int, ...], dtype: str = "float64",
            fill: Optional[np.ndarray] = None
            ) -> Tuple[np.ndarray, ArrayRef]:
        seg, view, ref = create_array(shape, dtype=dtype, fill=fill,
                                      prefix=self.prefix)
        self._segments.append(seg)
        return view, ref

    def release(self) -> None:
        segments, self._segments = self._segments, []
        for seg in segments:
            close_segment(seg)
            unlink_segment(seg)

    def __enter__(self) -> "SegmentSet":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.release()
        return False


class AttachedSet:
    """Server-side mappings of client-owned segments, for one connection.

    Each name is attached once and stays mapped while the connection's
    requests use it: when a request ends, every mapping it did not use
    and no other running request uses is closed; so is every such
    mapping before a new name is attached (a replaced arena is never
    mapped beside its successor); and :meth:`close` (the connection's
    end) closes the rest.  A request holds its mappings through
    :meth:`for_request` until it returns, even past ``close`` — a
    compute abandoned at its deadline keeps its memory until it
    finishes.  Never unlinks.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._segments: Dict[str, shared_memory.SharedMemory] = {}
        self._users: Dict[str, int] = {}   # running requests per name
        self._closed = False

    def attach(self, ref: ArrayRef) -> np.ndarray:
        """View ``ref``, attaching its segment on first use."""
        with self._lock:
            seg = self._segments.get(ref.shm)
            if seg is None:
                seg = self._segments[ref.shm] = open_segment(ref.shm)
        return view_of(seg, ref)

    def for_request(self) -> "RequestMappings":
        """The mappings of one request, held until it exits."""
        return RequestMappings(self)

    def _use(self, ref: ArrayRef, names: Set[str]) -> np.ndarray:
        with self._lock:
            if ref.shm not in names:
                names.add(ref.shm)
                self._users[ref.shm] = self._users.get(ref.shm, 0) + 1
            # a new name (a client's replacement arena) is never mapped
            # beside the mappings no running request uses any more
            drop = [] if ref.shm in self._segments else self._take_unused()
        for seg in drop:
            close_segment(seg)
        return self.attach(ref)

    def _finish(self, names: Set[str]) -> None:
        with self._lock:
            for name in names:
                self._users[name] -= 1
                if not self._users[name]:
                    del self._users[name]
            drop = self._take_unused(set() if self._closed else names)
        for seg in drop:
            close_segment(seg)

    def _take_unused(self, keep: Set[str] = frozenset()) -> list:
        """Unregister (under the lock) every mapping no running request
        uses, except ``keep``; the caller closes them."""
        return [self._segments.pop(name) for name in list(self._segments)
                if name not in self._users and name not in keep]

    def close(self) -> None:
        with self._lock:
            self._closed = True
        self._finish(set())

    def __enter__(self) -> "AttachedSet":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class RequestMappings:
    """One request's view of an :class:`AttachedSet` (see ``for_request``)."""

    def __init__(self, owner: AttachedSet) -> None:
        self._owner = owner
        self._names: Set[str] = set()

    def attach(self, ref: ArrayRef) -> np.ndarray:
        return self._owner._use(ref, self._names)

    def __enter__(self) -> "RequestMappings":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._owner._finish(self._names)
        return False


def total_bytes(refs: Iterable[ArrayRef]) -> int:
    return sum(ref.nbytes for ref in refs)
