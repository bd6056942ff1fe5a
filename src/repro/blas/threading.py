"""Thread-pool plumbing for the parallel GEBP driver.

Two pieces, both process-wide and deliberately boring:

- :class:`WorkerPool` — a persistent pool of daemon threads executing
  one task per range of macro-tiles.  Python threads are enough here
  because the hot work (the native GEBP loop behind one ctypes call)
  releases the GIL; the interpreter only runs the thin driver logic
  around it.  Pools are keyed by size and reused across GEMM calls
  (:func:`get_pool`), so steady-state calls never pay thread start-up.

- :class:`PackBufferPool` — reusable packing buffers keyed by element
  count.  Without pooling every native call would allocate fresh A/B/C
  panels; the pool lends flat float64 buffers,
  guards against handing one buffer to two concurrent borrowers (an
  aliasing bug here silently corrupts results), and keeps hit/miss
  counters that tests and traces can watch plateau.

``REPRO_THREADS`` selects the default thread count for every driver that
does not pin one explicitly (``auto`` = one per CPU); see
:func:`resolve_threads`.
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import Counters

#: environment variable naming the default GEMM thread count
THREADS_ENV = "REPRO_THREADS"


def resolve_threads(threads: Optional[int] = None,
                    environ=os.environ) -> int:
    """The effective thread count: explicit > ``$REPRO_THREADS`` > 1.

    An explicit non-positive or non-integer value raises; a malformed
    environment value degrades to single-threaded (an env typo must
    never change results — and cannot, by design — nor crash a library
    call).  ``REPRO_THREADS=auto`` means one thread per CPU.
    """
    if threads is not None:
        n = int(threads)
        if n < 1:
            raise ValueError(f"threads must be >= 1, got {threads!r}")
        return n
    raw = environ.get(THREADS_ENV, "").strip().lower()
    if not raw:
        return 1
    if raw == "auto":
        return max(1, os.cpu_count() or 1)
    try:
        n = int(raw)
    except ValueError:
        return 1
    return max(1, n)


class PoolAliasError(RuntimeError):
    """The buffer pool was asked to lend one buffer twice concurrently."""


#: packed panels start on a cache line: a 64-byte (zmm) load from any
#: other offset straddles two lines on every access, which costs the
#: 512-bit GEMM kernel about a quarter of its rate
BUFFER_ALIGN = 64


def _aligned_empty(size: int) -> np.ndarray:
    raw = np.empty(size + BUFFER_ALIGN // 8)
    start = (-raw.ctypes.data % BUFFER_ALIGN) // 8
    return raw[start:start + size]


class _PoolCounts(Counters):
    """A :class:`PackBufferPool`'s tallies (read through ``stats()``)."""

    TRACE = {"hits": "gemm.pack_pool.hit", "misses": "gemm.pack_pool.miss",
             "allocated_bytes": None}


class PackBufferPool:
    """Reusable flat float64 buffers for packed panels, keyed by size.

    ``acquire`` returns a C-contiguous, 64-byte-aligned 1-D array of
    exactly ``size`` elements (contents unspecified — packers overwrite
    every element, padding included); ``release`` returns it for reuse.
    :meth:`lend` is ``acquire`` that also returns the buffer's data
    address, recorded once when the buffer was allocated, for callers
    that hand it to C on every call.  The pool keeps at most
    ``max_free_per_size`` spares per size so pathological shape churn
    cannot hoard memory, and it tracks every outstanding buffer by
    identity: double-lending or double-releasing raises
    :class:`PoolAliasError` instead of corrupting a concurrent caller.
    """

    def __init__(self, max_free_per_size: int = 32) -> None:
        self.max_free_per_size = max_free_per_size
        self._lock = threading.Lock()
        #: size -> spare (buffer, data address) pairs
        self._free: Dict[int, List[Tuple[np.ndarray, int]]] = {}
        #: id(buf) -> (size, data address) of every lent buffer
        self._outstanding: Dict[int, Tuple[int, int]] = {}
        self.counts = _PoolCounts()
        with _POOLS_LOCK:
            _BUFFER_POOLS.add(self)

    @property
    def outstanding(self) -> int:
        """Buffers currently lent out (0 = every borrower cleaned up)."""
        with self._lock:
            return len(self._outstanding)

    def acquire(self, size: int) -> np.ndarray:
        return self.lend(size)[0]

    def lend(self, size: int) -> Tuple[np.ndarray, int]:
        """A buffer of ``size`` elements (as :meth:`acquire`) and its
        data address."""
        size = int(size)
        with self._lock:
            free = self._free.get(size)
            if free:
                buf, address = free.pop()
                self.counts.incr("hits")
                if id(buf) in self._outstanding:
                    raise PoolAliasError(
                        f"buffer of size {size} lent twice concurrently")
            else:
                self.counts.incr("misses")
                self.counts.incr("allocated_bytes", size * 8)
                buf = _aligned_empty(size)
                address = buf.ctypes.data
            self._outstanding[id(buf)] = (size, address)
        return buf, address

    def release(self, buf: np.ndarray) -> None:
        with self._lock:
            lent = self._outstanding.pop(id(buf), None)
            if lent is None:
                raise PoolAliasError(
                    "released a buffer the pool did not lend (or released "
                    "it twice)")
            free = self._free.setdefault(lent[0], [])
            if len(free) < self.max_free_per_size:
                free.append((buf, lent[1]))

    def drain_free(self) -> int:
        """Drop every cached spare buffer; returns bytes released.

        Outstanding (lent) buffers are untouched — borrowers still
        release them normally, they just won't be pooled afterwards
        until re-acquired.  Called on serve worker drain/shutdown so
        packing scratch does not leak across supervisor restarts.
        """
        with self._lock:
            released = sum(buf.size * 8 for bufs in self._free.values()
                           for buf, _ in bufs)
            self._free.clear()
        return released

    def stats(self) -> Dict[str, int]:
        with self._lock:
            stats = self.counts.snapshot()
            stats["outstanding"] = len(self._outstanding)
        stats["allocations"] = stats["misses"]  # every miss allocates
        return stats


class _Batch:
    """One GEMM call's worth of tasks moving through a shared pool."""

    __slots__ = ("tasks", "lock", "done", "next_index", "finished",
                 "errors", "cancelled", "busy")

    def __init__(self, tasks: Sequence[Callable[[], None]]) -> None:
        self.tasks = list(tasks)
        self.lock = threading.Lock()
        self.done = threading.Event()
        self.next_index = 0
        self.finished = 0
        self.errors: Dict[int, BaseException] = {}
        self.cancelled = False
        self.busy: Dict[str, float] = {}

    def claim(self) -> int:
        """Next unclaimed task index, or -1 when none remain."""
        with self.lock:
            if self.cancelled or self.next_index >= len(self.tasks):
                return -1
            index = self.next_index
            self.next_index += 1
            return index

    def complete(self, index: int, worker: str, elapsed: float,
                 error: Optional[BaseException]) -> None:
        with self.lock:
            self.finished += 1
            self.busy[worker] = self.busy.get(worker, 0.0) + elapsed
            if error is not None:
                self.errors[index] = error
                self.cancelled = True
            remaining = len(self.tasks) - self.finished
            # cancelled batches finish when every *claimed* task has
            # reported; unclaimed ones are counted as finished here
            if self.cancelled:
                unclaimed = len(self.tasks) - self.next_index
                self.finished += unclaimed
                self.next_index = len(self.tasks)
                remaining = len(self.tasks) - self.finished
            if remaining <= 0:
                self.done.set()

    def first_error(self) -> Optional[BaseException]:
        with self.lock:
            if not self.errors:
                return None
            return self.errors[min(self.errors)]


class WorkerPool:
    """``workers`` persistent daemon threads draining macro-tile batches.

    Threads are started lazily on the first :meth:`run` and live for the
    process.  The *calling* thread also works the batch, so a pool of
    size N applies N+0 compute threads when idle callers submit (the
    caller is one of the N; see :func:`get_pool`, which sizes pools at
    ``threads - 1``).
    """

    def __init__(self, workers: int) -> None:
        self.workers = max(0, int(workers))
        self._queue: "List[_Batch]" = []
        self._cv = threading.Condition()
        self._started = False

    def _ensure_started(self) -> None:
        if self._started:
            return
        with self._cv:
            if self._started:
                return
            for i in range(self.workers):
                t = threading.Thread(target=self._worker_loop,
                                     args=(f"gemm-worker-{i}",),
                                     name=f"gemm-worker-{i}", daemon=True)
                t.start()
            self._started = True

    def _worker_loop(self, name: str) -> None:
        while True:
            with self._cv:
                while not self._queue:
                    self._cv.wait()
                batch = self._queue[0]
                index = batch.claim()
                if index < 0:
                    # batch drained (or cancelled): retire it if still
                    # at the head, then look again
                    if self._queue and self._queue[0] is batch:
                        self._queue.pop(0)
                    continue
            self._run_one(batch, index, name)

    @staticmethod
    def _run_one(batch: _Batch, index: int, worker: str) -> None:
        t0 = time.perf_counter()
        error: Optional[BaseException] = None
        try:
            batch.tasks[index]()
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            error = exc
        batch.complete(index, worker, time.perf_counter() - t0, error)

    def run(self, tasks: Sequence[Callable[[], None]]) -> Dict[str, float]:
        """Execute every task; the caller participates as a worker.

        Returns per-worker busy seconds.  If any task raises, the
        remaining unclaimed tasks are skipped, every claimed task is
        awaited, and the error of the lowest-indexed failing task is
        re-raised (deterministic regardless of scheduling).
        """
        if not tasks:
            return {}
        self._ensure_started()
        batch = _Batch(tasks)
        with self._cv:
            self._queue.append(batch)
            self._cv.notify_all()
        caller = threading.current_thread().name
        while True:
            with self._cv:
                index = batch.claim()
            if index < 0:
                break
            self._run_one(batch, index, caller)
        batch.done.wait()
        with self._cv:
            if batch in self._queue:
                self._queue.remove(batch)
        error = batch.first_error()
        if error is not None:
            raise error
        return dict(batch.busy)


_POOLS: Dict[int, WorkerPool] = {}
_POOLS_LOCK = threading.Lock()
#: every live PackBufferPool, so reset_pools() can drain their spares
_BUFFER_POOLS: "weakref.WeakSet[PackBufferPool]" = weakref.WeakSet()


def get_pool(threads: int) -> WorkerPool:
    """The shared process-wide pool serving ``threads``-way GEMM calls.

    The pool holds ``threads - 1`` threads because the calling thread
    works the batch too.  Pools persist for the process and are shared
    by every driver asking for the same thread count.
    """
    workers = max(0, int(threads) - 1)
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = _POOLS[workers] = WorkerPool(workers)
        return pool


def reset_pools() -> int:
    """Forget the shared worker pools and drain every buffer pool.

    Existing worker threads die idle.  Every live
    :class:`PackBufferPool` drops its cached spare buffers (packing and
    integrity scratch), so a draining serve worker releases the memory
    instead of leaking it across supervisor restarts.  Returns the
    number of buffer bytes released.
    """
    with _POOLS_LOCK:
        _POOLS.clear()
        pools = list(_BUFFER_POOLS)
    return sum(pool.drain_free() for pool in pools)
