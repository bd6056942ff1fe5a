"""Deterministic fault injection for robustness testing.

The empirical tuner must survive candidates that crash, hang, compute
garbage, or fail to build — but such candidates appear nondeterministically
in real searches, which makes the failure paths untestable by accident
alone.  This module lets tests and the bench harness *plan* faults at
chosen candidates so the isolation machinery can be proven end-to-end.

A plan is a list of specs, each ``kind@match[:count]``:

``kind``
    ``segv``  — dereference a null pointer at kernel entry (SIGSEGV)
    ``ill``   — execute ``ud2`` at kernel entry (SIGILL)
    ``hang``  — spin forever at kernel entry (trips the trial timeout)
    ``wrong`` — return immediately, producing wrong results (fails
    validation, but never crashes)
    ``toolchain`` — make one assembler/compiler invocation fail (exercises
    the bounded-retry path in :mod:`repro.backend.compiler`)
    ``interrupt`` — raise :class:`KeyboardInterrupt` in the tuning loop
    just before the matching candidate's trial (exercises the durable
    session / crash-resume path in :mod:`repro.tuning.session`)
    ``serve_crash`` — the serve worker (:mod:`repro.serve.server`) dies
    with ``os._exit`` mid-request, after admission and before any
    response (exercises supervisor restart and the client fallback)
    ``serve_stall`` — the worker sleeps past the request deadline before
    answering (exercises client timeouts and the degradation chain)
    ``serve_reject`` — the worker answers the request with a
    backpressure rejection even though the queue has room (exercises
    the client's retry-with-backoff path)

    ``worker_die`` — a GEMM worker thread raises
    :class:`InjectedWorkerFault` before the native GEBP call that covers
    the matching macro-tile (exercises the parallel driver's whole-call failure
    path: no partial C writes reach the caller, packing buffers return
    to the pool)
    ``corrupt`` — flip one high mantissa/exponent bit in the matching
    macro-tile's C scratch after the kernel computes it (silent data
    corruption; exercises the ABFT detect→retry→recompute→quarantine
    ladder in :mod:`repro.blas.integrity`).  Without a ``:count`` the
    corruption is *persistent* — the tile's retry corrupts again,
    forcing the reference-recompute path; ``corrupt@#0:1`` models a
    transient bit-flip the retry heals
    ``diskfull`` — the matching durable write fails with
    ``OSError(ENOSPC)`` (exercises the in-memory-only degradation in
    :mod:`repro.backend.fsio`: the process keeps serving with the
    persistent cache off instead of failing user calls)
    ``torn`` — the matching durable write lands truncated to half its
    bytes (models a torn write surfaced after a crash; exercises
    ``cache scrub`` and the self-healing lookup paths)
    ``bitrot`` — one bit of the matching durable write's payload is
    flipped before it lands (models media decay; exercises the digest
    verification in ``cache scrub``)
    ``kill`` — the process SIGKILLs itself at the matching durable-write
    checkpoint (the kill-during-publish torture harness: the store must
    afterwards read as entry-absent or entry-fully-valid, never partial)

``match``
    ``#N`` fires at candidate index ``N`` (asm- and interrupt-stage
    faults), request index ``N`` (serve-stage faults, counted per
    worker process), macro-tile index ``N`` (thread-stage faults,
    counted per GEMM call), or durable-write checkpoint ``N``
    (disk-stage faults, counted per process in
    :mod:`repro.backend.fsio`); any other string fires when it is a
    substring of the stage tag (the kernel symbol name for asm/
    interrupt faults, the source tag for toolchain faults, the routine
    family for serve faults, ``gemm``/``gemm_shuf`` for thread faults,
    the write-site tag like ``cache.meta``/``journal.append`` for disk
    faults).

``count``
    optional; the fault fires at most this many times, then disarms
    (models *transient* toolchain failures: ``toolchain@k:2`` fails the
    first two attempts and lets the retry loop succeed on the third).

Specs are separated by ``;`` or ``,``.  Plans come from the
``REPRO_FAULT_INJECT`` environment variable (re-read whenever it changes,
so a monkeypatched env takes effect immediately) or are installed
programmatically with :func:`install_fault_plan`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional

#: kinds realized by rewriting the generated assembly
ASM_KINDS = frozenset({"segv", "ill", "hang", "wrong"})
#: kinds realized inside the toolchain driver
TOOLCHAIN_KINDS = frozenset({"toolchain"})
#: kinds realized in the tuning loop (simulated operator interrupt)
INTERRUPT_KINDS = frozenset({"interrupt"})
#: kinds realized in the serve worker (BLAS-as-a-service degradations)
SERVE_KINDS = frozenset({"serve_crash", "serve_stall", "serve_reject"})
#: kinds realized inside a GEMM worker thread (parallel-driver failures)
THREAD_KINDS = frozenset({"worker_die", "corrupt"})
#: kinds realized at durable-write checkpoints (disk-state torture)
DISK_KINDS = frozenset({"diskfull", "torn", "bitrot", "kill"})
ALL_KINDS = (ASM_KINDS | TOOLCHAIN_KINDS | INTERRUPT_KINDS | SERVE_KINDS
             | THREAD_KINDS | DISK_KINDS)


class FaultPlanError(ValueError):
    """A malformed ``REPRO_FAULT_INJECT`` / plan spec."""


class InjectedWorkerFault(RuntimeError):
    """The planned ``worker_die`` failure raised inside a GEMM worker."""


@dataclass
class FaultSpec:
    """One planned fault: what to inject, where, and how many times."""

    kind: str
    match: str
    remaining: Optional[int] = None  # None = fires every time it matches

    @property
    def stage(self) -> str:
        if self.kind in TOOLCHAIN_KINDS:
            return "toolchain"
        if self.kind in INTERRUPT_KINDS:
            return "interrupt"
        if self.kind in SERVE_KINDS:
            return "serve"
        if self.kind in THREAD_KINDS:
            return "thread"
        if self.kind in DISK_KINDS:
            return "disk"
        return "asm"

    def matches(self, tag: str, index: Optional[int]) -> bool:
        if self.match.startswith("#"):
            return index is not None and index == int(self.match[1:])
        return bool(self.match) and self.match in (tag or "")


class FaultPlan:
    """An ordered set of :class:`FaultSpec` with firing-count state."""

    def __init__(self, specs: List[FaultSpec]) -> None:
        self.specs = list(specs)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        specs: List[FaultSpec] = []
        for chunk in text.replace(";", ",").split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            kind, sep, rest = chunk.partition("@")
            kind = kind.strip()
            if not sep or kind not in ALL_KINDS:
                raise FaultPlanError(
                    f"bad fault spec {chunk!r}; expected kind@match[:count] "
                    f"with kind in {sorted(ALL_KINDS)}")
            match, _, count = rest.partition(":")
            match = match.strip()
            if not match:
                raise FaultPlanError(f"fault spec {chunk!r} has empty match")
            if match.startswith("#") and not match[1:].isdigit():
                raise FaultPlanError(
                    f"fault spec {chunk!r}: index match must be #<int>")
            remaining: Optional[int] = None
            if count:
                try:
                    remaining = int(count)
                except ValueError:
                    raise FaultPlanError(
                        f"fault spec {chunk!r}: count must be an int") from None
                if remaining <= 0:
                    raise FaultPlanError(
                        f"fault spec {chunk!r}: count must be positive")
            specs.append(FaultSpec(kind=kind, match=match,
                                   remaining=remaining))
        return cls(specs)

    def take(self, stage: str, tag: str = "",
             index: Optional[int] = None) -> Optional[str]:
        """Fire (and consume one shot of) the first matching spec."""
        for spec in self.specs:
            if spec.stage != stage or not spec.matches(tag, index):
                continue
            if spec.remaining is not None:
                if spec.remaining <= 0:
                    continue
                spec.remaining -= 1
            return spec.kind
        return None


_INSTALLED: Optional[FaultPlan] = None
_ENV_RAW: Optional[str] = None
_ENV_PLAN: Optional[FaultPlan] = None


def install_fault_plan(plan: Optional[FaultPlan]) -> None:
    """Programmatic override (tests); ``None`` restores env-driven plans."""
    global _INSTALLED
    _INSTALLED = plan


def clear_fault_plan() -> None:
    """Drop any installed plan and forget the parsed-env cache."""
    global _INSTALLED, _ENV_RAW, _ENV_PLAN
    _INSTALLED = None
    _ENV_RAW = None
    _ENV_PLAN = None


def get_fault_plan() -> Optional[FaultPlan]:
    """The active plan: installed > ``$REPRO_FAULT_INJECT`` > none."""
    global _ENV_RAW, _ENV_PLAN
    if _INSTALLED is not None:
        return _INSTALLED
    raw = os.environ.get("REPRO_FAULT_INJECT", "").strip()
    if not raw:
        _ENV_RAW, _ENV_PLAN = None, None
        return None
    if raw != _ENV_RAW:
        _ENV_RAW, _ENV_PLAN = raw, FaultPlan.parse(raw)
    return _ENV_PLAN


def take_fault(stage: str, tag: str = "",
               index: Optional[int] = None) -> Optional[str]:
    """Consume a planned fault for ``stage``/``tag``; ``None`` if unarmed."""
    plan = get_fault_plan()
    return plan.take(stage, tag, index) if plan is not None else None


def corrupt_tile(buf) -> None:
    """Realize a ``corrupt`` fault: flip bit 62 of the first element.

    XOR-ing the top exponent bit turns 0.0 into 2.0 and scales any
    other finite value by a huge power of two — always far outside any
    checksum tolerance.  When the flip would land in the all-ones
    exponent (values in ``[1, 2)`` become Inf/NaN), bit 61 is flipped
    too, keeping the corruption finite — *silent* wrong bits, not a
    NaN any consumer would notice on its own.
    """
    import numpy as np

    view = np.asarray(buf).view(np.uint64)
    view.flat[0] ^= np.uint64(1 << 62)
    if not np.isfinite(np.asarray(buf).flat[0]):
        view.flat[0] ^= np.uint64(1 << 61)


#: instruction payloads inserted at function entry, by fault kind
_ASM_PAYLOADS = {
    "segv": "\txorq\t%rax, %rax\n\tmovq\t(%rax), %rax\t# injected fault",
    "ill": "\tud2\t# injected fault",
    "hang": "1:\tjmp\t1b\t# injected fault",
    "wrong": "\tret\t# injected fault",
}


def inject_asm_fault(kind: str, asm_text: str, symbol: str) -> str:
    """Rewrite a generated kernel so it misbehaves at entry.

    The payload lands immediately after the ``symbol:`` label, before the
    prologue, so ``wrong`` (an early ``ret``) leaves the stack balanced.
    """
    payload = _ASM_PAYLOADS.get(kind)
    if payload is None:
        raise FaultPlanError(f"unknown asm fault kind {kind!r}")
    label = f"{symbol}:"
    lines = asm_text.splitlines()
    for i, line in enumerate(lines):
        if line.strip() == label:
            lines.insert(i + 1, payload)
            return "\n".join(lines) + ("\n" if asm_text.endswith("\n") else "")
    raise FaultPlanError(f"symbol label {label!r} not found in assembly")
