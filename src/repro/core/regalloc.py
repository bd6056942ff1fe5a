"""Vector register allocation (paper §3.1).

The allocation strategy follows the paper:

- scalar variables are classified by the array they correlate to (loads
  from A use A's registers, accumulators destined for C use C's);
- a **separate register queue is dedicated to each array variable** so
  values from different arrays never share registers, minimizing false
  dependences before vectorization;
- with R physical registers and m arrays, each array gets R/m registers
  (we give the residue to a shared temporary queue, which also backs the
  "pure temporary" class of tmp2-style variables);
- R counts the 16 VEX-addressable registers only.  On AVX-512 targets
  registers 16-31 form one overflow queue consulted after every other,
  so a kernel that fits 16 registers is allocated exactly as on a
  16-register target, and only a wider tile (the 24x8 zmm GEMM) reaches
  the EVEX-only registers;
- assignments are remembered in a global ``reg_table`` so decisions stay
  consistent across template regions and the surrounding code (Fig. 2);
- a register is released — and its entry dropped from ``reg_table`` —
  only when its variable's live range ends.  Entries wait in a heap
  keyed by their last-use position, so each statement releases only
  what expires there instead of asking about every live entry.

Vectorized scalars live in *lanes* of a shared register; :class:`Pack`
records the member order so the store/reduce optimizers can match layout.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..isa.arch import ArchSpec
from ..isa.registers import N_VEX_REGS, Register, xmm


class OutOfRegistersError(RuntimeError):
    """All vector register queues are exhausted."""


@dataclass
class Pack:
    """A vector register holding several scalar variables, one per lane.

    ``layout`` is ``"direct"`` when lane k holds members[k]'s true value, or
    ``"shuf"`` when the Shuf vectorization method left lanes permuted (the
    store optimizer must un-permute).
    """

    reg: Register
    members: List[str]
    layout: str = "direct"
    zeroed: bool = False

    def lane_of(self, var: str) -> int:
        return self.members.index(var)


@dataclass
class Loc:
    """Where a scalar variable lives: a whole register or a pack lane."""

    reg: Register
    lane: Optional[int] = None
    pack: Optional[Pack] = None

    @property
    def is_lane(self) -> bool:
        return self.pack is not None


_PTR_RE = re.compile(r"^ptr_([A-Za-z_][A-Za-z0-9_]*?)\d*$")


def array_root(name: str) -> str:
    """Root array of a derived pointer name (``ptr_A0`` -> ``A``)."""
    m = _PTR_RE.match(name)
    return m.group(1) if m else name


TEMP_CLASS = "tmp"
#: the queue of registers 16-31 (not a C identifier, so no array clashes)
HIGH_CLASS = "evex16+"


class VectorAllocator:
    """Per-array register queues with a global reg_table.

    ``unified=True`` is the ablation mode: a single shared queue replaces
    the per-array queues, so values from different arrays may reuse the
    same registers — the false-dependence-prone strategy the paper's
    per-array design avoids (§3.1).
    """

    def __init__(self, arch: ArchSpec, array_classes: Sequence[str],
                 unified: bool = False) -> None:
        self.arch = arch
        self.unified = unified
        classes = list(dict.fromkeys(array_classes))  # unique, ordered
        total = min(arch.n_vector_regs, N_VEX_REGS)
        if unified:
            self.classes = [TEMP_CLASS]
            self.queues: Dict[str, List[Register]] = {
                TEMP_CLASS: [xmm(k) for k in range(total)]
            }
        else:
            self.classes = classes + [TEMP_CLASS]
            per = total // len(self.classes)
            if per == 0:
                raise OutOfRegistersError(
                    f"{len(self.classes)} register classes but only "
                    f"{total} registers"
                )
            self.queues = {}
            idx = 0
            for cls in self.classes:
                take = per
                self.queues[cls] = [xmm(idx + k) for k in range(take)]
                idx += take
            # residue goes to the temp queue
            while idx < total:
                self.queues[TEMP_CLASS].append(xmm(idx))
                idx += 1
        if arch.n_vector_regs > total:
            self.queues[HIGH_CLASS] = [
                xmm(k) for k in range(total, arch.n_vector_regs)]
        #: the paper's global variable->register map (Fig. 2: ``reg_table``)
        self.reg_table: Dict[str, Loc] = {}
        self._reg_owner: Dict[int, str] = {}  # reg index -> class it came from
        self._entries = 0  # reg_table insertions so far
        #: (insertion number, var, loc) of entries not yet keyed by their
        #: last use (see release_dead)
        self._unkeyed: List[tuple] = []
        #: (last use, insertion number, var, loc) of keyed entries; one
        #: whose ``loc`` no longer sits in ``reg_table`` is stale
        self._expiry: List[tuple] = []

    # -- raw register management ---------------------------------------------
    def _pop(self, cls: str) -> Register:
        cls = cls if cls in self.queues else TEMP_CLASS
        order = [cls, TEMP_CLASS] + [c for c in self.classes
                                     if c not in (cls, TEMP_CLASS)]
        if HIGH_CLASS in self.queues:
            order.append(HIGH_CLASS)
        for candidate in order:
            queue = self.queues[candidate]
            if queue:
                reg = queue.pop(0)
                self._reg_owner[reg.index] = candidate
                return reg
        raise OutOfRegistersError(
            f"no vector registers left (requested class {cls!r})"
        )

    def free_reg(self, reg: Register) -> None:
        owner = self._reg_owner.pop(reg.index, TEMP_CLASS)
        self.queues[owner].append(reg.xmm)

    def alloc_temp_reg(self, cls: str = TEMP_CLASS) -> Register:
        """Allocate an anonymous register (caller must ``free_reg`` it)."""
        return self._pop(cls)

    # -- variable-level interface -----------------------------------------
    def loc(self, var: str) -> Optional[Loc]:
        return self.reg_table.get(var)

    def alloc(self, var: str, cls: str = TEMP_CLASS) -> Loc:
        """Allocate (or return the existing) whole register for ``var``."""
        existing = self.reg_table.get(var)
        if existing is not None:
            return existing
        reg = self._pop(cls)
        loc = Loc(reg)
        self._track(var, loc)
        return loc

    def alloc_pack(self, members: Sequence[str], cls: str,
                   layout: str = "direct") -> Pack:
        """Allocate one register shared by ``members`` (lane k = member k)."""
        for m in members:
            if m in self.reg_table:
                raise OutOfRegistersError(
                    f"variable {m!r} already has a register; cannot re-pack"
                )
        reg = self._pop(cls)
        pack = Pack(reg=reg, members=list(members), layout=layout)
        for lane, m in enumerate(members):
            self._track(m, Loc(reg, lane=lane, pack=pack))
        return pack

    def _track(self, var: str, loc: Loc) -> None:
        self.reg_table[var] = loc
        self._entries += 1
        self._unkeyed.append((self._entries, var, loc))

    def release_var(self, var: str) -> None:
        """Release ``var``; frees the register once no pack member needs it."""
        loc = self.reg_table.pop(var, None)
        if loc is None:
            return
        if loc.pack is not None:
            if any(m in self.reg_table for m in loc.pack.members):
                return  # other lanes still live
        self.free_reg(loc.reg)

    def release_dead(self, liveness, pos: int) -> None:
        """Release every tracked variable dead after flattened position
        ``pos``, in ``reg_table`` order.

        Each entry's last use is read once, at the first call after it
        was made; the heap then yields exactly the entries whose last
        use is at or before ``pos`` (positions need not ascend between
        calls: a loop statement's position precedes its body's)."""
        for seq, var, loc in self._unkeyed:
            heapq.heappush(self._expiry,
                           (liveness.last_use(var), seq, var, loc))
        self._unkeyed.clear()
        expired = []
        while self._expiry and self._expiry[0][0] <= pos:
            _, seq, var, loc = heapq.heappop(self._expiry)
            if self.reg_table.get(var) is loc:
                expired.append((seq, var))
        for _, var in sorted(expired):
            self.release_var(var)

    # -- introspection -------------------------------------------------------
    def in_use(self) -> int:
        return len(self._reg_owner)

    def dump(self) -> str:
        rows = [f"{v}: {loc.reg.name}"
                + (f"[lane {loc.lane}]" if loc.is_lane else "")
                for v, loc in sorted(self.reg_table.items())]
        return "\n".join(rows)
