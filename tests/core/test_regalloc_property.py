"""Property-based tests for the vector register allocator (paper §3.1).

Drives :class:`repro.core.regalloc.VectorAllocator` with randomized
live-range event sequences (allocate a scalar, allocate a pack, release)
and checks the invariants the Template Optimizer silently relies on:

- two simultaneously-live variables never share a physical register
  unless they are lanes of the same pack;
- the ``reg_table`` answer for a live variable never changes between its
  allocation and its release (decisions must stay consistent across
  template regions — Fig. 2);
- allocated + free register counts always conserve the register file;
- exhaustion surfaces as :class:`OutOfRegistersError`, never as silent
  double-assignment.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.regalloc import OutOfRegistersError, VectorAllocator
from repro.isa.arch import GENERIC_SSE, HASWELL, SKYLAKE_X

ARRAY_CLASSES = ("A", "B", "C")
VARS = [f"v{i}" for i in range(24)]

# an event is ("alloc", var, cls) | ("pack", (members...), cls) | ("release", var)
_alloc = st.tuples(st.just("alloc"), st.sampled_from(VARS),
                   st.sampled_from(ARRAY_CLASSES + ("tmp",)))
_pack = st.tuples(st.just("pack"),
                  st.lists(st.sampled_from(VARS), min_size=2, max_size=4,
                           unique=True).map(tuple),
                  st.sampled_from(ARRAY_CLASSES))
_release = st.tuples(st.just("release"), st.sampled_from(VARS),
                     st.just(None))
EVENTS = st.lists(st.one_of(_alloc, _pack, _release), max_size=60)


def _check_invariants(alloc: VectorAllocator, total_regs: int) -> None:
    # no two live variables share a register unless they share the pack
    by_index = {}
    for var, loc in alloc.reg_table.items():
        other = by_index.get(loc.reg.index)
        if other is not None:
            o_loc = alloc.reg_table[other]
            assert loc.pack is not None and o_loc.pack is loc.pack, (
                f"{var} and {other} both live in reg {loc.reg.index} "
                f"without sharing a pack")
        by_index[loc.reg.index] = var
    # the register file is conserved: every register is either in some
    # free queue or accounted to an owner class
    free = sum(len(q) for q in alloc.queues.values())
    assert free + alloc.in_use() == total_regs
    # a pack is live while any member is; its register must not be free
    free_indices = {r.index for q in alloc.queues.values() for r in q}
    for var, loc in alloc.reg_table.items():
        assert loc.reg.index not in free_indices, (
            f"{var} is live in reg {loc.reg.index} which is also free")


@pytest.mark.parametrize("arch", [GENERIC_SSE, HASWELL, SKYLAKE_X],
                         ids=lambda a: a.name)
@pytest.mark.parametrize("unified", [False, True],
                         ids=["per-array", "unified"])
@given(events=EVENTS)
@settings(max_examples=60, deadline=None)
def test_no_live_aliasing_under_random_live_ranges(arch, unified, events):
    alloc = VectorAllocator(arch, ARRAY_CLASSES, unified=unified)
    total = arch.n_vector_regs
    stable = {}  # var -> reg index observed at allocation
    for kind, payload, cls in events:
        try:
            if kind == "alloc":
                loc = alloc.alloc(payload, cls)
                stable.setdefault(payload, loc.reg.index)
            elif kind == "pack":
                if any(m in alloc.reg_table for m in payload):
                    with pytest.raises(OutOfRegistersError):
                        alloc.alloc_pack(payload, cls)
                    continue
                pack = alloc.alloc_pack(payload, cls)
                for m in payload:
                    stable.setdefault(m, pack.reg.index)
            else:
                alloc.release_var(payload)
                stable.pop(payload, None)
        except OutOfRegistersError:
            # exhaustion is a legal outcome of a hostile sequence; the
            # allocator must still be in a consistent state afterwards
            _check_invariants(alloc, total)
            return
        # reg_table answers stay put for the whole live range
        for var, idx in stable.items():
            if var in alloc.reg_table:
                assert alloc.reg_table[var].reg.index == idx, (
                    f"{var} moved from reg {idx} to "
                    f"{alloc.reg_table[var].reg.index} while live")
        _check_invariants(alloc, total)


@given(events=EVENTS)
@settings(max_examples=40, deadline=None)
def test_reg_table_consistent_across_regions(events):
    """Replaying the same event prefix in a second 'region' of the same
    allocator is idempotent: alloc() on an already-live variable returns
    the recorded location instead of a fresh register."""
    alloc = VectorAllocator(HASWELL, ARRAY_CLASSES)
    live = {}
    for kind, payload, cls in events:
        try:
            if kind == "alloc":
                live[payload] = alloc.alloc(payload, cls).reg.index
            elif kind == "pack":
                if any(m in alloc.reg_table for m in payload):
                    continue
                pack = alloc.alloc_pack(payload, cls)
                for m in payload:
                    live[m] = pack.reg.index
            else:
                alloc.release_var(payload)
                live.pop(payload, None)
        except OutOfRegistersError:
            break
    # second region: re-request every live variable
    for var, idx in live.items():
        again = alloc.alloc(var, "tmp")  # class hint must not matter now
        assert again.reg.index == idx
    in_use_before = alloc.in_use()
    for var in list(live):
        alloc.alloc(var)
    assert alloc.in_use() == in_use_before  # no duplicate allocations
