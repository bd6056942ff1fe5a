"""Register-allocation tests (paper §3.1 strategy)."""

import pytest

from repro.core.regalloc import (
    HIGH_CLASS,
    OutOfRegistersError,
    Pack,
    VectorAllocator,
    array_root,
)
from repro.isa.arch import GENERIC_SSE, HASWELL, SKYLAKE_X


def test_array_root_parsing():
    assert array_root("ptr_A0") == "A"
    assert array_root("ptr_B12") == "B"
    assert array_root("ptr_X0") == "X"
    assert array_root("alpha") == "alpha"  # non-pointer names pass through
    assert array_root("ptr_my_arr3") == "my_arr"


def test_queues_partition_register_file():
    alloc = VectorAllocator(HASWELL, ["A", "B", "C"])
    total = sum(len(q) for q in alloc.queues.values())
    assert total == 16
    assert set(alloc.queues) == {"A", "B", "C", "tmp"}
    assert len(alloc.queues["A"]) == 4  # R/m with m=4 classes
    # a 32-register file splits registers 0-15 exactly the same way and
    # puts 16-31 in one overflow queue
    wide = VectorAllocator(SKYLAKE_X, ["A", "B", "C"])
    assert set(wide.queues) == {"A", "B", "C", "tmp", HIGH_CLASS}
    for cls in alloc.queues:
        assert wide.queues[cls] == alloc.queues[cls]
    assert [r.index for r in wide.queues[HIGH_CLASS]] == list(range(16, 32))
    unified = VectorAllocator(SKYLAKE_X, ["A"], unified=True)
    assert [r.index for r in unified.queues["tmp"]] == list(range(16))
    assert [r.index for r in unified.queues[HIGH_CLASS]] == \
        list(range(16, 32))


def test_overflow_queue_is_consulted_last():
    alloc = VectorAllocator(SKYLAKE_X, ["A", "B", "C"])
    regs = [alloc.alloc(f"v{k}", "A").reg.index for k in range(17)]
    assert sorted(regs[:16]) == list(range(16))  # every VEX queue first
    assert regs[16] == 16
    alloc.free_reg(alloc.reg_table.pop("v16").reg)
    assert alloc.queues[HIGH_CLASS][-1].index == 16  # back to its queue
    for k in range(17, 33):
        alloc.alloc(f"v{k}", "A")
    with pytest.raises(OutOfRegistersError):
        alloc.alloc("one_too_many", "A")


def test_residue_goes_to_temp_queue():
    alloc = VectorAllocator(HASWELL, ["X", "Y"])  # 3 classes, 16/3 = 5 each
    assert len(alloc.queues["tmp"]) == 6


def test_different_arrays_get_different_registers():
    alloc = VectorAllocator(HASWELL, ["A", "B", "C"])
    ra = alloc.alloc("tmp0", "A").reg
    rb = alloc.alloc("tmp1", "B").reg
    assert ra.index != rb.index


def test_alloc_is_idempotent_per_variable():
    alloc = VectorAllocator(HASWELL, ["A"])
    assert alloc.alloc("v", "A").reg == alloc.alloc("v", "A").reg


def test_reg_table_records_assignments():
    alloc = VectorAllocator(HASWELL, ["A"])
    alloc.alloc("v", "A")
    assert "v" in alloc.reg_table


def test_release_returns_register_to_pool():
    alloc = VectorAllocator(HASWELL, ["A"])
    before = len(alloc.queues["A"])
    loc = alloc.alloc("v", "A")
    alloc.release_var("v")
    assert len(alloc.queues["A"]) == before
    assert "v" not in alloc.reg_table


def test_overflow_steals_from_other_queues():
    alloc = VectorAllocator(HASWELL, ["A", "B", "C"])
    # exhaust A's 4 registers, then keep allocating A-class variables
    for k in range(8):
        alloc.alloc(f"a{k}", "A")
    assert alloc.in_use() == 8


def test_exhaustion_raises():
    alloc = VectorAllocator(HASWELL, ["A"])
    for k in range(16):
        alloc.alloc(f"v{k}", "A")
    with pytest.raises(OutOfRegistersError):
        alloc.alloc("one_too_many", "A")


def test_pack_allocation_and_lanes():
    alloc = VectorAllocator(HASWELL, ["C"])
    pack = alloc.alloc_pack(["r0", "r1", "r2", "r3"], "C")
    assert pack.lane_of("r2") == 2
    for k in range(4):
        loc = alloc.loc(f"r{k}")
        assert loc.reg == pack.reg and loc.lane == k and loc.is_lane


def test_pack_rejects_already_allocated_member():
    alloc = VectorAllocator(HASWELL, ["C"])
    alloc.alloc("r0", "C")
    with pytest.raises(OutOfRegistersError):
        alloc.alloc_pack(["r0", "r1"], "C")


def test_pack_released_only_when_all_members_dead():
    alloc = VectorAllocator(HASWELL, ["C"])
    before = alloc.in_use()
    pack = alloc.alloc_pack(["r0", "r1"], "C")
    alloc.release_var("r0")
    assert alloc.in_use() == before + 1  # r1 still holds the register
    alloc.release_var("r1")
    assert alloc.in_use() == before


def test_temp_reg_cycle():
    alloc = VectorAllocator(GENERIC_SSE, ["A"])
    r = alloc.alloc_temp_reg()
    used = alloc.in_use()
    alloc.free_reg(r)
    assert alloc.in_use() == used - 1


def test_release_unknown_var_is_noop():
    alloc = VectorAllocator(HASWELL, ["A"])
    alloc.release_var("ghost")


def test_too_many_classes_raises():
    with pytest.raises(OutOfRegistersError):
        VectorAllocator(HASWELL, [f"arr{k}" for k in range(20)])


def test_dump_lists_assignments():
    alloc = VectorAllocator(HASWELL, ["A"])
    alloc.alloc("v", "A")
    alloc.alloc_pack(["p0", "p1"], "A")
    text = alloc.dump()
    assert "v:" in text and "lane 1" in text
