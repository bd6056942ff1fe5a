"""The Template Optimizer (paper §2.3, §3).

One specialized optimizer per template, collectively applying SIMD
vectorization, register allocation, and instruction selection/scheduling.
The ``OPTIMIZERS`` lookup table at the bottom is the ``Optimizer[...]``
table of paper Fig. 2; the Assembly Kernel Generator dispatches each
tagged region through it.

Every optimizer receives the shared code-generation context ``cg``
(providing the architecture mapping rules, the vector register allocator
with its global ``reg_table``, the vectorization plan, and addressing
helpers) plus the region and its structured payload.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..isa.operands import Mem
from ..isa.registers import Register
from ..poet import cast as C
from .identifier import SumReduce
from .regalloc import array_root
from .templates import MMComp, MMStore, MVComp, UnrolledComp, UnrolledMVComp, UnrolledStore
from .vectorize import SHUF_LANES


# ---------------------------------------------------------------------------
# scalar base templates
# ---------------------------------------------------------------------------


def _emit_scalar_comp(cg, comp: MMComp) -> None:
    """mmCOMP (paper §3.1, Fig. 4): Load, Load, Mul+Add via Table 1."""
    tmp0, tmp1, tmp2 = comp.tmps
    r0 = cg.alloc.alloc(tmp0, array_root(comp.a_ptr)).reg
    cg.emit(cg.map.load_scalar(cg.addr(comp.a_ptr, comp.a_off, comp.a_idx), r0,
                               comment=f"{tmp0} = {comp.a_ptr}[{comp.a_off}]"))
    r1 = cg.alloc.alloc(tmp1, array_root(comp.b_ptr)).reg
    cg.emit(cg.map.load_scalar(cg.addr(comp.b_ptr, comp.b_off, comp.b_idx), r1,
                               comment=f"{tmp1} = {comp.b_ptr}[{comp.b_off}]"))
    racc = cg.scalar_reg(comp.res)
    if cg.arch.has_fma:
        cg.emit(cg.map.mul_add_scalar(r0, r1, racc,
                                      comment=f"{comp.res} += {tmp0}*{tmp1}"))
    else:
        rt = cg.alloc.alloc(tmp2).reg
        cg.emit(cg.map.mul_add_scalar(r0, r1, racc, tmp=rt,
                                      comment=f"{comp.res} += {tmp0}*{tmp1}"))
        cg.alloc.release_var(tmp2)
    cg.alloc.release_var(tmp0)
    cg.alloc.release_var(tmp1)


def optimize_mm_comp(cg, region: C.TaggedRegion, payload: UnrolledComp) -> None:
    for comp in payload.comps:
        _emit_scalar_comp(cg, comp)


def _emit_scalar_store(cg, store: MMStore) -> None:
    """mmSTORE (paper §3.2, Fig. 5): Load, Add, Store via Table 2."""
    rt = cg.alloc.alloc(store.tmp, array_root(store.c_ptr)).reg
    addr = cg.addr(store.c_ptr, store.c_off, store.c_idx)
    cg.emit(cg.map.load_scalar(addr, rt,
                               comment=f"{store.tmp} = {store.c_ptr}[{store.c_off}]"))
    racc, cleanup = cg.read_scalar_value(store.res)
    cg.emit(cg.map.add_scalar(rt, racc))
    addr = cg.addr(store.c_ptr, store.c_off, store.c_idx)
    cg.emit(cg.map.store_scalar(racc, addr,
                                comment=f"{store.c_ptr}[{store.c_off}] = {store.res}"))
    cleanup()
    cg.alloc.release_var(store.tmp)


def optimize_mm_store(cg, region: C.TaggedRegion, payload: UnrolledStore) -> None:
    for store in payload.stores:
        _emit_scalar_store(cg, store)


def _emit_scalar_mv(cg, comp: MVComp) -> None:
    """mvCOMP (paper §3.3, Fig. 6): Load, Load, Mul, Add, Store via Table 3."""
    tmp0, tmp1 = comp.tmps
    r0 = cg.alloc.alloc(tmp0, array_root(comp.a_ptr)).reg
    cg.emit(cg.map.load_scalar(cg.addr(comp.a_ptr, comp.a_off, comp.a_idx), r0,
                               comment=f"{tmp0} = {comp.a_ptr}[{comp.a_off}]"))
    r1 = cg.alloc.alloc(tmp1, array_root(comp.b_ptr)).reg
    cg.emit(cg.map.load_scalar(cg.addr(comp.b_ptr, comp.b_off, comp.b_idx), r1,
                               comment=f"{tmp1} = {comp.b_ptr}[{comp.b_off}]"))
    rscal = cg.scalar_reg(comp.scal)
    if cg.arch.has_fma:
        # tmp1 += tmp0 * scal collapses to one FMA (Table 3 lines 3-4)
        cg.emit(cg.map.mul_add_scalar(r0, rscal, r1,
                                      comment=f"{tmp1} += {tmp0}*{comp.scal}"))
    else:
        cg.emit(cg.map.mul_scalar(rscal, r0))  # tmp0 = tmp0*scal
        cg.emit(cg.map.add_scalar(r0, r1))  # tmp1 = tmp1+tmp0
    cg.emit(cg.map.store_scalar(r1, cg.addr(comp.b_ptr, comp.b_off, comp.b_idx),
                                comment=f"{comp.b_ptr}[{comp.b_off}] = {tmp1}"))
    cg.alloc.release_var(tmp0)
    cg.alloc.release_var(tmp1)


def optimize_mv_comp(cg, region: C.TaggedRegion, payload: UnrolledMVComp) -> None:
    for comp in payload.comps:
        _emit_scalar_mv(cg, comp)


# ---------------------------------------------------------------------------
# mmUnrolledCOMP (paper §3.4): the Vdup and Shuf vectorization methods
# ---------------------------------------------------------------------------


def optimize_unrolled_comp(cg, region: C.TaggedRegion,
                           payload: UnrolledComp) -> None:
    plan = cg.plan.plan_for(region)
    if plan.strategy == "vdup":
        _emit_vdup(cg, payload, plan.n)
    elif plan.strategy == "shuf":
        _emit_shuf(cg, payload, plan.n)
    elif plan.strategy == "paired":
        _emit_paired(cg, payload, plan.n)
    else:
        optimize_mm_comp(cg, region, payload)


def _emit_vdup(cg, payload: UnrolledComp, n: int) -> None:
    """Vld-Vdup-Vmul-Vadd (paper Fig. 8).

    Vector A loads are shared across B lanes; each B element is duplicated
    into every lane of one register with Vdup.
    """
    # group comps by B lane, preserving region order for the B lanes
    by_b: Dict[Tuple[str, int], List[MMComp]] = {}
    b_order: List[Tuple[str, int]] = []
    for comp in payload.comps:
        key = (comp.b_ptr, comp.b_off)
        if key not in by_b:
            by_b[key] = []
            b_order.append(key)
        by_b[key].append(comp)

    # A vector loads, deduplicated across B lanes and hoisted to the top
    # (their latency is hidden behind the first broadcasts)
    a_vecs: Dict[Tuple[str, int], Register] = {}
    for key in b_order:
        for comp in by_b[key]:
            akey = (comp.a_ptr, comp.a_off)
            if akey not in a_vecs and (comp.a_off or 0) % n == 0:
                reg = cg.alloc.alloc_temp_reg(array_root(comp.a_ptr))
                cg.emit(cg.map.vload(cg.addr(comp.a_ptr, comp.a_off), reg,
                                     comment=f"Vld {comp.a_ptr}"
                                             f"[{comp.a_off}..{comp.a_off + n - 1}]"))
                a_vecs[akey] = reg

    # B registers ROTATE: each lane's broadcast register is released as
    # soon as its FMAs are emitted, so even wide tiles (e.g. 12x4 with 12
    # accumulators + 3 A vectors) fit the 16-register file, and 24x8 on
    # AVX-512 (24 accumulators + 3 A vectors) fits the 32-register one —
    # the register economics of hand-written kernels.
    for key in b_order:
        col = sorted(by_b[key], key=lambda c: c.a_off or 0)
        bv = cg.alloc.alloc_temp_reg(array_root(key[0]))
        cg.emit(cg.map.vdup(cg.addr(key[0], key[1]), bv,
                            comment=f"Vdup {key[0]}[{key[1]}]"))
        for chunk_start in range(0, len(col), n):
            chunk = col[chunk_start:chunk_start + n]
            av = a_vecs[(chunk[0].a_ptr, chunk[0].a_off)]
            acc = cg.pack_reg([c.res for c in chunk])
            comment = f"acc({chunk[0].res}..) += A*{key[0]}[{key[1]}]"
            if cg.arch.has_fma:
                cg.emit(cg.map.vmul_add(av, bv, acc, comment=comment))
            else:
                rt = cg.alloc.alloc_temp_reg()
                cg.emit(cg.map.vmul_add(av, bv, acc, tmp=rt, comment=comment))
                cg.alloc.free_reg(rt)
        cg.alloc.free_reg(bv)
    for reg in a_vecs.values():
        cg.alloc.free_reg(reg)


def _emit_shuf(cg, payload: UnrolledComp, n: int) -> None:
    """Vld-Vld-Vmul-Vadd + Shuf-Vmul-Vadd (paper Fig. 9), n in (2, 4).

    Accumulator pack p collects ``res(a_m, b_{m XOR p})`` in lane m: the
    n-1 shuffles are the in-pair swap (``Shuf imm0`` / ``vpermilpd``),
    and for n=4 the 128-bit half swap (``vperm2f128``) plus their
    composition.  The store optimizer un-permutes.
    """
    assert n in SHUF_LANES, "Shuf method implemented for 2- and 4-lane vectors"
    grid = {}
    a_lanes = sorted({(c.a_ptr, c.a_off) for c in payload.comps},
                     key=lambda t: t[1] or 0)
    b_lanes = sorted({(c.b_ptr, c.b_off) for c in payload.comps},
                     key=lambda t: t[1] or 0)
    for comp in payload.comps:
        ar = next(i for i, t in enumerate(a_lanes) if t == (comp.a_ptr, comp.a_off))
        br = next(i for i, t in enumerate(b_lanes) if t == (comp.b_ptr, comp.b_off))
        grid[(ar, br)] = comp.res

    a_ptr, a_off = a_lanes[0]
    b_ptr, b_off = b_lanes[0]
    av = cg.alloc.alloc_temp_reg(array_root(a_ptr))
    cg.emit(cg.map.vload(cg.addr(a_ptr, a_off), av,
                         comment=f"Vld {a_ptr}[{a_off}..{a_off + n - 1}]"))
    bv = cg.alloc.alloc_temp_reg(array_root(b_ptr))
    cg.emit(cg.map.vload(cg.addr(b_ptr, b_off), bv,
                         comment=f"Vld {b_ptr}[{b_off}..{b_off + n - 1}]"))

    accs = [cg.pack_reg([grid[(m, m ^ p)] for m in range(n)])
            for p in range(n)]

    def fma(a, b, acc, comment):
        if cg.arch.has_fma:
            cg.emit(cg.map.vmul_add(a, b, acc, comment=comment))
        else:
            rt = cg.alloc.alloc_temp_reg()
            cg.emit(cg.map.vmul_add(a, b, acc, tmp=rt, comment=comment))
            cg.alloc.free_reg(rt)

    fma(av, bv, accs[0], "p=0: acc[m] += a_m*b_m")
    rot1 = cg.alloc.alloc_temp_reg(array_root(b_ptr))
    cg.emit(cg.map.shuf_swap_adjacent(bv, rot1))  # Shuf imm0 (Fig. 9 line 5)
    fma(av, rot1, accs[1], "p=1: acc[m] += a_m*b_{m^1}")
    if n == 4:
        rot2 = cg.alloc.alloc_temp_reg(array_root(b_ptr))
        cg.emit(cg.map.shuf_swap_lanes(bv, rot2))
        fma(av, rot2, accs[2], "p=2: acc[m] += a_m*b_{m^2}")
        cg.emit(cg.map.shuf_swap_adjacent(rot2, rot1))  # reuse rot1 for p=3
        fma(av, rot1, accs[3], "p=3: acc[m] += a_m*b_{m^3}")
        cg.alloc.free_reg(rot2)

    cg.alloc.free_reg(av)
    cg.alloc.free_reg(bv)
    cg.alloc.free_reg(rot1)


def _emit_paired(cg, payload: UnrolledComp, n: int) -> None:
    """Paired lanes (DOT): Vld-Vld-Vmul-Vadd with vector accumulators."""
    comps = payload.comps  # already sorted by A offset
    for start in range(0, len(comps), n):
        chunk = comps[start:start + n]
        av = cg.alloc.alloc_temp_reg(array_root(chunk[0].a_ptr))
        cg.emit(cg.map.vload(cg.addr(chunk[0].a_ptr, chunk[0].a_off), av,
                             comment=f"Vld {chunk[0].a_ptr}[{chunk[0].a_off}..]"))
        bv = cg.alloc.alloc_temp_reg(array_root(chunk[0].b_ptr))
        cg.emit(cg.map.vload(cg.addr(chunk[0].b_ptr, chunk[0].b_off), bv,
                             comment=f"Vld {chunk[0].b_ptr}[{chunk[0].b_off}..]"))
        acc = cg.pack_reg([c.res for c in chunk])
        if cg.arch.has_fma:
            cg.emit(cg.map.vmul_add(av, bv, acc))
        else:
            rt = cg.alloc.alloc_temp_reg()
            cg.emit(cg.map.vmul_add(av, bv, acc, tmp=rt))
            cg.alloc.free_reg(rt)
        cg.alloc.free_reg(av)
        cg.alloc.free_reg(bv)


# ---------------------------------------------------------------------------
# mmUnrolledSTORE (paper §3.5): Vld-Vadd-Vst
# ---------------------------------------------------------------------------


def optimize_unrolled_store(cg, region: C.TaggedRegion,
                            payload: UnrolledStore) -> None:
    plan = cg.plan.plan_for(region)
    if plan.strategy != "vstore":
        optimize_mm_store(cg, region, payload)
        return
    n = plan.n
    stores = sorted(payload.stores, key=lambda s: s.c_off or 0)
    for start in range(0, len(stores), n):
        chunk = stores[start:start + n]
        ptr, off = chunk[0].c_ptr, chunk[0].c_off
        acc, cleanup = _combined_acc(cg, [s.res for s in chunk])
        cvec = cg.alloc.alloc_temp_reg(array_root(ptr))
        cg.emit(cg.map.vload(cg.addr(ptr, off), cvec,
                             comment=f"Vld {ptr}[{off}..{off + n - 1}]"))
        cg.emit(cg.map.vadd(acc, cvec))
        cg.emit(cg.map.vstore(cvec, cg.addr(ptr, off),
                              comment=f"Vst {ptr}[{off}..{off + n - 1}]"))
        cg.alloc.free_reg(cvec)
        cleanup()


def _combined_acc(cg, members: List[str]):
    """Register holding ``members`` in lane order; un-permutes shuf packs.

    Returns ``(register, cleanup)``; cleanup releases any temp created.
    """
    loc0 = cg.alloc.loc(members[0])
    assert loc0 is not None and loc0.pack is not None, \
        f"accumulator {members[0]!r} is not packed"
    pack0 = loc0.pack
    if pack0.layout == "direct" and pack0.members == members:
        return pack0.reg, (lambda: None)
    locs = [cg.alloc.loc(m) for m in members]
    assert all(loc is not None and loc.pack is not None for loc in locs)
    if len(members) == 2:
        # column j from the diagonal/anti-diagonal pair: one shufpd
        imm = (locs[0].lane & 1) | ((locs[1].lane & 1) << 1)
        dst = cg.alloc.alloc_temp_reg()
        cg.emit(cg.map.shufpd_combine(imm, locs[0].pack.reg,
                                      locs[1].pack.reg, dst))
        return dst, (lambda: cg.alloc.free_reg(dst))
    # n = 4: member m must sit in lane m of its (XOR-permuted) pack;
    # two blends pick the per-pair lanes, one vperm2f128 joins the halves
    assert len(members) == 4, "shuf un-permutation implemented for n in (2, 4)"
    assert all(loc.lane == m for m, loc in enumerate(locs)), \
        "unexpected shuf lane placement"
    t0 = cg.alloc.alloc_temp_reg()
    cg.emit(cg.map.vblend(0b1010, locs[0].pack.reg, locs[1].pack.reg, t0))
    t1 = cg.alloc.alloc_temp_reg()
    cg.emit(cg.map.vblend(0b1010, locs[2].pack.reg, locs[3].pack.reg, t1))
    cg.emit(cg.map.vperm128_lo_hi(t0, t1, t0))
    cg.alloc.free_reg(t1)
    return t0, (lambda: cg.alloc.free_reg(t0))


# ---------------------------------------------------------------------------
# mvUnrolledCOMP (paper §3.6): Vld-Vld-Vmul-Vadd-Vst
# ---------------------------------------------------------------------------


def optimize_unrolled_mv(cg, region: C.TaggedRegion,
                         payload: UnrolledMVComp) -> None:
    plan = cg.plan.plan_for(region)
    if plan.strategy != "mv":
        optimize_mv_comp(cg, region, payload)
        return
    n = plan.n
    comps = sorted(payload.comps, key=lambda c: c.a_off or 0)
    rscal = cg.scalar_reg(payload.scal)  # broadcast-materialized by the plan
    for start in range(0, len(comps), n):
        chunk = comps[start:start + n]
        a_ptr, a_off = chunk[0].a_ptr, chunk[0].a_off
        b_ptr, b_off = chunk[0].b_ptr, chunk[0].b_off
        av = cg.alloc.alloc_temp_reg(array_root(a_ptr))
        cg.emit(cg.map.vload(cg.addr(a_ptr, a_off), av,
                             comment=f"Vld {a_ptr}[{a_off}..{a_off + n - 1}]"))
        bv = cg.alloc.alloc_temp_reg(array_root(b_ptr))
        cg.emit(cg.map.vload(cg.addr(b_ptr, b_off), bv,
                             comment=f"Vld {b_ptr}[{b_off}..{b_off + n - 1}]"))
        if cg.arch.has_fma:
            cg.emit(cg.map.vmul_add(av, rscal, bv,
                                    comment=f"B += A*{payload.scal}"))
        else:
            rt = cg.alloc.alloc_temp_reg()
            cg.emit(cg.map.vmul_add(av, rscal, bv, tmp=rt,
                                    comment=f"B += A*{payload.scal}"))
            cg.alloc.free_reg(rt)
        cg.emit(cg.map.vstore(bv, cg.addr(b_ptr, b_off),
                              comment=f"Vst {b_ptr}[{b_off}..{b_off + n - 1}]"))
        cg.alloc.free_reg(av)
        cg.alloc.free_reg(bv)


# ---------------------------------------------------------------------------
# mvSCALE / mvUnrolledSCALE (extension template, paper §7 direction):
# X[idx] *= scal, vectorized as Vld-Vmul-Vst
# ---------------------------------------------------------------------------


def _emit_scalar_scale(cg, scale) -> None:
    rt = cg.alloc.alloc(scale.tmp, array_root(scale.x_ptr)).reg
    cg.emit(cg.map.load_scalar(cg.addr(scale.x_ptr, scale.x_off, scale.x_idx),
                               rt,
                               comment=f"{scale.tmp} = {scale.x_ptr}"
                                       f"[{scale.x_off}]"))
    rscal = cg.scalar_reg(scale.scal)
    cg.emit(cg.map.mul_scalar(rscal, rt))
    cg.emit(cg.map.store_scalar(rt, cg.addr(scale.x_ptr, scale.x_off,
                                            scale.x_idx),
                                comment=f"{scale.x_ptr}[{scale.x_off}] "
                                        f"*= {scale.scal}"))
    cg.alloc.release_var(scale.tmp)


def optimize_mv_scale(cg, region: C.TaggedRegion, payload) -> None:
    plan = cg.plan.plan_for(region)
    if plan.strategy != "scale":
        for scale in payload.scales:
            _emit_scalar_scale(cg, scale)
        return
    n = plan.n
    rscal = cg.scalar_reg(payload.scal)  # broadcast-materialized
    scales = payload.scales
    for start in range(0, len(scales), n):
        chunk = scales[start:start + n]
        ptr, off = chunk[0].x_ptr, chunk[0].x_off
        xv = cg.alloc.alloc_temp_reg(array_root(ptr))
        cg.emit(cg.map.vload(cg.addr(ptr, off), xv,
                             comment=f"Vld {ptr}[{off}..{off + n - 1}]"))
        if cg.arch.simd == "avx":
            v = cg.arch.vector_bytes
            from ..isa.instructions import instr as _instr

            cg.emit(_instr("vmulpd", rscal.as_width(v), xv.as_width(v),
                           xv.as_width(v)))
        else:
            cg.emit(cg.map.vmul_into(xv, rscal, xv))  # xv *= scal in place
        cg.emit(cg.map.vstore(xv, cg.addr(ptr, off),
                              comment=f"Vst {ptr}[{off}..{off + n - 1}]"))
        cg.alloc.free_reg(xv)


# ---------------------------------------------------------------------------
# sumREDUCE (reproduction extension; closes split-accumulator reductions)
# ---------------------------------------------------------------------------


def optimize_sum_reduce(cg, region: C.TaggedRegion, payload: SumReduce) -> None:
    plan = cg.plan.plan_for(region)
    rdst = cg.scalar_reg(payload.dst)
    if plan.strategy == "hreduce":
        done = set()
        for part in payload.parts:
            if part in done:
                continue
            pack = cg.alloc.loc(part).pack
            for m in pack.members:
                done.add(m)
            tmp = cg.alloc.alloc_temp_reg()
            cg.emit(cg.map.hreduce_to_scalar(pack.reg, tmp,
                                             comment=f"hsum({'+'.join(pack.members)})"))
            cg.emit(cg.map.add_scalar(pack.reg, rdst))
            cg.alloc.free_reg(tmp)
            for m in pack.members:
                cg.alloc.release_var(m)
    else:
        for part in payload.parts:
            rpart, cleanup = cg.read_scalar_value(part)
            cg.emit(cg.map.add_scalar(rpart, rdst))
            cleanup()
            cg.alloc.release_var(part)


#: The paper's ``Optimizer[template_name]`` lookup table (Fig. 2 line 6).
OPTIMIZERS = {
    "mmCOMP": optimize_mm_comp,
    "mmSTORE": optimize_mm_store,
    "mvCOMP": optimize_mv_comp,
    "mmUnrolledCOMP": optimize_unrolled_comp,
    "mmUnrolledSTORE": optimize_unrolled_store,
    "mvUnrolledCOMP": optimize_unrolled_mv,
    "sumREDUCE": optimize_sum_reduce,
    "mvSCALE": optimize_mv_scale,
    "mvUnrolledSCALE": optimize_mv_scale,
}
