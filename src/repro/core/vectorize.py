"""SIMD vectorization planning (paper §3.4-§3.6).

Decides, per tagged region, which vectorization strategy applies:

- **Vdup method** (Fig. 8): n mmCOMP repetitions loading n contiguous
  elements of A and a single element of B fold into Vld-Vdup-Vmul-Vadd.
  Requires contiguous A lanes; B lanes may live behind distinct pointers.
- **Shuf method** (Fig. 9): n x n repetitions on contiguous elements of
  both arrays fold into Vld-Vld-Vmul-Vadd plus n-1 Shuf-Vmul-Vadd.
  Requires contiguous lanes on both sides; accumulator lanes end up
  permuted, which the store optimizer must undo (implemented for n=2).
- **paired** (DOT): n repetitions advancing both arrays together fold into
  Vld-Vld-Vmul-Vadd with a vector accumulator.
- **mv** (Figs. 10/11): n repetitions on contiguous elements fold into
  Vld-Vld-Vmul-Vadd-Vst; the scalar multiplier is broadcast.

The planner also decides the accumulator *packing* — which scalar
variables share a vector register, in which lane order — and records
scalars that must be materialized broadcast across all lanes (mv ``scal``,
AXPY ``alpha``).  Packing decisions are later realized by the register
allocator; consistency between the COMP region that produces a pack and
the STORE/REDUCE region that consumes it is checked here, at planning
time, so code generation cannot silently produce wrong data layouts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..isa.arch import ArchSpec
from ..poet import cast as C
from .identifier import SumReduce
from .templates import UnrolledComp, UnrolledMVComp, UnrolledStore


@dataclass
class PlannedPack:
    """A future vector register: ordered member scalars + layout."""

    members: Tuple[str, ...]
    cls: str  # register class (array root the members correlate to)
    layout: str = "direct"  # "direct" | "shuf"


@dataclass
class RegionPlan:
    """Strategy chosen for one region."""

    strategy: str  # "vdup" | "shuf" | "paired" | "mv" | "vstore" | "scalar" | "hreduce"
    n: int = 1  # lanes per vector op


@dataclass
class VectorPlan:
    """Whole-function vectorization decisions."""

    arch: ArchSpec
    region_plans: Dict[int, RegionPlan] = field(default_factory=dict)
    pack_of: Dict[str, PlannedPack] = field(default_factory=dict)
    broadcast_vars: set = field(default_factory=set)

    def plan_for(self, region: C.TaggedRegion) -> RegionPlan:
        return self.region_plans.get(id(region), RegionPlan("scalar"))

    def _add_pack(self, pack: PlannedPack) -> None:
        for m in pack.members:
            self.pack_of[m] = pack


#: lane counts the Shuf method's XOR permutations are implemented for (the
#: in-pair swap and the 128-bit half swap); 8-lane zmm vectors would need
#: cross-256-bit permutes the mapping rules do not have
SHUF_LANES = (2, 4)


def _chunk(seq: Sequence, n: int) -> List[List]:
    return [list(seq[i:i + n]) for i in range(0, len(seq), n)]


def plan_vectorization(
    regions: Sequence[C.TaggedRegion],
    arch: ArchSpec,
    strategy: str = "auto",
) -> VectorPlan:
    """Choose strategies and packs for all regions.

    :param strategy: ``"auto"`` picks Vdup when applicable and falls back to
        scalar; ``"vdup"`` / ``"shuf"`` force a method (raising no error —
        regions where the forced method cannot apply fall back); ``"scalar"``
        disables SIMD entirely (the scalar-ablation mode).
    """
    from .regalloc import array_root

    plan = VectorPlan(arch=arch)
    n = arch.doubles_per_vector
    if strategy == "scalar":
        return plan

    # phase 1: COMP regions (these create accumulator packs)
    for region in regions:
        payload = region.binding.get("payload")
        if region.template == "mmUnrolledCOMP":
            _plan_unrolled_comp(plan, region, payload, n, strategy)
        elif region.template == "mvUnrolledCOMP":
            _plan_mv(plan, region, payload, n)
        elif region.template == "mvUnrolledSCALE":
            _plan_scale(plan, region, payload, n)
        # mmCOMP / mmSTORE / mvCOMP / mvSCALE single instances stay scalar

    # consistency repair: if any COMP region using a packed accumulator fell
    # back to scalar (e.g. one l-copy failed a contiguity check), every
    # region touching that accumulator must go scalar too — lanes cannot be
    # updated individually.
    comp_regions = [r for r in regions
                    if r.template in ("mmUnrolledCOMP", "mmCOMP")]
    changed = True
    while changed:
        changed = False
        bad_vars = set()
        for region in comp_regions:
            rp = plan.region_plans.get(id(region))
            if rp is None or rp.strategy == "scalar":
                payload = region.binding.get("payload")
                for comp in payload.comps:
                    if comp.res in plan.pack_of:
                        bad_vars.update(plan.pack_of[comp.res].members)
        if bad_vars:
            for v in list(bad_vars):
                plan.pack_of.pop(v, None)
            for region in comp_regions:
                rp = plan.region_plans.get(id(region))
                if rp is not None and rp.strategy != "scalar":
                    payload = region.binding.get("payload")
                    if any(c.res in bad_vars for c in payload.comps):
                        del plan.region_plans[id(region)]
                        changed = True

    # phase 2: STORE / REDUCE regions (these consume surviving packs)
    for region in regions:
        payload = region.binding.get("payload")
        if region.template == "mmUnrolledSTORE":
            _plan_store(plan, region, payload, n)
        elif region.template == "sumREDUCE":
            _plan_reduce(plan, region, payload, n)

    # post-pass: accumulators correlate to the array they are stored to
    # (paper §3.1: "res0 is later saved as an element of Array C, so it is
    # allocated with a register assigned to C")
    for region in regions:
        if region.template in ("mmUnrolledSTORE", "mmSTORE"):
            payload = region.binding.get("payload")
            for s in payload.stores:
                pack = plan.pack_of.get(s.res)
                if pack is not None:
                    pack.cls = array_root(s.c_ptr)

    return plan


def _plan_unrolled_comp(plan: VectorPlan, region: C.TaggedRegion,
                        payload: UnrolledComp, n: int, strategy: str) -> None:
    from .regalloc import array_root

    if payload.kind == "paired":
        # DOT shape: need contiguous lanes on both sides, count multiple of n
        if (
            payload.a_contiguous
            and payload.b_contiguous
            and payload.n1 % n == 0
            and payload.n1 >= n
        ):
            plan.region_plans[id(region)] = RegionPlan("paired", n)
            res_cls = "tmp"
            for chunk in _chunk([c.res for c in payload.comps], n):
                plan._add_pack(PlannedPack(tuple(chunk), res_cls))
        return

    # grid
    shuf_ok = (
        payload.n1 == n
        and payload.n2 == n
        and n in SHUF_LANES
        and payload.a_contiguous
        and payload.b_contiguous
    )
    vdup_ok = payload.a_contiguous and payload.n1 % n == 0 and payload.n1 >= n

    use_shuf = shuf_ok and strategy in ("shuf",)
    use_vdup = vdup_ok and not use_shuf and strategy in ("auto", "vdup", "shuf")
    if use_shuf:
        plan.region_plans[id(region)] = RegionPlan("shuf", n)
        # permuted accumulator packs: pack p holds, in lane m, the
        # accumulator for res(a_m, b_{m XOR p}).  The XOR structure is
        # realized by the in-pair swap (vpermilpd, p=1), the half swap
        # (vperm2f128, p=2), and their composition (p=3); for n=2 only
        # p=0 (diagonal) and p=1 (anti-diagonal) exist.
        grid = _res_grid(payload)
        c_cls = _res_class(payload)
        for p in range(n):
            members = tuple(grid[(m, m ^ p)] for m in range(n))
            plan._add_pack(PlannedPack(members, c_cls, layout="shuf"))
    elif use_vdup:
        plan.region_plans[id(region)] = RegionPlan("vdup", n)
        c_cls = _res_class(payload)
        # one pack per B lane per n-chunk of A offsets, A-offset order
        comps_by_b: Dict = {}
        order: List = []
        for comp in payload.comps:
            key = (comp.b_ptr, comp.b_off)
            if key not in comps_by_b:
                comps_by_b[key] = []
                order.append(key)
            comps_by_b[key].append(comp)
        for key in order:
            col = sorted(comps_by_b[key], key=lambda c: c.a_off or 0)
            for chunk in _chunk([c.res for c in col], n):
                plan._add_pack(PlannedPack(tuple(chunk), c_cls))
    # else: stays scalar


def _res_grid(payload: UnrolledComp) -> Dict[Tuple[int, int], str]:
    """(a_rank, b_rank) -> res variable, ranks by sorted lane order."""
    a_lanes = sorted({(c.a_ptr, c.a_off) for c in payload.comps},
                     key=lambda t: (t[0], t[1] or 0))
    b_lanes = sorted({(c.b_ptr, c.b_off) for c in payload.comps},
                     key=lambda t: (t[0], t[1] or 0))
    a_rank = {lane: i for i, lane in enumerate(a_lanes)}
    b_rank = {lane: i for i, lane in enumerate(b_lanes)}
    return {
        (a_rank[(c.a_ptr, c.a_off)], b_rank[(c.b_ptr, c.b_off)]): c.res
        for c in payload.comps
    }


def _res_class(payload: UnrolledComp) -> str:
    """Register class for accumulators: the array they are stored to is not
    visible here, so use the temp class unless the caller refines it."""
    return "tmp"


def _plan_mv(plan: VectorPlan, region: C.TaggedRegion,
             payload: UnrolledMVComp, n: int) -> None:
    offs_a = [c.a_off for c in payload.comps]
    offs_b = [c.b_off for c in payload.comps]
    count = len(payload.comps)
    same_ptrs = (
        len({c.a_ptr for c in payload.comps}) == 1
        and len({c.b_ptr for c in payload.comps}) == 1
    )
    contiguous = (
        None not in offs_a
        and None not in offs_b
        and sorted(offs_a) == list(range(min(offs_a), min(offs_a) + count))
        and sorted(offs_b) == list(range(min(offs_b), min(offs_b) + count))
    )
    if same_ptrs and contiguous and count % n == 0 and count >= n:
        plan.region_plans[id(region)] = RegionPlan("mv", n)
        plan.broadcast_vars.add(payload.scal)


def _plan_scale(plan: VectorPlan, region: C.TaggedRegion,
                payload, n: int) -> None:
    """mvUnrolledSCALE (extension template): Vld-Vmul-Vst over n lanes."""
    offs = [s.x_off for s in payload.scales]
    count = len(payload.scales)
    contiguous = (
        None not in offs
        and sorted(offs) == list(range(min(offs), min(offs) + count))
    )
    if contiguous and count % n == 0 and count >= n:
        plan.region_plans[id(region)] = RegionPlan("scale", n)
        plan.broadcast_vars.add(payload.scal)


def _plan_store(plan: VectorPlan, region: C.TaggedRegion,
                payload: UnrolledStore, n: int) -> None:
    stores = payload.stores
    offs = [s.c_off for s in stores]
    if None in offs or len(stores) % n != 0 or len(stores) < n:
        return
    if sorted(offs) != list(range(min(offs), min(offs) + len(stores))):
        return
    # every n-chunk of res vars (in offset order) must be a planned pack in
    # matching lane order, or a shuf-layout pair this store can un-permute
    for chunk in _chunk([s.res for s in stores], n):
        pack = plan.pack_of.get(chunk[0])
        if pack is None:
            return
        if pack.layout == "direct":
            if list(pack.members) != chunk:
                return
        elif pack.layout == "shuf":
            # shuf layout: members of the chunk are spread across packs;
            # verified by the store optimizer at emission
            if not all(plan.pack_of.get(v) is not None
                       and plan.pack_of[v].layout == "shuf" for v in chunk):
                return
        else:
            return
    plan.region_plans[id(region)] = RegionPlan("vstore", n)


def _plan_reduce(plan: VectorPlan, region: C.TaggedRegion,
                 payload: SumReduce, n: int) -> None:
    # group parts into complete packs
    remaining = list(payload.parts)
    while remaining:
        pack = plan.pack_of.get(remaining[0])
        if pack is None or not all(m in remaining for m in pack.members):
            return  # fall back to scalar reduce
        for m in pack.members:
            remaining.remove(m)
    plan.region_plans[id(region)] = RegionPlan("hreduce", n)
