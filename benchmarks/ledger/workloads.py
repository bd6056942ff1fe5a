"""The six seeded workloads of the ledger, and the loop that times them.

A workload turns ``--seed`` into inputs, builds the program under test
(set-up ends at the first verified result), and exposes one *round*: a
fixed sequence of timed calls into the program (``ops``) followed by
their OpenBLAS twins, so host-clock drift cancels in ``vs_openblas``.
The program receives only arrays.  A *pass* — what ``pass_ms_*`` times —
is the whole round, or a single call where the round mixes calls of very
different cost (``per_op_samples``).
"""

from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import blas as sblas

from repro.bench.harness import make_vendor_library
from repro.blas import reference as ref
from repro.blas.api import AugemBLAS
from repro.blas.client import ServedBLAS
from repro.blas.gemm import BlockSizes, kernel_multiples
from repro.core.framework import Augem, default_config
from repro.emu.run import call_kernel
from repro.isa.arch import ALL_ARCHS, detect_host

from .daemon import Daemon
from .stats import SpanRecorder, samples_needed

EPS = float(np.finfo(np.float64).eps)

class SetupError(RuntimeError):
    """The program under test could not be brought to a verified result."""


class Check:
    """``|got - ref| <= factor * n_acc * eps * max(1, max|ref|)``, the
    per-routine error bound against :mod:`repro.blas.reference`;
    ``bits`` additionally demands bit-equality (served vs in-process)."""

    def __init__(self, expected, n_acc: int, factor: float = 8.0,
                 bits=None) -> None:
        self.expected = np.asarray(expected, dtype=np.float64)
        self.tol = factor * max(1, n_acc) * EPS * max(
            1.0, float(np.max(np.abs(self.expected), initial=0.0)))
        self.bits = None if bits is None else np.array(bits)
        self._aligned = False

    def __call__(self, got) -> bool:
        got = np.asarray(got, dtype=np.float64)
        if got.shape != self.expected.shape:
            return False
        if not self._aligned:
            # compare like layouts: a mixed C/F subtraction costs 3x
            order = "F" if got.ndim == 2 and got.flags.f_contiguous \
                and not got.flags.c_contiguous else "C"
            self.expected = np.asarray(self.expected, order=order)
            if self.bits is not None:
                self.bits = np.asarray(self.bits, order=order)
            self._aligned = True
        if self.bits is not None and not np.array_equal(got, self.bits):
            return False
        # a NaN anywhere makes the comparison False
        return bool(np.max(np.abs(got - self.expected), initial=0.0)
                    <= self.tol)


@dataclass
class Op:
    """One timed call into the program under test."""

    name: str                       # span name: <layer>.<function>
    group: str                      # the twin it is paired with
    run: Callable[[], Any]
    check: Callable[[Any], bool]    # untimed
    flops: float = 0.0
    reset: Optional[Callable[[], None]] = None  # untimed, in-place operands


@dataclass
class Twin:
    group: str
    run: Callable[[], Any]


@dataclass
class Round:
    """One round's timings, in ms: the passes it yields, and program and
    twin time per call group."""

    samples: List[float]
    program: Dict[str, float]
    twin: Dict[str, float]


@dataclass
class Measurement:
    """What a pass loop saw, every round of it."""

    rounds: List[Round] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    @property
    def samples_ms(self) -> List[float]:
        return [s for r in self.rounds for s in r.samples]

    @property
    def round_ms(self) -> List[float]:
        return [sum(r.program.values()) for r in self.rounds]

    @property
    def twin_round_ms(self) -> List[float]:
        """What the OpenBLAS twins of each round took: the same work on
        the same operands every round, so it tracks the host's speed."""
        return [sum(r.twin.values()) for r in self.rounds]

    def group_ms(self, group: str) -> List[float]:
        return [r.program[group] for r in self.rounds]

    def ratios(self, group: str) -> List[float]:
        """Per-round ``t_openblas / t_program`` (rounds in which a call
        of the group raised have no program time and are left out)."""
        return [r.twin[group] / r.program[group] for r in self.rounds
                if r.program[group] > 0.0]


def _perturbed(got):
    if isinstance(got, np.ndarray):
        got = got.copy()
        got.flat[0] += 1.0 + abs(got.flat[0])
        return got
    if isinstance(got, float):
        return got + 1.0 + abs(got)
    return None  # anything else: no check accepts None


def measure(wl: "Workload", seconds: float, min_passes: int = 1,
            rec: Optional[SpanRecorder] = None,
            perturb: bool = False) -> Measurement:
    """Run rounds for ``seconds`` and until ``min_passes`` passes are
    in, timing every op and twin and verifying every result."""
    m = Measurement()
    groups = list(dict.fromkeys(op.group for op in wl.ops))
    clock = time.perf_counter
    began = clock()
    passes = 0
    while clock() - began < seconds or passes < min_passes:
        index = len(m.rounds)
        spent = dict.fromkeys(groups, 0.0)
        twin_spent = dict.fromkeys(groups, 0.0)
        samples: List[float] = []
        pass_id = rec.new_id() if rec is not None else None
        pass_t0 = clock()
        twin_every = wl.twin_every or len(wl.ops)
        for done, op in enumerate(wl.ops, start=1):
            if op.reset is not None:
                op.reset()
            m.attempted += 1
            t0 = clock()
            try:
                got = op.run()
            except Exception as exc:  # a call that raised is a failed call
                m.fail(f"{op.name}[{op.group}] raised "
                       f"{type(exc).__name__}: {exc}"[:200])
            else:
                t1 = clock()
                spent[op.group] += (t1 - t0) * 1e3
                samples.append((t1 - t0) * 1e3)
                if rec is not None:
                    rec.add(op.name, t0, t1, parent=pass_id, trace=index)
                if perturb and index == 0 and done == 1:
                    got = _perturbed(got)
                if not op.check(got):
                    m.fail(f"{op.name}[{op.group}] result outside its "
                           "bound")
            pass_t1 = clock()
            if done % twin_every == 0 or done == len(wl.ops):
                for twin in wl.twins:
                    t0 = clock()
                    twin.run()
                    twin_spent[twin.group] += (clock() - t0) * 1e3
        if rec is not None:
            # first call to last check; its self time is the harness's
            # (resets, checks, and any twins run between the calls)
            rec.add("harness.pass", pass_t0, pass_t1, span_id=pass_id,
                    trace=index, child_s=sum(spent.values()) / 1e3)
        if not wl.per_op_samples:
            samples = [sum(spent.values())]
        m.rounds.append(Round(samples, spent, twin_spent))
        passes += len(samples)
        for what in wl.after_round():
            m.fail(what)
    return m


def gemm_counts(shapes: Sequence[Tuple[int, int, int]],
                blocks: BlockSizes, mults: Tuple[int, int, int]
                ) -> Tuple[int, int, int]:
    """(micro-kernel calls, bytes packed into A blocks, bytes packed
    into B panels) that ``GemmDriver`` makes for these (m, n, k) —
    computed from its tiling rule, not counted inside it."""
    mu, nu, ku = mults

    def up(x: int, mult: int) -> int:
        return -(-x // mult) * mult

    calls = a_bytes = b_bytes = 0
    for m, n, k in shapes:
        mc = max(up(min(blocks.mc, m), mu), mu)
        nc = max(up(min(blocks.nc, n), nu), nu)
        kc = max(up(min(blocks.kc, k), ku), ku)
        k_pads = [up(min(kc, k - l0), ku) for l0 in range(0, k, kc)]
        for j0 in range(0, n, nc):
            jn_pad = up(min(nc, n - j0), nu)
            b_bytes += 8 * jn_pad * sum(k_pads)         # each panel once
            for i0 in range(0, m, mc):
                im_pad = up(min(mc, m - i0), mu)
                calls += len(k_pads)
                a_bytes += 8 * im_pad * sum(k_pads)
    return calls, a_bytes, b_bytes


def host_gemm_multiples() -> Tuple[int, int, int]:
    """(mu, nu, ku) of the host's default GEMM kernel, without building it."""
    config = default_config("gemm", detect_host())
    return kernel_multiples(SimpleNamespace(config=config))


class Workload:
    """Base: seeded plan in ``__init__``, program in :meth:`open`."""

    name = ""
    #: tail percentile of ``pass_ms_tail``; the loop keeps going until
    #: ten samples lie beyond it
    tail_q = 95.0
    per_op_samples = False
    #: layer probes the traced run makes for this workload (layers.py)
    probes: Tuple[str, ...] = ()
    #: routine family whose first hardened build ``dispatch.build_ms`` times
    first_family: Optional[str] = None
    #: report every op group as a ``routine.<group>.*`` row
    routine_rows = False
    #: run the twins after every this many ops (None: after the last op)
    twin_every: Optional[int] = None

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.rng = np.random.default_rng(
            [self.seed, zlib.crc32(self.name.encode())])
        self.ops: List[Op] = []
        self.twins: List[Twin] = []
        self.gemm_shapes: List[Tuple[int, int, int]] = []
        self.first_build_s = 0.0
        self.ready_at: Optional[float] = None
        self.plan()

    # -- seeded plan (no program, no big arrays) ---------------------------
    def plan(self) -> None:
        raise NotImplementedError

    def describe(self) -> Dict[str, Any]:
        """What the seed decided — identical for identical seeds."""
        calls, a_bytes, b_bytes = gemm_counts(
            self.gemm_shapes, BlockSizes(), host_gemm_multiples())
        return {"seed": self.seed, "plan": self.plan_summary(),
                "flops_per_round": self.flops_per_round(),
                "gemm.kernel_calls": calls,
                "gemm.bytes_packed": a_bytes + b_bytes,
                "tail_percentile": self.tail_q,
                "pass": "call" if self.per_op_samples else "round"}

    def plan_summary(self) -> Any:
        return None

    def flops_per_round(self) -> float:
        return float(sum(2.0 * m * n * k for m, n, k in self.gemm_shapes))

    @property
    def min_samples(self) -> int:
        return samples_needed(self.tail_q)

    # -- program -----------------------------------------------------------
    def open(self) -> None:
        """Build the program and inputs and verify every op's first
        result, so lazy set-up is finished before timing.  ``ready_at``
        is the clock at that point — where ``setup_s`` ends."""
        self.build()
        for op in self.ops:
            if op.reset is not None:
                op.reset()
            if not op.check(op.run()):
                raise SetupError(f"{self.name}: first {op.name}[{op.group}] "
                                 "result is outside its bound")
        if self.ready_at is None:
            self.ready_at = time.perf_counter()
        for twin in self.twins:
            twin.run()

    def build(self) -> None:
        raise NotImplementedError

    def after_round(self) -> List[str]:
        """Failures that only show between rounds (serve: fallbacks)."""
        return []

    def close(self) -> None:
        pass

    def abort(self) -> None:
        self.close()

    def extra_rss_mb(self) -> float:
        return 0.0

    # -- shared helpers ----------------------------------------------------
    def _hardened_blas(self) -> AugemBLAS:
        """The default facade, its first driver build timed."""
        self.blas = AugemBLAS()
        t0 = time.perf_counter()
        getattr(self.blas, f"{self.first_family}_driver")
        self.first_build_s = time.perf_counter() - t0
        return self.blas

    def assert_native(self) -> None:
        """Refuse a demotion off the host tier: the ledger measures
        generated kernels, not the numpy reference tier."""
        for routine, info in self.blas.dispatch_report().items():
            if info.demoted:
                raise SetupError(f"{self.name}: {routine} was demoted "
                                 f"to tier {info.tier}")


def _calibration_twin(rng) -> Callable[[], Any]:
    """A fixed piece of OpenBLAS work for a program that does no BLAS."""
    n = 512
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
    out = np.empty((n, n))

    def run() -> None:
        for _ in range(2):
            np.dot(a, b, out=out)
    return run


class GemmSquare(Workload):
    name = "gemm_square"
    tail_q = 80.0  # a 110 ms pass: ~65 of them in the time allowed
    probes = ("backend", "microkernel", "packing", "gemm", "threading",
              "facade", "integrity")
    first_family = "gemm"
    N, K2 = 1024, 256

    def plan(self) -> None:
        n, k2 = self.N, self.K2
        self.gemm_shapes = [(n, n, n), (n, n, k2)]

    def plan_summary(self):
        return {"shapes": self.gemm_shapes}

    def build(self) -> None:
        n, k2, rng = self.N, self.K2, self.rng
        a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        a2, b2 = rng.standard_normal((n, k2)), rng.standard_normal((k2, n))
        c = rng.standard_normal((n, n))
        blas, vendor = self._hardened_blas(), make_vendor_library()
        self.ops = [
            Op("facade.dgemm", "dgemm_1024", lambda: blas.dgemm(a, b),
               Check(ref.ref_gemm(a, b), n), flops=2.0 * n * n * n),
            Op("facade.dgemm", "dgemm_acc",
               lambda: blas.dgemm(a2, b2, c, alpha=1.0, beta=1.0),
               Check(ref.ref_gemm(a2, b2, c, 1.0, 1.0), k2),
               flops=2.0 * n * n * k2),
        ]
        self.twins = [Twin("dgemm_1024", lambda: vendor.dgemm(a, b)),
                      Twin("dgemm_acc", lambda: c + vendor.dgemm(a2, b2))]
        self.assert_native()


class GemmRagged(Workload):
    name = "gemm_ragged"
    tail_q = 90.0
    probes = ("backend", "microkernel", "packing", "gemm_small",
              "facade_small", "pool")
    first_family = "gemm"
    CALLS, LO, HI = 64, 8, 200
    SCALARS = ((1.0, 0.0), (-1.0, 1.0), (0.5, 0.5))

    def plan(self) -> None:
        # One fixed design — each dimension drawn once per 1/64th of the
        # range, paired at random — whose calls the seed reorders and
        # gives other scalars and operands.  Drawing the shapes per seed
        # moved the pass time by +-10% (which calls cross a mu/nu/ku
        # multiple, how many are overhead-bound), more than any bound a
        # change should be held to; the mix of sizes is the workload.
        design = np.random.default_rng(2013)
        strata = np.stack([design.permutation(self.CALLS)
                           for _ in range(3)], axis=1)
        dims = (self.LO + (strata + 0.5) * (self.HI - self.LO)
                / self.CALLS).astype(int)
        dims = dims[self.rng.permutation(self.CALLS)]
        self.gemm_shapes = [tuple(int(d) for d in row) for row in dims]
        self.scalars = [self.SCALARS[i] for i in
                        self.rng.integers(0, len(self.SCALARS), self.CALLS)]

    def plan_summary(self):
        return {"shapes": self.gemm_shapes, "alpha_beta": self.scalars}

    def build(self) -> None:
        rng = self.rng
        blas, vendor = self._hardened_blas(), make_vendor_library()
        for (m, n, k), (alpha, beta) in zip(self.gemm_shapes, self.scalars):
            a = np.asfortranarray(rng.standard_normal((m, k)))
            b = rng.standard_normal((n, k)).T
            c = rng.standard_normal((m, n))
            self.ops.append(Op(
                "facade.dgemm", "dgemm",
                lambda a=a, b=b, c=c, al=alpha, be=beta:
                    blas.dgemm(a, b, c, alpha=al, beta=be),
                Check(ref.ref_gemm(a, b, c, alpha, beta), k),
                flops=2.0 * m * n * k))
            self.twins.append(Twin(
                "dgemm", lambda a=a, b=b, c=c, al=alpha, be=beta:
                    al * vendor.dgemm(a, b) + be * c))
        self.assert_native()


class Level12Stream(Workload):
    name = "level12_stream"
    tail_q = 90.0
    probes = ("backend", "level12_kernels", "ger")
    first_family = "axpy"
    routine_rows = True
    N1, N2, NG = 150_000, 1536, 768

    def plan(self) -> None:
        self.alpha = float(self.rng.uniform(0.5, 1.5)) * 1e-3

    def plan_summary(self):
        return {"n_level1": self.N1, "n_gemv": self.N2, "n_ger": self.NG,
                "alpha": self.alpha}

    def _flops(self) -> Dict[str, float]:
        n1, n2, ng = self.N1, self.N2, self.NG
        return {"daxpy": 2.0 * n1, "ddot": 2.0 * n1,
                "dgemv_n": 2.0 * n2 * n2, "dgemv_t": 2.0 * n2 * n2,
                "dger": 2.0 * ng * ng}

    def flops_per_round(self) -> float:
        return float(sum(self._flops().values()))

    def build(self) -> None:
        rng, alpha = self.rng, self.alpha
        n1, n2, ng = self.N1, self.N2, self.NG
        x, y0 = rng.standard_normal(n1), rng.standard_normal(n1)
        y, y_twin = y0.copy(), y0.copy()
        a, v = rng.standard_normal((n2, n2)), rng.standard_normal(n2)
        g0 = rng.standard_normal((ng, ng))
        gx, gy = rng.standard_normal(ng), rng.standard_normal(ng)
        g, g_twin = g0.copy(), g0.copy()
        blas, vendor = self._hardened_blas(), make_vendor_library()
        flops = self._flops()

        def copy_into(dst, src):
            return lambda: np.copyto(dst, src)

        self.ops = [
            Op("facade.daxpy", "daxpy", lambda: blas.daxpy(alpha, x, y),
               Check(ref.ref_axpy(alpha, x, y0), 1),
               flops["daxpy"], reset=copy_into(y, y0)),
            Op("facade.ddot", "ddot", lambda: blas.ddot(x, y0),
               Check(ref.ref_dot(x, y0), n1), flops["ddot"]),
            Op("facade.dgemv", "dgemv_n", lambda: blas.dgemv(a, v),
               Check(ref.ref_gemv(a, v), n2), flops["dgemv_n"]),
            Op("facade.dgemv", "dgemv_t",
               lambda: blas.dgemv(a, v, trans=True),
               Check(ref.ref_gemv(a, v, trans=True), n2),
               flops["dgemv_t"]),
            Op("facade.dger", "dger", lambda: blas.dger(alpha, gx, gy, g),
               Check(ref.ref_ger(alpha, gx, gy, g0), 1),
               flops["dger"], reset=copy_into(g, g0)),
        ]
        # the twins update their own buffers; those drift, which costs
        # OpenBLAS nothing.  DGER on the transposed (Fortran) view is the
        # row-major rank-1 update without a copy.
        self.twins = [
            Twin("daxpy", lambda: vendor.daxpy(alpha, x, y_twin)),
            Twin("ddot", lambda: vendor.ddot(x, y0)),
            Twin("dgemv_n", lambda: a @ v),
            Twin("dgemv_t", lambda: vendor.dgemv_t(a, v)),
            Twin("dger", lambda: sblas.dger(alpha, gy, gx, a=g_twin.T,
                                            overwrite_a=1)),
        ]
        self.assert_native()


class Level3Cast(Workload):
    name = "level3_cast"
    tail_q = 90.0
    probes = ("backend", "microkernel", "level3_gemm_calls")
    first_family = "gemm"
    routine_rows = True
    M, K = 512, 256

    def plan(self) -> None:
        self.diag_shift = float(self.rng.uniform(1.0, 2.0))

    def plan_summary(self):
        return {"m": self.M, "k": self.K, "diag_shift": self.diag_shift}

    def flops_per_round(self) -> float:
        m, k = self.M, self.K
        return 2.0 * m * m * k * 2 + 1.0 * m * m * k * 3

    def build(self) -> None:
        rng, m, k = self.rng, self.M, self.K
        s, b = rng.standard_normal((m, m)), rng.standard_normal((m, k))
        ak, bk = rng.standard_normal((m, k)), rng.standard_normal((m, k))
        # a well-conditioned triangle, so TRSM's error bound is the
        # routine's and not the matrix's
        low = np.tril(rng.standard_normal((m, m)), -1) * (0.5 / m ** 0.5)
        low[np.diag_indices(m)] = self.diag_shift + rng.random(m)
        blas, vendor = self._hardened_blas(), make_vendor_library()
        # Fortran-ordered operands for the twins: f2py would otherwise
        # copy every C-ordered array on every call
        sf, bf, akf, bkf, lowf = (np.asfortranarray(z)
                                  for z in (s, b, ak, bk, low))
        full, half = 2.0 * m * m * k, 1.0 * m * m * k
        self.ops = [
            Op("facade.dsymm", "dsymm", lambda: blas.dsymm(s, b),
               Check(ref.ref_symm(s, b), m), full),
            Op("facade.dsyrk", "dsyrk", lambda: blas.dsyrk(ak),
               Check(ref.ref_syrk(ak), k), half),
            Op("facade.dsyr2k", "dsyr2k", lambda: blas.dsyr2k(ak, bk),
               Check(ref.ref_syr2k(ak, bk), 2 * k), full),
            Op("facade.dtrmm", "dtrmm", lambda: blas.dtrmm(low, b),
               Check(ref.ref_trmm(low, b), m), half),
            Op("facade.dtrsm", "dtrsm", lambda: blas.dtrsm(low, b),
               Check(ref.ref_trsm(low, b), m, factor=64.0), half),
        ]
        self.twins = [
            Twin("dsymm", lambda: vendor.dsymm(sf, bf)),
            Twin("dsyrk", lambda: vendor.dsyrk(akf)),
            Twin("dsyr2k", lambda: vendor.dsyr2k(akf, bkf)),
            Twin("dtrmm", lambda: vendor.dtrmm(lowf, bf)),
            Twin("dtrsm", lambda: vendor.dtrsm(lowf, bf)),
        ]
        self.assert_native()


class ServeClosedLoop(Workload):
    name = "serve_closed_loop"
    # 1 request in 10 is the 512^3 DGEMM: p95 is the median of those
    tail_q = 95.0
    per_op_samples = True
    probes = ("serve",)
    N1, N2, NBIG = 65_536, 1024, 512
    # fixed sizes in a seeded order: the median request is one of these,
    # and which one would otherwise depend on the draw
    SMALL = (32, 48, 64, 80, 96, 128)

    def plan(self) -> None:
        self.small = list(self.SMALL)
        kinds = [f"dgemm_small:{s}" for s in self.small] + \
            ["ddot", "daxpy", "dgemv", "dgemm_512"]
        self.cycle = [kinds[i] for i in self.rng.permutation(len(kinds))]
        self.gemm_shapes = [(s, s, s) for s in self.small] + \
            [(self.NBIG,) * 3]

    def plan_summary(self):
        return {"cycle": self.cycle}

    def flops_per_round(self) -> float:
        return super().flops_per_round() + 4.0 * self.N1 + \
            2.0 * self.N2 * self.N2

    def build(self) -> None:
        rng = self.rng
        self.daemon = Daemon(os.environ["REPRO_SERVE_DIR"])
        self.daemon.start()
        client = self.client = ServedBLAS(socket_path=self.daemon.socket)
        # set-up ends at the first verified remote reply; building the
        # in-process twin that replies are bit-compared with is the
        # harness's cost, not the service's
        probe_a = rng.standard_normal((32, 32))
        if not Check(ref.ref_gemm(probe_a, probe_a), 32)(
                client.dgemm(probe_a, probe_a)) or client.stats.fallbacks:
            raise SetupError("serve_closed_loop: first request was not "
                             "served correctly by the daemon")
        self.ready_at = time.perf_counter()
        self.blas = local = AugemBLAS()
        vendor = make_vendor_library()
        n1, n2 = self.N1, self.N2
        x, y0 = rng.standard_normal(n1), rng.standard_normal(n1)
        y, y_local, y_twin = y0.copy(), y0.copy(), y0.copy()
        mat, v = rng.standard_normal((n2, n2)), rng.standard_normal(n2)
        alpha = 1e-3

        def gemm_op(group: str, n: int) -> None:
            a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
            self.ops.append(Op(
                "client.dgemm", group, lambda: client.dgemm(a, b),
                Check(ref.ref_gemm(a, b), n, bits=local.dgemm(a, b)),
                2.0 * n ** 3))
            self.twins.append(Twin(group, lambda: vendor.dgemm(a, b)))

        for kind in self.cycle:
            if kind.startswith("dgemm_small"):
                gemm_op("dgemm_small", int(kind.split(":")[1]))
            elif kind == "dgemm_512":
                gemm_op("dgemm_512", self.NBIG)
            elif kind == "ddot":
                self.ops.append(Op(
                    "client.ddot", "ddot", lambda: client.ddot(x, y0),
                    Check(ref.ref_dot(x, y0), n1,
                          bits=local.ddot(x, y0)), 2.0 * n1))
                self.twins.append(Twin("ddot", lambda: vendor.ddot(x, y0)))
            elif kind == "daxpy":
                self.ops.append(Op(
                    "client.daxpy", "daxpy",
                    lambda: client.daxpy(alpha, x, y),
                    Check(ref.ref_axpy(alpha, x, y0), 1,
                          bits=local.daxpy(alpha, x, y_local)), 2.0 * n1,
                    reset=lambda: np.copyto(y, y0)))
                self.twins.append(Twin(
                    "daxpy", lambda: vendor.daxpy(alpha, x, y_twin)))
            else:
                self.ops.append(Op(
                    "client.dgemv", "dgemv", lambda: client.dgemv(mat, v),
                    Check(ref.ref_gemv(mat, v), n2,
                          bits=local.dgemv(mat, v)), 2.0 * n2 * n2))
                self.twins.append(Twin("dgemv", lambda: mat @ v))
        self.assert_native()
        self._fallbacks_seen = 0

    def after_round(self) -> List[str]:
        """A request answered by the in-process fallback is a failed
        request, whatever its bits."""
        now = self.client.stats.fallbacks
        new, self._fallbacks_seen = now - self._fallbacks_seen, now
        return [f"{new} request(s) fell back in-process"] if new else []

    def extra_rss_mb(self) -> float:
        return self.daemon.sample_rss()

    def close(self) -> None:
        self.daemon.stop()

    def abort(self) -> None:
        if hasattr(self, "daemon"):
            self.daemon.abort()


class CodegenSweep(Workload):
    name = "codegen_sweep"
    # the three AVX GEMM kernels are the top 10.7% of calls: p95 sits
    # inside them, p90 on the cliff below them
    tail_q = 95.0
    # a twin only says how the host was while it ran, and a sweep takes
    # a second: sense the host four times per sweep
    twin_every = 7
    per_op_samples = True
    probes = ("codegen",)
    FAMILIES = ("gemm", "gemm_shuf", "gemv", "gemv_n", "axpy", "dot", "scal")
    ISAS = ("generic_sse", "sandybridge", "piledriver", "haswell")

    def plan(self) -> None:
        pairs = [(f, i) for i in self.ISAS for f in self.FAMILIES]
        self.order = [pairs[i] for i in self.rng.permutation(len(pairs))]
        self.emu_seed = int(self.rng.integers(1 << 31))

    def plan_summary(self):
        return {"order": [f"{f}@{i}" for f, i in self.order]}

    def flops_per_round(self) -> float:
        return 0.0

    def build(self) -> None:
        self.kernels: Dict[Tuple[str, str], Any] = {}
        self.emu_s = 0.0
        emu_rng = np.random.default_rng(self.emu_seed)
        for family, isa in self.order:
            self.ops.append(Op(
                "core.generate_named", "codegen",
                lambda family=family, arch=ALL_ARCHS[isa]:
                    Augem(arch).generate_named(family),
                self._kernel_check(family, isa, emu_rng)))
        self.twins = [Twin("codegen", _calibration_twin(self.rng))]

    def _kernel_check(self, family: str, isa: str, emu_rng):
        """The first kernel of a (family, ISA) is proved in the emulator
        against numpy; every later one must be the same assembly."""
        def check(gk) -> bool:
            if not hasattr(gk, "asm_text"):
                return False
            first = self.kernels.setdefault((family, isa), gk)
            if first is gk:
                t0 = time.perf_counter()
                ok = emulate_against_numpy(family, gk, emu_rng)
                self.emu_s += time.perf_counter() - t0
                return ok
            return gk.asm_text == first.asm_text
        return check


def emulate_against_numpy(family: str, gk, rng) -> bool:
    """Run one generated kernel in :mod:`repro.emu` on the smallest
    problem its unroll factors allow; compare with plain numpy."""
    if family in ("gemm", "gemm_shuf"):
        mu, nu, ku = kernel_multiples(gk)
        mc, nc, kc = mu, nu, 2 * ku
        a, b = rng.standard_normal(kc * mc), rng.standard_normal(nc * kc)
        c = np.zeros(mc * nc)
        call_kernel(gk, [mc, nc, kc, a, b, c, mc])
        bm = b.reshape(nc, kc).T if family == "gemm" else b.reshape(kc, nc)
        want = (a.reshape(kc, mc).T @ bm).T.ravel()
        return bool(np.allclose(c, want))
    from repro.blas.level1 import unroll_of
    if family in ("gemv", "gemv_n"):
        inner = unroll_of(gk, "j")
        outer = 3
        a = rng.standard_normal(outer * inner)
        x_len, y_len = (outer, inner) if family == "gemv" else (inner, outer)
        x, y = rng.standard_normal(x_len), rng.standard_normal(y_len)
        rows = a.reshape(outer, inner)
        want = y + (rows.T @ x if family == "gemv" else rows @ x)
        m, n = (inner, outer) if family == "gemv" else (outer, inner)
        call_kernel(gk, [m, n, a, inner, x, y])
        return bool(np.allclose(y, want))
    n = 2 * unroll_of(gk, "i")
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    if family == "axpy":
        want = y + 1.5 * x
        call_kernel(gk, [n, 1.5, x, y])
        return bool(np.allclose(y, want))
    if family == "dot":
        return bool(np.isclose(call_kernel(gk, [n, x, y]), x @ y))
    want = 2.0 * x
    call_kernel(gk, [n, 2.0, x])
    return bool(np.allclose(x, want))


WORKLOADS = {cls.name: cls for cls in (
    GemmSquare, GemmRagged, Level12Stream, Level3Cast, ServeClosedLoop,
    CodegenSweep)}
