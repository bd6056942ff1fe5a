"""Command-line interface.

Usage::

    python -m repro list-archs
    python -m repro generate gemm --arch haswell -o dgemm.S
    python -m repro generate dot --nu 0 --unroll i=16 --split res=16
    python -m repro validate dgemm.S --kernel gemm
    python -m repro tune axpy --jobs 4
    python -m repro tune gemm --isolation=fork --trial-timeout=30
    python -m repro tune gemm --resume
    python -m repro tune sessions list
    python -m repro tune sessions resume <session-id>
    python -m repro tune sessions gc --max-age-days 7
    python -m repro cache stats
    python -m repro cache scrub --repair
    python -m repro cache gc --max-bytes 512m
    python -m repro serve start
    python -m repro serve status
    python -m repro serve drain
    python -m repro dispatch show
    python -m repro dispatch probe --arch haswell
    python -m repro integrity show
    python -m repro integrity check --threads 2
    python -m repro --trace run.jsonl tune gemm
    python -m repro trace report run.jsonl
    python -m repro serve start --gemm-threads 4

``generate`` writes (or prints) a complete GAS kernel; ``validate``
parses an emitted ``.S`` file back and checks it against the numpy
reference under the bundled emulator — no toolchain required.
``--trace`` records every pipeline stage, tuning trial, and toolchain
call to a JSONL file that ``trace report`` renders.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from .blas.kernels import KERNEL_SOURCES
from .blas.routines import ROUTINES
from .core.framework import Augem, default_config
from .isa.arch import ALL_ARCHS, detect_host, get_arch
from .transforms.pipeline import OptimizationConfig


def _parse_pairs(values, what):
    """['j=4', 'i=12'] -> (('j', 4), ('i', 12))."""
    out = []
    for v in values or ():
        try:
            var, factor = v.split("=")
            out.append((var.strip(), int(factor)))
        except ValueError:
            raise SystemExit(f"bad --{what} argument {v!r}; expected var=N")
    return tuple(out)


def _build_config(args) -> "OptimizationConfig | None":
    uj = _parse_pairs(args.unroll_jam, "unroll-jam")
    u = _parse_pairs(args.unroll, "unroll")
    split = ()
    if args.split:
        var_factor = _parse_pairs([args.split], "split")[0]
        loop = u[0][0] if u else "i"
        split = ((loop, var_factor[0], var_factor[1]),)
    if not (uj or u or split or args.prefetch is not None):
        return None
    return OptimizationConfig(
        unroll_jam=uj,
        unroll=u,
        split=split,
        prefetch_distance=args.prefetch,
    )


def cmd_list_archs(_args) -> int:
    host = detect_host()
    for name, arch in sorted(ALL_ARCHS.items()):
        marker = "  <- host" if arch is host else ""
        print(f"{name:<14} {arch.description}{marker}")
    return 0


def cmd_generate(args) -> int:
    arch = get_arch(args.arch) if args.arch else detect_host()
    aug = Augem(arch=arch, schedule=not args.no_schedule)
    config = _build_config(args)
    gk = aug.generate_named(args.kernel, config=config,
                            strategy=args.strategy, name=args.name)
    if args.verbose:
        print(gk.describe(), file=sys.stderr)
        print("-- low-level C --", file=sys.stderr)
        print(gk.low_level_c, file=sys.stderr)
    if args.output:
        Path(args.output).write_text(gk.asm_text)
        print(f"wrote {args.output} ({gk.name} for {arch})", file=sys.stderr)
    else:
        print(gk.asm_text)
    return 0


def cmd_validate(args) -> int:
    from .emu.loader import parse_gas_function
    from .emu.run import call_items

    text = Path(args.file).read_text()
    items = parse_gas_function(text)
    rng = np.random.default_rng(0)
    kernel = args.kernel
    if kernel in ("gemm", "gemm_shuf"):
        mc, nc, kc, ldc = args.m or 24, 8, 32, (args.m or 24)
        a = rng.standard_normal(kc * mc)
        b = rng.standard_normal(nc * kc)
        c = np.zeros(ldc * nc)
        call_items(items, [mc, nc, kc, a, b, c, ldc])
        am = a.reshape(kc, mc)
        ref = np.zeros_like(c)
        for j in range(nc):
            col = (b.reshape(nc, kc)[j, :] if kernel == "gemm"
                   else b.reshape(kc, nc)[:, j])
            for i in range(mc):
                ref[j * ldc + i] = am[:, i] @ col
        ok = np.allclose(c, ref)
    elif kernel == "axpy":
        n = args.m or 32
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        ref = y + 1.5 * x
        call_items(items, [n, 1.5, x, y])
        ok = np.allclose(y, ref)
    elif kernel == "dot":
        n = args.m or 32
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        ok = np.isclose(call_items(items, [n, x, y]), x @ y)
    elif kernel == "scal":
        n = args.m or 32
        x = rng.standard_normal(n)
        ref = 2.0 * x
        call_items(items, [n, 2.0, x])
        ok = np.allclose(x, ref)
    elif kernel == "ger":
        m, n, lda = 5, args.m or 32, (args.m or 32) + 8
        x = rng.standard_normal(m)
        y = rng.standard_normal(n)
        a = rng.standard_normal(m * lda)
        ref = a.reshape(m, lda).copy()
        ref[:, :n] += np.outer(x, y)
        call_items(items, [m, n, x, y, a, lda])
        ok = np.allclose(a.reshape(m, lda), ref)
    elif kernel in ("gemv", "gemv_n"):
        m, n, lda = args.m or 16, 8, 24
        a = rng.standard_normal((n if kernel == "gemv" else m) * lda)
        if kernel == "gemv":
            x = rng.standard_normal(n)
            y = rng.standard_normal(m)
            ref = y + a.reshape(n, lda)[:, :m].T @ x
            call_items(items, [m, n, a, lda, x, y])
        else:
            x = rng.standard_normal(n)
            y = rng.standard_normal(m)
            ref = y + a.reshape(m, lda)[:, :n] @ x
            call_items(items, [m, n, a, lda, x, y])
        ok = np.allclose(y, ref)
    else:
        raise SystemExit(f"unknown kernel family {kernel!r}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


#: ``tune`` targets: every routine row with a tuning space, plus the
#: session manager (read off the table, so a CLI start never imports the
#: tuner)
TUNE_CHOICES = tuple(name for name, row in ROUTINES.items()
                     if row.tuned) + ("sessions",)


def cmd_tune(args) -> int:
    from .backend.compiler import ToolchainUnavailable
    from .tuning.search import EXIT_INTERRUPTED, TuningInterrupted, tune_kernel

    if args.kernel == "sessions":
        return cmd_tune_sessions(args)
    if args.session_action is not None:
        raise SystemExit(
            f"unexpected argument {args.session_action!r} "
            f"(session actions go with 'tune sessions')")
    try:
        result = tune_kernel(
            args.kernel, verbose=args.verbose, jobs=args.jobs,
            reuse=not args.no_reuse,
            isolation=None if args.isolation == "auto" else args.isolation,
            trial_timeout=args.trial_timeout, resume=args.resume)
    except ToolchainUnavailable as exc:
        print(f"tuning unavailable: {exc}", file=sys.stderr)
        return 2
    except TuningInterrupted as exc:
        # the search already sealed its session and narrated the resume
        # hint on stderr; exit distinctly so wrappers can tell "stopped
        # cleanly, resumable" from success and from hard failure
        print(f"interrupted: {exc}", file=sys.stderr)
        return EXIT_INTERRUPTED
    print(result.report())
    return 0


def cmd_tune_sessions(args) -> int:
    """``tune sessions {list,show,resume,gc}`` — manage durable sessions."""
    from .tuning import session as sessions

    action = args.session_action or "list"
    if sessions.sessions_root() is None:
        print("sessions unavailable: persistent cache disabled "
              "(REPRO_CACHE_DIR=off)", file=sys.stderr)
        return 2
    if action == "list":
        found = sessions.list_sessions()
        if not found:
            print("no recorded tuning sessions")
            return 0
        for s in found:
            print(s.describe())
        return 0
    if action == "gc":
        result = sessions.gc_sessions(
            max_age=args.max_age_days * 86400.0,
            include_resumable=args.all)
        print(f"removed {len(result.removed)} session"
              f"{'' if len(result.removed) == 1 else 's'}, "
              f"kept {len(result.kept)}")
        return 0
    if args.session_id is None:
        raise SystemExit(f"'tune sessions {action}' needs a session id")
    session = sessions.get_session(args.session_id)
    if session is None:
        print(f"no session {args.session_id!r}", file=sys.stderr)
        return 2
    if action == "show":
        import json as _json

        print(_json.dumps(session.manifest, indent=2))
        entries = session.journal_entries()
        print(f"journal: {len(entries)} trial"
              f"{'' if len(entries) == 1 else 's'}")
        for rec in entries:
            status = (f"{rec.gflops:7.2f} GF" if rec.gflops >= 0
                      else f"{rec.category}: {rec.error}")
            print(f"  #{rec.index:<3} {rec.candidate:<55s} {status}")
        return 0
    if action == "resume":
        if not session.is_resumable():
            print(f"session {session.id} is {session.status}"
                  f"{' and still live' if session.is_live() else ''}; "
                  f"nothing to resume", file=sys.stderr)
            return 2
        m = session.manifest
        args.kernel = m.get("kernel", "axpy")
        args.resume = True
        args.session_action = None
        return cmd_tune(args)
    raise SystemExit(f"unknown sessions action {action!r}")


def cmd_cache(args) -> int:
    import json as _json

    from .backend import fsio
    from .backend.cache import cache_max_bytes, get_cache, parse_bytes

    cache = get_cache()
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} cache entr{'y' if removed == 1 else 'ies'}"
              f" from {cache.root}" if cache.enabled
              else "cache disabled (REPRO_CACHE_DIR=off); nothing to clear")
        return 0
    if args.action == "scrub":
        from .backend.scrub import (DEFAULT_TMP_AGE, EXIT_CORRUPT,
                                    render_verdict, scrub_store)

        tmp_age = DEFAULT_TMP_AGE if args.tmp_age is None else args.tmp_age
        verdict = scrub_store(cache, repair=args.repair, tmp_age=tmp_age)
        if args.json:
            print(_json.dumps(verdict, indent=2))
        else:
            print(render_verdict(verdict))
        return 0 if verdict["ok"] else EXIT_CORRUPT
    if args.action == "gc":
        budget = (parse_bytes(args.max_bytes) if args.max_bytes is not None
                  else cache_max_bytes())
        if budget is None:
            print("no cache size budget: pass --max-bytes or set "
                  "REPRO_CACHE_MAX_BYTES", file=sys.stderr)
            return 2
        report = cache.gc(max_bytes=budget)
        if args.json:
            print(_json.dumps(report, indent=2))
        else:
            print(f"evicted {report['evicted']} entr"
                  f"{'y' if report['evicted'] == 1 else 'ies'} "
                  f"({report['before_bytes']} -> {report['after_bytes']} "
                  f"bytes, budget {report['budget_bytes']})")
        return 0
    # stats
    from .tuning.session import sessions_inventory

    inv = cache.inventory()
    totals = cache.cumulative_stats()
    sessions = sessions_inventory()
    print(f"cache root:      {inv['root']}")
    print(f"compiled entries: {inv['entries']} ({inv['bytes']} bytes "
          f"on disk)")
    if inv["max_bytes"] is not None:
        print(f"size budget:      {inv['max_bytes']} bytes "
              f"(headroom {inv['headroom_bytes']})")
    print(f"tuning records:   {inv['tuning_records']}")
    print(f"quarantined:      {inv['quarantined']}")
    print(f"sessions:         {sessions['count']} "
          f"({sessions['resumable']} resumable, "
          f"{sessions['journal_bytes']} journal bytes)")
    degraded = fsio.disk_degraded()
    print(f"disk health:      "
          f"{'DEGRADED (' + degraded + ')' if degraded else 'ok'}")
    print(f"cumulative:       {totals.describe()}")
    return 0


def cmd_serve(args) -> int:
    """``serve {start,stop,status,drain,supervise,worker}`` — the
    BLAS-as-a-service daemon (see docs/robustness.md, Service
    resilience)."""
    from .serve import supervisor
    from .serve.server import ServeConfig, default_runtime_dir, run_worker

    runtime_dir = Path(args.runtime_dir) if args.runtime_dir \
        else default_runtime_dir()
    warmup = tuple(w for w in (args.warmup or "gemm").split(",")
                   if w and w != "none")
    config = ServeConfig(
        runtime_dir=runtime_dir,
        socket_path=Path(args.socket) if args.socket else None,
        compute_threads=args.threads,
        gemm_threads=args.gemm_threads,
        queue_capacity=args.queue_capacity,
        max_inflight_per_client=args.max_inflight,
        drain_grace=args.drain_grace,
        warmup=warmup,
        integrity=args.integrity)
    action = args.serve_action
    if action == "start":
        return supervisor.start(config, foreground=args.foreground)
    if action == "supervise":
        return supervisor.supervise(config)
    if action == "worker":
        return run_worker(config)
    if action == "stop":
        return supervisor.stop(config.runtime_dir)
    if action == "status":
        return supervisor.status(config)
    if action == "drain":
        return supervisor.drain(config)
    raise SystemExit(f"unknown serve action {action!r}")


def cmd_integrity(args) -> int:
    """``integrity {show,check}`` — the ABFT verification layer (see
    docs/robustness.md, Integrity)."""
    from .backend.cache import get_cache
    from .blas import integrity as integ

    if args.action == "show":
        mode, period = integ.resolve_integrity()
        sampling = f" (1 in {period} calls)" if mode == "sample" else ""
        print(f"mode:                 {mode}{sampling}")
        print(f"strike limit:         {integ.STRIKE_LIMIT} corruption "
              f"verdicts quarantine a kernel")
        snap = integ.STATS.snapshot()
        for name in integ.IntegrityStats.FIELDS:
            print(f"{name + ':':<22}{snap[name]}")
        strikes = integ.strike_counts()
        if strikes:
            print("strikes (body_hash -> count):")
            for body_hash, count in sorted(strikes.items()):
                print(f"  {body_hash}  {count}")
        inv = get_cache().inventory()
        print(f"quarantined entries:  {inv['quarantined']}")
        return 0

    # check: run the emulated GEMM driver under full verification and
    # compare against numpy.  Honors REPRO_FAULT_INJECT, so
    # `REPRO_FAULT_INJECT=corrupt@#0 python -m repro integrity check`
    # demonstrates detection + containment end to end.
    rng = np.random.default_rng(7)
    m, k, n = 24, 16, 24
    a = rng.standard_normal((m, k))
    b = rng.standard_normal((k, n))
    report = integ.IntegrityReport()
    driver = integ.emulated_gemm_driver(threads=args.threads)
    got = driver(a, b, integrity_report=report)
    correct = bool(np.allclose(got, a @ b, rtol=1e-10, atol=1e-12))
    verdict = report.to_json()
    print(f"checked {verdict['tiles_checked']} tiles: "
          f"{verdict['mismatches']} mismatches, "
          f"{verdict['retries']} retries, "
          f"{verdict['reference_recomputes']} reference recomputes")
    if verdict["quarantined"]:
        print(f"quarantined: {', '.join(verdict['quarantined'])}")
    if not correct:
        print("FAIL: results diverge from numpy despite verification",
              file=sys.stderr)
        return 1
    contained = "corruption detected and contained" \
        if verdict["mismatches"] else "clean"
    print(f"OK: results bit-correct ({contained})")
    return 0


def cmd_dispatch(args) -> int:
    from .blas.dispatch import (ROUTINE_FAMILIES, DispatchChain,
                                tier_verdict)

    top = get_arch(args.arch) if args.arch else None
    isolation = None if args.isolation == "auto" else args.isolation
    chain = DispatchChain(top=top, isolation=isolation)

    if args.action == "probe":
        for tier in chain.tiers:
            if not tier.is_reference:
                chain.verify_tier(tier)

    serving = None
    for tier in chain.tiers:
        verdict = tier_verdict(tier)
        if verdict is None:
            status = "unprobed"
        elif verdict[0]:
            status = "VERIFIED"
            serving = serving or tier
        else:
            status = f"DEMOTED ({verdict[1]})"
        print(f"{tier.name:<14} {status:<10}  {tier.describe()}")
    print(f"routine families: {' '.join(ROUTINE_FAMILIES)}")
    if args.action == "probe":
        print(f"serving tier: {serving.name if serving else 'reference'}")
    else:
        print("(verdicts shown are this process's memoized probes; "
              "run 'dispatch probe' to execute them)")
    return 0


def cmd_trace(args) -> int:
    from .obs.report import TraceError, report_file

    if args.action == "report":
        try:
            print(report_file(args.file))
        except TraceError as exc:
            print(f"bad trace: {exc}", file=sys.stderr)
            return 2
        return 0
    raise SystemExit(f"unknown trace action {args.action!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro",
                                     description=__doc__)
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record a JSONL trace of this invocation "
                             "('-' = stderr; see docs/observability.md)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-archs", help="list modelled architectures")

    g = sub.add_parser("generate", help="generate an assembly kernel")
    g.add_argument("kernel", choices=sorted(KERNEL_SOURCES))
    g.add_argument("--arch", choices=sorted(ALL_ARCHS), default=None)
    g.add_argument("--strategy", default="auto",
                   choices=["auto", "vdup", "shuf", "scalar"])
    g.add_argument("--unroll-jam", action="append", metavar="VAR=N",
                   help="unroll&jam factor (repeatable, outermost first)")
    g.add_argument("--unroll", action="append", metavar="VAR=N")
    g.add_argument("--split", metavar="ACC=N",
                   help="accumulator split (DOT-style reductions)")
    g.add_argument("--prefetch", type=int, default=None, metavar="DIST")
    g.add_argument("--no-schedule", action="store_true")
    g.add_argument("--name", default=None, help="exported symbol name")
    g.add_argument("-o", "--output", default=None)
    g.add_argument("-v", "--verbose", action="store_true")

    v = sub.add_parser("validate",
                       help="emulate a generated .S against numpy")
    v.add_argument("file")
    v.add_argument("--kernel", required=True,
                   choices=sorted(KERNEL_SOURCES))
    v.add_argument("--m", type=int, default=None,
                   help="problem size override")

    t = sub.add_parser("tune",
                       help="empirical configuration search "
                            "(or 'tune sessions {list,show,resume,gc}')")
    t.add_argument("kernel", choices=TUNE_CHOICES)
    t.add_argument("session_action", nargs="?", default=None,
                   choices=["list", "show", "resume", "gc"],
                   help="with 'tune sessions': manage durable tuning "
                        "sessions")
    t.add_argument("session_id", nargs="?", default=None,
                   help="session id for 'sessions show' / "
                        "'sessions resume'")
    t.add_argument("-j", "--jobs", type=int, default=1, metavar="N",
                   help="parallel generate/assemble workers (timing stays "
                        "serial)")
    t.add_argument("--no-reuse", action="store_true",
                   help="ignore persisted tuning measurements")
    t.add_argument("--resume", action="store_true",
                   help="continue the latest interrupted/abandoned session "
                        "for this search: replay its journaled trials and "
                        "pick up where it stopped")
    t.add_argument("--max-age-days", type=float, default=7.0, metavar="D",
                   help="with 'sessions gc': prune sessions idle longer "
                        "than this (default 7 days)")
    t.add_argument("--all", action="store_true",
                   help="with 'sessions gc': also prune resumable "
                        "(interrupted/abandoned) sessions")
    t.add_argument("--isolation", choices=["auto", "fork", "none"],
                   default="auto",
                   help="run each candidate's validation in a sandboxed "
                        "subprocess so crashes/hangs become failed trials "
                        "(auto: fork when the platform supports it)")
    t.add_argument("--trial-timeout", type=float, default=30.0,
                   metavar="SEC",
                   help="wall-clock limit per isolated trial; a candidate "
                        "that exceeds it is killed and quarantined "
                        "(<= 0 disables)")
    t.add_argument("-v", "--verbose", action="store_true")

    c = sub.add_parser("cache",
                       help="inspect, clear, scrub, or garbage-collect "
                            "the kernel cache")
    c.add_argument("action", choices=["stats", "clear", "scrub", "gc"],
                   help="'scrub' re-verifies every persisted artifact "
                        "(exit 5 when unrepaired corruption remains); "
                        "'gc' evicts least-recently-used entries down to "
                        "a size budget (quarantine records are never "
                        "evicted)")
    c.add_argument("--repair", action="store_true",
                   help="with 'scrub': evict what cannot be verified "
                        "instead of only reporting it")
    c.add_argument("--json", action="store_true",
                   help="with 'scrub'/'gc': print the machine-readable "
                        "verdict instead of the human rendering")
    c.add_argument("--max-bytes", default=None, metavar="N",
                   help="with 'gc': the size budget (suffixes k/m/g/t; "
                        "default: $REPRO_CACHE_MAX_BYTES)")
    c.add_argument("--tmp-age", type=float, default=None, metavar="SEC",
                   help="with 'scrub': age before publish scratch counts "
                        "as abandoned (default 3600)")

    s = sub.add_parser("serve",
                       help="run the resilient BLAS service (supervised "
                            "daemon; see docs/robustness.md)")
    s.add_argument("serve_action",
                   choices=["start", "stop", "status", "drain",
                            "supervise", "worker"],
                   help="'start' launches the supervised daemon in the "
                        "background; 'supervise'/'worker' are the "
                        "foreground internals; 'drain' finishes in-flight "
                        "work and exits cleanly")
    s.add_argument("--runtime-dir", default=None, metavar="DIR",
                   help="socket/state directory (default: "
                        "$REPRO_SERVE_DIR, else under the kernel cache)")
    s.add_argument("--socket", default=None, metavar="PATH",
                   help="unix socket path (default: <runtime-dir>/"
                        "serve.sock)")
    s.add_argument("--threads", type=int, default=2, metavar="N",
                   help="compute threads in the worker (default 2)")
    s.add_argument("--gemm-threads", type=int, default=None, metavar="N",
                   help="threads per GEMM call inside the worker "
                        "(default: $REPRO_THREADS, else 1)")
    s.add_argument("--queue-capacity", type=int, default=32, metavar="N",
                   help="bounded admission queue size; beyond it the "
                        "worker answers 'busy' with retry-after "
                        "(default 32)")
    s.add_argument("--max-inflight", type=int, default=8, metavar="N",
                   help="per-client concurrent request quota (default 8)")
    s.add_argument("--drain-grace", type=float, default=30.0,
                   metavar="SEC",
                   help="max seconds a drain waits for in-flight work "
                        "(default 30)")
    s.add_argument("--integrity", default=None, metavar="MODE",
                   help="ABFT verification mode for the worker's drivers "
                        "(off|sample[:K]|full; default: $REPRO_INTEGRITY, "
                        "else off)")
    s.add_argument("--warmup", default="gemm", metavar="LIST",
                   help="comma-separated routine families to build before "
                        "accepting work ('none' to skip; default gemm)")
    s.add_argument("--foreground", action="store_true",
                   help="with 'start': run the supervisor in the "
                        "foreground instead of daemonizing")

    d = sub.add_parser("dispatch",
                       help="inspect the hardened runtime's verified "
                            "capability chain (see docs/robustness.md)")
    d.add_argument("action", choices=["show", "probe"],
                   help="'show' prints the chain; 'probe' also executes "
                        "the sandboxed ISA probe for every native tier")
    d.add_argument("--arch", choices=sorted(ALL_ARCHS), default=None,
                   help="pin the top of the chain (default: detected "
                        "host, honoring $REPRO_FORCE_ARCH)")
    d.add_argument("--isolation", choices=["auto", "fork", "none"],
                   default="auto",
                   help="how probe kernels are executed (auto: fork when "
                        "the platform supports it)")

    it = sub.add_parser("integrity",
                        help="inspect or self-test the ABFT verification "
                             "layer (see docs/robustness.md)")
    it.add_argument("action", choices=["show", "check"],
                    help="'show' prints resolved mode + counters + "
                         "strikes; 'check' runs an emulated GEMM under "
                         "full verification against numpy (honors "
                         "REPRO_FAULT_INJECT)")
    it.add_argument("--threads", type=int, default=2, metavar="N",
                    help="GEMM thread count for 'check' (default 2)")

    tr = sub.add_parser("trace", help="work with recorded JSONL traces")
    tr.add_argument("action", choices=["report"])
    tr.add_argument("file", help="trace file written via --trace/REPRO_TRACE")

    args = parser.parse_args(argv)
    if args.trace:
        from .obs import start_trace

        start_trace(args.trace)
    try:
        return {
            "list-archs": cmd_list_archs,
            "generate": cmd_generate,
            "validate": cmd_validate,
            "tune": cmd_tune,
            "cache": cmd_cache,
            "serve": cmd_serve,
            "dispatch": cmd_dispatch,
            "integrity": cmd_integrity,
            "trace": cmd_trace,
        }[args.command](args)
    except BrokenPipeError:
        # downstream pager/head closed the pipe; not an error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
