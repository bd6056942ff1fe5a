#!/usr/bin/env python3
"""Layered perf ledger — the one command of this repo's benchmark.

One workload, the way the acceptance driver calls it (last stdout line is
the result object; ``--trace 0`` end-to-end, ``--trace 1`` per-layer)::

    python3 benchmarks/ledger/run.py --workload gemm_square --seed 2013 \\
        --seconds 10 --trace 0

The whole ledger: every workload untraced, then traced; every metric
printed by name with its unit; results written when ``--tag`` is given::

    python3 benchmarks/ledger/run.py --all [--quick] [--tag 11]
    python3 benchmarks/ledger/run.py --all --trace 0 --repeat 2 \\
        --check-agreement
    python3 benchmarks/ledger/run.py --compare BENCH_A.json BENCH_B.json

See README.md next to this file for what each number means.
"""

import time

_T0 = time.perf_counter()  # process start, for setup_s

import argparse  # noqa: E402
import atexit  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from ledger import hostenv, report, stats  # noqa: E402

ROOT = hostenv.ROOT
RESULTS = HERE.parent / "results"
RUNS = RESULTS / "runs"     # per-run outputs, not committed
WORK = HERE / ".work"       # stores, sockets, scratch; removed on exit

EXIT_INCORRECT = 1
EXIT_REFUSED = 2
EXIT_DISAGREE = 3

#: An end-to-end run is this many cold processes, one after the other,
#: each with empty stores of its own.  Each gives one set-up time and its
#: share of ``--seconds``.  What a process draws once — which physical
#: pages its buffers get, where the scheduler puts a daemon — moves this
#: program's speed by ~10% between otherwise identical processes; five
#: draws inside every run keep that out of the run-to-run spread.
PROCESSES = 5
#: share of ``--seconds`` the traced run spends in its untraced and its
#: traced pass loop each; the probes take the rest
TRACED_LOOP_SHARE = 0.2


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_shape(quick: bool):
    """(processes of an end-to-end run, samples a tail needs beyond it):
    a smoke run is one process, and takes the tail of whatever few passes
    it made."""
    return (1, 0) if quick else (PROCESSES, stats.MIN_BEYOND)


# ---------------------------------------------------------------------------
# one measuring process (``--part``): one cold start, one share of the run
# ---------------------------------------------------------------------------

def _end_to_end(args, wl, workloads) -> Dict[str, Any]:
    """This process's set-up time, memory and raw pass timings."""
    setup_s = wl.ready_at - _T0
    processes, beyond = run_shape(args.quick)
    m = workloads.measure(
        wl, args.seconds, perturb=args.perturb,
        min_passes=math.ceil(stats.samples_needed(wl.tail_q, beyond)
                             / processes))
    return {
        "setup_s": setup_s,
        "peak_rss_mb": hostenv.peak_rss_mb() + wl.extra_rss_mb(),
        "samples_ms": m.samples_ms, "round_ms": m.round_ms,
        "twin_round_ms": m.twin_round_ms,
        "ratios": {g: m.ratios(g) for g in m.rounds[0].program},
        "attempted": m.attempted, "failed": m.failed,
        "failures": m.failures,
    }


def _per_layer(args, wl, workloads) -> Dict[str, Any]:
    import numpy as np

    from ledger import layers
    rec = stats.SpanRecorder()
    loop_s = args.seconds * TRACED_LOOP_SHARE
    untraced = workloads.measure(wl, loop_s)
    traced = workloads.measure(wl, loop_s, rec=rec, perturb=args.perturb)
    ctx = layers.Context(wl=wl, rec=rec, quick=args.quick,
                         untraced=untraced, traced=traced,
                         rng=np.random.default_rng([args.seed, 1]))
    return {
        "metrics": layers.layer_metrics(ctx),
        "detail": {"notes": ctx.notes,
                   "traced_passes": len(traced.samples_ms),
                   "untraced_passes": len(untraced.samples_ms)},
        "attempted": untraced.attempted + traced.attempted + ctx.attempted,
        "failed": untraced.failed + traced.failed + len(ctx.failures),
        "failures": untraced.failures + traced.failures + ctx.failures,
        "spans": rec.to_json(),
    }


def _remove_work(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK.rmdir()  # unless another run is using it
    except OSError:
        pass


def run_part(args) -> int:
    """Set the program up cold, measure, write what was seen to
    ``--part``.  Prints nothing on success."""
    work = WORK / f"run-{os.getpid()}"
    try:
        hostenv.pin_environment(work)
    except hostenv.EnvironmentRefused as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    # registered before repro is imported, so it runs after repro's own
    # exit handlers (the kernel cache writes its stats file on exit)
    atexit.register(_remove_work, work)
    shm_before = hostenv.shm_segments()
    wl = None
    try:
        from ledger import workloads
        wl = workloads.WORKLOADS[args.workload](args.seed)
        wl.open()
        part = _per_layer(args, wl, workloads) if args.trace == 1 \
            else _end_to_end(args, wl, workloads)
        part["inputs"] = wl.describe()
        part["host"] = hostenv.fingerprint()
        wl.close()
        hostenv.reap_resource_tracker()
    except BaseException:
        if wl is not None:
            wl.abort()
        traceback.print_exc()
        return EXIT_INCORRECT
    # nothing may outlive the process
    leaked = sorted(hostenv.shm_segments() - shm_before)
    stray = hostenv.processes_mentioning(str(work))
    for what in ([f"shm segment left behind: {n}" for n in leaked]
                 + [f"process left behind: pid {p}" for p in stray]):
        part["failed"] += 1
        part["failures"].append(what)
    Path(args.part).write_text(json.dumps(part))
    return 0


# ---------------------------------------------------------------------------
# one run of one workload: its measuring processes, pooled
# ---------------------------------------------------------------------------

class RunFailed(RuntimeError):
    def __init__(self, code: int, stderr: str) -> None:
        super().__init__(f"measuring process exited {code}")
        self.code, self.stderr = code, stderr


def _measure_in_child(args, workload: str, trace: int,
                      seconds: float) -> Dict[str, Any]:
    RUNS.mkdir(parents=True, exist_ok=True)
    out = RUNS / f"part-{os.getpid()}.json"
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--part", str(out)]
    argv += ["--quick"] if args.quick else []
    argv += ["--perturb"] if args.perturb else []
    child = subprocess.Popen(argv, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
    try:
        _, stderr = child.communicate(timeout=170)
    except BaseException:
        # the child's own SIGTERM handler takes its daemon down
        child.terminate()
        try:
            child.wait(timeout=20)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        raise
    try:
        if child.returncode != 0:
            raise RunFailed(child.returncode, stderr)
        return json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)


def _pool(parts: List[Dict[str, Any]], beyond: int) -> Dict[str, Any]:
    """The end-to-end metrics of one run from its processes.

    A median is taken inside each process (robust against what disturbs
    a few passes) and averaged over the processes: their draws are the
    two humps of a bimodal distribution, and the median of a pool of
    five draws jumps from one hump to the other between runs.  The tail
    needs every pass of the run to have ten samples beyond it."""
    samples = [s for p in parts for s in p["samples_ms"]]
    round_ms = [s for p in parts for s in p["round_ms"]]
    medians = [stats.median(p["samples_ms"]) for p in parts]
    ratios = {}
    for group in parts[0]["ratios"]:
        per_process = [stats.median(p["ratios"][group]) for p in parts
                       if p["ratios"][group]]
        if per_process:
            ratios[group] = stats.mean(per_process)
    inputs = parts[0]["inputs"]
    metrics = {
        "setup_s": stats.median([p["setup_s"] for p in parts]),
        "vs_openblas": stats.geomean(list(ratios.values())),
        "pass_ms_p50": stats.mean(medians),
        "pass_ms_tail": stats.percentile(
            samples, inputs["tail_percentile"], beyond),
        "peak_rss_mb": stats.median([p["peak_rss_mb"] for p in parts]),
    }
    detail = {
        "processes": len(parts), "passes": len(samples),
        "rounds": len(round_ms),
        "passes_per_s": len(samples) / (sum(round_ms) / 1e3),
        "gflops": inputs["flops_per_round"] / stats.median(round_ms) / 1e6,
        "vs_openblas_by_group": ratios,
        "setup_samples_s": [p["setup_s"] for p in parts],
        "pass_ms_p50_by_process": medians,
        # the twins do the same work on the same operands in every run
        # of a seed: how fast the host was, whatever the program did
        "twin_round_ms": stats.median(
            [t for p in parts for t in p["twin_round_ms"]]),
    }
    return {"metrics": metrics, "detail": detail}


def run_workload(args, workload: str, trace: int,
                 spec: Dict[str, Any]) -> Dict[str, Any]:
    """One run of one workload: the record that goes into results/."""
    if trace:
        parts = [_measure_in_child(args, workload, 1, args.seconds)]
        result = parts[0]
        named = [m["name"] for m in spec["per_layer"]]
        unnamed = sorted(set(result["metrics"]) - set(named))
        if unnamed:
            raise RuntimeError("probes produced metrics BENCHMARK.json "
                               f"does not name: {unnamed}")
        result["detail"]["bypassed"] = [n for n in named
                                        if n not in result["metrics"]]
    else:
        processes, beyond = run_shape(args.quick)
        parts = [_measure_in_child(args, workload, 0,
                                   args.seconds / processes)
                 for _ in range(processes)]
        result = _pool(parts, beyond)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    failures = [f for p in parts for f in p["failures"]]
    failed = sum(p["failed"] for p in parts)
    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": trace, "quick": args.quick, "correct": failed == 0,
        "attempted": sum(p["attempted"] for p in parts), "failed": failed,
        "failures": failures,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in result["metrics"].items()},
        "detail": {**result["detail"], "inputs": parts[0]["inputs"]},
        "host": parts[0]["host"],
    }
    if trace:
        record["spans"] = result["spans"]
    (RUNS / f"{workload}.trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for what in failures:
        print(f"{workload}: FAILED {what}", file=sys.stderr)
    return record


def run_one(args) -> int:
    """The driver's entry: one workload, one kind of run; every metric
    by name, then the result object."""
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"ledger: unknown workload {args.workload!r}", file=sys.stderr)
        return EXIT_REFUSED
    trace = int(args.trace == 1)
    try:
        record = run_workload(args, args.workload, trace, spec)
    except RunFailed as exc:
        sys.stderr.write(exc.stderr)
        return exc.code
    for name, metric in record["metrics"].items():
        print(f"{args.workload:<18} {name:<34} {metric['value']:>14.6g} "
              f"{metric['unit']}")
    # the driver wants a number for every metric BENCHMARK.json names: a
    # layer this workload bypasses reads 0 there, and only there
    kind = "per_layer" if trace else "end_to_end"
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: record["metrics"].get(
            m["name"], {"value": 0.0, "unit": m["unit"]})
            for m in spec[kind]}}))
    return 0 if record["correct"] else EXIT_INCORRECT


def run_all(args) -> int:
    spec = load_spec()
    names = [args.workload] if args.workload else \
        [w["name"] for w in spec["workloads"]]
    bench = report.Ledger("end_to_end", args, spec)
    trace = report.Ledger("per_layer", args, spec)
    try:
        if args.trace != 1:
            for i in range(args.repeat):
                for name in names:
                    bench.add(run_workload(args, name, 0, spec))
                print("-- end-to-end, tracing off, run "
                      f"{i + 1}/{args.repeat}")
                print(bench.render())
            if args.tag:
                bench.write(RESULTS / f"BENCH_{args.tag}.json")
        if args.trace != 0:
            for name in names:
                trace.add(run_workload(args, name, 1, spec))
            print("-- per-layer, traced run (layers a workload bypasses "
                  "are left out)")
            print(trace.render())
            if args.tag:
                trace.write(RESULTS / f"TRACE_{args.tag}.json")
    except RunFailed as exc:
        sys.stderr.write(exc.stderr)
        return exc.code
    code = 0 if bench.correct and trace.correct else EXIT_INCORRECT
    if args.check_agreement:
        text, ok = bench.agreement()
        print(text)
        code = code or (0 if ok else EXIT_DISAGREE)
    return code


def main(argv: Optional[List[str]] = None) -> int:
    spec_seconds = load_spec()["run_seconds"]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="one workload by name")
    p.add_argument("--seed", type=int, default=2013,
                   help="generates every shape and operand (default 2013)")
    p.add_argument("--seconds", type=float, default=None,
                   help="how long one run measures (default: "
                        f"BENCHMARK.json run_seconds = {spec_seconds}; "
                        "0.25 with --quick)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0: end-to-end metrics, tracing off; 1: per-layer "
                        "metrics from a traced run (default: 0; with "
                        "--all, one after the other)")
    p.add_argument("--all", action="store_true",
                   help="every workload (or --workload)")
    p.add_argument("--quick", action="store_true",
                   help="smoke run: short loops, one process, few probe "
                        "repetitions; numbers are not comparable")
    p.add_argument("--repeat", type=int, default=1,
                   help="with --all: run the end-to-end suite N times")
    p.add_argument("--check-agreement", action="store_true",
                   help="with --repeat: exit 3 if any end-to-end pair of "
                        "the repeats differs by more than its bound on a "
                        "host that held still")
    p.add_argument("--tag", help="with --all: write results/BENCH_<tag>.json "
                                 "and TRACE_<tag>.json")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                   help="compare two BENCH files row by row")
    p.add_argument("--perturb", action="store_true",
                   help=argparse.SUPPRESS)  # test hook: corrupt one result
    # one measuring process of a run, started by this program itself
    p.add_argument("--part", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    # a terminated run unwinds as ^C does: a parent stops its measuring
    # process, a measuring process takes its daemon down with it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seconds is None:
        args.seconds = 0.25 if args.quick else float(spec_seconds)
    if args.compare:
        text, ok = report.compare(Path(args.compare[0]),
                                  Path(args.compare[1]), load_spec())
        print(text)
        return 0 if ok else EXIT_DISAGREE
    if args.part:
        return run_part(args)
    if args.all:
        return run_all(args)
    if not args.workload:
        p.error("give --workload NAME, --all or --compare")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
