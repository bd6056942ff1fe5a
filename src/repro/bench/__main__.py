"""CLI: regenerate the paper's evaluation.

Usage::

    python -m repro.bench fig18 [--paper-sizes] [--quick] [--naive]
    python -m repro.bench table6
    python -m repro.bench all --out results/

``--tune`` runs the empirical tuner first and uses the winning
configurations (paper §2.1's search); otherwise the defaults are used.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .figures import ALL_FIGURES
from .harness import standard_lineup
from .tables import table5_platform, table6_level3


def _tuned_configs(verbose: bool, jobs: int = 1) -> dict:
    from ..tuning.search import tune_kernel

    configs = {}
    for kernel in ("gemm", "gemv", "ger", "axpy", "dot"):
        result = tune_kernel(kernel, verbose=verbose, jobs=jobs)
        configs[kernel] = result.best.config
        print(f"[tune] {kernel}: best = {result.best.describe()} "
              f"({result.best_gflops:.2f} GFLOPS)")
    return configs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench",
                                     description=__doc__)
    parser.add_argument("target", choices=list(ALL_FIGURES)
                        + ["table5", "table6", "microkernel", "all"])
    parser.add_argument("--paper-sizes", action="store_true",
                        help="full paper-scale sweeps (slow)")
    parser.add_argument("--quick", action="store_true",
                        help="single timing batch per point")
    parser.add_argument("--naive", action="store_true",
                        help="include the naive C -O2 floor curve")
    parser.add_argument("--tune", action="store_true",
                        help="run the empirical tuner first")
    parser.add_argument("-j", "--jobs", type=int, default=1, metavar="N",
                        help="parallel tuner build workers (with --tune)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for JSON results")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="record a JSONL trace of the run "
                             "('-' = stderr; see docs/observability.md)")
    args = parser.parse_args(argv)

    if args.trace:
        from ..obs import start_trace

        start_trace(args.trace)

    batches = 1 if args.quick else 3
    configs = (_tuned_configs(verbose=False, jobs=args.jobs)
               if args.tune else None)
    libraries = standard_lineup(include_naive=args.naive, configs=configs)

    results = []
    if args.target == "table5" or args.target == "all":
        results.append(table5_platform())
    fig_ids = ([args.target] if args.target in ALL_FIGURES
               else list(ALL_FIGURES) if args.target == "all" else [])
    for fig_id in fig_ids:
        results.append(ALL_FIGURES[fig_id](
            libraries=libraries, paper_sizes=args.paper_sizes,
            batches=batches))
    if args.target == "table6" or args.target == "all":
        results.append(table6_level3(libraries=libraries,
                                     paper_sizes=args.paper_sizes,
                                     batches=batches))
    if args.target in ("microkernel", "all"):
        from .microkernel import microkernel_table

        results.append(microkernel_table())

    for r in results:
        print(r.render())
        print()
        if args.out is not None:
            path = r.save(args.out)
            print(f"[saved {path}]")

    from ..backend.cache import get_cache

    cache = get_cache()
    where = cache.root if cache.enabled else "disabled"
    print(f"[cache] {cache.stats.describe()} (store: {where})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
