"""Collecting, writing and comparing ledger results (no numpy here).

A BENCH/TRACE file holds, per workload and metric, the median over the
repeats and every repeat's value, so a later comparison can tell a change
from the run-to-run spread.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Tuple

from . import stats

SCHEMA = 1


def apart(a: float, b: float) -> float:
    """The distance between two values as a share of the smaller."""
    lo, hi = sorted((abs(a), abs(b)))
    return (hi - lo) / lo if lo else 0.0


def host_moved(twin_ms_a: float, twin_ms_b: float, bound: float) -> bool:
    """Did the host change speed between two runs by more than a bound
    can resolve?  The OpenBLAS twins do the same work on the same
    operands in every run of a seed, and no change to this repo touches
    them; a spread over a third of the bound is not steady."""
    return apart(twin_ms_a, twin_ms_b) > bound / 3.0


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``
    (negative = better)."""
    if base == 0.0:
        return 0.0 if new == 0.0 else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


class Ledger:
    """The records of one kind (end-to-end or per-layer) of one session."""

    def __init__(self, kind: str, args, spec: Dict[str, Any]) -> None:
        self.kind = kind
        self.meta = {"seed": args.seed, "seconds": args.seconds,
                     "quick": args.quick, "tag": args.tag}
        self.defs = {m["name"]: m for m in spec[kind]}
        self.records: Dict[str, List[Dict[str, Any]]] = {}

    def add(self, record: Dict[str, Any]) -> None:
        self.records.setdefault(record["workload"], []).append(record)

    @property
    def correct(self) -> bool:
        return all(r["correct"] for rs in self.records.values() for r in rs)

    def values(self, workload: str, metric: str) -> List[float]:
        return [r["metrics"][metric]["value"]
                for r in self.records[workload]]

    def twin_ms(self, workload: str) -> List[float]:
        return [r["detail"]["twin_round_ms"] for r in self.records[workload]]

    def render(self) -> str:
        """Every metric of each workload's latest record, by name."""
        lines = []
        for workload, records in self.records.items():
            last = records[-1]
            for name, metric in last["metrics"].items():
                lines.append(f"{workload:<18} {name:<34} "
                             f"{metric['value']:>14.6g} {metric['unit']}")
            lines.append(f"{workload:<18} {'attempted / failed':<34} "
                         f"{last['attempted']:>8} / {last['failed']}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        workloads = {}
        for workload, records in self.records.items():
            last = records[-1]
            entry = {
                "correct": all(r["correct"] for r in records),
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "failures": [f for r in records for f in r["failures"]],
                "metrics": {
                    name: {"value": stats.median(self.values(workload,
                                                             name)),
                           "unit": metric["unit"],
                           "values": self.values(workload, name)}
                    for name, metric in last["metrics"].items()},
                "detail": last["detail"],
            }
            if self.kind == "end_to_end":
                entry["twin_round_ms"] = self.twin_ms(workload)
            if "spans" in last:
                entry["spans"] = last["spans"]
            workloads[workload] = entry
        any_record = next(iter(self.records.values()))[-1]
        return {"schema": SCHEMA, "kind": self.kind, **self.meta,
                "repeats": max(len(r) for r in self.records.values()),
                "host": any_record["host"], "workloads": workloads}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_json(), indent=1) + "\n")
        print(f"wrote {path}")

    def agreement(self) -> Tuple[str, bool]:
        """Do all repeats of every (metric, workload) pair lie within the
        metric's bound of each other?  A pair further apart is
        ``unresolved``, not a disagreement, when the host itself moved
        between the repeats (:func:`host_moved`)."""
        lines = [f"{'workload':<18} {'metric':<14} {'min':>12} {'max':>12} "
                 f"{'apart':>8} {'bound':>7}  verdict"]
        ok = True
        for workload in self.records:
            twins = self.twin_ms(workload)
            lines.append(f"{workload:<18} {'(openblas twin)':<14} "
                         f"{min(twins):>12.6g} {max(twins):>12.6g} "
                         f"{apart(min(twins), max(twins)):>8.1%}")
            for name, definition in self.defs.items():
                values, bound = self.values(workload, name), \
                    definition["bound"]
                gap = apart(min(values), max(values))
                verdict = "agree" if gap <= bound else \
                    "unresolved" if host_moved(min(twins), max(twins),
                                               bound) else "DISAGREE"
                ok = ok and verdict != "DISAGREE"
                lines.append(
                    f"{workload:<18} {name:<14} {min(values):>12.6g} "
                    f"{max(values):>12.6g} {gap:>8.1%} {bound:>7.0%}  "
                    f"{verdict}")
        lines.append("agreement: " + (
            "no pair differs by more than its bound on a host that held "
            "still" if ok else "some pairs differ by more than their bound"))
        return "\n".join(lines), ok


def compare(base_path: Path, new_path: Path,
            spec: Dict[str, Any]) -> Tuple[str, bool]:
    """One row per (metric, workload): base, new, ratio, bound, verdict.

    ``unresolved`` where either side's own repeats spread wider than the
    bound, or the host moved between the two sides (:func:`host_moved`),
    so the bound cannot resolve a change; ``worse`` fails.
    """
    base = json.loads(base_path.read_text())
    new = json.loads(new_path.read_text())
    defs = {m["name"]: m for m in spec["end_to_end"]}
    lines = [f"{'workload':<18} {'metric':<14} {'base':>12} {'new':>12} "
             f"{'new/base':>9} {'bound':>7}  verdict"]
    ok = True
    for workload, entry in base["workloads"].items():
        other = new["workloads"].get(workload)
        if other is None:
            lines.append(f"{workload:<18} missing from {new_path.name}")
            ok = False
            continue
        twins = [stats.median(side["twin_round_ms"])
                 for side in (entry, other)]
        for name, definition in defs.items():
            b, n = entry["metrics"][name], other["metrics"][name]
            bound = definition["bound"]
            change = worse_by(b["value"], n["value"], definition["better"])
            spreads = [stats.iqr_share(side["values"]) for side in (b, n)
                       if len(side["values"]) >= 4]
            if any(s > bound for s in spreads) or host_moved(*twins, bound):
                verdict = "unresolved"
            elif change > bound:
                verdict, ok = "worse", False
            elif change < -bound:
                verdict = "improved"
            else:
                verdict = "unchanged"
            ratio = n["value"] / b["value"] if b["value"] else float("nan")
            lines.append(
                f"{workload:<18} {name:<14} {b['value']:>12.6g} "
                f"{n['value']:>12.6g} {ratio:>9.3f} {bound:>7.0%}  "
                f"{verdict}")
    return "\n".join(lines), ok
