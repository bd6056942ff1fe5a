"""Order statistics and the in-memory span recorder of the ledger.

No numpy here: ``run.py`` imports this before the environment is pinned.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence

#: a tail percentile is only reported with this many samples beyond it
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values))


def samples_needed(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Fewest samples for which ``min_beyond`` of them lie beyond p``q``."""
    return math.ceil(min_beyond / (1.0 - q / 100.0) - 1e-9)


def percentile(values: Sequence[float], q: float,
               min_beyond: int = MIN_BEYOND) -> float:
    """The ``q``-th percentile (nearest rank), refused when too few
    samples lie beyond it to say anything about that tail."""
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be inside (0, 100), got {q}")
    n = len(values)
    beyond = n - math.ceil(n * q / 100.0)
    if beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; need "
            f">= {min_beyond} (>= {samples_needed(q, min_beyond)} samples)")
    return float(sorted(values)[math.ceil(n * q / 100.0) - 1])


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median — the
    run-to-run spread the acceptance driver computes."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


class SpanRecorder:
    """Spans recorded by the harness around its calls into each layer.

    Kept in memory; ``run.py`` writes :meth:`to_json` out when the traced
    run ends.  Only the first ``keep_raw`` spans are stored individually
    (enough to read a few whole passes); every span feeds the per-name
    aggregate, where a layer's self time is its duration minus the part
    its child spans cover.
    """

    def __init__(self, keep_raw: int = 120) -> None:
        self.keep_raw = keep_raw
        self.raw: List[Dict[str, object]] = []
        self.agg: Dict[str, Dict[str, float]] = {}
        self._next_id = 0

    def new_id(self) -> int:
        """Reserve a span id, so children can name a parent that is
        still open (children finish, and are recorded, first)."""
        self._next_id += 1
        return self._next_id - 1

    def add(self, name: str, start: float, end: float,
            span_id: Optional[int] = None, parent: Optional[int] = None,
            trace: Optional[int] = None, child_s: float = 0.0) -> None:
        """Record one finished span.  ``trace`` is the identifier shared
        by the spans of one pass; ``child_s`` the time this span's
        children already cover."""
        if span_id is None:
            span_id = self.new_id()
        dur = end - start
        row = self.agg.setdefault(name, {"count": 0, "total_ms": 0.0,
                                         "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += dur * 1e3
        row["self_ms"] += (dur - child_s) * 1e3
        if len(self.raw) < self.keep_raw:
            self.raw.append({"id": span_id, "name": name, "trace": trace,
                             "parent": parent, "start_s": start,
                             "end_s": end})

    def to_json(self) -> Dict[str, object]:
        return {"spans_recorded": self._next_id,
                "spans_kept": len(self.raw),
                "by_name": self.agg, "spans": self.raw}
