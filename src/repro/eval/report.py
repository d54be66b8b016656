"""Reporting helpers: geometric means and plain-text tables.

The benchmark harness prints paper-vs-measured tables with these; keeping
the formatting in one place makes `pytest benchmarks/ --benchmark-only`
output directly comparable to the paper's Fig. 3 and section III claims.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; raises on empty or non-positive input."""
    values = list(values)
    if not values:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError(f"geomean requires positive values, got {values}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str | None = None) -> str:
    """Render an aligned plain-text table."""
    cells = [[str(h) for h in headers]]
    for row in rows:
        cells.append([_fmt(v) for v in row])
    widths = [max(len(r[c]) for r in cells) for c in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 100 else f"{value:.1f}"
    return str(value)


def percent_delta(new: float, old: float) -> float:
    """Relative improvement of ``new`` over ``old`` in percent."""
    if old == 0:
        raise ValueError("old value is zero")
    return 100.0 * (new - old) / old


# -- multi-cluster (repro.system) aggregation ------------------------------


def system_summary_rows(system) -> list[list]:
    """Per-cluster table rows plus a ``total`` row for one system run.

    Columns: cluster, cycles, fpu util, fpu ops, dma bytes, barrier
    stall cycles.  Feed to :func:`format_table`.
    """
    rows: list[list] = []
    total_ops = 0
    total_dma = 0
    total_barrier = 0
    for index, cluster in enumerate(system.clusters):
        perf = cluster.perf
        ops = perf.value("fpu_compute_ops")
        barrier = perf.value("int_barrier_stalls")
        util = ops / cluster.cycle if cluster.cycle else 0.0
        rows.append([index, cluster.cycle, util, ops,
                     cluster.dma.bytes_moved, barrier])
        total_ops += ops
        total_dma += cluster.dma.bytes_moved
        total_barrier += barrier
    rows.append(["total", system.cycle, system.fpu_utilization(),
                 total_ops, total_dma, total_barrier])
    return rows


def scaling_rows(results: dict[int, "object"], metric: str = "cycles",
                 weak: bool = False) -> list[list]:
    """Strong/weak-scaling rows from ``{num_clusters: Result}``.

    Columns: clusters, <metric>, speedup vs. the smallest cluster
    count, parallel efficiency.  ``metric`` is lower-is-better (cycles).

    * **strong** (fixed total work): speedup = base/value, efficiency =
      speedup / (n / base_n) -- perfect scaling gives speedup n and
      efficiency 1.
    * **weak** (fixed work *per cluster*): efficiency = base/value
      (equal cycle counts are perfect) and speedup = efficiency *
      (n / base_n) -- the effective scaled-throughput gain.
    """
    if not results:
        return []
    counts = sorted(results)
    base_n = counts[0]
    base = float(getattr(results[base_n], metric))
    rows = []
    for n in counts:
        value = float(getattr(results[n], metric))
        ratio = base / value if value else 0.0
        if weak:
            efficiency = ratio
            speedup = ratio * (n / base_n)
        else:
            speedup = ratio
            efficiency = ratio / (n / base_n)
        rows.append([n, int(value), round(speedup, 3),
                     round(efficiency, 3)])
    return rows
