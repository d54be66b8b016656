"""Process-local metrics: counters, gauges, and histograms.

The registry complements the span timeline with cheap aggregates —
cache hit/miss counts, per-point wall seconds, fastpath eligibility,
loop-memo replays, DMA traffic.  Like the tracer, it is only
touched behind ``if spans.ENABLED:`` guards, so the default-off cost
on instrumented seams is one attribute read.

Metric names are dotted strings (see ``docs/observability.md`` for the
full table):

========================  ===========  =====================================
name                      type         meaning
========================  ===========  =====================================
``cache.hit``             counter      results served from the sweep cache
``cache.miss``            counter      results simulated fresh
``session.runs``          counter      ``Session.run`` invocations
``sweep.point_seconds``   histogram    wall seconds per executed sweep point
``fastpath.regions``      counter      FREP regions seen by the fast path
``fastpath.eligible``     counter      regions the fast path accepted
``fastpath.cycles``       counter      cycles skipped by fastpath apply
``loop.regions``          counter      loop heads the loop memo examined
``loop.hits``             counter      loop iterations replayed
``loop.misses``           counter      eligible iterations stepped
``loop.cycles``           counter      cycles replayed by the loop memo
``dma.bytes``             counter      bytes moved through global memory
``dma.contended_cycles``  counter      interconnect arbitration conflicts
``system.runs``           counter      ``System.run`` invocations
``serve.requests``        counter      job submissions accepted
``serve.cache_hits``      counter      serve points answered from cache
``serve.dedup_hits``      counter      points coalesced onto in-flight keys
``serve.executions``      counter      simulations dispatched to the pool
``serve.worker_crashes``  counter      pool workers that died (replaced)
``serve.jobs_done``       counter      jobs finished clean (also
                                       ``_error``/``_timeout``/``_cancelled``)
``serve.queue_depth``     gauge        undispatched unique points
``serve.inflight``        gauge        points running on the pool
========================  ===========  =====================================

The ``serve.*`` family is mirrored from the always-on scheduler
counters (:data:`repro.serve.scheduler.SERVE_COUNTERS`) only while
observability is enabled; ``GET /v1/metrics`` reports the scheduler's
own counters regardless.
"""

from __future__ import annotations

import threading

__all__ = [
    "METRICS",
    "MetricsRegistry",
    "campaign_obs",
    "cluster_run_obs",
    "system_run_obs",
]


class MetricsRegistry:
    """Counters, gauges, and histogram summaries keyed by dotted name."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, dict[str, float]] = {}

    def inc(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record one histogram sample (kept as count/sum/min/max)."""
        with self._lock:
            h = self.histograms.get(name)
            if h is None:
                self.histograms[name] = {
                    "count": 1, "sum": value, "min": value, "max": value}
            else:
                h["count"] += 1
                h["sum"] += value
                h["min"] = min(h["min"], value)
                h["max"] = max(h["max"], value)

    def snapshot(self) -> dict:
        """JSON-ready copy of the registry state."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "histograms": {k: dict(v)
                               for k, v in self.histograms.items()},
            }

    def reset(self) -> None:
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()


#: The process-wide registry all instrumentation sites write into.
METRICS = MetricsRegistry()


# -- run summaries ------------------------------------------------------------
#
# These build the per-run ``Result.meta["obs"]`` payloads.  They read
# simulator state (deterministic counters), never wall clocks, but the
# payload is still stripped before results enter the on-disk cache so
# cached records stay bit-identical across obs-on/obs-off runs.


#: Loop-memo counters summed over a campaign (see repro.core.fastpath).
_LOOP_TOTALS = ("loop_regions_seen", "loop_hits", "loop_misses",
                "loop_cycles", "loop_recordings", "loop_recorded_cycles")


def cluster_run_obs(cluster) -> dict:
    """Summarize one finished single-cluster run."""
    obs: dict = {"engine": cluster.cfg.engine}
    fastpath = getattr(cluster, "fastpath", None)
    if fastpath is not None:
        stats = dict(fastpath.stats)
        reasons = stats.pop("reject_reasons", {})
        stats["loop_reject_reasons"] = dict(stats["loop_reject_reasons"])
        obs["fastpath"] = stats
        if reasons:
            obs["fastpath"]["reject_reasons"] = dict(reasons)
    return obs


def system_run_obs(system) -> dict:
    """Summarize one finished multi-cluster ``System.run``."""
    return {
        "num_clusters": len(system.clusters),
        "cluster_cycles": [c.cycle for c in system.clusters],
        "gmem_bytes_read": system.gmem.bytes_read,
        "gmem_bytes_written": system.gmem.bytes_written,
        "interconnect_busy_cycles": system.interconnect.busy_cycles,
        "interconnect_contended_cycles": system.interconnect.contended_cycles,
        "sys_barriers": system.sys_barriers,
        "clusters": [cluster_run_obs(c) for c in system.clusters],
    }


def campaign_obs(outcomes, seconds: float) -> dict:
    """Aggregate per-outcome observability into one campaign summary."""
    executed = [o for o in outcomes if not o.cached]
    wall = [o.seconds for o in executed if o.seconds is not None]
    agg = {
        "points": len(outcomes),
        "ok": sum(1 for o in outcomes if o.status == "ok"),
        "errors": sum(1 for o in outcomes if o.status == "error"),
        "timeouts": sum(1 for o in outcomes if o.status == "timeout"),
        "cache_hits": sum(1 for o in outcomes if o.cached),
        "hit_rate": (sum(1 for o in outcomes if o.cached) / len(outcomes)
                     if outcomes else 0.0),
        "wall_seconds": seconds,
        "point_seconds": {
            "count": len(wall),
            "sum": sum(wall),
            "min": min(wall) if wall else 0.0,
            "max": max(wall) if wall else 0.0,
        },
    }
    fp_regions = fp_eligible = 0
    reject_reasons: dict[str, int] = {}
    loop = dict.fromkeys(_LOOP_TOTALS, 0)
    loop_reasons: dict[str, int] = {}
    for o in outcomes:
        meta = getattr(o.result, "meta", None) or {}
        run_obs = meta.get("obs")
        if not isinstance(run_obs, dict):
            continue
        for part in ([run_obs] + list(run_obs.get("clusters", []))):
            fp = part.get("fastpath")
            if isinstance(fp, dict):
                fp_regions += fp.get("regions_seen", 0)
                fp_eligible += fp.get("regions_eligible", 0)
                for reason, n in fp.get("reject_reasons", {}).items():
                    reject_reasons[reason] = reject_reasons.get(reason, 0) + n
                for name in _LOOP_TOTALS:
                    loop[name] += fp.get(name, 0)
                for reason, n in fp.get("loop_reject_reasons", {}).items():
                    loop_reasons[reason] = loop_reasons.get(reason, 0) + n
    agg["fastpath_regions_seen"] = fp_regions
    agg["fastpath_regions_eligible"] = fp_eligible
    agg["fastpath_eligibility_rate"] = (
        fp_eligible / fp_regions if fp_regions else 0.0)
    if reject_reasons:
        agg["fastpath_reject_reasons"] = reject_reasons
    agg.update(loop)
    if loop_reasons:
        agg["loop_reject_reasons"] = loop_reasons
    return agg
