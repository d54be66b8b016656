"""Span recording: the wall-clock/simulated-cycle event backbone.

One process-wide :class:`Tracer` records two kinds of events:

* **wall** events -- nested wall-clock spans and instants around the
  orchestration seams (``Session.run``/``Session.map``, sweep-worker
  point execution, ``System.run``).  Timestamps are epoch seconds
  (:func:`time.time`) so events recorded by *different processes* of
  one campaign land on one comparable timeline; durations are measured
  with :func:`time.perf_counter` for precision.
* **sim** events -- spans and instants whose timeline is *simulated
  cycles* (engine-selection accept/reject, loop-memo replays, system
  barrier openings, global-memory DMA transfers).  They
  carry the current :func:`sim_context` label so each workload's cycle
  timeline becomes its own track in the Perfetto export.

Overhead contract
-----------------

Observability is **opt-in and zero-overhead when disabled**.  The
module-level :data:`ENABLED` flag is ``False`` by default and every
instrumentation site guards with ``if spans.ENABLED:`` before touching
the tracer, so the disabled cost is one module-attribute read on the
few non-hot seams that are instrumented at all (per *workload*, per
*replayed region*, per *DMA transfer* -- never per cycle).  The
benchmark-regression gate runs with observability disabled and pins
this.

Worker processes
----------------

A tracer opened with ``jsonl_dir`` appends every finished event as one
JSON line to ``<jsonl_dir>/spans-<pid>.jsonl``.  Sweep workers inherit
(fork) or re-create (spawn, via the ``obs_dir`` argument threaded
through the pool) the enabled state and write their own per-process
segment; :func:`repro.obs.export.load_segments` merges all segments
into one timeline.  A tracer detects a fork by pid change and re-opens
its own segment file, so two processes never interleave writes.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "ENABLED",
    "Tracer",
    "disable",
    "enable",
    "is_enabled",
    "sim_context",
    "sim_label",
    "sink_dir",
    "tracer",
]

#: The one hot-path guard.  Instrumentation sites read this module
#: attribute and do nothing further when it is ``False``.
ENABLED = False

_TRACER: "Tracer | None" = None

#: Label naming the *current* simulated-cycle timeline (one per
#: executing workload); sim events record it as their track.
_SIM_LABEL: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_obs_sim_label", default="sim")


class Tracer:
    """Process-local event recorder (wall + simulated-cycle clocks).

    Events are plain JSON-ready dicts with a fixed shape::

        {"kind": "span" | "instant",
         "clock": "wall" | "sim",
         "name": ..., "cat": ...,
         "ts": <epoch seconds | cycle>, "dur": <seconds | cycles>,
         "pid": <os pid>, "proc": <process-track name>,
         "lane": <thread-track name>, "args": {...}}

    ``keep_in_memory=False`` (the sweep/CLI export mode) records to the
    JSONL sink only; the exporter then reads every process's segment
    back, including this one's.
    """

    def __init__(self, jsonl_dir: str | Path | None = None,
                 keep_in_memory: bool | None = None):
        self.jsonl_dir = Path(jsonl_dir) if jsonl_dir is not None else None
        if keep_in_memory is None:
            keep_in_memory = self.jsonl_dir is None
        self.keep_in_memory = keep_in_memory
        self.events: list[dict] = []
        self._pid = os.getpid()
        self._sink = None
        self._lock = threading.Lock()

    # -- emission -----------------------------------------------------------

    def _emit(self, event: dict) -> None:
        pid = os.getpid()
        if pid != self._pid:
            # Forked child inheriting an enabled tracer: drop the
            # parent's buffer, sink handle and lock (another parent
            # thread may have held it at the fork), write an own segment.
            self._pid = pid
            self._sink = None
            self.events = []
            self._lock = threading.Lock()
        event["pid"] = pid
        with self._lock:
            if self.keep_in_memory:
                self.events.append(event)
            if self.jsonl_dir is not None:
                if self._sink is None:
                    self.jsonl_dir.mkdir(parents=True, exist_ok=True)
                    self._sink = open(
                        self.jsonl_dir / f"spans-{pid}.jsonl", "a")
                self._sink.write(json.dumps(event, sort_keys=True) + "\n")
                self._sink.flush()

    def close(self) -> None:
        with self._lock:
            if self._sink is not None:
                self._sink.close()
                self._sink = None

    # -- wall-clock events --------------------------------------------------

    @contextmanager
    def span(self, name: str, cat: str = "api", lane: str = "main",
             args: dict | None = None):
        """Record one nested wall-clock span around the ``with`` body.

        Yields the mutable ``args`` dict so the body can annotate the
        span with outcomes (status, cache hit, ...) before it closes.
        """
        args = dict(args or {})
        ts = time.time()
        t0 = time.perf_counter()
        try:
            yield args
        finally:
            self._emit({
                "kind": "span", "clock": "wall", "name": name,
                "cat": cat, "ts": ts,
                "dur": time.perf_counter() - t0,
                "proc": f"repro pid {os.getpid()}", "lane": lane,
                "args": args,
            })

    def complete(self, name: str, cat: str = "api", lane: str = "main",
                 start: float | None = None, seconds: float = 0.0,
                 args: dict | None = None) -> None:
        """Record a wall span retrospectively from ``(start, seconds)``.

        Async seams (the serve job lifecycle) cannot wrap their work in
        a ``with span():`` block -- the span's extent is only known
        once the job reaches a terminal state.  ``start`` is epoch
        seconds (defaults to ``seconds`` ago).
        """
        if start is None:
            start = time.time() - seconds
        self._emit({
            "kind": "span", "clock": "wall", "name": name,
            "cat": cat, "ts": float(start), "dur": float(seconds),
            "proc": f"repro pid {os.getpid()}", "lane": lane,
            "args": dict(args or {}),
        })

    def instant(self, name: str, cat: str = "api", lane: str = "main",
                args: dict | None = None) -> None:
        self._emit({
            "kind": "instant", "clock": "wall", "name": name,
            "cat": cat, "ts": time.time(), "dur": 0.0,
            "proc": f"repro pid {os.getpid()}", "lane": lane,
            "args": dict(args or {}),
        })

    # -- simulated-cycle events ---------------------------------------------

    def sim_span(self, name: str, cat: str, start_cycle: int,
                 end_cycle: int, lane: str = "core",
                 args: dict | None = None) -> None:
        self._emit({
            "kind": "span", "clock": "sim", "name": name, "cat": cat,
            "ts": int(start_cycle),
            "dur": int(end_cycle) - int(start_cycle),
            "proc": f"sim {_SIM_LABEL.get()}", "lane": lane,
            "args": dict(args or {}),
        })

    def sim_instant(self, name: str, cat: str, cycle: int,
                    lane: str = "core", args: dict | None = None) -> None:
        self._emit({
            "kind": "instant", "clock": "sim", "name": name, "cat": cat,
            "ts": int(cycle), "dur": 0,
            "proc": f"sim {_SIM_LABEL.get()}", "lane": lane,
            "args": dict(args or {}),
        })


# -- module-level state -------------------------------------------------------


def enable(jsonl_dir: str | Path | None = None,
           keep_in_memory: bool | None = None) -> Tracer:
    """Install the process tracer and flip the hot-path guard on.

    Idempotent per configuration: enabling twice with the same sink
    keeps the existing tracer (and its recorded events).
    """
    global ENABLED, _TRACER
    if _TRACER is not None and ENABLED:
        same_sink = (_TRACER.jsonl_dir is None if jsonl_dir is None
                     else _TRACER.jsonl_dir == Path(jsonl_dir))
        if same_sink:
            return _TRACER
        _TRACER.close()
    _TRACER = Tracer(jsonl_dir=jsonl_dir, keep_in_memory=keep_in_memory)
    ENABLED = True
    return _TRACER


def disable() -> None:
    """Tear the tracer down; instrumentation reverts to zero-overhead."""
    global ENABLED, _TRACER
    ENABLED = False
    if _TRACER is not None:
        _TRACER.close()
        _TRACER = None


def is_enabled() -> bool:
    return ENABLED


def tracer() -> Tracer:
    """The active tracer; call only behind an ``ENABLED`` check."""
    if _TRACER is None:
        raise RuntimeError(
            "observability is disabled; call repro.obs.enable() first")
    return _TRACER


def sink_dir() -> str | None:
    """JSONL sink directory of the active tracer (``None`` when the
    tracer is disabled or memory-only).  The sweep runner forwards this
    to pool workers so spawned processes re-enable with the same sink."""
    if not ENABLED or _TRACER is None or _TRACER.jsonl_dir is None:
        return None
    return str(_TRACER.jsonl_dir)


def ensure_worker(obs_dir: str | None) -> None:
    """Worker-process entry hook: adopt the parent's obs configuration.

    Forked workers usually inherit the enabled tracer (whose pid check
    re-opens a per-process segment); spawned workers start cold and
    enable here.  ``None`` means the parent ran without observability.
    """
    if obs_dir is not None and not ENABLED:
        enable(jsonl_dir=obs_dir, keep_in_memory=False)


def sim_label() -> str:
    """The label of the current simulated-cycle timeline."""
    return _SIM_LABEL.get()


@contextmanager
def sim_context(label: str):
    """Name the simulated-cycle timeline for the ``with`` body.

    Every sim event emitted inside lands on the track ``sim <label>``
    (one track per workload in the merged Perfetto timeline).
    """
    token = _SIM_LABEL.set(label)
    try:
        yield
    finally:
        _SIM_LABEL.reset(token)
