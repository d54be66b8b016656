"""Chrome trace-event JSON export (loadable at https://ui.perfetto.dev).

The exporter maps the tracer's two clocks onto Perfetto tracks:

* each ``(os pid, proc)`` pair becomes one *process* track — wall-clock
  events group per real process (``repro pid 1234``), simulated-cycle
  events group per workload (``sim j3d27pt/...``);
* each ``lane`` becomes a *thread* row inside its process track.

Wall timestamps (epoch seconds) are normalized to the earliest event
and scaled to microseconds — the native trace-event unit — so a
campaign's processes share one comparable timeline.  Simulated-cycle
timestamps use the fixed mapping **1 cycle = 1 µs**, which keeps cycle
arithmetic readable in the Perfetto UI (a 27 000-cycle run renders as
27 ms).

Output format (the "JSON Array Format with metadata" flavor)::

    {"traceEvents": [
        {"ph": "M", "name": "process_name", ...},   # track naming
        {"ph": "X", "ts": ..., "dur": ..., ...},    # spans
        {"ph": "i", "ts": ..., "s": "t", ...},      # instants
     ],
     "displayTimeUnit": "ms"}
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

from repro.obs.spans import Tracer

__all__ = [
    "chrome_trace",
    "export_dir",
    "load_segments",
    "recorder_events",
    "write_trace",
]

#: Microseconds per wall second / per simulated cycle.
_US_PER_SECOND = 1_000_000
_US_PER_CYCLE = 1


def _sort_key(event: dict) -> tuple:
    return (event.get("clock", ""), event.get("proc", ""),
            event.get("lane", ""), event.get("ts", 0))


def chrome_trace(events: list[dict]) -> dict:
    """Convert tracer event records into a Chrome trace-event document."""
    events = sorted(events, key=_sort_key)

    # Stable numeric ids: pids per (clock, proc[, os pid]) process
    # track, tids per lane within it.  Wall tracks keep the real pid in
    # the key so two campaign processes don't collapse into one track.
    pids: dict[tuple, int] = {}
    tids: dict[tuple, int] = {}
    trace_events: list[dict] = []

    wall_ts = [e["ts"] for e in events if e.get("clock") == "wall"]
    wall_origin = min(wall_ts) if wall_ts else 0.0

    for event in events:
        clock = event.get("clock", "wall")
        proc = event.get("proc", "repro")
        lane = event.get("lane", "main")
        proc_key = (clock, proc, event.get("pid") if clock == "wall" else 0)
        if proc_key not in pids:
            pids[proc_key] = len(pids) + 1
            trace_events.append({
                "ph": "M", "name": "process_name", "pid": pids[proc_key],
                "tid": 0, "args": {"name": proc},
            })
        pid = pids[proc_key]
        lane_key = (proc_key, lane)
        if lane_key not in tids:
            tids[lane_key] = sum(1 for k in tids if k[0] == proc_key) + 1
            trace_events.append({
                "ph": "M", "name": "thread_name", "pid": pid,
                "tid": tids[lane_key], "args": {"name": lane},
            })
        tid = tids[lane_key]

        if clock == "wall":
            ts = (event["ts"] - wall_origin) * _US_PER_SECOND
            dur = event.get("dur", 0.0) * _US_PER_SECOND
        else:
            ts = event["ts"] * _US_PER_CYCLE
            dur = event.get("dur", 0) * _US_PER_CYCLE
        record = {
            "name": event.get("name", "?"),
            "cat": event.get("cat", "obs"),
            "pid": pid, "tid": tid,
            "ts": max(0.0, round(ts, 3)),
            "args": dict(event.get("args", {})),
        }
        if event.get("kind") == "instant":
            record["ph"] = "i"
            record["s"] = "t"
        else:
            record["ph"] = "X"
            record["dur"] = max(0.0, round(dur, 3))
        trace_events.append(record)

    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def recorder_events(trace, label: str = "core") -> list[dict]:
    """Convert :class:`repro.trace.TraceRecorder` issue events into
    tracer-shaped sim records (one 1-cycle slot per issue event)."""
    events: list[dict] = []
    for e in trace.fp_events:
        events.append({
            "kind": "span", "clock": "sim", "name": e.text,
            "cat": f"fp.{e.kind}", "ts": e.cycle, "dur": 1, "pid": 0,
            "proc": f"sim {label}", "lane": "fp issue",
            "args": {"kind": e.kind, "chain_valid": e.chain_valid,
                     "pipe_occupancy": e.pipe_occupancy},
        })
    for e in trace.int_events:
        events.append({
            "kind": "span", "clock": "sim", "name": e.text,
            "cat": "int.dispatch" if e.dispatched else "int.issue",
            "ts": e.cycle, "dur": 1, "pid": 0,
            "proc": f"sim {label}", "lane": "int issue",
            "args": {"dispatched": e.dispatched},
        })
    return events


def _read_segments(obs_dir: str | Path) -> tuple[list[dict], int]:
    """Every event of the per-process ``spans-*.jsonl`` segments in a
    directory, and how many malformed lines were skipped: a worker
    killed mid-write leaves a torn last line."""
    events: list[dict] = []
    skipped = 0
    for segment in sorted(Path(obs_dir).glob("spans-*.jsonl")):
        with open(segment, errors="replace") as fh:
            for line in filter(None, map(str.strip, fh)):
                try:
                    events.append(json.loads(line))
                except json.JSONDecodeError:
                    skipped += 1
    return events, skipped


def load_segments(obs_dir: str | Path) -> list[dict]:
    """Read every per-process ``spans-*.jsonl`` segment in a directory,
    skipping (with a warning that counts them) malformed lines."""
    events, skipped = _read_segments(obs_dir)
    if skipped:
        warnings.warn(f"span segments in {obs_dir}: skipped {skipped} "
                      f"malformed line(s)", stacklevel=2)
    return events


def write_trace(path: str | Path, events: list[dict],
                extra: dict | None = None) -> Path:
    """Write events as one Chrome trace-event JSON file."""
    path = Path(path)
    doc = chrome_trace(events)
    if extra:
        doc["metadata"] = extra
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return path


def export_dir(obs_dir: str | Path, tracer: Tracer | None = None,
               extra: dict | None = None) -> Path:
    """Merge all span segments under ``obs_dir`` into ``trace.json``.

    Flushes/closes the given tracer first so its own segment is
    complete on disk before the merge.  Malformed segment lines are
    skipped; the trace metadata counts them as
    ``malformed_span_lines``.
    """
    obs_dir = Path(obs_dir)
    if tracer is not None:
        tracer.close()
    events, skipped = _read_segments(obs_dir)
    if tracer is not None and tracer.keep_in_memory:
        events.extend(tracer.events)
    return write_trace(obs_dir / "trace.json", events,
                       extra={**(extra or {}), "malformed_span_lines": skipped})
