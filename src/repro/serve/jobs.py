"""Job model and the durable job journal.

A :class:`Job` is one submission to the service: one or many
:class:`~repro.api.Workload` points, a priority, an optional per-point
timeout, per-point result records, and a lifecycle status::

    queued -> running -> done | error | timeout | cancelled

The :class:`JobStore` persists the lifecycle as an append-only JSONL
journal (``jobs.jsonl``, living beside the sharded result store, same
single-``write()``-per-line discipline).  Only *transitions* are
journaled -- never results: results are content-addressed in the
:class:`~repro.sweep.cache.ResultCache`, so a restarted server rebuilds
every job from ``replay()`` and re-resolves its points through the
cache.  Finished points come back as cache hits, unfinished points are
re-enqueued -- nothing is lost and nothing simulates twice.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from repro.api.workloads import Workload
from repro.sweep.cache import append_jsonl

__all__ = ["Job", "JobStore", "TERMINAL_STATUSES"]

#: Statuses a job never leaves.  ``interrupted`` is deliberately NOT
#: terminal: it only annotates what happened (a server died mid-job)
#: and the job is re-enqueued on the next boot.
TERMINAL_STATUSES = frozenset({"done", "error", "timeout", "cancelled"})
#: Every status the journal can hold.
STATUSES = TERMINAL_STATUSES | {"queued", "running", "interrupted"}


def new_job_id() -> str:
    return "job-" + uuid.uuid4().hex[:12]


@dataclass
class Job:
    """One submission: N workloads sharing a priority and timeout."""

    id: str
    workloads: list[Workload]
    priority: int = 10
    timeout: float | None = None
    created: float = field(default_factory=time.time)
    status: str = "queued"
    #: Per-point result records (wire schema of ``Result.to_dict()``
    #: under ``"result"``); ``None`` until the point resolves.
    results: list[dict | None] = field(default_factory=list)
    #: Monotonic progress/lifecycle event log for ``/events`` streaming.
    events: list[dict] = field(default_factory=list)
    finished: float | None = None

    def __post_init__(self) -> None:
        if not self.results:
            self.results = [None] * len(self.workloads)

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATUSES

    @property
    def done_count(self) -> int:
        return sum(1 for r in self.results if r is not None)

    def add_event(self, event: str, **fields) -> None:
        self.events.append({"event": event, "ts": time.time(),
                            "job": self.id, **fields})

    def view(self, *, results: bool = True) -> dict:
        """JSON-ready job state for ``GET /v1/jobs/{id}``."""
        view = {
            "id": self.id,
            "status": self.status,
            "priority": self.priority,
            "timeout": self.timeout,
            "created": self.created,
            "finished": self.finished,
            "points": len(self.workloads),
            "done": self.done_count,
            "workloads": [w.canonical() for w in self.workloads],
        }
        if results:
            view["results"] = list(self.results)
        return view

    # -- journal (de)serialization ------------------------------------------

    def submit_record(self) -> dict:
        return {
            "op": "submit",
            "id": self.id,
            "workloads": [w.canonical() for w in self.workloads],
            "priority": self.priority,
            "timeout": self.timeout,
            "created": self.created,
        }

    @classmethod
    def from_submit_record(cls, record: dict) -> "Job":
        """The job a journaled submission describes; raises when the
        record is incomplete or malformed (nothing is defaulted)."""
        job_id, workloads, priority, timeout, created = (record[k] for k in (
            "id", "workloads", "priority", "timeout", "created"))
        if not (isinstance(job_id, str) and isinstance(workloads, list)
                and workloads and type(priority) is int
                and type(created) in (int, float)
                and type(timeout) in (type(None), int, float)):
            raise ValueError(f"malformed submit record {job_id!r}")
        return cls(id=job_id,
                   workloads=[Workload.from_canonical(w) for w in workloads],
                   priority=priority, timeout=timeout, created=float(created))


class JobStore:
    """Append-only JSONL job journal with full-state replay.

    Two op shapes::

        {"op": "submit", "id": ..., "workloads": [...],
         "priority": ..., "timeout": ..., "created": ...}
        {"op": "status", "id": ..., "status": ..., "ts": ...}

    Appends go through :func:`repro.sweep.cache.append_jsonl`, the
    result store's own append: one ``write()`` of one line on an
    ``O_APPEND`` descriptor, starting a new line after a torn tail, so a
    crash can at worst lose the line it tore, never a later one.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self.jobs: dict[str, Job] = {}
        #: Journal lines the last :meth:`replay` skipped: torn, not a
        #: record, or a record that is incomplete, names an unknown job
        #: or an unknown status.
        self.skipped_records = 0

    # -- persistence --------------------------------------------------------

    def _append(self, record: dict) -> None:
        with self._lock:
            append_jsonl(self.path, record)

    def add(self, job: Job) -> None:
        """Register and journal a new submission."""
        self.jobs[job.id] = job
        self._append(job.submit_record())

    def set_status(self, job: Job, status: str) -> None:
        """Transition ``job`` and journal the transition."""
        job.status = status
        if status in TERMINAL_STATUSES:
            job.finished = time.time()
        self._append({"op": "status", "id": job.id, "status": status,
                      "ts": time.time()})

    def journal_bytes(self) -> int:
        """Size of the journal file (0 before its first record)."""
        try:
            return self.path.stat().st_size
        except FileNotFoundError:
            return 0

    # -- replay -------------------------------------------------------------

    def replay(self) -> list[Job]:
        """Rebuild all jobs from the journal; return the unfinished.

        Jobs whose last journaled status is non-terminal (``queued``,
        ``running``, or ``interrupted`` from a prior crash) are reset
        to ``queued`` and returned for re-enqueueing; their finished
        points will come straight back out of the result cache.
        Malformed lines (a torn final write, bit rot, a record missing a
        field) are skipped and counted in :attr:`skipped_records`.
        """
        self.jobs = {}
        self.skipped_records = 0
        if not self.path.exists():
            return []
        with open(self.path) as source:
            for raw in source:
                raw = raw.strip()
                if raw and not self._replay_line(raw):
                    self.skipped_records += 1
        pending = []
        for job in self.jobs.values():
            if job.terminal:
                job.finished = job.finished or job.created
                continue
            job.status = "queued"
            job.results = [None] * len(job.workloads)
            job.add_event("requeued", reason="journal replay")
            pending.append(job)
        pending.sort(key=lambda j: (j.priority, j.created))
        return pending

    def _replay_line(self, raw: str) -> bool:
        """Apply one journal line; False when it is not a valid op."""
        try:
            record = json.loads(raw)
        except json.JSONDecodeError:
            return False
        if not isinstance(record, dict):
            return False
        op = record.get("op")
        if op == "submit":
            try:
                job = Job.from_submit_record(record)
            except Exception:
                return False
            self.jobs[job.id] = job
            return True
        job_id, status = record.get("id"), record.get("status")
        if op != "status" or not isinstance(job_id, str) \
                or job_id not in self.jobs or not isinstance(status, str) \
                or status not in STATUSES:
            return False
        self.jobs[job_id].status = status
        return True

    def get(self, job_id: str) -> Job | None:
        return self.jobs.get(job_id)
