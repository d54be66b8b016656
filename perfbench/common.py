"""Shared plumbing: statistics, set-up probes, the run ledger."""

from __future__ import annotations

import json
import multiprocessing
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh-interpreter set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60.0

#: The reference loop's length, and its time on the nominal host that
#: ``fig3-cold``'s times are scaled to (see :func:`reference_sample`).
REFERENCE_ITERS = 1_200_000
REFERENCE_NOMINAL_S = 0.075


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def own_rss_mb() -> float:
    """Largest resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb() -> float:
    """Largest resident set of any waited-for child so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def repeat(fn, seconds: float) -> list:
    """Call ``fn()`` until ``seconds`` have passed (at least once);
    return the records it produced."""
    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        records.append(fn())
    return records


def reference_sample() -> float:
    """Seconds one run of a fixed pure-Python loop takes now.

    The shared host's speed drifts by tens of percent within seconds,
    and the simulator and this loop slow down together.  Sampled
    between the points of a serial campaign, the loop's mean time
    measures the host's speed over that campaign."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERS):
        total += i
    return time.perf_counter() - start


def host_factor(*samples: float) -> float:
    """What scales a time measured between ``samples`` to the nominal
    host speed."""
    return REFERENCE_NOMINAL_S * len(samples) / sum(samples)


def reap_children(timeout: float = 30.0) -> None:
    """Wait for every worker process this process started (the serve
    scheduler shuts its pool down without waiting); kill stragglers."""
    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()


def quiesce(timeout: float = 30.0) -> None:
    """Wait for every child process and every other thread to end.

    A pool forked while another thread holds a lock can inherit the lock
    held and hang on it; the serve scheduler shuts its pool down without
    waiting, so its workers and threads outlive the server briefly."""
    reap_children(timeout)
    deadline = time.monotonic() + timeout
    for thread in threading.enumerate():
        if thread is not threading.current_thread():
            thread.join(max(0.0, deadline - time.monotonic()))


def setup_seconds(workload: str, store: Path) -> list[float]:
    """Time :data:`SETUP_PROBES` fresh interpreters from spawn until
    ``probe.py`` reports the workload's store open and its pool or
    server started.  Each time is scaled to the nominal host speed by
    the reference samples taken just before and just after it."""
    times = []
    sample = reference_sample()
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload, str(store)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline().strip()
            ready = time.perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} failed "
                               f"(exit {proc.returncode}, said {line!r})")
        before, sample = sample, reference_sample()
        times.append(ready * host_factor(before, sample))
    return times


@dataclass
class Ledger:
    """Operations attempted and failed, and the correctness checks.

    A failed check counts as a failed operation."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems
