"""Campaign execution: serial or process-parallel, with result caching.

Each simulation is a single-threaded pure-Python :class:`Cluster` run, so
fanning points out over worker processes is a near-linear wall-clock win
on multi-core hosts.  :class:`WorkerPool`, the one owner of those
processes, runs both campaigns and the serve scheduler.  The parent
process owns the cache; workers only compute and return picklable
results, so there is exactly one writer and no lock file.

Failure isolation: a point that raises is an ``"error"`` outcome with
its traceback, and a worker that dies is replaced and its point re-run
(see :class:`WorkerPool`, whose one monitor thread watches every
worker).  The per-point ``timeout`` is enforced *inside* the executing
process via ``SIGALRM`` (wall-clock from the point's own start), so a
timed-out worker survives and picks up the next point; the monitor's
backstop kills a worker that hangs somewhere signals cannot reach.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import signal
import socket
import stat
import threading
import time
import traceback
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from multiprocessing import connection
from multiprocessing.process import BaseProcess

from repro.api.cancel import CancelToken
from repro.api.parse import parse_engine
from repro.api.result import Result
from repro.api.workloads import Workload
from repro.core.config import CoreConfig
from repro.obs import spans as _obs
from repro.obs.metrics import METRICS, campaign_obs
from repro.sweep.cache import ResultCache, package_version, point_key
from repro.sweep.spec import SweepSpec

__all__ = [
    "Campaign",
    "MAX_WORKER_CRASHES",
    "Outcome",
    "SweepRunner",
    "WorkerPool",
    "point_worker",
    "record_outcome",
]

#: Worker deaths in a row one point may cause before it becomes an
#: ``"error"`` outcome: enough to ride out a worker lost to a stray
#: signal or the OOM killer, few enough that a point which kills every
#: worker it lands on ("poison") cannot retry forever.
MAX_WORKER_CRASHES = 3

#: Seconds the parent-side hung-worker backstop waits beyond three times
#: a point's timeout before it kills the worker (the real budget is the
#: in-worker SIGALRM; the slack absorbs worker start-up).
BACKSTOP_SLACK_S = 30.0

#: Seconds a worker may hold a point without using any CPU time before
#: the pool judges it hung, timeout or not: a point only computes, so a
#: worker idle that long never received its point or is deadlocked (a
#: lock another thread of the parent held at the fork, say).
HUNG_WORKER_S = 10.0

#: Workers fork on every platform: they inherit the execution layer.
_FORK = multiprocessing.get_context("fork")


class _PointTimeout(Exception):
    """Raised by the SIGALRM handler when a point's budget expires."""


def _raise_point_timeout(signum, frame):
    raise _PointTimeout()


def _import_execution_layer() -> None:
    """Import what a point runs, in the parent, before a worker forks
    from it: no worker then imports numpy and the simulator itself, and
    a pool that never starts a worker (a server that only answers from
    its store) never loads them.  The engines' own modules
    (``numpy.random``, ``repro.core.fastpath``, ``repro.core.uops``)
    stay the workers': in the parent they cost a server 1-10 MB of
    resident memory each (``fastpath`` mostly for compiling its source
    where no bytecode cache exists)."""
    import repro.api.execute  # noqa: F401
    import repro.eval.system_runner  # noqa: F401


def _worker_main(conn: connection.Connection) -> None:
    """Run each point the pipe brings and answer it, until the parent
    closes the pipe.  Workers ignore SIGINT: a terminal Ctrl-C reaches
    the whole process group, and the *parent* owns the shutdown story
    (cooperative cancellation or a clean drain) -- a worker that dies
    mid-point to the shared signal would count as a crash instead.
    Workers stay bound by their per-point SIGALRM budgets and die with
    the parent.

    A worker also closes every socket it inherited but its own pipe: a
    worker forked while ``repro serve`` streams a job's events would
    otherwise hold that connection open after the server closes it."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        fds = [int(fd) for fd in os.listdir("/dev/fd")]
    except OSError:  # no descriptor directory on this platform
        fds = []
    for fd in fds:
        try:
            if fd != conn.fileno() and stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:  # the descriptor listdir itself used
            pass
    while True:
        try:
            conn.send(point_worker(*conn.recv()))
        except (EOFError, OSError):  # the parent closed the pipe, or died
            return


def execute_workload(point: Workload, **kwargs) -> Result:
    """:func:`repro.api.execute.execute_workload`, imported on first
    use: a campaign served from the cache never loads the simulator."""
    from repro.api.execute import execute_workload as execute

    return execute(point, **kwargs)


def point_worker(point: Workload, base_cfg: CoreConfig | None,
            max_cycles: int | None,
            timeout: float | None = None,
            engine: str | None = None,
            obs_dir: str | None = None) -> tuple[str, object, float]:
    """Pool entry point: never raises, always returns a picklable triple.

    The timeout alarm only engages on platforms with ``setitimer`` and
    when running on the main thread (always true for pool workers);
    elsewhere points simply run to completion.

    ``obs_dir`` carries the parent's telemetry sink: when set, the
    worker (re-)enables observability writing its own per-process span
    segment there and wraps the point in a ``sweep.point`` span.
    """
    start = time.perf_counter()
    _obs.ensure_worker(obs_dir)
    use_alarm = (timeout is not None and hasattr(signal, "setitimer")
                 and threading.current_thread() is threading.main_thread())
    old_handler = None
    try:
        if use_alarm:
            old_handler = signal.signal(signal.SIGALRM,
                                        _raise_point_timeout)
            signal.setitimer(signal.ITIMER_REAL, max(timeout, 1e-6))
        if _obs.ENABLED:
            with _obs.tracer().span("sweep.point", "sweep",
                                    args={"point": point.label}) as sargs:
                result = execute_workload(point, base_cfg=base_cfg,
                                          max_cycles=max_cycles,
                                          engine=engine)
                sargs["status"] = "ok"
        else:
            result = execute_workload(point, base_cfg=base_cfg,
                                      max_cycles=max_cycles, engine=engine)
        return "ok", result, time.perf_counter() - start
    except _PointTimeout:
        return "timeout", f"exceeded {timeout}s budget", \
            time.perf_counter() - start
    except Exception:
        return "error", traceback.format_exc(), time.perf_counter() - start
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old_handler)


@dataclass(eq=False)
class _Slot:
    """One worker process, the parent's end of its pipe, its point."""

    process: BaseProcess | None = None
    conn: connection.Connection | None = None
    point: Workload | None = None
    timeout: float | None = None
    done: Callable[[str, object, float], None] | None = None
    start: float = 0.0
    crashes: int = 0
    deadline: float | None = None   # of the backstop; None: no timeout
    #: The worker's CPU time at the monitor's last look at this point.
    cpu: int | None = None
    failed: str | None = None       # why no worker could be started


class WorkerPool:
    """The one owner of simulation worker processes.

    Each of the ``workers`` slots owns one forked process that runs
    :func:`point_worker`, bound to one session's ``base_cfg``,
    ``max_cycles`` and ``engine``, on each point its pipe brings.
    :meth:`submit` starts a point on a free slot; ``done(status,
    payload, seconds)`` is called once per point, after the slot is
    free again, on the pool's one thread: ``worker-monitor``, which
    waits on every busy worker at once.  Callers keep at most
    ``workers`` points in flight and dispatch the next from ``done``.

    A worker's death is charged to the one point it ran: the pool
    replaces the worker and re-runs the point, which becomes an
    ``"error"`` only after :data:`MAX_WORKER_CRASHES` deaths in a row.
    A worker that holds a point and uses no CPU time for
    :data:`HUNG_WORKER_S` is hung: the monitor kills it, and that counts
    as its death, timeout or not.  A point still running at the
    backstop (three times its timeout plus :data:`BACKSTOP_SLACK_S`)
    has its worker killed and becomes a ``"timeout"``.  :attr:`crashes`
    counts every worker death.
    """

    def __init__(self, workers: int, base_cfg: CoreConfig | None = None,
                 max_cycles: int | None = None,
                 engine: str | None = None):
        self.workers = workers
        self._bound = (base_cfg, max_cycles)
        self._engine = engine
        self._lock = threading.Lock()
        self._slots = [_Slot() for _ in range(workers)]
        self._closed = False
        self.crashes = 0
        # The monitor runs from the first point until the pool is closed
        # with no point left in flight; a byte on ``_wake`` wakes it.
        self._monitor: threading.Thread | None = None
        self._wake: socket.socket | None = None

    @property
    def inflight(self) -> int:
        with self._lock:
            return sum(slot.point is not None for slot in self._slots)

    @property
    def live_workers(self) -> int:
        """Slots whose worker process is alive (workers start on a
        slot's first point and are replaced after a death)."""
        with self._lock:
            return sum(slot.process is not None and slot.process.is_alive()
                       for slot in self._slots)

    def submit(self, point: Workload, timeout: float | None,
               done: Callable[[str, object, float], None]) -> None:
        """Start ``point`` on a free worker; ``done`` reports it."""
        with self._lock:
            free = [slot for slot in self._slots if slot.point is None]
            if self._closed or not free:
                raise RuntimeError("worker pool is closed" if self._closed
                                   else "all workers are busy")
            slot = free[0]
            slot.point, slot.timeout, slot.done = point, timeout, done
            slot.start, slot.crashes = time.perf_counter(), 0
            try:
                self._start(slot)
            except Exception:  # no worker can be spawned (EAGAIN, EMFILE)
                # The monitor reports it, as every point: ``done`` submits.
                self._discard(slot)
                slot.failed = traceback.format_exc()
            if self._monitor is None:
                self._wake, wake = socket.socketpair()
                self._monitor = threading.Thread(
                    target=self._watch, args=(wake,), daemon=True,
                    name="worker-monitor")
                self._monitor.start()
            self._wake.send(b"\0")

    def _start(self, slot: _Slot) -> None:
        # Callers hold self._lock.  Hands the slot's point to its worker,
        # forking a new one when the slot has none alive.
        if slot.process is not None and not slot.process.is_alive():
            self.crashes += 1  # its idle worker died since the last point
            self._discard(slot)
        if slot.process is None:
            _import_execution_layer()
            slot.conn, child = _FORK.Pipe()
            try:
                process = _FORK.Process(target=_worker_main, args=(child,),
                                        daemon=True)
                process.start()
                slot.process = process
            finally:
                child.close()
        slot.deadline = None if slot.timeout is None else \
            time.monotonic() + 3.0 * slot.timeout + BACKSTOP_SLACK_S
        slot.cpu = None
        try:
            slot.conn.send((slot.point, *self._bound, slot.timeout,
                            self._engine, _obs.sink_dir()))
        except OSError:  # the worker died just now: the monitor sees it
            pass

    def _discard(self, slot: _Slot) -> None:
        # Callers hold self._lock.  Ends the slot's worker: killed while
        # the slot holds a point, else it exits as its pipe closes.
        if slot.conn is not None:
            slot.conn.close()
        if slot.process is not None:
            if slot.point is not None:
                slot.process.kill()
            slot.process.join()
        slot.conn = slot.process = None

    def _free(self, slot: _Slot, status: str, payload,
              seconds: float | None = None) -> Callable[[], None]:
        # Callers hold self._lock.  Frees the slot, ending its worker once
        # the pool is closed, and returns the report of its point for the
        # caller to make outside the lock.
        if self._closed:
            self._discard(slot)
        if seconds is None:
            seconds = time.perf_counter() - slot.start
        report = partial(slot.done, status, payload, seconds)
        slot.point = slot.done = slot.failed = None
        return report

    def _died(self, slot: _Slot, how: str = "") -> Callable[[], None] | None:
        # Callers hold self._lock.  Counts the death of the slot's worker
        # (killing it if it was hung) and runs its point again on a fresh
        # one; returns the report when the point is given up instead.
        self.crashes += 1
        slot.crashes += 1
        self._discard(slot)
        if not self._closed and slot.crashes < MAX_WORKER_CRASHES:
            try:
                self._start(slot)
                return None
            except Exception:  # no worker can be spawned: give it up
                self._discard(slot)
        return self._free(slot, "cancelled" if self._closed else "error",
                          f"worker died {slot.crashes} time(s) running "
                          f"this point{how}")

    def _check(self, slot: _Slot, now: float,
               look: bool) -> Callable[[], None] | None:
        # Callers hold self._lock.  The report of the busy slot's point
        # once it is over, else None; ``look`` checks its CPU time too.
        if slot.failed is not None:
            return self._free(slot, "error", slot.failed)
        if slot.conn.poll():
            try:
                return self._free(slot, *slot.conn.recv())
            except (EOFError, OSError):  # the worker died
                return self._died(slot)
            except Exception:  # e.g. a result that fails to unpickle
                return self._free(slot, "error", traceback.format_exc())
        if not slot.process.is_alive():
            return self._died(slot)
        if slot.deadline is not None and now >= slot.deadline:
            self._discard(slot)
            return self._free(slot, "timeout", f"exceeded {slot.timeout}s "
                              f"budget; hung worker killed")
        if look:  # user plus system CPU time, in clock ticks
            try:
                with open(f"/proc/{slot.process.pid}/stat", "rb") as file:
                    fields = file.read().rsplit(b")", 1)[1].split()
            except OSError:  # the worker is gone, or no /proc here
                return None
            cpu, slot.cpu = slot.cpu, int(fields[11]) + int(fields[12])
            if cpu == slot.cpu:
                return self._died(slot, "; the last one hung")
        return None

    def _watch(self, wake: socket.socket) -> None:
        # Runs on the worker-monitor thread.
        look = time.monotonic() + HUNG_WORKER_S
        while True:
            with self._lock:
                busy = [slot for slot in self._slots
                        if slot.point is not None]
                if self._closed and not busy:
                    wake.close()
                    self._wake.close()
                    self._monitor = self._wake = None
                    return
                # Descriptors, not connections: close(kill) may close one.
                waits = [wake] + [fd for slot in busy if slot.process
                                  for fd in (slot.conn.fileno(),
                                             slot.process.sentinel)]
                due = min([look] + [slot.deadline for slot in busy
                                    if slot.deadline is not None])
            if wake in connection.wait(waits,
                                       max(0.0, due - time.monotonic())):
                wake.recv(4096)
            now = time.monotonic()
            looking = now >= look
            if looking:
                look = now + HUNG_WORKER_S
            with self._lock:
                reports = [self._check(slot, now, looking)
                           for slot in self._slots if slot.point is not None]
            for report in filter(None, reports):
                try:
                    report()
                except Exception:  # a faulty ``done`` strands no other point
                    traceback.print_exc()

    def close(self, wait: bool = True, kill: str | None = None) -> None:
        """Accept no more points; in-flight points finish and report
        (``wait`` blocks until they have).  With ``kill``, every worker
        is killed now instead, and each in-flight point is reported
        ``"cancelled"`` with ``kill`` as the reason."""
        with self._lock:
            self._closed = True
            reports = [self._free(slot, "cancelled", kill)
                       for slot in self._slots
                       if kill and slot.point is not None]
            for slot in self._slots:
                if slot.point is None:
                    self._discard(slot)
            monitor = self._monitor
            if monitor is not None:
                self._wake.send(b"\0")
        for report in reports:
            report()
        if wait and monitor not in (None, threading.current_thread()):
            monitor.join()


@dataclass
class Outcome:
    """One point's fate in a campaign."""

    point: Workload
    status: str                  # "ok" | "error" | "timeout" | "cancelled"
    result: Result | None = None
    error: str | None = None
    seconds: float = 0.0
    cached: bool = False
    key: str | None = None

    @classmethod
    def from_worker(cls, point: Workload, key: str | None, status: str,
                    payload, seconds: float) -> "Outcome":
        """The outcome of a :func:`point_worker` triple."""
        if status == "ok":
            return cls(point=point, status="ok", result=payload,
                       seconds=seconds, key=key)
        return cls(point=point, status=status, error=payload,
                   seconds=seconds, key=key)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def record(self) -> dict:
        """JSON-ready form (used by ``--json`` export)."""
        return {
            "point": self.point.canonical(),
            "label": self.point.label,
            "status": self.status,
            "cached": self.cached,
            "seconds": round(self.seconds, 4),
            "error": self.error,
            "result": self.result.to_dict() if self.result else None,
        }


@dataclass
class Campaign:
    """All outcomes of one :meth:`SweepRunner.run`, in point order."""

    outcomes: list[Outcome] = field(default_factory=list)
    seconds: float = 0.0
    #: Aggregated telemetry (``repro.obs.metrics.campaign_obs``); only
    #: filled when observability was enabled during the run.
    obs: dict | None = None
    #: Triage accounting (``Session.map(fidelity="triage")``): point /
    #: estimated / selected counts.  ``None`` for ordinary campaigns.
    triage: dict | None = None
    #: True when the campaign stopped early -- a tripped
    #: :class:`~repro.api.cancel.CancelToken` or a KeyboardInterrupt --
    #: so undispatched points carry ``"cancelled"`` outcomes.
    interrupted: bool = False

    def __iter__(self):
        return iter(self.outcomes)

    def __len__(self) -> int:
        return len(self.outcomes)

    @property
    def ok(self) -> list[Outcome]:
        return [o for o in self.outcomes if o.ok]

    @property
    def failed(self) -> list[Outcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def ok_count(self) -> int:
        return sum(1 for o in self.outcomes if o.ok)

    @property
    def error_count(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "error")

    @property
    def timeout_count(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "timeout")

    @property
    def cancelled_count(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "cancelled")

    @property
    def cached_count(self) -> int:
        return sum(o.cached for o in self.outcomes)

    @property
    def hit_rate(self) -> float:
        return self.cached_count / len(self.outcomes) if self.outcomes \
            else 0.0

    def summary(self) -> dict:
        """JSON-ready campaign roll-up (counts, hit rate, telemetry)."""
        summary = {
            "points": len(self.outcomes),
            "ok": self.ok_count,
            "errors": self.error_count,
            "timeouts": self.timeout_count,
            "cancelled": self.cancelled_count,
            "interrupted": self.interrupted,
            "cached_count": self.cached_count,
            "hit_rate": round(self.hit_rate, 4),
            "seconds": round(self.seconds, 3),
        }
        if self.obs is not None:
            summary["obs"] = self.obs
        if self.triage is not None:
            summary["triage"] = self.triage
        return summary

    def results(self) -> dict[Workload, Result]:
        """Workload -> result for every successful outcome."""
        return {o.point: o.result for o in self.outcomes if o.ok}

    def raise_on_failure(self) -> None:
        """Propagate the first failure (legacy serial-loop semantics)."""
        for outcome in self.outcomes:
            if not outcome.ok:
                raise RuntimeError(
                    f"sweep point {outcome.point.label} "
                    f"{outcome.status}:\n{outcome.error or ''}")


def record_outcome(cache: ResultCache | None, outcome: Outcome,
                   version: str) -> None:
    """Write one fresh outcome to the store, for campaigns and the serve
    scheduler alike.  Failures are never served as results, but the
    store keeps the last ``error``/``timeout`` per key so ``repro
    audit`` can classify gaps and budget retries; cancelled points are
    not failures, and write nothing."""
    if cache is None or outcome.key is None or outcome.cached:
        return
    if outcome.ok:
        cache.put(outcome.key, outcome.point, outcome.result,
                  outcome.seconds, version)
    elif outcome.status in ("error", "timeout"):
        cache.put_failure(outcome.key, outcome.point, outcome.status,
                          outcome.error, outcome.seconds, version)


class SweepRunner:
    """Executes campaigns of points with caching and process fan-out.

    ``workers=None`` sizes the pool to the host's cores; ``workers<=1``
    runs serially in-process (no pickling -- results are the very objects
    the eval runner produced, which the figure harnesses rely on for
    bit-identical reproduction).

    ``max_cycles=None`` (default) uses the per-workload backend budgets
    (5M single-cluster, 20M system) -- identical to ``Session.run``, so
    what a cache holds never depends on which front door simulated it.
    """

    def __init__(self, cache: ResultCache | str | None = None,
                 workers: int | None = None,
                 timeout: float | None = None,
                 base_cfg: CoreConfig | None = None,
                 max_cycles: int | None = None,
                 engine: str | None = None):
        cache = ResultCache.coerce(cache)
        if engine is not None:
            parse_engine(engine)
        self.cache = cache
        self.workers = workers
        self.timeout = timeout
        self.base_cfg = base_cfg
        self.max_cycles = max_cycles
        #: Campaign-wide engine selection; a per-point ``("engine", ...)``
        #: override still wins.  Part of every cache key.
        self.engine = engine

    def run(self, spec_or_points, progress=None,
            cancel: CancelToken | None = None) -> Campaign:
        """Execute a :class:`SweepSpec` or an explicit list of points.

        ``progress(outcome, done, total)`` is called as each outcome
        lands (cache hits first, then live results in completion order).

        ``cancel`` is a cooperative :class:`~repro.api.cancel.
        CancelToken`: once tripped, no further point is dispatched --
        in-flight points drain (bounded by their own timeouts, results
        kept and cached) and every undispatched point lands as a
        ``"cancelled"`` outcome.  A KeyboardInterrupt (SIGINT without a
        token) is handled the same way, except in-flight workers are
        terminated instead of drained; either way the campaign returns
        with :attr:`Campaign.interrupted` set instead of raising, the
        failure log holds everything that already failed, and no pool
        worker is orphaned.
        """
        if isinstance(spec_or_points, SweepSpec):
            points = spec_or_points.points()
        else:
            points = list(spec_or_points)
        start = time.perf_counter()
        version = package_version()

        outcomes: dict[int, Outcome] = {}
        pending: list[tuple[int, Workload, str | None]] = []
        for index, point in enumerate(points):
            key = None
            if self.cache is not None:
                key = point_key(point, version, self.base_cfg,
                                engine=self.engine)
                cached = self.cache.get(key)
                if cached is not None:
                    outcomes[index] = Outcome(
                        point=point, status="ok", result=cached,
                        cached=True, key=key)
                    if _obs.ENABLED:
                        METRICS.inc("cache.hit")
                        _obs.tracer().instant(
                            "cache.hit", "sweep",
                            args={"point": point.label})
                    continue
            pending.append((index, point, key))

        done = 0
        if progress:
            for index in sorted(outcomes):
                done += 1
                progress(outcomes[index], done, len(points))
        done = len(outcomes)

        def land(index: int, outcome: Outcome) -> None:
            nonlocal done
            outcomes[index] = outcome
            record_outcome(self.cache, outcome, version)
            if _obs.ENABLED:
                if outcome.key is not None:
                    METRICS.inc("cache.miss")
                METRICS.observe("sweep.point_seconds", outcome.seconds)
            done += 1
            if progress:
                progress(outcome, done, len(points))

        interrupted = False
        if pending:
            serial = self.workers is not None and self.workers <= 1
            execute = self._run_serial if serial else self._run_parallel
            interrupted = execute(pending, cancel, land)
            for index, point, key in pending:
                if index not in outcomes:
                    land(index, Outcome(
                        point=point, status="cancelled", key=key,
                        error="interrupted before dispatch" if interrupted
                        else "cancelled before dispatch"))

        ordered = [outcomes[i] for i in sorted(outcomes)]
        campaign = Campaign(outcomes=ordered,
                            seconds=time.perf_counter() - start,
                            interrupted=interrupted)
        if _obs.ENABLED:
            campaign.obs = campaign_obs(ordered, campaign.seconds)
        return campaign

    def _run_serial(self, pending, cancel: CancelToken | None,
                    land) -> bool:
        obs_dir = _obs.sink_dir()
        for index, point, key in pending:
            if cancel is not None and cancel.cancelled:
                return False
            try:
                triple = point_worker(point, self.base_cfg,
                                      self.max_cycles, self.timeout,
                                      self.engine, obs_dir)
            except KeyboardInterrupt:
                land(index, Outcome(point=point, status="cancelled",
                                    key=key,
                                    error="interrupted mid-run (SIGINT)"))
                return True
            land(index, Outcome.from_worker(point, key, *triple))
        return False

    def _run_parallel(self, pending, cancel: CancelToken | None,
                      land) -> bool:
        """Keep ``workers`` points in flight on a :class:`WorkerPool`,
        dispatching the next one from each completion; outcomes land on
        this thread.  Cancellation just stops dispatching; SIGINT
        terminates the pool."""
        workers = min(self.workers or os.cpu_count() or 1, len(pending))
        pool = WorkerPool(workers, self.base_cfg, self.max_cycles,
                          self.engine)
        todo = deque(pending)
        landed: queue.SimpleQueue = queue.SimpleQueue()
        lock = threading.Lock()
        stopped = interrupted = False

        def dispatch() -> None:
            with lock:
                while (todo and not stopped and pool.inflight < workers
                       and not (cancel is not None and cancel.cancelled)):
                    index, point, key = todo.popleft()
                    pool.submit(point, self.timeout,
                                partial(finish, index, point, key))

        def finish(index, point, key, *triple) -> None:
            landed.put((index, Outcome.from_worker(point, key, *triple)))
            dispatch()

        received = 0
        try:
            dispatch()
            while True:
                with lock:
                    if received == len(pending) - len(todo):
                        break
                try:
                    item = landed.get()
                except KeyboardInterrupt:
                    # In-flight points land as cancelled; nothing more
                    # is dispatched.
                    with lock:
                        stopped = interrupted = True
                    pool.close(kill="interrupted mid-run (SIGINT)")
                    continue
                received += 1
                land(*item)
        finally:
            with lock:  # no dispatch may race the close below
                stopped = True
            pool.close()
        return interrupted
