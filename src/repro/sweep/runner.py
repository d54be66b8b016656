"""Campaign execution: serial or process-parallel, with result caching.

Each simulation is a single-threaded pure-Python :class:`Cluster` run, so
fanning points out over worker processes is a near-linear wall-clock win
on multi-core hosts.  :class:`WorkerPool`, the one owner of those
processes, runs both campaigns and the serve scheduler.  The parent
process owns the cache; workers only compute and return picklable
results, so there is exactly one writer and no lock file.

Failure isolation: a point that raises is an ``"error"`` outcome with
its traceback, and a worker that dies is replaced and its point re-run
(see :class:`WorkerPool`).  The per-point ``timeout`` is enforced
*inside* the executing process via ``SIGALRM`` (wall-clock from the
point's own start), so a timed-out worker survives and picks up the
next point; a parent-side backstop kills a worker that hangs somewhere
signals cannot reach.
"""

from __future__ import annotations

import os
import queue
import signal
import stat
import threading
import time
import traceback
from collections import deque
from collections.abc import Callable
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
)
from dataclasses import dataclass, field
from functools import partial

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


def _pool_worker_init() -> None:
    """Pool workers ignore SIGINT: a terminal Ctrl-C reaches the whole
    process group, and the *parent* owns the shutdown story (cooperative
    cancellation or a clean drain) -- a worker that dies mid-point to
    the shared signal would count as a crash instead.  Workers stay
    bound by their per-point SIGALRM budgets and die with the parent.

    A forked worker also closes every socket it inherited: a worker
    forked while ``repro serve`` streams a job's events would otherwise
    hold that connection open after the server closes it.  Workers talk
    to the parent over pipes only."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        fds = [int(fd) for fd in os.listdir("/dev/fd")]
    except OSError:  # no descriptor directory on this platform
        fds = []
    for fd in fds:
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:  # the descriptor listdir itself used
            pass


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
    """One worker process; ``future`` is set while it runs a point."""

    executor: ProcessPoolExecutor | None = None
    future: Future | None = None
    point: Workload | None = None
    timeout: float | None = None
    done: Callable[[str, object, float], None] | None = None
    start: float = 0.0
    crashes: int = 0
    backstop: threading.Timer | None = None
    #: The worker's CPU time at the watchdog's last look at this point.
    cpu: int | None = None


def _cpu_ticks(slot: _Slot) -> int | None:
    """User plus system CPU time of the slot's worker, in clock ticks;
    None when there is no worker or ``/proc`` cannot tell."""
    for pid in list(getattr(slot.executor, "_processes", None) or {}):
        try:
            with open(f"/proc/{pid}/stat", "rb") as stat_file:
                fields = stat_file.read().rsplit(b")", 1)[1].split()
        except OSError:  # the worker is gone, or no /proc here
            return None
        return int(fields[11]) + int(fields[12])
    return None


class WorkerPool:
    """The one owner of simulation worker processes.

    Each of the ``workers`` slots is a single-process executor running
    :func:`point_worker` bound to one session's ``base_cfg``,
    ``max_cycles`` and ``engine``.  :meth:`submit` starts a point on a
    free slot; ``done(status, payload, seconds)`` is called once per
    point, on a pool thread, after the slot is free again -- callers
    keep at most ``workers`` points in flight and dispatch the next one
    from ``done``.

    A worker's death is charged to the one point it ran: the pool
    replaces the worker and re-runs the point, which becomes an
    ``"error"`` only after :data:`MAX_WORKER_CRASHES` deaths in a row.
    A worker that holds a point and uses no CPU time for
    :data:`HUNG_WORKER_S` is hung: the pool's watchdog thread kills it,
    and that counts as its death, timeout or not.  A point still running
    at the backstop (three times its timeout plus
    :data:`BACKSTOP_SLACK_S`) has its worker killed and becomes a
    ``"timeout"``.  :attr:`crashes` counts every worker death.
    """

    def __init__(self, workers: int, base_cfg: CoreConfig | None = None,
                 max_cycles: int | None = None,
                 engine: str | None = None):
        self.workers = workers
        self._bound = (base_cfg, max_cycles)
        self._engine = engine
        # Reentrant: a future that resolves before its callback is
        # registered runs the callback on the registering thread.
        self._lock = threading.RLock()
        self._slots = [_Slot() for _ in range(workers)]
        self._closed = False
        self.crashes = 0
        # The watchdog runs from the first point until the pool is
        # closed with no point left in flight.
        self._watchdog: threading.Thread | None = None
        self._wake = threading.Condition(self._lock)

    @property
    def inflight(self) -> int:
        with self._lock:
            return sum(slot.future is not None for slot in self._slots)

    @property
    def live_workers(self) -> int:
        """Slots whose worker process is alive (workers start on a
        slot's first point and are replaced after a death)."""
        with self._lock:
            return sum(
                any(proc.is_alive() for proc in list(
                    (getattr(slot.executor, "_processes", None)
                     or {}).values()))
                for slot in self._slots)

    def submit(self, point: Workload, timeout: float | None,
               done: Callable[[str, object, float], None]) -> None:
        """Start ``point`` on a free worker; ``done`` reports it."""
        with self._lock:
            free = [slot for slot in self._slots if slot.future is None]
            if self._closed or not free:
                raise RuntimeError("worker pool is closed" if self._closed
                                   else "all workers are busy")
            slot = free[0]
            slot.point, slot.timeout, slot.done = point, timeout, done
            slot.start, slot.crashes = time.perf_counter(), 0
            try:
                self._start(slot)
            except Exception:  # no worker can be spawned (EAGAIN, EMFILE)
                self._discard(slot)
                report = self._free(slot, "error", traceback.format_exc())
                # Reported from its own thread, like every other point:
                # the caller may dispatch again from ``done``.
                threading.Thread(target=report, daemon=True).start()

    def _start(self, slot: _Slot) -> None:
        # Callers hold self._lock.
        call = (point_worker, slot.point, *self._bound, slot.timeout,
                self._engine, _obs.sink_dir())
        try:
            future = self._executor(slot).submit(*call)
        except BrokenExecutor:  # its idle worker died since the last point
            self.crashes += 1
            self._discard(slot)
            future = self._executor(slot).submit(*call)
        slot.future, slot.cpu = future, None
        if self._watchdog is None:
            self._watchdog = threading.Thread(
                target=self._watch, daemon=True, name="worker-watchdog")
            self._watchdog.start()
        if slot.timeout is not None:
            slot.backstop = threading.Timer(
                3.0 * slot.timeout + BACKSTOP_SLACK_S, self._expire,
                (slot, future))
            slot.backstop.daemon = True
            slot.backstop.start()
        future.add_done_callback(partial(self._finished, slot))

    def _executor(self, slot: _Slot) -> ProcessPoolExecutor:
        if slot.executor is None:
            _import_execution_layer()
            slot.executor = ProcessPoolExecutor(
                max_workers=1, initializer=_pool_worker_init)
        return slot.executor

    def _discard(self, slot: _Slot, kill: bool = False) -> None:
        # Callers hold self._lock.
        executor, slot.executor = slot.executor, None
        if executor is None:
            return
        if kill:  # the executor has no public way to kill its worker
            for proc in list((getattr(executor, "_processes", None)
                              or {}).values()):
                proc.kill()
        executor.shutdown(wait=False, cancel_futures=True)

    def _free(self, slot: _Slot, status: str, payload,
              seconds: float | None = None) -> Callable[[], None]:
        # Callers hold self._lock.  Frees the slot and returns the report
        # of its point, for the caller to make outside the lock.
        if slot.backstop is not None:
            slot.backstop.cancel()
        slot.future = slot.backstop = None
        if self._closed:  # the watchdog may be done
            self._wake.notify()
        if seconds is None:
            seconds = time.perf_counter() - slot.start
        return partial(slot.done, status, payload, seconds)

    def _finished(self, slot: _Slot, future: Future) -> None:
        # Runs on the slot's executor thread.
        with self._lock:
            if slot.future is not future:
                return  # already reported by the backstop or close()
            try:
                report = self._free(slot, *future.result())
            except (BrokenExecutor, CancelledError):  # its worker died
                if self._rerun(slot):
                    return
                report = self._free(
                    slot, "cancelled" if self._closed else "error",
                    f"worker died {slot.crashes} time(s) running this "
                    f"point")
            except Exception:  # e.g. a result that fails to unpickle
                report = self._free(slot, "error", traceback.format_exc())
        report()

    def _rerun(self, slot: _Slot) -> bool:
        # Callers hold self._lock.  Counts the death of the slot's
        # worker; True when the point runs again on a fresh one.
        self.crashes += 1
        slot.crashes += 1
        self._discard(slot)
        if self._closed or slot.crashes >= MAX_WORKER_CRASHES:
            return False
        try:
            self._start(slot)
        except Exception:  # no worker can be spawned: give the point up
            self._discard(slot)
            return False
        return True

    def _expire(self, slot: _Slot, future: Future) -> None:
        # Runs on the backstop timer thread.
        with self._lock:
            if slot.future is not future:
                return
            self._discard(slot, kill=True)
            report = self._free(slot, "timeout", f"exceeded "
                                f"{slot.timeout}s budget; hung worker "
                                f"killed")
        report()

    def _watch(self) -> None:
        # Runs on the watchdog thread.  A worker whose CPU time has not
        # moved in a whole look's interval while it held one point is
        # killed; its point runs again as after any death.
        while True:
            reports = []
            with self._lock:
                if self._closed and not self.inflight:
                    self._watchdog = None
                    return
                if self._wake.wait(HUNG_WORKER_S):
                    continue  # woken by close() before a whole interval
                for slot in self._slots:
                    if slot.future is None:
                        continue
                    cpu, slot.cpu = slot.cpu, _cpu_ticks(slot)
                    if cpu is None or cpu != slot.cpu:
                        continue
                    self._discard(slot, kill=True)
                    if not self._rerun(slot):
                        reports.append(self._free(
                            slot, "cancelled" if self._closed else "error",
                            f"worker died {slot.crashes} time(s) running "
                            f"this point; the last one hung"))
            for report in reports:
                report()

    def close(self, wait: bool = True, kill: str | None = None) -> None:
        """Accept no more points; in-flight points finish and report
        (``wait`` blocks until they have).  With ``kill``, every worker
        is killed now instead, and each in-flight point is reported
        ``"cancelled"`` with ``kill`` as the reason."""
        with self._lock:
            self._closed = True
            self._wake.notify()
            executors = [slot.executor for slot in self._slots
                         if slot.executor is not None]
            reports = []
            if kill:
                reports = [self._free(slot, "cancelled", kill)
                           for slot in self._slots
                           if slot.future is not None]
                for slot in self._slots:
                    self._discard(slot, kill=True)
        for executor in executors:
            executor.shutdown(wait=wait)
        for report in reports:
            report()


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
        lock = threading.RLock()
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
