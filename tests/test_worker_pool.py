"""Fault injection for the shared worker pool (``repro.sweep.runner.
WorkerPool``), through both of its consumers: ``SweepRunner`` campaigns
and the serve scheduler.

Faults are injected by patching ``execute_workload`` in the runner
module before the pool forks its workers, so every worker inherits the
fault: a worker that SIGKILLs itself mid-point once (a stray kill or
the OOM killer), a "poison" point that kills every worker it lands on,
and a worker that blocks SIGALRM and hangs past its timeout.  Each has
a defined outcome, and none leaves state behind that only a restart
clears.
"""

import errno
import multiprocessing
import os
import queue
import signal
import sys
import threading
import time

import pytest

from repro import obs
from repro.api import workload
from repro.obs import spans
from repro.obs.metrics import METRICS
from repro.serve import ServeError
from repro.serve.testing import ServerThread
from repro.sweep import ResultCache, SweepRunner
from repro.sweep import cache, runner
from repro.sweep.runner import MAX_WORKER_CRASHES

POINTS = [workload("vecop", variant, n=n)
          for variant in ("baseline", "chaining", "unrolled")
          for n in (16, 32, 48, 64)]

_execute = runner.execute_workload


def _inject(monkeypatch, fault) -> None:
    """Run ``fault(point)`` before every simulation in the pool's
    workers (they fork from this process and inherit the patch)."""
    def faulty(point, **kwargs):
        fault(point)
        return _execute(point, **kwargs)

    monkeypatch.setattr(runner, "execute_workload", faulty)


def _first_time(marker) -> bool:
    """True for the first process to ask, across all workers."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return False
    return True


def _die() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def _new_children(before: set[int]) -> list:
    return [p for p in multiprocessing.active_children()
            if p.pid not in before]


def _failure_lines(store) -> int:
    path = store / "failures.jsonl"
    return len(path.read_text().splitlines()) if path.exists() else 0


#: Callables run in the parent just before every fork; empty outside
#: the tests that fill it.  Registered after ``repro.sweep.cache`` is
#: imported, so these run before its ``_APPEND_LOCK`` guard.
_BEFORE_FORK: list = []
os.register_at_fork(before=lambda: [hook() for hook in _BEFORE_FORK])


# -- sweeps -------------------------------------------------------------------


def test_worker_killed_mid_sweep_reruns_its_point(tmp_path, monkeypatch):
    victim, marker = POINTS[5], tmp_path / "killed"
    _inject(monkeypatch,
            lambda p: p == victim and _first_time(marker) and _die())
    store = tmp_path / "store"
    campaign = SweepRunner(cache=ResultCache(store), workers=2).run(POINTS)

    assert marker.exists()  # the worker really died mid-point
    assert [o.status for o in campaign] == ["ok"] * len(POINTS)
    assert _failure_lines(store) == 0
    assert ResultCache(store).verify()["failure_records"] == 0


def test_poison_point_errors_after_the_crash_cap(tmp_path, monkeypatch):
    poison = POINTS[3]
    _inject(monkeypatch, lambda p: p == poison and _die())
    store = tmp_path / "store"
    campaign = SweepRunner(cache=ResultCache(store), workers=2).run(POINTS)

    statuses = [o.status for o in campaign]
    assert statuses[3] == "error"
    assert statuses[:3] + statuses[4:] == ["ok"] * (len(POINTS) - 1)
    assert (f"worker died {MAX_WORKER_CRASHES} time(s)"
            in campaign.outcomes[3].error)
    assert _failure_lines(store) == 1
    assert ResultCache(store).verify()["failure_records"] == 1


def test_signal_immune_hang_is_a_timeout_and_later_points_run(
        tmp_path, monkeypatch):
    hang = POINTS[0]

    def fault(point):
        if point == hang:
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
            time.sleep(120)

    _inject(monkeypatch, fault)
    monkeypatch.setattr(runner, "BACKSTOP_SLACK_S", 0.5)
    before = {p.pid for p in multiprocessing.active_children()}
    points = POINTS[:6]
    start = time.monotonic()
    campaign = SweepRunner(workers=2, timeout=1.0).run(points)

    assert time.monotonic() - start < 60
    assert [o.status for o in campaign] == ["timeout"] + ["ok"] * 5
    assert "hung worker killed" in campaign.outcomes[0].error
    deadline = time.monotonic() + 10
    while _new_children(before) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _new_children(before)  # the hung worker was reaped


def test_idle_worker_holding_a_point_is_killed_and_its_point_reruns(
        tmp_path, monkeypatch):
    """With no point timeout, a worker that holds its point and uses no
    CPU time (one that never received its point, or is deadlocked after
    the fork) is killed within two watchdog intervals; the point runs
    again on a fresh worker."""
    victim, marker = POINTS[2], tmp_path / "stuck"
    _inject(monkeypatch, lambda p: p == victim and _first_time(marker)
            and time.sleep(120))
    monkeypatch.setattr(runner, "HUNG_WORKER_S", 0.5)
    start = time.monotonic()
    campaign = SweepRunner(workers=2).run(POINTS[:6])

    assert marker.exists()  # the worker really stalled mid-point
    assert time.monotonic() - start < 30
    assert [o.status for o in campaign] == ["ok"] * 6


def test_point_that_always_stalls_its_worker_errors_after_the_crash_cap(
        tmp_path, monkeypatch):
    stall = POINTS[1]
    _inject(monkeypatch, lambda p: p == stall and time.sleep(120))
    monkeypatch.setattr(runner, "HUNG_WORKER_S", 0.5)
    campaign = SweepRunner(workers=2).run(POINTS[:4])

    assert [o.status for o in campaign] == ["ok", "error", "ok", "ok"]
    assert (f"worker died {MAX_WORKER_CRASHES} time(s) running this "
            f"point; the last one hung") in campaign.outcomes[1].error


def test_pool_stress_more_workers_than_cores_with_kills(tmp_path,
                                                      monkeypatch):
    """Four workers on a smaller host, a short thread switch interval,
    and a worker death on the first attempt of every third point: each
    point still lands exactly once, ok, with no failure record."""
    points = [workload("vecop", variant, n=n, loop_mode=mode)
              for variant in ("baseline", "chaining", "unrolled")
              for n in (16, 32, 48, 64) for mode in ("frep", "bne")]
    victims = {point: tmp_path / f"killed-{i}"
               for i, point in enumerate(points) if i % 3 == 0}
    _inject(monkeypatch, lambda p: p in victims
            and _first_time(victims[p]) and _die())
    store = tmp_path / "store"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        start = time.monotonic()
        campaign = SweepRunner(cache=ResultCache(store),
                               workers=4).run(points)
        elapsed = time.monotonic() - start
    finally:
        sys.setswitchinterval(interval)

    assert elapsed < 120
    assert all(marker.exists() for marker in victims.values())
    assert [o.point for o in campaign] == points
    assert [o.status for o in campaign] == ["ok"] * len(points)
    assert _failure_lines(store) == 0
    assert len(ResultCache(store)) == len(points)


def test_failed_store_write_raises_and_leaves_no_worker(tmp_path,
                                                        monkeypatch):
    """A sweep has no job to fail: the store's OSError propagates, after
    the pool has shut down every worker it started."""
    def disk_full(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(ResultCache, "put", disk_full)
    before = {p.pid for p in multiprocessing.active_children()}
    with pytest.raises(OSError) as info:
        SweepRunner(cache=str(tmp_path / "store"),
                    workers=2).run(POINTS[:6])
    assert info.value.errno == errno.ENOSPC
    assert _new_children(before) == []


def test_unspawnable_worker_is_an_error_outcome(monkeypatch):
    class NoFork(runner._FORK.Process):
        def start(self):
            raise OSError(errno.EAGAIN, "fork refused")

    monkeypatch.setattr(runner._FORK, "Process", NoFork)
    campaign = SweepRunner(workers=2).run(POINTS[:5])
    assert [o.status for o in campaign] == ["error"] * 5
    assert "fork refused" in campaign.outcomes[0].error


#: The parent's locks a worker takes, by name; each entry returns the
#: lock object in use.
_LOCKS = {
    "metrics": lambda: METRICS._lock,
    "spans": lambda: spans.tracer()._lock,
    "append": lambda: cache._APPEND_LOCK,
}


@pytest.mark.parametrize("lock", sorted(_LOCKS))
def test_a_lock_held_by_another_thread_at_the_fork_does_not_hang_workers(
        tmp_path, monkeypatch, lock):
    """A fork copies only the forking thread: a lock another thread of
    the parent holds at that moment stays held in the worker forever,
    unless the fork waits for it or the worker makes a fresh one."""
    def hold() -> None:
        held = threading.Event()

        def holder() -> None:
            with _LOCKS[lock]():
                held.set()
                time.sleep(0.2)

        threading.Thread(target=holder, daemon=True).start()
        held.wait()

    monkeypatch.setattr(runner, "HUNG_WORKER_S", 0.5)
    obs.enable(jsonl_dir=tmp_path / "obs", keep_in_memory=False)
    _BEFORE_FORK.append(hold)
    pool = runner.WorkerPool(2)
    try:
        landed: queue.SimpleQueue = queue.SimpleQueue()
        for point in POINTS[:2]:
            pool.submit(point, None, lambda *report: landed.put(report))
        statuses = [landed.get(timeout=60)[0] for _ in range(2)]
    finally:
        _BEFORE_FORK.clear()
        pool.close()
        obs.disable()
    assert statuses == ["ok", "ok"]
    assert pool.crashes == 0


def test_the_pool_adds_one_thread_at_every_worker_fork(tmp_path,
                                                      monkeypatch):
    """Every worker, the replacement of a killed one too, forks while
    the pool runs at most one thread of its own, ``worker-monitor``."""
    victim, marker = POINTS[1], tmp_path / "killed"
    _inject(monkeypatch,
            lambda p: p == victim and _first_time(marker) and _die())
    before = set(threading.enumerate())
    added: list = []
    _BEFORE_FORK.append(
        lambda: added.append(set(threading.enumerate()) - before))
    try:
        campaign = SweepRunner(workers=2).run(POINTS[:4])
    finally:
        _BEFORE_FORK.clear()

    assert marker.exists()
    assert [o.status for o in campaign] == ["ok"] * 4
    assert len(added) == 3  # two workers and the killed one's successor
    for threads in added:
        assert len(threads) <= 1
        assert {thread.name for thread in threads} <= {"worker-monitor"}


# -- serve --------------------------------------------------------------------


def test_worker_killed_mid_job_reruns_without_a_failure(tmp_path,
                                                        monkeypatch):
    victim, marker = POINTS[0], tmp_path / "killed"
    _inject(monkeypatch,
            lambda p: p == victim and _first_time(marker) and _die())
    store = tmp_path / "store"
    with ServerThread(store, workers=1) as server:
        client = server.client()
        view = client.wait(client.submit(POINTS[:2])["id"])
        assert marker.exists()
        assert view["status"] == "done"
        assert [r["status"] for r in view["results"]] == ["ok", "ok"]
        assert client.healthz()["worker_crashes"] == 1
        assert client.metrics()["serve"]["serve.executions"] == 2
    assert _failure_lines(store) == 0


def test_killed_worker_does_not_wedge_the_server(tmp_path):
    """Regression: SIGKILL one pool worker and the next job still
    completes on the same server, health reports the crash, and a
    refused submit journals nothing."""
    store = tmp_path / "store"
    before = {p.pid for p in multiprocessing.active_children()}
    with ServerThread(store, workers=1) as server:
        client = server.client()
        assert client.wait(client.submit(POINTS[0])["id"])["status"] \
            == "done"
        workers = _new_children(before)
        assert len(workers) == 1
        os.kill(workers[0].pid, signal.SIGKILL)

        view = client.wait(client.submit(POINTS[1])["id"], timeout=60)
        assert view["status"] == "done"
        assert view["results"][0]["status"] == "ok"
        health = client.healthz()
        assert health["ok"] is True
        assert health["worker_crashes"] == 1
        assert (health["workers"], health["inflight"],
                health["queue_depth"]) == (1, 0, 0)
        assert client.metrics()["serve"]["serve.worker_crashes"] == 1

        journal = (store / "jobs.jsonl").read_text()
        server.scheduler.shutdown()
        with pytest.raises(ServeError) as err:
            client.submit(POINTS[2])
        assert err.value.status == 503
        assert (store / "jobs.jsonl").read_text() == journal
        with pytest.raises(ServeError) as err:
            client.healthz()
        assert err.value.status == 503
        assert err.value.payload["ok"] is False
    assert _failure_lines(store) == 0


def test_events_stream_closes_when_a_worker_forks_under_it(tmp_path):
    """Regression: a worker forked while a client streams a job's events
    inherits the stream's socket; it must not hold the stream open after
    the server closes it."""
    with ServerThread(tmp_path / "store", workers=2) as server:
        client = server.client(timeout=10.0)
        slow = client.submit(workload("box3d1r", "Base", grid=(4, 8, 32)))
        seen: list = []

        def stream() -> None:
            try:
                seen.extend(e["event"] for e in client.events(slow["id"]))
            except Exception as exc:  # surfaced by the asserts below
                seen.append(exc)

        reader = threading.Thread(target=stream)
        reader.start()
        time.sleep(0.3)  # the stream is open; now fork the second worker
        client.wait(client.submit(POINTS[0])["id"])
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert seen and seen[-1] == "finished", seen
