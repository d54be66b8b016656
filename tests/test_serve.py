"""The serve layer: journal durability, cache-first scheduling,
in-flight coalescing, cancellation, and the HTTP wire protocol.

The expensive guarantees are proven end-to-end over real HTTP:
50 concurrent submissions of one identical workload run exactly one
simulation (the metrics prove it) and all 50 observe bit-identical
result JSON; a server restarted mid-campaign resumes from the job
journal with no lost and no duplicated results.
"""

import errno
import json
import os
import threading
import time

import pytest

from repro.api import Session, workload
from repro.serve import TERMINAL_STATUSES, Job, JobStore, ServeError
from repro.serve.scheduler import QueueFull, Scheduler
from repro.serve.testing import ServerThread
from repro.sweep import ResultCache

FAST = workload("vecop", "baseline", n=16)
FAST2 = workload("vecop", "chaining", n=16)
#: ~2.5s of simulation: long enough that concurrent submissions
#: reliably coalesce onto the in-flight execution.
SLOW = workload("box3d1r", "Chaining+", grid=(8, 16, 64))


# -- job journal --------------------------------------------------------------


def test_journal_replay_requeues_unfinished(tmp_path):
    store = JobStore(tmp_path / "jobs.jsonl")
    queued = Job(id="job-aaa", workloads=[FAST, FAST2])
    running = Job(id="job-bbb", workloads=[FAST])
    finished = Job(id="job-ccc", workloads=[FAST])
    for job in (queued, running, finished):
        store.add(job)
    store.set_status(running, "running")
    store.set_status(finished, "done")

    replayed = JobStore(tmp_path / "jobs.jsonl")
    pending = replayed.replay()
    assert {j.id for j in pending} == {"job-aaa", "job-bbb"}
    assert all(j.status == "queued" for j in pending)
    assert replayed.get("job-ccc").status == "done"
    assert replayed.get("job-ccc").terminal
    # requeued jobs carry their workloads through the round trip
    assert replayed.get("job-aaa").workloads == [FAST, FAST2]


def test_journal_tolerates_torn_tail(tmp_path):
    store = JobStore(tmp_path / "jobs.jsonl")
    store.add(Job(id="job-aaa", workloads=[FAST]))
    with open(tmp_path / "jobs.jsonl", "a") as sink:
        sink.write('{"op": "submit", "id": "job-to')  # killed mid-write
    replayed = JobStore(tmp_path / "jobs.jsonl")
    pending = replayed.replay()
    assert [j.id for j in pending] == ["job-aaa"]


def test_journal_keeps_jobs_acknowledged_after_a_torn_tail(tmp_path):
    """A torn last line (crash mid-write, full disk) must not swallow
    the next append: a job accepted after the restart survives the
    next one."""
    path = tmp_path / "jobs.jsonl"
    store = JobStore(path)
    store.add(Job(id="job-aaa", workloads=[FAST]))
    store.add(Job(id="job-bbb", workloads=[FAST]))
    path.write_bytes(path.read_bytes()[:-20])  # tear job-bbb's line
    restarted = JobStore(path)
    assert [j.id for j in restarted.replay()] == ["job-aaa"]
    restarted.add(Job(id="job-ccc", workloads=[FAST]))
    again = JobStore(path)
    assert sorted(j.id for j in again.replay()) == ["job-aaa", "job-ccc"]


def test_journal_replay_skips_and_counts_malformed_records(tmp_path):
    """Every journal line replay cannot apply as written is skipped and
    counted, never filled in with defaults or allowed to stop replay."""
    path = tmp_path / "jobs.jsonl"
    store = JobStore(path)
    store.add(Job(id="job-aaa", workloads=[FAST]))
    good = Job(id="job-bbb", workloads=[FAST]).submit_record()
    bad = [
        42,                                          # not a record
        ["op", "submit"],
        {k: v for k, v in good.items() if k != "priority"},
        {k: v for k, v in good.items() if k != "created"},
        dict(good, workloads=[]),
        dict(good, priority="high"),
        {"op": "status", "id": "job-aaa", "status": "bogus"},
        {"op": "status", "id": "job-zzz", "status": "done"},
        {"op": "status", "id": ["job-aaa"], "status": "done"},
        {"op": "status", "id": "job-aaa", "status": ["done"]},
        {"op": "rename", "id": "job-aaa"},
    ]
    with open(path, "a") as sink:
        for record in bad:
            sink.write(json.dumps(record) + "\n")
        sink.write('{"op": "sub')                    # torn tail
    replayed = JobStore(path)
    pending = replayed.replay()
    assert [j.id for j in pending] == ["job-aaa"]
    assert replayed.get("job-bbb") is None
    assert replayed.get("job-aaa").status == "queued"
    assert replayed.skipped_records == len(bad) + 1


# -- scheduler ----------------------------------------------------------------


def _scheduler(tmp_path, **kwargs):
    session = Session(cache=str(tmp_path / "store"), workers=1)
    store = JobStore(tmp_path / "store" / "jobs.jsonl")
    return Scheduler(session, store, **kwargs)


def test_cache_hit_answers_synchronously(tmp_path):
    sched = _scheduler(tmp_path, workers=1)
    try:
        first = sched.submit([FAST])
        _wait_terminal(sched, first.id)
        assert sched.counters["executions"] == 1

        again = sched.submit([FAST])
        # terminal at submit time: no queue, no pool, no new execution
        assert again.terminal and again.status == "done"
        assert again.results[0]["cached"] is True
        assert sched.counters["executions"] == 1
        assert sched.counters["cache_hits"] == 1
    finally:
        sched.shutdown(wait=True)


def test_queue_bound_rejects_atomically(tmp_path):
    sched = _scheduler(tmp_path, workers=1, max_queue=1)
    try:
        distinct = [workload("vecop", "baseline", n=n)
                    for n in (17, 18, 19)]
        with pytest.raises(QueueFull):
            sched.submit(distinct)
        # the rejection journaled nothing and queued nothing
        assert sched.store.jobs == {}
        assert sched.metrics()["serve.queue_depth"] == 0
    finally:
        sched.shutdown(wait=True)


def test_priority_orders_the_queue(tmp_path):
    sched = _scheduler(tmp_path, workers=1)
    try:
        sched.submit([SLOW])  # occupies the single worker
        low = sched.submit([workload("vecop", "baseline", n=17)],
                           priority=20)
        high = sched.submit([workload("vecop", "baseline", n=18)],
                            priority=5)
        with sched._lock:
            head = min(sched._heap)[2]
        assert head == sched.session.key(high.workloads[0])
        assert head != sched.session.key(low.workloads[0])
    finally:
        sched.shutdown(wait=True)


def test_failed_store_write_is_an_error_and_dispatch_continues(
        tmp_path, monkeypatch):
    """A result the store cannot take (a full disk) lands as an error,
    the job finishes, and the next queued point is still dispatched."""
    def disk_full(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    sched = _scheduler(tmp_path, workers=1)
    monkeypatch.setattr(sched.session.cache, "put", disk_full)
    try:
        # One worker: the second point waits for the first's completion.
        job = sched.submit([FAST, workload("vecop", "baseline", n=17)])
        job = _wait_terminal(sched, job.id, timeout=60.0)
        assert job.status == "error"
        assert [r["status"] for r in job.results] == ["error", "error"]
        assert job.results[0]["error"] == (
            "result store write failed: No space left on device")
        assert job.results[0]["result"] is None
        assert sched.counters["executions"] == 2
        assert sched.metrics()["serve.inflight"] == 0
    finally:
        sched.shutdown(wait=True)


def _wait_terminal(sched, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = sched.store.get(job_id)
        if job.terminal:
            return job
        time.sleep(0.02)
    raise TimeoutError(f"job {job_id} not terminal after {timeout}s")


# -- HTTP API -----------------------------------------------------------------


def test_healthz_reports_live_workers_and_journal_size(tmp_path):
    with ServerThread(tmp_path / "store", workers=2) as server:
        client = server.client()
        health = client.healthz()
        assert health["live_workers"] == 0  # started on first use
        assert health["journal_bytes"] == 0
        client.wait(client.submit([FAST])["id"])
        health = client.healthz()
        assert health["live_workers"] == 1
        journal = tmp_path / "store" / "jobs.jsonl"
        assert health["journal_bytes"] == journal.stat().st_size > 0


def test_http_endpoints_roundtrip(tmp_path):
    with ServerThread(tmp_path / "store", workers=1) as server:
        client = server.client()
        health = client.healthz()
        assert health["ok"] is True and "version" in health

        job = client.submit([FAST, FAST2])
        view = client.wait(job["id"])
        assert view["status"] == "done"
        assert view["done"] == view["points"] == 2
        statuses = [r["status"] for r in view["results"]]
        assert statuses == ["ok", "ok"]
        # wire schema is Result.to_dict()
        assert view["results"][0]["result"]["schema"].startswith(
            "repro-result/")

        events = [e["event"] for e in client.events(job["id"])]
        assert events[0] == "submitted" and events[-1] == "finished"

        metrics = client.metrics()
        assert metrics["serve"]["serve.executions"] == 2
        assert "counters" in metrics["metrics"]


def test_event_streams_of_completed_jobs_end_with_finished(tmp_path,
                                                          monkeypatch):
    """The events stream closes once it sees a terminal job with no
    unsent events, so "finished" must be appended before the terminal
    transition.  A slow journal write of that transition used to close
    the stream without it."""
    append = JobStore._append

    def slow_terminal_append(self, record):
        if record.get("status") in TERMINAL_STATUSES:
            time.sleep(0.3)
        append(self, record)

    monkeypatch.setattr(JobStore, "_append", slow_terminal_append)
    with ServerThread(tmp_path / "store", workers=1) as server:
        client = server.client()
        streams = []
        for batch in ([FAST], [FAST2, FAST], [FAST]):  # last: a cache hit
            job = client.submit(batch)
            streams.append([e["event"] for e in client.events(job["id"])])
            assert client.job(job["id"])["status"] == "done"
    for events in streams:
        assert events[0] == "submitted" and events[-1] == "finished"
        assert events.count("finished") == 1


def test_http_rejects_garbage(tmp_path):
    with ServerThread(tmp_path / "store", workers=1) as server:
        client = server.client()
        with pytest.raises(ServeError) as err:
            client._request("POST", "/v1/jobs", {"nope": 1})
        assert err.value.status == 400
        with pytest.raises(ServeError) as err:
            client.job("job-doesnotexist")
        assert err.value.status == 404
        with pytest.raises(ServeError) as err:
            client._request("GET", "/v1/nope")
        assert err.value.status == 404


def test_http_rejects_invalid_workloads_naming_the_field(tmp_path):
    """Regression: the wire decoder validates like ``workload()``.  An
    unknown kernel used to get a 201 and fail in the pool."""
    good = FAST.canonical()
    with ServerThread(tmp_path / "store", workers=1) as server:
        client = server.client()
        for body, where in (
                ({"workloads": [{"kernel": "nope"}]}, "workloads[0]."),
                ({"workloads": [good, {**good, "kernel": "nope"}]},
                 "workloads[1].kernel: unknown kernel"),
                ({"workload": {**good, "colour": "red"}},
                 "workload.colour: unknown workload field"),
                ({"workloads": [{**SLOW.canonical(), "grid": []}]},
                 "workloads[0].grid: ")):
            with pytest.raises(ServeError) as err:
                client._request("POST", "/v1/jobs", body)
            assert err.value.status == 400, body
            assert err.value.payload["error"].startswith(where), \
                err.value.payload
        metrics = client.metrics()["serve"]
        assert metrics["serve.requests"] == 0
    assert not (tmp_path / "store" / "jobs.jsonl").exists()


def test_permuted_overrides_run_once(tmp_path):
    """Regression: overrides are canonicalised on the wire, so one
    point spelled in two override orders is one key and one run."""
    point = workload("vecop", "baseline", n=16,
                     overrides={"tcdm_banks": 16, "fpu_depth": 2})
    canonical = point.canonical()
    permuted = {**canonical,
                "overrides": list(reversed(canonical["overrides"]))}
    assert permuted != canonical
    with ServerThread(tmp_path / "store", workers=1) as server:
        client = server.client()
        jobs = [client._request("POST", "/v1/jobs", {"workload": body})
                for body in (canonical, permuted)]
        views = [client.wait(job["id"]) for job in jobs]
        assert [v["status"] for v in views] == ["done", "done"]
        assert views[0]["results"][0]["key"] == \
            views[1]["results"][0]["key"]
        assert client.metrics()["serve"]["serve.executions"] == 1


def test_http_cancel_pending_job(tmp_path):
    with ServerThread(tmp_path / "store", workers=1) as server:
        client = server.client()
        blocker = client.submit(SLOW)
        pending = client.submit(
            [workload("vecop", "baseline", n=n) for n in (21, 22)])
        cancelled = client.cancel(pending["id"])
        assert cancelled["status"] == "cancelled"
        view = client.job(pending["id"])
        assert view["status"] == "cancelled"
        assert all(r["status"] == "cancelled" for r in view["results"])
        with pytest.raises(ServeError) as err:  # cancel is terminal
            client.cancel(pending["id"])
        assert err.value.status == 409
        # the blocker is unaffected and still completes
        assert client.wait(blocker["id"])["status"] == "done"
        metrics = client.metrics()["serve"]
        assert metrics["serve.jobs_cancelled"] == 1
        assert metrics["serve.executions"] == 1  # cancelled never ran


def test_http_cancel_running_job_finishes_into_the_store(tmp_path):
    """Cancelling a running point ends the job at once, but the point
    finishes into the store: resubmitting it is a cache hit, not a
    second execution."""
    with ServerThread(tmp_path / "store", workers=1) as server:
        client = server.client()
        job = client.submit(SLOW)
        deadline = time.monotonic() + 60
        while client.job(job["id"])["status"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.02)
        cancelled = client.cancel(job["id"])
        assert cancelled["status"] == "cancelled"
        view = client.job(job["id"])
        assert [r["status"] for r in view["results"]] == ["cancelled"]
        while client.healthz()["inflight"]:
            assert time.monotonic() < deadline
            time.sleep(0.05)
        again = client.submit(SLOW)
        assert again["status"] == "done"
        assert again["results"][0]["cached"] is True
        metrics = client.metrics()["serve"]
        assert metrics["serve.executions"] == 1
        assert metrics["serve.jobs_cancelled"] == 1
        assert metrics["serve.cache_hits"] == 1


# -- the tentpole guarantees --------------------------------------------------


def test_50_concurrent_identical_submissions_run_once(tmp_path):
    """The coalescing contract, end to end over HTTP: 50 concurrent
    submissions of one identical workload cost exactly 1 simulation
    and every caller observes bit-identical result JSON."""
    with ServerThread(tmp_path / "store", workers=2) as server:
        results: list[dict | Exception] = [None] * 50

        def submit_and_wait(slot: int) -> None:
            client = server.client(timeout=60.0)
            try:
                job = client.submit(SLOW)
                results[slot] = client.wait(job["id"], timeout=120.0)
            except Exception as exc:  # surfaced via the assert below
                results[slot] = exc

        threads = [threading.Thread(target=submit_and_wait, args=(i,))
                   for i in range(50)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=180.0)

        failures = [r for r in results if isinstance(r, Exception)]
        assert not failures, failures[:3]
        assert all(view["status"] == "done" for view in results)

        payloads = {json.dumps(view["results"][0]["result"],
                               sort_keys=True) for view in results}
        assert len(payloads) == 1  # bit-identical for all 50

        metrics = server.client().metrics()["serve"]
        assert metrics["serve.executions"] == 1
        assert metrics["serve.requests"] == 50
        assert (metrics["serve.cache_hits"]
                + metrics["serve.dedup_hits"]) == 49


def test_restart_resumes_from_journal(tmp_path):
    """Durability contract: stop a server mid-campaign; a new server
    on the same store re-enqueues the job from the journal, finished
    points come back as cache hits, and the total simulation count
    across both lifetimes is exactly the number of unique points."""
    store = tmp_path / "store"
    points = [workload("box3d1r", "Base", grid=(4, 8, 32)),
              workload("box3d1r", "Base-", grid=(4, 8, 32)),
              workload("box3d1r", "Chaining", grid=(4, 8, 32)),
              workload("box3d1r", "Chaining+", grid=(4, 8, 32)),
              workload("box3d1r", "Base--", grid=(4, 8, 32)),
              workload("box3d1r", "Base", grid=(4, 16, 32))]

    first = ServerThread(store, workers=1).start()
    client = first.client()
    job = client.submit(points)
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:  # let part of the job land
        if client.job(job["id"])["done"] >= 1:
            break
        time.sleep(0.05)
    first.stop()
    # drain the in-flight point so its record lands in exactly one
    # lifetime (the CI smoke test covers the kill -9 hard-stop path)
    deadline = time.monotonic() + 60.0
    while first.scheduler._inflight and time.monotonic() < deadline:
        time.sleep(0.05)
    executed_before = first.scheduler.counters["executions"]
    assert 1 <= executed_before < len(points)

    second = ServerThread(store, workers=1).start()
    try:
        assert second.requeued == len(points) - executed_before
        client = second.client()
        view = client.wait(job["id"], timeout=180.0)
        assert view["status"] == "done"
        assert all(r is not None and r["status"] == "ok"
                   for r in view["results"])
        # no lost results, no duplicated simulations
        executed_after = second.scheduler.counters["executions"]
        assert executed_before + executed_after == len(points)
        report = ResultCache(store).verify()
        assert report["ok"], report
        assert not report["duplicates"] and not report["conflicts"]
    finally:
        second.stop()
