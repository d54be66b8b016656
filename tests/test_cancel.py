"""Cooperative cancellation and graceful shutdown.

Covers the :class:`repro.api.CancelToken` latch, ``"cancelled"``
outcome semantics in serial and parallel runners (results that landed
are kept, the rest are marked cancelled, nothing hits the failure
log), ``Session.map(cancel=...)`` pass-through, and the CLI
regression: a sweep killed with SIGINT drains, exits nonzero, and
leaves no orphaned pool workers behind.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import CancelToken, Session, workload
from repro.sweep import ResultCache, SweepRunner

FAST_POINTS = [
    workload("vecop", "baseline", n=16),
    workload("vecop", "chaining", n=16),
    workload("box3d1r", "Base", grid=(2, 3, 8)),
    workload("box3d1r", "Chaining+", grid=(2, 3, 8)),
]


def test_token_latch_semantics():
    token = CancelToken()
    assert not token.cancelled
    assert bool(token)  # presence, not state
    token.cancel()
    token.cancel()  # idempotent
    assert token.cancelled
    assert "cancelled" in repr(token)


def test_pretripped_token_cancels_everything_serial():
    token = CancelToken()
    token.cancel()
    campaign = SweepRunner(workers=0).run(FAST_POINTS, cancel=token)
    assert len(campaign) == len(FAST_POINTS)
    assert all(o.status == "cancelled" for o in campaign)
    assert campaign.cancelled_count == len(FAST_POINTS)
    assert not campaign.interrupted  # cooperative, not aborted
    assert campaign.summary()["cancelled"] == len(FAST_POINTS)


def test_cancel_mid_campaign_keeps_landed_results():
    token = CancelToken()

    def progress(outcome, done, total):
        if done == 2:
            token.cancel()

    campaign = SweepRunner(workers=0).run(
        FAST_POINTS, progress=progress, cancel=token)
    statuses = [o.status for o in campaign]
    assert statuses[:2] == ["ok", "ok"]
    assert statuses[2:] == ["cancelled", "cancelled"]
    # point order is preserved even for cancelled tails
    assert [o.point for o in campaign] == FAST_POINTS


def test_cancelled_points_do_not_hit_failure_log(tmp_path):
    cache = ResultCache(tmp_path / "store")
    token = CancelToken()
    token.cancel()
    SweepRunner(workers=0, cache=cache).run(FAST_POINTS, cancel=token)
    report = cache.verify()
    assert report["ok"]
    assert report["failure_records"] == 0


def test_parallel_cancel_drains_cleanly():
    token = CancelToken()

    def progress(outcome, done, total):
        token.cancel()

    campaign = SweepRunner(workers=2).run(
        FAST_POINTS, progress=progress, cancel=token)
    assert len(campaign) == len(FAST_POINTS)
    assert campaign.ok_count >= 1
    assert campaign.ok_count + campaign.cancelled_count == len(campaign)
    for outcome in campaign:
        if outcome.status == "cancelled":
            assert outcome.result is None
            assert "cancel" in outcome.error.lower()


def test_session_map_threads_cancel_token(tmp_path):
    session = Session(cache=tmp_path / "store", workers=0)
    token = CancelToken()
    token.cancel()
    campaign = session.map(
        [workload("vecop", "baseline", n=16),
         workload("vecop", "chaining", n=16)],
        cancel=token)
    assert campaign.cancelled_count == 2


def test_session_map_triage_threads_cancel_token(tmp_path):
    session = Session(cache=tmp_path / "store", workers=0)
    token = CancelToken()
    token.cancel()
    campaign = session.map(
        [workload("vecop", "baseline", n=16),
         workload("vecop", "chaining", n=16)],
        fidelity="triage", interest={"top": 1.0},
        cancel=token)
    # triage estimates are analytical (cheap, not cancelled); only the
    # cycle-accurate re-runs honour the token.
    assert campaign.cancelled_count == 2


def test_sigint_drains_and_exits_nonzero(tmp_path):
    """Regression: a killed sweep must drain, exit 130, leave a clean
    store, and not orphan pool workers."""
    store = tmp_path / "store"
    spec = {
        "name": "cancel regression",
        "kernels": ["box3d1r"],
        "variants": ["Base--", "Base-", "Base", "Chaining", "Chaining+"],
        # Long enough (a few seconds on a 2-core host) that the interrupt
        # below lands mid-sweep, not after the last point.
        "grids": [[4, 8, 32], [4, 16, 32], [8, 16, 32], [8, 16, 64],
                  [8, 32, 64], [16, 32, 64]],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))

    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep",
         "--spec", str(spec_path), "--cache-dir", str(store),
         "--workers", "2", "--quiet"],
        env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    # Let the pool spin up and land a first point, however fast the
    # points simulate.
    deadline = time.monotonic() + 60
    while not any(store.glob("shards/*.jsonl")) \
            and time.monotonic() < deadline:
        time.sleep(0.05)
    os.killpg(proc.pid, signal.SIGINT)
    try:
        stdout, stderr = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        pytest.fail("sweep did not exit after SIGINT")

    assert proc.returncode == 130, (stdout, stderr)
    # no survivors in the process group
    time.sleep(0.5)
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    # whatever landed before the interrupt is a clean, loadable store
    if store.exists():
        report = ResultCache(store).verify()
        assert report["ok"]
        assert not report["corrupt"]
