"""Perfetto export: golden Chrome trace-event schema, segment merging,
and the end-to-end acceptance scenario (observed multi-cluster sweep)."""

import importlib.util
import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.api import Session, workload
from repro.core import Cluster, CoreConfig
from repro.kernels.ssrgen import SsrPatternAsm
from repro.kernels.vecop import VecopVariant, build_vecop
from repro.trace import TraceRecorder

REPO = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "check_trace_schema", REPO / "scripts" / "check_trace_schema.py")
check_trace_schema = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_trace_schema)


@pytest.fixture(autouse=True)
def _always_disabled_after():
    yield
    obs.disable()


# -- chrome_trace golden schema -------------------------------------------


WALL_SPAN = {"kind": "span", "clock": "wall", "name": "Session.run",
             "cat": "api", "ts": 100.0, "dur": 0.25, "pid": 42,
             "proc": "repro pid 42", "lane": "main", "args": {"w": "x"}}
SIM_INSTANT = {"kind": "instant", "clock": "sim",
               "name": "fastpath.accept", "cat": "engine", "ts": 96,
               "dur": 0, "pid": 42, "proc": "sim vecop", "lane": "cluster",
               "args": {"iters": 15}}


def test_chrome_trace_golden():
    doc = obs.chrome_trace([WALL_SPAN, SIM_INSTANT])
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    metas = [e for e in events if e["ph"] == "M"]
    assert {(m["name"], m["args"]["name"]) for m in metas} == {
        ("process_name", "sim vecop"), ("thread_name", "cluster"),
        ("process_name", "repro pid 42"), ("thread_name", "main")}

    span = next(e for e in events if e["ph"] == "X")
    assert span["name"] == "Session.run"
    assert span["ts"] == 0.0                   # normalized to min wall ts
    assert span["dur"] == 250_000.0            # 0.25 s -> µs
    assert span["args"] == {"w": "x"}

    instant = next(e for e in events if e["ph"] == "i")
    assert instant["s"] == "t"
    assert instant["ts"] == 96.0               # 1 cycle = 1 µs
    assert "dur" not in instant

    # Wall and sim events land on different process tracks.
    assert span["pid"] != instant["pid"]


def test_chrome_trace_separates_wall_pids():
    a = dict(WALL_SPAN)
    b = dict(WALL_SPAN, pid=43, proc="repro pid 43", ts=101.0)
    doc = obs.chrome_trace([a, b])
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len({e["pid"] for e in xs}) == 2


def test_chrome_trace_clamps_negative_durations():
    bad = dict(SIM_INSTANT, kind="span", name="dma", ts=50, dur=-3)
    doc = obs.chrome_trace([bad])
    span = next(e for e in doc["traceEvents"] if e["ph"] == "X")
    assert span["dur"] == 0.0


def test_golden_doc_passes_schema_checker(tmp_path):
    path = obs.write_trace(tmp_path / "t.json", [WALL_SPAN, SIM_INSTANT])
    assert check_trace_schema.validate_trace(str(path)) == []
    assert check_trace_schema.main([str(path)]) == 0


def test_schema_checker_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"traceEvents": [
        {"ph": "X", "name": "n", "cat": "c", "pid": 1, "tid": 1,
         "ts": -5, "dur": 1, "args": {}}]}))
    errors = check_trace_schema.validate_trace(str(bad))
    assert any("ts=-5" in e for e in errors)
    assert any("process_name" in e for e in errors)
    assert check_trace_schema.main([str(bad)]) == 1


# -- recorder conversion --------------------------------------------------


def test_recorder_events_roundtrip(tmp_path):
    build = build_vecop(n=8, variant=VecopVariant.CHAINING,
                        loop_mode="bne")
    trace = TraceRecorder()
    cluster = Cluster(build.asm, trace=trace)
    build.load_into(cluster)
    cluster.run()
    events = obs.recorder_events(trace, label="vecop/chaining n=8")
    assert len(events) == len(trace.fp_events) + len(trace.int_events)
    lanes = {e["lane"] for e in events}
    assert lanes == {"fp issue", "int issue"}
    assert all(e["proc"] == "sim vecop/chaining n=8" for e in events)
    path = obs.write_trace(tmp_path / "issue.json", events)
    assert check_trace_schema.validate_trace(str(path)) == []


# -- segment merging ------------------------------------------------------


def test_load_segments_merges_sorted_files(tmp_path):
    for pid, name in ((1, "a"), (2, "b")):
        with open(tmp_path / f"spans-{pid}.jsonl", "w") as fh:
            fh.write(json.dumps(dict(WALL_SPAN, pid=pid, name=name))
                     + "\n")
    events = obs.load_segments(tmp_path)
    assert [e["name"] for e in events] == ["a", "b"]


def test_export_dir_closes_tracer_and_merges(tmp_path):
    tracer = obs.enable(jsonl_dir=tmp_path, keep_in_memory=False)
    tracer.instant("tick")
    path = obs.export_dir(tmp_path, tracer=tracer)
    doc = json.loads(path.read_text())
    names = [e["name"] for e in doc["traceEvents"] if e["ph"] not in "M"]
    assert names == ["tick"]
    assert check_trace_schema.validate_trace(str(path)) == []


# -- acceptance: one observed multi-cluster campaign ----------------------


C, D = 0x30000, 0x50000

REJECTING_ASM_TEMPLATE = """
{reads}
    csrrsi x0, ssr_enable, 1
    li t2, {iters}
    frep.o t2, 0
    fmadd.d ft3, ft0, ft1, ft3
    csrrci x0, ssr_enable, 1
    ebreak
"""


def test_observed_sweep_exports_full_timeline(tmp_path):
    """The PR's acceptance scenario: an observed campaign over a
    2-cluster j3d27pt point plus a vecop point, with one additional
    rejecting FREP region, exports a single merged Perfetto trace
    carrying every event family."""
    obs_dir = tmp_path / "obs"
    tracer = obs.enable(jsonl_dir=obs_dir, keep_in_memory=False)

    session = Session(cache=None, workers=0)
    campaign = session.map([
        workload("j3d27pt", "Chaining", grid=(4, 4, 8),
                 num_clusters=2, iters=2),
        workload("vecop", "chaining", n=64),
    ])
    assert not campaign.failed

    # A cross-iteration reduction: the fast path must refuse it.
    n = 64
    reads = "\n".join(
        SsrPatternAsm(ssr=i, base=base, bounds=[n], strides=[8]).emit()
        for i, base in enumerate((C, D)))
    asm = REJECTING_ASM_TEMPLATE.format(reads=reads, iters=n - 1)
    with obs.sim_context("reduction"):
        cluster = Cluster(asm, cfg=CoreConfig(engine="auto"))
        rng = np.random.default_rng(3)
        cluster.load_f64(C, rng.uniform(-1, 1, n))
        cluster.load_f64(D, rng.uniform(-1, 1, n))
        cluster.run(max_cycles=100_000)

    path = obs.export_dir(obs_dir, tracer=tracer)
    obs.disable()

    assert check_trace_schema.validate_trace(str(path)) == []
    doc = json.loads(path.read_text())
    events = [e for e in doc["traceEvents"] if e["ph"] != "M"]
    by_name = {}
    for event in events:
        by_name.setdefault(event["name"], []).append(event)

    # Per-point sweep spans and the API seams.
    assert len(by_name["sweep.point"]) == 2
    assert len(by_name["execute"]) == 2
    assert "Session.map" in by_name

    # Engine selection, both directions, with a rejection reason.
    accept = by_name["fastpath.accept"][0]
    assert accept["args"]["iters"] >= 1
    reject = by_name["fastpath.reject"][0]
    assert reject["args"]["reason"] == "cross-iteration-register-carry"

    # System events: per-cluster slices, barrier, DMA transfers.
    assert {e["args"]["name"] for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"} >= {
                "cluster0", "cluster1", "system"}
    assert by_name["barrier.open"][0]["args"]["clusters"] == 2
    assert all(e["args"]["bytes"] > 0 for e in by_name["dma"])
    assert "System.run" in by_name and len(by_name["cluster.run"]) == 2

    # Everything came from this one process's segment.
    assert sorted(p.name for p in obs_dir.glob("spans-*.jsonl")) == [
        f"spans-{os.getpid()}.jsonl"]
