"""Span recording: tracer lifecycle, event shapes, instrumentation."""

import json
import os

import numpy as np
import pytest

from repro import obs
from repro.api import Session, workload
from repro.core import Cluster, CoreConfig
from repro.kernels.ssrgen import SsrPatternAsm
from repro.obs import spans

A, B, C, D = 0x10000, 0x20000, 0x30000, 0x50000


@pytest.fixture
def enabled():
    """Memory-only tracer, guaranteed torn down after the test."""
    tracer = obs.enable()
    yield tracer
    obs.disable()


@pytest.fixture(autouse=True)
def _always_disabled_after():
    yield
    obs.disable()


# -- lifecycle ------------------------------------------------------------


def test_disabled_by_default():
    assert not obs.is_enabled()
    assert not spans.ENABLED
    with pytest.raises(RuntimeError):
        obs.tracer()


def test_enable_disable_roundtrip():
    tracer = obs.enable()
    assert obs.is_enabled() and spans.ENABLED
    assert obs.tracer() is tracer
    obs.disable()
    assert not obs.is_enabled()
    with pytest.raises(RuntimeError):
        obs.tracer()


def test_enable_is_idempotent_per_sink(tmp_path):
    first = obs.enable()
    assert obs.enable() is first          # same (memory) sink: kept
    replaced = obs.enable(jsonl_dir=tmp_path)
    assert replaced is not first          # new sink: new tracer
    assert obs.sink_dir() == str(tmp_path)


def test_sink_dir_none_when_memory_only(enabled):
    assert obs.sink_dir() is None


# -- event shapes ---------------------------------------------------------


def test_wall_span_shape_and_mutable_args(enabled):
    with enabled.span("work", cat="api", args={"a": 1}) as args:
        args["b"] = 2
    (event,) = enabled.events
    assert event["kind"] == "span" and event["clock"] == "wall"
    assert event["name"] == "work" and event["cat"] == "api"
    assert event["args"] == {"a": 1, "b": 2}
    assert event["dur"] >= 0.0
    assert event["pid"] == os.getpid()
    assert event["proc"] == f"repro pid {os.getpid()}"


def test_wall_span_recorded_even_on_exception(enabled):
    with pytest.raises(ValueError):
        with enabled.span("boom"):
            raise ValueError("x")
    assert [e["name"] for e in enabled.events] == ["boom"]


def test_instant_shape(enabled):
    enabled.instant("tick", cat="sweep", args={"point": "p"})
    (event,) = enabled.events
    assert event["kind"] == "instant" and event["clock"] == "wall"
    assert event["dur"] == 0.0


def test_sim_events_carry_context_label(enabled):
    assert obs.sim_label() == "sim"
    with obs.sim_context("j3d27pt/Chaining"):
        assert obs.sim_label() == "j3d27pt/Chaining"
        enabled.sim_span("loop-memo", "engine", 100, 140,
                         lane="cluster", args={"iterations": 4})
        enabled.sim_instant("fastpath.accept", "engine", 90)
    assert obs.sim_label() == "sim"
    span_ev, inst_ev = enabled.events
    assert span_ev["clock"] == "sim" and span_ev["ts"] == 100
    assert span_ev["dur"] == 40
    assert span_ev["proc"] == "sim j3d27pt/Chaining"
    assert inst_ev["kind"] == "instant" and inst_ev["dur"] == 0


# -- JSONL sink -----------------------------------------------------------


def test_jsonl_sink_writes_per_process_segment(tmp_path):
    tracer = obs.enable(jsonl_dir=tmp_path, keep_in_memory=False)
    tracer.instant("tick")
    obs.disable()
    segment = tmp_path / f"spans-{os.getpid()}.jsonl"
    assert segment.exists()
    (line,) = segment.read_text().splitlines()
    assert json.loads(line)["name"] == "tick"
    assert tracer.events == []            # sink-only mode buffers nothing


def test_ensure_worker_enables_from_dir(tmp_path):
    assert not obs.is_enabled()
    spans.ensure_worker(str(tmp_path))
    assert obs.is_enabled() and obs.sink_dir() == str(tmp_path)
    obs.disable()
    spans.ensure_worker(None)             # parent ran without obs
    assert not obs.is_enabled()


# -- instrumentation sites ------------------------------------------------


def test_session_run_emits_spans_and_meta(enabled):
    result = Session().run(workload("vecop", "chaining", n=16))
    names = [e["name"] for e in enabled.events]
    assert "Session.run" in names and "execute" in names
    run_obs = result.meta["obs"]
    assert run_obs["engine"] == "auto"
    assert "wall_seconds" in run_obs
    assert run_obs["fastpath"]["regions_seen"] >= 1


def test_disabled_run_keeps_meta_clean():
    result = Session().run(workload("vecop", "chaining", n=16))
    assert "obs" not in result.meta


def test_fastpath_reject_event_carries_reason(enabled):
    rng = np.random.default_rng(7)
    n = 64
    reads = "\n".join(
        SsrPatternAsm(ssr=i, base=base, bounds=[n], strides=[8]).emit()
        for i, base in enumerate((C, D)))
    asm = f"""
{reads}
    csrrsi x0, ssr_enable, 1
    li t2, {n - 1}
    frep.o t2, 0
    fmadd.d ft3, ft0, ft1, ft3
    csrrci x0, ssr_enable, 1
    ebreak
"""
    cluster = Cluster(asm, cfg=CoreConfig(engine="auto"))
    cluster.load_f64(C, rng.uniform(-1, 1, n))
    cluster.load_f64(D, rng.uniform(-1, 1, n))
    cluster.run(max_cycles=100_000)
    rejects = [e for e in enabled.events if e["name"] == "fastpath.reject"]
    assert rejects
    assert rejects[0]["args"]["reason"] == "cross-iteration-register-carry"
    assert cluster.fastpath.stats["reject_reasons"] == {
        "cross-iteration-register-carry": 1}


def test_fastpath_accept_event(enabled):
    Session().run(workload("vecop", "chaining", n=64))
    accepts = [e for e in enabled.events if e["name"] == "fastpath.accept"]
    assert accepts
    assert accepts[0]["args"]["iters"] >= 1
    assert accepts[0]["proc"] == "sim vecop/chaining n=64"


def test_system_run_emits_cluster_and_dma_events(enabled):
    result = Session().run(
        workload("j3d27pt", "Chaining", grid=(4, 4, 8),
                 num_clusters=2, iters=2))
    names = {e["name"] for e in enabled.events}
    assert {"System.run", "cluster.run", "dma", "barrier.open"} <= names
    lanes = {e["lane"] for e in enabled.events
             if e["name"] == "cluster.run"}
    assert lanes == {"cluster0", "cluster1"}
    assert result.meta["obs"]["num_clusters"] == 2
