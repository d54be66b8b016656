"""Metrics registry, per-run summaries, campaign aggregation, cache
purity (telemetry never lands in cached records)."""

import json
from types import SimpleNamespace

import pytest

from repro import obs
from repro.api import Session, workload
from repro.obs.metrics import (METRICS, MetricsRegistry, campaign_obs,
                               cluster_run_obs)


@pytest.fixture(autouse=True)
def _clean_metrics():
    METRICS.reset()
    yield
    METRICS.reset()
    obs.disable()


# -- registry -------------------------------------------------------------


def test_counters_gauges_histograms():
    reg = MetricsRegistry()
    reg.inc("cache.hit")
    reg.inc("cache.hit")
    reg.inc("dma.bytes", 512)
    reg.gauge("workers", 4)
    for value in (0.5, 1.5, 1.0):
        reg.observe("sweep.point_seconds", value)
    snap = reg.snapshot()
    assert snap["counters"] == {"cache.hit": 2, "dma.bytes": 512}
    assert snap["gauges"] == {"workers": 4}
    assert snap["histograms"]["sweep.point_seconds"] == {
        "count": 3, "sum": 3.0, "min": 0.5, "max": 1.5}
    reg.reset()
    assert reg.snapshot() == {"counters": {}, "gauges": {},
                              "histograms": {}}


def test_snapshot_is_a_copy():
    reg = MetricsRegistry()
    reg.inc("x")
    snap = reg.snapshot()
    snap["counters"]["x"] = 99
    assert reg.snapshot()["counters"]["x"] == 1


# -- per-run summaries ----------------------------------------------------


def test_cluster_run_obs_from_real_run():
    obs.enable()
    result = Session().run(workload("vecop", "chaining", n=32))
    run_obs = result.meta["obs"]
    assert run_obs["engine"] == "auto"
    assert run_obs["fastpath"]["regions_seen"] >= 1
    assert run_obs["fastpath"]["regions_eligible"] >= 1
    assert METRICS.counters["session.runs"] == 1
    assert METRICS.counters["fastpath.regions"] >= 1


def test_cluster_run_obs_without_fastpath():
    cluster = SimpleNamespace(
        cfg=SimpleNamespace(engine="scalar"),
        fastpath=None)
    assert cluster_run_obs(cluster) == {"engine": "scalar"}


# -- campaign aggregation -------------------------------------------------


def _outcome(status="ok", cached=False, seconds=0.5, run_obs=None):
    meta = {} if run_obs is None else {"obs": run_obs}
    return SimpleNamespace(status=status, cached=cached, seconds=seconds,
                           result=SimpleNamespace(meta=meta))


def test_campaign_obs_counts_and_rates():
    outcomes = [
        _outcome(run_obs={"fastpath": {"regions_seen": 2,
                                       "regions_eligible": 1,
                                       "reject_reasons": {
                                           "non-vector-op": 1}}}),
        _outcome(cached=True, seconds=None),
        _outcome(status="error", seconds=0.1),
    ]
    agg = campaign_obs(outcomes, seconds=1.25)
    assert agg["points"] == 3 and agg["ok"] == 2
    assert agg["errors"] == 1 and agg["timeouts"] == 0
    assert agg["cache_hits"] == 1
    assert agg["hit_rate"] == pytest.approx(1 / 3)
    assert "ff_spans" not in agg and "ff_cycles_skipped" not in agg
    assert agg["fastpath_regions_seen"] == 2
    assert agg["fastpath_eligibility_rate"] == 0.5
    assert agg["fastpath_reject_reasons"] == {"non-vector-op": 1}
    assert agg["point_seconds"]["count"] == 2


def test_campaign_obs_walks_nested_system_clusters():
    run_obs = {"num_clusters": 2,
               "clusters": [{"fastpath": {"regions_seen": 4,
                                          "loop_cycles": 10}},
                            {"fastpath": {"regions_seen": 6,
                                          "loop_cycles": 30}}]}
    agg = campaign_obs([_outcome(run_obs=run_obs)], seconds=0.5)
    assert agg["fastpath_regions_seen"] == 10
    assert agg["loop_cycles"] == 40


def test_campaign_obs_empty():
    agg = campaign_obs([], seconds=0.0)
    assert agg["points"] == 0 and agg["hit_rate"] == 0.0
    assert agg["fastpath_eligibility_rate"] == 0.0


# -- cache interaction ----------------------------------------------------


def test_cache_hit_and_miss_metrics(tmp_path):
    obs.enable()
    session = Session(cache=str(tmp_path / "cache"))
    point = workload("vecop", "chaining", n=16)
    first = session.run(point)
    assert METRICS.counters["cache.miss"] == 1
    assert "wall_seconds" in first.meta["obs"]
    second = session.run(point)
    assert METRICS.counters["cache.hit"] == 1
    assert second.cycles == first.cycles


def test_cached_records_never_contain_obs(tmp_path):
    obs.enable()
    session = Session(cache=str(tmp_path / "cache"))
    session.run(workload("vecop", "chaining", n=16))
    obs.disable()
    [shard] = (tmp_path / "cache" / "shards").glob("*.jsonl")
    record = json.loads(shard.read_text().splitlines()[0])
    assert "obs" not in record["result"]["meta"]
    # ... and the record matches one from an unobserved run exactly,
    # wall time aside (the only nondeterministic field).
    shard.unlink()
    session2 = Session(cache=str(tmp_path / "cache"))
    session2.run(workload("vecop", "chaining", n=16))
    [shard2] = (tmp_path / "cache" / "shards").glob("*.jsonl")
    clean = json.loads(shard2.read_text().splitlines()[0])
    record.pop("seconds"), clean.pop("seconds")
    assert clean == record


def test_campaign_summary_surfaces_obs(tmp_path):
    obs.enable()
    session = Session(cache=None, workers=0)
    campaign = session.map([workload("vecop", "chaining", n=16),
                            workload("vecop", "baseline", n=16)])
    summary = campaign.summary()
    assert summary["points"] == 2 and summary["ok"] == 2
    assert summary["hit_rate"] == 0.0
    assert summary["obs"]["fastpath_regions_seen"] >= 1
    assert summary["obs"]["points"] == 2
