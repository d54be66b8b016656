"""Content-addressed cache: keys, JSONL round-trip, hit/miss behavior,
sharded layout, store verification, and the failure log."""

import json

import pytest

from repro import __version__
from repro.api import Result, Workload, workload
from repro.api.execute import execute_workload
from repro.core.config import CoreConfig
from repro.sweep.cache import (
    SHARD_PREFIX_LEN,
    ResultCache,
    append_jsonl,
    point_key,
)
from repro.sweep.runner import SweepRunner

POINT = workload("vecop", "chaining", n=16)


def test_point_key_stability_and_sensitivity():
    key = point_key(POINT, __version__)
    assert key == point_key(POINT, __version__)
    assert len(key) == 64
    # Any ingredient change moves the address.
    assert key != point_key(workload("vecop", "chaining", n=32),
                            __version__)
    assert key != point_key(POINT, "0.0.0")
    assert key != point_key(POINT, __version__, base_cfg=CoreConfig())


def test_result_record_roundtrip_is_exact():
    result = execute_workload(POINT)
    record = result.to_dict()
    json.dumps(record)  # must be JSON-clean
    again = Result.from_dict(record)
    assert again.cycles == result.cycles
    assert again.region_cycles == result.region_cycles
    assert again.fpu_utilization == result.fpu_utilization
    assert again.energy.total_pj == result.energy.total_pj
    assert again.energy.breakdown == result.energy.breakdown
    assert again.power_mw == result.power_mw
    assert again.gflops_per_watt == result.gflops_per_watt
    assert again.stalls == result.stalls


def test_cache_persists_across_instances(tmp_path):
    cache = ResultCache(tmp_path / "c")
    key = point_key(POINT, __version__)
    assert cache.get(key) is None
    result = execute_workload(POINT)
    cache.put(key, POINT, result, seconds=0.1, version=__version__)
    assert key in cache

    reopened = ResultCache(tmp_path / "c")
    assert len(reopened) == 1
    assert reopened.get(key).cycles == result.cycles
    record = reopened.get_record(key)
    assert record["version"] == __version__
    assert record["point"] == POINT.canonical()


def test_cache_ignores_torn_tail_line(tmp_path):
    cache = ResultCache(tmp_path / "c")
    key = point_key(POINT, __version__)
    cache.put(key, POINT, execute_workload(POINT), 0.1, __version__)
    with open(cache._shard_path(key), "a") as handle:
        handle.write('{"key": "partial...')  # killed mid-append
    reopened = ResultCache(tmp_path / "c")
    assert len(reopened) == 1


def test_put_after_a_torn_tail_keeps_the_new_record(tmp_path):
    """A shard torn mid-line, then the point re-run: the fresh record
    must not glue onto the torn one (which lost it, and the store
    re-simulated the point forever), and the torn line is cut off."""
    cache = ResultCache(tmp_path / "c")
    key = point_key(POINT, __version__)
    result = execute_workload(POINT)
    cache.put(key, POINT, result, 0.1, __version__)
    shard = cache._shard_path(key)
    data = shard.read_bytes()
    shard.write_bytes(data[:len(data) // 2])  # crash mid-write
    with pytest.warns(UserWarning, match="malformed"):
        torn = ResultCache(tmp_path / "c")
    assert len(torn) == 0
    torn.put(key, POINT, result, 0.1, __version__)
    reopened = ResultCache(tmp_path / "c")
    assert len(reopened) == 1 and reopened.corrupt_lines == 0
    assert reopened.get(key) is not None


def test_progress_counter_increments_over_cache_hits(tmp_path):
    points = [workload("vecop", "baseline", n=n) for n in (16, 32, 48)]
    SweepRunner(cache=tmp_path / "c", workers=0).run(points)
    calls = []
    SweepRunner(cache=tmp_path / "c", workers=0).run(
        points, progress=lambda o, done, total: calls.append((done, total)))
    assert calls == [(1, 3), (2, 3), (3, 3)]


def test_runner_hits_cache_across_invocations(tmp_path):
    points = [workload("vecop", variant, n=n)
              for variant in ("baseline", "chaining")
              for n in (16, 32)]
    cold = SweepRunner(cache=tmp_path / "c", workers=0).run(points)
    assert cold.cached_count == 0
    assert all(o.ok for o in cold)

    warm = SweepRunner(cache=tmp_path / "c", workers=0).run(points)
    assert warm.cached_count == len(points)
    assert warm.hit_rate == 1.0
    for a, b in zip(cold, warm):
        assert b.cached and not a.cached
        assert a.point == b.point
        assert a.result.region_cycles == b.result.region_cycles
        assert a.result.fpu_utilization == b.result.fpu_utilization

    # Extending the sweep only simulates the new points.
    extended = points + [workload("vecop", "unrolled", n=16)]
    third = SweepRunner(cache=tmp_path / "c", workers=0).run(extended)
    assert third.cached_count == len(points)
    assert len(third) == len(points) + 1


def test_base_cfg_partitions_the_cache(tmp_path):
    cache_dir = tmp_path / "c"
    plain = SweepRunner(cache=cache_dir, workers=0).run([POINT])
    tweaked = SweepRunner(cache=cache_dir, workers=0,
                          base_cfg=CoreConfig(fp_queue_depth=2)) \
        .run([POINT])
    assert plain.cached_count == 0
    assert tweaked.cached_count == 0  # different key despite same point
    assert len(ResultCache(cache_dir)) == 2


def test_failures_are_not_cached(tmp_path):
    bad = workload("box3d1r", "Base", grid=(2, 3, 8),
                   overrides={"fpu_pipe_depth": -1})  # fails validate()
    first = SweepRunner(cache=tmp_path / "c", workers=0).run([bad])
    assert first.outcomes[0].status == "error"
    second = SweepRunner(cache=tmp_path / "c", workers=0).run([bad])
    assert second.cached_count == 0  # retried, not replayed


def test_point_key_includes_system_axes():
    """Multi-cluster axes partition the cache: without ``system`` in the
    canonical payload, a 1-cluster and a 4-cluster run of the same
    kernel/grid would collide on one key and the cache would serve
    single-cluster results for multi-cluster points."""
    base = workload("box3d1r", "Chaining+", grid=(4, 4, 8))
    multi = workload("box3d1r", "Chaining+", grid=(4, 4, 8),
                     system={"num_clusters": 4, "iters": 2})
    assert base != multi
    assert point_key(base, __version__) != point_key(multi, __version__)
    # Interconnect knobs are axes of their own.
    tuned = workload("box3d1r", "Chaining+", grid=(4, 4, 8),
                     system={"num_clusters": 4, "iters": 2,
                               "gmem_latency": 100})
    assert point_key(tuned, __version__) != point_key(multi, __version__)
    # Demonstrate the collision the fix prevents: strip the system axes
    # from the canonical payloads (the pre-fix key ingredients) and the
    # two distinct experiments become indistinguishable.
    pre_fix = {k: v for k, v in base.canonical().items() if k != "system"}
    pre_fix_multi = {k: v for k, v in multi.canonical().items()
                     if k != "system"}
    assert pre_fix == pre_fix_multi


def test_system_axes_round_trip_and_cache_partition(tmp_path):
    """End to end: a multi-cluster point simulates, caches under its own
    key, replays from cache, and never hits the single-cluster entry."""
    single = workload("box3d1r", "Chaining+", grid=(2, 4, 8))
    multi = workload("box3d1r", "Chaining+", grid=(2, 4, 8),
                     system={"num_clusters": 2})
    assert Workload.from_canonical(multi.canonical()) == multi
    assert "num_clusters=2" in multi.label

    runner = SweepRunner(cache=tmp_path / "c", workers=0)
    cold = runner.run([single, multi])
    assert all(o.ok for o in cold) and cold.cached_count == 0
    results = {o.point: o.result for o in cold}
    assert results[multi].meta["num_clusters"] == 2
    assert len(results[multi].system.per_cluster_cycles) == 2
    assert "per_cluster_cycles" not in results[multi].meta
    assert "num_clusters" not in results[single].meta

    warm = SweepRunner(cache=tmp_path / "c", workers=0) \
        .run([single, multi])
    assert warm.cached_count == 2
    for o in warm:
        # The --json record carries the system axes.
        assert "system" in o.record()["point"]


def test_point_key_engine_sensitivity():
    """The engine choice is part of the cache key (and defaults to the
    base config's own engine selection)."""
    key_auto = point_key(POINT, __version__)
    assert key_auto == point_key(POINT, __version__, engine="auto")
    assert key_auto != point_key(POINT, __version__, engine="scalar-v2")
    assert key_auto != point_key(POINT, __version__, engine="scalar")
    cfg = CoreConfig(engine="scalar")
    assert point_key(POINT, __version__, base_cfg=cfg) != \
        point_key(POINT, __version__, base_cfg=cfg, engine="scalar-v2")


def test_analytical_keys_collide_with_no_cycle_engine():
    """Regression: an analytical estimate must never replay as (or be
    shadowed by) a cycle-accurate record -- its key is distinct from
    every cycle engine's key, under default and overridden configs."""
    from repro.core.config import ENGINES

    for base_cfg in (None, CoreConfig(fpu_pipe_depth=4)):
        keys = {engine: point_key(POINT, __version__, base_cfg=base_cfg,
                                  engine=engine)
                for engine in ENGINES}
        analytical = keys.pop("analytical")
        assert analytical not in keys.values()
        # And the no-engine default resolves to a cycle key too.
        assert analytical != point_key(POINT, __version__,
                                       base_cfg=base_cfg)


# -- sharded layout -------------------------------------------------------


def test_new_store_is_sharded_and_files_match_key_prefixes(tmp_path):
    cache = ResultCache(tmp_path / "c")
    points = [workload("vecop", "baseline", n=n) for n in (16, 32, 48)]
    result = execute_workload(points[0])
    for point in points:
        key = point_key(point, __version__)
        cache.put(key, point, result, 0.0, __version__)
        shard = tmp_path / "c" / "shards" / \
            f"{key[:SHARD_PREFIX_LEN]}.jsonl"
        assert shard.exists()
        assert json.loads(shard.read_text().splitlines()[-1])["key"] == key
    assert len(ResultCache(tmp_path / "c")) == 3


# -- verification ---------------------------------------------------------


def test_verify_clean_store(tmp_path):
    cache = ResultCache(tmp_path / "c")
    cache.put(point_key(POINT, __version__), POINT,
              execute_workload(POINT), 0.0, __version__)
    report = cache.verify()
    assert report["ok"]
    assert report["records"] == 1 and report["files"] == 1
    assert report["corrupt"] == [] and report["conflicts"] == []


def test_verify_flags_corrupt_conflicting_and_orphan_lines(tmp_path):
    cache = ResultCache(tmp_path / "c")
    key = point_key(POINT, __version__)
    cache.put(key, POINT, execute_workload(POINT), 0.0, __version__)
    shard = cache._shard_path(key)
    record = json.loads(shard.read_text())
    with open(shard, "a") as handle:
        handle.write("not json at all\n")                  # corrupt
        handle.write(json.dumps(dict(record, seconds=9.9)) + "\n")
    orphan = dict(record, key="ffff" + record["key"][4:])
    cache._append(cache._shard_path(key), orphan)          # wrong shard

    report = ResultCache(tmp_path / "c").verify()
    assert not report["ok"]
    assert [c["line"] for c in report["corrupt"]] == [2]
    assert len(report["conflicts"]) == 1      # same key, differing line
    assert len(report["orphans"]) == 1
    assert report["duplicates"] == []


def test_verify_identical_duplicates_are_benign(tmp_path):
    cache = ResultCache(tmp_path / "c")
    key = point_key(POINT, __version__)
    cache.put(key, POINT, execute_workload(POINT), 0.0, __version__)
    shard = cache._shard_path(key)
    line = shard.read_text()
    with open(shard, "a") as handle:
        handle.write(line)                   # racing cooperating writer
    report = ResultCache(tmp_path / "c").verify()
    assert report["ok"]                      # benign
    assert len(report["duplicates"]) == 1


def test_verify_flags_invalid_result_payloads(tmp_path):
    cache = ResultCache(tmp_path / "c")
    key = point_key(POINT, __version__)
    cache._append(cache._shard_path(key),
                  {"key": key, "version": __version__,
                   "point": POINT.canonical(), "seconds": 0.0,
                   "result": "not-a-dict"})
    report = ResultCache(tmp_path / "c").verify()
    assert not report["ok"]
    assert len(report["invalid"]) == 1


def test_corrupt_lines_counted_and_warned_once(tmp_path):
    cache = ResultCache(tmp_path / "c")
    cache.put(point_key(POINT, __version__), POINT,
              execute_workload(POINT), 0.0, __version__)
    [shard] = (tmp_path / "c" / "shards").glob("*.jsonl")
    with open(shard, "a") as handle:
        handle.write('{"torn": \n{"no_key": 1}\n')
    with pytest.warns(UserWarning, match="2 malformed JSONL line"):
        reopened = ResultCache(tmp_path / "c")
    assert reopened.corrupt_lines == 2
    assert len(reopened) == 1                # good record still served


def test_mid_shard_corrupt_line_keeps_both_neighbours(tmp_path):
    """Bit rot in the middle of a shard costs exactly that line: loading
    keeps the records before and after it, and verify() names its file
    and line number."""
    cache = ResultCache(tmp_path / "c")
    key = point_key(POINT, __version__)
    cache.put(key, POINT, execute_workload(POINT), 0.0, __version__)
    shard = cache._shard_path(key)
    record = json.loads(shard.read_text())
    neighbour = dict(record, key=key[:SHARD_PREFIX_LEN] + "0" * (
        len(key) - SHARD_PREFIX_LEN))
    with open(shard, "a") as handle:
        handle.write('{"key": "' + key[:8] + '", "result": {\n')  # rot
        handle.write(json.dumps(neighbour, sort_keys=True) + "\n")
    with pytest.warns(UserWarning, match="1 malformed JSONL line"):
        reopened = ResultCache(tmp_path / "c")
    assert reopened.corrupt_lines == 1
    assert key in reopened and neighbour["key"] in reopened
    assert reopened.get(key) is not None
    assert reopened.get(neighbour["key"]) is not None
    report = reopened.verify()
    assert report["corrupt"] == [
        {"file": str(shard.relative_to(tmp_path / "c")), "line": 2}]
    assert report["records"] == 2 and not report["ok"]


def test_verify_reports_a_torn_tail_apart_from_corruption(tmp_path):
    """A malformed last line without its newline (a torn append) goes in
    its own bucket and leaves integrity ok; loading skips it and the
    next append cuts it off, so the store is clean again."""
    cache = ResultCache(tmp_path / "c")
    key = point_key(POINT, __version__)
    cache.put(key, POINT, execute_workload(POINT), 0.0, __version__)
    shard = cache._shard_path(key)
    with open(shard, "a") as handle:
        handle.write('{"key": "' + key[:8] + '", "res')      # torn tail
    report = ResultCache(tmp_path / "c").verify()
    where = {"file": str(shard.relative_to(tmp_path / "c")), "line": 2}
    assert report["torn_tail"] == [where]
    assert report["corrupt"] == [] and report["ok"]
    record = json.loads(shard.read_text().splitlines()[0])
    cache._append(shard, dict(record, key=key[:-1] + "0"))
    report = ResultCache(tmp_path / "c").verify()
    assert report["corrupt"] == [] and report["torn_tail"] == []
    assert report["ok"] and report["records"] == 2


def test_append_keeps_an_unterminated_whole_record(tmp_path):
    """A last line without its newline that is a whole JSON object is a
    record, not a torn write: the next append terminates it."""
    path = tmp_path / "log.jsonl"
    path.write_text('{"key": "a"}\n{"key": "b"}')
    append_jsonl(path, {"key": "c"})
    assert path.read_text() == '{"key": "a"}\n{"key": "b"}\n{"key": "c"}\n'
    path.write_text('{"key": "a"}\n[1, 2]')
    append_jsonl(path, {"key": "c"})
    assert path.read_text() == '{"key": "a"}\n{"key": "c"}\n'


# -- failure log ----------------------------------------------------------


def test_put_failure_accumulates_attempts_across_reloads(tmp_path):
    cache = ResultCache(tmp_path / "c")
    key = point_key(POINT, __version__)
    cache.put_failure(key, POINT, "error", "boom", 0.1, __version__)
    assert cache.get_failure(key)["attempts"] == 1

    reopened = ResultCache(tmp_path / "c")
    reopened.put_failure(key, POINT, "error", "boom", 0.1, __version__)
    failure = ResultCache(tmp_path / "c").get_failure(key)
    assert failure["attempts"] == 2
    assert failure["status"] == "error"


def test_get_failure_hidden_once_key_succeeds(tmp_path):
    cache = ResultCache(tmp_path / "c")
    key = point_key(POINT, __version__)
    cache.put_failure(key, POINT, "timeout", None, 60.0, __version__)
    cache.put(key, POINT, execute_workload(POINT), 0.0, __version__)
    assert cache.get_failure(key) is None
    assert ResultCache(tmp_path / "c").get_failure(key) is None


def test_failure_messages_are_truncated(tmp_path):
    cache = ResultCache(tmp_path / "c")
    key = point_key(POINT, __version__)
    cache.put_failure(key, POINT, "error", "x" * 10_000, 0.1, __version__)
    assert len(cache.get_failure(key)["error"]) == 2000


def test_runner_records_failures_for_audits(tmp_path):
    bad = workload("box3d1r", "Base", grid=(2, 3, 8),
                   overrides={"fpu_pipe_depth": -1})  # fails validate()
    SweepRunner(cache=tmp_path / "c", workers=0).run([bad])
    SweepRunner(cache=tmp_path / "c", workers=0).run([bad])
    cache = ResultCache(tmp_path / "c")
    failure = cache.get_failure(point_key(bad, __version__))
    assert failure is not None
    assert failure["status"] == "error"
    assert failure["attempts"] == 2          # cumulative across runs
