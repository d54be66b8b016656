"""``ResultCache.prune``: LRU shard eviction with failure-log hygiene.

The subtle invariant: a success record hides any older failure under
the same key (``get_failure`` masks it).  Evicting the success without
also dropping the on-disk failure line would resurface a phantom
failure -- with its accumulated retry-budget debt -- on the next load.
"""

import json
import os
import time

import pytest

from repro import __version__
from repro.api import workload
from repro.cli import main as cli_main
from repro.sweep.cache import ResultCache, point_key
from repro.sweep.runner import execute_point


def _fill(cache, ns):
    """One cached vecop result per n; returns {n: (key, shard_path)}."""
    laid = {}
    for n in ns:
        point = workload("vecop", "baseline", n=n)
        key = point_key(point, __version__)
        cache.put(key, point, execute_point(point), 0.1, __version__)
        laid[n] = (key, cache._shard_path(key))
    return laid


def _age(path, days):
    stamp = time.time() - days * 86400.0
    os.utime(path, (stamp, stamp))


def test_prune_needs_a_budget(tmp_path):
    with pytest.raises(ValueError, match="max_bytes"):
        ResultCache(tmp_path / "c").prune()


def test_prune_by_age_evicts_cold_shards(tmp_path):
    cache = ResultCache(tmp_path / "c")
    laid = _fill(cache, [16, 32, 48, 64])
    # pick two entries guaranteed to live in different shard files
    shards = {path for _, path in laid.values()}
    assert len(shards) >= 2, "need distinct shards for this test"
    cold_key, cold_path = laid[16]
    _age(cold_path, days=30)

    report = cache.prune(max_age_days=7)
    assert cold_path.name in report["evicted_shards"]
    assert not cold_path.exists()
    assert cache.get(cold_key) is None
    # warm keys survive in memory and on reload
    reopened = ResultCache(tmp_path / "c")
    for n, (key, path) in laid.items():
        if path == cold_path:
            assert reopened.get(key) is None
        else:
            assert reopened.get(key) is not None


def test_prune_by_bytes_is_lru_by_mtime(tmp_path):
    cache = ResultCache(tmp_path / "c")
    laid = _fill(cache, [16, 32, 48, 64])
    paths = sorted({path for _, path in laid.values()})
    assert len(paths) >= 3, "need >= 3 shards for this test"
    for rank, path in enumerate(paths):
        _age(path, days=len(paths) - rank)  # paths[0] is the coldest
    newest = paths[-1]

    report = cache.prune(max_bytes=newest.stat().st_size)
    assert newest.exists()
    assert report["kept_shards"] == 1
    evicted = set(report["evicted_shards"])
    assert evicted == {p.name for p in paths[:-1]}


def test_prune_dry_run_touches_nothing(tmp_path):
    cache = ResultCache(tmp_path / "c")
    laid = _fill(cache, [16, 32, 48])
    for _, path in laid.values():
        _age(path, days=30)
    report = cache.prune(max_age_days=1, dry_run=True)
    assert report["dry_run"] is True
    assert report["evicted_records"] == 3
    for n, (key, path) in laid.items():
        assert path.exists()
        assert cache.get(key) is not None
    assert len(ResultCache(tmp_path / "c")) == 3


def test_prune_drops_superseded_failures_with_their_success(tmp_path):
    cache = ResultCache(tmp_path / "c")
    point = workload("vecop", "baseline", n=16)
    key = point_key(point, __version__)
    cache.put_failure(key, point, "timeout", "slow", 1.0, __version__)
    cache.put(key, point, execute_point(point), 0.1, __version__)
    assert cache.get_failure(key) is None  # masked by the success

    other = workload("vecop", "baseline", n=32)
    other_key = point_key(other, __version__)
    cache.put_failure(other_key, other, "error", "boom", 0.5,
                      __version__)
    if cache._shard_path(other_key) == cache._shard_path(key):
        pytest.skip("keys collided into one shard; invariant untestable")

    _age(cache._shard_path(key), days=30)
    report = cache.prune(max_age_days=7)
    assert report["dropped_failures"] == 1

    reopened = ResultCache(tmp_path / "c")
    # no phantom: the key is a plain miss, not a failed-with-attempts
    assert reopened.get(key) is None
    assert reopened.get_failure(key) is None
    # unrelated failures keep their record and retry-budget history
    kept = reopened.get_failure(other_key)
    assert kept is not None and kept["status"] == "error"


def test_prune_cli_dry_run_and_json(tmp_path, capsys):
    cache = ResultCache(tmp_path / "c")
    laid = _fill(cache, [16, 32])
    for _, path in laid.values():
        _age(path, days=30)
    out = tmp_path / "report.json"
    code = cli_main(["cache", "prune", "--cache-dir",
                     str(tmp_path / "c"), "--max-age-days", "7",
                     "--dry-run", "--json", str(out)])
    assert code == 0
    assert "would evict" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["dry_run"] is True
    assert report["evicted_records"] == 2
    assert len(ResultCache(tmp_path / "c")) == 2

    code = cli_main(["cache", "prune", "--cache-dir",
                     str(tmp_path / "c"), "--max-age-days", "7"])
    assert code == 0
    assert "evicted" in capsys.readouterr().out
    assert len(ResultCache(tmp_path / "c")) == 0


def test_prune_cli_requires_a_budget(tmp_path):
    with pytest.raises(SystemExit, match="max-bytes"):
        cli_main(["cache", "prune", "--cache-dir", str(tmp_path / "c")])
