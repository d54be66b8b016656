"""Concurrent multi-writer stores: the invariant the serve layer
(and every cooperating campaign host) leans on.

Two real processes append to one sharded store simultaneously --
overlapping keys and writer-private keys, hundreds of interleaved
appends -- and the store must come out with no corrupt lines, a clean
``verify()`` (same-key records are byte-identical, hence benign
duplicates, never conflicts), and correct dedup-on-load.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro import __version__
from repro.api import workload
from repro.api.execute import execute_workload
from repro.sweep.cache import ResultCache, point_key

_WRITER = r"""
import json, sys
from repro.api.result import Result
from repro.api.workloads import Workload
from repro.sweep.cache import ResultCache

manifest = json.load(open(sys.argv[1]))
cache = ResultCache(manifest["store"])
for _ in range(manifest["rounds"]):
    for entry in manifest["records"]:
        cache.put(entry["key"],
                  Workload.from_canonical(entry["point"]),
                  Result.from_dict(entry["result"]),
                  entry["seconds"], entry["version"])
print(len(cache))
"""


def _manifest(store: Path, ns, rounds: int) -> dict:
    records = []
    for n in ns:
        point = workload("vecop", "baseline", n=n)
        records.append({
            "key": point_key(point, __version__),
            "point": point.canonical(),
            "result": execute_workload(point).to_dict(),
            # Same-key appends from racing writers are benign only
            # when byte-identical, so the wall-clock field is pinned.
            "seconds": 0.25,
            "version": __version__,
        })
    return {"store": str(store), "records": records, "rounds": rounds}


def _spawn(manifest_path: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parents[1] / "src")
    return subprocess.Popen(
        [sys.executable, "-c", _WRITER, str(manifest_path)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)


def test_two_processes_same_and_different_keys(tmp_path):
    store = tmp_path / "store"
    shared = _manifest(store, ns=[16, 32, 48], rounds=40)
    only_a = _manifest(store, ns=[64, 80], rounds=40)
    only_b = _manifest(store, ns=[96, 112], rounds=40)
    # writer A: shared + private-A keys; writer B: shared + private-B
    manifest_a = dict(shared,
                      records=shared["records"] + only_a["records"])
    manifest_b = dict(shared,
                      records=shared["records"] + only_b["records"])
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    path_a.write_text(json.dumps(manifest_a))
    path_b.write_text(json.dumps(manifest_b))

    proc_a = _spawn(path_a)
    proc_b = _spawn(path_b)
    out_a, err_a = proc_a.communicate(timeout=120)
    out_b, err_b = proc_b.communicate(timeout=120)
    assert proc_a.returncode == 0, err_a
    assert proc_b.returncode == 0, err_b

    cache = ResultCache(store)
    expected_keys = {r["key"] for r in manifest_a["records"]} | \
                    {r["key"] for r in manifest_b["records"]}
    # dedup-on-load: one record per unique key, none corrupt
    assert len(cache) == len(expected_keys) == 7
    assert cache.corrupt_lines == 0
    for record in manifest_a["records"] + manifest_b["records"]:
        hit = cache.get_record(record["key"])
        assert hit is not None
        assert hit["result"] == record["result"]
        assert hit["seconds"] == 0.25

    report = cache.verify()
    assert report["ok"], {k: v for k, v in report.items()
                          if k not in ("duplicates",)}
    assert not report["corrupt"]
    assert not report["conflicts"]
    assert not report["orphans"]
    # 560 appends over 7 unique keys: duplication is expected and
    # provably benign (byte-identical lines)
    assert report["records"] == 2 * 40 * 5
    assert len(report["duplicates"]) == report["records"] - 7


def test_interleaved_lines_stay_line_atomic(tmp_path):
    """Every line of every shard parses: appends from two processes
    interleave at line granularity, never mid-line."""
    store = tmp_path / "store"
    manifest = _manifest(store, ns=[16, 32, 48, 64], rounds=60)
    path = tmp_path / "m.json"
    path.write_text(json.dumps(manifest))
    procs = [_spawn(path), _spawn(path)]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    total = 0
    for shard in sorted((store / "shards").glob("*.jsonl")):
        for line in shard.read_text().splitlines():
            record = json.loads(line)  # raises on a torn line
            assert record["key"][:2] == shard.stem
            total += 1
    assert total == 2 * 60 * 4
