"""CLI tests (fast paths only; fig3/claims are covered by benchmarks)."""

import json

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "box3d1r" in out
    assert "Chaining+" in out


def test_fig1_with_json(tmp_path, capsys):
    path = tmp_path / "fig1.json"
    assert main(["fig1", "--n", "64", "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "Fig. 1" in out
    data = json.loads(path.read_text())
    assert set(data) == {"baseline", "unrolled", "chaining"}
    assert data["chaining"]["correct"]
    assert data["chaining"]["fpu_utilization"] > \
        data["baseline"]["fpu_utilization"]


def test_run_single_kernel(tmp_path, capsys):
    path = tmp_path / "run.json"
    rc = main(["run", "--kernel", "box3d1r", "--variant", "Chaining+",
               "--nz", "2", "--ny", "3", "--nx", "8",
               "--json", str(path)])
    assert rc == 0
    record = json.loads(path.read_text())
    assert record["correct"]
    assert record["fpu_utilization"] > 0.5


def test_run_unknown_variant_exits():
    with pytest.raises(SystemExit, match="unknown variant"):
        main(["run", "--variant", "Turbo"])


def test_run_partial_grid_exits():
    with pytest.raises(SystemExit, match="together"):
        main(["run", "--nz", "2"])


def test_profile_prints_hotspot_tables(capsys):
    rc = main(["profile", "--kernel", "box3d1r", "--variant", "Chaining+",
               "--nz", "2", "--ny", "3", "--nx", "8", "--top", "5",
               "--engine", "scalar-v2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "engine=scalar-v2" in out
    assert "correct=True" in out
    assert "top 5 by cumulative" in out
    assert "top 5 by tottime" in out
    assert "ncalls" in out


def test_profile_partial_grid_exits():
    with pytest.raises(SystemExit, match="together"):
        main(["profile", "--nz", "2"])


def test_trace_chaining(capsys):
    assert main(["trace", "--variant", "chaining", "--n", "8",
                 "--slots", "12"]) == 0
    out = capsys.readouterr().out
    assert "fp issue" in out
    assert "fifo" in out          # dataflow section for chaining


def test_trace_baseline_no_dataflow(capsys):
    assert main(["trace", "--variant", "baseline", "--n", "8"]) == 0
    out = capsys.readouterr().out
    assert "fifo" not in out


def test_area(capsys):
    assert main(["area"]) == 0
    out = capsys.readouterr().out
    assert "chaining overhead" in out
    assert "<2%" in out


def test_area_json(tmp_path, capsys):
    path = tmp_path / "area.json"
    assert main(["area", "--json", str(path)]) == 0
    data = json.loads(path.read_text())
    assert 0 < data["overhead_core_percent"] < 2.0
    assert data["breakdown_kge"]


def test_list_names_sweep_presets(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "sweep presets:" in out
    assert "smoke" in out


SWEEP_SPEC = {
    "name": "cli-smoke",
    "kernels": ["vecop"],
    "variants": ["baseline", "chaining"],
    "ns": [16, 32],
}


def test_sweep_spec_file_cold_then_warm(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SWEEP_SPEC))
    cache = tmp_path / "cache"
    out_json = tmp_path / "out.json"

    rc = main(["sweep", "--spec", str(spec), "--cache-dir", str(cache),
               "--workers", "0", "--json", str(out_json)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cli-smoke" in out
    assert "0 cache hits" in out
    data = json.loads(out_json.read_text())
    assert data["points"] == 4
    assert data["cache_hits"] == 0
    assert all(o["status"] == "ok" for o in data["outcomes"])
    # New stores use the directory-sharded layout.
    assert list((cache / "shards").glob("*.jsonl"))

    rc = main(["sweep", "--spec", str(spec), "--cache-dir", str(cache),
               "--workers", "0", "--json", str(out_json)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "4 cache hits (100%)" in out
    warm = json.loads(out_json.read_text())
    assert warm["cache_hits"] == 4
    cold_utils = [o["result"]["fpu_utilization"] for o in data["outcomes"]]
    warm_utils = [o["result"]["fpu_utilization"] for o in warm["outcomes"]]
    assert cold_utils == warm_utils


def test_sweep_csv_and_baseline_table(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SWEEP_SPEC))
    out_csv = tmp_path / "out.csv"
    rc = main(["sweep", "--spec", str(spec), "--no-cache", "--quiet",
               "--workers", "0", "--baseline", "baseline",
               "--csv", str(out_csv)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "vs. baseline 'baseline'" in out
    lines = out_csv.read_text().strip().splitlines()
    assert len(lines) == 1 + 4
    assert lines[0].startswith("kernel,variant,grid")


def test_sweep_failure_sets_exit_code(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "name": "bad", "kernels": ["vecop"], "variants": ["chaining"],
        "ns": [16, 17],  # 17 is not a multiple of depth+1 -> error
    }))
    rc = main(["sweep", "--spec", str(spec), "--no-cache", "--quiet",
               "--workers", "0"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "1 failed" in out


def test_sweep_argument_validation(tmp_path):
    with pytest.raises(SystemExit, match="exactly one"):
        main(["sweep"])
    with pytest.raises(SystemExit, match="unknown preset"):
        main(["sweep", "--preset", "nope"])
    with pytest.raises(SystemExit, match="bad spec"):
        main(["sweep", "--spec", str(tmp_path / "missing.json")])
    # Bad --baseline/--metric must fail BEFORE any simulation runs.
    with pytest.raises(SystemExit, match="unknown variant"):
        main(["sweep", "--preset", "fig3", "--baseline", "Turbo"])
    with pytest.raises(SystemExit, match="unknown metric"):
        main(["sweep", "--preset", "fig3", "--baseline", "Base",
              "--metric", "region_cycle"])
    # --metric is validated even without --baseline.
    with pytest.raises(SystemExit, match="unknown metric"):
        main(["sweep", "--preset", "fig3", "--metric", "bogus"])


def test_sweep_baseline_is_case_insensitive(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "kernels": ["box3d1r"], "variants": ["Base", "Chaining+"],
        "grids": [[2, 3, 8]],
    }))
    rc = main(["sweep", "--spec", str(spec), "--no-cache", "--quiet",
               "--workers", "0", "--baseline", "base"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "vs. baseline 'Base'" in out  # normalized, not dropped


def test_sweep_json_surfaces_campaign_summary(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SWEEP_SPEC))
    out_json = tmp_path / "out.json"
    cache = tmp_path / "cache"
    assert main(["sweep", "--spec", str(spec), "--cache-dir", str(cache),
                 "--workers", "0", "--json", str(out_json)]) == 0
    assert main(["sweep", "--spec", str(spec), "--cache-dir", str(cache),
                 "--workers", "0", "--json", str(out_json)]) == 0
    data = json.loads(out_json.read_text())
    assert data["cached_count"] == 4
    assert data["hit_rate"] == 1.0
    assert data["ok"] == 4
    assert data["errors"] == 0 and data["timeouts"] == 0
    assert data["summary"]["points"] == 4
    assert data["summary"]["hit_rate"] == 1.0


def test_sweep_progress_meter(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SWEEP_SPEC))
    assert main(["sweep", "--spec", str(spec), "--no-cache",
                 "--workers", "0", "--progress"]) == 0
    captured = capsys.readouterr()
    assert "[  4/4] 100%" in captured.err
    assert "eta" in captured.err and "cache" in captured.err
    assert "[  1/4]" not in captured.out  # per-point lines replaced


def test_sweep_obs_out_exports_trace_and_metrics(tmp_path, capsys):
    from repro import obs

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SWEEP_SPEC))
    obs_dir = tmp_path / "obs"
    assert main(["sweep", "--spec", str(spec), "--no-cache",
                 "--workers", "0", "--quiet",
                 "--obs-out", str(obs_dir)]) == 0
    assert not obs.is_enabled()  # CLI tears telemetry down afterwards
    out = capsys.readouterr().out
    assert "trace.json" in out and "metrics.json" in out
    doc = json.loads((obs_dir / "trace.json").read_text())
    names = {e["name"] for e in doc["traceEvents"] if e["ph"] != "M"}
    assert {"Session.map", "sweep.point", "execute"} <= names
    metrics = json.loads((obs_dir / "metrics.json").read_text())
    assert metrics["campaign"]["points"] == 4
    assert "counters" in metrics["metrics"]


def test_trace_perfetto_export(tmp_path, capsys):
    path = tmp_path / "issue.json"
    assert main(["trace", "--variant", "chaining", "--n", "8",
                 "--perfetto", str(path)]) == 0
    assert "wrote Perfetto trace" in capsys.readouterr().out
    doc = json.loads(path.read_text())
    cats = {e["cat"] for e in doc["traceEvents"] if e["ph"] != "M"}
    assert any(c.startswith("fp.") for c in cats)
    assert any(c.startswith("int.") for c in cats)


# -- audit ----------------------------------------------------------------


AUDIT_SPEC = {
    "name": "audit-smoke",
    "kernels": ["vecop"],
    "variants": ["baseline", "chaining"],
    "ns": [16, 32],
}


def _write_audit_spec(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(AUDIT_SPEC))
    return spec


def test_audit_cold_then_backfill_then_complete(tmp_path, capsys):
    spec = _write_audit_spec(tmp_path)
    cache = tmp_path / "cache"
    gaps_json = tmp_path / "gaps.json"

    # Nothing run yet: every point is missing, exit code 1.
    rc = main(["audit", "--spec", str(spec), "--cache-dir", str(cache),
               "--json", str(gaps_json)])
    assert rc == 1
    report = json.loads(gaps_json.read_text())
    assert report["schema"] == "repro-audit/v1"
    assert report["counts"]["missing"] == report["total"] == 4
    assert report["coverage"] == 0.0
    out = capsys.readouterr().out
    assert "coverage 0.0%" in out
    assert "missing" in out

    # --backfill simulates exactly the gaps and exits 0.
    bf_json = tmp_path / "bf.json"
    rc = main(["audit", "--spec", str(spec), "--cache-dir", str(cache),
               "--workers", "0", "--backfill", "--json", str(bf_json)])
    assert rc == 0
    payload = json.loads(bf_json.read_text())
    assert payload["backfill"]["planned"] == 4
    assert payload["backfill"]["executed"]["ok"] == 4
    assert payload["backfill"]["executed"]["cached_count"] == 0
    assert payload["post"]["complete"] and payload["post"]["coverage"] == 1.0
    capsys.readouterr()

    # The campaign is now complete: audit exits 0 at 100% coverage.
    rc = main(["audit", "--spec", str(spec), "--cache-dir", str(cache)])
    assert rc == 0
    assert "coverage 100.0%" in capsys.readouterr().out


def test_audit_dry_run_plans_without_simulating(tmp_path, capsys):
    spec = _write_audit_spec(tmp_path)
    cache = tmp_path / "cache"
    rc = main(["audit", "--spec", str(spec), "--cache-dir", str(cache),
               "--dry-run"])
    assert rc == 1                      # still incomplete: dry run
    out = capsys.readouterr().out
    assert "backfill plan" in out
    assert not (cache / "shards").exists()  # nothing was simulated


def test_audit_csv_gap_report(tmp_path):
    import csv as csv_mod

    spec = _write_audit_spec(tmp_path)
    out_csv = tmp_path / "audit.csv"
    main(["audit", "--spec", str(spec),
          "--cache-dir", str(tmp_path / "cache"), "--quiet",
          "--csv", str(out_csv)])
    rows = list(csv_mod.DictReader(out_csv.read_text().splitlines()))
    assert len(rows) == 4
    assert set(rows[0]) == {"label", "kernel", "variant", "engine",
                            "num_clusters", "key", "status", "detail",
                            "attempts"}
    assert all(row["status"] == "missing" for row in rows)


def test_audit_verify_store_only_mode(tmp_path, capsys):
    spec = _write_audit_spec(tmp_path)
    cache = tmp_path / "cache"
    assert main(["sweep", "--spec", str(spec), "--cache-dir", str(cache),
                 "--workers", "0", "--quiet"]) == 0
    capsys.readouterr()
    out_json = tmp_path / "verify.json"
    rc = main(["audit", "--verify-store", "--cache-dir", str(cache),
               "--json", str(out_json)])
    assert rc == 0
    assert "store integrity: ok" in capsys.readouterr().out
    report = json.loads(out_json.read_text())["verify"]
    assert report["ok"] and report["records"] == 4


@pytest.mark.parametrize("torn", [True, False])
def test_audit_verify_store_torn_tail_and_corruption(tmp_path, capsys, torn):
    """A torn last line is reported as ``torn_tail`` with integrity ok
    (exit 0); a malformed line mid-file is ``corrupt`` and exits 1."""
    spec = _write_audit_spec(tmp_path)
    cache = tmp_path / "cache"
    assert main(["sweep", "--spec", str(spec), "--cache-dir", str(cache),
                 "--workers", "0", "--quiet"]) == 0
    capsys.readouterr()
    shard = sorted((cache / "shards").glob("*.jsonl"))[0]
    text = shard.read_text()
    shard.write_text(text + '{"key": "torn' if torn
                     else "not json\n" + text)
    rc = main(["audit", "--verify-store", "--cache-dir", str(cache)])
    out = capsys.readouterr().out
    if torn:
        assert rc == 0 and "torn_tail: 1" in out and "corrupt" not in out
        assert "store integrity: ok" in out
    else:
        assert rc == 1 and "corrupt: 1" in out and "torn_tail" not in out
        assert "store integrity: FAILED" in out


def test_audit_argument_validation(tmp_path):
    with pytest.raises(SystemExit, match="exactly one"):
        main(["audit"])
    with pytest.raises(SystemExit, match="unknown preset"):
        main(["audit", "--preset", "nope",
              "--cache-dir", str(tmp_path / "c")])
