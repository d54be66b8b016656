"""The unified Result schema: typed fields, round-trips, and rejection
of incomplete records."""

import json

import pytest

from repro.api import (
    RESULT_KEYS,
    RESULT_SCALARS,
    Result,
    Session,
    SystemReport,
    workload,
)
from repro.energy.model import EnergyReport


def _energy():
    return EnergyReport(total_pj=1234.5, cycles=1000, clock_hz=1e9,
                        breakdown={"fpu": 1000.0, "tcdm": 234.5})


def _result(**kw):
    base = dict(name="t", correct=True, cycles=1000, region_cycles=800,
                fpu_utilization=0.9, energy=_energy(), clock_hz=1e9,
                flops=1600, points=100)
    base.update(kw)
    return Result(**base)


def test_typed_fields_are_required_at_construction():
    for missing in ("clock_hz", "flops", "points"):
        with pytest.raises(ValueError, match=f"Result.{missing}"):
            _result(**{missing: None})   # explicit None: targeted error
    # Omission is a plain TypeError: the fields have no defaults.
    with pytest.raises(TypeError, match="clock_hz"):
        Result(name="t", correct=True, cycles=1, region_cycles=1,
               fpu_utilization=0.5, energy=_energy())
    # Nonsensical values are rejected too, not deferred to a later
    # ZeroDivisionError in a derived metric.
    with pytest.raises(ValueError, match="clock_hz must be positive"):
        _result(clock_hz=0)
    with pytest.raises(ValueError, match=">= 0"):
        _result(flops=-1)


def test_meta_may_not_shadow_typed_fields():
    with pytest.raises(ValueError, match="meta may not shadow"):
        _result(meta={"flops": 3200})
    with pytest.raises(ValueError, match="clock_hz"):
        _result(meta={"clock_hz": 2e9})


def test_derived_metrics_come_from_typed_fields():
    res = _result()
    assert res.gflops == 1600 / (800 / 1e9) / 1e9
    assert res.cycles_per_point == 8.0
    assert res.gflops_per_watt == res.gflops / (res.power_mw / 1e3)
    # explicit zero means "not reported", not a hidden default
    assert _result(flops=0).gflops == 0.0
    assert _result(points=0).cycles_per_point == 0.0


def test_to_dict_emits_exactly_the_schema_keys():
    data = _result().to_dict()
    assert tuple(data) == RESULT_KEYS
    assert data["schema"] == "repro-result/v1"
    json.dumps(data)  # must be JSON-clean


def test_round_trip_is_exact():
    res = _result(meta={"kernel": "t", "unroll": 4},
                  stalls={"raw": 17})
    data = json.loads(json.dumps(res.to_dict()))
    again = Result.from_dict(data)
    assert again.to_dict() == res.to_dict()
    for name in RESULT_SCALARS:
        assert getattr(again, name) == getattr(res, name)
    assert again.energy.breakdown == res.energy.breakdown
    assert again.meta == res.meta and again.stalls == res.stalls
    assert again.system is None


def test_round_trip_with_system_report():
    report = SystemReport(
        num_clusters=4, iters=2, per_cluster_cycles=[10, 11, 12, 13],
        sys_barriers=2, gmem_bytes_read=4096, gmem_bytes_written=2048,
        gmem_latency_cycles=160, interconnect_busy_cycles=64,
        interconnect_contended_cycles=8)
    res = _result(system=report)
    again = Result.from_dict(json.loads(json.dumps(res.to_dict())))
    assert again.system == report
    assert again.to_dict() == res.to_dict()


def test_malformed_stamped_record_raises_instead_of_lifting():
    """A record carrying the schema stamp must have the typed fields at
    the top level; truncation is an error, never a hidden default."""
    data = _result().to_dict()
    del data["clock_hz"]
    with pytest.raises(KeyError):
        Result.from_dict(data)


def test_stampless_new_shape_record_is_read_typed_not_lifted():
    """Top-level typed fields mark a new-shape record even without the
    'schema' stamp: they must be read, never legacy-lifted to 1e9/0/0;
    a partial set is an error."""
    data = _result(flops=512, points=64, clock_hz=2e9).to_dict()
    del data["schema"]
    res = Result.from_dict(data)
    assert (res.clock_hz, res.flops, res.points) == (2e9, 512, 64)
    del data["points"]
    with pytest.raises(KeyError):
        Result.from_dict(data)


def test_unsupported_schema_value_is_rejected():
    data = _result().to_dict()
    data["schema"] = "repro-result/v999"
    with pytest.raises(ValueError, match="unsupported result schema"):
        Result.from_dict(data)


def test_from_dict_rejects_pre_1_5_records():
    """A 1.4-era record kept clock_hz/flops/points in meta; 2.0 no
    longer lifts them, so the missing typed fields are an error."""
    legacy = {
        "name": "old", "correct": True, "cycles": 500,
        "region_cycles": 400, "fpu_utilization": 0.8,
        "energy": {"total_pj": 10.0, "cycles": 500, "clock_hz": 1e9,
                   "breakdown": {"fpu": 10.0}},
        "meta": {"clock_hz": 2e9, "flops": 800, "points": 50,
                 "kernel": "old"},
        "stalls": {"raw": 3},
    }
    with pytest.raises(KeyError, match="clock_hz"):
        Result.from_dict(legacy)


def test_from_dict_rejects_pre_1_5_system_records():
    """A 1.4-era system record kept the system aggregates in meta; 2.0
    reads them only from the typed ``system`` field, so the record is
    rejected rather than lifted (and never given a default clock)."""
    legacy = {
        "name": "old-sys", "correct": True, "cycles": 900,
        "region_cycles": 900, "fpu_utilization": 0.7,
        "energy": {"total_pj": 10.0, "cycles": 900, "clock_hz": 1e9,
                   "breakdown": {}},
        "meta": {"clock_hz": 1e9, "flops": 100, "points": 10,
                 "num_clusters": 2, "iters": 2,
                 "per_cluster_cycles": [450, 450], "sys_barriers": 3,
                 "gmem_bytes_read": 64, "gmem_bytes_written": 32,
                 "gmem_latency_cycles": 40,
                 "interconnect_busy_cycles": 16,
                 "interconnect_contended_cycles": 4},
    }
    with pytest.raises(KeyError, match="clock_hz"):
        Result.from_dict(legacy)
    assert not hasattr(SystemReport, "from_meta")


def test_live_system_result_has_typed_report():
    res = Session().run(workload("box3d1r", "Chaining+", grid=(2, 4, 8),
                                 num_clusters=2))
    assert isinstance(res.system, SystemReport)
    assert res.system.num_clusters == 2
    assert len(res.system.per_cluster_cycles) == 2
    assert max(res.system.per_cluster_cycles) == res.cycles
    # Result.system is the only copy of the aggregates.
    mirrored = set(res.system.to_dict()) - {"num_clusters", "iters"}
    assert not mirrored & set(res.meta)
    assert "flops" not in res.meta and "clock_hz" not in res.meta
    again = Result.from_dict(json.loads(json.dumps(res.to_dict())))
    assert again.to_dict() == res.to_dict()
    assert again.gflops == res.gflops
