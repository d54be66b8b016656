"""Campaign audit and backfill: every gap class, coverage roll-ups,
plan ordering, retry budgets, and the resume property (backfill makes
any campaign complete)."""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import __version__
from repro.api import Session, workload
from repro.api.execute import execute_workload
from repro.sweep import SweepSpec
from repro.sweep.audit import (
    AUDIT_AXES,
    AUDIT_SCHEMA,
    BACKFILL_ORDER,
    GAP_CLASSES,
    BackfillPlan,
    audit_campaign,
)
from repro.sweep.cache import ResultCache, point_key

DATA = Path(__file__).parent / "data"


def seed_ok(cache, point, version=__version__):
    """Simulate one point and store it exactly as a sweep would."""
    key = point_key(point, version)
    cache.put(key, point, execute_workload(point), 0.0, version)
    return key


def seed_pre15(cache, point, version=__version__):
    """Store a record whose result payload predates the canonical
    schema (no ``schema`` stamp), as a 1.4-era store would hold."""
    key = point_key(point, version)
    record = {"key": key, "version": version, "point": point.canonical(),
              "seconds": 0.0,
              "result": {"name": point.label, "correct": True,
                         "cycles": 100}}
    cache._append(cache._shard_path(key), record)
    return key


def seed_truncated(cache, point, version=__version__):
    """Store a current-version record whose ``result`` lost its
    ``clock_hz`` (a hand-edited or bit-rotted line); it supersedes the
    intact record under the same key."""
    key = seed_ok(cache, point, version)
    record = cache.get_record(key)
    payload = {k: v for k, v in record["result"].items()
               if k != "clock_hz"}
    cache._append(cache._shard_path(key), dict(record, result=payload))
    return key


def seed_analytical(cache, point, version=__version__):
    """Store an analytical estimate under the point's CYCLE-fidelity
    key (as a hand-merged or copied store could), which the audit's
    fidelity gate must refuse to count as ok."""
    from repro.analytical.model import estimate_workload
    key = point_key(point, version)
    cache.put(key, point, estimate_workload(point), 0.0, version)
    return key


# -- classification, one class at a time ----------------------------------


def test_empty_campaign_is_complete(tmp_path):
    audit = audit_campaign([], ResultCache(tmp_path / "c"))
    assert audit.total == 0
    assert audit.coverage == 1.0 and audit.complete
    assert audit.gaps == []


def test_ok_and_missing(tmp_path):
    cache = ResultCache(tmp_path / "c")
    done = workload("vecop", "chaining", n=16)
    todo = workload("vecop", "baseline", n=16)
    seed_ok(cache, done)
    audit = audit_campaign([done, todo], cache)
    by_label = {a.point.label: a for a in audit}
    assert by_label[done.label].status == "ok"
    assert by_label[todo.label].status == "missing"
    assert audit.coverage == 0.5 and not audit.complete
    assert [a.point for a in audit.gaps] == [todo]


def test_error_and_timeout_come_from_the_failure_log(tmp_path):
    cache = ResultCache(tmp_path / "c")
    err = workload("vecop", "chaining", n=16)
    slow = workload("vecop", "baseline", n=16)
    key_err = point_key(err, __version__)
    key_slow = point_key(slow, __version__)
    cache.put_failure(key_err, err, "error",
                      "Traceback ...\nValueError: boom", 0.1, __version__)
    cache.put_failure(key_err, err, "error",
                      "Traceback ...\nValueError: boom", 0.1, __version__)
    cache.put_failure(key_slow, slow, "timeout", None, 60.0, __version__)

    audit = audit_campaign([err, slow], ResultCache(tmp_path / "c"))
    by_label = {a.point.label: a for a in audit}
    assert by_label[err.label].status == "error"
    assert by_label[err.label].attempts == 2     # cumulative, reloaded
    assert by_label[err.label].detail == "ValueError: boom"
    assert by_label[slow.label].status == "timeout"
    assert by_label[slow.label].attempts == 1


def test_success_supersedes_a_recorded_failure(tmp_path):
    cache = ResultCache(tmp_path / "c")
    point = workload("vecop", "chaining", n=16)
    key = point_key(point, __version__)
    cache.put_failure(key, point, "error", "flaky", 0.1, __version__)
    seed_ok(cache, point)
    audit = audit_campaign([point], ResultCache(tmp_path / "c"))
    assert audit.points[0].status == "ok"


def test_stale_version_record_is_found_by_canonical_match(tmp_path):
    cache = ResultCache(tmp_path / "c")
    point = workload("vecop", "chaining", n=16)
    seed_ok(cache, point, version="0.0.1")   # keyed under the old era
    audit = audit_campaign([point], cache)
    assert audit.points[0].status == "stale-version"
    assert "0.0.1" in audit.points[0].detail
    # The reported key is the CURRENT one: a backfill re-keys the point.
    assert audit.points[0].key == point_key(point, __version__)


def test_stale_schema_beats_stale_version(tmp_path):
    cache = ResultCache(tmp_path / "c")
    direct = workload("vecop", "chaining", n=16)
    via_canonical = workload("vecop", "baseline", n=16)
    seed_pre15(cache, direct)                       # current key
    seed_pre15(cache, via_canonical, version="0.0.1")  # old key
    audit = audit_campaign([direct, via_canonical],
                           ResultCache(tmp_path / "c"))
    assert [a.status for a in audit] == ["stale-schema", "stale-schema"]
    assert "pre-1.5" in audit.points[0].detail


def test_same_version_other_context_is_missing_not_stale(tmp_path):
    """A record computed under the same version but a different engine
    context has a different key: for THIS campaign the point was never
    run, so it is missing, not stale."""
    cache = ResultCache(tmp_path / "c")
    point = workload("vecop", "chaining", n=16)
    key_scalar = point_key(point, __version__, engine="scalar")
    cache.put(key_scalar, point, execute_workload(point), 0.0, __version__)
    audit = audit_campaign([point], cache)   # engine context: auto
    assert audit.points[0].status == "missing"


def test_analytical_record_is_stale_fidelity_at_cycle_context(tmp_path):
    """A campaign audited at cycle fidelity never counts an analytical
    record as ok -- it lands in the stale-fidelity class."""
    cache = ResultCache(tmp_path / "c")
    point = workload("vecop", "chaining", n=16)
    seed_analytical(cache, point)
    audit = audit_campaign([point], cache)   # engine context: auto
    assert audit.points[0].status == "stale-fidelity"
    assert "analytical" in audit.points[0].detail
    assert not audit.complete
    # Backfill repairs it: the class is part of the execution order.
    assert "stale-fidelity" in BACKFILL_ORDER
    plan = BackfillPlan(audit)
    assert [e.point for e in plan.entries] == [point]


def test_cycle_record_is_stale_fidelity_at_analytical_context(tmp_path):
    """The reverse direction: a cycle-accurate record where the
    campaign expects estimates is flagged, not silently served."""
    cache = ResultCache(tmp_path / "c")
    point = workload("vecop", "chaining", n=16)
    key = point_key(point, __version__, engine="analytical")
    cache.put(key, point, execute_workload(point), 0.0, __version__)
    audit = audit_campaign([point], cache, engine="analytical")
    assert audit.points[0].status == "stale-fidelity"
    assert "expects 'analytical'" in audit.points[0].detail


def test_analytical_campaign_audits_its_own_records_ok(tmp_path):
    """Estimates cached by an analytical session are ok *in that
    session's own context* -- the gate flags mismatches only."""
    session = Session(cache=str(tmp_path / "c"), engine="analytical",
                      workers=0)
    point = workload("vecop", "chaining", n=16)
    session.map([point])
    audit = session.audit([point])
    assert audit.points[0].status == "ok" and audit.complete
    # The very same store audited at cycle fidelity has no record under
    # the cycle key at all (the engine is a key ingredient): missing.
    cycle = Session(cache=str(tmp_path / "c"), workers=0)
    assert cycle.audit([point]).points[0].status == "missing"


def test_corrupt_store_lines_surface_in_the_audit(tmp_path):
    cache = ResultCache(tmp_path / "c")
    point = workload("vecop", "chaining", n=16)
    seed_ok(cache, point)
    [shard] = (tmp_path / "c" / "shards").glob("*.jsonl")
    with open(shard, "a") as handle:
        handle.write('{"key": "torn-tail...')
    with pytest.warns(UserWarning, match="1 malformed JSONL line"):
        reopened = ResultCache(tmp_path / "c")
    audit = audit_campaign([point], reopened)
    assert audit.corrupt_lines == 1
    assert audit.to_dict()["corrupt_lines"] == 1
    assert audit.points[0].status == "ok"    # the good record survives


# -- roll-ups -------------------------------------------------------------


def test_counts_always_list_every_class(tmp_path):
    audit = audit_campaign([workload("vecop", "chaining", n=16)],
                           ResultCache(tmp_path / "c"))
    counts = audit.counts()
    assert tuple(counts) == GAP_CLASSES
    assert counts["missing"] == 1
    assert sum(counts.values()) == 1


def test_by_axis_coverage_table(tmp_path):
    cache = ResultCache(tmp_path / "c")
    done = workload("vecop", "chaining", n=16)
    seed_ok(cache, done)
    points = [done,
              workload("vecop", "chaining", n=32),
              workload("vecop", "baseline", n=16)]
    audit = audit_campaign(points, cache)
    variants = audit.by_axis("variant")
    assert variants["chaining"] == {"ok": 1, "total": 2, "coverage": 0.5}
    assert variants["baseline"] == {"ok": 0, "total": 1, "coverage": 0.0}
    assert set(audit.axes()) == set(AUDIT_AXES)
    with pytest.raises(ValueError, match="unknown audit axis"):
        audit.by_axis("grid")


def test_audit_report_shape(tmp_path):
    spec = SweepSpec(name="shape", kernels=("vecop",),
                     variants=("baseline",), ns=(16, 32))
    report = audit_campaign(spec, ResultCache(tmp_path / "c")).to_dict()
    assert report["schema"] == AUDIT_SCHEMA
    assert report["campaign"] == "shape"
    assert report["total"] == 2 and report["coverage"] == 0.0
    assert len(report["gaps"]) == len(report["points"]) == 2
    for row in report["gaps"]:
        assert set(row) == {"label", "point", "key", "status", "detail",
                            "attempts"}


def test_golden_audit_report(tmp_path):
    """One campaign exercising every gap class, pinned byte-for-byte
    (version fixed, so keys and the whole report are deterministic)."""
    version = "9.9.9"
    cache = ResultCache(tmp_path / "c")
    p_ok = workload("vecop", "chaining", n=16)
    p_missing = workload("vecop", "baseline", n=16)
    p_stale = workload("vecop", "chaining", n=32)
    p_schema = workload("vecop", "unrolled", n=16)
    p_error = workload("vecop", "baseline", n=32)
    p_timeout = workload("vecop", "unrolled", n=32)
    p_fidelity = workload("vecop", "baseline", n=48)
    seed_ok(cache, p_ok, version=version)
    seed_ok(cache, p_stale, version="1.0.0")
    seed_pre15(cache, p_schema, version=version)
    seed_analytical(cache, p_fidelity, version=version)
    key_err = point_key(p_error, version)
    cache.put_failure(key_err, p_error, "error",
                      "Traceback (most recent call last):\n"
                      "ValueError: boom", 0.5, version)
    cache.put_failure(key_err, p_error, "error",
                      "Traceback (most recent call last):\n"
                      "ValueError: boom", 0.5, version)
    cache.put_failure(point_key(p_timeout, version), p_timeout,
                      "timeout", None, 60.0, version)

    audit = audit_campaign(
        [p_ok, p_missing, p_stale, p_schema, p_error, p_timeout,
         p_fidelity],
        ResultCache(tmp_path / "c"), version=version, name="golden-audit")
    golden = json.loads((DATA / "audit_golden.json").read_text())
    assert audit.to_dict() == golden


# -- backfill plans -------------------------------------------------------


def _gapped_store(root):
    """A store where one spec point is in every non-ok class."""
    cache = ResultCache(root)
    points = {
        "ok": workload("vecop", "chaining", n=16),
        "missing": workload("vecop", "baseline", n=16),
        "stale-version": workload("vecop", "chaining", n=32),
        "stale-schema": workload("vecop", "unrolled", n=16),
        "error": workload("vecop", "baseline", n=32),
        "timeout": workload("vecop", "unrolled", n=32),
        "stale-fidelity": workload("vecop", "baseline", n=48),
    }
    seed_ok(cache, points["ok"])
    seed_ok(cache, points["stale-version"], version="0.0.1")
    seed_pre15(cache, points["stale-schema"])
    seed_analytical(cache, points["stale-fidelity"])
    cache.put_failure(point_key(points["error"], __version__),
                      points["error"], "error", "boom", 0.1, __version__)
    cache.put_failure(point_key(points["timeout"], __version__),
                      points["timeout"], "timeout", None, 60.0,
                      __version__)
    return points


def test_backfill_order_groups_by_class(tmp_path):
    points = _gapped_store(tmp_path / "c")
    # Spec order deliberately scrambled; the plan regroups it.
    audit = audit_campaign(
        [points["error"], points["timeout"], points["stale-fidelity"],
         points["stale-schema"], points["ok"], points["stale-version"],
         points["missing"]],
        ResultCache(tmp_path / "c"))
    plan = BackfillPlan(audit)
    assert [e.status for e in plan.entries] == list(BACKFILL_ORDER)
    assert points["ok"] not in plan.points
    assert len(plan) == 6 and not plan.abandoned
    report = plan.to_dict()
    assert report["schema"] == "repro-backfill/v1"
    assert report["planned"] == 6 and report["abandoned"] == []


def test_retry_budget_abandons_persistent_failures(tmp_path):
    cache = ResultCache(tmp_path / "c")
    flaky = workload("vecop", "chaining", n=16)
    key = point_key(flaky, __version__)
    for _ in range(3):
        cache.put_failure(key, flaky, "error", "boom", 0.1, __version__)
    audit = audit_campaign([flaky], cache)
    assert audit.points[0].attempts == 3

    stop = BackfillPlan(audit, retry_budget=3)
    assert stop.entries == [] and len(stop.abandoned) == 1
    assert "abandoned" in stop.describe()
    assert stop.to_dict()["abandoned"][0]["attempts"] == 3

    more = BackfillPlan(audit, retry_budget=4)   # budget not yet spent
    assert len(more.entries) == 1 and not more.abandoned

    with pytest.raises(ValueError, match="retry_budget"):
        BackfillPlan(audit, retry_budget=0)


def test_dry_plan_on_complete_campaign_says_nothing_to_do(tmp_path):
    cache = ResultCache(tmp_path / "c")
    point = workload("vecop", "chaining", n=16)
    seed_ok(cache, point)
    plan = BackfillPlan(audit_campaign([point], cache))
    assert len(plan) == 0
    assert "nothing to do" in plan.describe()


# -- session integration --------------------------------------------------


def test_session_audit_requires_a_cache():
    with pytest.raises(ValueError, match="requires a result cache"):
        Session(cache=None).audit([])


def test_session_backfill_simulates_only_the_gaps(tmp_path):
    spec = SweepSpec(name="resume", kernels=("vecop",),
                     variants=("baseline", "chaining"), ns=(16, 32))
    session = Session(cache=str(tmp_path / "c"), workers=0)
    # Interrupted campaign: only half the points ever ran.
    session.map(spec.points()[:2])

    audit = session.audit(spec)
    assert audit.counts()["missing"] == 2 and audit.coverage == 0.5

    plan, campaign = session.backfill(audit)
    assert len(plan.points) == 2
    assert campaign.cached_count == 0        # gaps only, nothing warm
    assert campaign.ok_count == 2
    assert session.audit(spec).complete


def test_session_backfill_accepts_a_spec_directly(tmp_path):
    spec = SweepSpec(name="direct", kernels=("vecop",),
                     variants=("chaining",), ns=(16,))
    session = Session(cache=str(tmp_path / "c"), workers=0)
    plan, campaign = session.backfill(spec)
    assert len(plan.points) == 1 and campaign.ok_count == 1
    # Second backfill of a complete campaign is a no-op.
    plan2, campaign2 = session.backfill(spec)
    assert plan2.points == [] and len(campaign2.outcomes) == 0


@pytest.mark.parametrize("via", ["run", "backfill"])
@pytest.mark.parametrize("seed", [seed_truncated, seed_pre15],
                         ids=["truncated", "pre-1.5"])
def test_stale_schema_record_is_a_miss_that_reruns(tmp_path, seed, via):
    """A record that fails the schema check is a cache miss, not a
    crash: the point re-runs and its new record supersedes the bad one."""
    point = workload("vecop", "chaining", n=16)
    key = seed(ResultCache(tmp_path / "c"), point)
    session = Session(cache=str(tmp_path / "c"), workers=0)
    assert session.audit([point]).points[0].status == "stale-schema"
    assert session.cache.get(key) is None

    if via == "run":
        assert session.run(point).correct
    else:
        plan, campaign = session.backfill([point])
        assert [e.status for e in plan.entries] == ["stale-schema"]
        assert campaign.ok_count == 1 and campaign.cached_count == 0

    reopened = ResultCache(tmp_path / "c")
    assert reopened.get(key).cycles == execute_workload(point).cycles
    assert audit_campaign([point], reopened).complete


def test_backfill_rekeys_stale_points(tmp_path):
    cache = ResultCache(tmp_path / "c")
    point = workload("vecop", "chaining", n=16)
    seed_ok(cache, point, version="0.0.1")
    session = Session(cache=str(tmp_path / "c"), workers=0)
    audit = session.audit([point])
    assert audit.points[0].status == "stale-version"
    session.backfill(audit)
    fresh = ResultCache(tmp_path / "c")
    record = fresh.get_record(point_key(point, __version__))
    assert record is not None and record["version"] == __version__


# -- the resume property --------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(ns=st.lists(st.sampled_from([16, 32, 48, 64]),
                   min_size=1, max_size=3, unique=True),
       done=st.integers(min_value=0, max_value=5))
def test_backfill_then_audit_is_always_complete(ns, done):
    """backfill(audit(spec)) -> audit(spec).coverage == 1.0 for any
    spec and any partially-completed store."""
    spec = SweepSpec(name="prop", kernels=("vecop",),
                     variants=("baseline", "chaining"), ns=tuple(ns))
    points = spec.points()
    with tempfile.TemporaryDirectory() as root:
        session = Session(cache=root, workers=0)
        session.map(points[:done % (len(points) + 1)])
        session.backfill(spec)
        final = session.audit(spec)
        assert final.complete and final.coverage == 1.0
