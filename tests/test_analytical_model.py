"""Cycle-model validation against closed-form analytical expectations.

For simple steady-state kernels the cycle count can be derived by hand
from the microarchitectural rules; these tests pin the simulator to that
arithmetic, which is what makes the Fig. 3 shapes trustworthy.

The second half is the differential suite for ``engine="analytical"``
(:mod:`repro.analytical`): for every kernel family -- vecop, stencil,
multi-cluster system, linalg -- the closed-form estimate must land
within the calibration report's per-family error bound of the
cycle-accurate result, under every cycle-accurate engine; plus the
Hypothesis property test (valid workloads never raise, estimates are
finite, positive and deterministic, keys never collide with
cycle-accurate keys), the golden-pinned ``repro-calibration/v1``
report schema, and the triage-mode guarantee that only interest-region
points ever hit a simulator.
"""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytical import (
    CALIBRATION_SCHEMA,
    CalibrationReport,
    calibrate,
    calibration_builds,
    calibration_workloads,
    estimate_build,
    estimate_workload,
    kernel_family,
)
from repro.api import Session, make_workload
from repro.api.execute import execute_workload
from repro.core.config import ENGINES
from repro.eval.runner import execute_build
from repro.kernels.layout import Grid3d
from repro.kernels.stencil import box3d1r
from repro.kernels.stencil_codegen import build_stencil
from repro.kernels.variants import Variant
from repro.kernels.vecop import VecopVariant, build_vecop
from repro.sweep.cache import ResultCache, point_key

DATA = Path(__file__).parent / "data"

#: Every cycle-accurate engine (the analytical engine's foils).
CYCLE_ENGINES = tuple(e for e in ENGINES if e != "analytical")


def test_vecop_baseline_period_is_2_plus_latency():
    # Steady state of Fig. 1a: fadd, 3 RAW stalls, fmul -> 5 cycles per
    # element (with frep, the integer core adds nothing).
    n = 256
    result = execute_build(build_vecop(n=n, variant=VecopVariant.BASELINE))
    period = result.region_cycles / n
    assert period == pytest.approx(5.0, abs=0.2)


def test_vecop_chaining_period_is_2():
    n = 256
    result = execute_build(build_vecop(n=n, variant=VecopVariant.CHAINING))
    period = result.region_cycles / n
    assert period == pytest.approx(2.0, abs=0.1)


def test_vecop_bne_loop_adds_int_overhead():
    # With a bne loop the integer core must issue addi+bne (+2-cycle
    # taken-branch penalty) per iteration; the FP queue drains meanwhile,
    # so every iteration costs ~4 extra queue-empty cycles over frep.
    n = 128
    frep = execute_build(build_vecop(n=n, variant=VecopVariant.CHAINING,
                                     loop_mode="frep"))
    bne = execute_build(build_vecop(n=n, variant=VecopVariant.CHAINING,
                                    loop_mode="bne"))
    iters = n // 4
    extra_per_iter = (bne.region_cycles - frep.region_cycles) / iters
    assert 2.0 <= extra_per_iter <= 6.0


def _issue_slots_per_block(variant: Variant, ntaps: int, unroll: int,
                           spills: int) -> int:
    """FP issue slots per inner block, from the DESIGN.md accounting."""
    compute = ntaps * unroll
    stores = 0 if variant.writeback_via_ssr else unroll
    loads = 0 if variant.coeffs_via_ssr or variant.coeffs_in_rf else spills
    return compute + stores + loads


@pytest.mark.parametrize("variant,spills", [
    (Variant.BASE, 0),
    (Variant.BASE_MM, 4),
    (Variant.CHAINING_PLUS, 0),
])
def test_stencil_block_slot_accounting(variant, spills):
    # Region cycles per block = FP slots + integer-loop overhead
    # (addi/bne + branch penalty, and the out-pointer bump for
    # explicit-store variants) + second-order stalls.  The analytical
    # slot count must explain the measurement to within ~10%.
    grid = Grid3d(nz=2, ny=4, nx=32)
    build = build_stencil(box3d1r(), grid, variant)
    result = execute_build(build)
    blocks = build.meta["blocks"]
    slots = _issue_slots_per_block(variant, 27, 4, spills)
    int_overhead = 4 if variant.writeback_via_ssr else 5
    expected = slots + int_overhead
    measured = result.region_cycles / blocks
    assert measured == pytest.approx(expected, rel=0.10), (
        f"{variant.label}: measured {measured:.1f} cycles/block, "
        f"analytical {expected}"
    )


def test_stencil_compute_op_count_is_exact():
    grid = Grid3d(nz=2, ny=3, nx=16)
    for variant in (Variant.BASE, Variant.CHAINING):
        build = build_stencil(box3d1r(), grid, variant)
        result = execute_build(build)
        # taps * points, exactly -- no op is ever lost or duplicated.
        assert result.meta["expected_compute_ops"] == 27 * grid.points


def test_speedup_follows_slot_ratio():
    # The Chaining+ vs Base speedup must track the issue-slot ratio
    # (112+int)/(108+int) within a couple of points.
    grid = Grid3d(nz=2, ny=4, nx=32)
    base = execute_build(build_stencil(box3d1r(), grid, Variant.BASE))
    plus = execute_build(build_stencil(box3d1r(), grid,
                                       Variant.CHAINING_PLUS))
    measured = base.region_cycles / plus.region_cycles
    analytical = (112 + 5) / (108 + 4)
    assert measured == pytest.approx(analytical, rel=0.04)


# -- differential: engine="analytical" vs the cycle-accurate engines ------


@pytest.fixture(scope="module")
def cal_ctx():
    """One calibration run shared by the whole differential suite:
    the fitted report, plus a cache holding every cycle-accurate
    reference result so individual tests replay instead of
    re-simulating."""
    with tempfile.TemporaryDirectory() as root:
        report = calibrate(cache=root, workers=0, version="9.9.9")
        yield report, Session(cache=root, workers=0)


def _assert_within_bound(report, family, estimate, actual, label):
    fit = report.families[family]
    for metric, est_v, act_v in (
            ("cycles", estimate.cycles, actual.cycles),
            ("energy", estimate.energy.total_pj,
             actual.energy.total_pj)):
        scale = getattr(fit, f"scale_{metric}")
        bound = getattr(fit, f"bound_{metric}")
        err = abs(est_v * scale - act_v) / act_v
        assert err <= bound, (
            f"{label}: {metric} estimate {est_v} x {scale:.4f} vs "
            f"actual {act_v}: error {err:.4f} exceeds the calibrated "
            f"{family} bound {bound:.4f}")


def test_every_family_is_calibrated(cal_ctx):
    report, _ = cal_ctx
    assert set(report.families) == {"vecop", "stencil", "system",
                                    "linalg"}
    for fit in report.families.values():
        assert fit.points >= 2
        assert 0.5 < fit.scale_cycles < 2.0
        assert fit.bound_cycles < 0.25, (
            "analytical model drifted: residuals should stay in the "
            "few-percent range")


def test_differential_all_families_within_bound(cal_ctx):
    """Every cross-validation point (all kernel families, incl. the
    multi-cluster systems) estimates within the advertised bound."""
    report, session = cal_ctx
    points = calibration_workloads()
    assert any(p.num_clusters > 1 for p in points)
    for point in points:
        est = estimate_workload(point)
        actual = session.run(point)     # cache hit from calibration
        _assert_within_bound(report, kernel_family(point), est, actual,
                             point.label)


def test_differential_linalg_builds_within_bound(cal_ctx):
    report, _ = cal_ctx
    for build in calibration_builds():
        est = estimate_build(build)
        actual = execute_build(build)
        _assert_within_bound(report, "linalg", est, actual, build.name)


@pytest.mark.parametrize("engine", CYCLE_ENGINES)
@pytest.mark.parametrize("point", [
    make_workload("vecop", "chaining", n=64, loop_mode="frep"),
    make_workload("vecop", "baseline", n=64, loop_mode="bne"),
    make_workload("j2d5pt", "Chaining", grid=(1, 8, 32)),
    make_workload("box2d1r", "Base-", grid=(1, 8, 32)),
    make_workload("star3d1r", "Chaining", grid=(8, 4, 16),
                  num_clusters=2, iters=2),
], ids=lambda p: p.label if hasattr(p, "label") else p)
def test_differential_per_engine(cal_ctx, point, engine):
    """The bound holds against every cycle-accurate engine (they are
    bit-identical, so one estimate must explain them all)."""
    report, _ = cal_ctx
    est = estimate_workload(point)
    actual = execute_workload(point, engine=engine)
    _assert_within_bound(report, kernel_family(point), est, actual,
                         f"{point.label} [{engine}]")


def test_estimates_carry_the_fidelity_marker():
    result = execute_workload(
        make_workload("vecop", "chaining", n=64), engine="analytical")
    assert result.meta["fidelity"] == "analytical"
    assert result.meta["family"] == "vecop"
    assert result.correct
    # Round-trips through the canonical schema with the marker intact.
    from repro.api.result import Result
    assert Result.from_dict(result.to_dict()).meta["fidelity"] \
        == "analytical"


def test_estimate_raises_the_builders_shape_errors():
    with pytest.raises(ValueError, match="multiple of 4"):
        estimate_workload(make_workload("vecop", "chaining", n=30))
    with pytest.raises(ValueError, match="multiple of unroll"):
        estimate_workload(make_workload("j2d5pt", "Chaining",
                                        grid=(1, 8, 30)))
    with pytest.raises(ValueError):   # nz < num_clusters: no slabs
        estimate_workload(make_workload("box3d1r", "Chaining",
                                        grid=(2, 4, 16),
                                        num_clusters=4))
    with pytest.raises(ValueError, match="no analytical model"):
        estimate_build(build_stencil(box3d1r(), Grid3d(2, 4, 16),
                                     Variant.BASE))


def test_session_run_build_routes_to_the_estimator():
    build = build_vecop(n=64, variant=VecopVariant.CHAINING)
    result = Session(engine="analytical").run(build)
    assert result.meta["fidelity"] == "analytical"
    assert result.name == build.name


# -- Hypothesis: the estimator is total over valid workloads --------------


_VECOP_POINTS = st.builds(
    lambda variant, k, loop_mode: make_workload(
        "vecop", variant, n=4 * k, loop_mode=loop_mode),
    variant=st.sampled_from(["baseline", "unrolled", "chaining"]),
    k=st.integers(min_value=1, max_value=64),
    loop_mode=st.sampled_from(["bne", "frep"]),
)

_STENCIL_POINTS = st.builds(
    lambda kernel, variant, nz, ny, bx, clusters, iters: make_workload(
        kernel, variant, grid=(nz * max(clusters, 1), ny, 4 * bx),
        system={"num_clusters": clusters, "iters": iters}
        if clusters > 1 else None),
    kernel=st.sampled_from(["box3d1r", "j3d27pt", "star3d1r", "j2d5pt",
                            "box2d1r"]),
    variant=st.sampled_from(["Base--", "Base-", "Base", "Chaining",
                             "Chaining+"]),
    nz=st.integers(min_value=1, max_value=3),
    ny=st.integers(min_value=1, max_value=6),
    bx=st.integers(min_value=1, max_value=8),
    clusters=st.sampled_from([1, 1, 1, 2, 4]),
    iters=st.integers(min_value=1, max_value=3),
)


@settings(max_examples=60, deadline=None)
@given(point=st.one_of(_VECOP_POINTS, _STENCIL_POINTS))
def test_analytical_engine_is_total_finite_and_deterministic(point):
    """For any valid workload: never raises, finite positive cycles and
    energy, deterministic, and its cache key collides with no
    cycle-accurate engine's key."""
    first = execute_workload(point, engine="analytical")
    again = execute_workload(point, engine="analytical")
    assert first.cycles > 0 and math.isfinite(first.cycles)
    assert first.region_cycles > 0
    assert first.energy.total_pj > 0
    assert math.isfinite(first.energy.total_pj)
    assert 0.0 <= first.fpu_utilization <= 1.0
    assert first.meta["fidelity"] == "analytical"
    assert (point.num_clusters > 1) == (first.system is not None)
    assert first.cycles == again.cycles
    assert first.energy.total_pj == again.energy.total_pj

    analytical_key = point_key(point, "v", None, engine="analytical")
    for engine in (*CYCLE_ENGINES, None):
        assert analytical_key != point_key(point, "v", None,
                                           engine=engine)


# -- the golden calibration report ----------------------------------------


def test_calibration_report_schema_is_golden(cal_ctx):
    """The repro-calibration/v1 report, pinned byte-for-byte (fixed
    version string; simulation and the model are both deterministic).
    Regenerate with:

        PYTHONPATH=src python -c "from repro.analytical import calibrate;
        print(calibrate(workers=0, version='9.9.9').to_json())" \\
            > tests/data/calibration_golden.json
    """
    report, _ = cal_ctx
    golden = json.loads((DATA / "calibration_golden.json").read_text())
    assert report.to_dict() == golden


def test_calibration_report_round_trips(cal_ctx):
    report, _ = cal_ctx
    again = CalibrationReport.from_dict(report.to_dict())
    assert again.to_dict() == report.to_dict()
    assert again.schema == CALIBRATION_SCHEMA
    assert again.bound("vecop") == report.families["vecop"].bound_cycles
    with pytest.raises(ValueError, match="not a repro-calibration/v1"):
        CalibrationReport.from_dict({"schema": "something/else"})


def test_calibration_scales_feed_back_into_estimates(cal_ctx):
    report, _ = cal_ctx
    point = make_workload("vecop", "chaining", n=64)
    raw = estimate_workload(point)
    fitted = estimate_workload(point, calibration=report)
    scale = report.families["vecop"].scale_cycles
    assert fitted.cycles == int(round(raw.cycles * scale))
    assert fitted.meta["calibration"]["scale_cycles"] == scale


# -- triage: only interest-region points ever hit a simulator -------------


def _triage_points():
    # Estimated cycle cost is strictly increasing in n, so the interest
    # region (top quartile by cycles) is exactly the largest points.
    return [make_workload("vecop", "chaining", n=n)
            for n in (32, 64, 96, 128, 160, 192, 224, 256)]


def test_triage_simulates_only_the_interest_region(tmp_path):
    points = _triage_points()
    session = Session(cache=str(tmp_path / "c"), workers=0)
    campaign = session.map(points, fidelity="triage")

    assert campaign.triage == {"points": 8, "estimated": 8,
                               "selected": 2}
    assert campaign.summary()["triage"] == campaign.triage
    assert len(campaign) == 8 and campaign.ok_count == 8

    simulated = [o for o in campaign if o.key is not None]
    estimated = [o for o in campaign if o.key is None]
    assert [o.point.n for o in simulated] == [224, 256]
    for outcome in estimated:
        assert outcome.result.meta["fidelity"] == "analytical"
        assert not outcome.cached
    for outcome in simulated:
        assert "fidelity" not in outcome.result.meta

    # The store proves it: exactly the interest-region points were
    # simulated (and cached); nothing else ever reached a backend.
    records = list(ResultCache(tmp_path / "c").records())
    assert len(records) == 2

    # A second triage pass replays the simulated points from cache.
    again = session.map(points, fidelity="triage")
    assert again.cached_count == 2


def test_triage_interest_dict_and_callable(tmp_path):
    points = _triage_points()
    session = Session(cache=str(tmp_path / "c"), workers=0)

    half = session.map(points, fidelity="triage",
                       interest={"metric": "cycles", "top": 0.5})
    assert half.triage["selected"] == 4

    target = estimate_workload(points[3]).cycles        # n=128
    banded = session.map(points, fidelity="triage",
                         interest={"metric": "cycles", "min": target,
                                   "max": target})
    simulated = [o.point.n for o in banded if o.key is not None]
    assert simulated == [128]

    picky = session.map(points, fidelity="triage",
                        interest=lambda p, est: p.n == 96)
    assert picky.triage["selected"] == 1

    with pytest.raises(ValueError, match="interest applies"):
        session.map(points, interest={"top": 0.5})
    with pytest.raises(ValueError, match="fidelity must be"):
        session.map(points, fidelity="roofline")


def test_triage_routes_invalid_points_to_the_simulator(tmp_path):
    """A point whose estimate raises (invalid shape) is re-run
    cycle-accurately so the campaign carries the authoritative error."""
    bad = make_workload("vecop", "chaining", n=30)   # not a multiple of 4
    good = make_workload("vecop", "chaining", n=64)
    session = Session(cache=str(tmp_path / "c"), workers=0)
    campaign = session.map([bad, good], fidelity="triage")
    by_n = {o.point.n: o for o in campaign}
    assert by_n[30].status == "error"
    assert "multiple of 4" in by_n[30].error
    assert by_n[64].ok
    assert campaign.triage == {"points": 2, "estimated": 1,
                               "selected": 2}


def test_analytical_fidelity_map_is_fast_and_cached(tmp_path):
    """An analytical campaign caches under analytical keys and replays
    from cache on the second pass -- and an auto campaign over the same
    points shares nothing with it."""
    points = _triage_points()
    session = Session(cache=str(tmp_path / "c"), engine="analytical",
                      workers=0)
    first = session.map(points)
    assert first.ok_count == 8 and first.cached_count == 0
    second = session.map(points)
    assert second.cached_count == 8
    for outcome in second:
        assert outcome.result.meta["fidelity"] == "analytical"
    # Different fidelity, different keys: nothing replays cross-tier.
    cycle = Session(cache=str(tmp_path / "c"), workers=0)
    assert {cycle.key(p) for p in points}.isdisjoint(
        {session.key(p) for p in points})
