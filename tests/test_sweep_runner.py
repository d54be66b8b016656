"""Runner semantics: serial/parallel determinism, isolation, overrides,
and the aggregation helpers over campaign outcomes."""

import pytest

from repro.core.config import CoreConfig
from repro.api import workload
from repro.eval.runner import execute_stencil
from repro.isa.instructions import InstrClass
from repro.kernels.variants import Variant
from repro.sweep import (
    SweepRunner,
    SweepSpec,
    apply_overrides,
    best_points,
    by_kernel_variant,
    preset_points,
    speedup_vs_baseline,
    summary_rows,
)

FAST_POINTS = [
    workload("vecop", "baseline", n=16),
    workload("vecop", "chaining", n=16),
    workload("box3d1r", "Base", grid=(2, 3, 8)),
    workload("box3d1r", "Chaining+", grid=(2, 3, 8)),
]


def _fingerprint(campaign):
    return [(o.point, o.status, o.result.cycles, o.result.region_cycles,
             o.result.fpu_utilization, o.result.energy.total_pj)
            for o in campaign]


def test_serial_matches_direct_eval_runner():
    campaign = SweepRunner(workers=0).run(
        [workload("box3d1r", "Chaining+", grid=(2, 3, 8))])
    direct = execute_stencil(
        "box3d1r", Variant.CHAINING_PLUS,
        grid=campaign.outcomes[0].point.grid3d())
    res = campaign.outcomes[0].result
    assert res.cycles == direct.cycles
    assert res.fpu_utilization == direct.fpu_utilization
    assert res.energy.total_pj == direct.energy.total_pj


def test_parallel_matches_serial():
    serial = SweepRunner(workers=0).run(FAST_POINTS)
    parallel = SweepRunner(workers=2).run(FAST_POINTS)
    assert all(o.ok for o in serial)
    assert _fingerprint(serial) == _fingerprint(parallel)


def test_outcomes_preserve_point_order():
    campaign = SweepRunner(workers=2).run(FAST_POINTS)
    assert [o.point for o in campaign] == FAST_POINTS


def test_error_isolation_keeps_campaign_alive():
    points = [
        workload("vecop", "chaining", n=16),
        workload("vecop", "chaining", n=17),  # not a depth+1 multiple
        workload("vecop", "baseline", n=16),
    ]
    campaign = SweepRunner(workers=0).run(points)
    statuses = [o.status for o in campaign]
    assert statuses == ["ok", "error", "ok"]
    bad = campaign.outcomes[1]
    assert "multiple" in bad.error  # the builder's message, with traceback
    with pytest.raises(RuntimeError, match="n=17"):
        campaign.raise_on_failure()


def test_error_isolation_parallel():
    points = [
        workload("vecop", "chaining", n=16),
        workload("box3d1r", "Base", grid=(2, 3, 8),
                 overrides={"fpu_pipe_depth": -1}),
    ]
    campaign = SweepRunner(workers=2).run(points)
    assert [o.status for o in campaign] == ["ok", "error"]
    assert "fpu_pipe_depth" in campaign.outcomes[1].error


def test_timeout_is_captured():
    # A microscopic budget trips before any simulation can finish.
    campaign = SweepRunner(workers=2, timeout=1e-6).run(
        [workload("vecop", "baseline", n=16)])
    assert campaign.outcomes[0].status == "timeout"
    assert "budget" in campaign.outcomes[0].error


def test_timeout_budget_excludes_queue_wait():
    # Two workers, three points: both slow default-grid stencils blow
    # their budget while the fast vecop sits queued behind them.  The
    # queued point's clock must not start until it actually runs, so it
    # still completes instead of being falsely charged for the wait.
    # The stencils run on the seed interpreter (seconds each), so they
    # stay slow however fast the default engine gets.
    points = [
        workload("box3d1r", "Chaining+", engine="scalar"),
        workload("j3d27pt", "Chaining+", engine="scalar"),
        workload("vecop", "baseline", n=16),
    ]
    campaign = SweepRunner(workers=2, timeout=0.3).run(points)
    assert [o.status for o in campaign] == ["timeout", "timeout", "ok"]


def test_apply_overrides():
    assert apply_overrides(None, ()) is None  # seed-identical fast path
    cfg = apply_overrides(None, (("fpu_depth", 5), ("tcdm_banks", 16)))
    assert cfg.fpu_pipe_depth == 5
    assert cfg.fpu_latency[InstrClass.FP_FMA] == 5
    assert cfg.fpu_latency[InstrClass.FP_DIV] == 11  # untouched
    assert cfg.tcdm_banks == 16
    # The base config is never mutated.
    base = CoreConfig()
    derived = apply_overrides(base, (("fpu_depth", 2),))
    assert base.fpu_pipe_depth == 3
    assert derived.fpu_pipe_depth == 2


def test_depth_override_changes_behaviour():
    deep = workload("vecop", "baseline", n=28,
                    overrides={"fpu_depth": 6})
    shallow = workload("vecop", "baseline", n=28,
                       overrides={"fpu_depth": 1})
    campaign = SweepRunner(workers=0).run([deep, shallow])
    campaign.raise_on_failure()
    by_point = campaign.results()
    assert by_point[deep].fpu_utilization < \
        by_point[shallow].fpu_utilization


def test_presets_expand():
    for name in ("fig3", "smoke", "depth-ablation", "banking"):
        description, points = preset_points(name)
        assert description
        assert points
        assert len(points) == len(set(points))
    _, smoke = preset_points("smoke")
    assert len(smoke) >= 24
    with pytest.raises(ValueError, match="unknown preset"):
        preset_points("nope")


def test_spec_input_accepted_directly():
    spec = SweepSpec(kernels=("vecop",), variants=("baseline",),
                     ns=(16, 32))
    campaign = SweepRunner(workers=0).run(spec)
    assert len(campaign) == 2


def test_aggregation_helpers():
    points = [workload(kernel, variant, grid=(2, 3, 8))
              for kernel in ("box3d1r", "j2d5pt")
              for variant in ("Base", "Chaining+")]
    campaign = SweepRunner(workers=0).run(points)
    campaign.raise_on_failure()

    groups = by_kernel_variant(campaign)
    assert len(groups) == 4
    assert all(len(members) == 1 for members in groups.values())

    table = speedup_vs_baseline(campaign, "Base", metric="region_cycles")
    assert set(table) == {"Chaining+"}
    entry = table["Chaining+"]
    assert len(entry["ratios"]) == 2
    assert entry["geomean"] >= 1.0  # chaining never loses cycles

    best = best_points(campaign, metric="fpu_utilization")
    assert set(best) == {"box3d1r", "j2d5pt"}
    assert all(o.point.variant == "Chaining+" for o in best.values())

    rows = summary_rows(campaign)
    assert len(rows) == 4
    assert all(row[1] == "ok" for row in rows)


def test_engine_selection_is_bit_identical():
    """`repro sweep --engine {auto,scalar}` must not change a single
    reported number -- only the wall clock."""
    point = workload("vecop", "chaining", n=256, loop_mode="frep")
    results = {
        engine: SweepRunner(workers=0, engine=engine).run([point])
        .outcomes[0].result
        for engine in ("scalar", "auto")
    }
    a, b = results["scalar"], results["auto"]
    assert a.cycles == b.cycles
    assert a.region_cycles == b.region_cycles
    assert a.fpu_utilization == b.fpu_utilization
    assert a.stalls == b.stalls
    assert a.energy.total_pj == b.energy.total_pj


def test_engine_override_axis():
    point = workload("vecop", "chaining", n=64,
                     overrides={"engine": "scalar"})
    campaign = SweepRunner(workers=0).run([point])
    campaign.raise_on_failure()
    assert campaign.outcomes[0].result.correct

    import pytest
    with pytest.raises(ValueError, match="engine"):
        workload("vecop", "chaining", n=64,
                 overrides={"engine": "warp"})


def test_runner_rejects_unknown_engine():
    import pytest
    with pytest.raises(ValueError, match="engine"):
        SweepRunner(engine="warp")
