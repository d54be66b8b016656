"""Runner and figure-harness tests on small configurations."""

import pytest

from repro.eval.figures import (
    PAPER_CLAIMS,
    claims_from_results,
    fig1_data,
    fig3_data,
)
from repro.eval.runner import execute_build, execute_stencil
from repro.kernels.layout import Grid3d
from repro.kernels.registry import get_stencil, kernel_names
from repro.kernels.variants import VARIANT_ORDER, Variant
from repro.kernels.vecop import build_vecop


def test_run_build_metrics_consistent():
    result = execute_build(build_vecop(n=64))
    assert result.correct
    assert result.cycles >= result.region_cycles > 0
    assert 0 < result.fpu_utilization <= 1
    assert result.power_mw > 0
    assert result.gflops > 0
    assert result.gflops_per_watt > 0


def test_run_build_detects_wrong_golden():
    build = build_vecop(n=16)
    build.golden = build.golden + 1.0
    with pytest.raises(AssertionError, match="golden"):
        execute_build(build)
    result = execute_build(build, require_correct=False)
    assert not result.correct


def test_run_stencil_variant_wrapper(tiny_grid):
    result = execute_stencil("box3d1r", Variant.BASE, grid=tiny_grid)
    assert result.correct
    assert result.meta["kernel"] == "box3d1r"
    assert result.cycles_per_point > 0


def test_registry_contents():
    names = kernel_names()
    assert "box3d1r" in names and "j3d27pt" in names
    spec, grid = get_stencil("box3d1r")
    assert spec.ntaps == 27
    assert grid.nx % 4 == 0
    with pytest.raises(KeyError, match="unknown kernel"):
        get_stencil("nope")


def test_fig1_data_shapes():
    data = fig1_data(n=64)
    assert set(data) == {"baseline", "unrolled", "chaining"}
    assert data["baseline"].fpu_utilization < data["chaining"].fpu_utilization


def test_fig3_and_claims_small_grids(small_grid):
    grids = {"box3d1r": small_grid,
             "j3d27pt": Grid3d(nz=2, ny=3, nx=24)}
    results = fig3_data(grids=grids)
    assert len(results) == 10
    for (kernel, label), res in results.items():
        assert res.correct, (kernel, label)

    claims = claims_from_results(results)
    summary = claims.as_dict()
    # Shape assertions (tolerances are wide: tiny grids).
    assert summary["speedup_chaining_plus_vs_base_pct"] > 0
    assert summary["efficiency_chaining_plus_vs_base_pct"] > 0
    assert summary["efficiency_chaining_vs_base_pct"] > 0
    assert summary["min_chaining_utilization"] > 0.85
    assert set(summary) <= set(PAPER_CLAIMS) | {
        "min_chaining_utilization"}


def test_variant_order_is_papers():
    assert [v.label for v in VARIANT_ORDER] == \
        ["Base--", "Base-", "Base", "Chaining", "Chaining+"]
