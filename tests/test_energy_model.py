"""Energy model tests: accounting identities and variant-level physics."""

import pytest

from repro.core import Cluster, CoreConfig
from repro.energy.model import EnergyModel, EnergyParams
from repro.eval.runner import execute_build
from repro.kernels.stencil import box3d1r
from repro.kernels.stencil_codegen import build_stencil
from repro.kernels.variants import Variant


def run_variant(variant, grid):
    build = build_stencil(box3d1r(), grid, variant)
    return execute_build(build)


def test_breakdown_sums_to_total(tiny_grid):
    result = run_variant(Variant.BASE, tiny_grid)
    report = result.energy
    assert report.total_pj == pytest.approx(sum(report.breakdown.values()))
    assert report.pj_per_cycle > 0
    assert 0 < report.fraction("tcdm") < 1


def test_power_conversion():
    from repro.energy.model import EnergyReport

    report = EnergyReport(total_pj=60_000.0, cycles=1000,
                          clock_hz=1e9, breakdown={})
    # 60 pJ/cycle at 1 GHz = 60 mW.
    assert report.power_mw == pytest.approx(60.0)
    assert report.pj_per_cycle == pytest.approx(60.0)


def test_zero_cycle_report_safe():
    from repro.energy.model import EnergyReport

    report = EnergyReport(0.0, 0, 1e9, {})
    assert report.power_mw == 0.0
    assert report.pj_per_cycle == 0.0
    assert report.fraction("tcdm") == 0.0


def test_power_in_papers_ballpark(small_grid):
    # The calibration target: around 60 mW at 1 GHz (paper Fig. 3 right).
    result = run_variant(Variant.BASE, small_grid)
    assert 40.0 < result.power_mw < 80.0


def test_chaining_removes_coefficient_stream_energy(small_grid):
    base = run_variant(Variant.BASE, small_grid)
    chaining = run_variant(Variant.CHAINING, small_grid)
    # Chaining moves coefficients to the RF: less TCDM energy, a bit
    # more register-file energy, cheap FIFO accesses appear.
    assert chaining.energy.breakdown["tcdm"] < base.energy.breakdown["tcdm"]
    assert chaining.energy.breakdown["chaining"] > 0
    assert base.energy.breakdown["chaining"] == 0


def test_chaining_improves_energy_efficiency(small_grid):
    base = run_variant(Variant.BASE, small_grid)
    chaining = run_variant(Variant.CHAINING, small_grid)
    plus = run_variant(Variant.CHAINING_PLUS, small_grid)
    assert chaining.gflops_per_watt > base.gflops_per_watt
    assert plus.gflops_per_watt > base.gflops_per_watt


def test_custom_params_scale():
    params = EnergyParams()
    params.static_pj_per_cycle = 0.0
    cluster = Cluster("nop\nnop\nebreak")
    cluster.run()
    report = EnergyModel(CoreConfig(), params).report(cluster)
    assert report.breakdown["static"] == 0.0
    report_default = EnergyModel(CoreConfig()).report(cluster)
    assert report_default.breakdown["static"] > 0


def test_idle_cluster_energy_is_static_only():
    cluster = Cluster("ebreak")
    cluster.run()
    report = EnergyModel(CoreConfig()).report(cluster)
    nonstatic = {k: v for k, v in report.breakdown.items()
                 if k not in ("static", "int_core") and v > 0}
    assert not nonstatic


def test_fpu_energy_tracks_op_mix():
    prog = """
    li a0, 0x2000
    fld fa0, 0(a0)
    fadd.d fa1, fa0, fa0
    fdiv.d fa2, fa0, fa0
    ebreak
"""
    cluster = Cluster(prog)
    cluster.mem.write_f64(0x2000, 2.0)
    cluster.run()
    params = EnergyParams()
    report = EnergyModel(CoreConfig(), params).report(cluster)
    expected = params.fpu_op["fpu_fp_add"] + params.fpu_op["fpu_fp_div"]
    assert report.breakdown["fpu"] == pytest.approx(expected)
