"""Stencil code generation: correctness of every variant, index patterns,
and the structural properties the paper's analysis relies on."""

import numpy as np
import pytest

from repro.core import Cluster, CoreConfig
from repro.eval.runner import execute_build
from repro.kernels.layout import Grid3d
from repro.kernels.stencil import box3d1r, j2d5pt, j3d27pt, star3d1r
from repro.kernels.stencil_codegen import _index_pattern, build_stencil
from repro.kernels.variants import VARIANT_ORDER, Variant


@pytest.mark.parametrize("variant", VARIANT_ORDER)
def test_box3d1r_all_variants_bit_exact(variant, tiny_grid):
    build = build_stencil(box3d1r(), tiny_grid, variant)
    result = execute_build(build)
    assert result.correct


@pytest.mark.parametrize("variant", [Variant.BASE, Variant.CHAINING_PLUS])
def test_j3d27pt_variants_bit_exact(variant, tiny_grid):
    build = build_stencil(j3d27pt(), tiny_grid, variant)
    assert execute_build(build).correct


@pytest.mark.parametrize("variant", [Variant.BASE_MM, Variant.CHAINING])
def test_star3d1r_irregular_taps(variant, tiny_grid):
    # Non-cube taps exercise truly irregular indirection.
    build = build_stencil(star3d1r(), tiny_grid, variant)
    assert execute_build(build).correct


def test_2d_stencil(tiny_grid):
    grid = Grid3d(nz=1, ny=4, nx=16)
    build = build_stencil(j2d5pt(), grid, Variant.CHAINING_PLUS)
    assert execute_build(build).correct


def test_index_pattern_matches_affine_walk():
    grid = Grid3d(nz=2, ny=3, nx=8)
    spec = box3d1r()
    idx = _index_pattern(spec, grid, unroll=4, nbx=2)
    _, py, px = grid.shape_padded
    pos = 0
    for b in range(2):
        for dz, dy, dx in spec.taps:
            for p in range(4):
                x = b * 4 + p
                expected = ((dz + 1) * py + (dy + 1)) * px + (x + dx + 1)
                assert idx[pos] == expected
                pos += 1


def test_index_pattern_nonnegative():
    for spec in (box3d1r(), star3d1r()):
        idx = _index_pattern(spec, Grid3d(nz=2, ny=3, nx=8), 4, 2)
        assert (np.asarray(idx, dtype=np.int64) >= 0).all()


def test_nx_must_divide_unroll(tiny_grid):
    with pytest.raises(ValueError, match="multiple of unroll"):
        build_stencil(box3d1r(), Grid3d(nz=2, ny=3, nx=10), Variant.BASE)


def test_grid_radius_checked():
    spec = box3d1r(radius=2)
    with pytest.raises(ValueError, match="radius"):
        build_stencil(spec, Grid3d(nz=4, ny=4, nx=8, radius=1),
                      Variant.BASE)


def test_variant_structure_in_asm(tiny_grid):
    base = build_stencil(box3d1r(), tiny_grid, Variant.BASE)
    assert "fsd" in base.asm                  # explicit stores
    assert "chain_mask" not in base.asm
    assert base.asm.count("fld") == 0         # no coefficient loads

    base_mm = build_stencil(box3d1r(), tiny_grid, Variant.BASE_MM)
    assert base_mm.asm.count("fld") >= 23     # resident preload + spills

    chaining = build_stencil(box3d1r(), tiny_grid, Variant.CHAINING)
    assert "csrrwi x0, chain_mask, 8" in chaining.asm
    assert "fsd ft3" in chaining.asm          # drain pops the chain reg

    plus = build_stencil(box3d1r(), tiny_grid, Variant.CHAINING_PLUS)
    assert "fsd" not in plus.asm              # writeback via stream
    assert "fmadd.d ft1" in plus.asm          # last tap targets SSR1


def test_expected_op_counts(tiny_grid):
    build = build_stencil(box3d1r(), tiny_grid, Variant.CHAINING_PLUS)
    result = execute_build(build)
    compute = result.meta["expected_compute_ops"]
    assert result.energy.breakdown["fpu"] > 0
    # The run's compute-op counter equals taps * points exactly.
    assert compute == 27 * tiny_grid.points


def test_spill_loads_counted(tiny_grid):
    build = build_stencil(box3d1r(), tiny_grid, Variant.BASE_MM)
    blocks = build.meta["blocks"]
    assert build.meta["expected_spill_loads"] == 4 * blocks


def test_stores_match_points(tiny_grid):
    for variant, expect_stores in [
        (Variant.BASE, tiny_grid.points),
        (Variant.CHAINING_PLUS, 0),
    ]:
        build = build_stencil(box3d1r(), tiny_grid, variant)
        assert build.meta["expected_stores"] == expect_stores


def test_measured_counters_match_expectations(tiny_grid):
    build = build_stencil(box3d1r(), tiny_grid, Variant.BASE)
    cluster = Cluster(build.asm, symbols=build.symbols)
    build.load_into(cluster)
    cluster.run()
    perf = cluster.perf
    assert perf.value("fpu_compute_ops") == build.meta[
        "expected_compute_ops"]
    assert perf.value("fp_stores") == build.meta["expected_stores"]
    # Coefficient stream: each coefficient fetched once per block thanks
    # to the repeat feature.
    stats = cluster.tcdm.stats()
    assert stats["ssr1_reads"] == 27 * build.meta["blocks"]
    # Input stream: one data element + one index per tap and point.
    assert stats["ssr0_reads"] == 27 * tiny_grid.points
    assert stats["ssr0_idx_reads"] == 27 * tiny_grid.points


def test_chaining_saves_coefficient_traffic(tiny_grid):
    def tcdm_reads(variant):
        build = build_stencil(box3d1r(), tiny_grid, variant)
        cluster = Cluster(build.asm, symbols=build.symbols)
        build.load_into(cluster)
        cluster.run()
        return cluster.tcdm.stats()["ssr1_reads"]

    assert tcdm_reads(Variant.BASE) == 27 * tiny_grid.points // 4
    assert tcdm_reads(Variant.CHAINING) == 0


def test_different_unroll_with_matching_pipe(tiny_grid):
    cfg = CoreConfig(fpu_pipe_depth=1)
    grid = Grid3d(nz=2, ny=3, nx=8)
    build = build_stencil(box3d1r(), grid, Variant.CHAINING, unroll=2,
                          cfg=cfg)
    assert execute_build(build, cfg=cfg).correct


def test_register_plan_recorded(tiny_grid):
    build = build_stencil(box3d1r(), tiny_grid, Variant.CHAINING)
    assert "27/27" in build.meta["register_plan"]
