"""Vecop (Fig. 1) kernel builder tests."""

import numpy as np
import pytest

from repro.core import CoreConfig
from repro.eval.runner import execute_build
from repro.kernels.vecop import VecopVariant, build_vecop


@pytest.mark.parametrize("variant", list(VecopVariant))
@pytest.mark.parametrize("loop_mode", ["frep", "bne"])
def test_all_variants_correct(variant, loop_mode):
    build = build_vecop(n=32, variant=variant, loop_mode=loop_mode)
    result = execute_build(build)
    assert result.correct


def test_fig1_utilization_ordering():
    results = {
        v: execute_build(build_vecop(n=128, variant=v))
        for v in VecopVariant
    }
    base = results[VecopVariant.BASELINE].fpu_utilization
    unrolled = results[VecopVariant.UNROLLED].fpu_utilization
    chained = results[VecopVariant.CHAINING].fpu_utilization
    # Fig. 1 story: baseline wastes the FPU latency; the other two are
    # near-ideal and equivalent.
    assert base < 0.5
    assert unrolled > 0.9
    assert chained > 0.9
    assert abs(unrolled - chained) < 0.05


def test_baseline_utilization_matches_latency_math():
    # 2 useful ops per (2 + latency) issue slots.
    result = execute_build(build_vecop(n=256, variant=VecopVariant.BASELINE))
    assert abs(result.fpu_utilization - 0.4) < 0.05


def test_chaining_uses_one_architectural_register():
    build = build_vecop(n=32, variant=VecopVariant.CHAINING)
    assert build.meta["arch_accumulators"] == 1
    assert "ft4" not in build.asm
    assert "chain_mask, 8" in build.asm


def test_unrolled_uses_four_registers():
    build = build_vecop(n=32, variant=VecopVariant.UNROLLED)
    assert build.meta["arch_accumulators"] == 4
    for reg in ("ft3", "ft4", "ft5", "ft6"):
        assert reg in build.asm


def test_unroll_follows_pipe_depth():
    cfg = CoreConfig(fpu_pipe_depth=2)
    build = build_vecop(n=30, variant=VecopVariant.UNROLLED, cfg=cfg)
    assert build.meta["unroll"] == 3


def test_bad_n_rejected():
    with pytest.raises(ValueError, match="multiple"):
        build_vecop(n=30, variant=VecopVariant.CHAINING)


def test_bad_loop_mode_rejected():
    with pytest.raises(ValueError, match="loop_mode"):
        build_vecop(n=32, loop_mode="while")


def test_golden_matches_numpy():
    build = build_vecop(n=64, seed=123, scalar=1.5)
    c = build.arrays[1][1]
    d = build.arrays[2][1]
    assert np.array_equal(build.golden, (c + d) * 1.5)
