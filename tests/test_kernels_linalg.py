"""Linear-algebra kernel tests: reductions and dual-chain dataflow."""

import numpy as np
import pytest

from repro.core import CoreConfig
from repro.eval.runner import execute_build
from repro.kernels.linalg import (
    LinalgVariant,
    build_axpy,
    build_cdot,
    build_dot,
    build_gemv,
)


def test_axpy_correct_and_fast():
    result = execute_build(build_axpy(n=128))
    assert result.correct
    # No dependencies: the FPU should be near-fully utilized.
    assert result.fpu_utilization > 0.9


@pytest.mark.parametrize("variant", list(LinalgVariant))
def test_dot_correct(variant):
    result = execute_build(build_dot(n=128, variant=variant))
    assert result.correct


def test_dot_chaining_matches_baseline_cycles():
    base = execute_build(build_dot(n=256, variant=LinalgVariant.BASELINE))
    chain = execute_build(build_dot(n=256, variant=LinalgVariant.CHAINING))
    # Same throughput...
    assert abs(base.region_cycles - chain.region_cycles) <= 8
    # ...but one architectural accumulator instead of four.
    assert chain.meta["arch_accumulators"] == 1
    assert base.meta["arch_accumulators"] == 4


def test_dot_value_matches_numpy_closely():
    build = build_dot(n=256)
    result = execute_build(build)
    assert result.correct
    # Bit-exact against the lane-partial golden; close to numpy's sum.
    assert build.golden[0] == pytest.approx(
        float(np.dot(build.arrays[0][1], build.arrays[1][1])), rel=1e-12)


def test_dot_minimum_size():
    # n == lanes: a single seed group, no frep.
    result = execute_build(build_dot(n=4))
    assert result.correct
    assert "frep" not in build_dot(n=4).asm


def test_dot_bad_n():
    with pytest.raises(ValueError, match="multiple"):
        build_dot(n=130)


@pytest.mark.parametrize("build", [build_dot, build_gemv])
def test_chained_reductions_need_concurrent_push_pop(build):
    # depth + 1 chained partials deadlock a FIFO that cannot pop and
    # push in one cycle; the build refuses instead of hanging the run.
    cfg = CoreConfig(chain_concurrent_push_pop=False)
    with pytest.raises(ValueError, match="chain_concurrent_push_pop"):
        build(n=32, variant=LinalgVariant.CHAINING, cfg=cfg)
    assert execute_build(build(n=32, variant=LinalgVariant.BASELINE,
                               cfg=cfg), cfg=cfg).correct


@pytest.mark.parametrize("variant", list(LinalgVariant))
def test_gemv_correct(variant):
    result = execute_build(build_gemv(rows=8, n=32, variant=variant))
    assert result.correct


def test_gemv_reuses_chain_across_rows():
    result = execute_build(build_gemv(rows=12, n=48))
    assert result.correct
    assert result.fpu_utilization > 0.75


def test_gemv_x_stream_replayed_per_row():
    from repro.core import Cluster

    build = build_gemv(rows=4, n=16)
    cluster = Cluster(build.asm, symbols=build.symbols)
    build.load_into(cluster)
    cluster.run()
    stats = cluster.tcdm.stats()
    # x is re-fetched once per row (stride-0 outer dimension).
    assert stats["ssr1_reads"] == 4 * 16
    assert stats["ssr0_reads"] == 4 * 16


def test_cdot_correct():
    build = build_cdot(n=32)
    result = execute_build(build)
    assert result.correct


def test_cdot_matches_numpy_complex():
    build = build_cdot(n=64)
    execute_build(build)
    x = build.arrays[0][1].view(np.complex128)
    y = build.arrays[1][1].view(np.complex128)
    expected = np.sum(x * y)
    assert build.golden[0] == pytest.approx(expected.real, rel=1e-12)
    assert build.golden[1] == pytest.approx(expected.imag, rel=1e-12)


def test_cdot_two_chains_active():
    from repro.core import Cluster

    build = build_cdot(n=16)
    cluster = Cluster(build.asm, symbols=build.symbols)
    build.load_into(cluster)
    cluster.run()
    # Both chains pushed and popped an equal number of times.
    assert cluster.fp.chain.pushes == cluster.fp.chain.pops
    # 4 products per element; the 4 seed fmuls push without popping and
    # the 4 drain fmvs pop without pushing: pops == 4n.
    assert cluster.fp.chain.pops == 4 * 16


def test_cdot_sustains_throughput():
    result = execute_build(build_cdot(n=128))
    # 8 ops per 2 elements with both chains interleaved.  The indirect
    # y stream costs ~1 bank-conflict cycle per block, so the ceiling
    # sits slightly below the stencils'.
    assert result.fpu_utilization > 0.85


def test_cdot_requires_even_n():
    with pytest.raises(ValueError, match="even"):
        build_cdot(n=7)


def test_cdot_requires_depth_3():
    cfg = CoreConfig(fpu_pipe_depth=2)
    with pytest.raises(ValueError, match="pipe depth"):
        build_cdot(n=8, cfg=cfg)


def test_gemv_with_alternate_depth():
    cfg = CoreConfig(fpu_pipe_depth=2)
    result = execute_build(build_gemv(rows=4, n=18, cfg=cfg), cfg=cfg)
    assert result.correct
    assert result.meta["arch_accumulators"] == 1
