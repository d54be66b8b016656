"""Differential correctness of the multi-cluster halo-exchange stencils.

The lockdown contract of ``repro.system``: for every paper kernel, the
reassembled multi-cluster output grid must be **bit-identical** to

1. the numpy golden model (iterated Jacobi-style sweeps), and
2. the single-cluster reference run,

for every cluster count and every execution engine.  Cycle counts and
aggregate FPU work must also agree across engines (the engines'
bit-identity contract extends to system runs).
"""

import numpy as np
import pytest

from repro.core.config import CoreConfig, SystemConfig
from repro.eval.system_runner import (
    execute_system_stencil,
    make_system_config,
)
from repro.kernels.layout import Grid3d
from repro.kernels.partition import (
    build_partitioned_stencil,
    iterated_golden,
    split_slabs,
)
from repro.kernels.registry import get_stencil
from repro.kernels.variants import Variant
from repro.system import System

GRID = Grid3d(4, 4, 8)
ITERS = 2
CLUSTER_COUNTS = (1, 2, 4)
ENGINES = ("scalar", "scalar-v2", "auto")
VARIANT = Variant.from_label("Chaining+")


def _run(kernel: str, num_clusters: int, engine: str,
         variant: Variant = VARIANT, iters: int = ITERS):
    """One system run; returns (output grid, golden, cycles)."""
    spec, _ = get_stencil(kernel)
    cfg = SystemConfig(num_clusters=num_clusters,
                       core=CoreConfig(engine=engine))
    build = build_partitioned_stencil(spec, GRID, variant, num_clusters,
                                      cfg=cfg, iters=iters)
    system = System(build.asms, cfg)
    build.load_into(system)
    system.run()
    out = build.read_output(system)
    assert np.array_equal(out, build.golden), \
        f"{build.name} engine={engine}: output != golden model"
    return out, build.golden, system


@pytest.mark.parametrize("kernel", ["box3d1r", "j3d27pt"])
def test_multicluster_bit_identical_to_reference_and_golden(kernel):
    """num_clusters x engine sweep against the 1-cluster scalar run."""
    reference, golden, _ = _run(kernel, 1, "scalar")
    assert np.array_equal(reference, golden)
    for num_clusters in CLUSTER_COUNTS:
        for engine in ENGINES:
            out, _, _ = _run(kernel, num_clusters, engine)
            assert np.array_equal(out, reference), (
                f"{kernel} num_clusters={num_clusters} engine={engine}: "
                f"output differs from the single-cluster reference")


@pytest.mark.parametrize("kernel", ["box3d1r", "j3d27pt"])
def test_engines_agree_on_system_cycles(kernel):
    """Per-cluster cycle counts are engine-independent on system runs."""
    for num_clusters in (1, 2):
        cycles = {}
        for engine in ENGINES:
            _, _, system = _run(kernel, num_clusters, engine)
            cycles[engine] = tuple(system.per_cluster_cycles())
        assert len(set(cycles.values())) == 1, cycles


def test_base_variant_and_single_sweep_also_differential():
    """The explicit-store variant and iters=1 take different codegen
    paths (no SSR writeback, no inter-sweep barrier) -- same contract."""
    variant = Variant.from_label("Base")
    ref, golden, _ = _run("box3d1r", 1, "scalar", variant=variant,
                          iters=1)
    assert np.array_equal(ref, golden)
    for num_clusters in (2, 4):
        out, _, system = _run("box3d1r", num_clusters, "auto",
                              variant=variant, iters=1)
        assert np.array_equal(out, ref)
        # A single sweep needs no inter-sweep exchange.
        assert system.sys_barriers == 0


def test_single_sweep_interior_matches_classic_kernel():
    """iters=1 partitioned interior == the classic single-cluster
    kernel's interior (the pre-system reference path)."""
    from repro.eval.runner import execute_stencil

    spec, _ = get_stencil("j3d27pt")
    assert np.array_equal(iterated_golden(spec, GRID.make_input(1), 1),
                          _run("j3d27pt", 2, "auto", iters=1)[1])
    classic = execute_stencil("j3d27pt", VARIANT, grid=GRID)
    assert classic.correct  # classic harness checks its own golden
    out, _, _ = _run("j3d27pt", 2, "auto", iters=1)
    r = GRID.radius
    interior = out[r:r + GRID.nz, r:r + GRID.ny, r:r + GRID.nx]
    assert np.array_equal(interior, spec.golden(GRID.make_input(1)))


def test_split_slabs_covers_grid_exactly():
    for nz in range(1, 9):
        for clusters in range(1, nz + 1):
            slabs = split_slabs(nz, clusters)
            assert len(slabs) == clusters
            assert slabs[0][0] == 0
            assert sum(tz for _, tz in slabs) == nz
            for (z0, tz), (z1, _) in zip(slabs, slabs[1:]):
                assert z1 == z0 + tz
                assert tz >= 1
            sizes = [tz for _, tz in slabs]
            assert max(sizes) - min(sizes) <= 1


def test_split_slabs_rejects_too_many_clusters():
    with pytest.raises(ValueError, match="cannot split"):
        split_slabs(2, 3)


def test_run_system_stencil_metrics():
    """The sweep-facing backend: correctness flag, aggregate metrics,
    and the typed system sub-report the report layer consumes."""
    result = execute_system_stencil("j3d27pt", VARIANT, grid=GRID,
                                    num_clusters=2, iters=ITERS)
    assert result.correct
    report = result.system
    assert result.cycles == max(report.per_cluster_cycles)
    assert len(report.per_cluster_cycles) == 2
    assert report.num_clusters == 2
    assert report.sys_barriers == ITERS - 1
    assert report.gmem_bytes_read > 0
    assert report.gmem_bytes_written > 0
    assert 0.0 < result.fpu_utilization <= 1.0
    assert result.energy.breakdown["gmem"] > 0
    assert result.energy.breakdown["uncore_static"] > 0


def test_strong_scaling_speeds_up():
    """More clusters must reduce wall cycles on the fixed grid."""
    cycles = {}
    for num_clusters in CLUSTER_COUNTS:
        result = execute_system_stencil("box3d1r", VARIANT, grid=GRID,
                                        num_clusters=num_clusters,
                                        iters=ITERS)
        cycles[num_clusters] = result.cycles
    assert cycles[2] < cycles[1]
    assert cycles[4] < cycles[2]


def test_interconnect_contention_and_latency_are_modelled():
    """Squeezing global bandwidth and raising latency must cost cycles
    (the interconnect/bandwidth ablation axis is real, not cosmetic)."""
    fast = execute_system_stencil(
        "box3d1r", VARIANT, grid=GRID, num_clusters=2, iters=ITERS,
        sys_cfg=make_system_config(2, gmem_banks=8, gmem_latency=0))
    slow = execute_system_stencil(
        "box3d1r", VARIANT, grid=GRID, num_clusters=2, iters=ITERS,
        sys_cfg=make_system_config(2, gmem_banks=1, gmem_latency=200))
    assert slow.cycles > fast.cycles
    assert slow.correct and fast.correct
    assert slow.system.gmem_latency_cycles > \
        fast.system.gmem_latency_cycles


@pytest.mark.parametrize("latency", [0, 5, 20])
def test_gmem_bandwidth_cap_is_never_exceeded(latency):
    """Concurrent cluster DMAs can never jointly move more global-memory
    bytes in one cycle than the configured aggregate bandwidth -- even
    at gmem_latency=0, where a dmcpy issued mid-cycle (after
    arbitration) must wait out its binding cycle before the first data
    beat (regression: unarbitrated first-cycle beats used to double the
    cap)."""
    from repro.system import GLOBAL_BASE, System

    program = f"""
    li t0, {GLOBAL_BASE}
    dmsrc t0
    li t0, 0x2000
    dmdst t0
    li t0, 1
    dmrep t0
    li t1, 256
    dmcpy a0, t1
wait:
    dmstat a1
    bnez a1, wait
    ebreak
"""
    cfg = SystemConfig(num_clusters=2, gmem_latency=latency)
    system = System(program, cfg)
    system.load_global_f64(GLOBAL_BASE, np.arange(64, dtype=np.float64))
    cap = cfg.gmem_bytes_per_cycle
    worst = 0
    # Drive the exact System.run per-cycle protocol so the per-cycle
    # global-memory traffic is observable.
    while not system.done:
        before = system.gmem.bytes_moved
        active = [cl for cl in system.clusters
                  if not cl.done]
        now = min(cl.cycle for cl in active)
        batch = [cl for cl in active if cl.cycle == now]
        dmas = [cl.dma for cl in batch]
        if any(dma._queue for dma in dmas):
            system.interconnect.arbitrate(dmas)
        for cluster in batch:
            cluster.step()
        worst = max(worst, system.gmem.bytes_moved - before)
    assert worst <= cap, (latency, worst, cap)
    assert system.interconnect.contended_cycles > 0


def test_mixed_local_and_system_barrier_stays_closed():
    """One core at the cluster barrier, one at the system barrier: the
    local barrier cannot open (the sys-parked core has not arrived), so
    stepping the cluster on its own must leave both cores parked."""
    from repro.core.cluster import Cluster

    program = """
    csrr a4, mhartid
    bnez a4, sysb
    csrrwi x0, 0x7C6, 1
    ebreak
sysb:
    csrrwi x0, 0x7C7, 1
    ebreak
"""
    cluster = Cluster(program, num_cores=2)
    for _ in range(10):
        cluster.step()
    assert cluster.cores[0].barrier_wait
    assert not cluster.cores[0].sys_barrier_wait
    assert cluster.cores[1].sys_barrier_wait
    target = cluster.cycle + 500
    for _ in range(500):
        cluster.step()
    assert cluster.cycle == target
    # The local barrier stayed closed across the 500 cycles.
    assert cluster.cores[0].barrier_wait
    assert cluster.perf.value("barriers") == 0


def test_sys_barrier_standalone_cluster_is_not_released():
    """A cluster-local barrier release must never open the system
    barrier (regression guard for the _release_barrier change)."""
    from repro.core.cluster import Cluster, SimulationTimeout

    cluster = Cluster("    csrrwi x0, 0x7C7, 1\n    ebreak\n")
    with pytest.raises(SimulationTimeout):
        cluster.run(max_cycles=2000)
    assert cluster.core.sys_barrier_wait
    assert cluster.core.barrier_wait
    assert cluster.perf.value("barriers") == 0
