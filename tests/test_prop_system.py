"""Property-based determinism and liveness of the multi-cluster system.

Three system-level invariants over random small grids/partitions:

* **determinism** -- the simulator is a pure function of its inputs:
  rebuilding and rerunning the same point yields identical per-cluster
  cycle counts and an identical perf-counter digest;
* **permutation invariance** -- which cluster computes which slab is
  timing-irrelevant (the interconnect arbitration is ID-agnostic):
  permuting the tile assignment permutes the per-cluster cycles but
  leaves the multiset (and thus the sum) unchanged, and the output grid
  bit-identical;
* **liveness** -- the barrier protocol never deadlocks on well-formed
  programs (every run completes within a generous cycle bound), and
  when something *does* hang, the failure is diagnosable: the timeout
  carries per-cluster state.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CoreConfig, SystemConfig
from repro.kernels.layout import Grid3d
from repro.kernels.partition import build_partitioned_stencil
from repro.kernels.registry import get_stencil
from repro.kernels.variants import Variant
from repro.system import System, SystemTimeout

#: Generous per-case budget: the largest generated case finishes well
#: under this, so hitting it means a liveness bug, not a slow case.
MAX_CYCLES = 400_000


@st.composite
def system_cases(draw):
    num_clusters = draw(st.integers(1, 3))
    nz = draw(st.integers(num_clusters, 5))
    ny = draw(st.integers(1, 3))
    nx = 4 * draw(st.integers(1, 3))
    iters = draw(st.integers(1, 2))
    kernel = draw(st.sampled_from(["box3d1r", "star3d1r"]))
    engine = draw(st.sampled_from(["scalar-v2", "auto"]))
    variant = draw(st.sampled_from(["Base", "Chaining+"]))
    gmem_latency = draw(st.sampled_from([0, 5, 40]))
    seed = draw(st.integers(1, 4))
    return (num_clusters, nz, ny, nx, iters, kernel, engine, variant,
            gmem_latency, seed)


def _execute(case, tile_order=None):
    (num_clusters, nz, ny, nx, iters, kernel, engine, variant,
     gmem_latency, seed) = case
    spec, _ = get_stencil(kernel)
    cfg = SystemConfig(num_clusters=num_clusters,
                       core=CoreConfig(engine=engine),
                       gmem_latency=gmem_latency)
    build = build_partitioned_stencil(
        spec, Grid3d(nz, ny, nx), Variant.from_label(variant),
        num_clusters, cfg=cfg, iters=iters, seed=seed,
        tile_order=tile_order)
    system = System(build.asms, cfg)
    build.load_into(system)
    system.run(max_cycles=MAX_CYCLES)  # liveness: must finish in budget
    assert build.check(system), f"{build.name}: output != golden"
    return build.read_output(system), system


@given(system_cases())
@settings(max_examples=12, deadline=None)
def test_same_seed_same_cycles_and_digest(case):
    out_a, sys_a = _execute(case)
    out_b, sys_b = _execute(case)
    assert sys_a.per_cluster_cycles() == sys_b.per_cluster_cycles()
    assert sys_a.perf_digest() == sys_b.perf_digest()
    assert np.array_equal(out_a, out_b)


@given(system_cases(), st.randoms())
@settings(max_examples=10, deadline=None)
def test_cluster_permutation_invariance(case, rng):
    num_clusters = case[0]
    order = list(range(num_clusters))
    rng.shuffle(order)
    out_id, sys_id = _execute(case)
    out_pm, sys_pm = _execute(case, tile_order=order)
    assert np.array_equal(out_id, out_pm)
    id_cycles = sys_id.per_cluster_cycles()
    pm_cycles = sys_pm.per_cluster_cycles()
    # Cluster i now computes slab order[i]: its cycle count must be
    # exactly the identity run's count for that slab's cluster.
    assert pm_cycles == [id_cycles[order[i]]
                        for i in range(num_clusters)]
    assert sum(pm_cycles) == sum(id_cycles)
    assert sys_pm.sys_barriers == sys_id.sys_barriers


def test_hung_cluster_timeout_is_diagnosable():
    """One cluster waits at the system barrier, the other spins forever:
    the timeout must name the barrier state per cluster."""
    waiter = "    csrrwi x0, 0x7C7, 1\n    ebreak\n"
    spinner = "spin:\n    j spin\n    ebreak\n"
    cfg = SystemConfig(num_clusters=2)
    system = System([waiter, spinner], cfg)
    try:
        system.run(max_cycles=3000)
    except SystemTimeout as exc:
        message = str(exc)
        assert "waiting at the system barrier" in message
        assert "cluster 0" in message and "cluster 1" in message
        assert "1/2 cores at the system barrier" in message
    else:
        raise AssertionError("expected a SystemTimeout")


def test_timed_out_system_reports_where_its_clusters_stopped():
    """After a SystemTimeout the system clock (and the runtime derived
    from it) reads where the clusters stopped, not 0."""
    waiter = "    csrrwi x0, 0x7C7, 1\n    ebreak\n"
    spinner = "spin:\n    j spin\n    ebreak\n"
    system = System([waiter, spinner], SystemConfig(num_clusters=2))
    with pytest.raises(SystemTimeout):
        system.run(max_cycles=300)
    assert system.per_cluster_cycles() == [300, 300]
    assert system.cycle == 300
    assert system.runtime_seconds() == 300 / system.cfg.core.clock_hz


def test_halted_cores_count_as_arrived():
    """A cluster that halts without reaching the barrier must not wedge
    the others (matching the cluster-local barrier semantics)."""
    waiter = "    csrrwi x0, 0x7C7, 1\n    ebreak\n"
    halter = "    ebreak\n"
    system = System([waiter, halter], SystemConfig(num_clusters=2))
    system.run(max_cycles=3000)
    assert system.done
    assert system.sys_barriers == 1
