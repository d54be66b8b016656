"""Multi-cluster system benchmarks: scaling correctness + wall-clock.

Two contracts on the ``repro.system`` scale-out path:

* **scaling** -- strong scaling on a fixed grid must actually speed up
  (4 clusters beat 1 by a solid margin in simulated cycles), and every
  decomposition must reassemble bit-identically to the single-cluster
  reference;
* **simulator throughput** -- the 2-cluster halo-exchange run on the
  composed ``auto`` engine is regression-gated in CI, so the system
  loop's scheduling overhead (min-cycle batching, interconnect
  arbitration, stepping parked clusters) stays paid for.
"""

import numpy as np
import pytest

from repro.core.config import CoreConfig, SystemConfig
from repro.kernels.layout import Grid3d
from repro.kernels.partition import build_partitioned_stencil
from repro.kernels.registry import get_stencil
from repro.kernels.variants import Variant
from repro.system import System

GRID = Grid3d(8, 6, 16)
ITERS = 2

#: 4 clusters on the fixed grid must cut simulated cycles at least this
#: much (perfect would be ~4x; halo DMA + barriers take their share).
MIN_STRONG_SPEEDUP = 2.5


def _run(num_clusters: int, engine: str = "auto") -> tuple:
    spec, _ = get_stencil("j3d27pt")
    cfg = SystemConfig(num_clusters=num_clusters,
                       core=CoreConfig(engine=engine))
    build = build_partitioned_stencil(
        spec, GRID, Variant.from_label("Chaining+"), num_clusters,
        cfg=cfg, iters=ITERS)
    system = System(build.asms, cfg)
    build.load_into(system)
    system.run()
    out = build.read_output(system)
    assert np.array_equal(out, build.golden)
    return out, system


def test_system_scaling_wallclock(benchmark):
    """The regression-gated number: 2-cluster j3d27pt halo exchange."""
    benchmark.pedantic(lambda: _run(2), rounds=3, iterations=1)


def test_system_scaling_speedup_and_equivalence(benchmark):
    """Strong scaling delivers, and outputs stay bit-identical."""
    reference, ref_system = _run(1)
    out4, system4 = benchmark.pedantic(lambda: _run(4), rounds=2,
                                       iterations=1)
    assert np.array_equal(out4, reference)
    speedup = ref_system.cycle / system4.cycle
    print(f"\nstrong scaling 1 -> 4 clusters: {speedup:.2f}x "
          f"({ref_system.cycle} -> {system4.cycle} cycles)")
    assert speedup >= MIN_STRONG_SPEEDUP
    if benchmark.stats is None:
        pytest.skip("benchmarking disabled: equivalence checked, "
                    "no timing to assert")
