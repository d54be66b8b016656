"""Fast-path engine benchmarks: wall-clock speedup at zero fidelity cost.

The ``auto`` engine (the vectorized FREP/SSR fast path over scalar-v2)
must be (a) bit-identical to the scalar reference in every reported
number and (b) at least 3x faster on the Fig. 1 vecop workload at a
sweep-sized n.  Both claims are asserted here, and the timed runs feed
the CI benchmark-regression gate.
"""

import time

import numpy as np
import pytest

from repro.core.cluster import Cluster
from repro.core.config import CoreConfig
from repro.kernels.vecop import VecopVariant, build_vecop

N = 4096
MIN_SPEEDUP = 3.0


def _run(engine: str, n: int = N,
         variant: VecopVariant = VecopVariant.CHAINING):
    cfg = CoreConfig(engine=engine)
    build = build_vecop(n=n, variant=variant, cfg=cfg)
    cluster = Cluster(build.asm, cfg=cfg, symbols=build.symbols)
    build.load_into(cluster)
    cluster.run()
    out = cluster.read_f64(build.output_addr, build.output_shape)
    assert np.array_equal(out, build.golden)
    return cluster


def test_fastpath_vecop_wallclock(benchmark):
    """The regression-gated number: fig1 vecop under the auto engine."""
    cluster = benchmark.pedantic(lambda: _run("auto"), rounds=3,
                                 iterations=1)
    assert cluster.fastpath.stats["applications"] >= 1


def test_scalar_vecop_wallclock(benchmark):
    """Reference wall-clock of the scalar engine on the same workload."""
    benchmark.pedantic(lambda: _run("scalar"), rounds=1, iterations=1)


def test_fastpath_speedup_and_equivalence(benchmark):
    """>= 3x on fig1 vecop with zero change in reported numbers."""
    scalar_seconds = []
    for _ in range(2):
        start = time.perf_counter()
        scalar = _run("scalar")
        scalar_seconds.append(time.perf_counter() - start)

    fast = benchmark.pedantic(lambda: _run("auto"), rounds=3,
                              iterations=1)

    assert scalar.cycle == fast.cycle
    assert scalar.perf.summary() == fast.perf.summary()
    assert scalar.tcdm.stats() == fast.tcdm.stats()
    assert scalar.fp.fpregs.values == fast.fp.fpregs.values

    if benchmark.stats is None:
        pytest.skip("benchmarking disabled: equivalence checked, "
                    "no timing to assert")
    speedup = min(scalar_seconds) / benchmark.stats.stats.min
    print(f"\nfast-path speedup on vecop n={N}: {speedup:.1f}x "
          f"({fast.fastpath.stats['fast_forwarded_cycles']} of "
          f"{fast.cycle} cycles batched)")
    assert speedup >= MIN_SPEEDUP


@pytest.mark.parametrize("variant", list(VecopVariant),
                         ids=lambda v: v.value)
def test_fastpath_variant_equivalence(variant):
    """All three Fig. 1 code forms stay bit-identical at batch sizes."""
    scalar = _run("scalar", n=1024, variant=variant)
    fast = _run("auto", n=1024, variant=variant)
    assert scalar.cycle == fast.cycle
    assert scalar.perf.summary() == fast.perf.summary()
    assert fast.fastpath.stats["applications"] >= 1
