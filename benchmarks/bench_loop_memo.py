"""Loop-memo benchmark: the j3d27pt reference stencil on ``auto``.

The Fig. 3 stencils never enter FREP: their hot region is an integer
loop whose body dispatches the FP work, so the vectorized fast path
never sees them.  The loop memo (:mod:`repro.core.fastpath`) replays
recorded iterations of that loop -- core timing from the memo, the
memory side re-simulated on counters, FP values recomputed in program
order -- and this row pins its two contracts on the reference point:

* **speed** -- ``auto`` at least ``MIN_MEMO_SPEEDUP`` times faster than
  the pure stepping engine ``scalar-v2``;
* **fidelity** -- identical cycles, perf and stall counters, TCDM
  statistics, registers and memory.

The assert is a ratio, so ``BASELINE.json`` needs no row for it.
"""

import time

import numpy as np
import pytest

from repro.core.cluster import Cluster
from repro.core.config import CoreConfig
from repro.kernels.registry import get_stencil
from repro.kernels.stencil_codegen import build_stencil
from repro.kernels.variants import Variant

#: The target the loop memo was built for (a ratio: no BASELINE row).
MIN_MEMO_SPEEDUP = 2.0


def build_j3d27pt():
    spec, grid = get_stencil("j3d27pt")
    return build_stencil(spec, grid, Variant.from_label("Chaining+"))


def _run(build, engine: str) -> Cluster:
    cluster = Cluster(build.asm, cfg=CoreConfig(engine=engine),
                      symbols=build.symbols)
    build.load_into(cluster)
    cluster.run()
    assert np.array_equal(build.read_output(cluster), build.golden)
    return cluster


def _digest(cluster: Cluster) -> tuple:
    return (cluster.cycle, cluster.perf.summary(),
            cluster.perf.stall_breakdown(), cluster.tcdm.stats(),
            cluster.fp.fpregs.values, cluster.core.regs.values,
            bytes(cluster.mem._data))


def _timed(build, engine: str, rounds: int):
    best = None
    for _ in range(rounds):
        start = time.perf_counter()
        cluster = _run(build, engine)
        seconds = time.perf_counter() - start
        best = seconds if best is None else min(best, seconds)
    return cluster, best


def test_loop_memo_stencil_speedup_and_equivalence(benchmark):
    """The memo against stepping on the j3d27pt Chaining+ reference."""
    build = build_j3d27pt()
    stepped, stepped_seconds = _timed(build, "scalar-v2", 3)
    memo = benchmark.pedantic(lambda: _run(build, "auto"), rounds=3,
                              iterations=1)

    assert _digest(memo) == _digest(stepped)
    stats = memo.fastpath.stats
    assert stats["loop_cycles"] > 0.6 * memo.cycle, stats
    if benchmark.stats is None:
        pytest.skip("benchmarking disabled: equivalence checked, "
                    "no timing to assert")
    speedup = stepped_seconds / benchmark.stats.stats.min
    print(f"\nloop-memo speedup on j3d27pt reference grid: "
          f"{speedup:.2f}x ({stats['loop_hits']} iterations replayed, "
          f"{stats['loop_cycles']} of {memo.cycle} cycles)")
    assert speedup >= MIN_MEMO_SPEEDUP
