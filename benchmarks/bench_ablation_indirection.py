"""Ablation: SARIS-style indirect input stream vs. frep+stagger.

Two supporting experiments around the substrate choices:

* ``star3d1r`` (a non-cube tap set) runs through the indirect stream --
  the case SARIS indirection exists for -- and still verifies bit-exact
  with chaining enabled.
* FREP register *staggering* (Snitch's hardware register rotation) is
  an alternative latency-hiding mechanism: it reaches the same
  throughput as chaining on the vecop but consumes ``depth + 1``
  architectural registers, so it cannot free coefficients like chaining
  does.
"""

import numpy as np

from repro.api import workload
from repro.core import Cluster
from repro.eval.report import format_table
from repro.sweep import SweepRunner

DATA = 0x2000


def test_irregular_taps_through_indirection(benchmark):
    point = workload("star3d1r", "Chaining+", grid=(2, 4, 24))

    def run():
        campaign = SweepRunner(workers=0).run([point])
        campaign.raise_on_failure()
        return campaign.outcomes[0].result

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nstar3d1r/Chaining+: util={result.fpu_utilization:.3f} "
          f"cycles/point={result.cycles_per_point:.2f} "
          f"(indirect gather, 2 TCDM accesses per element)")
    assert result.correct
    assert result.fpu_utilization > 0.8


def _stagger_run(iters=64):
    """frep + stagger over 4 accumulators: the software-visible
    alternative to chaining."""
    prog = f"""
    li a0, {DATA}
    fld fa4, 0(a0)
    fld fa5, 8(a0)
    csrrwi x0, sim_mark, 1
    li t0, {iters - 1}
    frep.o t0, 0, 3, 1
    fmul.d fa0, fa4, fa5
    csrr t1, ssr_enable
    csrrwi x0, sim_mark, 2
    ebreak
"""
    cluster = Cluster(prog)
    cluster.load_f64(DATA, np.array([1.5, 2.0]))
    cluster.run()
    return cluster


def test_stagger_matches_chaining_throughput_but_burns_registers(
        benchmark):
    cluster = benchmark.pedantic(_stagger_run, rounds=1, iterations=1)
    util = cluster.perf.fpu_utilization(1, 2)
    rows = [
        ["frep + stagger (4 regs)", round(util, 3), 4],
        ["chaining (1 reg)", "~0.99 (see bench_fig1)", 1],
    ]
    print()
    print(format_table(["mechanism", "fpu util", "arch regs"], rows,
                       title="Latency hiding: stagger vs. chaining"))
    assert util > 0.9
    # All four staggered destinations were written.
    for reg in range(10, 14):
        assert cluster.fp.fpregs.values[reg] == 3.0
