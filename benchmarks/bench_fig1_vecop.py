"""Fig. 1 reproduction: the vector op a = b*(c+d) in three code forms.

Regenerates the utilization/latency story of the paper's motivating
example: the baseline wastes the FPU latency on every dependent pair,
unrolling and chaining both reach near-full throughput -- but unrolling
needs ``depth + 1`` architectural registers where chaining needs one.
"""

import pytest

from repro.eval.figures import fig1_data
from repro.eval.report import format_table
from repro.api import Session
from repro.kernels.vecop import VecopVariant, build_vecop

N = 256


def test_fig1_table(benchmark):
    # A warm-up round pays the first-call costs (code generation, lazy
    # imports); the regression gate compares the median of the rest.
    results = benchmark.pedantic(fig1_data, kwargs={"n": N}, rounds=5,
                                 iterations=1, warmup_rounds=1)
    rows = []
    for name, res in results.items():
        rows.append([name, res.fpu_utilization, res.region_cycles,
                     res.meta["arch_accumulators"]])
    print()
    print(format_table(
        ["variant", "fpu util", "cycles", "arch accumulators"],
        rows, title=f"Fig. 1: a = b*(c+d), n={N}"))

    base = results["baseline"]
    unrolled = results["unrolled"]
    chaining = results["chaining"]
    # The paper's story, as assertions.
    assert base.fpu_utilization < 0.45
    assert unrolled.fpu_utilization > 0.95
    assert chaining.fpu_utilization > 0.95
    assert chaining.meta["arch_accumulators"] == 1
    assert unrolled.meta["arch_accumulators"] == 4


@pytest.mark.parametrize("variant", list(VecopVariant),
                         ids=lambda v: v.value)
def test_fig1_variant_runtime(benchmark, variant):
    """Per-variant simulation benchmark (wall-clock of the simulator)."""
    build = build_vecop(n=N, variant=variant)
    session = Session()

    def run():
        return session.run(build)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.correct
