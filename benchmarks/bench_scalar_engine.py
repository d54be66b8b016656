"""Scalar-v2 micro-op engine benchmarks: the fastpath-rejected workloads.

The vectorized FREP/SSR fast path bails out on exactly the workloads
the paper's evaluation leans on beyond Fig. 1 -- stencils ride an
indirect SSR stream, and indirect gathers are data-dependent by
definition.  Under ``auto`` the loop memo replays most iterations of
the stencils' integer loop (``bench_loop_memo.py``); whatever it does
not replay, and every cycle under ``scalar-v2``, is stepped by the
micro-op engine, so this suite pins that engine's two contracts on
them:

* **speed** -- >= 3x wall-clock over the seed scalar interpreter on the
  ``j3d27pt`` reference grid (the acceptance bar), and a solid win on an
  indirect-SSR gather whose every cycle carries real TCDM traffic;
* **fidelity** -- byte-identical results and identical cycle counts,
  perf/stall counters and TCDM statistics on both.

The timed runs feed the CI benchmark-regression gate.
"""

import time

import numpy as np
import pytest

from repro.core.cluster import Cluster
from repro.core.config import CoreConfig
from repro.kernels.build import KernelBuild
from repro.kernels.registry import get_stencil
from repro.kernels.ssrgen import SsrPatternAsm
from repro.kernels.stencil_codegen import build_stencil
from repro.kernels.variants import Variant
from repro.mem.memory import Allocator

MIN_STENCIL_SPEEDUP = 3.5
MIN_INDIRECT_SPEEDUP = 1.3


def build_j3d27pt():
    """The acceptance workload: j3d27pt on its reference grid."""
    spec, grid = get_stencil("j3d27pt")
    return build_stencil(spec, grid, Variant.from_label("Chaining+"))


def build_indirect_gather(n: int = 8192, seed: int = 7) -> KernelBuild:
    """Indirect-SSR gather mac: ``acc = sum a[idx[i]] * b[i]``.

    SSR0 streams ``a`` through a permutation index array (two TCDM
    accesses per element, data-dependent addresses -- never fast-path
    eligible); SSR1 streams ``b`` affinely; a single-instruction FREP
    accumulates.
    """
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2.0, 2.0, n)
    b = rng.uniform(-2.0, 2.0, n)
    idx = rng.permutation(n).astype(np.uint32)
    alloc = Allocator(0x2000)
    a_a = alloc.alloc_f64(n)
    a_b = alloc.alloc_f64(n)
    a_idx = alloc.alloc(4 * n, align=4)
    a_out = alloc.alloc_f64(1)
    ssr0 = SsrPatternAsm(0, base=a_a, bounds=[n], strides=[8],
                         indirect=True, idx_base=a_idx, idx_size=4,
                         idx_shift=3)
    ssr1 = SsrPatternAsm(1, base=a_b, bounds=[n], strides=[8])
    asm = f"""
{ssr0.emit()}
{ssr1.emit()}
    csrrwi x0, 0x7C0, 1
    fcvt.d.w fa0, x0
    li t3, {n - 1}
    frep.o t3, 0
    fmadd.d fa0, ft0, ft1, fa0
    li a1, {a_out}
    fsd fa0, 0(a1)
    ebreak
"""
    acc = 0.0
    for i in range(n):
        acc = a[idx[i]] * b[i] + acc
    return KernelBuild(name="indirect_gather", asm=asm, symbols={},
                       arrays=[(a_a, a), (a_b, b), (a_idx, idx)],
                       output_addr=a_out, output_shape=(1,),
                       golden=np.array([acc]))


def _run(build: KernelBuild, engine: str) -> Cluster:
    cfg = CoreConfig(engine=engine)
    cluster = Cluster(build.asm, cfg=cfg, symbols=build.symbols)
    build.load_into(cluster)
    cluster.run()
    assert np.array_equal(build.read_output(cluster), build.golden)
    return cluster


def _assert_identical(a: Cluster, b: Cluster) -> None:
    assert a.cycle == b.cycle
    assert a.perf.summary() == b.perf.summary()
    assert a.tcdm.stats() == b.tcdm.stats()
    assert a.fp.fpregs.values == b.fp.fpregs.values


# -- j3d27pt: the acceptance bar -------------------------------------------

def test_scalar_v2_stencil_wallclock(benchmark):
    """The regression-gated number: j3d27pt on the micro-op engine."""
    build = build_j3d27pt()
    benchmark.pedantic(lambda: _run(build, "scalar-v2"), rounds=3,
                       iterations=1)


def test_scalar_stencil_wallclock(benchmark):
    """Reference wall-clock of the seed scalar engine on j3d27pt."""
    build = build_j3d27pt()
    benchmark.pedantic(lambda: _run(build, "scalar"), rounds=1,
                       iterations=1)


def test_scalar_v2_stencil_speedup_and_equivalence(benchmark):
    """>= 3x on the j3d27pt reference grid at zero fidelity cost."""
    build = build_j3d27pt()
    scalar_seconds = []
    for _ in range(2):
        start = time.perf_counter()
        scalar = _run(build, "scalar")
        scalar_seconds.append(time.perf_counter() - start)

    v2 = benchmark.pedantic(lambda: _run(build, "scalar-v2"), rounds=3,
                            iterations=1)

    _assert_identical(scalar, v2)
    if benchmark.stats is None:
        pytest.skip("benchmarking disabled: equivalence checked, "
                    "no timing to assert")
    speedup = min(scalar_seconds) / benchmark.stats.stats.min
    print(f"\nscalar-v2 speedup on j3d27pt reference grid: "
          f"{speedup:.1f}x ({v2.cycle} cycles)")
    assert speedup >= MIN_STENCIL_SPEEDUP


# -- indirect-SSR gather ----------------------------------------------------

def test_scalar_v2_indirect_wallclock(benchmark):
    """Regression-gated: indirect gather on the micro-op engine."""
    build = build_indirect_gather()
    benchmark.pedantic(lambda: _run(build, "scalar-v2"), rounds=3,
                       iterations=1)


def test_scalar_v2_indirect_speedup_and_equivalence(benchmark):
    """Every cycle carries real TCDM traffic (no dead spans to skip), so
    the bar is the pre-decode win alone."""
    build = build_indirect_gather()
    scalar_seconds = []
    for _ in range(2):
        start = time.perf_counter()
        scalar = _run(build, "scalar")
        scalar_seconds.append(time.perf_counter() - start)

    v2 = benchmark.pedantic(lambda: _run(build, "scalar-v2"), rounds=3,
                            iterations=1)

    _assert_identical(scalar, v2)
    if benchmark.stats is None:
        pytest.skip("benchmarking disabled: equivalence checked, "
                    "no timing to assert")
    speedup = min(scalar_seconds) / benchmark.stats.stats.min
    print(f"\nscalar-v2 speedup on indirect gather: {speedup:.1f}x "
          f"({v2.cycle} cycles)")
    assert speedup >= MIN_INDIRECT_SPEEDUP
