"""The paper's Fig. 1 vector operation ``a[i] = b * (c[i] + d[i])``.

Three code variants, exactly mirroring the figure:

* **baseline** (Fig. 1a): one ``fadd``/``fmul`` pair per element; the RAW
  dependency costs the FPU-pipeline latency in stalls every iteration;
* **unrolled** (Fig. 1b): unrolled by ``fpu_depth + 1`` with one
  architectural accumulator per slot (``ft3``-``ft6``) -- full throughput
  at the price of register pressure;
* **chaining** (Fig. 1c): the same schedule with a *single* accumulator
  (``ft3``) carrying FIFO semantics via the chaining mask CSR.

``c``/``d`` stream in through SSR0/SSR1 and ``a`` streams out through
SSR2, as in the figure.  The loop can be the paper's ``bne`` form or an
``frep`` hardware loop (which removes the integer-core loop overhead, as
SARIS kernels do).
"""

from __future__ import annotations

from enum import Enum

from repro.core.config import CoreConfig
from repro.kernels.build import MARK_END, MARK_START, KernelBuild
from repro.kernels.layout import DOUBLE
from repro.kernels.regalloc import require_concurrent_push_pop
from repro.kernels.ssrgen import SsrPatternAsm
from repro.mem.memory import Allocator


class VecopVariant(Enum):
    BASELINE = "baseline"
    UNROLLED = "unrolled"
    CHAINING = "chaining"


def build_vecop(n: int = 256, variant: VecopVariant = VecopVariant.BASELINE,
                scalar: float = 3.25, loop_mode: str = "frep",
                cfg: CoreConfig | None = None, seed: int = 7) -> KernelBuild:
    """Generate one Fig. 1 kernel build for ``n`` elements."""
    import numpy as np

    cfg = cfg or CoreConfig()
    depth = cfg.fpu_pipe_depth
    unroll = depth + 1
    if variant is not VecopVariant.BASELINE and n % unroll:
        raise ValueError(f"n={n} must be a multiple of {unroll}")
    if variant is VecopVariant.CHAINING:
        require_concurrent_push_pop(cfg.chain_concurrent_push_pop)
    if loop_mode not in ("bne", "frep"):
        raise ValueError(f"loop_mode must be 'bne' or 'frep', got "
                         f"{loop_mode!r}")

    alloc = Allocator(0x1000)
    a_a = alloc.alloc_f64(n)
    a_b = alloc.alloc_f64(1)
    a_c = alloc.alloc_f64(n)
    a_d = alloc.alloc_f64(n)

    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, n)
    d = rng.uniform(-1.0, 1.0, n)
    golden = (c + d) * scalar

    streams = "\n".join(
        SsrPatternAsm(ssr=i, base=base, bounds=[n], strides=[DOUBLE],
                      write=(i == 2)).emit()
        for i, base in enumerate((a_c, a_d, a_a))
    )

    if variant is VecopVariant.BASELINE:
        body = ["    fadd.d ft3, ft0, ft1",
                "    fmul.d ft2, ft3, fa0"]
        iters = n
    elif variant is VecopVariant.UNROLLED:
        accs = [f"ft{3 + i}" for i in range(unroll)]
        body = [f"    fadd.d {acc}, ft0, ft1" for acc in accs] \
            + [f"    fmul.d ft2, {acc}, fa0" for acc in accs]
        iters = n // unroll
    else:
        body = ["    fadd.d ft3, ft0, ft1"] * unroll \
            + ["    fmul.d ft2, ft3, fa0"] * unroll
        iters = n // unroll

    if loop_mode == "frep":
        loop = [f"    li t2, {iters - 1}",
                f"    frep.o t2, {len(body) - 1}"] + body
    else:
        loop = ["    li t3, 0", f"    li t4, {iters}", "loop:"] + body + [
            "    addi t3, t3, 1",
            "    bne t3, t4, loop",
        ]

    chain_on = ["    csrrwi x0, chain_mask, 8"] \
        if variant is VecopVariant.CHAINING else []
    chain_off = ["    csrrwi x0, chain_mask, 0"] \
        if variant is VecopVariant.CHAINING else []

    asm = "\n".join(
        [f"    # vecop a = b*(c+d), {variant.value}, n={n}",
         f"    li a0, {a_b}",
         "    fld fa0, 0(a0)",
         streams]
        + chain_on
        + ["    csrrsi x0, ssr_enable, 1",
           f"    csrrwi x0, sim_mark, {MARK_START}"]
        + loop
        + ["    csrr t5, ssr_enable      # FP-subsystem sync barrier",
           f"    csrrwi x0, sim_mark, {MARK_END}"]
        + chain_off
        + ["    csrrci x0, ssr_enable, 1",
           "    ebreak"]
    ) + "\n"

    return KernelBuild(
        name=f"vecop/{variant.value}",
        asm=asm,
        symbols={},
        arrays=[(a_b, np.array([scalar])), (a_c, c), (a_d, d),
                (a_a, np.zeros(n))],
        output_addr=a_a,
        output_shape=(n,),
        golden=golden,
        meta={
            "kernel": "vecop",
            "variant": variant.value,
            "n": n,
            "loop_mode": loop_mode,
            "unroll": 1 if variant is VecopVariant.BASELINE else unroll,
            "flops": 2 * n,
            "points": n,
            "expected_compute_ops": 2 * n,
            "arch_accumulators": {
                VecopVariant.BASELINE: 1,
                VecopVariant.UNROLLED: unroll,
                VecopVariant.CHAINING: 1,
            }[variant],
        },
    )
