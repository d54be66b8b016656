"""Linear-algebra kernels: chaining beyond stencils.

The paper demonstrates scalar chaining on stencils; the mechanism applies
to any register-limited dataflow with producer/consumer balance.  This
module generates four kernels that exercise different aspects:

* **axpy** ``y = a*x + y`` -- streaming only, no inter-iteration
  dependency: chaining is *not* needed, a useful negative control.
* **dot** ``s = sum(x*y)`` -- a reduction.  The chaining variant keeps
  ``pipe_depth + 1`` partial sums in the logical FIFO of a *single*
  architectural register (the classic unrolled reduction needs one
  register per partial), then drains with ``fmv.d`` pops and a left-to-
  right add chain.
* **gemv** ``y = A @ x`` -- one dot-reduction per matrix row, re-using
  the chaining FIFO across rows with per-row drains.
* **cdot** -- complex dot product with *two* chaining registers (real
  and imaginary accumulators).  Chains share the FPU pipeline, so the
  total number of outstanding partials is bounded by ``depth + 1``: each
  component gets ``(depth + 1) // 2`` lanes and the schedule interleaves
  re/im operations so every push finds its pop in time.  The real
  operand streams affinely with the repeat feature; the imaginary
  operand needs a re/im-swapped second half per block and rides a
  SARIS-style indirect stream.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.core.config import CoreConfig
from repro.kernels.build import MARK_END, MARK_START, KernelBuild
from repro.kernels.regalloc import require_concurrent_push_pop
from repro.kernels.ssrgen import SsrPatternAsm
from repro.mem.memory import Allocator


class LinalgVariant(Enum):
    BASELINE = "baseline"      # unrolled with one register per partial
    CHAINING = "chaining"      # single chaining accumulator


def _marks(loop_lines: list[str]) -> list[str]:
    return (
        [f"    csrrwi x0, sim_mark, {MARK_START}"]
        + loop_lines
        + ["    csrr t5, ssr_enable      # sync barrier",
           f"    csrrwi x0, sim_mark, {MARK_END}"]
    )


# -- axpy ---------------------------------------------------------------------


def build_axpy(n: int = 256, alpha: float = 1.75,
               cfg: CoreConfig | None = None, seed: int = 11,
               ) -> KernelBuild:
    """``y[i] = alpha * x[i] + y[i]`` -- pure streaming, no chaining."""
    cfg = cfg or CoreConfig()
    alloc = Allocator(0x1000)
    a_x = alloc.alloc_f64(n)
    a_y = alloc.alloc_f64(n)
    a_out = alloc.alloc_f64(n)
    a_alpha = alloc.alloc_f64(1)

    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, n)
    y = rng.uniform(-1, 1, n)
    golden = x * alpha + y

    streams = "\n".join([
        SsrPatternAsm(ssr=0, base=a_x, bounds=[n], strides=[8]).emit(),
        SsrPatternAsm(ssr=1, base=a_y, bounds=[n], strides=[8]).emit(),
        SsrPatternAsm(ssr=2, base=a_out, bounds=[n], strides=[8],
                      write=True).emit(),
    ])
    loop = [f"    li t2, {n - 1}",
            "    frep.o t2, 0",
            "    fmadd.d ft2, ft0, fa0, ft1"]
    asm = "\n".join(
        [f"    li a0, {a_alpha}", "    fld fa0, 0(a0)", streams,
         "    csrrsi x0, ssr_enable, 1"]
        + _marks(loop)
        + ["    csrrci x0, ssr_enable, 1", "    ebreak"]
    ) + "\n"

    return KernelBuild(
        name="axpy",
        asm=asm,
        symbols={},
        arrays=[(a_x, x), (a_y, y), (a_alpha, np.array([alpha])),
                (a_out, np.zeros(n))],
        output_addr=a_out,
        output_shape=(n,),
        golden=golden,
        meta={"kernel": "axpy", "n": n, "flops": 2 * n,
              "points": n, "expected_compute_ops": n},
    )


# -- dot ----------------------------------------------------------------------


def _dot_partials(x: np.ndarray, y: np.ndarray, lanes: int) -> np.ndarray:
    """Lane-partial sums in the exact op order of the generated code."""
    partials = np.zeros(lanes)
    for i in range(len(x)):
        lane = i % lanes
        partials[lane] = x[i] * y[i] + partials[lane]
    return partials


def _left_reduce(partials: np.ndarray) -> float:
    acc = partials[0]
    for p in partials[1:]:
        acc = acc + p
    return acc


def _reduction_loop(lanes: int, groups: int, chaining: bool) -> list[str]:
    """Shared schedule of dot/gemv: seed group, frep body, drain."""
    out: list[str] = []
    if chaining:
        out += ["    fmul.d ft3, ft0, ft1"] * lanes
        if groups > 1:
            out += [f"    li t2, {groups - 2}",
                    f"    frep.o t2, {lanes - 1}"]
            out += ["    fmadd.d ft3, ft0, ft1, ft3"] * lanes
        out += [f"    fmv.d fa{lane}, ft3" for lane in range(lanes)]
    else:
        out += [f"    fmul.d fa{lane}, ft0, ft1" for lane in range(lanes)]
        if groups > 1:
            out += [f"    li t2, {groups - 2}",
                    f"    frep.o t2, {lanes - 1}"]
            out += [f"    fmadd.d fa{lane}, ft0, ft1, fa{lane}"
                    for lane in range(lanes)]
    for lane in range(1, lanes):
        out.append(f"    fadd.d fa0, fa0, fa{lane}")
    return out


def build_dot(n: int = 256, variant: LinalgVariant = LinalgVariant.CHAINING,
              cfg: CoreConfig | None = None, seed: int = 12) -> KernelBuild:
    """``s = sum(x[i] * y[i])`` with ``pipe_depth + 1`` partial sums."""
    cfg = cfg or CoreConfig()
    lanes = cfg.fpu_pipe_depth + 1
    if n % lanes:
        raise ValueError(f"n={n} must be a multiple of {lanes}")
    if variant is LinalgVariant.CHAINING:
        require_concurrent_push_pop(cfg.chain_concurrent_push_pop)

    alloc = Allocator(0x1000)
    a_x = alloc.alloc_f64(n)
    a_y = alloc.alloc_f64(n)
    a_out = alloc.alloc_f64(1)

    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, n)
    y = rng.uniform(-1, 1, n)
    golden = np.array([_left_reduce(_dot_partials(x, y, lanes))])

    streams = "\n".join([
        SsrPatternAsm(ssr=0, base=a_x, bounds=[n], strides=[8]).emit(),
        SsrPatternAsm(ssr=1, base=a_y, bounds=[n], strides=[8]).emit(),
    ])

    chaining = variant is LinalgVariant.CHAINING
    loop = _reduction_loop(lanes, n // lanes, chaining)
    loop += [f"    li a1, {a_out}", "    fsd fa0, 0(a1)"]

    lines = ([streams, "    csrrsi x0, ssr_enable, 1"]
             + (["    csrrwi x0, chain_mask, 8"] if chaining else [])
             + _marks(loop)
             + (["    csrrwi x0, chain_mask, 0"] if chaining else [])
             + ["    csrrci x0, ssr_enable, 1", "    ebreak"])

    return KernelBuild(
        name=f"dot/{variant.value}",
        asm="\n".join(lines) + "\n",
        symbols={},
        arrays=[(a_x, x), (a_y, y), (a_out, np.zeros(1))],
        output_addr=a_out,
        output_shape=(1,),
        golden=golden,
        meta={"kernel": "dot", "variant": variant.value, "n": n,
              "points": n, "flops": 2 * n,
              "arch_accumulators": 1 if chaining else lanes},
    )


# -- gemv ---------------------------------------------------------------------


def build_gemv(rows: int = 16, n: int = 64,
               variant: LinalgVariant = LinalgVariant.CHAINING,
               cfg: CoreConfig | None = None, seed: int = 13,
               ) -> KernelBuild:
    """``y = A @ x`` -- one chained dot-reduction per matrix row."""
    cfg = cfg or CoreConfig()
    lanes = cfg.fpu_pipe_depth + 1
    if n % lanes:
        raise ValueError(f"n={n} must be a multiple of {lanes}")
    if variant is LinalgVariant.CHAINING:
        require_concurrent_push_pop(cfg.chain_concurrent_push_pop)

    alloc = Allocator(0x1000)
    a_mat = alloc.alloc_f64(rows * n)
    a_x = alloc.alloc_f64(n)
    a_y = alloc.alloc_f64(rows)

    rng = np.random.default_rng(seed)
    mat = rng.uniform(-1, 1, (rows, n))
    x = rng.uniform(-1, 1, n)
    golden = np.array([
        _left_reduce(_dot_partials(mat[r], x, lanes)) for r in range(rows)
    ])

    # SSR0: the matrix, row-major, armed once for all rows.
    # SSR1: x, replayed per row through a stride-0 outer dimension.
    streams = "\n".join([
        SsrPatternAsm(ssr=0, base=a_mat, bounds=[n * rows],
                      strides=[8]).emit(),
        SsrPatternAsm(ssr=1, base=a_x, bounds=[n, rows],
                      strides=[8, 0]).emit(),
    ])

    chaining = variant is LinalgVariant.CHAINING
    row_body = _reduction_loop(lanes, n // lanes, chaining)
    row_body += ["    fsd fa0, 0(a1)", "    addi a1, a1, 8"]

    loop = ([f"    li a1, {a_y}", "    li s2, 0", f"    li s3, {rows}",
             "rowloop:"]
            + row_body
            + ["    addi s2, s2, 1", "    bne s2, s3, rowloop"])

    lines = ([streams, "    csrrsi x0, ssr_enable, 1"]
             + (["    csrrwi x0, chain_mask, 8"] if chaining else [])
             + _marks(loop)
             + (["    csrrwi x0, chain_mask, 0"] if chaining else [])
             + ["    csrrci x0, ssr_enable, 1", "    ebreak"])

    return KernelBuild(
        name=f"gemv/{variant.value}",
        asm="\n".join(lines) + "\n",
        symbols={},
        arrays=[(a_mat, mat), (a_x, x), (a_y, np.zeros(rows))],
        output_addr=a_y,
        output_shape=(rows,),
        golden=golden,
        meta={"kernel": "gemv", "variant": variant.value,
              "rows": rows, "n": n, "points": rows,
              "flops": 2 * rows * n,
              "arch_accumulators": 1 if chaining else lanes},
    )


# -- complex dot -----------------------------------------------------------------


def build_cdot(n: int = 64, cfg: CoreConfig | None = None,
               seed: int = 14) -> KernelBuild:
    """Complex dot product with two chaining accumulators.

    Elements are stored interleaved ``(re, im)``.  Per block of two
    complex elements the schedule issues eight operations, alternating
    between the real chain ``ft3`` and the imaginary chain ``ft4``::

        re0 += xr0*yr0   im0 += xr0*yi0   re1 += xr1*yr1   im1 += xr1*yi1
        re0 -= xi0*yi0   im0 += xi0*yr0   re1 -= xi1*yi1   im1 += xi1*yr1

    Each chain holds two outstanding partials; together they exactly fill
    the shared logical FIFO (pipe depth 3 + 1).  The x operand pattern
    ``xr0 xr0 xr1 xr1 xi0 xi0 xi1 xi1`` is affine with ``repeat = 1``;
    the y pattern swaps re/im in the second half of each block and uses
    an indirect stream.
    """
    cfg = cfg or CoreConfig()
    if cfg.fpu_pipe_depth != 3:
        raise ValueError("cdot's dual-chain schedule is written for the "
                         "default pipe depth of 3 (capacity 4)")
    if n % 2:
        raise ValueError(f"n={n} must be even")
    blocks = n // 2

    alloc = Allocator(0x1000)
    a_x = alloc.alloc_f64(2 * n)
    a_y = alloc.alloc_f64(2 * n)
    a_out = alloc.alloc_f64(2)

    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, 2 * n)
    y = rng.uniform(-1, 1, 2 * n)

    # y index pattern per block (element indices into the y array):
    # yr0 yi0 yr1 yi1 | yi0 yr0 yi1 yr1
    y_idx = []
    for b in range(blocks):
        e0, e1 = 4 * b, 4 * b + 2
        y_idx += [e0, e0 + 1, e1, e1 + 1, e0 + 1, e0, e1 + 1, e1]
    y_idx = np.array(y_idx, dtype=np.uint32)
    a_yidx = alloc.alloc(4 * y_idx.size, align=4)

    # Golden with the exact op order.
    re_p, im_p = [0.0, 0.0], [0.0, 0.0]
    for b in range(blocks):
        for lane in range(2):
            i = 2 * b + lane
            re_p[lane] = x[2 * i] * y[2 * i] + re_p[lane]
            im_p[lane] = x[2 * i] * y[2 * i + 1] + im_p[lane]
        for lane in range(2):
            i = 2 * b + lane
            re_p[lane] = -(x[2 * i + 1] * y[2 * i + 1]) + re_p[lane]
            im_p[lane] = x[2 * i + 1] * y[2 * i] + im_p[lane]
    golden = np.array([re_p[0] + re_p[1], im_p[0] + im_p[1]])

    # x: affine, repeat=1: per block [xr0, xr1, xi0, xi1] each twice.
    x_stream = SsrPatternAsm(
        ssr=0, base=a_x,
        bounds=[2, 2, blocks], strides=[16, 8, 32], repeat=1)
    y_stream = SsrPatternAsm(
        ssr=1, base=a_y, bounds=[y_idx.size], strides=[0],
        indirect=True, idx_base=a_yidx)
    streams = x_stream.emit() + "\n" + y_stream.emit()

    block_ops = [
        "    fmadd.d ft3, ft0, ft1, ft3",
        "    fmadd.d ft4, ft0, ft1, ft4",
        "    fmadd.d ft3, ft0, ft1, ft3",
        "    fmadd.d ft4, ft0, ft1, ft4",
        "    fnmsub.d ft3, ft0, ft1, ft3",
        "    fmadd.d ft4, ft0, ft1, ft4",
        "    fnmsub.d ft3, ft0, ft1, ft3",
        "    fmadd.d ft4, ft0, ft1, ft4",
    ]
    seed_ops = [
        "    fmul.d ft3, ft0, ft1",
        "    fmul.d ft4, ft0, ft1",
        "    fmul.d ft3, ft0, ft1",
        "    fmul.d ft4, ft0, ft1",
        "    fnmsub.d ft3, ft0, ft1, ft3",
        "    fmadd.d ft4, ft0, ft1, ft4",
        "    fnmsub.d ft3, ft0, ft1, ft3",
        "    fmadd.d ft4, ft0, ft1, ft4",
    ]
    loop = list(seed_ops)
    if blocks > 1:
        loop += [f"    li t2, {blocks - 2}", "    frep.o t2, 7"]
        loop += block_ops
    # Drain: ft3 pops re0, re1; ft4 pops im0, im1.
    loop += [
        "    fmv.d fa0, ft3",
        "    fmv.d fa2, ft4",
        "    fmv.d fa1, ft3",
        "    fmv.d fa3, ft4",
        "    fadd.d fa0, fa0, fa1",
        "    fadd.d fa2, fa2, fa3",
        f"    li a1, {a_out}",
        "    fsd fa0, 0(a1)",
        "    fsd fa2, 8(a1)",
    ]

    mask = (1 << 3) | (1 << 4)
    lines = ([streams, "    csrrsi x0, ssr_enable, 1",
              f"    csrrwi x0, chain_mask, {mask}"]
             + _marks(loop)
             + ["    csrrwi x0, chain_mask, 0",
                "    csrrci x0, ssr_enable, 1", "    ebreak"])

    return KernelBuild(
        name="cdot",
        asm="\n".join(lines) + "\n",
        symbols={},
        arrays=[(a_x, x), (a_y, y), (a_yidx, y_idx),
                (a_out, np.zeros(2))],
        output_addr=a_out,
        output_shape=(2,),
        golden=golden,
        meta={"kernel": "cdot", "n": n, "points": n, "flops": 8 * n,
              "arch_accumulators": 2, "chain_mask": mask},
    )
