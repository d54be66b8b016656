"""Stencil kernel code generation for the five evaluation variants.

Kernel structure (all variants):

* The stencil *input* is streamed through SSR0 as a SARIS-style indirect
  stream: a precomputed index array walks, block by block, the ``unroll``
  points of each tap.  One index pattern covers one row and is re-armed
  with a new window base per row.  (The index fetcher occupies the third
  lane's resources, so exactly one further SSR lane is free -- this
  reproduces the paper's setup where Base must choose between streaming
  coefficients and streaming the output.)
* The innermost block computes ``unroll`` output points: for each tap, one
  ``fmul``/``fmadd`` per point, accumulators rotating across points.  For
  chaining variants the "rotation" is the FIFO through the FPU pipe and a
  single architectural register.
* Coefficients come from SSR1 (Base), from registers (Chaining/Chaining+),
  or from registers with per-block spill reloads (Base--/Base-), as
  decided by :mod:`repro.kernels.regalloc`.
* Results leave through explicit ``fsd`` (Base--/Base/Chaining) or through
  SSR1 armed as a write stream (Base-/Chaining+).

The generated program marks the measured region with ``sim_mark`` CSR
writes; a blocking FP-CSR read before the closing mark synchronizes the
integer core with the FP subsystem.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import CoreConfig
from repro.kernels.build import MARK_END, MARK_START, KernelBuild
from repro.kernels.layout import DOUBLE, Grid3d
from repro.kernels.regalloc import RegisterPlan, plan_registers
from repro.kernels.ssrgen import SsrPatternAsm
from repro.kernels.stencil import StencilSpec
from repro.kernels.variants import Variant
from repro.isa.registers import fp_reg_name
from repro.mem.memory import Allocator

if TYPE_CHECKING:
    import numpy as np

#: How many tap groups ahead of use a spilled coefficient is reloaded.
SPILL_LEAD = 2


def build_stencil(spec: StencilSpec, grid: Grid3d, variant: Variant,
                  unroll: int = 4, cfg: CoreConfig | None = None,
                  seed: int = 1) -> KernelBuild:
    """Generate one stencil kernel build.

    ``grid.nx`` must be a multiple of ``unroll``; chaining variants
    additionally require ``unroll == fpu_pipe_depth + 1``.
    """
    import numpy as np

    cfg = cfg or CoreConfig()
    if grid.radius < spec.radius:
        raise ValueError(f"grid radius {grid.radius} < stencil radius "
                         f"{spec.radius}")
    if grid.nx % unroll:
        raise ValueError(f"nx={grid.nx} not a multiple of unroll={unroll}")
    plan = plan_registers(variant, spec.ntaps, unroll, cfg.fpu_pipe_depth,
                          cfg.chain_concurrent_push_pop)

    nbx = grid.nx // unroll
    alloc = Allocator(0x1000)
    a_in = alloc.alloc_f64(int(np.prod(grid.shape_padded)))
    a_out = alloc.alloc_f64(int(np.prod(grid.shape_padded)))
    a_coef = alloc.alloc_f64(spec.ntaps)
    idx = _index_pattern(spec, grid, unroll, nbx)
    a_idx = alloc.alloc(4 * idx.size, align=4)

    grid_in = grid.make_input(seed)
    golden_interior = spec.golden(grid_in)
    # The kernel writes only the interior of a zero-initialized padded
    # grid, so the bit-exact expectation is interior-in-zeros.
    golden = np.zeros(grid.shape_padded)
    r = grid.radius
    golden[r:r + grid.nz, r:r + grid.ny, r:r + grid.nx] = golden_interior

    asm = _emit(spec, grid, variant, plan, cfg, nbx,
                a_in=a_in, a_out=a_out, a_coef=a_coef, a_idx=a_idx,
                n_idx=idx.size)

    arrays = [
        (a_in, grid_in),
        (a_out, np.zeros(grid.shape_padded)),
        (a_coef, np.array(spec.coeffs)),
        (a_idx, idx),
    ]
    blocks = nbx * grid.ny * grid.nz
    meta = {
        "kernel": spec.name,
        "variant": variant.label,
        "unroll": unroll,
        "ntaps": spec.ntaps,
        "points": grid.points,
        "blocks": blocks,
        "flops": spec.flops_per_point * grid.points,
        "expected_compute_ops": spec.ntaps * grid.points,
        "expected_stores": 0 if variant.writeback_via_ssr else grid.points,
        "expected_spill_loads": len(plan.spilled_taps) * blocks,
        "register_plan": plan.describe(),
    }
    return KernelBuild(
        name=f"{spec.name}/{variant.label}",
        asm=asm,
        symbols={},
        arrays=arrays,
        output_addr=a_out,
        output_shape=grid.shape_padded,
        golden=golden,
        meta=meta,
    )




# -- index pattern -------------------------------------------------------------


def _index_pattern(spec: StencilSpec, grid: Grid3d, unroll: int,
                   nbx: int) -> np.ndarray:
    """Per-row indirect indices: block-major, tap, then unrolled point.

    Indices are element offsets relative to the row *window base*, the
    element ``(-radius, -radius, -radius)`` away from the row's first
    interior point; all offsets are therefore non-negative.
    """
    import numpy as np

    r = grid.radius
    _, py, px = grid.shape_padded
    out = np.empty(nbx * spec.ntaps * unroll, dtype=np.uint32)
    pos = 0
    for b in range(nbx):
        for dz, dy, dx in spec.taps:
            for p in range(unroll):
                x = b * unroll + p
                zz, yy, xx = dz + r, dy + r, x + dx + r
                out[pos] = (zz * py + yy) * px + xx \
                    - ((0 * py + 0) * px + 0)
                pos += 1
    return out


# -- assembly emission -----------------------------------------------------------


def _emit(spec: StencilSpec, grid: Grid3d, variant: Variant,
          plan: RegisterPlan, cfg: CoreConfig, nbx: int, *, a_in: int,
          a_out: int, a_coef: int, a_idx: int, n_idx: int) -> str:
    lines: list[str] = [f"    # {spec.name} / {variant.label} "
                        f"(unroll {plan.unroll}, {spec.ntaps} taps)"]
    _emit_compute(lines.append, spec, grid, variant, plan, nbx,
                  a_in=a_in, a_out=a_out, a_coef=a_coef, a_idx=a_idx,
                  n_idx=n_idx, mark_start=MARK_START, mark_end=MARK_END)
    lines.append("    ebreak")
    return "\n".join(lines) + "\n"


def emit_tile_compute(spec: StencilSpec, tile: Grid3d, variant: Variant,
                      unroll: int = 4, cfg: CoreConfig | None = None, *,
                      a_in: int, a_out: int, a_coef: int, a_idx: int,
                      label_prefix: str = "") -> tuple[str, np.ndarray]:
    """Compute-only assembly for one grid tile, plus its index pattern.

    Emits exactly the compute section :func:`build_stencil` generates
    (coefficient loads, SSR setup, the loop nest, the FP-drain barrier
    and stream teardown) without the program frame (region marks and the
    final ``ebreak``), so callers -- the multi-cluster halo-exchange
    builder in :mod:`repro.kernels.partition` -- can splice several
    compute phases into one program.  ``label_prefix`` namespaces the
    loop labels to keep spliced phases collision-free.

    Returns ``(asm, idx)`` where ``idx`` is the uint32 indirect-index
    pattern that must be placed at ``a_idx`` before the phase runs.
    """
    cfg = cfg or CoreConfig()
    if tile.radius < spec.radius:
        raise ValueError(f"tile radius {tile.radius} < stencil radius "
                         f"{spec.radius}")
    if tile.nx % unroll:
        raise ValueError(f"nx={tile.nx} not a multiple of "
                         f"unroll={unroll}")
    plan = plan_registers(variant, spec.ntaps, unroll, cfg.fpu_pipe_depth,
                          cfg.chain_concurrent_push_pop)
    nbx = tile.nx // unroll
    idx = _index_pattern(spec, tile, unroll, nbx)
    lines: list[str] = []
    _emit_compute(lines.append, spec, tile, variant, plan, nbx,
                  a_in=a_in, a_out=a_out, a_coef=a_coef, a_idx=a_idx,
                  n_idx=idx.size, mark_start=None, mark_end=None,
                  label_prefix=label_prefix)
    return "\n".join(lines), idx


def _emit_compute(emit, spec: StencilSpec, grid: Grid3d,
                  variant: Variant, plan: RegisterPlan, nbx: int, *,
                  a_in: int, a_out: int, a_coef: int, a_idx: int,
                  n_idx: int, mark_start: int | None,
                  mark_end: int | None, label_prefix: str = "") -> None:
    r = grid.radius
    row_bytes = grid.row_bytes
    plane_bytes = grid.plane_bytes
    unroll = plan.unroll
    blocks_total = nbx * grid.ny * grid.nz

    # SSR0: indirect input stream, re-armed per row.
    ssr_in = SsrPatternAsm(
        ssr=0, base=0, bounds=[n_idx], strides=[0], indirect=True,
        idx_base=a_idx, idx_size=4, idx_shift=3,
    )
    # First row window base: element (0, 0, 0) of the padded grid offset
    # so that tap (-r,-r,-r) of interior point (0,0,0) is index 0.
    w0 = a_in  # window (pz-r, py-r, px-r) for the first row == grid base

    out0 = a_out + grid.interior_offset(0, 0, 0)

    # ---- prologue -----------------------------------------------------------
    emit(f"    li s8, {a_coef}")
    for tap, reg in plan.coeff_regs.items():
        emit(f"    fld {fp_reg_name(reg)}, {tap * DOUBLE}(s8)")

    emit(ssr_in.emit_setup())
    if variant.coeffs_via_ssr:
        coeff_stream = SsrPatternAsm(
            ssr=1, base=a_coef, bounds=[spec.ntaps, blocks_total],
            strides=[DOUBLE, 0], repeat=unroll - 1,
        )
        emit(coeff_stream.emit())
    if variant.writeback_via_ssr:
        out_stream = SsrPatternAsm(
            ssr=1, base=out0,
            bounds=[grid.nx, grid.ny, grid.nz],
            strides=[DOUBLE, row_bytes, plane_bytes],
            write=True,
        )
        emit(out_stream.emit())
    if plan.chain_mask:
        emit(f"    csrrwi x0, chain_mask, {plan.chain_mask}")
    emit("    csrrsi x0, ssr_enable, 1")

    emit(f"    li s0, {w0}")
    if not variant.writeback_via_ssr:
        emit(f"    li s1, {out0}")
    emit(f"    li s5, {nbx}")
    emit(f"    li s6, {grid.ny}")
    emit(f"    li s7, {grid.nz}")
    emit("    li s2, 0")
    if mark_start is not None:
        emit(f"    csrrwi x0, sim_mark, {mark_start}")

    # ---- loops ---------------------------------------------------------------
    emit(f"{label_prefix}zloop:")
    emit("    li s3, 0")
    emit(f"{label_prefix}yloop:")
    emit(ssr_in.emit_arm(base_reg="s0"))
    emit("    li s4, 0")
    emit(f"{label_prefix}bloop:")
    _emit_block(emit, spec, variant, plan)
    if not variant.writeback_via_ssr:
        emit(f"    addi s1, s1, {unroll * DOUBLE}")
    emit("    addi s4, s4, 1")
    emit(f"    bne s4, s5, {label_prefix}bloop")
    # next row
    _emit_add(emit, "s0", row_bytes)
    if not variant.writeback_via_ssr:
        _emit_add(emit, "s1", row_bytes - grid.nx * DOUBLE)
    emit("    addi s3, s3, 1")
    emit(f"    bne s3, s6, {label_prefix}yloop")
    # next plane: skip the 2r halo rows
    _emit_add(emit, "s0", plane_bytes - grid.ny * row_bytes)
    if not variant.writeback_via_ssr:
        _emit_add(emit, "s1", plane_bytes - grid.ny * row_bytes)
    emit("    addi s2, s2, 1")
    emit(f"    bne s2, s7, {label_prefix}zloop")

    # ---- epilogue ------------------------------------------------------------
    emit("    csrr t2, ssr_enable      # FP-subsystem sync barrier")
    if mark_end is not None:
        emit(f"    csrrwi x0, sim_mark, {mark_end}")
    if plan.chain_mask:
        emit("    csrrwi x0, chain_mask, 0")
    emit("    csrrci x0, ssr_enable, 1")


def _emit_add(emit, reg: str, amount: int) -> None:
    """reg += amount, via addi when it fits the 12-bit immediate."""
    if amount == 0:
        return
    if -2048 <= amount < 2048:
        emit(f"    addi {reg}, {reg}, {amount}")
    else:
        emit(f"    li t2, {amount}")
        emit(f"    add {reg}, {reg}, t2")


def _spill_schedule(plan: RegisterPlan) -> dict[int, list[tuple[int, int]]]:
    """Map tap-group index -> [(temp reg, tap)] reloads emitted after it.

    Each spilled coefficient is loaded :data:`SPILL_LEAD` groups before
    its use, after the group that consumed the temp's previous value --
    in-order issue makes the overwrite safe and hides the load latency.
    """
    schedule: dict[int, list[tuple[int, int]]] = {}
    for j, tap in enumerate(plan.spilled_taps):
        load_after = max(0, tap - SPILL_LEAD)
        temp = plan.temp_regs[j % len(plan.temp_regs)]
        schedule.setdefault(load_after, []).append((temp, tap))
    return schedule


def _emit_block(emit, spec: StencilSpec, variant: Variant,
                plan: RegisterPlan) -> None:
    """The unrolled inner block: ntaps groups of ``unroll`` FP ops."""
    unroll = plan.unroll
    spills = _spill_schedule(plan)
    spill_reg = {tap: temp for group in spills.values()
                 for temp, tap in group}
    last = spec.ntaps - 1

    for tap in range(spec.ntaps):
        if variant.coeffs_via_ssr:
            coeff = "ft1"
        elif tap in plan.coeff_regs:
            coeff = fp_reg_name(plan.coeff_regs[tap])
        else:
            coeff = fp_reg_name(spill_reg[tap])
        for p in range(unroll):
            acc = fp_reg_name(plan.acc_regs[p])
            if tap == 0:
                if spec.ntaps == 1 and variant.writeback_via_ssr:
                    emit(f"    fmul.d ft1, ft0, {coeff}")
                else:
                    emit(f"    fmul.d {acc}, ft0, {coeff}")
            elif tap == last and variant.writeback_via_ssr:
                emit(f"    fmadd.d ft1, ft0, {coeff}, {acc}")
            else:
                emit(f"    fmadd.d {acc}, ft0, {coeff}, {acc}")
        for temp, stap in spills.get(tap, ()):
            emit(f"    fld {fp_reg_name(temp)}, {stap * DOUBLE}(s8)")
    if not variant.writeback_via_ssr:
        for p in range(unroll):
            acc = fp_reg_name(plan.acc_regs[p])
            emit(f"    fsd {acc}, {p * DOUBLE}(s1)")
