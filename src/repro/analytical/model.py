"""Closed-form cycle/energy estimation: the ``"analytical"`` engine.

Every kernel family the repo simulates has a steady-state issue
structure that the cycle-accurate engines merely confirm; this module
promotes that arithmetic to a first-class backend.  An estimate costs
microseconds instead of seconds and returns the same
:class:`~repro.api.result.Result` schema as the simulators -- with
``meta["fidelity"] = "analytical"`` so a cached estimate can never
masquerade as a cycle-accurate record.

Model per kernel family (see ``docs/fidelity.md`` for the derivations):

* **vecop** -- the paper's Fig. 1 arithmetic: ``2 + latency`` cycles per
  element for the dependency-stalled baseline, 2 per element once
  unrolling or chaining fills the pipeline; the ``bne`` loop adds the
  integer-side overhead not hidden under the FP schedule.
* **stencil** -- issue-slot accounting: each unrolled block costs its FP
  issue slots (``ntaps * unroll`` compute ops + explicit stores + spill
  reloads from the register plan) plus the loop-integer overhead, with
  per-row SSR re-arm and per-plane bookkeeping terms on top.
* **system** -- per-sweep phase model of the z-slab halo exchange: a
  latency+bandwidth DMA term for the slab+halo load and the
  plane-by-plane interior store (equal-share interconnect contention
  across clusters), the tile's stencil estimate for compute, and a
  barrier term between sweeps; the slowest cluster paces each sweep.
* **linalg** -- per-build schedules of axpy/dot/gemv/cdot: streamed
  fmadd throughput plus the reduction drain (``fmv`` pops and a
  latency-bound add chain).

Energy is synthesized from the same event counts the estimators imply
(FP ops, SSR/TCDM traffic, DMA/global-memory bytes, static leakage)
charged at :class:`~repro.energy.model.EnergyParams` unit energies.

Raw estimates deliberately favor transparency over tuning; the
calibration harness (:mod:`repro.analytical.calibrate`) fits one
multiplicative correction per family and reports the residual error
bound the differential suite enforces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.api.result import Result, SystemReport
from repro.api.workloads import Workload
from repro.core.config import CoreConfig, SystemConfig
from repro.energy.model import EnergyParams, EnergyReport
from repro.isa.instructions import InstrClass
from repro.kernels.layout import DOUBLE, Grid3d
from repro.kernels.partition import split_slabs
from repro.kernels.regalloc import plan_registers, require_concurrent_push_pop
from repro.kernels.registry import get_stencil
from repro.kernels.variants import Variant
from repro.kernels.vecop import VecopVariant

#: Value stamped into ``Result.meta["fidelity"]`` by every estimate.
FIDELITY_ANALYTICAL = "analytical"

#: ``meta`` key carrying the fidelity marker.
FIDELITY_KEY = "fidelity"

#: The engine name the estimator answers to.
ANALYTICAL_ENGINE = "analytical"

#: Calibration families: every workload/build maps to exactly one.
FAMILIES = ("vecop", "stencil", "system", "linalg")

#: Kernel names of :mod:`repro.kernels.linalg` builds.
LINALG_KERNELS = ("axpy", "dot", "gemv", "cdot")


def kernel_family(work) -> str:
    """Calibration family of a :class:`Workload` or kernel build.

    ``vecop`` and the linalg builds are their own families; stencil
    workloads split into single-cluster ``stencil`` and multi-cluster
    ``system`` (whose DMA/barrier terms dominate differently).
    """
    if isinstance(work, Workload):
        if work.is_vecop:
            return "vecop"
        return "system" if work.is_system else "stencil"
    meta = getattr(work, "meta", {}) or {}
    kernel = meta.get("kernel")
    if kernel == "vecop":
        return "vecop"
    if kernel in LINALG_KERNELS:
        return "linalg"
    if "num_clusters" in meta:
        return "system"
    return "stencil"


@dataclass
class _Estimate:
    """Accumulator for one estimate: cycle terms + energy events."""

    setup: float = 0.0
    region: float = 0.0
    end: float = 0.0
    flops: int = 0
    points: int = 0
    utilization: float = 0.0
    #: Energy event counts, keyed like the simulator's perf counters.
    events: dict[str, float] = field(default_factory=dict)
    #: Model terms exposed in ``meta["model"]`` for auditability.
    terms: dict[str, float] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return int(round(self.setup + self.region + self.end))

    def add(self, event: str, count: float) -> None:
        self.events[event] = self.events.get(event, 0.0) + count


def _resolve_calibration(calibration, family: str) -> tuple[float, float]:
    """``(cycle scale, energy scale)`` for ``family`` (1.0 when absent)."""
    if calibration is None:
        return 1.0, 1.0
    families = getattr(calibration, "families", calibration)
    fit = families.get(family) if hasattr(families, "get") else None
    if fit is None:
        return 1.0, 1.0
    if isinstance(fit, dict):
        return (float(fit.get("scale_cycles", 1.0)),
                float(fit.get("scale_energy", 1.0)))
    return (float(getattr(fit, "scale_cycles", 1.0)),
            float(getattr(fit, "scale_energy", 1.0)))


def _add_len(amount: int) -> int:
    """Instructions of :func:`~repro.kernels.stencil_codegen._emit_add`."""
    if amount == 0:
        return 0
    return 1 if -2048 <= amount < 2048 else 2


def _ssr_setup_instrs(ndims: int, indirect: bool = False) -> int:
    """``emit_setup`` length: 3 instrs per scfgw field write."""
    writes = 2 * ndims + 1 + (2 if indirect else 0)
    return 3 * writes


def _ssr_arm_instrs(base_reg: bool = False) -> int:
    """``emit_arm``: BASE write (2 instrs from a register, 3 from a
    literal) plus the 3-instr CTRL commit."""
    return (2 if base_reg else 3) + 3


def _fp_latency(cfg: CoreConfig) -> int:
    return cfg.fpu_latency_of(InstrClass.FP_ADD)


# -- vecop ---------------------------------------------------------------------


def _estimate_vecop(variant: VecopVariant, n: int, loop_mode: str,
                    cfg: CoreConfig) -> _Estimate:
    depth = cfg.fpu_pipe_depth
    lat = _fp_latency(cfg)
    unroll = 1 if variant is VecopVariant.BASELINE else depth + 1
    if variant is not VecopVariant.BASELINE and n % unroll:
        raise ValueError(f"n={n} must be a multiple of {unroll}")
    if variant is VecopVariant.CHAINING:
        require_concurrent_push_pop(cfg.chain_concurrent_push_pop)
    if loop_mode not in ("bne", "frep"):
        raise ValueError(f"loop_mode must be 'bne' or 'frep', got "
                         f"{loop_mode!r}")
    iters = n // unroll

    est = _Estimate(flops=2 * n, points=n)
    # Steady state: the baseline pays the RAW dependency (issue fadd,
    # stall ``lat``, issue fmul); unrolled/chaining issue one FP op per
    # cycle.
    fp_per_iter = (2 + lat) if variant is VecopVariant.BASELINE \
        else 2 * unroll
    est.region = fp_per_iter * iters
    if loop_mode == "bne":
        # The integer core issues 2*unroll dispatches plus addi/bne and
        # the taken-branch penalty per iteration; only the part not
        # hidden under the FP schedule shows up as extra cycles.
        int_per_iter = 2 * unroll + 2 + cfg.branch_penalty
        est.region += max(0, int_per_iter - fp_per_iter) * iters
        est.region += 2                      # li t3 / li t4
    else:
        est.region += 2                      # li t2 / frep.o
    est.region += lat + 4                    # FP drain + sync CSR read
    # Prologue: 3 single-dim streams, scalar load, CSR dance.
    est.setup = 3 * (_ssr_setup_instrs(1) + _ssr_arm_instrs()) + 8
    est.end = 4
    est.utilization = min(1.0, 2 * n / est.region) if est.region else 0.0

    est.add("int_instrs", est.setup + est.end
            + (2 * iters + 2 if loop_mode == "bne" else 2))
    est.add("fp_dispatches", 2 * n + 1)
    est.add("fpu_fp_add", n)
    est.add("fpu_fp_mul", n)
    if variant is VecopVariant.CHAINING:
        est.add("chain", 2 * n)
        est.add("fp_rf_reads", n)            # fa0 per fmul
    else:
        est.add("fp_rf_reads", 2 * n)        # acc + fa0 per fmul
        est.add("fp_rf_writes", n)
    est.add("ssr_reads", 2 * n)
    est.add("ssr_writes", n)
    est.add("tcdm_read64", 2 * n)
    est.add("tcdm_write64", n)
    est.add("ssr_active", 3 * est.region)
    est.terms = {"fp_per_iter": fp_per_iter, "iters": iters,
                 "unroll": unroll}
    return est


# -- stencil (single cluster) --------------------------------------------------


def _estimate_stencil_tile(spec, grid: Grid3d, variant: Variant,
                           unroll: int, cfg: CoreConfig) -> _Estimate:
    """Setup + compute-region estimate of one (tile) stencil kernel.

    Mirrors :func:`~repro.kernels.stencil_codegen._emit_compute`: the
    same validation, the same register plan, the same loop nest -- with
    issue-slot counts in place of simulation.
    """
    if grid.radius < spec.radius:
        raise ValueError(f"grid radius {grid.radius} < stencil radius "
                         f"{spec.radius}")
    if grid.nx % unroll:
        raise ValueError(f"nx={grid.nx} not a multiple of unroll={unroll}")
    plan = plan_registers(variant, spec.ntaps, unroll, cfg.fpu_pipe_depth,
                          cfg.chain_concurrent_push_pop)

    lat = _fp_latency(cfg)
    nbx = grid.nx // unroll
    blocks = nbx * grid.ny * grid.nz
    rows = grid.ny * grid.nz
    spills = len(plan.spilled_taps)
    store = not variant.writeback_via_ssr
    ntaps = spec.ntaps

    # Per block: every FP instruction costs one issue slot (compute ops,
    # spill reloads, explicit stores), plus the x-loop integer overhead.
    slots = ntaps * unroll + spills + (unroll if store else 0)
    int_oh = 2 + cfg.branch_penalty + (1 if store else 0)

    # Per row: SSR re-arm from a register, counter reset, pointer bumps,
    # y-loop bookkeeping.
    row_bytes = grid.row_bytes
    row_oh = _ssr_arm_instrs(base_reg=True) + 1 \
        + _add_len(row_bytes) \
        + (_add_len(row_bytes - grid.nx * DOUBLE) if store else 0) \
        + 2 + cfg.branch_penalty
    plane_skip = grid.plane_bytes - grid.ny * row_bytes
    plane_oh = 1 + _add_len(plane_skip) \
        + (_add_len(plane_skip) if store else 0) \
        + 2 + cfg.branch_penalty

    est = _Estimate(flops=spec.flops_per_point * grid.points,
                    points=grid.points)
    est.region = blocks * (slots + int_oh) + rows * row_oh \
        + grid.nz * plane_oh + lat + 6

    setup = 1 + plan.resident_coeffs                      # li s8 + flds
    setup += _ssr_setup_instrs(1, indirect=True)          # input stream
    if variant.coeffs_via_ssr:
        setup += _ssr_setup_instrs(2) + _ssr_arm_instrs()
    if variant.writeback_via_ssr:
        setup += _ssr_setup_instrs(3) + _ssr_arm_instrs()
    if plan.chain_mask:
        setup += 1
    setup += 1 + 5 + (1 if store else 0) + 1   # enable, pointers, mark
    est.setup = setup
    est.end = 4
    compute_ops = ntaps * unroll * blocks
    est.utilization = min(1.0, compute_ops / est.region) \
        if est.region else 0.0

    est.add("int_instrs", est.setup + est.end
            + blocks * int_oh + rows * row_oh + grid.nz * plane_oh)
    est.add("fp_dispatches", slots * blocks + plan.resident_coeffs)
    est.add("fpu_fp_mul", unroll * blocks)
    est.add("fpu_fp_fma", (ntaps - 1) * unroll * blocks)
    if variant.uses_chaining:
        est.add("chain", 2 * compute_ops)
        est.add("fp_rf_reads", compute_ops)               # coefficients
    else:
        resident_reads = (ntaps - spills) * unroll * blocks \
            if not variant.coeffs_via_ssr else 0
        est.add("fp_rf_reads", resident_reads
                + (ntaps - 1) * unroll * blocks
                + (unroll * blocks if store else 0))
        est.add("fp_rf_writes", compute_ops + spills * blocks)
    est.add("ssr_reads", compute_ops
            + (compute_ops if variant.coeffs_via_ssr else 0))
    est.add("ssr_writes", 0 if store else grid.points)
    est.add("tcdm_read64", compute_ops + spills * blocks
            + (ntaps * blocks if variant.coeffs_via_ssr else 0))
    est.add("tcdm_write64", grid.points)
    est.add("tcdm_access32", compute_ops)                 # index fetches
    lanes = 1 + (1 if (variant.coeffs_via_ssr
                       or variant.writeback_via_ssr) else 0)
    est.add("ssr_active", lanes * est.region)
    est.terms = {"blocks": blocks, "slots": slots, "int_oh": int_oh,
                 "row_oh": row_oh, "plane_oh": plane_oh,
                 "spills": spills}
    return est


# -- system (multi-cluster halo exchange) --------------------------------------


def _estimate_system(spec, grid: Grid3d, variant: Variant, unroll: int,
                     sys_cfg: SystemConfig, iters: int) -> _Estimate:
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    cfg = sys_cfg.core
    num_clusters = sys_cfg.num_clusters
    slabs = split_slabs(grid.nz, num_clusters)
    total_bytes = grid.total_bytes
    if 2 * total_bytes > sys_cfg.gmem_size:
        raise ValueError(
            f"two padded {grid.shape_padded} grids need "
            f"{2 * total_bytes} bytes of global memory; configured "
            f"gmem_size={sys_cfg.gmem_size}")
    r = grid.radius
    lat = max(1, sys_cfg.gmem_latency)
    # Equal-share contention: during the DMA phases every cluster moves
    # global-memory bytes concurrently.
    share = sys_cfg.gmem_bytes_per_cycle // num_clusters \
        if num_clusters > 1 else sys_cfg.gmem_bytes_per_cycle
    bw = min(cfg.dma_bytes_per_cycle, sys_cfg.link_bytes_per_cycle,
             max(8, share))

    est = _Estimate(flops=spec.flops_per_point * grid.points * iters,
                    points=grid.points)
    sweep_max = 0.0
    compute_ops_total = 0.0
    halo_total = 0
    interior_total = 0
    tile_cycles_max = 0
    for _, tz in slabs:
        tile = Grid3d(tz, grid.ny, grid.nx, r)
        tile_est = _estimate_stencil_tile(spec, tile, variant, unroll,
                                          cfg)
        halo_bytes = (tz + 2 * r) * grid.plane_bytes
        interior_bytes = tz * grid.ny * grid.nx * DOUBLE
        halo_total += halo_bytes
        interior_total += interior_bytes
        t_load = 8 + lat + math.ceil(halo_bytes / bw) + 4
        t_comp = tile_est.setup + tile_est.region + tile_est.end
        # Store: one 2-D transfer per interior plane, each paying the
        # access latency; the per-transfer setup instructions overlap
        # with the DMA except at the batch-poll boundaries.
        t_store = max(6 * tz, tz * (lat + 1)
                      + math.ceil(interior_bytes / bw)) + 10
        sweep_max = max(sweep_max, t_load + t_comp + t_store)
        tile_cycles_max = max(tile_cycles_max, tile_est.cycles)
        compute_ops_total += spec.ntaps * tile.points
        for event, count in tile_est.events.items():
            est.add(event, count * iters)

    barrier_oh = 12.0
    est.setup = 10
    est.region = iters * sweep_max + (iters - 1) * barrier_oh
    est.end = 5
    cycles = est.cycles
    est.utilization = min(1.0, compute_ops_total * iters
                          / (num_clusters * cycles)) if cycles else 0.0

    est.add("dma_bytes", iters * (halo_total + interior_total))
    est.add("gmem_bytes", iters * (halo_total + interior_total))
    busy = iters * (math.ceil(max((tz + 2 * r) for _, tz in slabs)
                              * grid.plane_bytes / bw)
                    + math.ceil(max(tz for _, tz in slabs)
                                * grid.ny * grid.nx * DOUBLE / bw))
    est.terms = {
        "num_clusters": num_clusters,
        "iters": iters,
        "bw_bytes_per_cycle": bw,
        "sweep_cycles": sweep_max,
        "tile_cycles_max": tile_cycles_max,
        "halo_bytes_per_sweep": halo_total,
        "interior_bytes_per_sweep": interior_total,
        "interconnect_busy": busy,
        "transfers_per_sweep": num_clusters + grid.nz,
    }
    return est


def _system_report(est: _Estimate, iters: int) -> SystemReport:
    t = est.terms
    num_clusters = int(t["num_clusters"])
    cycles = est.cycles
    lat_cycles = int(t["transfers_per_sweep"]) * iters
    busy = int(t["interconnect_busy"])
    return SystemReport(
        num_clusters=num_clusters,
        iters=iters,
        per_cluster_cycles=[cycles] * num_clusters,
        sys_barriers=max(0, iters - 1),
        gmem_bytes_read=int(t["halo_bytes_per_sweep"]) * iters,
        gmem_bytes_written=int(t["interior_bytes_per_sweep"]) * iters,
        gmem_latency_cycles=lat_cycles,
        interconnect_busy_cycles=busy,
        interconnect_contended_cycles=busy if num_clusters > 1 else 0,
    )


# -- linalg builds -------------------------------------------------------------


def _reduction_drain(lanes: int, lat: int, chaining: bool) -> float:
    """Drain of the dot/gemv schedule: ``fmv`` pops (chaining only) plus
    the latency-bound left-to-right add chain."""
    return (lanes if chaining else 0) + (lanes - 1) * (1 + lat)


def _estimate_linalg(meta: dict, cfg: CoreConfig) -> _Estimate:
    kernel = meta["kernel"]
    lat = _fp_latency(cfg)
    lanes = cfg.fpu_pipe_depth + 1
    chaining = meta.get("variant", "chaining") == "chaining"
    n = int(meta.get("n", 0))

    if kernel == "axpy":
        est = _Estimate(flops=2 * n, points=n)
        est.region = n + 2 + lat + 4
        est.setup = 3 * (_ssr_setup_instrs(1) + _ssr_arm_instrs()) + 6
        est.add("fpu_fp_fma", n)
        est.add("fp_dispatches", n)
        est.add("tcdm_read64", 2 * n)
        est.add("tcdm_write64", n)
        est.add("ssr_reads", 2 * n)
        est.add("ssr_writes", n)
    elif kernel == "dot":
        if n % lanes:
            raise ValueError(f"n={n} must be a multiple of {lanes}")
        est = _Estimate(flops=2 * n, points=n)
        est.region = n + 2 + _reduction_drain(lanes, lat, chaining) \
            + 3 + lat + 4
        est.setup = 2 * (_ssr_setup_instrs(1) + _ssr_arm_instrs()) + 4
        est.add("fpu_fp_mul", lanes)
        est.add("fpu_fp_fma", n - lanes)
        est.add("fpu_fp_add", lanes - 1)
        est.add("fp_dispatches", n + 2 * lanes)
        est.add("tcdm_read64", 2 * n)
        est.add("ssr_reads", 2 * n)
        if chaining:
            est.add("chain", 2 * n)
    elif kernel == "gemv":
        rows = int(meta["rows"])
        if n % lanes:
            raise ValueError(f"n={n} must be a multiple of {lanes}")
        est = _Estimate(flops=2 * rows * n, points=rows)
        # The row-loop integer bookkeeping (fsd/addi/bne) issues under
        # the FP drain; only the store slot and branch redirect remain.
        per_row = n + 2 + _reduction_drain(lanes, lat, chaining) + 2
        est.region = rows * per_row + 3 + lat + 4
        est.setup = 2 * (_ssr_setup_instrs(2) + _ssr_arm_instrs()) + 4
        est.add("fpu_fp_mul", rows * lanes)
        est.add("fpu_fp_fma", rows * (n - lanes))
        est.add("fpu_fp_add", rows * (lanes - 1))
        est.add("fp_dispatches", rows * (n + 2 * lanes))
        est.add("tcdm_read64", 2 * rows * n)
        est.add("tcdm_write64", rows)
        est.add("ssr_reads", 2 * rows * n)
        if chaining:
            est.add("chain", 2 * rows * n)
    elif kernel == "cdot":
        if cfg.fpu_pipe_depth != 3:
            raise ValueError(
                "cdot's dual-chain schedule is written for the default "
                "pipe depth of 3 (capacity 4)")
        if n % 2:
            raise ValueError(f"n={n} must be even")
        blocks = n // 2
        est = _Estimate(flops=8 * n, points=n)
        est.region = 8 * blocks + 2 + 4 + 4 * (1 + lat) + 3 + lat + 4
        est.setup = _ssr_setup_instrs(3) + _ssr_setup_instrs(1, True) \
            + 2 * _ssr_arm_instrs() + 5
        est.add("fpu_fp_fma", 8 * blocks - 4)
        est.add("fpu_fp_mul", 4)
        est.add("fpu_fp_add", 2)
        est.add("fp_dispatches", 8 * blocks + 8)
        est.add("tcdm_read64", 2 * n + 4 * n)
        est.add("tcdm_access32", 4 * n)
        est.add("tcdm_write64", 2)
        est.add("ssr_reads", 8 * n)
        est.add("chain", 16 * blocks)
    else:
        raise ValueError(
            f"no analytical model for kernel {kernel!r}; supported "
            f"builds: vecop, {', '.join(LINALG_KERNELS)}")
    est.end = 4
    est.add("int_instrs", est.setup + est.end + 6)
    est.add("ssr_active", 2 * est.region)
    compute = est.events.get("fpu_fp_fma", 0) \
        + est.events.get("fpu_fp_mul", 0) + est.events.get("fpu_fp_add", 0)
    est.utilization = min(1.0, compute / est.region) if est.region else 0.0
    est.terms = {"lanes": lanes, "n": n}
    return est


# -- energy synthesis ----------------------------------------------------------


def _energy_report(est: _Estimate, cfg: CoreConfig,
                   num_clusters: int = 1,
                   scale: float = 1.0) -> EnergyReport:
    """Charge the estimate's event counts at the unit energies.

    The breakdown uses the same component keys as
    :class:`~repro.energy.model.EnergyModel` so downstream consumers
    (CSV, plots) need no special casing.
    """
    p = EnergyParams()
    ev = est.events
    cycles = est.cycles
    breakdown: dict[str, float] = {}
    breakdown["int_core"] = ev.get("int_instrs", 0) * p.int_issue
    breakdown["fp_dispatch"] = ev.get("fp_dispatches", 0) * p.fp_dispatch
    breakdown["fpu"] = sum(
        ev.get(op, 0) * unit for op, unit in p.fpu_op.items())
    breakdown["fp_rf"] = ev.get("fp_rf_reads", 0) * p.fp_rf_read \
        + ev.get("fp_rf_writes", 0) * p.fp_rf_write
    breakdown["chaining"] = ev.get("chain", 0) * p.chain_access
    breakdown["ssr_regs"] = (ev.get("ssr_reads", 0)
                             + ev.get("ssr_writes", 0)) * p.ssr_reg_access
    breakdown["ssr_agu"] = ev.get("ssr_active", 0) * p.ssr_active_cycle
    breakdown["tcdm"] = ev.get("tcdm_read64", 0) * p.tcdm_read64 \
        + ev.get("tcdm_write64", 0) * p.tcdm_write64 \
        + ev.get("tcdm_access32", 0) * p.tcdm_access32
    breakdown["dma"] = ev.get("dma_bytes", 0) * p.dma_per_byte
    breakdown["static"] = num_clusters * cycles * p.static_pj_per_cycle
    if num_clusters > 1 or "gmem_bytes" in ev:
        breakdown["gmem"] = ev.get("gmem_bytes", 0) * p.gmem_per_byte
        breakdown["uncore_static"] = cycles * p.uncore_static_pj_per_cycle
    if scale != 1.0:
        breakdown = {k: v * scale for k, v in breakdown.items()}
    total = sum(breakdown.values())
    return EnergyReport(total, cycles, cfg.clock_hz, breakdown)


# -- public entry points -------------------------------------------------------


def _result_from_estimate(name: str, family: str, est: _Estimate,
                          cfg: CoreConfig, calibration,
                          num_clusters: int = 1,
                          system: SystemReport | None = None,
                          extra_meta: dict | None = None) -> Result:
    scale_cycles, scale_energy = _resolve_calibration(calibration, family)
    if scale_cycles != 1.0:
        est.setup *= scale_cycles
        est.region *= scale_cycles
        est.end *= scale_cycles
    cycles = est.cycles
    region = int(round(est.region))
    if system is not None:
        # The system runner reports region == cycles (the measured
        # region spans the whole phase schedule).
        region = cycles
        system.per_cluster_cycles = [cycles] * system.num_clusters
    energy = _energy_report(est, cfg, num_clusters=num_clusters,
                            scale=scale_energy)
    meta = {
        FIDELITY_KEY: FIDELITY_ANALYTICAL,
        "engine": ANALYTICAL_ENGINE,
        "family": family,
        "model": {k: round(float(v), 4) for k, v in est.terms.items()},
    }
    if scale_cycles != 1.0 or scale_energy != 1.0:
        meta["calibration"] = {"scale_cycles": scale_cycles,
                               "scale_energy": scale_energy}
    if extra_meta:
        meta.update(extra_meta)
    return Result(
        name=name,
        correct=True,
        cycles=cycles,
        region_cycles=region,
        fpu_utilization=round(est.utilization, 4),
        energy=energy,
        clock_hz=cfg.clock_hz,
        flops=est.flops,
        points=est.points,
        meta=meta,
        stalls={},
        system=system,
    )


def estimate_workload(workload: Workload,
                      base_cfg: CoreConfig | None = None,
                      engine: str | None = None,
                      calibration=None) -> Result:
    """Closed-form :class:`Result` estimate for one workload.

    Resolves the config exactly like
    :func:`~repro.api.execute.execute_workload` (overrides, then the
    campaign engine under the workload's own precedence) and never
    constructs a simulator.  Raises the same ``ValueError`` a build
    would for invalid shapes, so campaigns fail identically at either
    fidelity.  ``calibration`` (a
    :class:`~repro.analytical.calibrate.CalibrationReport` or plain
    family dict) applies fitted per-family correction factors.
    """
    from repro.api.execute import (
        _engine_cfg,
        _system_config,
        apply_overrides,
    )

    cfg = _engine_cfg(apply_overrides(base_cfg, workload.overrides),
                      workload, engine)
    core = cfg if cfg is not None else CoreConfig()
    family = kernel_family(workload)
    if workload.is_vecop:
        est = _estimate_vecop(
            VecopVariant(workload.variant),
            workload.n if workload.n is not None else 256,
            workload.loop_mode or "frep", core)
        return _result_from_estimate(workload.label, family, est, core,
                                     calibration)
    spec, default_grid = get_stencil(workload.kernel)
    grid = workload.grid3d() or default_grid
    unroll = workload.unroll if workload.unroll is not None else 4
    variant = workload.stencil_variant()
    if workload.is_system:
        sys_cfg = _system_config(workload, cfg)
        est = _estimate_system(spec, grid, variant, unroll, sys_cfg,
                               workload.iters)
        system = _system_report(est, workload.iters)
        return _result_from_estimate(
            workload.label, family, est, core, calibration,
            num_clusters=workload.num_clusters, system=system)
    est = _estimate_stencil_tile(spec, grid, variant, unroll, core)
    return _result_from_estimate(workload.label, family, est, core,
                                 calibration)


def estimate_build(build, cfg: CoreConfig | None = None,
                   calibration=None) -> Result:
    """Closed-form estimate for a prebuilt kernel (vecop/linalg).

    Reads the build's ``meta`` (kernel, n, variant, ...); stencil builds
    have no grid shape in their meta and must go through
    :func:`estimate_workload` instead.
    """
    cfg = cfg or CoreConfig()
    meta = dict(getattr(build, "meta", {}) or {})
    kernel = meta.get("kernel")
    family = kernel_family(build)
    if kernel == "vecop":
        est = _estimate_vecop(VecopVariant(meta["variant"]),
                              int(meta["n"]),
                              meta.get("loop_mode", "frep"), cfg)
    elif kernel in LINALG_KERNELS:
        est = _estimate_linalg(meta, cfg)
    else:
        raise ValueError(
            f"no analytical model for build {build.name!r} "
            f"(kernel {kernel!r}); stencil kernels are estimated "
            f"through Workload (the grid shape is not in build meta)")
    return _result_from_estimate(build.name, family, est, cfg,
                                 calibration)
