"""Multi-cluster execution backend behind the unified API.

The system-level counterpart of :mod:`repro.eval.runner`:
:func:`execute_system_stencil` builds the halo-exchange decomposition
(:mod:`repro.kernels.partition`), runs it on a
:class:`repro.system.System`, verifies the reassembled global grid
bit-exactly against the iterated numpy golden model, and returns the
same unified :class:`~repro.api.result.Result` every other backend
produces -- with the system-level aggregation (per-cluster cycles,
global-memory traffic, interconnect contention) as a typed
:class:`~repro.api.result.SystemReport`.
"""

from __future__ import annotations

from repro.api.result import Result, SystemReport
from repro.core.config import CoreConfig, SystemConfig
from repro.energy.model import EnergyModel
from repro.eval.runner import _pop_throughput_inputs
from repro.kernels.layout import Grid3d
from repro.kernels.partition import build_partitioned_stencil
from repro.kernels.registry import get_stencil
from repro.kernels.variants import Variant
from repro.obs import spans as _obs
from repro.system import System

#: SystemConfig fields settable through the sweep/CLI system axes
#: (``num_clusters`` and ``iters`` route separately).
SYSTEM_KNOBS = ("gmem_banks", "gmem_bank_bytes_per_cycle",
                "gmem_latency", "link_bytes_per_cycle", "gmem_size")


def make_system_config(num_clusters: int = 1,
                       cfg: CoreConfig | None = None,
                       **knobs) -> SystemConfig:
    """Assemble a validated :class:`SystemConfig` from loose knobs."""
    sys_cfg = SystemConfig(num_clusters=num_clusters)
    if cfg is not None:
        sys_cfg.core = cfg
    for key, value in knobs.items():
        if value is None:
            continue
        if key not in SYSTEM_KNOBS:
            raise ValueError(
                f"unknown system knob {key!r}; choose from: "
                f"{', '.join(SYSTEM_KNOBS)}")
        setattr(sys_cfg, key, int(value))
    sys_cfg.validate()
    return sys_cfg


def execute_system_stencil(kernel: str, variant: Variant,
                           grid: Grid3d | None = None,
                           num_clusters: int = 1,
                           cfg: CoreConfig | None = None,
                           sys_cfg: SystemConfig | None = None,
                           unroll: int = 4, iters: int = 1,
                           max_cycles: int = 20_000_000,
                           require_correct: bool = True,
                           tile_order: list[int] | None = None) -> Result:
    """Build, run and verify one multi-cluster stencil data point."""
    spec, default_grid = get_stencil(kernel)
    grid = grid or default_grid
    if sys_cfg is None:
        sys_cfg = make_system_config(num_clusters, cfg)
    elif sys_cfg.num_clusters != num_clusters:
        raise ValueError(
            f"sys_cfg.num_clusters={sys_cfg.num_clusters} but "
            f"num_clusters={num_clusters}")
    build = build_partitioned_stencil(
        spec, grid, variant, num_clusters, unroll=unroll, cfg=sys_cfg,
        iters=iters, tile_order=tile_order)
    system = System(build.asms, sys_cfg)
    build.load_into(system)
    system.run(max_cycles=max_cycles)

    correct = build.check(system)
    if require_correct and not correct:
        raise AssertionError(
            f"{build.name}: reassembled output does not match the "
            f"iterated golden model")

    model = EnergyModel(sys_cfg.core)
    energy = model.system_report(system)

    meta = dict(build.meta)
    report = SystemReport(
        num_clusters=meta.get("num_clusters", num_clusters),
        iters=meta.get("iters", iters),
        per_cluster_cycles=system.per_cluster_cycles(),
        sys_barriers=system.sys_barriers,
        gmem_bytes_read=system.gmem.bytes_read,
        gmem_bytes_written=system.gmem.bytes_written,
        gmem_latency_cycles=system.gmem.transfer_latency_cycles,
        interconnect_busy_cycles=system.interconnect.busy_cycles,
        interconnect_contended_cycles=system.interconnect.contended_cycles,
    )
    flops, points = _pop_throughput_inputs(build.name, meta)
    if _obs.ENABLED:
        from repro.obs.metrics import METRICS, system_run_obs

        meta["obs"] = system_run_obs(system)
        METRICS.inc("system.runs")
        METRICS.inc("dma.bytes", system.gmem.bytes_moved)
        METRICS.inc("dma.contended_cycles",
                    system.interconnect.contended_cycles)
    return Result(
        name=build.name,
        correct=correct,
        cycles=system.cycle,
        region_cycles=system.cycle,
        fpu_utilization=system.fpu_utilization(),
        energy=energy,
        clock_hz=sys_cfg.core.clock_hz,
        flops=flops,
        points=points,
        meta=meta,
        stalls=system.stall_breakdown(),
        system=report,
    )
