"""Single-cluster execution backend behind the unified API.

:func:`execute_build` runs one :class:`~repro.kernels.build.KernelBuild`
on a cluster, verifies the output bit-exactly against the golden model,
and returns the unified :class:`~repro.api.result.Result` (cycle
counts, FPU utilization over the measured region, energy/power, and the
typed ``clock_hz``/``flops``/``points`` throughput inputs).
:func:`execute_stencil` is the one-call stencil data point.
"""

from __future__ import annotations

from repro.api.result import Result
from repro.core.cluster import Cluster
from repro.core.config import CoreConfig
from repro.energy.model import EnergyModel
from repro.kernels.build import MARK_END, MARK_START, KernelBuild
from repro.kernels.layout import Grid3d
from repro.kernels.registry import get_stencil
from repro.kernels.stencil_codegen import build_stencil
from repro.kernels.variants import Variant
from repro.obs import spans as _obs


def _pop_throughput_inputs(name: str, meta: dict) -> tuple[int, int]:
    """Lift the typed throughput inputs out of a build's metadata.

    Every builder must *declare* them (an explicit 0 when the kernel
    reports none) -- the unified ``Result`` never silently defaults a
    missing value to a wrong Gflop/s.
    """
    missing = [key for key in ("flops", "points") if key not in meta]
    if missing:
        raise ValueError(
            f"{name}: build.meta must declare {', '.join(missing)!s} "
            f"(pass an explicit 0 when the kernel reports none); the "
            f"typed Result fields are never silently defaulted")
    return int(meta.pop("flops")), int(meta.pop("points"))


def execute_build(build: KernelBuild, cfg: CoreConfig | None = None,
                  max_cycles: int = 5_000_000,
                  require_correct: bool = True) -> Result:
    """Execute ``build`` and return its metrics."""
    cfg = cfg or CoreConfig()
    cluster = Cluster(build.asm, cfg=cfg, symbols=build.symbols)
    build.load_into(cluster)
    cluster.run(max_cycles=max_cycles)

    correct = build.check(cluster)
    if require_correct and not correct:
        raise AssertionError(
            f"{build.name}: simulated output does not match the golden "
            f"model"
        )

    perf = cluster.perf
    have_marks = MARK_START in perf.marks and MARK_END in perf.marks
    region = perf.region_cycles(MARK_START, MARK_END) if have_marks \
        else perf.cycles
    util = perf.fpu_utilization(MARK_START, MARK_END) if have_marks \
        else perf.fpu_utilization()

    model = EnergyModel(cfg)
    energy = model.report(cluster)

    meta = dict(build.meta)
    flops, points = _pop_throughput_inputs(build.name, meta)
    if _obs.ENABLED:
        from repro.obs.metrics import METRICS, cluster_run_obs

        meta["obs"] = cluster_run_obs(cluster)
        if cluster.fastpath is not None:
            stats = cluster.fastpath.stats
            METRICS.inc("fastpath.regions", stats["regions_seen"])
            METRICS.inc("fastpath.eligible", stats["regions_eligible"])
            METRICS.inc("fastpath.cycles",
                        stats["fast_forwarded_cycles"])
            METRICS.inc("loop.regions", stats["loop_regions_seen"])
            METRICS.inc("loop.hits", stats["loop_hits"])
            METRICS.inc("loop.misses", stats["loop_misses"])
            METRICS.inc("loop.cycles", stats["loop_cycles"])
            METRICS.inc("loop.recordings", stats["loop_recordings"])
    return Result(
        name=build.name,
        correct=correct,
        cycles=perf.cycles,
        region_cycles=region,
        fpu_utilization=util,
        energy=energy,
        clock_hz=cfg.clock_hz,
        flops=flops,
        points=points,
        meta=meta,
        stalls=perf.stall_breakdown(),
    )


def execute_stencil(kernel: str, variant: Variant,
                    grid: Grid3d | None = None,
                    cfg: CoreConfig | None = None,
                    unroll: int = 4,
                    max_cycles: int = 5_000_000,
                    require_correct: bool = True) -> Result:
    """Build and run one paper stencil data point."""
    spec, default_grid = get_stencil(kernel)
    build = build_stencil(spec, grid or default_grid, variant,
                          unroll=unroll, cfg=cfg)
    return execute_build(build, cfg=cfg, max_cycles=max_cycles,
                         require_correct=require_correct)
