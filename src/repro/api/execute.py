"""Workload resolution and backend dispatch.

This is the seam between the declarative :class:`~repro.api.workloads.
Workload` and the execution backends: the single-cluster eval runner
(:mod:`repro.eval.runner`), the vecop builder, and the multi-cluster
system runner (:mod:`repro.eval.system_runner`).  The sweep engine's
workers and :class:`~repro.api.session.Session` both execute through
:func:`execute_workload`, so every front door resolves configs and
picks backends identically.
"""

from __future__ import annotations

import copy

from repro.api.result import Result
from repro.api.workloads import FPU_DEPTH_KEY, Workload
from repro.core.config import CoreConfig, SystemConfig
from repro.eval.runner import execute_build, execute_stencil
from repro.isa.instructions import InstrClass
from repro.kernels.vecop import VecopVariant, build_vecop
from repro.obs import spans as _obs

DEFAULT_MAX_CYCLES = 5_000_000

#: Default budget for multi-cluster workloads (the default of
#: ``execute_system_stencil``).  Every front door -- ``Session.run``,
#: ``Session.map`` and the sweep runner -- resolves the same
#: per-workload budgets, so cached results are front-door-independent.
DEFAULT_SYSTEM_MAX_CYCLES = 20_000_000


def apply_overrides(base_cfg: CoreConfig | None,
                    overrides: tuple[tuple[str, object], ...],
                    ) -> CoreConfig | None:
    """Materialize a workload's config; ``None`` when nothing is
    overridden.

    Returning ``None`` (rather than a fresh default ``CoreConfig``) keeps
    the un-overridden path byte-identical to calling the eval runner
    directly.
    """
    if base_cfg is None and not overrides:
        return None
    cfg = copy.deepcopy(base_cfg) if base_cfg is not None else CoreConfig()
    for key, value in overrides:
        if key == FPU_DEPTH_KEY:
            depth = int(value)
            cfg.fpu_pipe_depth = depth
            cfg.fpu_latency = dict(cfg.fpu_latency)
            for iclass in (InstrClass.FP_ADD, InstrClass.FP_MUL,
                           InstrClass.FP_FMA):
                cfg.fpu_latency[iclass] = depth
        else:
            setattr(cfg, key, value)
    cfg.validate()
    return cfg


def apply_engine(cfg: CoreConfig | None, engine: str | None,
                 workload_engine: str | None = None,
                 fresh: bool = False) -> CoreConfig | None:
    """Apply a session/campaign-wide ``engine`` to ``cfg`` unless the
    workload's own ``("engine", ...)`` override already decided.

    The one place the engine-precedence rule lives: a plain ``"auto"``
    over an ``"auto"`` config stays ``None``-transparent (byte-identical
    un-overridden path).  ``fresh=True`` deep-copies before mutating
    (for configs not already private, e.g. a session's shared base).
    """
    if engine is None or workload_engine is not None:
        return cfg
    if engine == "auto" and (cfg is None or cfg.engine == "auto"):
        return cfg
    if cfg is None:
        cfg = CoreConfig()
    elif fresh:
        cfg = copy.deepcopy(cfg)
    cfg.engine = engine
    cfg.validate()
    return cfg


def _engine_cfg(cfg: CoreConfig | None, workload: Workload,
                engine: str | None) -> CoreConfig | None:
    # cfg comes from apply_overrides, which always returns a private
    # copy (or None), so in-place application is safe here.
    return apply_engine(cfg, engine, workload.engine)


def _system_config(workload: Workload,
                   cfg: CoreConfig | None) -> SystemConfig:
    """The one place a workload's system axes become a SystemConfig
    (``num_clusters``/``iters`` route separately from the knobs)."""
    from repro.eval.system_runner import make_system_config

    axes = dict(workload.system)
    num_clusters = axes.pop("num_clusters", 1)
    axes.pop("iters", None)
    return make_system_config(num_clusters, cfg, **axes)


def resolve_config(workload: Workload,
                   base_cfg: CoreConfig | None = None,
                   engine: str | None = None,
                   ) -> CoreConfig | SystemConfig:
    """The materialized config ``workload`` would run under.

    Returns a :class:`SystemConfig` for multi-cluster workloads and a
    :class:`CoreConfig` otherwise (a fresh default when nothing is
    overridden).  Informational: :func:`execute_workload` performs the
    same resolution internally.
    """
    cfg = _engine_cfg(apply_overrides(base_cfg, workload.overrides),
                      workload, engine)
    if workload.is_system:
        return _system_config(workload, cfg)
    return cfg if cfg is not None else CoreConfig()


def execute_workload(workload: Workload,
                     base_cfg: CoreConfig | None = None,
                     max_cycles: int | None = None,
                     engine: str | None = None,
                     require_correct: bool = True) -> Result:
    """Run one workload to completion in this process.

    ``engine`` (any of :data:`repro.core.config.ENGINES`) overrides the
    config's execution-engine selection; ``None`` (and the default
    ``"auto"``) leaves the un-overridden path byte-identical to calling
    the backends directly.  ``max_cycles=None`` selects the backend's
    own default budget (:data:`DEFAULT_SYSTEM_MAX_CYCLES` for
    multi-cluster workloads, :data:`DEFAULT_MAX_CYCLES` otherwise).
    """
    if not _obs.ENABLED:
        return _execute_workload(workload, base_cfg, max_cycles, engine,
                                 require_correct)
    label = workload.label
    # The sim-context label groups every simulated-cycle event emitted
    # below (engine selection, loop-memo replays, DMA/barriers) onto this
    # workload's own timeline track.
    with _obs.sim_context(label), \
            _obs.tracer().span("execute", "exec",
                               args={"workload": label}) as sargs:
        result = _execute_workload(workload, base_cfg, max_cycles,
                                   engine, require_correct)
        sargs["cycles"] = result.cycles
        sargs["correct"] = result.correct
        return result


def _execute_workload(workload: Workload,
                      base_cfg: CoreConfig | None,
                      max_cycles: int | None,
                      engine: str | None,
                      require_correct: bool) -> Result:
    if max_cycles is None:
        max_cycles = DEFAULT_SYSTEM_MAX_CYCLES if workload.is_system \
            else DEFAULT_MAX_CYCLES
    cfg = _engine_cfg(apply_overrides(base_cfg, workload.overrides),
                      workload, engine)
    if cfg is not None and cfg.engine == "analytical":
        # Closed-form estimate: never constructs a Cluster or System.
        # Imported lazily so the analytical package (which reuses this
        # module's config resolution) stays cycle-free.
        from repro.analytical.model import estimate_workload

        return estimate_workload(workload, base_cfg=base_cfg,
                                 engine=engine)
    if workload.is_vecop:
        kwargs = {"variant": VecopVariant(workload.variant), "cfg": cfg}
        if workload.n is not None:
            kwargs["n"] = workload.n
        if workload.loop_mode is not None:
            kwargs["loop_mode"] = workload.loop_mode
        return execute_build(build_vecop(**kwargs), cfg=cfg,
                             max_cycles=max_cycles,
                             require_correct=require_correct)
    if workload.is_system:
        from repro.eval.system_runner import execute_system_stencil

        sys_cfg = _system_config(workload, cfg)
        kwargs = {"grid": workload.grid3d()}
        if workload.unroll is not None:
            kwargs["unroll"] = workload.unroll
        return execute_system_stencil(
            workload.kernel, workload.stencil_variant(),
            num_clusters=workload.num_clusters, sys_cfg=sys_cfg,
            iters=workload.iters, max_cycles=max_cycles,
            require_correct=require_correct, **kwargs)
    kwargs = {"grid": workload.grid3d(), "cfg": cfg}
    if workload.unroll is not None:
        kwargs["unroll"] = workload.unroll
    return execute_stencil(workload.kernel, workload.stencil_variant(),
                           max_cycles=max_cycles,
                           require_correct=require_correct, **kwargs)
