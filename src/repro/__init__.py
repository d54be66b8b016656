"""repro: scalar chaining for RISC-V in-order cores.

A cycle-level, hazard-faithful reproduction of

    "Late Breaking Results: A RISC-V ISA Extension for Chaining in Scalar
    Processors" (Colagrande, Jonnalagadda, Benini -- DATE 2025).

Quick start (the unified API: one Workload in, one Result out)::

    from repro import Session, workload

    session = Session(cache=".sweep-cache")
    result = session.run(workload("j3d27pt", "Chaining+"))
    print(result.fpu_utilization, result.power_mw, result.gflops_per_watt)

    # many workloads, process-parallel, content-addressed caching:
    campaign = session.map(
        [workload("box3d1r", "Chaining+", num_clusters=n, iters=2,
                  grid=(4, 4, 8)) for n in (1, 2, 4)],
        parallel=True)
    for outcome in campaign.ok:
        print(outcome.point.label, outcome.result.to_dict()["gflops"])

Package map:

* :mod:`repro.api`     -- the unified Workload/Session/Result front door
* :mod:`repro.isa`     -- RV32IM + F/D + Xssr/Xfrep/Xchain, assembler
* :mod:`repro.core`    -- the Snitch-like core and the chaining extension
* :mod:`repro.ssr`     -- stream semantic registers (affine + indirect)
* :mod:`repro.mem`     -- banked TCDM model
* :mod:`repro.kernels` -- Fig. 1 vecop and SARIS-style stencil generators
* :mod:`repro.energy`  -- event-based energy/power and area models
* :mod:`repro.eval`    -- execution backends and figure regeneration
* :mod:`repro.sweep`   -- experiment campaigns: declarative sweeps,
  parallel execution, content-addressed result caching, aggregation
* :mod:`repro.system`  -- multi-cluster scale-out: shared global
  memory, inter-cluster DMA arbitration, system barrier, and the
  halo-exchange domain decomposition in :mod:`repro.kernels.partition`
* :mod:`repro.trace`   -- issue traces (Fig. 1c) and dataflow (Fig. 2)
* :mod:`repro.obs`     -- opt-in telemetry: spans, metrics, and
  Perfetto timeline export (``docs/observability.md``)
"""

from typing import TYPE_CHECKING

from repro import obs
from repro._lazy import attach

if TYPE_CHECKING:
    from repro.api import (
        Result,
        Session,
        SystemReport,
        Workload,
        make_workload,
        workload,
    )
    from repro.core import ChainController, Cluster, CoreConfig, SystemConfig
    from repro.energy import AreaModel, EnergyModel, EnergyParams
    from repro.eval import geomean
    from repro.isa import assemble, decode, disassemble, encode
    from repro.kernels import (
        Grid3d,
        KernelBuild,
        StencilSpec,
        Variant,
        VecopVariant,
        box3d1r,
        build_stencil,
        build_vecop,
        j3d27pt,
        star3d1r,
    )
    from repro.kernels.partition import build_partitioned_stencil
    from repro.system import GLOBAL_BASE, System
    from repro.sweep import (
        Campaign,
        ResultCache,
        SweepRunner,
        SweepSpec,
    )
    from repro.trace import TraceRecorder, render_dataflow, render_issue_trace

__version__ = "2.0.0"

__all__ = [
    "AreaModel",
    "Campaign",
    "ChainController",
    "Cluster",
    "CoreConfig",
    "EnergyModel",
    "EnergyParams",
    "GLOBAL_BASE",
    "Grid3d",
    "KernelBuild",
    "Result",
    "ResultCache",
    "Session",
    "StencilSpec",
    "SweepRunner",
    "SweepSpec",
    "System",
    "SystemConfig",
    "SystemReport",
    "TraceRecorder",
    "Variant",
    "VecopVariant",
    "Workload",
    "__version__",
    "assemble",
    "box3d1r",
    "build_partitioned_stencil",
    "build_stencil",
    "build_vecop",
    "decode",
    "disassemble",
    "encode",
    "geomean",
    "j3d27pt",
    "make_workload",
    "obs",
    "render_dataflow",
    "render_issue_trace",
    "star3d1r",
    "workload",
]

__getattr__, __dir__ = attach(__name__)
