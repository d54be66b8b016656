"""Experiment-campaign engine: declarative sweeps, parallel execution,
content-addressed result caching, and aggregation.

Quick start::

    from repro.api import Session
    from repro.sweep import SweepSpec

    spec = SweepSpec(kernels=("box3d1r",), grids=((2, 4, 16), (4, 6, 32)),
                     overrides=({"tcdm_banks": 16}, {"tcdm_banks": 32}))
    campaign = Session(cache=".sweep-cache").map(spec.points(),
                                                 parallel=True)
    for outcome in campaign.ok:
        print(outcome.point.label, outcome.result.fpu_utilization)

(The lower-level :class:`SweepRunner` remains the engine underneath
``Session.map``.)  See ``docs/sweeps.md`` for the spec format and cache
layout.
"""

from repro.api.workloads import Workload, make_workload
from repro.sweep.aggregate import (
    RESULT_METRICS,
    best_points,
    by_kernel_variant,
    group_by,
    speedup_vs_baseline,
    summary_rows,
)
from repro.sweep.audit import (
    AUDIT_AXES,
    AUDIT_SCHEMA,
    GAP_CLASSES,
    BackfillPlan,
    CampaignAudit,
    PointAudit,
    audit_campaign,
)
from repro.sweep.cache import ResultCache, point_key
from repro.sweep.presets import PRESETS, preset_points
from repro.sweep.runner import (
    Campaign,
    Outcome,
    SweepRunner,
    apply_overrides,
)
from repro.sweep.spec import (
    SweepSpec,
    VECOP_KERNEL,
    normalize_variant,
)

__all__ = [
    "AUDIT_AXES",
    "AUDIT_SCHEMA",
    "BackfillPlan",
    "Campaign",
    "CampaignAudit",
    "GAP_CLASSES",
    "Outcome",
    "PRESETS",
    "PointAudit",
    "RESULT_METRICS",
    "ResultCache",
    "SweepRunner",
    "SweepSpec",
    "VECOP_KERNEL",
    "Workload",
    "apply_overrides",
    "audit_campaign",
    "best_points",
    "by_kernel_variant",
    "group_by",
    "make_workload",
    "normalize_variant",
    "point_key",
    "preset_points",
    "speedup_vs_baseline",
    "summary_rows",
]
