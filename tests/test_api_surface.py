"""Public-API surface snapshots.

``repro.__all__`` and ``repro.api.__all__`` are pinned against
checked-in lists so that surface changes are always a reviewed,
deliberate diff -- update the snapshot here when the API genuinely
grows or shrinks.
"""

import warnings

import repro
import repro.api

REPRO_ALL = [
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

REPRO_API_ALL = [
    "CancelToken",
    "DEFAULT_MAX_CYCLES",
    "FPU_DEPTH_KEY",
    "OVERRIDABLE_FIELDS",
    "RESULT_KEYS",
    "RESULT_METRICS",
    "RESULT_SCALARS",
    "RESULT_SCHEMA",
    "Result",
    "SYSTEM_FIELDS",
    "Session",
    "SystemReport",
    "VECOP_KERNEL",
    "Workload",
    "apply_overrides",
    "execute_workload",
    "make_workload",
    "normalize_variant",
    "parse_engine",
    "parse_kernel",
    "parse_stencil_variant",
    "parse_variant",
    "resolve_config",
    "resolve_variant",
    "workload",
]


def test_repro_all_matches_snapshot():
    assert sorted(repro.__all__) == REPRO_ALL
    assert repro.__all__ == sorted(repro.__all__)


def test_repro_api_all_matches_snapshot():
    assert sorted(repro.api.__all__) == REPRO_API_ALL
    assert repro.api.__all__ == sorted(repro.api.__all__)


def test_every_exported_name_resolves():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    for name in repro.api.__all__:
        assert getattr(repro.api, name) is not None, name


def test_star_import_is_warning_free():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        exec("from repro import *", {})
        exec("from repro.sweep import *", {})


def test_removed_pre_2_0_names_are_gone():
    """The 1.x compatibility surface was removed in 2.0, not hidden."""
    import repro.eval
    import repro.sweep
    import repro.sweep.spec

    for module, names in (
            (repro, ("RunResult", "make_point", "run_build",
                     "run_stencil_variant", "run_system_stencil")),
            (repro.eval, ("RunResult", "run_build",
                          "run_stencil_variant")),
            (repro.sweep, ("make_point", "result_from_record",
                           "result_to_record")),
            (repro.sweep.spec, ("make_point",))):
        for name in names:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
