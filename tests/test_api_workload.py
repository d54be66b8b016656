"""Workload: validation, canonical form, and cache-key compatibility.

The goldens in ``tests/data/cache_key_goldens.json`` were captured from
the **pre-redesign** code (v1.4.0, when the expansion unit was still
``repro.sweep.spec.Point``): every canonical dict and SHA-256 cache key
in there is what the old code produced.  The tests prove the unified
:class:`repro.api.Workload` reproduces them bit-for-bit, so caches
written before the API unification still hit.
"""

import json
from pathlib import Path

import pytest

from repro.api import Workload, make_workload, workload
from repro.core.config import CoreConfig
from repro.kernels.layout import Grid3d
from repro.sweep.cache import point_key
from repro.sweep.presets import scaling_points

GOLDENS = json.loads(
    (Path(__file__).parent / "data" / "cache_key_goldens.json")
    .read_text())

#: The arguments the golden "extra" workloads were built from (same
#: order as in the goldens file) -- proves the validating constructor
#: normalizes to the identical canonical form, not just from_canonical.
EXTRA_ARGS = [
    dict(kernel="vecop", variant="chaining", n=64, loop_mode="frep"),
    dict(kernel="vecop", variant="baseline", n=128),
    dict(kernel="box3d1r", variant="Base", grid=(2, 3, 8), unroll=2,
         overrides={"tcdm_banks": 16, "engine": "scalar-v2"}),
    dict(kernel="j3d27pt", variant="Chaining+", grid=(4, 4, 8),
         system={"num_clusters": 2, "iters": 2, "gmem_latency": 100,
                 "link_bytes_per_cycle": 32}),
    dict(kernel="vecop", variant="unrolled", n=24,
         overrides={"fpu_depth": 2}),
]


def test_scaling_preset_canonical_and_keys_match_pre_redesign():
    points = scaling_points()
    assert len(points) == len(GOLDENS["scaling"])
    version = GOLDENS["version"]
    for point, golden in zip(points, GOLDENS["scaling"]):
        assert point.canonical() == golden["canonical"]
        assert point_key(point, version) == golden["key"]


def test_constructed_workloads_reproduce_pre_redesign_keys():
    version = GOLDENS["version"]
    base_cfg = CoreConfig(fp_queue_depth=8)
    for args, golden in zip(EXTRA_ARGS, GOLDENS["extra"]):
        w = make_workload(**args)
        assert w.canonical() == golden["canonical"]
        assert point_key(w, version) == golden["key"]
        # point_key is a pure hash: the engine name retired in 2.0
        # still hashes to its golden.
        assert point_key(w, version, engine="fast") == \
            golden["key_engine_fast"]
        assert point_key(w, version, base_cfg=base_cfg) == \
            golden["key_base_cfg"]


def test_from_canonical_round_trips_the_goldens():
    for golden in GOLDENS["scaling"] + GOLDENS["extra"]:
        w = Workload.from_canonical(golden["canonical"])
        assert w.canonical() == golden["canonical"]


def test_engine_keyword_folds_into_overrides():
    w = workload("box3d1r", "Chaining+", engine="scalar-v2")
    assert w.engine == "scalar-v2"
    assert dict(w.overrides)["engine"] == "scalar-v2"
    same = workload("box3d1r", "Chaining+",
                    overrides={"engine": "scalar-v2"})
    assert w == same and w.canonical() == same.canonical()
    with pytest.raises(ValueError, match="conflicting engines"):
        workload("box3d1r", "Chaining+", engine="auto",
                 overrides={"engine": "scalar"})
    for retired in ("warp", "fast"):
        with pytest.raises(ValueError, match="engine must be"):
            workload("box3d1r", "Chaining+", engine=retired)


def test_system_keywords_fold_into_system_axes():
    w = workload("box3d1r", "Chaining+", grid=(4, 4, 8),
                 num_clusters=2, iters=3)
    same = workload("box3d1r", "Chaining+", grid=(4, 4, 8),
                    system={"num_clusters": 2, "iters": 3})
    assert w == same and w.is_system
    assert w.num_clusters == 2 and w.iters == 3
    with pytest.raises(ValueError, match="conflicting num_clusters"):
        workload("box3d1r", "Chaining+", num_clusters=2,
                 system={"num_clusters": 4})


def test_workload_validation_mirrors_make_point():
    with pytest.raises(ValueError, match="unknown kernel"):
        workload("nope", "Base")
    with pytest.raises(ValueError, match="unknown variant"):
        workload("box3d1r", "Turbo")
    with pytest.raises(ValueError, match="grid/unroll"):
        workload("vecop", "chaining", grid=(2, 3, 8))
    with pytest.raises(ValueError, match="n/loop_mode"):
        workload("box3d1r", "Base", n=64)
    with pytest.raises(ValueError, match="system axes"):
        workload("vecop", "chaining", num_clusters=2)
    with pytest.raises(ValueError, match="unknown system axis"):
        workload("box3d1r", "Base", system={"clusters": 2})


def test_grid3d_and_label_survive_the_move():
    w = workload("box3d1r", "Chaining+", grid=Grid3d(2, 3, 8))
    assert w.grid == (2, 3, 8)
    assert w.grid3d() == Grid3d(2, 3, 8)
    assert w.label.startswith("box3d1r/Chaining+ 2x3x8")


def test_point_alias_is_removed():
    """The 1.5 ``Point`` alias of :class:`Workload` is gone in 2.0."""
    import repro
    import repro.sweep
    import repro.sweep.spec
    for module in (repro, repro.sweep, repro.sweep.spec):
        assert not hasattr(module, "Point"), module.__name__
    with pytest.raises(ImportError):
        from repro.sweep.spec import Point  # noqa: F401
    with pytest.raises(ImportError):
        from repro.sweep import Point as SweepPoint  # noqa: F401
