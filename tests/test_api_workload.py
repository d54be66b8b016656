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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Workload, make_workload, workload
from repro.api.workloads import FieldError
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


# -- the wire/journal decoder -------------------------------------------------

_STENCIL_KERNELS = ("box3d1r", "j3d27pt", "star3d1r")
_STENCIL_VARIANTS = ("Base--", "Base-", "Base", "Chaining", "Chaining+")


@st.composite
def _workloads(draw) -> Workload:
    overrides = draw(st.dictionaries(
        st.sampled_from(("tcdm_banks", "fpu_depth", "fp_queue_depth")),
        st.integers(1, 64), max_size=3))
    if draw(st.booleans()):
        overrides["engine"] = draw(st.sampled_from(
            ("auto", "scalar", "scalar-v2")))
    if draw(st.booleans()):
        return workload("vecop", draw(st.sampled_from(
            ("baseline", "unrolled", "chaining"))),
            n=draw(st.sampled_from((16, 32, 64))),
            loop_mode=draw(st.sampled_from((None, "frep", "bne"))),
            overrides=overrides)
    system = draw(st.dictionaries(
        st.sampled_from(("num_clusters", "iters", "gmem_latency")),
        st.integers(1, 8), max_size=3))
    return workload(draw(st.sampled_from(_STENCIL_KERNELS)),
                    draw(st.sampled_from(_STENCIL_VARIANTS)),
                    grid=draw(st.sampled_from(((2, 3, 8), (4, 4, 8)))),
                    unroll=draw(st.sampled_from((None, 1, 2))),
                    overrides=overrides, system=system)


@settings(max_examples=150, deadline=None)
@given(_workloads(), st.randoms(use_true_random=False))
def test_from_canonical_inverts_canonical_under_any_axis_order(w, rnd):
    canonical = w.canonical()
    assert Workload.from_canonical(canonical) == w
    # The same point spelled with its overrides and system axes in
    # another order decodes to the same workload and the same key.
    shuffled = dict(canonical)
    for axis in ("overrides", "system"):
        shuffled[axis] = rnd.sample(canonical[axis], len(canonical[axis]))
    decoded = Workload.from_canonical(shuffled)
    assert decoded == w
    assert point_key(decoded, "1.0") == point_key(w, "1.0")


_GOOD = workload("box3d1r", "Base", grid=(2, 3, 8)).canonical()


@pytest.mark.parametrize("field, change", [
    ("kernel", {"kernel": "nope"}),
    ("variant", {"variant": "Fastest"}),
    ("grid", {"grid": []}),
    ("grid", {"grid": [2, 3]}),
    ("unroll", {"unroll": "two"}),
    ("n", {"n": 16}),
    ("overrides", {"overrides": [["no_such_knob", 1]]}),
    ("overrides", {"overrides": [["engine", "warp"]]}),
    ("system", {"system": [["num_clusters", 1.5]]}),
    ("bogus", {"bogus": 1}),
])
def test_from_canonical_rejection_names_its_field(field, change):
    with pytest.raises(FieldError) as err:
        Workload.from_canonical({**_GOOD, **change})
    assert err.value.field == field


@pytest.mark.parametrize("missing", ["kernel", "variant"])
def test_from_canonical_requires_kernel_and_variant(missing):
    data = {k: v for k, v in _GOOD.items() if k != missing}
    with pytest.raises(FieldError, match="missing") as err:
        Workload.from_canonical(data)
    assert err.value.field == missing


@pytest.mark.parametrize("kernel, field, kwargs", [
    ("box3d1r", "unroll", {"unroll": 0}),
    ("box3d1r", "unroll", {"unroll": -1}),
    ("box3d1r", "grid", {"grid": (0, 4, 8)}),
    ("box3d1r", "grid", {"grid": (2, 3, 8, 0)}),
    ("vecop", "n", {"n": 0}),
    ("vecop", "n", {"n": True}),
    ("vecop", "loop_mode", {"loop_mode": "foo"}),
], ids=["unroll=0", "unroll=-1", "grid-nz=0", "radius=0", "n=0", "n=True",
        "loop_mode=foo"])
def test_impossible_shapes_are_rejected_at_the_boundary(kernel, field,
                                                        kwargs):
    """Shapes no builder can run fail when the workload is made, not
    inside a worker; a sweep spec carrying one fails at load."""
    from repro.sweep.spec import SweepSpec

    variant = "chaining" if kernel == "vecop" else "Base"
    with pytest.raises(FieldError) as err:
        workload(kernel, variant, **kwargs)
    assert err.value.field == field
    axis = {"unroll": "unrolls", "grid": "grids", "n": "ns",
            "loop_mode": "loop_modes"}[field]
    with pytest.raises(FieldError):
        SweepSpec.from_dict({"kernels": [kernel], "variants": [variant],
                             axis: [kwargs[field]]})
