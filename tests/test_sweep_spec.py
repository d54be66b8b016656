"""Sweep spec expansion, canonicalization and (de)serialization."""

import json

import pytest

from repro.kernels.layout import Grid3d
from repro.kernels.variants import Variant
from repro.kernels.vecop import VecopVariant
from repro.api import Workload, workload
from repro.sweep.spec import SweepSpec


def test_default_spec_is_fig3():
    points = SweepSpec().points()
    assert len(points) == 10  # 2 kernels x 5 variants
    assert points[0].kernel == "box3d1r"
    assert [p.variant for p in points[:5]] == \
        [v.label for v in (Variant.BASE_MM, Variant.BASE_M, Variant.BASE,
                           Variant.CHAINING, Variant.CHAINING_PLUS)]


def test_cartesian_counts():
    spec = SweepSpec(kernels=("box3d1r",), variants=("Base", "Chaining+"),
                     grids=((2, 3, 8), (2, 4, 16)),
                     overrides=(None, {"tcdm_banks": 16}))
    points = spec.points()
    assert len(points) == 2 * 2 * 2
    assert len(set(points)) == len(points)  # hashable + unique


def test_mixed_kinds_filter_variants():
    spec = SweepSpec(kernels=("vecop", "box3d1r"),
                     variants=("unrolled", "Chaining+"),
                     ns=(32,), grids=((2, 3, 8),))
    points = spec.points()
    kinds = {(p.kernel, p.variant) for p in points}
    assert kinds == {("vecop", "unrolled"), ("box3d1r", "Chaining+")}
    # vecop points carry n but no grid; stencil points the reverse.
    for p in points:
        assert (p.n is None) == (p.kernel != "vecop")
        assert (p.grid is None) == (p.kernel == "vecop")


def test_unknown_names_rejected():
    with pytest.raises(ValueError, match="unknown kernel"):
        workload("nope", "Base")
    with pytest.raises(ValueError, match="unknown variant"):
        workload("box3d1r", "Turbo")
    with pytest.raises(ValueError, match="unknown config override"):
        workload("box3d1r", "Base", overrides={"warp_drive": 9})
    with pytest.raises(ValueError, match="unknown spec keys"):
        SweepSpec.from_dict({"kernles": ["box3d1r"]})


def test_inapplicable_axes_rejected():
    # They would mint distinct cache keys for identical simulations.
    with pytest.raises(ValueError, match="not grid/unroll"):
        workload("vecop", "baseline", grid=(2, 3, 8))
    with pytest.raises(ValueError, match="not grid/unroll"):
        workload("vecop", "baseline", unroll=2)
    with pytest.raises(ValueError, match="not n/loop_mode"):
        workload("box3d1r", "Base", n=64)


def test_variant_spellings_normalize():
    assert workload("box3d1r", "chaining+").variant == "Chaining+"
    assert workload("box3d1r", Variant.BASE_MM).variant == "Base--"
    assert workload("vecop", VecopVariant.UNROLLED).variant == "unrolled"
    assert workload("vecop", "Baseline").variant == "baseline"


def test_ambiguous_chaining_resolves_per_kind():
    # "chaining" names a variant in BOTH kinds; each kernel gets its own.
    assert workload("box3d1r", "chaining").variant == "Chaining"
    assert workload("vecop", "chaining").variant == "chaining"
    spec = SweepSpec(kernels=("box3d1r", "vecop"),
                     variants=("chaining", "base"),
                     ns=(16,), grids=((2, 3, 8),))
    kinds = {(p.kernel, p.variant) for p in spec.points()}
    assert kinds == {("box3d1r", "Chaining"), ("box3d1r", "Base"),
                     ("vecop", "chaining")}
    # An enum stays pinned to its own kind even for vecop kernels.
    with pytest.raises(ValueError, match="unknown variant"):
        workload("vecop", Variant.CHAINING)


def test_canonical_roundtrip_and_override_order():
    a = workload("box3d1r", "Base", grid=Grid3d(nz=2, ny=3, nx=8),
                 overrides={"tcdm_banks": 16, "ssr_fifo_depth": 8})
    b = workload("box3d1r", "Base", grid=(2, 3, 8),
                 overrides={"ssr_fifo_depth": 8, "tcdm_banks": 16})
    assert a == b  # overrides sorted, grids normalized
    assert Workload.from_canonical(a.canonical()) == a
    assert json.dumps(a.canonical(), sort_keys=True) == \
        json.dumps(b.canonical(), sort_keys=True)


def test_grid3d_reconstruction_keeps_radius():
    p = workload("box3d1r", "Base", grid=Grid3d(nz=2, ny=3, nx=8,
                                                  radius=2))
    assert p.grid == (2, 3, 8, 2)
    assert p.grid3d() == Grid3d(nz=2, ny=3, nx=8, radius=2)


def test_spec_dict_roundtrip():
    spec = SweepSpec(name="x", kernels=("j2d5pt",), variants=("Base-",),
                     grids=((1, 4, 16), None), unrolls=(2, 4),
                     overrides=({"tcdm_banks": 8},))
    again = SweepSpec.from_dict(spec.to_dict())
    assert again.points() == spec.points()


def test_spec_null_axes_mean_defaults():
    # JSON null on any axis is a natural "use the default" spelling.
    spec = SweepSpec.from_dict({
        "kernels": ["box3d1r"], "variants": None, "grids": None,
        "ns": None, "unrolls": None, "overrides": None, "meta": None,
    })
    assert len(spec.points()) == 5  # all stencil variants, default grid


def test_spec_from_files(tmp_path):
    data = {"name": "file-spec", "kernels": ["vecop"],
            "variants": ["baseline", "chaining"], "ns": [32, 64]}
    jpath = tmp_path / "spec.json"
    jpath.write_text(json.dumps(data))
    assert len(SweepSpec.from_file(str(jpath)).points()) == 4

    tpath = tmp_path / "spec.toml"
    tpath.write_text(
        'name = "file-spec"\nkernels = ["vecop"]\n'
        'variants = ["baseline", "chaining"]\nns = [32, 64]\n')
    assert SweepSpec.from_file(str(tpath)).points() == \
        SweepSpec.from_file(str(jpath)).points()


def test_labels_are_informative():
    p = workload("box3d1r", "Chaining+", grid=(2, 3, 8), unroll=4,
                 overrides={"tcdm_banks": 16})
    assert "box3d1r/Chaining+" in p.label
    assert "2x3x8" in p.label
    assert "tcdm_banks=16" in p.label
