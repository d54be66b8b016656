"""Declarative sweep specifications and their expansion into workloads.

A :class:`SweepSpec` describes an experiment campaign as axes (kernels,
variants, grids, core-config overrides, ...) whose cartesian product is
expanded into :class:`~repro.api.workloads.Workload` dataclasses -- the
unit of work the runner executes and the cache keys.

Two workload kinds share one spec:

* **stencil** kernels (every name in :data:`repro.kernels.registry.STENCILS`)
  take the ``grids`` and ``unrolls`` axes;
* the **vecop** pseudo-kernel (``kernel == "vecop"``, the paper's Fig. 1
  vector op) takes the ``ns`` and ``loop_modes`` axes.

Variants that do not apply to a kernel's kind are skipped during
expansion, so one spec can mix both kinds; a variant name that matches
*neither* kind is rejected as a typo.

Config overrides are flat ``{field: value}`` dicts over the scalar
:class:`~repro.core.config.CoreConfig` fields, plus the virtual key
``fpu_depth`` which sets ``fpu_pipe_depth`` *and* the ADD/MUL/FMA
latencies together (the knob of the depth ablation).

The expansion unit, :class:`~repro.api.workloads.Workload`, lives in
:mod:`repro.api.workloads`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.api.parse import (
    VECOP_KERNEL,
    normalize_variant,
    resolve_variant,
)
from repro.api.workloads import (
    FPU_DEPTH_KEY,
    OVERRIDABLE_FIELDS,
    SYSTEM_FIELDS,
    Workload,
    make_workload,
)
from repro.kernels.registry import PAPER_KERNELS
from repro.kernels.variants import VARIANT_ORDER
from repro.kernels.vecop import VecopVariant

__all__ = [
    "FPU_DEPTH_KEY",
    "OVERRIDABLE_FIELDS",
    "SYSTEM_FIELDS",
    "SweepSpec",
    "VECOP_KERNEL",
    "Workload",
    "normalize_variant",
    "resolve_variant",
]


@dataclass
class SweepSpec:
    """Axes of a campaign; :meth:`points` expands the cartesian product.

    ``variants=None`` means *all* variants applicable to each kernel's
    kind.  Any ``None`` entry on the grid axis selects the kernel's
    registry default grid; ``None`` on ``unrolls`` selects the builder
    default.  The ``systems`` axis (multi-cluster ``num_clusters`` /
    ``iters`` / interconnect dicts) applies to stencil kernels only; the
    vecop pseudo-kernel ignores it (its workloads are always
    single-cluster).
    """

    name: str = "sweep"
    kernels: tuple[str, ...] = PAPER_KERNELS
    variants: tuple | None = None
    grids: tuple = (None,)
    ns: tuple = (None,)
    loop_modes: tuple = (None,)
    unrolls: tuple = (None,)
    overrides: tuple = (None,)
    systems: tuple = (None,)
    meta: dict = field(default_factory=dict)

    def _variant_labels(self, for_vecop: bool) -> list[str]:
        if self.variants is None:
            if for_vecop:
                return [v.value for v in VecopVariant]
            return [v.label for v in VARIANT_ORDER]
        labels = []
        for variant in self.variants:
            label = resolve_variant(variant, for_vecop)
            if label is not None and label not in labels:
                labels.append(label)
        return labels

    def points(self) -> list[Workload]:
        """Expand, validate, and deduplicate (order-preserving)."""
        for variant in self.variants or ():
            normalize_variant(variant)  # reject outright typos eagerly
        out: list[Workload] = []
        seen: set[Workload] = set()
        for kernel in self.kernels:
            is_vecop = kernel == VECOP_KERNEL
            labels = self._variant_labels(for_vecop=is_vecop)
            for over in self.overrides:
                for variant in labels:
                    if is_vecop:
                        for n in self.ns:
                            for loop_mode in self.loop_modes:
                                out.append(make_workload(
                                    kernel, variant, n=n,
                                    loop_mode=loop_mode, overrides=over))
                    else:
                        for grid in self.grids:
                            for unroll in self.unrolls:
                                for system in self.systems:
                                    out.append(make_workload(
                                        kernel, variant, grid=grid,
                                        unroll=unroll, overrides=over,
                                        system=system))
        unique = []
        for point in out:
            if point not in seen:
                seen.add(point)
                unique.append(point)
        return unique

    # -- (de)serialization ------------------------------------------------

    def to_dict(self) -> dict:
        data = {
            "name": self.name,
            "kernels": list(self.kernels),
            "grids": [list(g) if g else None for g in self.grids],
            "ns": list(self.ns),
            "loop_modes": list(self.loop_modes),
            "unrolls": list(self.unrolls),
            "overrides": [dict(o) if o else None for o in self.overrides],
            "systems": [dict(s) if s else None for s in self.systems],
        }
        if self.variants is not None:
            data["variants"] = [normalize_variant(v) for v in self.variants]
        if self.meta:
            data["meta"] = dict(self.meta)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        known = {"name", "kernels", "variants", "grids", "ns",
                 "loop_modes", "unrolls", "overrides", "systems", "meta"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown spec keys {sorted(unknown)}; "
                f"allowed: {sorted(known)}")

        def axis(key, default=(None,)):
            # A JSON null (or absent key) on any axis means its default.
            value = data.get(key)
            if value is None:
                return default
            if isinstance(value, (str, bytes)):
                raise ValueError(
                    f"spec key {key!r} must be a list, got {value!r}")
            return tuple(value)

        spec = cls(
            name=data.get("name") or "sweep",
            kernels=axis("kernels", PAPER_KERNELS),
            variants=axis("variants", None),
            grids=tuple(tuple(g) if g else None
                        for g in axis("grids")),
            ns=axis("ns"),
            loop_modes=axis("loop_modes"),
            unrolls=axis("unrolls"),
            overrides=axis("overrides"),
            systems=axis("systems"),
            meta=dict(data.get("meta") or {}),
        )
        spec.points()  # validate eagerly so bad specs fail at load time
        return spec

    @classmethod
    def from_file(cls, path: str) -> "SweepSpec":
        """Load a spec from a ``.json`` or ``.toml`` file."""
        if str(path).endswith(".toml"):
            import tomllib
            with open(path, "rb") as handle:
                data = tomllib.load(handle)
        else:
            with open(path) as handle:
                data = json.load(handle)
        return cls.from_dict(data)
