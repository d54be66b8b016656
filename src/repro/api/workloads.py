"""The declarative workload spec: one frozen dataclass per experiment.

A :class:`Workload` fully determines one simulation: kernel, variant,
shape axes (``grid``/``unroll`` for stencils, ``n``/``loop_mode`` for
the vecop pseudo-kernel), flat :class:`~repro.core.config.CoreConfig`
overrides (including the execution ``engine``), and the multi-cluster
system axes (``num_clusters``/``iters`` plus the interconnect and
global-memory knobs of :class:`~repro.core.config.SystemConfig`).

It is hashable, orderable and content-addressable: :meth:`canonical`
is the payload of the sweep cache key.  **Compatibility contract:**
``Workload`` has exactly the fields, canonical form and key function of
the pre-1.5 sweep ``Point`` -- at any given version string a
``Workload`` hashes to the very key the old ``Point`` produced,
bit-for-bit.  (Cache keys still include ``__version__``, so
a release bump invalidates entries by design, exactly as before the
unification.)

Construct through :func:`workload` (alias :func:`make_workload`), which
validates every axis eagerly with error messages listing the valid
values; :meth:`Workload.from_canonical` decodes the wire and journal
form through the same function.  Every rejection is a
:class:`FieldError` naming the field it rejects.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields

from repro.api.parse import (
    VECOP_KERNEL,
    parse_engine,
    parse_kernel,
    parse_variant,
)
from repro.core.config import CoreConfig
from repro.kernels.layout import Grid3d
from repro.kernels.variants import Variant

#: Virtual override key: pipeline depth *and* ADD/MUL/FMA latency.
FPU_DEPTH_KEY = "fpu_depth"

#: CoreConfig fields a workload may override (scalars only; the latency
#: dict is reached through the ``fpu_depth`` virtual key).
OVERRIDABLE_FIELDS = frozenset(
    f.name for f in dataclass_fields(CoreConfig) if f.name != "fpu_latency"
) | {FPU_DEPTH_KEY}

#: Multi-cluster system axes a (stencil) workload may set: the cluster
#: count, the sweep count of the halo-exchange schedule, and the
#: interconnect/global-memory knobs of
#: :class:`~repro.core.config.SystemConfig`.  Part of every cache key.
SYSTEM_FIELDS = frozenset({
    "num_clusters", "iters", "gmem_banks", "gmem_bank_bytes_per_cycle",
    "gmem_latency", "link_bytes_per_cycle", "gmem_size",
})


class FieldError(ValueError):
    """A rejected workload field: ``field`` names it, the message why."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def _checked(field: str, normalize, *args):
    """``normalize(*args)``, any rejection re-raised naming ``field``."""
    try:
        return normalize(*args)
    except (TypeError, ValueError) as exc:
        raise FieldError(field, str(exc)) from None


def _normalize_grid(grid) -> tuple[int, ...] | None:
    if grid is None:
        return None
    if isinstance(grid, Grid3d):
        dims = (grid.nz, grid.ny, grid.nx)
        return dims if grid.radius == 1 else dims + (grid.radius,)
    dims = tuple(int(d) for d in grid)
    if len(dims) not in (3, 4):
        raise ValueError(f"grid must be (nz, ny, nx[, radius]), got {grid!r}")
    if min(dims) < 1:
        raise ValueError(f"every grid dimension must be >= 1, got {grid!r}")
    return dims


def _positive(field: str, value) -> int:
    """``value`` as an integer of at least 1 (a bool is no count)."""
    count = None if isinstance(value, bool) else int(value)
    if count is None or count < 1:
        raise ValueError(f"{field} must be an integer >= 1, got {value!r}")
    return count


def _normalize_overrides(overrides) -> tuple[tuple[str, object], ...]:
    if not overrides:
        return ()
    items = dict(overrides).items()
    for key, value in items:
        if key not in OVERRIDABLE_FIELDS:
            raise ValueError(
                f"unknown config override {key!r}; choose from: "
                f"{', '.join(sorted(OVERRIDABLE_FIELDS))}")
        if key == "engine":
            parse_engine(value)
        elif not isinstance(value, (bool, int, float)):
            raise ValueError(
                f"override {key}={value!r} must be a scalar")
    return tuple(sorted(items))


def _normalize_system(system) -> tuple[tuple[str, int], ...]:
    """Validate and canonicalize a workload's multi-cluster axes."""
    if not system:
        return ()
    items = dict(system).items()
    for key, value in items:
        if key not in SYSTEM_FIELDS:
            raise ValueError(
                f"unknown system axis {key!r}; choose from: "
                f"{', '.join(sorted(SYSTEM_FIELDS))}")
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(
                f"system axis {key}={value!r} must be an integer")
    return tuple(sorted(items))


@dataclass(frozen=True)
class Workload:
    """One fully-determined experiment: hashable, orderable, cacheable.

    ``grid``/``unroll`` apply to stencil kernels, ``n``/``loop_mode`` to
    the vecop pseudo-kernel; inapplicable fields stay ``None`` so the
    canonical form is stable across spec spellings.
    """

    kernel: str
    variant: str
    grid: tuple[int, ...] | None = None
    n: int | None = None
    loop_mode: str | None = None
    unroll: int | None = None
    overrides: tuple[tuple[str, object], ...] = ()
    #: Multi-cluster axes (``num_clusters``, ``iters``, interconnect and
    #: global-memory knobs); empty for plain single-cluster workloads.
    #: Always part of :meth:`canonical` -- and therefore of the sweep
    #: cache key -- so a cached single-cluster result can never be
    #: served for a multi-cluster workload.
    system: tuple[tuple[str, int], ...] = ()

    @property
    def is_vecop(self) -> bool:
        return self.kernel == VECOP_KERNEL

    @property
    def is_system(self) -> bool:
        """True when the workload runs on a multi-cluster System."""
        return bool(self.system)

    @property
    def num_clusters(self) -> int:
        return dict(self.system).get("num_clusters", 1)

    @property
    def iters(self) -> int:
        """Halo-exchange sweeps of a system workload (1 otherwise)."""
        return dict(self.system).get("iters", 1)

    @property
    def engine(self) -> str | None:
        """Per-workload engine override, if one is set."""
        value = dict(self.overrides).get("engine")
        return str(value) if value is not None else None

    def grid3d(self) -> Grid3d | None:
        if self.grid is None:
            return None
        nz, ny, nx = self.grid[:3]
        radius = self.grid[3] if len(self.grid) > 3 else 1
        return Grid3d(nz=nz, ny=ny, nx=nx, radius=radius)

    def stencil_variant(self) -> Variant:
        return Variant.from_label(self.variant)

    def canonical(self) -> dict:
        """Plain-type, key-sorted dict -- the content-address payload.

        Byte-identical to the pre-1.5 sweep ``Point.canonical()`` (the
        cache-key compatibility contract; pinned by
        ``tests/test_api_workload.py``).
        """
        return {
            "kernel": self.kernel,
            "variant": self.variant,
            "grid": list(self.grid) if self.grid else None,
            "n": self.n,
            "loop_mode": self.loop_mode,
            "unroll": self.unroll,
            "overrides": [[k, v] for k, v in self.overrides],
            "system": [[k, v] for k, v in self.system],
        }

    @classmethod
    def from_canonical(cls, data: dict) -> "Workload":
        """Decode the :meth:`canonical` form (the HTTP wire and job
        journal payload) through :func:`workload`: unknown keys, a
        missing ``kernel``/``variant`` and invalid axes raise
        :class:`FieldError`, and permuted overrides decode alike."""
        if not isinstance(data, dict):
            raise ValueError(f"a workload must be an object, got "
                             f"{type(data).__name__}")
        known = [f.name for f in dataclass_fields(cls)]
        for name in data:
            if name not in known:
                raise FieldError(
                    str(name), f"unknown workload field {name!r}; choose "
                               f"from: {', '.join(known)}")
        for name in ("kernel", "variant"):
            if name not in data:
                raise FieldError(name, f"missing required field {name!r}")
        return workload(**data)

    @property
    def label(self) -> str:
        """Short human-readable identifier for progress/tables."""
        parts = [f"{self.kernel}/{self.variant}"]
        if self.grid:
            parts.append("x".join(str(d) for d in self.grid))
        if self.n is not None:
            parts.append(f"n={self.n}")
        if self.loop_mode:
            parts.append(self.loop_mode)
        if self.unroll is not None:
            parts.append(f"unroll={self.unroll}")
        parts.extend(f"{k}={v}" for k, v in self.overrides)
        parts.extend(f"{k}={v}" for k, v in self.system)
        return " ".join(parts)


def workload(kernel: str, variant, grid=None, n=None, loop_mode=None,
             unroll=None, overrides=None, system=None, *,
             engine: str | None = None,
             num_clusters: int | None = None,
             iters: int | None = None) -> Workload:
    """Validating :class:`Workload` constructor accepting loose inputs.

    ``engine`` folds into ``overrides`` (it is an overridable
    ``CoreConfig`` field) and ``num_clusters``/``iters`` fold into
    ``system``, so the convenience keywords change nothing about the
    canonical form or the cache key.
    """
    kernel = _checked("kernel", parse_kernel, kernel)
    is_vecop = kernel == VECOP_KERNEL
    label = _checked("variant", parse_variant, variant, kernel)
    if engine is not None:
        overrides = _checked("overrides", dict, overrides or {})
        if "engine" in overrides and overrides["engine"] != engine:
            raise FieldError(
                "engine", f"conflicting engines: overrides say "
                f"{overrides['engine']!r}, keyword says {engine!r}")
        overrides["engine"] = _checked("engine", parse_engine, engine)
    if num_clusters is not None or iters is not None:
        system = _checked("system", dict, system or {})
        for key, value in (("num_clusters", num_clusters),
                           ("iters", iters)):
            if value is None:
                continue
            if key in system and system[key] != value:
                raise FieldError(
                    "system", f"conflicting {key}: system axes say "
                    f"{system[key]!r}, keyword says {value!r}")
            system[key] = value
    # Inapplicable axes would create distinct cache keys (and labels)
    # for identical simulations, so they are rejected outright.
    if is_vecop and (grid is not None or unroll is not None):
        raise FieldError(
            "grid" if grid is not None else "unroll",
            f"kernel {kernel!r} takes n/loop_mode, not grid/unroll")
    if not is_vecop and (n is not None or loop_mode is not None):
        raise FieldError(
            "n" if n is not None else "loop_mode",
            f"kernel {kernel!r} takes grid/unroll, not n/loop_mode")
    if loop_mode is not None and str(loop_mode) not in ("bne", "frep"):
        raise FieldError("loop_mode", f"loop_mode must be 'bne' or 'frep', "
                                      f"got {loop_mode!r}")
    if is_vecop and system:
        raise FieldError(
            "system", f"kernel {kernel!r} cannot take system axes; "
            f"domain decomposition applies to stencil kernels only")
    return Workload(
        kernel=kernel,
        variant=label,
        grid=_checked("grid", _normalize_grid, grid),
        n=_checked("n", _positive, "n", n) if n is not None else None,
        loop_mode=str(loop_mode) if loop_mode is not None else None,
        unroll=_checked("unroll", _positive, "unroll", unroll)
        if unroll is not None else None,
        overrides=_checked("overrides", _normalize_overrides, overrides),
        system=_checked("system", _normalize_system, system),
    )


#: Explicit-name alias of :func:`workload`.
make_workload = workload
