"""The one canonical result schema of the unified API.

Every execution path -- ``Session.run``/``Session.map``, the sweep
engine, the multi-cluster system runner, CLI ``--json``/``--csv`` and
the result cache's JSONL records -- produces and serializes exactly one
shape: :class:`Result`, with :meth:`Result.to_dict` /
:meth:`Result.from_dict` as the stable wire form.

Design rules:

* ``clock_hz``, ``flops`` and ``points`` are **first-class typed
  fields**: omitting one raises at construction instead of silently
  producing a wrong Gflop/s figure (the pre-1.5 ``RunResult`` read them
  out of ``meta`` with hidden defaults).  ``meta`` holds free-form
  extras only and may not shadow the typed fields.
* Derived metrics (``gflops``, ``power_mw``, ...) are recomputed from
  the typed fields; :meth:`to_dict` emits them for consumers but
  :meth:`from_dict` ignores them, so a record can never carry a stale
  derived value.
* Multi-cluster runs attach a typed :class:`SystemReport` sub-report;
  it is the only copy of the system aggregates.
* :meth:`from_dict` reads only this shape: a record missing a typed
  field is rejected, never filled in with a default.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.energy.model import EnergyReport

#: Schema identifier stamped into every serialized record.
RESULT_SCHEMA = "repro-result/v1"

#: Scalar fields of the schema, in emission order.  Drives the sweep
#: CSV columns and the golden-file schema tests: the first two identify
#: and qualify the run, the rest are the typed inputs and the derived
#: metrics.
RESULT_SCALARS = (
    "name", "correct", "cycles", "region_cycles", "fpu_utilization",
    "clock_hz", "flops", "points", "gflops", "gflops_per_watt",
    "power_mw", "cycles_per_point",
)

#: Top-level keys of :meth:`Result.to_dict`, exactly and in order.
RESULT_KEYS = ("schema", *RESULT_SCALARS, "energy", "system", "meta",
               "stalls")

#: Performance metrics resolvable on a Result (attribute or property);
#: used by the sweep aggregation layer and for early CLI ``--metric``
#: validation.  Deliberately excludes the raw inputs
#: (``clock_hz``/``flops``/``points``): comparing variants on a
#: constant input makes no sense as a baseline table.
RESULT_METRICS = frozenset({
    "cycles", "region_cycles", "fpu_utilization", "power_mw", "gflops",
    "gflops_per_watt", "cycles_per_point",
})

#: Typed fields that must never appear in ``meta``.
_TYPED_FIELDS = ("clock_hz", "flops", "points")


def _jsonify(value):
    """Normalize ``meta`` extras to their canonical JSON shape (tuples
    become lists), so ``to_dict`` round-trips exactly."""
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


@dataclass
class SystemReport:
    """Aggregates of one multi-cluster (:mod:`repro.system`) run."""

    num_clusters: int
    iters: int
    per_cluster_cycles: list[int]
    sys_barriers: int
    gmem_bytes_read: int
    gmem_bytes_written: int
    gmem_latency_cycles: int
    interconnect_busy_cycles: int
    interconnect_contended_cycles: int

    def to_dict(self) -> dict:
        # Derived from the dataclass fields: adding a field serializes
        # it automatically (from_dict derives the same way).
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SystemReport":
        return cls(**{f.name: data[f.name]
                      for f in dataclasses.fields(cls)})


@dataclass
class Result:
    """Metrics from one workload execution -- the one result schema."""

    name: str
    correct: bool
    cycles: int                 # whole run
    region_cycles: int          # between the sim_mark region markers
    fpu_utilization: float      # over the measured region
    energy: EnergyReport
    #: Clock used to convert cycles to time/power.  Required.
    clock_hz: float
    #: Useful floating-point operations of the measured region.
    #: Required; pass an explicit 0 for workloads that report none.
    flops: int
    #: Output points produced (grid points, vector elements).  Required;
    #: pass an explicit 0 for workloads that report none.
    points: int
    #: Free-form extras from the kernel builder (never the typed fields).
    meta: dict = field(default_factory=dict)
    stalls: dict[str, int] = field(default_factory=dict)
    #: Multi-cluster aggregates; ``None`` for single-cluster runs.
    system: SystemReport | None = None

    def __post_init__(self) -> None:
        for name in _TYPED_FIELDS:
            # Required non-default fields already make omission a
            # TypeError; an explicit None gets the targeted message.
            if getattr(self, name) is None:
                raise ValueError(
                    f"Result.{name} is required; pass it explicitly "
                    f"(meta holds free-form extras only)")
        if self.clock_hz <= 0:
            raise ValueError(
                f"Result.clock_hz must be positive, got {self.clock_hz}")
        if self.flops < 0 or self.points < 0:
            raise ValueError(
                f"Result.flops/points must be >= 0, got "
                f"{self.flops}/{self.points}")
        shadowed = [k for k in _TYPED_FIELDS if k in self.meta]
        if shadowed:
            raise ValueError(
                f"meta may not shadow typed Result fields: "
                f"{', '.join(shadowed)}")

    # -- derived metrics --------------------------------------------------

    @property
    def power_mw(self) -> float:
        return self.energy.power_mw

    @property
    def gflops(self) -> float:
        """Achieved throughput over the measured region, in Gflop/s."""
        if self.region_cycles == 0:
            return 0.0
        seconds = self.region_cycles / self.clock_hz
        return self.flops / seconds / 1e9

    @property
    def gflops_per_watt(self) -> float:
        """Energy efficiency: achieved Gflop/s per Watt."""
        if self.energy.power_mw == 0:
            return 0.0
        return self.gflops / (self.energy.power_mw / 1e3)

    @property
    def cycles_per_point(self) -> float:
        return self.region_cycles / self.points if self.points else 0.0

    # -- the wire form ----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready canonical form; keys are :data:`RESULT_KEYS`."""
        return {
            "schema": RESULT_SCHEMA,
            "name": self.name,
            "correct": self.correct,
            "cycles": self.cycles,
            "region_cycles": self.region_cycles,
            "fpu_utilization": self.fpu_utilization,
            "clock_hz": self.clock_hz,
            "flops": self.flops,
            "points": self.points,
            "gflops": self.gflops,
            "gflops_per_watt": self.gflops_per_watt,
            "power_mw": self.power_mw,
            "cycles_per_point": self.cycles_per_point,
            "energy": {
                "total_pj": self.energy.total_pj,
                "cycles": self.energy.cycles,
                "clock_hz": self.energy.clock_hz,
                "breakdown": dict(self.energy.breakdown),
            },
            "system": self.system.to_dict() if self.system else None,
            "meta": _jsonify(self.meta),
            "stalls": dict(self.stalls),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Result":
        """Inverse of :meth:`to_dict`.

        The typed fields are required at the top level (``KeyError`` on
        a truncated or pre-1.5 record, never a default), and a
        ``schema`` stamp, when present, must be :data:`RESULT_SCHEMA`.
        """
        if "schema" in data and data["schema"] != RESULT_SCHEMA:
            raise ValueError(
                f"unsupported result schema {data['schema']!r}; "
                f"this build reads {RESULT_SCHEMA!r}")
        energy = data["energy"]
        return cls(
            name=data["name"],
            correct=data["correct"],
            cycles=data["cycles"],
            region_cycles=data["region_cycles"],
            fpu_utilization=data["fpu_utilization"],
            energy=EnergyReport(
                total_pj=energy["total_pj"],
                cycles=energy["cycles"],
                clock_hz=energy["clock_hz"],
                breakdown=dict(energy["breakdown"]),
            ),
            clock_hz=data["clock_hz"],
            flops=data["flops"],
            points=data["points"],
            meta=dict(data.get("meta", {})),
            stalls=dict(data.get("stalls", {})),
            system=SystemReport.from_dict(data["system"])
            if data.get("system") else None,
        )
