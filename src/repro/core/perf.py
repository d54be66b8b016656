"""Performance counters and stall attribution.

The FP subsystem classifies every cycle it fails to issue into a
:class:`StallReason`; together with the per-class op counts this yields the
FPU-utilization figures of the paper and a stall breakdown that the report
harness prints alongside.

Region markers (written through the ``sim_mark`` mechanism or directly by
the harness) snapshot all counters, so metrics can be computed over a
kernel's steady-state region excluding setup code.

Counter storage is *slotted*: each name is interned once into an integer
index of a flat list, so the hot path is a list-index increment rather
than a string-keyed hash update.  The pre-decoded micro-op engine binds
``(values list, slot)`` pairs at lowering time and bypasses :meth:`bump`
entirely; everything name-based (``bump``/``value``/``marks``/``summary``)
keeps its seed behaviour, and the :attr:`counters` view reproduces the
seed's ``Counter`` contents exactly (entries appear once bumped to a
nonzero value).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum, auto


class StallReason(Enum):
    """Why the FP subsystem could not issue in a given cycle."""

    NONE = auto()              # issued
    QUEUE_EMPTY = auto()       # nothing dispatched by the integer core
    RAW = auto()               # scoreboard operand not ready
    WAW = auto()               # scoreboard destination busy
    CHAIN_EMPTY = auto()       # chaining FIFO pop with valid bit clear
    CHAIN_BACKPRESSURE = auto()  # FPU pipe frozen by a blocked writeback
    SSR_EMPTY = auto()         # read stream FIFO empty
    SSR_FULL = auto()          # write stream FIFO full
    FPU_BUSY = auto()          # pipe at capacity (or unpipelined op)
    LSU_BUSY = auto()          # FP load/store unit occupied

    # Members are singletons, so identity hashing agrees with equality;
    # Enum's own __hash__ is a Python-level call on every stall count.
    __hash__ = object.__hash__


@dataclass
class Snapshot:
    """Counter values at a region marker."""

    cycle: int
    counters: dict[str, int] = field(default_factory=dict)


#: Hot counters interned at fixed indices in every :class:`PerfCounters`
#: instance, so micro-op lowering can capture plain ints instead of
#: resolving per-instance slots.  Order is frozen: appending is fine,
#: reordering would silently corrupt lowered code.
_PREREGISTERED = (
    "int_instrs", "int_hazard_stalls", "int_lsu_stalls",
    "int_dispatch_stalls", "int_sync_stalls", "int_barrier_stalls",
    "branches_taken", "branches_not_taken",
    "fp_dispatches", "frep_ops", "fp_csr_ops", "scfg_ops",
    "fp_lsu_ops", "fp_loads", "fp_stores",
    "fpu_compute_ops", "ssr_reg_reads", "ssr_reg_writes",
    "chain_pops", "chain_pushes", "fp_rf_reads", "fp_rf_writes",
    "fpu_fp_add", "fpu_fp_mul", "fpu_fp_fma", "fpu_fp_div",
    "fpu_fp_sqrt", "fpu_fp_cmp", "fpu_fp_minmax", "fpu_fp_sgnj",
    "fpu_fp_cvt",
)

#: name -> fixed slot index for every pre-registered counter.
SLOT = {name: index for index, name in enumerate(_PREREGISTERED)}


class PerfCounters:
    """Cycle, instruction and stall accounting for one cluster."""

    def __init__(self):
        self.cycles = 0
        #: name -> index into :attr:`values` (interned on first use).
        self._slot_of: dict[str, int] = dict(SLOT)
        #: Flat counter storage; the micro-op engine indexes this
        #: directly with slots obtained from :meth:`slot`.
        self.values: list[int] = [0] * len(SLOT)
        self.stalls: Counter[StallReason] = Counter()
        self.marks: dict[int, Snapshot] = {}

    # -- accumulation ------------------------------------------------------

    def slot(self, name: str) -> int:
        """Intern ``name`` and return its index into :attr:`values`.

        Micro-op lowering resolves the slot once and increments
        ``perf.values[slot]`` inline on the hot path.
        """
        index = self._slot_of.get(name)
        if index is None:
            index = len(self.values)
            self._slot_of[name] = index
            self.values.append(0)
        return index

    def bump(self, name: str, amount: int = 1) -> None:
        self.values[self.slot(name)] += amount

    def stall(self, reason: StallReason) -> None:
        self.stalls[reason] += 1

    @property
    def counters(self) -> Counter[str]:
        """Name-keyed view of the slotted storage (nonzero entries only,
        matching the seed ``Counter`` which held a key only once bumped)."""
        values = self.values
        return Counter({name: values[index]
                        for name, index in self._slot_of.items()
                        if values[index]})

    def counter_state(self) -> tuple[dict[str, int], dict[StallReason, int]]:
        """Plain-dict copies of all counters and stall buckets, keyed
        by name (:meth:`window` is the slot-indexed copy)."""
        return dict(self.counters), dict(self.stalls)

    # -- counter windows (the FREP batch and the loop memo measure a
    # stretch of cycles and replay it with these) -------------------------

    def window(self) -> tuple[list[int], dict[StallReason, int]]:
        """Copy of every counter slot and stall bucket, the start of a
        window that :meth:`since` closes."""
        return list(self.values), dict(self.stalls)

    def since(self, window: tuple) -> tuple[tuple, tuple]:
        """What changed since ``window``: ``((slot, change), ...)`` and
        ``((reason, change), ...)``, nonzero entries only."""
        values0, stalls0 = window
        values = self.values
        counters = [(slot, value - old) for slot, (value, old)
                    in enumerate(zip(values, values0)) if value != old]
        counters += [(slot, values[slot])
                     for slot in range(len(values0), len(values))
                     if values[slot]]
        stalls = [(reason, count - stalls0.get(reason, 0))
                  for reason, count in self.stalls.items()
                  if count != stalls0.get(reason, 0)]
        return tuple(counters), tuple(stalls)

    def replay(self, change: tuple, times: int) -> None:
        """Apply ``times`` repetitions of a :meth:`since` change."""
        values = self.values
        for slot, amount in change[0]:
            values[slot] += times * amount
        stalls = self.stalls
        for reason, amount in change[1]:
            stalls[reason] += times * amount

    def mark(self, mark_id: int) -> None:
        """Snapshot all counters under ``mark_id``."""
        snap = Snapshot(self.cycles, dict(self.counters))
        for reason, count in self.stalls.items():
            snap.counters[f"stall_{reason.name.lower()}"] = count
        self.marks[mark_id] = snap

    # -- queries -----------------------------------------------------------

    def value(self, name: str) -> int:
        index = self._slot_of.get(name)
        return 0 if index is None else self.values[index]

    def delta(self, name: str, start_mark: int, end_mark: int) -> int:
        """Counter difference between two marks."""
        a = self.marks[start_mark].counters.get(name, 0)
        b = self.marks[end_mark].counters.get(name, 0)
        return b - a

    def region_cycles(self, start_mark: int, end_mark: int) -> int:
        return self.marks[end_mark].cycle - self.marks[start_mark].cycle

    def fpu_utilization(self, start_mark: int | None = None,
                        end_mark: int | None = None) -> float:
        """Fraction of cycles in which the FPU accepted a compute op.

        Without marks, computed over the whole run.
        """
        if start_mark is None or end_mark is None:
            cycles = self.cycles
            ops = self.value("fpu_compute_ops")
        else:
            cycles = self.region_cycles(start_mark, end_mark)
            ops = self.delta("fpu_compute_ops", start_mark, end_mark)
        if cycles == 0:
            return 0.0
        return ops / cycles

    def stall_breakdown(self) -> dict[str, int]:
        """Stall cycles by reason, most frequent first."""
        items = sorted(self.stalls.items(), key=lambda kv: -kv[1])
        return {reason.name.lower(): count for reason, count in items
                if reason is not StallReason.NONE}

    def summary(self) -> dict[str, float | int]:
        """Flat summary used by the report harness."""
        out: dict[str, float | int] = {
            "cycles": self.cycles,
            "fpu_utilization": round(self.fpu_utilization(), 4),
        }
        out.update(sorted(self.counters.items()))
        for reason, count in self.stalls.items():
            if reason is not StallReason.NONE:
                out[f"stall_{reason.name.lower()}"] = count
        return out
