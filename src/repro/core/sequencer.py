"""FP instruction queue and the FREP (Xfrep) micro-loop sequencer.

The integer core dispatches FP instructions into a small queue -- the
"pseudo dual-issue" mechanism of Snitch.  The sequencer sits between the
queue and the FPU: it normally forwards instructions in order, but a
``frep`` instruction turns the following ``max_inst + 1`` FP instructions
into a hardware loop body that is replayed ``rs1 + 1`` times without any
further fetch/dispatch work by the integer core.

``frep.o`` ("outer") repeats the whole body in sequence; ``frep.i``
("inner") repeats each body instruction individually.  Register
*staggering* optionally rotates FP register numbers per iteration --
Snitch's software-unrolling aid, retained here both for fidelity and as a
baseline to compare chaining against in the ablation benchmarks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.core.config import CoreConfig
from repro.isa.encoding import unpack_frep
from repro.isa.instructions import Instr


@dataclass
class DispatchedEntry:
    """One FP-subsystem instruction with its captured integer operands.

    The integer core resolves everything it knows at dispatch time (memory
    addresses, CSR/scfg operand values, frep repetition counts) so the FP
    subsystem never reads the integer register file.
    """

    instr: Instr
    vals: dict[str, int] = field(default_factory=dict)
    #: Set for instructions whose result must return to the integer core
    #: (FP compares, fp->int conversions, CSR/config reads).
    sync: bool = False
    #: Pre-lowered issue micro-op (:func:`repro.core.uops.lower_fp`),
    #: attached at dispatch by the scalar-v2 engine and lazily filled in
    #: for entries that arrive without one.  Unused by the seed engine.
    uop: Any = None


class Sequencer:
    """FIFO queue + FREP replay engine in front of the FPU."""

    def __init__(self, cfg: CoreConfig):
        self.cfg = cfg
        self.queue: deque[DispatchedEntry] = deque()
        # Active frep state.
        self._body_len = 0
        self._iters = 0
        self._pos = 0
        self._inner = False
        self._stagger_max = 0
        self._stagger_mask = 0
        self._buffer: list[DispatchedEntry] = []
        self._active = False
        #: Raised by each ``frep``, for the FREP batch to clear.
        self.frep_begun = False
        #: Staggered entry copies, memoized by (body index, register
        #: offset): the rewrite depends only on those two, and offsets
        #: cycle with period ``stagger_max + 1``, so each distinct copy
        #: is built once per FREP instead of once per replay.
        self._stagger_cache: dict[tuple[int, int], DispatchedEntry] = {}
        # Statistics.
        self.replayed_instrs = 0

    # -- queue (integer-core side) -----------------------------------------

    def space(self) -> int:
        """Free slots in the dispatch queue."""
        return self.cfg.fp_queue_depth - len(self.queue)

    def dispatch(self, entry: DispatchedEntry) -> None:
        if self.space() <= 0:
            raise RuntimeError("FP queue overflow")
        self.queue.append(entry)

    # -- frep --------------------------------------------------------------

    @property
    def body_len(self) -> int:
        """Instructions in the active FREP body."""
        return self._body_len

    @property
    def iters(self) -> int:
        """Repetition count of the active FREP."""
        return self._iters

    @property
    def position(self) -> int:
        """Body-instruction instances issued since the FREP began."""
        return self._pos

    @property
    def inner(self) -> bool:
        """True for ``frep.i`` (per-instruction repetition)."""
        return self._inner

    @property
    def staggered(self) -> bool:
        """True when register staggering is in effect."""
        return bool(self._stagger_mask and self._stagger_max)

    @property
    def body_buffered(self) -> bool:
        """True once the whole body sits in the replay buffer."""
        return self._active and len(self._buffer) == self._body_len

    def body_entries(self) -> list[DispatchedEntry]:
        """The buffered body (fast-path analysis hook)."""
        return list(self._buffer)

    def jump_to(self, position: int) -> None:
        """Teleport the replay engine (fast-path hook).

        Only forward jumps within the active region are meaningful; the
        caller is responsible for having advanced all dependent state
        (FPU pipe, streams, counters) consistently.
        """
        if not self._active:
            raise RuntimeError("jump_to without an active frep")
        if not self._pos <= position < self._body_len * self._iters:
            raise ValueError(
                f"jump_to({position}) outside active frep of "
                f"{self._body_len * self._iters} instances")
        self._pos = position

    def begin_frep(self, entry: DispatchedEntry) -> None:
        """Consume a ``frep`` instruction and arm the replay engine."""
        if self._active:
            raise RuntimeError("nested frep is not supported")
        max_inst, stagger_max, stagger_mask = unpack_frep(entry.instr.imm)
        body_len = max_inst + 1
        if body_len > self.cfg.frep_buffer_depth:
            raise RuntimeError(
                f"frep body of {body_len} exceeds sequencer buffer "
                f"({self.cfg.frep_buffer_depth})"
            )
        iters = entry.vals.get("rs1", 0) + 1
        self._body_len = body_len
        self._iters = iters
        self._pos = 0
        self._inner = entry.instr.mnemonic == "frep.i"
        self._stagger_max = stagger_max
        self._stagger_mask = stagger_mask
        self._buffer = []
        self._stagger_cache = {}
        self._active = True
        self.frep_begun = True

    def _indices(self) -> tuple[int, int]:
        """(body index, iteration index) for the current position."""
        if self._inner:
            return self._pos // self._iters, self._pos % self._iters
        return self._pos % self._body_len, self._pos // self._body_len

    # -- FPU side -------------------------------------------------------------

    def peek(self) -> DispatchedEntry | None:
        """The entry the FPU would issue this cycle, or None."""
        if not self._active:
            return self.queue[0] if self.queue else None
        body_idx, iter_idx = self._indices()
        if body_idx < len(self._buffer):
            entry = self._buffer[body_idx]
        elif self.queue:
            entry = self.queue[0]
        else:
            return None  # body instruction not yet dispatched
        if iter_idx and (self._stagger_mask and self._stagger_max):
            offset = iter_idx % (self._stagger_max + 1)
            if offset:
                key = (body_idx, offset)
                staggered = self._stagger_cache.get(key)
                if staggered is None:
                    staggered = self._staggered(entry, iter_idx)
                    self._stagger_cache[key] = staggered
                entry = staggered
        return entry

    def advance(self) -> None:
        """Consume the entry returned by the last :meth:`peek`."""
        if not self._active:
            self.queue.popleft()
            return
        body_idx, iter_idx = self._indices()
        if body_idx == len(self._buffer):
            self._buffer.append(self.queue.popleft())
        if iter_idx > 0:
            self.replayed_instrs += 1
        self._pos += 1
        if self._pos >= self._body_len * self._iters:
            self._active = False
            self._buffer = []
            self._stagger_cache = {}

    def _staggered(self, entry: DispatchedEntry,
                   iter_idx: int) -> DispatchedEntry:
        """Apply register staggering for iteration ``iter_idx``."""
        offset = iter_idx % (self._stagger_max + 1)
        if offset == 0:
            return entry
        instr = entry.instr
        spec = instr.spec
        copy = Instr(instr.mnemonic, instr.rd, instr.rs1, instr.rs2,
                     instr.rs3, instr.imm, instr.csr, instr.addr)
        if self._stagger_mask & 1 and spec.rd_domain == "f":
            copy.rd = (instr.rd + offset) % 32
        if self._stagger_mask & 2 and spec.rs1_domain == "f":
            copy.rs1 = (instr.rs1 + offset) % 32
        if self._stagger_mask & 4 and spec.rs2_domain == "f":
            copy.rs2 = (instr.rs2 + offset) % 32
        if self._stagger_mask & 8 and spec.rs3_domain == "f":
            copy.rs3 = (instr.rs3 + offset) % 32
        return DispatchedEntry(copy, entry.vals, entry.sync)

    @property
    def idle(self) -> bool:
        """True when neither queued work nor an active frep remains."""
        return not self.queue and not self._active
