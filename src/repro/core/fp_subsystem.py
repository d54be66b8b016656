"""The decoupled FP subsystem: sequencer, FPU pipe, FP LSU, SSRs, chaining.

Per-cycle phase order (one :meth:`FpSubsystem.step` call):

1. ``chain.begin_cycle`` -- reset same-cycle pop bookkeeping.
2. FP LSU response handling (commits deferred to after issue).
3. **Issue**: at most one instruction from the sequencer, evaluated
   against the *start-of-cycle* register state.  Reads of chaining and
   stream registers pop here.
4. **Writeback**: the pipe head, if complete, attempts writeback.  Plain
   registers always accept (value readable next cycle); stream registers
   accept while the write FIFO has room; chaining registers accept only
   when their valid bit is clear -- possibly cleared by a pop in phase 3
   of this same cycle (``chain_concurrent_push_pop``).  A refused
   writeback freezes the in-order pipe: backpressure.

Because writeback happens after issue, a value written back in cycle *t*
is first readable in cycle *t+1*; a dependent instruction therefore issues
``latency + 1`` cycles after its producer, wasting ``latency`` issue slots
-- the three wasted cycles of the paper's Fig. 1a for Snitch's 3-stage
FMA pipeline.
"""

from __future__ import annotations

from repro.core.chaining import ChainController
from repro.core.config import CoreConfig
from repro.core.fpu import FpuPipe, execute_fp
from repro.core.lsu import FpLsu
from repro.core.perf import SLOT, PerfCounters, StallReason
from repro.core.regfile import FpRegFile
from repro.core.sequencer import DispatchedEntry, Sequencer
from repro.isa.csr import CSR
from repro.isa.instructions import Instr, InstrClass
from repro.mem.tcdm import Tcdm
from repro.ssr.config import split_cfg_addr
from repro.ssr.streamer import SsrStreamer


_S_RF_WRITES = SLOT["fp_rf_writes"]
_S_CHAIN_PUSHES = SLOT["chain_pushes"]
_S_SSR_WRITES = SLOT["ssr_reg_writes"]


class FpSubsystem:
    """Snitch's FP half: everything behind the FP instruction queue."""

    def __init__(self, cfg: CoreConfig, tcdm: Tcdm, perf: PerfCounters,
                 trace=None):
        self.cfg = cfg
        self.perf = perf
        self.trace = trace
        self.chain = ChainController(
            concurrent_push_pop=cfg.chain_concurrent_push_pop)
        self.fpregs = FpRegFile(self.chain)
        self.pipe = FpuPipe(cfg)
        self.sequencer = Sequencer(cfg)
        self.lsu = FpLsu(tcdm.port("fplsu", priority=1), self.fpregs)
        self.streamers = [
            SsrStreamer(i, tcdm, cfg.ssr_fifo_depth)
            for i in range(cfg.num_ssrs)
        ]
        self.ssr_enable = False
        self.fpmode = 0
        # Synchronization channel back to the integer core.
        self.sync_ready = False
        self._sync_value: int = 0
        # Structural constants used by the micro-op (scalar-v2) issue
        # path; the counter slots themselves are the module-level
        # ``SLOT`` constants shared by the lowered closures.
        self._pvals = perf.values
        self._num_streamers = len(self.streamers)
        self._pipe_depth = cfg.fpu_pipe_depth

    # -- int-core interface ---------------------------------------------------

    def queue_space(self) -> int:
        return self.sequencer.space()

    def dispatch(self, entry: DispatchedEntry) -> None:
        self.sequencer.dispatch(entry)
        self.perf.bump("fp_dispatches")

    def take_sync(self) -> int:
        """Consume a pending synchronization result."""
        if not self.sync_ready:
            raise RuntimeError("no sync result pending")
        self.sync_ready = False
        return self._sync_value

    def _deliver_sync(self, value: int | float) -> None:
        if isinstance(value, float):
            value = int(value) if value == int(value) else 0
        self._sync_value = value & 0xFFFFFFFF
        self.sync_ready = True

    @property
    def idle(self) -> bool:
        """No queued, in-flight or pending work remains."""
        return (self.sequencer.idle and self.pipe.empty
                and not self.lsu.busy and not self.sync_ready)

    def streamers_done(self) -> bool:
        return all(s.done for s in self.streamers)

    # -- helpers ----------------------------------------------------------------

    def _is_stream_reg(self, reg: int) -> bool:
        return self.ssr_enable and reg < len(self.streamers)

    def _fp_sources(self, instr: Instr) -> list[int]:
        """FP source register numbers of ``instr``, in operand order."""
        spec = instr.spec
        sources = []
        if spec.rs1_domain == "f":
            sources.append(instr.rs1)
        if spec.rs2_domain == "f":
            sources.append(instr.rs2)
        if spec.rs3_domain == "f":
            sources.append(instr.rs3)
        return sources

    def _sources_ready(self, sources: list[int]) -> StallReason:
        """Check operand readiness; returns NONE when all can be read."""
        ssr_needed: dict[int, int] = {}
        for reg in sources:
            if self._is_stream_reg(reg):
                ssr_needed[reg] = ssr_needed.get(reg, 0) + 1
            elif self.chain.enabled(reg):
                if not self.chain.can_pop(reg):
                    return StallReason.CHAIN_EMPTY
            elif self.fpregs.busy[reg]:
                return StallReason.RAW
        for reg, count in ssr_needed.items():
            if self.streamers[reg].available_pops() < count:
                return StallReason.SSR_EMPTY
        return StallReason.NONE

    def _read_sources(self, sources: list[int]) -> list[float]:
        """Read (and pop) the operands.

        A chaining register named in several operand positions of one
        instruction is popped *once* -- the architectural register has a
        single read port and all positions see the same value.  Stream
        registers, by contrast, pop once per operand position (each read
        port of the FPU consumes a stream element, as on Snitch).
        """
        values = []
        chain_seen: dict[int, float] = {}
        for reg in sources:
            if self._is_stream_reg(reg):
                values.append(self.streamers[reg].pop())
                self.perf.bump("ssr_reg_reads")
            elif self.chain.enabled(reg):
                if reg not in chain_seen:
                    chain_seen[reg] = self.fpregs.read(reg)
                    self.perf.bump("chain_pops")
                values.append(chain_seen[reg])
            else:
                values.append(self.fpregs.read(reg))
                self.perf.bump("fp_rf_reads")
        return values

    def _candidate_pops(self, sources: list[int]) -> set[int]:
        """Chaining registers the candidate instruction would pop."""
        return {reg for reg in sources
                if not self._is_stream_reg(reg) and self.chain.enabled(reg)}

    def _wb_would_accept(self, cycle: int,
                         candidate_pops: set[int]) -> bool:
        """Predict whether the head writeback succeeds this cycle."""
        if not self.pipe.head_complete(cycle):
            return False
        op = self.pipe.head()
        if op.sync:
            return not self.sync_ready
        if op.dest_is_ssr:
            return self.streamers[op.dest].can_push()
        if self.chain.enabled(op.dest):
            if self.chain.can_push(op.dest):
                return True
            return (self.chain.concurrent_push_pop
                    and op.dest in candidate_pops)
        return True

    # -- the cycle ------------------------------------------------------------

    def step(self, cycle: int) -> None:
        self.chain.begin_cycle()
        lsu_commits = self.lsu.step()
        self._issue(cycle)
        self._writeback(cycle)
        for dest, value in lsu_commits:
            if not self.fpregs.try_writeback(dest, value):
                self.lsu.block(dest, value)
            else:
                self.perf.bump("fp_rf_writes")

    def step_v2(self, cycle: int) -> None:
        """Micro-op variant of :meth:`step`: same phases, same semantics,
        with the per-cycle no-op calls compiled down to attribute tests."""
        chain = self.chain
        if chain._popped_this_cycle:
            chain._popped_this_cycle.clear()
        if not chain.concurrent_push_pop:
            chain._valid_at_start = list(chain.valid)
        lsu = self.lsu
        lsu_port = lsu.port
        if lsu._pending_load is not None or lsu._pending_store \
                or lsu._blocked_value is not None \
                or lsu_port._pending is not None \
                or lsu_port._response_ready:
            lsu_commits = lsu.step()
        else:
            lsu_commits = None
        # Issue phase: dispatch through the entry's lowered closure
        # (with the sequencer's FREP peek inlined, so replay cycles
        # skip the property/tuple traffic).
        seq = self.sequencer
        if not seq._active:
            queue = seq.queue
            entry = queue[0] if queue else None
        else:
            pos = seq._pos
            if seq._inner:
                body_idx = pos // seq._iters
                iter_idx = pos % seq._iters
            else:
                body_idx = pos % seq._body_len
                iter_idx = pos // seq._body_len
            buffer = seq._buffer
            if body_idx < len(buffer):
                entry = buffer[body_idx]
            elif seq.queue:
                entry = seq.queue[0]
            else:
                entry = None
            if entry is not None and iter_idx \
                    and seq._stagger_mask and seq._stagger_max:
                offset = iter_idx % (seq._stagger_max + 1)
                if offset:
                    key = (body_idx, offset)
                    staggered = seq._stagger_cache.get(key)
                    if staggered is None:
                        staggered = seq._staggered(entry, iter_idx)
                        seq._stagger_cache[key] = staggered
                    entry = staggered
        if entry is None:
            self.perf.stall(StallReason.QUEUE_EMPTY)
        else:
            uop = entry.uop
            if uop is None:
                from repro.core.uops import lower_fp

                uop = entry.uop = lower_fp(entry.instr, self.cfg)
            uop(self, entry, cycle)
        # Writeback phase: a plain register and a chaining push in the
        # concurrent push/pop mode are inlined; sync results, stream
        # registers and the conservative chaining mode take
        # :meth:`_writeback_v2`.
        in_flight = self.pipe.in_flight
        if in_flight:
            op = in_flight[0]
            if op.completes_at <= cycle:
                dest = op.dest
                if op.sync or op.dest_is_ssr:
                    self._writeback_v2(cycle)
                elif not chain.mask >> dest & 1:
                    self.fpregs.values[dest] = float(op.value)
                    self.fpregs.busy[dest] = False
                    self._pvals[_S_RF_WRITES] += 1
                    in_flight.popleft()
                    if op.unpipelined:
                        self.pipe._unpipelined -= 1
                elif not chain.concurrent_push_pop:
                    self._writeback_v2(cycle)
                elif chain.valid[dest] \
                        and dest not in chain._popped_this_cycle:
                    chain.backpressure_events += 1  # the pipe stalls
                else:
                    self.fpregs.values[dest] = float(op.value)
                    chain.valid[dest] = True
                    chain.pushes += 1
                    self._pvals[_S_CHAIN_PUSHES] += 1
                    in_flight.popleft()
                    if op.unpipelined:
                        self.pipe._unpipelined -= 1
        if lsu_commits:
            for dest, value in lsu_commits:
                if not self.fpregs.try_writeback(dest, value):
                    self.lsu.block(dest, value)
                else:
                    self._pvals[_S_RF_WRITES] += 1

    def _advance(self) -> None:
        """Consume the entry issued by a micro-op (fast non-FREP path)."""
        seq = self.sequencer
        if seq._active:
            seq.advance()
        else:
            seq.queue.popleft()

    def _writeback_v2(self, cycle: int) -> None:
        """Micro-op writeback of the cases :meth:`step_v2` does not
        inline: the caller has established a complete pipe head that is
        a sync result, a stream register, or a chaining register in the
        conservative push/pop mode.  Semantics are identical to
        :meth:`_writeback`."""
        pipe = self.pipe
        in_flight = pipe.in_flight
        op = in_flight[0]
        if op.sync:
            if self.sync_ready:
                return  # previous sync result not consumed yet
            self._deliver_sync(op.value)
        else:
            dest = op.dest
            if op.dest_is_ssr:
                streamer = self.streamers[dest]
                fifo = streamer._fifo
                if len(fifo) >= streamer.fifo_depth:
                    return  # write FIFO full: pipe stalls
                fifo.append(float(op.value))
                streamer._to_produce -= 1
                self._pvals[_S_SSR_WRITES] += 1
            else:
                chain = self.chain
                if chain.valid[dest] or chain._valid_at_start[dest]:
                    chain.backpressure_events += 1
                    return  # chaining backpressure: pipe stalls
                self.fpregs.values[dest] = float(op.value)
                chain.valid[dest] = True
                chain.pushes += 1
                self._pvals[_S_CHAIN_PUSHES] += 1
        in_flight.popleft()
        if op.unpipelined:
            pipe._unpipelined -= 1

    # -- issue phase -------------------------------------------------------------

    def _issue(self, cycle: int) -> None:
        entry = self.sequencer.peek()
        if entry is None:
            self.perf.stall(StallReason.QUEUE_EMPTY)
            return
        instr = entry.instr
        iclass = instr.iclass

        if iclass is InstrClass.FREP:
            # Arm the replay engine, then drop the frep instruction itself
            # (begin_frep only reads it; the body follows in the queue).
            self.sequencer.begin_frep(entry)
            self.sequencer.queue.popleft()
            self.perf.bump("frep_ops")
            self._trace_issue(cycle, instr, "frep")
            return

        if iclass is InstrClass.CSR:
            self._apply_csr(entry)
            self.sequencer.advance()
            self.perf.bump("fp_csr_ops")
            self._trace_issue(cycle, instr, "csr")
            return

        if iclass is InstrClass.SCFG:
            self._apply_scfg(entry)
            self.sequencer.advance()
            self.perf.bump("scfg_ops")
            self._trace_issue(cycle, instr, "scfg")
            return

        if iclass is InstrClass.FP_LOAD:
            self._issue_load(cycle, entry)
            return

        if iclass is InstrClass.FP_STORE:
            self._issue_store(cycle, entry)
            return

        self._issue_compute(cycle, entry)

    def _issue_load(self, cycle: int, entry: DispatchedEntry) -> None:
        instr = entry.instr
        if self.lsu.busy:
            self.perf.stall(StallReason.LSU_BUSY)
            return
        dest = instr.rd
        if self._is_stream_reg(dest):
            raise RuntimeError(
                f"fld into stream register f{dest} while SSRs are enabled")
        if not self.fpregs.can_write(dest):
            self.perf.stall(StallReason.WAW)
            return
        self.fpregs.allocate(dest)
        self.lsu.issue_load(entry.vals["addr"], dest)
        self.sequencer.advance()
        self.perf.bump("fp_lsu_ops")
        self.perf.bump("fp_loads")
        self._trace_issue(cycle, instr, "load")

    def _issue_store(self, cycle: int, entry: DispatchedEntry) -> None:
        instr = entry.instr
        if self.lsu.busy:
            self.perf.stall(StallReason.LSU_BUSY)
            return
        src = instr.rs2
        reason = self._sources_ready([src])
        if reason is not StallReason.NONE:
            self.perf.stall(reason)
            return
        value = self._read_sources([src])[0]
        self.lsu.issue_store(entry.vals["addr"], value)
        self.sequencer.advance()
        self.perf.bump("fp_lsu_ops")
        self.perf.bump("fp_stores")
        self._trace_issue(cycle, instr, "store")

    def _issue_compute(self, cycle: int, entry: DispatchedEntry) -> None:
        instr = entry.instr
        spec = instr.spec
        sources = self._fp_sources(instr)
        reason = self._sources_ready(sources)
        if reason is not StallReason.NONE:
            self.perf.stall(reason)
            return

        sync = spec.rd_domain == "x"       # feq/flt/fle, fcvt.w.d
        dest = None if sync else instr.rd
        dest_is_ssr = dest is not None and self._is_stream_reg(dest)
        if dest is not None and not dest_is_ssr:
            if not self.fpregs.can_write(dest):
                self.perf.stall(StallReason.WAW)
                return

        candidate_pops = self._candidate_pops(sources)
        head_retires = self._wb_would_accept(cycle, candidate_pops)
        if not self.pipe.can_accept(cycle, instr.iclass, head_retires):
            if (self.pipe.head_complete(cycle) and not head_retires
                    and not self.pipe.has_unpipelined_in_flight()):
                self.perf.stall(StallReason.CHAIN_BACKPRESSURE)
            else:
                self.perf.stall(StallReason.FPU_BUSY)
            return

        # Commit the issue: pop/read operands and execute.
        operand_values: list[float] = []
        source_iter = iter(self._read_sources(sources))
        if spec.rs1_domain == "x":          # fcvt.d.w reads an int operand
            operand_values.append(float(entry.vals.get("rs1", 0)))
        elif spec.rs1_domain == "f":
            operand_values.append(next(source_iter))
        if spec.rs2_domain == "f":
            operand_values.append(next(source_iter))
        if spec.rs3_domain == "f":
            operand_values.append(next(source_iter))

        result = execute_fp(instr.mnemonic, operand_values)
        if dest is not None and not dest_is_ssr:
            self.fpregs.allocate(dest)
        self.pipe.issue(instr, dest, dest_is_ssr, result, cycle, sync)
        self.sequencer.advance()
        self.perf.bump("fpu_compute_ops")
        self.perf.bump(f"fpu_{instr.iclass.name.lower()}")
        self._trace_issue(cycle, instr, "compute")

    # -- writeback phase -----------------------------------------------------

    def _writeback(self, cycle: int) -> None:
        if not self.pipe.head_complete(cycle):
            return
        op = self.pipe.head()
        if op.sync:
            if self.sync_ready:
                return  # previous sync result not consumed yet
            self._deliver_sync(op.value)
            self.pipe.retire_head()
            return
        if op.dest_is_ssr:
            streamer = self.streamers[op.dest]
            if not streamer.can_push():
                return  # write FIFO full: pipe stalls
            streamer.push(float(op.value))
            self.perf.bump("ssr_reg_writes")
            self.pipe.retire_head()
            return
        if not self.fpregs.try_writeback(op.dest, float(op.value)):
            return  # chaining backpressure: pipe stalls
        if self.chain.enabled(op.dest):
            self.perf.bump("chain_pushes")
        else:
            self.perf.bump("fp_rf_writes")
        self.pipe.retire_head()

    # -- CSR / SCFG side effects --------------------------------------------

    def _read_csr(self, addr: int) -> int:
        if addr == CSR.CHAIN_MASK:
            return self.chain.read_mask()
        if addr == CSR.CHAIN_STATUS:
            return self.chain.status()
        if addr == CSR.SSR_ENABLE:
            return int(self.ssr_enable)
        if addr == CSR.FPMODE:
            return self.fpmode
        return 0

    def _write_csr(self, addr: int, value: int) -> None:
        if addr == CSR.CHAIN_MASK:
            self.chain.write_mask(value)
        elif addr == CSR.SSR_ENABLE:
            self.ssr_enable = bool(value & 1)
        elif addr == CSR.FPMODE:
            self.fpmode = value

    def _apply_csr(self, entry: DispatchedEntry) -> None:
        instr = entry.instr
        old = self._read_csr(instr.csr)
        if instr.mnemonic in ("csrrw", "csrrs", "csrrc"):
            operand = entry.vals.get("rs1", 0)
        else:
            operand = instr.imm
        if instr.mnemonic in ("csrrw", "csrrwi"):
            new = operand
            write = True
        elif instr.mnemonic in ("csrrs", "csrrsi"):
            new = old | operand
            write = operand != 0
        else:
            new = old & ~operand
            write = operand != 0
        if write:
            self._write_csr(instr.csr, new)
        if entry.sync:
            self._deliver_sync(old)

    def _apply_scfg(self, entry: DispatchedEntry) -> None:
        instr = entry.instr
        if instr.mnemonic == "scfgw":
            ssr, cfg_field = split_cfg_addr(entry.vals["rs2"])
            self._check_ssr_index(ssr)
            self.streamers[ssr].write_cfg(cfg_field, entry.vals["rs1"])
        else:  # scfgr
            ssr, cfg_field = split_cfg_addr(entry.vals["rs1"])
            self._check_ssr_index(ssr)
            self._deliver_sync(self.streamers[ssr].read_cfg(cfg_field))

    def _check_ssr_index(self, ssr: int) -> None:
        if not 0 <= ssr < len(self.streamers):
            raise RuntimeError(f"scfg access to nonexistent ssr{ssr}")

    def _trace_issue(self, cycle: int, instr: Instr, kind: str) -> None:
        if self.trace is not None:
            self.trace.fp_issue(cycle, instr, kind)
