"""Cluster top level: one Snitch-like compute core + TCDM + SSRs.

Matches the paper's experimental platform (a Snitch cluster with one
compute core).  :meth:`Cluster.run` steps the whole system cycle by cycle
until the program halts (``ebreak``) and all decoupled work -- the FP
queue, the FPU pipe, the LSUs and the SSR write streamers -- has drained.

Per-cycle component order (rationale in :mod:`repro.core.fp_subsystem`):

1. FP subsystem (issue, then writeback),
2. integer core (dispatches become visible to the FPU next cycle),
3. SSR streamers (consume TCDM grants, post new requests),
4. TCDM arbitration (grants are visible to requesters next cycle).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import CoreConfig
from repro.core.fp_subsystem import FpSubsystem
from repro.core.int_core import IntCore
from repro.core.perf import SLOT, PerfCounters, StallReason
from repro.isa.assembler import Program, assemble
from repro.isa.csr import is_fp_csr
from repro.isa.instructions import InstrClass
from repro.mem.dma import DmaEngine
from repro.mem.memory import Allocator, Memory
from repro.mem.tcdm import Tcdm
from repro.obs import spans as _obs
from repro.ssr.config import SsrMode

_INF = 1 << 62
_S_FPU_COMPUTE = SLOT["fpu_compute_ops"]
_S_FP_LSU = SLOT["fp_lsu_ops"]

#: After a failed fast-forward probe (no dead span, or a span too short
#: to pay for itself), further probes are suppressed for this many
#: cycles.  Pure throughput damping: skipping is always optional.
_FF_COOLDOWN = 8


class SimulationTimeout(RuntimeError):
    """The cycle budget was exhausted before the program finished."""


class SimulationDeadlock(RuntimeError):
    """The program halted but decoupled work can make no progress."""


class Cluster:
    """One compute cluster: integer core, FP subsystem, SSRs, TCDM."""

    def __init__(self, program: Program | str,
                 cfg: CoreConfig | None = None,
                 symbols: dict[str, int] | None = None,
                 trace=None, num_cores: int = 1):
        self.cfg = cfg or CoreConfig()
        self.cfg.validate()
        if num_cores < 1:
            raise ValueError(f"num_cores must be >= 1, got {num_cores}")
        if isinstance(program, str):
            program = assemble(program, symbols=symbols)
        self.program = program
        self.num_cores = num_cores
        self.mem = Memory(self.cfg.mem_size)
        self.tcdm = Tcdm(self.mem, self.cfg.tcdm_banks,
                         self.cfg.tcdm_bank_width)
        self.perf = PerfCounters()
        self.trace = trace
        if self.cfg.fetch_from_memory:
            self._install_program_image()
        self.dma = DmaEngine(self.mem, self.cfg.dma_bytes_per_cycle)
        # One FP subsystem (FPU + SSRs + LSU) per compute core, all
        # sharing the banked TCDM -- the Snitch cluster organization.
        # The SPMD program is shared; cores branch on mhartid.
        self.fps: list[FpSubsystem] = []
        self.cores: list[IntCore] = []
        for hart in range(num_cores):
            fp = FpSubsystem(self.cfg, self.tcdm, self.perf, trace
                             if hart == 0 else None)
            core = IntCore(self.cfg, program, self.tcdm, fp, self.perf,
                           trace if hart == 0 else None, dma=self.dma,
                           hart_id=hart)
            self.fps.append(fp)
            self.cores.append(core)
        # Single-core convenience aliases (the common case and the
        # entire paper evaluation).
        self.fp = self.fps[0]
        self.core = self.cores[0]
        if trace is not None and hasattr(trace, "attach"):
            trace.attach(self.fp)
        self.cycle = 0
        self._single = num_cores == 1
        #: Micro-op engine selection (pre-decoded dispatch + idle-cycle
        #: fast-forwarding); bit-identical to the seed interpreter and
        #: trace-safe, so it stays on under a trace recorder.
        self._v2 = self.cfg.uses_uops
        self._fp_qdepth = self.cfg.fp_queue_depth
        #: Idle-cycle fast-forward statistics (scalar-v2 engine).
        self.ff_stats = {"spans": 0, "cycles": 0}
        #: Track name for this cluster's simulated-cycle obs events;
        #: a surrounding System renames it per cluster index.
        self.obs_lane = "cluster"
        # Vectorized FREP/SSR fast path (repro.core.fastpath): attached
        # to core 0 under "auto", engaged only when the detector proves
        # a hardware loop safe.  Tracing needs every per-issue event, so
        # "auto" silently runs without it under a trace.
        self.fastpath = None
        #: Called after each micro-op cycle's arbitration while the loop
        #: memo records an iteration (None otherwise).
        self.cycle_observer = None
        if self.cfg.engine == "auto" and trace is None:
            from repro.core.fastpath import FastPathEngine

            self.fastpath = FastPathEngine(self)

    def load_program(self, program: Program | str,
                     symbols: dict[str, int] | None = None) -> None:
        """Swap in a new program and restart every core at its base.

        Re-encodes the image into memory in binary-fetch mode and
        invalidates the cores' decode caches (see
        :meth:`~repro.core.int_core.IntCore.load_program`); data memory
        and cycle/statistics counters are left untouched.

        The decoupled units must have drained first: a swap with a
        buffered FREP body, queued FP work or an armed unfinished
        stream would keep executing the *old* program's work against
        the new one, so that is rejected outright.
        """
        for fp in self.fps:
            if not fp.idle or not fp.streamers_done():
                raise RuntimeError(
                    "load_program while the FP subsystem or an SSR "
                    "stream is still busy; run the old program to "
                    "completion first")
        if not self.dma.idle:
            raise RuntimeError("load_program while a DMA transfer is "
                               "in flight")
        if isinstance(program, str):
            program = assemble(program, symbols=symbols)
        self.program = program
        if self.cfg.fetch_from_memory:
            self._install_program_image()
        for core in self.cores:
            core.load_program(program)
        if self.fastpath is not None:
            self.fastpath._reset()
            self.fastpath.loop.reset()

    def _install_program_image(self) -> None:
        """Encode the program into memory for binary-fetch mode."""
        words = self.program.encode_words()
        end = self.program.base + 4 * len(words)
        if end > 0x1000:
            raise ValueError(
                f"program image of {len(words)} instructions reaches "
                f"{end:#x}, colliding with the data region at 0x1000; "
                f"relocate via Program.base"
            )
        for i, word in enumerate(words):
            self.mem.write_u32(self.program.base + 4 * i, word)

    # -- data placement helpers ---------------------------------------------

    def allocator(self, base: int = 0x1000) -> Allocator:
        """Bump allocator for laying out arrays in the TCDM."""
        return Allocator(base)

    def load_f64(self, addr: int, array: np.ndarray) -> None:
        """Place a float64 array into memory."""
        self.mem.write_array(addr, np.asarray(array, dtype=np.float64))

    def read_f64(self, addr: int, shape: tuple[int, ...]) -> np.ndarray:
        return self.mem.read_array(addr, shape, np.float64)

    def load_u32(self, addr: int, array: np.ndarray) -> None:
        self.mem.write_array(addr, np.asarray(array, dtype=np.uint32))

    # -- simulation ------------------------------------------------------------

    @property
    def done(self) -> bool:
        """Program halted and every decoupled unit -- FP queue and
        sequencer, pipe, LSU, SSR streams, DMA -- has drained."""
        for core in self.cores:
            if not core.halted:
                return False
        if self.dma._queue:
            return False
        for fp in self.fps:
            seq = fp.sequencer
            if seq.queue or seq._active or fp.pipe.in_flight \
                    or fp.sync_ready:
                return False
            lsu = fp.lsu
            if lsu._pending_load is not None or lsu._pending_store \
                    or lsu._blocked_value is not None \
                    or lsu.port._pending is not None \
                    or lsu.port._response_ready:
                return False
            for s in fp.streamers:
                if not s.done:
                    return False
        return True

    def _release_barrier(self) -> None:
        """Open the cluster barrier once every live core has arrived.

        Cores that already halted count as arrived; a single-core
        barrier opens immediately on the next cycle.  Cores parked at
        the *system* barrier are outside the cluster's authority: they
        have not arrived at the local barrier and are never released
        here (the surrounding :class:`repro.system.System` opens the
        system barrier once every cluster has arrived).
        """
        waiting = [c for c in self.cores
                   if c.barrier_wait and not c.sys_barrier_wait]
        if not waiting:
            return
        if all(c.halted or (c.barrier_wait and not c.sys_barrier_wait)
               for c in self.cores):
            for core in waiting:
                core.barrier_wait = False
            self.perf.bump("barriers")

    def step(self) -> None:
        """Advance the whole cluster by one cycle."""
        if self._v2:
            self._step_v2()
        else:
            self._step_seed()

    def _step_seed(self) -> None:
        """The seed per-cycle loop (engine ``scalar``)."""
        for fp, core in zip(self.fps, self.cores):
            fp.step(self.cycle)
            core.step(self.cycle)
            for streamer in fp.streamers:
                streamer.step()
        self._release_barrier()
        self.dma.step()
        self.tcdm.arbitrate()
        self.cycle += 1
        self.perf.cycles = self.cycle

    def _step_v2(self) -> None:
        """Micro-op per-cycle loop: same component order and semantics as
        :meth:`_step_seed`, with idle components skipped by cheap state
        tests (each skipped call is a proven no-op)."""
        cycle = self.cycle
        if self._single:
            fp = self.fp
            core = self.core
            fp.step_v2(cycle)
            core.step_v2(cycle)
            for streamer in fp.streamers:
                step = streamer.step_v2
                if step is not None:
                    step()
            if core.barrier_wait:
                self._release_barrier()
        else:
            for fp, core in zip(self.fps, self.cores):
                fp.step_v2(cycle)
                core.step_v2(cycle)
                for streamer in fp.streamers:
                    step = streamer.step_v2
                    if step is not None:
                        step()
            self._release_barrier()
        dma = self.dma
        if dma._queue:
            dma.step()
        self.tcdm.arbitrate_v2()
        if self.cycle_observer is not None:
            self.cycle_observer()
        self.cycle = cycle + 1
        self.perf.cycles = cycle + 1
        fastpath = self.fastpath
        # Outside an FREP region an idle fast-path engine has nothing to
        # observe, so the call is skipped (observe would return at once).
        if fastpath is not None and (fastpath._state
                                     or self.fp.sequencer._active):
            fastpath.observe()

    def run(self, max_cycles: int = 5_000_000) -> PerfCounters:
        """Run to completion; returns the performance counters."""
        # The progress token exists purely for post-halt deadlock
        # detection, so it is only computed once the core has halted --
        # evaluating it every cycle was pure hot-loop waste.
        quiet_cycles = 0
        last_progress: tuple | None = None
        core = self.core
        cores = self.cores
        single_core = self._single
        v2 = self._v2
        fp0_queue = self.fp.sequencer.queue
        qdepth = self._fp_qdepth
        ff_cooldown = 0
        # Only set when the loop memo lowered core 0's branches.
        loop = self.fastpath.loop if self.fastpath is not None else None
        while True:
            if (core.halted if single_core
                    else all(c.halted for c in cores)) and self.done:
                break
            if self.cycle >= max_cycles:
                raise SimulationTimeout(
                    f"no completion after {max_cycles} cycles "
                    f"(pc={self.core.pc:#x}, halted={self.core.halted})"
                )
            if v2:
                # Fast-forwarding needs every core blocked; test core 0
                # inline so active cycles pay a few comparisons at most.
                if (core.halted or core.barrier_wait
                        or core.waiting_sync is not None
                        or core.stall_until > self.cycle
                        or len(fp0_queue) >= qdepth) \
                        and self.cycle >= ff_cooldown \
                        and self._ff_candidate():
                    skipped = self._try_fast_forward(max_cycles)
                    if not skipped:
                        ff_cooldown = self.cycle + _FF_COOLDOWN
                        self._step_v2()
                else:
                    self._step_v2()
                if core.loop_head:
                    loop.at_head(max_cycles)
            else:
                self._step_seed()
            if core.halted:
                token = self._progress_token()
                quiet_cycles = 0 if token != last_progress else \
                    quiet_cycles + 1
                if quiet_cycles > 64:
                    raise SimulationDeadlock(
                        "halted but the FP subsystem or an SSR write "
                        "stream cannot drain (under-produced stream or "
                        "starved chaining pop?)"
                    )
                last_progress = token
        self.release()
        return self.perf

    def release(self) -> None:
        """Drop the per-run caches (memo tables, lowered micro-ops) of a
        finished run; they are rebuilt if the cluster runs again."""
        if self.fastpath is not None:
            self.fastpath.loop.reset()
        for core in self.cores:
            core.drop_lowered()

    def _progress_token(self) -> tuple:
        """Cheap state fingerprint for deadlock detection after halt."""
        queued = in_pipe = 0
        for fp in self.fps:
            queued += len(fp.sequencer.queue)
            in_pipe += len(fp.pipe.in_flight)
        waiting = 0
        for c in self.cores:
            waiting += c.barrier_wait
        pvals = self.perf.values
        return (
            self.tcdm.total_accesses,
            queued,
            in_pipe,
            pvals[_S_FPU_COMPUTE],
            pvals[_S_FP_LSU],
            self.dma.bytes_moved,
            waiting,
        )

    # -- idle-cycle fast-forwarding (scalar-v2) -----------------------------
    #
    # Quiescence protocol: a cycle is *dead* when every component either
    # cannot change state before a known future cycle (its horizon) or
    # is provably inert.  All dead cycles in a span are identical -- the
    # machine is deterministic and, with every threshold (FPU completion
    # times, branch-penalty ends, register ready cycles) beyond the
    # span, time itself cannot alter any decision -- so the engine steps
    # *one* of them normally, verifies that nothing but counters moved,
    # and replays the measured per-cycle counter delta over the rest of
    # the span in O(1).  An active DMA engine is the one deterministic
    # exception: it is stepped through the span in isolation (nothing
    # else can observe it while all cores are blocked), reproducing its
    # chunk-exact memory traffic and busy accounting.  Any
    # misclassification is caught by the signature check and simply
    # degrades into a normal single step.

    def _ff_candidate(self) -> bool:
        """Cheap pre-gate: every core blocked and no stream traffic."""
        cycle = self.cycle
        for core, fp in zip(self.cores, self.fps):
            if not (core.halted or core.barrier_wait
                    or core.waiting_sync is not None
                    or core.stall_until > cycle
                    or len(fp.sequencer.queue) >= self._fp_qdepth):
                return False
            for s in fp.streamers:
                port = s.data_port
                if port._pending is not None or port._response_ready:
                    return False
        return True

    def _streamer_quiescent(self, s) -> bool:
        """Would stepping this armed streamer do any work at all?"""
        port = s.data_port
        if port._pending is not None or port._response_ready:
            return False
        iport = s.idx_port
        if iport._pending is not None or iport._response_ready:
            return False
        if s.cfg.mode == SsrMode.READ:
            headroom = s.fifo_depth - len(s._fifo) \
                - (1 if s._data_requested else 0)
            if headroom > 0:
                if s._igen is not None:
                    if s._idx_fifo:
                        return False
                elif not s._gen.exhausted:
                    return False
        elif s._fifo:
            return False
        if s._igen is not None and not s._igen.exhausted \
                and len(s._idx_fifo) < s.fifo_depth:
            return False
        return True

    def _fp_stall_horizon(self, fp, entry, cycle, pipe_event):
        """When could the stalled head-of-queue entry next make progress?

        Returns None when the entry would issue (or its stall cannot be
        bounded), else a cycle that is <= the first possible change.
        Mirrors the issue-stall checks side-effect-free; the caller has
        already established an idle LSU, quiescent streamers and an
        incomplete pipe head.
        """
        instr = entry.instr
        iclass = instr.iclass
        if iclass in (InstrClass.FREP, InstrClass.CSR, InstrClass.SCFG):
            return None
        if iclass is InstrClass.FP_LOAD:
            dest = instr.rd
            if fp.ssr_enable and dest < fp._num_streamers:
                return None  # would raise; let the normal step do it
            if fp.chain.enabled(dest) or not fp.fpregs.busy[dest]:
                return None  # would issue
            return pipe_event  # WAW clears at the next writeback
        if iclass is InstrClass.FP_STORE:
            reason = fp._sources_ready([instr.rs2])
            if reason is StallReason.NONE:
                return None
            if reason is StallReason.SSR_EMPTY:
                return None  # an empty quiescent stream never refills
            return pipe_event  # RAW / CHAIN_EMPTY resolve via writeback
        sources = fp._fp_sources(instr)
        reason = fp._sources_ready(sources)
        if reason is not StallReason.NONE:
            if reason is StallReason.SSR_EMPTY:
                return None
            return pipe_event
        sync = instr.spec.rd_domain == "x"
        dest = None if sync else instr.rd
        if dest is not None and not fp._is_stream_reg(dest) \
                and not fp.fpregs.can_write(dest):
            return pipe_event  # WAW
        if not fp.pipe.can_accept(cycle, iclass, False):
            return pipe_event  # pipe full / unpipelined op in flight
        return None  # would issue

    def _core_fetch_horizon(self, core, fp, cycle):
        """Horizon of a running core: None unless it is hazard- or
        dispatch-stalled with a bounded wake-up."""
        instr = core._fetch()
        if instr is None:
            return None  # will raise in the normal step
        spec = instr.spec
        iclass = spec.iclass
        if instr.is_fp or (iclass is InstrClass.CSR
                           and is_fp_csr(instr.csr)):
            if len(fp.sequencer.queue) >= self._fp_qdepth:
                return _INF  # dispatch stall; resolves via an FP issue
            if iclass in (InstrClass.FP_LOAD, InstrClass.FP_STORE,
                          InstrClass.FREP):
                needed = (instr.rs1,)
            elif iclass is InstrClass.SCFG:
                needed = (instr.rs1, instr.rs2) \
                    if instr.mnemonic == "scfgw" else (instr.rs1,)
            elif iclass is InstrClass.CSR:
                needed = (instr.rs1,) if (
                    spec.rs1_domain == "x" and instr.mnemonic in (
                        "csrrw", "csrrs", "csrrc")) else ()
            elif spec.rd_domain == "x":
                needed = ()
            elif spec.rs1_domain == "x":
                needed = (instr.rs1,)
            else:
                needed = ()
        elif iclass in (InstrClass.INT_ALU, InstrClass.INT_MUL,
                        InstrClass.INT_DIV):
            from repro.core.int_core import _IMM_TO_ALU

            mn = instr.mnemonic
            if mn in ("lui", "auipc"):
                return None  # executes unconditionally
            needed = (instr.rs1,) if mn in _IMM_TO_ALU \
                else (instr.rs1, instr.rs2)
        elif iclass is InstrClass.LOAD:
            needed = (instr.rs1,)
        elif iclass in (InstrClass.STORE, InstrClass.BRANCH):
            needed = (instr.rs1, instr.rs2)
        elif iclass is InstrClass.JUMP:
            if instr.mnemonic == "jal":
                return None
            needed = (instr.rs1,)
        else:
            return None  # CSR / DMA / SYS: executes (or retries) now
        ready_cycle = core.regs.ready_cycle
        horizon = 0
        for reg in needed:
            r = ready_cycle[reg]
            if r > cycle and r > horizon:
                horizon = r
        return horizon if horizon else None

    def _classify_pair(self, core, fp, cycle):
        """Dead-state horizon of one core + FP subsystem, or None."""
        port = core.port
        if port._pending is not None or port._response_ready \
                or core._pending_load_rd is not None:
            return None
        lsu = fp.lsu
        if lsu._pending_load is not None or lsu._pending_store \
                or lsu._blocked_value is not None or lsu.port.busy:
            return None
        for s in fp.streamers:
            if s.cfg is not None and not self._streamer_quiescent(s):
                return None
        pipe = fp.pipe
        fp_event = _INF
        if pipe.in_flight:
            head_t = pipe.in_flight[0].completes_at
            if head_t <= cycle:
                return None  # a writeback fires this cycle
            fp_event = head_t
        entry = fp.sequencer.peek()
        if entry is not None:
            stall_h = self._fp_stall_horizon(fp, entry, cycle, fp_event)
            if stall_h is None:
                return None
            if stall_h < fp_event:
                fp_event = stall_h
        horizon = fp_event
        if core.halted or core.barrier_wait:
            pass
        elif core.waiting_sync is not None:
            if fp.sync_ready:
                return None  # the core consumes the sync next cycle
        elif core.stall_until > cycle:
            if core.stall_until < horizon:
                horizon = core.stall_until
        else:
            h = self._core_fetch_horizon(core, fp, cycle)
            if h is None:
                return None
            if h < horizon:
                horizon = h
        return horizon

    def _dead_horizon(self, external: int | None = None):
        """First cycle at which any cluster state can change, or None.

        ``external`` is an externally-known bound on the span (the next
        cycle at which the *environment* -- a sibling cluster in a
        :class:`repro.system.System` -- can interact with this cluster);
        it clamps the horizon, which also makes indefinitely-parked
        states (every core halted or waiting at the system barrier,
        horizon would be infinite) fast-forwardable up to that bound.
        """
        cycle = self.cycle
        horizon = _INF
        dma = self.dma
        if dma._queue:
            remaining = sum(t.row_bytes * t.rows - t.moved
                            for t in dma._queue)
            horizon = cycle + -(-remaining // dma.bytes_per_cycle)
        any_barrier = False
        for core, fp in zip(self.cores, self.fps):
            h = self._classify_pair(core, fp, cycle)
            if h is None:
                return None
            if h < horizon:
                horizon = h
            any_barrier = any_barrier or (core.barrier_wait
                                          and not core.sys_barrier_wait)
        # Mirror _release_barrier exactly: a core parked at the *system*
        # barrier has not arrived at the local one, so it blocks the
        # local release rather than triggering it.
        if any_barrier and all(c.halted
                               or (c.barrier_wait
                                   and not c.sys_barrier_wait)
                               for c in self.cores):
            return None  # the barrier opens this very cycle
        if external is not None and external < horizon:
            horizon = external
        if horizon >= _INF or horizon <= cycle + 1:
            return None
        return horizon

    def _quiet_signature(self, skip_dma: bool):
        """Everything a dead cycle must leave untouched (counters aside)."""
        tcdm = self.tcdm
        parts = [tcdm.total_accesses, tcdm.total_conflicts]
        if not skip_dma:
            parts.append(self.dma.bytes_moved)
            parts.append(len(self.dma._queue))
        for core, fp in zip(self.cores, self.fps):
            seq = fp.sequencer
            chain = fp.chain
            lsu = fp.lsu
            parts.append((
                core.pc, core.halted, core.barrier_wait,
                core.waiting_sync is not None, core.stall_until,
                core._pending_load_rd, core.port._pending is not None,
                core.port._response_ready,
                len(seq.queue), seq._active, seq._pos,
                len(fp.pipe.in_flight), fp.pipe._last_completion,
                fp.sync_ready,
                chain.pushes, chain.pops, chain.backpressure_events,
                lsu.loads, lsu.stores,
                lsu._pending_load is not None, lsu._pending_store,
            ))
            for s in fp.streamers:
                parts.append((
                    len(s._fifo), len(s._idx_fifo), s._rep_count,
                    s._to_consume, s._to_produce,
                    s.elements_moved, s.active_cycles))
        return parts

    def _try_fast_forward(self, max_cycles: int,
                          external: int | None = None) -> bool:
        """Jump over a provably-dead span; False when none exists."""
        horizon = self._dead_horizon(external)
        if horizon is None:
            return False
        start = self.cycle
        if horizon > max_cycles:
            horizon = max_cycles
        span = horizon - start
        if span < 2:
            return False
        dma_active = bool(self.dma._queue)
        sig0 = self._quiet_signature(dma_active)
        perf = self.perf
        window = perf.window()
        self._step_v2()  # the measured dead cycle
        if self._quiet_signature(dma_active) != sig0:
            return True  # misclassified: one normal step was taken
        # Replay the measured per-cycle delta over the remaining span.
        k = span - 1
        perf.replay(perf.since(window), k)
        if dma_active:
            dma = self.dma
            for _ in range(k):
                dma.step()
        self.cycle += k
        perf.cycles = self.cycle
        self.ff_stats["spans"] += 1
        self.ff_stats["cycles"] += k
        if _obs.ENABLED:
            _obs.tracer().sim_span(
                "fast-forward", "engine", start, self.cycle,
                lane=self.obs_lane,
                args={"cycles_skipped": k, "dma_active": dma_active})
        return True

    # -- convenience metrics ---------------------------------------------------

    def fpu_utilization(self, start_mark: int | None = None,
                        end_mark: int | None = None) -> float:
        return self.perf.fpu_utilization(start_mark, end_mark)

    def runtime_seconds(self) -> float:
        return self.cycle / self.cfg.clock_hz
