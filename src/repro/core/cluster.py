"""Cluster top level: one Snitch-like compute core + TCDM + SSRs.

Matches the paper's experimental platform (a Snitch cluster with one
compute core).  :func:`run_clusters` steps clusters cycle by cycle until
the program halts (``ebreak``) and all decoupled work -- the FP queue,
the FPU pipe, the LSUs and the SSR write streamers -- has drained.

The micro-op engine and, under ``auto``, the FREP batch and the loop
memo drive only the shape every workload builds: one core, no trace
recorder, no ``fetch_from_memory``.  Any other cluster (several cores,
a trace, binary fetch) steps on the seed interpreter whatever
``CoreConfig.engine`` says; the engines are bit-identical, so only the
wall time differs.

Per-cycle component order (rationale in :mod:`repro.core.fp_subsystem`):

1. FP subsystem (issue, then writeback),
2. integer core (dispatches become visible to the FPU next cycle),
3. SSR streamers (consume TCDM grants, post new requests),
4. TCDM arbitration (grants are visible to requesters next cycle).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import CoreConfig
from repro.core.cycle import build_cycle
from repro.core.fp_subsystem import FpSubsystem
from repro.core.int_core import IntCore
from repro.core.perf import SLOT, PerfCounters
from repro.isa.assembler import Program, assemble
from repro.mem.dma import DmaEngine
from repro.mem.memory import Allocator, Memory
from repro.mem.tcdm import Tcdm

_S_FPU_COMPUTE = SLOT["fpu_compute_ops"]
_S_FP_LSU = SLOT["fp_lsu_ops"]


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
        plain = num_cores == 1 and trace is None \
            and not self.cfg.fetch_from_memory
        #: Micro-op engine selection (pre-decoded dispatch).
        self._v2 = plain and self.cfg.uses_uops
        #: Always zero (no idle-cycle skipping); perfbench reads it.
        self.ff_stats = {"spans": 0, "cycles": 0}
        #: Track name for this cluster's simulated-cycle obs events;
        #: a surrounding System renames it per cluster index.
        self.obs_lane = "cluster"
        # Vectorized FREP/SSR fast path and loop memo
        # (repro.core.fastpath) under "auto", engaged only when the
        # detector proves a region safe.
        self.fastpath = None
        #: The bound stepped-cycle closure (:mod:`repro.core.cycle`);
        #: None until the next micro-op step binds one for the
        #: configuration then current.
        self._loop = None
        #: Issue bodies by (ssr_enable, chaining mask) and micro-op, for
        #: the closure (see :func:`repro.core.uops.issue_body`).
        self._bodies: dict = {}
        if plain and self.cfg.engine == "auto":
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
        self._loop = None
        self._bodies.clear()
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
            self._advance(self.cycle + 1)
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

    def _advance(self, limit: int) -> None:
        """Micro-op cycles on the generated closure, with the semantics of
        :meth:`_step_seed`, until ``limit`` or an event the run loop
        handles (:mod:`repro.core.cycle`); then the fast path observes
        an FREP region."""
        resume = None
        while True:
            loop = self._loop
            if loop is None:
                loop = self._loop = build_cycle(self)
            resume = loop(limit, resume)
            if resume is None:
                break
            self._loop = None    # its configuration changed mid-cycle
        fastpath = self.fastpath
        # Outside an FREP region an idle fast-path engine has nothing to
        # observe, so the call is skipped (observe would return at once).
        if fastpath is not None and (fastpath._state
                                     or self.fp.sequencer._active):
            fastpath.observe()

    def run(self, max_cycles: int = 5_000_000) -> PerfCounters:
        """Run to completion; returns the performance counters."""
        run_clusters([self], max_cycles)
        return self.perf

    def release(self) -> None:
        """Drop the per-run caches (memo tables, lowered micro-ops) of a
        finished run; they are rebuilt if the cluster runs again."""
        self._loop = None
        self._bodies.clear()
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

    # -- convenience metrics ---------------------------------------------------

    def fpu_utilization(self, start_mark: int | None = None,
                        end_mark: int | None = None) -> float:
        return self.perf.fpu_utilization(start_mark, end_mark)

    def runtime_seconds(self) -> float:
        return self.cycle / self.cfg.clock_hz


def _core_state(core) -> str:
    if core.halted:
        return "halted"
    if core.sys_barrier_wait:
        return "waiting at the system barrier"
    if core.barrier_wait:
        return "waiting at the cluster barrier"
    return f"running at pc={core.pc:#x}"


def _diagnose(clusters: list[Cluster], system) -> str:
    """Each cluster's clock, every core's state and the DMA backlog."""
    cores = [core for cl in clusters for core in cl.cores]
    opened = "" if system is None else \
        f", {system.sys_barriers} barriers opened"
    lines = [f" ({sum(c.sys_barrier_wait for c in cores)}/{len(cores)} "
             f"cores at the system barrier{opened}):"]
    for index, cl in enumerate(clusters):
        states = ", ".join(f"core {hart} {_core_state(core)}"
                           for hart, core in enumerate(cl.cores))
        lines.append(f"  cluster {index}: cycle={cl.cycle}, {states}, dma "
                     f"outstanding={cl.dma.outstanding()}, fp idle="
                     f"{all(fp.idle for fp in cl.fps)}")
    return "\n".join(lines)


def run_clusters(clusters: list[Cluster], max_cycles: int, system=None,
                 errors=(SimulationTimeout, SimulationDeadlock)) -> None:
    """The one run loop: step the unfinished clusters whose clock is
    lowest until every cluster is :attr:`~Cluster.done`, then release
    them.  Once every core of every unfinished cluster has halted, 64
    iterations without progress are a deadlock.  A ``system``
    (:class:`repro.system.System`) opens its barrier before each batch
    is chosen and arbitrates its interconnect before the batch steps; a
    bare cluster never opens a system barrier.
    """
    timeout, deadlock = errors
    active = [cl for cl in clusters if not cl.done]
    # A lone bare cluster waits for nothing: it steps on until core 0
    # halts or the budget ends, as cheaply as a bare stepping loop.
    solo = system is None and len(active) == 1
    quiet = 0
    last_token = None
    while active:
        if system is not None:
            system._release_sys_barrier()
        now = min(cl.cycle for cl in active)
        if now >= max_cycles:
            raise timeout(f"no completion after {max_cycles} cycles"
                          + _diagnose(clusters, system))
        batch = [cl for cl in active if cl.cycle == now]
        if system is not None:
            system._arbitrate(batch)
        halted = False
        for cl in batch:
            core = cl.core
            v2 = cl._v2
            while True:
                if not v2:
                    cl._step_seed()
                elif solo:
                    cl._advance(max_cycles)
                else:
                    cl._advance(now + 1)
                if core.loop_head:
                    cl.fastpath.loop.at_head(max_cycles)
                if core.halted:
                    halted = True
                    break
                if not solo or cl.cycle >= max_cycles:
                    break
        # Only a step that leaves core 0 halted can finish a cluster or
        # halt the last running core, so the hot loop tests just that.
        if halted:
            active = [cl for cl in active if not cl.done]
            halted = all(core.halted for cl in active for core in cl.cores)
        if not halted:
            quiet = 0
            last_token = None
            continue
        token = tuple(cl._progress_token() for cl in active)
        quiet = quiet + 1 if token == last_token else 0
        last_token = token
        if quiet > 64:
            raise deadlock(
                "every core halted but a decoupled unit cannot drain "
                "(under-produced stream or starved chaining pop?)"
                + _diagnose(clusters, system))
    for cl in clusters:
        cl.release()
