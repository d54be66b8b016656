"""Vectorized FREP/SSR steady-state execution engine (the fast path).

In the paper's kernels the hot region is an ``frep`` hardware loop whose
operands stream in through SSRs and whose results leave through an SSR
or accumulate in (chaining) registers.  In steady state the cycle-level
simulator performs *exactly the same* sequence of micro-events every few
iterations -- yet the scalar model pays full Python dispatch for each of
them.  This module removes that cost without giving up a single bit of
fidelity:

1. **Eligibility** -- when the sequencer's FREP buffer fills, the body is
   analyzed once.  It is eligible when every instruction is an FP op
   the workloads batch (:data:`_VECTOR_OPS`), every source is an affine
   read-stream register,
   a loop-invariant register, or a value produced earlier in the *same*
   iteration (through a plain or chaining register), and every
   destination is an affine write-stream register or a register.  Bodies
   the analyzer cannot prove safe -- indirect streams, ``frep.i``,
   register staggering, cross-iteration register carries, FP loads --
   fall back to the scalar model, which remains the reference.

2. **Period detection** -- an eligible region with at least
   ``_MIN_REMAINING`` body instances left is watched until it is
   decided.  While the rest of the cluster is quiescent, a structural
   fingerprint of all timing-relevant state (pipe occupancy and
   relative completion times, FIFO fill levels, chaining valid bits,
   TCDM port states, stream walker phase modulo the bank interleave)
   and a snapshot of every counter are taken at each iteration
   boundary.  Timing is value-independent, so two instants with equal
   fingerprints bracket one steady-state period.  A window with a
   one-shot event (an in-flight load landing, an integer instruction
   retiring) declines the region.

3. **Batch execution** -- the remaining whole periods are then applied at
   once: every counter advances by ``N x`` its measured per-period
   delta, each stream moves on by the elements of ``N`` periods, and all
   data values (register file, in-flight pipe results, write-stream
   FIFOs, memory written by write streams) are reconstructed from a
   *vectorized numpy evaluation* of the body dataflow over the batched
   iterations.  The numpy operators are chosen to be bit-identical to
   the scalar executors (including Python's ``min``/``max`` tie and NaN
   behavior), so results, cycle counts, perf counters, stall
   breakdowns, SSR generator state and TCDM traffic all land exactly
   where the scalar model would have put them -- the loop tail then
   drains through the scalar path.

The engine is attached under ``CoreConfig.engine == "auto"`` to the
clusters the micro-op engine steps (see :mod:`repro.core.cluster`).  An
``frep`` raises ``Sequencer.frep_begun`` as a loop head raises
``IntCore.loop_head``; the run loop alone then calls
:meth:`FastPathEngine.observe` until the region is decided (batched,
declined or ended), so ``Cluster.step`` stays one cycle.

Integer-core loops, which never reach the FREP sequencer, are the loop
memo's (:class:`LoopMemo`, in the second half of this module): it
replays recorded loop iterations under the same bit-identity contract.

Both engines take a stream's element addresses from the memo's view of
its arming (:meth:`LoopMemo._view`), and read and write its position in
the element sequence only through the streamer
(:meth:`~repro.ssr.streamer.SsrStreamer.position`,
:meth:`~repro.ssr.streamer.SsrStreamer.place` and
:meth:`~repro.ssr.streamer.SsrStreamer.rearm`).
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, replace
from itertools import repeat
from operator import itemgetter, ne, sub
from typing import Any

import numpy as np

from repro.core.fpu import UNPIPELINED_CLASSES, InFlightOp
from repro.core.perf import SLOT
from repro.core.sequencer import DispatchedEntry
from repro.isa.instructions import InstrClass
from repro.mem.timing import (AFFINE_READ, INDIRECT_READ, WRITE, block,
                               compile_factory, counters_arm, counters_rules,
                               port_layouts)
from repro.obs import spans as _obs
from repro.ssr.address_gen import affine_addresses
from repro.ssr.config import CfgField, SsrMode, split_cfg_addr
from repro.ssr.streamer import StreamPosition


#: mnemonic -> vectorized fn of the ops a workload or the FREP fuzz
#: batches (none raises); any other op rejects as ``non-vector-op``.
#: ``fmin``/``fmax`` are bit-identical to Python's ``min``/``max``, ties
#: and NaNs included.
_VECTOR_OPS: dict = {
    "fadd.d": np.add,
    "fsub.d": np.subtract,
    "fmul.d": np.multiply,
    "fmadd.d": lambda a, b, c: a * b + c,
    "fnmsub.d": lambda a, b, c: -(a * b) + c,
    "fsgnj.d": lambda a, b: np.copysign(np.abs(a), b),
    "fsgnjx.d": lambda a, b: np.copysign(
        np.abs(a), np.copysign(1.0, a) * np.copysign(1.0, b)),
    "fmin.d": lambda a, b: np.where(b < a, b, a),
    "fmax.d": lambda a, b: np.where(b > a, b, a),
}

#: Counter slots allowed to advance during a steady-state period.  Any
#: other counter moving inside the measured window marks a one-shot
#: event (an in-flight FP load landing, an integer instruction retiring,
#: ...) that must not be replayed, so the engine refuses to fast-forward.
_PERIODIC_SLOTS = frozenset(SLOT[name] for name in (
    "fpu_compute_ops", "fpu_fp_add", "fpu_fp_mul", "fpu_fp_fma",
    "fpu_fp_minmax", "fpu_fp_sgnj", "ssr_reg_reads", "ssr_reg_writes",
    "chain_pops", "chain_pushes", "fp_rf_reads", "fp_rf_writes",
    "int_sync_stalls", "int_dispatch_stalls",
))

_HISTORY_CAP = 4096
#: Fewest body instances an eligible region must have left to be
#: watched; a shorter one declines as ``short-region`` (the A/B n-sweep
#: behind the value is in docs/performance.md, "Admission").
_MIN_REMAINING = 576


@dataclass(slots=True)
class _DataFlow:
    """Program-order dataflow of a sequence of FP entries (see
    :func:`_data_flow`); entries are numbered by their position."""

    sources: list               # per entry: its operand symbols, in order
    pops: dict                  # stream -> popping entry, once per pop
    pushes: dict                # stream -> pushing entries
    chain_pops: dict            # chaining register -> popping entries
    chain_pushes: dict
    writers: dict               # register -> writing entries, in order
    chains: dict                # chaining register -> symbols left queued


def _operands(instr) -> tuple:
    """``(register, domain)`` of every operand an FP instruction reads,
    in order (a load's address and a store's base are the LSU's)."""
    iclass = instr.iclass
    if iclass is InstrClass.FP_LOAD:
        return ()
    if iclass is InstrClass.FP_STORE:
        return ((instr.rs2, "f"),)
    spec = instr.spec
    return ((instr.rs1, spec.rs1_domain), (instr.rs2, spec.rs2_domain),
            (instr.rs3, spec.rs3_domain))


def _data_flow(instrs, nstream: int, mask: int, readable, writable,
               regs: dict | None = None, chains: dict | None = None):
    """Name the value every operand of ``instrs`` reads, in program
    order: the data model of both the FREP batch and the loop memo.

    Registers below ``nstream`` are streams (``readable``/``writable``:
    armed for that direction); ``mask`` marks chaining registers, popped
    at most once per instruction.  ``regs`` and ``chains`` give the start
    state: a register's symbol (``("r", reg)`` when absent) and each
    chaining FIFO's queued symbols.  Operands are start symbols,
    ``("o", j)`` (entry ``j``'s result) or ``("e", r, k)`` (the ``k``-th
    pop of stream ``r``); no caller passes an integer operand.
    Returns a :class:`_DataFlow`, or ``(j, "operand")``/``(j, "dest")``
    at the first operand or destination outside the model.
    """
    value = dict(regs or {})
    queues = {reg: list(q) for reg, q in (chains or {}).items()}
    flow = _DataFlow([], {}, {}, {}, {}, {}, queues)
    sources, stream_pops = flow.sources, flow.pops
    for j, instr in enumerate(instrs):
        args = []
        if instr.iclass is InstrClass.SCFG:
            sources.append(args)    # an arming: no FP data
            continue
        popped = None
        for reg, domain in _operands(instr):
            if domain != "f":
                continue
            if reg < nstream:
                if reg not in readable:
                    return j, "operand"
                pops = stream_pops.get(reg)
                if pops is None:
                    pops = stream_pops[reg] = []
                args.append(("e", reg, len(pops)))
                pops.append(j)
            elif mask >> reg & 1:
                if popped is None:
                    popped = {}
                if reg not in popped:
                    queue = queues.get(reg)
                    if not queue:
                        return j, "operand"  # a value from before
                    popped[reg] = queue.pop(0)
                    flow.chain_pops.setdefault(reg, []).append(j)
                args.append(popped[reg])
            else:
                args.append(value.get(reg, ("r", reg)))
        sources.append(args)
        iclass = instr.iclass
        if iclass is InstrClass.FP_STORE:
            continue
        dest = instr.rd
        load = iclass is InstrClass.FP_LOAD
        if dest < nstream:
            if load or dest not in writable:
                return j, "dest"
            flow.pushes.setdefault(dest, []).append(j)
            continue
        if mask >> dest & 1:
            if load:
                return j, "dest"
            queues.setdefault(dest, []).append(("o", j))
            flow.chain_pushes.setdefault(dest, []).append(j)
        else:
            value[dest] = ("o", j)
        flow.writers.setdefault(dest, []).append(j)
    return flow


@dataclass
class _BodyPlan:
    """An eligible FREP body: its data flow and the per-iteration event
    tables derived from it (slot ``j`` is body instruction ``j``)."""

    mnemonics: list[str]
    sources: list                        # per slot: _data_flow symbols
    slot_of: dict[int, int]              # id(instr) -> slot index
    read_ppi: dict[int, int]             # streamer -> pops / iteration
    read_prefix: dict[int, list[int]]    # streamer -> pops in slots < k
    write_slots: dict[int, list[int]]    # streamer -> pushing slots
    write_prefix: dict[int, list[int]]
    chain_pops: dict[int, tuple]         # reg -> (per_iter, prefix)
    chain_pushes: dict[int, tuple]
    reg_writers: dict[int, list[int]]    # non-stream dest -> writer slots
    views: dict                          # streamer -> its arming's _View


def _prefix(where: list[int], body_len: int) -> list[int]:
    """Events in slots ``< k`` for every slot ``k``; ``where`` holds an
    event's slot once per event."""
    prefix, count = [], 0
    for k in range(body_len):
        prefix.append(count)
        count += where.count(k)
    return prefix


def _prefix_f(pos: int, per_iter: int, prefix: list[int], body_len: int
              ) -> int:
    """Events in instruction instances ``[0, pos)`` given per-slot
    prefix counts within one iteration."""
    return (pos // body_len) * per_iter + prefix[pos % body_len]


def _last_instance(slots: list[int], bound: int, body_len: int) -> int:
    """Largest instance index ``g < bound`` whose body slot is in
    ``slots``, or -1."""
    best = -1
    for s in slots:
        if bound - 1 - s < 0:
            continue
        g = (bound - 1 - s) // body_len * body_len + s
        if g > best:
            best = g
    return best


def _snapshot(cl) -> dict:
    """Every counter of the machine, the start of a measured window
    (the performance counters as a :meth:`PerfCounters.window`)."""
    fp = cl.fp
    return {
        "perf": cl.perf.window(),
        "pos": fp.sequencer.position,
        "replayed": fp.sequencer.replayed_instrs,
        "chain": (fp.chain.pushes, fp.chain.pops,
                  fp.chain.backpressure_events),
        "tcdm": (cl.tcdm.total_accesses, cl.tcdm.total_conflicts,
                 cl.tcdm.busy_bank_cycles),
        "ports": [(p.reads, p.writes, p.conflicts) for p in cl.tcdm.ports],
        "streamers": [(s.active_cycles, s.elements_moved, s._to_consume,
                       s._to_produce) for s in fp.streamers],
        "lsu": (fp.lsu.loads, fp.lsu.stores),
        "dma": cl.dma.bytes_moved,
    }


def _since(cl, a: dict) -> dict:
    """What changed since snapshot ``a``, entry by entry."""
    b = _snapshot(cl)
    delta: dict = {"perf": cl.perf.since(a["perf"])}
    delta["ports"] = [tuple(y - x for x, y in zip(pa, pb))
                      for pa, pb in zip(a["ports"], b["ports"])]
    delta["streamers"] = [tuple(y - x for x, y in zip(sa, sb))
                          for sa, sb in zip(a["streamers"], b["streamers"])]
    for key in ("pos", "replayed", "dma"):
        delta[key] = b[key] - a[key]
    for key in ("chain", "tcdm", "lsu"):
        delta[key] = tuple(y - x for x, y in zip(a[key], b[key]))
    return delta


def _apply_delta(cl, delta: dict, n: int) -> None:
    """Advance every counter of ``cl`` by ``n`` times a measured
    :func:`_since` delta (the shared applier of the FREP batch and the
    loop memo; stream positions, and the reads and writes they still
    owe, are placed by the caller)."""
    cl.perf.replay(delta["perf"], n)
    fp = cl.fp
    chain = fp.chain
    cp, cpop, cbp = delta["chain"]
    chain.pushes += n * cp
    chain.pops += n * cpop
    chain.backpressure_events += n * cbp
    tcdm = cl.tcdm
    ta, tc, tb = delta["tcdm"]
    tcdm.total_accesses += n * ta
    tcdm.total_conflicts += n * tc
    tcdm.busy_bank_cycles += n * tb
    for port, (dr, dw, dc) in zip(tcdm.ports, delta["ports"]):
        port.reads += n * dr
        port.writes += n * dw
        port.conflicts += n * dc
    dl, dst = delta["lsu"]
    fp.lsu.loads += n * dl
    fp.lsu.stores += n * dst
    for s, (dact, dmov, *_) in zip(fp.streamers, delta["streamers"]):
        s.active_cycles += n * dact
        s.elements_moved += n * dmov


class FastPathEngine:
    """Steady-state detector and batch executor for one compute core."""

    def __init__(self, cluster):
        # Weak: the cluster owns the engine, and a cycle would keep a
        # finished cluster alive until a full garbage collection.
        self.cluster = weakref.proxy(cluster)
        self.core = cluster.core
        self.fp = cluster.fp
        #: Set from an ``frep`` until the region is decided: batched,
        #: declined or ended (the stepped cycle returns while it is set).
        self.deciding = False
        self._plan: _BodyPlan | None = None
        self._history: dict[tuple, tuple[int, int, dict]] = {}
        self.stats = dict(regions_seen=0, regions_eligible=0, applications=0,
                          fast_forwarded_cycles=0, fast_forwarded_instrs=0,
                          reject_reasons={})
        #: The integer-loop iteration memo; reports under ``loop_*``.
        self.loop = LoopMemo(cluster, self)

    # -- the run loop's hook, while an FREP region is undecided ------------

    def observe(self) -> None:
        """Called at a cycle boundary from the cycle of an ``frep`` (the
        sequencer's ``frep_begun``) on, until the region is decided."""
        seq = self.fp.sequencer
        if seq.frep_begun:
            seq.frep_begun = False
            self.deciding = True
        elif not self.deciding:
            return
        if not seq._active:
            # Seen (and counted) only once its body was buffered.
            self._decide("no-repeat" if self._plan is not None else None)
            return
        if self._plan is None:
            if not seq.body_buffered:
                return
            self.stats["regions_seen"] += 1
            plan = self._analyze()
            if isinstance(plan, str):
                self._decide(plan)
                return
            self.stats["regions_eligible"] += 1
            self._event("fastpath.accept", body_len=seq.body_len,
                        iters=seq.iters)
            if seq.iters * seq.body_len - seq.position < _MIN_REMAINING:
                self._decide("short-region")
                return
            self._plan = plan
        if not self._gate():
            # The steady state is only replayable when the whole window
            # is; any non-quiescent cycle poisons collected evidence.
            self._history.clear()
            return
        if seq.position % seq.body_len:
            # Sample only at iteration boundaries: a periodic steady
            # state recurs at every phase, so matching at one phase
            # loses nothing and divides the bookkeeping cost by the
            # body length.
            return
        fingerprint = self._fingerprint()
        if fingerprint is None:
            self._history.clear()
            return
        cycle, pos = self.cluster.cycle, seq.position
        prev = self._history.get(fingerprint)
        if prev is not None and pos > prev[1]:
            period, dpos = cycle - prev[0], pos - prev[1]
            delta = _since(self.cluster, prev[2])
            if not self._delta_ok(delta):
                self._decide("one-shot-event")
                return
            periods = self._max_periods(delta)
            if periods < 1:
                self._decide("no-whole-period")
            elif not self._apply(period, delta, periods):
                self._decide("apply-refused")
            else:
                self.stats["applications"] += 1
                self.stats["fast_forwarded_cycles"] += periods * period
                self.stats["fast_forwarded_instrs"] += periods * dpos
                self._decide(None)
            return
        if len(self._history) >= _HISTORY_CAP:
            self._decide("no-repeat")
            return
        self._history[fingerprint] = (cycle, pos, _snapshot(self.cluster))

    def _decide(self, reason: str | None) -> None:
        """End the watch on a region: batched, or declined for ``reason``."""
        self.deciding = False
        self._plan = None
        self._history = {}
        if reason is not None:
            reasons = self.stats["reject_reasons"]
            reasons[reason] = reasons.get(reason, 0) + 1
            self._event("fastpath.reject", reason=reason)

    def _event(self, name: str, **args) -> None:
        if _obs.ENABLED:
            _obs.tracer().sim_instant(
                name, "engine", self.cluster.cycle, args=args,
                lane=getattr(self.cluster, "obs_lane", "cluster"))

    # -- quiescence gate -----------------------------------------------------

    def _gate(self) -> bool:
        """True when everything but the FREP region itself is static."""
        cl = self.cluster
        core, fp = self.core, self.fp
        quiescent = (
            core.halted
            or (core.waiting_sync is not None and not fp.sync_ready)
            or fp.queue_space() == 0
        )
        if not quiescent or core.barrier_wait:
            return False
        if core._pending_load_rd is not None or core.port.busy:
            return False
        if not core.halted and core.waiting_sync is None \
                and core.stall_until > cl.cycle:
            return False
        return not fp.lsu.busy and not cl.dma._queue

    # -- eligibility ---------------------------------------------------------

    def _affine_ok(self, streamer, mode: SsrMode) -> bool:
        cfg = streamer.cfg
        if cfg is None or cfg.mode != mode or cfg.indirect \
                or streamer._gen is None:
            return False
        if cfg.base % 8:
            return False
        return all(cfg.strides[d] % 8 == 0 for d in range(cfg.ndims))

    def _analyze(self) -> _BodyPlan | str:
        """The region's body plan, or why it is not eligible."""
        fp = self.fp
        seq = fp.sequencer
        if seq.inner or seq.staggered:
            return "nested-or-staggered-frep"

        body = seq.body_entries()
        L = len(body)
        # The instructions before the first non-vector op are analyzed
        # first: a reason found among them takes precedence.
        n_vec = next((j for j, entry in enumerate(body)
                      if entry.instr.mnemonic not in _VECTOR_OPS), L)
        streamers = fp.streamers if fp.ssr_enable else []
        flow = _data_flow(
            [entry.instr for entry in body[:n_vec]], len(streamers),
            fp.chain.mask,
            {r for r, s in enumerate(streamers)
             if self._affine_ok(s, SsrMode.READ)},
            {r for r, s in enumerate(streamers)
             if self._affine_ok(s, SsrMode.WRITE)})
        if type(flow) is tuple:
            return ("ineligible-operand" if flow[1] == "operand"
                    else "non-affine-write-stream")
        if n_vec < L:
            return "non-vector-op"
        # A chaining push left unmatched would be popped next iteration:
        # a cross-iteration carry the vectorized evaluation cannot model.
        if any(flow.chains.values()):
            return "cross-iteration-chain-carry"
        # A register read before any write in the same iteration carries
        # the previous iteration's value.
        if any(sym[0] == "r" and sym[1] in flow.writers
               for sources in flow.sources for sym in sources):
            return "cross-iteration-register-carry"

        # Element addresses are the loop memo's views of the armings.
        views = {r: self.loop._view(fp.streamers[r])
                 for r in (*flow.pushes, *flow.pops)}
        for r, view in views.items():
            if view is None:
                # The seed path must surface the fault.
                return ("write-stream-out-of-range" if r in flow.pushes
                        else "read-stream-out-of-range")
        # The streams the body writes must not alias anything the body
        # reads (bulk gathers assume stable inputs) or another write
        # stream (bulk scatters assume a single in-order writer).
        spans = [views[r].span for r in flow.pops]
        for r in flow.pushes:
            lo, hi = views[r].span
            if any(lo < hi2 and lo2 < hi for lo2, hi2 in spans):
                return "write-stream-alias"
            spans.append((lo, hi))

        def per_iteration(events: dict) -> dict:
            return {key: (len(where), _prefix(where, L))
                    for key, where in events.items()}

        return _BodyPlan(
            mnemonics=[entry.instr.mnemonic for entry in body],
            sources=flow.sources,
            slot_of={id(entry.instr): j for j, entry in enumerate(body)},
            read_ppi={r: len(where) for r, where in flow.pops.items()},
            read_prefix={r: _prefix(where, L)
                         for r, where in flow.pops.items()},
            write_slots=flow.pushes,
            write_prefix={r: _prefix(where, L)
                          for r, where in flow.pushes.items()},
            chain_pops=per_iteration(flow.chain_pops),
            chain_pushes=per_iteration(flow.chain_pushes),
            reg_writers=flow.writers, views=views)

    # -- structural fingerprint ----------------------------------------------

    def _fingerprint(self) -> tuple | None:
        cl, fp, core = self.cluster, self.fp, self.core
        seq = fp.sequencer
        plan = self._plan
        cycle = cl.cycle
        interleave = cl.tcdm.interleave_bytes

        pipe_part = []
        for op in fp.pipe.in_flight:
            slot = plan.slot_of.get(id(op.instr))
            if slot is None:
                return None  # a pre-loop op is still in flight
            pipe_part.append((slot, op.completes_at - cycle))

        stream_part = []
        for s in fp.streamers:
            if s._igen is not None and not s.done:
                return None  # data-dependent addresses: never periodic
            if s.cfg is None:
                stream_part.append(None)
                continue
            gen = s._gen
            if gen is None:
                stream_part.append(("idone", len(s._fifo)))
                continue
            digits = tuple(gen._idx[d] for d in range(gen.cfg.ndims - 1))
            next_mod = None if gen.exhausted else gen.peek() % interleave
            port = s.data_port
            pending = port._pending
            stream_part.append((
                s.cfg.mode, len(s._fifo), s._rep_count, s._data_requested,
                None if s._pending_write_addr is None
                else s._pending_write_addr % interleave,
                len(s._idx_fifo), digits, next_mod, gen.exhausted,
                pending is not None,
                None if pending is None else pending.addr % interleave,
                port._response_ready,
            ))

        return (
            seq.position % seq.body_len,
            tuple(pipe_part),
            max(fp.pipe._last_completion - cycle, 0),
            fp.chain.mask,
            tuple(fp.chain.valid),
            tuple(fp.fpregs.busy),
            fp.sync_ready,
            len(seq.queue),
            core.halted, core.waiting_sync is not None, core.pc,
            tuple(stream_part),
            cl.tcdm._rr_offset,
        )

    # -- counter windows -----------------------------------------------------

    def _delta_ok(self, delta: dict) -> bool:
        """Refuse windows containing any non-periodic (one-shot) event."""
        if delta["dma"] or any(delta["lsu"]):
            return False
        if any(slot not in _PERIODIC_SLOTS for slot, _ in delta["perf"][0]):
            return False
        used = self._plan.views     # the streams the body reads or writes
        used_ports = {self.fp.streamers[r].data_port for r in used}
        for port, d in zip(self.cluster.tcdm.ports, delta["ports"]):
            if port not in used_ports and any(d):
                return False
        for si, d in enumerate(delta["streamers"]):
            if si not in used and any(d):
                return False
        return True

    def _max_periods(self, delta: dict) -> int:
        seq = self.fp.sequencer
        dpos = delta["pos"]
        if dpos <= 0:
            return 0
        total_pos = seq.body_len * seq.iters
        n = (total_pos - seq.position - 1) // dpos
        for s, d in zip(self.fp.streamers, delta["streamers"]):
            if s._gen is None:
                continue
            # Within an arming a stream issues, per period, the addresses
            # of the elements it moves (its fingerprint fixes the rest).
            dact, dmov, dcons, dprod = d
            if dmov > 0:
                n = min(n, (s._gen.cfg.total_elements()
                            - s._gen.position) // dmov)
            if dcons < 0:
                n = min(n, s._to_consume // -dcons)
            if dprod < 0:
                n = min(n, s._to_produce // -dprod)
        return max(n, 0)

    # -- batch application ---------------------------------------------------

    def _apply(self, period: int, delta: dict, n: int) -> bool:
        """Advance the cluster by ``n`` whole periods.  All consistency
        checks run before the first mutation; on any doubt the method
        returns False and the scalar path simply keeps stepping."""
        cl, fp, plan = self.cluster, self.fp, self._plan
        seq = fp.sequencer
        mem = cl.mem
        L = seq.body_len
        pipe_ops = fp.pipe.in_flight

        pos0 = seq.position
        pos1 = pos0 + n * delta["pos"]
        retired0 = pos0 - len(pipe_ops)
        retired1 = pos1 - len(pipe_ops)
        if retired0 < 0:
            return False

        # Chaining alignment: every pop must match a push from the same
        # iteration.  A pre-loop seeded FIFO would shift the pairing.
        for c, (per_pop, pop_pref) in plan.chain_pops.items():
            per_push, push_pref = plan.chain_pushes.get(c, (0, [0] * L))
            pops = _prefix_f(pos0, per_pop, pop_pref, L)
            pushes = _prefix_f(retired0, per_push, push_pref, L)
            if int(fp.chain.valid[c]) - (pushes - pops) != 0:
                return False

        # Per-stream alignment of pop/push indices with iteration count,
        # and how many iterations the vectorized evaluation must cover.
        at = {r: fp.streamers[r].position() for r in plan.views}
        eval_iters = seq.iters
        pre_pops: dict[int, int] = {}
        for r, ppi in plan.read_ppi.items():
            s = fp.streamers[r]
            init_c = s.cfg.total_elements() * (s.cfg.repeat + 1)
            pre = (init_c - s._to_consume) \
                - _prefix_f(pos0, ppi, plan.read_prefix[r], L)
            if pre < 0:
                return False
            pre_pops[r] = pre
            eval_iters = min(eval_iters, (init_c - pre) // ppi + 1)
        pre_push: dict[int, int] = {}
        for r, wslots in plan.write_slots.items():
            total = fp.streamers[r].cfg.total_elements()
            pre = (total - fp.streamers[r]._to_produce) \
                - _prefix_f(retired0, len(wslots), plan.write_prefix[r], L)
            # Every write before the region's must be in memory.
            if pre < 0 or at[r].here + at[r].data_ready < pre:
                return False
            pre_push[r] = pre
            eval_iters = min(eval_iters, (total - pre) // len(wslots) + 1)
        if (pos1 - 1) // L >= eval_iters:
            return False

        # Gather stream inputs and evaluate the body over the batch.
        elems: dict[int, np.ndarray] = {}
        for r, ppi in plan.read_ppi.items():
            rep = fp.streamers[r].cfg.repeat
            view = plan.views[r]
            elems[r] = mem.gather_f64(view.addr[:min(
                (pre_pops[r] + eval_iters * ppi + rep) // (rep + 1) + 1,
                view.total)])

        results: dict[int, np.ndarray] = {}
        it = np.arange(eval_iters, dtype=np.int64)
        with np.errstate(all="ignore"):
            for j, sources in enumerate(plan.sources):
                ops = []
                for sym in sources:
                    if sym[0] == "o":
                        ops.append(results[sym[1]])
                    elif sym[0] == "e":
                        r, off = sym[1], sym[2]
                        rep = fp.streamers[r].cfg.repeat
                        idx = (pre_pops[r] + it * plan.read_ppi[r] + off) \
                            // (rep + 1)
                        np.minimum(idx, len(elems[r]) - 1, out=idx)
                        ops.append(elems[r][idx])
                    else:
                        ops.append(np.full(eval_iters,
                                           fp.fpregs.values[sym[1]]))
                results[j] = _VECTOR_OPS[plan.mnemonics[j]](*ops)

        def value(g: int) -> float:
            return float(results[g % L][g // L])

        wmat = {r: np.stack([results[j] for j in wslots])
                for r, wslots in plan.write_slots.items()}

        def wvals(r: int, q: np.ndarray) -> np.ndarray:
            p = q - pre_push[r]
            nw = len(plan.write_slots[r])
            return wmat[r][p % nw, p // nw]

        # ---- no more failure paths: mutate ---------------------------------
        dt = n * period
        perf = cl.perf
        _apply_delta(cl, delta, n)

        seq.jump_to(pos1)
        seq.replayed_instrs += n * delta["replayed"]

        for i, op in enumerate(pipe_ops):
            op.value = value(retired1 + i)
        fp.pipe.shift_time(dt)

        for reg, writers in plan.reg_writers.items():
            g = _last_instance(writers, retired1, L)
            if g >= 0:
                fp.fpregs.values[reg] = value(g)

        # Each stream moves on by the elements of ``n`` periods.
        for r, view in plan.views.items():
            here, ready, fill = at[r].here, at[r].data_ready, at[r].fill
            moved = n * delta["streamers"][r][1]
            values = ()
            if r in plan.write_slots:
                # The batch's writes; a granted one is in memory already.
                q = np.arange(here + ready, here + moved + ready)
                mem.scatter_f64(view.addr[q], wvals(r, q))
                values = wvals(r, np.arange(here + moved,
                                            here + moved + fill)).tolist()
            ahead = at[r]._replace(issued=at[r].issued + moved,
                                   here=here + moved)
            fp.streamers[r].place(ahead, view.addr, values)

        cl.cycle += dt
        perf.cycles = cl.cycle
        return True


# ---------------------------------------------------------------------------
# Loop memo: replayed iterations of integer-core loops
# ---------------------------------------------------------------------------
#
# The Fig. 3 stencils never enter FREP: their hot region is an integer
# loop whose body dispatches the FP work.  Following FastSim (Schnarr and
# Larus, ASPLOS 1998) the memo splits each iteration -- the cycles from
# one loop head (a taken backward branch) to the next -- into a core
# side that is replayed and a memory side that is re-simulated:
#
# * **Key**: the core-side control state at the loop head: pc, FP queue
#   and pipe contents, relative completion and ready times, chaining
#   and scoreboard bits, stream repeat phases, the LSU.  No address,
#   value, FIFO fill or TCDM arbitration state enters it.
# * **Value**: recorded by stepping the first time a key is seen: the
#   core-side cycle and counter deltas, the exit key, the integer path
#   with its branch outcomes, the FP data program, and a per-cycle
#   schedule of what the core did to the memory side (stream pops and
#   pushes, LSU accesses) and of every stream observation its timing
#   depended on (an operand FIFO holding enough elements, a write FIFO
#   with room).
# * **Hit**: the memory side -- stream FIFO fills, index fetches, port
#   requests, bank conflicts, round robin -- is re-simulated cycle by
#   cycle on counters (no values) against the schedule, from the current
#   stream positions, index array and LSU addresses.  The recorded core
#   timing stands exactly when every logged observation comes out the
#   same; otherwise the iteration is stepped.  Recordings of one key
#   share their schedule up to the first observation that tells them
#   apart, so one pass walks them as a decision tree.  Matching logged
#   bank patterns instead would pin whole iterations to the bank phases
#   of the indirect stream, which recur too rarely (docs/performance.md).
# * **Data**: values follow program order whatever the timing (the
#   scoreboard and the chaining valid bits enforce it), so a hit runs the
#   iteration's FP operations -- the scalar executors, in issue order --
#   over a virtual register, pipe and FIFO state.  Hits chain through
#   their exit keys; the machine is written once when a run ends, each
#   stream placed at the position its memory side reached.
#
# Anything outside that model declines with a counted reason and steps:
# SCFG/CSR/FREP/DMA/barrier/integer memory/FP-to-integer instructions, a
# busy DMA, a store that can reach the run's reads, an
# address out of range, or an iteration longer than the record cap.

#: Recorded iterations kept per control key (one per stream behaviour
#: seen); a key whose ways are all taken just steps on a miss.
_MEMO_WAYS = 64
#: Control keys kept per cluster before recording stops.
_MEMO_KEYS = 4096
#: Longest iteration, in cycles, that is recorded.
_MEMO_MAX_CYCLES = 4096
#: Loop heads a cluster passes before the memo looks at any.  Even with
#: cheap recordings a warm-up of 24, 16 or 4 made the 2x4x16 stencil
#: points (31 heads each) 3-7%, 10-12% and 9-13% slower, while the
#: Fig. 3 points (440-560 heads) gained 3-5% (docs/performance.md,
#: "Recording policy").
_MEMO_WARMUP = 32
#: Recording budget: ``_MEMO_FREE + _MEMO_PACE * hits`` (docs/performance.md
#: has the measurements behind these values).
_MEMO_FREE = 4
_MEMO_PACE = 2
_MASK32 = 0xFFFFFFFF

#: Decline reasons tied to one iteration's data, not to its key: the
#: key stays recordable.
_TRANSIENT = frozenset({"long-iteration", "unproven"})

# The memory-side simulation's per-stream state is a list: the stream's
# position (the fields of a ``repro.ssr.streamer.StreamPosition``), then
# the active-cycle, read, write and conflict counters.
#: Counters whose movement in an iteration declines it, with the reason.
_MEMO_DECLINES = (("frep_ops", "frep"), ("fp_csr_ops", "csr"),
                  ("dma_transfers", "dma"), ("barriers", "barrier"))
_S_INT_INSTRS = SLOT["int_instrs"]
_S_COMPUTE = SLOT["fpu_compute_ops"]
_S_FP_LSU = SLOT["fp_lsu_ops"]


def _fp_kind(instr) -> str:
    """``"c"`` (FP compute), ``"l"`` (fld), ``"s"`` (fsd) or the reason
    the memo declines the instruction."""
    iclass = instr.iclass
    if iclass is InstrClass.FP_LOAD:
        return "l"
    if iclass is InstrClass.FP_STORE:
        return "s"
    if iclass in (InstrClass.FREP, InstrClass.CSR, InstrClass.SCFG):
        return iclass.name.lower()
    spec = instr.spec
    if spec.rd_domain != "f":
        return "fp-to-int"
    if spec.rs1_domain == "x":
        return "int-to-fp"
    if iclass in UNPIPELINED_CLASSES:
        return "unpipelined-op"
    return "c"


def _exec_int(op: tuple, regs: list) -> bool:
    """Apply one recorded integer op; False when a branch or an indirect
    jump would leave the recorded path, or an ``scfgw`` would write
    another stream field or arm another configuration."""
    code = op[0]
    if code == 0:
        if op[1]:
            regs[op[1]] = op[2](regs[op[3]], regs[op[4]]) & _MASK32
    elif code == 1:
        if op[1]:
            regs[op[1]] = op[2](regs[op[3]], op[4]) & _MASK32
    elif code == 2:
        if op[1]:
            regs[op[1]] = op[2]
    elif code == 3:
        return bool(op[1](regs[op[2]], regs[op[3]])) == op[4]
    elif code == 5:
        if (regs[op[1]] + op[2]) & ~1 != op[3]:
            return False
        if op[4]:
            regs[op[4]] = op[5]
    elif code == 7:
        return regs[op[2]] == op[3] and (op[4] is None
                                         or regs[op[1]] == op[4])
    return True


#: Schedule entries by stream context (nstream, repeat counts, FIFO
#: depths) and cycle situation (see LoopMemo._schedule), shared by
#: every cluster of the process; a context is dropped past the cap.
_SITUATIONS: dict[tuple, dict] = {}
_SITUATIONS_CAP = 1 << 16
#: Numbers for the ``((stream, pops), ...)`` an FP issue reads (the
#: situations name the queue head's by number); ``{(): 0}`` is no read.
_USES: dict[tuple, int] = {(): 0}
_USE_LIST: list[tuple] = [()]


def _situation(k: tuple, context: tuple, cache: dict) -> tuple:
    """The schedule entry of one cycle situation ``k``, stored in
    ``cache``.  ``k`` holds per stream the pops, then the pushes, the
    LSU access, the number (:data:`_USES`) of the queue head's stream
    reads, per stream the FIFO fill, then (with repeats in the context)
    the repeat phase, the stream whose write the pipe head would retire
    (or -1), and whether an early stall happened.  None when a check
    reads a stream that is not an armed read, pushes into one that is
    not an armed write, or tests a stream that re-arms (negative
    pops)."""
    _, repeats, depths, modes = context
    n = len(depths)
    fills = k[2 * n + 2:3 * n + 2]
    checks = ()
    for si, uses in _USE_LIST[k[2 * n + 1]]:
        fill = fills[si]
        if uses == 1 or not fill:
            ok = fill > 0
        else:
            # SsrStreamer.available_pops at the logged repeat phase.
            per = repeats[si] + 1
            phase = k[3 * n + 2 + si] if any(repeats) else 0
            ok = per - phase + (fill - 1) * per >= uses
        checks += ((si, uses, ok),)
    dest = k[-2]
    if dest >= 0:
        checks += ((dest, 0, fills[dest] < depths[dest]),)
    if k[-1]:
        checks = tuple(c for c in checks if not c[1])
    for si, uses, _ in checks:
        if modes[si] != (SsrMode.WRITE if not uses else SsrMode.READ) \
                or k[si] < 0:
            return None
    entry = cache[k] = (k[:n], k[n:2 * n], k[2 * n],
                        tuple(c[:2] for c in checks),
                        tuple(c[2] for c in checks), checks)
    return entry


class _Recording:
    """Loop-head state of an iteration being recorded, and its per-cycle
    log (one row per cycle boundary, see :data:`repro.core.cycle.ROW`)
    up to the ``deadline`` cycle."""

    __slots__ = ("key", "cycle", "snap", "iregs", "pc", "queue", "pipe",
                 "cfgs", "arms", "log", "deadline")
    key: tuple
    cycle: int
    snap: dict
    iregs: list
    pc: int
    queue: list
    pipe: list
    cfgs: list                  # each stream's configuration
    arms: tuple                 # (dispatch index, stream) per re-arm
    log: list
    deadline: int


def _same_but_base(a, b) -> bool:
    """Whether stream configurations ``a`` and ``b`` differ at most in
    their base."""
    return b is not None and replace(a, base=b.base) == b


@dataclass(slots=True)
class _Shape:
    """The data side of a recorded iteration, shared by every recording
    with the same loop-head structure and issue sequence."""

    program: tuple              # slot-numbered FP data program
    lsu_issued: tuple           # kinds of the LSU entries issued
    lsu_entry: bool             # the loop-head LSU op belongs here
    lsu_busy: bool              # the last LSU op is busy at exit
    reads: tuple                # (si, from the re-armed window, elements
    #                             consumed), per stream and window


class _Walk:
    """The loop-head data flow of one FP entry stream, numbered once for
    every issue count (see :meth:`LoopMemo._walk`).  Codes: pipe values,
    registers, the loop-head load (``l0``), each stream's pops in stream
    order, the loads, then the results."""

    __slots__ = ("limit", "pipe", "l0", "pops", "nloads", "ncomp", "ops",
                 "comp", "lsu", "comp_at", "lsu_at")
    limit: int                  # entries inside the model
    pipe: list                  # loop-head pipe ops: (is_stream, dest,
    #                             code, order)
    l0: int
    pops: dict                  # stream -> popping entry, once per pop
    nloads: int
    ncomp: int
    ops: list                   # per result: (executor, operand codes)
    comp: list                  # per result: (is_stream, dest, code,
    #                             entry)
    lsu: list                   # per load or store: (kind, dest, code,
    #                             entry); a store's code is its data
    comp_at: list               # entry of each result, and of each
    lsu_at: list                # LSU op (for bisection)


@dataclass(slots=True)
class _Iter:
    """One recorded iteration: the memo value for a control key."""

    dt: int
    delta: dict                 # core-side _since
    exit_key: tuple | None      # None: the next loop head is declined
    exit: dict                  # exit control state for materialising
    shape: Any                  # _Shape, or its inputs until first hit
    int_ops: tuple              # integer path, branch outcomes included
    ready_rel: tuple            # (reg, ready cycle - exit cycle)
    stall_rel: int
    last_rel: int | None        # pipe._last_completion - exit cycle
    pipe_rel: tuple             # per exit op: rel to exit, or (index,)
    schedule: tuple             # per cycle: (pops and pushes per stream,
    #                             LSU access, checks, expected outcomes,
    #                             (stream, pops, expected) triples)


class _Node:
    """A decision tree over the recorded iterations of one key and one
    integer path.  They share their schedule up to the first stream
    observation that tells them apart: before ``split`` any of them
    (``rep``) stands for all; at ``split`` the observed outcomes pick a
    child.  A leaf (``split`` None) holds one iteration.  A child's part
    of the schedule starts at its parent's split (``start``); ``seg``
    keeps that part as the simulator walks it (see :func:`_segment`)."""

    __slots__ = ("split", "rep", "children", "start", "seg")

    def __init__(self, it, split=None, children=None, start=0):
        self.rep = it
        self.split = split
        self.children = children
        self.start = start
        self.seg = None


def _insert(node: _Node, it: _Iter) -> bool:
    """Add ``it`` to the tree; False when an iteration with the same
    observations is already there."""
    start = 0
    while True:
        rep = node.rep
        end = min(rep.dt, it.dt) if node.split is None else node.split
        a, b = rep.schedule, it.schedule
        for cycle in range(start, end):
            if a[cycle][4] != b[cycle][4]:
                node.children = {
                    a[cycle][4]: _Node(rep, node.split, node.children,
                                       cycle),
                    b[cycle][4]: _Node(it, start=cycle)}
                node.split = cycle
                node.seg = None
                return True
        if node.split is None:
            return False
        start = node.split
        child = node.children.get(b[start][4])
        if child is None:
            node.children[b[start][4]] = _Node(it, start=start)
            return True
        node = child


class _View:
    """Every element address and bank of one armed stream: the one
    source of a stream's addresses for the FREP batch and the memo."""

    __slots__ = ("base", "total", "addr", "idx", "banks", "ibanks",
                 "span", "ispan")
    base: int
    total: int
    addr: Any                   # element byte addresses (numpy int64)
    idx: Any                    # index values of an indirect stream
    banks: Any                  # bank of each element, indexable (None
    #                             until a replay needs them)
    ibanks: Any                 # bank of each index element
    span: tuple                 # [lo, hi) bytes the elements cover
    ispan: tuple | None


def _banks(addr, tcdm):
    """The bank of each byte address in ``addr``, indexable: as bytes
    (compact, and indexing yields ints) for up to 256 banks."""
    banks = addr // tcdm.bank_width % tcdm.num_banks
    return banks.astype(np.uint8).tobytes() if tcdm.num_banks <= 256 \
        else banks.tolist()


class _Run:
    """Virtual machine state across one run of memo hits."""

    __slots__ = ("start", "cycle", "ir", "iready", "stall", "lsuq",
                 "lsu_op", "pv", "pcomp", "last_comp", "rv", "pushed",
                 "moved0", "mem", "rr", "tcdm", "order", "views",
                 "windows", "shadow", "armed", "sim", "counts", "st_writes",
                 "ws_writes", "reads", "writes", "ld_range", "st_range",
                 "hits", "last")
    start: int
    cycle: int
    ir: list                    # integer registers
    iready: dict                # register -> ready cycle, when rewritten
    stall: int
    lsuq: deque                 # addresses of queued fld/fsd entries
    lsu_op: Any                 # [kind, addr, value] of the busy LSU op
    pv: list                    # in-flight pipe values
    pcomp: list                 # their completion cycles
    last_comp: int
    rv: list                    # retired FP register values
    pushed: dict                # write stream -> [first element, values]
    moved0: dict                # stream -> elements moved at run start
    mem: list                   # memory-side state per stream
    rr: int
    tcdm: list                  # [accesses, conflicts] added
    order: list                 # (stream, mode) of armed streams
    views: list
    windows: tuple              # the banks, index banks and totals the
    #                             simulator reads, per stream
    shadow: dict                # read stream -> (base it re-arms on,
    #                             CTRL value that keeps it), or None
    #                             when it cannot re-arm
    armed: set                  # streams re-armed in the run
    sim: Any
    counts: dict
    st_writes: list
    ws_writes: list
    reads: list
    writes: list
    ld_range: Any
    st_range: Any
    hits: int
    last: Any


class LoopMemo:
    """Iteration memo for the integer-core loops of the cluster's core."""

    def __init__(self, cluster, engine: FastPathEngine):
        self.cluster = engine.cluster
        self.core = cluster.core
        self.fp = cluster.fp
        self.tcdm = cluster.tcdm
        self.stats = stats = engine.stats
        stats.update(loop_regions_seen=0, loop_hits=0, loop_misses=0,
                     loop_cycles=0, loop_recordings=0,
                     loop_recorded_cycles=0, loop_reject_reasons={})
        #: key -> {id(integer path): [path ops, decision tree, ways]}
        self._table: dict[tuple, dict] = {}
        #: Keys whose recording declined, with the reason.
        self._dead: dict[tuple, str] = {}
        #: Keys seen once, not yet recorded.
        self._seen: set[tuple] = set()
        self._recordings = 0
        self._kinds: dict[int, str] = {}
        #: nstream -> {id(instr): _stream_uses}
        self._uses: dict[int, dict] = {}
        self._paths: dict[tuple, tuple] = {}
        self._shapes: dict[tuple, _Shape] = {}
        self._views: dict[int, tuple] = {}
        #: Numbered data-flow walks by integer path and loop-head layout.
        self._flows: dict[tuple, _Walk] = {}
        self._rec: _Recording | None = None
        self.core.memo_heads = True

    def reset(self) -> None:
        """Forget every recorded iteration: the program changed, or it
        ran to completion and the tables would only hold memory."""
        self._stop_recording()
        self._recordings = 0
        for table in (self._table, self._dead, self._seen, self._kinds,
                      self._uses, self._paths, self._shapes, self._views,
                      self._flows):
            table.clear()

    def _decline(self, reason: str) -> None:
        reasons = self.stats["loop_reject_reasons"]
        reasons[reason] = reasons.get(reason, 0) + 1

    # -- the loop-head hook ---------------------------------------------------

    def at_head(self, limit: int) -> None:
        """Called at a cycle boundary right after a taken backward
        branch: close a recording, replay what the memo can, then start
        recording the iteration that steps next."""
        self.core.loop_head = False
        stats = self.stats
        stats["loop_regions_seen"] += 1
        if stats["loop_regions_seen"] <= _MEMO_WARMUP:
            # Nothing is recorded yet, so there is no key to look up.
            self._decline("warm-up")
            return
        key = self._finish_recording() if self._rec is not None \
            else self._key()
        if key in self._table:
            key = self._replay(key, limit)
            if key is None:
                key = self._key()
        if isinstance(key, str):
            self._decline(key)
            return
        reason = self._dead.get(key)
        if reason is not None:
            self._decline(reason)
            return
        stats["loop_misses"] += 1
        # Recording costs about a stepped iteration again, so it must pay
        # for itself: a key records from its second sighting on, and a
        # cluster makes at most _MEMO_FREE + _MEMO_PACE x hits recordings.
        if self._recordings >= _MEMO_FREE + _MEMO_PACE * stats["loop_hits"]:
            self._seen.add(key)
            return
        paths = self._table.get(key)
        if paths is None:
            if key not in self._seen:
                self._seen.add(key)
                return
            if len(self._table) >= _MEMO_KEYS:
                return
        elif sum(p[2] for p in paths.values()) >= _MEMO_WAYS:
            return
        self._recordings += 1
        self._start_recording(key)

    # -- control key ----------------------------------------------------------

    def _kind(self, instr) -> str:
        kind = self._kinds.get(id(instr))
        if kind is None:
            kind = self._kinds[id(instr)] = _fp_kind(instr)
        return kind

    def _stream_uses(self, instr, nstream: int) -> tuple:
        """``((stream, pops), ...)`` an issue of ``instr`` reads (none
        for no instruction)."""
        regs = [reg for reg, domain in _operands(instr)
                if domain == "f" and reg < nstream] \
            if instr is not None and self._kind(instr) in ("c", "s") else []
        return tuple((reg, regs.count(reg)) for reg in sorted(set(regs)))

    def _key(self):
        """The core-side control key at a loop head, or why the memo
        declines it."""
        cl, core, fp = self.cluster, self.core, self.fp
        if cl.dma._queue:
            return "dma-busy"
        if core.waiting_sync is not None or fp.sync_ready:
            return "fp-to-int"
        if core.barrier_wait or core.halted:
            return "barrier"
        port = core.port
        if core._pending_load_rd is not None or port._pending is not None \
                or port._response_ready:
            return "int-load-store"
        seq = fp.sequencer
        if seq._active:
            return "frep"
        lsu = fp.lsu
        lport = lsu.port
        if lsu._blocked_value is not None or lport._pending is not None:
            return "unproven"
        chain = fp.chain
        mask = chain.mask
        nstream = fp._num_streamers if fp.ssr_enable else 0
        queue = []
        for entry in seq.queue:
            instr = entry.instr
            kind = self._kind(instr)
            if len(kind) > 1:
                return kind
            if entry.sync:
                return "fp-to-int"
            if kind == "l" and (mask >> instr.rd & 1 or instr.rd < nstream):
                return "unproven"
            queue.append(id(instr))
        now = cl.cycle
        pipe = []
        for op in fp.pipe.in_flight:
            if op.sync:
                return "fp-to-int"
            if op.unpipelined:
                return "unpipelined-op"
            rel = op.completes_at - now
            pipe.append((id(op.instr), op.dest, op.dest_is_ssr,
                         rel if rel > 0 else 0))
        streams = []
        for s in fp.streamers:
            cfg = s.cfg
            if cfg is None:
                streams.append(None)
                continue
            if cfg.indirect and cfg.mode == SsrMode.WRITE:
                return "indirect-write"
            if not cfg.indirect and (s.idx_port._pending is not None
                                     or s.idx_port._response_ready):
                return "unproven"
            streams.append((cfg.mode, cfg.indirect, cfg.repeat,
                            s._rep_count))
        pending_load = lsu._pending_load
        ready = core.regs.ready_cycle
        last = fp.pipe._last_completion - now
        stall = core.stall_until - now
        return (
            core.pc, tuple(queue), tuple(pipe), last if last > -1 else -1,
            mask, tuple(chain.valid), tuple(fp.fpregs.busy),
            fp.ssr_enable, tuple(streams),
            None if pending_load is None else pending_load.dest,
            lsu._pending_store, lport._response_ready,
            stall if stall > 0 else 0,
            tuple(r - now if r > now else 0 for r in ready))

    # -- recording ------------------------------------------------------------

    def _start_recording(self, key: tuple) -> None:
        cl, core, fp = self.cluster, self.core, self.fp
        rec = _Recording()
        rec.key = key
        rec.cycle = cl.cycle
        rec.snap = _snapshot(cl)
        rec.iregs = list(core.regs.values)
        rec.pc = core.pc
        rec.queue = list(fp.sequencer.queue)
        rec.pipe = [(op.instr, op.dest, op.dest_is_ssr)
                    for op in fp.pipe.in_flight]
        rec.cfgs = [s.cfg for s in fp.streamers]
        rec.log = []
        rec.deadline = cl.cycle + _MEMO_MAX_CYCLES
        self._rec = rec
        self.stats["loop_recordings"] += 1
        # The cluster steps on the recording variant of its cycle from now.
        cl._loop = None

    def _stop_recording(self) -> None:
        rec = self._rec
        if rec is not None:
            self._rec = None
            cl = self.cluster
            cl._loop = None
            # perf.cycles: the clock also inside a stepped-cycle loop.
            self.stats["loop_recorded_cycles"] += cl.perf.cycles - rec.cycle

    def _overrun(self) -> None:
        """The recorder reached :data:`_MEMO_MAX_CYCLES`."""
        self._stop_recording()
        self._decline("long-iteration")

    def _finish_recording(self):
        """Store the iteration that just ended; returns the current key
        (or the reason the memo declines it)."""
        rec = self._rec
        self._stop_recording()
        key = self._key()
        result = self._build(rec, key)
        if isinstance(result, str):
            self._decline(result)
            if rec.key not in self._table and result not in _TRANSIENT:
                self._dead[rec.key] = result
        else:
            paths = self._table.setdefault(rec.key, {})
            entry = paths.get(id(result.int_ops))
            if entry is None:
                paths[id(result.int_ops)] = [result.int_ops,
                                             _Node(result), 1]
            elif _insert(entry[1], result):
                entry[2] += 1
        return key

    def _int_path(self, rec: _Recording, n_int: int):
        """The integer instructions of the iteration, replayed from the
        loop-head registers: ``(ops, dispatched, written, arms)`` or a
        reason.  An ``scfgw`` of a stream's BASE or CTRL is an op that
        carries its config address, and for CTRL the value, since they
        decide what it arms; ``arms`` holds ``(dispatch index, stream)``
        of each CTRL write.  Paths are cached by (pc, length) and
        re-verified on reuse."""
        from repro.core.int_core import _ALU_OPS, _BRANCH_OPS, \
            _IMM_TO_ALU, IntCore
        from repro.isa.instructions import InstrClass

        core = self.core
        cached = self._paths.get((rec.pc, n_int))
        if cached is not None:
            regs = list(rec.iregs)
            if all(op[0] == 6 or _exec_int(op, regs) for op in cached[0]) \
                    and regs == core.regs.values:
                return cached
        program = core.program
        instrs = program.instrs
        regs = list(rec.iregs)
        pc = rec.pc
        ops = []
        dispatched = []
        written = set()
        arms = []
        for _ in range(n_int):
            index = (pc - program.base) // 4
            if pc % 4 or not 0 <= index < len(instrs):
                return "unproven"
            instr = instrs[index]
            iclass = instr.iclass
            mn = instr.mnemonic
            rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
            if instr.is_fp:
                kind = self._kind(instr)
                if kind == "scfg" and mn == "scfgw":
                    ssr, field = split_cfg_addr(regs[rs2])
                    if field == CfgField.CTRL:
                        arms.append((len(dispatched), ssr))
                    elif field != CfgField.BASE:
                        return kind
                    ops.append((7, rs1, rs2, regs[rs2], regs[rs1]
                                if field == CfgField.CTRL else None))
                elif len(kind) > 1:
                    return kind
                elif kind != "c":
                    ops.append((6, rs1, imm))
                dispatched.append(instr)
                pc += 4
                continue
            if iclass in (InstrClass.INT_ALU, InstrClass.INT_MUL,
                          InstrClass.INT_DIV):
                if mn in ("lui", "auipc"):
                    value = (imm << 12) & _MASK32
                    if mn == "auipc":
                        value = (value + pc) & _MASK32
                    op = (2, rd, value)
                else:
                    base_mn = _IMM_TO_ALU.get(mn, mn)
                    if iclass is InstrClass.INT_MUL:
                        fn = (lambda m: lambda a, b: IntCore._mul(m, a, b)
                              )(base_mn)
                    elif iclass is InstrClass.INT_DIV:
                        fn = (lambda m: lambda a, b: IntCore._div(m, a, b)
                              )(base_mn)
                    else:
                        fn = _ALU_OPS[base_mn]
                    op = (1, rd, fn, rs1, imm) if mn in _IMM_TO_ALU \
                        else (0, rd, fn, rs1, rs2)
                pc += 4
            elif iclass is InstrClass.BRANCH:
                fn = _BRANCH_OPS[mn]
                taken = bool(fn(regs[rs1], regs[rs2]))
                op = (3, fn, rs1, rs2, taken)
                pc += imm if taken else 4
            elif iclass is InstrClass.JUMP:
                link = (pc + 4) & _MASK32
                if mn == "jal":
                    op = (2, rd, link)
                    pc += imm
                else:
                    target = (regs[rs1] + imm) & ~1
                    op = (5, rs1, imm, target, rd, link)
                    pc = target
            elif iclass in (InstrClass.LOAD, InstrClass.STORE):
                return "int-load-store"
            else:
                return iclass.name.lower()
            _exec_int(op, regs)
            target_reg = op[4] if op[0] == 5 else op[1]
            if op[0] != 3 and target_reg:
                written.add(target_reg)
            ops.append(op)
        if pc != core.pc or regs != core.regs.values:
            return "unproven"
        path = (tuple(ops), tuple(dispatched), tuple(sorted(written)),
                tuple(arms))
        self._paths[(rec.pc, n_int)] = path
        return path

    def _build(self, rec: _Recording, exit_key):
        """Turn a stepped iteration into a memo value (or a reason)."""
        cl, core, fp = self.cluster, self.core, self.fp
        now = cl.cycle
        dt = now - rec.cycle
        if dt > _MEMO_MAX_CYCLES:
            return "long-iteration"
        lsu = fp.lsu
        if lsu.port._pending is not None:
            return "unproven"
        delta = _since(cl, rec.snap)
        counters = dict(delta["perf"][0])
        # The last two counters are interned on first use, not in SLOT.
        slot_of = cl.perf._slot_of
        for name, reason in _MEMO_DECLINES:
            if counters.get(slot_of.get(name)):
                return reason
        if delta["dma"]:
            return "dma-busy"
        # Only an FREP batch (declined above) jumps cycles unlogged.
        if len(rec.log) != dt + 1:
            return "long-iteration"
        path = self._int_path(rec, counters.get(_S_INT_INSTRS, 0))
        if isinstance(path, str):
            return path
        int_ops, dispatched, written, arms = path
        n_scfg = counters.get(slot_of.get("scfg_ops"), 0)
        if (n_scfg or any(op[0] == 7 for op in int_ops)) \
                and not self._rearms(rec, int_ops, n_scfg):
            return "scfg"

        # The FP side issues in queue order.
        n_issue = counters.get(_S_COMPUTE, 0) + counters.get(_S_FP_LSU, 0) \
            + n_scfg
        stream = [e.instr for e in rec.queue] + list(dispatched)
        queue = fp.sequencer.queue
        rest = stream[n_issue:]
        if len(rest) != len(queue) or any(
                instr is not e.instr for instr, e in zip(rest, queue)):
            return "unproven"
        key = rec.key
        signature = (id(path), n_issue, key[1],
                     tuple(op[:3] for op in key[2]), key[4], key[5], key[7],
                     key[8], key[9], key[10], len(fp.pipe.in_flight),
                     lsu.busy)
        # The data side is worked out on the iteration's first hit: a
        # third of the recordings never replay.
        shape = self._shapes.get(signature) or (
            signature, rec.key, len(rec.pipe), stream, n_issue,
            delta["streamers"], len(fp.pipe.in_flight), lsu.busy,
            tuple((len(rec.queue) + j, si, rec.cfgs[si]) for j, si in arms))

        rec.arms = arms
        schedule = self._schedule(rec, fp._num_streamers if key[7] else 0)
        if isinstance(schedule, str):
            return schedule

        # The memory side's own counters come from re-simulation.
        stream_ports = {id(s.data_port) for s in fp.streamers} \
            | {id(s.idx_port) for s in fp.streamers}
        # The schedule has the LSU granted when it posts (see _simulator).
        if delta["ports"][cl.tcdm._ports.index(lsu.port)][2]:
            return "unproven"
        delta["ports"] = [(0, 0, 0) if id(port) in stream_ports else d
                          for port, d in zip(cl.tcdm.ports, delta["ports"])]
        delta["tcdm"] = (0, 0, 0)
        delta["streamers"] = [(0, 0, d[2], d[3])
                              for d in delta["streamers"]]

        ready = core.regs.ready_cycle
        pipe1 = fp.pipe.in_flight
        pipe_rel = []
        entry_ops = len(rec.pipe)
        n_compute = counters.get(_S_COMPUTE, 0)
        for i, op in enumerate(pipe1):
            # Exit op i is the (entry + issued - exit + i)-th pipe op.
            index = entry_ops + n_compute - len(pipe1) + i
            pipe_rel.append((index,) if index < entry_ops
                            else op.completes_at - now)
        chain = fp.chain
        exit_state = {
            "pc": core.pc,
            "queue": list(queue),
            "pipe": [(op.instr, op.dest, op.dest_is_ssr) for op in pipe1],
            "valid": list(chain.valid),
            "popped": set(chain._popped_this_cycle),
            "busy": list(fp.fpregs.busy),
            "pending_load": lsu._pending_load,
            "pending_store": lsu._pending_store,
            "lsu_response": lsu.port._response_ready,
        }
        return _Iter(
            dt=dt, delta=delta,
            exit_key=None if isinstance(exit_key, str) else exit_key,
            exit=exit_state, shape=shape, int_ops=int_ops,
            ready_rel=tuple((r, ready[r] - now) for r in written),
            stall_rel=core.stall_until - now,
            last_rel=fp.pipe._last_completion - now if n_compute else None,
            pipe_rel=tuple(pipe_rel), schedule=schedule)

    def _rearms(self, rec: _Recording, int_ops: tuple, n_scfg: int) -> bool:
        """Whether the ``scfgw`` of the iteration only re-arm read streams
        on new windows: each of them issued within it, a CTRL write arms
        a stream at most once and leaves its configuration as it was but
        for the base, and a BASE write precedes the CTRL write of its
        stream."""
        writes = [op for op in int_ops if op[0] == 7]
        if len(writes) != n_scfg:
            return False
        based = set()
        armed = set()
        for _, _, _, addr, ctrl in writes:
            si = split_cfg_addr(addr)[0]
            if ctrl is None:
                based.add(si)
                continue
            old, new = rec.cfgs[si], self.fp.streamers[si].cfg
            if si in armed or old is None or old.mode != SsrMode.READ \
                    or not _same_but_base(old, new):
                return False
            armed.add(si)
            based.discard(si)
        return not based

    def _schedule(self, rec: _Recording, nstream: int):
        """Per cycle of the recorded iteration, from consecutive log
        rows: what the core did to the memory side (pops and pushes per
        stream, the LSU access), and which stream observations its
        timing rested on with their outcomes (see :class:`_Iter`).  An
        operand check counts only when the FP step got as far as the
        stream test, i.e. took no early stall.  Most cycles repeat a few
        situations -- the flat tuple of a cycle's raw facts, with the
        queue head's instruction reduced to the streams it reads -- so
        entries are shared through :data:`_SITUATIONS`.  A stream that
        re-arms (``rec.arms``) must do so in exactly one cycle."""
        log = rec.log
        arms = rec.arms
        streamers = self.fp.streamers
        n = len(streamers)
        cols = list(zip(*log))
        lsu, early, heads, ops = cols[4 * n:]
        uses = self._uses.get(nstream)
        if uses is None:
            uses = self._uses[nstream] = {}
        instrs = dict(zip(map(id, heads), heads))
        for new in instrs.keys() - uses.keys():
            reads = self._stream_uses(instrs[new], nstream)
            code = _USES.get(reads)
            if code is None:
                code = _USES[reads] = len(_USE_LIST)
                _USE_LIST.append(reads)
            uses[new] = code
        # Checks also depend on the streams' modes, repeat counts and
        # depths; without repeats every phase is 0 and stays out of the
        # key.
        repeats = tuple(st and st[2] for st in rec.key[8])
        context = (nstream, repeats, tuple(s.fifo_depth for s in streamers),
                   tuple(st and st[0] for st in rec.key[8]))
        # The LSU count and the early stalls only move one way within an
        # iteration that gets this far (a batch would have declined it),
        # so a column whose ends agree is constant; so are the owed reads
        # and writes, unless a stream re-arms.
        dt = len(log) - 1
        base = lsu[0]
        situations = zip(
            *[map(sub, c, c[1:]) if c[0] != c[-1] or arms else repeat(0, dt)
              for c in cols[:2 * n]],
            [a - base if a != b else -1 for a, b in zip(lsu, lsu[1:])]
            if base != lsu[-1] else repeat(-1, dt),
            map(uses.__getitem__, map(id, heads)),
            *cols[2 * n:(4 if any(repeats) else 3) * n],
            [op.dest if op is not None and op.dest_is_ssr
             and op.completes_at <= cycle else -1
             for op, cycle in zip(ops, range(rec.cycle, rec.cycle + dt))],
            map(ne, early, early[1:]) if early[0] != early[-1]
            else repeat(False, dt))
        cache = _SITUATIONS.get(context)
        if cache is None or len(cache) > _SITUATIONS_CAP:
            cache = _SITUATIONS[context] = {}
        get = cache.get
        schedule = tuple([get(k) or _situation(k, context, cache)
                          for k in situations])
        # Each re-arm shows as owed pops that grow, once.
        if None in schedule or any(
                sum(entry[0][si] < 0 for entry in schedule) != 1
                for _, si in arms):
            return "unproven"
        return schedule

    def _walk(self, signature: tuple, key: tuple, stream: list):
        """The data flow of ``stream`` from the loop-head state, every
        symbol numbered (a :class:`_Walk`).  An entry's operands are
        named from the entries before it alone, so one walk of the whole
        stream serves every issue count that the integer path, the
        loop-head queue and the layout recur with."""
        walk_key = (signature[0], *signature[2:7],
                    tuple(st and st[0] for st in key[8]), key[9])
        walk = self._flows.get(walk_key)
        if walk is None:
            walk = self._flows[walk_key] = self._number(key, stream)
        return walk

    def _number(self, key: tuple, stream: list):
        """Walk ``stream`` (:func:`_data_flow`) and number its symbols:
        pipe values, registers, the loop-head load, each stream's pops,
        the loads, then the results."""
        from repro.core.fpu import EXECUTORS

        fp = self.fp
        streams = key[8]
        mask = key[4]
        valid0 = key[5]
        nstream = fp._num_streamers if key[7] else 0
        n_entry = len(key[2])
        nregs = len(fp.fpregs.values)

        # Loop-head data symbols: ("p", i) pipe value, ("r", reg)
        # retired register, ("l0",) the loop-head load.
        regs = {}
        chains = {r: [("r", r)] if valid0[r] else []
                  for r in range(len(valid0)) if mask >> r & 1}
        if key[9] is not None:
            regs[key[9]] = ("l0",)
        walk = _Walk()
        walk.pipe = []
        for i, (_, dest, is_ssr, _) in enumerate(key[2]):
            sym = ("p", i)
            if not is_ssr:
                if mask >> dest & 1:
                    chains[dest].append(sym)
                else:
                    regs[dest] = sym
            walk.pipe.append((is_ssr, dest, i, i - n_entry))
        readable = {si for si, st in enumerate(streams)
                    if st is not None and st[0] == SsrMode.READ}
        writable = {si for si, st in enumerate(streams)
                    if st is not None and st[0] == SsrMode.WRITE}
        flow = _data_flow(stream, nstream, mask, readable, writable, regs,
                          chains)
        walk.limit = len(stream)
        if type(flow) is tuple:
            # Entries before the failing one are still in the model.
            walk.limit = flow[0]
            flow = _data_flow(stream[:walk.limit], nstream, mask, readable,
                              writable, regs, chains)

        code = {("p", i): i for i in range(n_entry)}
        code.update((("r", r), n_entry + r) for r in range(nregs))
        code[("l0",)] = walk.l0 = n_entry + nregs
        base = walk.l0 + 1
        walk.pops = {}
        for si, entries in sorted(flow.pops.items()):
            walk.pops[si] = entries
            code.update((("e", si, k), base + k)
                        for k in range(len(entries)))
            base += len(entries)
        kinds = [self._kinds[id(instr)] for instr in stream[:walk.limit]]
        walk.nloads = kinds.count("l")
        walk.ncomp = kinds.count("c")
        loads, results = base, base + walk.nloads
        walk.ops = []           # (executor, operand codes) per result
        walk.comp = []          # (is_stream, dest, code, order)
        walk.lsu = []           # (kind, dest, code, order)
        for j, (instr, args, kind) in enumerate(zip(stream, flow.sources,
                                                    kinds)):
            if kind == "c":
                code[("o", j)] = results
                index = [code[x] for x in args]
                walk.ops.append((EXECUTORS[instr.mnemonic][1], *index,
                                 *(-1,) * (3 - len(index))))
                walk.comp.append((instr.rd < nstream, instr.rd, results,
                                  j))
                results += 1
            elif kind == "l":
                code[("o", j)] = loads
                walk.lsu.append(("l", instr.rd, loads, j))
                loads += 1
            elif kind == "s":
                walk.lsu.append(("s", None, code[args[0]], j))
        walk.comp_at = [c[3] for c in walk.comp]
        walk.lsu_at = [op[3] for op in walk.lsu]
        return walk

    def _shape(self, signature: tuple, key: tuple, n_entry: int,
               stream: list, n_issue: int, sdelta: list, n_exit: int,
               lsu_busy: bool, arms: tuple):
        """The data program and the LSU structure of the first
        ``n_issue`` FP entries of ``stream`` (or why they fail): their
        :meth:`_walk`, then retirement.  ``arms`` holds the entry, the
        stream and its configuration of each re-arming."""
        walk = self._walk(signature, key, stream)
        if n_issue > walk.limit:
            return "unproven"
        streams = key[8]
        ncomp = bisect_left(walk.comp_at, n_issue)
        issued = walk.lsu[:bisect_left(walk.lsu_at, n_issue)]
        lsu_ops = list(issued)
        if key[9] is not None:
            lsu_ops.insert(0, ("l", key[9], walk.l0, -1))
        elif key[10]:
            lsu_ops.insert(0, ("s", None, None, -1))

        # Retirement: the pipe retires in order, the LSU one op at a
        # time; per register at most one writer is outstanding, so
        # program order decides the retired value.
        pipe_syms = walk.pipe + walk.comp[:ncomp]
        n_retire = len(pipe_syms) - n_exit
        if n_retire < 0 or (lsu_busy and not lsu_ops):
            return "unproven"
        done = lsu_ops[:-1] if lsu_busy else lsu_ops
        writes = [(order, dest, c) for is_ssr, dest, c, order in
                  pipe_syms[:n_retire] if not is_ssr]
        writes += [(order, dest, c) for kind, dest, c, order in done
                   if kind == "l"]
        writes.sort(key=itemgetter(0))
        final = {dest: c for _, dest, c in writes}
        pushed = {}
        for is_ssr, dest, c, _ in pipe_syms[:n_retire]:
            if is_ssr:
                pushed.setdefault(dest, []).append(c)

        # Stream pops become element indices: ``repeat + 1`` pops read
        # one element, counting from the loop-head repeat phase, or from
        # the first element of the new window once the stream re-arms.
        reads = []
        npops = {}
        parts = {}
        rearm = {si: (j, cfg) for j, si, cfg in arms}
        for si, st in enumerate(streams):
            if st is None:
                continue
            _, _, dcons, dprod = sdelta[si]
            pops = npops[si] = bisect_left(walk.pops.get(si, ()), n_issue)
            per = st[2] + 1
            owed = pops
            part = parts[si] = [(False, st[3], pops)]
            if si in rearm:
                j, cfg = rearm[si]
                before = bisect_left(walk.pops.get(si, ()), j)
                if (st[3] + before) % per:
                    return "unproven"
                part[:] = [(False, st[3], before), (True, 0, pops - before)]
                owed -= cfg.total_elements() * per
            if owed != -dcons or len(pushed.get(si, ())) != -dprod:
                return "unproven"
            for fresh, phase, count in part:
                if count:
                    reads.append((si, fresh, (phase + count - 1) // per + 1))

        # The data program: slot-numbered operations over a flat value
        # list laid out as pipe values, registers, stream elements,
        # loaded values, then the results in issue order.  ``slot`` maps
        # the walk's numbering onto it (-1 stays -1: no operand).
        nloads = sum(kind == "l" for kind, _, _, _ in issued)
        base = n_entry + len(self.fp.fpregs.values)
        elements = []
        for si, entries in walk.pops.items():
            per = streams[si][2] + 1 if streams[si] else 1
            for _, phase, count in parts.get(si, ()):
                if count:
                    elements += [base + (phase + k) // per
                                 for k in range(count)]
                    base += (phase + count - 1) // per + 1
            elements += [-1] * (len(entries) - npops.get(si, 0))
        slot = list(range(walk.l0))
        slot.append(base + nloads)
        slot += elements
        slot += range(base, base + nloads)
        slot += [-1] * (walk.nloads - nloads)
        slot += range(base + nloads + 1, base + nloads + 1 + ncomp)
        slot += [-1] * (walk.ncomp - ncomp + 1)
        program = (
            tuple([(fn, slot[a], slot[b], slot[c])
                   for fn, a, b, c in walk.ops[:ncomp]]),
            tuple(slot[c] for _, _, c, _ in pipe_syms[n_retire:]),
            tuple((r, slot[c]) for r, c in sorted(final.items())),
            tuple((si, tuple(slot[c] for c in codes))
                  for si, codes in pushed.items()),
            tuple(slot[c] for kind, _, c, _ in issued if kind == "s"))
        return _Shape(
            program=program,
            lsu_issued=tuple(kind for kind, _, _, _ in issued),
            lsu_entry=key[9] is not None or bool(key[10]),
            lsu_busy=lsu_busy, reads=tuple(reads))

    # -- replay ---------------------------------------------------------------

    def _view(self, s):
        """Addresses of every element of ``s``'s armed stream (None when
        some element is out of range or misaligned: stepping must raise
        there); their banks are filled in once a replay needs them.
        Views are kept per configuration; an indirect one is rebuilt when
        its index array changed."""
        cfg = s.cfg
        mem = self.cluster.mem
        total = cfg.total_elements()
        raw = None
        if cfg.indirect:
            isz = cfg.idx_size
            off = cfg.idx_base
            if off < 0 or off + total * isz > mem.size or off % isz:
                return None
            raw = bytes(mem._data[off:off + total * isz])
        cached = self._views.get(id(cfg))
        if cached is not None and cached[2] == raw:
            return cached[1]
        armed = {id(s.cfg) for s in self.fp.streamers}
        for stale in [k for k in self._views if k not in armed]:
            del self._views[stale]
        tcdm = self.tcdm
        view = _View()
        view.base = cfg.base
        view.total = total
        view.idx = view.ibanks = view.ispan = view.banks = None
        if cfg.indirect:
            view.idx = np.frombuffer(
                raw, dtype=np.uint32 if isz == 4 else np.uint16
            ).astype(np.int64)
            addr = cfg.base + (view.idx << cfg.idx_shift)
            view.ibanks = _banks(
                cfg.idx_base + np.arange(total) * cfg.idx_size, tcdm)
            view.ispan = (cfg.idx_base, cfg.idx_base + total * cfg.idx_size)
        else:
            addr = affine_addresses(cfg)
        if not self._place(view, addr):
            return None
        self._views[id(cfg)] = (cfg, view, raw)
        return view

    def _place(self, view: _View, addr) -> bool:
        """Give ``view`` its element addresses ``addr`` and their span;
        False when one is out of range or misaligned."""
        lo, hi = int(addr.min()), int(addr.max()) + 8
        if lo < 0 or hi > self.cluster.mem.size or (addr & 7).any():
            return False
        view.addr, view.span = addr, (lo, hi)
        return True

    def _window(self, view: _View, base: int):
        """``view`` moved to the new ``base`` of a re-armed stream (None
        when an element leaves the memory or its alignment)."""
        moved = _View()
        moved.base = base
        moved.total = view.total
        moved.idx, moved.ibanks, moved.ispan = view.idx, view.ibanks, \
            view.ispan
        if not self._place(moved, view.addr + (base - view.base)):
            return None
        moved.banks = _banks(moved.addr, self.tcdm)
        return moved

    def _open_run(self):
        """Virtual state of a run of hits, or the reason none can start
        here (an element out of range, a store that can reach a stream,
        or stream data that memory no longer backs)."""
        cl, core, fp = self.cluster, self.core, self.fp
        run = _Run()
        run.start = run.cycle = cl.cycle
        run.ir = list(core.regs.values)
        run.iready = {}
        run.stall = core.stall_until
        run.lsuq = deque(e.vals["addr"] for e in fp.sequencer.queue
                         if self._kinds[id(e.instr)] != "c")
        lsu = fp.lsu
        # A busy LSU at a loop head has been granted (the key declines a
        # pending request): only the loaded value is still to arrive.
        run.lsu_op = None
        if lsu.busy:
            run.lsu_op = ["s" if lsu._pending_store else "l", None,
                          lsu.port._response]
        pipe = fp.pipe
        run.pv = [op.value for op in pipe.in_flight]
        run.pcomp = [op.completes_at for op in pipe.in_flight]
        run.last_comp = pipe._last_completion
        run.rv = list(fp.fpregs.values)
        run.pushed = {}
        run.moved0 = {}
        run.shadow = {}
        run.armed = set()
        run.mem = mem_state = []
        run.order = order = []
        run.views = views = []
        reads, writes = [], []
        mem = cl.mem
        for si, s in enumerate(fp.streamers):
            cfg = s.cfg
            if cfg is None:
                mem_state.append(None)
                views.append(None)
                continue
            view = self._view(s)
            if view is None:
                return "address-range"
            if view.banks is None:
                view.banks = _banks(view.addr, self.tcdm)
            views.append(view)
            dport, iport = s.data_port, s.idx_port
            at = s.position()
            here, fill = at.here, at.fill
            mode = INDIRECT_READ if cfg.indirect else \
                WRITE if cfg.mode == SsrMode.WRITE else AFFINE_READ
            order.append((si, mode))
            # Element indices count from the stream's arming, while
            # ``elements_moved`` counts across re-arms.
            run.moved0[si] = here
            mem_state.append([*at, 0, 0, 0, 0, 0, 0])
            addr = view.addr
            if mode == WRITE:
                # A write holds element ``here``'s address by construction.
                run.pushed[si] = [here, list(s._fifo)]
                writes.append(view.span)
                continue
            # A re-arm commits the shadow registers: the same stream on
            # a new base, unless they were written since the last one
            # (and CTRL must keep the stream's mode and dimensions).
            shadow = s.cfgspace._shadow
            run.shadow[si] = (shadow.base, cfg.indirect << 1
                              | cfg.ndims - 1 << 2) \
                if _same_but_base(cfg, shadow) else None
            reads.append(view.span)
            if view.ispan is not None:
                reads.append(view.ispan)
            for k, v in zip(range(here - fill, here), s._fifo):
                if mem.read_f64(int(addr[k])) != v:
                    return "aliasing"
            if dport._pending is not None \
                    and dport._pending.addr != addr[here]:
                return "aliasing"
            if dport._response_ready \
                    and dport._response != mem.read_f64(int(addr[here])):
                return "aliasing"
            if view.idx is not None:
                first = here + at.requested
                for k, v in zip(range(first, first + at.idx_fill),
                                s._idx_fifo):
                    if view.idx[k] != v:
                        return "aliasing"
                if at.idx_ready and iport._response != view.idx[at.idx_elem]:
                    return "aliasing"
        for i, (lo, hi) in enumerate(writes):
            for lo2, hi2 in reads + writes[:i]:
                if lo < hi2 and lo2 < hi:
                    return "aliasing"
        modes = tuple((si, mode, bool(fp.streamers[si].cfg.repeat))
                      for si, mode in order)
        run.windows = ([v and v.banks for v in views],
                       [v and v.ibanks for v in views],
                       [v and v.total for v in views])
        run.sim = _simulator(modes, fp.streamers, fp.lsu.port, cl.tcdm)(
            *run.windows, [s.cfg and s.cfg.repeat + 1 for s in fp.streamers])
        run.reads = reads
        run.writes = writes
        run.ld_range = run.st_range = None
        run.rr = cl.tcdm._rr_offset
        run.tcdm = [0, 0]
        run.counts = {}
        run.st_writes = []
        run.ws_writes = []
        run.hits = 0
        run.last = None
        return run

    def _replay(self, key: tuple, limit: int):
        """Chain hits from ``key`` and write the machine once.  Returns
        the key the run stopped at (None when the last exit key is one
        the memo declines, a reason when no run could start)."""
        run = self._open_run()
        if isinstance(run, str):
            return run
        table = self._table
        cur = key
        while cur is not None:
            paths = table.get(cur)
            if not paths:
                break
            it = self._hit(run, paths, limit)
            if it is None:
                break
            if isinstance(it, str):
                cur = it  # a decline: step on without recording
                break
            cur = it.exit_key
        if run.hits:
            self._materialize(run)
            stats = self.stats
            stats["loop_hits"] += run.hits
            stats["loop_cycles"] += run.cycle - run.start
            if _obs.ENABLED:
                _obs.tracer().sim_span(
                    "loop-memo", "engine", run.start, run.cycle,
                    lane=self.cluster.obs_lane,
                    args={"iterations": run.hits})
        return cur

    def _hit(self, run: _Run, paths: dict, limit: int):
        """Replay the recorded iteration whose core timing holds onto the
        run's virtual state; returns it, None on a miss, or the reason
        the memo declines it (nothing is touched unless it replays)."""
        # The integer path first: branch outcomes, LSU addresses and what
        # the scfgw write.
        for int_ops, root, _ in paths.values():
            regs = run.ir[:]
            new_lsu = []
            scfg = []
            for op in int_ops:
                code = op[0]
                if code == 6:
                    new_lsu.append((regs[op[1]] + op[2]) & _MASK32)
                elif not _exec_int(op, regs):
                    break
                elif code == 7:
                    scfg.append((split_cfg_addr(op[3])[0], op[4],
                                 regs[op[1]]))
            else:
                break
        else:
            return None
        # Each re-arm moves its stream's window to the last base written.
        arms = []
        if scfg:
            bases = {}
            for si, ctrl, value in scfg:
                if ctrl is None:
                    bases[si] = value
                    continue
                shadow = run.shadow.get(si)
                if shadow is None or ctrl != shadow[1]:
                    return "scfg"
                view = self._window(run.views[si], bases.get(si, shadow[0]))
                if view is None:
                    return "address-range"
                arms.append((si, view, ctrl))
        lsuq = run.lsuq
        addrs = list(lsuq) + new_lsu
        tcdm = self.tcdm
        bw, nb = tcdm.bank_width, tcdm.num_banks
        sim = run.sim(run.mem, root, [a // bw % nb for a in addrs],
                      limit - run.cycle, run.rr,
                      [(v.banks, v.ibanks, v.total) for _, v, _ in arms])
        if sim is None:
            return None
        it = sim[0]
        shape = it.shape
        if type(shape) is tuple:
            built = self._shape(*shape)
            self._shapes[shape[0]] = it.shape = shape = built
        if isinstance(shape, str):
            self._decline(shape)
            return None
        c1 = run.cycle + it.dt

        # The iteration's LSU accesses: in range, aligned, and clear of
        # every stream and each other; a re-armed window clear of the
        # written bytes.
        kinds = shape.lsu_issued
        n_issue = len(kinds)
        issued = addrs[:n_issue]
        mem = self.cluster.mem
        size = mem.size
        ld_range, st_range = run.ld_range, run.st_range
        for kind, addr in zip(kinds, issued):
            if addr < 0 or addr + 8 > size or addr & 7:
                return "address-range"
            if kind == "l":
                ld_range = (addr, addr + 8) if ld_range is None else (
                    min(ld_range[0], addr), max(ld_range[1], addr + 8))
            else:
                st_range = (addr, addr + 8) if st_range is None else (
                    min(st_range[0], addr), max(st_range[1], addr + 8))
        spans = [view.span for _, view, _ in arms]
        if st_range is not None:
            lo, hi = st_range
            for lo2, hi2 in run.reads + run.writes + spans:
                if lo < hi2 and lo2 < hi:
                    return "aliasing"
            if ld_range is not None and lo < ld_range[1] \
                    and ld_range[0] < hi:
                return "aliasing"
        if ld_range is not None:
            spans.append(ld_range)
        for lo, hi in spans:
            for lo2, hi2 in run.writes:
                if lo < hi2 and lo2 < hi:
                    return "aliasing"

        # The core timing holds: run the iteration's data program.
        views = run.views
        fresh = {si: view for si, view, _ in arms}
        f64 = mem._f64_view()
        # A read's first unconsumed element at the hit's start is its
        # ``here - fill`` (fields 9 and 0 of its memory-side state).
        state = run.mem
        chunks = [f64[fresh[si].addr[:count] >> 3].tolist() if new else
                  f64[views[si].addr[state[si][9] - state[si][0]:][:count]
                      >> 3].tolist() for si, new, count in shape.reads]
        loads = [mem.read_f64(addr) for kind, addr in zip(kinds, issued)
                 if kind == "l"]
        lsu_op = run.lsu_op
        ld0 = lsu_op[2] if shape.lsu_entry and lsu_op[0] == "l" else None
        pv, pushed, stores = _run_program(shape.program, run, chunks, loads,
                                          ld0)
        run.pv = pv
        pcomp = run.pcomp
        run.pcomp = [pcomp[r[0]] if type(r) is tuple else c1 + r
                     for r in it.pipe_rel]
        if it.last_rel is not None:
            run.last_comp = c1 + it.last_rel
        _, run.mem, run.rr, accesses, conflicts, grants = sim
        for si, values in pushed:
            run.pushed[si][1] += values
        for si, element in grants:
            first, values = run.pushed[si]
            run.ws_writes.append((int(views[si].addr[element]),
                                  values[element - first]))
        run.st_writes += zip((a for k, a in zip(kinds, issued) if k == "s"),
                             stores)
        if not shape.lsu_busy:
            run.lsu_op = None
        elif kinds:
            kind = kinds[-1]
            run.lsu_op = [kind, issued[-1],
                          stores[-1] if kind == "s" else loads[-1]]
        tcdm_delta = run.tcdm
        tcdm_delta[0] += accesses
        tcdm_delta[1] += conflicts
        lsuq.extend(new_lsu)
        for _ in range(n_issue):
            lsuq.popleft()
        run.ir = regs
        iready = run.iready
        for reg, rel in it.ready_rel:
            iready[reg] = c1 + rel
        run.stall = c1 + it.stall_rel
        for si, view, ctrl in arms:
            # Elements moved count across re-arms, positions from each.
            run.moved0[si] -= views[si].total
            views[si] = view
            for window, part in zip(run.windows, (view.banks, view.ibanks,
                                                  view.total)):
                window[si] = part
            run.shadow[si] = (view.base, ctrl)
            run.armed.add(si)
            run.reads.append(view.span)
        run.ld_range, run.st_range = ld_range, st_range
        count = run.counts.get(id(it))
        if count is None:
            run.counts[id(it)] = [it, 1]
        else:
            count[1] += 1
        run.cycle = c1
        run.hits += 1
        run.last = it
        return it

    def _materialize(self, run: _Run) -> None:
        """Write a run of hits into the machine, in program order."""
        cl, core, fp = self.cluster, self.core, self.fp
        ex = run.last.exit
        for entry, n in run.counts.values():
            _apply_delta(cl, entry.delta, n)
        cl.cycle = run.cycle
        cl.perf.cycles = run.cycle
        mem = cl.mem

        regs = core.regs
        regs.values[:] = run.ir
        for reg, ready in run.iready.items():
            regs.ready_cycle[reg] = ready
        core.pc = ex["pc"]
        core.stall_until = run.stall

        queue = fp.sequencer.queue
        queue.clear()
        lsuq = run.lsuq
        for entry in ex["queue"]:
            if self._kinds[id(entry.instr)] == "c":
                queue.append(entry)
            else:
                fresh = DispatchedEntry(entry.instr,
                                        {"addr": lsuq.popleft()}, False)
                fresh.uop = entry.uop
                queue.append(fresh)

        pipe = fp.pipe
        in_flight = pipe.in_flight
        in_flight.clear()
        for (instr, dest, is_ssr), value, completes in zip(
                ex["pipe"], run.pv, run.pcomp):
            in_flight.append(InFlightOp(instr, dest, is_ssr, value,
                                        completes, False, False))
        pipe._last_completion = run.last_comp
        fp.fpregs.values[:] = run.rv
        fp.fpregs.busy[:] = ex["busy"]
        chain = fp.chain
        chain.valid[:] = ex["valid"]
        chain._popped_this_cycle.clear()
        chain._popped_this_cycle.update(ex["popped"])

        tcdm = cl.tcdm
        tcdm._rr_offset = run.rr
        tcdm.total_accesses += run.tcdm[0]
        tcdm.busy_bank_cycles += run.tcdm[0]
        tcdm.total_conflicts += run.tcdm[1]
        for si, mode in run.order:
            s = fp.streamers[si]
            view = run.views[si]
            if si in run.armed:
                # The scfgw of the run, on the window of the last hit.
                raw = self._views.pop(id(s.cfg))[2]
                s.rearm(*run.shadow[si])
                self._views[id(s.cfg)] = (s.cfg, view, raw)
                # The stepped cycle binds the stream's configuration.
                cl._loop = None
            state = run.mem[si]
            active, dreads, dwrites, dconf, ireads, iconf = state[12:]
            dport, iport = s.data_port, s.idx_port
            s.active_cycles += active
            dport.reads += dreads
            dport.writes += dwrites
            dport.conflicts += dconf
            iport.reads += ireads
            iport.conflicts += iconf
            at = StreamPosition(*state[:12])
            s.elements_moved += at.here - run.moved0[si]
            values = ()
            if mode == WRITE:
                first, values = run.pushed[si]
                values = values[at.here - first:at.here - first + at.fill]
            s.place(at, view.addr, values)

        lsu = fp.lsu
        lsu._pending_load = ex["pending_load"]
        lsu._pending_store = ex["pending_store"]
        lport = lsu.port
        lport._pending = None
        lport._response_ready = ex["lsu_response"]
        op = run.lsu_op
        lport._response = op[2] if ex["lsu_response"] and op[0] == "l" \
            else None

        for addr, value in run.ws_writes:
            mem.write_f64(addr, value)
        for addr, value in run.st_writes:
            mem.write_f64(addr, value)


#: Compiled memory-side simulators by armed streams and port layout.
_SIMULATORS: dict[tuple, object] = {}

#: Flat schedule rows (:func:`_row`) by stream context, then by schedule
#: entry; a context is dropped past the cap.
_ROWS: dict[tuple, dict] = {}


class _Rearm:
    """The check of a stream that re-arms in a cycle: it fails at every
    level, so the simulator takes the failing branch and re-arms there
    (see :func:`_row`)."""

    __slots__ = ()

    def __getitem__(self, level: int) -> bool:
        return True


_REARM = _Rearm()
#: Check tuples by failing levels, shared by every row.
_CHECKS: dict[tuple, tuple] = {}


def _row(entry: tuple, context: tuple) -> tuple:
    """Schedule ``entry`` as the flat row the simulator of stream
    ``context`` (``(stream, write, FIFO depth, repeat + 1)`` per armed
    stream) walks: the LSU access (counting from 1; 0 is none), then per
    stream the change of its level -- the pops a read's FIFO can serve,
    a write's fill -- and its check: per level, whether the observations
    logged in that cycle would come out otherwise there (a write without
    one has none), or :data:`_REARM` where the stream re-arms (its owed
    pops grow)."""
    pops, pushes, lsu, _, _, triples = entry
    row = [lsu + 1]
    for si, write, depth, per in context:
        fails = [False] * (depth * per + 1)
        checked = False
        for sj, uses, want in triples:
            if sj == si:
                # An operand check passes from ``uses`` pops on, a push
                # check below a full FIFO.
                checked = True
                for level in range(len(fails)):
                    if (level >= uses if uses else level < depth) != want:
                        fails[level] = True
        if pops[si] < 0:
            row += (0, _REARM)
            continue
        check = tuple(fails) if checked or not write else ()
        row += (pushes[si] - pops[si] if write else -pops[si],
                _CHECKS.setdefault(check, check))
    return tuple(row)


def _segment(node: _Node, context: tuple) -> tuple:
    """The flat rows (:func:`_row`) of ``node``'s part of its schedule,
    from its start to its split, and its LSU accesses; kept on the
    node."""
    rows = _ROWS.get(context)
    if rows is None or len(rows) > _SITUATIONS_CAP:
        rows = _ROWS[context] = {}
    entries = node.rep.schedule[node.start:node.split]
    seg = node.seg = (
        tuple([rows.get(e) or rows.setdefault(e, _row(e, context))
               for e in entries]),
        sum(e[2] >= 0 for e in entries))
    return seg


_SIM_TEMPLATE = """\
def factory(B, IB, T, R1):
    context = ({context})
    BIT = {bits}
{bind}

    def segment(node):
        return _segment(node, context)

    def sim(state, node, LB, budget, rr, AV=()):
{unpack}
        acc = conf = 0
        windows = iter(AV)
        while True:
            it = node.rep
            split = node.split
            if split is None and it.dt > budget:
                return None
            rows, lsus = node.seg or segment(node)
            acc += lsus
            for {row} in rows:
{cycle}
            if split is None:
                break
            # The observations that tell the recordings apart.
            seen = []
            for si, uses in it.schedule[split][3]:
{seen}
                seen.append(ok)
            node = node.children.get((*seen,))
            if node is None:
                return None
{settle}
        return it, [{pack}], rr, acc, conf, grants
    return sim
"""

#: The memory-side state of a stream as the simulator takes and returns
#: it: a ``StreamPosition``, then counters (see :meth:`LoopMemo._open_run`).
_STATE = "f r q dp dr g ip ir p m w e a xr xw xc yr yc".split()


def _simulator(modes: tuple, streamers: list, lsu, tcdm):
    """The memory side a hit re-simulates on counters (the rules of
    :mod:`repro.mem.timing`) against an iteration's recorded schedule,
    walking the decision tree of the recordings as the observations come
    out; returns ``(iteration, streams, rr, accesses, conflicts, write
    grants)`` or None.  Generated per stream configuration (``modes``:
    stream, mode, repeats), FIFO depths and port layout (the streams'
    and the FP LSU port ``lsu``), with the stream state in locals.  Each
    cycle is one flat row (:func:`_row`): its checks are one tuple index
    per stream, and what follows from the positions the streams reach
    (grants, accesses, a read's request flag) is worked out once per
    hit.  ``AV`` holds the banks, index banks and total of each window
    a stream re-arms on, in order."""
    layout = port_layouts(tcdm)
    streams = tuple(
        (si, mode, streamers[si].fifo_depth, layout[streamers[si].data_port],
         layout[streamers[si].idx_port]) for si, mode, _ in modes)
    key = (modes, streams, layout[lsu], len(tcdm._streamer_ports),
           len(streamers), tcdm.num_banks)
    factory = _SIMULATORS.get(key)
    if factory is not None:
        return factory
    context, bind, unpack, row, cycle, seen, settle = [], [], [], ["lsu"], \
        [], [], ["grants = []"]
    for (si, mode, _), (_, _, depth, _, _) in zip(modes, streams):
        write = mode == WRITE
        context.append(f"({si}, {write}, {depth}, R1[{si}])")
        bind += [f"R1{si} = R1[{si}]", f"D{si} = {depth - 1} * R1{si}"]
        unpack += [f"({', '.join(n + str(si) for n in _STATE)}) "
                   f"= state[{si}]",
                   f"B{si}, IB{si}, T{si} = B[{si}], IB[{si}], T[{si}]",
                   f"M{si}, P{si} = m{si} + dr{si}, p{si} - ip{si}"]
        row += [f"d{si}", f"c{si}"]
        # An operand observation: the FIFO serves ``uses`` pops (honouring
        # the repeat phase); a push observation: the FIFO has room.
        seen += [f"{'elif' if seen else 'if'} si == {si}:",
                 f"    ok = f{si} > 0 and R1{si} - r{si} + (f{si} - 1) "
                 f"* R1{si} >= uses if uses else f{si} < {depth}"
                 if write else f"    ok = v{si} >= uses if uses "
                 f"else v{si} <= D{si}"]
        # A read checks and moves in most cycles, a write in few.  A
        # read re-arms where its check is REARM (see :func:`_row`), on the
        # next window of ``AV``, once the grants of the window it leaves
        # are counted.
        level = f"f{si}" if write else f"v{si}"
        cycle += [f"if {f'c{si} and ' * write}c{si}[{level}]:"]
        if write:
            cycle += ["    return None", f"if d{si}:", f"    f{si} += d{si}"]
        else:
            window = [f"xr{si} += T{si} - M{si}", f"acc += T{si} - M{si}"]
            if mode == INDIRECT_READ:
                window += [f"yr{si} += T{si} - P{si}",
                           f"acc += T{si} - P{si}"]
            window += [f"M{si} = P{si} = 0",
                       f"B{si}, IB{si}, T{si} = next(windows)"]
            cycle += [f"    if c{si} is not REARM:", "        return None"] + [
                "    " + line for line in counters_arm(
                    si, mode, "\n".join(window))]
            unpack.append(f"v{si} = f{si} * R1{si} - r{si}")
            cycle.append(f"v{si} += d{si}")
            settle += [f"f{si} = -(-v{si} // R1{si})",
                       f"r{si} = f{si} * R1{si} - v{si}"]
        # Grants since the hit began: moved elements plus an answered
        # request (index fetches: posted minus pending).
        moved = f"m{si} + dr{si} - M{si}"
        if mode == WRITE:
            settle += [f"grants += [({si}, k) for k in range(M{si}, "
                       f"m{si} + dr{si})]", f"xw{si} += {moved}"]
        else:
            settle.append(f"xr{si} += {moved}")
        settle.append(f"acc += {moved}")
        if mode == INDIRECT_READ:
            settle += [f"yr{si} += p{si} - ip{si} - P{si}",
                       f"acc += p{si} - ip{si} - P{si}"]
    seen += ["else:" if seen else "if True:", "    ok = None"]
    cycle += counters_rules(streams, key[2], key[3])
    if key[3]:
        settle.append(f"rr %= {key[3]}")
    armed = {si: mode for si, mode, _ in modes}
    pack = ", ".join(
        "[" + ", ".join(
            ("False" if armed[si] == WRITE else f"dp{si} or dr{si}")
            if name == "q" else f"p{si} - 1" if name == "e"
            else f"{name}{si}" for name in _STATE) + "]"
        if si in armed else "None" for si in range(len(streamers)))
    source = _SIM_TEMPLATE.format(
        context="".join(f"{c}, " for c in context),
        bind=block(bind or ["pass"], 4), unpack=block(unpack or ["pass"], 8),
        row=", ".join(row) + ("," if len(row) == 1 else ""),
        cycle=block(cycle, 16), seen=block(seen, 16),
        bits=tuple(1 << bank for bank in range(key[5])),
        settle=block(settle, 8), pack=pack)
    factory = _SIMULATORS[key] = compile_factory(
        source, f"<memory side {key}>", _segment=_segment, REARM=_REARM)
    return factory


def _run_program(prog, run, chunks, loads, ld0):
    """Execute an iteration's data program on the run's values and the
    stream elements it reads (``chunks``, see ``_Shape.reads``); returns
    the new pipe values, the values pushed into write streams, and the
    stored values.  The retired registers are updated in place."""
    ops, pipe_out, rv_out, push_out, store_out = prog
    vals = run.pv + run.rv
    for chunk in chunks:
        vals += chunk
    vals += loads
    vals.append(ld0)
    append = vals.append
    for fn, a, b, c in ops:
        if c >= 0:
            append(fn(vals[a], vals[b], vals[c]))
        elif b >= 0:
            append(fn(vals[a], vals[b]))
        else:
            append(fn(vals[a]))
    rv = run.rv
    for reg, index in rv_out:
        rv[reg] = vals[index]
    return ([vals[i] for i in pipe_out],
            [(si, [vals[i] for i in out]) for si, out in push_out],
            [vals[i] for i in store_out])
