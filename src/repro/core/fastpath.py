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

2. **Period detection** -- while the region is eligible and the rest of
   the cluster is quiescent, a structural fingerprint of all
   timing-relevant state (pipe occupancy and relative completion times,
   FIFO fill levels, chaining valid bits, TCDM port states, stream
   walker phase modulo the bank interleave) is taken each cycle,
   together with a snapshot of every counter in the machine.  Since the
   micro-architecture's timing is value-independent, two instants with
   equal fingerprints bracket one steady-state period: everything the
   window changed, later windows change identically.  The per-window
   counter deltas are additionally screened for one-shot events (an
   in-flight load landing, an integer instruction retiring) which mark
   the window as non-replayable.

3. **Batch execution** -- the remaining whole periods are then applied at
   once: every counter advances by ``N x`` its measured per-period
   delta, the stream walkers jump ahead, and all data values (register
   file, in-flight pipe results, stream FIFOs, memory written by write
   streams) are reconstructed from a *vectorized numpy evaluation* of
   the body dataflow over the batched iterations.  The numpy operators
   are chosen to be bit-identical to the scalar executors (including
   Python's ``min``/``max`` tie and NaN behavior), so results, cycle
   counts, perf counters, stall breakdowns, SSR generator state and
   TCDM traffic all land exactly where the scalar model would have put
   them -- the loop tail then drains through the scalar path.

The engine is attached under ``CoreConfig.engine == "auto"`` to the
clusters the micro-op engine steps (see :mod:`repro.core.cluster`); the
run loop alone calls :meth:`FastPathEngine.observe` and
:meth:`LoopMemo.at_head`, so ``Cluster.step`` stays one cycle.

Integer-core loops, which never reach the FREP sequencer, are the loop
memo's (:class:`LoopMemo`, in the second half of this module): it
replays recorded loop iterations under the same bit-identity contract.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter, ne, sub
from typing import Any

import numpy as np

from repro.core.fpu import UNPIPELINED_CLASSES, InFlightOp
from repro.core.perf import SLOT
from repro.core.sequencer import DispatchedEntry
from repro.isa.instructions import InstrClass
from repro.mem.timing import (AFFINE_READ, INDIRECT_READ, WRITE, block,
                               compile_factory, counters_rules,
                               port_layouts)
from repro.obs import spans as _obs
from repro.ssr.address_gen import affine_addresses
from repro.ssr.config import SsrMode


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

_IDLE, _ARMED, _DONE, _REJECTED = range(4)


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
    streamers = []
    for s in fp.streamers:
        gen, igen = s._gen, s._igen
        streamers.append((
            s.active_cycles, s.elements_moved, s._to_consume, s._to_produce,
            gen.position if gen is not None
            else igen._pos if igen is not None else 0))
    return {
        "perf": cl.perf.window(),
        "pos": fp.sequencer.position,
        "replayed": fp.sequencer.replayed_instrs,
        "chain": (fp.chain.pushes, fp.chain.pops,
                  fp.chain.backpressure_events),
        "tcdm": (cl.tcdm.total_accesses, cl.tcdm.total_conflicts,
                 cl.tcdm.busy_bank_cycles),
        "ports": [(p.reads, p.writes, p.conflicts) for p in cl.tcdm.ports],
        "streamers": streamers,
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
    loop memo; stream data and positions are the caller's)."""
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
    for s, (dact, dmov, dcons, dprod, _) in zip(fp.streamers,
                                                delta["streamers"]):
        s.active_cycles += n * dact
        s.elements_moved += n * dmov
        s._to_consume += n * dcons
        s._to_produce += n * dprod


class FastPathEngine:
    """Steady-state detector and batch executor for one compute core."""

    def __init__(self, cluster):
        # Weak: the cluster owns the engine, and a cycle would keep a
        # finished cluster alive until a full garbage collection.
        self.cluster = weakref.proxy(cluster)
        self.core = cluster.core
        self.fp = cluster.fp
        self._state = _IDLE
        self._plan: _BodyPlan | None = None
        self._history: dict[tuple, tuple[int, int, dict]] = {}
        self.stats = {
            "regions_seen": 0,
            "regions_eligible": 0,
            "applications": 0,
            "fast_forwarded_cycles": 0,
            "fast_forwarded_instrs": 0,
            "reject_reasons": {},
        }
        #: Why the most recent region analysis bailed (``None`` while
        #: the last region was eligible).
        self.reject_reason: str | None = None
        #: The integer-loop iteration memo; reports under ``loop_*``.
        self.loop = LoopMemo(cluster, self)

    # -- the run loop's hook, after a stepped cycle in an FREP region ------

    def observe(self) -> None:
        seq = self.fp.sequencer
        if not seq.frep_active:
            if self._state != _IDLE:
                self._reset()
            return
        if self._state in (_DONE, _REJECTED):
            return
        if self._state == _IDLE:
            if not seq.body_buffered:
                return
            self.stats["regions_seen"] += 1
            self.reject_reason = None
            self._plan = self._analyze()
            if self._plan is None:
                self._state = _REJECTED
                if _obs.ENABLED:
                    _obs.tracer().sim_instant(
                        "fastpath.reject", "engine", self.cluster.cycle,
                        lane=getattr(self.cluster, "obs_lane", "cluster"),
                        args={"reason": self.reject_reason})
                return
            self.stats["regions_eligible"] += 1
            if _obs.ENABLED:
                _obs.tracer().sim_instant(
                    "fastpath.accept", "engine", self.cluster.cycle,
                    lane=getattr(self.cluster, "obs_lane", "cluster"),
                    args={"body_len": seq.body_len, "iters": seq.iters})
            self._state = _ARMED
            self._history = {}
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
                self._state = _REJECTED
                return
            periods = self._max_periods(delta)
            if periods >= 1 and self._apply(period, delta, periods):
                self.stats["applications"] += 1
                self.stats["fast_forwarded_cycles"] += periods * period
                self.stats["fast_forwarded_instrs"] += periods * dpos
            self._state = _DONE
            self._history.clear()
            return
        if len(self._history) >= _HISTORY_CAP:
            self._state = _REJECTED
            self._history.clear()
            return
        self._history[fingerprint] = (cycle, pos, _snapshot(self.cluster))

    def _reset(self) -> None:
        self._state = _IDLE
        self._plan = None
        self._history = {}

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

    def _reject(self, reason: str) -> None:
        """Record why this region falls back to the scalar path."""
        self.reject_reason = reason
        reasons = self.stats["reject_reasons"]
        reasons[reason] = reasons.get(reason, 0) + 1
        return None

    def _analyze(self) -> _BodyPlan | None:
        fp = self.fp
        seq = fp.sequencer
        if seq.inner or seq.staggered:
            return self._reject("nested-or-staggered-frep")

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
            return self._reject("ineligible-operand" if flow[1] == "operand"
                                else "non-affine-write-stream")
        if n_vec < L:
            return self._reject("non-vector-op")
        # A chaining push left unmatched would be popped next iteration:
        # a cross-iteration carry the vectorized evaluation cannot model.
        if any(flow.chains.values()):
            return self._reject("cross-iteration-chain-carry")
        # A register read before any write in the same iteration carries
        # the previous iteration's value.
        if any(sym[0] == "r" and sym[1] in flow.writers
               for sources in flow.sources for sym in sources):
            return self._reject("cross-iteration-register-carry")

        # The streams the body writes must not alias anything the body
        # reads (bulk gathers assume stable inputs) or another write
        # stream (bulk scatters assume a single in-order writer).
        from repro.ssr.address_gen import affine_addr_range
        mem_size = self.cluster.mem.size
        wranges = [affine_addr_range(fp.streamers[r].cfg)
                   for r in flow.pushes]
        rranges = [affine_addr_range(fp.streamers[r].cfg)
                   for r in flow.pops]
        for i, (wlo, whi) in enumerate(wranges):
            if wlo < 0 or whi >= mem_size:
                # Scalar path must surface the fault.
                return self._reject("write-stream-out-of-range")
            for rlo, rhi in rranges:
                if wlo <= rhi and rlo <= whi:
                    return self._reject("write-stream-alias")
            for wlo2, whi2 in wranges[i + 1:]:
                if wlo <= whi2 and wlo2 <= whi:
                    return self._reject("write-stream-alias")

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
            reg_writers=flow.writers)

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
        plan = self._plan
        ports = self.cluster.tcdm.ports
        used_ports = {self.fp.streamers[r].data_port
                      for r in (*plan.read_ppi, *plan.write_slots)}
        for index, d in enumerate(delta["ports"]):
            if ports[index] not in used_ports and any(d):
                return False
        used_idx = set(plan.read_ppi) | set(plan.write_slots)
        for si, d in enumerate(delta["streamers"]):
            if si not in used_idx and any(d):
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
            dact, dmov, dcons, dprod, dgen = d
            if dgen > 0:
                n = min(n, (s._gen.cfg.total_elements()
                            - s._gen.position) // dgen)
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

        # Per-stream alignment of pop/push indices with iteration count.
        sdelta = delta["streamers"]
        pre_pops: dict[int, int] = {}
        for r, ppi in plan.read_ppi.items():
            s = fp.streamers[r]
            init_c = s.cfg.total_elements() * (s.cfg.repeat + 1)
            pre = (init_c - s._to_consume) \
                - _prefix_f(pos0, ppi, plan.read_prefix[r], L)
            if pre < 0:
                return False
            pre_pops[r] = pre
        pre_push: dict[int, int] = {}
        for r, wslots in plan.write_slots.items():
            s = fp.streamers[r]
            pre = (s.cfg.total_elements() - s._to_produce) \
                - _prefix_f(retired0, len(wslots), plan.write_prefix[r], L)
            if pre < 0:
                return False
            pre_push[r] = pre
            rflag = 1 if s.data_port._response_ready else 0
            if s.elements_moved + rflag < pre:
                return False

        # How many iterations the vectorized evaluation must cover.
        iters = seq.iters
        eval_iters = iters
        for r, ppi in plan.read_ppi.items():
            s = fp.streamers[r]
            init_c = s.cfg.total_elements() * (s.cfg.repeat + 1)
            eval_iters = min(eval_iters,
                             (init_c - pre_pops[r]) // ppi + 1)
        for r, wslots in plan.write_slots.items():
            s = fp.streamers[r]
            eval_iters = min(
                eval_iters,
                (s.cfg.total_elements() - pre_push[r]) // len(wslots) + 1)
        if (pos1 - 1) // L >= eval_iters:
            return False

        # Gather stream inputs and evaluate the body over the batch.
        elems: dict[int, np.ndarray] = {}
        for r, ppi in plan.read_ppi.items():
            s = fp.streamers[r]
            rep = s.cfg.repeat
            dgen = sdelta[r][4]
            dmov = sdelta[r][1]
            total_r = s.cfg.total_elements()
            needed = max(
                (pre_pops[r] + eval_iters * ppi + rep) // (rep + 1) + 1,
                s._gen.position + n * dgen,
                s.elements_moved + n * dmov)
            needed = min(needed, total_r)
            addrs = affine_addresses(s.cfg, np.arange(needed))
            try:
                elems[r] = mem.gather_f64(addrs)
            except Exception:
                return False

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

        for si, (dact, dmov, dcons, dprod, dgen) in enumerate(sdelta):
            s = fp.streamers[si]
            if s._gen is None or (not dgen and not dmov
                                  and not dcons and not dprod):
                continue
            if si in plan.read_ppi:
                s._gen.jump_to(s._gen.position + n * dgen)
                fill = len(s._fifo)
                end = s.elements_moved
                s._fifo.clear()
                s._fifo.extend(float(v) for v in elems[si][end - fill:end])
                port = s.data_port
                if port._pending is not None:
                    port._pending.addr = int(affine_addresses(
                        s.cfg, [s._gen.position - 1])[0])
                if port._response_ready:
                    port._response = float(elems[si][s._gen.position - 1])
            elif si in plan.write_slots:
                rflag = 1 if s.data_port._response_ready else 0
                w0 = s.elements_moved - n * dmov
                w1 = s.elements_moved
                q = np.arange(w0 + rflag, w1 + rflag, dtype=np.int64)
                if q.size:
                    mem.scatter_f64(affine_addresses(s.cfg, q),
                                    wvals(si, q))
                s._gen.jump_to(s._gen.position + n * dgen)
                pushes = s.cfg.total_elements() - s._to_produce
                fill = len(s._fifo)
                window = np.arange(pushes - fill, pushes, dtype=np.int64)
                s._fifo.clear()
                s._fifo.extend(float(v) for v in wvals(si, window))
                if s._pending_write_addr is not None:
                    s._pending_write_addr = int(affine_addresses(
                        s.cfg, [w1])[0])
                port = s.data_port
                if port._pending is not None:
                    port._pending.addr = int(affine_addresses(
                        s.cfg, [w1])[0])
                    port._pending.data = float(wvals(
                        si, np.array([w1]))[0])

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
#   their exit keys; the machine is written once when a run ends.
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

# The memory-side simulation's per-stream state is a list: fill, repeat
# count, data requested, data request pending, data response ready,
# index fill, index request pending, index response ready, position,
# elements moved, write address held, index element, then the
# active-cycle, read, write and conflict counters.
#: Counters whose movement in an iteration declines it, with the reason.
_MEMO_DECLINES = (("frep_ops", "frep"), ("fp_csr_ops", "csr"),
                  ("scfg_ops", "scfg"), ("dma_transfers", "dma"),
                  ("barriers", "barrier"))
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
    jump would leave the recorded path."""
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
    return True


def _post(port, addr: int, is_write: bool, data, width: int) -> None:
    """Leave ``port`` with a pending request, as a requester would."""
    req = port._req
    req.addr = addr
    req.is_write = is_write
    req.data = data
    req.width = width
    port._pending = req


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
    (or -1), and whether an early stall happened."""
    _, repeats, depths = context
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
    entry = cache[k] = (k[:n], k[n:2 * n], k[2 * n],
                        tuple(c[:2] for c in checks),
                        tuple(c[2] for c in checks), checks)
    return entry


class _Recording:
    """Loop-head state of an iteration being recorded, and its per-cycle
    log (one row per cycle boundary, see :data:`repro.core.cycle.ROW`)
    up to the ``deadline`` cycle."""

    __slots__ = ("key", "cycle", "snap", "iregs", "pc", "queue", "pipe",
                 "log", "deadline")
    key: tuple
    cycle: int
    snap: dict
    iregs: list
    pc: int
    queue: list
    pipe: list
    log: list
    deadline: int


@dataclass(slots=True)
class _Shape:
    """The data side of a recorded iteration, shared by every recording
    with the same loop-head structure and issue sequence."""

    program: tuple              # slot-numbered FP data program
    lsu_issued: tuple           # kinds of the LSU entries issued
    lsu_entry: bool             # the loop-head LSU op belongs here
    lsu_busy: bool              # the last LSU op is busy at exit
    reads: tuple                # (si, elements consumed from) per stream
    advance: tuple              # (si, elements fully consumed)


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
    child.  A leaf (``split`` None) holds one iteration."""

    __slots__ = ("split", "rep", "children")

    def __init__(self, it, split=None, children=None):
        self.rep = it
        self.split = split
        self.children = children


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
                    a[cycle][4]: _Node(rep, node.split, node.children),
                    b[cycle][4]: _Node(it)}
                node.split = cycle
                return True
        if node.split is None:
            return False
        start = node.split
        child = node.children.get(b[start][4])
        if child is None:
            node.children[b[start][4]] = _Node(it)
            return True
        node = child


class _View:
    """Every element address and bank of one armed stream."""

    __slots__ = ("total", "addr", "idx", "banks", "ibanks", "span",
                 "ispan")
    total: int
    addr: Any                   # element byte addresses (numpy int64)
    idx: Any                    # index values of an indirect stream
    banks: Any                  # bank of each element, indexable
    ibanks: Any                 # bank of each index element
    span: tuple                 # [lo, hi) bytes the elements cover
    ispan: tuple | None


class _Run:
    """Virtual machine state across one run of memo hits."""

    __slots__ = ("start", "cycle", "ir", "iready", "stall", "lsuq",
                 "lsu_op", "pv", "pcomp", "last_comp", "rv", "pushed",
                 "head", "moved0", "mem", "rr", "tcdm", "order", "views",
                 "sim", "counts", "st_writes", "ws_writes", "reads",
                 "writes", "ld_range", "st_range", "hits", "last")
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
    head: dict                  # read stream -> first unconsumed element
    moved0: dict                # stream -> elements moved at run start
    mem: list                   # memory-side state per stream
    rr: int
    tcdm: list                  # [accesses, conflicts] added
    order: list                 # (stream, mode, view) of armed streams
    views: list
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
        loop-head registers: ``(ops, dispatched, written)`` or a reason.
        Paths are cached by (pc, length) and re-verified on reuse."""
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
                if len(kind) > 1:
                    return kind
                dispatched.append(instr)
                if kind != "c":
                    ops.append((6, rs1, imm))
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
        path = (tuple(ops), tuple(dispatched), tuple(sorted(written)))
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
        int_ops, dispatched, written = path

        # The FP side issues in queue order.
        n_issue = counters.get(_S_COMPUTE, 0) + counters.get(_S_FP_LSU, 0)
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
            delta["streamers"],
            len(fp.pipe.in_flight), lsu.busy)

        schedule = self._schedule(rec, fp._num_streamers if key[7] else 0)

        # The memory side's own counters come from re-simulation.
        stream_ports = {id(s.data_port) for s in fp.streamers} \
            | {id(s.idx_port) for s in fp.streamers}
        # The schedule has the LSU granted when it posts (see _simulator).
        if delta["ports"][cl.tcdm._ports.index(lsu.port)][2]:
            return "unproven"
        delta["ports"] = [(0, 0, 0) if id(port) in stream_ports else d
                          for port, d in zip(cl.tcdm.ports, delta["ports"])]
        delta["tcdm"] = (0, 0, 0)
        delta["streamers"] = [(0, 0, d[2], d[3], 0)
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
            "rep": [s._rep_count for s in fp.streamers],
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

    def _schedule(self, rec: _Recording, nstream: int) -> tuple:
        """Per cycle of the recorded iteration, from consecutive log
        rows: what the core did to the memory side (pops and pushes per
        stream, the LSU access), and which stream observations its
        timing rested on with their outcomes (see :class:`_Iter`).  An
        operand check counts only when the FP step got as far as the
        stream test, i.e. took no early stall.  Most cycles repeat a few
        situations -- the flat tuple of a cycle's raw facts, with the
        queue head's instruction reduced to the streams it reads -- so
        entries are shared through :data:`_SITUATIONS`."""
        log = rec.log
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
        # Checks also depend on the streams' repeat counts and depths;
        # without repeats every phase is 0 and stays out of the key.
        repeats = tuple(st and st[2] for st in rec.key[8])
        context = (nstream, repeats, tuple(s.fifo_depth for s in streamers))
        # The owed reads and writes, the LSU count and the early stalls
        # only move one way within an iteration that gets this far (a
        # re-arm or a batch would have declined it), so a column whose
        # ends agree is constant.
        dt = len(log) - 1
        base = lsu[0]
        situations = zip(
            *[map(sub, c, c[1:]) if c[0] != c[-1] else repeat(0, dt)
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
        return tuple([get(k) or _situation(k, context, cache)
                      for k in situations])

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
            else:
                walk.lsu.append(("s", None, code[args[0]], j))
        walk.comp_at = [c[3] for c in walk.comp]
        walk.lsu_at = [op[3] for op in walk.lsu]
        return walk

    def _shape(self, signature: tuple, key: tuple, n_entry: int,
               stream: list, n_issue: int, sdelta: list, n_exit: int,
               lsu_busy: bool):
        """The data program and the LSU structure of the first
        ``n_issue`` FP entries of ``stream`` (or why they fail): their
        :meth:`_walk`, then retirement."""
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
        # one element, counting from the loop-head repeat phase.
        reads, advance = [], []
        npops = {}
        for si, st in enumerate(streams):
            if st is None:
                continue
            _, _, dcons, dprod, _ = sdelta[si]
            pops = npops[si] = bisect_left(walk.pops.get(si, ()), n_issue)
            if pops != -dcons or len(pushed.get(si, ())) != -dprod:
                return "unproven"
            if pops:
                reads.append((si, (st[3] + pops - 1) // (st[2] + 1) + 1))
                advance.append((si, (st[3] + pops) // (st[2] + 1)))

        # The data program: slot-numbered operations over a flat value
        # list laid out as pipe values, registers, stream elements,
        # loaded values, then the results in issue order.  ``slot`` maps
        # the walk's numbering onto it (-1 stays -1: no operand).
        nloads = sum(kind == "l" for kind, _, _, _ in issued)
        base = n_entry + len(self.fp.fpregs.values)
        elements = []
        for si, entries in walk.pops.items():
            pops = npops.get(si, 0)
            if pops:
                phase, per = streams[si][3], streams[si][2] + 1
                elements += [base + (phase + k) // per for k in range(pops)]
                base += (phase + pops - 1) // per + 1
            elements += [-1] * (len(entries) - pops)
        slot = list(range(walk.l0))
        slot.append(base + nloads)
        slot += elements
        slot += range(base, base + nloads)
        slot += [-1] * (walk.nloads - nloads)
        slot += range(base + nloads + 1, base + nloads + 1 + ncomp)
        slot += [-1] * (walk.ncomp - ncomp + 1)
        program = (
            tuple(si for si, _ in reads),
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
            lsu_busy=lsu_busy, reads=tuple(reads), advance=tuple(advance))

    # -- replay ---------------------------------------------------------------

    def _view(self, s):
        """Addresses and banks of every element of ``s``'s armed stream
        (None when some element is out of range or misaligned: stepping
        must raise there).  Views are kept per configuration; an
        indirect one is rebuilt when its index array changed."""
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
        tcdm = self.tcdm
        idx = None
        if cfg.indirect:
            idx = np.frombuffer(
                raw, dtype=np.uint32 if isz == 4 else np.uint16
            ).astype(np.int64)
            addr = cfg.base + (idx << cfg.idx_shift)
        else:
            addr = affine_addresses(cfg, np.arange(total))
        if total and (addr.min() < 0 or addr.max() + 8 > mem.size
                      or np.any(addr & 7)):
            return None
        view = _View()
        view.total = total
        view.addr = addr
        view.idx = idx
        bw, nb = tcdm.bank_width, tcdm.num_banks
        # Bank numbers as bytes: compact, and indexing yields ints.
        kind = np.uint8 if nb <= 256 else np.int64
        view.banks = (addr // bw % nb).astype(kind).tobytes() \
            if kind is np.uint8 else (addr // bw % nb).tolist()
        view.span = (int(addr.min()), int(addr.max()) + 8) if total \
            else (0, 0)
        view.ibanks = view.ispan = None
        if idx is not None:
            ibanks = (cfg.idx_base + np.arange(total) * cfg.idx_size) \
                // bw % nb
            view.ibanks = ibanks.astype(kind).tobytes() \
                if kind is np.uint8 else ibanks.tolist()
            view.ispan = (cfg.idx_base, cfg.idx_base + total * cfg.idx_size)
        self._views[id(cfg)] = (cfg, view, raw)
        return view

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
        run.head = {}
        run.moved0 = {}
        run.mem = mem_state = []
        run.order = order = []
        run.views = views = []
        reads, writes = [], []
        mem = cl.mem
        armed = {id(s.cfg) for s in fp.streamers}
        for stale in [k for k in self._views if k not in armed]:
            del self._views[stale]
        for si, s in enumerate(fp.streamers):
            cfg = s.cfg
            if cfg is None:
                mem_state.append(None)
                views.append(None)
                continue
            view = self._view(s)
            if view is None:
                return "address-range"
            views.append(view)
            dport, iport = s.data_port, s.idx_port
            fill = len(s._fifo)
            ipending = iport._pending is not None or iport._response_ready
            if s._igen is not None:
                pos = s._igen._pos
                mode = INDIRECT_READ
                # Element indices count from the stream's arming, while
                # ``elements_moved`` counts across re-arms.
                here = pos - len(s._idx_fifo) - s._data_requested - ipending
            else:
                pos = s._gen.position
                if cfg.mode == SsrMode.WRITE:
                    mode = WRITE
                    here = pos - (s._pending_write_addr is not None)
                else:
                    mode = AFFINE_READ
                    here = pos - s._data_requested
            order.append((si, mode, view))
            run.moved0[si] = here
            mem_state.append([
                fill, s._rep_count, s._data_requested,
                dport._pending is not None, dport._response_ready,
                len(s._idx_fifo), iport._pending is not None,
                iport._response_ready, pos, here,
                s._pending_write_addr is not None, pos - 1,
                0, 0, 0, 0, 0, 0])
            addr = view.addr
            if mode == WRITE:
                run.pushed[si] = [here, list(s._fifo)]
                if s._pending_write_addr is not None \
                        and s._pending_write_addr != addr[here]:
                    return "aliasing"
                writes.append(view.span)
                continue
            run.head[si] = here - fill
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
                first = here + s._data_requested
                for k, v in zip(range(first, first + len(s._idx_fifo)),
                                s._idx_fifo):
                    if view.idx[k] != v:
                        return "aliasing"
                if iport._response_ready \
                        and iport._response != view.idx[pos - 1]:
                    return "aliasing"
        for i, (lo, hi) in enumerate(writes):
            for lo2, hi2 in reads + writes[:i]:
                if lo < hi2 and lo2 < hi:
                    return "aliasing"
        modes = tuple((si, mode, bool(fp.streamers[si].cfg.repeat))
                      for si, mode, _ in order)
        run.sim = _simulator(modes, fp.streamers, fp.lsu.port, cl.tcdm)(
            [v and v.banks for v in views], [v and v.ibanks for v in views],
            [v and v.total for v in views],
            [s.cfg and s.cfg.repeat + 1 for s in fp.streamers])
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
        # The integer path first: branch outcomes and LSU addresses.
        for int_ops, root, _ in paths.values():
            regs = run.ir[:]
            new_lsu = []
            for op in int_ops:
                if op[0] == 6:
                    new_lsu.append((regs[op[1]] + op[2]) & _MASK32)
                elif not _exec_int(op, regs):
                    break
            else:
                break
        else:
            return None
        lsuq = run.lsuq
        addrs = list(lsuq) + new_lsu
        tcdm = self.tcdm
        bw, nb = tcdm.bank_width, tcdm.num_banks
        sim = run.sim(run.mem, root, [a // bw % nb for a in addrs],
                      limit - run.cycle, run.rr)
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
        # every stream and each other.
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
        if st_range is not None:
            lo, hi = st_range
            for lo2, hi2 in run.reads + run.writes:
                if lo < hi2 and lo2 < hi:
                    return "aliasing"
            if ld_range is not None and lo < ld_range[1] \
                    and ld_range[0] < hi:
                return "aliasing"
        if ld_range is not None:
            lo, hi = ld_range
            for lo2, hi2 in run.writes:
                if lo < hi2 and lo2 < hi:
                    return "aliasing"

        # The core timing holds: run the iteration's data program.
        views = run.views
        f64 = mem._f64_view()
        elems = [None] * len(views)
        head = run.head
        for si, count in shape.reads:
            k0 = head[si]
            elems[si] = f64[views[si].addr[k0:k0 + count] >> 3].tolist()
        loads = [mem.read_f64(addr) for kind, addr in zip(kinds, issued)
                 if kind == "l"]
        lsu_op = run.lsu_op
        ld0 = lsu_op[2] if shape.lsu_entry and lsu_op[0] == "l" else None
        pv, pushed, stores = _run_program(shape.program, run, elems, loads,
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
        for si, elements in shape.advance:
            head[si] += elements
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
        for si, mode, view in run.order:
            s = fp.streamers[si]
            (fill, _, requested, dpend, dresp, ifill, ipend, iresp, pos,
             here, pwa, ielem, active, dreads, dwrites, dconf, ireads,
             iconf) = run.mem[si]
            cfg = s.cfg
            dport, iport = s.data_port, s.idx_port
            s._rep_count = ex["rep"][si]
            s._data_requested = requested
            s.active_cycles += active
            dport.reads += dreads
            dport.writes += dwrites
            dport.conflicts += dconf
            iport.reads += ireads
            iport.conflicts += iconf
            addr = int(view.addr[here]) if here < view.total else None
            s.elements_moved += here - run.moved0[si]
            if mode == WRITE:
                first, values = run.pushed[si]
                fifo = values[here - first:here - first + fill]
                s._pending_write_addr = addr if pwa else None
                if dpend:
                    _post(dport, addr, True, fifo[0], 8)
                else:
                    dport._pending = None
                dport._response = None
            else:
                fifo = [mem.read_f64(int(a))
                        for a in view.addr[here - fill:here]]
                if dpend:
                    _post(dport, addr, False, None, 8)
                else:
                    dport._pending = None
                dport._response = mem.read_f64(addr) if dresp else None
            dport._response_ready = dresp
            s._fifo.clear()
            s._fifo.extend(fifo)
            if mode == INDIRECT_READ:
                s._igen._pos = pos
                first = here + requested
                s._idx_fifo.clear()
                s._idx_fifo.extend(int(v) for v in
                                   view.idx[first:first + ifill])
                if ipend:
                    _post(iport, cfg.idx_base + ielem * cfg.idx_size,
                          False, None, cfg.idx_size)
                else:
                    iport._pending = None
                iport._response_ready = iresp
                iport._response = int(view.idx[ielem]) if iresp else None
            else:
                s._gen.jump_to(pos)

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

_SIM_TEMPLATE = """\
def factory(B, IB, T, R1):
{bind}
    def sim(state, node, LB, budget, rr):
{unpack}
        it = node.rep
        schedule = it.schedule
        split = node.split
        dt = it.dt
        if dt > budget and split is None:
            return None
        acc = conf = 0
        grants = []
        cycle = 0
        while cycle < dt:
            pops, pushes, lsu, checks, expect, triples = schedule[cycle]
            if checks:
                if cycle == split:
                    seen = []
                    for si, uses in checks:
{seen}
                    node = node.children.get((*seen,))
                    if node is None:
                        return None
                    it = node.rep
                    schedule = it.schedule
                    split = node.split
                    dt = it.dt
                    if dt > budget and split is None:
                        return None
                    pops, pushes, lsu, _, _, _ = schedule[cycle]
                else:
                    for si, uses, want in triples:
{verify}
{flow}
{memory}
            cycle += 1
        if split is not None or dt > budget:
            return None
        return it, [{pack}], rr, acc, conf, grants
    return sim
"""


def _simulator(modes: tuple, streamers: list, lsu, tcdm):
    """The memory side a hit re-simulates on counters (the rules of
    :mod:`repro.mem.timing`) against an iteration's recorded schedule,
    walking the decision tree of the recordings as the observations come
    out; returns ``(iteration, streams, rr, accesses, conflicts, write
    grants)`` or None.  Generated per stream configuration (``modes``:
    stream, mode, repeats), FIFO depths and port layout (the streams'
    and the FP LSU port ``lsu``), with the stream state in locals."""
    layout = port_layouts(tcdm)
    streams = tuple(
        (si, mode, streamers[si].fifo_depth, layout[streamers[si].data_port],
         layout[streamers[si].idx_port]) for si, mode, _ in modes)
    key = (modes, streams, layout[lsu], len(tcdm._streamer_ports),
           len(streamers))
    factory = _SIMULATORS.get(key)
    if factory is not None:
        return factory
    names = "f r q dp dr g ip ir p m w e a xr xw xc yr yc".split()
    bind, unpack, probe, flow = [], [], [], []
    for index, ((si, mode, repeats), stream) in enumerate(
            zip(modes, streams)):
        bind += [f"B{si} = B[{si}]", f"IB{si} = IB[{si}]",
                 f"T{si} = T[{si}]", f"R1{si} = R1[{si}]"]
        unpack.append(f"({', '.join(n + str(si) for n in names)}) "
                      f"= state[{si}]")
        # An operand observation: the FIFO serves ``uses`` pops (honouring
        # the repeat phase); a push observation: the FIFO has room.
        probe += [f"{'elif' if index else 'if'} si == {si}:",
                  f"    ok = f{si} > 0 and R1{si} - r{si} + (f{si} - 1) "
                  f"* R1{si} >= uses if uses else f{si} < {stream[2]}"]
        if repeats:
            flow += [f"k = pops[{si}]", "if k:", f"    t = r{si} + k",
                     f"    f{si} -= t // R1{si}", f"    r{si} = t % R1{si}",
                     f"    if f{si} < 0:", "        return None"]
        else:
            flow += [f"if pops[{si}]:", f"    f{si} -= pops[{si}]",
                     f"    if f{si} < 0:", "        return None"]
        if mode == WRITE:
            flow += [f"f{si} += pushes[{si}]"]
    armed = {si for si, _, _ in modes}
    pack = ", ".join(
        "[" + ", ".join(f"{name}{si}" for name in names) + "]"
        if si in armed else "None" for si in range(len(streamers)))
    source = _SIM_TEMPLATE.format(
        bind=block(bind or ["pass"], 4), unpack=block(unpack or ["pass"], 8),
        seen=block(probe + ["seen.append(ok)"], 24),
        verify=block(probe + ["if ok is not want:", "    return None"], 24),
        flow=block(flow, 12),
        memory=block(counters_rules(streams, key[2], key[3]), 12),
        pack=pack)
    factory = _SIMULATORS[key] = compile_factory(
        source, f"<memory side {key}>")
    return factory


def _run_program(prog, run, elems, loads, ld0):
    """Execute an iteration's data program on the run's values; returns
    the new pipe values, the values pushed into write streams, and the
    stored values.  The retired registers are updated in place."""
    e_order, ops, pipe_out, rv_out, push_out, store_out = prog
    vals = run.pv + run.rv
    for si in e_order:
        vals += elems[si]
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
