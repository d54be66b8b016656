"""Vectorized FREP/SSR steady-state execution engine (the fast path).

In the paper's kernels the hot region is an ``frep`` hardware loop whose
operands stream in through SSRs and whose results leave through an SSR
or accumulate in (chaining) registers.  In steady state the cycle-level
simulator performs *exactly the same* sequence of micro-events every few
iterations -- yet the scalar model pays full Python dispatch for each of
them.  This module removes that cost without giving up a single bit of
fidelity:

1. **Eligibility** -- when the sequencer's FREP buffer fills, the body is
   analyzed once.  It is eligible when every instruction is a plain FP
   compute op (no loads/stores, no CSR/SCFG, nothing returning a value
   to the integer core), every source is an affine read-stream register,
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

The engine is attached per cluster to compute core 0 under
``CoreConfig.engine == "auto"`` (over the scalar-v2 micro-op engine); it
only engages while every other core is halted and drained.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import spans as _obs
from repro.ssr.config import SsrMode


def _np_min(a, b):
    """Bit-identical to Python's ``min(a, b)`` (ties and NaNs included)."""
    return np.where(b < a, b, a)


def _np_max(a, b):
    return np.where(b > a, b, a)


def _np_fsgnj(a, b):
    return np.copysign(np.abs(a), b)


def _np_fsgnjn(a, b):
    return np.copysign(np.abs(a), -b)


def _np_fsgnjx(a, b):
    return np.copysign(np.abs(a), np.copysign(1.0, a) * np.copysign(1.0, b))


def _guard_div(a, b):
    return not np.any(b == 0.0)


def _guard_sqrt(a):
    return not np.any(np.signbit(a) & (a != 0.0)) and not np.any(np.isnan(a))


#: mnemonic -> (vectorized fn, guard).  The guard returns False when the
#: scalar executor would *raise* for some operand in the batch (divide by
#: zero, sqrt of a negative); the region then stays on the scalar path so
#: the error surfaces exactly where the reference model produces it.
_VECTOR_OPS: dict[str, tuple] = {
    "fadd.d": (np.add, None),
    "fsub.d": (np.subtract, None),
    "fmul.d": (np.multiply, None),
    "fdiv.d": (np.divide, _guard_div),
    "fsqrt.d": (np.sqrt, _guard_sqrt),
    "fmadd.d": (lambda a, b, c: a * b + c, None),
    "fmsub.d": (lambda a, b, c: a * b - c, None),
    "fnmsub.d": (lambda a, b, c: -(a * b) + c, None),
    "fnmadd.d": (lambda a, b, c: -(a * b) - c, None),
    "fsgnj.d": (_np_fsgnj, None),
    "fsgnjn.d": (_np_fsgnjn, None),
    "fsgnjx.d": (_np_fsgnjx, None),
    "fmin.d": (_np_min, None),
    "fmax.d": (_np_max, None),
    "fcvt.d.w": (lambda a: a, None),
}

#: Counters allowed to advance during a steady-state period.  Any other
#: counter moving inside the measured window marks a one-shot event (an
#: in-flight FP load landing, an integer instruction retiring, ...) that
#: must not be replayed, so the engine refuses to fast-forward.
_PERIODIC_COUNTERS = frozenset({
    "fpu_compute_ops", "fpu_fp_add", "fpu_fp_mul", "fpu_fp_fma",
    "fpu_fp_div", "fpu_fp_sqrt", "fpu_fp_minmax", "fpu_fp_sgnj",
    "fpu_fp_cvt", "ssr_reg_reads", "ssr_reg_writes", "chain_pops",
    "chain_pushes", "fp_rf_reads", "fp_rf_writes", "int_sync_stalls",
    "int_dispatch_stalls",
})

_HISTORY_CAP = 4096

_IDLE, _ARMED, _DONE, _REJECTED = range(4)


@dataclass
class _SlotPlan:
    """Dataflow of one body instruction.

    ``operands`` entries are ``("const", v)``, ``("reg", reg)`` (loop
    invariant), ``("slot", j)`` (produced earlier this iteration) or
    ``("stream", r, off)`` (the ``off``-th pop of streamer ``r`` within
    one iteration).
    """

    mnemonic: str
    operands: list
    dest: tuple  # ("stream", r) | ("reg", reg)


@dataclass
class _BodyPlan:
    """Static analysis of an eligible FREP body."""

    slots: list[_SlotPlan]
    slot_of: dict[int, int]              # id(instr) -> slot index
    read_ppi: dict[int, int]             # streamer -> pops / iteration
    read_prefix: dict[int, list[int]]    # streamer -> pops in slots < k
    write_slots: dict[int, list[int]]    # streamer -> pushing slots
    write_prefix: dict[int, list[int]]
    chain_pops: dict[int, tuple]         # reg -> (per_iter, prefix)
    chain_pushes: dict[int, tuple]
    reg_writers: dict[int, list[int]]    # non-stream dest -> writer slots


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


class FastPathEngine:
    """Steady-state detector and batch executor for one compute core."""

    def __init__(self, cluster):
        self.cluster = cluster
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

    # -- per-cycle hook (end of Cluster.step) --------------------------------

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
            delta = self._diff(prev[2], self._snapshot())
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
        self._history[fingerprint] = (cycle, pos, self._snapshot())

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
        if fp.lsu.busy or not cl.dma.idle:
            return False
        for i, other in enumerate(cl.cores):
            if other is core:
                continue
            ofp = cl.fps[i]
            if not other.halted or other.port.busy \
                    or other._pending_load_rd is not None:
                return False
            if not ofp.idle or not ofp.streamers_done():
                return False
        return True

    # -- eligibility ---------------------------------------------------------

    def _is_stream(self, reg: int) -> bool:
        return self.fp.ssr_enable and reg < len(self.fp.streamers)

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
        from collections import deque

        fp = self.fp
        seq = fp.sequencer
        chain = fp.chain
        if seq.inner or seq.staggered:
            return self._reject("nested-or-staggered-frep")

        body = seq.body_entries()
        slots: list[_SlotPlan] = []
        slot_of: dict[int, int] = {}
        read_ppi: dict[int, int] = {}
        read_prefix: dict[int, list[int]] = {}
        write_slots: dict[int, list[int]] = {}
        chain_fifos: dict[int, deque] = {}
        chain_pop_slots: dict[int, list[int]] = {}
        chain_push_slots: dict[int, list[int]] = {}
        reg_writers: dict[int, list[int]] = {}
        invariant_reads: set[int] = set()
        last_writer: dict[int, int] = {}

        for j, entry in enumerate(body):
            instr = entry.instr
            spec = instr.spec
            if entry.sync or spec.rd_domain != "f" \
                    or instr.mnemonic not in _VECTOR_OPS:
                return self._reject("non-vector-op")
            operands = []
            chain_seen: dict[int, tuple] = {}

            def classify(reg: int):
                if self._is_stream(reg):
                    s = fp.streamers[reg]
                    if not self._affine_ok(s, SsrMode.READ):
                        return None
                    off = read_ppi.get(reg, 0)
                    read_ppi[reg] = off + 1
                    return ("stream", reg, off)
                if chain.enabled(reg):
                    if reg in chain_seen:
                        return chain_seen[reg]
                    fifo = chain_fifos.setdefault(reg, deque())
                    if not fifo:
                        return None  # would pop a pre-iteration value
                    src = ("slot", fifo.popleft())
                    chain_pop_slots.setdefault(reg, []).append(j)
                    chain_seen[reg] = src
                    return src
                if reg in last_writer:
                    return ("slot", last_writer[reg])
                invariant_reads.add(reg)
                return ("reg", reg)

            if spec.rs1_domain == "x":
                operands.append(("const", float(entry.vals.get("rs1", 0))))
            elif spec.rs1_domain == "f":
                operands.append(classify(instr.rs1))
            if spec.rs2_domain == "f":
                operands.append(classify(instr.rs2))
            if spec.rs3_domain == "f":
                operands.append(classify(instr.rs3))
            if any(op is None for op in operands):
                return self._reject("ineligible-operand")

            dest = instr.rd
            if self._is_stream(dest):
                s = fp.streamers[dest]
                if not self._affine_ok(s, SsrMode.WRITE):
                    return self._reject("non-affine-write-stream")
                write_slots.setdefault(dest, []).append(j)
                dest_desc = ("stream", dest)
            else:
                if chain.enabled(dest):
                    chain_fifos.setdefault(dest, deque()).append(j)
                    chain_push_slots.setdefault(dest, []).append(j)
                else:
                    last_writer[dest] = j
                reg_writers.setdefault(dest, []).append(j)
                dest_desc = ("reg", dest)
            slots.append(_SlotPlan(instr.mnemonic, operands, dest_desc))
            slot_of[id(instr)] = j

        # A chaining push left unmatched would be popped next iteration:
        # a cross-iteration carry the vectorized evaluation cannot model.
        if any(fifo for fifo in chain_fifos.values()):
            return self._reject("cross-iteration-chain-carry")
        # A register read before any write in the same iteration carries
        # the previous iteration's value.
        if any(reg in reg_writers for reg in invariant_reads):
            return self._reject("cross-iteration-register-carry")

        # Build per-slot prefix counts (events in slots < k).
        L = len(body)

        def prefixes(positions: dict[int, list[int]]) -> dict:
            out = {}
            for key, where in positions.items():
                pref = [0] * L
                count = 0
                marks = set(where)
                for k in range(L):
                    pref[k] = count
                    if k in marks:
                        count += 1
                out[key] = pref
            return out

        stream_pop_positions: dict[int, list[int]] = {}
        for j, sp in enumerate(slots):
            for op in sp.operands:
                if op[0] == "stream":
                    stream_pop_positions.setdefault(op[1], []).append(j)
        read_prefix = {}
        for r, where in stream_pop_positions.items():
            pref = [0] * L
            count = 0
            for k in range(L):
                pref[k] = count
                count += where.count(k)
            read_prefix[r] = pref

        chain_pops = {c: (len(w), prefixes({c: w})[c])
                      for c, w in chain_pop_slots.items()}
        chain_pushes = {c: (len(w), prefixes({c: w})[c])
                        for c, w in chain_push_slots.items()}
        write_prefix = prefixes(write_slots)

        # The streams the body writes must not alias anything the body
        # reads (bulk gathers assume stable inputs) or another write
        # stream (bulk scatters assume a single in-order writer).
        from repro.ssr.address_gen import affine_addr_range
        mem_size = self.cluster.mem.size
        wranges = [affine_addr_range(fp.streamers[r].cfg)
                   for r in write_slots]
        rranges = [affine_addr_range(fp.streamers[r].cfg)
                   for r in read_ppi]
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

        return _BodyPlan(
            slots=slots, slot_of=slot_of, read_ppi=read_ppi,
            read_prefix=read_prefix, write_slots=write_slots,
            write_prefix=write_prefix, chain_pops=chain_pops,
            chain_pushes=chain_pushes, reg_writers=reg_writers)

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

    # -- counter snapshots ---------------------------------------------------

    def _snapshot(self) -> dict:
        cl = self.cluster
        perf = cl.perf
        streamers = {}
        for fi, ofp in enumerate(cl.fps):
            for si, s in enumerate(ofp.streamers):
                streamers[(fi, si)] = (
                    s.active_cycles, s.elements_moved,
                    s._to_consume, s._to_produce,
                    s._gen.position if s._gen is not None else 0)
        counters, stalls = perf.counter_state()
        return {
            "counters": counters,
            "stalls": stalls,
            "pos": self.fp.sequencer.position,
            "replayed": self.fp.sequencer.replayed_instrs,
            "chain": (self.fp.chain.pushes, self.fp.chain.pops,
                      self.fp.chain.backpressure_events),
            "tcdm": (cl.tcdm.total_accesses, cl.tcdm.total_conflicts,
                     cl.tcdm.busy_bank_cycles),
            "ports": [(p.reads, p.writes, p.conflicts)
                      for p in cl.tcdm.ports],
            "streamers": streamers,
            "lsu": tuple((fp.lsu.loads, fp.lsu.stores) for fp in cl.fps),
            "dma": cl.dma.bytes_moved,
            "int_instrs": perf.counters.get("int_instrs", 0),
        }

    @staticmethod
    def _diff(a: dict, b: dict) -> dict:
        """Per-entry ``b - a`` over two snapshots."""
        delta: dict = {"counters": {}, "stalls": {}, "ports": {},
                       "streamers": {}}
        for key in ("counters", "stalls"):
            for name in b[key].keys() | a[key].keys():
                d = b[key].get(name, 0) - a[key].get(name, 0)
                if d:
                    delta[key][name] = d
        delta["ports"] = [tuple(y - x for x, y in zip(pa, pb))
                          for pa, pb in zip(a["ports"], b["ports"])]
        for key in b["streamers"]:
            delta["streamers"][key] = tuple(
                y - x for x, y in zip(a["streamers"][key],
                                      b["streamers"][key]))
        for key in ("pos", "replayed", "dma", "int_instrs"):
            delta[key] = b[key] - a[key]
        for key in ("chain", "tcdm"):
            delta[key] = tuple(y - x for x, y in zip(a[key], b[key]))
        delta["lsu"] = tuple(
            tuple(y - x for x, y in zip(la, lb))
            for la, lb in zip(a["lsu"], b["lsu"]))
        return delta

    def _delta_ok(self, delta: dict) -> bool:
        """Refuse windows containing any non-periodic (one-shot) event."""
        if delta["int_instrs"] or delta["dma"]:
            return False
        if any(any(pair) for pair in delta["lsu"]):
            return False
        for name, d in delta["counters"].items():
            if d and name not in _PERIODIC_COUNTERS:
                return False
        plan = self._plan
        ports = self.cluster.tcdm.ports
        used_ports = {self.fp.streamers[r].data_port
                      for r in (*plan.read_ppi, *plan.write_slots)}
        for index, d in enumerate(delta["ports"]):
            if ports[index] not in used_ports and any(d):
                return False
        core_index = self.cluster.cores.index(self.core)
        used_idx = set(plan.read_ppi) | set(plan.write_slots)
        for (fi, si), d in delta["streamers"].items():
            if (fi != core_index or si not in used_idx) and any(d):
                return False
        return True

    def _max_periods(self, delta: dict) -> int:
        seq = self.fp.sequencer
        dpos = delta["pos"]
        if dpos <= 0:
            return 0
        total_pos = seq.body_len * seq.iters
        n = (total_pos - seq.position - 1) // dpos
        core_index = self.cluster.cores.index(self.core)
        for si, s in enumerate(self.fp.streamers):
            d = delta["streamers"].get((core_index, si))
            if d is None or s._gen is None:
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
        core_index = cl.cores.index(self.core)

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
        sdelta = {si: delta["streamers"][(core_index, si)]
                  for si in range(len(fp.streamers))
                  if (core_index, si) in delta["streamers"]}
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
        from repro.ssr.address_gen import affine_addresses

        elems: dict[int, np.ndarray] = {}
        for r, ppi in plan.read_ppi.items():
            s = fp.streamers[r]
            rep = s.cfg.repeat
            dgen = sdelta.get(r, (0,) * 5)[4]
            dmov = sdelta.get(r, (0,) * 5)[1]
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
            for j, sp in enumerate(plan.slots):
                ops = []
                for od in sp.operands:
                    if od[0] == "const":
                        ops.append(np.full(eval_iters, od[1]))
                    elif od[0] == "reg":
                        ops.append(np.full(eval_iters,
                                           fp.fpregs.values[od[1]]))
                    elif od[0] == "slot":
                        ops.append(results[od[1]])
                    else:
                        r, off = od[1], od[2]
                        rep = fp.streamers[r].cfg.repeat
                        idx = (pre_pops[r] + it * plan.read_ppi[r] + off) \
                            // (rep + 1)
                        np.minimum(idx, len(elems[r]) - 1, out=idx)
                        ops.append(elems[r][idx])
                fn, guard = _VECTOR_OPS[sp.mnemonic]
                if guard is not None and not guard(*ops):
                    return False
                results[j] = fn(*ops)

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
        perf.add_scaled(delta["counters"], delta["stalls"], n)
        cp, cpop, cbp = delta["chain"]
        fp.chain.pushes += n * cp
        fp.chain.pops += n * cpop
        fp.chain.backpressure_events += n * cbp
        ta, tc, tb = delta["tcdm"]
        cl.tcdm.total_accesses += n * ta
        cl.tcdm.total_conflicts += n * tc
        cl.tcdm.busy_bank_cycles += n * tb
        for port, (dr, dw, dc) in zip(cl.tcdm.ports, delta["ports"]):
            port.reads += n * dr
            port.writes += n * dw
            port.conflicts += n * dc

        seq.jump_to(pos1)
        seq.replayed_instrs += n * delta["replayed"]

        for i, op in enumerate(pipe_ops):
            op.value = value(retired1 + i)
        fp.pipe.shift_time(dt)

        for reg, writers in plan.reg_writers.items():
            g = _last_instance(writers, retired1, L)
            if g >= 0:
                fp.fpregs.values[reg] = value(g)

        from collections import deque as _deque
        for si, d in sdelta.items():
            s = fp.streamers[si]
            dact, dmov, dcons, dprod, dgen = d
            s.active_cycles += n * dact
            s.elements_moved += n * dmov
            s._to_consume += n * dcons
            s._to_produce += n * dprod
            if s._gen is None or (not dgen and not dmov
                                  and not dcons and not dprod):
                continue
            if si in plan.read_ppi:
                s._gen.jump_to(s._gen.position + n * dgen)
                fill = len(s._fifo)
                end = s.elements_moved
                s._fifo = _deque(
                    float(v) for v in elems[si][end - fill:end])
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
                s._fifo = _deque(float(v) for v in wvals(si, window))
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
