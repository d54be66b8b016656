"""Micro-op lowering: pre-decoded dispatch for the scalar-v2 engine.

The seed interpreter re-discovers the same facts about an instruction on
every cycle it executes: its timing class (an enum property chain), its
operand domains, the ALU/branch callable behind its mnemonic, the perf
counter names it bumps.  This module lowers each decoded
:class:`~repro.isa.instructions.Instr` *once* into a bound handler
closure -- a micro-op -- with every per-cycle decision that is static
resolved at lowering time:

* register indices, immediates and operator callables are captured as
  closure cells;
* perf counters are pre-interned to integer slots of the flat
  :class:`~repro.core.perf.PerfCounters` storage, so a bump is a plain
  list-index increment;
* ``x0`` reads need no special case (the register file never writes
  slot 0, so ``values[0]``/``ready_cycle[0]`` are constant) and ``x0``
  writes are compiled out;
* tracing is compiled in only when a recorder is attached;
* an FP compute issue runs a body generated for its operand shape --
  which sources and destination are stream, chaining or plain
  registers under the current ``ssr_enable`` and chaining mask.

Integer micro-ops are lowered per core (:func:`lower_int`) and capture
the core's register file and perf slots directly.  FP micro-ops
(:func:`lower_fp`) are attached to :class:`DispatchedEntry` objects and
shared across FP subsystems (the SPMD program is shared), so they take
the subsystem as an argument and use its pre-resolved slot attributes.

Behaviour contract: a micro-op performs *exactly* the state transitions
and counter bumps of the seed interpreter for the same machine state --
the differential test suite steps both engines in lockstep to enforce
this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.core.fpu import EXECUTORS, UNPIPELINED_CLASSES, InFlightOp
from repro.core.lsu import _PendingLoad
from repro.core.perf import SLOT, StallReason
from repro.core.sequencer import DispatchedEntry
from repro.isa.csr import is_fp_csr
from repro.isa.instructions import Instr, InstrClass

_NEVER = 1 << 60
_MASK = 0xFFFFFFFF

#: Shared empty operand dict for FP entries that capture no integer
#: operands at dispatch; entries never mutate ``vals``, so one immutable
#: mapping serves every dispatch of every such instruction.
_NO_VALS: dict[str, int] = {}


# -- integer-side lowering ---------------------------------------------------

def lower_int(core, instr: Instr):
    """Lower ``instr`` into a ``handler(cycle)`` closure bound to ``core``."""
    iclass = instr.iclass
    if instr.is_fp or (iclass is InstrClass.CSR and is_fp_csr(instr.csr)):
        return _lower_dispatch(core, instr)
    if iclass in (InstrClass.INT_ALU, InstrClass.INT_MUL,
                  InstrClass.INT_DIV):
        return _lower_alu(core, instr)
    if iclass is InstrClass.LOAD:
        return _lower_load(core, instr)
    if iclass is InstrClass.STORE:
        return _lower_store(core, instr)
    if iclass is InstrClass.BRANCH:
        return _lower_branch(core, instr)
    if iclass is InstrClass.JUMP:
        return _lower_jump(core, instr)
    if iclass in (InstrClass.CSR, InstrClass.DMA, InstrClass.SYS):
        return _lower_slow(core, instr)
    raise RuntimeError(f"integer core cannot execute {instr.mnemonic}")


_S_INT_INSTRS = SLOT["int_instrs"]
_S_HAZ = SLOT["int_hazard_stalls"]
_S_LSU = SLOT["int_lsu_stalls"]
_S_DISP = SLOT["int_dispatch_stalls"]
_S_TAKEN = SLOT["branches_taken"]
_S_NOT_TAKEN = SLOT["branches_not_taken"]
_S_FP_DISPATCHES = SLOT["fp_dispatches"]
_S_FREP_OPS = SLOT["frep_ops"]
_S_FP_CSR_OPS = SLOT["fp_csr_ops"]
_S_SCFG_OPS = SLOT["scfg_ops"]
_S_FP_LSU_OPS = SLOT["fp_lsu_ops"]
_S_FP_LOADS = SLOT["fp_loads"]
_S_FP_STORES = SLOT["fp_stores"]
_S_COMPUTE = SLOT["fpu_compute_ops"]
_S_SSR_READS = SLOT["ssr_reg_reads"]
_S_CHAIN_POPS = SLOT["chain_pops"]
_S_RF_READS = SLOT["fp_rf_reads"]


def _finish(core, instr, dispatched):
    """Shared epilogue: instruction-count bump plus optional trace."""
    vals = core.perf.values
    s_instrs = _S_INT_INSTRS
    trace = core.trace
    if trace is None:
        def finish(cycle):
            vals[s_instrs] += 1
    else:
        def finish(cycle):
            vals[s_instrs] += 1
            trace.int_issue(cycle, instr, dispatched)
    return finish


def _lower_alu(core, instr: Instr):
    from repro.core.int_core import _ALU_OPS, _IMM_TO_ALU, IntCore

    mn = instr.mnemonic
    regs = core.regs
    rvals, rready = regs.values, regs.ready_cycle
    rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
    vals = core.perf.values
    s_haz = _S_HAZ
    finish = _finish(core, instr, False)

    if mn in ("lui", "auipc"):
        upper = (imm << 12) & _MASK
        is_auipc = mn == "auipc"

        def uop(cycle):
            value = (upper + core.pc) & _MASK if is_auipc else upper
            if rd:
                rvals[rd] = value
                rready[rd] = cycle + 1
            core.pc += 4
            finish(cycle)
        return uop

    imm_form = mn in _IMM_TO_ALU
    base_mn = _IMM_TO_ALU.get(mn, mn)
    iclass = instr.iclass
    if iclass is InstrClass.INT_MUL:
        latency = core.cfg.int_mul_latency
        op = lambda a, b: IntCore._mul(base_mn, a, b)    # noqa: E731
    elif iclass is InstrClass.INT_DIV:
        latency = core.cfg.int_div_latency
        op = lambda a, b: IntCore._div(base_mn, a, b)    # noqa: E731
    else:
        latency = 1
        op = _ALU_OPS[base_mn]

    if imm_form:
        def uop(cycle):
            if rready[rs1] > cycle:
                vals[s_haz] += 1
                return
            if rd:
                rvals[rd] = op(rvals[rs1], imm) & _MASK
                rready[rd] = cycle + latency
            core.pc += 4
            finish(cycle)
    else:
        def uop(cycle):
            if rready[rs1] > cycle or rready[rs2] > cycle:
                vals[s_haz] += 1
                return
            if rd:
                rvals[rd] = op(rvals[rs1], rvals[rs2]) & _MASK
                rready[rd] = cycle + latency
            core.pc += 4
            finish(cycle)
    return uop


def _lower_load(core, instr: Instr):
    mn = instr.mnemonic
    regs = core.regs
    rvals, rready = regs.values, regs.ready_cycle
    rd, rs1, imm = instr.rd, instr.rs1, instr.imm
    width = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4}[mn]
    port = core.port
    vals = core.perf.values
    s_haz = _S_HAZ
    s_lsu = _S_LSU
    finish = _finish(core, instr, False)

    def uop(cycle):
        if rready[rs1] > cycle:
            vals[s_haz] += 1
            return
        if port._pending is not None or port._response_ready \
                or core._pending_load_rd is not None:
            vals[s_lsu] += 1
            return
        port.request((rvals[rs1] + imm) & _MASK, width=width)
        core._pending_load_rd = rd
        core._pending_load_mn = mn
        if rd:
            rready[rd] = _NEVER
        core.pc += 4
        finish(cycle)
    return uop


def _lower_store(core, instr: Instr):
    mn = instr.mnemonic
    regs = core.regs
    rvals, rready = regs.values, regs.ready_cycle
    rs1, rs2, imm = instr.rs1, instr.rs2, instr.imm
    width = {"sb": 1, "sh": 2, "sw": 4}[mn]
    port = core.port
    vals = core.perf.values
    s_haz = _S_HAZ
    s_lsu = _S_LSU
    finish = _finish(core, instr, False)

    def uop(cycle):
        if rready[rs1] > cycle or rready[rs2] > cycle:
            vals[s_haz] += 1
            return
        if port._pending is not None or port._response_ready \
                or core._pending_load_rd is not None:
            vals[s_lsu] += 1
            return
        port.request((rvals[rs1] + imm) & _MASK, is_write=True,
                     data=rvals[rs2], width=width)
        core.pc += 4
        finish(cycle)
    return uop


def _lower_branch(core, instr: Instr):
    from repro.core.int_core import _BRANCH_OPS

    op = _BRANCH_OPS[instr.mnemonic]
    regs = core.regs
    rvals, rready = regs.values, regs.ready_cycle
    rs1, rs2, imm = instr.rs1, instr.rs2, instr.imm
    penalty_plus_one = 1 + core.cfg.branch_penalty
    vals = core.perf.values
    s_haz = _S_HAZ
    s_taken = _S_TAKEN
    s_not = _S_NOT_TAKEN
    finish = _finish(core, instr, False)

    def uop(cycle):
        if rready[rs1] > cycle or rready[rs2] > cycle:
            vals[s_haz] += 1
            return
        if op(rvals[rs1], rvals[rs2]):
            core.pc += imm
            core.stall_until = cycle + penalty_plus_one
            vals[s_taken] += 1
        else:
            core.pc += 4
            vals[s_not] += 1
        finish(cycle)
    return uop


def _lower_jump(core, instr: Instr):
    regs = core.regs
    rvals, rready = regs.values, regs.ready_cycle
    rd, rs1, imm = instr.rd, instr.rs1, instr.imm
    penalty_plus_one = 1 + core.cfg.jump_penalty
    vals = core.perf.values
    s_haz = _S_HAZ
    finish = _finish(core, instr, False)

    if instr.mnemonic == "jal":
        def uop(cycle):
            if rd:
                rvals[rd] = (core.pc + 4) & _MASK
                rready[rd] = cycle + 1
            core.pc += imm
            core.stall_until = cycle + penalty_plus_one
            finish(cycle)
    else:  # jalr
        def uop(cycle):
            if rready[rs1] > cycle:
                vals[s_haz] += 1
                return
            target = (rvals[rs1] + imm) & ~1
            if rd:
                rvals[rd] = (core.pc + 4) & _MASK
                rready[rd] = cycle + 1
            core.pc = target
            core.stall_until = cycle + penalty_plus_one
            finish(cycle)
    return uop


def _lower_slow(core, instr: Instr):
    """CSR / Xdma / SYS: rare enough to reuse the seed executors."""
    iclass = instr.iclass
    finish = _finish(core, instr, False)

    if iclass is InstrClass.SYS:
        def uop(cycle):
            core.halted = True
            core.pc += 4
            finish(cycle)
    elif iclass is InstrClass.CSR:
        def uop(cycle):
            core._execute_csr(cycle, instr)
            core.pc += 4
            finish(cycle)
    else:  # DMA
        def uop(cycle):
            if not core._execute_dma(cycle, instr):
                return
            core.pc += 4
            finish(cycle)
    return uop


def _lower_dispatch(core, instr: Instr):
    """FP-subsystem instructions: resolve operands, enqueue, move on."""
    fp = core.fp
    queue = fp.sequencer.queue
    qdepth = core.cfg.fp_queue_depth
    regs = core.regs
    rvals, rready = regs.values, regs.ready_cycle
    rs1, rs2, imm = instr.rs1, instr.rs2, instr.imm
    vals = core.perf.values
    s_haz = _S_HAZ
    s_disp = _S_DISP
    s_fpdisp = _S_FP_DISPATCHES
    finish = _finish(core, instr, True)
    fp_uop = lower_fp(instr, core.cfg)
    iclass = instr.iclass
    spec = instr.spec

    if iclass in (InstrClass.FP_LOAD, InstrClass.FP_STORE):
        def uop(cycle):
            if len(queue) >= qdepth:
                vals[s_disp] += 1
                return
            if rready[rs1] > cycle:
                vals[s_haz] += 1
                return
            entry = DispatchedEntry(
                instr, {"addr": (rvals[rs1] + imm) & _MASK}, False)
            entry.uop = fp_uop
            queue.append(entry)
            vals[s_fpdisp] += 1
            core.pc += 4
            finish(cycle)
        return uop

    if iclass is InstrClass.FREP:
        def uop(cycle):
            if len(queue) >= qdepth:
                vals[s_disp] += 1
                return
            if rready[rs1] > cycle:
                vals[s_haz] += 1
                return
            entry = DispatchedEntry(instr, {"rs1": rvals[rs1]}, False)
            entry.uop = fp_uop
            queue.append(entry)
            vals[s_fpdisp] += 1
            core.pc += 4
            finish(cycle)
        return uop

    if iclass is InstrClass.SCFG:
        if instr.mnemonic == "scfgw":
            def uop(cycle):
                if len(queue) >= qdepth:
                    vals[s_disp] += 1
                    return
                if rready[rs1] > cycle or rready[rs2] > cycle:
                    vals[s_haz] += 1
                    return
                entry = DispatchedEntry(
                    instr, {"rs1": rvals[rs1], "rs2": rvals[rs2]}, False)
                entry.uop = fp_uop
                queue.append(entry)
                vals[s_fpdisp] += 1
                core.pc += 4
                finish(cycle)
        else:  # scfgr: result returns to the integer core
            def uop(cycle):
                if len(queue) >= qdepth:
                    vals[s_disp] += 1
                    return
                if rready[rs1] > cycle:
                    vals[s_haz] += 1
                    return
                entry = DispatchedEntry(instr, {"rs1": rvals[rs1]}, True)
                entry.uop = fp_uop
                queue.append(entry)
                vals[s_fpdisp] += 1
                core.pc += 4
                finish(cycle)
                core.waiting_sync = instr
        return uop

    if iclass is InstrClass.CSR:
        reads_rs1 = spec.rs1_domain == "x" and instr.mnemonic in (
            "csrrw", "csrrs", "csrrc")
        sync = instr.rd != 0

        def uop(cycle):
            if len(queue) >= qdepth:
                vals[s_disp] += 1
                return
            if reads_rs1:
                if rready[rs1] > cycle:
                    vals[s_haz] += 1
                    return
                entry = DispatchedEntry(instr, {"rs1": rvals[rs1]}, sync)
            else:
                entry = DispatchedEntry(instr, _NO_VALS, sync)
            entry.uop = fp_uop
            queue.append(entry)
            vals[s_fpdisp] += 1
            core.pc += 4
            finish(cycle)
            if sync:
                core.waiting_sync = instr
        return uop

    if spec.rd_domain == "x":
        # FP compare / fcvt.w.d: result returns to the integer core.
        def uop(cycle):
            if len(queue) >= qdepth:
                vals[s_disp] += 1
                return
            entry = DispatchedEntry(instr, _NO_VALS, True)
            entry.uop = fp_uop
            queue.append(entry)
            vals[s_fpdisp] += 1
            core.pc += 4
            finish(cycle)
            core.waiting_sync = instr
        return uop

    if spec.rs1_domain == "x":
        # fcvt.d.w: signed integer operand captured at dispatch.
        def uop(cycle):
            if len(queue) >= qdepth:
                vals[s_disp] += 1
                return
            if rready[rs1] > cycle:
                vals[s_haz] += 1
                return
            value = rvals[rs1]
            if value & 0x80000000:
                value -= 1 << 32
            entry = DispatchedEntry(instr, {"rs1": value}, False)
            entry.uop = fp_uop
            queue.append(entry)
            vals[s_fpdisp] += 1
            core.pc += 4
            finish(cycle)
        return uop

    # Plain FP compute: no integer operands, so one immutable entry
    # serves every dispatch of this instruction.  The hottest dispatch
    # of the stencils, so the untraced epilogue is inlined.
    shared_entry = DispatchedEntry(instr, _NO_VALS, False)
    shared_entry.uop = fp_uop
    if core.trace is None:
        s_instrs = _S_INT_INSTRS

        def uop(cycle):
            if len(queue) >= qdepth:
                vals[s_disp] += 1
                return
            queue.append(shared_entry)
            vals[s_fpdisp] += 1
            core.pc += 4
            vals[s_instrs] += 1
        return uop

    def uop(cycle):
        if len(queue) >= qdepth:
            vals[s_disp] += 1
            return
        queue.append(shared_entry)
        vals[s_fpdisp] += 1
        core.pc += 4
        finish(cycle)
    return uop


# -- FP-side lowering --------------------------------------------------------

def lower_fp(instr: Instr, cfg):
    """Lower ``instr`` into an ``issue(fp, entry, cycle)`` closure.

    The closure performs one issue attempt -- stall classification and
    accounting included -- exactly as the seed
    :meth:`FpSubsystem._issue` would.  It is shared across FP
    subsystems, so per-cluster state (perf slots, streamers, chaining)
    is reached through pre-resolved attributes on ``fp``.
    """
    iclass = instr.iclass

    if iclass is InstrClass.FREP:
        def issue(fp, entry, cycle):
            seq = fp.sequencer
            seq.begin_frep(entry)
            seq.queue.popleft()
            fp._pvals[_S_FREP_OPS] += 1
            if fp.trace is not None:
                fp.trace.fp_issue(cycle, instr, "frep")
        return issue

    if iclass is InstrClass.CSR:
        def issue(fp, entry, cycle):
            fp._apply_csr(entry)
            fp.sequencer.advance()
            fp._pvals[_S_FP_CSR_OPS] += 1
            if fp.trace is not None:
                fp.trace.fp_issue(cycle, instr, "csr")
        return issue

    if iclass is InstrClass.SCFG:
        def issue(fp, entry, cycle):
            fp._apply_scfg(entry)
            fp.sequencer.advance()
            fp._pvals[_S_SCFG_OPS] += 1
            if fp.trace is not None:
                fp.trace.fp_issue(cycle, instr, "scfg")
        return issue

    if iclass is InstrClass.FP_LOAD:
        return _lower_fp_load(instr)
    if iclass is InstrClass.FP_STORE:
        return _lower_fp_store(instr)
    return _lower_fp_compute(instr, cfg)


def _lower_fp_load(instr: Instr):
    dest = instr.rd
    pending_load = _PendingLoad(dest)

    def issue(fp, entry, cycle):
        lsu = fp.lsu
        port = lsu.port
        if lsu._pending_load is not None or lsu._pending_store \
                or lsu._blocked_value is not None \
                or port._pending is not None or port._response_ready:
            fp.perf.stall(StallReason.LSU_BUSY)
            return
        if fp.ssr_enable and dest < fp._num_streamers:
            raise RuntimeError(
                f"fld into stream register f{dest} while SSRs are enabled")
        regs = fp.fpregs
        chain_on = fp.chain.mask >> dest & 1
        if not chain_on and regs.busy[dest]:
            fp.perf.stall(StallReason.WAW)
            return
        if not chain_on:
            regs.busy[dest] = True
        req = port._req
        req.addr = entry.vals["addr"]
        req.is_write = False
        req.data = None
        req.width = 8
        port._pending = req
        lsu._pending_load = pending_load
        lsu.loads += 1
        fp._advance()
        pvals = fp._pvals
        pvals[_S_FP_LSU_OPS] += 1
        pvals[_S_FP_LOADS] += 1
        if fp.trace is not None:
            fp.trace.fp_issue(cycle, instr, "load")
    return issue


def _lower_fp_store(instr: Instr):
    src = instr.rs2

    def issue(fp, entry, cycle):
        lsu = fp.lsu
        port = lsu.port
        if lsu._pending_load is not None or lsu._pending_store \
                or lsu._blocked_value is not None \
                or port._pending is not None or port._response_ready:
            fp.perf.stall(StallReason.LSU_BUSY)
            return
        chain = fp.chain
        pvals = fp._pvals
        if fp.ssr_enable and src < fp._num_streamers:
            streamer = fp.streamers[src]
            if not streamer._fifo:
                fp.perf.stall(StallReason.SSR_EMPTY)
                return
            value = streamer.pop()
            pvals[_S_SSR_READS] += 1
        elif chain.mask >> src & 1:
            if not chain.valid[src]:
                fp.perf.stall(StallReason.CHAIN_EMPTY)
                return
            value = fp.fpregs.values[src]
            chain.note_pop(src)
            pvals[_S_CHAIN_POPS] += 1
        else:
            if fp.fpregs.busy[src]:
                fp.perf.stall(StallReason.RAW)
                return
            value = fp.fpregs.values[src]
            pvals[_S_RF_READS] += 1
        req = port._req
        req.addr = entry.vals["addr"]
        req.is_write = True
        req.data = value
        req.width = 8
        port._pending = req
        lsu._pending_store = True
        lsu.stores += 1
        fp._advance()
        pvals[_S_FP_LSU_OPS] += 1
        pvals[_S_FP_STORES] += 1
        if fp.trace is not None:
            fp.trace.fp_issue(cycle, instr, "store")
    return issue


def _lower_fp_compute(instr: Instr, cfg):
    """FP compute issue: a dispatcher over operand-specialised bodies.

    Which operands are stream, chaining or plain registers depends on
    the FP subsystem's ``ssr_enable`` and chaining mask, which change
    only at CSR writes.  The closure keeps the body specialised for the
    last-seen ``(fp, ssr_enable, chain.mask)`` and builds another (see
    :func:`_compute_body`) when that key changes.
    """
    spec = instr.spec
    arity, fn = EXECUTORS[instr.mnemonic]
    iclass = instr.iclass
    sync = spec.rd_domain == "x"       # feq/flt/fle, fcvt.w.d
    rs1_is_x = spec.rs1_domain == "x"  # fcvt.d.w reads an int operand
    srcs = tuple(reg for reg, domain in (
        (instr.rs1, spec.rs1_domain), (instr.rs2, spec.rs2_domain),
        (instr.rs3, spec.rs3_domain)) if domain == "f")
    if len(srcs) + rs1_is_x != arity:  # pragma: no cover - spec table
        raise ValueError(f"{instr.mnemonic} expects {arity} operands, got "
                         f"{len(srcs) + rs1_is_x}")
    static = _ComputeStatic(
        instr=instr, fn=fn, srcs=srcs, dest=None if sync else instr.rd,
        sync=sync, rs1_is_x=rs1_is_x, latency=cfg.fpu_latency[iclass],
        unpipelined=iclass in UNPIPELINED_CLASSES,
        s_class=SLOT[f"fpu_{iclass.name.lower()}"])
    bodies: dict[tuple, Callable] = {}
    last_fp: Any = None
    last_ssr: Any = None
    last_mask: Any = None
    body: Any = None

    def issue(fp, entry, cycle):
        nonlocal last_fp, last_ssr, last_mask, body
        if fp is not last_fp or fp.ssr_enable is not last_ssr \
                or fp.chain.mask != last_mask:
            last_fp, last_ssr, last_mask = fp, fp.ssr_enable, fp.chain.mask
            key = (fp, last_ssr, last_mask)
            body = bodies.get(key)
            if body is None:
                body = bodies[key] = _compute_body(static, fp)
        body(entry, cycle)
    return issue


@dataclass(frozen=True, slots=True)
class _ComputeStatic:
    """What lowering knows about an FP compute instruction."""

    instr: Instr
    fn: Callable
    srcs: tuple[int, ...]      # FP source registers, in operand order
    dest: int | None           # None for results sent to the integer core
    sync: bool
    rs1_is_x: bool             # fcvt.d.w: rs1 is an integer operand
    latency: int
    unpipelined: bool
    s_class: int               # perf slot of the op's FPU class


#: Compiled body factories keyed by operand shape; the generated code
#: depends on the shape only, so every instruction and cluster of that
#: shape shares one compilation.
_BODY_FACTORIES: dict[tuple, Any] = {}


def _compute_body(static: _ComputeStatic, fp):
    """Issue body for ``static`` under ``fp``'s current operand modes.

    A source or destination register below the stream count (while
    SSRs are enabled) is a stream register, one with its chaining mask
    bit set is a chaining register, anything else is plain.  The body
    performs exactly the seed's issue attempt for that classification:
    chaining/RAW stalls in operand order, then stream-empty stalls (a
    stream named in several positions must serve one pop per
    position), WAW on a plain destination, pipe capacity with the
    head-writeback prediction, then pops, reads and execution.
    """
    nstream = fp._num_streamers if fp.ssr_enable else 0
    mask = fp.chain.mask

    def mode(reg: int) -> str:
        if reg < nstream:
            return "ssr"
        return "chain" if mask >> reg & 1 else "reg"

    srcs = static.srcs
    kinds = tuple((mode(reg), srcs.index(reg)) for reg in srcs)
    dest_kind = "none" if static.dest is None else mode(static.dest)
    shape = (kinds, dest_kind, static.rs1_is_x)
    factory = _BODY_FACTORIES.get(shape)
    if factory is None:
        namespace = {"InFlightOp": InFlightOp, "StallReason": StallReason,
                     "_S_SSR_READS": _S_SSR_READS,
                     "_S_CHAIN_POPS": _S_CHAIN_POPS,
                     "_S_RF_READS": _S_RF_READS, "_S_COMPUTE": _S_COMPUTE}
        code = compile(_body_source(*shape), f"<fp issue {shape}>", "exec")
        exec(code, namespace)  # source built from the shape alone
        factory = _BODY_FACTORIES[shape] = namespace["factory"]
    chain_srcs = frozenset(reg for reg, (kind, _) in zip(srcs, kinds)
                           if kind == "chain")
    return factory(fp, static, chain_srcs)


#: The issue body of one operand shape; :func:`_body_source` fills in
#: the shape-dependent parts.  Below full pipe depth the head-writeback
#: prediction cannot matter; at full depth a completed head that will
#: not retire this cycle is chaining backpressure.
_BODY_TEMPLATE = """\
def factory(fp, static, chain_srcs):
    instr, fn, dest = static.instr, static.fn, static.dest
    sync, latency = static.sync, static.latency
    unpipelined, s_class = static.unpipelined, static.s_class
    srcs = static.srcs
    chain = fp.chain
    valid = chain.valid
    popped = chain._popped_this_cycle
    values = fp.fpregs.values
    busy = fp.fpregs.busy
    streamers = fp.streamers
    pipe = fp.pipe
    in_flight = pipe.in_flight
    depth = fp._pipe_depth
    pvals = fp._pvals
    seq = fp.sequencer
    stall = fp.perf.stall
{bind}
    def body(entry, cycle):
{ready}
        if pipe._unpipelined:
            stall(StallReason.FPU_BUSY)
            return
        n = len(in_flight)
        if n >= depth:
            op = in_flight[0]
            if op.completes_at > cycle:
                stall(StallReason.FPU_BUSY)
                return
            hd = op.dest
            if op.sync:
                retires = not fp.sync_ready
            elif op.dest_is_ssr:
                retires = streamers[hd].can_push()
            elif chain.mask >> hd & 1:
                if chain.concurrent_push_pop:
                    retires = not valid[hd] or hd in popped \\
                        or hd in chain_srcs
                else:
                    retires = not chain._valid_at_start[hd] \\
                        and not valid[hd]
            else:
                retires = True
            if n - retires >= depth:
                stall(StallReason.FPU_BUSY if retires
                      else StallReason.CHAIN_BACKPRESSURE)
                return
{reads}
        result = fn({args})
{allocate}
        completes = cycle + latency
        if completes <= pipe._last_completion:
            completes = pipe._last_completion + 1
        pipe._last_completion = completes
        if unpipelined:
            pipe._unpipelined += 1
        in_flight.append(InFlightOp(instr, dest, {dest_is_ssr}, result,
                                    completes, sync, unpipelined))
        if seq._active:
            pos = seq._pos
            if seq._inner:
                body_idx = pos // seq._iters
                iter_idx = pos % seq._iters
            else:
                body_idx = pos % seq._body_len
                iter_idx = pos // seq._body_len
            buffer = seq._buffer
            if body_idx == len(buffer):
                buffer.append(seq.queue.popleft())
            if iter_idx > 0:
                seq.replayed_instrs += 1
            pos += 1
            seq._pos = pos
            if pos >= seq._body_len * seq._iters:
                seq._active = False
                seq._buffer = []
                seq._stagger_cache = {{}}
        else:
            seq.queue.popleft()
        pvals[_S_COMPUTE] += 1
        pvals[s_class] += 1
        if fp.trace is not None:
            fp.trace.fp_issue(cycle, instr, "compute")
    return body
"""


def _body_source(kinds, dest_kind, rs1_is_x) -> str:
    """Python source of the body factory for one operand shape.

    ``kinds`` holds one ``(kind, first)`` pair per FP source position:
    the register's mode (``"ssr"``, ``"chain"`` or ``"reg"``) and the
    first position naming the same register.
    """
    bind = []
    ready = []
    stream_ready = []
    reads = []
    counts = {"ssr": 0, "chain": 0, "reg": 0}
    for i, (kind, first) in enumerate(kinds):
        if first == i:
            bind.append(f"r{i} = srcs[{i}]")
        if kind == "ssr":
            s = f"s{first}"
            if first == i:
                bind.append(f"{s} = streamers[r{i}]")
                uses = sum(1 for _, f in kinds if f == i)
                test = f"not {s}._fifo" if uses == 1 \
                    else f"{s}.available_pops() < {uses}"
                stream_ready += [f"if {test}:",
                                 "    stall(StallReason.SSR_EMPTY)",
                                 "    return"]
            # Each position pops its own element (honouring repeat).
            reads += [f"fifo = {s}._fifo",
                      f"a{i} = fifo[0]",
                      f"{s}._rep_count += 1",
                      f"{s}._to_consume -= 1",
                      f"if {s}._rep_count > {s}.cfg.repeat:",
                      "    fifo.popleft()",
                      f"    {s}._rep_count = 0"]
            counts["ssr"] += 1
        elif first != i:
            # A plain register is read once per position; a chaining
            # register pops once and serves every position.
            reads.append(f"a{i} = values[r{first}]" if kind == "reg"
                         else f"a{i} = a{first}")
            counts["reg"] += kind == "reg"
        else:
            reads.append(f"a{i} = values[r{i}]")
            counts[kind] += 1
            if kind == "chain":
                ready += [f"if not valid[r{i}]:",
                          "    stall(StallReason.CHAIN_EMPTY)", "    return"]
                reads += [f"valid[r{i}] = False", f"popped.add(r{i})"]
            else:
                ready += [f"if busy[r{i}]:",
                          "    stall(StallReason.RAW)", "    return"]
    # Chaining and RAW stalls win over stream-empty ones whatever the
    # operand order.
    ready += stream_ready
    if dest_kind == "reg":
        ready += ["if busy[dest]:", "    stall(StallReason.WAW)", "    return"]
    if counts["ssr"]:
        reads.append(f"pvals[_S_SSR_READS] += {counts['ssr']}")
    if counts["chain"]:
        reads += [f"chain.pops += {counts['chain']}",
                  f"pvals[_S_CHAIN_POPS] += {counts['chain']}"]
    if counts["reg"]:
        reads.append(f"pvals[_S_RF_READS] += {counts['reg']}")
    args = [f"a{i}" for i in range(len(kinds))]
    if rs1_is_x:
        args.insert(0, 'float(entry.vals.get("rs1", 0))')

    def block(lines, depth):
        return "\n".join(" " * depth + line for line in lines)

    return _BODY_TEMPLATE.format(
        bind=block(bind, 4), ready=block(ready, 8), reads=block(reads, 8),
        args=", ".join(args),
        allocate=block(["busy[dest] = True"] if dest_kind == "reg" else [],
                       8),
        dest_is_ssr=dest_kind == "ssr")
