"""Micro-op lowering: pre-decoded dispatch for the scalar-v2 engine.

The seed interpreter re-discovers the same facts about an instruction on
every cycle it executes: its timing class (an enum property chain), its
operand domains, the ALU/branch callable behind its mnemonic, the perf
counter names it bumps.  This module lowers each decoded
:class:`~repro.isa.instructions.Instr` *once* into a bound handler
closure -- a micro-op.  Only the instructions that fill the stepped
cycles get a specialised closure:

* integer ALU/MUL/DIV ops and branches (a taken backward branch also
  raises the loop memo's loop head);
* the dispatch of plain FP compute ops and of ``fld``/``fsd``;
* the issue of ``fld``/``fsd`` and of pipelined FP ops between FP
  registers, the latter through a body generated for its operand shape
  -- which sources and destination are stream, chaining or plain
  registers under the current ``ssr_enable`` and chaining mask.

In these closures register indices, immediates and operator callables
are closure cells, perf counters are pre-interned integer slots of the
flat :class:`~repro.core.perf.PerfCounters` storage, and ``x0`` reads
need no special case (the register file never writes slot 0, so
``values[0]``/``ready_cycle[0]`` are constant) while ``x0`` writes are
compiled out.

Everything else is rare on the benchmark traffic and runs on the seed
executor it would otherwise duplicate: jumps, integer loads and stores,
CSR, Xdma and ``ebreak`` on :meth:`IntCore._execute_int`; ``frep``,
``scfgw``/``scfgr``, FP CSRs and FP ops that read or return integer
operands on :meth:`IntCore._dispatch_fp`; the issue of those, of
``frep``, FP CSR, ``scfg`` and of div/sqrt on
:meth:`FpSubsystem._issue_entry`.  The seed executors are the
lockstep oracle, so those paths are bit-identical by construction;
``docs/performance.md`` gives the measured instruction mix and the rule
for specialising a class.

Micro-ops only ever run in the clusters every workload builds (one
core, no trace or binary fetch, concurrent chaining; see
:mod:`repro.core.cluster`), so no closure tests for the other cases.
Integer micro-ops are lowered per core (:func:`lower_int`) and capture
the core's register file and perf slots directly.  FP micro-ops
(:func:`lower_fp`) are attached to :class:`DispatchedEntry` objects
and bound to the subsystem by :func:`issue_body`, once per instruction
and operand modes.  Each instruction's issue micro-op is built once,
when its dispatch is lowered, not once per dispatched entry.

Behaviour contract: a micro-op performs *exactly* the state transitions
and counter bumps of the seed interpreter for the same machine state --
the differential test suite steps both engines in lockstep to enforce
this.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from repro.core.fp_subsystem import FpSubsystem
from repro.core.fpu import EXECUTORS, UNPIPELINED_CLASSES, InFlightOp
from repro.core.lsu import _PendingLoad
from repro.core.perf import SLOT, StallReason
from repro.core.sequencer import DispatchedEntry
from repro.isa.csr import is_fp_csr
from repro.isa.instructions import Instr, InstrClass
from repro.mem.timing import block

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
    if iclass in (InstrClass.INT_ALU, InstrClass.INT_MUL, InstrClass.INT_DIV):
        return _lower_alu(core, instr)
    if iclass is InstrClass.BRANCH:
        return _lower_branch(core, instr)
    execute = core._execute_int

    def uop(cycle):
        execute(cycle, instr)
    return uop


_S_INT_INSTRS = SLOT["int_instrs"]
_S_HAZ = SLOT["int_hazard_stalls"]
_S_DISP = SLOT["int_dispatch_stalls"]
_S_TAKEN = SLOT["branches_taken"]
_S_NOT_TAKEN = SLOT["branches_not_taken"]
_S_FP_DISPATCHES = SLOT["fp_dispatches"]
_S_FP_LSU_OPS = SLOT["fp_lsu_ops"]
_S_FP_LOADS = SLOT["fp_loads"]
_S_FP_STORES = SLOT["fp_stores"]
_S_COMPUTE = SLOT["fpu_compute_ops"]
_S_SSR_READS = SLOT["ssr_reg_reads"]
_S_CHAIN_POPS = SLOT["chain_pops"]
_S_RF_READS = SLOT["fp_rf_reads"]


def _lower_alu(core, instr: Instr):
    from repro.core.int_core import _ALU_OPS, _IMM_TO_ALU, IntCore

    mn = instr.mnemonic
    regs = core.regs
    rvals, rready = regs.values, regs.ready_cycle
    rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
    vals = core.perf.values
    s_haz = _S_HAZ
    s_instrs = _S_INT_INSTRS

    if mn in ("lui", "auipc"):
        upper = (imm << 12) & _MASK
        is_auipc = mn == "auipc"

        def uop(cycle):
            value = (upper + core.pc) & _MASK if is_auipc else upper
            if rd:
                rvals[rd] = value
                rready[rd] = cycle + 1
            core.pc += 4
            vals[s_instrs] += 1
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
            vals[s_instrs] += 1
    else:
        def uop(cycle):
            if rready[rs1] > cycle or rready[rs2] > cycle:
                vals[s_haz] += 1
                return
            if rd:
                rvals[rd] = op(rvals[rs1], rvals[rs2]) & _MASK
                rready[rd] = cycle + latency
            core.pc += 4
            vals[s_instrs] += 1
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
    s_instrs = _S_INT_INSTRS
    # A taken backward branch closes a loop iteration; under the loop
    # memo it flags the loop head for the cluster's run loop.
    mark_head = core.memo_heads and imm < 0

    def uop(cycle):
        if rready[rs1] > cycle or rready[rs2] > cycle:
            vals[s_haz] += 1
            return
        if op(rvals[rs1], rvals[rs2]):
            core.pc += imm
            core.stall_until = cycle + penalty_plus_one
            vals[s_taken] += 1
            if mark_head:
                core.loop_head = True
        else:
            core.pc += 4
            vals[s_not] += 1
        vals[s_instrs] += 1
    return uop


def _lower_dispatch(core, instr: Instr):
    """FP-subsystem instructions: resolve operands, enqueue, move on."""
    fp_uop = lower_fp(instr, core.cfg)
    spec = instr.spec
    fp_access = instr.iclass in (InstrClass.FP_LOAD, InstrClass.FP_STORE)
    # Only plain FP compute ops exchange no operand with the integer
    # core: frep, scfg and CSR instructions all read or return one.
    plain_compute = spec.rd_domain != "x" and spec.rs1_domain != "x"
    if not (fp_access or plain_compute):
        # The seed dispatch attaches the issue micro-op built above.
        dispatch = core._dispatch_fp

        def uop(cycle):
            dispatch(cycle, instr, fp_uop)
        return uop

    queue = core.fp.sequencer.queue
    qdepth = core.cfg.fp_queue_depth
    vals = core.perf.values
    s_disp = _S_DISP
    s_fpdisp = _S_FP_DISPATCHES
    s_instrs = _S_INT_INSTRS

    if fp_access:
        regs = core.regs
        rvals, rready = regs.values, regs.ready_cycle
        rs1, imm = instr.rs1, instr.imm
        s_haz = _S_HAZ

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
            vals[s_instrs] += 1
        return uop

    # Plain FP compute: no integer operands, so one immutable entry
    # serves every dispatch of this instruction.
    shared_entry = DispatchedEntry(instr, _NO_VALS, False)
    shared_entry.uop = fp_uop

    def uop(cycle):
        if len(queue) >= qdepth:
            vals[s_disp] += 1
            return
        queue.append(shared_entry)
        vals[s_fpdisp] += 1
        core.pc += 4
        vals[s_instrs] += 1
    return uop


# -- FP-side lowering --------------------------------------------------------

def lower_fp(instr: Instr, cfg):
    """Lower ``instr`` into its issue micro-op: an ``issue(fp, entry,
    cycle)`` closure for ``fld``/``fsd``; for a pipelined FP compute op
    between FP registers what lowering knows about it
    (:class:`_ComputeStatic`), whose body depends on the operand modes;
    the seed's own :meth:`FpSubsystem._issue_entry` for anything else.
    :func:`issue_body` turns each into the ``body(entry, cycle)`` the
    stepped cycle calls.

    An issue performs one issue attempt -- stall classification and
    accounting included -- exactly as the seed
    :meth:`FpSubsystem._issue` would.
    """
    iclass = instr.iclass
    if iclass is InstrClass.FP_LOAD:
        return _lower_fp_load(instr)
    if iclass is InstrClass.FP_STORE:
        return _lower_fp_store(instr)
    spec = instr.spec
    if iclass in (InstrClass.FREP, InstrClass.CSR, InstrClass.SCFG) \
            or iclass in UNPIPELINED_CLASSES \
            or spec.rd_domain != "f" or spec.rs1_domain != "f":
        return FpSubsystem._issue_entry
    return _lower_fp_compute(instr, cfg)


def issue_body(uop, fp):
    """The ``body(entry, cycle)`` of issue micro-op ``uop`` on ``fp``
    under its current ``ssr_enable`` and chaining mask: which operands
    of an FP compute op are stream, chaining or plain registers is fixed
    until a CSR write changes them, so its body is generated for that
    operand shape (:func:`_compute_body`)."""
    if isinstance(uop, _ComputeStatic):
        return _compute_body(uop, fp)
    return partial(uop, fp)


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
        fp.sequencer.advance()
        pvals = fp._pvals
        pvals[_S_FP_LSU_OPS] += 1
        pvals[_S_FP_LOADS] += 1
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
        fp.sequencer.advance()
        pvals[_S_FP_LSU_OPS] += 1
        pvals[_S_FP_STORES] += 1
    return issue


def _lower_fp_compute(instr: Instr, cfg):
    """FP compute issue: the instruction's static facts, from which
    :func:`issue_body` builds the body for each operand shape."""
    spec = instr.spec
    arity, fn = EXECUTORS[instr.mnemonic]
    iclass = instr.iclass
    srcs = tuple(reg for reg, domain in (
        (instr.rs1, spec.rs1_domain), (instr.rs2, spec.rs2_domain),
        (instr.rs3, spec.rs3_domain)) if domain == "f")
    if len(srcs) != arity:  # pragma: no cover - spec table
        raise ValueError(f"{instr.mnemonic} expects {arity} operands, got "
                         f"{len(srcs)}")
    return _ComputeStatic(
        instr=instr, fn=fn, srcs=srcs, dest=instr.rd,
        latency=cfg.fpu_latency[iclass],
        s_class=SLOT[f"fpu_{iclass.name.lower()}"])


@dataclass(frozen=True, slots=True, eq=False)
class _ComputeStatic:
    """What lowering knows about an FP compute instruction (hashed by
    identity: it keys the stepped cycle's issue bodies)."""

    instr: Instr
    fn: Callable
    srcs: tuple[int, ...]      # FP source registers, in operand order
    dest: int
    latency: int
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
    shape = (kinds, mode(static.dest))
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
#: not retire this cycle is chaining backpressure.  Sync and unpipelined
#: ops are the seed's (``_issue_entry``).
_BODY_TEMPLATE = """\
def factory(fp, static, chain_srcs):
    instr, fn, dest = static.instr, static.fn, static.dest
    latency, s_class = static.latency, static.s_class
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
                retires = not valid[hd] or hd in popped or hd in chain_srcs
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
        in_flight.append(InFlightOp(instr, dest, {dest_is_ssr}, result,
                                    completes))
        if seq._active:
            seq.advance()
        else:
            seq.queue.popleft()
        pvals[_S_COMPUTE] += 1
        pvals[s_class] += 1
    return body
"""


def _body_source(kinds, dest_kind) -> str:
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
    return _BODY_TEMPLATE.format(
        bind=block(bind, 4), ready=block(ready, 8), reads=block(reads, 8),
        args=", ".join(args),
        allocate=block(["busy[dest] = True"] if dest_kind == "reg" else [],
                       8),
        dest_is_ssr=dest_kind == "ssr")
