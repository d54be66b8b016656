"""The in-order single-issue integer core.

Fetches and executes one instruction per cycle (no icache stalls are
modelled; Snitch's L0 loop buffer covers the tight kernels used here).
Floating-point-subsystem instructions -- FP compute, FP loads/stores,
``frep``, ``scfgw``/``scfgr`` and FP-CSR accesses -- are *dispatched* into
the FP instruction queue with their integer operands resolved, and the
core moves on: this is Snitch's pseudo dual-issue.  Instructions whose
result flows back from the FP subsystem (FP compares, ``fcvt.w.d``,
``scfgr``, FP-CSR reads) block the core until the result arrives.

Hazards modelled: load-use delay via per-register ready cycles, multiply/
divide latency the same way, taken-branch and jump penalties, dispatch
stall on a full FP queue, and LSU structural stalls (one outstanding
memory access).
"""

from __future__ import annotations

from repro.core.config import CoreConfig
from repro.core.fp_subsystem import FpSubsystem
from repro.core.perf import PerfCounters
from repro.core.regfile import IntRegFile
from repro.core.sequencer import DispatchedEntry
from repro.isa.assembler import Program
from repro.isa.csr import CSR, is_fp_csr
from repro.isa.instructions import Instr, InstrClass
from repro.mem.tcdm import Tcdm, TcdmPort

_NEVER = 1 << 60


def _signed(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value & (1 << 31) else value


def _sext_width(value: int, bits: int) -> int:
    """Sign-extend a ``bits``-wide loaded value to 32 bits."""
    mask = (1 << bits) - 1
    value &= mask
    if value & (1 << (bits - 1)):
        value |= ~mask
    return value & 0xFFFFFFFF


_ALU_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "sll": lambda a, b: a << (b & 31),
    "srl": lambda a, b: (a & 0xFFFFFFFF) >> (b & 31),
    "sra": lambda a, b: _signed(a) >> (b & 31),
    "slt": lambda a, b: int(_signed(a) < _signed(b)),
    "sltu": lambda a, b: int((a & 0xFFFFFFFF) < (b & 0xFFFFFFFF)),
}

_IMM_TO_ALU = {
    "addi": "add", "andi": "and", "ori": "or", "xori": "xor",
    "slti": "slt", "sltiu": "sltu", "slli": "sll", "srli": "srl",
    "srai": "sra",
}

_BRANCH_OPS = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: _signed(a) < _signed(b),
    "bge": lambda a, b: _signed(a) >= _signed(b),
    "bltu": lambda a, b: (a & 0xFFFFFFFF) < (b & 0xFFFFFFFF),
    "bgeu": lambda a, b: (a & 0xFFFFFFFF) >= (b & 0xFFFFFFFF),
}


class IntCore:
    """RV32IM integer pipeline front half of the Snitch core."""

    def __init__(self, cfg: CoreConfig, program: Program, tcdm: Tcdm,
                 fp: FpSubsystem, perf: PerfCounters, trace=None,
                 dma=None, hart_id: int = 0):
        self.cfg = cfg
        self.program = program
        self.fp = fp
        self.perf = perf
        self.trace = trace
        self.dma = dma
        self.hart_id = hart_id
        #: Set by a BARRIER CSR write; cleared by the cluster when every
        #: core has arrived.
        self.barrier_wait = False
        #: Set (together with ``barrier_wait``) by a SYS_BARRIER CSR
        #: write; cleared only by the surrounding System once every core
        #: of every cluster has arrived.  The cluster-local barrier
        #: release skips cores parked here.
        self.sys_barrier_wait = False
        self.regs = IntRegFile()
        self.pc = program.base
        self.halted = False
        self.stall_until = 0
        self.waiting_sync: Instr | None = None
        self.port: TcdmPort = tcdm.port("core", priority=0)
        self._pending_load_rd: int | None = None
        self._pending_load_mn: str = "lw"
        self._mem = tcdm.mem
        self._decode_cache: dict[int, Instr] = {}
        # Micro-op (scalar-v2) state: per-index lowered handlers and
        # pre-resolved perf slots for the blocked-state bumps.
        self._uops: list = [None] * len(program.instrs)
        self._pc_base = program.base
        self._pvals = perf.values
        self._s_barrier = perf.slot("int_barrier_stalls")
        self._s_sync = perf.slot("int_sync_stalls")
        #: Loop-memo hooks (:mod:`repro.core.fastpath`): with
        #: ``memo_heads`` set before lowering, a taken backward branch
        #: raises ``loop_head`` for the cluster's run loop to clear.
        self.memo_heads = False
        self.loop_head = False

    # -- helpers ---------------------------------------------------------------

    def load_program(self, program: Program) -> None:
        """Point the core at a (new) program and reset its control state.

        The per-PC decoded-instruction cache is keyed by address only,
        so it *must* be invalidated here: reusing a core with a new
        binary at the same addresses would otherwise execute stale
        instructions from the previous image.
        """
        self.program = program
        self.pc = program.base
        self.halted = False
        self.stall_until = 0
        self.waiting_sync = None
        self.barrier_wait = False
        self.sys_barrier_wait = False
        self._pending_load_rd = None
        self.loop_head = False
        self._decode_cache.clear()
        # Micro-ops capture per-instruction state, so they are keyed to
        # the program image exactly like the decode cache and must be
        # dropped with it.
        self._uops = [None] * len(program.instrs)
        self._pc_base = program.base

    def drop_lowered(self) -> None:
        """Forget the lowered micro-ops (rebuilt on the next fetch).

        The closures reference the core, so dropping them once a run is
        over lets a finished cluster be freed by reference counting
        instead of waiting for a full garbage collection.
        """
        self._uops = [None] * len(self._uops)

    def _fetch(self) -> Instr | None:
        index = (self.pc - self.program.base) // 4
        if not 0 <= index < len(self.program.instrs):
            return None
        if not self.cfg.fetch_from_memory:
            return self.program.instrs[index]
        instr = self._decode_cache.get(self.pc)
        if instr is None:
            from repro.isa.encoding import decode

            word = self._mem.read_u32(self.pc)
            instr = decode(word)
            instr.addr = self.pc
            self._decode_cache[self.pc] = instr
        return instr

    def _ready(self, cycle: int, *regs: int) -> bool:
        return all(self.regs.ready(r, cycle) for r in regs)

    # -- the cycle ---------------------------------------------------------------

    def step(self, cycle: int) -> None:
        self._collect_load(cycle)
        if self.halted:
            return
        if self.barrier_wait:
            self.perf.bump("int_barrier_stalls")
            return
        if self.waiting_sync is not None:
            if self.fp.sync_ready:
                value = self.fp.take_sync()
                instr = self.waiting_sync
                if instr.rd:
                    self.regs.write(instr.rd, value, ready_cycle=cycle + 1)
                self.waiting_sync = None
            else:
                self.perf.bump("int_sync_stalls")
            return
        if cycle < self.stall_until:
            return
        instr = self._fetch()
        if instr is None:
            raise RuntimeError(
                f"integer core fell off the program at pc={self.pc:#x}; "
                f"terminate programs with ebreak"
            )
        if instr.is_fp or (instr.iclass is InstrClass.CSR
                           and is_fp_csr(instr.csr)):
            self._dispatch_fp(cycle, instr)
            return
        self._execute_int(cycle, instr)

    def step_v2(self, cycle: int) -> None:
        """Micro-op variant of :meth:`step`: pre-decoded dispatch through
        a per-index handler table instead of per-cycle class tests."""
        if self.port._response_ready:
            self._collect_load(cycle)
        if self.halted:
            return
        if self.barrier_wait:
            self._pvals[self._s_barrier] += 1
            return
        if self.waiting_sync is not None:
            fp = self.fp
            if fp.sync_ready:
                value = fp.take_sync()
                instr = self.waiting_sync
                if instr.rd:
                    self.regs.write(instr.rd, value, ready_cycle=cycle + 1)
                self.waiting_sync = None
            else:
                self._pvals[self._s_sync] += 1
            return
        if cycle < self.stall_until:
            return
        index = (self.pc - self._pc_base) // 4
        uops = self._uops
        if not 0 <= index < len(uops):
            raise RuntimeError(
                f"integer core fell off the program at pc={self.pc:#x}; "
                f"terminate programs with ebreak"
            )
        uop = uops[index]
        if uop is None:
            from repro.core.uops import lower_int  # deferred: mutual import

            uop = uops[index] = lower_int(self, self.program.instrs[index])
        uop(cycle)

    def _collect_load(self, cycle: int) -> None:
        if self.port.response_ready():
            data = self.port.take_response()
            if self._pending_load_rd is not None:
                value = int(data)
                if self._pending_load_mn == "lb":
                    value = _sext_width(value, 8)
                elif self._pending_load_mn == "lh":
                    value = _sext_width(value, 16)
                extra = max(0, self.cfg.load_use_latency - 1)
                self.regs.write(self._pending_load_rd, value,
                                ready_cycle=cycle + extra)
                self._pending_load_rd = None

    # -- FP dispatch ---------------------------------------------------------------

    def _dispatch_fp(self, cycle: int, instr: Instr, uop=None) -> None:
        """Dispatch ``instr`` into the FP queue; ``uop`` is the issue
        micro-op the scalar-v2 engine attaches to the entry."""
        if self.fp.queue_space() <= 0:
            self.perf.bump("int_dispatch_stalls")
            return
        vals: dict[str, int] = {}
        sync = False
        iclass = instr.iclass
        spec = instr.spec

        if iclass in (InstrClass.FP_LOAD, InstrClass.FP_STORE):
            if not self._ready(cycle, instr.rs1):
                self.perf.bump("int_hazard_stalls")
                return
            vals["addr"] = (self.regs.read(instr.rs1) + instr.imm) \
                & 0xFFFFFFFF
        elif iclass is InstrClass.FREP:
            if not self._ready(cycle, instr.rs1):
                self.perf.bump("int_hazard_stalls")
                return
            vals["rs1"] = self.regs.read(instr.rs1)
        elif iclass is InstrClass.SCFG:
            if instr.mnemonic == "scfgw":
                if not self._ready(cycle, instr.rs1, instr.rs2):
                    self.perf.bump("int_hazard_stalls")
                    return
                vals["rs1"] = self.regs.read(instr.rs1)
                vals["rs2"] = self.regs.read(instr.rs2)
            else:
                if not self._ready(cycle, instr.rs1):
                    self.perf.bump("int_hazard_stalls")
                    return
                vals["rs1"] = self.regs.read(instr.rs1)
                sync = True
        elif iclass is InstrClass.CSR:
            if spec.rs1_domain == "x" and instr.mnemonic in (
                    "csrrw", "csrrs", "csrrc"):
                if not self._ready(cycle, instr.rs1):
                    self.perf.bump("int_hazard_stalls")
                    return
                vals["rs1"] = self.regs.read(instr.rs1)
            sync = instr.rd != 0
        elif spec.rd_domain == "x":
            # FP compare / fcvt.w.d: result returns to the integer core.
            sync = True
        elif spec.rs1_domain == "x":
            # fcvt.d.w: signed integer operand captured at dispatch.
            if not self._ready(cycle, instr.rs1):
                self.perf.bump("int_hazard_stalls")
                return
            vals["rs1"] = self.regs.read_signed(instr.rs1)

        self.fp.dispatch(DispatchedEntry(instr, vals, sync, uop))
        self.perf.bump("int_instrs")
        if self.trace is not None:
            self.trace.int_issue(cycle, instr, dispatched=True)
        self.pc += 4
        if sync:
            self.waiting_sync = instr

    # -- integer execution ---------------------------------------------------------

    def _execute_int(self, cycle: int, instr: Instr) -> None:
        mn = instr.mnemonic
        iclass = instr.iclass
        regs = self.regs

        if iclass in (InstrClass.INT_ALU, InstrClass.INT_MUL,
                      InstrClass.INT_DIV):
            if not self._execute_alu(cycle, instr):
                return
        elif iclass is InstrClass.LOAD:
            if not self._ready(cycle, instr.rs1):
                self.perf.bump("int_hazard_stalls")
                return
            if self.port.busy or self._pending_load_rd is not None:
                self.perf.bump("int_lsu_stalls")
                return
            addr = (regs.read(instr.rs1) + instr.imm) & 0xFFFFFFFF
            width = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4}[mn]
            self.port.request(addr, width=width)
            self._pending_load_rd = instr.rd
            self._pending_load_mn = mn
            regs.set_ready(instr.rd, _NEVER)
            self.pc += 4
        elif iclass is InstrClass.STORE:
            if not self._ready(cycle, instr.rs1, instr.rs2):
                self.perf.bump("int_hazard_stalls")
                return
            if self.port.busy or self._pending_load_rd is not None:
                self.perf.bump("int_lsu_stalls")
                return
            addr = (regs.read(instr.rs1) + instr.imm) & 0xFFFFFFFF
            width = {"sb": 1, "sh": 2, "sw": 4}[mn]
            self.port.request(addr, is_write=True, data=regs.read(instr.rs2),
                              width=width)
            self.pc += 4
        elif iclass is InstrClass.BRANCH:
            if not self._ready(cycle, instr.rs1, instr.rs2):
                self.perf.bump("int_hazard_stalls")
                return
            taken = _BRANCH_OPS[mn](regs.read(instr.rs1),
                                    regs.read(instr.rs2))
            if taken:
                self.pc += instr.imm
                self.stall_until = cycle + 1 + self.cfg.branch_penalty
                self.perf.bump("branches_taken")
            else:
                self.pc += 4
                self.perf.bump("branches_not_taken")
        elif iclass is InstrClass.JUMP:
            if mn == "jal":
                regs.write(instr.rd, self.pc + 4, ready_cycle=cycle + 1)
                self.pc += instr.imm
            else:  # jalr
                if not self._ready(cycle, instr.rs1):
                    self.perf.bump("int_hazard_stalls")
                    return
                target = (regs.read(instr.rs1) + instr.imm) & ~1
                regs.write(instr.rd, self.pc + 4, ready_cycle=cycle + 1)
                self.pc = target
            self.stall_until = cycle + 1 + self.cfg.jump_penalty
        elif iclass is InstrClass.CSR:
            self._execute_csr(cycle, instr)
            self.pc += 4
        elif iclass is InstrClass.DMA:
            if not self._execute_dma(cycle, instr):
                return
            self.pc += 4
        elif iclass is InstrClass.SYS:
            self.halted = True
            self.pc += 4
        else:  # pragma: no cover
            raise RuntimeError(f"integer core cannot execute {mn}")

        self.perf.bump("int_instrs")
        if self.trace is not None:
            self.trace.int_issue(cycle, instr, dispatched=False)

    def _execute_alu(self, cycle: int, instr: Instr) -> bool:
        mn = instr.mnemonic
        regs = self.regs
        if mn in ("lui", "auipc"):
            value = (instr.imm << 12) & 0xFFFFFFFF
            if mn == "auipc":
                value = (value + self.pc) & 0xFFFFFFFF
            regs.write(instr.rd, value, ready_cycle=cycle + 1)
            self.pc += 4
            return True
        if not self._ready(cycle, instr.rs1):
            self.perf.bump("int_hazard_stalls")
            return False
        a = regs.read(instr.rs1)
        if mn in _IMM_TO_ALU:
            b = instr.imm
            base_mn = _IMM_TO_ALU[mn]
        else:
            if not self._ready(cycle, instr.rs2):
                self.perf.bump("int_hazard_stalls")
                return False
            b = regs.read(instr.rs2)
            base_mn = mn

        latency = 1
        if instr.iclass is InstrClass.INT_MUL:
            latency = self.cfg.int_mul_latency
            result = self._mul(base_mn, a, b)
        elif instr.iclass is InstrClass.INT_DIV:
            latency = self.cfg.int_div_latency
            result = self._div(base_mn, a, b)
        else:
            result = _ALU_OPS[base_mn](a, b)
        regs.write(instr.rd, result & 0xFFFFFFFF,
                   ready_cycle=cycle + latency)
        self.pc += 4
        return True

    @staticmethod
    def _mul(mn: str, a: int, b: int) -> int:
        sa, sb = _signed(a), _signed(b)
        ua, ub = a & 0xFFFFFFFF, b & 0xFFFFFFFF
        if mn == "mul":
            return (sa * sb) & 0xFFFFFFFF
        if mn == "mulh":
            return ((sa * sb) >> 32) & 0xFFFFFFFF
        if mn == "mulhsu":
            return ((sa * ub) >> 32) & 0xFFFFFFFF
        return ((ua * ub) >> 32) & 0xFFFFFFFF   # mulhu

    @staticmethod
    def _div(mn: str, a: int, b: int) -> int:
        sa, sb = _signed(a), _signed(b)
        ua, ub = a & 0xFFFFFFFF, b & 0xFFFFFFFF
        if mn == "div":
            if sb == 0:
                return 0xFFFFFFFF
            q = abs(sa) // abs(sb)
            return (-q if (sa < 0) != (sb < 0) else q) & 0xFFFFFFFF
        if mn == "divu":
            return 0xFFFFFFFF if ub == 0 else (ua // ub) & 0xFFFFFFFF
        if mn == "rem":
            if sb == 0:
                return sa & 0xFFFFFFFF
            r = abs(sa) % abs(sb)
            return (-r if sa < 0 else r) & 0xFFFFFFFF
        return ua if ub == 0 else (ua % ub) & 0xFFFFFFFF   # remu

    def _execute_dma(self, cycle: int, instr: Instr) -> bool:
        """Xdma control; returns False when the instruction must retry."""
        if self.dma is None:
            raise RuntimeError("Xdma instruction but the cluster has no "
                               "DMA engine")
        regs = self.regs
        mn = instr.mnemonic
        if mn in ("dmsrc", "dmdst", "dmrep") or mn == "dmstr":
            need = (instr.rs1, instr.rs2) if mn == "dmstr" else (instr.rs1,)
            if not self._ready(cycle, *need):
                self.perf.bump("int_hazard_stalls")
                return False
        if mn == "dmsrc":
            self.dma.set_src(regs.read(instr.rs1))
        elif mn == "dmdst":
            self.dma.set_dst(regs.read(instr.rs1))
        elif mn == "dmrep":
            self.dma.set_reps(regs.read(instr.rs1))
        elif mn == "dmstr":
            self.dma.set_strides(regs.read_signed(instr.rs1),
                                 regs.read_signed(instr.rs2))
        elif mn == "dmcpy":
            if not self._ready(cycle, instr.rs1):
                self.perf.bump("int_hazard_stalls")
                return False
            if self.dma.outstanding() >= self.dma.queue_depth:
                self.perf.bump("int_dma_stalls")
                return False
            txid = self.dma.start(regs.read(instr.rs1))
            regs.write(instr.rd, txid, ready_cycle=cycle + 1)
            self.perf.bump("dma_transfers")
        elif mn == "dmstat":
            regs.write(instr.rd, self.dma.outstanding(),
                       ready_cycle=cycle + 1)
        else:  # pragma: no cover
            raise RuntimeError(f"unknown Xdma instruction {mn}")
        return True

    def _execute_csr(self, cycle: int, instr: Instr) -> None:
        regs = self.regs
        operand = regs.read(instr.rs1) if instr.mnemonic in (
            "csrrw", "csrrs", "csrrc") else instr.imm
        old = 0
        if instr.csr == CSR.MCYCLE:
            old = cycle & 0xFFFFFFFF
        elif instr.csr == CSR.MINSTRET:
            old = self.perf.value("int_instrs") & 0xFFFFFFFF
        elif instr.csr == CSR.MHARTID:
            old = self.hart_id
        elif instr.csr == CSR.SIM_MARK:
            if instr.mnemonic in ("csrrw", "csrrwi"):
                self.perf.mark(operand)
        elif instr.csr == CSR.BARRIER:
            if instr.mnemonic in ("csrrw", "csrrwi", "csrrs", "csrrsi"):
                self.barrier_wait = True
        elif instr.csr == CSR.SYS_BARRIER:
            if instr.mnemonic in ("csrrw", "csrrwi", "csrrs", "csrrsi"):
                self.barrier_wait = True
                self.sys_barrier_wait = True
        if instr.rd:
            regs.write(instr.rd, old, ready_cycle=cycle + 1)
