"""RISC-V ISA subset with the Snitch extensions used by the paper.

This package models the ISA-visible surface needed to reproduce the
scalar-chaining experiments:

* RV32IM integer base (the Snitch integer core is RV32).
* The F/D floating-point extensions (64-bit FP registers, as on Snitch).
* ``Xssr``  -- stream semantic registers (``scfgw``/``scfgr`` config access).
* ``Xfrep`` -- the floating-point repetition (hardware loop) instruction.
* ``Xchain`` -- the paper's contribution.  Chaining is configured purely
  through a custom CSR (``0x7C3``), so it adds no new opcodes; the CSR is
  defined in :mod:`repro.isa.csr`.

The package provides instruction definitions, a binary encoder/decoder and
a small two-pass assembler so kernels can be written (and generated) as
ordinary assembly text.
"""

from typing import TYPE_CHECKING

from repro._lazy import attach

if TYPE_CHECKING:
    from repro.isa.registers import (
        FP_REG_NAMES,
        INT_REG_NAMES,
        fp_reg,
        fp_reg_name,
        int_reg,
        int_reg_name,
    )
    from repro.isa.csr import CSR
    from repro.isa.instructions import Instr, InstrClass, SPEC_TABLE, spec_for
    from repro.isa.encoding import decode, encode
    from repro.isa.assembler import AssemblerError, Program, assemble
    from repro.isa.disassembler import disassemble

__all__ = [
    "AssemblerError",
    "CSR",
    "FP_REG_NAMES",
    "INT_REG_NAMES",
    "Instr",
    "InstrClass",
    "Program",
    "SPEC_TABLE",
    "assemble",
    "decode",
    "disassemble",
    "encode",
    "fp_reg",
    "fp_reg_name",
    "int_reg",
    "int_reg_name",
    "spec_for",
]

__getattr__, __dir__ = attach(__name__)
