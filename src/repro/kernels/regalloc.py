"""Register budgeting for the stencil code generators.

This module reproduces the paper's register-pressure story *by
construction* rather than by hard-coding: given the variant, the unroll
factor and the number of stencil coefficients, it computes how many
coefficients fit in the FP register file and which must be reloaded from
memory every block.

Budget on the 32-entry FP register file:

* ``f0``-``f2`` are stream registers whenever SSRs are enabled (always,
  since the input is streamed) -- 29 usable registers remain;
* non-chaining variants need ``unroll`` accumulators plus 2 rotating
  temporaries for spill reloads;
* chaining variants need a *single* accumulator register (the FIFO through
  the FPU pipe provides the other ``unroll - 1`` slots) and no spill
  temporaries, which is what frees enough registers to hold all 27
  coefficients of the paper's stencils.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.registers import NUM_FP_REGS, NUM_SSRS, fp_reg_name
from repro.kernels.variants import Variant

#: First FP register available to kernels (f0-f2 are stream registers).
FIRST_FREE = NUM_SSRS

#: Rotating temporaries used to pipeline spill reloads (load-use slack).
SPILL_TEMPS = 2


@dataclass(frozen=True)
class RegisterPlan:
    """Concrete register assignment for one stencil kernel build."""

    variant: Variant
    unroll: int
    ntaps: int
    #: Accumulator register numbers (length ``unroll``; for chaining
    #: variants all entries alias the single chaining register).
    acc_regs: tuple[int, ...]
    #: Coefficient register of each *resident* tap, by tap index.
    coeff_regs: dict[int, int]
    #: Tap indices whose coefficient is reloaded every block.
    spilled_taps: tuple[int, ...]
    #: Temporaries used for spill reloads.
    temp_regs: tuple[int, ...]

    @property
    def chain_reg(self) -> int | None:
        return self.acc_regs[0] if self.variant.uses_chaining else None

    @property
    def chain_mask(self) -> int:
        if not self.variant.uses_chaining:
            return 0
        return 1 << self.acc_regs[0]

    @property
    def resident_coeffs(self) -> int:
        return len(self.coeff_regs)

    @property
    def registers_used(self) -> int:
        regs = set(self.acc_regs) | set(self.coeff_regs.values()) \
            | set(self.temp_regs)
        return len(regs)

    def describe(self) -> str:
        """Human-readable allocation summary (used by DESIGN/report)."""
        accs = ", ".join(fp_reg_name(r) for r in dict.fromkeys(self.acc_regs))
        return (f"{self.variant.label}: acc=[{accs}] "
                f"resident coeffs={self.resident_coeffs}/{self.ntaps} "
                f"spilled={len(self.spilled_taps)} "
                f"regs used={self.registers_used}/{NUM_FP_REGS - FIRST_FREE}")


def require_concurrent_push_pop(concurrent_push_pop: bool) -> None:
    """Raise ``ValueError`` unless the chaining FIFO may pop and push in
    one cycle (``CoreConfig.chain_concurrent_push_pop``).

    Every chaining schedule keeps ``fpu_depth + 1`` partials in flight,
    which fills the logical FIFO; without same-cycle pop and push the
    head writeback waits for a pop only the blocked consumer could do,
    so the run could never finish.
    """
    if not concurrent_push_pop:
        raise ValueError(
            "chaining requires chain_concurrent_push_pop: a full "
            "chaining FIFO without same-cycle pop and push deadlocks")


def plan_registers(variant: Variant, ntaps: int, unroll: int,
                   fpu_depth: int = 3,
                   concurrent_push_pop: bool = True) -> RegisterPlan:
    """Compute the register allocation for one kernel build.

    Raises ``ValueError`` when the configuration cannot work (e.g. a
    chaining variant whose unroll factor does not match the FIFO capacity
    ``fpu_depth + 1``, or whose FIFO cannot pop and push in one cycle).
    """
    usable = NUM_FP_REGS - FIRST_FREE
    if variant.uses_chaining:
        if unroll != fpu_depth + 1:
            raise ValueError(
                f"chaining requires unroll == fpu_depth + 1 "
                f"(= {fpu_depth + 1}), got {unroll}: the logical FIFO "
                f"holds exactly pipe + architectural register"
            )
        require_concurrent_push_pop(concurrent_push_pop)
        chain_reg = FIRST_FREE
        acc_regs = (chain_reg,) * unroll
        next_reg = FIRST_FREE + 1
        avail_for_coeffs = usable - 1
        temp_regs: tuple[int, ...] = ()
    else:
        acc_regs = tuple(range(FIRST_FREE, FIRST_FREE + unroll))
        next_reg = FIRST_FREE + unroll
        if variant.coeffs_via_ssr:
            avail_for_coeffs = 0
            temp_regs = ()
        else:
            temp_regs = tuple(range(NUM_FP_REGS - SPILL_TEMPS, NUM_FP_REGS))
            avail_for_coeffs = usable - unroll - SPILL_TEMPS

    if variant.coeffs_via_ssr:
        coeff_regs: dict[int, int] = {}
        spilled: tuple[int, ...] = ()
    else:
        resident = min(ntaps, avail_for_coeffs)
        coeff_regs = {t: next_reg + t for t in range(resident)}
        spilled = tuple(range(resident, ntaps))
        if variant.coeffs_in_rf and spilled:
            raise ValueError(
                f"{variant.label} requires all {ntaps} coefficients "
                f"register-resident but only {resident} fit"
            )
        if spilled and not temp_regs:
            raise ValueError("spilled coefficients but no temporaries")

    return RegisterPlan(variant, unroll, ntaps, acc_regs, coeff_regs,
                        spilled, temp_regs)
