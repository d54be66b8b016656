"""Core and cluster configuration.

The defaults model the Snitch compute core used in the paper: a three-stage
FMA pipeline at 1 GHz, three SSR lanes with four-deep FIFOs, a 16-entry FP
instruction queue and a 32-bank TCDM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instructions import InstrClass

#: Valid execution-engine selections (see :attr:`CoreConfig.engine`).
#: The single source of truth -- the CLI, the sweep layer and
#: :mod:`repro.api.parse` all validate against this tuple.
ENGINES = ("auto", "scalar", "scalar-v2", "analytical")


def _default_fpu_latency() -> dict[InstrClass, int]:
    return {
        InstrClass.FP_ADD: 3,
        InstrClass.FP_MUL: 3,
        InstrClass.FP_FMA: 3,
        InstrClass.FP_DIV: 11,
        InstrClass.FP_SQRT: 17,
        InstrClass.FP_CMP: 1,
        InstrClass.FP_MINMAX: 1,
        InstrClass.FP_SGNJ: 1,
        InstrClass.FP_CVT: 2,
    }


@dataclass
class CoreConfig:
    """Tunable parameters of the simulated cluster."""

    #: Pipeline latency per FP op class, in cycles.  The paper's analysis
    #: hinges on the FMA-class latency being 3 (Snitch's FPU depth).
    fpu_latency: dict[InstrClass, int] = field(
        default_factory=_default_fpu_latency)

    #: In-flight capacity of the FPU pipeline.  Together with the
    #: architectural register this bounds the logical chaining FIFO:
    #: capacity = ``fpu_pipe_depth + 1``.
    fpu_pipe_depth: int = 3

    #: Depth of the FP instruction queue between the integer core and the
    #: FP subsystem (the "pseudo dual-issue" decoupling buffer).
    fp_queue_depth: int = 16

    #: Instruction capacity of the FREP sequencer's ring buffer.
    frep_buffer_depth: int = 16

    #: Number of SSR lanes (stream registers ``ft0``..).
    num_ssrs: int = 3

    #: Per-lane stream FIFO depth.
    ssr_fifo_depth: int = 4

    #: TCDM banking.
    tcdm_banks: int = 32
    tcdm_bank_width: int = 8
    #: Memory size; one that is no power of two steps on the seed.
    mem_size: int = 1 << 21

    #: DMA engine bandwidth (bytes per cycle; Snitch's is 512-bit wide).
    dma_bytes_per_cycle: int = 64

    #: When True, the cluster places the *encoded* program into memory at
    #: ``Program.base`` and the integer core fetches and decodes 32-bit
    #: machine words (with a decoded-instruction cache, so timing is
    #: unchanged -- Snitch's L0 buffer assumption).  Exercises the binary
    #: encoder/decoder on every executed instruction.  Self-modifying
    #: code is not supported.
    fetch_from_memory: bool = False

    #: Integer-side timing.
    branch_penalty: int = 2
    jump_penalty: int = 1
    load_use_latency: int = 2
    int_mul_latency: int = 2
    int_div_latency: int = 8

    #: When True (default, matching our reading of the paper's Fig. 1c
    #: steady state), the chaining FIFO supports a pop and a push to the
    #: same register in the same cycle.  When False the writeback is
    #: conservatively delayed, costing a bubble per wrap-around, and the
    #: cluster steps on the seed interpreter whatever ``engine`` says.
    chain_concurrent_push_pop: bool = True

    #: Execution engine:
    #:
    #: * ``"auto"`` (default) -- compose both accelerated engines: the
    #:   vectorized FREP/SSR fast path (:mod:`repro.core.fastpath`) on
    #:   eligible hardware-loop regions, with the loop memo replaying
    #:   recorded integer-loop iterations, and the scalar-v2 micro-op
    #:   engine (pre-decoded dispatch, :mod:`repro.core.uops`)
    #:   everywhere else;
    #: * ``"scalar-v2"`` -- the micro-op engine alone, stepping every
    #:   cycle: never the vectorized fast path or the loop memo;
    #: * ``"scalar"`` -- the seed cycle-by-cycle interpreter (the
    #:   reference model);
    #: * ``"analytical"`` -- no simulation at all: the closed-form
    #:   cycle/energy estimator (:mod:`repro.analytical`).  Estimates
    #:   carry ``Result.meta["fidelity"] = "analytical"`` and are only
    #:   accurate within the calibrated per-kernel-family error bounds
    #:   (see ``docs/fidelity.md``); a :class:`~repro.core.cluster.
    #:   Cluster` never sees this engine.
    #:
    #: ``"auto"`` and ``"scalar-v2"`` apply to a single-core cluster
    #: without a trace recorder or ``fetch_from_memory``, with default
    #: chaining and a power-of-two ``mem_size``; any other steps on the
    #: seed interpreter.  All cycle-accurate engines (all but
    #: ``"analytical"``) are bit-identical in every visible quantity:
    #: results, cycles, perf counters, stall breakdowns, SSR/TCDM
    #: traffic statistics, trace events and therefore energy.
    engine: str = "auto"

    #: Clock frequency used to convert cycles to time and energy to power.
    clock_hz: float = 1.0e9

    def fpu_latency_of(self, iclass: InstrClass) -> int:
        """Latency of ``iclass``; raises for non-FPU classes."""
        return self.fpu_latency[iclass]

    def validate(self) -> None:
        """Raise ``ValueError`` for inconsistent configurations."""
        if self.fpu_pipe_depth < 1:
            raise ValueError("fpu_pipe_depth must be >= 1")
        if self.fp_queue_depth < 1:
            raise ValueError("fp_queue_depth must be >= 1")
        if not 0 <= self.num_ssrs <= 3:
            raise ValueError("num_ssrs must be in 0..3")
        if self.ssr_fifo_depth < 1:
            raise ValueError("ssr_fifo_depth must be >= 1")
        for iclass, lat in self.fpu_latency.items():
            if lat < 1:
                raise ValueError(f"latency of {iclass} must be >= 1")
        if self.engine not in ENGINES:
            choices = ", ".join(f"'{e}'" for e in ENGINES[:-1])
            raise ValueError(
                f"engine must be one of {choices} or '{ENGINES[-1]}', "
                f"got {self.engine!r}")

    @property
    def uses_uops(self) -> bool:
        """True when the micro-op (scalar-v2) engine drives the cores."""
        return self.engine in ("auto", "scalar-v2")


@dataclass
class SystemConfig:
    """A multi-cluster system: N clusters + global memory + interconnect.

    The defaults model a small Occamy-style scale-out: identical Snitch
    clusters attached through per-cluster links to a banked, HBM-like
    global memory.  Compute cores never touch global memory directly --
    all traffic goes through each cluster's DMA engine (addresses at or
    above :data:`repro.system.GLOBAL_BASE` select the global memory).
    """

    #: Number of compute clusters.
    num_clusters: int = 1

    #: Per-cluster core/cluster configuration (shared by all clusters).
    core: CoreConfig = field(default_factory=CoreConfig)

    #: Global (HBM-like) memory capacity in bytes.
    gmem_size: int = 1 << 24

    #: Global memory banking: aggregate peak bandwidth is
    #: ``gmem_banks * gmem_bank_bytes_per_cycle`` bytes per cycle,
    #: shared by all concurrently-active cluster DMAs.
    gmem_banks: int = 8
    gmem_bank_bytes_per_cycle: int = 8

    #: Access latency charged once at the start of every DMA transfer
    #: that touches global memory (row activation + interconnect
    #: traversal), in cycles.
    gmem_latency: int = 20

    #: Per-cluster interconnect link width in bytes per cycle; caps a
    #: single cluster's share of the global-memory bandwidth.
    link_bytes_per_cycle: int = 64

    @property
    def gmem_bytes_per_cycle(self) -> int:
        """Aggregate global-memory peak bandwidth (bytes per cycle)."""
        return self.gmem_banks * self.gmem_bank_bytes_per_cycle

    def validate(self) -> None:
        """Raise ``ValueError`` for inconsistent configurations."""
        if self.num_clusters < 1:
            raise ValueError(
                f"num_clusters must be >= 1, got {self.num_clusters}")
        if self.gmem_size <= 0 or self.gmem_size % 8:
            raise ValueError(
                f"gmem_size must be a positive multiple of 8, got "
                f"{self.gmem_size}")
        if self.gmem_banks < 1:
            raise ValueError(f"gmem_banks must be >= 1, got "
                             f"{self.gmem_banks}")
        if self.gmem_bank_bytes_per_cycle < 8:
            raise ValueError(
                f"gmem_bank_bytes_per_cycle must be >= 8, got "
                f"{self.gmem_bank_bytes_per_cycle}")
        if self.gmem_latency < 0:
            raise ValueError(f"gmem_latency must be >= 0, got "
                             f"{self.gmem_latency}")
        if self.link_bytes_per_cycle < 8:
            raise ValueError(
                f"link_bytes_per_cycle must be >= 8, got "
                f"{self.link_bytes_per_cycle}")
        self.core.validate()
