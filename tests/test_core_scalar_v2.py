"""Differential tests: the scalar-v2 micro-op engine vs the seed scalar.

The micro-op engine (pre-decoded dispatch + idle-cycle fast-forwarding,
``CoreConfig.engine = "scalar-v2"``) must be indistinguishable from the
seed interpreter in every architecturally visible quantity.  Two layers
of evidence:

* **digest tests** run the workloads the vectorized FREP fast path
  rejects -- stencils (indirect SSR streams), ``frep.i``, register
  staggering, FP loads, DMA drains, multicore barriers -- to completion
  under both engines and compare a full-machine digest (results, cycle
  counts, every perf/stall/TCDM/SSR/DMA counter, trace events);
* **lockstep fuzz** steps two clusters cycle-by-cycle over randomized
  small programs and compares the complete machine state after every
  cycle, so even a transient one-cycle divergence that cancels out by
  the end of the run is caught.
"""

import random

import numpy as np
import pytest

from repro.core.cluster import Cluster
from repro.core.config import CoreConfig
from repro.kernels.registry import get_stencil
from repro.kernels.ssrgen import SsrPatternAsm
from repro.kernels.stencil_codegen import build_stencil
from repro.kernels.variants import VARIANT_ORDER, Variant
from repro.kernels.vecop import VecopVariant, build_vecop
from repro.trace import TraceRecorder

DATA = 0x2000
IDX = 0x3000
OUT = 0x6000


def machine_digest(cluster: Cluster) -> dict:
    """Every architecturally visible quantity of a finished run."""
    return {
        "cycles": cluster.cycle,
        "summary": cluster.perf.summary(),
        "stalls": cluster.perf.stall_breakdown(),
        "marks": {k: (v.cycle, v.counters)
                  for k, v in cluster.perf.marks.items()},
        "tcdm": cluster.tcdm.stats(),
        "fpregs": [tuple(fp.fpregs.values) for fp in cluster.fps],
        "intregs": [tuple(core.regs.values) for core in cluster.cores],
        "chain": [(fp.chain.mask, tuple(fp.chain.valid), fp.chain.pushes,
                   fp.chain.pops, fp.chain.backpressure_events)
                  for fp in cluster.fps],
        "streamers": [[(s.active_cycles, s.elements_moved, s._to_consume,
                        s._to_produce) for s in fp.streamers]
                      for fp in cluster.fps],
        "lsu": [(fp.lsu.loads, fp.lsu.stores) for fp in cluster.fps],
        "dma": (cluster.dma.bytes_moved, cluster.dma.busy_cycles,
                cluster.dma.transfers_completed),
        "mem": bytes(cluster.mem._data),
    }


def run_engine(source, engine: str, *, num_cores: int = 1,
               loader=None, trace: bool = False,
               fetch_from_memory: bool = False):
    cfg = CoreConfig(engine=engine, fetch_from_memory=fetch_from_memory)
    recorder = TraceRecorder() if trace else None
    if hasattr(source, "asm"):
        cluster = Cluster(source.asm, cfg=cfg, symbols=source.symbols,
                          trace=recorder, num_cores=num_cores)
        source.load_into(cluster)
    else:
        cluster = Cluster(source, cfg=cfg, trace=recorder,
                          num_cores=num_cores)
        if loader is not None:
            loader(cluster)
    cluster.run()
    return cluster, recorder


def assert_equivalent(source, *, num_cores: int = 1, loader=None,
                      trace: bool = False, fetch_from_memory: bool = False,
                      engines=("scalar-v2", "auto")):
    ref, ref_tr = run_engine(source, "scalar", num_cores=num_cores,
                             loader=loader, trace=trace,
                             fetch_from_memory=fetch_from_memory)
    ref_digest = machine_digest(ref)
    for engine in engines:
        got, got_tr = run_engine(source, engine, num_cores=num_cores,
                                 loader=loader, trace=trace,
                                 fetch_from_memory=fetch_from_memory)
        assert machine_digest(got) == ref_digest, engine
        if trace:
            assert [(e.cycle, e.text, e.kind, e.chain_valid,
                     e.pipe_occupancy) for e in got_tr.fp_events] \
                == [(e.cycle, e.text, e.kind, e.chain_valid,
                     e.pipe_occupancy) for e in ref_tr.fp_events], engine
            assert [(e.cycle, e.text, e.dispatched)
                    for e in got_tr.int_events] \
                == [(e.cycle, e.text, e.dispatched)
                    for e in ref_tr.int_events], engine
    return ref


# -- fast-path-rejected workloads ------------------------------------------

@pytest.mark.parametrize("variant", VARIANT_ORDER,
                         ids=lambda v: v.label)
def test_stencil_variants_equivalent(variant, tiny_grid):
    """Stencils ride an indirect SSR stream: always fast-path-rejected."""
    spec, _ = get_stencil("j3d27pt")
    assert_equivalent(build_stencil(spec, tiny_grid, variant))


def test_stencil_reference_kernel_small_grid(small_grid):
    spec, _ = get_stencil("box3d1r")
    assert_equivalent(
        build_stencil(spec, small_grid, Variant.from_label("Chaining+")))


def test_frep_inner_equivalent():
    assert_equivalent(f"""
    li a0, {DATA}
    fld fa0, 0(a0)
    fld fa1, 8(a0)
    fld fa2, 16(a0)
    li t0, 5
    frep.i t0, 1
    fadd.d fa0, fa0, fa1
    fmul.d fa2, fa2, fa1
    li a1, {OUT}
    fsd fa0, 0(a1)
    fsd fa2, 8(a1)
    ebreak
""", loader=lambda c: c.load_f64(DATA, np.array([0.5, 2.0, 1.0])))


def test_frep_staggered_equivalent():
    assert_equivalent(f"""
    li a0, {DATA}
    fld fa0, 0(a0)
    fld fa1, 8(a0)
    fld fa2, 16(a0)
    li t0, 7
    frep.o t0, 0, 1, 0b011
    fadd.d fa0, fa0, fa2
    li a1, {OUT}
    fsd fa0, 0(a1)
    fsd fa1, 8(a1)
    ebreak
""", loader=lambda c: c.load_f64(DATA, np.array([1.0, 10.0, 0.125])))


def test_fp_load_store_loop_equivalent():
    # fld/fsd traffic keeps the FP LSU busy: rejected by the fast path,
    # hot on the micro-op engine.
    assert_equivalent(f"""
    li a0, {DATA}
    li a1, {OUT}
    li t1, 0
loop:
    fld fa0, 0(a0)
    fld fa1, 8(a0)
    fmadd.d fa2, fa0, fa1, fa0
    fsd fa2, 0(a1)
    addi a0, a0, 16
    addi a1, a1, 8
    addi t1, t1, 1
    li t2, 24
    bne t1, t2, loop
    ebreak
""", loader=lambda c: c.load_f64(
        DATA, np.linspace(0.5, 12.0, 48)))


def test_dma_drain_equivalent_and_fast_forwarded():
    source = f"""
    li x1, {DATA}
    li x2, {OUT}
    li x3, 2048
    dmsrc x1
    dmdst x2
    dmcpy x4, x3
    ebreak
"""
    ref = assert_equivalent(
        source,
        loader=lambda c: c.load_f64(DATA, np.arange(256, dtype=np.float64)))
    # The v2 engine must actually skip the drain, not just match it.
    v2, _ = run_engine(
        source, "scalar-v2",
        loader=lambda c: c.load_f64(DATA, np.arange(256, dtype=np.float64)))
    assert v2.ff_stats["cycles"] > ref.cycle // 2


def test_multicore_barrier_equivalent():
    assert_equivalent(f"""
    csrr a0, mhartid
    li t6, {OUT}
    slli a1, a0, 3
    add t6, t6, a1
    beq a0, x0, hart0
    li t0, 30
spin:
    addi t0, t0, -1
    bne t0, x0, spin
hart0:
    li a2, {DATA}
    fld fa0, 0(a2)
    fcvt.d.w fa1, a0
    fadd.d fa0, fa0, fa1
    csrrwi x0, 0x7C6, 1
    fsd fa0, 0(t6)
    ebreak
""", num_cores=3,
        loader=lambda c: c.load_f64(DATA, np.array([40.0])))


def test_sync_wait_spans_equivalent():
    # Back-to-back FP->int syncs with long-latency producers: the core
    # sits in sync-wait spans the fast-forwarder should jump.
    assert_equivalent(f"""
    li a0, {DATA}
    fld fa0, 0(a0)
    fld fa1, 8(a0)
    fdiv.d fa2, fa0, fa1
    feq.d t1, fa2, fa2
    fsqrt.d fa3, fa2
    fcvt.w.d t2, fa3
    add t3, t1, t2
    li a1, {OUT}
    sw t3, 0(a1)
    ebreak
""", loader=lambda c: c.load_f64(DATA, np.array([81.0, 1.0])))


def test_vecop_frep_traced_equivalent():
    build = build_vecop(n=24, variant=VecopVariant.CHAINING,
                        loop_mode="frep")
    assert_equivalent(build, trace=True, engines=("scalar-v2", "auto"))


def test_binary_fetch_equivalent():
    spec, _ = get_stencil("j2d5pt")
    from repro.kernels.layout import Grid3d

    build = build_stencil(spec, Grid3d(nz=1, ny=4, nx=16),
                          Variant.from_label("Chaining"))
    assert_equivalent(build, fetch_from_memory=True)


def test_engine_composition_and_validation():
    cfg = CoreConfig(engine="scalar-v2")
    cfg.validate()
    assert cfg.uses_uops
    cluster = Cluster("ebreak", cfg=cfg)
    assert cluster.fastpath is None           # never the vectorized path
    auto = Cluster("ebreak", cfg=CoreConfig(engine="auto"))
    assert auto.fastpath is not None          # composed with it
    with pytest.raises(ValueError):
        CoreConfig(engine="scalar-v3").validate()


# -- lockstep fuzz -----------------------------------------------------------

_FP_OPS2 = ("fadd.d", "fsub.d", "fmul.d", "fmin.d", "fmax.d", "fsgnj.d")
_FP_OPS3 = ("fmadd.d", "fmsub.d", "fnmadd.d", "fnmsub.d")
_INT_OPS = ("add", "sub", "and", "or", "xor", "slt", "sltu", "mul",
            "mulh", "divu", "rem")
_IMM_OPS = ("addi", "andi", "ori", "xori", "slti", "slli", "srli", "srai")
_BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")


def _random_program(rng: random.Random) -> str:
    """A random terminating program over a safe instruction subset.

    Integer regs x1..x7 compute, x8/x9 hold data bases, FP regs f3..f9
    compute with f20..f23 optionally chain-enabled; branches only jump
    forward, so the program always reaches ``ebreak``.
    """
    lines = [f"li x8, {DATA}", f"li x9, {OUT}"]
    if rng.random() < 0.6:
        mask = 0
        for reg in (20, 21, 22, 23):
            if rng.random() < 0.5:
                mask |= 1 << reg
        lines.append(f"li x7, {mask}")
        lines.append("csrrw x0, 0x7C3, x7")
    label = 0
    pending_label = None
    for _ in range(rng.randrange(10, 60)):
        if pending_label is not None and rng.random() < 0.7:
            lines.append(f"{pending_label}:")
            pending_label = None
        kind = rng.random()
        r = lambda: rng.randrange(1, 8)          # noqa: E731
        f = lambda: rng.randrange(3, 10)         # noqa: E731
        fc = lambda: rng.randrange(20, 24)       # noqa: E731
        if kind < 0.25:
            lines.append(f"{rng.choice(_INT_OPS)} x{r()}, x{r()}, x{r()}")
        elif kind < 0.40:
            lines.append(f"{rng.choice(_IMM_OPS)} x{r()}, x{r()}, "
                         f"{rng.randrange(0, 16)}")
        elif kind < 0.50:
            off = 4 * rng.randrange(0, 32)
            if rng.random() < 0.5:
                lines.append(f"lw x{r()}, {off}(x8)")
            else:
                lines.append(f"sw x{r()}, {off}(x8)")
        elif kind < 0.60:
            off = 8 * rng.randrange(0, 16)
            if rng.random() < 0.5:
                lines.append(f"fld f{f()}, {off}(x8)")
            else:
                lines.append(f"fsd f{f()}, {off}(x9)")
        elif kind < 0.78:
            dst = fc() if rng.random() < 0.3 else f()
            s1 = fc() if rng.random() < 0.2 else f()
            if rng.random() < 0.3:
                lines.append(f"{rng.choice(_FP_OPS3)} f{dst}, f{s1}, "
                             f"f{f()}, f{f()}")
            else:
                lines.append(f"{rng.choice(_FP_OPS2)} f{dst}, f{s1}, "
                             f"f{f()}")
        elif kind < 0.84:
            lines.append(f"feq.d x{r()}, f{f()}, f{f()}")
        elif kind < 0.90 and pending_label is None:
            pending_label = f"fwd{label}"
            label += 1
            lines.append(f"{rng.choice(_BRANCHES)} x{r()}, x{r()}, "
                         f"{pending_label}")
        elif kind < 0.96:
            body = rng.randrange(1, 4)
            iters = rng.randrange(0, 6)
            mode = rng.choice(("frep.o", "frep.i"))
            stagger = ", 1, 0b0011" if rng.random() < 0.3 else ""
            lines.append(f"li x6, {iters}")
            lines.append(f"{mode} x6, {body - 1}{stagger}")
            for _ in range(body):
                lines.append(f"{rng.choice(_FP_OPS2)} f{f()}, f{f()}, "
                             f"f{f()}")
        else:
            lines.append(f"csrr x{r()}, mcycle")
    if pending_label is not None:
        lines.append(f"{pending_label}:")
    lines.append("ebreak")
    return "\n".join(lines)


def _random_ssr_program(rng: random.Random) -> tuple[str, np.ndarray]:
    """A random stream program and the index array it gathers through.

    SSR0 gathers ``DATA`` through the index array at ``IDX``, SSR1 reads
    ``DATA`` affinely (2-D, optionally repeating) and SSR2 writes to
    ``OUT``; a random body of plain and chained FMAs, some inside an
    ``frep.o``, pops and pushes exactly as many elements as the streams
    hold, with ``fsd`` of plain and stream registers between steps.
    """
    frep = rng.random() < 0.5
    iters = rng.randrange(1, 4)
    plain = lambda: rng.randrange(3, 7)                   # noqa: E731
    body = []

    def source():
        reg = rng.choice((0, 1, 0, 1, None))
        if reg is None:
            return plain()
        pops[reg] += 1
        return reg

    def dest():
        nonlocal pushes
        if rng.random() < 0.5:
            pushes += 1
            return 2
        return plain()

    # Every program reads SSR0 and SSR1 and writes SSR2 at least once.
    body.append(f"fmadd.d f2, f0, f1, f{plain()}")
    pops = [1, 1]
    pushes = 1
    for _ in range(rng.randrange(1, 5)):
        if rng.random() < 0.5:
            # A chained pair: the producer pushes f20/f21, the consumer
            # pops it (possibly naming it in two positions).
            c = rng.choice((20, 21))
            body.append(f"fmadd.d f{c}, f{source()}, f{source()}, "
                        f"f{plain()}")
            second = c if rng.random() < 0.3 else source()
            body.append(f"{rng.choice(_FP_OPS2)} f{dest()}, f{c}, "
                        f"f{second}")
        elif rng.random() < 0.5:
            body.append(f"{rng.choice(_FP_OPS3)} f{dest()}, f{source()}, "
                        f"f{source()}, f{source()}")
        else:
            body.append(f"{rng.choice(_FP_OPS2)} f{dest()}, f{source()}, "
                        f"f{source()}")
    n0, n1 = pops[0] * iters, pops[1] * iters
    stores = []
    if not frep:
        # fsd of a plain register or a stream pop, once, between the
        # body steps of the first repetition.
        for _ in range(rng.randrange(0, 3)):
            reg = rng.choice((0, 1, None))
            if reg is None:
                reg = plain()
            elif reg == 0:
                n0 += 1
            else:
                n1 += 1
            stores.append((rng.randrange(len(body) + 1),
                           f"fsd f{reg}, {8 * rng.randrange(16)}(x9)"))
    repeat0 = 1 if n0 % 2 == 0 and rng.random() < 0.4 else 0
    repeat1 = 1 if n1 % 2 == 0 and rng.random() < 0.4 else 0
    e0, e1 = n0 // (repeat0 + 1), n1 // (repeat1 + 1)
    inner = rng.choice([d for d in range(1, e1 + 1) if e1 % d == 0])
    idx_size = rng.choice((2, 4))
    streams = [
        SsrPatternAsm(ssr=0, base=DATA, bounds=[e0], strides=[8],
                      repeat=repeat0, indirect=True, idx_base=IDX,
                      idx_size=idx_size, idx_shift=3),
        SsrPatternAsm(ssr=1, base=DATA + 8 * rng.randrange(8),
                      bounds=[inner, e1 // inner],
                      strides=[8 * rng.choice((1, 2)),
                               -8 * rng.randrange(0, 3)],
                      repeat=repeat1),
        SsrPatternAsm(ssr=2, base=OUT, bounds=[pushes * iters],
                      strides=[8], write=True),
    ]
    lines = [f"li x8, {DATA}", f"li x9, {OUT + 0x200}"]
    lines += [p.emit() for p in streams]
    lines += [f"li x7, {(1 << 20) | (1 << 21)}", "csrrw x0, 0x7C3, x7",
              "csrrsi x0, 0x7C0, 1"]
    if frep:
        lines += [f"li x6, {iters - 1}", f"frep.o x6, {len(body) - 1}"]
        lines += body
    else:
        first = list(body)
        for at, store in sorted(stores, reverse=True):
            first.insert(at, store)
        lines += first + body * (iters - 1)
    lines += ["csrrci x0, 0x7C0, 1", "csrrwi x0, 0x7C3, 0",
              "fsd f3, 0(x9)", "ebreak"]
    dtype = np.uint16 if idx_size == 2 else np.uint32
    idx = np.array([rng.randrange(128) for _ in range(e0)], dtype=dtype)
    return "\n".join(lines), idx


def _lockstep_state(cluster: Cluster) -> tuple:
    core, fp = cluster.core, cluster.fp
    return (
        cluster.cycle, core.pc, core.halted, core.stall_until,
        core.waiting_sync is not None, core.barrier_wait,
        tuple(core.regs.values), tuple(core.regs.ready_cycle),
        core._pending_load_rd,
        tuple(fp.fpregs.values), tuple(fp.fpregs.busy),
        fp.chain.mask, tuple(fp.chain.valid), fp.chain.pushes,
        fp.chain.pops, fp.chain.backpressure_events,
        len(fp.sequencer.queue), fp.sequencer._active,
        fp.sequencer.position if fp.sequencer._active else -1,
        tuple((op.completes_at, op.dest, op.dest_is_ssr, op.sync,
               op.value) for op in fp.pipe.in_flight),
        fp.sync_ready, fp._sync_value,
        fp.lsu.loads, fp.lsu.stores,
        cluster.perf.counter_state(),
        cluster.tcdm.total_accesses, cluster.tcdm.total_conflicts,
        bytes(cluster.mem._data[DATA:OUT + 0x400]),
        tuple((tuple(s._fifo), tuple(s._idx_fifo), s._rep_count,
               s._to_consume, s._to_produce, s._data_requested,
               s._pending_write_addr, s.elements_moved, s.active_cycles)
              for s in fp.streamers),
        tuple((None if p._pending is None else
               (p._pending.addr, p._pending.is_write, p._pending.width,
                p._pending.data),
               p._response_ready, p._response)
              for p in cluster.tcdm.ports),
    )


@pytest.mark.parametrize("seed", range(25))
def test_fuzz_lockstep_per_cycle(seed):
    rng = random.Random(1234 + seed)
    source = _random_program(rng)
    data = np.array([rng.uniform(-4, 4) for _ in range(128)])

    clusters = []
    for engine in ("scalar", "scalar-v2"):
        cluster = Cluster(source, cfg=CoreConfig(engine=engine))
        cluster.load_f64(DATA, data)
        clusters.append(cluster)
    ref, v2 = clusters
    for cycle in range(500):
        ref.step()
        v2.step()
        assert _lockstep_state(ref) == _lockstep_state(v2), \
            f"seed {seed} diverged at cycle {cycle}\n{source}"


@pytest.mark.parametrize("seed", range(25))
def test_fuzz_lockstep_streams_per_cycle(seed):
    """Stream-heavy programs: every streamer's FIFOs and counters and
    every TCDM port's pending request and response, cycle by cycle."""
    rng = random.Random(4321 + seed)
    source, idx = _random_ssr_program(rng)
    data = np.array([rng.uniform(-4, 4) for _ in range(128)])

    clusters = []
    for engine in ("scalar", "scalar-v2"):
        cluster = Cluster(source, cfg=CoreConfig(engine=engine))
        cluster.load_f64(DATA, data)
        cluster.mem.write_array(IDX, idx)
        clusters.append(cluster)
    ref, v2 = clusters
    while not ref.done:
        ref.step()
        v2.step()
        assert _lockstep_state(ref) == _lockstep_state(v2), \
            f"seed {seed} diverged at cycle {ref.cycle}\n{source}"
        assert ref.cycle < 2_000, f"seed {seed} did not finish\n{source}"
    assert v2.done
    assert all(s.elements_moved for s in ref.fp.streamers)


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_run_to_completion_with_fast_forward(seed):
    """End-to-end run() comparison: exercises the fast-forwarder too."""
    rng = random.Random(99 + seed)
    source = _random_program(rng)
    data = np.array([rng.uniform(-4, 4) for _ in range(128)])

    digests = []
    for engine in ("scalar", "scalar-v2"):
        cluster = Cluster(source, cfg=CoreConfig(engine=engine))
        cluster.load_f64(DATA, data)
        try:
            cluster.run(max_cycles=5_000)
            outcome = "done"
        except Exception as exc:   # deadlocks must match too
            outcome = type(exc).__name__
        digests.append((outcome, machine_digest(cluster)))
    assert digests[0] == digests[1]
